import pytest

from multlattice.core import MDistributivityRequired, check_axioms, validate
from multlattice.ingest import chain
from multlattice.series import series, solvable_witness_chain
from multlattice.spectrum import hyperabelian_report

from conftest import mk_chain


def test_bottom_is_everything_at_once():
    L = mk_chain(3, min)
    rep = series(L, L.bottom)
    assert rep.idempotent and rep.abelian
    assert rep.left_nilpotent and rep.right_nilpotent and rep.solvable
    assert rep.lower_central == (0,)


def test_zero_chain_top_immediately_abelian():
    L = mk_chain(3, lambda x, y: 0)
    rep = series(L, L.top)
    assert rep.lower_central == (2, 0)
    assert rep.abelian and rep.left_nilpotent and rep.right_nilpotent
    assert rep.solvable and not rep.idempotent
    assert rep.stabilization_index["lower_central"] == 2


def test_meet_mult_elements_idempotent_not_nilpotent():
    L = mk_chain(4, min)
    for x in L.elements:
        rep = series(L, x)
        assert rep.idempotent
        if x != L.bottom:
            assert not rep.left_nilpotent and not rep.solvable


def test_truncated_add_chain_everything_nilpotent():
    L = chain(5, "truncated_add")
    for x in L.elements:
        rep = series(L, x)
        if x != L.top:
            assert rep.left_nilpotent and rep.solvable
    top = series(L, L.top)
    assert top.idempotent  # 0 + 0 = 0 at the top of the truncation


def test_derived_element_identity(small_exhaustive_corpus):
    for L in small_exhaustive_corpus[:300]:
        for x in L.elements:
            rep = series(L, x)
            square = L.mult(x, x)
            assert (rep.lower_central + (rep.lower_central[-1],))[1] == square
            assert (rep.derived + (rep.derived[-1],))[1] == square


def test_sequences_descend(small_exhaustive_corpus):
    for L in small_exhaustive_corpus[:300]:
        for x in L.elements:
            rep = series(L, x)
            for seq in (rep.lower_central, rep.right_series, rep.derived):
                assert all(L.lt(b, a) for a, b in zip(seq, seq[1:]))


def test_associative_flags_coincide(small_exhaustive_corpus, assoc_noncomm):
    for L in list(small_exhaustive_corpus) + [assoc_noncomm]:
        if not check_axioms(L).associative:
            continue
        for x in L.elements:
            rep = series(L, x)
            assert rep.left_nilpotent == rep.right_nilpotent == rep.solvable


def test_solvable_chain_zero_mult_is_one_step():
    for n in range(2, 6):
        L = mk_chain(n, lambda x, y: 0)
        rep = solvable_witness_chain(L)
        assert rep.chain == (L.bottom, L.top)
        assert "a" not in rep.witnesses


def test_solvable_chain_blocked_by_semiprime():
    L = mk_chain(2, min)
    rep = solvable_witness_chain(L)
    assert rep.chain is None
    assert rep.witnesses["a"] == 0


def test_solvable_chain_requires_mdist():
    skewed = validate(size=4, covers=[(0, 1), (0, 2), (1, 3), (2, 3)],
                      mult=[[0] * 4, [0, 1, 0, 0], [0] * 4, [0] * 4], name="skew")
    with pytest.raises(MDistributivityRequired):
        solvable_witness_chain(skewed)


def test_chain_iff_hyperabelian(small_exhaustive_corpus):
    for L in small_exhaustive_corpus:
        if not check_axioms(L).m_distributive:
            continue
        rep = solvable_witness_chain(L)
        hyper = hyperabelian_report(L).hyperabelian
        assert (rep.chain is not None) == hyper, L.name
        if rep.chain is None:
            assert rep.witnesses.get("a") is not None
