import dataclasses
import importlib

import pytest

from multlattice.core import MDistributivityRequired, check_axioms, validate
from multlattice.ingest import chain
from multlattice.series import series, solvable_witness_chain
from multlattice.spectrum import hyperabelian_report
from multlattice.verify import run_row

from conftest import mk_chain

series_module = importlib.import_module("multlattice.series")


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


def series_detail(L):
    return run_row(L, "series.descending_stabilizing").detail


def test_a_product_above_its_factor_fails_the_descent():
    # chain3_meet with a * a planted at top: the lower central series of a
    # climbs from a to top
    L = mk_chain(3, min)
    L.mult_table = ((0, 0, 0), (0, 2, 1), (0, 1, 2))
    assert series_detail(L) == "TheoremViolation: series failed to descend (witness (1, 2))"


def test_a_series_without_its_second_term_fails_the_derived_identity(monkeypatch):
    # in the zero chain a * a = bottom, the second term of a's series; a
    # descent that loses its second term stops at a
    descend = series_module._descend
    monkeypatch.setattr(series_module, "_descend",
                        lambda L, x, step: (lambda s: s[:1] + s[2:])(descend(L, x, step)))
    assert series_detail(mk_chain(3, lambda x, y: 0)) == (
        "TheoremViolation: derived element identity fails (witness 1)")


def test_unequal_nilpotency_flags_fail_under_associativity(monkeypatch):
    # top's lower central series is top, a, bottom and its right series is
    # top, a, as top * a = a.  The table is not associative ((top * top) * a
    # = bottom, top * (top * a) = a); read as associative, the flags must
    # coincide, and they do not.  The plant is on the associativity scan
    # that series reads, not on a full report
    L = validate(size=3, covers=[(0, 1), (1, 2)], mult=[[0, 0, 0], [0, 0, 0], [0, 1, 1]],
                 name="skew3")
    assert series_detail(L) == ""
    law_witness = series_module.law_witness
    monkeypatch.setattr(series_module, "law_witness", lambda M, flag: (
        None if (M.name, flag) == ("skew3", "associative") else law_witness(M, flag)))
    assert series_detail(L) == (
        "TheoremViolation: nilpotency flags must coincide under associativity (witness 2)")


def test_a_chain_with_a_missing_step_fails_to_validate(monkeypatch):
    # x * y = max(0, x + y - 4) on chain4 squares top to 2 and 2 to bottom:
    # the chain is 0 < 2 < 3.  Without its middle step, top's square 2 is not
    # below bottom
    L = mk_chain(4, lambda x, y: max(0, x + y - 4))
    assert hyperabelian_report(L).chain == (0, 2, 3)
    report = series_module.hyperabelian_report
    monkeypatch.setattr(series_module, "hyperabelian_report",
                        lambda M: dataclasses.replace(report(M), chain=(0, 3)))
    assert run_row(L, "series.solvable_chain").detail == (
        "TheoremViolation: squaring chain fails to validate (witness (0, 3))")
