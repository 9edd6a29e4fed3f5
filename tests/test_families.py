import pytest

from multlattice.core import HypothesesFail, check_axioms, validate
from multlattice.families import (annihilators, classify_family, pip_check,
                                  residual_left, residual_right,
                                  sigma_of_system)
from multlattice.ingest import zn_ideals
from multlattice.spectrum import classify_all
from multlattice.systems import all_m_systems, complement_system

from conftest import mk_chain


def brute_residual_left(L, a, b):
    return L.lub([x for x in L.elements if L.leq(L.mult(x, b), a)])


def brute_residual_right(L, a, b):
    return L.lub([x for x in L.elements if L.leq(L.mult(b, x), a)])


def test_residual_with_top_target():
    L = mk_chain(3, min)
    for b in L.elements:
        assert residual_left(L, L.top, b) == L.top
        assert residual_right(L, L.top, b) == L.top


def test_residual_zero_mult_everything_annihilates():
    L = mk_chain(3, lambda x, y: 0)
    assert residual_left(L, 0, 1) == L.top
    assert residual_right(L, 0, 1) == L.top


def test_zn12_residual_golden():
    L = zn_ideals(12)
    i4, i2 = L.labels.index("(4)"), L.labels.index("(2)")
    assert L.labels[residual_left(L, i4, i2)] == "(2)"
    assert L.labels[residual_right(L, i4, i2)] == "(2)"


def test_residuals_match_oracle(small_exhaustive_corpus):
    for L in small_exhaustive_corpus[:300]:
        for a in L.elements:
            for b in L.elements:
                assert residual_left(L, a, b) == brute_residual_left(L, a, b)
                assert residual_right(L, a, b) == brute_residual_right(L, a, b)


def test_annihilators_zero_mult():
    L = mk_chain(3, lambda x, y: 0)
    for x in L.elements:
        rep = annihilators(L, x)
        assert rep.rann == L.top and rep.lann == L.top
        assert rep.right_center == x and rep.left_center == x


def test_annihilators_meet_chain():
    L = mk_chain(4, min)
    for x in L.elements:
        rep = annihilators(L, x)
        expected = L.top if x == L.bottom else L.bottom
        assert rep.rann == expected == rep.lann


def test_annihilator_products_vanish_under_infinite_mdist(named_corpus):
    for L in named_corpus:
        if not check_axioms(L).infinitely_m_distributive:
            continue
        for x in L.elements:
            rep = annihilators(L, x)
            assert L.mult(x, rep.rann) == L.bottom
            assert L.mult(rep.lann, x) == L.bottom


def test_family_of_top_on_prime_two_chain():
    L = mk_chain(2, min)
    rep = classify_family(L, {L.top})
    assert rep.left_oka and rep.right_oka and rep.oka and rep.ako


def test_family_of_top_fails_on_hyperabelian_chain():
    # with the zero multiplication every residual is top, so {top} cannot be
    # Oka or Ako without making the maximal element prime
    L = mk_chain(3, lambda x, y: 0)
    rep = classify_family(L, {L.top})
    assert not (rep.left_oka or rep.right_oka or rep.oka or rep.ako)
    a, l = rep.counterexamples["left_oka"]
    assert L.join(a, l) in rep.family
    assert residual_left(L, l, a) in rep.family
    assert l not in rep.family


def test_whole_lattice_family_always_qualifies(small_exhaustive_corpus):
    for L in small_exhaustive_corpus[:100]:
        rep = classify_family(L, frozenset(L.elements))
        assert rep.left_oka and rep.right_oka and rep.oka and rep.ako


def test_family_without_top_fails_with_marker():
    L = mk_chain(3, min)
    rep = classify_family(L, {0})
    assert not rep.ako and rep.counterexamples["ako"] == ("top",)


def test_pip_on_two_chain():
    L = mk_chain(2, min)
    rep = pip_check(L, {L.top})
    assert rep.maximal_outside == (0,)
    assert rep.all_prime


def test_pip_rejects_unqualified_family():
    L = mk_chain(3, lambda x, y: 0)
    with pytest.raises(HypothesesFail):
        pip_check(L, {L.top})


def test_pip_rejects_non_monotone():
    L = validate(size=4, covers=[(0, 1), (0, 2), (1, 3), (2, 3)],
                 mult=[[0] * 4, [0, 1, 0, 0], [0] * 4, [0] * 4], name="skew")
    with pytest.raises(HypothesesFail):
        pip_check(L, frozenset(L.elements))


def test_pip_exhaustive_families_never_leave_nonprime_maximal(small_exhaustive_corpus):
    for L in small_exhaustive_corpus:
        ax = check_axioms(L)
        if not ax.monotone:
            continue
        for mask in range(1 << L.size):
            F = L.set_of(mask)
            rep = classify_family(L, F)
            if rep.left_oka or rep.right_oka or (rep.oka and ax.associative) or rep.ako:
                assert pip_check(L, F).all_prime


def test_sigma_examples():
    L = mk_chain(3, min)
    rep = sigma_of_system(L, {2})
    assert rep.sigma == frozenset({0, 1})
    assert rep.maximal_elements == frozenset({1})
    assert rep.maximal_are_prime and rep.complement_is_ako

    assert sigma_of_system(L, {0}).sigma == frozenset()


def test_sigma_from_prime_system():
    L = zn_ideals(12)
    p = L.labels.index("(2)")
    S = complement_system(L, p).members
    rep = sigma_of_system(L, S)
    flags = classify_all(L)
    assert all(flags[m].prime for m in rep.maximal_elements)
    assert p in rep.maximal_elements


def test_sigma_z12_saturated_system_golden():
    from multlattice.systems import classify_system, saturate

    L = zn_ideals(12)
    i2, i4 = L.labels.index("(2)"), L.labels.index("(4)")
    # {(2)} alone is not an m-system: (2)*(2) = (4) has no member below it
    assert not classify_system(L, {i2}).is_m
    sat = saturate(L, {i2, i4})
    assert sorted(L.labels[c] for c in sat.members) == ["(1)", "(2)", "(4)"]
    rep = sigma_of_system(L, sat.members)
    assert sorted(L.labels[m] for m in rep.maximal_elements) == ["(3)"]
    flags = classify_all(L)
    assert all(flags[m].prime for m in rep.maximal_elements)


def test_sigma_all_msystems(small_exhaustive_corpus):
    for L in small_exhaustive_corpus[:400]:
        for S in all_m_systems(L):
            rep = sigma_of_system(L, S)
            if L.bottom not in S:
                assert rep.maximal_elements


def test_family_counterexamples_recheck(small_exhaustive_corpus):
    # every recorded counterexample must actually violate its implication
    for L in small_exhaustive_corpus[:150]:
        for mask in range(1 << L.size):
            rep = classify_family(L, L.set_of(mask))
            F = rep.family
            if L.top not in F:
                continue
            for flag in ("left_oka", "right_oka", "oka"):
                if flag not in rep.counterexamples:
                    continue
                a, l = rep.counterexamples[flag]
                assert L.join(a, l) in F and l not in F
                if flag in ("left_oka", "oka"):
                    assert residual_left(L, l, a) in F
                if flag in ("right_oka", "oka"):
                    assert residual_right(L, l, a) in F
            if "ako" in rep.counterexamples:
                l, a, b = rep.counterexamples["ako"]
                assert L.join(l, a) in F and L.join(l, b) in F
                assert L.join(l, L.mult(a, b)) not in F


def test_no_family_on_hyperabelian_five_chain_traps_a_maximal():
    # exhaustive search over every family on a 5-element empty-spectrum
    # lattice: any qualifying family must leave no maximal element outside,
    # since no element is prime
    L = mk_chain(5, lambda x, y: 0)
    ax = check_axioms(L)
    for mask in range(1 << L.size):
        F = L.set_of(mask)
        rep = classify_family(L, F)
        if rep.left_oka or rep.right_oka or (rep.oka and ax.associative) or rep.ako:
            assert pip_check(L, F).maximal_outside == ()


def test_literal_generator_reading_fails_somewhere():
    # For non-prime p = a on the zero-multiplication chain there is no pair
    # of generators outside p whose products BOTH avoid p: every product is
    # bottom.  The workable reading (products below p) does hold.
    L = mk_chain(3, lambda x, y: 0)
    p = 1
    gens = sorted(L.generators)
    literal = any(not L.leq(a, p) and not L.leq(b, p)
                  and not L.leq(L.mult(a, b), p) and not L.leq(L.mult(b, a), p)
                  for a in gens for b in gens)
    assert not literal
    workable = any(not L.leq(a, p) and not L.leq(b, p)
                   and L.leq(L.mult(a, b), p) and L.leq(L.mult(b, a), p)
                   for a in gens for b in gens)
    assert workable
