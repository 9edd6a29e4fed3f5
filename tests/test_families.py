import dataclasses

import pytest

from multlattice import families, verify
from multlattice.core import (POWERSET_LIMIT, HypothesesFail, MultLattice, OrderData,
                              TheoremViolation, check_axioms, validate)
from multlattice.families import (PipReport, annihilators, classify_family,
                                  pip_check, pip_exhaustive, residual_left,
                                  residual_right, sigma_of_system)
from multlattice.ingest import chain, zn_ideals
from multlattice.spectrum import classify_all, prime_mask, primes_of, v_set
from multlattice.systems import (_saturated_masks, all_m_systems, complement_system,
                                 m_system_masks)
from multlattice.verify import corpus_exhaustive_tables, run_row, verify_all

from conftest import mk_chain
from test_mask_reference import reference_case_masks


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


def test_each_residual_bound_fails_the_row(monkeypatch):
    # On this non-commutative chain x -> x*1 is (0, 0, 1) and x -> 2*x is
    # (0, 1, 2), and no other left or right map equals either.  An adjoint
    # that sends one of them to top everywhere breaks the residual bound on
    # that side; one that sends it to bottom misses a qualifying element.
    table = ((0, 0, 0), (0, 0, 0), (0, 1, 2))
    adjoint = OrderData.adjoint
    for f, bound, missed in (
            ((0, 0, 1), "residual bound fails: (0 :l 1) * 1 !<= 0 (witness (0, 1))",
             "left residual misses a qualifying element (witness (0, 1, 1))"),
            ((0, 1, 2), "residual bound fails: 2 * (0 :r 2) !<= 0 (witness (0, 2))",
             "right residual misses a qualifying element (witness (1, 2, 1))")):
        for at, detail in (("top", bound), ("bottom", missed)):
            monkeypatch.setattr(OrderData, "adjoint", lambda self, g, downs, f=f, at=at: (
                (getattr(self, at),) * len(downs) if tuple(g) == f else adjoint(self, g, downs)))
            L = mk_chain(3, lambda x, y: table[x][y])
            assert check_axioms(L).infinitely_m_distributive
            assert run_row(L, "families.residual_bounds").detail == "TheoremViolation: " + detail


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
    assert classify_all(L)[0].prime


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
                outside = [x for x in L.elements if x not in F]
                pip = pip_check(L, F)
                assert pip.maximal_outside == tuple(
                    x for x in outside if not any(x != y and L.leq(x, y) for y in outside))
                assert all(classify_all(L)[m].prime for m in pip.maximal_outside)


def test_sigma_examples():
    L = mk_chain(3, min)
    rep = sigma_of_system(L, {2})
    assert rep.sigma == frozenset({0, 1})
    assert rep.maximal_elements == frozenset({1})
    # the lattice is m-distributive, so both legs ran and passed
    assert check_axioms(L).m_distributive and classify_all(L)[1].prime
    assert classify_family(L, frozenset(L.elements) - rep.sigma).ako

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


def test_mask_route_matches_the_set_route(named_corpus):
    """Families, V(x) and D(x) are masks inside the package and frozensets
    at its edge.  On the named corpus and the exhaustive tables of at most 4
    elements, the families that the 2^n family kernel qualifies
    (``test_mask_reference.reference_case_masks``) are those that
    ``pip_check`` qualifies, for the same cases, and the others are those
    that ``pip_check`` refuses with ``classify_family``'s counterexamples.  V(x) is the primes above x and
    D(x) the other primes."""
    assert not [f.name for f in dataclasses.fields(PipReport) if "bool" in f.type]
    names = ("left_oka", "right_oka", "oka_associative", "ako")
    runs = 0
    for L in list(named_corpus) + corpus_exhaustive_tables(4):
        primes = primes_of(L)
        for x in L.elements:
            above = frozenset(p for p in primes if L.leq(x, p))
            assert v_set(L, x) == above
            assert L.set_of(prime_mask(L) & ~L.up_masks[x]) == primes - above    # D(x)
        ax = check_axioms(L)
        if not ax.monotone or L.size > POWERSET_LIMIT:
            continue
        pip_exhaustive(L)
        case_masks = reference_case_masks(L, ax.associative)
        for fmask in range(1 << L.size):
            F = L.set_of(fmask)
            cases = tuple(name for name, bits in zip(names, case_masks) if bits >> fmask & 1)
            rep = classify_family(L, F)
            expected = tuple(case for case, ok in (("left_oka", rep.left_oka),
                                                   ("right_oka", rep.right_oka),
                                                   ("oka_associative", rep.oka and ax.associative),
                                                   ("ako", rep.ako)) if ok)
            assert cases == expected
            try:
                pip = pip_check(L, F)
            except HypothesesFail as exc:
                assert not cases and exc.witness == rep.counterexamples
                continue
            outside = [y for y in L.elements if y not in F]
            assert pip.qualifying_cases == cases
            assert pip.maximal_outside == tuple(
                y for y in outside if not any(y != z and L.leq(y, z) for z in outside))
        runs += 1
    assert runs > 200


def test_planted_nonprime_maximal_fails_the_pip_row(monkeypatch):
    # Calling the coatom of the 3-chain non-prime: the family {top} is left
    # Oka, and the coatom is its maximal outsider.  The row reports what
    # pip_check on every family, as sets, raises.
    L = mk_chain(3, min)
    planted = tuple(dataclasses.replace(f, prime=False) if x == 1 else f
                    for x, f in enumerate(classify_all(L)))
    monkeypatch.setattr(families, "classify_all", lambda M: planted)
    rows = {r.check: r.detail for r in verify_all(L, ("families",)).results}
    detail = ("TheoremViolation: maximal element 1 outside a left_oka family "
              "is not prime (witness 1)")
    assert rows["families.pip_exhaustive"] == detail
    with pytest.raises(TheoremViolation) as exc:
        for mask in range(1 << L.size):
            try:
                pip_check(L, L.set_of(mask))
            except HypothesesFail:
                pass
    assert f"TheoremViolation: {exc.value} (witness {exc.value.witness})" == detail


def test_planted_nonprime_fails_pip_exhaustive_on_the_first_family(monkeypatch, named_corpus):
    # With one prime called non-prime, pip_exhaustive raises what the
    # per-family loop raises, on the same first family: the lowest family
    # that qualifies and leaves that element maximal outside.
    def per_family(L, associative):
        for fmask in range(1 << L.size):
            try:
                families._pip(L, fmask, associative)
            except TheoremViolation as exc:
                return fmask, str(exc), exc.witness
        return None

    real_pip = families._pip
    failing = 0
    for L in list(named_corpus) + corpus_exhaustive_tables(4):
        ax = check_axioms(L)
        if not ax.monotone or L.size > POWERSET_LIMIT:
            continue
        flags = classify_all(L)
        for p in sorted(primes_of(L)):
            planted = tuple(dataclasses.replace(f, prime=False) if x == p else f
                            for x, f in enumerate(flags))
            with monkeypatch.context() as m:
                m.setattr(families, "classify_all", lambda M: planted)
                expected = per_family(L, ax.associative)
                calls = []
                m.setattr(families, "_pip", lambda M, fmask, associative: (
                    calls.append(fmask) or real_pip(M, fmask, associative)))
                if expected is None:
                    pip_exhaustive(L)
                    assert calls == [], (L.name, p)
                    continue
                with pytest.raises(TheoremViolation) as exc:
                    pip_exhaustive(L)
            assert (calls, str(exc.value), exc.value.witness) == (
                [expected[0]], *expected[1:]), (L.name, p)
            failing += 1
    assert failing > 100


def test_saturated_m_systems_give_every_avoiding_set(named_corpus):
    # Sigma(S) = Sigma(up S), and on a monotone lattice up S is a saturated
    # m-system, so the sigma row reads the saturated ones alone.
    def avoiding(L, masks):
        return {sum(1 << l for l in L.elements if not s & L.down_masks[l]) for s in masks}

    monotone = 0
    for L in list(named_corpus) + corpus_exhaustive_tables(4):
        if check_axioms(L).monotone and L.size <= POWERSET_LIMIT:
            assert avoiding(L, m_system_masks(L)) == avoiding(L, _saturated_masks(L)), L.name
            monotone += 1
    assert monotone > 200


def test_a_closure_that_drops_top_fails_the_pip_row(monkeypatch):
    # A closure planted to return every element but top and m leaves m out,
    # yet the family scan finds that family meets no schema (it lacks top):
    # the row names the lowest such family.  chain3_zero has no primes.
    monkeypatch.setattr(families, "_closure", lambda L, schema, start, m:
                        L.full_mask & ~(1 << L.top) & ~(1 << m))
    assert run_row(chain(3, "zero"), "families.pip_exhaustive").detail == (
        "TheoremViolation: the family closure and the family scan disagree (witness (0,))")


def test_planted_faults_fail_the_bottom_legs_of_the_sigma_row(monkeypatch):
    # Sigma(S) is read off the down-sets, so its bottom legs hold on every
    # lattice; each is reached by one library routine planted to lie.  On
    # zn12 (bottom (12), index 5) the first saturated m-system holding
    # bottom is the whole lattice, and the first one lacking it is {(1)}.
    L = zn_ideals(12)
    set_of = MultLattice.set_of
    with monkeypatch.context() as patch:
        # the empty avoiding set read as {bottom}
        patch.setattr(MultLattice, "set_of", lambda M, mask: set_of(M, mask or 1 << M.bottom))
        assert run_row(L, "families.sigma_maximal_prime").detail == (
            "TheoremViolation: bottom in S forces the avoiding set empty (witness (5,))")
    with monkeypatch.context() as patch:
        # no avoiding set has a maximal element
        patch.setattr(MultLattice, "maximal_in", lambda M, mask: [])
        assert run_row(L, "families.sigma_maximal_prime").detail == (
            "TheoremViolation: bottom not in S: the avoiding set must have maximal "
            "elements (witness (0,))")
    assert run_row(L, "families.sigma_maximal_prime").passed


def test_generator_witness_row_fails_on_a_prime_read_as_non_prime(monkeypatch):
    # The 3-chain under meet is monotone and associative, and its prime 1
    # read as non-prime has no generators a, b outside it with ab <= 1:
    # only 2 is outside, and 2 * 2 = 2.
    L = chain(3, "meet")
    flags = tuple(dataclasses.replace(f, prime=False) if x == 1 else f
                  for x, f in enumerate(classify_all(L)))
    monkeypatch.setattr(verify, "classify_all", lambda M: flags)
    assert run_row(L, "families.generator_symmetric_witness").detail == (
        "TheoremViolation: no symmetric generator witness for a non-prime "
        "element (witness 1)")
