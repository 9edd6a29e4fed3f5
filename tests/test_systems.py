import itertools

import pytest

from multlattice.core import (MonotonicityRequired, NotAnMSystem, check_axioms,
                              validate)
from multlattice.ingest import zn_ideals
from multlattice.spectrum import spectrum
from multlattice.systems import (all_m_systems, classify_system,
                                 closure_in_inverse, complement_system,
                                 constructible_topology, correspondence_check,
                                 equal_saturations, inverse_topology,
                                 is_compact, primes_avoiding, saturate,
                                 saturated_m_systems, system_of_points)

from conftest import mk_chain


def brute_is_m_system(L, S):
    S = frozenset(S)
    return bool(S) and all(any(L.leq(z, L.mult(x, y)) for z in S)
                           for x in S for y in S)


def test_singleton_bottom_is_m_system():
    L = mk_chain(3, min)
    ms = classify_system(L, {0})
    assert ms.is_m and ms.kind == "both"


def test_singleton_top_with_idempotent_top():
    L = mk_chain(2, min)
    assert classify_system(L, {1}).is_m


def test_upper_pair_on_meet_chain_saturated():
    L = mk_chain(3, min)
    ms = classify_system(L, {1, 2})
    assert ms.is_m and ms.saturated


def test_empty_set_is_neither():
    L = mk_chain(3, min)
    ms = classify_system(L, set())
    assert ms.kind == "neither" and not ms.is_m and not ms.is_n
    assert ms.saturated  # vacuously


def test_classifier_matches_brute_force(small_exhaustive_corpus):
    for L in small_exhaustive_corpus[:200]:
        for mask in range(1 << L.size):
            S = L.set_of(mask)
            assert classify_system(L, S).is_m == brute_is_m_system(L, S), \
                (L.name, sorted(S))


def test_msystems_are_nsystems(small_exhaustive_corpus):
    for L in small_exhaustive_corpus:
        for mask in range(1 << L.size):
            ms = classify_system(L, L.set_of(mask))
            if ms.is_m:
                assert ms.is_n


def test_saturate_idempotent_and_minimal():
    L = mk_chain(3, min)
    sat = saturate(L, {1})
    assert sat.members == frozenset({1, 2})
    assert saturate(L, sat.members).members == sat.members
    assert saturate(L, {0}).members == frozenset(L.elements)
    # minimality: contained in every saturated m-system containing the seed
    for target in saturated_m_systems(L):
        if frozenset({1}) <= target:
            assert sat.members <= target


def test_saturate_rejects_non_m_systems():
    L = mk_chain(3, lambda x, y: 0)
    with pytest.raises(NotAnMSystem):
        saturate(L, {2})   # 1*1 = 0 has no member of {1} below it... {2}={1_elt}


def test_saturate_needs_monotonicity():
    # a*a = a, everything else 0 on the diamond: {a} is an m-system whose
    # upward closure {a, top} is not one (a*top = 0), so no smallest
    # saturated m-system above it exists
    L = validate(size=4, covers=[(0, 1), (0, 2), (1, 3), (2, 3)],
                 mult=[[0] * 4, [0, 1, 0, 0], [0] * 4, [0] * 4], name="skew")
    assert classify_system(L, {1}).is_m
    assert not classify_system(L, {1, 3}).is_m
    with pytest.raises(MonotonicityRequired):
        saturate(L, {1})


def test_nonprime_complement_witness_is_recheckable(small_exhaustive_corpus):
    for L in small_exhaustive_corpus[:300]:
        if not check_axioms(L).monotone:
            continue
        flags = [complement_system(L, x) for x in L.elements]
        for x, ms in zip(L.elements, flags):
            if not ms.is_m and ms.members:
                wx, wy = ms.m_witness
                assert wx in ms.members and wy in ms.members
                assert not any(L.leq(z, L.mult(wx, wy)) for z in ms.members)


def test_complement_system_examples():
    L = mk_chain(3, min)
    assert complement_system(L, 2).members == frozenset()
    s_a = complement_system(L, 1)
    assert s_a.members == frozenset({2}) and s_a.is_m

    zero3 = mk_chain(3, lambda x, y: 0)
    s = complement_system(zero3, 1)
    assert s.members == frozenset({2}) and not s.is_n


def test_primes_avoiding_and_points_system():
    L = mk_chain(3, min)
    assert primes_avoiding(L, set()) == spectrum(L).primes
    assert primes_avoiding(L, {0}) == frozenset()
    assert primes_avoiding(L, {2}) == frozenset({0, 1})

    assert system_of_points(L, set()).members == frozenset(L.elements)
    assert system_of_points(L, spectrum(L).primes).members == frozenset({2})


def test_hyperabelian_empty_subset_system_contains_bottom():
    L = mk_chain(3, lambda x, y: 0)
    s = system_of_points(L, set())
    assert L.bottom in s.members


def test_inverse_topology_reverses_specialization():
    L = mk_chain(3, min)
    zar = spectrum(L).zariski
    inv = inverse_topology(L)
    assert zar.point_closure(0) == frozenset({0, 1})
    assert inv.point_closure(1) == frozenset({0, 1})
    assert inv.point_closure(0) == frozenset({0})


def test_inverse_topology_empty_spectrum():
    L = mk_chain(3, lambda x, y: 0)
    inv = inverse_topology(L)
    assert inv.points == frozenset()
    assert inv.closed_sets == frozenset({frozenset()})


def test_constructible_topology_discrete(named_corpus):
    for L in named_corpus:
        assert constructible_topology(L).is_discrete(), L.name


def test_closure_examples():
    L = mk_chain(3, min)
    assert closure_in_inverse(L, {0}) == frozenset({0})
    assert closure_in_inverse(L, {1}) == frozenset({0, 1})
    inv = inverse_topology(L)
    for c in inv.closed_sets:
        assert inv.closure(c) == c


def test_equal_saturations_exhaustive(named_corpus):
    for L in named_corpus:
        pts = sorted(spectrum(L).primes)
        if len(pts) > 3:
            continue
        subsets = [frozenset(c) for r in range(len(pts) + 1)
                   for c in itertools.combinations(pts, r)]
        for xs in subsets:
            for ys in subsets:
                eq = equal_saturations(L, xs, ys)
                assert eq == (system_of_points(L, xs).members
                              == system_of_points(L, ys).members)


def test_correspondence_hyperabelian_trivial():
    L = mk_chain(3, lambda x, y: 0)
    rep = correspondence_check(L)
    assert rep.compact_saturated_sets == (frozenset(),)
    assert rep.saturated_systems == (frozenset(L.elements),)
    assert rep.homeomorphism


def test_correspondence_meet_chain_counts():
    L = mk_chain(3, min)
    rep = correspondence_check(L)
    assert len(rep.compact_saturated_sets) == len(rep.saturated_systems) == 3
    assert rep.mutually_inverse and rep.inclusion_reversing


def test_correspondence_zn12():
    L = zn_ideals(12)
    rep = correspondence_check(L)
    # Spec is a 2-point antichain: all four subsets are compact saturated
    assert len(rep.compact_saturated_sets) == 4
    assert len(rep.saturated_systems) == 4
    assert rep.homeomorphism


def test_fixed_point_identity_all_subsets(small_exhaustive_corpus):
    for L in small_exhaustive_corpus:
        if not check_axioms(L).m_distributive:
            continue
        for mask in range(1 << L.size):
            S = L.set_of(mask)
            ms = classify_system(L, S)
            fixed = system_of_points(L, primes_avoiding(L, S)).members == S
            assert (ms.is_m and ms.saturated) == fixed, (L.name, sorted(S))


def test_saturated_enumeration_matches_powerset(named_corpus):
    for L in named_corpus:
        if L.size > 8:
            continue
        via_antichains = {frozenset(s) for s in saturated_m_systems(L)}
        via_powerset = {frozenset(s) for s in all_m_systems(L)
                        if classify_system(L, s).saturated}
        assert via_antichains == via_powerset, L.name


def test_is_compact_generic_routine():
    L = mk_chain(3, min)
    zar = spectrum(L).zariski
    assert is_compact(zar, zar.points)
    assert is_compact(zar, frozenset())
    with pytest.raises(ValueError):
        is_compact(zar, zar.points, cover=[frozenset()])
