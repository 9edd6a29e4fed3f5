"""Finite topologies held equal to an explicit closed-set reference.

The library holds a finite topology by the closure of each point.  The
reference here builds every topology as its family of closed sets instead:
fixpoint closures of a family under union or intersection, the Zariski
family of all V(x) (checked to hold the empty set and Spec and to be closed
under union and intersection), the inverse topology by De Morgan from the basis V(c) (checked against the
intersections of the D(c)), and the topology generated by a subbasis as the
unions of finite meets of its members.  Closure, saturation and subspaces
are read off those families.  Saturation, the intersection of the opens
around a set, is computed here only: the points whose closure meets the
set.  The library reads H(Spec), the saturated subsets, as the opens, since
on a finite space every intersection of opens is open (Stong, "Finite
topological spaces", 1966); the correspondence check is held to the subsets
this saturation fixes.
"""

import itertools

import pytest

from multlattice.core import check_axioms, compact_elements
from multlattice.ingest import chain, poset_space, powerset_lattice, zn_ideals
from multlattice.spectrum import FiniteTopology, primes_of, spectrum, v_set
from multlattice.systems import (constructible_topology, correspondence_check,
                                 inverse_topology, system_of_points)
from multlattice.verify import (corpus_exhaustive_tables, corpus_named,
                                corpus_random_tables)


def close_family(start, members, op):
    """The smallest family that contains ``start`` and is closed under
    ``op(set, member)`` for every one of ``members``."""
    family = set(start)
    frontier = list(family)
    while frontier:
        cur = frontier.pop()
        for m in members:
            w = op(cur, m)
            if w not in family:
                family.add(w)
                frontier.append(w)
    return frozenset(family)


def closed_from_subbasis(points, subbasis):
    """Closed sets of the topology whose opens are the unions of finite
    meets of subbasis members; the empty meet is the full space."""
    points = frozenset(points)
    basis = close_family({points}, [frozenset(s) for s in subbasis], frozenset.__and__)
    return frozenset(points - u for u in close_family({frozenset()}, basis, frozenset.__or__))


def zariski_family(L):
    family = frozenset(v_set(L, x) for x in L.elements)
    assert frozenset() in family and primes_of(L) in family
    assert all(a | b in family and a & b in family for a in family for b in family)
    return family


def inverse_family(L):
    primes = primes_of(L)
    basis = {v_set(L, c) for c in compact_elements(L)}
    closed = frozenset(primes - u for u in close_family({frozenset()}, basis, frozenset.__or__))
    assert close_family({primes}, [primes - v for v in basis], frozenset.__and__) == closed
    return closed


def saturation(T, xs):
    """The points of ``T`` whose closure meets ``xs``."""
    return frozenset(q for q, c in T.closures.items() if c & xs)


def subsets(points):
    pts = sorted(points)
    return [frozenset(c) for r in range(len(pts) + 1) for c in itertools.combinations(pts, r)]


def assert_matches_family(T, points, closed):
    """``T`` against the closed-set family ``closed`` on ``points``: the
    derived families, and closure, saturation and every subspace read off
    the family."""
    opens = frozenset(points - c for c in closed)
    assert T.points == points
    assert T.closed_sets == closed and T.opens == opens
    for xs in subsets(points):
        assert T.closure(xs) == points.intersection(*(c for c in closed if xs <= c))
        assert saturation(T, xs) == points.intersection(*(u for u in opens if xs <= u))
        assert T.subspace(xs).closed_sets == frozenset(c & xs for c in closed)


def assert_correspondence_matches(L):
    """The Vietoris and membership topologies of the correspondence, from
    their subbases, and the homeomorphism as a map of open families."""
    rep = correspondence_check(L)
    zariski = spectrum(L).zariski
    fixed = [xs for xs in subsets(zariski.points) if saturation(zariski, xs) == xs]
    assert rep.compact_saturated_sets == tuple(
        sorted(fixed, key=lambda u: (len(u), sorted(u))))
    hs, ms = frozenset(rep.compact_saturated_sets), frozenset(rep.saturated_systems)
    phi = {h: system_of_points(L, h).members for h in hs}
    vietoris = [frozenset(h for h in hs if h <= omega) for omega in zariski.opens]
    membership = [frozenset(s for s in ms if c in s) for c in compact_elements(L)]
    t_h = FiniteTopology.from_subbasis(hs, vietoris)
    t_m = FiniteTopology.from_subbasis(ms, membership)
    closed_h = closed_from_subbasis(hs, vietoris)
    closed_m = closed_from_subbasis(ms, membership)
    assert t_h.closed_sets == closed_h and t_m.closed_sets == closed_m
    mapped = frozenset(frozenset(map(phi.get, hs - c)) for c in closed_h)
    assert mapped == frozenset(ms - c for c in closed_m)
    assert rep.homeomorphism


def assert_topologies_match(L):
    primes = primes_of(L)
    zariski, inverse = zariski_family(L), inverse_family(L)
    assert_matches_family(spectrum(L).zariski, primes, zariski)
    assert_matches_family(inverse_topology(L), primes, inverse)
    constructible = closed_from_subbasis(
        primes, {primes - c for c in zariski | inverse})
    assert constructible_topology(L).closed_sets == constructible
    if check_axioms(L).m_distributive:
        assert_correspondence_matches(L)


CORPORA = {
    "exhaustive4": lambda: corpus_exhaustive_tables(4),
    "named": corpus_named,
    "random1000": lambda: corpus_random_tables(1000, 1729),
    "large": lambda: [chain(12, "meet"), chain(13, "meet"), zn_ideals(60),
                      chain(11, "truncated_add"), powerset_lattice(4, "meet")],
}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_topologies_match_the_set_family_reference(corpus):
    lattices = CORPORA[corpus]()
    for L in lattices:
        assert_topologies_match(L)
    assert lattices


@pytest.mark.parametrize("kind, n, below", [
    ("chain", 3, [{0}, {0, 1}, {0, 1, 2}]),
    ("antichain", 3, [{0}, {1}, {2}]),
    ("vee", 0, [{0}, {0, 1}, {0, 2}]),
    ("diamond", 0, [{0}, {0, 1}, {0, 2}, {0, 1, 2, 3}]),
])
def test_poset_spaces_match_their_down_set_families(kind, n, below):
    # The closed sets of a poset's down-set topology are the unions of the
    # principal down-sets.
    closed = close_family({frozenset()}, [frozenset(b) for b in below], frozenset.__or__)
    assert_matches_family(poset_space(kind, n), frozenset(range(len(below))), closed)
