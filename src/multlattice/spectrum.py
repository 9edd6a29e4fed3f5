"""Prime spectra and the Zariski topology.

Classifies elements (prime, semiprime, maximal, meet-irreducible), builds the
spectrum of a lattice with its Zariski topology, computes the semiprime and
Jacobson radicals, and decides the empty-spectrum ("hyperabelian")
equivalences.  A finite topology is held by the closure of each point; on
Spec(L) the closure of p is V(p), the primes above p, and the spectrum
checks that the closed sets ``V(x)`` are exactly the up-sets of the prime
order.  Sobriety of a finite space is its T0 property.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .core import (MDistributivityRequired, MultLattice, NotMaximal, OrderData,
                   PrimeElement, HypothesesFail, TheoremViolation, analysis,
                   law_witness, require)


# --------------------------------------------------------------------------
# Finite topologies


@dataclass(frozen=True, eq=False)
class FiniteTopology:
    """A finite point set with the closure of each point, which holds the
    point and the closure of each of its members: the specialization
    preorder, which fixes the topology.  The closed sets are the unions of
    point closures, derived on request."""

    points: frozenset
    closures: dict          # point -> its closure

    @classmethod
    def from_subbasis(cls, points, subbasis):
        """The topology generated by a subbasis of open sets: the smallest
        open set around q is the meet of the members that hold q, and the
        closure of p is the points whose smallest open set holds p."""
        points = frozenset(points)
        around = {q: points.intersection(*(s for s in subbasis if q in s)) for q in points}
        return cls(points, {p: frozenset(q for q in points if p in around[q])
                            for p in points})

    @property
    def closed_sets(self) -> frozenset:
        """Every union of point closures."""
        family = {frozenset()}
        for c in set(self.closures.values()):
            family |= {d | c for d in family}
        return frozenset(family)

    @property
    def opens(self) -> frozenset:
        return frozenset(self.points - c for c in self.closed_sets)

    def closure(self, xs) -> frozenset:
        return frozenset().union(*(self.closures[x] for x in xs))

    def is_t0(self) -> tuple:
        pts, cl = sorted(self.points), self.closures
        return next(((False, (p, q)) for i, p in enumerate(pts) for q in pts[i + 1:]
                     if cl[p] == cl[q]), (True, None))

    def is_discrete(self) -> bool:
        return all(len(c) == 1 for c in self.closures.values())

    def subspace(self, ys) -> "FiniteTopology":
        ys = frozenset(ys)
        return FiniteTopology(ys, {y: self.closures[y] & ys for y in ys})


# --------------------------------------------------------------------------
# Element classification


@dataclass(frozen=True)
class ElementFlags:
    prime: bool
    semiprime: bool
    maximal: bool
    meet_irreducible: bool


# ElementFlags is frozen, so equal flags share one instance.
_shared_flags = functools.cache(ElementFlags)


@analysis("classify", kept=True)
def classify_all(L: MultLattice) -> tuple:
    """Flags for every element, computed once and cached on the lattice."""
    order_flags = _order_flags(L.order)
    up, spec = L.up_masks, prime_mask(L)
    nonsemiprime = 0
    for a, row in enumerate(L.mult_table):
        nonsemiprime |= up[row[a]] & ~up[a]
    return tuple(_shared_flags(spec >> x & 1 == 1, not nonsemiprime >> x & 1,
                               *order_flags[x]) for x in range(L.size))


def _nonprime_mask(L: MultLattice, elems) -> int:
    """The elements x with ab <= x for some a, b of ``elems`` not below x:
    the OR of up(ab) minus up(a) and up(b) over the pairs of ``elems``."""
    mt, up = L.mult_table, L.up_masks
    out = 0
    for a in elems:
        row, na = mt[a], ~up[a]
        for b in elems:
            out |= up[row[b]] & na & ~up[b]
    return out


@analysis("order_flags")
def _order_flags(order: OrderData) -> tuple:
    """(maximal, meet-irreducible) for every element, once per order.  x is
    meet-irreducible exactly when at most one element covers it: two covers
    meet in x, and everything above x lies above a sole cover."""
    top = order.top
    up_masks = order.up_masks
    cover_counts = [0] * order.size
    for a, _ in order.covers():
        cover_counts[a] += 1
    return tuple((x != top and up_masks[x] == (1 << x) | (1 << top), count <= 1)
                 for x, count in enumerate(cover_counts))


@analysis("primes", kept=True)
def primes_of(L: MultLattice) -> frozenset:
    """The prime elements of ``L``, cached on the lattice."""
    return L.set_of(prime_mask(L))


@analysis("prime_mask", kept=True)
def prime_mask(L: MultLattice) -> int:
    """Spec(L) as a mask, cached on the lattice: the nonprime pass alone,
    which :func:`classify_all` reads.  Inside the package V(x) is
    ``L.up_masks[x] & prime_mask(L)`` and D(x) is its complement in it."""
    return L.full_mask & ~(_nonprime_mask(L, L.elements) | 1 << L.top)


def v_set(L: MultLattice, x: int) -> frozenset:
    """V(x): the primes above x; the closed sets of the Zariski topology.
    A mask inside the package (:func:`prime_mask`), a frozenset here."""
    return L.set_of(L.up_masks[x] & prime_mask(L))


# --------------------------------------------------------------------------
# The spectrum report


@dataclass
class SpectrumReport:
    primes: frozenset
    zariski: FiniteTopology
    semiprime_radical: int
    jacobson_radical: int
    jacobson_meet: int
    sober: bool
    primes_via_generators: frozenset | None
    notes: tuple = ()


@analysis("spectrum", kept=True)
def spectrum(L: MultLattice) -> SpectrumReport:
    """Spec(L) with its Zariski topology, radicals, and a sobriety check.

    Primes are computed from the full-pair definition.  When the lattice is
    monotone they are recomputed by the generator-pair shortcut over a proper
    generating set and asserted equal (on every element it is the same pass);
    when monotonicity fails the shortcut is skipped and the report says so.

    The Jacobson radical is reported twice: ``jacobson_radical`` is the join
    of the maximal prime elements, ``jacobson_meet`` the meet of the same
    set, so callers can pick either convention.
    """
    flags = classify_all(L)
    primes = primes_of(L)
    notes = []

    via_gens = None
    if law_witness(L, "monotone") is None:
        via_gens = primes if len(L.generators) == L.size else L.set_of(
            L.full_mask & ~_nonprime_mask(L, L.generators) & ~(1 << L.top))
        if via_gens != primes:
            raise TheoremViolation(
                "generator-pair prime test disagrees with the definition on a "
                "monotone lattice", witness=tuple(sorted(via_gens ^ primes)))
    else:
        notes.append("generator-pair prime test skipped: monotonicity fails")

    # V(p) = up(p) ^ Spec is the closure of p.  The distinct V(x) must be the
    # up-sets of the prime order, so each V(x) | V(p) is some V(y); that fails
    # when V(xy) != V(x) | V(y), as it does with a non-prime in Spec.
    spec = prime_mask(L)
    v_masks = {up & spec for up in L.up_masks}
    for p in sorted(primes):
        vp = L.up_masks[p] & spec
        for v in sorted(v_masks):
            if v | vp not in v_masks:
                raise TheoremViolation(
                    "the sets V(x) are not the up-sets of the prime order",
                    witness=(tuple(sorted(L.set_of(v))), p))
    zariski = FiniteTopology(primes, {p: L.set_of(L.up_masks[p] & spec) for p in primes})

    radical = L.glb(primes)
    max_primes = [x for x in L.elements if flags[x].maximal and flags[x].prime]
    jrad = L.lub(max_primes)
    jmeet = L.glb(max_primes)

    # A finite space is sober exactly when it is T0: an irreducible closed
    # set, the finite union of its points' closures, is one of them.
    t0, pair = zariski.is_t0()
    if not t0:
        raise TheoremViolation("Zariski topology is not sober",
                               witness=zariski.closures[pair[0]])

    return SpectrumReport(primes, zariski, radical, jrad, jmeet, True,
                          via_gens, tuple(notes))


# --------------------------------------------------------------------------
# Maximal implies prime


def _nonprime_pair(L: MultLattice, p: int) -> tuple:
    """The first pair (x, y) in index order with x, y !<= p and xy <= p; one
    exists for every non-prime ``p`` below top."""
    down = L.down_masks[p]
    mt = L.mult_table
    return next((x, y) for x in L.elements if not down >> x & 1
                for y in L.elements if not down >> y & 1 and down >> mt[x][y] & 1)


@dataclass
class MaximalPrimeReport:
    element: int
    top_square_below: bool     # whether mult(top, top) <= m, so m is not prime
    raw_pair: tuple | None     # (x, y) with x, y !<= m and xy <= m


def maximal_prime_criterion(L: MultLattice, m: int) -> MaximalPrimeReport:
    """For maximal ``m`` in an m-distributive lattice: prime iff ``1*1 !<= m``.

    The equivalence with the definitional primality test is asserted.  When
    ``m`` is not prime the report holds the pair ``(x, y)`` of the
    non-primality proof, and the joined pair ``(x v m, y v m)`` is asserted
    to be ``(top, top)``.
    """
    flags = classify_all(L)[m]
    if not flags.maximal:
        raise NotMaximal(f"element {m} is not maximal", witness=m)
    require(L, "spectrum.maximal_prime_criterion", MDistributivityRequired)
    below = L.relation[L.mult_table[L.top][L.top]][m]
    if below == flags.prime:
        raise TheoremViolation(
            f"maximal element {m}: 1*1 <= m is {below} but prime is {flags.prime}",
            witness=m)
    raw = None
    if not flags.prime:
        raw = _nonprime_pair(L, m)
        joined = (L.join_table[raw[0]][m], L.join_table[raw[1]][m])
        if joined != (L.top, L.top):
            raise TheoremViolation(
                "joins with a maximal element did not reach top", witness=joined)
    return MaximalPrimeReport(m, below, raw)


def non_prime_symmetric_witness(L: MultLattice, p: int) -> tuple:
    """For non-prime ``p`` in an associative m-distributive lattice, a pair
    ``(x, y)`` with ``x,y !<= p`` and both products ``xy, yx <= p``.

    Follows the constructive argument: take any one-sided witness ``(a, b)``;
    if it is already symmetric return it, otherwise ``x = y = (b*a) v p``.
    """
    if p == L.top:
        raise HypothesesFail("p must differ from top", witness=p)
    require(L, "spectrum.symmetric_nonprime_witness", HypothesesFail)
    if classify_all(L)[p].prime:
        raise PrimeElement(f"element {p} is prime; no witness exists", witness=p)
    down = L.down_masks[p]
    mt = L.mult_table
    a, b = _nonprime_pair(L, p)
    if down >> mt[b][a] & 1:
        x, y = a, b
    else:
        x = y = L.join_table[mt[b][a]][p]
    ok = (not down >> x & 1 and not down >> y & 1
          and down >> mt[x][y] & 1 and down >> mt[y][x] & 1)
    if not ok:
        raise TheoremViolation(
            f"constructed pair ({x}, {y}) is not a symmetric witness for {p}",
            witness=(x, y))
    return x, y


# --------------------------------------------------------------------------
# The empty-spectrum equivalences


@dataclass
class HyperabelianReport:
    """Six equivalent conditions, each evaluated independently.  They must
    agree, so the report holds their one value, ``hyperabelian``, and the
    first witness against each: ``witnesses`` is empty exactly when the
    lattice is hyperabelian, and otherwise has all six keys.

    (a) top is the only semiprime element; (b) every x != top has some y > x
    with y*y <= x; (c) a chain 0 = x0 < ... < xk = top with each successor
    squaring below its predecessor exists (built greedily, finite chains
    only); (d) there are no primes; (e) the semiprime radical is top;
    (f) every m-system contains bottom.  ``witnesses["a"]`` is the smallest
    semiprime element below top, which blocks every squaring chain.
    """
    hyperabelian: bool
    chain: tuple | None
    witnesses: dict
    notes: tuple = ()


def _square_steps(L: MultLattice) -> list:
    """For each x, the mask of the y > x with y*y <= x: the steps that
    conditions (b) and (c) take up from x."""
    mt, dm = L.mult_table, L.down_masks
    return [sum(1 << y for y in L.elements
                if y != x and L.relation[x][y] and dm[x] >> mt[y][y] & 1)
            for x in L.elements]


def _greedy_square_chain(L: MultLattice, steps: list):
    """Ascending chain from bottom where each step squares below the previous
    element, taking a maximal one of ``steps``.  Returns (chain, blocker)."""
    chain = [L.bottom]
    while chain[-1] != L.top and steps[chain[-1]]:
        chain.append(L.maximal_in(steps[chain[-1]])[0])
    return (tuple(chain), None) if chain[-1] == L.top else (None, chain[-1])


@analysis("hyperabelian")
def hyperabelian_report(L: MultLattice) -> HyperabelianReport:
    """Evaluate the six empty-spectrum conditions and assert they agree.

    Condition (f), some m-system lacks bottom, is read at every size from
    ``systems.first_m_system_without(L, bottom)``: the least saturated
    m-system, the witness, when it lacks bottom.  On an m-distributive (so
    monotone) lattice an m-system's upward closure is one without bottom.
    """
    require(L, "hyper.six_conditions", MDistributivityRequired)
    flags = classify_all(L)
    steps = _square_steps(L)
    chain, blocker = _greedy_square_chain(L, steps)
    primes = primes_of(L)
    radical = L.glb(primes)
    without_bottom = systems.first_m_system_without(L, L.bottom)
    # The first witness against each condition, or None where it holds.
    found = {
        "a": next((x for x in L.elements if flags[x].semiprime and x != L.top), None),
        "b": next((x for x in L.elements if x != L.top and not steps[x]), None),
        "c": blocker,
        "d": min(primes) if primes else None,
        "e": None if radical == L.top else radical,
        "f": None if without_bottom is None else tuple(sorted(L.set_of(without_bottom))),
    }
    witnesses = {c: w for c, w in found.items() if w is not None}
    if 0 < len(witnesses) < len(found):
        conditions = {c: w is None for c, w in found.items()}
        raise TheoremViolation(f"empty-spectrum conditions disagree: {conditions}",
                               witness=witnesses)

    notes = ("condition (c) is the finite instantiation: only finite chains are built",)
    return HyperabelianReport(not witnesses, chain, witnesses, notes)


# systems imports this module, so it is imported here, once this module's
# names are defined.
from . import systems  # noqa: E402
