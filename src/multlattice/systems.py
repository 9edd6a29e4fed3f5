"""m-systems, n-systems, saturation, and the inverse topology.

The central objects are subsets S of the compact elements (on a finite
lattice: all elements) that are productively closed: an m-system has, for
every pair x, y in S, a member below x*y; an n-system has, for every x in S,
a member below x*x.  Saturated systems are the upward closed ones, and they
correspond bijectively to the compact saturated subsets of the spectrum;
``correspondence_check`` verifies that bijection, its inclusion reversal and
the induced homeomorphism on every instance it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (POWERSET_LIMIT, MDistributivityRequired, MonotonicityRequired,
                   MultLattice, NotAnMSystem, TheoremViolation, check_axioms,
                   compact_elements, memo, require)
from .spectrum import (FiniteTopology, classify_all, close_family, primes_of,
                       spectrum, topology_from_subbasis, v_set)


@dataclass(frozen=True)
class MSystem:
    """A classified subset of the compact elements.

    ``kind`` is "both" when the set is an m-system (hence an n-system too),
    "n" when it is an n-system only, and "neither" otherwise.  Failed tests
    carry witnesses: ``m_witness`` is a pair (x, y) with nothing in S below
    x*y, ``n_witness`` an element x with nothing in S below x*x, and
    ``saturation_witness`` a pair (x, c) with x in S, x <= c, c not in S.
    """
    members: frozenset
    saturated: bool
    kind: str
    is_m: bool
    is_n: bool
    m_witness: tuple | None = None
    n_witness: int | None = None
    saturation_witness: tuple | None = None


def _classify_mask(L: MultLattice, mask: int):
    """The flags and witnesses of the subset ``mask``, classified once per
    lattice: the cache lives on ``L``, not on ``L.order``, since the answer
    depends on the multiplication."""
    known = memo(L, "classified_masks", dict)
    out = known.get(mask)
    if out is None:
        out = known[mask] = _scan_mask(L, mask)
    return out


def _scan_mask(L: MultLattice, mask: int):
    mt = L.mult_table
    dm = L.down_masks
    xs = [x for x in range(L.size) if mask >> x & 1]
    m_wit = n_wit = None
    if not xs:
        is_m = is_n = False
    else:
        is_m = True
        for x in xs:
            row = mt[x]
            for y in xs:
                if not mask & dm[row[y]]:
                    is_m = False
                    m_wit = (x, y)
                    break
            if not is_m:
                break
        is_n = True
        for x in xs:
            if not mask & dm[mt[x][x]]:
                is_n = False
                n_wit = x
                break
    sat = True
    sat_wit = None
    for x in xs:
        extra = L.up_masks[x] & ~mask
        if extra:
            sat = False
            c = (extra & -extra).bit_length() - 1
            sat_wit = (x, c)
            break
    return is_m, is_n, sat, m_wit, n_wit, sat_wit


def classify_system(L: MultLattice, S) -> MSystem:
    """Decide the m-system, n-system and saturation flags exhaustively.

    The empty set is classified as kind "neither" (systems must be
    nonempty).  Every m-system is an n-system; this implication is asserted.
    """
    members = frozenset(S)
    if any(not 0 <= x < L.size for x in members):
        raise ValueError("members must be elements of the lattice")
    return _system(L, L.mask_of(members), members)


def _system(L: MultLattice, mask: int, members: frozenset) -> MSystem:
    """The classified subset ``mask``, whose members are ``members``."""
    is_m, is_n, sat, m_wit, n_wit, sat_wit = _classify_mask(L, mask)
    if is_m and not is_n:
        raise TheoremViolation("an m-system failed the n-system test",
                               witness=n_wit)
    kind = "both" if is_m else ("n" if is_n else "neither")
    return MSystem(members, sat, kind, is_m, is_n, m_wit, n_wit, sat_wit)


def saturate(L: MultLattice, S) -> MSystem:
    """The smallest saturated m-system containing the m-system ``S``:
    the upward closure of S inside the compact elements.

    Requires monotonicity: without it the upward closure of an m-system need
    not be an m-system and no smallest saturated one exists in general.
    """
    ms = classify_system(L, S)
    if not ms.is_m:
        raise NotAnMSystem("input is not an m-system", witness=ms.m_witness)
    require(L, ("monotone",), MonotonicityRequired, "saturation needs monotonicity")
    mask = 0
    for x in ms.members:
        mask |= L.up_masks[x]
    out = _system(L, mask, L.set_of(mask))
    if not (out.is_m and out.saturated):
        raise TheoremViolation("upward closure of an m-system in a monotone "
                               "lattice must be a saturated m-system",
                               witness=out.m_witness or out.saturation_witness)
    return out


def complement_system(L: MultLattice, x: int) -> MSystem:
    """S_x: the compact elements not below ``x``.

    On a monotone lattice this is an m-system exactly when ``x`` is prime,
    and for ``x != top`` an n-system exactly when ``x`` is semiprime; both
    equivalences are asserted.  At ``x = top`` the set is empty, so it is not
    an n-system even though top is trivially semiprime; the semiprime
    equivalence therefore only applies below top (for any other x the set
    contains top and nonemptiness is automatic).
    """
    require(L, ("monotone",), MonotonicityRequired,
            "the complement-system tests need monotonicity")
    mask = L.full_mask & ~L.down_masks[x]
    ms = _system(L, mask, L.set_of(mask))
    flags = classify_all(L)[x]
    if flags.prime != ms.is_m:
        raise TheoremViolation(
            f"element {x}: prime={flags.prime} but S_x m-system={ms.is_m}",
            witness=ms.m_witness)
    if x == L.top:
        if ms.members:
            raise TheoremViolation("S_top must be empty", witness=tuple(ms.members))
    elif flags.semiprime != ms.is_n:
        raise TheoremViolation(
            f"element {x}: semiprime={flags.semiprime} but S_x n-system={ms.is_n}",
            witness=ms.n_witness)
    return ms


def primes_avoiding(L: MultLattice, S) -> frozenset:
    """P(S): the primes p with s !<= p for every s in S (an intersection of
    the basic opens D(s))."""
    sm = L.mask_of(S)
    return frozenset(p for p in primes_of(L) if not sm & L.down_masks[p])


def system_of_points(L: MultLattice, Y) -> MSystem:
    """S_Y: the compact elements not below any point of ``Y`` (a subset of
    the spectrum).  On an m-distributive lattice this is asserted to be a
    saturated m-system."""
    ys = frozenset(Y)
    primes = primes_of(L)
    if not ys <= primes:
        raise ValueError("Y must be a set of prime elements")
    mask = L.full_mask
    for p in ys:
        mask &= ~L.down_masks[p]
    ms = _system(L, mask, L.set_of(mask))
    if check_axioms(L).m_distributive:
        if not (ms.is_m and ms.saturated):
            raise TheoremViolation(
                "S_Y must be a saturated m-system on an m-distributive lattice",
                witness=ms.m_witness or ms.saturation_witness)
    return ms


# --------------------------------------------------------------------------
# The inverse topology


def inverse_topology(L: MultLattice) -> FiniteTopology:
    """The topology on Spec(L) whose basic opens are the sets V(c), c compact.

    Built by explicit union closure of the basis.  Its closed sets are
    asserted to be exactly the intersections of the basic Zariski opens D(c),
    i.e. the construction agrees with inverting the Zariski topology.
    """
    return memo(L, "inverse_topology", lambda: _inverse_topology(L))


def _inverse_topology(L: MultLattice) -> FiniteTopology:
    primes = spectrum(L).primes
    basis = {v_set(L, c, primes) for c in compact_elements(L)}
    opens = close_family({frozenset()}, basis, frozenset.__or__)
    closed = {primes - u for u in opens}
    d_sets = [primes - v for v in basis]
    if close_family({primes}, d_sets, frozenset.__and__) != closed:
        raise TheoremViolation(
            "inverse topology differs from the intersections of basic opens",
            witness=None)
    return FiniteTopology.from_closed_sets(primes, closed)


def constructible_topology(L: MultLattice) -> FiniteTopology:
    """The join of the Zariski and inverse topologies.  On a finite T0
    spectrum this is discrete."""
    rep = spectrum(L)
    inv = inverse_topology(L)
    return topology_from_subbasis(rep.primes,
                                  set(rep.zariski.opens) | set(inv.opens))


def closure_in_inverse(L: MultLattice, X) -> frozenset:
    return inverse_topology(L).closure(X)


def equal_saturations(L: MultLattice, X, Y) -> bool:
    """Whether S_X = S_Y; asserted equivalent to the two subsets having the
    same closure in the inverse topology."""
    sx = system_of_points(L, X).members
    sy = system_of_points(L, Y).members
    eq = sx == sy
    closures_eq = closure_in_inverse(L, X) == closure_in_inverse(L, Y)
    if eq != closures_eq:
        raise TheoremViolation(
            "S_X = S_Y must agree with equality of inverse-topology closures",
            witness=(tuple(sorted(X)), tuple(sorted(Y))))
    return eq


# --------------------------------------------------------------------------
# Enumeration


def all_m_systems(L: MultLattice):
    """Every m-system, by powerset scan, in mask order.  Refused above
    ``core.POWERSET_LIMIT`` elements, where :func:`m_systems` falls back to
    :func:`saturated_m_systems`.  The scan leaves the per-subset cache alone
    (an interval read only by its hyperabelian report would keep all 2^n
    entries), and the tables on one order share the sets via ``L.order``."""
    if L.size > POWERSET_LIMIT:
        raise ValueError(f"powerset scan capped at {POWERSET_LIMIT} elements; "
                         "enumerate saturated systems instead")
    sets = memo(L.order, "subsets", dict)
    return [sets.get(mask) or sets.setdefault(mask, L.set_of(mask))
            for mask in range(1, 1 << L.size) if _scan_mask(L, mask)[0]]


def _antichains(L: MultLattice):
    n = L.size
    incomparable = [sum(1 << y for y in range(n)
                        if y != x and not L.relation[x][y] and not L.relation[y][x])
                    for x in range(n)]

    def rec(start, chosen, allowed):
        yield frozenset(chosen)
        for x in range(start, n):
            if allowed >> x & 1:
                chosen.append(x)
                yield from rec(x + 1, chosen, allowed & incomparable[x])
                chosen.pop()

    yield from rec(0, [], (1 << n) - 1)


def saturated_m_systems(L: MultLattice):
    """All saturated m-systems, enumerated through antichains of minimal
    members (a saturated set is the upward closure of its minimal elements)."""
    out = []
    seen = set()
    for ac in _antichains(L):
        if not ac:
            continue
        mask = 0
        for x in ac:
            mask |= L.up_masks[x]
        if mask in seen:
            continue
        seen.add(mask)
        is_m, _, sat, _, _, _ = _classify_mask(L, mask)
        if is_m and sat:
            out.append(L.set_of(mask))
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def m_systems(L: MultLattice) -> list:
    """Every m-system up to ``core.POWERSET_LIMIT`` elements, otherwise the
    saturated ones; built once per lattice and shared by every statement
    that ranges over them, so callers must not change the list."""
    return memo(L, "m_systems", lambda: all_m_systems(L) if L.size <= POWERSET_LIMIT
                else saturated_m_systems(L))


# --------------------------------------------------------------------------
# Compactness (vacuous at finite scale, but exercised honestly)


def has_finite_subcover(T: FiniteTopology, Y, cover) -> bool:
    """Greedy selection of a finite subcover of ``Y`` from ``cover``."""
    ys = frozenset(Y)
    cover = [frozenset(u) for u in cover]
    chosen = []
    remaining = set(ys)
    while remaining:
        p = remaining.pop()
        for u in cover:
            if p in u:
                chosen.append(u)
                remaining -= u
                break
        else:
            return False
    return True


def is_compact(T: FiniteTopology, Y, cover=None) -> bool:
    """Open-cover compactness of a subset.  The default cover is the family
    of all opens meeting the subset; any open cover on a finite space admits
    the same greedy finite subcover."""
    ys = frozenset(Y)
    if cover is None:
        cover = [u for u in sorted(T.opens, key=lambda u: (len(u), sorted(u)))
                 if u & ys]
    covered = frozenset().union(*cover) if cover else frozenset()
    if not ys <= covered:
        raise ValueError("the given family does not cover the subset")
    return has_finite_subcover(T, ys, cover)


# --------------------------------------------------------------------------
# The correspondence


@dataclass
class CorrespondenceReport:
    compact_saturated_sets: tuple     # members of H(Spec L), sorted
    saturated_systems: tuple          # members of M(L), sorted
    mutually_inverse: bool
    inclusion_reversing: bool
    subset_identity_checked: int      # how many S <= C(L) went through the
                                      # saturated-iff-fixed-point test
    homeomorphism: bool
    notes: tuple = ()


def compact_saturated_subsets(L: MultLattice):
    """H(Spec L): subsets of the spectrum that are intersections of opens
    (compactness is automatic here but still checked by open covers)."""
    rep = spectrum(L)
    zar = rep.zariski
    pts = sorted(rep.primes)
    out = []
    for mask in range(1 << len(pts)):
        ys = frozenset(pts[i] for i in range(len(pts)) if mask >> i & 1)
        if zar.saturation(ys) == ys and is_compact(zar, ys):
            out.append(ys)
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def correspondence_check(L: MultLattice) -> CorrespondenceReport:
    """Verify the bijection between compact saturated subsets of the spectrum
    and saturated m-systems, its inclusion reversal, the fixed-point identity
    for subsets of the compact elements, and the homeomorphism between the
    upper-Vietoris topology and the membership topology.

    The fixed-point identity runs over every subset up to
    ``core.POWERSET_LIMIT`` elements and over the saturated m-systems above
    it; a note records the latter.
    """
    require(L, ("m_distributive",), MDistributivityRequired,
            "the correspondence needs m-distributivity")
    rep = spectrum(L)
    zar = rep.zariski
    hs = compact_saturated_subsets(L)
    ms = saturated_m_systems(L)
    notes = ["compactness checks on a finite spectrum are vacuously true; they "
             "run through the generic open-cover routine"]

    phi = {x: system_of_points(L, x).members for x in hs}
    psi = {s: primes_avoiding(L, s) for s in ms}
    inverse_ok = (sorted(phi.values(), key=sorted) == sorted(ms, key=sorted)
                  and sorted(psi.values(), key=sorted) == sorted(hs, key=sorted)
                  and all(psi[phi[x]] == x for x in hs)
                  and all(phi[psi[s]] == s for s in ms))
    if not inverse_ok:
        raise TheoremViolation("the correspondence maps are not mutually "
                               "inverse bijections", witness=None)

    reversing = True
    for x1 in hs:
        for x2 in hs:
            if x1 <= x2 and not phi[x2] <= phi[x1]:
                reversing = False
    for s1 in ms:
        for s2 in ms:
            if s1 <= s2 and not psi[s2] <= psi[s1]:
                reversing = False
    if not reversing:
        raise TheoremViolation("the correspondence maps do not reverse inclusion",
                               witness=None)

    # Saturated m-system iff P(S) compact and S is the fixed point S_{P(S)}.
    checked = 0
    if L.size <= POWERSET_LIMIT:
        subset_iter = (L.set_of(m) for m in range(1 << L.size))
    else:
        subset_iter = iter(ms)
        notes.append(f"size {L.size} > cap {POWERSET_LIMIT}: fixed-point identity "
                     "checked on saturated m-systems only")
    for s in subset_iter:
        cls = classify_system(L, s)
        p_of_s = primes_avoiding(L, s)
        fixed = system_of_points(L, p_of_s).members == s
        compact = is_compact(zar, p_of_s)
        if (cls.is_m and cls.saturated) != (compact and fixed):
            raise TheoremViolation(
                "saturated m-system iff compact fixed point fails",
                witness=tuple(sorted(s)))
        checked += 1

    # phi as a homeomorphism: upper-Vietoris topology on H versus the
    # membership topology on M.
    h_index = {x: i for i, x in enumerate(hs)}
    m_index = {s: i for i, s in enumerate(ms)}
    compact_opens = sorted(zar.opens, key=lambda u: (len(u), sorted(u)))
    vietoris_sub = [frozenset(h_index[k] for k in hs if k <= omega)
                    for omega in compact_opens]
    t_h = topology_from_subbasis(range(len(hs)), vietoris_sub)
    member_sub = [frozenset(m_index[s] for s in ms if c in s)
                  for c in sorted(compact_elements(L))]
    t_m = topology_from_subbasis(range(len(ms)), member_sub)
    phi_idx = {h_index[x]: m_index[phi[x]] for x in hs}
    mapped = frozenset(frozenset(phi_idx[i] for i in u) for u in t_h.opens)
    homeo = mapped == t_m.opens
    if not homeo:
        raise TheoremViolation("the correspondence is not a homeomorphism "
                               "between the Vietoris and membership topologies",
                               witness=None)

    return CorrespondenceReport(tuple(hs), tuple(ms), inverse_ok, reversing,
                                checked, homeo, tuple(notes))
