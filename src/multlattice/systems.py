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

import functools
from dataclasses import dataclass

from .core import (POWERSET_LIMIT, MDistributivityRequired, MonotonicityRequired,
                   MultLattice, NotAnMSystem, TheoremViolation, analysis, require)
from .spectrum import FiniteTopology, classify_all, prime_mask, primes_of, spectrum


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


def bit_indices(bits: int) -> list:
    """The positions of the set bits of ``bits``, in increasing order."""
    return [i for i, c in enumerate(bin(bits)[:1:-1]) if c == "1"]


@functools.cache
def subset_columns(n: int) -> tuple:
    """For each x < n, one 2^n-bit integer whose bit m is set when the
    subset m holds x: ANDs and ORs of these columns decide a statement
    about members for every subset at once."""
    everything = (1 << (1 << n)) - 1
    # 2^x zeros, then 2^x ones, repeated over the 2^n bits
    return tuple(((1 << (1 << x)) - 1 << (1 << x)) * (everything // ((1 << (2 << x)) - 1))
                 for x in range(n))


@analysis("subset_flags")
def subset_flags(L: MultLattice) -> tuple:
    """Three 2^n-bit integers (m, n, up) whose bit ``mask`` is set when the
    subset ``mask`` is an m-system, an n-system or an up-set, from about n^2
    ANDs and ORs of :func:`subset_columns`; for ``L`` of at most
    ``core.POWERSET_LIMIT`` elements.  Kept on ``L``, not on ``L.order``,
    since they depend on the multiplication.  Every m-system is asserted to
    be an n-system."""
    col = subset_columns(L.size)
    everything = (1 << (1 << L.size)) - 1
    # meets[z]: the subsets with a member below z
    meets = []
    for down in L.down_masks:
        acc = 0
        for x, c in enumerate(col):
            if down >> x & 1:
                acc |= c
        meets.append(acc)
    misses = [everything & ~acc for acc in meets]
    m_fail = n_fail = up_fail = 0
    for x, row in enumerate(L.mult_table):
        fail = 0
        for c, xy in zip(col, row):
            fail |= c & misses[xy]
        m_fail |= col[x] & fail
        n_fail |= col[x] & misses[row[x]]
        up_fail |= meets[x] & ~col[x]       # a member below x, but not x
    nonempty = everything - 1
    m, n = nonempty & ~m_fail, nonempty & ~n_fail
    if bad := m & ~n:
        mask = (bad & -bad).bit_length() - 1
        _scan_mask(L, mask)
        raise TheoremViolation("the subset kernel and the subset scan disagree",
                               witness=mask)
    return m, n, everything & ~up_fail


def _classify_mask(L: MultLattice, mask: int):
    """The flags and witnesses of the subset ``mask``: up to
    ``core.POWERSET_LIMIT`` elements a saturated m-system is read from
    :func:`subset_flags`; any other subset is scanned (same flags)."""
    if L.size <= POWERSET_LIMIT:
        m, _, up = subset_flags(L)
        if m >> mask & up >> mask & 1:     # an n-system too
            return True, True, True, None, None, None
    return _scan_mask(L, mask)


def _scan_mask(L: MultLattice, mask: int):
    """The flags of the subset ``mask`` and the first witness against each,
    by a scan of its members: what :func:`subset_flags` decides for every
    subset at once, run to find witnesses."""
    mt, dm = L.mult_table, L.down_masks
    xs = [x for x in L.elements if mask >> x & 1]
    m_wit = next(((x, y) for x in xs for y in xs if not mask & dm[mt[x][y]]), None)
    n_wit = next((x for x in xs if not mask & dm[mt[x][x]]), None)
    sat_wit = next(((x, (extra & -extra).bit_length() - 1) for x in xs
                    if (extra := L.up_masks[x] & ~mask)), None)
    is_m, is_n = bool(xs) and m_wit is None, bool(xs) and n_wit is None
    if is_m and not is_n:
        raise TheoremViolation("an m-system failed the n-system test", witness=n_wit)
    return is_m, is_n, sat_wit is None, m_wit, n_wit, sat_wit


def classify_system(L: MultLattice, S) -> MSystem:
    """Decide the m-system, n-system and saturation flags exhaustively.

    The empty set is classified as kind "neither" (systems must be
    nonempty).  Every m-system is an n-system; this implication is asserted.
    """
    return _system(L, L.mask_of(S))


def _system(L: MultLattice, mask: int) -> MSystem:
    """The classified subset ``mask``."""
    is_m, is_n, sat, m_wit, n_wit, sat_wit = _classify_mask(L, mask)
    kind = "both" if is_m else ("n" if is_n else "neither")
    return MSystem(L.set_of(mask), sat, kind, is_m, is_n, m_wit, n_wit, sat_wit)


def saturate(L: MultLattice, S) -> MSystem:
    """The smallest saturated m-system containing the m-system ``S``:
    the upward closure of S inside the compact elements.

    Requires monotonicity: without it the upward closure of an m-system need
    not be an m-system and no smallest saturated one exists in general.
    """
    ms = classify_system(L, S)
    if not ms.is_m:
        raise NotAnMSystem("input is not an m-system", witness=ms.m_witness)
    require(L, "systems.saturation_closure_operator", MonotonicityRequired)
    return _system(L, saturation_mask(L, L.mask_of(ms.members)))


def up_closure(L: MultLattice, mask: int) -> int:
    """The upward closure of ``mask``: the OR of its members' up-sets."""
    out = 0
    for x in range(L.size):
        if mask >> x & 1:
            out |= L.up_masks[x]
    return out


def saturation_mask(L: MultLattice, mask: int) -> int:
    """:func:`saturate` on masks, for an m-system ``mask`` of a monotone
    lattice: its upward closure, asserted to be a saturated m-system."""
    return _saturated_m_system(L, up_closure(L, mask), "upward closure of an "
                               "m-system in a monotone lattice must be a "
                               "saturated m-system")


def _saturated_m_system(L: MultLattice, mask: int, message: str) -> int:
    """``mask``, asserted to be a saturated m-system: else raise
    ``TheoremViolation(message)`` with its m-system or saturation witness."""
    is_m, _, sat, m_wit, _, sat_wit = _classify_mask(L, mask)
    if not (is_m and sat):
        raise TheoremViolation(message, witness=m_wit or sat_wit)
    return mask


def complement_system(L: MultLattice, x: int) -> MSystem:
    """S_x: the compact elements not below ``x``.

    On a monotone lattice this is an m-system exactly when ``x`` is prime,
    and for ``x != top`` an n-system exactly when ``x`` is semiprime; both
    equivalences are asserted.  At ``x = top`` the set is empty, so it is not
    an n-system even though top is trivially semiprime; the semiprime
    equivalence therefore only applies below top (for any other x the set
    contains top and nonemptiness is automatic).
    """
    require(L, "systems.prime_iff_msystem", MonotonicityRequired)
    ms = _system(L, L.full_mask & ~L.down_masks[x])
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


def _avoiding(L: MultLattice, mask: int) -> int:
    """P(S) for S = ``mask``: the primes above no member of S, the meet of the D(s)."""
    return sum(1 << p for p in primes_of(L) if not mask & L.down_masks[p])


def system_of_points(L: MultLattice, Y) -> MSystem:
    """S_Y: the compact elements not below any point of ``Y`` (a subset of
    the spectrum), asserted to be a saturated m-system.  It holds top and is
    an up-set, and it is closed under products because every point is
    prime, so the assertion needs no hypothesis on the multiplication."""
    return _system(L, _points_of(L, Y))


def _points_of(L: MultLattice, Y) -> int:
    """:func:`points_system_mask` of the set ``Y``, refused unless every
    member is prime."""
    ys = frozenset(Y)
    if not ys <= primes_of(L):
        raise ValueError("Y must be a set of prime elements")
    return points_system_mask(L, L.mask_of(ys))


def points_system_mask(L: MultLattice, ymask: int) -> int:
    """:func:`system_of_points` on masks: S_Y for the primes in ``ymask``."""
    mask = L.full_mask
    for p in range(L.size):
        if ymask >> p & 1:
            mask &= ~L.down_masks[p]
    return _saturated_m_system(L, mask, "S_Y must be a saturated m-system")


# --------------------------------------------------------------------------
# The inverse topology


@analysis("inverse_topology")
def inverse_topology(L: MultLattice) -> FiniteTopology:
    """The topology on Spec(L) whose basic opens are the sets V(c), c compact.

    Its closed sets are the intersections of the basic Zariski opens D(c),
    so the closure of p is the meet of the D(c) that hold p.  That closure
    is asserted to be the primes below p: the construction agrees with
    reversing the Zariski specialization order.
    """
    primes, spec = spectrum(L).primes, prime_mask(L)
    d_masks = [spec & ~up for up in L.up_masks]      # every element is compact
    closures = {}
    for p in sorted(primes):
        cl = spec
        for d in d_masks:
            if d >> p & 1:
                cl &= d
        if cl != spec & L.down_masks[p]:
            raise TheoremViolation(
                "inverse closure of a prime differs from the primes below it",
                witness=p)
        closures[p] = L.set_of(cl)
    return FiniteTopology(primes, closures)


def constructible_topology(L: MultLattice) -> FiniteTopology:
    """The join of the Zariski and inverse topologies: the closure of a
    point is the meet of its two closures.  On a finite T0 spectrum this is
    discrete."""
    zar = spectrum(L).zariski
    inv = inverse_topology(L)
    return FiniteTopology(zar.points, {p: c & inv.closures[p]
                                       for p, c in zar.closures.items()})


def equal_saturations(L: MultLattice, X, Y) -> bool:
    """Whether S_X = S_Y; asserted equivalent to the two subsets having the
    same closure in the inverse topology.  S_X and S_Y are compared as
    masks, each asserted to be a saturated m-system."""
    eq = _points_of(L, X) == _points_of(L, Y)
    inv = inverse_topology(L)
    closures_eq = inv.closure(X) == inv.closure(Y)
    if eq != closures_eq:
        raise TheoremViolation(
            "S_X = S_Y must agree with equality of inverse-topology closures",
            witness=(tuple(sorted(X)), tuple(sorted(Y))))
    return eq


# --------------------------------------------------------------------------
# Enumeration


def all_m_systems(L: MultLattice):
    """Every m-system, in mask order: :func:`m_system_masks` as sets.
    Refused above ``core.POWERSET_LIMIT`` elements, where that list holds
    the saturated m-systems only."""
    if L.size > POWERSET_LIMIT:
        raise ValueError(f"powerset scan capped at {POWERSET_LIMIT} elements; "
                         "enumerate saturated systems instead")
    return [L.set_of(mask) for mask in m_system_masks(L)]


def saturated_m_systems(L: MultLattice):
    """All saturated m-systems: the nonempty up-sets closed under the
    product, by size, then members."""
    return [L.set_of(mask) for mask in _saturated_masks(L)]


def _by_size_then_members(mask: int) -> tuple:
    return mask.bit_count(), bit_indices(mask)


def _saturated_masks(L: MultLattice) -> list:
    """The masks of :func:`saturated_m_systems`, in its order: read off :func:`subset_flags`
    up to ``core.POWERSET_LIMIT``, above it :func:`m_system_masks` (do not change it)."""
    if L.size > POWERSET_LIMIT:
        return m_system_masks(L)
    m, _, up = subset_flags(L)
    return sorted(bit_indices(m & up), key=_by_size_then_members)


def _closure(L: MultLattice, mask: int) -> int:
    """The least up-set over ``mask`` closed under the product: an up-set has a member
    below x*y iff it holds x*y, so the nonempty closed sets are the saturated m-systems."""
    mt, up, out = L.mult_table, L.up_masks, up_closure(L, mask)
    while True:
        xs, grown = bit_indices(out), out
        for x in xs:
            row = mt[x]
            for y in xs:
                grown |= up[row[y]]
        if grown == out:
            return out
        out = grown


def _closed_masks(L: MultLattice) -> list:
    """The nonempty closed sets of :func:`_closure` by Ganter's NextClosure over
    the elements by up-set size, top first: after ``mask`` (first the empty set)
    comes the closure of i and mask's members before i, for the last i outside
    mask that adds none before i (an i whose up-set adds one is skipped unclosed)."""
    order = sorted(L.elements, key=lambda x: L.up_masks[x].bit_count())
    before = [sum(1 << y for y in order[:k]) for k in range(L.size)]
    out, mask = [], 0
    while mask != L.full_mask:
        for i, ahead in zip(reversed(order), reversed(before)):
            low = mask & ahead
            if not (mask >> i & 1 or L.up_masks[i] & ahead & ~mask) and (
                    nxt := _closure(L, low | 1 << i)) & ahead == low:
                break
        out.append(mask := nxt)
    return out


@analysis("m_systems")
def m_system_masks(L: MultLattice) -> list:
    """The masks of every m-system up to ``core.POWERSET_LIMIT`` elements,
    in mask order, as :func:`subset_flags` decides them, otherwise of the
    saturated ones, :func:`_closed_masks` by size, then members; built once
    per lattice and shared by every statement over them, so callers must not
    change it."""
    if L.size > POWERSET_LIMIT:
        return sorted(_closed_masks(L), key=_by_size_then_members)
    return bit_indices(subset_flags(L)[0])


def first_m_system_without(L: MultLattice, x: int):
    """The least saturated m-system, the :func:`_closure` of {top}, when it lacks
    ``x``, otherwise None: every saturated m-system holds top and is closed, so
    holds this one, and holds ``x`` whenever this one does."""
    least = _closure(L, 1 << L.top)
    return None if least >> x & 1 else least


# --------------------------------------------------------------------------
# Compactness (vacuous at finite scale, but exercised honestly)


def is_compact(Y, cover) -> bool:
    """Whether the open family ``cover`` of the subset ``Y`` has a finite
    subcover: always, once it covers ``Y``, since a family of subsets of a
    finite space is finite and so is its own finite subcover."""
    if not frozenset(Y) <= frozenset().union(*cover):
        raise ValueError("the given family does not cover the subset")
    return True


def _by_size(family) -> list:
    return sorted(family, key=lambda u: (len(u), sorted(u)))


# --------------------------------------------------------------------------
# The correspondence


@dataclass
class CorrespondenceReport:
    compact_saturated_sets: tuple     # members of H(Spec L), sorted
    saturated_systems: tuple          # members of M(L), sorted
    mutually_inverse: bool
    inclusion_reversing: bool
    subset_identity_checked: int      # 2^n: the bijection check decides the
                                      # fixed-point identity for every S <= C(L)
    homeomorphism: bool
    notes: tuple = ()


def correspondence_check(L: MultLattice) -> CorrespondenceReport:
    """Verify the bijection between compact saturated subsets of the spectrum
    and saturated m-systems, its inclusion reversal, the fixed-point identity
    for subsets of the compact elements, and the homeomorphism between the
    upper-Vietoris topology and the membership topology.

    The fixed-point identity (S is a saturated m-system exactly when P(S)
    is compact and S = S_{P(S)}) holds for every subset S once the maps are
    checked, so no subset is scanned for it.  A saturated m-system S is in
    M(L), where the bijection check asserts S = S_{P(S)} with P(S) a compact
    open.  Conversely P(S), the spectrum minus the union of the V(s), is
    always a Zariski open, so a fixed point S = S_{P(S)} is the image of an
    open, which ``phi`` asserts through :func:`points_system_mask` to be a
    saturated m-system.  Sets are masks inside.  A failure names the first
    offending member of H(Spec L) or M(L), or pair of members, as sorted
    elements.
    """
    require(L, "systems.correspondence", MDistributivityRequired)
    zar = spectrum(L).zariski
    # H(Spec L): the saturated subsets, which on a finite space are the
    # opens (Stong 1966); compactness is automatic but still checked by
    # open covers
    hs = opens = _by_size(zar.opens)
    for ys in hs:
        is_compact(ys, [u for u in opens if u & ys])
    h_masks = [L.mask_of(x) for x in hs]
    m_masks = _saturated_masks(L)
    notes = ("compactness checks on a finite spectrum are vacuously true; they "
             "run through the generic open-cover routine",)

    def members(mask):
        return tuple(sorted(L.set_of(mask)))

    phi = {h: points_system_mask(L, h) for h in h_masks}
    psi = {s: _avoiding(L, s) for s in m_masks}
    bad = next((h for h in h_masks if psi.get(phi[h]) != h),
               next((s for s in m_masks if phi.get(psi[s]) != s), None))
    inverse_ok = bad is None
    if not inverse_ok:
        raise TheoremViolation("the correspondence maps are not mutually "
                               "inverse bijections", witness=members(bad))

    pair = next(((x, y) for x in h_masks for y in h_masks
                 if not x & ~y and phi[y] & ~phi[x]),
                next(((s, t) for s in m_masks for t in m_masks
                      if not s & ~t and psi[t] & ~psi[s]), None))
    reversing = pair is None
    if not reversing:
        raise TheoremViolation("the correspondence maps do not reverse inclusion",
                               witness=tuple(map(members, pair)))

    # phi as a homeomorphism from the upper-Vietoris topology on H to the
    # membership topology on M: it carries each point closure to one.
    vietoris_sub = [frozenset(h for h in h_masks if not h & ~omega)
                    for omega in map(L.mask_of, opens)]
    t_h = FiniteTopology.from_subbasis(h_masks, vietoris_sub)
    # h' is in the closure of h when every open around h' holds h: h <= h'
    for h, c in t_h.closures.items():
        if c != frozenset(g for g in h_masks if not h & ~g):
            raise TheoremViolation("a Vietoris point closure is not the sets "
                                   "above the point", witness=members(h))
    member_sub = [frozenset(s for s in m_masks if s >> c & 1) for c in L.elements]
    t_m = FiniteTopology.from_subbasis(m_masks, member_sub)
    bad = next((h for h in h_masks
                if frozenset(map(phi.get, t_h.closures[h])) != t_m.closures[phi[h]]), None)
    homeo = bad is None
    if not homeo:
        raise TheoremViolation("the correspondence is not a homeomorphism "
                               "between the Vietoris and membership topologies",
                               witness=members(bad))

    return CorrespondenceReport(tuple(hs), tuple(map(L.set_of, m_masks)), inverse_ok,
                                reversing, 1 << L.size, homeo, notes)
