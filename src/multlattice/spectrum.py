"""Prime spectra and the Zariski topology.

Classifies elements (prime, semiprime, maximal, meet-irreducible), builds the
spectrum of a lattice with its topology of closed sets ``V(x)``, computes the
semiprime and Jacobson radicals, decides the empty-spectrum ("hyperabelian")
equivalences, and checks sobriety of finite topologies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (MDistributivityRequired, MultLattice, NotMaximal,
                   PrimeElement, HypothesesFail, TheoremViolation,
                   check_axioms, memo)


# --------------------------------------------------------------------------
# Finite topologies


@dataclass(frozen=True, eq=False)
class FiniteTopology:
    """A finite point set with an explicit family of closed sets.

    ``basis_labels`` optionally maps a closed set back to a lattice element
    generating it.  Build through :meth:`from_closed_sets`, which checks the
    closed-set axioms (empty set and full space closed, family closed under
    union and intersection).
    """

    points: frozenset
    closed_sets: frozenset
    basis_labels: dict | None = field(default=None, compare=False)

    @classmethod
    def from_closed_sets(cls, points, closed_sets, basis_labels=None):
        points = frozenset(points)
        family = frozenset(frozenset(c) for c in closed_sets)
        if frozenset() not in family:
            raise ValueError("the empty set must be closed")
        if points not in family:
            raise ValueError("the full point set must be closed")
        for c in family:
            if not c <= points:
                raise ValueError(f"closed set {sorted(c)} is not a subset of the points")
        fam = list(family)
        for a in fam:
            for b in fam:
                if a | b not in family:
                    raise ValueError(f"union of closed sets {sorted(a)}, {sorted(b)} not closed")
                if a & b not in family:
                    raise ValueError(f"intersection of closed sets {sorted(a)}, {sorted(b)} not closed")
        return cls(points, family, basis_labels)

    @property
    def opens(self) -> frozenset:
        return frozenset(self.points - c for c in self.closed_sets)

    def closure(self, xs) -> frozenset:
        xs = frozenset(xs)
        out = self.points
        for c in self.closed_sets:
            if xs <= c:
                out = out & c
        return out

    def point_closure(self, p) -> frozenset:
        return self.closure({p})

    def interior(self, xs) -> frozenset:
        xs = frozenset(xs)
        out = frozenset()
        for u in self.opens:
            if u <= xs:
                out = out | u
        return out

    def saturation(self, xs) -> frozenset:
        """Intersection of all open sets containing ``xs``."""
        xs = frozenset(xs)
        out = self.points
        for u in self.opens:
            if xs <= u:
                out = out & u
        return out

    def is_t0(self) -> tuple:
        pts = sorted(self.points)
        cl = {p: self.point_closure(p) for p in pts}
        for i, p in enumerate(pts):
            for q in pts[i + 1:]:
                if cl[p] == cl[q]:
                    return False, (p, q)
        return True, None

    def is_discrete(self) -> bool:
        return all(frozenset({p}) in self.closed_sets for p in self.points)

    def subspace(self, ys) -> "FiniteTopology":
        ys = frozenset(ys)
        return FiniteTopology.from_closed_sets(ys, {c & ys for c in self.closed_sets})

    def specialization_pairs(self) -> frozenset:
        """Pairs (p, q) with q in the closure of p, p != q."""
        return frozenset((p, q) for p in self.points
                         for q in self.point_closure(p) if p != q)


def close_family(start, members, op) -> frozenset:
    """The smallest family of sets that contains ``start`` and is closed
    under ``op(set, member)`` for every one of ``members``."""
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


def topology_from_subbasis(points, subbasis) -> FiniteTopology:
    """The topology generated by a subbasis of open sets.

    Opens are arbitrary unions of finite intersections of subbasis members;
    the empty intersection contributes the full space.
    """
    points = frozenset(points)
    basis = close_family({points}, [frozenset(s) for s in subbasis], frozenset.__and__)
    opens = close_family({frozenset()}, basis, frozenset.__or__)
    return FiniteTopology.from_closed_sets(points, {points - u for u in opens})


@dataclass
class SoberReport:
    sober: bool
    t0: bool
    witness: frozenset | None = None
    reason: str = ""


def sober_check(T: FiniteTopology) -> SoberReport:
    """T0 plus: every irreducible nonempty closed set is the closure of
    exactly one point.  The witness is the offending closed set."""
    t0, pair = T.is_t0()
    if not t0:
        return SoberReport(False, False, T.point_closure(pair[0]),
                           f"points {pair[0]} and {pair[1]} share a closure")
    family = sorted(T.closed_sets, key=lambda c: (len(c), sorted(c)))
    closures = {p: T.point_closure(p) for p in T.points}
    for c in family:
        if not c:
            continue
        reducible = any(a < c and b < c and a | b == c
                        for a in family for b in family)
        if reducible:
            continue
        generic = [p for p in c if closures[p] == c]
        if len(generic) != 1:
            return SoberReport(False, True, c,
                               f"irreducible closed set with {len(generic)} generic points")
    return SoberReport(True, True)


# --------------------------------------------------------------------------
# Element classification


@dataclass(frozen=True)
class ElementFlags:
    prime: bool
    semiprime: bool
    maximal: bool
    meet_irreducible: bool


def classify(L: MultLattice, x: int) -> ElementFlags:
    return classify_all(L)[x]


def classify_all(L: MultLattice) -> tuple:
    """Flags for every element, computed once and cached on the lattice."""
    return memo(L, "classify", lambda: _classify_all(L))


def _classify_all(L: MultLattice) -> tuple:
    n = L.size
    mt = L.mult_table
    out = []
    for x in range(n):
        down = L.down_masks[x]
        outside = [a for a in range(n) if not down >> a & 1]
        prime = x != L.top and all(
            not down >> mt[a][b] & 1 for a in outside for b in outside)
        semiprime = all(not down >> mt[a][a] & 1 for a in outside)
        maximal = x != L.top and L.up_masks[x] == (1 << x) | (1 << L.top)
        meet_irreducible = True
        for y in range(n):
            if y == x:
                continue
            for z in range(n):
                if z != x and L.meet_table[y][z] == x:
                    meet_irreducible = False
                    break
            if not meet_irreducible:
                break
        out.append(ElementFlags(prime, semiprime, maximal, meet_irreducible))
    return tuple(out)


def primes_of(L: MultLattice) -> frozenset:
    return frozenset(x for x in L.elements if classify_all(L)[x].prime)


def v_set(L: MultLattice, x: int, primes: frozenset | None = None) -> frozenset:
    """V(x): the primes above x; the closed sets of the Zariski topology."""
    if primes is None:
        primes = primes_of(L)
    return frozenset(p for p in primes if L.relation[x][p])


def d_set(L: MultLattice, x: int, primes: frozenset | None = None) -> frozenset:
    if primes is None:
        primes = primes_of(L)
    return primes - v_set(L, x, primes)


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


def spectrum(L: MultLattice) -> SpectrumReport:
    """Spec(L) with its Zariski topology, radicals, and a sobriety check.

    Primes are computed from the full-pair definition.  When the lattice is
    monotone they are recomputed by the generator-pair shortcut over the
    generating set and the two answers are asserted equal; when monotonicity
    fails the shortcut is skipped and the report says so.

    The Jacobson radical is reported twice: ``jacobson_radical`` is the join
    of the maximal prime elements, ``jacobson_meet`` the meet of the same
    set, so callers can pick either convention.
    """
    return memo(L, "spectrum", lambda: _spectrum(L))


def _spectrum(L: MultLattice) -> SpectrumReport:
    flags = classify_all(L)
    primes = frozenset(x for x in L.elements if flags[x].prime)
    notes = []

    ax = check_axioms(L)
    via_gens = None
    if ax.monotone:
        gens = sorted(L.generators)
        mt = L.mult_table
        via = set()
        for x in L.elements:
            if x == L.top:
                continue
            down = L.down_masks[x]
            out = [a for a in gens if not down >> a & 1]
            if all(not down >> mt[a][b] & 1 for a in out for b in out):
                via.add(x)
        via_gens = frozenset(via)
        if via_gens != primes:
            raise TheoremViolation(
                "generator-pair prime test disagrees with the definition on a "
                "monotone lattice", witness=tuple(sorted(via_gens ^ primes)))
    else:
        notes.append("generator-pair prime test skipped: monotonicity fails")

    closed = {}
    for x in L.elements:
        vx = v_set(L, x, primes)
        if vx in closed:
            closed[vx] = L.join_table[closed[vx]][x]
        else:
            closed[vx] = x
    zariski = FiniteTopology.from_closed_sets(primes, closed.keys(), dict(closed))

    radical = L.glb(primes)
    max_primes = [x for x in L.elements if flags[x].maximal and flags[x].prime]
    jrad = L.lub(max_primes)
    jmeet = L.glb(max_primes)

    sob = sober_check(zariski)
    if not sob.sober:
        raise TheoremViolation("Zariski topology is not sober",
                               witness=sob.witness)

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
    top_square_below: bool     # whether mult(top, top) <= m
    prime: bool
    witness: tuple | None      # (x v m, y v m) from the non-primality proof
    raw_pair: tuple | None     # the underlying (x, y) with xy <= m


def maximal_prime_criterion(L: MultLattice, m: int) -> MaximalPrimeReport:
    """For maximal ``m`` in an m-distributive lattice: prime iff ``1*1 !<= m``.

    The equivalence with the definitional primality test is asserted.  When
    ``m`` is not prime the returned witness is the joined pair
    ``(x v m, y v m)``, both of which must equal top.
    """
    flags = classify_all(L)[m]
    if not flags.maximal:
        raise NotMaximal(f"element {m} is not maximal", witness=m)
    ax = check_axioms(L)
    if not ax.m_distributive:
        raise MDistributivityRequired("maximal-prime criterion needs m-distributivity",
                                      witness=ax.witnesses.get("m_distributive"))
    below = L.relation[L.mult_table[L.top][L.top]][m]
    if below == flags.prime:
        raise TheoremViolation(
            f"maximal element {m}: 1*1 <= m is {below} but prime is {flags.prime}",
            witness=m)
    witness = raw = None
    if not flags.prime:
        raw = _nonprime_pair(L, m)
        witness = (L.join_table[raw[0]][m], L.join_table[raw[1]][m])
        if witness != (L.top, L.top):
            raise TheoremViolation(
                "joins with a maximal element did not reach top", witness=witness)
    return MaximalPrimeReport(m, below, flags.prime, witness, raw)


def non_prime_symmetric_witness(L: MultLattice, p: int) -> tuple:
    """For non-prime ``p`` in an associative m-distributive lattice, a pair
    ``(x, y)`` with ``x,y !<= p`` and both products ``xy, yx <= p``.

    Follows the constructive argument: take any one-sided witness ``(a, b)``;
    if it is already symmetric return it, otherwise ``x = y = (b*a) v p``.
    """
    if p == L.top:
        raise HypothesesFail("p must differ from top", witness=p)
    ax = check_axioms(L)
    if not ax.m_distributive or not ax.associative:
        raise HypothesesFail(
            "needs m-distributivity and associativity",
            witness=ax.witnesses.get("m_distributive") or ax.witnesses.get("associative"))
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
    """Six equivalent conditions, each evaluated independently.

    (a) top is the only semiprime element; (b) every x != top has some y > x
    with y*y <= x; (c) a chain 0 = x0 < ... < xk = top with each successor
    squaring below its predecessor exists (built greedily, finite chains
    only); (d) there are no primes; (e) the semiprime radical is top;
    (f) every m-system contains bottom.
    """
    conditions: dict
    hyperabelian: bool
    chain: tuple | None
    blocking_semiprime: int | None
    msystem_mode: str
    witnesses: dict
    notes: tuple = ()


def _greedy_square_chain(L: MultLattice):
    """Ascending chain from bottom where each step squares below the previous
    element, taking a maximal candidate each time.  Returns (chain, blocker)."""
    mt = L.mult_table
    chain = [L.bottom]
    x = L.bottom
    while x != L.top:
        down = L.down_masks[x]
        cand = [y for y in L.elements
                if y != x and L.relation[x][y] and down >> mt[y][y] & 1]
        if not cand:
            return None, x
        maximal = [y for y in cand
                   if not any(z != y and L.relation[y][z] for z in cand)]
        x = maximal[0]
        chain.append(x)
    return tuple(chain), None


def hyperabelian_report(L: MultLattice, *, max_enum: int = 12) -> HyperabelianReport:
    """Evaluate the six empty-spectrum conditions and assert they agree.

    Condition (f) enumerates every m-system when ``size <= max_enum``;
    above the cap only saturated m-systems are enumerated, which decides the
    same condition because upward closure neither adds nor removes bottom.
    """
    return memo(L, ("hyperabelian", max_enum), lambda: _hyperabelian_report(L, max_enum))


def _hyperabelian_report(L: MultLattice, max_enum: int) -> HyperabelianReport:
    from .systems import saturated_m_systems  # local import to avoid a cycle

    ax = check_axioms(L)
    if not ax.m_distributive:
        raise MDistributivityRequired("the equivalences need m-distributivity",
                                      witness=ax.witnesses.get("m_distributive"))
    flags = classify_all(L)
    witnesses: dict = {}
    notes = ["condition (c) is the finite instantiation: only finite chains are built"]

    semiprimes = [x for x in L.elements if flags[x].semiprime]
    cond_a = semiprimes == [L.top]
    blocking = None
    if not cond_a:
        blocking = next(x for x in semiprimes if x != L.top)
        witnesses["a"] = blocking

    cond_b = True
    mt = L.mult_table
    for x in L.elements:
        if x == L.top:
            continue
        down = L.down_masks[x]
        if not any(y != x and L.relation[x][y] and down >> mt[y][y] & 1
                   for y in L.elements):
            cond_b = False
            witnesses["b"] = x
            break

    chain, blocker = _greedy_square_chain(L)
    cond_c = chain is not None
    if not cond_c:
        witnesses["c"] = blocker

    primes = primes_of(L)
    cond_d = not primes
    if primes:
        witnesses["d"] = min(primes)

    radical = L.glb(primes)
    cond_e = radical == L.top
    if not cond_e:
        witnesses["e"] = radical

    bottom_bit = 1 << L.bottom
    if L.size <= max_enum:
        mode = "all"
        cond_f = True
        down_masks = L.down_masks
        for mask in range(1, 1 << L.size):
            if mask & bottom_bit:
                continue
            xs = [x for x in L.elements if mask >> x & 1]
            if all(mask & down_masks[mt[x][y]] for x in xs for y in xs):
                cond_f = False
                witnesses["f"] = tuple(xs)
                break
    else:
        mode = "saturated_only"
        notes.append(f"size {L.size} > cap {max_enum}: condition (f) decided over "
                     "saturated m-systems (bottom membership is saturation-invariant)")
        cond_f = True
        for s in saturated_m_systems(L):
            if L.bottom not in s:
                cond_f = False
                witnesses["f"] = tuple(sorted(s))
                break

    conditions = {"a": cond_a, "b": cond_b, "c": cond_c,
                  "d": cond_d, "e": cond_e, "f": cond_f}
    if len(set(conditions.values())) != 1:
        raise TheoremViolation(f"empty-spectrum conditions disagree: {conditions}",
                               witness=witnesses)
    return HyperabelianReport(conditions, cond_a, chain, blocking, mode,
                              witnesses, tuple(notes))
