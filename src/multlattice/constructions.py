"""Interval and product lattices, morphisms with adjoints, and the subspace
spectrum theorems.

Interval lattices [x, y] carry the multiplication z * z' := (zz') v x and get
fresh indices with a recorded embedding back into the parent, so cross-lattice
statements are always compared through the embedding rather than by raw
index.  ``closed_subspace_spec`` identifies the spectrum of [l, top] with the
closed set V(l); ``open_subspace_homeo`` identifies the open set D(n) with
the spectrum of [bottom, n]; ``lying_over`` lifts a prime of [bottom, n] to
the unique prime of the whole lattice meeting back onto it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (HypothesesFail, MDistributivityRequired, MultLattice,
                   NotAMorphism, NotComparable, NotPrimeInInterval, OrderData,
                   TheoremViolation, check_axioms, memo, validate)
from .spectrum import (classify_all, d_set, hyperabelian_report, primes_of,
                       spectrum, v_set)
from .families import residual_left, residual_right


def _rows(cells, n: int) -> tuple:
    """A row-major list of ``n * n`` table cells as a tuple of ``n`` rows."""
    return tuple(zip(*[iter(cells)] * n))


# --------------------------------------------------------------------------
# Intervals


@dataclass(frozen=True, eq=False)
class IntervalLattice:
    """An interval [x, y] of a parent lattice, reindexed densely.

    ``embedding[i]`` is the parent element of interval element ``i``;
    ``to_parent``/``from_parent`` convert single elements, and the
    ``*_set`` variants convert element sets.
    """
    lattice: MultLattice
    parent: MultLattice
    low: int
    high: int
    embedding: tuple

    def to_parent(self, i: int) -> int:
        return self.embedding[i]

    def from_parent(self, x: int) -> int:
        return self.embedding.index(x)

    def to_parent_set(self, xs) -> frozenset:
        return frozenset(self.embedding[i] for i in xs)

    def from_parent_set(self, xs) -> frozenset:
        return frozenset(self.embedding.index(x) for x in xs)


def interval(L: MultLattice, x: int, y: int) -> IntervalLattice:
    """The multiplicative lattice on {z : x <= z <= y} with z * z' = (zz') v x.

    The sublattice keeps the parent's order tables, restricted, so
    :func:`validate` checks only the multiplication bound and the labels.
    When ``x`` is bottom the new multiplication agrees with the restriction
    of the parent multiplication; this is asserted.
    """
    if not L.relation[x][y]:
        raise NotComparable(f"{x} !<= {y}: not an interval", witness=(x, y))
    return memo(L, ("interval", x, y), lambda: _interval(L, x, y))


def _interval(L: MultLattice, x: int, y: int) -> IntervalLattice:
    elems = [z for z in L.elements if L.relation[x][z] and L.relation[z][y]]
    index = {z: i for i, z in enumerate(elems)}
    size = len(elems)
    # z -> z v x on every z <= y, so on every product of interval elements
    shifted = {z: index[L.join_table[z][x]] for z in L.elements if L.relation[z][y]}

    def restrict(table, cell):
        return _rows([cell[table[a][b]] for a in elems for b in elems], size)

    relation = _rows([L.relation[a][b] for a in elems for b in elems], size)
    order = OrderData(size, relation, restrict(L.join_table, index),
                      restrict(L.meet_table, index), index[x], index[y])
    M = validate(order=order, mult=restrict(L.mult_table, shifted),
                 labels=[L.labels[z] for z in elems],
                 name=f"{L.name}[{L.labels[x]},{L.labels[y]}]")
    if x == L.bottom:
        for i in range(size):
            for j in range(size):
                if elems[M.mult_table[i][j]] != L.mult_table[elems[i]][elems[j]]:
                    raise TheoremViolation(
                        "interval from bottom must restrict the multiplication",
                        witness=(elems[i], elems[j]))
    return IntervalLattice(M, L, x, y, tuple(elems))


@dataclass
class ClosedSubspaceReport:
    interval: IntervalLattice
    spec_in_parent: frozenset     # Spec([l, top]) pushed through the embedding
    v_of_l: frozenset
    prime_lattice: bool           # bottom of the interval is prime there
    l_is_prime: bool


def closed_subspace_spec(L: MultLattice, l: int) -> ClosedSubspaceReport:
    """Identify Spec([l, top]) with the closed set V(l), elementwise through
    the embedding, and check that the interval is a prime lattice (its bottom
    is prime) exactly when ``l`` is prime."""
    ax = check_axioms(L)
    if not ax.m_distributive:
        raise MDistributivityRequired("the closed-subspace identification "
                                      "needs m-distributivity",
                                      witness=ax.witnesses.get("m_distributive"))
    iv = interval(L, l, L.top)
    spec_iv = iv.to_parent_set(primes_of(iv.lattice))
    vl = v_set(L, l)
    if spec_iv != vl:
        raise TheoremViolation(
            f"Spec([{l}, top]) differs from V({l})",
            witness=tuple(sorted(spec_iv ^ vl)))
    prime_lattice = classify_all(iv.lattice)[iv.lattice.bottom].prime
    l_prime = classify_all(L)[l].prime
    if prime_lattice != l_prime:
        raise TheoremViolation(
            f"[l, top] prime-lattice status must match primality of l={l}",
            witness=l)
    return ClosedSubspaceReport(iv, spec_iv, vl, prime_lattice, l_prime)


# --------------------------------------------------------------------------
# Products


@dataclass(frozen=True, eq=False)
class ProductLattice:
    lattice: MultLattice
    left: MultLattice
    right: MultLattice

    def pair_to_index(self, i: int, j: int) -> int:
        return i * self.right.size + j

    def index_to_pair(self, k: int) -> tuple:
        return divmod(k, self.right.size)


def product(L1: MultLattice, L2: MultLattice) -> ProductLattice:
    """Componentwise order and multiplication on pairs, indexed row-major.

    The order tables come componentwise from the factors, so :func:`validate`
    checks only the multiplication bound, the generators (pairs of factor
    generators or bottoms) and the labels."""
    return memo(L1, ("product", id(L2)), lambda: _product(L1, L2))


def _product(L1: MultLattice, L2: MultLattice) -> ProductLattice:
    n2 = L2.size
    size = L1.size * n2

    def pairs(t1, t2):
        return _rows([a * n2 + b for r1 in t1 for r2 in t2 for a in r1 for b in r2], size)

    relation = _rows([a and b for r1 in L1.relation for r2 in L2.relation
                      for a in r1 for b in r2], size)
    order = OrderData(size, relation, pairs(L1.join_table, L2.join_table),
                      pairs(L1.meet_table, L2.meet_table),
                      L1.bottom * n2 + L2.bottom, L1.top * n2 + L2.top)
    labels = [f"({a},{b})" for a in L1.labels for b in L2.labels]
    gens = frozenset(a * n2 + b for a in L1.generators | {L1.bottom}
                     for b in L2.generators | {L2.bottom})
    M = validate(order=order, mult=pairs(L1.mult_table, L2.mult_table),
                 generators=gens, labels=labels, name=f"{L1.name}x{L2.name}")
    return ProductLattice(M, L1, L2)


@dataclass
class ProductSpecReport:
    product: ProductLattice
    left_part: frozenset       # primes of the form (p1, top)
    right_part: frozenset      # primes of the form (top, p2)
    partition_ok: bool
    clopen_ok: bool
    homeomorphic_ok: bool


def product_spec_check(L1: MultLattice, L2: MultLattice) -> ProductSpecReport:
    """The spectrum of a product is the disjoint union of two clopen pieces,
    each homeomorphic to a factor spectrum; all three facts are verified."""
    P = product(L1, L2)
    M = P.lattice
    rep = spectrum(M)
    s1 = spectrum(L1)
    s2 = spectrum(L2)
    left_part = frozenset(P.pair_to_index(p, L2.top) for p in s1.primes)
    right_part = frozenset(P.pair_to_index(L1.top, p) for p in s2.primes)
    partition_ok = (rep.primes == left_part | right_part
                    and not left_part & right_part)
    if not partition_ok:
        raise TheoremViolation("product spectrum is not the expected disjoint union",
                               witness=tuple(sorted(rep.primes ^ (left_part | right_part))))
    zar = rep.zariski
    clopen_ok = all(part in zar.closed_sets and rep.primes - part in zar.closed_sets
                    for part in (left_part, right_part))
    if not clopen_ok:
        raise TheoremViolation("product spectrum pieces are not clopen", witness=None)

    homeo = True
    for part, factor, srep, embed in (
            (left_part, L1, s1, lambda p: P.pair_to_index(p, L2.top)),
            (right_part, L2, s2, lambda p: P.pair_to_index(L1.top, p))):
        sub = zar.subspace(part)
        mapped = frozenset(frozenset(embed(p) for p in c)
                           for c in srep.zariski.closed_sets)
        if mapped != sub.closed_sets:
            homeo = False
    if not homeo:
        raise TheoremViolation("product spectrum pieces are not homeomorphic "
                               "to the factor spectra", witness=None)
    return ProductSpecReport(P, left_part, right_part, partition_ok,
                             clopen_ok, homeo)


@dataclass
class DisjointnessReport:
    v1_v2_disjoint: bool
    upper_interval_hyperabelian: bool
    cover: bool
    product_below_radical: bool
    clopen_partition: bool


def disjointness_criteria(L: MultLattice, n1: int, n2: int) -> DisjointnessReport:
    """V(n1) and V(n2) are disjoint iff [n1 v n2, top] is hyperabelian, and
    they cover the spectrum iff n1*n2 is below the semiprime radical; the
    clopen-partition criterion is the conjunction.  All three equivalences
    are asserted."""
    ax = check_axioms(L)
    if not ax.m_distributive:
        raise MDistributivityRequired("the disjointness criterion needs "
                                      "m-distributivity for its interval leg",
                                      witness=ax.witnesses.get("m_distributive"))
    rep = spectrum(L)
    v1 = v_set(L, n1, rep.primes)
    v2 = v_set(L, n2, rep.primes)

    disjoint = not (v1 & v2)
    iv = interval(L, L.join_table[n1][n2], L.top)
    hyper = hyperabelian_report(iv.lattice).hyperabelian
    if disjoint != hyper:
        raise TheoremViolation(
            f"V({n1}) ^ V({n2}) empty is {disjoint}, but the upper interval "
            f"hyperabelian is {hyper}", witness=(n1, n2))

    cover = (v1 | v2) == rep.primes
    below = L.relation[L.mult_table[n1][n2]][rep.semiprime_radical]
    if cover != below:
        raise TheoremViolation(
            f"V({n1}) u V({n2}) = Spec is {cover}, but n1*n2 <= radical is {below}",
            witness=(n1, n2))

    partition = disjoint and cover
    return DisjointnessReport(disjoint, hyper, cover, below, partition)


# --------------------------------------------------------------------------
# Morphisms, adjoints, spectrum maps


@dataclass(frozen=True, eq=False)
class LatticeMorphism:
    """A join-preserving, top-preserving, submultiplicative map."""
    source: MultLattice
    target: MultLattice
    mapping: tuple

    def __call__(self, x: int) -> int:
        return self.mapping[x]


def morphism(source: MultLattice, target: MultLattice, mapping) -> LatticeMorphism:
    """Validate the morphism laws; :class:`NotAMorphism` names the violated
    law and a witness."""
    f = tuple(int(mapping[x]) for x in source.elements)
    if len(f) != source.size or any(not 0 <= v < target.size for v in f):
        raise NotAMorphism("mapping is not a function into the target",
                           witness=f)
    if f[source.bottom] != target.bottom:
        raise NotAMorphism("bottom (the empty join) is not preserved",
                           witness=source.bottom)
    for x in source.elements:
        for y in source.elements:
            if f[source.join_table[x][y]] != target.join_table[f[x]][f[y]]:
                raise NotAMorphism(f"join not preserved at ({x}, {y})",
                                   witness=(x, y))
    if f[source.top] != target.top:
        raise NotAMorphism("top is not preserved", witness=source.top)
    for x in source.elements:
        for y in source.elements:
            if not target.relation[target.mult_table[f[x]][f[y]]][f[source.mult_table[x][y]]]:
                raise NotAMorphism(
                    f"submultiplicativity fails at ({x}, {y})", witness=(x, y))
    return LatticeMorphism(source, target, f)


def identity_morphism(L: MultLattice) -> LatticeMorphism:
    return morphism(L, L, tuple(L.elements))


def compose_morphisms(g: LatticeMorphism, f: LatticeMorphism) -> LatticeMorphism:
    """g after f (validated as a morphism again)."""
    if f.target is not g.source and f.target != g.source:
        raise NotAMorphism("morphisms do not compose: mismatched lattices",
                           witness=None)
    return morphism(f.source, g.target,
                    tuple(g.mapping[f.mapping[x]] for x in f.source.elements))


def quotient_morphism(L: MultLattice, l: int) -> LatticeMorphism:
    """x -> x v l, onto the interval [l, top].  Submultiplicative whenever
    the source is m-distributive."""
    iv = interval(L, l, L.top)
    return morphism(L, iv.lattice,
                    tuple(iv.from_parent(L.join_table[x][l]) for x in L.elements))


def projection_morphisms(P: ProductLattice) -> tuple:
    left = morphism(P.lattice, P.left,
                    tuple(P.index_to_pair(k)[0] for k in P.lattice.elements))
    right = morphism(P.lattice, P.right,
                     tuple(P.index_to_pair(k)[1] for k in P.lattice.elements))
    return left, right


def right_adjoint(f: LatticeMorphism) -> tuple:
    """u with f(x) <= y iff x <= u(y), as a table indexed by target elements.
    The biconditional is asserted exhaustively."""
    src, tgt = f.source, f.target
    u = []
    for y in tgt.elements:
        dy = tgt.down_masks[y]
        u.append(src.lub(x for x in src.elements if dy >> f.mapping[x] & 1))
    u = tuple(u)
    for x in src.elements:
        for y in tgt.elements:
            if (tgt.relation[f.mapping[x]][y]) != (src.relation[x][u[y]]):
                raise TheoremViolation(
                    f"adjunction biconditional fails at ({x}, {y})",
                    witness=(x, y))
    return u


@dataclass
class SpecMapReport:
    morphism: LatticeMorphism
    adjoint: tuple
    point_map: dict            # prime of the target -> prime of the source
    continuous: bool


def spec_map(f: LatticeMorphism) -> SpecMapReport:
    """The spectrum map p -> u(p) against the Zariski topologies.

    Asserts that the adjoint sends primes to primes and that the preimage of
    every closed set V(x) is V(f(x)).
    """
    u = right_adjoint(f)
    src, tgt = f.source, f.target
    src_primes = primes_of(src)
    tgt_primes = primes_of(tgt)
    point_map = {}
    for p in sorted(tgt_primes):
        q = u[p]
        if q not in src_primes:
            raise TheoremViolation(
                f"adjoint image u({p}) = {q} of a prime is not prime", witness=p)
        point_map[p] = q
    for x in src.elements:
        preimage = frozenset(p for p in tgt_primes if src.relation[x][point_map[p]])
        if preimage != v_set(tgt, f.mapping[x], tgt_primes):
            raise TheoremViolation(
                f"spectrum map preimage of V({x}) is not V(f({x}))", witness=x)
    return SpecMapReport(f, u, point_map, True)


# --------------------------------------------------------------------------
# Lying over and the open subspace homeomorphism


def _require_infinite_m_dist(L: MultLattice, what: str):
    ax = check_axioms(L)
    if not ax.infinitely_m_distributive:
        raise HypothesesFail(f"{what} needs infinite m-distributivity",
                             witness=ax.witnesses.get("infinitely_m_distributive"))


def lying_over(L: MultLattice, n: int, q: int) -> int:
    """The unique prime ``p`` of ``L`` with p ^ n = q, for ``q`` prime in the
    interval [bottom, n].

    Computed constructively: inside [q, top] the left annihilator of ``n``
    (asserted equal to the right annihilator) is the prime; then an
    exhaustive scan confirms existence and uniqueness in Spec(L).  Any
    mismatch between the construction and the scan is a hard failure.
    """
    _require_infinite_m_dist(L, "lying over")
    if not L.relation[q][n]:
        raise NotPrimeInInterval(f"{q} is not an element of [bottom, {n}]",
                                 witness=q)
    base = interval(L, L.bottom, n)
    if not classify_all(base.lattice)[base.from_parent(q)].prime:
        raise NotPrimeInInterval(f"{q} is not prime in [bottom, {n}]", witness=q)

    upper = interval(L, q, L.top)
    n_up = upper.from_parent(n)
    M = upper.lattice
    la = residual_left(M, M.bottom, n_up)
    ra = residual_right(M, M.bottom, n_up)
    if la != ra:
        raise TheoremViolation(
            "left and right annihilators of n in [q, top] differ",
            witness=(upper.to_parent(la), upper.to_parent(ra)))
    p = upper.to_parent(la)

    flags = classify_all(L)
    if not flags[p].prime or L.meet_table[p][n] != q:
        raise TheoremViolation(
            f"constructed element {p} is not a prime meeting n back to q",
            witness=p)
    matches = [r for r in L.elements
               if flags[r].prime and L.meet_table[r][n] == q]
    if matches != [p]:
        raise TheoremViolation(
            f"lying over is not unique: candidates {matches}", witness=tuple(matches))
    return p


@dataclass
class OpenSubspaceReport:
    interval: IntervalLattice
    point_map: dict            # p in D(n) -> p ^ n, prime in [bottom, n]
    bijective: bool
    opens_identity_ok: bool    # the image of D(l*n) is D(l*n) in the interval
    homeomorphism: bool


def open_subspace_homeo(L: MultLattice, n: int) -> OpenSubspaceReport:
    """The map p -> p ^ n from the open subspace D(n) onto Spec([bottom, n]),
    verified to be a bijective homeomorphism for the subspace topologies,
    together with the open-set identity for every l."""
    _require_infinite_m_dist(L, "the open subspace identification")
    rep = spectrum(L)
    dn = d_set(L, n, rep.primes)
    iv = interval(L, L.bottom, n)
    M = iv.lattice
    m_rep = spectrum(M)

    point_map = {}
    for p in sorted(dn):
        img = iv.from_parent(L.meet_table[p][n])
        if img not in m_rep.primes:
            raise TheoremViolation(
                f"p ^ n is not prime in [bottom, n] for p = {p}", witness=p)
        point_map[p] = img
    bijective = (len(set(point_map.values())) == len(point_map)
                 and frozenset(point_map.values()) == m_rep.primes)
    if not bijective:
        raise TheoremViolation("p -> p ^ n is not a bijection onto the "
                               "interval spectrum", witness=None)

    opens_ok = True
    for l in L.elements:
        ln = L.mult_table[l][n]
        image = frozenset(point_map[p] for p in d_set(L, ln, rep.primes) & dn)
        if image != d_set(M, iv.from_parent(ln), m_rep.primes):
            opens_ok = False
            raise TheoremViolation(
                f"image of D({l}*{n}) is not the matching interval open",
                witness=l)

    sub = rep.zariski.subspace(dn)
    mapped = frozenset(frozenset(point_map[p] for p in c) for c in sub.closed_sets)
    homeo = mapped == m_rep.zariski.closed_sets
    if not homeo:
        raise TheoremViolation("subspace and interval topologies do not match",
                               witness=None)
    return OpenSubspaceReport(iv, point_map, bijective, opens_ok, homeo)
