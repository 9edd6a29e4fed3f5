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
                   TheoremViolation, _ints, _masks, _up_masks, analysis, require,
                   validate)
from .spectrum import hyperabelian_report, prime_mask, spectrum
from .families import annihilators
from .systems import bit_indices


def _rows(cells, n: int) -> tuple:
    """A row-major list of ``n * n`` table cells as a tuple of ``n`` rows."""
    return tuple(zip(*[iter(cells)] * n))


# --------------------------------------------------------------------------
# Intervals


@dataclass(frozen=True, eq=False)
class IntervalLattice:
    """An interval [x, y] of a parent lattice, reindexed densely.

    ``embedding[i]`` is the parent element of interval element ``i``;
    ``to_parent``/``from_parent`` convert single elements.
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


@analysis("interval")
def interval(L: MultLattice, x: int, y: int) -> IntervalLattice:
    """The multiplicative lattice on {z : x <= z <= y} with z * z' = (zz') v x.

    Built without :func:`validate`: the restricted order, the element list
    and the shift z -> z v x are shared per parent order (:func:`_interval_order`);
    every element generates, and (zz') v x <= z ^ z' whenever x <= z, z'
    bounds the table.  When ``x`` is bottom the new multiplication agrees
    with the restriction of the parent multiplication; this is asserted.
    Kept on ``L`` per (x, y) and released by a run (``core.releasing``), for
    the reason :func:`product` gives for keeping no product.
    """
    if not L.relation[x][y]:
        raise NotComparable(f"{x} !<= {y}: not an interval", witness=(x, y))
    elems, shifted, order = _interval_order(L.order, x, y)
    M = MultLattice(order, _restrict(L.mult_table, elems, shifted), order.all_elements,
                    tuple([L.labels[z] for z in elems]), f"{L.name}[{L.labels[x]},{L.labels[y]}]")
    if x == L.bottom:
        for i in range(order.size):
            for j in range(order.size):
                if elems[M.mult_table[i][j]] != L.mult_table[elems[i]][elems[j]]:
                    raise TheoremViolation(
                        "interval from bottom must restrict the multiplication",
                        witness=(elems[i], elems[j]))
    return IntervalLattice(M, L, x, y, elems)


def _restrict(table, elems, cell) -> tuple:
    """``table`` on ``elems`` x ``elems``, each entry mapped through ``cell``."""
    return _rows([cell[table[a][b]] for a in elems for b in elems], len(elems))


@analysis("interval_order")
def _interval_order(order: OrderData, x: int, y: int) -> tuple:
    """The parent elements of [x, y], the shift z -> z v x on every z <= y
    (so on every product of interval elements) as interval indices, and the
    restricted order."""
    rel = order.relation
    elems = tuple(z for z in range(order.size) if rel[x][z] and rel[z][y])
    index = {z: i for i, z in enumerate(elems)}
    shifted = {z: index[order.join_table[z][x]]
               for z in range(order.size) if rel[z][y]}
    n = len(elems)
    relation = _rows([rel[a][b] for a in elems for b in elems], n)
    restricted = OrderData(n, relation, _restrict(order.join_table, elems, index),
                           _restrict(order.meet_table, elems, index), index[x], index[y],
                           *_masks(n, _up_masks(relation)), frozenset(range(n)))
    return elems, shifted, restricted


@dataclass
class ClosedSubspaceReport:
    """Spec([l, top]) as parent elements, which is V(l), and whether ``l`` is
    prime, which is whether the interval is a prime lattice (its bottom is
    prime there); :func:`closed_subspace_spec` raises on a mismatch."""
    interval: IntervalLattice
    spec_in_parent: frozenset     # Spec([l, top]) pushed through the embedding
    l_is_prime: bool


def closed_subspace_spec(L: MultLattice, l: int) -> ClosedSubspaceReport:
    """Identify Spec([l, top]) with the closed set V(l), elementwise through
    the embedding.  At ``l``, the interval's bottom, this says that the
    interval is a prime lattice exactly when ``l`` is prime."""
    require(L, "constructions.closed_subspace", MDistributivityRequired)
    iv = interval(L, l, L.top)
    m_spec, spec = prime_mask(iv.lattice), prime_mask(L)
    spec_iv = sum([1 << z for i, z in enumerate(iv.embedding) if m_spec >> i & 1])
    vl = L.up_masks[l] & spec
    if spec_iv != vl:
        raise TheoremViolation(
            f"Spec([{l}, top]) differs from V({l})",
            witness=tuple(sorted(L.set_of(spec_iv ^ vl))))
    return ClosedSubspaceReport(iv, L.set_of(spec_iv), spec >> l & 1 == 1)


# --------------------------------------------------------------------------
# Products


@dataclass(frozen=True, eq=False)
class ProductLattice:
    """``left x right`` with its componentwise tables; pair (i, j) is
    element ``i * right.size + j`` of ``lattice``.  Only :func:`product`
    makes one, and :func:`projection_morphisms` relies on that: the
    projections are morphisms because the multiplication is componentwise.
    """
    lattice: MultLattice
    left: MultLattice
    right: MultLattice

    def pair_to_index(self, i: int, j: int) -> int:
        return i * self.right.size + j


def product(L1: MultLattice, L2: MultLattice) -> ProductLattice:
    """Componentwise order and multiplication on pairs, indexed row-major.

    The order tables come componentwise from the factors, once per pair of
    factor orders, so :func:`validate` checks only the multiplication bound,
    the generators (pairs of factor generators or bottoms) and the labels.
    The labels and generators depend only on the factors' labels and
    generators, so they too are built once per product order and shared.
    Each call builds a new product lattice: no caller reads one twice, and
    a cached one would keep its caches alive as long as its left factor.
    The int tuple table from :func:`_pairs` is kept without a copy.  No row
    reads a product's :func:`check_axioms` report, so none is built unless
    asked for."""
    order = _product_order(L1.order, L2.order)
    labels, gens = _product_names(order, L1.labels, L1.generators, L2.labels, L2.generators)
    M = validate(order=order, mult=_pairs(L1.mult_table, L2.mult_table),
                 generators=gens, labels=labels, name=f"{L1.name}x{L2.name}")
    return ProductLattice(M, L1, L2)


@analysis("product_names")
def _product_names(order: OrderData, labels1, gens1, labels2, gens2) -> tuple:
    """The labels and the generating set of the product, on ``order``, of
    factors with these labels and generators; the factor bottoms are read
    off the product's bottom."""
    n2 = len(labels2)
    b1, b2 = divmod(order.bottom, n2)
    return (tuple([f"({a},{b})" for a in labels1 for b in labels2]),
            frozenset([a * n2 + b for a in gens1 | {b1} for b in gens2 | {b2}]))


def _pairs(t1, t2) -> tuple:
    """The componentwise table of two factor tables, on row-major pairs."""
    n2 = len(t2)
    return _rows([a * n2 + b for r1 in t1 for r2 in t2 for a in r1 for b in r2],
                 len(t1) * n2)


@analysis("product_order")
def _product_order(o1: OrderData, o2: OrderData) -> OrderData:
    n2, n = o2.size, o1.size * o2.size
    relation = _rows([a and b for r1 in o1.relation for r2 in o2.relation
                      for a in r1 for b in r2], n)
    return OrderData(n, relation, _pairs(o1.join_table, o2.join_table),
                     _pairs(o1.meet_table, o2.meet_table), o1.bottom * n2 + o2.bottom,
                     o1.top * n2 + o2.top, *_masks(n, _up_masks(relation)), frozenset(range(n)))


@dataclass
class ProductSpecReport:
    """The two pieces of Spec(L1 x L2); :func:`product_spec_check` raises
    unless they partition it and each is a clopen copy of a factor
    spectrum."""
    product: ProductLattice
    left_part: frozenset       # primes of the form (p1, top)
    right_part: frozenset      # primes of the form (top, p2)


def product_spec_check(L1: MultLattice, L2: MultLattice) -> ProductSpecReport:
    """The spectrum of a product is the disjoint union of two clopen pieces,
    each homeomorphic to a factor spectrum, verified on masks of the
    product's elements.  A prime p of ``L1`` sits at bit p * n2 + t2 of the
    product and a prime p of ``L2`` at bit t1 * n2 + p, so a mask of ``L2``
    moves into the product by a shift.  The product's Spec is its :func:`prime_mask`."""
    P = product(L1, L2)
    M = P.lattice
    n2, t2, shift = L2.size, L2.top, L1.top * L2.size
    s1, s2 = spectrum(L1), spectrum(L2)
    # (bit of p in L1, bit of (p, t2) in the product), per prime p of L1
    bits = [(1 << p, 1 << (p * n2 + t2)) for p in s1.primes]
    prime, prime2 = prime_mask(M), sum([1 << p for p in s2.primes])
    left, right = sum([b for _, b in bits]), prime2 << shift
    if prime != left | right or left & right:
        raise TheoremViolation("product spectrum is not the expected disjoint union",
                               witness=tuple(sorted(M.set_of(prime ^ (left | right)))))
    # The closure of a point x of the spectrum is up(x) & Spec.  It must be
    # the factor's closure of the point, moved into the product.  That mask
    # has bits of the point's own piece only, so the test also makes each
    # piece closed, and two closed pieces that partition the spectrum are
    # clopen.
    up, up1, up2 = M.up_masks, L1.up_masks, L2.up_masks
    closures = ([(p * n2 + t2, sum([b for q, b in bits if up1[p] & q])) for p in s1.primes]
                + [(shift + p, (up2[p] & prime2) << shift) for p in s2.primes])
    moved = [x for x, closure in closures if up[x] & prime != closure]
    if moved:
        raise TheoremViolation("product spectrum pieces are not homeomorphic "
                               "to the factor spectra", witness=min(moved))
    return ProductSpecReport(P, frozenset([p * n2 + t2 for p in s1.primes]),
                             frozenset([shift + p for p in s2.primes]))


@dataclass
class DisjointnessReport:
    """Whether V(n1) and V(n2) are disjoint and whether they cover the
    spectrum; they partition it into clopen sets when both hold."""
    v1_v2_disjoint: bool
    cover: bool


def disjointness_criteria(L: MultLattice, n1: int, n2: int) -> DisjointnessReport:
    """V(n1) and V(n2) are disjoint iff [n1 v n2, top] is hyperabelian, and
    they cover the spectrum iff n1*n2 is below the semiprime radical.  Both
    equivalences are asserted.  What a pair reads of ``L`` is kept on it:
    Spec and the radical once the gate has passed, and whether each upper
    interval is hyperabelian as pairs ask for it."""
    spec, radical = _disjointness_reads(L)
    v1 = L.up_masks[n1] & spec
    v2 = L.up_masks[n2] & spec

    disjoint = not v1 & v2
    hyper = _upper_hyperabelian(L, L.join_table[n1][n2])
    if disjoint != hyper:
        raise TheoremViolation(
            f"V({n1}) ^ V({n2}) empty is {disjoint}, but the upper interval "
            f"hyperabelian is {hyper}", witness=(n1, n2))

    cover = (v1 | v2) == spec
    below = L.relation[L.mult_table[n1][n2]][radical]
    if cover != below:
        raise TheoremViolation(
            f"V({n1}) u V({n2}) = Spec is {cover}, but n1*n2 <= radical is {below}",
            witness=(n1, n2))

    return DisjointnessReport(disjoint, cover)


@analysis("disjointness")
def _disjointness_reads(L: MultLattice) -> tuple:
    """Spec and the semiprime radical, once ``L`` has passed the gate of
    :func:`disjointness_criteria`."""
    require(L, "constructions.disjointness", MDistributivityRequired)
    radical = spectrum(L).semiprime_radical
    return prime_mask(L), radical


@analysis("upper_hyperabelian")
def _upper_hyperabelian(L: MultLattice, j: int) -> bool:
    """Whether [j, top] is hyperabelian; [bottom, top] is read as ``L``, which
    has its relation and table, with the identity embedding."""
    M = L if j == L.bottom else interval(L, j, L.top).lattice
    return hyperabelian_report(M).hyperabelian


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
    law and a witness.  The order laws are checked once per source order,
    target order and mapping; submultiplicativity on every call.  This is
    the only route that checks submultiplicativity: the identity and the
    projections of a product are built without it (their mappings respect
    the multiplication by construction)."""
    f = _order_laws(source.order, target.order, _ints(mapping, "mapping values"))
    rel, tmult = target.relation, target.mult_table
    for x, row in enumerate(source.mult_table):
        fx_row = tmult[f[x]]
        for y, xy in enumerate(row):
            if not rel[fx_row[f[y]]][f[xy]]:
                raise NotAMorphism(
                    f"submultiplicativity fails at ({x}, {y})", witness=(x, y))
    return LatticeMorphism(source, target, f)


@analysis("order_laws")
def _order_laws(src: OrderData, tgt: OrderData, f: tuple) -> tuple:
    """``f``, once it is checked to map into ``tgt`` and preserve bottom,
    binary joins and top; :class:`NotAMorphism` otherwise."""
    if len(f) != src.size or any(not 0 <= v < tgt.size for v in f):
        raise NotAMorphism("mapping is not a function into the target",
                           witness=f)
    if f[src.bottom] != tgt.bottom:
        raise NotAMorphism("bottom (the empty join) is not preserved",
                           witness=src.bottom)
    for x in range(src.size):
        for y in range(src.size):
            if f[src.join_table[x][y]] != tgt.join_table[f[x]][f[y]]:
                raise NotAMorphism(f"join not preserved at ({x}, {y})",
                                   witness=(x, y))
    if f[src.top] != tgt.top:
        raise NotAMorphism("top is not preserved", witness=src.top)
    return f


def identity_morphism(L: MultLattice) -> LatticeMorphism:
    """x -> x, which respects every multiplication; its mapping, with its
    order laws checked, is kept per order."""
    return LatticeMorphism(L, L, _order_laws(L.order, L.order, tuple(range(L.size))))


def quotient_morphism(L: MultLattice, l: int) -> LatticeMorphism:
    """x -> x v l, onto the interval [l, top].  Submultiplicative whenever
    the source is m-distributive.  The map depends on the order alone, so
    it is kept per order."""
    return morphism(L, interval(L, l, L.top).lattice, _quotient_map(L.order, l))


@analysis("quotient_map")
def _quotient_map(order: OrderData, l: int) -> tuple:
    """x -> x v l as indices of [l, top]: the shift of its interval order."""
    shifted = _interval_order(order, l, order.top)[1]
    return tuple([shifted[x] for x in range(order.size)])


def projection_morphisms(P: ProductLattice) -> tuple:
    """(i, j) -> i and (i, j) -> j.  The product's multiplication is
    componentwise, so each projection takes xy to the product of the images
    of x and y.  The mappings, with their order laws checked, are kept per
    order."""
    M = P.lattice
    f1, f2 = _projections(M.order, P.left.order, P.right.order)
    return LatticeMorphism(M, P.left, f1), LatticeMorphism(M, P.right, f2)


@analysis("projections")
def _projections(order: OrderData, o1: OrderData, o2: OrderData) -> tuple:
    n2 = o2.size
    return (_order_laws(order, o1, tuple(k // n2 for k in range(order.size))),
            _order_laws(order, o2, tuple(k % n2 for k in range(order.size))))


def right_adjoint(f: LatticeMorphism) -> tuple:
    """u with f(x) <= y iff x <= u(y), as a table indexed by target elements.
    The biconditional is asserted exhaustively, once per source order,
    target order and mapping: both sides depend on the orders alone."""
    return _right_adjoint(f.source.order, f.target.order, f.mapping)


@analysis("adjoint")
def _right_adjoint(src: OrderData, tgt: OrderData, f: tuple) -> tuple:
    u = src.adjoint(f, tgt.down_masks)
    for x in range(src.size):
        for y in range(tgt.size):
            if tgt.relation[f[x]][y] != src.relation[x][u[y]]:
                raise TheoremViolation(
                    f"adjunction biconditional fails at ({x}, {y})",
                    witness=(x, y))
    return u


@dataclass
class SpecMapReport:
    """The spectrum map of a morphism, checked by :func:`spec_map`."""
    morphism: LatticeMorphism
    adjoint: tuple
    point_map: dict            # prime of the target -> prime of the source


def spec_map(f: LatticeMorphism) -> SpecMapReport:
    """The spectrum map p -> u(p) against the Zariski topologies.

    Asserts that the adjoint sends primes to primes; the map is then
    continuous.
    """
    u = right_adjoint(f)
    src_spec = prime_mask(f.source)
    point_map = {}
    for p in bit_indices(prime_mask(f.target)):
        q = u[p]
        if not src_spec >> q & 1:
            raise TheoremViolation(
                f"adjoint image u({p}) = {q} of a prime is not prime", witness=p)
        point_map[p] = q
    # Continuity needs no check: the preimage of V(x) is the primes p with
    # x <= u(p), and _right_adjoint has asserted f(x) <= p iff x <= u(p),
    # so the preimage is V(f(x)).
    return SpecMapReport(f, u, point_map)


# --------------------------------------------------------------------------
# Lying over and the open subspace homeomorphism


def lying_over(L: MultLattice, n: int, q: int) -> int:
    """The unique prime ``p`` of ``L`` with p ^ n = q, for ``q`` prime in the
    interval [bottom, n]: :func:`lying_prime` in [q, top].

    Every prime r of ``L`` with r ^ n = q lies above q, and under this
    function's hypothesis :func:`closed_subspace_spec` identifies the primes
    of [q, top] with those of ``L`` above q, so the uniqueness asserted
    there is uniqueness in Spec(L).
    """
    require(L, "constructions.lying_over", HypothesesFail)
    if not L.relation[q][n]:
        raise NotPrimeInInterval(f"{q} is not an element of [bottom, {n}]",
                                 witness=q)
    base = interval(L, L.bottom, n)
    if not prime_mask(base.lattice) >> base.from_parent(q) & 1:
        raise NotPrimeInInterval(f"{q} is not prime in [bottom, {n}]", witness=q)
    return lying_prime(interval(L, q, L.top), n)


def lying_prime(iv: IntervalLattice, n: int) -> int:
    """The annihilator of the parent element ``n`` in the interval ``iv``,
    asserted to be the same on both sides, to be a prime of the interval
    meeting ``n`` at its bottom, and to be the only such prime.  Elements,
    witnesses included, are the parent's."""
    M, n_i, up = iv.lattice, iv.from_parent(n), iv.to_parent
    ann = annihilators(M, n_i)
    if ann.lann != ann.rann:
        raise TheoremViolation(
            f"left and right annihilators of {n} in [{iv.low}, {iv.high}] differ",
            witness=(up(ann.lann), up(ann.rann)))
    spec = prime_mask(M)
    if not spec >> ann.lann & 1 or ann.left_center != M.bottom:
        raise TheoremViolation(
            f"annihilator {up(ann.lann)} is not a prime of [{iv.low}, {iv.high}] "
            f"meeting {n} at {iv.low}", witness=up(ann.lann))
    matches = [up(p) for p in bit_indices(spec) if M.meet_table[p][n_i] == M.bottom]
    if len(matches) != 1:
        raise TheoremViolation(
            f"the lying prime is not unique: candidates {matches}", witness=tuple(matches))
    return matches[0]


@dataclass
class OpenSubspaceReport:
    """The map D(n) -> Spec([bottom, n]), which :func:`open_subspace_homeo`
    has checked to be a homeomorphism taking each D(l*n) to the matching
    open set of the interval."""
    interval: IntervalLattice
    point_map: dict            # p in D(n) -> p ^ n, prime in [bottom, n]


def open_subspace_homeo(L: MultLattice, n: int) -> OpenSubspaceReport:
    """The map p -> p ^ n from the open subspace D(n) onto Spec([bottom, n]),
    verified to be a bijective homeomorphism for the subspace topologies,
    together with the open-set identity for every l.  Both spectra are
    masks (:func:`prime_mask`), and the closure of a point is its up-set in
    its spectrum, so no spectrum report of the interval is built."""
    require(L, "constructions.open_subspace_homeo", HypothesesFail)
    up = L.up_masks
    dn = prime_mask(L) & ~up[n]
    iv = interval(L, L.bottom, n)
    M = iv.lattice
    m_spec = prime_mask(M)

    point_map = {}
    for p in bit_indices(dn):
        img = iv.from_parent(L.meet_table[p][n])
        if not m_spec >> img & 1:
            raise TheoremViolation(
                f"p ^ n is not prime in [bottom, n] for p = {p}", witness=p)
        point_map[p] = img
    images = list(point_map.values())
    odd = [q for q in bit_indices(m_spec) if images.count(q) != 1]
    if odd:
        raise TheoremViolation("p -> p ^ n is not a bijection onto the "
                               "interval spectrum", witness=iv.to_parent(odd[0]))

    bits = [(1 << p, 1 << q) for p, q in point_map.items()]

    def image(mask):    # the images of the points of D(n) in ``mask``
        return sum([q for p, q in bits if mask & p])

    moved = next((p for p, q in point_map.items()
                  if image(up[p]) != M.up_masks[q] & m_spec), None)
    if moved is not None:
        raise TheoremViolation("subspace and interval topologies do not match",
                               witness=moved)
    # D(l*n) within D(n): the points of D(n) not above l*n
    for l in L.elements:
        ln = L.mult_table[l][n]
        if image(~up[ln]) != m_spec & ~M.up_masks[iv.from_parent(ln)]:
            raise TheoremViolation(
                f"image of D({l}*{n}) is not the matching interval open",
                witness=l)
    return OpenSubspaceReport(iv, point_map)
