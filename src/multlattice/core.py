"""Finite multiplicative lattices.

A multiplicative lattice is a complete lattice carrying a binary
multiplication with ``x*y <= x`` and ``x*y <= y`` for all ``x, y``.  Here
every lattice is finite (so completeness is automatic), elements are the
dense indices ``0..size-1``, the order is stored as a full boolean relation,
and join/meet tables are precomputed at validation time so that all order
and algebra queries cost O(1).

Instances of :class:`MultLattice` are immutable after :func:`validate`; every
operation in this package is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


# --------------------------------------------------------------------------
# Errors


class LatticeError(Exception):
    """Base class for structured errors.  ``witness`` pinpoints the failure."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAPartialOrder(LatticeError):
    pass


class NotALattice(LatticeError):
    pass


class MultNotBounded(LatticeError):
    pass


class NotGenerated(LatticeError):
    pass


class NotMaximal(LatticeError):
    pass


class NotComparable(LatticeError):
    pass


class MonotonicityRequired(LatticeError):
    pass


class MDistributivityRequired(LatticeError):
    pass


class HypothesesFail(LatticeError):
    pass


class PrimeElement(LatticeError):
    pass


class NotAnMSystem(LatticeError):
    pass


class NotAMorphism(LatticeError):
    pass


class NotPrimeInInterval(LatticeError):
    pass


class BadParams(LatticeError):
    pass


class TheoremViolation(LatticeError):
    """An identity that the library asserts unconditionally failed to hold.

    These assertions back the verified statements about spectra, systems,
    families and constructions; on valid inputs satisfying the stated
    hypotheses they are unreachable, and any raise is a genuine finding.
    """


# --------------------------------------------------------------------------
# The lattice structure


class MultLattice:
    """A finite bounded lattice with a multiplication table.

    Elements are indices ``0..size-1``.  ``leq`` answers the partial order,
    ``mult`` the multiplication; ``join``/``meet`` read precomputed tables.
    ``down_masks[x]`` / ``up_masks[x]`` hold the down- and up-set of ``x`` as
    integer bitmasks, which the enumeration-heavy modules use for O(1)
    subset queries.

    Do not construct directly; use :func:`validate`.
    """

    def __init__(self, size, relation, mult_table, join_table, meet_table,
                 bottom, top, generators, labels, name):
        self.size = size
        self.relation = relation          # tuple of tuples of bool
        self.mult_table = mult_table      # tuple of tuples of int
        self.join_table = join_table
        self.meet_table = meet_table
        self.bottom = bottom
        self.top = top
        self.generators = generators      # frozenset of indices
        self.labels = labels              # tuple of str
        self.name = name
        self.down_masks, self.up_masks = _masks(size, relation)
        self.full_mask = (1 << size) - 1
        self._cache = {}

    # -- order and algebra queries

    def leq(self, x: int, y: int) -> bool:
        return self.relation[x][y]

    def lt(self, x: int, y: int) -> bool:
        return x != y and self.relation[x][y]

    def mult(self, x: int, y: int) -> int:
        return self.mult_table[x][y]

    def join(self, x: int, y: int) -> int:
        return self.join_table[x][y]

    def meet(self, x: int, y: int) -> int:
        return self.meet_table[x][y]

    def lub(self, xs: Iterable[int]) -> int:
        """Least upper bound of a set of elements; the empty join is bottom."""
        out = self.bottom
        for x in xs:
            out = self.join_table[out][x]
        return out

    def glb(self, xs: Iterable[int]) -> int:
        """Greatest lower bound of a set of elements; the empty meet is top."""
        out = self.top
        for x in xs:
            out = self.meet_table[out][x]
        return out

    def down(self, x: int) -> frozenset:
        return self.set_of(self.down_masks[x])

    def up(self, x: int) -> frozenset:
        return self.set_of(self.up_masks[x])

    @property
    def elements(self) -> range:
        return range(self.size)

    def covers(self):
        """Pairs (a, b) with b covering a, sorted; basis of the Hasse diagram."""
        def build():
            out = []
            for a in range(self.size):
                for b in range(self.size):
                    if a == b or not self.relation[a][b]:
                        continue
                    if any(self.relation[a][c] and self.relation[c][b]
                           and c != a and c != b for c in range(self.size)):
                        continue
                    out.append((a, b))
            return tuple(sorted(out))
        return memo(self, "covers", build)

    def label(self, x: int) -> str:
        return self.labels[x]

    def mask_of(self, xs: Iterable[int]) -> int:
        return sum(1 << x for x in set(xs))

    def set_of(self, mask: int) -> frozenset:
        return frozenset(x for x in range(self.size) if mask >> x & 1)

    def __eq__(self, other):
        if not isinstance(other, MultLattice):
            return NotImplemented
        return (self.size == other.size
                and self.relation == other.relation
                and self.mult_table == other.mult_table
                and self.generators == other.generators
                and self.labels == other.labels
                and self.name == other.name)

    def __repr__(self):
        return f"MultLattice({self.name!r}, size={self.size})"


def memo(L: MultLattice, key, build):
    """``build()``, computed once per lattice and key and kept on ``L``."""
    cache = L._cache
    if key not in cache:
        cache[key] = build()
    return cache[key]


# --------------------------------------------------------------------------
# Validation


def _masks(size: int, rel) -> tuple:
    """The down- and up-set of every element as integer bitmasks."""
    down = tuple(sum(1 << y for y in range(size) if rel[y][x]) for x in range(size))
    up = tuple(sum(1 << y for y in range(size) if rel[x][y]) for x in range(size))
    return down, up


def _close_covers(size: int, covers) -> list:
    """Reflexive-transitive closure of cover pairs as a boolean matrix."""
    rel = [[i == j for j in range(size)] for i in range(size)]
    for a, b in covers:
        if not (0 <= a < size and 0 <= b < size):
            raise BadParams(f"cover ({a}, {b}) out of range", witness=(a, b))
        rel[a][b] = True
    for k in range(size):
        rk = rel[k]
        for i in range(size):
            if rel[i][k]:
                ri = rel[i]
                for j in range(size):
                    if rk[j]:
                        ri[j] = True
    return rel


def _check_partial_order(size: int, rel) -> None:
    for i in range(size):
        if not rel[i][i]:
            raise NotAPartialOrder(f"relation is not reflexive at {i}", witness=(i, i))
    for i in range(size):
        for j in range(size):
            if i != j and rel[i][j] and rel[j][i]:
                raise NotAPartialOrder(
                    f"antisymmetry fails: {i} <= {j} and {j} <= {i}", witness=(i, j))
    for i in range(size):
        for j in range(size):
            if not rel[i][j]:
                continue
            for k in range(size):
                if rel[j][k] and not rel[i][k]:
                    raise NotAPartialOrder(
                        f"transitivity fails at ({i}, {j}, {k})", witness=(i, j, k))


@dataclass(frozen=True)
class OrderData:
    """The order side of a lattice, before any multiplication is attached."""
    size: int
    relation: tuple
    join_table: tuple
    meet_table: tuple
    bottom: int
    top: int


def build_order(*, size: int | None = None, covers=None, relation=None) -> OrderData:
    """Check that the supplied order is a lattice and precompute its tables.

    Accepts either cover pairs (closed reflexively and transitively) or a
    full relation (verified to be a partial order as given).
    """
    if relation is not None:
        size = len(relation) if size is None else size
        if size != len(relation) or any(len(row) != size for row in relation):
            raise BadParams("relation must be a square matrix of the given size")
        rel = [[bool(v) for v in row] for row in relation]
        _check_partial_order(size, rel)
    else:
        if size is None:
            raise BadParams("size is required when the order is given by covers")
        rel = _close_covers(size, covers or [])
        _check_partial_order(size, rel)  # antisymmetry can still fail on cyclic covers
    if size <= 0:
        raise BadParams("a bounded lattice has at least one element")

    # Every pair needs a least upper bound and a greatest lower bound.
    down_masks, up_masks = _masks(size, rel)
    join_table = [[0] * size for _ in range(size)]
    meet_table = [[0] * size for _ in range(size)]
    for x in range(size):
        for y in range(size):
            ub = up_masks[x] & up_masks[y]
            least = None
            m = ub
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                if ub & ~up_masks[u] == 0:
                    least = u
                    break
            if least is None:
                raise NotALattice(f"pair ({x}, {y}) has no least upper bound",
                                  witness=(x, y))
            join_table[x][y] = least
            lb = down_masks[x] & down_masks[y]
            greatest = None
            m = lb
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                if lb & ~down_masks[u] == 0:
                    greatest = u
                    break
            if greatest is None:
                raise NotALattice(f"pair ({x}, {y}) has no greatest lower bound",
                                  witness=(x, y))
            meet_table[x][y] = greatest

    bottom = 0
    top = 0
    for x in range(size):
        bottom = meet_table[bottom][x]
        top = join_table[top][x]
    return OrderData(size, tuple(tuple(r) for r in rel),
                     tuple(tuple(r) for r in join_table),
                     tuple(tuple(r) for r in meet_table), bottom, top)


def validate(*, size: int | None = None,
             covers: Sequence[tuple] | None = None,
             relation: Sequence[Sequence] | None = None,
             order: OrderData | None = None,
             mult,
             generators: Iterable[int] | None = None,
             labels: Sequence[str] | None = None,
             name: str = "L") -> MultLattice:
    """Validate a raw lattice description and build a :class:`MultLattice`.

    The order may be supplied as cover pairs ``(a, b)`` meaning ``a < b``
    (the reflexive-transitive closure is taken), as a full boolean relation
    (which is then verified to be a partial order), or as the
    :class:`OrderData` of a lattice derived from validated ones, which skips
    the partial-order check and the join/meet search.  The multiplication
    bound, generators and labels are checked in every case.  ``mult`` is a
    full ``size x size`` table of indices or a callable ``(x, y) -> index``.

    Raises :class:`NotAPartialOrder`, :class:`NotALattice`,
    :class:`MultNotBounded` or :class:`NotGenerated`, each carrying a
    witness for the offending pair or element.
    """
    if order is None:
        order = build_order(size=size, covers=covers, relation=relation)
    elif size is not None or covers is not None or relation is not None:
        raise BadParams("order excludes size, covers and relation")
    size = order.size
    rel = order.relation
    join_table = order.join_table
    meet_table = order.meet_table
    bottom = order.bottom
    top = order.top

    table = _bounded_table(size, rel, meet_table, mult)
    gens = frozenset(range(size)) if generators is None else frozenset(generators)
    if any(not 0 <= g < size for g in gens):
        raise BadParams("generators out of range")
    for x in range(size):
        acc = bottom
        for a in gens:
            if rel[a][x]:
                acc = join_table[acc][a]
        if acc != x:
            raise NotGenerated(
                f"element {x} is not a join of generators", witness=x)

    if labels is None:
        labels = tuple(str(i) for i in range(size))
    else:
        labels = tuple(str(l) for l in labels)
        if len(labels) != size:
            raise BadParams("labels must match size")

    return MultLattice(size, rel, table, join_table, meet_table,
                       bottom, top, gens, labels, name)


def _bounded_table(size: int, rel, meet_table, mult) -> tuple:
    """``mult`` (a table or a callable) as a tuple of rows, checked to be a
    full table of elements with every product below the meet."""
    if callable(mult):
        table = [[int(mult(x, y)) for y in range(size)] for x in range(size)]
    else:
        table = [[int(v) for v in row] for row in mult]
        if len(table) != size or any(len(row) != size for row in table):
            raise BadParams("mult must be a full size x size table")
    for x in range(size):
        for y in range(size):
            z = table[x][y]
            if not 0 <= z < size:
                raise BadParams(f"mult({x}, {y}) = {z} is not an element",
                                witness=(x, y))
            if not rel[z][meet_table[x][y]]:
                raise MultNotBounded(
                    f"mult({x}, {y}) = {z} is not below meet({x}, {y})",
                    witness=(x, y))
    return tuple(tuple(row) for row in table)


def replace_mult(base: MultLattice, mult_table, name: str | None = None) -> MultLattice:
    """A lattice with the same order as ``base`` but a different multiplication.

    Used by the table enumerators: only the boundedness of the new table has
    to be re-checked, the order-side structure is shared.
    """
    table = _bounded_table(base.size, base.relation, base.meet_table, mult_table)
    return MultLattice(base.size, base.relation, table,
                       base.join_table, base.meet_table, base.bottom, base.top,
                       base.generators, base.labels,
                       base.name if name is None else name)


# --------------------------------------------------------------------------
# Compactness


def compact_elements(L: MultLattice) -> frozenset:
    """The compact elements of ``L``.

    On a finite lattice every subset is finite, so every element is compact
    and this is the full element set: C(L) = L.  The systems module relies on
    this identity.
    """
    return frozenset(range(L.size))


# --------------------------------------------------------------------------
# Axiom checking


@dataclass
class PropertyReport:
    """Which multiplication axioms hold, with one counterexample per failure.

    ``infinitely_m_distributive`` is decided exhaustively over all subset
    pairs when the size is at most ``infinite_cap``; above the cap it is
    decided by the finite reduction (m-distributivity together with
    ``x*bottom = bottom*x = bottom``), and ``infinite_check_method`` records
    which route ran.
    """
    monotone: bool
    m_distributive: bool
    infinitely_m_distributive: bool
    associative: bool
    commutative: bool
    witnesses: dict = field(default_factory=dict)
    infinite_check_method: str = "exhaustive"


def _lub_of_masks(L: MultLattice, n: int):
    out = [L.bottom] * (1 << n)
    for m in range(1, 1 << n):
        x = (m & -m).bit_length() - 1
        out[m] = L.join_table[out[m & (m - 1)]][x]
    return out


def check_axioms(L: MultLattice, *, infinite_cap: int = 6) -> PropertyReport:
    """Decide the monotonicity, distributivity and symmetry axioms exhaustively."""
    method = "exhaustive" if L.size <= infinite_cap else "reduction"
    return memo(L, ("axioms", method), lambda: _check_axioms(L, method))


def _check_axioms(L: MultLattice, method: str) -> PropertyReport:
    n = L.size
    rel = L.relation
    mt = L.mult_table
    jt = L.join_table
    witnesses: dict = {}

    # Monotone iff one-sided monotone in each argument.
    monotone = True
    for x in range(n):
        for y in range(n):
            if not rel[x][y]:
                continue
            for z in range(n):
                if not rel[mt[x][z]][mt[y][z]]:
                    monotone = False
                    witnesses["monotone"] = ("left", x, y, z)
                    break
                if not rel[mt[z][x]][mt[z][y]]:
                    monotone = False
                    witnesses["monotone"] = ("right", x, y, z)
                    break
            if not monotone:
                break
        if not monotone:
            break

    m_distributive = True
    for x in range(n):
        for y in range(n):
            j = jt[x][y]
            for z in range(n):
                if mt[j][z] != jt[mt[x][z]][mt[y][z]]:
                    m_distributive = False
                    witnesses["m_distributive"] = ("left", x, y, z)
                    break
                if mt[z][j] != jt[mt[z][x]][mt[z][y]]:
                    m_distributive = False
                    witnesses["m_distributive"] = ("right", x, y, z)
                    break
            if not m_distributive:
                break
        if not m_distributive:
            break

    associative = True
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if mt[mt[x][y]][z] != mt[x][mt[y][z]]:
                    associative = False
                    witnesses["associative"] = (x, y, z)
                    break
            if not associative:
                break
        if not associative:
            break

    commutative = True
    for x in range(n):
        for y in range(x + 1, n):
            if mt[x][y] != mt[y][x]:
                commutative = False
                witnesses["commutative"] = (x, y)
                break
        if not commutative:
            break

    if method == "exhaustive":
        infinitely = True
        lubs = _lub_of_masks(L, n)
        members = [tuple(x for x in range(n) if m >> x & 1) for m in range(1 << n)]
        for mx in range(1 << n):
            for my in range(1 << n):
                lhs = mt[lubs[mx]][lubs[my]]
                rhs = L.bottom
                for x in members[mx]:
                    row = mt[x]
                    for y in members[my]:
                        rhs = jt[rhs][row[y]]
                if lhs != rhs:
                    infinitely = False
                    witnesses["infinitely_m_distributive"] = (members[mx], members[my])
                    break
            if not infinitely:
                break
    else:
        infinitely = m_distributive
        if infinitely:
            for x in range(n):
                if mt[x][L.bottom] != L.bottom or mt[L.bottom][x] != L.bottom:
                    infinitely = False
                    witnesses["infinitely_m_distributive"] = ((L.bottom,), (x,))
                    break
        elif "m_distributive" in witnesses:
            witnesses["infinitely_m_distributive"] = witnesses["m_distributive"]

    report = PropertyReport(monotone, m_distributive, infinitely,
                            associative, commutative, witnesses, method)
    # Self-checks: these implications are theorems about any multiplicative
    # lattice; a failure here would mean the checkers above disagree.
    if report.m_distributive and not report.monotone:
        raise TheoremViolation("m-distributive but not monotone",
                               witness=witnesses.get("monotone"))
    if report.infinitely_m_distributive and not report.m_distributive:
        raise TheoremViolation("infinitely m-distributive but not m-distributive",
                               witness=witnesses.get("m_distributive"))
    return report
