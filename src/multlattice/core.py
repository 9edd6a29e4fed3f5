"""Finite multiplicative lattices.

A multiplicative lattice is a complete lattice carrying a binary
multiplication with ``x*y <= x`` and ``x*y <= y`` for all ``x, y``.  Here
every lattice is finite (so completeness is automatic), elements are the
dense indices ``0..size-1``, the order is stored as a full boolean relation,
and join/meet tables are precomputed at validation time so that all order
and algebra queries cost O(1).

Instances of :class:`MultLattice` are immutable once built; every
operation in this package is a pure function of its inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial, update_wrapper
from typing import Iterable, Sequence

# The largest lattice on which a check scans all 2^size subsets.  Above it
# m-systems are listed as the saturated ones only, which decides the
# correspondence and the avoiding sets alike; saturation_closure_operator
# there only re-checks the list (up S = S).  Condition (f) reads the least
# saturated m-system, one closure at every size.
POWERSET_LIMIT = 12


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

    The order side lives in ``order``, an :class:`OrderData` that every
    lattice on the same order shares (``replace_mult`` and the derived
    lattices of ``constructions`` pass it on); ``relation``, ``join_table``,
    ``meet_table``, ``bottom``, ``top`` and the masks are read from it.  What
    depends on the multiplication, generators or labels is cached per
    lattice in ``_cache``.

    Built by :func:`validate`, or by ``constructions.interval`` from a validated parent.
    """

    def __init__(self, order, mult_table, generators, labels, name):
        self.order = order
        self.size = order.size
        self.relation = order.relation    # tuple of tuples of bool
        self.mult_table = mult_table      # tuple of tuples of int
        self.join_table = order.join_table
        self.meet_table = order.meet_table
        self.bottom = order.bottom
        self.top = order.top
        self.generators = generators      # frozenset of indices
        self.labels = labels              # tuple of str
        self.name = name
        self.down_masks, self.up_masks = order.masks()
        self.full_mask = (1 << self.size) - 1
        self.elements = range(self.size)
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
        return self.order.lub(xs)

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

    def covers(self):
        """Pairs (a, b) with b covering a, sorted; basis of the Hasse diagram."""
        return self.order.covers()

    def mask_of(self, xs: Iterable[int]) -> int:
        """The bitmask of ``xs``; ValueError when one of them is not an element."""
        members = set(xs)
        try:
            mask = sum(1 << x for x in members)
        except (TypeError, ValueError):     # a member that is not an int, or is negative
            mask = -1
        if mask >> self.size:
            raise ValueError("members must be elements of the lattice")
        return mask

    def set_of(self, mask: int) -> frozenset:
        return frozenset(x for x in range(self.size) if mask >> x & 1)

    def maximal_in(self, mask: int) -> list:
        """The maximal elements of the subset ``mask``, in index order."""
        up = self.up_masks
        return [x for x in range(self.size)
                if mask >> x & 1 and not up[x] & mask & ~(1 << x)]

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


def memo(owner, key, build):
    """``build()``, computed once per owner and key and kept in
    ``owner._cache``.  The owner is a :class:`MultLattice`, or an
    :class:`OrderData` for values that depend on the order alone.  Nothing
    is stored when ``build()`` raises, so a failure is raised again on the
    next call.  A value under a tuple key is kept here; one under a constant
    key is an analysis (:func:`analysis`), whose accessor reads and builds
    it in its own frame by the same rule.  A miss raises no ``KeyError``."""
    cache = owner._cache
    value = cache.get(key, _MISSING)
    if value is _MISSING:
        value = cache[key] = build()
    return value


_MISSING = object()     # memo's marker for a key not in the cache


@dataclass
class Analysis:
    """A cached analysis: its ``owner`` ("lattice" or "order"), whether a
    run keeps it on the lattice (:func:`releasing`) and its ``build``, the
    one place a test swaps in another."""
    owner: str
    kept: bool
    build: object


# Every analysis kept under a constant memo key, by key; the keys a run keeps.
ANALYSES = {}
KEPT_KEYS = set()


def analysis(key: str, owner: str = "lattice", kept: bool = False):
    """Declare the decorated function as the build of the analysis ``key``
    and return its accessor, which takes the same argument, a lattice or
    (``owner="order"``) an order, and keeps the value on it as :func:`memo`
    would: a hit is one ``in`` test and one subscript, and a miss stores
    what the entry's ``build``, as it is then, returns."""
    def declare(build):
        entry = ANALYSES[key] = Analysis(owner, kept, build)
        if kept:
            KEPT_KEYS.add(key)

        def accessor(x):
            cache = x._cache
            if key not in cache:
                cache[key] = entry.build(x)
            return cache[key]
        return update_wrapper(accessor, build)
    return declare


def releasing(L: MultLattice, run):
    """``run()``, a run over ``L`` whose calls share ``L``'s cache; then ``L``
    keeps in a new dict only what it held before and the analyses declared
    kept, so what the run derived (intervals among it) is freed."""
    held = set(L._cache)
    out = run()
    L._cache = {k: v for k, v in L._cache.items() if k in held or k in KEPT_KEYS}
    return out


# --------------------------------------------------------------------------
# Validation


def _up_masks(rows) -> list:
    """The up-set of every element as an integer bitmask, from relation rows."""
    return [sum(1 << y for y, v in enumerate(row) if v) for row in rows]


def _masks(size: int, up) -> tuple:
    """The down-sets of the up-set bitmasks ``up``, and the up-sets."""
    down = tuple(sum(1 << y for y in range(size) if up[y] >> x & 1) for x in range(size))
    return down, tuple(up)


@dataclass(frozen=True, eq=False)
class OrderData:
    """The order side of a lattice, before any multiplication is attached.

    One object is shared by every lattice on the same order, so it has
    identity equality and can key caches.  ``_cache`` holds what is computed
    from the order alone: its analyses (:func:`analysis`) and the values
    :func:`memo` keeps under tuple keys, such as the interval and product
    orders and the order laws of morphisms.
    """
    size: int
    relation: tuple
    join_table: tuple
    meet_table: tuple
    bottom: int
    top: int
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    @analysis("masks", "order")
    def masks(self) -> tuple:
        """The down- and up-set of every element as integer bitmasks."""
        return _masks(self.size, _up_masks(self.relation))

    @analysis("all_elements", "order")
    def all_elements(self) -> frozenset:
        """Every element: the default generating set, one frozenset per order."""
        return frozenset(range(self.size))

    @analysis("covers", "order")
    def covers(self) -> tuple:
        """Pairs (a, b) with b covering a, sorted; basis of the Hasse diagram.
        b covers a exactly when the interval [a, b] is {a, b}."""
        down, up = self.masks()
        return tuple((a, b) for a in range(self.size) for b in range(self.size)
                     if a != b and up[a] & down[b] == 1 << a | 1 << b)

    @analysis("down_sets", "order")
    def down_sets(self) -> tuple:
        """The down-set of every element as a frozenset, for :func:`validate`'s bound."""
        return tuple(frozenset(y for y in range(self.size) if m >> y & 1)
                     for m in self.masks()[0])

    def lub(self, xs: Iterable[int]) -> int:
        """Least upper bound of a set of elements; the empty join is bottom."""
        out = self.bottom
        for x in xs:
            out = self.join_table[out][x]
        return out

    def adjoint(self, f, downs) -> tuple:
        """For each down-set mask in ``downs``, the join of the x whose
        image ``f[x]`` lies in it: the residuals and the right adjoints of
        morphisms are all read this way."""
        jt, out = self.join_table, []
        for d in downs:
            acc = self.bottom
            for x, fx in enumerate(f):
                if d >> fx & 1:
                    acc = jt[acc][x]
            out.append(acc)
        return tuple(out)


def build_order(*, size: int | None = None, covers=None, relation=None) -> OrderData:
    """Check that the supplied order is a lattice and precompute its tables.

    Accepts either cover pairs (closed reflexively and transitively) or a
    full relation (verified to be a partial order as given).  Either way it
    is closed and checked on the up-set bitmasks of its elements, and the
    boolean relation is written from them.
    """
    if relation is not None:
        size = len(relation) if size is None else size
        if size != len(relation) or any(len(row) != size for row in relation):
            raise BadParams("relation must be a square matrix of the given size")
        up = _up_masks(relation)
        for i in range(size):
            if not up[i] >> i & 1:
                raise NotAPartialOrder(f"relation is not reflexive at {i}", witness=(i, i))
    else:
        if size is None:
            raise BadParams("size is required when the order is given by covers")
        up = [1 << i for i in range(size)]
        for a, b in covers or []:
            if not (0 <= a < size and 0 <= b < size):
                raise BadParams(f"cover ({a}, {b}) out of range", witness=(a, b))
            up[a] |= 1 << b
        # Warshall's closure is reflexive and transitive; cyclic covers break antisymmetry
        for k in range(size):
            for i in range(size):
                if up[i] >> k & 1:
                    up[i] |= up[k]
    down_masks, up_masks = _masks(size, up)
    for i in range(size):
        both = up_masks[i] & down_masks[i] & ~(1 << i)
        if both:
            j = (both & -both).bit_length() - 1
            raise NotAPartialOrder(
                f"antisymmetry fails: {i} <= {j} and {j} <= {i}", witness=(i, j))
    for i, above in enumerate(up_masks if relation is not None else ()):
        for j in range(size):
            missing = up_masks[j] & ~above if above >> j & 1 else 0
            if missing:
                k = (missing & -missing).bit_length() - 1
                raise NotAPartialOrder(
                    f"transitivity fails at ({i}, {j}, {k})", witness=(i, j, k))
    if size <= 0:
        raise BadParams("a bounded lattice has at least one element")

    # The join of x and y is the element whose up-set is up(x) & up(y), if
    # one is; the meet likewise on down-sets.
    by_up = {u: i for i, u in enumerate(up_masks)}
    by_down = {d: i for i, d in enumerate(down_masks)}
    join_table = tuple([tuple([by_up.get(u & v) for v in up_masks]) for u in up_masks])
    meet_table = tuple([tuple([by_down.get(d & e) for e in down_masks])
                        for d in down_masks])
    if any(None in row for row in join_table + meet_table):
        x, y, what = next((x, y, what) for x in range(size) for y in range(size)
                          for what, table in (("least upper", join_table),
                                              ("greatest lower", meet_table))
                          if table[x][y] is None)
        raise NotALattice(f"pair ({x}, {y}) has no {what} bound", witness=(x, y))

    full = (1 << size) - 1
    rel = tuple(tuple(bool(u >> y & 1) for y in range(size)) for u in up_masks)
    order = OrderData(size, rel, join_table, meet_table, by_up[full], by_down[full])
    order._cache["masks"] = down_masks, up_masks
    return order


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
    the partial-order check and the join/meet search; the new lattice shares
    that object and what is cached on it.  On each route the multiplication
    bound, generators and labels are checked.  The generators default to
    :meth:`OrderData.all_elements`; each element must be the join of the
    generators below it, tested element by element only when the generating
    set is a proper subset (an element that is a generator is such a join).
    ``mult`` is a full ``size x size`` table of indices or a callable
    ``(x, y) -> index``; a tuple of tuples of ``int`` becomes the lattice's
    table as given, its rows shared with the caller, as a tuple of ``str``
    labels and a frozenset of generators do.

    Raises :class:`NotAPartialOrder`, :class:`NotALattice`,
    :class:`MultNotBounded` or :class:`NotGenerated`, each carrying a
    witness for the offending pair or element.
    """
    if order is None:
        order = build_order(size=size, covers=covers, relation=relation)
    elif size is not None or covers is not None or relation is not None:
        raise BadParams("order excludes size, covers and relation")
    size = order.size

    table = _bounded_table(order, mult)
    gens = order.all_elements() if generators is None else frozenset(generators)
    if gens and (min(gens) < 0 or max(gens) >= size):
        raise BadParams("generators out of range")
    # Every element is the join of the generators below it; that needs a
    # loop only when some element is not a generator itself.
    if len(gens) < size:
        for x in range(size):
            if order.lub([g for g in gens if order.relation[g][x]]) != x:
                raise NotGenerated(f"element {x} is not a join of generators",
                                   witness=x)

    if labels is None:
        labels = tuple(map(str, range(size)))
    else:
        if type(labels) is not tuple or {*map(type, labels)} != {str}:
            labels = tuple(map(str, labels))
        if len(labels) != size:
            raise BadParams("labels must match size")

    return MultLattice(order, table, gens, labels, name)


def _bounded_table(order: OrderData, mult) -> tuple:
    """``mult`` (a table or a callable) as a tuple of rows, checked to be a
    full table of elements with every product below the meet.  A tuple of
    ``int`` tuples is kept as given; any other table is copied as ints."""
    size = order.size
    if callable(mult):
        table = tuple([tuple([int(mult(x, y)) for y in range(size)])
                       for x in range(size)])
    elif (type(mult) is tuple and {*map(type, mult)} == {tuple}
          and {*map(type, itertools.chain.from_iterable(mult))} == {int}):
        table = mult
    else:
        table = tuple([tuple(map(int, row)) for row in mult])
    if len(table) != size or {*map(len, table)} != {size}:
        raise BadParams("mult must be a full size x size table")
    # xy <= x meet y iff row x lies in down(x) and column y in down(y); the
    # cell loop below runs only to name the first failing cell, row-major.
    downs = order.down_sets()
    if (all(map(frozenset.issuperset, downs, table))
            and all(map(frozenset.issuperset, downs, zip(*table)))):
        return table
    rel, meet_table = order.relation, order.meet_table
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


def replace_mult(base: MultLattice, mult_table, name: str | None = None) -> MultLattice:
    """A lattice with the same order, generators and labels as ``base`` but
    a different multiplication: :func:`validate` on ``base.order``, so the
    new lattice shares it and everything cached on it."""
    return validate(order=base.order, mult=mult_table, generators=base.generators,
                    labels=base.labels, name=base.name if name is None else name)


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
    """Which axioms hold: a flag fails exactly when ``witnesses`` records a counterexample.

    On a finite lattice ``infinitely_m_distributive`` is ``m_distributive``:
    every join is a finite join, and ``x*bottom <= x meet bottom = bottom``
    holds in every valid table, so the binary law gives the law for
    arbitrary joins by induction.  Its witness is the m-distributivity
    witness, and ``infinite_check_method`` names this route.
    :func:`subset_pair_witness` reads the law literally, as a reference.
    """
    monotone: bool
    m_distributive: bool
    infinitely_m_distributive: bool
    associative: bool
    commutative: bool
    witnesses: dict = field(default_factory=dict)
    infinite_check_method: str = "reduction"


@analysis("axioms", kept=True)
def check_axioms(L: MultLattice) -> PropertyReport:
    """The full report on the four laws, read off their :func:`law_witness` scans
    and built where it is shown (:func:`exhaustive_axioms`, the ``axioms.dist_implies_mono``
    row, ``mlat validate``); one flag is read as ``law_witness(L, flag) is None``."""
    return axiom_report({law: law_witness(L, law) for law in LAWS})


# Each hypothesis-gated statement, named as its verify check, and the check_axioms
# flags it needs; verify's skips, :func:`require` and ``mlat systems`` read it.
HYPOTHESES = {
    "spectrum.prime_iff_meet_irred_semiprime": ("m_distributive",),
    "spectrum.maximal_prime_criterion": ("m_distributive",),
    "spectrum.symmetric_nonprime_witness": ("m_distributive", "associative"),
    "hyper.six_conditions": ("m_distributive",),
    "hyper.chain_crosscheck": ("m_distributive",),
    "systems.prime_iff_msystem": ("monotone",),
    "systems.saturation_closure_operator": ("monotone",),
    "systems.correspondence": ("m_distributive",),
    "systems.subset_system_saturated": ("m_distributive",),
    "families.pip_exhaustive": ("monotone",),
    "families.generator_symmetric_witness": ("monotone", "associative"),
    "constructions.closed_subspace": ("m_distributive",),
    "constructions.disjointness": ("m_distributive",),
    "constructions.quotient_spec_map": ("m_distributive",),
    "constructions.annihilator_lying_prime": ("infinitely_m_distributive",),
    "constructions.lying_over": ("infinitely_m_distributive",),
    "constructions.open_subspace_homeo": ("infinitely_m_distributive",),
    "series.solvable_chain": ("m_distributive",),
}

# What a report says of a lattice that lacks one of the flags.
SKIP_TEXT = {
    ("m_distributive",): "not m-distributive",
    ("monotone",): "not monotone",
    ("infinitely_m_distributive",): "not infinitely m-distributive",
    ("m_distributive", "associative"): "needs m-distributivity and associativity",
    ("monotone", "associative"): "needs monotonicity and associativity",
}

LAWS = ("monotone", "m_distributive", "associative", "commutative")   # each by _<law>_witness
# A flag decided by another law's scan; every other flag names its own law.
LAW_OF = {"infinitely_m_distributive": "m_distributive"}   # see PropertyReport


def gap(L: MultLattice, statement: str) -> str:
    """``""`` when ``L`` has every hypothesis of ``statement``, otherwise the
    reason a report gives for skipping it.  Only the statement's laws are
    scanned (:func:`law_witness`)."""
    flags = HYPOTHESES[statement]
    for flag in flags:
        if law_witness(L, flag) is not None:
            return SKIP_TEXT[flags]
    return ""


def require(L: MultLattice, statement: str, exc: type) -> None:
    """Raise ``exc("<statement>: <gap>")`` with the first failing flag's
    witness unless ``L`` has every hypothesis of ``statement``; only the
    statement's laws are scanned (:func:`law_witness`)."""
    for flag in HYPOTHESES[statement]:
        if (witness := law_witness(L, flag)) is not None:
            raise exc(f"{statement}: {gap(L, statement)}", witness=witness)


def law_witness(L: MultLattice, flag: str):
    """The first counterexample to the law behind the :class:`PropertyReport`
    flag ``flag`` (``LAW_OF``), or None when it holds: the one site that
    scans a law, once per law, kept on ``L`` under the law's name, an
    analysis declared kept.  A scan finding ``L`` m-distributive runs the
    monotone scan as well and refuses a non-monotone ``L``."""
    law = LAW_OF.get(flag, flag)
    cache = L._cache
    if law not in cache:
        cache[law] = ANALYSES[law].build(L)
    return cache[law]


def _scan_law(law: str, L: MultLattice):
    witness = globals()[f"_{law}_witness"](L)     # read when called, so a patch takes effect
    # Self-check: a theorem about any multiplicative lattice.
    if law == "m_distributive" and witness is None and (
            monotone := law_witness(L, "monotone")) is not None:
        raise TheoremViolation("m-distributive but not monotone", witness=monotone)
    return witness


for law in LAWS:    # kept; law_witness reads each under the law named by its flag
    analysis(law, kept=True)(partial(_scan_law, law))


def axiom_report(witnesses: dict) -> PropertyReport:
    """The report on the laws in ``witnesses``, each mapped to its first
    counterexample or None: a flag holds exactly when its law has none, and
    infinite m-distributivity shares the m-distributivity witness."""
    found = {law: w for law, w in witnesses.items() if w is not None}
    m_distributive = "m_distributive" not in found
    if not m_distributive:
        found["infinitely_m_distributive"] = found["m_distributive"]
    return PropertyReport("monotone" not in found, m_distributive, m_distributive,
                          "associative" not in found, "commutative" not in found, found)


def _monotone_witness(L: MultLattice):
    """Monotone iff one-sided monotone in each argument: the first x < y and
    z with x*z !<= y*z ("left") or z*x !<= z*y ("right")."""
    n, rel, mt = L.size, L.relation, L.mult_table
    for x in range(n):
        for y in range(n):
            if x == y or not rel[x][y]:
                continue
            for z in range(n):
                if not rel[mt[x][z]][mt[y][z]]:
                    return "left", x, y, z
                if not rel[mt[z][x]][mt[z][y]]:
                    return "right", x, y, z
    return None


def _m_distributive_witness(L: MultLattice):
    """Distributivity at (x, y) and at (y, x) is one test and holds at x = y,
    so the first failing triple in (x, y, z) order has x < y."""
    n, mt, jt = L.size, L.mult_table, L.join_table
    for x in range(n):
        for y in range(x + 1, n):
            j = jt[x][y]
            for z in range(n):
                if mt[j][z] != jt[mt[x][z]][mt[y][z]]:
                    return "left", x, y, z
                if mt[z][j] != jt[mt[z][x]][mt[z][y]]:
                    return "right", x, y, z
    return None


def _associative_witness(L: MultLattice):
    n, mt = L.size, L.mult_table
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if mt[mt[x][y]][z] != mt[x][mt[y][z]]:
                    return x, y, z
    return None


def _commutative_witness(L: MultLattice):
    n, mt = L.size, L.mult_table
    for x in range(n):
        for y in range(x + 1, n):
            if mt[x][y] != mt[y][x]:
                return x, y
    return None


def subset_pair_witness(L: MultLattice):
    """The first subset pair ``(X, Y)``, in mask order and X-major, with
    (V X)*(V Y) != V{x*y : x in X, y in Y}, or None when there is none.

    This is infinite m-distributivity read literally, over all 4^n pairs, and
    is kept as a reference for the reports that show it; :func:`check_axioms`
    derives the flag.  The column C_y(X) = V{x*y : x in X} is C_y(X minus its
    lowest element) v x*y, and the row R_X(Y) = V{C_y(X) : y in Y} is R_X(Y
    minus its highest element) v C_y(X): an n*2^n table plus one lookup per
    pair.  Rows are kept per column, and (V X)*(V Y) per V X; a row is
    compared whole, and the witness is its first mismatch.
    """
    n = L.size
    mt = L.mult_table
    jt = L.join_table
    lubs = [L.bottom]
    for m in range(1, 1 << n):
        lubs.append(jt[lubs[m & (m - 1)]][(m & -m).bit_length() - 1])
    columns = [(L.bottom,) * n]
    lhs_rows = {}
    rhs_rows = {}
    for mx in range(1 << n):
        if mx:
            prev = columns[mx & (mx - 1)]
            row = mt[(mx & -mx).bit_length() - 1]
            columns.append(tuple([jt[a][b] for a, b in zip(prev, row)]))
        rhs = rhs_rows.get(columns[mx])
        if rhs is None:
            rhs = rhs_rows[columns[mx]] = [L.bottom]
            for c in columns[mx]:
                jrow = jt[c]
                rhs += [jrow[r] for r in rhs]
        lhs = lhs_rows.get(lubs[mx])
        if lhs is None:
            lrow = mt[lubs[mx]]
            lhs = lhs_rows[lubs[mx]] = [lrow[l] for l in lubs]
        if lhs != rhs:
            my = next(m for m in range(1 << n) if lhs[m] != rhs[m])
            return (tuple(x for x in range(n) if mx >> x & 1),
                    tuple(y for y in range(n) if my >> y & 1))
    return None


def exhaustive_axioms(L: MultLattice) -> PropertyReport:
    """``check_axioms(L)`` with the arbitrary-join law and its witness read
    by :func:`subset_pair_witness`, raising when the scan disagrees with the
    flag: ``mlat validate`` prints it, ``axioms.infinite_reduction_agrees`` runs it."""
    pair = subset_pair_witness(L)
    ax = check_axioms(L)
    if (pair is None) != ax.infinitely_m_distributive:
        raise TheoremViolation(
            f"exhaustive={pair is None} reduction={ax.infinitely_m_distributive}",
            witness=pair or ax.witnesses["infinitely_m_distributive"])
    witnesses = {**ax.witnesses, "infinitely_m_distributive": pair} if pair else ax.witnesses
    return PropertyReport(ax.monotone, ax.m_distributive, ax.infinitely_m_distributive,
                          ax.associative, ax.commutative, witnesses, "exhaustive")
