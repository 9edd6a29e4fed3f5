import importlib
import itertools
import random
import sys
from pathlib import Path
from collections import Counter

import pytest

from multlattice import core, verify
from multlattice.constructions import interval, product
from multlattice.core import (BadParams, LatticeError, MultNotBounded,
                              NotALattice, NotAPartialOrder, NotGenerated,
                              check_axioms, compact_elements, validate)
from multlattice.ingest import chain
from multlattice.spectrum import hyperabelian_report

from conftest import cached, mk_chain


def brute_lub(L, xs):
    """Definitional oracle: scan the upper bounds for a unique minimum."""
    ub = [u for u in L.elements if all(L.leq(x, u) for x in xs)]
    least = [u for u in ub if all(L.leq(u, v) for v in ub)]
    assert len(least) == 1
    return least[0]


def brute_glb(L, xs):
    lb = [u for u in L.elements if all(L.leq(u, x) for x in xs)]
    greatest = [u for u in lb if all(L.leq(v, u) for v in lb)]
    assert len(greatest) == 1
    return greatest[0]


def test_two_chain_meet_is_valid():
    L = mk_chain(2, min)
    assert (L.bottom, L.top) == (0, 1)
    assert L.mult(1, 1) == 1


def test_bounded_violation_carries_witness():
    # mult(1,1)=1 declared fine, but mult(1,0)=1 breaks xy <= y
    with pytest.raises(MultNotBounded) as exc:
        validate(size=2, covers=[(0, 1)], mult=[[0, 0], [1, 1]])
    assert exc.value.witness == (1, 0)


CHAIN3_MEET = ((0, 0, 0), (0, 1, 1), (0, 1, 2))


def with_cells(cells):
    """The meet table of chain3 with the given cells replaced."""
    table = [list(row) for row in CHAIN3_MEET]
    for (x, y), z in cells.items():
        table[x][y] = z
    return table


def first_bad_cell(order, table):
    """The error of the first failing cell in row-major order, read cell by
    cell: a value outside 0..n-1, or a product not below the meet."""
    n = order.size
    for x in range(n):
        for y in range(n):
            z = table[x][y]
            if not 0 <= z < n:
                return BadParams, (x, y), f"mult({x}, {y}) = {z} is not an element"
            if not order.relation[z][order.meet_table[x][y]]:
                return (MultNotBounded, (x, y),
                        f"mult({x}, {y}) = {z} is not below meet({x}, {y})")
    return None


BAD_TABLES = {
    # (1, 2) is the first bad cell; (2, 1) is out of bound after it
    "outside": with_cells({(1, 2): 3, (2, 0): -1, (2, 1): 2}),
    # 2 <= x = 2 but 2 !<= y = 1: every row lies in its down-set
    "below_x_only": with_cells({(2, 1): 2}),
    # 2 <= y = 2 but 2 !<= x = 1: every column lies in its down-set
    "below_y_only": with_cells({(1, 2): 2}),
    "bound_before_outside": with_cells({(0, 2): 1, (2, 2): 7}),
    "callable": lambda x, y: 2 if (x, y) == (2, 0) else min(x, y),
    "callable_outside": lambda x, y: -1 if (x, y) == (1, 1) else min(x, y),
}


@pytest.mark.parametrize("case", sorted(BAD_TABLES))
def test_bound_check_names_the_first_failing_cell(case):
    base = mk_chain(3, min)
    mult = BAD_TABLES[case]
    table = ([[mult(x, y) for y in range(3)] for x in range(3)] if callable(mult)
             else mult)
    expected = first_bad_cell(base.order, table)
    assert expected is not None
    # A list table is copied and a tuple of int tuples kept as given; the
    # bound check names the same cell on both.
    for given in [mult] if callable(mult) else [mult, tuple(map(tuple, mult))]:
        for build in (lambda: validate(size=3, covers=[(0, 1), (1, 2)], mult=given),
                      lambda: validate(order=base.order, mult=given)):
            with pytest.raises(LatticeError) as exc:
                build()
            assert (type(exc.value), exc.value.witness, str(exc.value)) == expected
    if case == "below_x_only":
        assert all(base.leq(z, x) for x, row in enumerate(table) for z in row)
    if case == "below_y_only":
        assert all(base.leq(z, y) for row in table for y, z in enumerate(row))


@pytest.mark.parametrize("mult", [[[0, 0, 0], [0, 1], [0, 1, 2]],
                                  [[0, 0, 0], [0, 1, 1]]])
def test_bound_check_refuses_a_table_that_is_not_square(mult):
    with pytest.raises(BadParams, match="full size x size table") as exc:
        validate(order=mk_chain(3, min).order, mult=mult)
    assert exc.value.witness is None


def test_diamond_meet_table_against_oracle():
    order = core.build_order(size=4, covers=[(0, 1), (0, 2), (1, 3), (2, 3)])
    L = validate(size=4, covers=[(0, 1), (0, 2), (1, 3), (2, 3)],
                 mult=order.meet_table, name="M2")
    for x in L.elements:
        for y in L.elements:
            assert L.mult(x, y) == brute_glb(L, [x, y])


def test_cyclic_covers_rejected():
    with pytest.raises(NotAPartialOrder):
        validate(size=2, covers=[(0, 1), (1, 0)], mult=lambda x, y: 0)


def test_relation_input_must_be_an_order():
    rel = [[1, 1], [1, 1]]  # not antisymmetric
    with pytest.raises(NotAPartialOrder):
        validate(relation=rel, mult=lambda x, y: 0)


def test_missing_bounds_rejected():
    # two incomparable maximal points: no least upper bound
    with pytest.raises(NotALattice) as exc:
        validate(size=3, covers=[(0, 1), (0, 2)], mult=lambda x, y: 0)
    assert exc.value.witness == (1, 2)


@pytest.mark.parametrize("covers, message", [
    # 0 and 1 are minimal under the top 2: the pair has a join but no meet
    ([(0, 2), (1, 2)], "pair (0, 1) has no greatest lower bound"),
    # 0 and 1 are incomparable and alone: both bounds are missing, and the
    # join is looked for first
    ([], "pair (0, 1) has no least upper bound"),
])
def test_first_missing_bound_is_reported(covers, message):
    with pytest.raises(NotALattice) as exc:
        validate(size=3 if covers else 2, covers=covers, mult=lambda x, y: 0)
    assert str(exc.value) == message
    assert exc.value.witness == (0, 1)


def test_generation_check():
    with pytest.raises(NotGenerated) as exc:
        validate(size=3, covers=[(0, 1), (1, 2)], mult=lambda x, y: min(x, y),
                 generators=[0, 2])
    assert exc.value.witness == 1
    # the full default generating set always works
    L = validate(size=3, covers=[(0, 1), (1, 2)], mult=lambda x, y: min(x, y))
    assert L.generators == frozenset({0, 1, 2})


def test_lub_glb_conventions_and_oracle():
    L = validate(size=4, covers=[(0, 1), (0, 2), (1, 3), (2, 3)],
                 mult=lambda x, y: 0, name="M2")
    assert L.lub([]) == L.bottom
    assert L.glb([]) == L.top
    assert L.lub({1, 2}) == 3
    assert L.glb({1, 2}) == 0
    for r in range(1, 5):
        for xs in itertools.combinations(range(4), r):
            assert L.lub(xs) == brute_lub(L, xs)
            assert L.glb(xs) == brute_glb(L, xs)


def test_compact_elements_is_everything(named_corpus):
    for L in named_corpus:
        assert compact_elements(L) == frozenset(L.elements)


def test_chain_meet_axioms_all_true():
    report = check_axioms(mk_chain(4, min))
    assert report.monotone and report.m_distributive
    assert report.infinitely_m_distributive and report.associative
    assert report.commutative and not report.witnesses


def test_single_spike_table_witnesses():
    # 0 < a < 1 with mult == 0 except 1*1 = a: monotone, and the report
    # carries a witness for any flag it rejects
    L = mk_chain(3, lambda x, y: 1 if x == y == 2 else 0)
    report = check_axioms(L)
    assert report.monotone
    for flag in ("m_distributive", "associative", "commutative",
                 "infinitely_m_distributive"):
        if not getattr(report, flag):
            assert flag in report.witnesses


def test_witnesses_are_recheckable():
    L = mk_chain(3, lambda x, y: 1 if x == y == 2 else 0)
    report = check_axioms(L)
    if "m_distributive" in report.witnesses:
        side, x, y, z = report.witnesses["m_distributive"]
        j = L.join(x, y)
        if side == "left":
            assert L.mult(j, z) != L.join(L.mult(x, z), L.mult(y, z))
        else:
            assert L.mult(z, j) != L.join(L.mult(z, x), L.mult(z, y))


def test_non_monotone_table_detected():
    # a*a = a but a*1 = 0 on the diamond: monotonicity must fail
    table = [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    L = validate(size=4, covers=[(0, 1), (0, 2), (1, 3), (2, 3)], mult=table)
    report = check_axioms(L)
    assert not report.monotone
    side, x, y, z = report.witnesses["monotone"]
    assert L.leq(x, y)


def test_infinite_reduction_matches_exhaustive(small_exhaustive_corpus):
    for L in small_exhaustive_corpus:
        report = check_axioms(L)
        assert (core.subset_pair_witness(L) is None) == \
            report.infinitely_m_distributive, L.name
        assert report.infinite_check_method == "reduction"


def test_axiom_implications_hold_exhaustively(small_exhaustive_corpus):
    for L in small_exhaustive_corpus:
        report = check_axioms(L)
        if report.m_distributive:
            assert report.monotone, L.name
        if report.infinitely_m_distributive:
            assert report.m_distributive, L.name
            assert all(L.mult(x, L.bottom) == L.bottom == L.mult(L.bottom, x)
                       for x in L.elements), L.name


def test_replace_mult_shares_order():
    base = mk_chain(3, min)
    L = core.replace_mult(base, [[0, 0, 0], [0, 0, 0], [0, 0, 0]], name="z")
    assert L.order is base.order
    assert L.join_table is base.join_table
    assert L.down_masks is base.down_masks
    assert L.mult(2, 2) == 0
    with pytest.raises(MultNotBounded):
        core.replace_mult(base, [[0, 0, 0], [0, 0, 2], [0, 0, 0]])


def test_replace_mult_keeps_an_int_tuple_table_as_given():
    L = mk_chain(3, min)
    M = core.replace_mult(L, L.mult_table)
    assert M.mult_table is L.mult_table and M.order is L.order


@pytest.mark.parametrize("mult", [
    ((0, 0, 0), (0, 1, True), (0, 1, 2)),
    ([0, 0, 0], [0, 1, 1], [0, 1, 2]),
    [(0, 0, 0), (0, 1, 1), (0, 1, 2)],
], ids=["bool_cell", "list_rows", "list_of_rows"])
def test_any_other_table_is_copied_with_int_cells(mult):
    for L in (mk_chain(3, mult), core.replace_mult(mk_chain(3, min), mult)):
        assert L.mult_table == CHAIN3_MEET and L.mult_table is not mult
        assert type(L.mult_table) is tuple and {*map(type, L.mult_table)} == {tuple}
        assert {type(z) for row in L.mult_table for z in row} == {int}


@pytest.mark.parametrize("given, what", [
    ({"mult": [[0, 0], [0, 1.7]]}, "mult cells"),
    ({"mult": [[0, 0.9], [0, 1.7]]}, "mult cells"),
    ({"mult": ((0, 0), (0, 1.0))}, "mult cells"),
    ({"mult": lambda x, y: float(min(x, y))}, "mult cells"),
    ({"mult": [[0, 0], [0, "1"]]}, "mult cells"),
    ({"generators": [0.5, 1]}, "generators"),
    ({"generators": ["a"]}, "generators"),
    ({"covers": [(0.0, 1)]}, "cover endpoints"),
    ({"covers": [(0, "1")]}, "cover endpoints"),
    ({"size": 2.0}, "size"),
    ({"size": "2"}, "size"),
    ({"size": 2.0, "covers": None, "relation": [[1, 1], [0, 1]]}, "size"),
    ({"size": "2", "covers": None, "relation": [[1, 1], [0, 1]]}, "size"),
], ids=["fractional_cell", "truncated_cells", "integral_float_cell", "callable_float_cell",
        "str_cell", "float_generator", "str_generator", "float_cover", "str_cover",
        "float_size", "str_size", "float_size_relation", "str_size_relation"])
def test_a_non_integer_cell_generator_or_cover_endpoint_is_refused(given, what):
    # operator.index decides: an int or a bool is an index, and any other
    # value is refused rather than truncated or left to a later TypeError.
    with pytest.raises(BadParams, match=f"^{what} must be integers$"):
        validate(**{"size": 2, "covers": [(0, 1)], "mult": min, **given})
    if not {"covers", "size"} & given.keys():       # and so on an order already built
        with pytest.raises(BadParams, match=f"^{what} must be integers$"):
            validate(order=mk_chain(2, min).order, **{"mult": min, **given})


def test_every_order_carries_its_masks_and_element_set():
    # build_order, the interval orders and the product orders each set the
    # masks and the element set of the OrderData they build: the masks are
    # those of its relation, and every lattice generated by default on the
    # order shares its one element set.
    bases = {L.order: L for L in verify.corpus_named() + verify.corpus_exhaustive_tables(4)}
    orders = {"build_order": list(bases), "interval": [], "product": []}
    for order, L in bases.items():
        for x in L.elements:
            for y in L.elements:
                if L.leq(x, y):
                    I = interval(L, x, y).lattice
                    assert I.generators is I.order.all_elements
                    orders["interval"].append(I.order)
        orders["product"] += [product(L, P).lattice.order for P in verify.PRODUCT_PARTNERS]
    assert all(orders.values())
    for order in {order for found in orders.values() for order in found}:
        n = order.size
        assert (order.down_masks, order.up_masks) == core._masks(n, core._up_masks(order.relation))
        assert order.all_elements == frozenset(range(n))
        M = validate(order=order, mult=order.meet_table)
        assert M.generators is order.all_elements
        assert (M.down_masks, M.up_masks) == (order.down_masks, order.up_masks)


def test_bool_cells_generators_and_cover_endpoints_are_read_as_ints():
    L = validate(size=2, covers=[(False, True)], mult=[[0, False], [0, True]],
                 generators=[True])
    assert (L.relation, L.mult_table, L.generators) == (
        ((True, True), (False, True)), ((0, 0), (0, 1)), frozenset([1]))
    assert {type(z) for row in L.mult_table for z in row} == {type(g) for g in L.generators} == {int}


def test_structural_equality_ignores_cache():
    a = mk_chain(3, min, name="x")
    b = mk_chain(3, min, name="x")
    check_axioms(a)
    assert a == b


# --------------------------------------------------------------------------
# Oracle for check_axioms: the direct loops, every pair and triple in full
# and every subset pair with its right-hand side joined from scratch.


def reference_axioms(L, method):
    """The flags and witnesses of the axioms, with the arbitrary-join law
    decided by ``method``: "reduction" as ``check_axioms`` derives it, or
    "exhaustive" over every subset pair as ``subset_pair_witness`` reads it."""
    n = L.size
    rel, mt, jt = L.relation, L.mult_table, L.join_table

    def first(cases):
        """The first case that fails, or None."""
        return next((case for case, fails in cases if fails), None)

    flags = {}
    flags["monotone"] = first(
        (("left", x, y, z), not rel[mt[x][z]][mt[y][z]]) if side == "left" else
        (("right", x, y, z), not rel[mt[z][x]][mt[z][y]])
        for x in range(n) for y in range(n) if rel[x][y]
        for z in range(n) for side in ("left", "right"))
    flags["m_distributive"] = first(
        (("left", x, y, z), mt[jt[x][y]][z] != jt[mt[x][z]][mt[y][z]])
        if side == "left" else
        (("right", x, y, z), mt[z][jt[x][y]] != jt[mt[z][x]][mt[z][y]])
        for x in range(n) for y in range(n)
        for z in range(n) for side in ("left", "right"))
    flags["associative"] = first(((x, y, z), mt[mt[x][y]][z] != mt[x][mt[y][z]])
                                 for x in range(n) for y in range(n)
                                 for z in range(n))
    flags["commutative"] = first(((x, y), mt[x][y] != mt[y][x])
                                 for x in range(n) for y in range(x + 1, n))
    if method == "exhaustive":
        subsets = [tuple(x for x in range(n) if m >> x & 1) for m in range(1 << n)]

        def fails(X, Y):
            rhs = L.bottom
            for x in X:
                for y in Y:
                    rhs = jt[rhs][mt[x][y]]
            return mt[L.lub(X)][L.lub(Y)] != rhs

        w = first(((X, Y), fails(X, Y)) for X in subsets for Y in subsets)
    elif flags["m_distributive"] is not None:
        w = flags["m_distributive"]
    else:
        w = first((((L.bottom,), (x,)),
                   mt[x][L.bottom] != L.bottom or mt[L.bottom][x] != L.bottom)
                  for x in range(n))
    flags["infinitely_m_distributive"] = w
    return ({flag: w is None for flag, w in flags.items()},
            {flag: w for flag, w in flags.items() if w is not None})


FIVE_ELEMENT_SHAPES = (
    ((0, 1), (1, 2), (2, 3), (3, 4)),            # chain
    ((0, 1), (1, 2), (2, 4), (0, 3), (3, 4)),    # pentagon
    ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)),    # m3
    ((0, 1), (1, 2), (1, 3), (2, 4), (3, 4)),    # bottom below a square
    ((0, 1), (0, 2), (1, 3), (2, 3), (3, 4)),    # a square below top
)


def m_distributive_five_element_tables(seed, per_shape):
    """Seeded m-distributive tables on every 5-element lattice.  A candidate
    extends random products of join-irreducibles by joins; the reference
    loops above, not the library, decide which candidates are kept."""
    rng = random.Random(seed)
    out = []
    for covers in FIVE_ELEMENT_SHAPES:
        base = validate(size=5, covers=covers, mult=lambda x, y: 0)
        irreducible = [x for x in base.elements if x != base.bottom
                       and base.lub(y for y in base.elements if base.lt(y, x)) != x]
        below = [[a for a in irreducible if base.leq(a, x)] for x in base.elements]
        tables = set()
        for _ in range(200):
            value = {(a, b): rng.choice(sorted(base.down(base.meet(a, b))))
                     for a in irreducible for b in irreducible}
            table = tuple(tuple(base.lub(value[a, b] for a in below[x] for b in below[y])
                                for y in base.elements) for x in base.elements)
            if table not in tables and reference_axioms(
                    core.replace_mult(base, table), "reduction")[0]["m_distributive"]:
                tables.add(table)
            if len(tables) == per_shape:
                break
        out += [core.replace_mult(base, t) for t in sorted(tables)]
    return out


def derived_lattices(lattices):
    """Every interval of each lattice, and its products with the 2-chains,
    when they have at most 6 elements."""
    partners = [mk_chain(2, min), mk_chain(2, lambda x, y: 0)]
    out = []
    for L in lattices:
        out += [interval(L, x, y).lattice for x in L.elements for y in L.elements
                if L.leq(x, y)]
        if 2 * L.size <= 6:
            out += [product(L, R).lattice for R in partners]
    return out


def test_check_axioms_matches_the_direct_loops():
    mdist = m_distributive_five_element_tables(seed=11, per_shape=12)
    assert len(mdist) >= 30 and all(check_axioms(L).infinitely_m_distributive
                                    for L in mdist)
    random_tables = verify.corpus_random_tables(60, seed=5)
    small = verify.corpus_exhaustive_tables(4)
    corpus = (small + random_tables + mdist
              + derived_lattices([L for L in small if L.size <= 3] + small[::40]
                                 + random_tables[::6] + mdist[::3]))
    sides = Counter()
    for L in corpus:
        report = check_axioms(L)
        flags, witnesses = reference_axioms(L, "reduction")
        assert report.infinite_check_method == "reduction", L.name
        assert {flag: getattr(report, flag) for flag in flags} == flags, L.name
        assert report.witnesses == witnesses, L.name
        exhaustive = reference_axioms(L, "exhaustive")[1]
        assert core.subset_pair_witness(L) == \
            exhaustive.get("infinitely_m_distributive"), L.name
        sides[report.infinitely_m_distributive] += 1
    # the flag and the scan ran on lattices with and without the property
    assert min(sides[True], sides[False]) >= 30


def test_library_suites_never_run_the_subset_pair_scan(monkeypatch):
    # Only the axioms suite reports the scan; every other suite reads the
    # derived flag.  Every module's binding of the scan is patched to raise.
    def scan(L):
        raise AssertionError(f"subset-pair scan on {L.name}")

    L = m_distributive_five_element_tables(seed=11, per_shape=1)[1]
    assert check_axioms(L).m_distributive
    original = core.subset_pair_witness
    for name, module in list(sys.modules.items()):
        if (name.startswith("multlattice")
                and getattr(module, "subset_pair_witness", None) is original):
            monkeypatch.setattr(module, "subset_pair_witness", scan)
    rep = verify.verify_all(L, tuple(s for s in verify.SUITES if s != "axioms"))
    assert rep.checked > 0 and rep.failed == 0
    # in the axioms suite the planted error fails the one row that runs the
    # scan, and the other three rows pass
    rep = verify.verify_all(L, ("axioms",))
    assert [(r.check, r.passed, r.detail) for r in rep.results] == [
        ("axioms.compact_all", True, ""),
        ("axioms.dist_implies_mono", True, ""),
        ("axioms.infinite_reduction_agrees", False,
         f"AssertionError: subset-pair scan on {L.name}"),
        ("axioms.mult_bounded", True, "")]


def test_subsets_are_classified_only_in_systems():
    # One m-system enumeration: every other module reads systems.m_system_masks
    # or classify_system instead of scanning subsets itself.
    package = Path(core.__file__).parent
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for name in ("_scan_mask", "_classify_mask"):
            assert path.name == "systems.py" or name not in text, (path.name, name)


def test_a_falsy_analysis_is_built_once(monkeypatch):
    # chain3_zero has no primes: its prime mask is 0 and its prime set is
    # empty, and a hit on either is read as a hit, not built again.
    spectrum_module = importlib.import_module("multlattice.spectrum")
    real, calls = spectrum_module._nonprime_mask, []
    monkeypatch.setattr(spectrum_module, "_nonprime_mask",
                        lambda M, elems: calls.append(M.name) or real(M, elems))
    L = chain(3, "zero")
    for _ in range(3):
        assert spectrum_module.prime_mask(L) == 0
        assert spectrum_module.primes_of(L) == frozenset()
    assert calls == ["chain3_zero"]


# Each accessor with its analysis in core.ANALYSES, and the arguments it is
# called with on chain3_meet (a lattice alone when none are given).  The
# third part of a four-part id names the function that built the analysis
# before the registry did (most are gone); it stays so that each case keeps
# the id it is known by.
CALLS = {
    "interval": lambda L: (L, 0, 2),
    "upper_hyperabelian": lambda L: (L, 1),
    "interval_order": lambda L: (L.order, 0, 2),
    "product_order": lambda L: (L.order, L.order),
    "product_names": lambda L: (L.order, L.labels, L.generators, L.labels, L.generators),
    "order_laws": lambda L: (L.order, L.order, (0, 1, 2)),
    "quotient_map": lambda L: (L.order, 1),
    "projections": lambda L: (L.order, L.order, L.order),
    "adjoint": lambda L: (L.order, L.order, (0, 1, 2)),
}


@pytest.mark.parametrize("module, accessor, key", [
    pytest.param(module, accessor, key, id=f"{module}-{accessor}-{builder}-{key}")
    for module, accessor, builder, key in [
        ("core", "check_axioms", "_monotone_witness", "axioms"),
        ("spectrum", "classify_all", "_classify_all", "classify"),
        ("spectrum", "prime_mask", "_nonprime_mask", "prime_mask"),
        ("spectrum", "primes_of", "_nonprime_mask", "primes"),
        ("spectrum", "spectrum", "_spectrum", "spectrum"),
        ("spectrum", "hyperabelian_report", "_hyperabelian_report", "hyperabelian"),
        ("systems", "subset_flags", "_subset_flags", "subset_flags"),
        ("systems", "inverse_topology", "_inverse_topology", "inverse_topology"),
        ("systems", "m_system_masks", "_scan_m_systems", "m_systems"),
        ("families", "residual_tables", "_residual_tables", "residual_tables"),
    ]] + [
    pytest.param("constructions", accessor, key, id=f"constructions-{accessor}-{key}")
    for accessor, key in [
        ("interval", "interval"), ("_upper_hyperabelian", "upper_hyperabelian"),
        ("_interval_order", "interval_order"), ("_product_order", "product_order"),
        ("_product_names", "product_names"), ("_order_laws", "order_laws"),
        ("_quotient_map", "quotient_map"),
        ("_projections", "projections"), ("_right_adjoint", "adjoint"),
    ]])
def test_an_accessor_whose_build_raises_stores_nothing(monkeypatch, module, accessor, key):
    # An accessor stores a value only once its build returns, so the next
    # read builds again and raises again; the registry entry is where a
    # build is swapped.  A build with parameters is called with them.
    mod, calls = importlib.import_module(f"multlattice.{module}"), []

    def broken(*args):
        calls.append(args)
        raise RuntimeError("boom")

    monkeypatch.setitem(core.ANALYSES, key, broken)
    L = chain(3, "meet")
    args = CALLS.get(key, lambda L: (L,))(L)
    for attempt in (1, 2):
        with pytest.raises(RuntimeError, match="boom"):
            getattr(mod, accessor)(*args)
        assert key not in args[0]._cache and cached(args[0], key) == {}
        assert calls == [args] * attempt



def test_an_accessor_takes_its_arguments_positionally():
    # One accessor body serves every analysis: the parameters are positional
    # and key the value as (key, *params); a keyword call is refused.
    L = chain(3, "meet")
    I = interval(L, 0, 2)
    assert interval(L, 0, 2) is I is L._cache[("interval", 0, 2)]
    with pytest.raises(TypeError):
        interval(L, x=0, y=2)
    assert core.check_axioms(L) is L._cache["axioms"]

def scanned_report(L):
    """The axiom report read off the four law scans, each build run
    uncached through ``core.ANALYSES``."""
    found = {law: w for law in core.LAWS if (w := core.ANALYSES[law](L)) is not None}
    if "m_distributive" in found:
        found["infinitely_m_distributive"] = found["m_distributive"]
    return core.PropertyReport("monotone" not in found, "m_distributive" not in found,
                               "m_distributive" not in found, "associative" not in found,
                               "commutative" not in found, found)


@pytest.mark.parametrize("gates", [
    (), ("systems.prime_iff_msystem",), ("hyper.six_conditions",),
    ("constructions.lying_over", "spectrum.symmetric_nonprime_witness"), tuple(core.HYPOTHESES)])
def test_check_axioms_is_the_four_scans_whatever_a_gate_read_first(gates):
    # A gate scans only the laws its statement names and keeps each scan;
    # the report built afterwards reads those scans and scans the rest.
    for base in verify.corpus_named() + verify.corpus_exhaustive_tables(4):
        L = core.replace_mult(base, base.mult_table)       # a fresh cache
        for statement in gates:
            core.gap(L, statement)
        assert check_axioms(L) == scanned_report(L), (L.name, gates)


def test_a_gate_scans_only_the_laws_it_names():
    L = chain(4, "meet")
    assert core.gap(L, "systems.prime_iff_msystem") == ""
    assert set(L._cache) == {"monotone"}
    # infinite m-distributivity is the m-distributivity scan
    assert core.gap(L, "constructions.lying_over") == ""
    assert set(L._cache) == {"monotone", "m_distributive"}
    assert core.gap(L, "spectrum.symmetric_nonprime_witness") == ""
    assert set(L._cache) == {"monotone", "m_distributive", "associative"}


def test_an_m_distributive_scan_runs_the_monotone_scan_too():
    # the self-check of an m-distributive lattice needs its monotone scan
    L = chain(4, "meet")
    assert core.gap(L, "hyper.six_conditions") == ""
    assert set(L._cache) == {"monotone", "m_distributive"}


def test_an_m_distributive_interval_still_runs_the_monotone_self_check(monkeypatch):
    # [1, top] of chain4_meet is m-distributive, so the six-condition gate on
    # it runs the monotone scan, here planted to fail on intervals alone: the
    # self-check refuses it although no axiom report is built, not even a
    # throwaway one through axiom_report.
    real, reports = core.ANALYSES["monotone"], []
    monkeypatch.setitem(core.ANALYSES, "monotone",
                        lambda M: ("left", 0, 1, 0) if M.name.endswith("]") else real(M))
    monkeypatch.setattr(core, "axiom_report", reports.append)
    L = chain(4, "meet")
    M = interval(L, 1, L.top).lattice
    with pytest.raises(core.TheoremViolation, match="m-distributive but not monotone") as info:
        hyperabelian_report(M)
    assert info.value.witness == ("left", 0, 1, 0) and "axioms" not in M._cache
    # the disjointness row reaches the same interval through the same gate
    assert verify.run_row(chain(4, "meet"), "constructions.disjointness").detail == (
        "TheoremViolation: m-distributive but not monotone (witness ('left', 0, 1, 0))")
    assert reports == []
