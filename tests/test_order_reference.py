"""``core.build_order`` and ``OrderData.covers`` held to a boolean-matrix
reference.

The library closes, checks and scans an order on the up-set bitmasks of its
elements.  The reference here does each job on an n x n boolean matrix:
Warshall's closure of the cover pairs, the reflexivity, antisymmetry and
transitivity loops that name the first failure in (i, j, k) order, the
bounds of each pair by scanning its common bounds, and the covers as the
pairs with nothing strictly between them.  Both must give the same fields and
covers, or the same exception class, message and witness.  The join and meet
tables, which the library reads off a dict keyed by up-set (down-set) mask,
are also held to the earlier mask scan of the common bounds, ``scan_bound``.
On the cover route the library checks antisymmetry alone, since the closure
is reflexive and transitive; that route must give the relation route's order.
"""

import random

import pytest

from multlattice import constructions as cons
from multlattice.core import (BadParams, LatticeError, NotALattice,
                              NotAPartialOrder, build_order)
from multlattice.ingest import chain
from multlattice.verify import LATTICE_SHAPES


def ref_close_covers(size, covers):
    rel = [[i == j for j in range(size)] for i in range(size)]
    for a, b in covers:
        if not (0 <= a < size and 0 <= b < size):
            raise BadParams(f"cover ({a}, {b}) out of range", witness=(a, b))
        rel[a][b] = True
    for k in range(size):
        for i in range(size):
            if rel[i][k]:
                for j in range(size):
                    if rel[k][j]:
                        rel[i][j] = True
    return rel


def ref_check_partial_order(size, rel):
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
            if rel[i][j]:
                for k in range(size):
                    if rel[j][k] and not rel[i][k]:
                        raise NotAPartialOrder(
                            f"transitivity fails at ({i}, {j}, {k})", witness=(i, j, k))


def ref_bound(rel, x, y, upper):
    """The least common upper bound (``upper``) or the greatest common lower
    bound of x and y, read off the matrix."""
    n = len(rel)
    leq = (lambda a, b: rel[a][b]) if upper else (lambda a, b: rel[b][a])
    common = [u for u in range(n) if leq(x, u) and leq(y, u)]
    for u in common:
        if all(leq(u, v) for v in common):
            return u
    what = "least upper" if upper else "greatest lower"
    raise NotALattice(f"pair ({x}, {y}) has no {what} bound", witness=(x, y))


def scan_bound(masks, x: int, y: int, what: str) -> int:
    """The member of ``masks[x] & masks[y]`` whose own mask holds all of it:
    the join of x and y on up-set masks, the meet on down-set masks, found
    by scanning the common bounds from the lowest index."""
    common = masks[x] & masks[y]
    m = common
    while m:
        u = (m & -m).bit_length() - 1
        m &= m - 1
        if common & ~masks[u] == 0:
            return u
    raise NotALattice(f"pair ({x}, {y}) has no {what} bound", witness=(x, y))


def scan_tables(rel):
    """The join and meet tables by ``scan_bound``, the first missing bound
    raised in (x, y) order with the join before the meet."""
    n = len(rel)
    up = [sum(1 << j for j in range(n) if rel[i][j]) for i in range(n)]
    down = [sum(1 << j for j in range(n) if rel[j][i]) for i in range(n)]
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            join[x][y] = scan_bound(up, x, y, "least upper")
            meet[x][y] = scan_bound(down, x, y, "greatest lower")
    return tuple(map(tuple, join)), tuple(map(tuple, meet))


def ref_covers(rel):
    n = len(rel)
    return tuple((a, b) for a in range(n) for b in range(n)
                 if a != b and rel[a][b]
                 and not any(c != a and c != b and rel[a][c] and rel[c][b]
                             for c in range(n)))


def ref_build(size=None, covers=None, relation=None):
    """The fields and covers ``build_order`` gives, from the matrix code."""
    if relation is not None:
        size = len(relation) if size is None else size
        if size != len(relation) or any(len(row) != size for row in relation):
            raise BadParams("relation must be a square matrix of the given size")
        rel = [[bool(v) for v in row] for row in relation]
    else:
        if size is None:
            raise BadParams("size is required when the order is given by covers")
        rel = ref_close_covers(size, covers or [])
    ref_check_partial_order(size, rel)
    if size <= 0:
        raise BadParams("a bounded lattice has at least one element")
    join = [[0] * size for _ in range(size)]
    meet = [[0] * size for _ in range(size)]
    for x in range(size):
        for y in range(size):
            join[x][y] = ref_bound(rel, x, y, True)
            meet[x][y] = ref_bound(rel, x, y, False)
    bottom = next(i for i in range(size) if all(rel[i]))
    top = next(i for i in range(size) if all(rel[j][i] for j in range(size)))
    return (size, tuple(map(tuple, rel)), tuple(map(tuple, join)),
            tuple(map(tuple, meet)), bottom, top, ref_covers(rel))


def fields(order):
    return (order.size, order.relation, order.join_table, order.meet_table,
            order.bottom, order.top, order.covers())


def outcome(build, **kwargs):
    try:
        return "ok", build(**kwargs)
    except LatticeError as exc:
        return type(exc).__name__, str(exc), exc.witness


def agree(**kwargs):
    """The library's outcome on ``kwargs``, asserted equal to the reference's."""
    got = outcome(lambda **kw: fields(build_order(**kw)), **kwargs)
    assert got == outcome(ref_build, **kwargs), kwargs
    return got


def test_shapes_agree_with_the_matrix_reference():
    for size, covers in LATTICE_SHAPES.values():
        assert agree(size=size, covers=covers)[0] == "ok"


def test_named_corpus_agrees_with_the_matrix_reference(named_corpus):
    for L in named_corpus:
        rel = L.relation
        assert agree(relation=rel)[0] == "ok"
        assert agree(size=L.size, covers=ref_covers(rel))[0] == "ok"


def derived_orders(corpus):
    for L in corpus:
        for x in L.elements:
            for y in L.elements:
                if L.leq(x, y):
                    yield cons.interval(L, x, y).lattice.order
        for partner in (chain(2), chain(3, "zero")):
            yield cons.product(L, partner).lattice.order


def test_interval_and_product_orders_agree_with_the_matrix_reference(named_corpus):
    """Derived orders are not built by ``build_order``: their covers and masks
    are read from the relation the derivation gives."""
    seen = 0
    for order in derived_orders(named_corpus):
        rel = order.relation
        assert fields(order) == ref_build(relation=rel)
        down, up = order.down_masks, order.up_masks
        assert up == tuple(sum(1 << j for j in range(order.size) if rel[i][j])
                           for i in range(order.size))
        assert down == tuple(sum(1 << j for j in range(order.size) if rel[j][i])
                             for i in range(order.size))
        seen += 1
    assert seen > 400


def random_poset(rng, n):
    """A random partial order on n points as a closed relation: each pair
    i < j of a random linear extension is related with probability 1/2."""
    perm = rng.sample(range(n), n)
    covers = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
              if rng.random() < 0.5]
    return ref_close_covers(n, covers)


def perturbed_relation(rng):
    n = rng.randint(1, 6)
    rel = random_poset(rng, n)
    kind = rng.randrange(5)
    i, j = rng.randrange(n), rng.randrange(n)
    if kind == 0:
        rel[i][i] = False                   # not reflexive
    elif kind == 1:
        rel[i][j] = rel[j][i] = True        # not antisymmetric when i != j
    elif kind == 2:
        # drop one pair from a chain a < b < c: not transitive
        chains = [(a, c) for a in range(n) for b in range(n) for c in range(n)
                  if len({a, b, c}) == 3 and rel[a][b] and rel[b][c]]
        if chains:
            a, c = rng.choice(chains)
            rel[a][c] = False
    elif kind == 3:
        rel = [[rng.random() < 0.4 or x == y for y in range(n)] for x in range(n)]
    return [[int(v) for v in row] for row in rel]


def random_covers(rng):
    n = rng.randint(1, 7)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
    if rng.random() < 0.1:
        pairs.insert(rng.randrange(len(pairs) + 1),
                     rng.choice([(-1, 0), (0, n), (n, n - 1)]))
    return n, pairs


@pytest.mark.parametrize("seed", [1, 2])
def test_random_orders_agree_with_the_matrix_reference(seed):
    rng = random.Random(seed)
    found = set()
    for _ in range(1500):
        size, pairs = random_covers(rng)
        for got in (agree(relation=perturbed_relation(rng)),
                    agree(size=size, covers=pairs)):
            found.add("ok" if got[0] == "ok" else got[1].split()[0])
    # every outcome of build_order was reached: a lattice, the three
    # partial-order failures, a missing bound and an out-of-range cover
    assert found == {"ok", "relation", "antisymmetry", "transitivity", "pair",
                     "cover"}


def test_malformed_arguments_agree_with_the_matrix_reference():
    for kwargs in ({"covers": [(0, 1)]}, {"size": 0, "covers": []},
                   {"size": -1}, {"relation": []}, {"size": 3, "relation": [[1]]},
                   {"relation": [[1, 0], [1]]}, {"size": 2, "covers": [(0, 2)]}):
        assert agree(**kwargs)[0] == "BadParams"


def test_bound_tables_agree_with_the_common_bound_scan(named_corpus):
    """Tables of lattices, and the first missing bound of posets that are not
    lattices, as the common-bound scan finds them."""
    rng = random.Random(3)
    rels = [L.relation for L in named_corpus]
    rels += [ref_close_covers(size, covers) for size, covers in LATTICE_SHAPES.values()]
    rels += [random_poset(rng, rng.randint(1, 7)) for _ in range(1500)]
    failures = 0
    for rel in rels:
        got = outcome(lambda: build_order(relation=rel))
        want = outcome(lambda: scan_tables(rel))
        if want[0] == "ok":
            assert got[0] == "ok"
            assert (got[1].join_table, got[1].meet_table) == want[1]
        else:
            assert got == want, rel
            failures += 1
    assert failures > 500


def test_chain_tables_are_max_and_min():
    n = 300
    order = build_order(size=n, covers=[(i, i + 1) for i in range(n - 1)])
    assert order.join_table == tuple(tuple(max(x, y) for y in range(n)) for x in range(n))
    assert order.meet_table == tuple(tuple(min(x, y) for y in range(n)) for x in range(n))


def order_tables(order):
    return (order.relation, order.join_table, order.meet_table, order.bottom, order.top)


def test_the_cover_route_gives_the_relation_routes_order(named_corpus):
    """Warshall's closure of the cover pairs is reflexive and transitive by
    construction, so the cover route checks only antisymmetry; it must still
    give the order the fully checked relation route gives."""
    cases = [(size, covers, ref_close_covers(size, covers))
             for size, covers in LATTICE_SHAPES.values()]
    cases += [(L.size, L.covers(), L.relation) for L in named_corpus]
    for size, covers, relation in cases:
        assert (order_tables(build_order(size=size, covers=covers))
                == order_tables(build_order(relation=relation)))


@pytest.mark.parametrize("kwargs, error, message, witness", [
    # cyclic covers: the closure relates 0, 1 and 2 both ways
    ({"size": 3, "covers": [(0, 1), (1, 2), (2, 0)]}, NotAPartialOrder,
     "antisymmetry fails: 0 <= 1 and 1 <= 0", (0, 1)),
    ({"size": 4, "covers": [(0, 1), (2, 3), (3, 2)]}, NotAPartialOrder,
     "antisymmetry fails: 2 <= 3 and 3 <= 2", (2, 3)),
    ({"relation": [[1, 1], [0, 0]]}, NotAPartialOrder,
     "relation is not reflexive at 1", (1, 1)),
    ({"relation": [[1, 1, 0], [0, 1, 1], [0, 0, 1]]}, NotAPartialOrder,
     "transitivity fails at (0, 1, 2)", (0, 1, 2)),
    ({"size": 2, "covers": [(0, 1), (1, 2)]}, BadParams, "cover (1, 2) out of range", (1, 2)),
    ({"size": 2, "covers": [(-1, 0)]}, BadParams, "cover (-1, 0) out of range", (-1, 0)),
])
def test_each_route_still_names_its_first_failure(kwargs, error, message, witness):
    with pytest.raises(error) as exc:
        build_order(**kwargs)
    assert (str(exc.value), exc.value.witness) == (message, witness)
