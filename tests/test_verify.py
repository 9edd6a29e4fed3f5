import pytest

from multlattice import families
from multlattice.core import BadParams, check_axioms
from multlattice.ingest import chain
from multlattice.verify import (CorpusSpec, LATTICE_SHAPES,
                                corpus_exhaustive_tables, corpus_random_tables,
                                enumerate_tables, shape_lattice, verify_all)


def test_exhaustive_corpus_counts():
    # one table on the point, two on the 2-chain, 24 on the 3-chain,
    # 3456 on the 4-chain, 256 on the diamond
    corpus = corpus_exhaustive_tables(4)
    by_shape = {}
    for L in corpus:
        by_shape.setdefault(L.name.split("#")[0], 0)
        by_shape[L.name.split("#")[0]] += 1
    assert by_shape == {"point": 1, "chain2": 2, "chain3": 24,
                        "chain4": 3456, "diamond": 256}


def test_exhaustive_corpus_refuses_sizes_above_four():
    # the shape list is complete only up to 4 elements
    with pytest.raises(BadParams):
        corpus_exhaustive_tables(5)
    with pytest.raises(BadParams):
        CorpusSpec("exhaustive_tables", max_size=5).build()


def test_small_shapes_are_all_lattices_up_to_iso():
    """Brute-force justification that the shape list is complete for sizes
    up to 4: enumerate every labeled partial order, keep the lattices, and
    check each is isomorphic to a listed shape."""
    import itertools

    from multlattice.core import LatticeError, build_order

    listed = {}
    for name, (size, covers) in LATTICE_SHAPES.items():
        if size <= 4:
            listed[name] = build_order(size=size, covers=covers)

    def canonical(order):
        n = order.size
        best = None
        for perm in itertools.permutations(range(n)):
            mat = tuple(tuple(order.relation[perm.index(i)][perm.index(j)]
                              for j in range(n)) for i in range(n))
            if best is None or mat < best:
                best = mat
        return best

    canon_listed = {canonical(o) for o in listed.values()}
    found = set()
    for n in range(1, 5):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for mask in range(1 << len(pairs)):
            rel = [[i == j for j in range(n)] for i in range(n)]
            for k, (i, j) in enumerate(pairs):
                if mask >> k & 1:
                    rel[i][j] = True
            try:
                order = build_order(relation=rel)
            except LatticeError:
                continue
            found.add(canonical(order))
    assert found == canon_listed


def test_random_corpus_deterministic():
    a = corpus_random_tables(30, seed=99)
    b = corpus_random_tables(30, seed=99)
    assert len(a) == 30
    assert all(x == y for x, y in zip(a, b))
    c = corpus_random_tables(30, seed=100)
    assert any(x != y for x, y in zip(a, c))


def test_corpus_spec_dispatch():
    assert len(CorpusSpec("random_tables", count=10).build()) == 10
    assert CorpusSpec("named").build()
    assert len(CorpusSpec("exhaustive_tables", max_size=2).build()) == 3


def test_verify_all_report_is_sorted_and_green():
    rep = verify_all(CorpusSpec("exhaustive_tables", max_size=3).build())
    assert rep.failed == 0
    keys = [(r.lattice, r.check) for r in rep.results]
    assert keys == sorted(keys)


def test_skips_are_hypothesis_driven():
    corpus = corpus_exhaustive_tables(3)
    rep = verify_all(corpus, suites=("hyper",))
    skipped = {r.lattice for r in rep.results if r.skipped}
    for L in corpus:
        if check_axioms(L).m_distributive:
            assert L.name not in skipped
        else:
            assert L.name in skipped


def test_enumerate_tables_covers_every_bounded_table():
    base = shape_lattice("chain2")
    tables = [tuple(map(tuple, t)) for t in enumerate_tables(base)]
    assert tables == [((0, 0), (0, 0)), ((0, 0), (0, 1))]


def test_unexpected_exception_is_a_failure_of_its_lattice(monkeypatch):
    original = families.annihilators

    def annihilators(L, x):
        if L.name == "chain3_meet":
            raise RuntimeError("boom")
        return original(L, x)

    monkeypatch.setattr(families, "annihilators", annihilators)
    rep = verify_all([chain(3, "meet"), chain(3, "zero")])
    failures = [(r.lattice, r.check, r.detail) for r in rep.results if not r.passed]
    assert failures == [("chain3_meet", "families.annihilators", "RuntimeError: boom")]
    assert {r.lattice for r in rep.results} == {"chain3_meet", "chain3_zero"}


def test_closure_equivalence_above_max_enum_is_skipped():
    rep = verify_all(chain(6, "meet"), ("systems",), max_enum=3)
    [result] = [r for r in rep.results if r.check == "systems.closure_equivalence"]
    assert result.skipped and result.detail == "spectrum above max_enum"
    assert rep.failed == 0 and rep.skipped == 1
