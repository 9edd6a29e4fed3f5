"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's own test collection.
"""

import itertools
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.use_checkout_source()

import mdist  # noqa: E402
import pytest  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import core, ingest, spectrum, verify  # noqa: E402


@pytest.fixture(scope="module")
def tables():
    return {shape: mdist.m_distributive_tables(covers)
            for shape, covers in mdist.SHAPES.items()}


def test_mdist5_counts(tables):
    assert {s: len(t) for s, t in tables.items()} == mdist.KNOWN_COUNTS
    assert sorted(mdist.KNOWN_COUNTS.values()) == [1, 4, 61, 144, 7429]
    assert sum(mdist.KNOWN_COUNTS.values()) == 7639


@pytest.mark.parametrize("shape", ["m3", "pentagon", "B2+1"])
def test_mdist5_backtracking_matches_brute_force(shape, tables):
    order = mdist.Order(mdist.SHAPES[shape])
    n = order.size
    choices = [[z for z in range(n) if order.leq[z][order.meet[x][y]]]
               for x in range(n) for y in range(n)]
    found = []
    for cells in itertools.product(*choices):
        table = tuple(tuple(cells[n * x:n * x + n]) for x in range(n))
        if mdist.m_distributive(order, table):
            found.append(table)
    assert sorted(found) == sorted(tables[shape])


def test_every_mdist5_table_is_m_distributive_under_check_axioms(tables):
    for shape, covers in mdist.SHAPES.items():
        base = core.validate(size=mdist.SIZE, covers=covers,
                             mult=lambda x, y: 0, name=shape)
        assert base.relation == tuple(tuple(r) for r in mdist.Order(covers).leq)
        for table in tables[shape]:
            assert core.check_axioms(core.replace_mult(base, table)).m_distributive


def _fingerprint(items):
    out = []
    for item in items:
        if isinstance(item[0], str):          # a query command
            out.append(tuple(item[1]))
        else:
            L = item[0]
            out.append((L.name, L.relation, L.mult_table, L.labels))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_determines_inputs(name, tmp_path):
    wl = workloads.WORKLOADS[name]()
    first, problems = wl.setup(3, tmp_path / "a")
    again, _ = wl.setup(3, tmp_path / "a")
    other, _ = wl.setup(4, tmp_path / "a")
    assert problems == []
    assert _fingerprint(first) == _fingerprint(again)
    assert _fingerprint(first) != _fingerprint(other)


@pytest.mark.parametrize("seed", [1, 2, 1729])
def test_large_relabelling_preserves_spec(seed):
    rng = random.Random(seed)
    moved = 0
    for kind, *params in workloads.Large.LATTICES:
        L = ingest.generate(kind, *map(str, params))
        M = workloads.relabel(L, rng)
        moved += M.labels != L.labels
        size = len(spectrum.spectrum(M).primes)
        assert size == len(spectrum.spectrum(L).primes)
        assert size == workloads.known_spec_size(L.name)
    assert moved


def test_known_spec_sizes_hold_on_the_named_corpus():
    checked = 0
    for L in verify.corpus_named():
        expected = workloads.known_spec_size(L.name)
        if expected is not None:
            assert len(spectrum.spectrum(L).primes) == expected, L.name
            checked += 1
    assert checked >= 25


def test_tracer_records_nested_spans_and_restores_the_package():
    original = verify.SUITES["systems"], verify.verify_all, core.check_axioms
    L = ingest.chain(4, "meet")
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        verify.verify_all([L])
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert (verify.SUITES["systems"], verify.verify_all, core.check_axioms) == original
    metrics = tracer.metrics()
    assert metrics["verify.verify_all.calls"][0] == 1
    assert metrics["verify.suite_systems.calls"][0] == 1
    assert metrics["core.check_axioms.calls"][0] > 1
    assert metrics["constructions.product.calls"][0] == 2
    assert metrics["constructions.validate_per_product"][0] == 1.0
    # every span but the root lies inside its parent
    row = {span: i for i, span in enumerate(tracer.span_id)}
    starts, ends = tracer.span_start, tracer.span_end
    roots = [i for i, p in enumerate(tracer.span_parent) if p < 0]
    assert len(roots) == 1
    for i, p in enumerate(tracer.span_parent):
        if p >= 0:
            assert starts[row[p]] <= starts[i] <= ends[i] <= ends[row[p]]
    # self times partition the root span
    wall = ends[roots[0]] - starts[roots[0]]
    assert metrics["trace.self_sum_s"][0] == pytest.approx(wall, rel=1e-6)


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wl = workloads.Large()
    items, _ = wl.setup(1, tmp_path)
    tally = run.run_rounds(wl, items[-2:], 2)
    names = set(run.end_to_end(tally, [0.1]))
    assert names == {m["name"] for m in spec["end_to_end"]}
    traced = set(Tracer().metrics()) | set(run.TRACE_RUN_METRICS)
    assert traced == {m["name"] for m in spec["per_layer"]}


def test_query_refuses_only_commands_with_a_known_defect(tmp_path):
    wl = workloads.Query()
    items, _ = wl.setup(1, tmp_path)
    predicted = [item for item in items if item[3] is not None]
    assert {item[0] for item in predicted} <= {"families", "series"}
    other, _ = wl.setup(2, tmp_path)
    assert len(predicted) == sum(1 for item in other if item[3] is not None)
    tally = run.run_rounds(wl, items, 1)
    assert tally.wrong == []
    assert len(tally.refused) <= len(predicted)
    # a theorem check that fails exits 2 as well, and is a wrong answer
    kind, argv, expected, _ = next(item for item in items if item[0] == "spec")
    failed = (2, "", "error: TheoremViolation: |Spec| mismatch\n")
    assert wl.check((kind, argv, expected, None), failed).wrong
    kind, argv, expected, defect = predicted[0]
    assert wl.check((kind, argv, expected, defect), failed).wrong


def test_known_defects():
    assert workloads.known_defect("-inf") == "usage: mlat"
    assert workloads.known_defect("-1") is None
    assert workloads.known_defect("{0,1}") is None
    assert workloads.known_defect("{0,1}", in_list=True) == "unknown element"


def test_times_are_scaled_to_the_reference_speed():
    tally = run.Tally()
    tally.attempted = 4
    twice_as_slow = 2 * run.REFERENCE_MS / 1e3
    tally.references = [(0, twice_as_slow), (2, twice_as_slow)]
    assert tally.speed_factors() == pytest.approx([0.5] * 4)
    assert 0.001 < run.reference_s() < 1
