import ast
import dataclasses
import gc
import importlib
import inspect
import itertools
import json
import pkgutil
import random
import sys
import time
import tracemalloc
import types
from pathlib import Path

import pytest

import multlattice
from multlattice import constructions as cons
from multlattice import core, families, ingest, verify
from multlattice import systems as sys_mod
from multlattice.cli import main
from multlattice.core import (HYPOTHESES, POWERSET_LIMIT, BadParams, check_axioms,
                              replace_mult, validate)
from multlattice.ingest import chain, powerset_lattice, random_lattice, to_json
from multlattice.spectrum import FiniteTopology, primes_of, v_set
from multlattice.verify import (LATTICE_SHAPES, SUITES, CheckResult, VerifyReport,
                                corpus_exhaustive_tables, corpus_named,
                                corpus_random_tables, enumerate_tables,
                                report_to_json, shape_lattice, verify_all)

from conftest import cached
from test_acceptance import SWEEP_CHECKS
from test_json_reference import reference_to_json

spectrum_module = importlib.import_module("multlattice.spectrum")


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


def test_drawn_tables_are_not_validated_again(monkeypatch):
    # A table drawn from cell_choices is bounded by construction: the corpus
    # builders and the sampler validate their shape bases and nothing else,
    # and each lattice is the one replace_mult builds from a list copy of
    # its table.
    real, bases = core.validate, []

    def counted(**kw):
        bases.append(real(**kw))      # a refused order sample is not counted
        return bases[-1]

    samples = [(5, {"m_distributive": True}, 7, "random5_mdist_s7"),
               (5, {"m_distributive": True}, 21, "random5_mdist_s21"),
               (6, {"monotone": True}, 3, "random6_mono_s3")]
    builders = [(lambda: corpus_exhaustive_tables(4), 5),
                (lambda: corpus_random_tables(1000, 1), 5),
                (lambda: corpus_random_tables(1000, 1729), 5),
                *((lambda s=s: [random_lattice(*s)], 1) for s in samples)]
    for module in (core, verify, ingest):
        monkeypatch.setattr(module, "validate", counted)
    built = []
    for build, shapes in builders:
        bases.clear()
        built.append((build(), list(bases)))
        assert len(bases) == shapes
    monkeypatch.undo()
    for lattices, shape_bases in built:
        by_order = {B.order: B for B in shape_bases}
        for L in lattices:
            table = L.mult_table
            assert type(table) is tuple and {*map(type, table)} == {tuple}
            assert {type(c) for row in table for c in row} == {int}
            base = by_order[L.order]
            assert L == replace_mult(base, [list(row) for row in table], name=L.name)
    drawn = [lattices[0] for lattices, _ in built[3:]]
    assert [L for L in corpus_named() if L.name.startswith("random")] == drawn


def test_corpus_spec_dispatch():
    assert len(corpus_random_tables(10)) == 10
    assert corpus_named()
    assert len(corpus_exhaustive_tables(2)) == 3


def test_verify_all_report_is_sorted_and_green():
    rep = verify_all(corpus_exhaustive_tables(3))
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


def test_a_raising_gate_fails_its_row(monkeypatch):
    # The hypothesis gate reads the laws it names through core.gap, inside
    # the row: an exception there fails the gated row, and an ungated row
    # still runs (on the axiom report built before the gate breaks).
    L = chain(3, "meet")
    check_axioms(L)

    def law_witness(M, flag):
        raise RuntimeError("boom")

    monkeypatch.setattr(core, "law_witness", law_witness)
    row = verify.run_row(L, "systems.correspondence")
    assert (row.passed, row.skipped, row.detail) == (False, False, "RuntimeError: boom")
    assert verify.run_row(L, "spectrum.sober").passed


def test_a_raising_library_call_fails_the_rows_that_make_it(monkeypatch, capsys):
    # Four spectrum rows and one families row call classify_all(L); each of
    # them fails on its own, and the rows that do not call it still pass.
    lattices = [chain(3, "meet"), chain(3, "zero")]
    clean = verify_all(lattices)
    original = verify.classify_all

    def classify_all(L):
        if L.name == "chain3_meet":
            raise RuntimeError("boom")
        return original(L)

    monkeypatch.setattr(verify, "classify_all", classify_all)
    rep = verify_all(lattices, ("spectrum",))
    meet = [(r.check, r.passed, r.detail) for r in rep.results
            if r.lattice == "chain3_meet"]
    boom = "RuntimeError: boom"
    assert meet == [("spectrum.maximal_prime_criterion", False, boom),
                    ("spectrum.prime_iff_meet_irred_semiprime", False, boom),
                    ("spectrum.radical_semiprime", False, boom),
                    ("spectrum.sober", True, ""),
                    ("spectrum.symmetric_nonprime_witness", False, boom),
                    ("spectrum.v_identities", True, "")]
    # every suite still runs, and the other lattice's rows are untouched
    rep = verify_all(lattices)
    failures = [(r.lattice, r.check) for r in rep.results if not r.passed]
    assert failures == [("chain3_meet", "families.generator_symmetric_witness")] + [
        ("chain3_meet", check) for check, passed, _ in meet if not passed]
    assert ([r for r in rep.results if r.lattice == "chain3_zero"]
            == [r for r in clean.results if r.lattice == "chain3_zero"])
    assert main(["check", "spectrum", "gen:chain:3:meet"]) == 1
    err = capsys.readouterr().err
    assert "FAIL chain3_meet spectrum.radical_semiprime: RuntimeError: boom" in err
    assert [line.split(":")[0] for line in err.splitlines() if line.startswith("FAIL")] == [
        f"FAIL chain3_meet {check}" for check, passed, _ in meet if not passed]


def test_each_row_run_alone_gives_the_full_report():
    # ROWS is the report: run_row on one row, with the lattice's cache
    # cleared before it, gives that row of the full run, and the rows that
    # their cap leaves out are the only rows missing from it.
    full = verify_all(corpus_named()).results
    alone = []
    for L in corpus_named():
        for check in verify.ROWS:
            L._cache.clear()
            if row := verify.run_row(L, check):
                alone.append(row)
    alone.sort(key=lambda r: (r.lattice, r.check))
    assert len(full) > 1000 and tuple(alone) == full
    # every gated statement and every statement acceptance criterion 2 lists
    assert set(HYPOTHESES) | set(SWEEP_CHECKS) <= set(verify.ROWS)


def test_axioms_rows_fail_with_a_witness(monkeypatch):
    # Each axioms row raises, like every other row, so its failure names a
    # witness and leaves the other axioms rows in the report.  Two rows fail
    # where core asserts their facts: the subset-pair scan disagrees with
    # the flags cached before the table was changed, and, on a fresh
    # lattice, the monotonicity scan contradicts m-distributivity.
    L = chain(3, "meet")
    check_axioms(L)
    table = [list(row) for row in L.mult_table]
    table[1][2] = L.top                     # 1 * top above 1 = 1 meet top
    monkeypatch.setattr(L, "mult_table", tuple(map(tuple, table)))
    monkeypatch.setattr(verify, "compact_elements", lambda M: frozenset(M.elements) - {M.top})
    monkeypatch.setattr(core, "subset_pair_witness", lambda M: ((1,), (2,)))
    failures = _failures(L, "axioms")
    assert "axioms.dist_implies_mono" not in failures
    monkeypatch.setitem(core.ANALYSES, "monotone", lambda M: (0, 1))
    failures["axioms.dist_implies_mono"] = verify.run_row(
        chain(3, "meet"), "axioms.dist_implies_mono").detail
    assert failures == {
        "axioms.compact_all":
            "TheoremViolation: finite lattice with a non-compact element (witness 2)",
        "axioms.dist_implies_mono":
            "TheoremViolation: m-distributive but not monotone (witness (0, 1))",
        "axioms.infinite_reduction_agrees":
            "TheoremViolation: exhaustive=False reduction=True (witness ((1,), (2,)))",
        "axioms.mult_bounded":
            "TheoremViolation: a product is not below the meet (witness (1, 2))"}


def test_spectrum_rows_run_unskipped_above_the_powerset_limit():
    # chain14_meet has 13 primes and chain30_meet 29, more than
    # POWERSET_LIMIT: the two rows over subsets of the spectrum read only
    # its points and pairs of points, so both run and pass at any size.
    for L in (chain(14, "meet"), chain(30, "meet")):
        assert len(primes_of(L)) > POWERSET_LIMIT
        for check in ("systems.closure_equivalence", "systems.subset_system_saturated"):
            assert verify.run_row(L, check) == CheckResult(L.name, check, True)


def test_only_two_rows_have_a_cap():
    # A cap is declared here: every other row runs at every size, and the
    # systems suite decides a 29-point spectrum in well under a second.
    assert {check for check, (_, cap) in verify.ROWS.items() if cap} == {
        "families.pip_exhaustive", "axioms.infinite_reduction_agrees"}
    start = time.perf_counter()
    rep = verify_all(chain(30, "meet"), ("systems",))
    assert time.perf_counter() - start < 5
    assert rep.failed == 0 and rep.skipped == 0


def test_closure_equivalence_fails_when_closures_disagree(monkeypatch):
    # A constant closure merges every subset, while the 3-chain's systems
    # S_X tell its subsets of primes apart: the check must fail on a pair.
    monkeypatch.setattr(FiniteTopology, "closure", lambda T, xs: frozenset())
    rep = verify_all(chain(3, "meet"), ("systems",))
    failures = [r for r in rep.results if not r.passed]
    assert [r.check for r in failures] == ["systems.closure_equivalence"]
    assert failures[0].detail.startswith(
        "TheoremViolation: S_X = S_Y must agree with equality of "
        "inverse-topology closures (witness ")


def _failures(L, suite):
    return {r.check: r.detail for r in verify_all(L, (suite,)).results if not r.passed}


def test_sober_row_fails_when_a_non_prime_enters_the_spectrum(monkeypatch):
    # Calling the bottom of bool2 prime in both prime passes puts it in Spec.
    # Then the union of the atoms' sets V({0}) and V({1}) is the two atoms,
    # which is no V(x), so the V(x) are not the up-sets of the prime order.
    real = spectrum_module._nonprime_mask
    monkeypatch.setattr(spectrum_module, "_nonprime_mask",
                        lambda M, elems: real(M, elems) & ~1)
    failures = _failures(powerset_lattice(2, "meet"), "spectrum")
    assert failures["spectrum.sober"].startswith(
        "TheoremViolation: the sets V(x) are not the up-sets of the prime order")


def test_inverse_row_fails_when_one_basic_open_is_wrong(monkeypatch):
    # D(top) of the 3-chain is both primes, the primes outside up(top).  With
    # prime 0 put into up(top) once Spec is known, D(top) loses it, and the
    # inverse closure of prime 1 loses the prime below it.
    L = chain(3, "meet")
    spectrum_module.spectrum(L)
    up = list(L.up_masks)
    up[L.top] |= 1 << 0
    monkeypatch.setattr(L, "up_masks", up)
    failures = _failures(L, "systems")
    assert failures["systems.inverse_topology_dual_construction"] == (
        "TheoremViolation: inverse closure of a prime differs from the primes "
        "below it (witness 1)")


def test_full_interval_row_names_both_sizes(monkeypatch):
    # [bottom, top] of the 3-chain planted as [bottom, 1] has two elements.
    real = cons.interval
    monkeypatch.setattr(cons, "interval", lambda L, x, y: real(
        L, x, 1 if (x, y) == (L.bottom, L.top) else y))
    failures = _failures(chain(3, "meet"), "constructions")
    assert failures["constructions.interval_bottom_restriction"] == (
        "TheoremViolation: full interval changed size (witness (3, 2))")


def test_constructible_row_fails_when_the_inverse_topology_is_zariski(monkeypatch):
    # The Zariski closure of prime 0 in the 3-chain is {0, 1}; meeting it
    # with itself leaves the constructible topology non-discrete.
    monkeypatch.setattr(sys_mod, "inverse_topology",
                        lambda M: spectrum_module.spectrum(M).zariski)
    failures = _failures(chain(3, "meet"), "systems")
    assert failures["systems.constructible_discrete"] == (
        "TheoremViolation: constructible topology on a finite T0 spectrum "
        "must be discrete (witness (0, (0, 1)))")


def test_m_system_checks_above_the_powerset_limit(capsys):
    # Above POWERSET_LIMIT the m-system statements run over the saturated
    # m-systems, and only the family scan, which needs every subset, skips.
    L = chain(13, "zero")
    assert L.size > POWERSET_LIMIT
    rep = verify_all(L, ("systems",))
    assert rep.failed == 0 and rep.skipped == 0
    assert main(["check", "families", "gen:chain:13:zero"]) == 0
    out, err = capsys.readouterr()
    assert "failed: 0" in err
    skipped = {r["check"]: r["detail"] for r in json.loads(out)["results"]
               if r["skipped"]}
    assert skipped == {"families.pip_exhaustive": "size above cap"}


def test_v_identities_run_above_the_powerset_limit(monkeypatch):
    # The join law is checked pair by pair at every size, so a corrupted
    # join-table entry is caught on 13 elements, where no 2^n scan runs.
    L = chain(13, "meet")
    assert L.size > POWERSET_LIMIT
    bad = [list(row) for row in L.join_table]
    bad[L.bottom][L.top] = L.bottom
    monkeypatch.setattr(L, "join_table", tuple(map(tuple, bad)))
    rows = {r.check: r for r in verify_all(L, ("spectrum",)).results}
    assert rows["spectrum.v_identities"].detail == (
        f"TheoremViolation: V(x v y) != V(x) n V(y) (witness ({L.bottom}, {L.top}))")


def test_m_systems_are_enumerated_once_per_lattice(monkeypatch):
    # The hyper, systems and families suites all range over the m-systems
    # of L; they read one list, built by one powerset scan per run: a probe
    # suite run after the others still finds it.  (Derived lattices, such
    # as the intervals of the constructions suite, have their own.)
    calls, probed = [], []
    scan = core.ANALYSES["m_systems"]
    monkeypatch.setitem(core.ANALYSES, "m_systems", lambda M: calls.append(M) or scan(M))
    monkeypatch.setitem(SUITES, "probe", lambda M: probed.append(
        sys_mod.all_m_systems(M) == [M.set_of(s) for s in sys_mod.m_system_masks(M)]) or [])
    L = chain(4, "meet")
    assert verify_all(L).failed == 0
    assert probed == [True]
    assert [M for M in calls if M is L] == [L]


def _intervals_reachable(root) -> list:
    """The interval lattices reachable from ``root`` through containers and
    instance attributes; types, modules and functions are not followed."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, cons.IntervalLattice):
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("name", ["zn36", "random5_mdist_s7"])
def test_verify_all_releases_the_intervals_it_built(name):
    # The constructions rows build intervals of L; they would hold their
    # own caches as long as L if kept.  The analyses callers read stay.
    L = next(M for M in corpus_named() if M.name == name)
    assert check_axioms(L).m_distributive
    assert verify_all(L).failed == 0
    assert _intervals_reachable(L._cache) == []
    assert {"axioms", "classify", "spectrum"} <= L._cache.keys()


def test_verify_all_builds_each_interval_once_per_run(monkeypatch):
    # Every row of one run shares an interval, and none is released before
    # the last suite: a probe suite run after the others still finds them.
    requested, built, held = [], [], []
    interval, build = cons.interval, core.ANALYSES["interval"]
    monkeypatch.setattr(cons, "interval", lambda L, x, y: (
        requested.append((id(L), x, y)) or interval(L, x, y)))
    monkeypatch.setitem(core.ANALYSES, "interval", lambda L, x, y: (
        built.append((id(L), x, y)) or build(L, x, y)))
    monkeypatch.setitem(SUITES, "probe", lambda L: held.append(
        len(cached(L, "interval"))) or [])
    L = next(M for M in corpus_named() if M.name == "zn36")
    assert verify_all(L).failed == 0
    assert sorted(built) == sorted(set(requested))
    assert len(requested) > len(built)
    assert held == [len(built)] and cached(L, "interval") == {}


def test_corpus_run_leaves_no_interval_on_any_lattice():
    lattices = corpus_exhaustive_tables(3) + corpus_named()
    assert verify_all(lattices).failed == 0
    assert not any(_intervals_reachable(L._cache) for L in lattices)


# The analyses whose build takes parameters; each value is kept under
# (key, *params), and only the order-owned ones outlive a run.
PARAMETRIC = {key for key, build in core.ANALYSES.items()
              if len(inspect.signature(build).parameters) > 1}

# The analyses built on an OrderData and kept on its cache; every other is
# built on a lattice.
ORDER_ANALYSES = {"covers", "down_sets", "order_flags", "cell_choices", "interval_order",
                  "product_order", "product_names", "order_laws", "quotient_map",
                  "projections", "adjoint"}


# The analyses a caller reads through the public API and the four law scans
# that the report and the gates read; a run keeps them (core.ANALYSES).
READ_ANALYSES = {"axioms", "monotone", "m_distributive", "associative", "commutative",
                 "classify", "spectrum", "prime_mask", "primes"}


def test_verify_all_keeps_what_the_lattice_held_before_the_run():
    L = chain(4, "meet")
    sentinel = object()
    L._cache["sentinel"] = sentinel
    held = L._cache
    assert verify_all(L).failed == 0
    assert L._cache["sentinel"] is sentinel
    assert L._cache is not held         # a new dict: the run's table is freed
    assert core.KEPT_KEYS == READ_ANALYSES


@pytest.mark.parametrize("corpus", ["zn36", "random5_mdist_s7", "exhaustive3+named"])
def test_verify_all_keeps_only_prior_entries_and_read_analyses(corpus):
    lattices = (corpus_exhaustive_tables(3) + corpus_named() if corpus == "exhaustive3+named"
                else [next(M for M in corpus_named() if M.name == corpus)])
    for L in lattices[::7]:
        sys_mod.m_system_masks(L)       # an entry no run keeps of its own
    before = [set(L._cache) for L in lattices]
    assert verify_all(lattices).failed == 0
    for L, keys in zip(lattices, before):
        assert keys <= L._cache.keys() <= keys | READ_ANALYSES, L.name
        assert {"axioms", *core.LAWS, "spectrum"} <= L._cache.keys(), L.name


def test_a_run_keeps_a_registered_analysis_exactly_when_the_registry_says(monkeypatch):
    # Each lattice-owned analysis in core.ANALYSES is on a corpus lattice
    # after a run exactly when it was there before, or the run built it and
    # core.KEPT_KEYS holds it; the builds are recorded through the registry,
    # the one place a build is swapped, and each is built on an owner of its
    # kind.
    lattices = corpus_exhaustive_tables(3) + corpus_named()
    for L in lattices[::7]:
        sys_mod.m_system_masks(L)       # an entry no run keeps of its own
    before = [set(L._cache) for L in lattices]
    owned = set(core.ANALYSES) - ORDER_ANALYSES
    built, kinds = set(), set()

    def recording(key, build):
        def wrapper(owner, *params):
            built.add((id(owner), key))
            kinds.add((key, type(owner)))
            return build(owner, *params)
        return wrapper

    for key, build in list(core.ANALYSES.items()):
        monkeypatch.setitem(core.ANALYSES, key, recording(key, build))
    assert verify_all(lattices).failed == 0
    for L, keys in zip(lattices, before):
        for key in owned:
            kept = key in keys or key in core.KEPT_KEYS and (id(L), key) in built
            assert (key in L._cache or bool(cached(L, key))) == kept, (L.name, key)
    assert all((kind is core.OrderData) == (key in ORDER_ANALYSES) for key, kind in kinds)
    # the run built every lattice-owned analysis, kept and released alike;
    # one with parameters, or of an order, is never kept
    assert {key for _, key in built} >= owned
    assert owned & core.KEPT_KEYS and owned - core.KEPT_KEYS
    assert not core.KEPT_KEYS & (PARAMETRIC | ORDER_ANALYSES)


def _with_function(tree) -> list:
    """Each node of ``tree`` with the name of the innermost function around
    it ("" at module level)."""
    out, stack = [], [(tree, "")]
    while stack:
        node, fn = stack.pop()
        fn = node.name if isinstance(node, ast.FunctionDef) else fn
        out.append((node, fn))
        stack += [(child, fn) for child in ast.iter_child_nodes(node)]
    return out


def test_every_constant_memo_key_is_registered_once():
    # Every cached value is an analysis.  Its key, the four law scans'
    # included, is declared once, as the constant first argument of
    # core.analysis, whose table maps it to a plain build; a value reaches a
    # cache only in the one accessor body analysis returns.  Besides it, a
    # cache is only made (__init__) and filtered (releasing).  There is no
    # memo helper beside the registry.
    declared, names, stores, touches = [], set(), [], set()
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        for node, fn in _with_function(ast.parse(path.read_text(), str(path))):
            names.add(getattr(node, "id", getattr(node, "attr", None)))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "analysis":
                declared += [k.value for k in node.args[:1] if isinstance(k, ast.Constant)]
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) and (
                    getattr(node.value, "id", None) == "cache"
                    or getattr(node.value, "attr", None) == "_cache"):
                stores.append((path.name, fn, ast.unparse(node)))
            elif isinstance(node, ast.Attribute) and node.attr == "_cache":
                touches.add((path.name, fn))
    assert len(declared) == len(set(declared)) and set(declared) == set(core.ANALYSES)
    assert all(type(build) is types.FunctionType for build in core.ANALYSES.values())
    assert set(core.LAWS) <= core.KEPT_KEYS
    assert stores == [("core.py", "accessor", "cache[k]")]
    assert touches == {("core.py", fn) for fn in ("__init__", "accessor", "releasing")}
    assert "memo" not in names and not hasattr(core, "memo")


def test_each_parametric_analysis_is_built_once_per_owner_and_parameters(monkeypatch):
    # Over a run of the named corpus each analysis with parameters is built
    # once per owner and parameters, and core.releasing leaves none of the
    # lattice-owned ones on a corpus lattice.  ``builds`` holds every owner,
    # so no id is reused.
    assert PARAMETRIC == {"interval", "upper_hyperabelian", "interval_order",
                          "product_order", "product_names", "order_laws",
                          "quotient_map", "projections", "adjoint"}
    builds = []

    def recording(key, build):
        return lambda owner, *params: (
            builds.append((key, owner, params)) or build(owner, *params))

    for key in PARAMETRIC:
        monkeypatch.setitem(core.ANALYSES, key, recording(key, core.ANALYSES[key]))
    lattices = corpus_named()
    assert verify_all(lattices).failed == 0
    seen = [(key, id(owner), params) for key, owner, params in builds]
    assert len(seen) == len(set(seen))
    assert {key for key, _, _ in builds} == PARAMETRIC
    on_corpus = {key for key, owner, _ in builds if any(owner is L for L in lattices)}
    assert on_corpus == PARAMETRIC - ORDER_ANALYSES
    on_orders = {key for key, owner, _ in builds if isinstance(owner, core.OrderData)}
    assert on_orders == PARAMETRIC & ORDER_ANALYSES
    for L in lattices:
        assert [key for key in PARAMETRIC if cached(L, key)] == [], L.name
        assert cached(L.order, "interval_order"), L.name


def test_a_gate_read_after_a_run_scans_no_law(monkeypatch):
    # A run keeps the four law scans beside the report, so every gate and
    # the report read afterwards find each law in the cache; the counting
    # wrapper sees the scans of a fresh lattice.
    lattices = corpus_exhaustive_tables(3) + corpus_named()
    assert verify_all(lattices).failed == 0
    scans = []
    for law in core.LAWS:
        monkeypatch.setitem(core.ANALYSES, law, lambda M, law=law, real=core.ANALYSES[law]: (
            scans.append((M.name, law)) or real(M)))
    for L in lattices:
        for statement in HYPOTHESES:
            core.gap(L, statement)
        check_axioms(L)
    assert scans == []
    fresh = chain(4, "meet")
    check_axioms(fresh)
    assert sorted(scans) == sorted(("chain4_meet", law) for law in core.LAWS)


def test_a_second_run_reports_the_same_bytes():
    lattices = corpus_named()
    first = report_to_json(verify_all(lattices))
    assert report_to_json(verify_all(lattices)) == first


@pytest.mark.parametrize("name", ["zn36", "random5_mdist_s7"])
def test_verify_all_reads_derived_lattices_on_their_prime_masks(name, monkeypatch):
    # A run builds a spectrum report for L alone, and flag tables for L and
    # the upper intervals [x, top] that hyperabelian_report reads; every
    # product and [bottom, n] interval is read on its prime mask.  P(S) is
    # computed only for the saturated m-systems the maps invert.
    L = next(M for M in corpus_named() if M.name == name)
    assert check_axioms(L).m_distributive
    for partner in verify.PRODUCT_PARTNERS:     # factors kept for the process
        spectrum_module.spectrum(partner)
    spectra, classified, avoided, products, intervals = [], [], [], [], []

    def record(log, fn):
        return lambda *args: log.append(args) or fn(*args)

    def built(log, fn):
        def wrapper(*args):
            out = fn(*args)
            log.append((out.lattice, args))
            return out
        return wrapper

    for key, log in (("spectrum", spectra), ("classify", classified)):
        monkeypatch.setitem(core.ANALYSES, key, record(log, core.ANALYSES[key]))
    monkeypatch.setattr(sys_mod, "_avoiding", record(avoided, sys_mod._avoiding))
    monkeypatch.setattr(cons, "product", built(products, cons.product))
    monkeypatch.setitem(core.ANALYSES, "interval", built(intervals, core.ANALYSES["interval"]))
    assert verify_all(L).failed == 0
    assert [M for M, in spectra] == [L]
    assert products and not any(M is P for (M,) in classified for P, _ in products)
    upper = [M for M, (_, x, y) in intervals if y == L.top]
    assert any(x == L.bottom and y != L.top for _, (_, x, y) in intervals)
    assert all(M is L or any(M is U for U in upper) for (M,) in classified)
    saturated = set(sys_mod._saturated_masks(L))
    assert avoided and all(M is L and s in saturated for M, s in avoided)


def test_pip_row_builds_no_family_report(monkeypatch):
    # On a lattice that passes, the families suite decides the principle by
    # one closure per non-prime below top and schema: it builds no report
    # and runs no per-family check.
    calls = []
    closure = families._closure
    monkeypatch.setattr(families, "_closure", lambda L, schema, start, m: (
        calls.append((m, schema)) or closure(L, schema, start, m)))

    def refused(*args):
        raise AssertionError("the families suite built a report or checked a family")

    for name in ("_pip", "classify_family", "pip_check", "FamilyReport", "PipReport"):
        monkeypatch.setattr(families, name, refused)
    L = chain(6, "zero")
    assert verify_all(L, ("families",)).failed == 0
    assert calls == [(m, s) for m in range(5) for s in ("oka", "ako")]


def test_sigma_row_reports_a_failed_avoiding_set_against_its_system(monkeypatch):
    # The sigma legs run once per saturated m-system, so a fault on an
    # avoiding set is reported against the saturated system that gives it.
    # Here an Ako test fails on the family {3, 4, 5}.
    ako = families._ako_witness
    monkeypatch.setattr(families, "_ako_witness", lambda L, fmask, gens: (
        (0, 0, 0) if fmask == 0b111000 else ako(L, fmask, gens)))
    rep = verify_all(chain(6, "meet"), ("families",))
    assert [(r.check, r.detail) for r in rep.results if not r.passed] == [
        ("families.sigma_maximal_prime",
         "TheoremViolation: complement of the avoiding set must be Ako on an "
         "m-distributive lattice (witness (3, 4, 5))")]


def test_sigma_legs_run_once_per_avoiding_set(monkeypatch):
    # chain(12, "meet") has 4,095 m-systems and 12 distinct avoiding sets,
    # one per saturated m-system, which is all the row reads.
    calls = []
    ako = families._ako_witness

    def counted(L, fmask, gens):
        calls.append(sys._getframe(1).f_code.co_name)
        return ako(L, fmask, gens)

    monkeypatch.setattr(families, "_ako_witness", counted)
    L = chain(12, "meet")
    assert len(sys_mod.m_system_masks(L)) == 4095
    assert verify_all(L, ("families",)).failed == 0
    assert calls.count("sigma_of_mask") == 12


def test_the_powerset_limit_is_no_option():
    # The limit is chosen from the lattice's size, never by a caller.
    for info in pkgutil.iter_modules(multlattice.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"multlattice.{info.name}")
        for fn_name, fn in vars(module).items():
            if inspect.isfunction(fn):
                assert "max_enum" not in inspect.signature(fn).parameters, \
                    f"{info.name}.{fn_name}"
    for suite in SUITES.values():
        assert len(inspect.signature(suite).parameters) == 1, suite.__name__
    with pytest.raises(SystemExit) as exc:
        main(["--max-enum", "13", "check", "systems", "gen:chain:3:zero"])
    assert exc.value.code == 2


def test_lattice_facts_are_no_parameters():
    # The generating set and the prime set are read from the lattice, and
    # the m-systems have one list, systems.m_system_masks.
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(families.classify_family) == params(families.pip_check) == ["L", "F"]
    assert params(v_set) == ["L", "x"]
    assert not hasattr(sys_mod, "m_systems")


def test_report_writer_matches_the_generic_encoder():
    # report_to_json writes the report schema by hand; the stdlib's indented
    # encoder, kept as test_json_reference's reference, is the generic path
    # and must give the same bytes, escapes included.
    odd = 'q"b\\s\nt\tc\x01 ⊥ é \U0001d400'
    hand = VerifyReport(tuple(
        CheckResult(f"L{odd}{i}", f"check.{odd}", passed, skipped, f"detail {odd}")
        for i, (passed, skipped) in enumerate(itertools.product((True, False), repeat=2))),
        4, 2, 2)
    # The writer shares a row's pieces: one (check, detail) head across
    # lattices, and two details of one check on one lattice kept apart.
    shared = VerifyReport(tuple(
        CheckResult(lattice, "spectrum.v_identities", True, skipped, detail)
        for lattice in ("a", "b", odd)
        for skipped, detail in ((True, "needs m-distributive"), (False, ""),
                                (True, f"needs {odd}"))), 9, 0, 6)
    one = VerifyReport((CheckResult("L", "axioms.bounds", False, False, odd),), 1, 1, 0)
    for report in (verify_all(corpus_named()), hand, shared, one,
                   VerifyReport((), 0, 0, 0)):
        assert report_to_json(report) == reference_to_json(report)
    assert "\\ud835\\udc00" in report_to_json(hand)


def test_check_rows_are_slotted_and_serialize_as_before():
    row = CheckResult("chain3", "spectrum.v_identities", True, True, "needs m-distributive")
    assert not hasattr(row, "__dict__")
    assert to_json(row) == (
        '{\n  "check": "spectrum.v_identities",\n  "detail": "needs m-distributive",\n'
        '  "kind": "CheckResult",\n  "lattice": "chain3",\n  "passed": true,\n'
        '  "schema_version": 1,\n  "skipped": true\n}\n')
    failed = dataclasses.replace(row, passed=False, skipped=False, detail="boom")
    assert failed == CheckResult("chain3", "spectrum.v_identities", False, False, "boom")
    assert row.passed and row.skipped and row.detail == "needs m-distributive"


def test_report_writer_peak_memory_is_near_its_output():
    # The report text is one join of shared pieces, so writing it holds little
    # beyond the text itself; a string per row and a second copy for the
    # frame put the peak at two to three times the output's length.
    rows = tuple(CheckResult(f"L{i:04d}", f"suite.check{j:02d}", j % 7 != 3, j % 3 == 0,
                             f"needs hypothesis {j % 5}" if j % 3 == 0 else "")
                 for i in range(600) for j in range(34))
    report = VerifyReport(rows, len(rows), sum(not r.passed for r in rows),
                          sum(r.skipped for r in rows))
    tracemalloc.start()
    try:
        text = report_to_json(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 20_400
    assert peak < 1.5 * len(text)


def test_chain_row_fails_on_a_flipped_hyperabelian_report(monkeypatch):
    # The report on the zero 3-chain flipped, with a witness against every
    # condition and its chain dropped: the row searches for a squaring chain
    # on its own, so it finds one, refuses the report's "not hyperabelian"
    # and names the report's blocker.
    real = core.ANALYSES["hyperabelian"]

    def flipped(M):
        rep = real(M)
        return dataclasses.replace(
            rep, hyperabelian=not rep.hyperabelian, chain=None,
            witnesses=dict.fromkeys("abcdef", M.bottom))

    monkeypatch.setitem(core.ANALYSES, "hyperabelian", flipped)
    assert _failures(chain(3, "zero"), "hyper") == {
        "hyper.chain_crosscheck": "TheoremViolation: hyperabelian iff a "
                                  "squaring chain exists fails (witness 0)"}


def test_chain_row_names_what_it_reached_against_a_hyperabelian_report(monkeypatch):
    # The report on the meet 3-chain flipped to hyperabelian: the row's own
    # search reaches only the bottom, since a*a = a, and names that set.
    real = core.ANALYSES["hyperabelian"]
    monkeypatch.setitem(core.ANALYSES, "hyperabelian", lambda M: dataclasses.replace(
        real(M), hyperabelian=True, chain=(0, 1, 2), witnesses={}))
    assert _failures(chain(3, "meet"), "hyper") == {
        "hyper.chain_crosscheck": "TheoremViolation: hyperabelian iff a "
                                  "squaring chain exists fails (witness (0,))"}


def test_correspondence_fails_on_transposed_subbasis_closures(monkeypatch):
    # Transposing both subbasis topologies alike keeps the homeomorphism
    # check passing; the Vietoris closures, read from inclusion, do not.
    real = FiniteTopology.from_subbasis.__func__

    def transposed(cls, points, subbasis):
        T = real(cls, points, subbasis)
        return cls(T.points, {p: frozenset(q for q in T.points if p in T.closures[q])
                              for p in T.points})

    monkeypatch.setattr(FiniteTopology, "from_subbasis", classmethod(transposed))
    failed = [r for r in verify_all(corpus_named(), ("systems",)).results if not r.passed]
    assert failed and {r.check for r in failed} == {"systems.correspondence"}
    assert all(r.detail.startswith("TheoremViolation: a Vietoris point closure is "
                                   "not the sets above the point") for r in failed)


# The report classes of the construction and family checks, by module.
CHECK_REPORTS = {cons: ("ClosedSubspaceReport", "ProductSpecReport", "DisjointnessReport",
                        "SpecMapReport", "OpenSubspaceReport"),
                 families: ("SigmaReport",)}


def test_check_report_flags_take_both_values(monkeypatch, named_corpus):
    """A checking function raises on what it refutes, so a flag it returns
    must be able to read False.  Each bool field of the construction and
    family reports takes both values over the named corpus and the
    exhaustive tables of at most 4 elements.  ``PipReport``, which has no
    bool field and which the families suite no longer builds, is covered in
    ``test_families``."""
    made = {}
    for module, names in CHECK_REPORTS.items():
        for name in names:
            cls, reports = getattr(module, name), []
            made[cls] = reports
            monkeypatch.setattr(module, name,
                                lambda *a, cls=cls, out=reports: out.append(cls(*a)) or out[-1])
    rep = verify_all(list(named_corpus) + corpus_exhaustive_tables(4),
                     suites=("constructions", "families"))
    assert rep.failed == 0 and all(made.values())
    flags = {(cls.__name__, f.name): {getattr(r, f.name) for r in reports}
             for cls, reports in made.items()
             for f in dataclasses.fields(cls) if "bool" in f.type}
    assert flags == {("ClosedSubspaceReport", "l_is_prime"): {False, True},
                     ("DisjointnessReport", "v1_v2_disjoint"): {False, True},
                     ("DisjointnessReport", "cover"): {False, True}}


def test_join_irreducible_generators_give_the_same_rows(named_corpus):
    """Every corpus lattice is generated by all its elements.  The named
    corpus and the monotone exhaustive tables, validated again with their
    join-irreducibles (one lower cover each) as generators, give every
    verify row the status and detail they give with all elements."""
    lattices = list(named_corpus) + [L for L in corpus_exhaustive_tables(4)
                                     if check_axioms(L).monotone]
    proper = []
    for L in lattices:
        lower = [0] * L.size
        for _, b in L.covers():
            lower[b] += 1
        gens = frozenset(x for x in L.elements if lower[x] == 1)
        proper.append(validate(order=L.order, mult=L.mult_table, generators=gens,
                               labels=L.labels, name=L.name))
        assert len(gens) < L.size

    def rows(corpus):
        return [(r.lattice, r.check, r.passed, r.skipped, r.detail)
                for r in verify_all(corpus).results]

    full = rows(lattices)
    assert len(lattices) == 251 and len(full) > 8000
    assert rows(proper) == full


@pytest.fixture(scope="module")
def invariance_slice():
    """The named corpus, every 7th exhaustive table of at most 4 elements and
    every 4th of 200 random tables: 616 lattices."""
    lattices = (corpus_named() + corpus_exhaustive_tables(4)[::7]
                + corpus_random_tables(200, 1729)[::4])
    assert len(lattices) == 616
    return lattices


def _rows(lattices):
    return [(r.lattice, r.check, r.passed, r.skipped, r.detail)
            for r in verify_all(lattices).results]


def _relabelled(L, rng):
    """``L`` with element i moved to index pi(i) for a seeded permutation
    pi; each element keeps its label, and the lattice keeps its name."""
    pi = list(L.elements)
    rng.shuffle(pi)
    relation = [[False] * L.size for _ in L.elements]
    mult = [[0] * L.size for _ in L.elements]
    labels = [""] * L.size
    for a in L.elements:
        labels[pi[a]] = L.labels[a]
        for b in L.elements:
            relation[pi[a]][pi[b]] = L.relation[a][b]
            mult[pi[a]][pi[b]] = pi[L.mult_table[a][b]]
    return validate(relation=relation, mult=mult, labels=labels, name=L.name,
                    generators=[pi[g] for g in L.generators])


def test_rows_do_not_depend_on_the_element_indices(invariance_slice):
    rng = random.Random(1729)
    moved = [_relabelled(L, rng) for L in invariance_slice]
    assert any(M.relation != L.relation for L, M in zip(invariance_slice, moved))
    assert _rows(moved) == _rows(invariance_slice)


def test_rows_do_not_change_when_the_table_is_transposed(invariance_slice):
    # xy |-> yx swaps left and right, and every row reads both sides alike
    transposed = [replace_mult(L, [list(col) for col in zip(*L.mult_table)], name=L.name)
                  for L in invariance_slice]
    assert any(not check_axioms(L).commutative for L in invariance_slice)
    assert _rows(transposed) == _rows(invariance_slice)
