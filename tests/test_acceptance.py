"""Acceptance suite.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
inline).  Criterion 2/3/5 share one sweep over the exhaustive small-table
corpus plus the seeded random sample; tolerances are exact set equalities
throughout.
"""

import ast
import hashlib
import importlib.util
import json
import re
import time
from pathlib import Path

import pytest

from multlattice import verify
from multlattice.core import HYPOTHESES, LAWS, check_axioms
from multlattice.families import residual_left
from multlattice.ingest import (chain, export_text, parse, powerset_lattice, to_json,
                               zn_ideals)
from multlattice.spectrum import spectrum
from multlattice.constructions import interval, open_subspace_homeo
from multlattice.verify import (VerifyReport, corpus_exhaustive_tables,
                                corpus_named, corpus_random_tables,
                                report_to_json, verify_all)

from conftest import corpus_hundred

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).parent.parent


def announce(n, ok, detail):
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# --------------------------------------------------------------------------
# Criteria 2, 3, 5 share one sweep


@pytest.fixture(scope="module")
def sweep():
    corpus = corpus_exhaustive_tables(4) + corpus_random_tables(1000)
    results = []
    mdist = {}
    start = time.time()
    for L in corpus:
        rep = verify_all([L])
        results.extend(rep.results)
        mdist[L.name] = check_axioms(L).m_distributive
        L._cache.clear()
    elapsed = time.time() - start
    return {"size": len(corpus), "results": results, "mdist": mdist,
            "elapsed": elapsed}


def test_criterion_1_five_multiplications_chain_suite():
    start = time.time()
    for k in range(2, 7):
        meets = chain(k, "meet")
        assert spectrum(meets).primes == frozenset(range(k - 1)), \
            f"chain({k}, meet): every element but top must be prime"
        zeros = chain(k, "zero")
        assert spectrum(zeros).primes == frozenset(), \
            f"chain({k}, zero): the spectrum must be empty"
    elapsed = time.time() - start
    announce(1, elapsed < 1.0,
             f"chain suite k=2..6 exact in {elapsed:.3f}s (< 1s)")


SWEEP_CHECKS = (
    "spectrum.prime_iff_meet_irred_semiprime",   # meet-irreducible lemma
    "systems.prime_iff_msystem",                 # m-system and n-system lemmas
    "spectrum.maximal_prime_criterion",          # maximal prime iff 1*1 !<= m
    "hyper.six_conditions",                      # (a)-(f) all agree
    "hyper.chain_crosscheck",                    # (c) by its own chain search
    "families.pip_exhaustive",                   # prime ideal principle, 4 cases
    "families.sigma_maximal_prime",              # avoiding-set statements (1)-(3)
    "constructions.closed_subspace",             # Spec([l,1]) = V(l)
    "constructions.product_spectrum",            # product spectra split clopen
    "constructions.disjointness",                # disjoint/cover criteria
    "constructions.annihilator_lying_prime",     # annihilator equality lemma
    "constructions.lying_over",                  # unique lift of interval primes
    "constructions.open_subspace_homeo",         # D(n) = Spec([0,n])
)


def test_criterion_2_exhaustive_theorem_sweep(sweep):
    failures = [r for r in sweep["results"] if not r.passed]
    # every hypothesis-gated statement too, so none is skipped everywhere
    ran = dict.fromkeys((*SWEEP_CHECKS, *HYPOTHESES), 0)
    for r in sweep["results"]:
        if r.check in ran and not r.skipped:
            ran[r.check] += 1
    missing = [c for c, k in ran.items() if k == 0]
    ok = not failures and not missing and sweep["elapsed"] < 300
    announce(2, ok,
             f"{sweep['size']} instances, {len(sweep['results'])} checks, "
             f"{len(failures)} violations, every listed statement exercised, "
             f"{sweep['elapsed']:.1f}s (< 300s)")


def test_criterion_3_correspondence_suite(sweep):
    ran = {}
    for r in sweep["results"]:
        if r.check == "systems.correspondence":
            ran[r.lattice] = r
    bad = [name for name, want in sweep["mdist"].items()
           if want and (name not in ran or ran[name].skipped or not ran[name].passed)]
    covered = sum(1 for name, want in sweep["mdist"].items() if want)
    announce(3, not bad,
             f"inverse bijections, fixed-point identity and homeomorphism "
             f"verified on all {covered} m-distributive instances")


def test_criterion_4_zn12_golden_fixture():
    expected = json.loads((DATA / "zn12_expected.json").read_text())
    L = zn_ideals(expected["modulus"])
    rep = spectrum(L)
    got_primes = sorted(L.labels[p] for p in rep.primes)
    got_radical = L.labels[rep.semiprime_radical]
    i4, i2 = L.labels.index("(4)"), L.labels.index("(2)")
    got_residual = L.labels[residual_left(L, i4, i2)]
    oh = open_subspace_homeo(L, i2)
    got_d2 = sorted(L.labels[p] for p in oh.point_map)
    got_interval_spec = sorted(oh.interval.lattice.labels[q]
                               for q in spectrum(oh.interval.lattice).primes)
    got_map = {L.labels[p]: oh.interval.lattice.labels[q]
               for p, q in oh.point_map.items()}
    # the map takes each closure in D(2) onto the closure of its image
    iv_closures = spectrum(oh.interval.lattice).zariski.closures
    homeomorphism = all({oh.point_map[q] for q in c} == iv_closures[oh.point_map[p]]
                        for p, c in rep.zariski.subspace(oh.point_map).closures.items())
    ok = (got_primes == expected["primes"]
          and got_radical == expected["semiprime_radical"]
          and got_residual == expected["residual_4_colon_2"]
          and got_d2 == expected["d_of_2"]
          and got_interval_spec == expected["spec_of_interval_below_2"]
          and got_map == expected["open_subspace_map"]
          and homeomorphism)
    announce(4, ok, f"zn12 primes {got_primes}, radical {got_radical}, "
                    f"residual {got_residual}, homeomorphism {got_map}")


def test_criterion_5_sobriety_everywhere(sweep):
    sober_checks = [r for r in sweep["results"] if r.check == "spectrum.sober"]
    bad = [r.lattice for r in sober_checks if not r.passed or r.skipped]
    for L in corpus_named():
        if not spectrum(L).sober:
            bad.append(L.name)
    announce(5, not bad,
             f"sobriety verified on {len(sober_checks)} swept instances plus "
             f"the named corpus")


def test_criterion_6_determinism_and_round_trip():
    corpus_a = corpus_random_tables(50, seed=5)
    corpus_b = corpus_random_tables(50, seed=5)
    json_a = report_to_json(verify_all(corpus_a, suites=("spectrum", "hyper")))
    json_b = report_to_json(verify_all(corpus_b, suites=("spectrum", "hyper")))
    identical = json_a == json_b

    hundred = corpus_hundred()
    roundtrips = all(parse(export_text(L)) == L for L in hundred)
    single = to_json(spectrum(zn_ideals(12))) == to_json(spectrum(zn_ideals(12)))
    ok = identical and roundtrips and single and len(hundred) == 100
    announce(6, ok, "seeded reports byte-identical; parse(export) is the "
                    "identity on 100 corpus lattices")


def _digest(report) -> str:
    return hashlib.sha256(report_to_json(report).encode()).hexdigest()


def test_reports_match_recorded_digests(sweep):
    """The sweep's merged report and the named corpus report are
    byte-identical to the recorded ones."""
    expected = json.loads((DATA / "report_digests.json").read_text())
    results = sorted(sweep["results"], key=lambda r: (r.lattice, r.check))
    merged = VerifyReport(tuple(results), len(results),
                          sum(1 for r in results if not r.passed),
                          sum(1 for r in results if r.skipped))
    assert _digest(merged) == expected["sweep"]
    assert _digest(verify_all(corpus_named())) == expected["named"]


@pytest.fixture(scope="module")
def scaling_wall():
    """``verify_all`` of the two 64-element lattices above
    ``POWERSET_LIMIT``, each with its wall time in seconds."""
    out = {}
    for L in (powerset_lattice(6, "meet"), zn_ideals(30030)):
        start = time.perf_counter()
        out[L.name] = verify_all(L), time.perf_counter() - start
    return out


def test_large_reports_match_recorded_digests(scaling_wall):
    """Reports on 11- to 64-element lattices, where the m-system statements
    run over thousands of m-systems or over the saturated list above
    ``POWERSET_LIMIT``, are byte-identical to the recorded ones."""
    expected = json.loads((DATA / "large_report_digests.json").read_text())
    lattices = [chain(12, "meet"), chain(13, "meet"), zn_ideals(60),
                chain(11, "truncated_add"), powerset_lattice(4, "meet"), zn_ideals(420),
                powerset_lattice(5, "meet"), zn_ideals(2520)]
    got = {L.name: _digest(verify_all(L)) for L in lattices}
    got["bool6_meet"] = _digest(scaling_wall["bool6_meet"][0])
    assert got == {k: v for k, v in expected.items() if k != "comment"}


def test_lattices_above_the_cap_verify_within_the_bound(scaling_wall):
    """The saturated m-systems of a 64-element lattice are listed by
    closures, not by a walk over its up-sets (7,828,354 on ``bool6_meet``):
    each report has no failure and took under 60 s."""
    assert {name: (report.failed, seconds < 60)
            for name, (report, seconds) in scaling_wall.items()} == {
        "bool6_meet": (0, True), "zn30030": (0, True)}


def test_traced_names_resolve():
    """Every function named in the benchmark tracer's ``LAYERS`` table
    (imported from ``perfbench/tracing.py``, which is only read) still
    exists under that name in its ``multlattice`` module."""
    layers = _tracer_layers()
    missing = [f"{mod}.{fn}" for mod, fns in layers.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"multlattice.{mod}"),
                                       fn, None))]
    assert layers and not missing
    # The tracer patches the module names and the SUITES values by identity,
    # so each suite must be one object under both.
    assert all(getattr(verify, f"suite_{s}") is verify.SUITES[s] for s in verify.SUITES)
    assert {f"suite_{s}" for s in verify.SUITES} <= set(layers["verify"])


def test_every_theorem_violation_names_a_witness():
    """Every ``TheoremViolation(...)`` call in ``src/multlattice`` passes a
    ``witness=`` that is not the constant None, so every failed statement
    carries its counterexample."""
    sites, bare = 0, []
    for path in sorted((ROOT / "src" / "multlattice").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) == "TheoremViolation"):
                continue
            sites += 1
            witness = next((k.value for k in node.keywords if k.arg == "witness"), None)
            if witness is None or (isinstance(witness, ast.Constant) and witness.value is None):
                bare.append(f"{path.name}:{node.lineno}")
    assert sites > 0 and bare == []


def test_the_package_parses_at_its_python_floor():
    """Every module in ``src/multlattice`` parses with the grammar of the
    oldest Python that ``requires-python`` in ``pyproject.toml`` admits.
    This is the grammar alone: a call that only a newer runtime accepts, such
    as ``CodeType.replace(co_qualname=...)``, is not caught here."""
    floor = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text())
    version = tuple(map(int, floor.groups()))
    paths = sorted((ROOT / "src" / "multlattice").glob("*.py"))
    assert version >= (3, 0) and paths
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=version)


def test_no_module_writes_indented_json():
    """No ``json.dump`` or ``json.dumps`` call in ``src/multlattice`` passes
    ``indent=``: CPython encodes indented JSON in pure Python, so the CLI's
    JSON goes through ``ingest.to_json``'s writer instead."""
    sites, indented = 0, []
    for path in sorted((ROOT / "src" / "multlattice").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and getattr(
                    node.func, "attr", getattr(node.func, "id", None)) in ("dump", "dumps")):
                continue
            sites += 1
            if any(k.arg == "indent" for k in node.keywords):
                indented.append(f"{path.name}:{node.lineno}")
    assert sites > 0 and indented == []


def test_no_function_in_the_package_imports():
    """Every ``import`` in ``src/multlattice`` is at module level.  An import
    inside a function runs again on every call, and the functions that a
    verify run calls once per lattice are where calls add up."""
    inside = []
    for path in sorted((ROOT / "src" / "multlattice").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                inside += [f"{path.name}:{node.lineno} in {getattr(fn, 'name', 'lambda')}"
                           for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inside == []


def test_the_full_axiom_report_is_built_only_where_it_is_shown():
    """``check_axioms(`` is called in ``src/multlattice`` only by
    ``core.exhaustive_axioms``, the ``axioms.dist_implies_mono`` entry of
    ``verify.ROWS`` and ``cli``'s ``validate`` branch, which print or check
    the whole report.  Every other reader of one flag reads its own law scan
    (``core.law_witness``, ``gap`` or ``require``), so a flag is read one way."""
    def calls(node):
        return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Call)
                and getattr(n.func, "id", getattr(n.func, "attr", None)) == "check_axioms"]

    allowed, found = [], []
    for path in sorted((ROOT / "src" / "multlattice").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [(path.name, line) for line in calls(tree)]
        for node in ast.walk(tree):
            if path.name == "core.py" and isinstance(node, ast.FunctionDef) and (
                    node.name == "exhaustive_axioms"):
                allowed += [(path.name, line) for line in calls(node)]
            elif path.name == "verify.py" and isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "ROWS" for t in node.targets):
                allowed += [(path.name, line) for key, value in zip(node.value.keys,
                                                                    node.value.values)
                            if getattr(key, "value", None) == "axioms.dist_implies_mono"
                            for line in calls(value)]
            elif path.name == "cli.py" and isinstance(node, ast.If) and ast.unparse(
                    node.test) == "cmd == 'validate'":
                allowed += [(path.name, line) for stmt in node.body for line in calls(stmt)]
    assert len(allowed) == 3 and sorted(found) == sorted(allowed)


def test_a_law_is_scanned_at_one_site_and_condition_f_reads_no_cap():
    """Each of the four law scans ``core._<law>_witness`` is declared the kept
    analysis of its law, ``@analysis(law, kept=True)``, and is named in
    ``src/multlattice`` only in ``core._FLAG_SCANS``, the table that
    ``core.law_witness`` reads, so every read of a law goes through that
    one site; no f-string builds a scan's name.  Neither
    ``systems.first_m_system_without`` nor ``spectrum`` reads
    ``POWERSET_LIMIT``: condition (f) is one closure at every size."""
    scans = {f"_{law}_witness": law for law in LAWS}

    def names(node):
        return {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)} | {
            a.name for n in ast.walk(node) if isinstance(n, ast.ImportFrom) for a in n.names}

    named, table, declared, building, capped = [], [], {}, [], []
    for path in sorted((ROOT / "src" / "multlattice").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "_FLAG_SCANS" for t in node.targets):
                table += [(path.name, n.id) for n in ast.walk(node.value)
                          if isinstance(n, ast.Name) and n.id in scans]
            elif isinstance(node, ast.FunctionDef) and node.name in scans:
                declared[path.name, node.name] = [ast.unparse(d) for d in node.decorator_list]
            elif isinstance(node, ast.JoinedStr) and any(
                    str(getattr(v, "value", "")).endswith("_witness") for v in node.values):
                building.append((path.name, node.lineno))
            if isinstance(node, ast.FunctionDef) and path.name == "systems.py" and (
                    node.name == "first_m_system_without"):
                capped += ["first_m_system_without"] * ("POWERSET_LIMIT" in names(node))
        named += [(path.name, name) for n in ast.walk(tree)
                  for name in [getattr(n, "id", getattr(n, "attr", None))]
                  + [a.name for a in getattr(n, "names", ()) if isinstance(n, ast.ImportFrom)]
                  if name in scans]
        if path.name == "spectrum.py":
            capped += ["spectrum"] * ("POWERSET_LIMIT" in names(tree))
    # the table maps infinite m-distributivity to the m-distributivity scan too
    assert sorted(table) == sorted(named) == sorted(
        [("core.py", scan) for scan in scans] + [("core.py", "_m_distributive_witness")])
    assert declared == {("core.py", scan): [f"analysis({law!r}, kept=True)"]
                        for scan, law in scans.items()}
    assert building == [] and capped == []


def _tracer_layers() -> dict:
    """``LAYERS`` of ``perfbench/tracing.py``, loaded from the file (only read)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


def test_no_module_but_core_touches_a_cache():
    """No ``._cache`` read or write appears in ``src/multlattice`` outside
    ``core.py``: every analysis is declared there (``core.analysis``) and a
    run's release rule is ``core.releasing``."""
    touched = []
    for path in sorted((ROOT / "src" / "multlattice").glob("*.py")):
        if path.name != "core.py":
            touched += [f"{path.name}:{node.lineno}"
                        for node in ast.walk(ast.parse(path.read_text(), str(path)))
                        if isinstance(node, ast.Attribute) and node.attr == "_cache"]
    assert touched == []


def test_every_export_has_a_reader():
    """Every name ``multlattice/__init__.py`` exports is read somewhere in
    ``src/multlattice`` besides ``__init__`` (named, imported or taken as an
    attribute), or is a function the benchmark tracer names."""
    package = ROOT / "src" / "multlattice"
    exported = [a.name for node in ast.parse((package / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for a in node.names]
    read = {name for fns in _tracer_layers().values() for name in fns}
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                read.add(getattr(node, "id", getattr(node, "attr", None)))
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    read.update(a.name for a in node.names)
    assert exported and [name for name in exported if name not in read] == []


def test_large_round_matches_its_recorded_digest(monkeypatch):
    """One seed-1 round of the benchmark's ``large`` workload (from
    ``perfbench/workloads.py``, which is only read) passes every known-answer
    check, and its report has the digest recorded for it in
    ``perfbench/digests.json``.  ``large`` is the one benchmark input above
    ``core.POWERSET_LIMIT``, so this pins what the capped rows do there."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))     # for its ``import mdist``
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    wl = workloads.Large()
    items, problems = wl.setup(1, None)
    assert not problems and len(items) == 7
    values = [wl.op(item) for item in items]
    assert all(wl.check(item, value).wrong is None for item, value in zip(items, values))
    recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text())["large"]["*"]
    assert wl.digest(items, values, wl.round_end(values)) == recorded
