"""Benchmark for the multlattice package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``sweep``, ``mdist5``, ``large``, ``query``.
The benchmark imports the package from ``src/`` of the same checkout, makes
its inputs from ``--seed``, runs rounds of the workload's corpus as a closed
loop with one client, as many as take about ``--seconds`` at the workload's
nominal round time (a count fixed by the arguments, so that two runs with the
same arguments do the same ops), checks every verdict against
known answers and recorded report digests, and prints one JSON object as the
last line of standard output.

With ``--trace 0`` that line holds the end-to-end metrics, every time in
them scaled to the reference speed (see ``REFERENCE_MS``).  With
``--trace 1`` it holds the per-layer metrics: one untraced round, then one
round with spans recorded around the calls into each module; the spans are
written under ``.bench_build/perfbench/``.  The package is driven only
through its public functions, and nothing is timed inside it.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

import mdist

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = Path(".bench_build") / "perfbench"     # relative to ROOT
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 5
# The shared machine changes speed by up to 1.65x in spells of minutes, more
# than a run lasts, so every time in the end-to-end metrics is scaled to the
# speed at which the reference task takes REFERENCE_MS.  The task is timed
# before and after every set-up batch, and between ops whenever
# REFERENCE_INTERVAL_S has passed since it was last timed.
REFERENCE_MS = 5.5
REFERENCE_INTERVAL_S = 0.25
# per-layer metrics measured by the run itself rather than by the tracer
TRACE_RUN_METRICS = ("verify.checks_run_ratio", "trace.wall_s", "trace.overhead_ratio")


def use_checkout_source():
    """Import ``multlattice`` from this checkout's ``src/`` and nowhere else."""
    package = ROOT / "src" / "multlattice"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no multlattice package at {package}")
    sys.path.insert(0, str(package.parent))
    import multlattice
    if Path(multlattice.__file__).resolve().parent != package.resolve():
        raise ImportError(f"multlattice was imported from {multlattice.__file__}")


def reference_s() -> float:
    """Seconds for one run of the reference task, with the collector off: the
    benchmark's own enumeration of the 144 m-distributive tables of 1+B2.  It
    is pure Python and uses nothing of the package, so only the speed of the
    machine moves it."""
    gc.disable()
    try:
        t0 = perf_counter()
        mdist.m_distributive_tables(mdist.SHAPES["1+B2"])
        return perf_counter() - t0
    finally:
        gc.enable()


def to_reference_speed(reference_times) -> float:
    """The factor that turns times taken next to ``reference_times`` into
    times at the reference speed."""
    return REFERENCE_MS / 1e3 / statistics.median(reference_times)


@contextlib.contextmanager
def untraced(tracer):
    """Checks and bookkeeping run with span recording paused."""
    if tracer is None:
        yield
        return
    tracer.enabled = False
    try:
        yield
    finally:
        tracer.enabled = True


class Tally:
    """What the timed rounds did: per-op times, CPU and verdicts.

    ``records`` holds one list per round of [wall s, CPU s, succeeded,
    latency ms] for each op; wall and CPU include the op's share of the
    round's report, latency does not.  ``references`` holds (ops done,
    reference task s) for each timing of the reference task.
    """

    def __init__(self):
        self.records = []
        self.references = []
        self.timed_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.refused = []
        self.digests = []
        self.checked = 0
        self.skipped = 0

    @property
    def rounds(self):
        return len(self.records)

    def ops_per_s(self):
        return (self.attempted - self.failed) / self.timed_s

    def speed_factors(self):
        """For each op, the factor to the reference speed from the five
        reference timings nearest to it."""
        done = [d for d, _ in self.references]
        factors = []
        for op in range(self.attempted):
            at = bisect.bisect(done, op)
            near = self.references[max(0, at - 3):at + 2]
            factors.append(to_reference_speed([s for _, s in near]))
        return factors


def rounds_for(wl, seconds) -> int:
    """Whole rounds in a run: as many as take about ``seconds`` at the
    workload's nominal round time, and at least one.  The count does not
    depend on how fast the machine is, so neither do ``attempted`` and
    ``failed``."""
    return max(1, round(seconds / wl.ROUND_S))


def warm_up(wl, items):
    """Run the first ``wl.WARMUP_OPS`` ops untimed and unchecked, so that the
    timed rounds do not pay for first calls."""
    for item in items[:wl.WARMUP_OPS]:
        with contextlib.suppress(Exception):    # the timed rounds report it
            wl.op(item)
    reference_s()
    gc.collect()


def run_rounds(wl, items, rounds, *, tracer=None, after_round=None) -> Tally:
    """Run ``rounds`` whole rounds, calling ``after_round`` after each.  Only
    the ops and each round's report are timed."""
    tally = Tally()
    next_reference = 0.0
    while tally.rounds < rounds:
        values = []
        rows = []
        for item in items:
            if perf_counter() >= next_reference:
                tally.references.append((tally.attempted, reference_s()))
                next_reference = perf_counter() + REFERENCE_INTERVAL_S
            if tracer is not None:
                tracer.op_id = tally.attempted
            c0, w0 = process_time(), perf_counter()
            try:
                value, crash = wl.op(item), None
            except Exception as exc:    # recorded against the op; the run goes on
                value, crash = None, exc
            w1, c1 = perf_counter(), process_time()
            tally.attempted += 1
            values.append(value)
            if crash is not None:
                wrong = f"op {tally.attempted - 1} raised {type(crash).__name__}: {crash}"
                refused = None
            else:
                with untraced(tracer):
                    outcome = wl.check(item, value)
                wrong, refused = outcome.wrong, outcome.refused
            if wrong:
                tally.wrong.append(wrong)
            elif refused:
                tally.refused.append(refused)
            ok = not (wrong or refused)
            tally.failed += not ok
            rows.append([w1 - w0, c1 - c0, ok, (w1 - w0) * 1e3])
        if tracer is not None:
            tracer.op_id = -1 - tally.rounds
        c0, w0 = process_time(), perf_counter()
        text = wl.round_end(values)
        w1, c1 = perf_counter(), process_time()
        for row in rows:
            row[0] += (w1 - w0) / len(rows)
            row[1] += (c1 - c0) / len(rows)
        tally.records.append(rows)
        tally.timed_s += sum(row[0] for row in rows)
        with untraced(tracer):
            tally.digests.append(wl.digest(items, values, text))
            checked, skipped = wl.check_counts(items, values)
        del values, text    # a sweep report holds hundreds of MB
        tally.checked += checked
        tally.skipped += skipped
        if after_round is not None:
            after_round()
    return tally


def end_to_end(tally, setup_times) -> dict:
    """The end-to-end metrics, with every time at the reference speed;
    ``setup_times`` are at the reference speed already."""
    rows = [row for rows in tally.records for row in rows]
    factors = tally.speed_factors()
    q = statistics.quantiles([r[3] * f for r, f in zip(rows, factors)],
                             n=100, method="inclusive")
    timed_s = sum(r[0] * f for r, f in zip(rows, factors))
    cpu_s = sum(r[1] * f for r, f in zip(rows, factors))
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": ((tally.attempted - tally.failed) / timed_s, "1/s"),
        "latency_ms.p50": (q[49], "ms"),
        "latency_ms.p99": (q[98], "ms"),
        "cpu_ms_per_op": (cpu_s * 1e3 / tally.attempted, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def digest_problems(workload, seed, tallies) -> list:
    digests = [d for t in tallies for d in t.digests]
    problems = []
    if len(set(digests)) > 1:
        problems.append(f"rounds of the same inputs gave different reports: {digests}")
    table = json.loads(DIGESTS.read_text()).get(workload, {})
    recorded = table.get(str(seed), table.get("*"))
    if recorded is not None and digests[0] != recorded:
        problems.append(f"report digest {digests[0]} differs from the digest "
                        f"recorded for seed {seed}: {recorded}")
    return problems


def measure(workload, seed, seconds, trace):
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]()
    rounds = rounds_for(wl, seconds)
    setup_times = []

    def set_up():
        """Time a batch of set-ups; one batch runs before the first round and
        one after every round, so that their median spans the run as the
        other metrics do."""
        before = [reference_s() for _ in range(3)]
        times = []
        for _ in range(-(-SETUP_REPEATS // (rounds + 1))):
            gc.collect()
            t0 = perf_counter()
            made = wl.setup(seed, WORKDIR / workload)
            times.append(perf_counter() - t0)
        factor = to_reference_speed(before + [reference_s() for _ in range(3)])
        setup_times.extend(t * factor for t in times)
        return made

    items, problems = set_up()
    warm_up(wl, items)

    if not trace:
        tally = run_rounds(wl, items, rounds, after_round=set_up)
        metrics = end_to_end(tally, setup_times)
        tallies = [tally]
    else:
        from tracing import Tracer

        untraced_round = run_rounds(wl, items, 1)
        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
        try:
            tally = run_rounds(wl, items, 1, tracer=tracer)
        finally:
            tracer.enabled = False
            tracer.uninstall()
        metrics = tracer.metrics()
        metrics.update(zip(TRACE_RUN_METRICS, (
            ((tally.checked - tally.skipped) / tally.checked if tally.checked else 0.0,
             "ratio"),
            (tally.timed_s, "s"),
            (tally.ops_per_s() / untraced_round.ops_per_s(), "ratio"))))
        WORKDIR.mkdir(parents=True, exist_ok=True)
        tracer.write(WORKDIR / f"trace-{workload}-seed{seed}")
        tallies = [untraced_round, tally]

    problems = problems + digest_problems(workload, seed, tallies)
    for t in tallies:
        problems += t.wrong
    return tally, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "mdist5", "large", "query"))
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    try:
        use_checkout_source()
    except ImportError as exc:
        print(f"perfbench: cannot load the package: {exc}", file=sys.stderr)
        return 2
    tally, metrics, problems = measure(args.workload, args.seed, args.seconds,
                                       bool(args.trace))

    for line in problems[:10]:
        print(f"WRONG {line}", file=sys.stderr)
    for line in tally.refused[:5]:
        print(f"REFUSED {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{tally.rounds} round(s), {tally.attempted} ops, {tally.failed} failed "
          f"(fail_rate {tally.failed / tally.attempted:.4f}: "
          f"{len(tally.refused)} refused, {len(tally.wrong)} wrong), "
          f"{len(problems)} problem(s)")
    print(f"  as measured: {tally.ops_per_s()} ops/s, reference task "
          f"{statistics.median(s for _, s in tally.references) * 1e3} ms "
          f"(end-to-end times are scaled to {REFERENCE_MS} ms)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
