"""The four workloads: seeded inputs, one op, its known-answer checks, and the
report that closes a round.

Every workload is a closed loop with one client.  A round is the workload's
whole seeded corpus; the report for a round is deterministic, so its SHA-256
is compared with the digest recorded for the seed and with every other round
of the same run.  Library calls go through module attributes at call time, so
a tracer installed on those attributes sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import re
from pathlib import Path

# The package re-exports functions under some module names (``spectrum``,
# ``series``), so the modules are taken from the import system directly.
cli, core, ingest, spectrum, verify = (
    importlib.import_module(f"multlattice.{name}")
    for name in ("cli", "core", "ingest", "spectrum", "verify"))

import mdist


def omega(n: int) -> int:
    """Number of distinct prime factors of n, by trial division."""
    count, p = 0, 2
    while p * p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 1
    return count + (n > 1)


def known_spec_size(name: str):
    """|Spec| from the mathematics of the generator that made ``name``, or
    None when there is no closed form.

    A chain under meet has every element below top prime; under the zero
    product nothing is; under truncated addition only the coatom is.  The
    primes of Z/n are the ideals (p) for the primes p dividing n, and the
    primes of a powerset under intersection are the complements of points.
    The frame of opens of a finite T0 space has one prime per point, since
    finite T0 spaces are sober.
    """
    if m := re.fullmatch(r"chain(\d+)_(meet|zero|truncated_add)", name):
        n, mult = int(m[1]), m[2]
        return {"meet": n - 1, "zero": 0, "truncated_add": min(1, n - 1)}[mult]
    if m := re.fullmatch(r"zn(\d+)", name):
        return omega(int(m[1]))
    if m := re.fullmatch(r"bool(\d+)_(meet|zero)", name):
        return int(m[1]) if m[2] == "meet" else 0
    return {"opens_sierpinski": 2, "opens_vee": 3}.get(name)


def relabel(L, rng: random.Random):
    """An isomorphic copy of ``L`` whose element indices are permuted."""
    perm = list(L.elements)
    rng.shuffle(perm)
    n = L.size
    relation = [[False] * n for _ in range(n)]
    table = [[0] * n for _ in range(n)]
    labels = [""] * n
    for x in L.elements:
        labels[perm[x]] = L.labels[x]
        for y in L.elements:
            relation[perm[x]][perm[y]] = L.relation[x][y]
            table[perm[x]][perm[y]] = perm[L.mult_table[x][y]]
    return core.validate(size=n, relation=relation, mult=table,
                         generators=[perm[g] for g in L.generators],
                         labels=labels, name=L.name)


class Outcome:
    """What the checks made of an op's result."""
    __slots__ = ("refused", "wrong")

    def __init__(self, refused=None, wrong=None):
        self.refused = refused    # the program declined a valid input
        self.wrong = wrong        # an answer was wrong, or the op crashed


# --------------------------------------------------------------------------
# Verification workloads: an op is replace_mult plus verify_all([L])


class VerifyWorkload:
    """Items are (lattice, known |Spec| or None).  The op builds a fresh
    lattice with ``replace_mult``, so per-lattice caches start cold."""

    WARMUP_OPS = 50
    ROUND_S = 9.1      # a round's timed seconds at the reference speed

    def setup(self, seed: int, workdir: Path) -> tuple:
        """The round's items, and any problem found while making them."""
        raise NotImplementedError

    def op(self, item):
        base = item[0]
        L = core.replace_mult(base, base.mult_table, name=base.name)
        return L, verify.verify_all([L])

    def check(self, item, value) -> Outcome:
        L, report = value
        if report.failed:
            bad = next(r for r in report.results if not r.passed)
            return Outcome(wrong=f"{bad.lattice} {bad.check}: {bad.detail}")
        expected = item[1]
        if expected is not None:
            got = len(spectrum.spectrum(L).primes)
            if got != expected:
                return Outcome(wrong=f"{L.name}: |Spec| {got}, expected {expected}")
        return Outcome()

    def round_end(self, values) -> str:
        """Merge the per-lattice reports as ``verify_all`` does for a corpus
        and serialize the result, as ``mlat check all --corpus`` does."""
        results = [r for v in values if v is not None for r in v[1].results]
        results.sort(key=lambda r: (r.lattice, r.check))
        report = verify.VerifyReport(
            tuple(results), len(results),
            sum(1 for r in results if not r.passed),
            sum(1 for r in results if r.skipped))
        return verify.report_to_json(report)

    def digest(self, items, values, text) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    @staticmethod
    def check_counts(items, values):
        checked = sum(v[1].checked for v in values if v is not None)
        skipped = sum(v[1].skipped for v in values if v is not None)
        return checked, skipped


class Sweep(VerifyWorkload):
    """The acceptance corpus: every bounded table on the lattices with at most
    four elements, plus seeded random tables on the 5- and 6-element shapes."""

    RANDOM_TABLES = 1000
    WARMUP_OPS = 200
    ROUND_S = 13.4

    def setup(self, seed, workdir):
        corpus = (verify.corpus_exhaustive_tables(4)
                  + verify.corpus_random_tables(self.RANDOM_TABLES, seed))
        random.Random(f"sweep:{seed}").shuffle(corpus)
        return [(L, None) for L in corpus], []


class MDist5(VerifyWorkload):
    """m-distributive tables on all five 5-element lattices: every table on
    the four non-chains and a seeded sample of the chain5 tables.  The tables
    come from ``mdist``, not from ``corpus_exhaustive_tables``, which has no
    5-element corpus."""

    CHAIN_SAMPLE = 800     # with the 210 others, 10 ops of a round beyond p99

    def setup(self, seed, workdir):
        problems = []
        rng = random.Random(f"mdist5:{seed}")
        items = []
        for shape, covers in mdist.SHAPES.items():
            tables = mdist.m_distributive_tables(covers)
            if len(tables) != mdist.KNOWN_COUNTS[shape]:
                problems.append(f"{shape}: {len(tables)} m-distributive tables, "
                                f"expected {mdist.KNOWN_COUNTS[shape]}")
            indices = range(len(tables))
            if shape == "chain5":
                # every k-th table from a seeded offset: the seed changes the
                # tables but not how the sample spreads over the enumeration
                stride = len(tables) / self.CHAIN_SAMPLE
                offset = rng.random() * stride
                indices = [int(offset + i * stride) for i in range(self.CHAIN_SAMPLE)]
            base = core.validate(size=mdist.SIZE, covers=covers,
                                 mult=lambda x, y: 0, name=shape)
            for i in indices:
                L = core.replace_mult(base, tables[i], name=f"{shape}#m{i}")
                if not core.check_axioms(L).m_distributive:
                    problems.append(f"{L.name}: check_axioms finds it not m-distributive")
                items.append((L, None))
        rng.shuffle(items)
        return items, problems

    def check(self, item, value):
        out = super().check(item, value)
        if out.wrong is None and not core.check_axioms(value[0]).m_distributive:
            out.wrong = f"{item[0].name}: not m-distributive after verify_all"
        return out


class Large(VerifyWorkload):
    """Structured lattices with 9 to 16 elements, relabelled by the seed."""

    LATTICES = (("chain", 9, "meet"), ("zn", 60), ("zn", 72),
                ("chain", 12, "zero"), ("chain", 12, "truncated_add"),
                ("powerset", 4, "meet"), ("zn", 210))
    WARMUP_OPS = 0       # an op takes seconds, so first calls hardly show
    ROUND_S = 6.4

    def setup(self, seed, workdir):
        rng = random.Random(f"large:{seed}")
        items = []
        for kind, *params in self.LATTICES:
            L = relabel(ingest.generate(kind, *map(str, params)), rng)
            items.append((L, known_spec_size(L.name)))
        return items, []


# --------------------------------------------------------------------------
# The interactive path: one mlat command at a time, in process


# argparse reads a token that starts with "-" as an option unless it looks
# like a negative number; this is the pattern it uses to tell them apart.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def known_defect(label, in_list=False):
    """The text in the error message of a command that names ``label`` as its
    own argument (or, with ``in_list``, inside the comma-separated family of
    ``--family``) and is refused with exit 2 at this commit, or None when
    nothing refuses the command.  These refusals are defects of the CLI, not
    of the input: the label is a valid element."""
    if label.startswith("-") and not _NEGATIVE_NUMBER.match(label):
        return "usage: mlat"        # argparse takes the label for an option
    if in_list and "," in label:
        return "unknown element"    # the family is split on commas
    return None


class Query:
    """A seeded stream of single ``mlat`` commands on the named-corpus
    lattices, written as ``.lat`` files so each command parses a cold lattice.
    Elements are named by label, as the README shows.  Each repeat runs every
    command kind once on every lattice, so the mix of work is the same for
    every seed; the seed picks the elements and the order."""

    REPEATS = 6
    WARMUP_OPS = 124
    ROUND_S = 3.4
    KINDS = ("validate", "spec", "dot_spec", "systems", "families", "series",
             "interval", "check")

    def setup(self, seed, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        lattices = []
        for L in verify.corpus_named():
            path = workdir / f"{L.name}.lat"
            path.write_text(ingest.export_text(L), encoding="utf-8")
            lattices.append((L, path.as_posix()))
        rng = random.Random(f"query:{seed}")
        items = []
        for L, path in lattices:
            labels = {"series": self.labels(L, False, rng),
                      "families": self.labels(L, True, rng)}
            items += [self.command(kind, L, path, labels.get(kind, [None] * self.REPEATS)[r], rng)
                      for r in range(self.REPEATS) for kind in self.KINDS]
        rng.shuffle(items)
        return items, []

    @classmethod
    def labels(cls, L, in_list, rng):
        """``REPEATS`` seeded labels of ``L`` for ``series`` or ``families``.
        The number with a known defect is fixed by ``L``, not by the seed, so
        every seed has the same number of refused commands."""
        bad = [x for x in L.labels if known_defect(x, in_list)]
        good = [x for x in L.labels if not known_defect(x, in_list)]
        k = round(cls.REPEATS * len(bad) / L.size)
        picks = ([rng.choice(bad) for _ in range(k)]
                 + [rng.choice(good) for _ in range(cls.REPEATS - k)])
        rng.shuffle(picks)
        return picks

    @staticmethod
    def command(kind, L, path, label, rng):
        """One command as (kind, argv, expected answer or None, known defect
        or None)."""
        if kind == "validate":
            return kind, ["validate", path], L.size, None
        if kind == "spec":
            return kind, ["spec", path], known_spec_size(L.name), None
        if kind == "dot_spec":
            return kind, ["--format", "dot", "spec", path], None, None
        if kind == "systems":
            return kind, ["systems", path], None, None
        if kind == "families":
            return (kind, ["families", path, "--family", label], None,
                    known_defect(label, in_list=True))
        if kind == "series":
            return kind, ["series", label, path], None, known_defect(label)
        if kind == "interval":
            low = rng.randrange(L.size)
            above = [z for z in L.elements if L.relation[low][z]]
            high = rng.choice(above)
            return (kind, ["construct", f"interval:{L.labels[low]}:{L.labels[high]}", path],
                    sum(1 for z in above if L.relation[z][high]), None)
        return kind, ["check", "spectrum", path], 0, None

    def op(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(item[1])
            except SystemExit as exc:   # argparse rejects the command line
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, item, value):
        kind, argv, expected, defect = item
        code, out, err = value
        if code == 2 and defect is not None and defect in err:
            return Outcome(refused=f"exit 2 on {argv}: {err.strip()[-160:]}")
        if code != 0:
            return Outcome(wrong=f"exit {code} on {argv}: {err.strip()[-160:]}")
        if kind == "dot_spec":
            ok = out.startswith("digraph")
            return Outcome(wrong=None if ok else f"no digraph from {argv}")
        try:
            payload = json.loads(out)
        except json.JSONDecodeError:
            return Outcome(wrong=f"output of {argv} is not JSON")
        got = {"validate": lambda: payload["size"],
               "spec": lambda: len(payload["primes"]),
               "interval": lambda: len(payload["elements"]),
               "check": lambda: payload["failed"]}.get(kind)
        if got is not None and expected is not None and got() != expected:
            return Outcome(wrong=f"{argv}: got {got()}, expected {expected}")
        return Outcome()

    def round_end(self, values) -> str:
        return ""

    def digest(self, items, values, text) -> str:
        """Digest of what the commands printed, with their exit codes.  The
        commands with a known defect are left out, so that fixing it does not
        change the digest."""
        h = hashlib.sha256()
        for (_, argv, _, defect), value in zip(items, values):
            if defect is not None:
                continue
            code, out = (None, None) if value is None else value[:2]
            h.update(json.dumps([argv, code, out]).encode())
        return h.hexdigest()

    @staticmethod
    def check_counts(items, values):
        checked = skipped = 0
        for (kind, *_), value in zip(items, values):
            if kind == "check" and value is not None and value[0] in (0, 1):
                payload = json.loads(value[1])
                checked += payload["checked"]
                skipped += payload["skipped"]
        return checked, skipped


WORKLOADS = {"sweep": Sweep, "mdist5": MDist5, "large": Large, "query": Query}
