"""Command-line interface.

Commands take a lattice from a file, from stdin (``-``), or inline from a
generator spec like ``gen:chain:5:meet`` / ``gen:zn:12``.  Exit codes:
0 all checks passed, 1 a verification failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import sys

from . import constructions as cons
from . import families as fam
from . import systems as sys_mod
from .core import BadParams, LatticeError, check_axioms
from .ingest import (LatticeSyntaxError, export_dot, export_dot_spectrum,
                     export_text, generate, int_param, parse, to_json)
from .series import series as series_op
from .spectrum import spectrum
from .verify import CorpusSpec, VerifyReport, report_to_json, verify_all

# Arguments after the kind in ``construct <kind>:<arg>:...``; the last
# argument keeps any further colons, so ``product:gen:chain:2`` works.
CONSTRUCT_ARITY = {"interval": 2, "product": 1, "disjoint": 2, "lying": 2,
                   "open_homeo": 1}


def _load(spec: str):
    if spec.startswith("gen:"):
        parts = spec.split(":")[1:]
        return generate(parts[0], *parts[1:])
    if spec == "-":
        return parse(sys.stdin.read())
    with open(spec, encoding="utf-8") as handle:
        return parse(handle.read())


def _element(L, token: str) -> int:
    if token in L.labels:
        return L.labels.index(token)
    try:
        idx = int(token)
    except ValueError:
        raise LatticeError(f"unknown element {token!r}")
    if not 0 <= idx < L.size:
        raise LatticeError(f"element index {idx} out of range")
    return idx


def _emit(args, obj, dot=None):
    if args.format == "dot":
        if dot is None:
            raise LatticeError("no DOT form for this output")
        print(dot, end="")
    elif args.format == "text":
        print(obj if isinstance(obj, str) else to_json(obj), end="")
    else:
        print(to_json(obj), end="")


def main(argv=None) -> int:
    top = argparse.ArgumentParser(prog="mlat",
                                  description="finite multiplicative lattices")
    top.add_argument("--seed", type=int, default=1729)
    top.add_argument("--max-enum", type=int, default=12)
    top.add_argument("--format", choices=("json", "dot", "text"), default="json")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a lattice")
    p.add_argument("input")

    p = sub.add_parser("spec", help="spectrum report")
    p.add_argument("input")

    p = sub.add_parser("check", help="run verification suites")
    p.add_argument("suite", help="all, axioms, spectrum, hyper, systems, "
                                 "families, constructions, series")
    p.add_argument("input", nargs="?")
    p.add_argument("--corpus", help="named | exhaustive:<max_size> | random:<count>")

    p = sub.add_parser("series", help="descending series of an element")
    p.add_argument("element")
    p.add_argument("input")

    p = sub.add_parser("systems", help="m-system survey")
    p.add_argument("input")

    p = sub.add_parser("families", help="family classification")
    p.add_argument("input")
    p.add_argument("--family", help="comma-separated labels; default {top}")

    p = sub.add_parser("construct", help="interval:<x>:<y> | product:<spec> | "
                                         "disjoint:<n1>:<n2> | lying:<n>:<q> | "
                                         "open_homeo:<n>")
    p.add_argument("op")
    p.add_argument("input")

    p = sub.add_parser("export", help="re-emit a lattice (text, json, or dot)")
    p.add_argument("input")

    p = sub.add_parser("generate", help="emit a generated lattice as text")
    p.add_argument("kind")
    p.add_argument("params", nargs="*")

    args = top.parse_args(argv)
    try:
        return _run(args)
    except LatticeSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except LatticeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    cmd = args.command
    if cmd == "generate":
        print(export_text(generate(args.kind, *args.params)), end="")
        return 0

    if cmd == "check":
        if args.corpus:
            parts = args.corpus.split(":")
            if parts[0] == "named":
                spec = CorpusSpec("named")
            elif parts[0] == "exhaustive":
                spec = CorpusSpec("exhaustive_tables",
                                  max_size=int_param(parts[1]) if len(parts) > 1 else 4)
            elif parts[0] == "random":
                spec = CorpusSpec("random_tables", seed=args.seed,
                                  count=int_param(parts[1]) if len(parts) > 1 else 1000)
            else:
                raise LatticeError(f"unknown corpus {args.corpus!r}")
            lattices = spec.build()
        elif args.input:
            lattices = [_load(args.input)]
        else:
            raise LatticeError("check needs an input or --corpus")
        report = verify_all(lattices, suites=(args.suite,), max_enum=args.max_enum)
        print(report_to_json(report), end="")
        _summary(report)
        return 0 if report.passed else 1

    L = _load(args.input)
    if cmd == "validate":
        ax = check_axioms(L)
        payload = {"name": L.name, "size": L.size, "valid": True,
                   "bottom": L.labels[L.bottom], "top": L.labels[L.top],
                   "axioms": ax}
        _emit(args, payload, dot=export_dot(L))
    elif cmd == "spec":
        _emit(args, spectrum(L), dot=export_dot_spectrum(L))
    elif cmd == "series":
        _emit(args, series_op(L, _element(L, args.element)))
    elif cmd == "systems":
        survey = {"complement_systems":
                  {L.labels[x]: sys_mod.complement_system(L, x)
                   for x in L.elements},
                  "saturated_m_systems":
                  [sorted(L.labels[c] for c in s)
                   for s in sys_mod.saturated_m_systems(L)]}
        if check_axioms(L).m_distributive:
            survey["correspondence"] = sys_mod.correspondence_check(
                L, max_enum=args.max_enum)
        _emit(args, survey)
    elif cmd == "families":
        if args.family:
            F = frozenset(_element(L, t) for t in args.family.split(","))
        else:
            F = frozenset({L.top})
        _emit(args, fam.classify_family(L, F))
    elif cmd == "construct":
        kind = args.op.partition(":")[0]
        arity = CONSTRUCT_ARITY.get(kind)
        if arity is None:
            raise LatticeError(f"unknown construction {kind!r}")
        parts = args.op.split(":", arity)
        if len(parts) != arity + 1:
            raise BadParams(f"{kind} takes {arity} argument(s)")
        if kind == "interval":
            iv = cons.interval(L, _element(L, parts[1]), _element(L, parts[2]))
            _emit(args, iv.lattice, dot=export_dot(iv.lattice))
        elif kind == "product":
            other = _load(parts[1])
            _emit(args, cons.product_spec_check(L, other))
        elif kind == "disjoint":
            _emit(args, cons.disjointness_criteria(
                L, _element(L, parts[1]), _element(L, parts[2])))
        elif kind == "lying":
            p = cons.lying_over(L, _element(L, parts[1]), _element(L, parts[2]))
            _emit(args, {"prime": L.labels[p]})
        elif kind == "open_homeo":
            n = _element(L, parts[1])
            if args.format == "dot":
                from .ingest import export_dot_homeo_pair
                left, right = export_dot_homeo_pair(L, n)
                print(left, end="")
                print(right, end="")
            else:
                _emit(args, cons.open_subspace_homeo(L, n))
    elif cmd == "export":
        if args.format == "dot":
            print(export_dot(L), end="")
        elif args.format == "text":
            print(export_text(L), end="")
        else:
            print(to_json(L), end="")
    return 0


def _summary(report: VerifyReport):
    print(f"checks: {report.checked}  failed: {report.failed}  "
          f"skipped: {report.skipped}", file=sys.stderr)
    for r in report.results:
        if not r.passed:
            print(f"FAIL {r.lattice} {r.check}: {r.detail}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
