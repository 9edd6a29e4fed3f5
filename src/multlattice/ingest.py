"""Lattice description format, instance generators, and exporters.

The text format is line oriented and diff friendly::

    # a comment
    name z4
    element (1)
    element (2)
    element (4)
    cover (4) < (2)
    cover (2) < (1)
    mult preset meet          # or explicit lines: mult (2) (2) = (4)
    generator (1)             # optional; defaults to every element

Elements get indices in declaration order.  ``mult`` is either one preset
line (``meet`` or ``zero``) or a complete list of triples.  Export reproduces
a lattice exactly: ``parse(export_text(L)) == L``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields, is_dataclass
from math import gcd

from .core import (BadParams, LatticeError, MultLattice, PropertyReport,
                   build_order, check_axioms, replace_mult, validate)
from .spectrum import FiniteTopology, close_family, spectrum


class LatticeSyntaxError(LatticeError):
    """A parse error carrying its 1-based line and column."""

    def __init__(self, message, line, column=1):
        super().__init__(f"line {line}, column {column}: {message}",
                         witness=(line, column))
        self.line = line
        self.column = column


# --------------------------------------------------------------------------
# Documents


@dataclass
class LatticeDocument:
    name: str
    elements: tuple
    covers: tuple                      # (label, label) pairs, lower first
    mult_preset: str | None = None     # "meet" | "zero"
    mult_triples: tuple = ()           # (x, y, xy) label triples
    generators: tuple | None = None


def parse_document(text: str) -> LatticeDocument:
    name = "L"
    elements: list = []
    seen = set()
    covers: list = []
    preset = None
    triples: list = []
    generators: list = []

    def err(msg, ln, line, token=None):
        col = line.find(token) + 1 if token and token in line else 1
        raise LatticeSyntaxError(msg, ln, col)

    def strip_comment(raw):
        # comments start at a '#' that opens the line or follows whitespace,
        # so labels and names may contain '#'
        if raw.lstrip().startswith("#"):
            return ""
        for i, ch in enumerate(raw):
            if ch == "#" and raw[i - 1] in " \t":
                return raw[:i]
        return raw

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw).rstrip()
        if not line.strip():
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "name":
            if len(tokens) != 2:
                err("expected: name <string>", ln, line)
            name = tokens[1]
        elif head == "element":
            if len(tokens) != 2:
                err("expected: element <label>", ln, line)
            label = tokens[1]
            if label in seen:
                err(f"duplicate label {label!r}", ln, line, label)
            seen.add(label)
            elements.append(label)
        elif head == "cover":
            if len(tokens) != 4 or tokens[2] != "<":
                err("expected: cover <a> < <b>", ln, line)
            for t in (tokens[1], tokens[3]):
                if t not in seen:
                    err(f"unknown label {t!r}", ln, line, t)
            covers.append((tokens[1], tokens[3]))
        elif head == "mult":
            if len(tokens) == 3 and tokens[1] == "preset":
                if tokens[2] not in ("meet", "zero"):
                    err(f"unknown preset {tokens[2]!r}", ln, line, tokens[2])
                if triples:
                    err("preset cannot be mixed with explicit mult lines", ln, line)
                if preset:
                    err("duplicate mult preset", ln, line)
                preset = tokens[2]
            elif len(tokens) == 5 and tokens[3] == "=":
                if preset:
                    err("explicit mult lines cannot follow a preset", ln, line)
                for t in (tokens[1], tokens[2], tokens[4]):
                    if t not in seen:
                        err(f"unknown label {t!r}", ln, line, t)
                triples.append((tokens[1], tokens[2], tokens[4]))
            else:
                err("expected: mult <x> <y> = <z> or mult preset meet|zero", ln, line)
        elif head == "generator":
            if len(tokens) != 2:
                err("expected: generator <label>", ln, line)
            if tokens[1] not in seen:
                err(f"unknown label {tokens[1]!r}", ln, line, tokens[1])
            generators.append(tokens[1])
        else:
            err(f"unknown directive {head!r}", ln, line, head)

    last = text.count("\n") + 1
    if not elements:
        raise LatticeSyntaxError("no elements declared", last)
    if preset is None and not triples:
        raise LatticeSyntaxError("no multiplication given", last)
    return LatticeDocument(name, tuple(elements), tuple(covers), preset,
                           tuple(triples), tuple(generators) or None)


def document_to_lattice(doc: LatticeDocument) -> MultLattice:
    index = {label: i for i, label in enumerate(doc.elements)}
    n = len(doc.elements)
    covers = [(index[a], index[b]) for a, b in doc.covers]
    order = build_order(size=n, covers=covers)
    if doc.mult_preset == "meet":
        table = order.meet_table
    elif doc.mult_preset == "zero":
        table = [[order.bottom] * n for _ in range(n)]
    else:
        table = [[None] * n for _ in range(n)]
        for x, y, z in doc.mult_triples:
            table[index[x]][index[y]] = index[z]
        missing = [(x, y) for x in range(n) for y in range(n)
                   if table[x][y] is None]
        if missing:
            x, y = missing[0]
            raise LatticeSyntaxError(
                f"mult is not total: missing {doc.elements[x]} {doc.elements[y]}",
                len(doc.elements) + 1)
    gens = None if doc.generators is None else [index[g] for g in doc.generators]
    return validate(size=n, covers=covers, mult=table, generators=gens,
                    labels=doc.elements, name=doc.name)


def parse(text: str) -> MultLattice:
    """Parse a lattice description and validate the result.

    Accepts the line-oriented format or the canonical JSON payload emitted by
    :func:`json_payload`, so both export formats round trip through here.
    """
    if text.lstrip().startswith("{"):
        return document_to_lattice(_document_from_json(text))
    return document_to_lattice(parse_document(text))


def _document_from_json(text: str) -> LatticeDocument:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LatticeSyntaxError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno)
    if payload.get("kind") != "lattice":
        raise LatticeSyntaxError("JSON payload is not a lattice", 1)
    mult = payload.get("mult", {})
    gens = payload.get("generators")
    return LatticeDocument(
        payload.get("name", "L"),
        tuple(payload.get("elements", ())),
        tuple(tuple(c) for c in payload.get("covers", ())),
        mult.get("preset"),
        tuple(tuple(t) for t in mult.get("triples", ())),
        tuple(gens) if gens else None)


def lattice_to_document(doc_or_lattice) -> LatticeDocument:
    L = doc_or_lattice
    labels = list(L.labels)
    if len(set(labels)) != len(labels):
        labels = [f"{lab}#{i}" for i, lab in enumerate(labels)]
    preset = None
    if L.mult_table == L.meet_table:
        preset = "meet"
    elif all(v == L.bottom for row in L.mult_table for v in row):
        preset = "zero"
    triples = ()
    if preset is None:
        triples = tuple((labels[x], labels[y], labels[L.mult_table[x][y]])
                        for x in L.elements for y in L.elements)
    gens = None
    if L.generators != frozenset(L.elements):
        gens = tuple(labels[g] for g in sorted(L.generators))
    return LatticeDocument(L.name, tuple(labels),
                           tuple((labels[a], labels[b]) for a, b in L.covers()),
                           preset, triples, gens)


def export_text(L: MultLattice) -> str:
    doc = lattice_to_document(L)
    spacey = [lab for lab in doc.elements if any(c.isspace() for c in lab)]
    if spacey or any(c.isspace() for c in doc.name):
        raise BadParams("the text format cannot carry whitespace in names or "
                        "labels; use the JSON export instead",
                        witness=spacey[:1] or doc.name)
    lines = [f"name {doc.name}"]
    lines += [f"element {lab}" for lab in doc.elements]
    lines += [f"cover {a} < {b}" for a, b in doc.covers]
    if doc.mult_preset:
        lines.append(f"mult preset {doc.mult_preset}")
    else:
        lines += [f"mult {x} {y} = {z}" for x, y, z in doc.mult_triples]
    if doc.generators is not None:
        lines += [f"generator {g}" for g in doc.generators]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# JSON: one canonical, versioned, deterministic schema

SCHEMA_VERSION = 1


def _jsonable(value):
    if isinstance(value, frozenset):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (set, tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(_key(k)): _jsonable(v) for k, v in
                sorted(value.items(), key=lambda kv: str(_key(kv[0])))}
    if isinstance(value, FiniteTopology):
        return {"points": sorted(_jsonable(p) for p in value.points),
                "closed_sets": sorted(sorted(_jsonable(p) for p in c)
                                      for c in value.closed_sets)}
    if isinstance(value, MultLattice):
        return json_payload(value)
    if is_dataclass(value) and not isinstance(value, type):
        return {"kind": type(value).__name__,
                **{k: _jsonable(v) for k, v in vars(value).items()}}
    return value


def _key(k):
    if isinstance(k, frozenset):
        return tuple(sorted(k))
    return k


def json_payload(obj) -> dict:
    """A JSON-ready dict for a lattice or any report object."""
    if isinstance(obj, MultLattice):
        doc = lattice_to_document(obj)
        return {"schema_version": SCHEMA_VERSION, "kind": "lattice",
                "name": doc.name, "elements": list(doc.elements),
                "covers": [list(c) for c in doc.covers],
                "mult": ({"preset": doc.mult_preset} if doc.mult_preset
                         else {"triples": [list(t) for t in doc.mult_triples]}),
                "generators": list(doc.generators) if doc.generators else None}
    payload = _jsonable(obj)
    if isinstance(payload, dict):
        payload = {"schema_version": SCHEMA_VERSION, **payload}
    return payload


def to_json(obj) -> str:
    return json.dumps(json_payload(obj), sort_keys=True, indent=2) + "\n"


# --------------------------------------------------------------------------
# DOT


def export_dot(L: MultLattice) -> str:
    """The Hasse diagram (cover edges only), bottom-up."""
    lines = [f'digraph "{L.name}" {{', "  rankdir=BT;"]
    for i in L.elements:
        lines.append(f'  n{i} [label="{L.labels[i]}"];')
    for a, b in L.covers():
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot_topology(T: FiniteTopology, labels, name: str) -> str:
    """The specialization digraph of a finite topology: an edge p -> q
    whenever q lies in the closure of p, reduced to covers."""
    pts = sorted(T.points)
    closure = {p: T.point_closure(p) for p in pts}
    reach = {p: frozenset(q for q in closure[p] if q != p) for p in pts}
    lines = [f'digraph "{name}" {{', "  rankdir=BT;"]
    for p in pts:
        lines.append(f'  p{p} [label="{labels[p]}"];')
    for p in pts:
        for q in sorted(reach[p]):
            if not any(q in reach[r] for r in reach[p]):
                lines.append(f"  p{p} -> p{q};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot_spectrum(L: MultLattice) -> str:
    rep = spectrum(L)
    return export_dot_topology(rep.zariski, L.labels, f"Spec({L.name})")


def export_dot_homeo_pair(L: MultLattice, n: int) -> tuple:
    """Paired DOT digraphs for the open-subspace identification: the subspace
    of the spectrum outside V(n), and the spectrum of the interval below n."""
    from .constructions import open_subspace_homeo

    report = open_subspace_homeo(L, n)
    rep = spectrum(L)
    sub = rep.zariski.subspace(frozenset(report.point_map))
    left = export_dot_topology(sub, L.labels, f"D({L.labels[n]}) in Spec({L.name})")
    right = export_dot_spectrum(report.interval.lattice)
    return left, right


# --------------------------------------------------------------------------
# Generators


_CHAIN_MIDDLE = "abcdefghijklmnopqrstuvwxyz"


def _chain_labels(n: int) -> list:
    if n == 1:
        return ["0"]
    mids = [(_CHAIN_MIDDLE[i] if i < 26 else f"m{i}") for i in range(n - 2)]
    return ["0"] + mids + ["1"]


def chain(n: int, mult: str = "meet") -> MultLattice:
    """A chain of ``n`` elements with one of the three multiplications:
    ``meet``, ``zero``, or ``truncated_add``.

    ``truncated_add`` models a finite truncation of the nonpositive-integers-
    with-minus-infinity chain under addition: element i multiplies as
    ``max(0, i + j - (n-1))``, so products falling past the truncation depth
    are clipped to the bottom.  This clipping is a deliberate deviation from
    the untruncated chain; in particular the bottom of a truncation is not
    prime even though the untruncated counterpart's bottom is, so no suite
    asserts the untruncated prime set on truncations.
    """
    if n < 1:
        raise BadParams("chain needs at least one element")
    covers = [(i, i + 1) for i in range(n - 1)]
    if mult == "meet":
        f = min
        labels = _chain_labels(n)
    elif mult == "zero":
        f = lambda x, y: 0
        labels = _chain_labels(n)
    elif mult == "truncated_add":
        f = lambda x, y: max(0, x + y - (n - 1))
        labels = ["-inf"] + [str(i - (n - 1)) for i in range(1, n)]
    else:
        raise BadParams(f"unknown chain multiplication {mult!r}")
    return validate(size=n, covers=covers, mult=f, labels=labels,
                    name=f"chain{n}_{mult}")


def zn_ideals(n: int) -> MultLattice:
    """The ideal lattice of the integers mod ``n``: the divisor lattice with
    (d) <= (e) iff e divides d, and (d)(e) = (gcd(de, n))."""
    if n < 2:
        raise BadParams("modulus must be at least 2")
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    index = {d: i for i, d in enumerate(divisors)}
    relation = [[divisors[i] % divisors[j] == 0 for j in range(len(divisors))]
                for i in range(len(divisors))]
    return validate(size=len(divisors), relation=relation,
                    mult=lambda x, y: index[gcd(divisors[x] * divisors[y], n)],
                    labels=[f"({d})" for d in divisors], name=f"zn{n}")


def powerset_lattice(n: int, mult: str = "meet") -> MultLattice:
    """The boolean lattice of subsets of an n-element set, with intersection
    or constant-empty multiplication."""
    if n < 0 or n > 10:
        raise BadParams("powerset size out of range")
    size = 1 << n
    relation = [[(a & b) == a for b in range(size)] for a in range(size)]
    if mult == "meet":
        f = lambda a, b: a & b
    elif mult == "zero":
        f = lambda a, b: 0
    else:
        raise BadParams(f"unknown powerset multiplication {mult!r}")
    labels = ["{" + ",".join(str(i) for i in range(n) if a >> i & 1) + "}"
              for a in range(size)]
    return validate(size=size, relation=relation, mult=f, labels=labels,
                    name=f"bool{n}_{mult}")


def poset_space(kind: str, n: int = 0) -> FiniteTopology:
    """A finite T0 space presented as the down-set (Alexandrov) topology of a
    small poset: ``chain(n)``, ``antichain(n)``, ``vee`` or ``diamond``."""
    if kind == "chain":
        pts, pairs = list(range(n)), [(i, j) for i in range(n) for j in range(i, n)]
    elif kind == "antichain":
        pts, pairs = list(range(n)), [(i, i) for i in range(n)]
    elif kind == "vee":
        pts, pairs = [0, 1, 2], [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)]
    elif kind == "diamond":
        pts, pairs = [0, 1, 2, 3], [(i, i) for i in range(4)] + \
            [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)]
    else:
        raise BadParams(f"unknown poset kind {kind!r}")
    below = [frozenset(a for a, b in pairs if b == p) | {p} for p in pts]
    return FiniteTopology.from_closed_sets(
        pts, close_family({frozenset()}, below, frozenset.__or__))


def open_set_lattice(T: FiniteTopology, name: str = "opens") -> MultLattice:
    """The frame of open sets of a finite T0 space, multiplied by
    intersection."""
    t0, pair = T.is_t0()
    if not t0:
        raise BadParams(f"space is not T0: points {pair} are indistinguishable")
    opens = sorted(T.opens, key=lambda u: (len(u), sorted(u)))
    index = {u: i for i, u in enumerate(opens)}
    relation = [[a <= b for b in opens] for a in opens]
    labels = ["{" + ",".join(str(p) for p in sorted(u)) + "}" for u in opens]
    return validate(size=len(opens), relation=relation,
                    mult=lambda i, j: index[opens[i] & opens[j]],
                    labels=labels, name=name)


def random_mult_table(L: MultLattice, rng: random.Random):
    """A uniformly random bounded multiplication table on the order of L."""
    n = L.size
    choices = [[sorted(L.set_of(L.down_masks[L.meet_table[x][y]]))
                for y in range(n)] for x in range(n)]
    return [[rng.choice(choices[x][y]) for y in range(n)] for x in range(n)]


@dataclass
class RandomLatticeResult:
    lattice: MultLattice
    seed: int
    order_attempts: int
    table_attempts: int


def random_lattice(size: int, axioms: dict | None = None, seed: int = 0,
                   max_tries: int = 20000, name: str | None = None) -> RandomLatticeResult:
    """A random lattice of the given size with a random bounded table,
    rejection-sampled until the requested axiom flags match.

    ``axioms`` maps property-report flag names to required booleans, e.g.
    ``{"m_distributive": True}``.  Same seed, same result; the attempt counts
    are reported for reproducibility.
    """
    if size < 1:
        raise BadParams("size must be positive")
    axioms = axioms or {}
    unknown = set(axioms) - {f.name for f in fields(PropertyReport) if f.type == "bool"}
    if unknown:
        raise BadParams(f"unknown axiom flags {sorted(unknown)}")
    rng = random.Random(seed)
    order_attempts = table_attempts = 0
    base = None
    while base is None:
        order_attempts += 1
        if order_attempts > max_tries:
            raise BadParams("could not sample a lattice order; try another seed")
        rel = [[i == j for j in range(size)] for i in range(size)]
        for i in range(1, size - 1):
            for j in range(i + 1, size - 1):
                if rng.random() < 0.35:
                    rel[i][j] = True
        for k in range(size):
            for i in range(size):
                if rel[i][k]:
                    for j in range(size):
                        if rel[k][j]:
                            rel[i][j] = True
        for i in range(size):
            rel[0][i] = True
            rel[i][size - 1] = True
        try:
            base = validate(size=size, relation=rel, mult=lambda x, y: 0,
                            name=name or f"random{size}_s{seed}")
        except LatticeError:
            base = None
    while True:
        table_attempts += 1
        if table_attempts > max_tries:
            raise BadParams("could not sample a table with the requested axioms")
        L = replace_mult(base, random_mult_table(base, rng))
        report = check_axioms(L)
        if all(getattr(report, flag) == want for flag, want in axioms.items()):
            return RandomLatticeResult(L, seed, order_attempts, table_attempts)


def int_param(text: str) -> int:
    """An integer parameter given as text; anything else is bad input."""
    try:
        return int(text)
    except ValueError:
        raise BadParams(f"expected an integer, got {text!r}") from None


def generate(kind: str, *args) -> MultLattice:
    """Dispatch for the named generators, as used by the CLI ``gen:`` specs."""
    if not args:
        raise BadParams(f"generator {kind!r} needs a parameter")
    if kind == "chain":
        return chain(int_param(args[0]), args[1] if len(args) > 1 else "meet")
    if kind in ("zn", "zn_ideals"):
        return zn_ideals(int_param(args[0]))
    if kind in ("bool", "powerset"):
        return powerset_lattice(int_param(args[0]), args[1] if len(args) > 1 else "meet")
    if kind == "open_sets":
        space = poset_space(args[0], int_param(args[1]) if len(args) > 1 else 0)
        return open_set_lattice(space, name=f"opens_{args[0]}{args[1] if len(args) > 1 else ''}")
    if kind == "random":
        size = int_param(args[0])
        seed = 0
        axioms = {}
        for a in args[1:]:
            if a.startswith("seed="):
                seed = int_param(a[5:])
            else:
                axioms[a] = True
        return random_lattice(size, axioms, seed).lattice
    raise BadParams(f"unknown generator {kind!r}")
