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
line (``meet`` or ``zero``) or a complete list of triples, one per pair.
:func:`parse` reads both this format and the JSON export as rows of these
tokens, in one pass.  An error names its line and the column where the
offending token starts (1 for a line-wide error and in JSON, read as line 1);
one about the whole input, such as a missing product, names the line it ends on.
Export reproduces a lattice exactly, ``parse(export_text(L)) == L``, or
refuses a name or label that is empty, holds whitespace or starts with '#'.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, fields, is_dataclass
from math import gcd, isqrt

from .constructions import open_subspace_homeo
from .core import (BadParams, LatticeError, MultLattice, OrderData,
                   PropertyReport, analysis, build_order, law_witness,
                   replace_mult, validate)
from .spectrum import FiniteTopology, spectrum


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


def _strip_comment(raw: str) -> str:
    """``raw`` up to its comment, which starts at a '#' that opens the line
    or follows a space or tab, so labels and names may contain '#'."""
    if "#" not in raw:
        return raw
    if raw.lstrip().startswith("#"):
        return ""
    cuts = [cut for cut in (raw.find(" #"), raw.find("\t#")) if cut >= 0]
    return raw[:min(cuts) + 1] if cuts else raw


def parse(text: str) -> MultLattice:
    """Parse a lattice description and validate the result.

    Accepts the line-oriented format or the canonical JSON payload emitted by
    :func:`json_payload`, so both export formats round trip through here.
    """
    text = text.removeprefix("\ufeff")       # one UTF-8 byte-order mark
    last = text.count("\n") + 1
    rows = _json_rows(text) if text.lstrip().startswith("{") else _text_rows(text)
    name, labels, covers, preset, products, gens = _read(rows, last)
    n = len(labels)
    order = build_order(size=n, covers=covers)
    if preset == "meet":
        table = order.meet_table
    elif preset == "zero":
        table = ((order.bottom,) * n,) * n
    elif len(products) < n * n:
        x, y = next((x, y) for x in range(n) for y in range(n) if (x, y) not in products)
        raise LatticeSyntaxError(f"mult is not total: missing {labels[x]} {labels[y]}", last)
    else:
        table = tuple(tuple(products[x, y] for y in range(n)) for x in range(n))  # kept as given
    return validate(order=order, mult=table, generators=gens or None,
                    labels=tuple(labels), name=name)


def _text_rows(text: str) -> list:
    """The rows (line number, line, tokens) of the text format's non-blank lines."""
    return [(ln, line, tokens) for ln, raw in enumerate(text.splitlines(), start=1)
            if (tokens := (line := _strip_comment(raw)).split())]


def _json_rows(text: str) -> list:
    """The JSON payload as the rows of its text-format lines, all on line 1 with
    no text; a field of the wrong shape is a row that has only its directive."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LatticeSyntaxError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno)
    if payload.get("kind") != "lattice":
        raise LatticeSyntaxError("JSON payload is not a lattice", 1)

    def field(owner, key, kind):
        value = owner.get(key) or kind()
        if not isinstance(value, kind):
            raise LatticeSyntaxError(f"JSON field {key!r} must be a {kind.__name__}", 1)
        return value

    def row(head, args, *shape):   # shape: the tokens after head, an int k for args[k]
        ok = isinstance(args, list) and all(type(a) is str for a in args) \
            and len(args) == sum(type(t) is int for t in shape)
        return 1, "", [head, *(args[t] if type(t) is int else t for t in shape)] if ok else [head]

    mult = field(payload, "mult", dict)
    rows = [row("name", [payload.get("name", "L")], 0)]
    rows += [row("element", [label], 0) for label in field(payload, "elements", list)]
    rows += [row("cover", c, 0, "<", 1) for c in field(payload, "covers", list)]
    if mult.get("preset") is not None:
        rows.append(row("mult", [mult["preset"]], "preset", 0))
    rows += [row("mult", t, 0, 1, "=", 2) for t in field(mult, "triples", list)]
    return rows + [row("generator", [g], 0) for g in field(payload, "generators", list)]


# The form an error message quotes for each directive.
_FORMS = {"name": "name <string>", "element": "element <label>", "cover": "cover <a> < <b>",
          "mult": "mult <x> <y> = <z> or mult preset meet|zero",
          "generator": "generator <label>"}


def _read(rows, last: int) -> tuple:
    """Check ``rows``, each (line number, line, tokens in the text grammar),
    and read them as (name, labels, covers, preset, products, generators):
    labels in declaration order, covers as index pairs, products as a dict
    (x, y) -> xy of indices in input order, generators as a list of indices.
    Each label is mapped to its index by one lookup as its row is read."""
    name, labels, index, covers, preset, products, gens = "L", [], {}, [], None, {}, []
    get = index.get
    for ln, line, tokens in rows:
        head, k = tokens[0], len(tokens)
        if head == "mult" and k == 5 and tokens[3] == "=":
            if preset:
                raise LatticeSyntaxError("explicit mult lines cannot follow a preset", ln)
            x, y, z = ids = get(tokens[1]), get(tokens[2]), get(tokens[4])
            if None in ids:
                _unknown(ln, line, tokens, ids, (1, 2, 4))
            if (x, y) in products:
                raise LatticeSyntaxError(f"mult {tokens[1]} {tokens[2]} is already given",
                                         ln, _column(line, tokens, 1))
            products[x, y] = z
        elif head == "cover" and k == 4 and tokens[2] == "<":
            ids = get(tokens[1]), get(tokens[3])
            if None in ids:
                _unknown(ln, line, tokens, ids, (1, 3))
            covers.append(ids)
        elif head == "element" and k == 2:
            if index.setdefault(tokens[1], len(labels)) != len(labels):
                raise LatticeSyntaxError(f"duplicate label {tokens[1]!r}", ln,
                                         _column(line, tokens, 1))
            labels.append(tokens[1])
        elif head == "generator" and k == 2:
            g = get(tokens[1])
            if g is None:
                _unknown(ln, line, tokens, (g,), (1,))
            gens.append(g)
        elif head == "name" and k == 2:
            name = tokens[1]
        elif head == "mult" and k == 3 and tokens[1] == "preset":
            if tokens[2] not in ("meet", "zero"):
                raise LatticeSyntaxError(f"unknown preset {tokens[2]!r}", ln,
                                         _column(line, tokens, 2))
            if products or preset:
                raise LatticeSyntaxError("duplicate mult preset" if preset else
                                         "preset cannot be mixed with explicit mult lines", ln)
            preset = tokens[2]
        elif head in _FORMS:
            raise LatticeSyntaxError(f"expected: {_FORMS[head]}", ln)
        else:
            raise LatticeSyntaxError(f"unknown directive {head!r}", ln, _column(line, tokens, 0))
    if not labels:
        raise LatticeSyntaxError("no elements declared", last)
    if preset is None and not products:
        raise LatticeSyntaxError("no multiplication given", last)
    return name, labels, covers, preset, products, gens


def _unknown(ln: int, line: str, tokens: list, ids: tuple, at: tuple):
    """Refuse the first of the labels ``tokens[k]``, k in ``at``, whose index in ``ids`` is None."""
    k = at[ids.index(None)]
    raise LatticeSyntaxError(f"unknown label {tokens[k]!r}", ln, _column(line, tokens, k))


def _column(line: str, tokens: list, k: int) -> int:
    """The 1-based column of ``tokens[k]`` in ``line``, or 1 for a row with no text."""
    start = end = 0
    for token in tokens[:k + 1] if line else ():
        start = line.find(token, end)
        end = start + len(token)
    return start + 1


def lattice_to_document(L) -> LatticeDocument:
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
    unreadable = [lab for lab in doc.elements if lab[:1] in ("", "#")]
    if unreadable or doc.name[:1] in ("", "#"):
        raise BadParams("the text format cannot carry an empty name or label, or "
                        "one that starts with '#'; use the JSON export instead",
                        witness=unreadable[:1] or doc.name)
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


_LEAVES = frozenset({str, int, bool, float, type(None)})
_quote = json.encoder.encode_basestring_ascii


def _jsonable(value):
    if type(value) in _LEAVES:
        return value
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
                **{k: _jsonable(getattr(value, k)) for k in _field_names(type(value))}}
    return value


# A dataclass's field names; read through fields() since rows are slotted.
_field_names = functools.cache(lambda cls: tuple(f.name for f in fields(cls)))


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
    """``json.dumps(json_payload(obj), sort_keys=True, indent=2)`` and a
    newline, byte for byte, without the stdlib's pure-Python encoder."""
    out = []
    _write(json_payload(obj), "\n", out)
    return "".join(out) + "\n"


def _write(value, pad: str, out: list) -> None:
    """Append ``value`` to ``out``, indented by ``pad``; by type, as 1 == True."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None or kind is bool:
        out.append("null" if value is None else "true" if value else "false")
    elif kind is dict or kind is list or kind is tuple:
        inner, keyed = pad + "  ", kind is dict
        out.append("{" if keyed else "[")
        for item in sorted(value) if keyed else value:
            out += (inner, _quote(item), ": ") if keyed else (inner,)
            _write(value[item] if keyed else item, inner, out)
            out.append(",")
        out[-1] = (pad if value else out[-1]) + ("}" if keyed else "]")  # last "," or opener
    else:
        out.append(json.dumps(value))


# --------------------------------------------------------------------------
# DOT


def _dot_quoted(text: str) -> str:
    """``text`` as a DOT string, with its backslashes and quotes escaped."""
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


def _dot(name: str, prefix: str, labels, nodes, edges) -> str:
    """A bottom-up DOT digraph: node ``prefix + str(i)`` labelled
    ``labels[i]`` for each i in ``nodes``, then one line per edge (a, b)."""
    lines = [f"digraph {_dot_quoted(name)} {{", "  rankdir=BT;"]
    lines += [f"  {prefix}{i} [label={_dot_quoted(labels[i])}];" for i in nodes]
    lines += [f"  {prefix}{a} -> {prefix}{b};" for a, b in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(L: MultLattice) -> str:
    """The Hasse diagram (cover edges only), bottom-up."""
    return _dot(L.name, "n", L.labels, L.elements, L.covers())


def export_dot_topology(T: FiniteTopology, labels, name: str) -> str:
    """The specialization digraph of a finite topology: an edge p -> q
    whenever q lies in the closure of p, reduced to covers."""
    pts = sorted(T.points)
    reach = {p: T.closures[p] - {p} for p in pts}
    return _dot(name, "p", labels, pts,
                [(p, q) for p in pts for q in sorted(reach[p])
                 if not any(q in reach[r] for r in reach[p])])


def export_dot_spectrum(L: MultLattice) -> str:
    rep = spectrum(L)
    return export_dot_topology(rep.zariski, L.labels, f"Spec({L.name})")


def export_dot_homeo_pair(L: MultLattice, n: int) -> tuple:
    """Paired DOT digraphs for the open-subspace identification: the subspace
    of the spectrum outside V(n), and the spectrum of the interval below n."""
    report = open_subspace_homeo(L, n)
    sub = spectrum(L).zariski.subspace(report.point_map)
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
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    divisors = sorted({*small, *(n // d for d in small)})
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
    small poset: ``chain(n)``, ``antichain(n)``, ``vee`` or ``diamond`` (n 0).
    The poset is its pairs a <= b, and the closure of a point is the points
    below it."""
    if n < 0 or n and kind in ("vee", "diamond"):
        raise BadParams(f"poset {kind!r} cannot have size {n}")
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
    return FiniteTopology(frozenset(pts), {p: frozenset(a for a, b in pairs if b == p)
                                           for p in pts})


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


def cell_choices(L: MultLattice) -> tuple:
    """The values that cell [x][y] of a bounded multiplication table on the
    order of L may take: the elements below x meet y, ascending.  Built once
    per order and shared by every table drawn or listed on it, so it is
    immutable: a tuple of rows of tuples."""
    return _cell_choices(L.order)


@analysis("cell_choices", "order")
def _cell_choices(order: OrderData) -> tuple:
    below = tuple(tuple(y for y in range(order.size) if d >> y & 1)
                  for d in order.masks()[0])
    return tuple(tuple(below[m] for m in row) for row in order.meet_table)


def random_mult_table(L: MultLattice, rng: random.Random):
    """A uniformly random bounded multiplication table on the order of L:
    one ``rng.choice`` per cell, row-major, from the order's shared,
    immutable :func:`cell_choices`."""
    return [[rng.choice(cell) for cell in row] for row in cell_choices(L)]


# Rejection-sampling attempts allowed for the order and for the table.
RANDOM_TRIES = 20000


def random_lattice(size: int, axioms: dict | None = None, seed: int = 0,
                   name: str | None = None) -> MultLattice:
    """A random lattice of the given size with a random bounded table,
    rejection-sampled until the requested axiom flags match, with at most
    ``RANDOM_TRIES`` attempts at each.  A draw scans the requested flags'
    laws alone (:func:`core.law_witness`), up to the first flag that fails.

    ``axioms`` maps property-report flag names to required booleans, e.g.
    ``{"m_distributive": True}``; any other value is refused before a draw.
    Same seed, same lattice.
    """
    if size < 1:
        raise BadParams("size must be positive")
    axioms = axioms or {}
    unknown = set(axioms) - {f.name for f in fields(PropertyReport) if f.type == "bool"}
    if unknown:
        raise BadParams(f"unknown axiom flags {sorted(unknown)}")
    if not_bool := {flag: want for flag, want in axioms.items() if want not in (True, False)}:
        raise BadParams(f"axiom flags take True or False, got {not_bool}")
    rng = random.Random(seed)
    order_attempts = table_attempts = 0
    base = None
    while base is None:
        order_attempts += 1
        if order_attempts > RANDOM_TRIES:
            raise BadParams("could not sample a lattice order; try another seed")
        covers = [(i, j) for i in range(1, size - 1) for j in range(i + 1, size - 1)
                  if rng.random() < 0.35]
        covers += [(0, i) for i in range(size)] + [(i, size - 1) for i in range(size)]
        try:
            base = validate(size=size, covers=covers, mult=lambda x, y: 0,
                            name=name or f"random{size}_s{seed}")
        except LatticeError:
            base = None
    while True:
        table_attempts += 1
        if table_attempts > RANDOM_TRIES:
            raise BadParams("could not sample a table with the requested axioms")
        L = replace_mult(base, random_mult_table(base, rng))
        if all((law_witness(L, flag) is None) == want for flag, want in axioms.items()):
            return L


def int_param(text: str) -> int:
    """An integer parameter: an optional ``-`` and ASCII digits, nothing
    else (no sign ``+``, space, underscore or non-ASCII digit)."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise BadParams(f"expected an integer, got {text!r}")
    return int(text)


# The most parameters each generator takes; "random" takes flags and a seed, each once.
_ARITY = {"chain": 2, "zn": 1, "zn_ideals": 1, "bool": 2, "powerset": 2, "open_sets": 2}


def generate(kind: str, *args) -> MultLattice:
    """Dispatch for the named generators, as used by the CLI ``gen:`` specs."""
    if not args:
        raise BadParams(f"generator {kind!r} needs a parameter")
    if len(args) > _ARITY.get(kind, len(args)):
        raise BadParams(f"generator {kind!r} takes at most {_ARITY[kind]} parameter(s)")
    if kind == "chain":
        return chain(int_param(args[0]), args[1] if len(args) > 1 else "meet")
    if kind in ("zn", "zn_ideals"):
        return zn_ideals(int_param(args[0]))
    if kind in ("bool", "powerset"):
        return powerset_lattice(int_param(args[0]), args[1] if len(args) > 1 else "meet")
    if kind == "open_sets":
        size = int_param(args[1]) if len(args) > 1 else 0
        return open_set_lattice(poset_space(args[0], size), name=f"opens_{args[0]}{size or ''}")
    if kind == "random":
        size = int_param(args[0])
        seed = None
        axioms = {}
        for a in args[1:]:
            if a in axioms or seed is not None and a.startswith("seed="):
                raise BadParams("generator 'random' takes each parameter at most once")
            if a.startswith("seed="):
                seed = int_param(a[5:])
            else:
                axioms[a] = True
        return random_lattice(size, axioms, seed or 0)
    raise BadParams(f"unknown generator {kind!r}")
