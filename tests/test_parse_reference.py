"""The two-pass `.lat` reader kept as the reference for ``ingest.parse``.

``parse`` reads either input format as rows of tokens in the text grammar
and checks each row once, mapping labels to indices as it reads.  The reader
it replaced is kept here: a per-line generator (or the JSON payload) fed
``reference_checked_document``, which checked labels into a label-form
``LatticeDocument``, and ``reference_document_to_lattice`` then mapped every
label to its index again.  Both must give the same lattice, or the same
exception class, message, line and witness, on every lattice of the named,
exhaustive <= 4 and seeded random corpora in both exports, on seeded
malformed variants of those exports and on the ``MALFORMED_JSON`` cases.

Two errors moved on purpose.  An error names the column of the offending
token, where the reference named the first place its string appears in the
line (the ``u`` of ``mult`` for an unknown label ``u``).  A missing product
is reported at the end-of-input line, where the reference reported line
``len(elements) + 1``.
"""

import json
import random

import pytest

from multlattice.core import BadParams, LatticeError, build_order, validate
from multlattice.ingest import (LatticeDocument, LatticeSyntaxError, _strip_comment,
                                export_text, parse, to_json)
from multlattice.verify import (corpus_exhaustive_tables, corpus_named,
                                corpus_random_tables)

from test_ingest import MALFORMED_JSON


def reference_parse_document(text: str) -> LatticeDocument:
    def entries():
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = _strip_comment(raw).rstrip()
            if not line.strip():
                continue
            head, *args = line.split()
            if head == "cover":
                args = args[::2] if len(args) == 3 and args[1] == "<" else None
            elif head == "mult" and len(args) == 2 and args[0] == "preset":
                head, args = "mult preset", args[1:]
            elif head == "mult":
                args = [args[0], args[1], args[3]] if len(args) == 4 and args[2] == "=" else None
            yield ln, line, head, args

    return reference_checked_document(entries(), text.count("\n") + 1)


# directive -> (number of labels or strings, the form an error message quotes)
_MULT_FORM = "mult <x> <y> = <z> or mult preset meet|zero"
_FORMS = {"name": (1, "name <string>"), "element": (1, "element <label>"),
          "cover": (2, "cover <a> < <b>"), "mult": (3, _MULT_FORM),
          "mult preset": (1, _MULT_FORM), "generator": (1, "generator <label>")}


def reference_checked_document(entries, last: int) -> LatticeDocument:
    name = "L"
    elements: list = []
    seen = set()
    covers: list = []
    preset = None
    products: dict = {}                # (x, y) -> xy, in input order
    generators: list = []

    def err(msg, ln, line, token=None):
        col = line.find(token) + 1 if token and token in line else 1
        raise LatticeSyntaxError(msg, ln, col)

    for ln, line, head, args in entries:
        if head not in _FORMS:
            err(f"unknown directive {head!r}", ln, line, head)
        arity, form = _FORMS[head]
        if args is None or len(args) != arity:
            err(f"expected: {form}", ln, line)
        if head == "name":
            name = args[0]
        elif head == "element":
            if args[0] in seen:
                err(f"duplicate label {args[0]!r}", ln, line, args[0])
            seen.add(args[0])
            elements.append(args[0])
        elif head == "mult preset":
            if args[0] not in ("meet", "zero"):
                err(f"unknown preset {args[0]!r}", ln, line, args[0])
            if products:
                err("preset cannot be mixed with explicit mult lines", ln, line)
            if preset:
                err("duplicate mult preset", ln, line)
            preset = args[0]
        else:
            if head == "mult" and preset:
                err("explicit mult lines cannot follow a preset", ln, line)
            for t in args:
                if t not in seen:
                    err(f"unknown label {t!r}", ln, line, t)
            if head == "cover":
                covers.append(tuple(args))
            elif head == "generator":
                generators.append(args[0])
            elif (args[0], args[1]) in products:
                err(f"mult {args[0]} {args[1]} is already given", ln, line, args[0])
            else:
                products[args[0], args[1]] = args[2]

    if not elements:
        raise LatticeSyntaxError("no elements declared", last)
    if preset is None and not products:
        raise LatticeSyntaxError("no multiplication given", last)
    return LatticeDocument(name, tuple(elements), tuple(covers), preset,
                           tuple((x, y, z) for (x, y), z in products.items()),
                           tuple(generators) or None)


def reference_document_to_lattice(doc: LatticeDocument):
    index = {label: i for i, label in enumerate(doc.elements)}
    n = len(doc.elements)
    covers = [(index[a], index[b]) for a, b in doc.covers]
    order = build_order(size=n, covers=covers)
    if doc.mult_preset == "meet":
        table = order.meet_table
    elif doc.mult_preset == "zero":
        table = ((order.bottom,) * n,) * n
    else:
        cells = [None] * (n * n)           # row-major
        for x, y, z in doc.mult_triples:
            cells[index[x] * n + index[y]] = index[z]
        if None in cells:
            x, y = divmod(cells.index(None), n)
            raise LatticeSyntaxError(
                f"mult is not total: missing {doc.elements[x]} {doc.elements[y]}",
                len(doc.elements) + 1)
        table = tuple(tuple(cells[i:i + n]) for i in range(0, n * n, n))
    gens = None if doc.generators is None else [index[g] for g in doc.generators]
    return validate(order=order, mult=table, generators=gens,
                    labels=doc.elements, name=doc.name)


def reference_document_from_json(text: str) -> LatticeDocument:
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

    def strings(args):
        ok = isinstance(args, list) and all(isinstance(a, str) for a in args)
        return args if ok else None

    mult = field(payload, "mult", dict)
    entries = [("name", [payload.get("name", "L")])]
    entries += [("element", [label]) for label in field(payload, "elements", list)]
    entries += [("cover", c) for c in field(payload, "covers", list)]
    if mult.get("preset") is not None:
        entries.append(("mult preset", [mult["preset"]]))
    entries += [("mult", t) for t in field(mult, "triples", list)]
    entries += [("generator", [g]) for g in field(payload, "generators", list)]
    return reference_checked_document(
        [(1, "", head, strings(args)) for head, args in entries], text.count("\n") + 1)


def reference_parse(text: str):
    text = text.removeprefix("\ufeff")
    if text.lstrip().startswith("{"):
        return reference_document_to_lattice(reference_document_from_json(text))
    return reference_document_to_lattice(reference_parse_document(text))


def outcome(read, text):
    """What ``read(text)`` gives: ("ok", value) or ("raised", exception)."""
    try:
        return "ok", read(text)
    except LatticeError as exc:
        return "raised", exc


def assert_same(text, read, reference):
    """``read`` and ``reference`` agree on ``text`` up to the two moved
    errors; True when the error's column moved."""
    (kind, got), (ref_kind, want) = outcome(read, text), outcome(reference, text)
    assert (kind, type(got)) == (ref_kind, type(want)), (text, got, want)
    if kind == "ok":
        assert got == want, text
        return False
    if not isinstance(got, LatticeSyntaxError):
        assert str(got) == str(want) and got.witness == want.witness, text
        return False
    message = str(got).split(": ", 1)[1]
    assert message == str(want).split(": ", 1)[1], (text, got, want)
    body = text.removeprefix("\ufeff") if read is parse else text
    if message.startswith("mult is not total"):
        # reported at the end of input, where the reference named len(elements) + 1
        assert (got.line, got.column, want.column) == (body.count("\n") + 1, 1, 1), text
        return False
    assert got.line == want.line, (text, got, want)
    if got.column == want.column:
        return False
    # the offending token itself, where the reference found its first occurrence
    line = body.splitlines()[got.line - 1]
    token = line[got.column - 1:].split()[0]
    assert line.find(token) + 1 == want.column < got.column, (text, got, want)
    assert line[got.column - 2].isspace(), (text, got)
    return True


def exports(lattices):
    """Each lattice's JSON export, and its text export where it has one."""
    for L in lattices:
        yield to_json(L)
        try:
            yield export_text(L)
        except BadParams:
            pass


def malformed(text, rng):
    """Seeded broken copies of ``text``: a line dropped, duplicated or swapped
    with its neighbour, a token replaced by an unknown label, a comment
    inserted and a byte-order mark added."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    j = min(i + 1, len(lines) - 1)
    swapped = list(lines)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    # labels that directive names contain, so the first occurrence is elsewhere
    unknown = rng.choice([u for u in ("u", "e", "n", "o", "zz")
                          if u not in text.split() and f'"{u}"' not in text])
    replaced = lines[i].split() or [""]
    replaced[rng.randrange(len(replaced))] = f'"{unknown}",' if text.startswith("{") else unknown
    return ["\n".join(lines[:i] + lines[i + 1:]) + "\n",
            "\n".join(lines[:i + 1] + lines[i:]) + "\n",
            "\n".join(swapped) + "\n",
            "\n".join(lines[:i] + [" ".join(replaced)] + lines[i + 1:]) + "\n",
            "\n".join(lines[:i] + ["# a comment", lines[i] + " # trailing"] + lines[i + 1:]) + "\n",
            "\ufeff" + text]


@pytest.fixture(scope="module")
def corpus_exports():
    lattices = corpus_named() + corpus_exhaustive_tables(4)
    return list(exports(lattices + corpus_random_tables(1000, 1729)))


def test_parse_matches_the_two_pass_reader_on_every_export(corpus_exports):
    for text in corpus_exports:
        assert_same(text, parse, reference_parse)


def test_parse_matches_the_two_pass_reader_on_malformed_exports(corpus_exports):
    """Every kind of break on each named-corpus export, and one seeded kind
    on each export of the three corpora."""
    rng = random.Random(45)
    variants = [v for text in exports(corpus_named()) for v in malformed(text, rng)]
    variants += [rng.choice(malformed(text, rng)) for text in corpus_exports]
    raised = moved = 0
    for variant in variants:
        moved += assert_same(variant, parse, reference_parse)
        raised += outcome(parse, variant)[0] == "raised"
    assert len(variants) > raised > len(variants) // 2 and moved > 50


@pytest.mark.parametrize("case", sorted(MALFORMED_JSON))
def test_parse_matches_the_two_pass_reader_on_malformed_json(case):
    assert_same(MALFORMED_JSON[case][0], parse, reference_parse)
