"""The stdlib's indented encoder kept as the reference for ``ingest.to_json``.

``to_json`` writes ``json_payload(obj)`` by one recursive pass that appends
pieces to a list; it replaced ``json.dumps(..., sort_keys=True, indent=2)``,
which on CPython runs the pure-Python encoder whenever ``indent`` is set.
The replaced call is kept here as ``reference_to_json`` and both must give
the same bytes: on every payload the ``mlat`` commands print for the named
corpus, and on edge payloads of each JSON type.
"""

import json

import pytest

from multlattice import cli
from multlattice.ingest import export_text, json_payload, to_json
from multlattice.core import BadParams
from multlattice.verify import corpus_named


def reference_to_json(obj) -> str:
    return json.dumps(json_payload(obj), sort_keys=True, indent=2) + "\n"


def lattice_file(tmp_path, L):
    """L as a text file, or as a JSON one when its labels need it."""
    path = tmp_path / f"{L.name}.lat"
    try:
        path.write_text(export_text(L), encoding="utf-8")
    except BadParams:
        path.write_text(reference_to_json(L), encoding="utf-8")
    return str(path)


def commands(L, f):
    """The eight ``query`` command kinds, every ``construct`` kind and the
    JSON export, on each element or pair of L that the kind takes."""
    lab, bottom, top = L.labels, L.labels[L.bottom], L.labels[L.top]
    yield ["validate", f]
    yield ["spec", f]
    yield ["--format", "dot", "spec", f]
    yield ["systems", f]
    yield ["check", "spectrum", f]
    yield ["--format", "json", "export", f]
    yield ["construct", f"product:{f}", f]
    for x in L.elements:
        yield ["families", f, "--family", lab[x]]
        yield ["series", lab[x], f]
        yield ["construct", f"open_homeo:{lab[x]}", f]
        for lo, hi in ((bottom, lab[x]), (lab[x], top)):
            yield ["construct", f"interval:{lo}:{hi}", f]
            yield ["construct", f"disjoint:{lo}:{hi}", f]
            yield ["construct", f"lying:{hi}:{lo}", f]


def test_every_printed_payload_matches_the_reference(tmp_path, monkeypatch, capsys):
    printed = []

    def recording(writer):
        def write(obj):
            printed.append(obj)
            return writer(obj)
        return write

    monkeypatch.setattr(cli, "to_json", recording(cli.to_json))
    monkeypatch.setattr(cli, "report_to_json", recording(cli.report_to_json))
    kinds = {}
    for L in corpus_named():
        f = lattice_file(tmp_path, L)
        for argv in commands(L, f):
            before = len(printed)
            code = cli.main(argv)
            out = capsys.readouterr().out
            kind = argv[0] if argv[0] != "--format" else " ".join(argv[:3])
            kind += argv[1].partition(":")[0] if argv[0] == "construct" else ""
            kinds.setdefault(kind, set()).add(code)
            for obj in printed[before:]:
                assert to_json(obj) == reference_to_json(obj), argv
            if code == 0 and "dot" not in argv:
                assert len(printed) == before + 1
                assert out == reference_to_json(printed[-1]), argv
    # every kind ran and printed on some lattice; construct's hypotheses
    # refuse some (lattice, element) pairs with exit 2
    assert len(kinds) == 13 and all(0 in codes for codes in kinds.values())
    assert len(printed) > 1000


EDGES = [
    {}, [], (), {"a": {}, "b": [], "c": [[]], "d": [{}], "e": ()},
    (1, (2, ()), [3, (4,)]),
    [True, 1, False, 0, None, 1.0, 0.0],
    {"true": True, "one": 1, "false": False, "zero": 0, "none": None},
    "plain", "", "é ⊥ ünïcode", "\x00\x01\x1f\x7f \n\t\r\b\f", 'q"b\\s/',
    "\U0001d400 astral \U0001f600", {"\U0001d400": "  "},
    1.5, -0.0, 1e300, float("inf"), float("nan"), {"x": [2.5, -1e-7]},
    0, -7, 10 ** 30, True, False, None,
    {"b": 1, "a": 2, "B": 3, "é": 4, "10": 5, "9": 6},
]


@pytest.mark.parametrize("payload", EDGES, ids=repr)
def test_edge_payloads_match_the_reference(payload):
    assert to_json(payload) == reference_to_json(payload)

