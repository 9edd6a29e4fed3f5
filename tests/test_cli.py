import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from multlattice import cli, core
from multlattice.cli import main
from multlattice.core import TheoremViolation
from multlattice.constructions import interval
from multlattice.ingest import (export_dot, export_dot_spectrum, export_text, to_json,
                                zn_ideals)
from multlattice.verify import corpus_named
from test_ingest import MALFORMED_JSON

DATA = Path(__file__).parent / "data"


@pytest.fixture
def z12_file(tmp_path):
    path = tmp_path / "z12.lat"
    path.write_text(export_text(zn_ideals(12)), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_file(capsys, z12_file):
    code, out, _ = run(capsys, "validate", z12_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 6 and payload["axioms"]["m_distributive"]


def test_spec_json_and_dot(capsys):
    code, out, _ = run(capsys, "spec", "gen:zn:12")
    assert code == 0
    payload = json.loads(out)
    assert payload["primes"] == [1, 2]

    code, out, _ = run(capsys, "--format", "dot", "spec", "gen:zn:12")
    assert code == 0 and out.startswith("digraph")


def test_check_single_lattice(capsys):
    code, out, err = run(capsys, "check", "all", "gen:chain:3:zero")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert "checks:" in err


def test_check_named_corpus(capsys):
    code, out, _ = run(capsys, "check", "axioms", "--corpus", "named")
    assert code == 0
    assert json.loads(out)["failed"] == 0


def test_check_exhaustive_corpus_above_four_is_bad_input(capsys):
    code, out, err = run(capsys, "check", "all", "--corpus", "exhaustive:5")
    assert code == 2 and out == ""
    assert "BadParams" in err


@pytest.mark.parametrize("spec, takes, extra", [("named:foo", 0, "foo"),
                                                ("exhaustive:2:9", 1, "9"),
                                                ("random:3:x:y", 1, "x:y")])
def test_a_corpus_refuses_extra_parameters_by_name(capsys, spec, takes, extra):
    code, out, err = run(capsys, "check", "axioms", "--corpus", spec)
    assert (code, out) == (2, "")
    kind = spec.partition(":")[0]
    assert err == (f"error: BadParams: corpus {kind!r} takes at most {takes} "
                   f"parameter(s), got extra {extra!r}\n")


def test_check_refuses_an_input_together_with_a_corpus(capsys):
    code, out, err = run(capsys, "check", "axioms", "gen:chain:2", "--corpus",
                         "exhaustive:1")
    assert (code, out) == (2, "")
    assert err == "error: BadParams: check takes an input or --corpus, not both\n"


@pytest.mark.parametrize("argv", [
    ("spec", "gen:chain:abc"),
    ("spec", "gen:random:5:bogus"),
    ("construct", "interval:(2)", "gen:zn:12"),
    ("check", "nosuch", "gen:zn:12"),
    ("check", "all", "--corpus", "exhaustive:x"),
    ("check", "all", "--corpus", "random:-5"),
    ("check", "all", "--corpus", "random:0"),
    ("check", "all", "--corpus", "exhaustive:0"),
    ("check", "axioms", "--corpus", "named:foo"),
    ("check", "axioms", "--corpus", "exhaustive:2:9"),
    ("check", "axioms", "--corpus", "random:3:x"),
    ("check", "axioms", "--corpus", "foo:1:2"),
    ("check", "axioms"),
    ("validate", "gen:zn:4:x"),
    ("validate", "gen:chain:3:meet:extra"),
    ("validate", "gen:random:4:seed=1:seed=2"),
    ("validate", "gen:random:4:monotone:monotone"),
    ("validate", "gen:open_sets:vee:7"),
    ("validate", "gen:open_sets:antichain:-2"),
    ("validate", "gen:open_sets:diamond:1"),
    ("families", "--family", "", "gen:zn:12"),
    ("validate", "gen:chain:1_0"),
    ("validate", "gen:zn:\u0661\u0662"),
    ("validate", "gen:chain:+3"),
    ("validate", "gen:chain: 3"),
])
def test_bad_input_exits_2_with_one_error_line(capsys, argv):
    # an empty element token is an unknown element, as any other would be
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    kind = "LatticeError: unknown element ''" if "" in argv else "BadParams: "
    assert err.startswith(f"error: {kind}") and err.count("\n") == 1


def test_theorem_violation_exits_1_with_one_error_line(capsys, monkeypatch):
    def spectrum(L):
        raise TheoremViolation("planted failure")

    monkeypatch.setattr(cli, "spectrum", spectrum)
    code, out, err = run(capsys, "spec", "gen:zn:12")
    assert code == 1 and out == ""
    assert err == "error: TheoremViolation: planted failure\n"


def test_validate_refuses_a_scan_that_disagrees_with_the_flag(capsys, monkeypatch):
    # zn12 is m-distributive, so a planted subset-pair witness contradicts
    # the derived arbitrary-join flag: a failed verification, exit 1.
    monkeypatch.setattr(core, "subset_pair_witness", lambda L: ((0,), (0,)))
    code, out, err = run(capsys, "validate", "gen:zn:12")
    assert code == 1 and out == ""
    assert err.startswith("error: TheoremViolation: ") and err.count("\n") == 1


def test_parser_is_built_once():
    assert cli._parser() is cli._parser()


SOUND_COMMANDS = [("spec", "gen:zn:12"), ("series", "(2)", "gen:zn:12"),
                  ("--format", "dot", "validate", "gen:chain:3:meet"),
                  ("families", "--family", "(2),(3)", "gen:zn:12")]


def test_a_usage_error_leaves_later_commands_unchanged(capsys):
    alone = []
    for argv in SOUND_COMMANDS:
        cli._parser.cache_clear()
        alone.append(run(capsys, *argv))
    for argv in (["bogus"], ["series", "(2)"], ["--format", "xml", "spec", "gen:zn:12"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    assert [run(capsys, *argv) for argv in SOUND_COMMANDS] == alone
    assert all(code == 0 and out for code, out, _ in alone)


def test_series_by_label(capsys):
    code, out, _ = run(capsys, "series", "(2)", "gen:zn:12")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "SeriesReport"


def test_systems_survey(capsys):
    code, out, _ = run(capsys, "systems", "gen:chain:3:meet")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["saturated_m_systems"]) == 3


def test_systems_survey_above_the_cap(capsys):
    # 64 elements: the 64 principal filters, each listed once.
    code, out, _ = run(capsys, "systems", "gen:bool:6")
    assert code == 0
    systems = json.loads(out)["saturated_m_systems"]
    assert len(systems) == len(set(map(tuple, systems))) == 64


def test_systems_survey_skips_complement_part_when_not_monotone(capsys):
    # A valid lattice is not bad input: the gated part is reported as
    # skipped, the rest of the survey still runs.
    code, out, err = run(capsys, "systems", "gen:random:5")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["skipped"] == {"complement_systems": "not monotone"}
    assert "complement_systems" not in payload
    assert payload["saturated_m_systems"]


def test_construct_ops(capsys):
    code, out, _ = run(capsys, "construct", "interval:(6):(1)", "gen:zn:12")
    assert code == 0
    assert json.loads(out)["elements"] == ["(1)", "(2)", "(3)", "(6)"]

    code, out, _ = run(capsys, "construct", "lying:(2):(6)", "gen:zn:12")
    assert code == 0
    assert json.loads(out)["prime"] == "(3)"

    for op, disjoint in (("disjoint:(2):(3)", True), ("disjoint:(4):(6)", False)):
        code, out, _ = run(capsys, "construct", op, "gen:zn:12")
        payload = json.loads(out)
        assert code == 0
        assert (payload["v1_v2_disjoint"], payload["cover"]) == (disjoint, True)

    code, out, _ = run(capsys, "construct", "open_homeo:(2)", "gen:zn:12")
    assert code == 0
    assert json.loads(out)["point_map"] == {"2": 2}


DOT_COMMANDS = [("validate", "gen:zn:12"), ("spec", "gen:zn:12"),
                ("construct", "interval:(6):(1)", "gen:zn:12"), ("export", "gen:zn:12")]


def test_dot_text_is_built_only_under_format_dot(capsys, monkeypatch):
    Z = zn_ideals(12)
    expected = [export_dot(Z), export_dot_spectrum(Z),
                export_dot(interval(Z, 4, 0).lattice), export_dot(Z)]
    assert [run(capsys, "--format", "dot", *argv) for argv in DOT_COMMANDS] == [
        (0, dot, "") for dot in expected]
    others = DOT_COMMANDS + [("--format", "text", "export", "gen:zn:12")]
    before = [run(capsys, *argv) for argv in others]

    def refuse(L):
        raise AssertionError(f"DOT text of {L.name} built for another format")

    monkeypatch.setattr(cli, "export_dot", refuse)
    monkeypatch.setattr(cli, "export_dot_spectrum", refuse)
    assert [run(capsys, *argv) for argv in others] == before
    assert all(code == 0 for code, _, _ in before)


def test_export_roundtrip_via_cli(capsys, z12_file):
    code, out, _ = run(capsys, "--format", "text", "export", z12_file)
    assert code == 0
    assert out == export_text(zn_ideals(12))


def test_generate_command(capsys):
    code, out, _ = run(capsys, "generate", "chain", "3", "meet")
    assert code == 0
    assert "mult preset meet" in out


def test_syntax_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.lat"
    bad.write_text("element a\nelement a\n", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "syntax error" in err


@pytest.mark.parametrize("case", sorted(MALFORMED_JSON))
def test_malformed_json_on_stdin_exits_2(capsys, monkeypatch, case):
    monkeypatch.setattr("sys.stdin", io.StringIO(MALFORMED_JSON[case][0]))
    code, out, err = run(capsys, "validate", "-")
    assert code == 2 and out == ""
    assert err.startswith("syntax error: ") and err.count("\n") == 1


def test_a_byte_order_mark_is_accepted(capsys, monkeypatch, tmp_path):
    # an editor's UTF-8 byte-order mark, before either export format, in a
    # file or on stdin: the same output as without it
    L = zn_ideals(12)
    for text in (export_text(L), to_json(L)):
        plain, marked = tmp_path / "plain.lat", tmp_path / "marked.lat"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        expected = run(capsys, "validate", str(plain))
        assert expected[0] == 0 and json.loads(expected[1])["size"] == 6
        assert run(capsys, "validate", str(marked)) == expected
        monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + text))
        assert run(capsys, "validate", "-") == expected


def test_corrupted_table_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.lat"
    bad.write_text("element 0\nelement 1\ncover 0 < 1\n"
                   "mult 0 0 = 0\nmult 0 1 = 1\nmult 1 0 = 0\nmult 1 1 = 1\n",
                   encoding="utf-8")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "MultNotBounded" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/file.lat")
    assert code == 2


@pytest.mark.parametrize("kind", ["directory", "non-utf8", "product-directory"])
def test_unreadable_input_exits_2_with_one_error_line(capsys, tmp_path, kind):
    binary = tmp_path / "binary.lat"
    binary.write_bytes(b"element \xff\xfe\n")
    argv = {"directory": ("validate", str(tmp_path)),
            "non-utf8": ("validate", str(binary)),
            "product-directory": ("construct", f"product:{tmp_path}", "gen:zn:12")}
    code, out, err = run(capsys, *argv[kind])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_identical_invocations_byte_identical(capsys):
    _, out1, _ = run(capsys, "--seed", "5", "check", "spectrum", "--corpus", "random:20")
    _, out2, _ = run(capsys, "--seed", "5", "check", "spectrum", "--corpus", "random:20")
    assert out1 == out2


def test_open_homeo_emits_paired_digraphs(capsys):
    code, out, _ = run(capsys, "--format", "dot", "construct",
                       "open_homeo:(2)", "gen:zn:12")
    assert code == 0
    assert out.count("digraph") == 2
    assert 'label="(3)"' in out and 'label="(6)"' in out


def test_families_default_to_the_family_of_top(capsys):
    code, out, _ = run(capsys, "families", "gen:zn:12")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == [0]
    assert all(payload[flag] for flag in ("left_oka", "right_oka", "oka", "ako"))


def test_families_with_explicit_family(capsys):
    code, out, _ = run(capsys, "families", "gen:zn:12", "--family", "(1),(2)")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "FamilyReport"


@pytest.fixture
def truncated_file(capsys, tmp_path):
    # chain(4, "truncated_add") has the labels -inf, -2, -1, 0
    code, out, _ = run(capsys, "generate", "chain", "4", "truncated_add")
    assert code == 0
    path = tmp_path / "t.lat"
    path.write_text(out, encoding="utf-8")
    return str(path)


def test_series_of_a_label_that_starts_with_a_dash(capsys, truncated_file):
    code, out, err = run(capsys, "series", "-inf", truncated_file)
    assert code == 0, err
    assert json.loads(out)["element"] == 0


@pytest.mark.parametrize("token", ["\u0663", "1_0", "+1", " 1", "-0", "12"])
def test_element_index_is_ascii_digits(capsys, token):
    # int() reads an Arabic-Indic three, digits with an underscore, a sign
    # or surrounding spaces; an index is ASCII digits only, and below size
    code, out, err = run(capsys, "series", token, "gen:chain:12:meet")
    assert (code, out) == (2, "")
    assert err.startswith("error: LatticeError: ") and err.count("\n") == 1


def test_element_label_comes_before_index(capsys, truncated_file):
    # the labels are -inf, -2, -1, 0: "0" names the top, "1" the index
    for token, element in (("-1", 2), ("0", 3), ("1", 1)):
        code, out, err = run(capsys, "series", token, truncated_file)
        assert code == 0, err
        assert json.loads(out)["element"] == element


@pytest.mark.parametrize("family, members", [
    ("-inf", [0]),                 # a label that starts with a dash
    ("-inf,-1", [0, 2]),           # a comma list of such labels
])
def test_family_of_labels_that_start_with_a_dash(capsys, truncated_file, family, members):
    code, out, err = run(capsys, "families", truncated_file, "--family", family)
    assert code == 0, err
    assert json.loads(out)["family"] == members


def test_family_value_that_is_a_label_with_commas(capsys):
    # the opens of the vee space are labelled like "{0,1,2}"; a value that
    # is itself a label names that one element instead of a list
    code, out, err = run(capsys, "families", "gen:open_sets:vee", "--family", "{0,1,2}")
    assert code == 0, err
    assert json.loads(out)["family"] == [4]


def test_construct_product(capsys, z12_file):
    # chain 2 has the prime 0 below its top 1; z12 has the primes (2) = 1
    # and (3) = 2 below its top (1) = 0.  Pair (i, j) is element i * n2 + j.
    code, out, _ = run(capsys, "construct", f"product:{z12_file}", "gen:chain:2:meet")
    assert code == 0
    payload = json.loads(out)
    assert (payload["left_part"], payload["right_part"]) == ([0], [7, 8])
    assert {"partition_ok", "clopen_ok", "homeomorphic_ok"}.isdisjoint(payload)

    # the factor may be a generator spec, colons included
    code, out, _ = run(capsys, "construct", "product:gen:chain:2:meet", "gen:zn:12")
    assert code == 0
    payload = json.loads(out)
    assert (payload["left_part"], payload["right_part"]) == ([3, 5], [0])


# Generated lattices for the validate pin: non-m-distributive tables of 5
# and 6 elements, whose output carries the subset-pair witness, and lattices
# above 6 elements, on both sides of the flag.
VALIDATE_SPECS = ("gen:random:5", "gen:random:5:seed=1", "gen:random:6",
                  "gen:random:6:seed=2", "gen:random:6:monotone",
                  "gen:random:7", "gen:bool:3:zero")


def validate_digests(tmp_path):
    """SHA-256 of ``mlat validate`` stdout for every named-corpus lattice,
    read back from its ``export_text`` file, and for ``VALIDATE_SPECS``."""
    inputs = {}
    for L in corpus_named():
        path = tmp_path / f"{L.name}.lat"
        path.write_text(export_text(L), encoding="utf-8")
        inputs[L.name] = str(path)
    inputs.update((spec, spec) for spec in VALIDATE_SPECS)
    out = {}
    for key, source in inputs.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["validate", source]) == 0, key
        out[key] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return out


def test_validate_output_matches_recorded_digests(tmp_path):
    expected = json.loads((DATA / "validate_digests.json").read_text())
    del expected["comment"]
    assert validate_digests(tmp_path) == expected
