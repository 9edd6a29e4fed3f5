import json

import pytest

from multlattice.cli import main
from multlattice.ingest import export_text, zn_ideals


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


@pytest.mark.parametrize("argv", [
    ("spec", "gen:chain:abc"),
    ("spec", "gen:random:5:bogus"),
    ("construct", "interval:(2)", "gen:zn:12"),
    ("check", "nosuch", "gen:zn:12"),
    ("check", "all", "--corpus", "exhaustive:x"),
])
def test_bad_input_exits_2_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: BadParams: ") and err.count("\n") == 1


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


def test_construct_ops(capsys):
    code, out, _ = run(capsys, "construct", "interval:(6):(1)", "gen:zn:12")
    assert code == 0
    assert json.loads(out)["elements"] == ["(1)", "(2)", "(3)", "(6)"]

    code, out, _ = run(capsys, "construct", "lying:(2):(6)", "gen:zn:12")
    assert code == 0
    assert json.loads(out)["prime"] == "(3)"


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


def test_families_with_explicit_family(capsys):
    code, out, _ = run(capsys, "families", "gen:zn:12", "--family", "(1),(2)")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "FamilyReport"


def test_construct_product(capsys, z12_file):
    code, out, _ = run(capsys, "construct", f"product:{z12_file}", "gen:chain:2:meet")
    assert code == 0
    assert json.loads(out)["partition_ok"]

    # the factor may be a generator spec, colons included
    code, out, _ = run(capsys, "construct", "product:gen:chain:2:meet", "gen:zn:12")
    assert code == 0
    assert json.loads(out)["partition_ok"]
