import itertools
import json
import random

import pytest

from multlattice import core, ingest, verify
from multlattice.core import MultNotBounded, build_order, check_axioms, validate
from multlattice.ingest import (LatticeSyntaxError, chain, export_dot,
                                export_dot_spectrum, export_text, generate,
                                lattice_to_document, open_set_lattice, parse,
                                poset_space, powerset_lattice, random_lattice,
                                to_json, zn_ideals)
from multlattice.families import pip_check, pip_exhaustive, sigma_of_mask
from multlattice.series import series
from multlattice.spectrum import FiniteTopology, spectrum
from multlattice.systems import m_system_masks

from conftest import corpus_hundred


MINIMAL = """\
name two
element 0
element 1
cover 0 < 1
mult preset meet
"""

DIAMOND = """\
element bot
element x
element y
element top
cover bot < x
cover bot < y
cover x < top
cover y < top
mult preset meet
"""


def test_parse_minimal_two_chain():
    L = parse(MINIMAL)
    assert L.size == 2 and L.name == "two"
    assert L.mult(1, 1) == 1


def test_parse_builds_the_order_once(monkeypatch):
    """One pass: one order, one validate call and no label-form document."""
    calls = {"build_order": 0, "validate": 0, "LatticeDocument": 0}

    def counting(name, wrapped):
        def call(*args, **kwargs):
            calls[name] += 1
            return wrapped(*args, **kwargs)
        return call

    for name in calls:
        wrapper = counting(name, getattr(ingest, name))
        monkeypatch.setattr(ingest, name, wrapper)
        monkeypatch.setattr(core, name, wrapper, raising=False)
    for text in (DIAMOND, to_json(parse(DIAMOND))):
        calls.update(dict.fromkeys(calls, 0))
        parse(text)
        assert calls == {"build_order": 1, "validate": 1, "LatticeDocument": 0}


def test_parse_diamond_preset_expansion():
    L = parse(DIAMOND)
    assert L.size == 4
    assert L.mult(1, 2) == 0   # x ^ y = bot
    assert L.labels == ("bot", "x", "y", "top")


def test_duplicate_label_location():
    with pytest.raises(LatticeSyntaxError) as exc:
        parse("element a\nelement a\nmult preset meet\n")
    assert exc.value.line == 2
    assert exc.value.column == 9


@pytest.mark.parametrize("text, line, column, message", [
    ("  elemant a\n", 1, 3, "unknown directive 'elemant'"),
    ("name n\nelement n\nelement n\n", 3, 9, "duplicate label 'n'"),
    ("element a\nelement b\ncover a < e\n", 3, 11, "unknown label 'e'"),
    ("element a\nelement b\ncover  a  <  b  <\n", 3, 1, "expected: cover <a> < <b>"),
    ("element a\nelement b\ncover a < b\nmult a u = a\n", 4, 8, "unknown label 'u'"),
    ("element a\nmult a o = u\n", 2, 8, "unknown label 'o'"),    # the first of two
    ("element m\nelement x\nmult m x = m\nmult m x = x\n", 4, 6, "mult m x is already given"),
    ("element e\nmult preset e\n", 2, 13, "unknown preset 'e'"),
    ("element a\nmult preset meet\nmult preset zero\n", 3, 1, "duplicate mult preset"),
    ("element o\ngenerator o\ngenerator o o\n", 3, 1, "expected: generator <label>"),
    ("element t\ngenerator o\n", 2, 11, "unknown label 'o'"),
    ("element a\n\tgenerator\tt  # t\n", 2, 12, "unknown label 't'"),
])
def test_an_error_names_the_column_of_its_token(text, line, column, message):
    """The column is where the offending token starts, even where its string
    appears earlier in the line (the 'e' of 'element', the 'u' of 'mult')."""
    with pytest.raises(LatticeSyntaxError) as exc:
        parse(text)
    assert str(exc.value) == f"line {line}, column {column}: {message}"
    assert exc.value.witness == (line, column)


def test_unknown_label_and_directive():
    with pytest.raises(LatticeSyntaxError):
        parse("element a\ncover a < b\nmult preset meet\n")
    with pytest.raises(LatticeSyntaxError):
        parse("elemant a\n")


def test_partial_mult_table_rejected():
    text = "element a\nelement b\ncover a < b\nmult a a = a\n"
    with pytest.raises(LatticeSyntaxError):
        parse(text)


def test_a_second_mult_line_for_a_pair_is_refused():
    text = "element 0\nelement 1\ncover 0 < 1\nmult preset meet\n"
    table = "mult 0 0 = 0\nmult 0 1 = 0\nmult 1 0 = 0\nmult 1 1 = 1\n"
    parse(text.replace("mult preset meet\n", table))
    with pytest.raises(LatticeSyntaxError) as exc:
        parse(text.replace("mult preset meet\n", table + "mult 1 1 = 0\n"))
    assert (exc.value.line, exc.value.column) == (8, 6)
    assert "mult 1 1 is already given" in str(exc.value)


def test_the_first_missing_product_is_named():
    text = "element a\nelement b\ncover a < b\nmult a a = a\nmult b b = b\nmult b a = a\n"
    with pytest.raises(LatticeSyntaxError) as exc:
        parse(text)
    # at the end-of-input line, as "no elements declared" is
    assert str(exc.value) == "line 7, column 1: mult is not total: missing a b"
    with pytest.raises(LatticeSyntaxError) as exc:
        parse(text.replace("mult b a = a", "mult a b = a"))
    assert str(exc.value) == "line 7, column 1: mult is not total: missing b a"
    with pytest.raises(LatticeSyntaxError) as exc:
        parse(text.rstrip("\n"))
    assert str(exc.value) == "line 6, column 1: mult is not total: missing a b"


def test_a_byte_order_mark_is_read_as_nothing(named_corpus):
    for L in named_corpus:
        texts = [to_json(L)] + ([export_text(L)] if " " not in "".join(L.labels) else [])
        for text in texts:
            assert parse("\ufeff" + text) == parse(text) == L, L.name
    # one mark, as an editor writes it, and no more
    with pytest.raises(LatticeSyntaxError) as exc:
        parse("\ufeff\ufeff" + MINIMAL)
    assert "unknown directive '\\ufeffname'" in str(exc.value)


def test_preset_and_triples_cannot_mix():
    text = "element a\nmult preset meet\nmult a a = a\n"
    with pytest.raises(LatticeSyntaxError):
        parse(text)


def test_corrupted_mult_table_surfaces_boundedness_witness():
    text = ("element 0\nelement 1\ncover 0 < 1\n"
            "mult 0 0 = 0\nmult 0 1 = 1\nmult 1 0 = 0\nmult 1 1 = 1\n")
    with pytest.raises(MultNotBounded) as exc:
        parse(text)
    assert exc.value.witness == (0, 1)


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nname c\nelement a  # trailing\nmult preset zero\n"
    assert parse(text).name == "c"


def reference_strip_comment(raw):
    """The character scan the parser used before: a comment starts at a '#'
    that opens the line or follows a space or tab."""
    if raw.lstrip().startswith("#"):
        return ""
    for i, ch in enumerate(raw):
        if ch == "#" and raw[i - 1] in " \t":
            return raw[:i]
    return raw


def test_comment_stripping_matches_the_character_scan():
    rng = random.Random(5)
    # letters, the two comment separators, and Unicode spaces that lstrip drops
    alphabet = [" ", "\t", "#", "a", "b", "\u00a0", "\u2003", "\u3000"]
    lines = ["", "#", " #", "\t#", "a#b", "a #b #c", "a\t#b #c", "a #b\t#c"]
    lines += ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
              for _ in range(20000)]
    for raw in lines:
        assert ingest._strip_comment(raw) == reference_strip_comment(raw), repr(raw)


def test_chain_generators_prime_sets():
    for k in range(2, 7):
        meet = chain(k, "meet")
        assert spectrum(meet).primes == frozenset(range(k - 1))
        zero = chain(k, "zero")
        assert spectrum(zero).primes == frozenset()


def test_truncated_add_values_and_primes():
    L = chain(5, "truncated_add")
    n = L.size
    for i in range(n):
        for j in range(n):
            assert L.mult(i, j) == max(0, i + j - (n - 1))
    # only the coatom stays prime in a truncation: the clipped bottom loses
    # the primality its untruncated counterpart has
    assert spectrum(L).primes == frozenset({n - 2})
    assert L.labels == ("-inf", "-3", "-2", "-1", "0")


def test_zn_ideals_shape():
    L = zn_ideals(12)
    assert L.size == 6
    assert L.labels[L.bottom] == "(12)" and L.labels[L.top] == "(1)"
    ax = check_axioms(L)
    assert ax.commutative and ax.associative and ax.infinitely_m_distributive


def test_powerset_zero_mult_is_hyperabelian_carrier():
    L = powerset_lattice(2, "zero")
    assert spectrum(L).primes == frozenset()


def test_open_set_lattice_is_a_frame():
    sier = open_set_lattice(poset_space("chain", 2), name="sier")
    ax = check_axioms(sier)
    assert ax.infinitely_m_distributive
    assert sier.size == 3
    with pytest.raises(Exception):
        open_set_lattice(FiniteTopology(frozenset({0, 1}),
                                        {0: frozenset({0, 1}), 1: frozenset({0, 1})}))


def test_generate_dispatch():
    assert generate("chain", "4", "zero").size == 4
    assert generate("zn", "30").size == 8
    assert generate("bool", "2").size == 4
    assert generate("open_sets", "vee").size > 1
    assert generate("open_sets", "chain", "0").size == 1
    assert generate("random", "5", "seed=3", "m_distributive").size == 5


def test_an_open_set_frame_has_one_name():
    # the name reads the parsed size and leaves out the default size 0
    assert {generate("open_sets", *a).name for a in (("vee",), ("vee", "0"))} == {"opens_vee"}
    assert {generate("open_sets", "chain", s).name for s in ("2", "02")} == {"opens_chain2"}


def test_random_lattice_deterministic():
    a = random_lattice(6, {"monotone": True}, seed=11)
    b = random_lattice(6, {"monotone": True}, seed=11)
    assert a == b
    assert check_axioms(a).monotone


def test_random_lattice_raises_when_no_table_has_the_requested_laws():
    # m-distributivity implies monotonicity, so every draw is rejected
    with pytest.raises(core.BadParams,
                       match="^could not sample a table with the requested axioms$"):
        random_lattice(3, {"m_distributive": True, "monotone": False}, seed=0)


def test_random_lattice_refuses_a_requested_value_other_than_true_or_false(monkeypatch):
    # refused before any table is drawn
    monkeypatch.setattr(ingest, "random_mult_table", None)
    with pytest.raises(core.BadParams, match="^axiom flags take True or False"):
        random_lattice(4, {"m_distributive": "yes"}, seed=1)
    with pytest.raises(core.BadParams, match="None"):
        random_lattice(4, {"monotone": True, "commutative": None}, seed=1)
    monkeypatch.undo()
    # 1 and 0 compare equal to True and False
    assert random_lattice(4, {"monotone": 1, "commutative": 0}, seed=1) == random_lattice(
        4, {"monotone": True, "commutative": False}, seed=1)


def reference_random_lattice(size, axioms, seed, rng_states):
    """The sampler as it was when each draw built the full ``check_axioms``
    report and read the requested flags off it; the generator's final state
    is appended to ``rng_states``."""
    rng = random.Random(seed)
    order_attempts = table_attempts = 0
    base = None
    while base is None:
        order_attempts += 1
        if order_attempts > ingest.RANDOM_TRIES:
            raise core.BadParams("could not sample a lattice order; try another seed")
        covers = [(i, j) for i in range(1, size - 1) for j in range(i + 1, size - 1)
                  if rng.random() < 0.35]
        covers += [(0, i) for i in range(size)] + [(i, size - 1) for i in range(size)]
        try:
            base = validate(size=size, covers=covers, mult=lambda x, y: 0,
                            name=f"random{size}_s{seed}")
        except core.LatticeError:
            base = None
    while True:
        table_attempts += 1
        if table_attempts > ingest.RANDOM_TRIES:
            rng_states.append(rng.getstate())
            raise core.BadParams("could not sample a table with the requested axioms")
        L = core.replace_mult(base, ingest.random_mult_table(base, rng))
        report = check_axioms(L)
        if all(getattr(report, flag) == want for flag, want in axioms.items()):
            rng_states.append(rng.getstate())
            return L


SAMPLER_FLAGS = [
    {}, {"m_distributive": True}, {"m_distributive": False}, {"monotone": False},
    {"infinitely_m_distributive": True}, {"commutative": True}, {"commutative": False},
    {"associative": True, "commutative": False}, {"monotone": True, "associative": False},
    {"commutative": True, "m_distributive": True},
]


@pytest.mark.parametrize("size, cases", [
    *(pytest.param(size, [(flags, seed) for seed in range(3) for flags in SAMPLER_FLAGS],
                   id=f"grid{size}") for size in range(1, 7)),
    pytest.param(5, [({"m_distributive": True}, 7), ({"m_distributive": True}, 21)],
                 id="named5"),
    pytest.param(6, [({"monotone": True}, 3)], id="named6"),
])
def test_random_lattice_draws_what_the_full_report_sampler_drew(monkeypatch, size, cases):
    # Reading each requested flag from its own law scan changes no draw: the
    # same lattice, or the same refusal, and the generator left in the same
    # state.  The generator is caught as it is passed to random_mult_table.
    # The flag grid runs on 400 attempts a table, so that each refusal (on
    # one and two elements most flag sets cannot be met) stays cheap; the
    # named corpus's three samples run on the full budget.
    if len(cases) > 3:
        monkeypatch.setattr(ingest, "RANDOM_TRIES", 400)
    draw, rngs = ingest.random_mult_table, []
    monkeypatch.setattr(ingest, "random_mult_table",
                        lambda L, rng: rngs.append(rng) or draw(L, rng))

    def outcome(sample, *args):
        try:
            return sample(*args)
        except core.BadParams as exc:
            return str(exc)

    found = 0
    for flags, seed in cases:
        states = []
        theirs = outcome(reference_random_lattice, size, flags, seed, states)
        ours = outcome(random_lattice, size, flags, seed)
        # a lattice equals another in order, table, generators, labels and name
        assert ours == theirs, (size, seed, flags)
        assert rngs[-1].getstate() == states[-1], (size, seed, flags)
        found += not isinstance(ours, str)
    assert found


def test_one_flag_is_read_from_its_own_law_scan(monkeypatch, named_corpus):
    # The sampler scans only the laws it is asked for, and the readers of one
    # flag build no full report.
    scans = []
    for law in ("associative", "commutative"):
        monkeypatch.setitem(core.ANALYSES, law, lambda M, law=law, real=core.ANALYSES[law]: (
            scans.append(law) or real(M)))
    L = random_lattice(5, {"m_distributive": True}, seed=7)
    assert scans == [] and "axioms" not in L._cache
    assert L._cache["monotone"] is None       # scanned for the self-check
    monkeypatch.undo()
    for L in named_corpus:
        M = core.replace_mult(L, L.mult_table)
        spectrum(M)
        for x in M.elements:
            series(M, x)
        if core.law_witness(M, "monotone") is None:
            try:
                pip_check(M, {M.top})
            except core.HypothesesFail:
                pass
            pip_exhaustive(M)
        for smask in m_system_masks(M)[:8]:
            sigma_of_mask(M, smask)
        assert "axioms" not in M._cache, M.name


def reference_cell_choices(L):
    """The per-draw choices the sampler built before they were kept per
    order: the sorted down-set of x meet y for each cell."""
    return [[sorted(L.down(m)) for m in row] for row in L.meet_table]


def reference_random_mult_table(L, rng):
    return [[rng.choice(cell) for cell in row] for row in reference_cell_choices(L)]


@pytest.mark.parametrize("name", sorted(verify.LATTICE_SHAPES))
def test_cell_choices_and_draws_match_the_per_draw_reference(name):
    base = verify.shape_lattice(name)
    choices = ingest.cell_choices(base)
    assert choices == tuple(tuple(map(tuple, row)) for row in reference_cell_choices(base))
    assert all(type(cell) is tuple for row in choices for cell in row)
    # shared by every lattice on the order
    assert ingest.cell_choices(core.replace_mult(base, base.meet_table)) is choices
    ours, theirs = random.Random(name), random.Random(name)
    for _ in range(50):
        assert (ingest.random_mult_table(base, ours)
                == reference_random_mult_table(base, theirs))
    assert ours.getstate() == theirs.getstate()
    if base.size <= 4:
        n = base.size
        reference = [[list(combo[x * n:(x + 1) * n]) for x in range(n)]
                     for combo in itertools.product(
                         *(cell for row in reference_cell_choices(base) for cell in row))]
        assert list(verify.enumerate_tables(base)) == reference


def test_cell_choices_are_built_once_per_order(monkeypatch):
    # each cell_choices build is counted against the order it is built for
    builds = {}
    build = core.ANALYSES["cell_choices"]

    def counted(order):
        builds[order] = builds.get(order, 0) + 1
        return build(order)

    monkeypatch.setitem(core.ANALYSES, "cell_choices", counted)
    corpus = verify.corpus_random_tables(1000, 1729)
    assert len(corpus) == 1000
    assert sorted(builds.values()) == [1] * len(verify.RANDOM_SHAPES)
    assert set(builds) == {L.order for L in corpus}
    builds.clear()
    L = random_lattice(5, {"m_distributive": True}, seed=7)
    assert builds == {L.order: 1}


def test_roundtrip_on_hundred_lattices():
    for L in corpus_hundred():
        assert parse(export_text(L)) == L, L.name


@pytest.mark.parametrize("labels, name, witness", [
    (["#a", "b"], "n", ["#a"]),
    (["a", ""], "n", [""]),
    (["a", "b"], "#n", "#n"),
    (["a", "b"], "", ""),
    # duplicate labels are written as "<label>#<index>", so "" becomes "#0"
    (["", ""], "n", ["#0"]),
])
def test_export_text_refuses_names_and_labels_parse_cannot_read(labels, name, witness):
    L = validate(size=2, covers=[(0, 1)], mult=[[0, 0], [0, 1]], labels=labels,
                 name=name)
    with pytest.raises(core.BadParams, match="starts with '#'; use the JSON export") as exc:
        export_text(L)
    assert exc.value.witness == witness
    if len(set(labels)) == len(labels):
        assert parse(to_json(L)) == L


@pytest.mark.parametrize("labels, name, witness", [
    (["a b", "c"], "n", ["a b"]),
    (["a", "c"], "x\ty", "x\ty"),
])
def test_export_text_refuses_whitespace(labels, name, witness):
    L = validate(size=2, covers=[(0, 1)], mult=[[0, 0], [0, 1]], labels=labels,
                 name=name)
    with pytest.raises(core.BadParams, match="cannot carry whitespace") as exc:
        export_text(L)
    assert exc.value.witness == witness


def test_roundtrip_explicit_triples():
    # a table that is neither meet nor zero forces triple emission
    L = chain(3, "truncated_add")
    text = export_text(L)
    assert "mult -1 -1 = -inf" in text
    assert parse(text) == L


def test_json_deterministic_and_versioned():
    a = to_json(spectrum(zn_ideals(12)))
    b = to_json(spectrum(zn_ideals(12)))
    assert a == b
    assert '"schema_version": 1' in a


def test_dot_exports():
    L = chain(2, "meet")
    dot = export_dot(L)
    assert dot.count("->") == 1
    sdot = export_dot_spectrum(zn_ideals(12))
    assert 'label="(2)"' in sdot and 'label="(3)"' in sdot
    assert "->" not in sdot   # two incomparable primes: no specialization


def test_dot_escapes_quotes_and_backslashes():
    # DOT reads \" as a quote and \\ as one backslash inside a quoted string
    L = validate(size=2, covers=[(0, 1)], mult=[[0, 0], [0, 1]],
                 labels=['a"b', "c\\d"], name='q"n')
    assert export_dot(L).splitlines()[:4] == [
        r'digraph "q\"n" {', "  rankdir=BT;",
        r'  n0 [label="a\"b"];', r'  n1 [label="c\\d"];']
    # 0 is prime in the 2-chain under meet; the spectrum export escapes too
    assert export_dot_spectrum(L).splitlines()[:3] == [
        r'digraph "Spec(q\"n)" {', "  rankdir=BT;", r'  p0 [label="a\"b"];']


def test_document_fields_round_trip():
    doc = lattice_to_document(parse(MINIMAL))
    assert doc.name == "two"
    assert doc.mult_preset == "meet"
    assert doc.covers == (("0", "1"),)


def json_with(**changes):
    """The JSON payload of chain(2, "meet") with some fields replaced."""
    payload = json.loads(to_json(chain(2, "meet")))
    for key, value in changes.items():
        payload[key] = value
    return json.dumps(payload)


MALFORMED_JSON = {
    "unknown cover label": (json_with(covers=[["0", "z"]]), "unknown label 'z'"),
    "short cover": (json_with(covers=[["0"]]), "expected: cover <a> < <b>"),
    "mult not an object": (json_with(mult="meet"), "JSON field 'mult' must be a dict"),
    "unknown generator": (json_with(generators=["q"]), "unknown label 'q'"),
    "unknown triple label": (json_with(mult={"triples": [["0", "0", "q"]]}),
                             "unknown label 'q'"),
    "duplicate label": (json_with(elements=["0", "0"]), "duplicate label '0'"),
    "unknown preset": (json_with(mult={"preset": "bogus"}), "unknown preset 'bogus'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_JSON))
def test_malformed_json_is_a_syntax_error(case):
    text, message = MALFORMED_JSON[case]
    with pytest.raises(LatticeSyntaxError) as exc:
        parse(text)
    assert message in str(exc.value)


def test_json_round_trip(named_corpus):
    spaced = validate(size=3, covers=[(0, 1), (1, 2)], mult=lambda x, y: 0,
                      labels=["the bottom", "a b", "top  two"], name="with spaces")
    for L in named_corpus + [spaced]:
        assert parse(to_json(L)) == L, L.name
