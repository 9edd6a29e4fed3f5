"""Reference routes for the readers of prime masks and for the family
closures, and a planted fault for the correspondence.

``spectrum.prime_mask`` is the nonprime pass alone, ``open_subspace_homeo``
reads both spectra as masks, and ``families.pip_exhaustive`` decides the
prime ideal principle by one closure per element and schema.  Each is held
here to a route written in the test: a pair scan of the definition, the
interval's ``spectrum(M).zariski`` and the 2^n family kernel the closures
replaced.  ``systems.correspondence_check`` decides its fixed-point identity
by its bijection check, which planted saturated flags must fail.  Above
``core.POWERSET_LIMIT`` the saturated m-systems are the closed sets of
``systems._closure``, held to a walk over every up-set and, below the cap,
to the subset kernel.  The three m-system rows of ``verify`` read the
points of the spectrum, its pairs of points and each m-system once; they
are held to the walks over every subset of the spectrum and over every
pair of m-systems that they replaced.
"""

import dataclasses
import itertools

import pytest

from multlattice import families, systems, verify
from multlattice.constructions import interval, open_subspace_homeo
from multlattice.core import (POWERSET_LIMIT, HypothesesFail, TheoremViolation,
                              check_axioms, require)
from multlattice.families import pip_exhaustive, residual_tables
from multlattice.ingest import chain, powerset_lattice, zn_ideals
from multlattice.spectrum import (classify_all, hyperabelian_report, prime_mask,
                                  primes_of, spectrum)
from multlattice.verify import (CheckResult, corpus_exhaustive_tables, corpus_named,
                                corpus_random_tables, run_row)

from test_core import m_distributive_five_element_tables


@pytest.fixture(scope="module")
def corpus():
    return (corpus_named() + corpus_exhaustive_tables(4)
            + corpus_random_tables(200, 1729)
            + m_distributive_five_element_tables(seed=11, per_shape=12))


def outcome(fn):
    try:
        return fn()
    except TheoremViolation as exc:
        return str(exc), exc.witness


def definitional_primes(L):
    """p below top with a, b <= p whenever ab <= p, by a scan of all pairs."""
    return {p for p in L.elements if p != L.top and all(
        L.leq(a, p) or L.leq(b, p) for a in L.elements for b in L.elements
        if L.leq(L.mult(a, b), p))}


def test_prime_mask_is_the_definitional_spectrum(corpus):
    for L in corpus:
        assert L.set_of(prime_mask(L)) == definitional_primes(L), L.name
        assert [f.prime for f in classify_all(L)] == [
            bool(prime_mask(L) >> x & 1) for x in L.elements], L.name


def reference_open_subspace(L, n):
    """``open_subspace_homeo`` through the spectrum reports of L and of
    [bottom, n]: the point map, or the message and witness it fails with."""
    zar = spectrum(L).zariski
    dn = frozenset(p for p in zar.points if not L.leq(n, p))
    iv = interval(L, L.bottom, n)
    m_zar = spectrum(iv.lattice).zariski
    point_map = {}
    for p in sorted(dn):
        q = iv.from_parent(L.meet(p, n))
        if q not in m_zar.points:
            return f"p ^ n is not prime in [bottom, n] for p = {p}", p
        point_map[p] = q
    if sorted(point_map.values()) != sorted(m_zar.points):
        odd = [q for q in m_zar.points if list(point_map.values()).count(q) != 1]
        return ("p -> p ^ n is not a bijection onto the interval spectrum",
                iv.to_parent(min(odd)))
    moved = [p for p, c in zar.subspace(dn).closures.items()
             if frozenset(map(point_map.get, c)) != m_zar.closures[point_map[p]]]
    if moved:
        return "subspace and interval topologies do not match", min(moved)
    for l in L.elements:
        ln = L.mult(l, n)
        image = {point_map[p] for p in dn if not L.leq(ln, p)}
        if image != {q for q in m_zar.points if not iv.lattice.leq(iv.from_parent(ln), q)}:
            return f"image of D({l}*{n}) is not the matching interval open", l
    return point_map


def test_open_subspace_matches_the_spectrum_report_route(corpus):
    ran = 0
    for L in corpus:
        try:
            require(L, "constructions.open_subspace_homeo", HypothesesFail)
        except HypothesesFail:
            continue
        for n in L.elements:
            got = outcome(lambda: open_subspace_homeo(L, n).point_map)
            assert got == reference_open_subspace(L, n), (L.name, n)
            ran += 1
    assert ran > 1000


def test_planted_saturated_flags_fail_the_bijection_check(corpus, monkeypatch):
    # Every m-system that is not an up-set is flagged saturated in the
    # kernel, and the list the maps invert reads those flags.  S_P(S) is an
    # up-set, so no planted S is a fixed point: the bijection check names
    # one, which is why the fixed-point identity needs no pass of its own.
    planted = 0
    for L in corpus:
        if L.size > POWERSET_LIMIT or not check_axioms(L).m_distributive:
            continue
        m, n, up = systems.subset_flags(L)
        if not m & ~up:
            continue
        monkeypatch.setitem(L._cache, "subset_flags", (m, n, up | m))
        with pytest.raises(TheoremViolation,
                           match="the correspondence maps are not mutually inverse") as info:
            systems.correspondence_check(L)
        assert not up >> L.mask_of(info.value.witness) & 1, L.name
        monkeypatch.undo()
        planted += 1
    assert planted > 200


def reference_case_masks(L, associative):
    """For each hypothesis of ``families.PipReport``, in its order, a
    2^n-bit integer whose bit f is set when the family f meets it.  A schema
    fails on the OR, over its instances, of ANDs of
    :func:`systems.subset_columns`, and on the families without top."""
    col = systems.subset_columns(L.size)
    everything = (1 << (1 << L.size)) - 1
    jt, mt = L.join_table, L.mult_table
    left_t, right_t = residual_tables(L)
    gens = sorted(L.generators)
    left = right = oka = ako = everything & ~col[L.top]
    for a in gens:
        for l, al in enumerate(jt[a]):
            escapes = col[al] & ~col[l]     # l outside, a v l inside
            in_left = escapes & col[left_t[l][a]]
            in_right = escapes & col[right_t[l][a]]
            left |= in_left
            right |= in_right
            oka |= in_left & in_right
    for row in jt:
        for a in gens:
            fails = 0
            for b in gens:
                fails |= col[row[b]] & ~col[row[mt[a][b]]]
            ako |= col[row[a]] & fails
    return (everything & ~left, everything & ~right,
            everything & ~oka if associative else 0, everything & ~ako)


SCHEMAS = ("left_oka", "right_oka", "oka", "ako")


def reference_trapped(L, m):
    """The families that leave m maximal outside: not the column of m, and
    the column of every element above it."""
    col = systems.subset_columns(L.size)
    trapped = (1 << (1 << L.size)) - 1 & ~col[m]
    for c in systems.bit_indices(L.up_masks[m] ^ 1 << m):
        trapped &= col[c]
    return trapped


def reference_pairs(L, case_masks, nonprime):
    """The (m, schema) pairs, m in ``nonprime``, for which some family
    meeting the schema leaves m maximal outside."""
    return {(m, s) for m in systems.bit_indices(nonprime)
            for s, meeting in zip(SCHEMAS, case_masks) if meeting & reference_trapped(L, m)}


def closure_pairs(L, nonprime):
    """The same pairs, read off ``families._closure``."""
    return {(m, s) for m in systems.bit_indices(nonprime) for s in SCHEMAS
            if not families._closure(L, s, L.up_masks[m] ^ 1 << m, m) >> m & 1}


def test_closures_trap_what_the_family_kernel_traps(corpus):
    # Every non-prime below top, and then each prime called non-prime in
    # turn: the complement of the down-set of a prime is Ako, so each
    # planted prime must be trapped.
    lattices = planted = 0
    for L in corpus:
        if L.size > POWERSET_LIMIT:
            continue
        case_masks = reference_case_masks(L, True)
        primes = prime_mask(L)
        nonprime = L.full_mask & ~primes & ~(1 << L.top)
        assert closure_pairs(L, nonprime) == reference_pairs(L, case_masks, nonprime), L.name
        for p in systems.bit_indices(primes):
            got = closure_pairs(L, 1 << p)
            assert got and got == reference_pairs(L, case_masks, 1 << p), (L.name, p)
            planted += 1
        lattices += 1
    assert lattices > 3900 and planted > 1000


def test_pip_exhaustive_fails_on_the_lowest_trapping_family(corpus, monkeypatch):
    # With every prime called non-prime, closures for several elements leave
    # them out, and _pip must run on the lowest family that the kernel finds
    # qualifying and leaving a non-prime maximal outside.
    real_pip = families._pip
    failing = 0
    for L in corpus:
        ax = check_axioms(L)
        if L.size > POWERSET_LIMIT or not ax.monotone or not prime_mask(L):
            continue
        qualifying = trapping = 0
        for meeting in reference_case_masks(L, ax.associative):
            qualifying |= meeting
        for m in systems.bit_indices(L.full_mask ^ 1 << L.top):
            trapping |= reference_trapped(L, m)
        bad = qualifying & trapping
        flags = tuple(dataclasses.replace(f, prime=False) for f in classify_all(L))
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(families, "classify_all", lambda M: flags)
            patch.setattr(families, "_pip", lambda M, fmask, associative: (
                calls.append(fmask) or real_pip(M, fmask, associative)))
            with pytest.raises(TheoremViolation, match="is not prime"):
                pip_exhaustive(L)
        assert calls == [(bad & -bad).bit_length() - 1], L.name
        failing += 1
    assert failing > 150


@pytest.mark.parametrize("make", [lambda: powerset_lattice(4, "meet"), lambda: zn_ideals(210),
                                  lambda: chain(13, "meet"), lambda: powerset_lattice(5, "meet")],
                         ids=["bool4_meet", "zn210", "chain13_meet", "bool5_meet"])
def test_pip_exhaustive_runs_above_the_cap(make, monkeypatch):
    # No 2^n kernel can run here; the closures decide the principle, and a
    # planted non-prime (the highest prime) is maximal outside a left Oka
    # family.
    L = make()
    assert L.size > POWERSET_LIMIT
    pip_exhaustive(L)
    p = max(primes_of(L))
    flags = tuple(dataclasses.replace(f, prime=False) if x == p else f
                  for x, f in enumerate(classify_all(L)))
    monkeypatch.setattr(families, "classify_all", lambda M: flags)
    with pytest.raises(TheoremViolation,
                       match=r"maximal element \d+ outside a left_oka family is not prime"):
        pip_exhaustive(L)


def reference_antichain_masks(L):
    """The upward closures of the antichains of ``L`` (distinct for distinct
    antichains, so every up-set once) that have a member below x*y for any
    two members x, y: the saturated m-systems, in walk order, by a scan
    that reads no kernel flag and no closure."""
    mt, out = L.mult_table, []

    def rec(start, closure, allowed):
        for x in range(start, L.size):
            if allowed >> x & 1:
                mask = closure | L.up_masks[x]
                members = [y for y in L.elements if mask >> y & 1]
                if all(mask & L.down_masks[mt[a][b]] for a in members for b in members):
                    out.append(mask)
                rec(x + 1, mask, allowed & ~L.up_masks[x] & ~L.down_masks[x])

    rec(0, 0, L.full_mask)
    return out


def by_size_then_members(mask):
    return mask.bit_count(), systems.bit_indices(mask)


ABOVE_CAP = {"zn210": lambda: zn_ideals(210), "bool4_meet": lambda: powerset_lattice(4, "meet"),
             "chain13_meet": lambda: chain(13, "meet"), "zn420": lambda: zn_ideals(420),
             "bool5_meet": lambda: powerset_lattice(5, "meet"), "zn2520": lambda: zn_ideals(2520),
             "chain16_truncated_add": lambda: chain(16, "truncated_add"),
             "chain30_meet": lambda: chain(30, "meet")}


@pytest.mark.parametrize("name", ABOVE_CAP)
def test_closed_sets_are_the_walks_saturated_masks_above_the_cap(name):
    # The closures list each saturated m-system once, in the walk's sorted
    # order, and the first one lacking x is the first principal closure.
    L = ABOVE_CAP[name]()
    assert L.name == name and L.size > POWERSET_LIMIT
    walk = sorted(reference_antichain_masks(L), key=by_size_then_members)
    assert systems._saturated_masks(L) == walk
    assert [systems.first_m_system_without(L, x) for x in L.elements] == [
        next((s for s in walk if not s >> x & 1), None) for x in L.elements]


def brute_saturated_masks(L):
    """Every saturated m-system: up to the cap each subset that is an up-set
    with a member below x*y for any two members x, y, by the definition;
    above it the walk over every up-set."""
    if L.size > POWERSET_LIMIT:
        return reference_antichain_masks(L)
    mt = L.mult_table
    return [mask for mask in range(1, 1 << L.size)
            if all(L.up_masks[x] & ~mask == 0 and all(
                mask & L.down_masks[mt[x][y]] for y in systems.bit_indices(mask))
                   for x in systems.bit_indices(mask))]


def test_condition_f_witness_is_the_least_saturated_m_system():
    # The (f) witness lacks bottom, is a saturated m-system and lies inside
    # every saturated m-system; without a witness every saturated m-system
    # holds bottom.  first_m_system_without(L, x) is that least one when it
    # lacks x, on any lattice and for every x.
    lattices = (corpus_exhaustive_tables(4) + corpus_named()
                + [make() for make in ABOVE_CAP.values()])
    held = {True: 0, False: 0}        # m-distributive lattices, by condition (f)
    for L in lattices:
        masks = brute_saturated_masks(L)
        least = next(m for m in masks if all(m & ~s == 0 for s in masks))
        assert [systems.first_m_system_without(L, x) for x in L.elements] == [
            None if least >> x & 1 else least for x in L.elements], L.name
        if check_axioms(L).m_distributive:
            witness = hyperabelian_report(L).witnesses.get("f")
            held[witness is None] += 1
            if witness is None:
                assert all(s >> L.bottom & 1 for s in masks), L.name
            else:
                wmask = L.mask_of(witness)
                assert not wmask >> L.bottom & 1 and wmask in masks, L.name
                assert all(wmask & ~s == 0 for s in masks), L.name
    assert held[True] > 50 and held[False] > 100, held


def test_closed_sets_are_the_kernels_saturated_masks(monkeypatch):
    # With the cap at -1 every lattice takes the closure route; on each
    # lattice of at most POWERSET_LIMIT elements it must list the kernel's
    # saturated masks and find the kernel's first one without each x.
    lattices = ([L for L in corpus_named() if L.size <= POWERSET_LIMIT]
                + corpus_exhaustive_tables(4) + corpus_random_tables(1000, 1729))
    expected = [systems._saturated_masks(L) for L in lattices]
    monkeypatch.setattr(systems, "POWERSET_LIMIT", -1)
    pairs = 0
    for L, masks in zip(lattices, expected):
        assert systems._saturated_masks(L) == masks, L.name
        for x in L.elements:
            assert systems.first_m_system_without(L, x) == next(
                (s for s in masks if not s >> x & 1), None), (L.name, x)
            pairs += 1
    assert len(lattices) == 4770 and pairs == 20462


def reference_saturation_props(L):
    """Saturation held to the three closure laws: extensive and idempotent
    for each m-system, and monotone over all pairs, by a subset-OR
    transform up to ``core.POWERSET_LIMIT`` and a pair scan that names the
    first failing pair."""
    def members(mask):
        return tuple(sorted(L.set_of(mask)))

    m_systems = systems.m_system_masks(L)
    sat_of = {}
    for s in m_systems:
        sat = sat_of[s] = systems.saturation_mask(L, s)
        if s & ~sat:
            raise TheoremViolation("saturation is not extensive", witness=members(s))
        if systems.up_closure(L, sat) != sat:
            raise TheoremViolation("saturation is not idempotent", witness=members(s))
    if L.size <= POWERSET_LIMIT:
        # below[t]: the union of sat(s) over the m-systems s <= t
        below = [sat_of.get(m, 0) for m in range(1 << L.size)]
        for i in range(L.size):
            bit = 1 << i
            for m in range(1 << L.size):
                if m & bit:
                    below[m] |= below[m ^ bit]
        if not any(below[t] & ~sat for t, sat in sat_of.items()):
            return
    for s in m_systems:
        for t in m_systems:
            if not s & ~t and sat_of[s] & ~sat_of[t]:
                raise TheoremViolation("saturation is not monotone",
                                       witness=(members(s), members(t)))


def reference_point_sets(L):
    """Every subset of the spectrum, by size, then lexicographically."""
    pts = sorted(primes_of(L))
    for r in range(len(pts) + 1):
        yield from itertools.combinations(pts, r)


def reference_closure_equivalence(L):
    """S_X = S_Y iff cl X = cl Y, over every subset: the two keys part the
    subsets alike, so the first subset seen with X's system is the first
    seen with X's closure, and otherwise ``equal_saturations`` raises on
    one of the pairs."""
    first_of_system, first_of_closure = {}, {}
    inv = systems.inverse_topology(L)
    for c in reference_point_sets(L):
        xs = frozenset(c)
        ys = first_of_system.setdefault(systems.points_system_mask(L, L.mask_of(c)), xs)
        zs = first_of_closure.setdefault(inv.closure(xs), xs)
        if ys != zs:
            systems.equal_saturations(L, xs, ys)
            systems.equal_saturations(L, xs, zs)


def reference_prop_compact(L):
    """S_Y, asserted a saturated m-system, for every subset Y of the spectrum."""
    for c in reference_point_sets(L):
        systems.points_system_mask(L, L.mask_of(c))


REFERENCE_ROWS = {"systems.saturation_closure_operator": reference_saturation_props,
                  "systems.closure_equivalence": reference_closure_equivalence,
                  "systems.subset_system_saturated": reference_prop_compact}


def both_routes(L, monkeypatch):
    """The three rows of ``L`` through ``verify.run_row``, then again with
    each row's body replaced by its reference walk."""
    rows = [run_row(L, check) for check in REFERENCE_ROWS]
    with monkeypatch.context() as patch:
        for check, reference in REFERENCE_ROWS.items():
            patch.setitem(verify.ROWS, check, (reference, None))
        return rows, [run_row(L, check) for check in REFERENCE_ROWS]


def test_m_system_rows_decide_as_the_subset_walks(corpus, monkeypatch):
    # Every lattice here has at most POWERSET_LIMIT primes, so the walk over
    # every subset of its spectrum runs; each row must give the walk's row.
    ran = 0
    for L in corpus:
        assert len(primes_of(L)) <= POWERSET_LIMIT, L.name
        rows, walked = both_routes(L, monkeypatch)
        assert rows == walked, L.name
        ran += sum(not r.skipped for r in rows)
    assert ran > 4500


def test_a_faulty_point_system_fails_both_routes(corpus, monkeypatch):
    # S_{p} planted on one prime p that has a prime below it.  Left without
    # top it is no up-set, so the assertion in points_system_mask fails the
    # closure row and, where its gate lets it run, the subset row, with the
    # same detail by both routes.  Read as S_{} = L, a saturated m-system, it
    # passes the subset row by both routes and fails the closure row by
    # both: the walk finds {p} with the system of {}, the pairs find {p}
    # with the system of {p, q} for a prime q below p.
    real = systems.points_system_mask

    def without_top(M, ymask):
        if ymask != 1 << p:
            return real(M, ymask)
        return systems._saturated_m_system(M, real(M, ymask) & ~(1 << M.top),
                                           "S_Y must be a saturated m-system")

    def as_empty(M, ymask):
        return M.full_mask if ymask == 1 << p else real(M, ymask)

    planted = both = 0
    for L in corpus:
        spec = prime_mask(L)
        above = [p for p in systems.bit_indices(spec) if spec & L.down_masks[p] & ~(1 << p)]
        if not above:
            continue
        p = above[-1]
        with monkeypatch.context() as patch:
            patch.setattr(systems, "points_system_mask", without_top)
            rows, walked = both_routes(L, monkeypatch)
        assert rows == walked and not rows[1].passed, L.name
        assert rows[1].detail.startswith("TheoremViolation: S_Y must be a saturated m-system")
        both += not rows[2].passed
        with monkeypatch.context() as patch:
            patch.setattr(systems, "points_system_mask", as_empty)
            rows, walked = both_routes(L, monkeypatch)
        assert [r.passed for r in rows] == [r.passed for r in walked], L.name
        assert not rows[1].passed and rows[2].passed, L.name
        planted += 1
    assert planted > 50 and both > 25, (planted, both)


def test_planted_saturations_break_the_closure_laws(monkeypatch):
    # Saturation is up_closure, extensive, idempotent and monotone by
    # construction, and the row asserts only that up S is a saturated
    # m-system.  A saturation planted to break a law passes the row, and
    # the walk over all pairs of m-systems names it as the row once did.
    L = chain(6, "meet")
    saturation = systems.saturation_mask
    check = "systems.saturation_closure_operator"
    # a saturation that raises the saturation of {5} to the up-set {2, 3, 4, 5}:
    # still extensive and idempotent, but {5} <= {3, 5} whose saturation is
    # {3, 4, 5}
    s0, raised = 0b100000, 0b111100
    monkeypatch.setattr(systems, "saturation_mask",
                        lambda M, mask: raised if mask == s0 else saturation(M, mask))
    rows, walked = both_routes(L, monkeypatch)
    assert rows[0].passed and walked[0] == CheckResult(
        L.name, check, False, detail="TheoremViolation: saturation is not monotone "
                                     "(witness ((5,), (3, 5)))")
    # a saturation of {0, 2, 3, 4, 5} that leaves out element 1 is not an up-set
    s0 = 0b111101
    monkeypatch.setattr(systems, "saturation_mask",
                        lambda M, mask: s0 if mask == s0 else saturation(M, mask))
    rows, walked = both_routes(L, monkeypatch)
    assert rows[0].passed and walked[0] == CheckResult(
        L.name, check, False, detail="TheoremViolation: saturation is not idempotent "
                                     "(witness (0, 2, 3, 4, 5))")
