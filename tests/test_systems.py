import dataclasses
import itertools

import pytest

from multlattice import systems
from multlattice.core import (POWERSET_LIMIT, LatticeError, MonotonicityRequired,
                              NotAnMSystem, TheoremViolation, check_axioms, replace_mult,
                              validate)
from multlattice.families import classify_family, pip_check, sigma_of_system
from multlattice.ingest import chain, powerset_lattice, zn_ideals
from multlattice.spectrum import primes_of, spectrum
from multlattice.systems import (classify_system,
                                 complement_system, constructible_topology, correspondence_check,
                                 equal_saturations, inverse_topology,
                                 is_compact, saturate,
                                 saturated_m_systems, system_of_points)
from multlattice.verify import (corpus_exhaustive_tables, corpus_named, corpus_random_tables,
                                run_row)

from conftest import mk_chain
from test_mask_reference import reference_antichain_masks


def brute_is_m_system(L, S):
    S = frozenset(S)
    return bool(S) and all(any(L.leq(z, L.mult(x, y)) for z in S)
                           for x in S for y in S)


def test_singleton_bottom_is_m_system():
    L = mk_chain(3, min)
    ms = classify_system(L, {0})
    assert ms.is_m and ms.kind == "both"


def test_singleton_top_with_idempotent_top():
    L = mk_chain(2, min)
    assert classify_system(L, {1}).is_m


def test_upper_pair_on_meet_chain_saturated():
    L = mk_chain(3, min)
    ms = classify_system(L, {1, 2})
    assert ms.is_m and ms.saturated


def test_empty_set_is_neither():
    L = mk_chain(3, min)
    ms = classify_system(L, set())
    assert ms.kind == "neither" and not ms.is_m and not ms.is_n
    assert ms.saturated  # vacuously


def test_classifier_matches_brute_force(small_exhaustive_corpus):
    for L in small_exhaustive_corpus[:200]:
        for mask in range(1 << L.size):
            S = L.set_of(mask)
            assert classify_system(L, S).is_m == brute_is_m_system(L, S), \
                (L.name, sorted(S))


def test_msystems_are_nsystems(small_exhaustive_corpus):
    for L in small_exhaustive_corpus:
        for mask in range(1 << L.size):
            ms = classify_system(L, L.set_of(mask))
            if ms.is_m:
                assert ms.is_n


def test_saturate_idempotent_and_minimal():
    L = mk_chain(3, min)
    sat = saturate(L, {1})
    assert sat.members == frozenset({1, 2})
    assert saturate(L, sat.members).members == sat.members
    assert saturate(L, {0}).members == frozenset(L.elements)
    # minimality: contained in every saturated m-system containing the seed
    for target in saturated_m_systems(L):
        if frozenset({1}) <= target:
            assert sat.members <= target


def test_saturate_rejects_non_m_systems():
    L = mk_chain(3, lambda x, y: 0)
    with pytest.raises(NotAnMSystem):
        saturate(L, {2})   # 1*1 = 0 has no member of {1} below it... {2}={1_elt}


def test_saturate_needs_monotonicity():
    # a*a = a, everything else 0 on the diamond: {a} is an m-system whose
    # upward closure {a, top} is not one (a*top = 0), so no smallest
    # saturated m-system above it exists
    L = validate(size=4, covers=[(0, 1), (0, 2), (1, 3), (2, 3)],
                 mult=[[0] * 4, [0, 1, 0, 0], [0] * 4, [0] * 4], name="skew")
    assert classify_system(L, {1}).is_m
    assert not classify_system(L, {1, 3}).is_m
    with pytest.raises(MonotonicityRequired):
        saturate(L, {1})


def test_nonprime_complement_witness_is_recheckable(small_exhaustive_corpus):
    for L in small_exhaustive_corpus[:300]:
        if not check_axioms(L).monotone:
            continue
        flags = [complement_system(L, x) for x in L.elements]
        for x, ms in zip(L.elements, flags):
            if not ms.is_m and ms.members:
                wx, wy = ms.m_witness
                assert wx in ms.members and wy in ms.members
                assert not any(L.leq(z, L.mult(wx, wy)) for z in ms.members)


def test_complement_system_examples():
    L = mk_chain(3, min)
    assert complement_system(L, 2).members == frozenset()
    s_a = complement_system(L, 1)
    assert s_a.members == frozenset({2}) and s_a.is_m

    zero3 = mk_chain(3, lambda x, y: 0)
    s = complement_system(zero3, 1)
    assert s.members == frozenset({2}) and not s.is_n


def test_primes_avoiding_and_points_system():
    L = mk_chain(3, min)
    # P(S), the primes that avoid S, on masks
    assert L.set_of(systems._avoiding(L, 0)) == spectrum(L).primes
    assert systems._avoiding(L, 1 << 0) == 0
    assert systems._avoiding(L, 1 << 2) == 1 << 0 | 1 << 1

    assert system_of_points(L, set()).members == frozenset(L.elements)
    assert system_of_points(L, spectrum(L).primes).members == frozenset({2})


def test_system_of_points_asserts_saturation_off_m_distributive(monkeypatch):
    # S_Y is a saturated m-system whatever the multiplication, so the
    # assertion runs on every lattice: a classifier that calls S_Y
    # unsaturated must make it raise on one that is not m-distributive.
    L = next(L for L in corpus_exhaustive_tables(3)
             if not check_axioms(L).m_distributive and primes_of(L))
    real = systems._classify_mask

    def unsaturated(M, mask):
        is_m, is_n, _, m_wit, n_wit, _ = real(M, mask)
        return is_m, is_n, False, m_wit, n_wit, None

    monkeypatch.setattr(systems, "_classify_mask", unsaturated)
    with pytest.raises(TheoremViolation, match="S_Y must be a saturated m-system"):
        system_of_points(L, primes_of(L))


def test_hyperabelian_empty_subset_system_contains_bottom():
    L = mk_chain(3, lambda x, y: 0)
    s = system_of_points(L, set())
    assert L.bottom in s.members


def test_inverse_topology_reverses_specialization():
    L = mk_chain(3, min)
    zar = spectrum(L).zariski
    inv = inverse_topology(L)
    assert zar.closures[0] == frozenset({0, 1})
    assert inv.closures[1] == frozenset({0, 1})
    assert inv.closures[0] == frozenset({0})


def test_inverse_topology_empty_spectrum():
    L = mk_chain(3, lambda x, y: 0)
    inv = inverse_topology(L)
    assert inv.points == frozenset()
    assert inv.closed_sets == frozenset({frozenset()})


def test_constructible_topology_discrete(named_corpus):
    for L in named_corpus:
        assert constructible_topology(L).is_discrete(), L.name


def test_closure_examples():
    L = mk_chain(3, min)
    inv = inverse_topology(L)
    assert inv.closure({0}) == frozenset({0})
    assert inv.closure({1}) == frozenset({0, 1})
    for c in inv.closed_sets:
        assert inv.closure(c) == c


def test_equal_saturations_exhaustive(named_corpus):
    for L in named_corpus:
        pts = sorted(spectrum(L).primes)
        if len(pts) > 3:
            continue
        subsets = [frozenset(c) for r in range(len(pts) + 1)
                   for c in itertools.combinations(pts, r)]
        for xs in subsets:
            for ys in subsets:
                eq = equal_saturations(L, xs, ys)
                assert eq == (system_of_points(L, xs).members
                              == system_of_points(L, ys).members)


def test_correspondence_hyperabelian_trivial():
    L = mk_chain(3, lambda x, y: 0)
    rep = correspondence_check(L)
    assert rep.compact_saturated_sets == (frozenset(),)
    assert rep.saturated_systems == (frozenset(L.elements),)
    assert rep.homeomorphism


def test_correspondence_meet_chain_counts():
    L = mk_chain(3, min)
    rep = correspondence_check(L)
    assert len(rep.compact_saturated_sets) == len(rep.saturated_systems) == 3
    assert rep.mutually_inverse and rep.inclusion_reversing


def test_correspondence_leaves_the_subset_cache_alone():
    # The maps read the kernel's flags, and the fixed-point identity is
    # decided by the bijection check for all 2^n subsets without a scan:
    # below the cap the lattice keeps one integer per flag, and on either
    # side of it no cache entry is a table of subsets or longer than the
    # element list.
    for L in (mk_chain(5, min), chain(POWERSET_LIMIT + 1, "meet")):
        assert check_axioms(L).m_distributive
        assert correspondence_check(L).subset_identity_checked == 2 ** L.size
        sizes = {key: len(value) for key, value in L._cache.items()
                 if isinstance(value, (dict, list, tuple, set, frozenset))}
        if L.size <= POWERSET_LIMIT:
            assert [type(bits) for bits in L._cache["subset_flags"]] == [int] * 3
            del sizes["subset_flags"]
        assert not any(isinstance(L._cache[key], dict) for key in sizes), L.name
        assert max(sizes.values()) <= L.size, (L.name, sizes)


def test_subset_columns_hold_each_subsets_members():
    for n in range(7):
        col = systems.subset_columns(n)
        assert [[c >> m & 1 for c in col] for m in range(1 << n)] == [
            [m >> x & 1 for x in range(n)] for m in range(1 << n)]


def test_kernel_matches_the_subset_scan(named_corpus):
    # The kernel decides the m-system, n-system and up-set flags of all
    # subsets at once; on every subset they are the per-subset scan's.
    tables = ([L for L in named_corpus if L.size <= POWERSET_LIMIT]
              + corpus_exhaustive_tables(4) + corpus_random_tables(200, 1729)
              + [chain(12, "meet")])
    for L in tables:
        flags = systems.subset_flags(L)
        assert all(bits >> (1 << L.size) == 0 for bits in flags), L.name
        for mask in range(1 << L.size):
            assert (tuple(bits >> mask & 1 == 1 for bits in flags)
                    == systems._scan_mask(L, mask)[:3]), (L.name, mask)
    assert tables[-1].size == 12 and len(tables) > 3900


def test_first_m_system_without_reads_the_list_order(small_exhaustive_corpus,
                                                     named_corpus):
    # The answer is the first saturated m-system without x in the list's
    # order (by size): the least one, which every other one holds, or None
    # when that one holds x.  The same below and above the limit.
    for L in (small_exhaustive_corpus + [M for M in named_corpus if M.size <= 8]
              + [chain(13, "meet")]):
        for x in L.elements:
            expected = next((s for s in systems._saturated_masks(L)
                             if not s >> x & 1), None)
            assert systems.first_m_system_without(L, x) == expected, (L.name, x)


def test_first_m_system_without_stops_at_the_first_hit(monkeypatch):
    # The answer is the first saturated m-system without x in mask order, as
    # the per-subset scan finds it (the least one lies in every other, so has
    # the lowest mask), read as one closure: no subset is scanned and neither
    # the kernel's flags nor the list of m-systems is built.  On chain12
    # under meet {top} is the first saturated m-system without 0.
    def first_by_scan(L, x):
        return next((s for s in range(1, 1 << L.size) if not s >> x & 1
                     and (flags := systems._scan_mask(L, s))[0] and flags[2]), None)

    lattices = [chain(12, "meet"), chain(5, "zero"), zn_ideals(12), zn_ideals(36)]
    expected = [[first_by_scan(L, x) for x in L.elements] for L in lattices]

    def refused(L, mask):
        raise AssertionError(f"subset {mask} was scanned")

    monkeypatch.setattr(systems, "_scan_mask", refused)
    assert [[systems.first_m_system_without(L, x) for x in L.elements]
            for L in lattices] == expected
    assert expected[0][lattices[0].bottom] == 1 << lattices[0].top
    assert not any("m_systems" in L._cache or "subset_flags" in L._cache for L in lattices)


def _correspondence_failure(L):
    with pytest.raises(TheoremViolation) as exc:
        correspondence_check(L)
    return str(exc.value), exc.value.witness


def test_correspondence_names_the_first_member_the_maps_do_not_invert(monkeypatch):
    # P({a, 1}) on the meet 3-chain read as {0, a}: S_{0} = {a, 1} no longer
    # maps back to {0}.
    L = chain(3, "meet")
    avoiding = systems._avoiding
    monkeypatch.setattr(systems, "_avoiding",
                        lambda M, mask: avoiding(M, mask) ^ (0b10 if mask == 0b110 else 0))
    assert _correspondence_failure(L) == (
        "the correspondence maps are not mutually inverse bijections", (0,))


def test_correspondence_names_the_first_pair_whose_inclusion_is_kept(monkeypatch):
    # Swapping {0} and {0, a} in H on both sides keeps the maps mutually
    # inverse, but the image of {0, a}, now {a, 1}, is not inside the image
    # of {0}, now {1}.
    L = chain(3, "meet")
    def swapped(h):
        return {0b01: 0b11, 0b11: 0b01}.get(h, h)

    points_system, avoiding = systems.points_system_mask, systems._avoiding
    monkeypatch.setattr(systems, "points_system_mask",
                        lambda M, h: points_system(M, swapped(h)))
    monkeypatch.setattr(systems, "_avoiding", lambda M, s: swapped(avoiding(M, s)))
    assert _correspondence_failure(L) == (
        "the correspondence maps do not reverse inclusion", ((0,), (0, 1)))


def test_correspondence_names_the_first_point_that_is_not_carried(monkeypatch):
    # With the membership subbasis read over no element the membership
    # topology is indiscrete, so the closure of {0} in H, which misses the
    # empty set, is not carried onto a closure.  The first run builds every
    # analysis the check reads, so only the subbasis reads the planted list.
    L = chain(3, "meet")
    assert correspondence_check(L).homeomorphism
    monkeypatch.setattr(L, "elements", range(0))
    assert _correspondence_failure(L) == (
        "the correspondence is not a homeomorphism between the Vietoris and "
        "membership topologies", (0,))


def test_correspondence_zn12():
    L = zn_ideals(12)
    rep = correspondence_check(L)
    # Spec is a 2-point antichain: all four subsets are compact saturated
    assert len(rep.compact_saturated_sets) == 4
    assert len(rep.saturated_systems) == 4
    assert rep.homeomorphism


def test_fixed_point_identity_all_subsets(small_exhaustive_corpus):
    for L in small_exhaustive_corpus:
        if not check_axioms(L).m_distributive:
            continue
        for mask in range(1 << L.size):
            S = L.set_of(mask)
            ms = classify_system(L, S)
            fixed = system_of_points(L, L.set_of(systems._avoiding(L, mask))).members == S
            assert (ms.is_m and ms.saturated) == fixed, (L.name, sorted(S))


@pytest.mark.parametrize("mult", ["meet", "truncated_add"])
def test_fixed_point_identity_above_the_powerset_limit(mult):
    # Above the cap the public functions scan each subset, and they agree
    # with the identity on all 2^13 subsets; the correspondence, which
    # decides the identity by its bijection check, counts every one of them
    # and notes nothing of the cap.
    L = chain(POWERSET_LIMIT + 1, mult)
    assert check_axioms(L).m_distributive
    mismatches = []
    for mask in range(1 << L.size):
        S = L.set_of(mask)
        ms = classify_system(L, S)
        if (ms.is_m and ms.saturated) != (
                system_of_points(L, L.set_of(systems._avoiding(L, mask))).members == S):
            mismatches.append(mask)
    assert mismatches == []
    rep = correspondence_check(L)
    assert rep.subset_identity_checked == 2 ** L.size
    assert rep.notes == ("compactness checks on a finite spectrum are vacuously "
                         "true; they run through the generic open-cover routine",)


def test_saturated_enumeration_matches_powerset():
    # The reference walk over every up-set, which scans its subsets member
    # by member, must give the kernel's m-system and up-set bits on every
    # small lattice, in the same order once sorted.  Fresh lattices, so the
    # kernel's flags stay off the shared corpus.
    tables = ([L for L in corpus_named() if L.size <= 8]
              + corpus_exhaustive_tables(4))
    for L in tables:
        m, _, up = systems.subset_flags(L)
        kernel = systems.bit_indices(m & up)
        walk = reference_antichain_masks(L)
        assert len(walk) == len(set(walk)), L.name
        key = lambda mask: (mask.bit_count(), sorted(L.set_of(mask)))
        assert sorted(walk, key=key) == sorted(kernel, key=key), L.name
        assert systems._saturated_masks(L) == sorted(kernel, key=key), L.name
    # Above the limit: on a meet chain every nonempty up-set is a principal
    # filter and an m-system.
    L = chain(POWERSET_LIMIT + 1, "meet")
    walk = reference_antichain_masks(L)
    assert sorted(walk) == sorted(L.up_masks)


def _meet_filters(kind, n):
    """The principal filters of the meet powerset of n points or of the
    meet n-chain, as label sets, from what the labels mean alone: "{0,2}"
    is a subset, and "0" < "a" < ... < "1" on a chain."""
    if kind == "chain":
        labels = ["0", *"abcdefghijklmnopqrstuvwxyz"[:n - 2], "1"]
        return {frozenset(labels[i:]) for i in range(n)}
    subsets = [set(c) for r in range(n + 1) for c in itertools.combinations(range(n), r)]
    label = lambda a: "{" + ",".join(map(str, sorted(a))) + "}"
    return {frozenset(label(b) for b in subsets if a <= b) for a in subsets}


@pytest.mark.parametrize("kind, n", [("bool", 4), ("bool", 5), ("bool", 6),
                                     ("chain", 13), ("chain", 20)])
def test_saturated_m_systems_above_the_cap_are_the_principal_filters(kind, n):
    # Under meet, a nonempty up-set closed under the product holds the meet
    # of its members, so it is that meet's filter, and every filter is one:
    # one system per element.
    L = powerset_lattice(n, "meet") if kind == "bool" else chain(n, "meet")
    assert L.size > POWERSET_LIMIT
    got = [frozenset(L.labels[c] for c in s) for s in saturated_m_systems(L)]
    assert len(got) == L.size and set(got) == _meet_filters(kind, n)


def test_kernel_disagreeing_with_the_scan_fails_the_row(monkeypatch):
    # The kernel's m-failures hold its n-failures (the pair x, x), so the
    # kernel and the scan can disagree only when the kernel misreads its
    # columns: here they iterate backwards but index forwards.  The row
    # names the first subset the kernel calls an m-system but no n-system,
    # {2}, which the scan finds to be neither.
    columns = systems.subset_columns

    class Backwards(tuple):
        def __iter__(self):
            return iter(self[::-1])

    monkeypatch.setattr(systems, "subset_columns", lambda n: Backwards(columns(n)))
    L = mk_chain(4, lambda x, y: 1 if (x, y) == (2, 1) else 0)
    assert systems._scan_mask(L, 1 << 2)[:2] == (False, False)
    assert run_row(L, "families.sigma_maximal_prime").detail == (
        "TheoremViolation: the subset kernel and the subset scan disagree (witness 4)")


def test_scan_disagreeing_with_itself_fails_the_row(monkeypatch):
    # The scan's pair test reads each square x*x too, so it can find an
    # m-system that is no n-system only when a square reads differently
    # the second time.  Above the cap S_bottom is scanned: on the meet
    # chain every square reads right once and as bottom after, so S_bottom
    # passes the pair test and fails the square test at its first member.
    L = chain(POWERSET_LIMIT + 1, "meet")
    check_axioms(L)             # the gate's laws, read before the table changes

    class SquareReadOnce(tuple):
        reads = 0

        def __getitem__(self, y):
            if y == self.x:
                self.reads += 1
                if self.reads > 1:
                    return L.bottom
            return tuple.__getitem__(self, y)

    rows = tuple(map(SquareReadOnce, L.mult_table))
    for x, row in enumerate(rows):
        row.x = x
    monkeypatch.setattr(L, "mult_table", rows)
    assert run_row(L, "systems.prime_iff_msystem").detail == (
        "TheoremViolation: an m-system failed the n-system test (witness 1)")


def test_is_compact_generic_routine():
    L = mk_chain(3, min)
    zar = spectrum(L).zariski
    assert is_compact(zar.points, list(zar.opens))
    assert is_compact(frozenset(), [])
    with pytest.raises(ValueError, match="does not cover"):
        is_compact(zar.points, [frozenset()])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except LatticeError as exc:
        return type(exc).__name__, str(exc), exc.witness


def _system_results(L):
    """What the four classifying functions give on every subset of ``L``
    (every subset of the spectrum for ``system_of_points``)."""
    out = []
    for mask in range(1 << L.size):
        S = L.set_of(mask)
        out += [_outcome(f, L, S) for f in (classify_system, saturate, sigma_of_system)]
    pts = sorted(primes_of(L))
    for k in range(1 << len(pts)):
        out.append(_outcome(system_of_points, L, {p for i, p in enumerate(pts) if k >> i & 1}))
    return out


def test_classification_cache_matches_uncached_reference(named_corpus, monkeypatch):
    tables = list(named_corpus) + corpus_exhaustive_tables(4)[::40]
    cached = [_system_results(L) for L in tables]
    monkeypatch.setattr(systems, "_classify_mask", systems._scan_mask)
    assert cached == [_system_results(L) for L in tables]


def test_tables_on_one_order_keep_their_own_classifications():
    meet = mk_chain(3, min)
    zero = replace_mult(meet, [[0] * 3] * 3, name="zero3")
    assert meet.order is zero.order
    assert classify_system(meet, {2}).is_m
    assert classify_system(zero, {2}).m_witness == (2, 2)


@pytest.mark.parametrize("edge", [classify_system, saturate, sigma_of_system,
                                  classify_family, pip_check])
@pytest.mark.parametrize("stray", ["size", "negative", "str", "float", "None"])
def test_element_sets_with_a_non_element_are_refused(edge, stray):
    # every edge converts its set with MultLattice.mask_of, which checks it;
    # a member that is not an int is no element either
    L = chain(3, "meet")
    bad = {L.top, {"size": L.size, "negative": -1, "str": "a", "float": 1.0,
                   "None": None}[stray]}
    with pytest.raises(ValueError, match="^members must be elements of the lattice$"):
        edge(L, bad)


def test_each_complement_system_fault_fails_the_row(monkeypatch):
    # zn12's elements are (1), (2), (3), (4), (6), (12) in index order: top 0,
    # primes (2) and (3), and (4) the one element below top that is neither
    # prime nor semiprime and comes before bottom
    flags_of = systems.classify_all

    def flipped(x, **flags):
        def read(M):
            return tuple(dataclasses.replace(f, **flags) if i == x else f
                         for i, f in enumerate(flags_of(M)))
        return read

    def detail():
        return run_row(zn_ideals(12), "systems.prime_iff_msystem").detail

    # (6) read as prime: S_(6) holds (2) and (3), whose product (6) is not above it
    monkeypatch.setattr(systems, "classify_all", flipped(4, prime=True))
    assert detail() == ("TheoremViolation: element 4: prime=True but S_x "
                        "m-system=False (witness (1, 2))")
    # (4) read as semiprime: S_(4) holds (2), whose square (4) is not above it
    monkeypatch.setattr(systems, "classify_all", flipped(3, semiprime=True))
    assert detail() == ("TheoremViolation: element 3: semiprime=True but S_x "
                        "n-system=False (witness 1)")
    monkeypatch.setattr(systems, "classify_all", flags_of)
    # S_top, the empty mask, read as {(2)}: not an m-system, as top is not prime
    system = systems._system
    monkeypatch.setattr(systems, "_system", lambda M, mask: system(M, mask or 1 << 1))
    assert detail() == "TheoremViolation: S_top must be empty (witness (1,))"


def test_saturated_masks_sort_by_size_then_member_list(named_corpus):
    # The sort key reads the members off the mask's bits; it orders the
    # masks as the sorted member sets did, on the kernel's list and, above
    # the powerset cap, on the antichain walk's.
    lattices = list(named_corpus) + corpus_exhaustive_tables(4) + [chain(13, "meet")]
    for L in lattices:
        masks = systems._saturated_masks(L)
        assert masks == sorted(masks, key=lambda m: (m.bit_count(), sorted(L.set_of(m)))), L.name
    assert lattices[-1].size > POWERSET_LIMIT
