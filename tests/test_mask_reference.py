"""Reference routes for the readers of prime masks and for the P(S) classes.

``spectrum.prime_mask`` is the nonprime pass alone, ``open_subspace_homeo``
reads both spectra as masks, and ``systems.correspondence_check`` decides
its fixed-point identity once per class of subsets with one P(S).  Each is
held here to a route written in the test: a pair scan of the definition,
the interval's ``spectrum(M).zariski``, grouping by ``systems._avoiding``
and the per-subset loop the classes replaced.
"""

import pytest

from multlattice import systems
from multlattice.constructions import interval, open_subspace_homeo
from multlattice.core import (POWERSET_LIMIT, HypothesesFail, TheoremViolation,
                              check_axioms, require)
from multlattice.spectrum import classify_all, prime_mask, spectrum
from multlattice.verify import (corpus_exhaustive_tables, corpus_named,
                                corpus_random_tables)

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


def test_avoiding_classes_partition_the_subsets_as_avoiding_does(corpus):
    for L in corpus:
        if L.size > POWERSET_LIMIT:
            continue
        classes = systems._avoiding_classes(L)
        assert sum(c.bit_count() for c in classes.values()) == 1 << L.size, L.name
        grouped = {}
        for s in range(1 << L.size):
            pm = systems._avoiding(L, s)
            grouped[pm] = grouped.get(pm, 0) | 1 << s
        assert classes == grouped, L.name


def per_subset_witness(L, saturated):
    """The first subset, in mask order, that the per-subset loop finds to be
    in ``saturated`` exactly when it is not a compact fixed point S_P(S)."""
    opens = spectrum(L).zariski.opens
    of_points = {}
    for s in range(1 << L.size):
        pm = systems._avoiding(L, s)
        if pm not in of_points:
            ys = L.set_of(pm)
            of_points[pm] = (systems.points_system_mask(L, pm),
                             systems.is_compact(ys, [u for u in opens if u & ys]))
        fixed, compact = of_points[pm]
        if (s in saturated) != (compact and fixed == s):
            return tuple(sorted(L.set_of(s)))
    return None


def test_planted_saturated_flags_fail_where_the_per_subset_loop_does(corpus, monkeypatch):
    # Every m-system that is not an up-set but the lowest is flagged
    # saturated in the kernel, while the list the maps invert stays true:
    # only the fixed-point identity reads the flags, and it must name the
    # subset the per-subset loop names, the lowest over all classes.
    planted = 0
    for L in corpus:
        if L.size > POWERSET_LIMIT or not check_axioms(L).m_distributive:
            continue
        m, n, up = systems.subset_flags(L)
        extra = systems.bit_indices(m & ~up)[1:]
        if not extra:
            continue
        true_list = systems._saturated_masks(L)
        flags = m, n, up | sum(1 << s for s in extra)
        monkeypatch.setattr(systems, "_saturated_masks", lambda M: list(true_list))
        monkeypatch.setitem(L._cache, "subset_flags", flags)
        with pytest.raises(TheoremViolation, match="compact fixed point fails") as info:
            systems.correspondence_check(L)
        witness = per_subset_witness(L, set(systems.bit_indices(flags[0] & flags[2])))
        assert witness is not None and info.value.witness == witness, L.name
        monkeypatch.undo()
        planted += 1
    assert planted > 50
