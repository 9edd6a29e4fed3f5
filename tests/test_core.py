import itertools

import pytest

from multlattice import core
from multlattice.core import (MultNotBounded, NotALattice, NotAPartialOrder,
                              NotGenerated, check_axioms, compact_elements,
                              validate)

from conftest import mk_chain


def brute_lub(L, xs):
    """Definitional oracle: scan the upper bounds for a unique minimum."""
    ub = [u for u in L.elements if all(L.leq(x, u) for x in xs)]
    least = [u for u in ub if all(L.leq(u, v) for v in ub)]
    assert len(least) == 1
    return least[0]


def brute_glb(L, xs):
    lb = [u for u in L.elements if all(L.leq(u, x) for x in xs)]
    greatest = [u for u in lb if all(L.leq(v, u) for v in lb)]
    assert len(greatest) == 1
    return greatest[0]


def test_two_chain_meet_is_valid():
    L = mk_chain(2, min)
    assert (L.bottom, L.top) == (0, 1)
    assert L.mult(1, 1) == 1


def test_bounded_violation_carries_witness():
    # mult(1,1)=1 declared fine, but mult(1,0)=1 breaks xy <= y
    with pytest.raises(MultNotBounded) as exc:
        validate(size=2, covers=[(0, 1)], mult=[[0, 0], [1, 1]])
    assert exc.value.witness == (1, 0)


def test_diamond_meet_table_against_oracle():
    order = core.build_order(size=4, covers=[(0, 1), (0, 2), (1, 3), (2, 3)])
    L = validate(size=4, covers=[(0, 1), (0, 2), (1, 3), (2, 3)],
                 mult=order.meet_table, name="M2")
    for x in L.elements:
        for y in L.elements:
            assert L.mult(x, y) == brute_glb(L, [x, y])


def test_cyclic_covers_rejected():
    with pytest.raises(NotAPartialOrder):
        validate(size=2, covers=[(0, 1), (1, 0)], mult=lambda x, y: 0)


def test_relation_input_must_be_an_order():
    rel = [[1, 1], [1, 1]]  # not antisymmetric
    with pytest.raises(NotAPartialOrder):
        validate(relation=rel, mult=lambda x, y: 0)


def test_missing_bounds_rejected():
    # two incomparable maximal points: no least upper bound
    with pytest.raises(NotALattice) as exc:
        validate(size=3, covers=[(0, 1), (0, 2)], mult=lambda x, y: 0)
    assert exc.value.witness == (1, 2)


def test_generation_check():
    with pytest.raises(NotGenerated) as exc:
        validate(size=3, covers=[(0, 1), (1, 2)], mult=lambda x, y: min(x, y),
                 generators=[0, 2])
    assert exc.value.witness == 1
    # the full default generating set always works
    L = validate(size=3, covers=[(0, 1), (1, 2)], mult=lambda x, y: min(x, y))
    assert L.generators == frozenset({0, 1, 2})


def test_lub_glb_conventions_and_oracle():
    L = validate(size=4, covers=[(0, 1), (0, 2), (1, 3), (2, 3)],
                 mult=lambda x, y: 0, name="M2")
    assert L.lub([]) == L.bottom
    assert L.glb([]) == L.top
    assert L.lub({1, 2}) == 3
    assert L.glb({1, 2}) == 0
    for r in range(1, 5):
        for xs in itertools.combinations(range(4), r):
            assert L.lub(xs) == brute_lub(L, xs)
            assert L.glb(xs) == brute_glb(L, xs)


def test_compact_elements_is_everything(named_corpus):
    for L in named_corpus:
        assert compact_elements(L) == frozenset(L.elements)


def test_chain_meet_axioms_all_true():
    report = check_axioms(mk_chain(4, min))
    assert report.monotone and report.m_distributive
    assert report.infinitely_m_distributive and report.associative
    assert report.commutative and not report.witnesses


def test_single_spike_table_witnesses():
    # 0 < a < 1 with mult == 0 except 1*1 = a: monotone, and the report
    # carries a witness for any flag it rejects
    L = mk_chain(3, lambda x, y: 1 if x == y == 2 else 0)
    report = check_axioms(L)
    assert report.monotone
    for flag in ("m_distributive", "associative", "commutative",
                 "infinitely_m_distributive"):
        if not getattr(report, flag):
            assert flag in report.witnesses


def test_witnesses_are_recheckable():
    L = mk_chain(3, lambda x, y: 1 if x == y == 2 else 0)
    report = check_axioms(L)
    if "m_distributive" in report.witnesses:
        side, x, y, z = report.witnesses["m_distributive"]
        j = L.join(x, y)
        if side == "left":
            assert L.mult(j, z) != L.join(L.mult(x, z), L.mult(y, z))
        else:
            assert L.mult(z, j) != L.join(L.mult(z, x), L.mult(z, y))


def test_non_monotone_table_detected():
    # a*a = a but a*1 = 0 on the diamond: monotonicity must fail
    table = [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    L = validate(size=4, covers=[(0, 1), (0, 2), (1, 3), (2, 3)], mult=table)
    report = check_axioms(L)
    assert not report.monotone
    side, x, y, z = report.witnesses["monotone"]
    assert L.leq(x, y)


def test_infinite_reduction_matches_exhaustive(small_exhaustive_corpus):
    for L in small_exhaustive_corpus:
        exhaustive = check_axioms(L, infinite_cap=L.size).infinitely_m_distributive
        reduced = check_axioms(L, infinite_cap=0).infinitely_m_distributive
        assert exhaustive == reduced, L.name
        assert check_axioms(L, infinite_cap=0).infinite_check_method == "reduction"


def test_check_axioms_cache_is_keyed_by_route():
    L = mk_chain(3, min)
    assert check_axioms(L, infinite_cap=L.size) is check_axioms(L)
    assert check_axioms(L, infinite_cap=0) is check_axioms(L, infinite_cap=2)
    assert check_axioms(L, infinite_cap=0) is not check_axioms(L)
    assert check_axioms(L).infinite_check_method == "exhaustive"


def test_axiom_implications_hold_exhaustively(small_exhaustive_corpus):
    for L in small_exhaustive_corpus:
        report = check_axioms(L)
        if report.m_distributive:
            assert report.monotone, L.name
        if report.infinitely_m_distributive:
            assert report.m_distributive, L.name
            assert all(L.mult(x, L.bottom) == L.bottom == L.mult(L.bottom, x)
                       for x in L.elements), L.name


def test_replace_mult_shares_order():
    base = mk_chain(3, min)
    L = core.replace_mult(base, [[0, 0, 0], [0, 0, 0], [0, 0, 0]], name="z")
    assert L.order is base.order
    assert L.join_table is base.join_table
    assert L.down_masks is base.down_masks
    assert L.mult(2, 2) == 0
    with pytest.raises(MultNotBounded):
        core.replace_mult(base, [[0, 0, 0], [0, 0, 2], [0, 0, 0]])


def test_structural_equality_ignores_cache():
    a = mk_chain(3, min, name="x")
    b = mk_chain(3, min, name="x")
    check_axioms(a)
    assert a == b
