"""The witness-first report builders held to flag-and-break references.

The library scans each law for its first counterexample and reads every flag
of a report off those witnesses: a flag holds exactly when its law has none.
The references here are the earlier builders, which thread a boolean per law
through nested ``break`` chains and record the witness beside it: the axiom
scan, the family classifier, the empty-spectrum report, the meet-irreducible
flag as a triple loop over the meet table, and the scan of one subset's
m-system, n-system and saturation flags.  Both must give the same report,
with witnesses in the same order, or the same exception class, message and
witness.  A product's flags are also held to the conjunction of its factors'.
"""

import pytest

from multlattice import constructions as cons
from multlattice.core import (ANALYSES, LatticeError, MDistributivityRequired,
                              PropertyReport, TheoremViolation, axiom_report, check_axioms,
                              require)
from multlattice.families import FamilyReport, classify_family, residual_tables
from multlattice.spectrum import (HyperabelianReport, _greedy_square_chain, _order_flags,
                                  _square_steps, classify_all, primes_of)
from multlattice.systems import _scan_mask
from multlattice.verify import (LATTICE_SHAPES, PRODUCT_PARTNERS,
                                corpus_exhaustive_tables, corpus_random_tables,
                                shape_lattice)


def ref_check_axioms(L):
    n = L.size
    rel = L.relation
    mt = L.mult_table
    jt = L.join_table
    witnesses = {}

    monotone = True
    for x in range(n):
        for y in range(n):
            if x == y or not rel[x][y]:
                continue
            for z in range(n):
                if not rel[mt[x][z]][mt[y][z]]:
                    monotone = False
                    witnesses["monotone"] = ("left", x, y, z)
                    break
                if not rel[mt[z][x]][mt[z][y]]:
                    monotone = False
                    witnesses["monotone"] = ("right", x, y, z)
                    break
            if not monotone:
                break
        if not monotone:
            break

    m_distributive = True
    for x in range(n):
        for y in range(x + 1, n):
            j = jt[x][y]
            for z in range(n):
                if mt[j][z] != jt[mt[x][z]][mt[y][z]]:
                    m_distributive = False
                    witnesses["m_distributive"] = ("left", x, y, z)
                    break
                if mt[z][j] != jt[mt[z][x]][mt[z][y]]:
                    m_distributive = False
                    witnesses["m_distributive"] = ("right", x, y, z)
                    break
            if not m_distributive:
                break
        if not m_distributive:
            break

    associative = True
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if mt[mt[x][y]][z] != mt[x][mt[y][z]]:
                    associative = False
                    witnesses["associative"] = (x, y, z)
                    break
            if not associative:
                break
        if not associative:
            break

    commutative = True
    for x in range(n):
        for y in range(x + 1, n):
            if mt[x][y] != mt[y][x]:
                commutative = False
                witnesses["commutative"] = (x, y)
                break
        if not commutative:
            break

    if not m_distributive:
        witnesses["infinitely_m_distributive"] = witnesses["m_distributive"]
    if m_distributive and not monotone:
        raise TheoremViolation("m-distributive but not monotone",
                               witness=witnesses.get("monotone"))
    return PropertyReport(monotone, m_distributive, m_distributive,
                          associative, commutative, witnesses)


def ref_product_flags(L1, L2):
    """The flags of ``L1 x L2``: each law holds on the product exactly when
    it holds on both factors."""
    a1, a2 = ref_check_axioms(L1), ref_check_axioms(L2)
    return (a1.monotone and a2.monotone, a1.m_distributive and a2.m_distributive,
            a1.infinitely_m_distributive and a2.infinitely_m_distributive,
            a1.associative and a2.associative, a1.commutative and a2.commutative)


def flags_of(report):
    return (report.monotone, report.m_distributive, report.infinitely_m_distributive,
            report.associative, report.commutative)


def ref_classify_family(L, F):
    family = frozenset(F)
    fmask = L.mask_of(family)
    counterexamples = {}
    if L.top not in family:
        for flag in ("left_oka", "right_oka", "oka", "ako"):
            counterexamples[flag] = ("top",)
        return FamilyReport(family, L.generators, False, False, False, False,
                            counterexamples)

    left_t, right_t = residual_tables(L)
    jt = L.join_table
    a_sorted = sorted(L.generators)

    left_oka = right_oka = oka = True
    for a in a_sorted:
        for l in L.elements:
            if fmask >> l & 1:
                continue
            if not fmask >> jt[a][l] & 1:
                continue
            lres_in = fmask >> left_t[l][a] & 1
            rres_in = fmask >> right_t[l][a] & 1
            if left_oka and lres_in:
                left_oka = False
                counterexamples["left_oka"] = (a, l)
            if right_oka and rres_in:
                right_oka = False
                counterexamples["right_oka"] = (a, l)
            if oka and lres_in and rres_in:
                oka = False
                counterexamples["oka"] = (a, l)

    ako = True
    mt = L.mult_table
    for l in L.elements:
        for a in a_sorted:
            if not fmask >> jt[l][a] & 1:
                continue
            for b in a_sorted:
                if fmask >> jt[l][b] & 1 and not fmask >> jt[l][mt[a][b]] & 1:
                    ako = False
                    counterexamples["ako"] = (l, a, b)
                    break
            if not ako:
                break
        if not ako:
            break
    return FamilyReport(family, L.generators, left_oka, right_oka, oka, ako,
                        counterexamples)


def ref_hyperabelian_report(L):
    require(L, "hyper.six_conditions", MDistributivityRequired)
    flags = classify_all(L)
    witnesses = {}
    notes = ["condition (c) is the finite instantiation: only finite chains are built"]

    semiprimes = [x for x in L.elements if flags[x].semiprime]
    cond_a = semiprimes == [L.top]
    if not cond_a:
        witnesses["a"] = next(x for x in semiprimes if x != L.top)

    cond_b = True
    mt = L.mult_table
    for x in L.elements:
        if x == L.top:
            continue
        down = L.down_masks[x]
        if not any(y != x and L.relation[x][y] and down >> mt[y][y] & 1
                   for y in L.elements):
            cond_b = False
            witnesses["b"] = x
            break

    chain, blocker = _greedy_square_chain(L, _square_steps(L))
    cond_c = chain is not None
    if not cond_c:
        witnesses["c"] = blocker

    primes = primes_of(L)
    cond_d = not primes
    if primes:
        witnesses["d"] = min(primes)

    radical = L.glb(primes)
    cond_e = radical == L.top
    if not cond_e:
        witnesses["e"] = radical

    # (f) by the definition: the least saturated m-system, grown from {top}
    # by every z above a product of two members, holds bottom exactly when
    # every m-system does.
    least = {L.top}
    while len(grown := {z for z in L.elements for x in least for y in least
                        if L.leq(L.mult(x, y), z)}) > len(least):
        least = grown
    cond_f = L.bottom in least
    if not cond_f:
        witnesses["f"] = tuple(sorted(least))

    conditions = {"a": cond_a, "b": cond_b, "c": cond_c,
                  "d": cond_d, "e": cond_e, "f": cond_f}
    if len(set(conditions.values())) != 1:
        raise TheoremViolation(f"empty-spectrum conditions disagree: {conditions}",
                               witness=witnesses)
    return HyperabelianReport(cond_a, chain, witnesses, tuple(notes))


def ref_order_flags(order):
    n = order.size
    top = order.top
    up_masks = order.up_masks
    out = []
    for x in range(n):
        maximal = x != top and up_masks[x] == (1 << x) | (1 << top)
        meet_irreducible = True
        for y in range(n):
            if y == x:
                continue
            for z in range(n):
                if z != x and order.meet_table[y][z] == x:
                    meet_irreducible = False
                    break
            if not meet_irreducible:
                break
        out.append((maximal, meet_irreducible))
    return tuple(out)


def ref_scan_mask(L, mask):
    mt = L.mult_table
    dm = L.down_masks
    xs = [x for x in range(L.size) if mask >> x & 1]
    m_wit = n_wit = None
    if not xs:
        is_m = is_n = False
    else:
        is_m = True
        for x in xs:
            row = mt[x]
            for y in xs:
                if not mask & dm[row[y]]:
                    is_m = False
                    m_wit = (x, y)
                    break
            if not is_m:
                break
        is_n = True
        for x in xs:
            if not mask & dm[mt[x][x]]:
                is_n = False
                n_wit = x
                break
    sat = True
    sat_wit = None
    for x in xs:
        extra = L.up_masks[x] & ~mask
        if extra:
            sat = False
            c = (extra & -extra).bit_length() - 1
            sat_wit = (x, c)
            break
    if is_m and not is_n:
        raise TheoremViolation("an m-system failed the n-system test", witness=n_wit)
    return is_m, is_n, sat, m_wit, n_wit, sat_wit


def outcome(build, *args):
    """What ``build(*args)`` gives: the report with its witness dict's items
    in order, or the exception class, message and witness."""
    try:
        report = build(*args)
    except LatticeError as exc:
        return type(exc).__name__, str(exc), exc.witness
    record = report.counterexamples if isinstance(report, FamilyReport) else report.witnesses
    return "ok", report, list(record.items())


def intervals(L):
    """Every interval [x, y] of ``L``."""
    return [cons.interval(L, x, y).lattice
            for x in L.elements for y in L.elements if L.leq(x, y)]


def agree_on(corpus):
    """Assert every report agrees on ``corpus``, its intervals and its
    products, and the order flags on each distinct order among them; returns
    how many lattices each kind of outcome covered."""
    seen = {"axioms": 0, "products": 0, "hyper": 0, "hyperabelian": 0}
    orders = set()
    for L in corpus:
        products = [cons.product(L, partner).lattice for partner in PRODUCT_PARTNERS]
        for M in [L, *intervals(L), *products]:
            assert outcome(check_axioms, M) == outcome(ref_check_axioms, M), M.name
            hyper = outcome(ANALYSES["hyperabelian"], M)     # uncached
            assert hyper == outcome(ref_hyperabelian_report, M), M.name
            seen["axioms"] += 1
            seen["hyper"] += hyper[0] == "ok"
            seen["hyperabelian"] += hyper[0] == "ok" and hyper[1].hyperabelian
            orders.add(M.order)
        for partner, M in zip(PRODUCT_PARTNERS, products):
            ax = outcome(check_axioms, M)
            assert ax == outcome(ref_check_axioms, M), M.name
            assert flags_of(ax[1]) == ref_product_flags(L, partner), M.name
            seen["products"] += 1
    for order in orders:
        assert _order_flags(order) == ref_order_flags(order)
    return seen


def test_exhaustive_corpus_agrees_with_the_flag_references():
    seen = agree_on(corpus_exhaustive_tables(4))
    assert seen["axioms"] > 3739 and seen["products"] == 2 * 3739
    # the empty-spectrum report ran, and found both answers
    assert seen["hyper"] > seen["hyperabelian"] > 0


def test_random_corpus_agrees_with_the_flag_references():
    seen = agree_on(corpus_random_tables(1000, 1729))
    assert seen["products"] == 2000


def test_named_corpus_agrees_with_the_flag_references(named_corpus):
    seen = agree_on(named_corpus)
    assert seen["hyper"] > 50


def test_products_of_failing_factors_agree_with_the_scan():
    """The corpus products above have a partner that fails no law; here
    either factor or both may fail.  The product's report is the scan of the
    product, and its flags are the conjunction of the factors' flags."""
    sample = corpus_exhaustive_tables(4)[::150]
    both_fail = 0
    for L1 in sample:
        for L2 in sample:
            M = cons.product(L1, L2).lattice
            ax = outcome(check_axioms, M)
            assert ax == outcome(ref_check_axioms, M), M.name
            assert flags_of(ax[1]) == ref_product_flags(L1, L2), M.name
            both_fail += bool(ref_check_axioms(L1).witnesses.keys()
                              & ref_check_axioms(L2).witnesses.keys())
    assert both_fail > 100


def test_shape_orders_agree_with_the_triple_loop():
    for name in LATTICE_SHAPES:
        L = shape_lattice(name)
        products = [cons.product(L, partner).lattice for partner in PRODUCT_PARTNERS]
        for M in [L, *intervals(L), *products]:
            assert _order_flags(M.order) == ref_order_flags(M.order), M.name


def test_every_family_of_the_exhaustive_corpus_agrees_with_the_reference():
    outcomes = set()
    for L in corpus_exhaustive_tables(4):
        for fmask in range(1 << L.size):
            F = L.set_of(fmask)
            got = outcome(classify_family, L, F)
            assert got == outcome(ref_classify_family, L, F), (L.name, F)
            rep = got[1]
            outcomes.add((rep.left_oka, rep.right_oka, rep.oka, rep.ako))
    # each flag holds on some family and fails on another
    assert all({o[i] for o in outcomes} == {True, False} for i in range(4))


@pytest.mark.parametrize("witnesses, flags", [
    ({}, (True, True, True, True, True)),
    ({"monotone": ("left", 0, 1, 2), "m_distributive": ("right", 0, 1, 1),
      "associative": None, "commutative": (0, 1)}, (False, False, False, True, False)),
])
def test_axiom_report_reads_each_flag_off_its_witness(witnesses, flags):
    rep = axiom_report(witnesses)
    assert (rep.monotone, rep.m_distributive, rep.infinitely_m_distributive,
            rep.associative, rep.commutative) == flags
    assert rep.witnesses.get("infinitely_m_distributive") == witnesses.get("m_distributive")
    assert None not in rep.witnesses.values()


def test_every_subset_scan_of_the_exhaustive_corpus_agrees_with_the_reference():
    def scan(build, L, mask):
        try:
            return build(L, mask)
        except LatticeError as exc:
            return type(exc).__name__, str(exc), exc.witness

    kinds = set()
    for L in corpus_exhaustive_tables(4):
        for mask in range(1 << L.size):
            got = scan(_scan_mask, L, mask)
            assert got == scan(ref_scan_mask, L, mask), (L.name, mask)
            kinds.add(got[:3])
    # every combination of the three flags that a subset can have turns up
    assert kinds == {(False, False, True), (False, False, False), (False, True, True),
                     (False, True, False), (True, True, True), (True, True, False)}
