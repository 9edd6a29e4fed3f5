import dataclasses
import gc
import importlib
import weakref

import pytest

from multlattice.constructions import (DisjointnessReport, LatticeMorphism,
                                       closed_subspace_spec, disjointness_criteria,
                                       identity_morphism, interval,
                                       lying_over, morphism,
                                       open_subspace_homeo, product,
                                       product_spec_check,
                                       projection_morphisms,
                                       quotient_morphism, right_adjoint,
                                       spec_map)
from multlattice.core import (BadParams, HypothesesFail, LatticeError,
                              MDistributivityRequired, NotAMorphism, NotComparable, NotPrimeInInterval,
                              TheoremViolation, build_order, check_axioms,
                              replace_mult, validate)
from multlattice.ingest import chain, zn_ideals
from multlattice.spectrum import (classify_all, hyperabelian_report, prime_mask,
                                  spectrum, v_set)
from multlattice.verify import (PRODUCT_PARTNERS, corpus_exhaustive_tables,
                                corpus_named, corpus_random_tables, enumerate_tables,
                                run_row, shape_lattice, verify_all)

from conftest import cached, mk_chain

constructions_module = importlib.import_module("multlattice.constructions")


def test_full_interval_is_the_lattice():
    L = zn_ideals(12)
    iv = interval(L, L.bottom, L.top)
    assert iv.lattice.size == L.size
    assert iv.lattice.mult_table == L.mult_table
    assert iv.embedding == tuple(L.elements)


def test_point_interval():
    L = mk_chain(3, min)
    iv = interval(L, 1, 1)
    assert iv.lattice.size == 1


def test_interval_requires_comparable_endpoints():
    L = validate(size=4, covers=[(0, 1), (0, 2), (1, 3), (2, 3)],
                 mult=lambda x, y: 0, name="M2")
    with pytest.raises(NotComparable):
        interval(L, 1, 2)


def test_interval_of_zero_chain_gives_maximal_not_prime_shape():
    L = mk_chain(3, lambda x, y: 0)
    iv = interval(L, 1, 2)
    M = iv.lattice
    assert M.size == 2
    assert M.mult(M.top, M.top) == M.bottom
    flags = classify_all(M)[M.bottom]
    assert flags.maximal and not flags.prime


def test_interval_multiplication_is_shifted_product():
    L = zn_ideals(12)
    lo = L.labels.index("(6)")
    iv = interval(L, lo, L.top)
    M = iv.lattice
    for i in M.elements:
        for j in M.elements:
            a, b = iv.to_parent(i), iv.to_parent(j)
            assert iv.to_parent(M.mult(i, j)) == L.join(L.mult(a, b), lo)


def test_closed_subspace_bottom_gives_whole_spectrum():
    L = zn_ideals(12)
    rep = closed_subspace_spec(L, L.bottom)
    assert rep.spec_in_parent == spectrum(L).primes


def test_closed_subspace_prime_interval():
    L = mk_chain(3, min)
    rep = closed_subspace_spec(L, 1)      # a is prime
    M = rep.interval.lattice
    assert rep.l_is_prime and classify_all(M)[M.bottom].prime
    assert rep.spec_in_parent == v_set(L, 1) == frozenset({1})

    zero = mk_chain(3, lambda x, y: 0)
    rep = closed_subspace_spec(zero, 1)   # a is not prime
    M = rep.interval.lattice
    assert not rep.l_is_prime and not classify_all(M)[M.bottom].prime


def test_closed_subspace_zn12_golden():
    L = zn_ideals(12)
    l6 = L.labels.index("(6)")
    rep = closed_subspace_spec(L, l6)
    assert sorted(L.labels[p] for p in rep.spec_in_parent) == ["(2)", "(3)"]
    assert rep.interval.lattice.size == 4


def test_product_with_point_is_identity_on_spectra():
    L = mk_chain(3, min)
    point = chain(1, "meet")
    rep = product_spec_check(L, point)
    assert len(rep.left_part) == len(spectrum(L).primes)
    assert rep.right_part == frozenset()


def test_product_of_unit_two_chains_two_point_discrete():
    unit = mk_chain(2, min)
    rep = product_spec_check(unit, unit)
    M = rep.product.lattice
    srep = spectrum(M)
    assert len(srep.primes) == 2
    assert srep.zariski.is_discrete()


def test_product_of_hyperabelians_is_hyperabelian():
    zero = mk_chain(3, lambda x, y: 0)
    P = product(zero, zero)
    assert hyperabelian_report(P.lattice).hyperabelian
    assert spectrum(P.lattice).primes == frozenset()


def test_product_when_generators_leave_out_bottom():
    L = validate(size=2, covers=[(0, 1)], mult=min, generators=[1], name="g")
    P = product(L, L)
    assert P.lattice.generators == frozenset(range(4))
    assert len(product_spec_check(L, L).left_part) == 1


def test_product_generators_are_pairs_when_bottoms_generate():
    L = validate(size=4, covers=[(0, 1), (0, 2), (1, 3), (2, 3)],
                 mult=lambda x, y: 0, generators=[0, 1, 2], name="M2")
    assert product(L, L).lattice.generators == frozenset(
        a * 4 + b for a in (0, 1, 2) for b in (0, 1, 2))


def ref_product_spec(L1, L2):
    """``product_spec_check`` on frozensets: the pieces as sets of pairs, the
    product's Zariski closures read from its prime mask and its order, the
    factors' from their spectrum reports, and lambda embeddings.  Returns the
    two pieces, or raises what the library raises."""
    spec = constructions_module.spectrum
    P = product(L1, L2)
    M = P.lattice
    primes = M.set_of(constructions_module.prime_mask(M))
    s1, s2 = spec(L1), spec(L2)
    left_part = frozenset(P.pair_to_index(p, L2.top) for p in s1.primes)
    right_part = frozenset(P.pair_to_index(L1.top, p) for p in s2.primes)
    if primes != left_part | right_part or left_part & right_part:
        raise TheoremViolation("product spectrum is not the expected disjoint union",
                               witness=tuple(sorted(primes ^ (left_part | right_part))))
    closures = {x: frozenset(y for y in primes if M.leq(x, y)) for x in primes}
    moved = [embed(p) for srep, embed in ((s1, lambda p: P.pair_to_index(p, L2.top)),
                                          (s2, lambda p: P.pair_to_index(L1.top, p)))
             for p, c in srep.zariski.closures.items()
             if closures[embed(p)] != frozenset(map(embed, c))]
    if moved:
        raise TheoremViolation("product spectrum pieces are not homeomorphic "
                               "to the factor spectra", witness=min(moved))
    # a piece whose points keep their factor closures is closed, hence clopen
    assert all(frozenset().union(*map(closures.get, part)) == part
               for part in (left_part, right_part))
    return left_part, right_part


def _drop_product_prime(mask, L):
    return mask & ~(1 << mask.bit_length() - 1) if "x" in L.name and mask else mask


def _add_product_top(mask, L):
    return mask | 1 << L.top if "x" in L.name else mask


def _drop_factor_prime(rep, L):
    return (dataclasses.replace(rep, primes=rep.primes - {min(rep.primes)})
            if "x" not in L.name and rep.primes else rep)


@pytest.mark.parametrize("fault", [None, _drop_product_prime, _add_product_top,
                                   _drop_factor_prime])
def test_product_spec_check_agrees_with_the_set_reference(fault, named_corpus,
                                                          small_exhaustive_corpus,
                                                          monkeypatch):
    """The mask checks give the pieces, or the message and witness, that the
    frozenset checks give, on true spectra and on planted wrong ones: the
    product's primes are planted at its prime mask, a factor's at its
    spectrum report."""
    if fault is not None:
        where = "spectrum" if fault is _drop_factor_prime else "prime_mask"
        real = getattr(constructions_module, where)
        monkeypatch.setattr(constructions_module, where, lambda L: fault(real(L), L))
    outcomes = set()
    for L in list(small_exhaustive_corpus) + list(named_corpus):
        for partner in PRODUCT_PARTNERS:
            for L1, L2 in ((L, partner), (partner, L)):
                got = outcome(lambda: product_spec_check(L1, L2))
                if not isinstance(got, tuple):
                    got = got.left_part, got.right_part
                assert got == outcome(lambda: ref_product_spec(L1, L2)), (L1.name, L2.name)
                outcomes.add(got[0] if isinstance(got[0], str) else "ok")
    assert outcomes == {"ok"} if fault is None else "TheoremViolation" in outcomes


def test_product_check_names_the_point_whose_closure_moved(monkeypatch):
    # In chain3 x chain2 the primes (0,1) and (a,1) are bits 1 and 3, and the
    # closure of (0,1) is {(0,1), (a,1)}.  Taking (a,1) out of the product's
    # up((0,1)) once its primes are known leaves the partition intact but
    # moves that closure.
    real, built = constructions_module.product, []

    def planted(L1, L2):
        P = real(L1, L2)
        M = P.lattice
        constructions_module.prime_mask(M)
        M.up_masks = M.up_masks[:1] + (M.up_masks[1] & ~(1 << 3),) + M.up_masks[2:]
        built.append(M)
        return P

    monkeypatch.setattr(constructions_module, "product", planted)
    with pytest.raises(TheoremViolation, match="not homeomorphic") as info:
        product_spec_check(chain(3, "meet"), chain(2, "meet"))
    assert built[0].labels[info.value.witness] == "(0,1)"


def test_each_product_is_validated_once(monkeypatch):
    # A product shares its factors' orders, but its table is still checked.
    calls = []
    real = constructions_module.validate
    monkeypatch.setattr(constructions_module, "validate",
                        lambda **kw: calls.append(kw) or real(**kw))
    for L in (chain(3, "meet"), zn_ideals(12)):
        for partner in PRODUCT_PARTNERS:
            calls.clear()
            M = product(L, partner).lattice
            assert len(calls) == 1
            assert calls[0]["order"] is M.order


def test_the_product_row_builds_no_axiom_report(monkeypatch):
    # no row reads a product's axiom report, so the product row builds none
    real, built = constructions_module.product, []
    monkeypatch.setattr(constructions_module, "product",
                        lambda L1, L2: built.append(real(L1, L2)) or built[-1])
    corpus = corpus_named()
    for L in corpus:
        assert run_row(L, "constructions.product_spectrum").passed, L.name
    assert len(built) == 2 * len(corpus)
    assert [P.lattice.name for P in built if "axioms" in P.lattice._cache] == []


def test_a_shift_off_bottom_fails_the_interval_restriction(monkeypatch):
    # [bottom, top] of chain3_meet with the shift z -> z v bottom read as
    # sending bottom to a: the product 0 * 0 = 0 comes out as a
    real = constructions_module._interval_order

    def planted(order, x, y):
        elems, shifted, restricted = real(order, x, y)
        return elems, {**shifted, order.bottom: 1}, restricted

    monkeypatch.setattr(constructions_module, "_interval_order", planted)
    assert run_row(mk_chain(3, min), "constructions.interval_bottom_restriction").detail == (
        "TheoremViolation: interval from bottom must restrict the multiplication "
        "(witness (0, 0))")


def test_intervals_are_never_validated(monkeypatch):
    # An interval is bounded by construction; only its parent's table is
    # checked.
    lattices, calls = (chain(3, "meet"), zn_ideals(12)), []
    core_module = importlib.import_module("multlattice.core")
    for module, name in ((core_module, "validate"), (core_module, "_bounded_table"),
                         (constructions_module, "validate")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, name=name, **kw:
                            calls.append(name) or real(*a, **kw))
    for L in lattices:
        for x in L.elements:
            for y in L.up(x):
                interval(L, x, y)
    assert calls == []


def product_from_scratch(L1, L2):
    """The product built by validating its full description from scratch."""
    pairs = [(a, b) for a in L1.elements for b in L2.elements]
    gens = [k for k, (a, b) in enumerate(pairs)
            if (a in L1.generators or a == L1.bottom)
            and (b in L2.generators or b == L2.bottom)]
    return validate(
        relation=[[L1.leq(a, c) and L2.leq(b, d) for c, d in pairs] for a, b in pairs],
        mult=[[pairs.index((L1.mult(a, c), L2.mult(b, d))) for c, d in pairs]
              for a, b in pairs],
        generators=gens, labels=[f"({L1.labels[a]},{L2.labels[b]})" for a, b in pairs],
        name=f"{L1.name}x{L2.name}")


def interval_from_scratch(L, x, y):
    """The interval built by validating its full description from scratch."""
    elems = [z for z in L.elements if L.leq(x, z) and L.leq(z, y)]
    return validate(
        relation=[[L.leq(a, b) for b in elems] for a in elems],
        mult=[[elems.index(L.join(L.mult(a, b), x)) for b in elems] for a in elems],
        labels=[L.labels[z] for z in elems],
        name=f"{L.name}[{L.labels[x]},{L.labels[y]}]")


def assert_same_lattice(M, R):
    # MultLattice.__eq__ leaves out the join and meet tables, so compare
    # every field; the relation must hold bools, as the JSON export shows it
    for attr in ("size", "relation", "join_table", "meet_table", "mult_table",
                 "bottom", "top", "generators", "labels", "name"):
        assert getattr(M, attr) == getattr(R, attr), (R.name, attr)
    assert all(type(v) is bool for row in M.relation for v in row), R.name


def test_every_derived_lattice_passes_validation(named_corpus):
    """Every product (both partners, both sides) and every interval of the
    exhaustive <= 4 and named corpora is the lattice that ``validate`` builds
    from its order, table, generators, labels and name."""
    count = 0
    for L in list(named_corpus) + corpus_exhaustive_tables(4):
        derived = [product(A, B).lattice for partner in PRODUCT_PARTNERS
                   for A, B in ((L, partner), (partner, L))]
        derived += [interval(L, x, y).lattice for x in L.elements for y in L.up(x)]
        for M in derived:
            assert_same_lattice(M, validate(order=M.order, mult=M.mult_table,
                                            generators=M.generators, labels=M.labels,
                                            name=M.name))
        count += len(derived)
    assert count > 40_000


def test_derived_lattices_match_validation_from_scratch(named_corpus):
    corpus = list(named_corpus) + corpus_exhaustive_tables(4)[::40]
    partners = (chain(2, "meet"), chain(2, "zero"))
    shifted_bottoms = 0
    for L in corpus:
        for partner in partners:
            assert_same_lattice(product(L, partner).lattice,
                                product_from_scratch(L, partner))
        for x in L.elements:
            for y in L.up(x):
                M = interval(L, x, y).lattice
                assert_same_lattice(M, interval_from_scratch(L, x, y))
                shifted_bottoms += M.bottom != 0
    assert shifted_bottoms  # some interval bottom is not its index 0



AXIOM_FLAGS = ("monotone", "m_distributive", "infinitely_m_distributive",
               "associative", "commutative")


def fails_on(M, flag, w):
    """Whether the witness ``w`` of ``flag`` is a failure of that axiom on ``M``."""
    if flag == "monotone":
        side, x, y, z = w
        a, b = ((M.mult(x, z), M.mult(y, z)) if side == "left"
                else (M.mult(z, x), M.mult(z, y)))
        return x != y and M.leq(x, y) and not M.leq(a, b)
    if flag in ("m_distributive", "infinitely_m_distributive"):
        side, x, y, z = w
        j = M.join(x, y)
        if side == "left":
            return x < y and M.mult(j, z) != M.join(M.mult(x, z), M.mult(y, z))
        return x < y and M.mult(z, j) != M.join(M.mult(z, x), M.mult(z, y))
    if flag == "associative":
        x, y, z = w
        return M.mult(M.mult(x, y), z) != M.mult(x, M.mult(y, z))
    x, y = w
    return x < y and M.mult(x, y) != M.mult(y, x)


def test_product_axioms_match_a_scan_of_the_product(named_corpus):
    # a product's report is the scan of the product: flags and witnesses
    # equal those of the product built from scratch, and each flag is the
    # conjunction of the factors' flags, failing from either side
    partners = (chain(2, "meet"), chain(2, "zero"))
    corpus = (list(named_corpus) + corpus_exhaustive_tables(4)[::40]
              + corpus_random_tables(10, seed=3))
    good = chain(3, "meet")
    pairs = [pair for L in corpus for p in partners for pair in ((L, p), (p, L))]
    pairs += [(good, L) for L in corpus[-10:]]              # only the right fails
    pairs += list(zip(corpus[-10:], corpus[-5:] + corpus[-10:-5]))
    failing = {"left": set(), "right": set()}
    for A, B in pairs:
        P = product(A, B)
        ax = check_axioms(P.lattice)
        assert ax == check_axioms(product_from_scratch(A, B)), (A.name, B.name)
        a, b = check_axioms(A), check_axioms(B)
        for flag in AXIOM_FLAGS:
            assert getattr(ax, flag) == (getattr(a, flag) and getattr(b, flag)), (
                A.name, B.name, flag)
        for flag, w in ax.witnesses.items():
            assert fails_on(P.lattice, flag, w), (A.name, B.name, flag, w)
            failing["left" if not getattr(a, flag) else "right"].add(flag)
    assert failing["left"] == failing["right"] == set(AXIOM_FLAGS)


def test_tables_on_one_shape_share_derived_orders():
    base = shape_lattice("diamond")
    tables = list(enumerate_tables(base))
    A = replace_mult(base, tables[5], name="a")
    B = replace_mult(base, tables[-5], name="b")
    partner = chain(2, "meet")
    assert A.order is B.order
    assert product(A, partner).lattice.order is product(B, partner).lattice.order
    # and so are the product's names, which depend only on the factors' names
    PA, PB = product(A, partner).lattice, product(B, partner).lattice
    assert PA.labels is PB.labels and PA.generators is PB.generators
    for x in A.elements:
        for y in A.up(x):
            assert interval(A, x, y).lattice.order is interval(B, x, y).lattice.order
    # the product order is keyed by the partner's order, not by its table
    other = replace_mult(partner, [[0, 0], [0, 0]])
    assert product(A, other).lattice.order is product(B, partner).lattice.order
    assert product(A, chain(2, "meet")).lattice.order is not product(A, partner).lattice.order


def test_products_are_not_pinned():
    # the factors stay alive; the product orders stay shared, as
    # test_tables_on_one_shape_share_derived_orders holds
    L, partner = zn_ideals(12), chain(2, "zero")
    rep = product_spec_check(L, partner)
    ref = weakref.ref(rep.product.lattice)
    del rep
    gc.collect()
    assert ref() is None


def outcome(fn):
    """What ``fn()`` returns, or the type, message and witness it raises."""
    try:
        return fn()
    except LatticeError as exc:
        return type(exc).__name__, str(exc), exc.witness


def derived_views(L, partners):
    """Every interval, product, projection spectrum map and quotient morphism
    of ``L``, as comparable values."""
    out = {}
    for x in L.elements:
        for y in L.up(x):
            iv = interval(L, x, y)
            out["interval", x, y] = iv.lattice, iv.embedding
    for k, partner in enumerate(partners):
        P = product(L, partner)
        out["product", k] = P.lattice, None
        for side, f in enumerate(projection_morphisms(P)):
            rep = spec_map(f)
            out["projection", k, side] = rep.adjoint, rep.point_map
    for l in L.elements:
        out["quotient", l] = outcome(lambda: quotient_morphism(L, l).mapping), None
    return out


@pytest.mark.parametrize("shape", ["chain3", "diamond", "chain4"])
def test_order_cache_leaks_nothing_between_tables(shape):
    """Lattices that share an order, visited in either order, give the same
    derived lattices and morphisms as lattices validated from scratch."""
    tables = list(enumerate_tables(shape_lattice(shape)))
    tables = tables[::len(tables) // 12 + 1]
    partners = (chain(2, "meet"), chain(2, "zero"))
    for ordered in (tables, tables[::-1]):
        base = shape_lattice(shape)
        shared = [replace_mult(base, t, name=f"{shape}#{i}")
                  for i, t in enumerate(ordered)]
        for L in shared:
            scratch = validate(relation=L.relation, mult=L.mult_table,
                               generators=L.generators, labels=L.labels,
                               name=L.name)
            assert scratch.order is not L.order
            got, want = derived_views(L, partners), derived_views(scratch, partners)
            assert got.keys() == want.keys()
            for key, (value, extra) in got.items():
                if isinstance(value, type(L)):
                    assert_same_lattice(value, want[key][0])
                    assert extra == want[key][1], (L.name, key)
                else:
                    assert (value, extra) == want[key], (L.name, key)
        # derived lattices of every table share one order per construction
        first, last = shared[0], shared[-1]
        assert (interval(first, first.bottom, first.top).lattice.order
                is interval(last, last.bottom, last.top).lattice.order)


def test_failed_order_law_fails_on_every_lattice_sharing_the_order():
    base = shape_lattice("diamond")
    tables = list(enumerate_tables(base))
    A = replace_mult(base, tables[0], name="a")
    B = replace_mult(base, tables[-1], name="b")
    assert A.order is B.order
    target = mk_chain(3, min)
    # f(1) v f(2) = 1, but f(1 v 2) = f(3) = 2
    for L in (A, B, A):
        with pytest.raises(NotAMorphism, match="join not preserved") as info:
            morphism(L, target, (0, 1, 1, 2))
        assert info.value.witness == (1, 2)
    assert cached(A.order, "order_laws") == {}       # a failed law is not kept


@pytest.mark.parametrize("extra", [{"size": 2}, {"covers": [(0, 1)]},
                                   {"relation": [[1, 1], [0, 1]]}])
def test_validate_order_excludes_other_order_arguments(extra):
    order = build_order(size=2, covers=[(0, 1)])
    with pytest.raises(BadParams):
        validate(order=order, mult=min, **extra)


def test_disjointness_bottom_pair():
    L = mk_chain(3, min)
    rep = disjointness_criteria(L, L.bottom, L.bottom)
    assert rep.cover and L.leq(L.mult(L.bottom, L.bottom), spectrum(L).semiprime_radical)
    assert not rep.v1_v2_disjoint


def test_the_whole_interval_has_the_lattices_six_conditions(named_corpus):
    # disjointness_criteria reads the report of [bottom, top] off L itself:
    # the interval has L's relation and table and the identity embedding.
    checked = 0
    for L in list(named_corpus) + corpus_exhaustive_tables(4):
        if check_axioms(L).m_distributive:
            whole = interval(L, L.bottom, L.top).lattice
            assert hyperabelian_report(whole) == hyperabelian_report(L), L.name
            checked += 1
    assert checked == 30 + 188


def test_disjointness_at_the_bottom_pair_builds_no_interval():
    L = zn_ideals(12)
    disjointness_criteria(L, L.bottom, L.bottom)
    assert cached(L, "interval") == {} and "hyperabelian" in L._cache
    assert cached(L, "upper_hyperabelian").keys() == {(L.bottom,)}


def test_each_disjointness_fault_fails_the_row(monkeypatch):
    # zn12's elements are (1), (2), (3), (4), (6), (12) in index order, so
    # top is 0 and bottom 5.  A six-condition report flipped on the lattices
    # of zn12's size lands on the one pair (5, 5) whose join is bottom, and
    # the flipped report is the one read off zn12 itself.
    hyper, spec = constructions_module.hyperabelian_report, constructions_module.spectrum
    L, flipped = zn_ideals(12), []

    def flip(M):
        rep = hyper(M)
        if M.size != L.size:
            return rep
        flipped.append(M)
        return dataclasses.replace(rep, hyperabelian=not rep.hyperabelian)

    monkeypatch.setattr(constructions_module, "hyperabelian_report", flip)
    assert run_row(L, "constructions.disjointness").detail == (
        "TheoremViolation: V(5) ^ V(5) empty is False, but the upper interval "
        "hyperabelian is True (witness (5, 5))")
    assert len(flipped) == 1 and flipped[0] is L
    monkeypatch.setattr(constructions_module, "hyperabelian_report", hyper)
    # the semiprime radical (6) read as bottom (12): then (1)*(6) = (6) is
    # not below it, although V((1)) u V((6)) is the whole spectrum
    monkeypatch.setattr(constructions_module, "spectrum", lambda M: dataclasses.replace(
        spec(M), semiprime_radical=M.bottom))
    assert run_row(zn_ideals(12), "constructions.disjointness").detail == (
        "TheoremViolation: V(0) u V(4) = Spec is True, but n1*n2 <= radical is False "
        "(witness (0, 4))")


def test_disjointness_refuses_or_reports_every_pair_as_defined(named_corpus):
    # Off its gate every pair is refused with the gate's message and the
    # m-distributivity witness, and nothing is kept; on it every pair's
    # report is read off Spec: V(n1), V(n2) disjoint, and covering Spec.
    refused = reported = 0
    for L in list(named_corpus) + corpus_exhaustive_tables(4):
        pairs = [(n1, n2) for n1 in L.elements for n2 in L.elements]
        if not check_axioms(replace_mult(L, L.mult_table)).m_distributive:
            for n1, n2 in pairs:
                with pytest.raises(MDistributivityRequired) as info:
                    disjointness_criteria(L, n1, n2)
                assert (str(info.value), info.value.witness) == (
                    "constructions.disjointness: not m-distributive",
                    check_axioms(L).witnesses["m_distributive"]), L.name
                refused += 1
            assert "disjointness" not in L._cache
            continue
        primes = spectrum(L).primes
        for n1, n2 in pairs:
            v1, v2 = primes & L.up(n1), primes & L.up(n2)
            assert disjointness_criteria(L, n1, n2) == DisjointnessReport(
                not v1 & v2, v1 | v2 == primes), (L.name, n1, n2)
            reported += 1
    assert refused > 10000 and reported > 1000


def test_the_disjointness_row_builds_no_axiom_report_on_its_intervals(named_corpus):
    # Each upper interval [n1 v n2, top] is gated on m-distributivity alone,
    # which is all its six conditions read.
    seen = 0
    for L in named_corpus:
        if not check_axioms(L).m_distributive:
            continue
        M = replace_mult(L, L.mult_table)
        assert run_row(M, "constructions.disjointness").passed, L.name
        uppers = [iv.lattice for (x, y), iv in cached(M, "interval").items()
                  if y == M.top and x != M.bottom]
        assert [N.name for N in uppers if "axioms" in N._cache] == [], L.name
        seen += len(uppers)
    assert seen > 50


def test_a_verify_run_builds_one_axiom_report_per_lattice(named_corpus, monkeypatch):
    # No derived lattice of a run is given a full axiom report: its gates
    # read the laws they name (the product partners' reports are built once,
    # before the count).  A report is built by its registry entry.
    core_module, built = importlib.import_module("multlattice.core"), []
    real = core_module.ANALYSES["axioms"]
    for partner in PRODUCT_PARTNERS:
        check_axioms(partner)
    monkeypatch.setitem(core_module.ANALYSES, "axioms", lambda M: built.append(M.name) or real(M))
    lattices = [replace_mult(L, L.mult_table) for L in named_corpus]
    assert verify_all(lattices).failed == 0
    assert built == [L.name for L in lattices]


def test_quotient_maps_are_the_joins_read_in_the_interval(named_corpus):
    # x -> x v l depends on the order alone and is kept per order; on every
    # lattice it is the from_parent map, and morphism() judges it as before.
    for L in list(named_corpus) + corpus_exhaustive_tables(4):
        for l in L.elements:
            iv = interval(L, l, L.top)
            join = tuple(iv.from_parent(L.join(x, l)) for x in L.elements)
            assert outcome(lambda: quotient_morphism(L, l).mapping) == outcome(
                lambda: morphism(L, iv.lattice, join).mapping), (L.name, l)


def test_disjointness_with_top():
    L = mk_chain(3, min)
    rep = disjointness_criteria(L, L.top, 0)
    assert rep.v1_v2_disjoint and rep.cover      # V(top) is empty, V(0) is Spec
    assert hyperabelian_report(interval(L, L.top, L.top).lattice).hyperabelian


def test_disjointness_on_product_coordinates():
    unit = mk_chain(2, min)
    P = product(unit, unit)
    n1 = 1 * unit.size + 0   # (1, 0)
    n2 = 0 * unit.size + 1   # (0, 1)
    rep = disjointness_criteria(P.lattice, n1, n2)
    # V(n1) and V(n2) are closed, so disjoint and covering they are clopen
    assert rep.v1_v2_disjoint and rep.cover
    assert v_set(P.lattice, n1) | v_set(P.lattice, n2) == spectrum(P.lattice).primes


def test_morphism_validation_errors():
    c2, c3 = mk_chain(2, min), mk_chain(3, min)
    with pytest.raises(NotAMorphism):
        morphism(c2, c3, (0, 1))      # top not preserved
    with pytest.raises(NotAMorphism):
        morphism(c2, c3, (1, 2))      # bottom not preserved
    with pytest.raises(NotAMorphism):
        morphism(c2, c3, (0, 2, 1))   # longer than the source
    with pytest.raises(NotAMorphism):
        morphism(c2, c3, (0,))        # shorter than the source
    zero3 = mk_chain(3, lambda x, y: 0)
    with pytest.raises(NotAMorphism):
        # zero-mult source into meet-mult target: f(1)f(1) = 1 !<= f(1*1) = 0
        morphism(zero3, mk_chain(3, min), (0, 1, 2))


@pytest.mark.parametrize("mapping", [(0, 1.9), (0, "1")])
def test_a_non_integer_mapping_value_is_refused(mapping):
    # operator.index decides, as it does for validate's cells: a float or a
    # string is refused rather than truncated or parsed.
    c2 = mk_chain(2, min)
    with pytest.raises(BadParams, match="^mapping values must be integers$"):
        morphism(c2, c2, mapping)


def test_bool_mapping_values_are_read_as_ints():
    c2 = mk_chain(2, min)
    f = morphism(c2, c2, (0, True))
    assert f.mapping == (0, 1) and {type(v) for v in f.mapping} == {int}


@pytest.mark.parametrize("corpus", ["exhaustive4", "named"])
def test_morphisms_by_construction_agree_with_morphism(corpus, named_corpus):
    """The identity and the projections of each product with a verify
    partner are built without the submultiplicativity loop; ``morphism``
    accepts each mapping and gives it back unchanged."""
    lattices = corpus_exhaustive_tables(4) if corpus == "exhaustive4" else named_corpus
    for L in lattices:
        f = identity_morphism(L)
        assert (f.source, f.target, f.mapping) == (L, L, tuple(L.elements))
        assert morphism(L, L, f.mapping).mapping == f.mapping
        for partner in PRODUCT_PARTNERS:
            P = product(L, partner)
            left, right = projection_morphisms(P)
            assert [(left(k), right(k)) for k in P.lattice.elements] == \
                [(i, j) for i in L.elements for j in partner.elements]
            for f, target in ((left, L), (right, partner)):
                assert (f.source, f.target) == (P.lattice, target)
                assert morphism(P.lattice, target, f.mapping).mapping == f.mapping


def test_identity_adjoint_and_spec_map():
    L = mk_chain(3, min)
    f = identity_morphism(L)
    assert right_adjoint(f) == tuple(L.elements)
    rep = spec_map(f)
    assert rep.point_map == {p: p for p in spectrum(L).primes}


def test_spec_map_fails_on_a_broken_adjunction_or_a_non_prime_image():
    # Continuity is not checked apart: it follows from the adjunction.  Each
    # of the two checks that remain fails on its own plant.
    L = zn_ideals(12)
    top_to_3 = (L.labels.index("(3)"), *L.elements[1:])   # joins not preserved
    assert L.top == 0
    with pytest.raises(TheoremViolation, match=r"^adjunction biconditional fails at \(1, 2\)$"):
        spec_map(LatticeMorphism(L, L, top_to_3))
    # the identity onto L from a copy whose lowest prime is planted away
    source = zn_ideals(12)
    spec = prime_mask(source)
    source._cache["prime_mask"] = spec & (spec - 1)
    with pytest.raises(TheoremViolation,
                       match=r"^adjoint image u\(1\) = 1 of a prime is not prime$") as exc:
        spec_map(LatticeMorphism(source, L, tuple(L.elements)))
    assert exc.value.witness == 1


def test_two_chain_into_three_chain_adjoint():
    c2, c3 = mk_chain(2, min), mk_chain(3, min)
    f = morphism(c2, c3, (0, 2))
    u = right_adjoint(f)
    assert u == (0, 0, 1)
    rep = spec_map(f)
    assert rep.point_map == {0: 0, 1: 0}


def test_projection_spec_maps_land_in_matching_parts():
    unit = mk_chain(2, min)
    c3 = mk_chain(3, min)
    P = product(unit, c3)
    left, right = projection_morphisms(P)
    for f in (left, right):
        # continuous: the preimage of each V(x) is V(f(x))
        rep = spec_map(f)
        for x in f.source.elements:
            assert {p for p, q in rep.point_map.items() if q in v_set(f.source, x)} \
                == v_set(f.target, f(x))
    # the left projection's spectrum map sends p1 to (p1, top)
    lrep = spec_map(left)
    for p1 in spectrum(unit).primes:
        assert lrep.point_map[p1] == P.pair_to_index(p1, c3.top)


def test_spec_map_composes_functorially():
    c2, c3 = mk_chain(2, min), mk_chain(3, min)
    f = morphism(c2, c3, (0, 2))
    g = quotient_morphism(c3, 0)   # identity-shaped quotient
    gf = morphism(c2, g.target, tuple(g.mapping[f.mapping[x]] for x in c2.elements))
    rep_f, rep_g, rep_gf = spec_map(f), spec_map(g), spec_map(gf)
    for p in spectrum(g.target).primes:
        assert rep_gf.point_map[p] == rep_f.point_map[rep_g.point_map[p]]


def test_quotient_morphism_spec_lands_in_upper_set():
    L = zn_ideals(12)
    l6 = L.labels.index("(6)")
    q = quotient_morphism(L, l6)
    rep = spec_map(q)
    for p, src in rep.point_map.items():
        assert L.leq(l6, src)


def test_lying_over_with_full_interval_is_identity():
    L = zn_ideals(12)
    for q in spectrum(L).primes:
        assert lying_over(L, L.top, q) == q


def test_lying_over_zn12_golden():
    L = zn_ideals(12)
    n = L.labels.index("(2)")
    q = L.labels.index("(6)")
    assert L.labels[lying_over(L, n, q)] == "(3)"


def test_lying_over_rejects_non_primes_in_interval():
    L = zn_ideals(12)
    n = L.labels.index("(2)")
    with pytest.raises(NotPrimeInInterval):
        lying_over(L, n, L.labels.index("(4)"))
    with pytest.raises(NotPrimeInInterval):
        lying_over(L, n, L.labels.index("(3)"))  # not even in the interval


def test_lying_over_hyperabelian_interval_has_no_primes_to_lift():
    L = mk_chain(3, lambda x, y: 0)
    assert check_axioms(L).infinitely_m_distributive
    with pytest.raises(NotPrimeInInterval):
        lying_over(L, 1, 0)   # [bottom, a] has an empty spectrum


def test_lying_over_requires_infinite_mdist():
    skewed = validate(size=4, covers=[(0, 1), (0, 2), (1, 3), (2, 3)],
                      mult=[[0] * 4, [0, 1, 0, 0], [0] * 4, [0] * 4], name="skew")
    assert not check_axioms(skewed).infinitely_m_distributive
    with pytest.raises(HypothesesFail):
        lying_over(skewed, skewed.top, 0)


def test_each_lying_prime_fault_fails_both_rows(monkeypatch):
    # lying_prime asserts each fact once; lying_over reaches it in [q, top]
    # and the annihilator row in [bottom, h], and both name parent elements.
    # zn12's elements are (1), (2), (3), (4), (6), (12) in index order.
    def details():
        return [run_row(zn_ideals(12), check).detail for check in
                ("constructions.lying_over", "constructions.annihilator_lying_prime")]

    annihilators, masks = constructions_module.annihilators, constructions_module.prime_mask
    monkeypatch.setattr(constructions_module, "annihilators", lambda M, x: dataclasses.replace(
        annihilators(M, x), rann=M.top))
    assert details() == [
        "TheoremViolation: left and right annihilators of 0 in [1, 0] differ (witness (1, 0))",
        "TheoremViolation: left and right annihilators of 3 in [5, 0] differ (witness (2, 0))"]
    monkeypatch.setattr(constructions_module, "annihilators", lambda M, x: dataclasses.replace(
        annihilators(M, x), lann=M.top, rann=M.top))
    assert details() == [
        "TheoremViolation: annihilator 0 is not a prime of [1, 0] meeting 0 at 1 (witness 0)",
        "TheoremViolation: annihilator 0 is not a prime of [5, 0] meeting 3 at 5 (witness 0)"]
    monkeypatch.setattr(constructions_module, "annihilators", annihilators)
    # the bottom of every interval read as prime: it meets n there too
    monkeypatch.setattr(constructions_module, "prime_mask", lambda M: masks(M) | 1 << M.bottom)
    assert details() == [
        "TheoremViolation: the lying prime is not unique: candidates [2, 4] (witness (2, 4))",
        "TheoremViolation: the lying prime is not unique: candidates [2, 5] (witness (2, 5))"]


def test_open_subspace_top_is_identity():
    L = zn_ideals(12)
    rep = open_subspace_homeo(L, L.top)
    assert rep.point_map == {p: iv_p for p, iv_p in
                             ((p, rep.interval.from_parent(p))
                              for p in spectrum(L).primes)}
    # [bottom, top] is L itself, so the two topologies are the same
    assert rep.interval.embedding == tuple(L.elements)
    assert spectrum(rep.interval.lattice).zariski.closures == spectrum(L).zariski.closures


def test_open_subspace_bottom_is_empty():
    L = zn_ideals(12)
    rep = open_subspace_homeo(L, L.bottom)
    assert rep.point_map == {}
    assert spectrum(rep.interval.lattice).primes == frozenset()


def test_open_subspace_zn12_golden():
    L = zn_ideals(12)
    n = L.labels.index("(2)")
    rep = open_subspace_homeo(L, n)
    src = L.labels.index("(3)")
    assert set(rep.point_map) == {src}
    assert rep.interval.lattice.labels[rep.point_map[src]] == "(6)"
    assert list(rep.point_map.values()) == list(spectrum(rep.interval.lattice).primes)


def test_open_subspace_bijection_names_the_missed_interval_prime(monkeypatch):
    # [bottom, top] of zn12 is zn12 itself; calling its bottom (12) prime
    # in the interval's prime mask gives it a prime that no p ^ top reaches.
    L = zn_ideals(12)
    M = interval(L, L.bottom, L.top).lattice
    monkeypatch.setitem(M._cache, "prime_mask", prime_mask(M) | 1 << M.bottom)
    with pytest.raises(TheoremViolation, match="not a bijection") as info:
        open_subspace_homeo(L, L.top)
    assert L.labels[info.value.witness] == "(12)"


def test_open_subspace_topology_names_the_point_whose_closure_moved(monkeypatch):
    # D(top) of zn12 is the discrete {(2), (3)}; putting (3) into the
    # interval's up-set of (2), so into the closure of (2) there, moves the
    # image of (2) alone.
    L = zn_ideals(12)
    M = interval(L, L.bottom, L.top).lattice
    two, three = L.labels.index("(2)"), L.labels.index("(3)")
    prime_mask(M)       # cached first: the nonprime pass reads up_masks
    up = list(M.up_masks)
    up[two] |= 1 << three
    monkeypatch.setattr(M, "up_masks", up)
    with pytest.raises(TheoremViolation, match="topologies do not match") as info:
        open_subspace_homeo(L, L.top)
    assert L.labels[info.value.witness] == "(2)"


def test_open_subspace_row_fails_on_a_misplaced_bottom_in_the_full_interval(monkeypatch):
    # [bottom, top] of zn12 reindexed with the parent's bottom sent to the
    # interval's top: no point of D(top) meets top at bottom, so the point
    # map and both topologies pass, and only D(bottom * top) = D(bottom),
    # empty in L but all of the interval's spectrum, tells them apart.
    L = zn_ideals(12)
    from_parent = constructions_module.IntervalLattice.from_parent

    def misplaced(iv, x):
        if iv.high == L.top and x == L.bottom:
            return from_parent(iv, L.top)
        return from_parent(iv, x)

    monkeypatch.setattr(constructions_module.IntervalLattice, "from_parent", misplaced)
    assert run_row(L, "constructions.open_subspace_homeo").detail == (
        f"TheoremViolation: image of D({L.bottom}*{L.top}) is not the matching "
        f"interval open (witness {L.bottom})")
