import dataclasses
import importlib

import pytest

from multlattice.constructions import interval, product
from multlattice.core import (MDistributivityRequired, NotGenerated, NotMaximal,
                              PrimeElement, TheoremViolation, check_axioms,
                              validate)
from multlattice.ingest import chain, zn_ideals
from multlattice.spectrum import (FiniteTopology, classify_all,
                                  hyperabelian_report, maximal_prime_criterion,
                                  non_prime_symmetric_witness, spectrum, v_set)
from multlattice.systems import (all_m_systems, constructible_topology,
                                 saturated_m_systems)
from multlattice.verify import (PRODUCT_PARTNERS, corpus_exhaustive_tables,
                                corpus_named, corpus_random_tables, run_row)

from conftest import mk_chain

spectrum_module = importlib.import_module("multlattice.spectrum")


def brute_prime(L, x):
    """Definitional oracle, written without the down-mask shortcuts."""
    if x == L.top:
        return False
    return all(not L.leq(L.mult(a, b), x) or L.leq(a, x) or L.leq(b, x)
               for a in L.elements for b in L.elements)


def test_chain_meet_every_proper_element_prime():
    L = mk_chain(3, min)
    assert classify_all(L)[1].prime
    assert sorted(spectrum(L).primes) == [0, 1]


def test_chain_zero_has_no_primes_or_semiprimes_below_top():
    L = mk_chain(3, lambda x, y: 0)
    flags = classify_all(L)[1]
    assert not flags.prime and not flags.semiprime
    assert not classify_all(L)[0].semiprime       # a*a = 0 <= 0 but a !<= 0
    assert spectrum(L).primes == frozenset()
    assert spectrum(L).semiprime_radical == L.top


def test_zn12_primes_against_definitional_oracle():
    L = zn_ideals(12)
    expected = {x for x in L.elements if brute_prime(L, x)}
    rep = spectrum(L)
    assert rep.primes == expected
    assert sorted(L.labels[p] for p in rep.primes) == ["(2)", "(3)"]


def test_classification_matches_oracle_everywhere(small_exhaustive_corpus):
    for L in small_exhaustive_corpus:
        flags = classify_all(L)
        for x in L.elements:
            assert flags[x].prime == brute_prime(L, x), (L.name, x)


def literal_flags(L):
    """(prime, semiprime) of every element, read off the definitions by a
    pair scan: x is prime when x != top and no a, b outside down(x) have
    ab <= x, and semiprime when no a outside down(x) has aa <= x."""
    rel, mt = L.relation, L.mult_table
    out = []
    for x in L.elements:
        outside = [a for a in L.elements if not rel[a][x]]
        prime = x != L.top and not any(rel[mt[a][b]][x]
                                       for a in outside for b in outside)
        semiprime = not any(rel[mt[a][a]][x] for a in outside)
        out.append((prime, semiprime))
    return out


ORACLE_CORPORA = {
    "exhaustive4": lambda: corpus_exhaustive_tables(4),
    "named": corpus_named,
    "random1000": lambda: corpus_random_tables(1000, 1),
}


@pytest.mark.parametrize("corpus", sorted(ORACLE_CORPORA))
def test_prime_flags_match_a_literal_pair_scan(corpus):
    # Each lattice, its products with both verify partners and each of its
    # intervals: the derived lattices are where the mask pass runs most.
    derived = 0
    for L in ORACLE_CORPORA[corpus]():
        family = [L] + [product(L, partner).lattice for partner in PRODUCT_PARTNERS]
        family += [interval(L, x, y).lattice for x in L.elements
                   for y in L.elements if L.leq(x, y)]
        for M in family:
            assert [(f.prime, f.semiprime) for f in classify_all(M)] == \
                literal_flags(M), M.name
        derived += len(family) - 1
    assert derived


def test_generator_cross_check_disagreement_raises(monkeypatch):
    # chain3 under the zero product is monotone and has no primes; a
    # generator pass that finds no failing pair calls 0 and 1 prime.  The
    # pass runs only on a proper generating set, here the join-irreducibles.
    L = validate(size=3, covers=[(0, 1), (1, 2)], mult=lambda x, y: 0,
                 generators=[1, 2], name="c3")
    real = spectrum_module._nonprime_mask
    monkeypatch.setattr(spectrum_module, "_nonprime_mask", lambda M, elems: (
        0 if elems is M.generators else real(M, elems)))
    with pytest.raises(TheoremViolation, match="generator-pair") as err:
        spectrum(L)
    assert err.value.witness == (0, 1)


def test_specialization_order_of_sierpinski_spectrum():
    L = mk_chain(3, min)
    rep = spectrum(L)
    assert rep.zariski.closures[0] == frozenset({0, 1})
    assert rep.zariski.closures[1] == frozenset({1})


def test_closed_set_identities(named_corpus):
    for L in named_corpus:
        for x in L.elements:
            for y in L.elements:
                assert v_set(L, L.mult(x, y)) == v_set(L, x) | v_set(L, y)
                assert v_set(L, L.join(x, y)) == v_set(L, x) & v_set(L, y)


def test_generator_shortcut_agrees_or_is_skipped(small_exhaustive_corpus):
    for L in small_exhaustive_corpus:
        rep = spectrum(L)
        if check_axioms(L).monotone:
            assert rep.primes_via_generators == rep.primes
        else:
            assert rep.primes_via_generators is None
            assert any("skipped" in n for n in rep.notes)


def test_join_irreducibles_generate_and_give_the_primes():
    """Every corpus lattice is generated by all its elements, so verify never
    runs validate's generation loop or the generator-pair pass, which runs
    on a proper generating set only.  Here each exhaustive table is
    validated again with its join-irreducibles (one lower cover each) as
    generators: they generate, no smaller set of them does, and on a
    monotone table the generator-pair prime test agrees with the
    definition."""
    monotone = 0
    for L in corpus_exhaustive_tables(4):
        lower = [0] * L.size
        for _, b in L.covers():
            lower[b] += 1
        gens = frozenset(x for x in L.elements if lower[x] == 1)
        M = validate(order=L.order, mult=L.mult_table, generators=gens,
                     labels=L.labels, name=L.name)
        assert M.generators == gens and len(gens) < M.size
        for g in gens:
            with pytest.raises(NotGenerated) as err:
                validate(order=L.order, mult=L.mult_table, generators=gens - {g})
            assert L.leq(g, err.value.witness)
        rep = spectrum(M)
        assert rep.primes == spectrum(L).primes, L.name
        if check_axioms(M).monotone:
            assert rep.primes_via_generators == rep.primes, L.name
            monotone += 1
    assert monotone > 200


def test_jacobson_radical_both_conventions():
    L = mk_chain(3, min)
    rep = spectrum(L)
    assert rep.jacobson_radical == 1   # join of maximal primes, as defined
    assert rep.jacobson_meet == 1
    Z = zn_ideals(12)
    zrep = spectrum(Z)
    assert Z.labels[zrep.jacobson_radical] == "(1)"
    assert Z.labels[zrep.jacobson_meet] == "(6)"


def test_maximal_prime_criterion_two_chains():
    unit = mk_chain(2, min)       # 1*1 = 1
    rep = maximal_prime_criterion(unit, 0)
    assert not rep.top_square_below and rep.raw_pair is None
    assert classify_all(unit)[0].prime

    zero = mk_chain(2, lambda x, y: 0)
    rep = maximal_prime_criterion(zero, 0)
    assert rep.top_square_below and not classify_all(zero)[0].prime
    assert tuple(zero.join(x, 0) for x in rep.raw_pair) == (zero.top, zero.top)


def test_maximal_prime_criterion_z4():
    L = zn_ideals(4)              # chain (4) < (2) < (1)
    m = L.labels.index("(2)")
    rep = maximal_prime_criterion(L, m)
    assert not rep.top_square_below and classify_all(L)[m].prime


def test_maximal_prime_criterion_guards():
    L = mk_chain(3, min)
    with pytest.raises(NotMaximal):
        maximal_prime_criterion(L, 0)
    # a*a = a but a*1 = 0 on the diamond: not monotone, hence not m-distributive
    skewed = validate(size=4, covers=[(0, 1), (0, 2), (1, 3), (2, 3)],
                      mult=[[0] * 4, [0, 1, 0, 0], [0] * 4, [0] * 4], name="skew")
    assert not check_axioms(skewed).m_distributive
    with pytest.raises(MDistributivityRequired):
        maximal_prime_criterion(skewed, 1)


def test_symmetric_witness_direct_and_constructed(assoc_noncomm):
    zero3 = mk_chain(3, lambda x, y: 0)
    x, y = non_prime_symmetric_witness(zero3, 1)
    assert (x, y) == (2, 2)       # 1*1 = 0 <= a with 1 !<= a

    L = assoc_noncomm
    flags = classify_all(L)
    p = next(x for x in L.elements if x != L.top and not flags[x].prime)
    x, y = non_prime_symmetric_witness(L, p)
    assert not L.leq(x, p) and not L.leq(y, p)
    assert L.leq(L.mult(x, y), p) and L.leq(L.mult(y, x), p)


def test_symmetric_witness_rejects_primes():
    L = mk_chain(3, min)
    with pytest.raises(PrimeElement):
        non_prime_symmetric_witness(L, 1)


def test_hyperabelian_chain_zero_mult():
    L = mk_chain(3, lambda x, y: 0)
    rep = hyperabelian_report(L)
    assert rep.hyperabelian and not rep.witnesses
    assert rep.chain == (0, 2)
    # the chain certifies condition (c): each successor squares below its
    # predecessor
    for lo, hi in zip(rep.chain, rep.chain[1:]):
        assert L.lt(lo, hi) and L.leq(L.mult(hi, hi), lo)


def test_hyperabelian_false_cases():
    meets = mk_chain(3, min)
    rep = hyperabelian_report(meets)
    assert not rep.hyperabelian and sorted(rep.witnesses) == list("abcdef")
    assert rep.witnesses["a"] == 0

    unit2 = mk_chain(2, min)
    assert not hyperabelian_report(unit2).hyperabelian


def test_disagreeing_conditions_fail_the_row(monkeypatch):
    # Condition (f) read as holding on chain3_meet, where the other five
    # fail: the report names each condition and the witnesses it found.
    systems_module = importlib.import_module("multlattice.systems")
    monkeypatch.setattr(systems_module, "first_m_system_without", lambda M, x: None)
    assert run_row(chain(3, "meet"), "hyper.six_conditions").detail == (
        "TheoremViolation: empty-spectrum conditions disagree: {'a': False, 'b': False, "
        "'c': False, 'd': False, 'e': False, 'f': True} "
        "(witness {'a': 0, 'b': 0, 'c': 0, 'd': 0, 'e': 0})")


def test_hyperabelian_one_element_lattice():
    L = validate(size=1, covers=[], mult=lambda x, y: 0, name="pt")
    rep = hyperabelian_report(L)
    assert rep.hyperabelian and rep.chain == (0,)


def test_hyperabelian_above_the_powerset_limit():
    # 13 elements is one above POWERSET_LIMIT: condition (f) reads the
    # saturated m-systems, which decide it, so the report carries no cap note
    rep = hyperabelian_report(chain(13, "zero"))
    assert rep.hyperabelian and "f" not in rep.witnesses
    rep = hyperabelian_report(chain(13, "meet"))
    assert not rep.hyperabelian and rep.witnesses["f"] == (12,)
    assert rep.notes == ("condition (c) is the finite instantiation: only finite "
                         "chains are built",)


def brute_chain_exists(L):
    """Exhaustive oracle for the squaring-chain condition: depth-first search
    over all strictly ascending chains from bottom, independent of the greedy
    construction."""
    def reachable(x):
        if x == L.top:
            return True
        return any(L.lt(x, y) and L.leq(L.mult(y, y), x) and reachable(y)
                   for y in L.elements)
    return reachable(L.bottom)


def test_greedy_chain_agrees_with_exhaustive_search(small_exhaustive_corpus):
    for L in small_exhaustive_corpus:
        if not check_axioms(L).m_distributive:
            continue
        rep = hyperabelian_report(L)
        assert (rep.chain is not None) == brute_chain_exists(L), L.name


def brute_m_system_without_bottom(L):
    """The first subset in mask order that avoids bottom and is an m-system,
    by the definition: some member lies below x*y for all members x, y."""
    for mask in range(1, 1 << L.size):
        xs = [x for x in L.elements if mask >> x & 1]
        if L.bottom not in xs and all(
                any(L.leq(z, L.mult(x, y)) for z in xs) for x in xs for y in xs):
            return tuple(xs)
    return None


def test_condition_f_modes_agree(small_exhaustive_corpus):
    # Bottom lies in every m-system exactly when it lies in every saturated
    # one, so the least saturated m-system decides condition (f), and it is
    # the witness when it lacks bottom.
    for L in small_exhaustive_corpus:
        if not check_axioms(L).m_distributive:
            continue
        in_all = all(L.bottom in s for s in all_m_systems(L))
        saturated = saturated_m_systems(L)
        assert in_all == all(L.bottom in s for s in saturated), L.name
        rep = hyperabelian_report(L)
        witness = brute_m_system_without_bottom(L)
        assert ("f" not in rep.witnesses) == in_all == (witness is None), L.name
        least = frozenset.intersection(*saturated)
        assert rep.witnesses.get("f") == (None if in_all else tuple(sorted(least))), L.name


# Two points whose one closure is both of them.
INDISCRETE = FiniteTopology(frozenset({1, 2}), {1: frozenset({1, 2}), 2: frozenset({1, 2})})


def brute_sober(T):
    """Independent sobriety oracle using the cover formulation of
    irreducibility: C <= A u B forces C <= A or C <= B."""
    t0, _ = T.is_t0()
    if not t0:
        return False
    closed = list(T.closed_sets)
    for c in closed:
        if not c:
            continue
        irreducible = all(not c <= a | b or c <= a or c <= b
                          for a in closed for b in closed)
        if irreducible:
            generic = [p for p in c if T.closures[p] == c]
            if len(generic) != 1:
                return False
    return True


def test_sober_check_against_cover_oracle(small_exhaustive_corpus):
    seen = 0
    for L in small_exhaustive_corpus:
        rep = spectrum(L)
        assert rep.zariski.is_t0()[0] == brute_sober(rep.zariski)
        seen += 1
    assert seen
    assert INDISCRETE.is_t0()[0] == brute_sober(INDISCRETE) == False


def test_sober_check_examples():
    empty = FiniteTopology(frozenset(), {})
    assert empty.is_t0() == (True, None) and brute_sober(empty)

    sierpinski = FiniteTopology(frozenset({0, 1}), {0: frozenset({0, 1}), 1: frozenset({1})})
    assert sierpinski.is_t0() == (True, None) and brute_sober(sierpinski)

    assert INDISCRETE.is_t0() == (False, (1, 2))


def test_spectrum_refuses_a_zariski_topology_that_is_not_t0(monkeypatch):
    # The witness is the closure the two points share.
    monkeypatch.setattr(FiniteTopology, "is_t0", lambda T: (False, (0, 1)))
    with pytest.raises(TheoremViolation, match="Zariski topology is not sober") as err:
        spectrum(mk_chain(3, min))
    assert err.value.witness == frozenset({0, 1})


def test_every_corpus_spectrum_is_sober(named_corpus, small_exhaustive_corpus):
    for L in named_corpus + small_exhaustive_corpus:
        assert spectrum(L).sober, L.name


def test_constructible_topology_of_a_long_chain_is_discrete():
    assert constructible_topology(chain(12, "meet")).is_discrete()


def test_each_spectrum_row_fault_fails_the_row(monkeypatch):
    # zn12: top (1) is 0, bottom (12) is 5, Spec = {(2), (3)} and the
    # semiprime radical is (6), index 4
    verify_module = importlib.import_module("multlattice.verify")
    mask, report = verify_module.prime_mask, verify_module.spectrum

    def detail(check, L=None):
        return run_row(L or zn_ideals(12), check).detail

    # a prime bit past the last element, which V(bottom) = up(bottom) cannot hold
    monkeypatch.setattr(verify_module, "prime_mask", lambda M: mask(M) | 1 << M.size)
    assert detail("spectrum.v_identities") == "TheoremViolation: V(bottom) != Spec (witness 5)"
    monkeypatch.setattr(verify_module, "prime_mask", mask)
    # the radical read as bottom (12), which is not semiprime: (6)(6) = (12)
    monkeypatch.setattr(verify_module, "spectrum", lambda M: dataclasses.replace(
        report(M), semiprime_radical=M.bottom))
    assert detail("spectrum.radical_semiprime") == (
        "TheoremViolation: semiprime radical is not semiprime (witness 5)")
    # ... and on chain3_zero, whose spectrum is empty, the radical must be top
    assert not report(chain(3, "zero")).primes
    assert detail("spectrum.radical_semiprime", chain(3, "zero")) == (
        "TheoremViolation: empty spectrum must give radical = top (witness 0)")


def test_a_flipped_prime_flag_on_a_maximal_element_fails_the_row(monkeypatch):
    # chain3_meet's maximal element 1 is prime and 1*1 = top is not below
    # it; read as not prime, the criterion and the flag disagree.
    real = spectrum_module.classify_all
    monkeypatch.setattr(spectrum_module, "classify_all", lambda M: tuple(
        dataclasses.replace(f, prime=not f.prime) if f.maximal else f for f in real(M)))
    assert run_row(chain(3, "meet"), "spectrum.maximal_prime_criterion").detail == (
        "TheoremViolation: maximal element 1: 1*1 <= m is False but prime is False "
        "(witness 1)")


def test_a_nonprime_pair_whose_joins_miss_top_fails_the_row(monkeypatch):
    # chain3_zero's maximal element 1 is not prime; a pair planted at (1, 1)
    # joins with 1 to (1, 1), not to (top, top).
    monkeypatch.setattr(spectrum_module, "_nonprime_pair", lambda M, p: (p, p))
    assert run_row(chain(3, "zero"), "spectrum.maximal_prime_criterion").detail == (
        "TheoremViolation: joins with a maximal element did not reach top (witness (1, 1))")


def test_a_constructed_pair_that_is_no_symmetric_witness_fails_the_row(monkeypatch):
    # chain3_zero is m-distributive and associative and 0 is not prime; a
    # one-sided pair planted at (0, 0) leads the construction to (0, 0),
    # which lies below 0.
    monkeypatch.setattr(spectrum_module, "_nonprime_pair", lambda M, p: (p, p))
    assert run_row(chain(3, "zero"), "spectrum.symmetric_nonprime_witness").detail == (
        "TheoremViolation: constructed pair (0, 0) is not a symmetric witness for 0 "
        "(witness (0, 0))")
