"""Cross-validation of the modular-ideal generator against a from-scratch
ring model: ideals as literal residue subsets, products as generated ideals,
everything recomputed without the divisor shortcut; and the Chinese
remainder theorem as a known isomorphism of products."""

from math import gcd

import pytest

from multlattice.constructions import morphism, product
from multlattice.ingest import zn_ideals
from multlattice.spectrum import spectrum


def ring_ideal_model(n):
    """All ideals of the integers mod n as frozensets of residues, with
    containment order and generated-subset products.

    Ideals are collected as the subgroups generated by each residue; for
    small n an exhaustive subset scan double-checks that this finds every
    additively closed subset containing 0 (i.e. that all ideals are
    principal), so nothing here leans on divisor arithmetic.
    """
    ideals = sorted({frozenset(d * k % n for k in range(n)) for d in range(n)},
                    key=lambda s: (len(s), sorted(s)))
    if n <= 12:
        by_scan = []
        for mask in range(1, 1 << n, 2):      # always contains 0
            members = frozenset(i for i in range(n) if mask >> i & 1)
            if all((a + b) % n in members for a in members for b in members):
                by_scan.append(members)
        assert sorted(by_scan, key=lambda s: (len(s), sorted(s))) == ideals

    def generated(subset):
        out = frozenset(range(n))
        for ideal in ideals:
            if subset <= ideal:
                out &= ideal
        return out

    def prod(i, j):
        return generated(frozenset((a * b) % n for a in i for b in j))

    return ideals, prod


@pytest.mark.parametrize("n", [4, 8, 12, 30])
def test_divisor_lattice_matches_ring_model(n):
    L = zn_ideals(n)
    ideals, prod = ring_ideal_model(n)
    assert len(ideals) == L.size

    # the label (d) names the ideal generated by d; build the dictionary
    def ideal_of(index):
        d = int(L.labels[index].strip("()"))
        return frozenset((d * k) % n for k in range(n))

    by_index = [ideal_of(x) for x in L.elements]
    assert sorted(by_index, key=sorted) == sorted(ideals, key=sorted)

    for x in L.elements:
        for y in L.elements:
            assert L.leq(x, y) == (by_index[x] <= by_index[y])
            assert by_index[L.mult(x, y)] == prod(by_index[x], by_index[y])
            assert by_index[L.join(x, y)] == \
                min((i for i in ideals if by_index[x] | by_index[y] <= i), key=len)
            assert by_index[L.meet(x, y)] == by_index[x] & by_index[y]


@pytest.mark.parametrize("n", [4, 8, 12, 30])
def test_primes_match_ring_model(n):
    L = zn_ideals(n)
    ideals, prod = ring_ideal_model(n)
    R = frozenset(range(n))

    def ideal_of(index):
        d = int(L.labels[index].strip("()"))
        return frozenset((d * k) % n for k in range(n))

    ring_primes = set()
    for p in ideals:
        if p == R:
            continue
        if all(not prod(i, j) <= p or i <= p or j <= p
               for i in ideals for j in ideals):
            ring_primes.add(p)
    lattice_primes = {ideal_of(x) for x in spectrum(L).primes}
    assert lattice_primes == ring_primes


@pytest.mark.parametrize("a, b", [(4, 9), (3, 4), (8, 9), (5, 12), (4, 15)])
def test_crt_map_is_an_isomorphism_of_products(a, b):
    """For coprime a and b, Z/ab is Z/a x Z/b, so ((d1), (d2)) |-> (gcd(d, ab))
    with d = d1 mod a and d = d2 mod b, found by search, is an isomorphism
    from the product of the ideal lattices onto that of Z/ab."""
    A, B, Z = zn_ideals(a), zn_ideals(b), zn_ideals(a * b)
    P = product(A, B)
    by_label = {label: z for z, label in enumerate(Z.labels)}

    def generator(L, x):
        return int(L.labels[x].strip("()"))

    f = [None] * P.lattice.size
    for i in A.elements:
        for j in B.elements:
            d1, d2 = generator(A, i), generator(B, j)
            d = next(d for d in range(a * b) if d % a == d1 % a and d % b == d2 % b)
            f[P.pair_to_index(i, j)] = by_label[f"({gcd(d, a * b)})"]
    assert sorted(f) == list(Z.elements)
    inverse = [f.index(z) for z in Z.elements]
    M = P.lattice
    assert all(f[M.mult(x, y)] == Z.mult(f[x], f[y]) for x in M.elements for y in M.elements)
    assert morphism(M, Z, f).mapping == tuple(f)
    assert morphism(Z, M, inverse).mapping == tuple(inverse)


def test_zn_ideals_of_a_large_modulus():
    # 99999999999 = 3^2 * 21649 * 513239 has 12 divisors, found by trial
    # division up to its square root
    L = zn_ideals(99999999999)
    assert L.size == 12
    assert L.labels[:4] == ("(1)", "(3)", "(9)", "(21649)")
    assert len(spectrum(L).primes) == 3


def test_zn_ideals_lists_every_divisor_in_ascending_order():
    for n in range(2, 500):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert zn_ideals(n).labels == tuple(f"({d})" for d in divisors), n
