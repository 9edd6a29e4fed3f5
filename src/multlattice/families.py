"""Residuals, annihilators, Oka/Ako families, and the prime ideal principle.

A family here is any subset F of the lattice containing top.  The four
closure schemas (left Oka, right Oka, Oka, Ako) are implication shapes over
residuals and joins; ``pip_check`` verifies that the maximal elements outside
a qualifying family are prime.  ``sigma_of_system`` builds the elements
avoiding an m-system and checks the maximality/primality statements for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (HypothesesFail, MultLattice, NotAnMSystem, TheoremViolation,
                   check_axioms, compact_elements, memo)
from .spectrum import classify_all
from .systems import classify_system


# --------------------------------------------------------------------------
# Residuals and annihilators


def residual_left(L: MultLattice, a: int, b: int) -> int:
    """(a :l b): the join of all x with x*b <= a, read from
    :func:`residual_tables`.

    The defining set always contains bottom, so the join exists.  No
    adjunction is assumed; when the lattice is infinitely m-distributive the
    bound mult(residual, b) <= a is asserted.
    """
    out = residual_tables(L)[0][a][b]
    if check_axioms(L).infinitely_m_distributive:
        if not L.relation[L.mult_table[out][b]][a]:
            raise TheoremViolation(
                f"residual bound fails: ({a} :l {b}) * {b} !<= {a}",
                witness=(a, b))
    return out


def residual_right(L: MultLattice, a: int, b: int) -> int:
    """(a :r b): the join of all x with b*x <= a, read from
    :func:`residual_tables`."""
    out = residual_tables(L)[1][a][b]
    if check_axioms(L).infinitely_m_distributive:
        if not L.relation[L.mult_table[b][out]][a]:
            raise TheoremViolation(
                f"residual bound fails: {b} * ({a} :r {b}) !<= {a}",
                witness=(a, b))
    return out


def residual_tables(L: MultLattice):
    """Both residual tables, indexed [l][a]; cached on the lattice since the
    family classifiers evaluate them for every (l, a) pair."""
    return memo(L, "residual_tables", lambda: _residual_tables(L))


def _residual_tables(L: MultLattice):
    n = L.size
    mt = L.mult_table
    jt = L.join_table
    dm = L.down_masks
    left = [[0] * n for _ in range(n)]
    right = [[0] * n for _ in range(n)]
    for l in range(n):
        dl = dm[l]
        for a in range(n):
            acc = L.bottom
            for x in range(n):
                if dl >> mt[x][a] & 1:
                    acc = jt[acc][x]
            left[l][a] = acc
            acc = L.bottom
            row = mt[a]
            for x in range(n):
                if dl >> row[x] & 1:
                    acc = jt[acc][x]
            right[l][a] = acc
    return tuple(tuple(r) for r in left), tuple(tuple(r) for r in right)


@dataclass(frozen=True)
class AnnihilatorReport:
    element: int
    rann: int
    lann: int
    right_center: int
    left_center: int


def annihilators(L: MultLattice, x: int) -> AnnihilatorReport:
    """Right/left annihilators of ``x`` (residuals at bottom) and the centers
    x ^ rann(x), x ^ lann(x).

    Under infinite m-distributivity the products x*rann(x) and lann(x)*x are
    asserted to be bottom.
    """
    rann = residual_right(L, L.bottom, x)
    lann = residual_left(L, L.bottom, x)
    if check_axioms(L).infinitely_m_distributive:
        if L.mult_table[x][rann] != L.bottom or L.mult_table[lann][x] != L.bottom:
            raise TheoremViolation(
                f"annihilator products of {x} are not bottom", witness=x)
    return AnnihilatorReport(x, rann, lann,
                             L.meet_table[x][rann], L.meet_table[x][lann])


# --------------------------------------------------------------------------
# Family classification


@dataclass
class FamilyReport:
    """The four closure flags for a family, with one re-checkable
    counterexample per failed flag.

    Counterexamples are lexicographically minimal: ``(a, l)`` for the Oka
    shapes, ``(l, a, b)`` for Ako, and the marker ``("top",)`` when the
    family fails simply because it misses top.
    """
    family: frozenset
    generators_used: frozenset
    left_oka: bool
    right_oka: bool
    oka: bool
    ako: bool
    counterexamples: dict = field(default_factory=dict)


def classify_family(L: MultLattice, F, A=None) -> FamilyReport:
    """Check the left-Oka, right-Oka, Oka and Ako implication schemas
    exhaustively over (a in A, l in L), resp. (l in L, a, b in A)."""
    family = frozenset(F)
    gens = L.generators if A is None else frozenset(A)
    fmask = L.mask_of(family)
    counterexamples: dict = {}
    if L.top not in family:
        for flag in ("left_oka", "right_oka", "oka", "ako"):
            counterexamples[flag] = ("top",)
        return FamilyReport(family, gens, False, False, False, False,
                            counterexamples)

    left_t, right_t = residual_tables(L)
    jt = L.join_table
    mt = L.mult_table
    a_sorted = sorted(gens)

    left_oka = right_oka = oka = True
    for a in a_sorted:
        for l in L.elements:
            if fmask >> l & 1:
                continue
            join_in = fmask >> jt[a][l] & 1
            if not join_in:
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
    for l in L.elements:
        row = jt[l]
        for a in a_sorted:
            if not fmask >> row[a] & 1:
                continue
            for b in a_sorted:
                if fmask >> row[b] & 1 and not fmask >> row[mt[a][b]] & 1:
                    ako = False
                    counterexamples["ako"] = (l, a, b)
                    break
            if not ako:
                break
        if not ako:
            break

    return FamilyReport(family, gens, left_oka, right_oka, oka, ako,
                        counterexamples)


# --------------------------------------------------------------------------
# Prime ideal principle


@dataclass
class PipReport:
    family: frozenset
    qualifying_cases: tuple      # which of the four hypotheses F satisfies
    maximal_outside: tuple       # maximal elements of L \ F, sorted
    classifications: dict        # each maximal element -> its element flags
    all_prime: bool


def pip_check(L: MultLattice, F, A=None) -> PipReport:
    """Verify that every maximal element outside a qualifying family is prime.

    The hypotheses are checked first: the lattice must be monotone and
    A-generated, and F must be left Oka, right Oka, Oka together with
    associativity, or Ako.  :class:`HypothesesFail` names whichever fails.
    """
    family = frozenset(F)
    gens = L.generators if A is None else frozenset(A)
    ax = check_axioms(L)
    if not ax.monotone:
        raise HypothesesFail("monotonicity fails",
                             witness=ax.witnesses.get("monotone"))
    for x in L.elements:
        if L.lub(a for a in gens if L.relation[a][x]) != x:
            raise HypothesesFail(
                f"lattice is not generated by the given set: element {x}",
                witness=x)
    rep = classify_family(L, family, gens)
    cases = []
    if rep.left_oka:
        cases.append("left_oka")
    if rep.right_oka:
        cases.append("right_oka")
    if rep.oka and ax.associative:
        cases.append("oka_associative")
    if rep.ako:
        cases.append("ako")
    if not cases:
        raise HypothesesFail(
            "family satisfies none of the four closure conditions",
            witness=rep.counterexamples)

    outside = [x for x in L.elements if x not in family]
    omask = L.mask_of(outside)
    maximal = [m for m in outside
               if not (L.up_masks[m] & omask & ~(1 << m))]
    flags = classify_all(L)
    for m in maximal:
        if not flags[m].prime:
            raise TheoremViolation(
                f"maximal element {m} outside a {cases[0]} family is not prime",
                witness=m)
    return PipReport(family, tuple(cases), tuple(sorted(maximal)),
                     {m: flags[m] for m in sorted(maximal)}, True)


# --------------------------------------------------------------------------
# Elements avoiding an m-system


@dataclass
class SigmaReport:
    sigma: frozenset             # elements with no member of S below them
    maximal_elements: frozenset
    maximal_are_prime: bool | None   # None when m-distributivity is missing
    complement_is_ako: bool | None


def sigma_of_system(L: MultLattice, S) -> SigmaReport:
    """The set of elements avoiding the m-system ``S`` and its maximal
    elements.

    Asserted: the set is nonempty (with maximal elements) exactly when
    bottom is not in S; on an m-distributive lattice the complement is a
    C(L)-Ako family and every maximal element of the set is prime.
    """
    ms = classify_system(L, S)
    if not ms.is_m:
        raise NotAnMSystem("input is not an m-system", witness=ms.m_witness)
    smask = L.mask_of(ms.members)
    sigma = [l for l in L.elements if not smask & L.down_masks[l]]
    sigma_mask = L.mask_of(sigma)
    maximal = [m for m in sigma if not (L.up_masks[m] & sigma_mask & ~(1 << m))]

    if L.bottom in ms.members:
        if sigma:
            raise TheoremViolation("bottom in S forces the avoiding set empty",
                                   witness=tuple(sigma))
    elif not maximal:
        raise TheoremViolation(
            "bottom not in S: the avoiding set must have maximal elements",
            witness=tuple(sorted(ms.members)))

    prime_ok = ako_ok = None
    if check_axioms(L).m_distributive:
        complement = frozenset(L.elements) - frozenset(sigma)
        ako_ok = classify_family(L, complement, compact_elements(L)).ako
        if not ako_ok:
            raise TheoremViolation(
                "complement of the avoiding set must be Ako on an "
                "m-distributive lattice", witness=tuple(sorted(ms.members)))
        flags = classify_all(L)
        prime_ok = all(flags[m].prime for m in maximal)
        if not prime_ok:
            bad = next(m for m in maximal if not flags[m].prime)
            raise TheoremViolation(
                f"maximal avoiding element {bad} is not prime", witness=bad)
    return SigmaReport(frozenset(sigma), frozenset(maximal), prime_ok, ako_ok)
