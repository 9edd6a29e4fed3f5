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
                   check_axioms, compact_elements, memo, require)
from .spectrum import classify_all
from .systems import bit_indices, classify_system, subset_columns


# --------------------------------------------------------------------------
# Residuals and annihilators


def residual_left(L: MultLattice, a: int, b: int) -> int:
    """(a :l b): the join of all x with x*b <= a, read from
    :func:`residual_tables`.

    The defining set always contains bottom, so the join exists.  No
    adjunction is assumed.
    """
    return residual_tables(L)[0][a][b]


def residual_right(L: MultLattice, a: int, b: int) -> int:
    """(a :r b): the join of all x with b*x <= a, read from
    :func:`residual_tables`."""
    return residual_tables(L)[1][a][b]


def residual_tables(L: MultLattice):
    """Both residual tables, indexed [l][a]; cached on the lattice since the
    family classifiers evaluate them for every (l, a) pair.

    When the lattice is infinitely m-distributive the bounds
    (l :l a) * a <= l and a * (l :r a) <= l are asserted for every pair,
    once, when the tables are built.
    """
    return memo(L, "residual_tables", lambda: _residual_tables(L))


def _residual_tables(L: MultLattice):
    n = L.size
    mt = L.mult_table
    jt = L.join_table
    dm = L.down_masks
    bounded = check_axioms(L).infinitely_m_distributive
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
            if bounded and not dl >> mt[left[l][a]][a] & 1:
                raise TheoremViolation(f"residual bound fails: ({l} :l {a}) * {a} !<= {l}",
                                       witness=(l, a))
            if bounded and not dl >> row[acc] & 1:
                raise TheoremViolation(f"residual bound fails: {a} * ({l} :r {a}) !<= {l}",
                                       witness=(l, a))
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


def classify_family(L: MultLattice, F) -> FamilyReport:
    """Check the left-Oka, right-Oka, Oka and Ako implication schemas
    exhaustively over (a in A, l in L), resp. (l in L, a, b in A), A = L.generators.
    The family is a mask inside and a frozenset in the report."""
    family = frozenset(F)
    counterexamples = _counterexamples(L, L.mask_of(family))
    return FamilyReport(family, L.generators, "left_oka" not in counterexamples,
                        "right_oka" not in counterexamples, "oka" not in counterexamples,
                        "ako" not in counterexamples, counterexamples)


def _counterexamples(L: MultLattice, fmask: int) -> dict:
    """The first counterexample to each closure schema that the family
    ``fmask`` fails, keyed by the flag it refutes."""
    if not fmask >> L.top & 1:
        return dict.fromkeys(("left_oka", "right_oka", "oka", "ako"), ("top",))
    left_t, right_t = residual_tables(L)
    a_sorted = memo(L, "sorted_generators", lambda: sorted(L.generators))
    counterexamples = {}
    for a in a_sorted:
        for l, al in enumerate(L.join_table[a]):
            if fmask >> l & 1 or not fmask >> al & 1:
                continue
            lres_in = fmask >> left_t[l][a] & 1
            rres_in = fmask >> right_t[l][a] & 1
            if lres_in and "left_oka" not in counterexamples:
                counterexamples["left_oka"] = (a, l)
            if rres_in and "right_oka" not in counterexamples:
                counterexamples["right_oka"] = (a, l)
            if lres_in and rres_in and "oka" not in counterexamples:
                counterexamples["oka"] = (a, l)
    if ako := _ako_witness(L, fmask, a_sorted):
        counterexamples["ako"] = ako
    return counterexamples


def _ako_witness(L: MultLattice, fmask: int, a_sorted) -> tuple | None:
    """The first (l, a, b), a and b from ``a_sorted``, with l v a and l v b
    in the family ``fmask`` and l v a*b outside it; None when it is Ako."""
    mt = L.mult_table
    for l, row in enumerate(L.join_table):
        for a in a_sorted:
            if fmask >> row[a] & 1:
                for b in a_sorted:
                    if fmask >> row[b] & 1 and not fmask >> row[mt[a][b]] & 1:
                        return l, a, b
    return None


# --------------------------------------------------------------------------
# Prime ideal principle


@dataclass
class PipReport:
    """The maximal elements outside a qualifying family, each of which
    :func:`pip_check` has checked to be prime; their flags are
    :func:`spectrum.classify_all`'s."""
    family: frozenset
    qualifying_cases: tuple      # which of the four hypotheses F satisfies
    maximal_outside: tuple       # maximal elements of L \ F, sorted


def pip_check(L: MultLattice, F) -> PipReport:
    """Verify that every maximal element outside a qualifying family is prime.

    The hypotheses are checked first: the lattice must be monotone (it is
    generated by ``L.generators``, which :func:`core.validate` checked), and
    F must be left Oka, right Oka, Oka together with associativity, or Ako.
    :class:`HypothesesFail` names whichever fails.  The family is a mask
    inside, as in :func:`pip_exhaustive`, and a frozenset in the report.
    """
    family = frozenset(F)
    ax = require(L, "families.pip_exhaustive", HypothesesFail)
    counterexamples, cases, maximal = _pip(L, L.mask_of(family), ax.associative)
    if not cases:
        raise HypothesesFail(
            "family satisfies none of the four closure conditions",
            witness=counterexamples)
    return PipReport(family, tuple(cases), tuple(maximal))


def pip_exhaustive(L: MultLattice) -> None:
    """:func:`pip_check` on every family of ``L`` at once, from
    :func:`_case_masks` and the columns of :func:`systems.subset_columns`; a
    family that meets none of the four closure conditions is passed over.
    When a qualifying family leaves a non-prime element maximal outside,
    :func:`_pip` runs on the lowest such family and raises there."""
    associative = require(L, "families.pip_exhaustive", HypothesesFail).associative
    flags = classify_all(L)
    qualifying = 0
    for meeting in _case_masks(L, associative):
        qualifying |= meeting
    col = subset_columns(L.size)
    everything = (1 << (1 << L.size)) - 1
    trapping = 0        # the families leaving a non-prime maximal outside
    for m in L.elements:
        if not flags[m].prime:
            trapped = everything & ~col[m]
            for c in bit_indices(L.up_masks[m] ^ 1 << m):
                trapped &= col[c]
            trapping |= trapped
    if bad := qualifying & trapping:
        fmask = (bad & -bad).bit_length() - 1
        _pip(L, fmask, associative)
        raise TheoremViolation("the family kernel and the family scan disagree",
                               witness=tuple(sorted(L.set_of(fmask))))


def _case_masks(L: MultLattice, associative: bool) -> tuple:
    """For each hypothesis of :class:`PipReport`, in its order, a 2^n-bit
    integer whose bit f is set when the family f meets it.  A schema fails
    on the OR, over its instances, of ANDs of :func:`systems.subset_columns`,
    and on the families without top."""
    col = subset_columns(L.size)
    everything = (1 << (1 << L.size)) - 1
    jt, mt = L.join_table, L.mult_table
    left_t, right_t = residual_tables(L)
    gens = memo(L, "sorted_generators", lambda: sorted(L.generators))
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


def _pip(L: MultLattice, fmask: int, associative: bool) -> tuple:
    """The counterexamples of the family ``fmask``, the hypotheses it meets
    in :class:`PipReport`'s order, and, when it meets one, the maximal
    elements outside it, each checked to be prime."""
    counterexamples = _counterexamples(L, fmask)
    cases = [case for case, flag in (("left_oka", "left_oka"), ("right_oka", "right_oka"),
                                     ("oka_associative", "oka"), ("ako", "ako"))
             if flag not in counterexamples and (associative or flag != "oka")]
    maximal = L.maximal_in(L.full_mask & ~fmask) if cases else []
    flags = classify_all(L)
    for m in maximal:
        if not flags[m].prime:
            raise TheoremViolation(
                f"maximal element {m} outside a {cases[0]} family is not prime",
                witness=m)
    return counterexamples, cases, maximal


# --------------------------------------------------------------------------
# Elements avoiding an m-system


@dataclass
class SigmaReport:
    """The elements avoiding an m-system and their maximal elements.  On an
    m-distributive lattice :func:`sigma_of_system` has checked that the
    maximal ones are prime and that the complement is Ako."""
    sigma: frozenset             # elements with no member of S below them
    maximal_elements: frozenset


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
    return sigma_of_mask(L, L.mask_of(ms.members))


def sigma_of_mask(L: MultLattice, smask: int) -> SigmaReport:
    """:func:`sigma_of_system` for the m-system ``smask``.  The Ako and
    maximal-prime legs read only the avoiding set, so they run once per
    avoiding set: the per-lattice memo is keyed by its mask."""
    sigma = sum(1 << l for l in L.elements if not smask & L.down_masks[l])
    legs = memo(L, "sigma_legs", dict)
    if sigma not in legs:
        maximal = L.maximal_in(sigma)
        ako_ok = bad = None
        if check_axioms(L).m_distributive:
            ako_ok = not _ako_witness(L, L.full_mask & ~sigma, sorted(compact_elements(L)))
            flags = classify_all(L)
            bad = next((m for m in maximal if not flags[m].prime), None)
        legs[sigma] = L.set_of(sigma), frozenset(maximal), ako_ok, bad
    members, maximal, ako_ok, bad = legs[sigma]
    if smask >> L.bottom & 1:
        if members:
            raise TheoremViolation("bottom in S forces the avoiding set empty",
                                   witness=tuple(sorted(members)))
    elif not maximal:
        raise TheoremViolation(
            "bottom not in S: the avoiding set must have maximal elements",
            witness=tuple(sorted(L.set_of(smask))))
    if ako_ok is False:
        raise TheoremViolation(
            "complement of the avoiding set must be Ako on an "
            "m-distributive lattice", witness=tuple(sorted(L.set_of(smask))))
    if bad is not None:
        raise TheoremViolation(f"maximal avoiding element {bad} is not prime",
                               witness=bad)
    return SigmaReport(members, maximal)
