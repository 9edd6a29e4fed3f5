"""Residuals, annihilators, Oka/Ako families, and the prime ideal principle.

A family here is any subset of the lattice containing top.  The four closure
schemas (left Oka, right Oka, Oka, Ako) are written once, as the scans for
their first counterexamples.  ``pip_check`` checks that the maximal elements
outside a qualifying family are prime; ``pip_exhaustive`` checks every family
by closures.  ``sigma_of_system`` checks the avoiding set of an m-system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (HypothesesFail, MultLattice, NotAnMSystem, TheoremViolation,
                   analysis, law_witness, require)
from .spectrum import classify_all
from .systems import classify_system


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


@analysis("residual_tables")
def residual_tables(L: MultLattice):
    """Both residual tables, indexed [l][a]; cached on the lattice since the
    family classifiers evaluate them for every (l, a) pair.  (l :l a) is the
    adjoint of x -> x*a at l, and (l :r a) that of x -> a*x, each computed
    for every l at once and transposed to [l][a].

    When the lattice is infinitely m-distributive the bounds
    (l :l a) * a <= l and a * (l :r a) <= l are asserted for every pair,
    once, when the tables are built; that reads the m-distributivity scan
    alone (:func:`core.law_witness`), not the full axiom report.
    """
    dm, mt = L.down_masks, L.mult_table
    left = tuple(zip(*[L.order.adjoint(col, dm) for col in zip(*mt)]))
    right = tuple(zip(*[L.order.adjoint(row, dm) for row in mt]))
    if law_witness(L, "infinitely_m_distributive") is None:
        for l, dl in enumerate(dm):
            for a in range(L.size):
                if not dl >> mt[left[l][a]][a] & 1:
                    raise TheoremViolation(f"residual bound fails: ({l} :l {a}) * {a} !<= {l}",
                                           witness=(l, a))
                if not dl >> mt[a][right[l][a]] & 1:
                    raise TheoremViolation(f"residual bound fails: {a} * ({l} :r {a}) !<= {l}",
                                           witness=(l, a))
    return left, right


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

    Under infinite m-distributivity x*rann(x) = bottom = lann(x)*x: the
    residual bound at l = bottom, which :func:`residual_tables` asserts.
    """
    rann = residual_right(L, L.bottom, x)
    lann = residual_left(L, L.bottom, x)
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
    a_sorted = _sorted_generators(L)
    counterexamples = _oka_counterexamples(L, fmask, a_sorted)
    if ako := _ako_witness(L, fmask, a_sorted):
        counterexamples["ako"] = ako
    return counterexamples


@analysis("sorted_generators")
def _sorted_generators(L: MultLattice) -> list:
    """``L.generators`` in increasing order, kept per lattice."""
    return sorted(L.generators)


def _oka_counterexamples(L: MultLattice, fmask: int, a_sorted) -> dict:
    """:func:`_counterexamples` for the Oka shapes, a from ``a_sorted``."""
    left_t, right_t = residual_tables(L)
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
                return counterexamples      # no side fails later than both: all found
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
    require(L, "families.pip_exhaustive", HypothesesFail)
    counterexamples, cases, maximal = _pip(L, L.mask_of(family),
                                            law_witness(L, "associative") is None)
    if not cases:
        raise HypothesesFail(
            "family satisfies none of the four closure conditions",
            witness=counterexamples)
    return PipReport(family, tuple(cases), tuple(maximal))


def pip_exhaustive(L: MultLattice) -> None:
    """:func:`pip_check` on every family of ``L`` at once.  A schema's clauses
    are Horn, so its families are closed under intersection: a non-prime m
    is maximal outside one exactly when :func:`_closure` leaves m out.  Left
    and right Oka families are Oka, so under associativity only Oka and Ako
    run.  :func:`_pip` raises on the lowest family that leaves some m out."""
    require(L, "families.pip_exhaustive", HypothesesFail)
    associative = law_witness(L, "associative") is None
    schemas = ("oka", "ako") if associative else ("left_oka", "right_oka", "ako")
    trapping = [fmask for m, flag in enumerate(classify_all(L)) if m != L.top and not flag.prime
                for schema in schemas
                if not (fmask := _closure(L, schema, L.up_masks[m] ^ 1 << m, m)) >> m & 1]
    if trapping:
        _pip(L, min(trapping), associative)
        raise TheoremViolation("the family closure and the family scan disagree",
                               witness=tuple(sorted(L.set_of(min(trapping)))))


def _closure(L: MultLattice, schema: str, start: int, m: int) -> int:
    """The least family holding ``start`` (and top) that meets ``schema``, or
    one holding ``m`` once m is forced in.  Each round adds what the first
    counterexample leaves out: l for the Oka shapes, l v ab for Ako."""
    gens = _sorted_generators(L)
    fmask = start
    while not fmask >> m & 1:
        if schema != "ako":
            witness = _oka_counterexamples(L, fmask, gens).get(schema)
            forced = witness and witness[1]
        elif witness := _ako_witness(L, fmask, gens):
            forced = L.join_table[witness[0]][L.mult_table[witness[1]][witness[2]]]
        if not witness:
            break
        fmask |= 1 << forced
    return fmask


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
    """:func:`sigma_of_system` for the m-system ``smask``."""
    sigma = sum(1 << l for l in L.elements if not smask & L.down_masks[l])
    members, maximal = L.set_of(sigma), L.maximal_in(sigma)
    if smask >> L.bottom & 1:
        if members:
            raise TheoremViolation("bottom in S forces the avoiding set empty",
                                   witness=tuple(sorted(members)))
    elif not maximal:
        raise TheoremViolation(
            "bottom not in S: the avoiding set must have maximal elements",
            witness=tuple(sorted(L.set_of(smask))))
    if law_witness(L, "m_distributive") is None:
        if _ako_witness(L, L.full_mask & ~sigma, L.elements):     # C(L) = L
            raise TheoremViolation(
                "complement of the avoiding set must be Ako on an "
                "m-distributive lattice", witness=tuple(sorted(L.set_of(smask))))
        flags = classify_all(L)
        bad = next((m for m in maximal if not flags[m].prime), None)
        if bad is not None:
            raise TheoremViolation(f"maximal avoiding element {bad} is not prime",
                                   witness=bad)
    return SigmaReport(members, frozenset(maximal))
