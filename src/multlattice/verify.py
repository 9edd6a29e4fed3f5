"""The exhaustive verification driver.

``verify_all`` runs named suites of checks over one lattice or a whole
corpus.  Every check is hypothesis-gated: when a lattice does not satisfy a
statement's hypotheses the check is recorded as skipped, never as a pass.
The corpus builders are deterministic: the same spec (including seed)
produces the identical corpus, and reports sort by (lattice, check) so that
equal inputs give byte-identical JSON.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import constructions as cons
from . import families as fam
from . import systems as sys_mod
from .core import (BadParams, LatticeError, MultLattice, TheoremViolation,
                   check_axioms, compact_elements, replace_mult, validate)
from .ingest import chain, powerset_lattice, random_mult_table, to_json, zn_ideals
from .series import series, solvable_witness_chain
from .spectrum import (classify_all, hyperabelian_report,
                       maximal_prime_criterion, non_prime_symmetric_witness,
                       primes_of, spectrum, v_set)
from .systems import all_m_systems, saturated_m_systems


@dataclass
class CheckResult:
    lattice: str
    check: str
    passed: bool
    skipped: bool = False
    detail: str = ""


def _ok(L, check, detail=""):
    return CheckResult(L.name, check, True, detail=detail)


def _skip(L, check, why):
    return CheckResult(L.name, check, True, skipped=True, detail=why)


def _fail(L, check, why):
    return CheckResult(L.name, check, False, detail=why)


def _guard(L, check, fn):
    """Run ``fn``; any exception is a failure recorded against ``L``, so one
    lattice cannot abort a corpus run."""
    try:
        fn()
        return _ok(L, check)
    except LatticeError as exc:
        return _fail(L, check, f"{type(exc).__name__}: {exc} (witness {exc.witness})")
    except Exception as exc:
        return _fail(L, check, f"{type(exc).__name__}: {exc}")


# --------------------------------------------------------------------------
# Suites


def suite_axioms(L: MultLattice, max_enum=12) -> list:
    out = []
    ax = check_axioms(L)
    bad = [(x, y) for x in L.elements for y in L.elements
           if not L.relation[L.mult_table[x][y]][L.meet_table[x][y]]]
    out.append(_ok(L, "axioms.mult_bounded") if not bad
               else _fail(L, "axioms.mult_bounded", f"witness {bad[0]}"))
    out.append(_ok(L, "axioms.dist_implies_mono") if (not ax.m_distributive or ax.monotone)
               else _fail(L, "axioms.dist_implies_mono", str(ax.witnesses)))
    out.append(_ok(L, "axioms.compact_all")
               if compact_elements(L) == frozenset(L.elements)
               else _fail(L, "axioms.compact_all", "finite lattice with a non-compact element"))
    if L.size <= 5:
        exhaustive = check_axioms(L, infinite_cap=L.size).infinitely_m_distributive
        reduced = check_axioms(L, infinite_cap=0).infinitely_m_distributive
        out.append(_ok(L, "axioms.infinite_reduction_agrees")
                   if exhaustive == reduced
                   else _fail(L, "axioms.infinite_reduction_agrees",
                              f"exhaustive={exhaustive} reduction={reduced}"))
    return out


def suite_spectrum(L: MultLattice, max_enum=12) -> list:
    out = []
    ax = check_axioms(L)
    out.append(_guard(L, "spectrum.sober", lambda: spectrum(L)))
    rep = spectrum(L)
    flags = classify_all(L)

    def v_identities():
        for x in L.elements:
            for y in L.elements:
                if v_set(L, L.mult_table[x][y], rep.primes) != \
                        v_set(L, x, rep.primes) | v_set(L, y, rep.primes):
                    raise TheoremViolation("V(xy) != V(x) u V(y)", witness=(x, y))
        if L.size <= max_enum:
            for mask in range(1 << L.size):
                xs = [x for x in L.elements if mask >> x & 1]
                inter = rep.primes
                for x in xs:
                    inter &= v_set(L, x, rep.primes)
                if v_set(L, L.lub(xs), rep.primes) != inter:
                    raise TheoremViolation("V(lub X) != intersection of V(x)",
                                           witness=tuple(xs))
    out.append(_guard(L, "spectrum.v_identities", v_identities))

    def radical_semiprime():
        if rep.primes and not flags[rep.semiprime_radical].semiprime:
            raise TheoremViolation("semiprime radical is not semiprime",
                                   witness=rep.semiprime_radical)
        if not rep.primes and rep.semiprime_radical != L.top:
            raise TheoremViolation("empty spectrum must give radical = top",
                                   witness=rep.semiprime_radical)
    out.append(_guard(L, "spectrum.radical_semiprime", radical_semiprime))

    if ax.m_distributive:
        def lemma_meet_irreducible():
            for x in L.elements:
                expected = (x != L.top and flags[x].semiprime
                            and flags[x].meet_irreducible)
                if flags[x].prime != expected:
                    raise TheoremViolation(
                        "prime iff meet-irreducible semiprime below top fails",
                        witness=x)
        out.append(_guard(L, "spectrum.prime_iff_meet_irred_semiprime",
                          lemma_meet_irreducible))

        def maximal_prime():
            for m in L.elements:
                if flags[m].maximal:
                    maximal_prime_criterion(L, m)
        out.append(_guard(L, "spectrum.maximal_prime_criterion", maximal_prime))
    else:
        out.append(_skip(L, "spectrum.prime_iff_meet_irred_semiprime",
                         "not m-distributive"))
        out.append(_skip(L, "spectrum.maximal_prime_criterion", "not m-distributive"))

    if ax.m_distributive and ax.associative:
        def symmetric_witnesses():
            for p in L.elements:
                if p != L.top and not flags[p].prime:
                    non_prime_symmetric_witness(L, p)
        out.append(_guard(L, "spectrum.symmetric_nonprime_witness",
                          symmetric_witnesses))
    else:
        out.append(_skip(L, "spectrum.symmetric_nonprime_witness",
                         "needs m-distributivity and associativity"))
    return out


def suite_hyper(L: MultLattice, max_enum=12) -> list:
    out = []
    ax = check_axioms(L)
    if not ax.m_distributive:
        return [_skip(L, "hyper.six_conditions", "not m-distributive"),
                _skip(L, "hyper.chain_crosscheck", "not m-distributive")]
    out.append(_guard(L, "hyper.six_conditions",
                      lambda: hyperabelian_report(L, max_enum=max_enum)))

    def crosscheck():
        rep = hyperabelian_report(L, max_enum=max_enum)
        chain_rep = solvable_witness_chain(L)
        if rep.hyperabelian != (chain_rep.chain is not None):
            raise TheoremViolation("hyperabelian iff a squaring chain exists fails",
                                   witness=None)
    out.append(_guard(L, "hyper.chain_crosscheck", crosscheck))
    return out


def suite_systems(L: MultLattice, max_enum=12) -> list:
    out = []
    ax = check_axioms(L)

    if ax.monotone:
        def complement_lemmas():
            for x in L.elements:
                sys_mod.complement_system(L, x)
        out.append(_guard(L, "systems.prime_iff_msystem", complement_lemmas))

        def saturation_props():
            systems = (all_m_systems(L) if L.size <= max_enum
                       else saturated_m_systems(L))
            sat_of = {}
            for s in systems:
                sat = sys_mod.saturate(L, s)
                sat_of[s] = sat.members
                if not s <= sat.members:
                    raise TheoremViolation("saturation is not extensive",
                                           witness=tuple(sorted(s)))
                if sys_mod.saturate(L, sat.members).members != sat.members:
                    raise TheoremViolation("saturation is not idempotent",
                                           witness=tuple(sorted(s)))
            for s in systems:
                for t in systems:
                    if s <= t and not sat_of[s] <= sat_of[t]:
                        raise TheoremViolation("saturation is not monotone",
                                               witness=(tuple(sorted(s)), tuple(sorted(t))))
        out.append(_guard(L, "systems.saturation_closure_operator", saturation_props))
    else:
        out.append(_skip(L, "systems.prime_iff_msystem", "not monotone"))
        out.append(_skip(L, "systems.saturation_closure_operator", "not monotone"))

    out.append(_guard(L, "systems.inverse_topology_dual_construction",
                      lambda: sys_mod.inverse_topology(L)))

    def constructible_discrete():
        if not sys_mod.constructible_topology(L).is_discrete():
            raise TheoremViolation("constructible topology on a finite T0 "
                                   "spectrum must be discrete", witness=None)
    out.append(_guard(L, "systems.constructible_discrete", constructible_discrete))

    pts = sorted(primes_of(L))
    if len(pts) > max_enum:
        out.append(_skip(L, "systems.closure_equivalence", "spectrum above max_enum"))
    else:
        def closure_equivalence():
            subsets = [frozenset(c) for r in range(len(pts) + 1)
                       for c in itertools.combinations(pts, r)]
            for xs in subsets:
                for ys in subsets:
                    sys_mod.equal_saturations(L, xs, ys)
        out.append(_guard(L, "systems.closure_equivalence", closure_equivalence))

    if ax.m_distributive:
        out.append(_guard(L, "systems.correspondence",
                          lambda: sys_mod.correspondence_check(L, max_enum=max_enum)))

        def prop_compact():
            pts = sorted(spectrum(L).primes)
            for r in range(len(pts) + 1):
                for c in itertools.combinations(pts, r):
                    sys_mod.system_of_points(L, frozenset(c))
        out.append(_guard(L, "systems.subset_system_saturated", prop_compact))
    else:
        out.append(_skip(L, "systems.correspondence", "not m-distributive"))
        out.append(_skip(L, "systems.subset_system_saturated", "not m-distributive"))
    return out


def suite_families(L: MultLattice, max_enum=12) -> list:
    out = []
    ax = check_axioms(L)

    def residual_bounds():
        for a in L.elements:
            for b in L.elements:
                left = fam.residual_left(L, a, b)
                right = fam.residual_right(L, a, b)
                for x in L.elements:
                    if L.relation[L.mult_table[x][b]][a] and not L.relation[x][left]:
                        raise TheoremViolation("left residual misses a qualifying element",
                                               witness=(a, b, x))
                    if L.relation[L.mult_table[b][x]][a] and not L.relation[x][right]:
                        raise TheoremViolation("right residual misses a qualifying element",
                                               witness=(a, b, x))
    out.append(_guard(L, "families.residual_bounds", residual_bounds))

    out.append(_guard(L, "families.annihilators",
                      lambda: [fam.annihilators(L, x) for x in L.elements]))

    if ax.monotone and L.size <= max_enum:
        def pip_all():
            for mask in range(1 << L.size):
                F = L.set_of(mask)
                rep = fam.classify_family(L, F)
                if rep.left_oka or rep.right_oka or (rep.oka and ax.associative) or rep.ako:
                    fam.pip_check(L, F)
        out.append(_guard(L, "families.pip_exhaustive", pip_all))
    else:
        out.append(_skip(L, "families.pip_exhaustive",
                         "not monotone" if not ax.monotone else "size above cap"))

    def prop_max():
        systems = (all_m_systems(L) if L.size <= max_enum
                   else saturated_m_systems(L))
        for s in systems:
            fam.sigma_of_system(L, s)
    out.append(_guard(L, "families.sigma_maximal_prime", prop_max))

    if ax.monotone and ax.associative:
        def generator_witness_reading():
            # The workable reading of the generator-level symmetric-witness
            # statement: for a non-prime p below top there are generators
            # a, b outside p with both products below p.
            flags = classify_all(L)
            gens = sorted(L.generators)
            for p in L.elements:
                if p == L.top or flags[p].prime:
                    continue
                down = L.down_masks[p]
                found = any(
                    not down >> a & 1 and not down >> b & 1
                    and down >> L.mult_table[a][b] & 1
                    and down >> L.mult_table[b][a] & 1
                    for a in gens for b in gens)
                if not found:
                    raise TheoremViolation(
                        "no symmetric generator witness for a non-prime element",
                        witness=p)
        out.append(_guard(L, "families.generator_symmetric_witness",
                          generator_witness_reading))
    else:
        out.append(_skip(L, "families.generator_symmetric_witness",
                         "needs monotonicity and associativity"))
    return out


PRODUCT_PARTNERS = (chain(2, "meet"), chain(2, "zero"))


def suite_constructions(L: MultLattice, max_enum=12) -> list:
    out = []
    ax = check_axioms(L)

    def interval_bottom():
        iv = cons.interval(L, L.bottom, L.top)
        if iv.lattice.size != L.size:
            raise TheoremViolation("full interval changed size", witness=None)
    out.append(_guard(L, "constructions.interval_bottom_restriction", interval_bottom))

    if ax.m_distributive:
        out.append(_guard(L, "constructions.closed_subspace",
                          lambda: [cons.closed_subspace_spec(L, l) for l in L.elements]))
        out.append(_guard(L, "constructions.disjointness",
                          lambda: [cons.disjointness_criteria(L, n1, n2)
                                   for n1 in L.elements for n2 in L.elements]))
        out.append(_guard(L, "constructions.quotient_spec_map",
                          lambda: [cons.spec_map(cons.quotient_morphism(L, l))
                                   for l in L.elements]))
    else:
        out.append(_skip(L, "constructions.closed_subspace", "not m-distributive"))
        out.append(_skip(L, "constructions.disjointness", "not m-distributive"))
        out.append(_skip(L, "constructions.quotient_spec_map", "not m-distributive"))

    def products():
        for partner in PRODUCT_PARTNERS:
            P = cons.product_spec_check(L, partner)
            left, right = cons.projection_morphisms(P.product)
            cons.spec_map(left)
            cons.spec_map(right)
    out.append(_guard(L, "constructions.product_spectrum", products))

    out.append(_guard(L, "constructions.identity_adjoint",
                      lambda: cons.spec_map(cons.identity_morphism(L))))

    if ax.infinitely_m_distributive:
        def annihilator_primes():
            for h in L.elements:
                sub = cons.interval(L, L.bottom, h)
                for n_parent in L.elements:
                    if not L.relation[n_parent][h]:
                        continue
                    base = cons.interval(L, L.bottom, n_parent)
                    if not classify_all(base.lattice)[base.lattice.bottom].prime:
                        continue
                    M = sub.lattice
                    n_i = sub.from_parent(n_parent)
                    la = fam.residual_left(M, M.bottom, n_i)
                    ra = fam.residual_right(M, M.bottom, n_i)
                    if la != ra:
                        raise TheoremViolation(
                            "annihilators differ under a prime interval",
                            witness=(h, n_parent))
                    mflags = classify_all(M)
                    if not mflags[la].prime or M.meet_table[la][n_i] != M.bottom:
                        raise TheoremViolation(
                            "annihilator is not the lying prime", witness=(h, n_parent))
                    others = [p for p in M.elements
                              if mflags[p].prime and M.meet_table[p][n_i] == M.bottom]
                    if others != [la]:
                        raise TheoremViolation(
                            "lying prime is not unique", witness=(h, n_parent))
        out.append(_guard(L, "constructions.annihilator_lying_prime",
                          annihilator_primes))

        def lying_over_all():
            for n in L.elements:
                base = cons.interval(L, L.bottom, n)
                for q_i in base.lattice.elements:
                    if classify_all(base.lattice)[q_i].prime:
                        cons.lying_over(L, n, base.to_parent(q_i))
        out.append(_guard(L, "constructions.lying_over", lying_over_all))

        out.append(_guard(L, "constructions.open_subspace_homeo",
                          lambda: [cons.open_subspace_homeo(L, n) for n in L.elements]))
    else:
        why = "not infinitely m-distributive"
        out.append(_skip(L, "constructions.annihilator_lying_prime", why))
        out.append(_skip(L, "constructions.lying_over", why))
        out.append(_skip(L, "constructions.open_subspace_homeo", why))
    return out


def suite_series(L: MultLattice, max_enum=12) -> list:
    out = []
    out.append(_guard(L, "series.descending_stabilizing",
                      lambda: [series(L, x) for x in L.elements]))
    ax = check_axioms(L)
    if ax.m_distributive:
        out.append(_guard(L, "series.solvable_chain",
                          lambda: solvable_witness_chain(L)))
    else:
        out.append(_skip(L, "series.solvable_chain", "not m-distributive"))
    return out


SUITES = {
    "axioms": suite_axioms,
    "spectrum": suite_spectrum,
    "hyper": suite_hyper,
    "systems": suite_systems,
    "families": suite_families,
    "constructions": suite_constructions,
    "series": suite_series,
}


@dataclass
class VerifyReport:
    results: tuple
    checked: int
    failed: int
    skipped: int

    @property
    def passed(self) -> bool:
        return self.failed == 0


def verify_all(lattices, suites=("all",), *, max_enum: int = 12) -> VerifyReport:
    """Run the selected suites over one lattice or a sequence of lattices."""
    if isinstance(lattices, MultLattice):
        lattices = [lattices]
    names = list(SUITES) if "all" in suites else [s for s in suites if s in SUITES]
    unknown = [s for s in suites if s not in SUITES and s != "all"]
    if unknown:
        raise BadParams(f"unknown suites: {unknown}")
    results = []
    for L in lattices:
        for s in names:
            results.extend(SUITES[s](L, max_enum))
    results.sort(key=lambda r: (r.lattice, r.check))
    failed = sum(1 for r in results if not r.passed)
    skipped = sum(1 for r in results if r.skipped)
    return VerifyReport(tuple(results), len(results), failed, skipped)


def report_to_json(report: VerifyReport) -> str:
    return to_json(report)


# --------------------------------------------------------------------------
# Corpora


LATTICE_SHAPES = {
    # name -> (size, cover pairs); all lattice shapes with at most 4 elements
    # (up to isomorphism: the chains and the diamond) plus 5/6-element shapes
    # used for seeded random sampling.
    "point": (1, ()),
    "chain2": (2, ((0, 1),)),
    "chain3": (3, ((0, 1), (1, 2))),
    "chain4": (4, ((0, 1), (1, 2), (2, 3))),
    "diamond": (4, ((0, 1), (0, 2), (1, 3), (2, 3))),
    "chain5": (5, ((0, 1), (1, 2), (2, 3), (3, 4))),
    "pentagon": (5, ((0, 1), (1, 2), (2, 4), (0, 3), (3, 4))),
    "m3": (5, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4))),
    "chain6": (6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))),
    "grid2x3": (6, ((0, 1), (1, 2), (0, 3), (3, 4), (1, 4), (4, 5), (2, 5))),
}


def shape_lattice(name: str) -> MultLattice:
    size, covers = LATTICE_SHAPES[name]
    return validate(size=size, covers=covers, mult=lambda x, y: 0, name=name)


def enumerate_tables(base: MultLattice):
    """Every multiplication table bounded by the meet, in a fixed order."""
    n = base.size
    cells = [(x, y) for x in range(n) for y in range(n)]
    choices = [sorted(base.set_of(base.down_masks[base.meet_table[x][y]]))
               for x, y in cells]
    for combo in itertools.product(*choices):
        table = [[0] * n for _ in range(n)]
        for (x, y), z in zip(cells, combo):
            table[x][y] = z
        yield table


def corpus_exhaustive_tables(max_size: int = 4):
    """All bounded tables on all lattice shapes of at most ``max_size``
    elements (up to isomorphism of the underlying order)."""
    if max_size > 4:
        raise BadParams(f"exhaustive tables go up to 4 elements, not {max_size}")
    out = []
    for name, (size, _) in sorted(LATTICE_SHAPES.items()):
        if size > max_size:
            continue
        base = shape_lattice(name)
        for i, table in enumerate(enumerate_tables(base)):
            out.append(replace_mult(base, table, name=f"{name}#t{i}"))
    return out


def corpus_random_tables(count: int = 1000, seed: int = 1729,
                         shapes=("chain5", "pentagon", "m3", "chain6", "grid2x3")):
    """A seeded random sample of bounded tables on 5/6-element shapes."""
    out = []
    per = count // len(shapes)
    extra = count - per * len(shapes)
    for k, name in enumerate(shapes):
        base = shape_lattice(name)
        rng = random.Random(seed + k)
        take = per + (1 if k < extra else 0)
        for i in range(take):
            out.append(replace_mult(base, random_mult_table(base, rng),
                                    name=f"{name}#r{seed + k}.{i}"))
    return out


def corpus_named():
    """The standing corpus of structured instances used across the tests."""
    from .ingest import open_set_lattice, poset_space, random_lattice

    out = []
    for n in range(1, 7):
        out.append(chain(n, "meet"))
        out.append(chain(n, "zero"))
        if n >= 2:
            out.append(chain(n, "truncated_add"))
    for n in (4, 8, 12, 16, 30, 36):
        out.append(zn_ideals(n))
    out.append(powerset_lattice(2, "meet"))
    out.append(powerset_lattice(2, "zero"))
    out.append(powerset_lattice(3, "meet"))
    out.append(open_set_lattice(poset_space("chain", 2), name="opens_sierpinski"))
    out.append(open_set_lattice(poset_space("vee"), name="opens_vee"))
    # seeded irregular instances so the hypothesis-gated paths also run on
    # lattices without a closed-form description; m-distributive tables are
    # too sparse to sample at size 6, so those stay at size 5
    out.append(random_lattice(5, {"m_distributive": True}, seed=7,
                              name="random5_mdist_s7").lattice)
    out.append(random_lattice(5, {"m_distributive": True}, seed=21,
                              name="random5_mdist_s21").lattice)
    out.append(random_lattice(6, {"monotone": True}, seed=3,
                              name="random6_mono_s3").lattice)
    return out


@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic description of a corpus: same spec, identical corpus."""
    kind: str               # "named" | "exhaustive_tables" | "random_tables"
    seed: int = 1729
    count: int = 1000
    max_size: int = 4

    def build(self):
        if self.kind == "named":
            return corpus_named()
        if self.kind == "exhaustive_tables":
            return corpus_exhaustive_tables(self.max_size)
        if self.kind == "random_tables":
            return corpus_random_tables(self.count, self.seed)
        raise ValueError(f"unknown corpus kind {self.kind!r}")
