"""The exhaustive verification driver.

``verify_all`` runs named suites of checks over one lattice or a whole
corpus.  Every check is one row of ``ROWS`` (35 of them), and ``run_row`` is
the one place a row becomes a :class:`CheckResult`.  18 rows are gated by
``core.HYPOTHESES`` and two by an enumeration cap; outside its gate a row is
recorded as skipped, not passed.  One size rule leaves
``axioms.infinite_reduction_agrees`` out of the report above 5 elements.
The corpus builders are deterministic: the same spec (including seed)
produces the identical corpus, and reports sort by (lattice, check) so that
equal inputs give byte-identical JSON.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from . import constructions as cons
from . import families as fam
from . import systems as sys_mod
from .core import (HYPOTHESES, POWERSET_LIMIT, SKIP_TEXT, BadParams, LatticeError,
                   MultLattice, TheoremViolation, check_axioms, compact_elements,
                   replace_mult, subset_pair_witness, validate)
from .ingest import (SCHEMA_VERSION, cell_choices, chain, open_set_lattice,
                     poset_space, powerset_lattice, random_lattice,
                     random_mult_table, zn_ideals)
from .series import series, solvable_witness_chain
from .spectrum import (classify_all, hyperabelian_report,
                       maximal_prime_criterion, non_prime_symmetric_witness,
                       prime_mask, primes_of, spectrum)


@dataclass(slots=True)
class CheckResult:
    """One row of a :class:`VerifyReport`; slotted, as a corpus run keeps
    10^5 of them.  ``detail`` is a skip's reason or a failure's error."""
    lattice: str
    check: str
    passed: bool
    skipped: bool = False
    detail: str = ""


# --------------------------------------------------------------------------
# Row bodies: each raises on a failure.  They call the library through this
# module's globals, which tests and the benchmark tracer patch.


def _mult_bounded(L):
    bad = [(x, y) for x in L.elements for y in L.elements
           if not L.relation[L.mult_table[x][y]][L.meet_table[x][y]]]
    if bad:
        raise TheoremViolation("a product is not below the meet", witness=bad[0])


def _dist_implies_mono(L):
    ax = check_axioms(L)
    if ax.m_distributive and not ax.monotone:
        raise TheoremViolation("m-distributive but not monotone",
                               witness=ax.witnesses["monotone"])


def _compact_all(L):
    missing = set(L.elements) - compact_elements(L)
    if missing:
        raise TheoremViolation("finite lattice with a non-compact element",
                               witness=min(missing))


def _infinite_reduction_agrees(L):
    pair = subset_pair_witness(L)
    ax = check_axioms(L)
    if (pair is None) != ax.infinitely_m_distributive:
        raise TheoremViolation(
            f"exhaustive={pair is None} reduction={ax.infinitely_m_distributive}",
            witness=pair or ax.witnesses["infinitely_m_distributive"])


def _v_identities(L):
    # V(lub X) = the intersection of the V(x) follows by induction from
    # V(bottom) = Spec and the pairwise law, since lub folds the join table.
    spec = prime_mask(L)
    v = [up & spec for up in L.up_masks]
    if v[L.bottom] != spec:
        raise TheoremViolation("V(bottom) != Spec", witness=L.bottom)
    for x in L.elements:
        for y in L.elements:
            if v[L.mult_table[x][y]] != v[x] | v[y]:
                raise TheoremViolation("V(xy) != V(x) u V(y)", witness=(x, y))
            if v[L.join_table[x][y]] != v[x] & v[y]:
                raise TheoremViolation("V(x v y) != V(x) n V(y)", witness=(x, y))


def _radical_semiprime(L):
    flags = classify_all(L)
    rep = spectrum(L)
    if rep.primes and not flags[rep.semiprime_radical].semiprime:
        raise TheoremViolation("semiprime radical is not semiprime",
                               witness=rep.semiprime_radical)
    if not rep.primes and rep.semiprime_radical != L.top:
        raise TheoremViolation("empty spectrum must give radical = top",
                               witness=rep.semiprime_radical)


def _lemma_meet_irreducible(L):
    flags = classify_all(L)
    for x in L.elements:
        expected = (x != L.top and flags[x].semiprime
                    and flags[x].meet_irreducible)
        if flags[x].prime != expected:
            raise TheoremViolation(
                "prime iff meet-irreducible semiprime below top fails",
                witness=x)


def _maximal_prime(L):
    flags = classify_all(L)
    for m in L.elements:
        if flags[m].maximal:
            maximal_prime_criterion(L, m)


def _symmetric_witnesses(L):
    flags = classify_all(L)
    for p in L.elements:
        if p != L.top and not flags[p].prime:
            non_prime_symmetric_witness(L, p)


def _chain_crosscheck(L):
    # Condition (c) decided apart from the report's greedy walk: mark
    # each y above some marked x with y*y <= x, taking the elements by
    # the size of their down-sets, so every x < y is decided before y.
    reached = 1 << L.bottom
    for y in sorted(L.elements, key=lambda y: bin(L.down_masks[y]).count("1")):
        if reached & L.down_masks[y] & L.up_masks[L.mult_table[y][y]]:
            reached |= 1 << y
    report = hyperabelian_report(L)
    if report.hyperabelian != bool(reached >> L.top & 1):
        # what the crosscheck reached short of top, or the report's blocker
        witness = (tuple(sorted(L.set_of(reached))) if report.hyperabelian
                   else report.witnesses.get("c"))
        raise TheoremViolation("hyperabelian iff a squaring chain exists fails",
                               witness=witness)


def _complement_lemmas(L):
    for x in L.elements:
        sys_mod.complement_system(L, x)


def _saturation_props(L):
    def members(mask):
        return tuple(sorted(L.set_of(mask)))

    systems = sys_mod.m_system_masks(L)
    sat_of = {}
    for s in systems:
        sat = sat_of[s] = sys_mod.saturation_mask(L, s)
        if s & ~sat:
            raise TheoremViolation("saturation is not extensive", witness=members(s))
        if sys_mod.up_closure(L, sat) != sat:
            raise TheoremViolation("saturation is not idempotent", witness=members(s))
    if L.size <= POWERSET_LIMIT:
        # below[t]: the union of sat(s) over the m-systems s <= t, by a
        # subset-OR transform in n * 2^n steps.  Monotone iff below[t] <=
        # sat(t) for every t; the pair scan only locates a failure.
        below = [sat_of.get(m, 0) for m in range(1 << L.size)]
        for i in range(L.size):
            bit = 1 << i
            for m in range(1 << L.size):
                if m & bit:
                    below[m] |= below[m ^ bit]
        if not any(below[t] & ~sat for t, sat in sat_of.items()):
            return
    for s in systems:
        for t in systems:
            if not s & ~t and sat_of[s] & ~sat_of[t]:
                raise TheoremViolation("saturation is not monotone",
                                       witness=(members(s), members(t)))


def _constructible_discrete(L):
    closures = sys_mod.constructible_topology(L).closures
    p = next((p for p in sorted(closures) if len(closures[p]) != 1), None)
    if p is not None:
        raise TheoremViolation("constructible topology on a finite T0 "
                               "spectrum must be discrete",
                               witness=(p, tuple(sorted(closures[p]))))


def _point_sets(L):
    # every subset of the spectrum, by size, then lexicographically
    pts = sorted(primes_of(L))
    for r in range(len(pts) + 1):
        yield from itertools.combinations(pts, r)


def _closure_equivalence(L):
    # S_X = S_Y iff cl X = cl Y: the two keys part the subsets alike, so
    # the first subset seen with X's system is the first seen with X's
    # closure.  Otherwise equal_saturations raises on one of the pairs.
    first_of_system, first_of_closure = {}, {}
    inv = sys_mod.inverse_topology(L)
    for c in _point_sets(L):
        xs = frozenset(c)
        ys = first_of_system.setdefault(sys_mod.points_system_mask(L, L.mask_of(c)), xs)
        zs = first_of_closure.setdefault(inv.closure(xs), xs)
        if ys != zs:
            sys_mod.equal_saturations(L, xs, ys)
            sys_mod.equal_saturations(L, xs, zs)


def _prop_compact(L):
    for c in _point_sets(L):
        sys_mod.points_system_mask(L, L.mask_of(c))


def _residual_bounds(L):
    left_t, right_t = fam.residual_tables(L)
    for a in L.elements:
        for b in L.elements:
            left = left_t[a][b]
            right = right_t[a][b]
            for x in L.elements:
                if L.relation[L.mult_table[x][b]][a] and not L.relation[x][left]:
                    raise TheoremViolation("left residual misses a qualifying element",
                                           witness=(a, b, x))
                if L.relation[L.mult_table[b][x]][a] and not L.relation[x][right]:
                    raise TheoremViolation("right residual misses a qualifying element",
                                           witness=(a, b, x))


def _prop_max(L):
    for s in sys_mod.m_system_masks(L):
        fam.sigma_of_mask(L, s)


def _generator_witness_reading(L):
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


PRODUCT_PARTNERS = (chain(2, "meet"), chain(2, "zero"))


def _interval_bottom(L):
    n = cons.interval(L, L.bottom, L.top).lattice.size
    if n != L.size:
        raise TheoremViolation("full interval changed size", witness=(L.size, n))


def _products(L):
    for partner in PRODUCT_PARTNERS:
        P = cons.product_spec_check(L, partner)
        left, right = cons.projection_morphisms(P.product)
        cons.spec_map(left)
        cons.spec_map(right)


def _annihilator_primes(L):
    for h in L.elements:
        sub = cons.interval(L, L.bottom, h)
        for n_parent in L.elements:
            if not L.relation[n_parent][h]:
                continue
            base = cons.interval(L, L.bottom, n_parent).lattice
            if not prime_mask(base) >> base.bottom & 1:
                continue
            M = sub.lattice
            n_i = sub.from_parent(n_parent)
            la = fam.residual_left(M, M.bottom, n_i)
            ra = fam.residual_right(M, M.bottom, n_i)
            if la != ra:
                raise TheoremViolation(
                    "annihilators differ under a prime interval",
                    witness=(h, n_parent))
            mspec = prime_mask(M)
            if not mspec >> la & 1 or M.meet_table[la][n_i] != M.bottom:
                raise TheoremViolation(
                    "annihilator is not the lying prime", witness=(h, n_parent))
            others = [p for p in sys_mod.bit_indices(mspec)
                      if M.meet_table[p][n_i] == M.bottom]
            if others != [la]:
                raise TheoremViolation(
                    "lying prime is not unique", witness=(h, n_parent))


def _lying_over_all(L):
    for n in L.elements:
        base = cons.interval(L, L.bottom, n)
        for q_i in sys_mod.bit_indices(prime_mask(base.lattice)):
            cons.lying_over(L, n, base.to_parent(q_i))


# --------------------------------------------------------------------------
# The row table


# check name -> (function of L, cap), in run order.  A cap is None or
# (over, detail): on a lattice with over(L) the row is skipped with that
# detail, or, when the detail is None, left out of the report.
ROWS = {
    "axioms.mult_bounded": (_mult_bounded, None),
    "axioms.dist_implies_mono": (_dist_implies_mono, None),
    "axioms.compact_all": (_compact_all, None),
    "axioms.infinite_reduction_agrees": (_infinite_reduction_agrees,
                                         (lambda L: L.size > 5, None)),
    "spectrum.sober": (lambda L: spectrum(L), None),
    "spectrum.v_identities": (_v_identities, None),
    "spectrum.radical_semiprime": (_radical_semiprime, None),
    "spectrum.prime_iff_meet_irred_semiprime": (_lemma_meet_irreducible, None),
    "spectrum.maximal_prime_criterion": (_maximal_prime, None),
    "spectrum.symmetric_nonprime_witness": (_symmetric_witnesses, None),
    "hyper.six_conditions": (lambda L: hyperabelian_report(L), None),
    "hyper.chain_crosscheck": (_chain_crosscheck, None),
    "systems.prime_iff_msystem": (_complement_lemmas, None),
    "systems.saturation_closure_operator": (_saturation_props, None),
    "systems.inverse_topology_dual_construction": (
        lambda L: sys_mod.inverse_topology(L), None),
    "systems.constructible_discrete": (_constructible_discrete, None),
    "systems.closure_equivalence": (
        _closure_equivalence,
        (lambda L: len(primes_of(L)) > POWERSET_LIMIT, "spectrum above cap")),
    "systems.correspondence": (lambda L: sys_mod.correspondence_check(L), None),
    "systems.subset_system_saturated": (_prop_compact, None),
    "families.residual_bounds": (_residual_bounds, None),
    "families.annihilators": (lambda L: [fam.annihilators(L, x) for x in L.elements], None),
    "families.pip_exhaustive": (lambda L: fam.pip_exhaustive(L),
                                (lambda L: L.size > POWERSET_LIMIT, "size above cap")),
    "families.sigma_maximal_prime": (_prop_max, None),
    "families.generator_symmetric_witness": (_generator_witness_reading, None),
    "constructions.interval_bottom_restriction": (_interval_bottom, None),
    "constructions.closed_subspace": (
        lambda L: [cons.closed_subspace_spec(L, l) for l in L.elements], None),
    "constructions.disjointness": (
        lambda L: [cons.disjointness_criteria(L, n1, n2)
                   for n1 in L.elements for n2 in L.elements], None),
    "constructions.quotient_spec_map": (
        lambda L: [cons.spec_map(cons.quotient_morphism(L, l)) for l in L.elements], None),
    "constructions.product_spectrum": (_products, None),
    "constructions.identity_adjoint": (
        lambda L: cons.spec_map(cons.identity_morphism(L)), None),
    "constructions.annihilator_lying_prime": (_annihilator_primes, None),
    "constructions.lying_over": (_lying_over_all, None),
    "constructions.open_subspace_homeo": (
        lambda L: [cons.open_subspace_homeo(L, n) for n in L.elements], None),
    "series.descending_stabilizing": (lambda L: [series(L, x) for x in L.elements], None),
    "series.solvable_chain": (lambda L: solvable_witness_chain(L), None),
}


def run_row(L: MultLattice, check: str):
    """Row ``check`` of ``L``, or None when its cap leaves it out.  A
    ``core.HYPOTHESES`` statement is skipped, with its ``core.SKIP_TEXT``,
    when ``check_axioms(L)`` lacks one of its flags, before any cap.  Any
    exception, the gate's included, is the row's failure, recorded against
    ``L``, so one lattice cannot abort a corpus run."""
    run, cap = ROWS[check]
    try:
        flags = HYPOTHESES.get(check, ())
        for flag in flags:
            if not getattr(check_axioms(L), flag):
                return CheckResult(L.name, check, True, True, SKIP_TEXT[flags])
        if cap and cap[0](L):
            return cap[1] and CheckResult(L.name, check, True, True, cap[1])
        run(L)
        return CheckResult(L.name, check, True)
    except Exception as exc:
        witness = f" (witness {exc.witness})" if isinstance(exc, LatticeError) else ""
        return CheckResult(L.name, check, False, detail=f"{type(exc).__name__}: {exc}{witness}")


def _suite(prefix):
    checks = [check for check in ROWS if check.partition(".")[0] == prefix]

    def suite(L: MultLattice) -> list:
        return [r for check in checks if (r := run_row(L, check))]

    suite.__name__ = suite.__qualname__ = f"suite_{prefix}"
    return suite


# A suite is the rows named with its prefix; the benchmark tracer patches
# these names and the dict's values by identity, so they are the same objects.
SUITES = {s: _suite(s) for s in dict.fromkeys(check.partition(".")[0] for check in ROWS)}
(suite_axioms, suite_spectrum, suite_hyper, suite_systems, suite_families,
 suite_constructions, suite_series) = SUITES.values()


@dataclass
class VerifyReport:
    results: tuple
    checked: int
    failed: int
    skipped: int

    @property
    def passed(self) -> bool:
        return self.failed == 0


def verify_all(lattices, suites=("all",)) -> VerifyReport:
    """Run the selected suites over one lattice or a sequence of lattices.
    A lattice's intervals are shared by its rows and dropped once its suites
    have run, for the reason ``constructions.product`` keeps no product;
    the rest of its cache stays for the caller."""
    if isinstance(lattices, MultLattice):
        lattices = [lattices]
    names = list(SUITES) if "all" in suites else [s for s in suites if s in SUITES]
    unknown = [s for s in suites if s not in SUITES and s != "all"]
    if unknown:
        raise BadParams(f"unknown suites: {unknown}")
    results = []
    for L in lattices:
        for s in names:
            results.extend(SUITES[s](L))
        L._cache.pop("intervals", None)
    results.sort(key=lambda r: (r.lattice, r.check))
    failed = sum(1 for r in results if not r.passed)
    skipped = sum(1 for r in results if r.skipped)
    return VerifyReport(tuple(results), len(results), failed, skipped)


_HEAD = ('    {\n      "check": %s,\n      "detail": %s,\n      "kind": "CheckResult",\n'
         '      "lattice": ')
# A row's four tails after its lattice, separator included, by (not passed, not skipped).
_TAILS = {(f, s): ',\n      "passed": %s,\n      "skipped": %s\n    },\n'
          % (str(not f).lower(), str(not s).lower()) for f in (False, True) for s in (False, True)}


def report_to_json(report: VerifyReport) -> str:
    """The bytes of ``ingest.to_json(report)``, written from the report's
    fixed schema (sorted keys, indent 2, ASCII escapes) instead of through
    the pure-Python indented encoder; a test holds the two equal.  A row is
    three shared pieces, the head of its (check, detail), its lattice's
    escaped name and one of four tails, and the text is made by one join."""
    esc = encode_basestring_ascii
    heads, names = {}, {}
    parts = [f'{{\n  "checked": {report.checked},\n  "failed": {report.failed},\n'
             f'  "kind": "VerifyReport",\n  "results": [']
    for r in report.results:
        key = r.check, r.detail
        parts += (heads.get(key) or heads.setdefault(key, _HEAD % (esc(r.check), esc(r.detail))),
                  names.get(r.lattice) or names.setdefault(r.lattice, esc(r.lattice)),
                  _TAILS[not r.passed, not r.skipped])
    if report.results:
        parts[0] += "\n"
        parts[-1] = parts[-1][:-2] + "\n  "    # no separator after the last row
    parts.append(f'],\n  "schema_version": {SCHEMA_VERSION},\n  "skipped": {report.skipped}\n}}\n')
    return "".join(parts)


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
    for combo in itertools.product(*(cell for row in cell_choices(base) for cell in row)):
        yield [list(combo[x * n:(x + 1) * n]) for x in range(n)]


def corpus_exhaustive_tables(max_size: int = 4):
    """All bounded tables on all lattice shapes of at most ``max_size``
    elements (up to isomorphism of the underlying order)."""
    if not 1 <= max_size <= 4:
        raise BadParams(f"exhaustive tables go from 1 to 4 elements, not {max_size}")
    out = []
    for name, (size, _) in sorted(LATTICE_SHAPES.items()):
        if size > max_size:
            continue
        base = shape_lattice(name)
        for i, table in enumerate(enumerate_tables(base)):
            out.append(replace_mult(base, table, name=f"{name}#t{i}"))
    return out


RANDOM_SHAPES = ("chain5", "pentagon", "m3", "chain6", "grid2x3")


def corpus_random_tables(count: int = 1000, seed: int = 1729):
    """A seeded random sample of bounded tables on the 5/6-element
    ``RANDOM_SHAPES``, split evenly between them."""
    if count < 1:
        raise BadParams(f"a random corpus needs at least one table, not {count}")
    out = []
    per = count // len(RANDOM_SHAPES)
    extra = count - per * len(RANDOM_SHAPES)
    for k, name in enumerate(RANDOM_SHAPES):
        base = shape_lattice(name)
        rng = random.Random(seed + k)
        take = per + (1 if k < extra else 0)
        for i in range(take):
            out.append(replace_mult(base, random_mult_table(base, rng),
                                    name=f"{name}#r{seed + k}.{i}"))
    return out


def corpus_named():
    """The standing corpus of structured instances used across the tests."""
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
                              name="random5_mdist_s7"))
    out.append(random_lattice(5, {"m_distributive": True}, seed=21,
                              name="random5_mdist_s21"))
    out.append(random_lattice(6, {"monotone": True}, seed=3,
                              name="random6_mono_s3"))
    return out

