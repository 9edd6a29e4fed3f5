"""Every hypothesis-gated statement refuses a lattice that lacks its
hypothesis, naming the statement and the witness that ``check_axioms``
recorded for the first failing flag, and its verify row skips that lattice
for the reason ``core.gap`` gives."""

import pytest

from multlattice.constructions import (closed_subspace_spec, disjointness_criteria,
                                       lying_over, open_subspace_homeo)
from multlattice.core import (HYPOTHESES, SKIP_TEXT, HypothesesFail,
                              MDistributivityRequired, MonotonicityRequired,
                              check_axioms, gap, validate)
from multlattice.families import pip_check
from multlattice.ingest import chain
from multlattice.series import solvable_witness_chain
from multlattice.spectrum import (hyperabelian_report, maximal_prime_criterion,
                                  non_prime_symmetric_witness)
from multlattice.systems import complement_system, correspondence_check, saturate
from multlattice.verify import verify_all

# A diamond whose table is neither monotone nor m-distributive; every flag
# it fails has its own witness, so a gate reading the wrong one shows.
SKEW = validate(size=4, covers=[(0, 1), (0, 2), (1, 3), (2, 3)],
                mult=[[0] * 4, [0, 1, 0, 0], [0] * 4, [0] * 4], name="skew")
# An m-distributive chain whose table is not associative.
TWISTED = validate(size=3, covers=[(0, 1), (1, 2)],
                   mult=[[0, 0, 0], [0, 0, 0], [0, 1, 1]], name="twisted")

GATES = [
    (maximal_prime_criterion, SKEW, (1,), "m_distributive", MDistributivityRequired,
     "spectrum.maximal_prime_criterion"),
    (non_prime_symmetric_witness, SKEW, (0,), "m_distributive", HypothesesFail,
     "spectrum.symmetric_nonprime_witness"),
    (non_prime_symmetric_witness, TWISTED, (0,), "associative", HypothesesFail,
     "spectrum.symmetric_nonprime_witness"),
    (hyperabelian_report, SKEW, (), "m_distributive", MDistributivityRequired,
     "hyper.six_conditions"),
    (saturate, SKEW, ({0, 1, 2, 3},), "monotone", MonotonicityRequired,
     "systems.saturation_closure_operator"),
    (complement_system, SKEW, (0,), "monotone", MonotonicityRequired,
     "systems.prime_iff_msystem"),
    (correspondence_check, SKEW, (), "m_distributive", MDistributivityRequired,
     "systems.correspondence"),
    (pip_check, SKEW, ({3},), "monotone", HypothesesFail, "families.pip_exhaustive"),
    (closed_subspace_spec, SKEW, (0,), "m_distributive", MDistributivityRequired,
     "constructions.closed_subspace"),
    (disjointness_criteria, SKEW, (1, 2), "m_distributive", MDistributivityRequired,
     "constructions.disjointness"),
    (lying_over, SKEW, (3, 0), "infinitely_m_distributive", HypothesesFail,
     "constructions.lying_over"),
    (open_subspace_homeo, SKEW, (3,), "infinitely_m_distributive", HypothesesFail,
     "constructions.open_subspace_homeo"),
    (solvable_witness_chain, SKEW, (), "m_distributive", MDistributivityRequired,
     "series.solvable_chain"),
]


@pytest.mark.parametrize("fn, L, args, flag, exc, statement", GATES,
                         ids=[f"{g[0].__name__}-{g[1].name}" for g in GATES])
def test_gate_raises_with_the_witness_of_its_flag(fn, L, args, flag, exc, statement):
    with pytest.raises(exc) as info:
        fn(L, *args)
    assert info.value.witness == check_axioms(L).witnesses[flag]
    # the refusal names the statement whose verify row skips the lattice,
    # for the same reason
    assert str(info.value) == f"{statement}: {gap(L, statement)}"
    [row] = [r for r in verify_all(L).results if r.check == statement]
    assert row.skipped and row.detail == gap(L, statement) != ""


def test_every_statement_is_a_reported_check_with_a_skip_text():
    checks = {r.check for r in verify_all(chain(3, "meet")).results}
    assert set(HYPOTHESES) <= checks
    assert set(HYPOTHESES.values()) <= set(SKIP_TEXT)
