"""Every hypothesis-gated statement refuses a lattice that lacks its
hypothesis, naming the witness that ``check_axioms`` recorded for the first
failing flag."""

import pytest

from multlattice.constructions import (closed_subspace_spec, disjointness_criteria,
                                       lying_over, open_subspace_homeo)
from multlattice.core import (HypothesesFail, MDistributivityRequired,
                              MonotonicityRequired, check_axioms, validate)
from multlattice.families import pip_check
from multlattice.series import solvable_witness_chain
from multlattice.spectrum import (hyperabelian_report, maximal_prime_criterion,
                                  non_prime_symmetric_witness)
from multlattice.systems import complement_system, correspondence_check, saturate

# A diamond whose table is neither monotone nor m-distributive; every flag
# it fails has its own witness, so a gate reading the wrong one shows.
SKEW = validate(size=4, covers=[(0, 1), (0, 2), (1, 3), (2, 3)],
                mult=[[0] * 4, [0, 1, 0, 0], [0] * 4, [0] * 4], name="skew")
# An m-distributive chain whose table is not associative.
TWISTED = validate(size=3, covers=[(0, 1), (1, 2)],
                   mult=[[0, 0, 0], [0, 0, 0], [0, 1, 1]], name="twisted")

GATES = [
    (maximal_prime_criterion, SKEW, (1,), "m_distributive", MDistributivityRequired),
    (non_prime_symmetric_witness, SKEW, (0,), "m_distributive", HypothesesFail),
    (non_prime_symmetric_witness, TWISTED, (0,), "associative", HypothesesFail),
    (hyperabelian_report, SKEW, (), "m_distributive", MDistributivityRequired),
    (saturate, SKEW, ({0, 1, 2, 3},), "monotone", MonotonicityRequired),
    (complement_system, SKEW, (0,), "monotone", MonotonicityRequired),
    (correspondence_check, SKEW, (), "m_distributive", MDistributivityRequired),
    (pip_check, SKEW, ({3},), "monotone", HypothesesFail),
    (closed_subspace_spec, SKEW, (0,), "m_distributive", MDistributivityRequired),
    (disjointness_criteria, SKEW, (1, 2), "m_distributive", MDistributivityRequired),
    (lying_over, SKEW, (3, 0), "infinitely_m_distributive", HypothesesFail),
    (open_subspace_homeo, SKEW, (3,), "infinitely_m_distributive", HypothesesFail),
    (solvable_witness_chain, SKEW, (), "m_distributive", MDistributivityRequired),
]


@pytest.mark.parametrize("fn, L, args, flag, exc", GATES,
                         ids=[f"{g[0].__name__}-{g[1].name}" for g in GATES])
def test_gate_raises_with_the_witness_of_its_flag(fn, L, args, flag, exc):
    with pytest.raises(exc) as info:
        fn(L, *args)
    assert info.value.witness == check_axioms(L).witnesses[flag]
