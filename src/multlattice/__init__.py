"""Finite multiplicative lattices: spectra, systems, families, constructions,
series, and an exhaustive small-model verification driver."""

from .core import (BadParams, HypothesesFail, LatticeError,
                   MDistributivityRequired, MonotonicityRequired, MultLattice,
                   MultNotBounded, NotALattice, NotAMorphism, NotAnMSystem,
                   NotAPartialOrder, NotComparable, NotGenerated, NotMaximal,
                   NotPrimeInInterval, PrimeElement, PropertyReport,
                   TheoremViolation, build_order, check_axioms,
                   compact_elements, replace_mult, validate)
from .spectrum import (ElementFlags, FiniteTopology, HyperabelianReport,
                       SoberReport, SpectrumReport, classify, classify_all,
                       hyperabelian_report, maximal_prime_criterion,
                       non_prime_symmetric_witness, sober_check, spectrum)
from .systems import (CorrespondenceReport, MSystem, classify_system,
                      closure_in_inverse, complement_system,
                      constructible_topology, correspondence_check,
                      equal_saturations, inverse_topology, primes_avoiding,
                      saturate, saturated_m_systems, system_of_points)
from .families import (AnnihilatorReport, FamilyReport, PipReport, SigmaReport,
                       annihilators, classify_family, pip_check, residual_left,
                       residual_right, sigma_of_system)
from .constructions import (IntervalLattice, LatticeMorphism, ProductLattice,
                            closed_subspace_spec, disjointness_criteria,
                            identity_morphism, interval, lying_over, morphism,
                            open_subspace_homeo, product, product_spec_check,
                            quotient_morphism, right_adjoint, spec_map)
from .series import SeriesReport, series, solvable_witness_chain
from .ingest import (LatticeDocument, LatticeSyntaxError, chain, export_dot,
                     export_dot_homeo_pair, export_dot_spectrum,
                     export_dot_topology, export_text, generate,
                     open_set_lattice, parse, parse_document, poset_space,
                     powerset_lattice, random_lattice, to_json, zn_ideals)
from .verify import CheckResult, CorpusSpec, VerifyReport, verify_all

__version__ = "0.1.0"
