"""fermicert: exact Fock-space toolkit for finite lattice fermion systems.

Numerically certifies three constructions for even finite-range
interactions: light-cone bounds on evolved (anti)commutators, Kraus-form
conditional expectations onto local subalgebras, and martingale-method
lower bounds on spectral gaps of frustration-free models.
"""

from .cond_exp import (conditional_expectation, expectation_family_report,
                       local_approximation, trace_invariant_expectation)
from .dynamics import (Interaction, InteractionTerm, Propagator, heisenberg,
                       local_hamiltonian, propagate, propagate_grid, sector_eigh)
from .fock import (EVEN, MIXED, ODD, FockOperator, SiteSet, annihilator,
                   anticommutator, chain, commutator, creator, embed,
                   identity, monomial, number_operator, op_norm,
                   parity_decompose, parity_operator, project_support,
                   support_defect, zero)
from .gap import (GapCertificate, frustration_free_check,
                  hamiltonian_sequence, kernel_projection,
                  martingale_certificate, projection_flow)
from .geometry import (DecayFunction, GFunction, MetricGraph, chain_graph,
                       f_conv_constant, f_norm, g_from_f, grid_graph,
                       interaction_g_norm, phi_boundary)
from .lr_bounds import LRBoundReport, certify, lr_rhs, series_diagnostics

__version__ = "0.1.0"
