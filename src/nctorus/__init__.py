"""Exact q-twisted arithmetic on the smooth noncommutative torus, its
matrix fibers, twisted convolutions on the plane, Weyl calculus, and
finite-dimensional GNS constructions."""

from .gns import (FiniteAlgebra, GnsTriplet, PositiveForm, PositivityReport,
                  gns_build, gram_matrix, intertwiner, is_positive,
                  schwarz_check, separation_rank, state_action,
                  torus_quotient, truncated_box)
from .grids import (GridFormatError, GridFunction1D, GridFunction2D,
                    GridMismatchError, fourier_2d, gaussian_1d, gaussian_2d,
                    inverse_fourier_2d)
from .lattice import (CoeffLattice2, LatticeFormatError, PhaseQ, retruncate,
                      seminorm, to_primed)
from .matrep import (CircleSpec, center_scalar_residual,
                     circle_check_relations, circle_eval, clock_shift,
                     covariance_residual, equivariance_check, eval_section,
                     fiber_grid, homomorphism_residual, opnorm,
                     section_family, star_residual)
from .suite import run_criterion, run_suite
from .symbols import (CRat, HbarSeries, PolySymbol, SymbolFormatError,
                      associativity_defect, half_moyal, moyal_coeff,
                      moyal_star, poisson_bracket, star_commutator)
from .torus import (DerivationCheck, DerivationSpec, PhaseMismatchError,
                    TorusElement, adjoint, apply_derivation,
                    check_derivation_relation, d_power, inner_derivation,
                    l2_state, monomial, q_mul, reorder_phase, smooth_seminorm,
                    trace, unit)
from .twisted import (ProbeResult, fourier_bridge_error, gauge_iso,
                      hbar_smoothness_probe, heisenberg_group_conv,
                      moyal_series_on_grid, other_twisted_conv, plain_conv,
                      twisted_conv)
from .weyl import (DerivationData, SolveInnerResult, apply_P, apply_Q,
                   calibrate_q, composition_phase, rep_lattice_measure,
                   solve_inner_generator, weyl_P, weyl_Q)

__version__ = "0.1.0"

__all__ = [
    "CRat", "CircleSpec", "CoeffLattice2", "DerivationCheck",
    "DerivationData", "DerivationSpec", "FiniteAlgebra", "GnsTriplet",
    "GridFormatError", "GridFunction1D", "GridFunction2D",
    "GridMismatchError", "HbarSeries", "LatticeFormatError",
    "PhaseMismatchError", "PhaseQ", "PolySymbol", "PositiveForm",
    "PositivityReport", "ProbeResult", "SolveInnerResult",
    "SymbolFormatError", "TorusElement",
    "adjoint", "apply_P", "apply_Q", "apply_derivation",
    "associativity_defect", "calibrate_q", "center_scalar_residual",
    "check_derivation_relation", "circle_check_relations", "circle_eval",
    "clock_shift", "composition_phase", "covariance_residual", "d_power",
    "equivariance_check", "eval_section", "fiber_grid", "fourier_2d",
    "fourier_bridge_error", "gauge_iso", "gaussian_1d", "gaussian_2d",
    "gns_build", "gram_matrix", "half_moyal", "hbar_smoothness_probe",
    "heisenberg_group_conv", "homomorphism_residual", "inner_derivation",
    "intertwiner", "inverse_fourier_2d", "is_positive", "l2_state",
    "monomial", "moyal_coeff", "moyal_series_on_grid", "moyal_star",
    "opnorm", "other_twisted_conv", "plain_conv", "poisson_bracket",
    "q_mul", "reorder_phase", "rep_lattice_measure", "retruncate",
    "run_criterion", "run_suite", "schwarz_check", "section_family",
    "seminorm", "separation_rank", "smooth_seminorm",
    "solve_inner_generator", "star_commutator", "star_residual",
    "state_action", "to_primed", "torus_quotient", "trace",
    "truncated_box", "twisted_conv", "unit", "weyl_P", "weyl_Q",
    "__version__",
]
