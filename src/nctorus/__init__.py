"""Exact q-twisted arithmetic on the smooth noncommutative torus, its
matrix fibers, twisted convolutions on the plane, Weyl calculus, and
finite-dimensional GNS constructions.

``import nctorus`` loads no submodule and not NumPy: each name below, and
each submodule, is imported on first access (PEP 562), so a process pays
only for what it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "gns": "FiniteAlgebra GnsTriplet PositiveForm PositivityReport gns_build "
           "gram_matrix intertwiner is_positive schwarz_check separation_rank "
           "state_action torus_quotient truncated_box",
    "grids": "GridFunction1D GridFunction2D fourier_2d gaussian_1d gaussian_2d "
             "inverse_fourier_2d",
    "lattice": "CoeffLattice2 FormatError MismatchError PhaseQ "
               "retruncate seminorm to_primed",
    "matrep": "CircleSpec center_scalar_residual circle_check_relations "
              "circle_eval clock_shift covariance_residual equivariance_check "
              "eval_section fiber_grid homomorphism_residual opnorm "
              "section_family star_residual",
    "suite": "run_criterion run_suite",
    "symbols": "CRat HbarSeries PolySymbol "
               "associativity_defect half_moyal moyal_star "
               "poisson_bracket star_commutator",
    "torus": "DerivationCheck DerivationSpec TorusElement "
             "adjoint apply_derivation check_derivation_relation d_power "
             "inner_derivation l2_state monomial q_mul reorder_phase "
             "smooth_seminorm trace unit",
    "twisted": "ProbeResult fourier_bridge_error gauge_iso "
               "hbar_smoothness_probe heisenberg_group_conv "
               "moyal_series_on_grid other_twisted_conv plain_conv "
               "twisted_conv",
    "weyl": "DerivationData SolveInnerResult apply_P apply_Q calibrate_q "
            "composition_phase rep_lattice_measure solve_inner_generator "
            "weyl_P weyl_Q",
}
_OWNER = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {"cli", *_EXPORTS}

__all__ = sorted(_OWNER) + ["__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
