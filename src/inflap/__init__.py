"""Numerical laboratory for the inhomogeneous infinity-Laplace equation.

Wide-stencil discretization (one stencil of integer direction pairs up
to a width w; not monotone) of the Dirichlet problem
Delta_inf u = f(x, u), u = b on the boundary, with Perron-style
iteration, explicit radial sub/super-solutions, closed-form existence
and non-existence thresholds, and post-hoc inequality checkers.
"""

from .core import (BOUNDARY, EXTERIOR, INTERIOR, SIGMA, BoundaryTrace,
                   GridDomain, RhsSpec, ScalarField, build_domain, eval_rhs,
                   load_mask, rhs_range, save_mask)
from .scheme import (SchemeParams, Stencil, apply_inf_lap, inf_lap_field,
                     residual_field)
from .solver import (SolveOptions, SolveReport, local_update,
                     perron_solve, probe_nonexistence, solve_dirichlet)
from .radial import (MonotoneRhs1D, RadialProfile, build_profile, cone_field,
                     cumulative_H, exact_family, family_a, ode_residual,
                     power_subsolution, save_profile, zeta, zeta_bounds)
from .criteria import (SIGMA3, CriteriaReport, GrowthClass, apriori_box, c_eta,
                       cubic_smallness, dd3_check, diam_threshold,
                       eigen_bracket, growth_class, nonexistence_radius)
from .verify import (CheckResult, check_apriori, check_comparison,
                     check_harnack, check_monotone_comparison,
                     lipschitz_bound)

__all__ = [
    "BOUNDARY", "EXTERIOR", "INTERIOR", "BoundaryTrace", "GridDomain",
    "SIGMA", "RhsSpec", "ScalarField", "build_domain", "eval_rhs",
    "load_mask", "rhs_range", "save_mask", "SchemeParams", "Stencil",
    "apply_inf_lap", "inf_lap_field", "residual_field",
    "SIGMA3", "SolveOptions", "SolveReport", "local_update", "perron_solve",
    "probe_nonexistence", "solve_dirichlet",
    "MonotoneRhs1D", "RadialProfile", "build_profile", "cone_field",
    "cumulative_H", "exact_family", "family_a", "ode_residual",
    "power_subsolution", "save_profile", "zeta", "zeta_bounds",
    "CriteriaReport", "GrowthClass", "apriori_box", "c_eta",
    "cubic_smallness", "dd3_check", "diam_threshold", "eigen_bracket",
    "growth_class", "nonexistence_radius",
    "CheckResult", "check_apriori", "check_comparison", "check_harnack",
    "check_monotone_comparison", "lipschitz_bound",
]
