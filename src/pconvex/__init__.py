"""Weighted L² machinery for p-convex domains on flat backgrounds.

The package is organized in layers:

* :mod:`pconvex.exterior` — pointwise exterior algebra: forms with
  lexicographically ordered multi-index coefficients, the induced
  operator of a symmetric matrix on p-forms, its spectrum, pseudo-inverse,
  and rank-one image checks.
* :mod:`pconvex.convexity` — the minimal p-trace of a matrix or a stack,
  the p-plurisubharmonicity graders for scalar fields and boundaries built
  on it, plus curvature-term bounds.
* :mod:`pconvex.fieldexpr` — a tiny expression language for scalar fields
  with exact first/second derivatives (2-jets), evaluated in batches.
* :mod:`pconvex.weights` — the scaled squared-distance weight and the
  exponent/stiffness search for boundary-composite weights, with its
  stiffness probe and lattice samples.
* :mod:`pconvex.discrete` — cubical complexes over box/staircase domains,
  weighted cochain calculus, and the discrete energy identity.
* :mod:`pconvex.solver` — minimal-norm solves of ``du = f``, verified
  norm estimates with their predicted constants, harmonic ranks, and the
  log-marginal convexity check.
* :mod:`pconvex.cli` — batch front-end over INI configs (``pconvex run``,
  ``pconvex list-builtins``).

scipy is loaded only by LSMR, for a solve in degree p > 1, and by the
public ``coboundary``; a degree-1 bound or solve, on any domain, and a
cohomology count run on numpy alone.
"""

from .convexity import (boundary_p_convexity, curvature_bounds_check,
                        field_p_psh_report, min_p_trace, signature_count)
from .discrete import (Cochain, CubicalComplex, GridDomain, build_complex,
                       coboundary, energy_identity_residual, mass,
                       sample_cochain, weighted_adjoint)
from .exterior import (PointForm, dim_forms, index_list, inverse_bound_check,
                       pairing_quadratic, quadform_action, quadform_eigen,
                       quadform_matrix, quadform_pinv, rank_one_image_check)
from .fieldexpr import Jet2, ScalarFieldExpr, compose_df, parse
from .solver import (BoundReport, berndtsson_report, closed_form_from_potential,
                     cohomology_rank, composite_minimal_estimate,
                     domain_monotonicity, hormander_report,
                     minimal_estimate_report, minimal_solution, nonpsh_report,
                     prekopa_check, weight_monotonicity)
from .weights import (df_search, diameter_weight, lattice_samples,
                      stiffness_floor)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # exterior
    "PointForm", "dim_forms", "index_list", "inverse_bound_check",
    "pairing_quadratic", "quadform_action", "quadform_eigen",
    "quadform_matrix", "quadform_pinv", "rank_one_image_check",
    # convexity
    "boundary_p_convexity", "curvature_bounds_check", "field_p_psh_report",
    "min_p_trace", "signature_count",
    # fieldexpr
    "Jet2", "ScalarFieldExpr", "compose_df", "parse",
    # weights
    "df_search", "diameter_weight", "lattice_samples", "stiffness_floor",
    # discrete
    "Cochain", "CubicalComplex", "GridDomain", "build_complex", "coboundary",
    "energy_identity_residual", "mass", "sample_cochain", "weighted_adjoint",
    # solver
    "BoundReport", "berndtsson_report", "closed_form_from_potential",
    "cohomology_rank", "composite_minimal_estimate", "domain_monotonicity",
    "hormander_report", "minimal_estimate_report", "minimal_solution",
    "nonpsh_report", "prekopa_check", "weight_monotonicity",
]
