"""Rational approximation of branch-point singularities with preassigned poles.

Clustered poles on the negative real axis plus a polynomial term,
fitted by truncated-SVD least squares on exponentially graded grids,
with the trapezoidal reference approximant, pole-density asymptotics,
and contour-integral error verification alongside.
"""

from .version import __version__
from .errors import (LightningError, InputError, EvaluationError, NumericError)
from .problems import (Target, TargetKind, Domain, SampleGrid, eval_target,
                       build_fit_grid)
from .poles import uniform_poles, tapered_poles, big_poles
from .fitting import (BasisSpec, Approximant, FitReport, fit, fit_nested,
                      evaluate, max_error, DEFAULT_TSVD_EPS)
from .trapezoid import (TrapApproximant, PartialFractionForm, trap_eval,
                        trap_partial_fractions, trap_error_bound,
                        truncated_sqrt_integral, large_pole_tail,
                        default_step, t_parameter, error_integrand)
from .density import (density_leading, density_correction, stahl_density,
                      invert_stahl_density, large_pole_estimate,
                      pole_from_density, count_large_poles)
from .contour import (ContourSetup, ContourTerms, PoleResidue, IdentityReport,
                      quadrature_error_kernel, pole_residue_pairs, residue_term,
                      contour_terms, error_identity_report, residue_rate_check)
from .tables import ResultTable, render_table, write_table, parse_csv_table
from .quadrature import integrate
