"""Borel summation of Gevrey-1 power series by factorial-series expansions.

Public surface:

* :mod:`borelsum.numerics`: precision configuration and gamma kernels;
* :mod:`borelsum.combinatorics`: exact Stirling numbers, Bell polynomials,
  and the d-coefficients of the generalized expansion;
* :mod:`borelsum.series`: formal series in z^(-1/m), cover points,
  coefficient transforms, and the JSON series format;
* :mod:`borelsum.classical`: the m = 1 factorial-series machinery and the
  explicit remainder bounds;
* :mod:`borelsum.ramified`: branch and generalized summation for m > 1;
* :mod:`borelsum.oracle`: Laplace-integral quadrature and built-in series;
* :mod:`borelsum.cli`: the command-line interface.
"""

from .classical import (BoundRow, FactorialExpansion, SummationResult,
                        b_bound, bound_comparison_table, factorial_expansion,
                        factorial_series_sum, least_term_index, r_as, r_fact,
                        r_fact_asymptotic, stirling_transform)
from .combinatorics import (BellArguments, bell_partial, d_coefficient,
                            d_coefficient_exact, d_coefficient_row,
                            stirling_first)
from .errors import (BorelSumError, DomainError,
                     InsufficientCoefficientsError, PoleError, QuadratureError)
from .numerics import (DEFAULT_PRECISION, PrecisionConfig, gamma_ratio,
                       gamma_ratios, working_precision)
from .oracle import (BUILTIN_EVALUATORS, BUILTIN_SERIES, PSI_LAMBDA_SUP,
                     BorelEvaluator, euler_series, example2_series,
                     laplace_quadrature, psi_scaled_coefficients, psi_series)
from .ramified import (branch_sum, generalized_coefficients,
                       generalized_factorial_sum, least_term_sum_ramified,
                       r_as_ramified, rotated_generalized_sum)
from .series import (FormalSeries, GrowthEnvelope, RamifiedPoint, as_point,
                     branch_split, dump_series, load_series, partial_sum,
                     power, rotate, scale)

__version__ = "0.1.0"
