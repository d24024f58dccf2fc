"""Stieltjes constants, eta coefficients, and the oscillating part of
the Li sequence, at arbitrary precision with cross-verified routes.

The package is organized around three coefficient families tied to the
Riemann zeta function near its pole:

* gamma_n — Stieltjes constants, the regular Laurent coefficients of
  zeta(1+s) (module :mod:`zetali.stieltjes`);
* eta_n — the Laurent coefficients of -zeta'/zeta(1+s) after removing
  the pole (module :mod:`zetali.coefficients`);
* lambda_tilde_n — the binomial transform of the eta family: the
  oscillating part of the Li sequence (module :mod:`zetali.li`).

Tables of gamma_n and of eta_n share one type,
:class:`zetali.stieltjes.CoefficientTable`, tagged with their kind.

Every quantity is computable by at least two independent routes.
:func:`zetali.verify.run_verification` (or the ``zetali verify``
command) recomputes the table-based ones against each other.
"""

from .errors import (
    NonInvertibleSeriesError,
    OrderMismatchError,
    PrecisionInfeasibleError,
    TableFormatError,
)
from .numerics import (
    BigRational,
    BigReal,
    PrecisionContext,
    bernoulli,
    decimal_digits,
    from_decimal,
    rational_to_str,
    series_derivative,
    series_mul,
    render,
    series_recip,
    to_decimal,
)
from .partitions import (
    enumerate_constrained,
    partition_count,
    summatory_partition_count,
)
from .stieltjes import (
    CONVENTION_CLASSIC,
    CONVENTION_PAPER,
    CoefficientTable,
    compute_gamma_table,
    euler_maclaurin_parameters,
    gamma_contour,
    load_table,
    render_table,
    save_table,
)
from .coefficients import (
    SymbolicExpansion,
    eta_from_gamma_explicit,
    eta_contour,
    eta_from_gamma_recurrence,
    eta_series_oracle,
    expand_eta_symbolic,
    expand_gamma_symbolic,
    gamma_from_eta_explicit,
    modified_gamma,
)
from .li import (
    TermDistribution,
    expand_lambda_symbolic,
    histogram,
    lambda_context,
    lambda_tilde_binomial,
    lambda_tilde_explicit,
    lambda_trend,
    term_distribution,
    trend_constant,
)
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "PrecisionInfeasibleError", "OrderMismatchError",
    "NonInvertibleSeriesError", "TableFormatError",
    # numerics
    "BigReal", "BigRational", "PrecisionContext",
    "decimal_digits", "to_decimal", "render", "from_decimal",
    "rational_to_str", "bernoulli",
    "series_mul", "series_recip", "series_derivative",
    # partitions
    "enumerate_constrained", "partition_count", "summatory_partition_count",
    # stieltjes
    "CONVENTION_PAPER", "CONVENTION_CLASSIC", "CoefficientTable",
    "compute_gamma_table", "euler_maclaurin_parameters",
    "gamma_contour", "render_table",
    "save_table", "load_table",
    # coefficients
    "SymbolicExpansion", "modified_gamma",
    "eta_from_gamma_recurrence", "eta_from_gamma_explicit",
    "gamma_from_eta_explicit", "eta_series_oracle", "eta_contour",
    "expand_eta_symbolic", "expand_gamma_symbolic",
    # li
    "TermDistribution", "lambda_context",
    "lambda_tilde_binomial", "lambda_tilde_explicit",
    "expand_lambda_symbolic", "trend_constant", "lambda_trend",
    "term_distribution", "histogram",
    # verify
    "run_verification",
]
