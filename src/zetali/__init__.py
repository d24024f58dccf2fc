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

# each module's __all__ is the one declaration of its public names
from . import coefficients, errors, li, numerics, partitions, stieltjes, verify
from .errors import *
from .numerics import *
from .partitions import *
from .stieltjes import *
from .coefficients import *
from .li import *
from .verify import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *numerics.__all__, *partitions.__all__,
           *stieltjes.__all__, *coefficients.__all__, *li.__all__, *verify.__all__]
