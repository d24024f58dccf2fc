"""Oscillating part of the Li sequence.

The quantity of interest is the binomial transform

    lambda_tilde_n = - sum_{j=1}^{n} C(n, j) * eta_{j-1}

— the oscillation that remains after subtracting the smooth trend
(1 + n log n)/2 + c n, with c = (gamma_0 - 1 - log(2 pi)) / 2, from the
Li sequence.  Whether this oscillation stays bounded by the trend is a
famous open problem; this module only computes it, two independent ways:

* ``lambda_tilde_binomial`` — the transform above, evaluated with exact
  integer binomials.  The sum cancels catastrophically (roughly n bits
  are lost), so it runs under a guard policy of max(64, 10 n) extra bits
  and re-checks itself at 64 more ("cancellation sentinel") rather than
  ever returning silently wrong digits.
* ``lambda_tilde_explicit`` — the direct partition sum over the
  Stieltjes constants,

    lambda_tilde_n = - sum_{1<=r<=n} sum_{r(k)=r}
                         (p-1)! C(n, r) r prod_i (-gamma_i)^(k_i) / k_i!

  (vectors with r > n would carry a zero binomial factor, so the
  enumeration simply stops at r = n).  One partition walk visits every
  r <= n, forming each shared prefix product once; the weighted
  products are added exactly and the total is rounded once.

``term_distribution`` exposes the individual partition-sum terms — one
value per vector, sum_{m<=n} p(m) of them — whose near-symmetric pileup
around zero is what makes the oscillation so much smaller than its
largest terms; ``histogram`` bins them for plotting, placing each value
by exact integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .coefficients import (
    EtaTable,
    SymbolicExpansion,
    _require_length,
    _require_paper,
    _signed_powers,
    modified_gamma,
)
from .errors import PrecisionInfeasibleError
from .numerics import DEFAULT_CONTEXT, BigReal, PrecisionContext, weighted_sum
from .partitions import _dense, _power_rows, _walk_partitions
from .stieltjes import GammaTable, compute_gamma_table

__all__ = [
    "LambdaRecord",
    "TermDistribution",
    "lambda_guard_bits",
    "lambda_context",
    "lambda_tilde_binomial",
    "lambda_tilde_explicit",
    "expand_lambda_symbolic",
    "trend_constant",
    "lambda_trend",
    "term_distribution",
    "histogram",
    "lambda_estimate",
]

@dataclass(frozen=True)
class LambdaRecord:
    """Oscillation, trend, and their sum for one index.

    ``estimate`` is trend + lambda_tilde computed exactly (no rounding in
    the addition); since the trend is only asymptotic, the estimate is an
    asymptotic stand-in for the underlying Li number, not its value.
    """

    n: int
    lambda_tilde: BigReal
    trend: BigReal
    estimate: BigReal
    method: str


@dataclass(frozen=True)
class TermDistribution:
    """All nonzero partition-sum terms for one index, canonical order.

    The negated sum of ``term_values`` equals lambda_tilde_n.
    """

    n: int
    term_values: tuple[BigReal, ...]

    def __len__(self) -> int:
        return len(self.term_values)


def lambda_guard_bits(n: int) -> int:
    """Guard policy for oscillation work at index n: the binomial sum
    loses on the order of n bits to cancellation."""
    return max(64, 10 * n)


def lambda_context(target_bits: int, n: int) -> PrecisionContext:
    """Context with the oscillation guard policy applied for index n."""
    return PrecisionContext(target_bits, lambda_guard_bits(n))


def _binomial_sum(values, n: int, bits: int) -> BigReal:
    with mp.workprec(bits):
        acc = mp.mpf(0)
        for j in range(1, n + 1):
            acc += math.comb(n, j) * values[j - 1]
        return -acc


def lambda_tilde_binomial(e: EtaTable, n: int,
                          ctx: PrecisionContext = DEFAULT_CONTEXT, *,
                          check_cancellation: bool = True) -> BigReal:
    """lambda_tilde_n = - sum_{j=1}^{n} C(n, j) eta_{j-1}.

    Binomials are exact integers; the eta values come from the table
    as-is.  With ``check_cancellation`` on (the default), the sum is
    recomputed at 64 extra guard bits, and a drift of 2^-target_bits or
    more raises PrecisionInfeasibleError: digits that move under extra
    guard were never trustworthy.
    """
    if n < 1:
        raise ValueError("n must be positive")
    _require_length(e, n - 1, "eta")
    value = _binomial_sum(e.values, n, ctx.working_bits)
    if check_cancellation:
        recheck = _binomial_sum(e.values, n, ctx.working_bits + 64)
        with ctx.workprec():
            if abs(value - recheck) >= mp.mpf(2) ** -ctx.target_bits:
                raise PrecisionInfeasibleError(
                    f"binomial sum for n={n} is not stable at "
                    f"{ctx.working_bits} working bits (cancellation); "
                    f"raise guard_bits — policy suggests {lambda_guard_bits(n)}")
    return value


def _lambda_weights(n: int) -> list[list[int]]:
    """``weights[r][p] = (p-1)! C(n, r) r``, the integer factor of a
    term whose vector partitions r into p parts."""
    return [[modified_gamma(p) * math.comb(n, r) * r for p in range(r + 1)]
            for r in range(n + 1)]


def lambda_tilde_explicit(g: GammaTable, n: int,
                          ctx: PrecisionContext = DEFAULT_CONTEXT) -> BigReal:
    """The oscillation by direct partition sum over the Stieltjes
    constants; needs only gamma_0 .. gamma_{n-1}.

    One walk visits the partitions of every r <= n; each product is
    rounded at working precision, the integer weights are applied and
    summed exactly, and the total is rounded once.
    """
    if n < 1:
        raise ValueError("n must be positive")
    _require_paper(g)
    _require_length(g, n - 1, "gamma")
    weights = _lambda_weights(n)
    with ctx.workprec():
        walk = _walk_partitions(n, _signed_powers(g.values, n), least=1)
        return -weighted_sum(((weights[r][p], product)
                              for r, _, p, product in walk), ctx.working_bits)


def term_distribution(g: GammaTable, n: int,
                      ctx: PrecisionContext = DEFAULT_CONTEXT) -> TermDistribution:
    """Every nonzero partition-sum term for index n, in canonical order:
    r ascending, then the canonical order of the partitions of r.

    Each term is its integer weight times its product, rounded once at
    working precision.  The length is sum_{m<=n} p(m) and the negated
    sum equals lambda_tilde_n up to rounding.
    """
    if n < 1:
        raise ValueError("n must be positive")
    _require_paper(g)
    _require_length(g, n - 1, "gamma")
    weights = _lambda_weights(n)
    by_r: list[list[BigReal]] = [[] for _ in range(n + 1)]
    with ctx.workprec():
        for r, _, p, product in _walk_partitions(
                n, _signed_powers(g.values, n), least=1):
            by_r[r].append(weights[r][p] * product)
    return TermDistribution(n, tuple(itertools.chain.from_iterable(by_r)))


def expand_lambda_symbolic(n: int) -> SymbolicExpansion:
    """lambda_tilde_n as an exact polynomial in gamma_0 .. gamma_{n-1}.

    Exponent vectors are padded to length n + 1 so all monomials share
    one key shape; the coefficient of the monomial with multiplicities k
    (partitioning r) is the integer (-1)^(p+1) (p-1)! C(n, r) r / prod k_i!.
    Term count: sum_{m<=n} p(m).
    """
    if n < 1:
        raise ValueError("n must be positive")
    denoms = _power_rows(n, lambda j, c: math.factorial(c))
    weights = _lambda_weights(n)
    terms: dict[tuple[int, ...], Fraction] = {}
    for r in range(1, n + 1):
        for parts, p, denom in _walk_partitions(r, denoms):
            coeff = Fraction(weights[r][p], denom)
            terms[_dense(parts, n + 1)] = coeff if p % 2 else -coeff
    return SymbolicExpansion("lambda_tilde", n, terms)


# --------------------------------------------------------------------------
# Trend
# --------------------------------------------------------------------------

_gamma0_cache: dict[tuple[int, int], BigReal] = {}


def trend_constant(ctx: PrecisionContext = DEFAULT_CONTEXT) -> BigReal:
    """c = (gamma_0 - 1 - log(2 pi)) / 2, about -1.1303307."""
    key = (ctx.target_bits, ctx.guard_bits)
    gamma0 = _gamma0_cache.get(key)
    if gamma0 is None:
        gamma0 = compute_gamma_table(0, ctx).values[0]
        _gamma0_cache[key] = gamma0
    with ctx.workprec():
        return (gamma0 - 1 - mp.log(2 * mp.pi)) / 2


def lambda_trend(n: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> BigReal:
    """Asymptotic trend (1 + n log n)/2 + c n of the smooth part."""
    if n < 1:
        raise ValueError("n must be positive")
    c = trend_constant(ctx)
    with ctx.workprec():
        return (1 + n * mp.log(n)) / 2 + c * n


# --------------------------------------------------------------------------
# Distribution views
# --------------------------------------------------------------------------


def histogram(d: TermDistribution, bins: int,
              ctx: PrecisionContext = DEFAULT_CONTEXT) -> list[tuple[BigReal, BigReal, int]]:
    """Equal-width binning of the term values over [min, max].

    With ``width = (max - min) / bins`` rounded at working precision, a
    value v goes to bin ``min(floor((v - min) / width), bins - 1)``,
    computed exactly by integer division of the mantissas aligned on one
    exponent.  So a value sitting exactly on a bin boundary
    ``min + i * width`` counts in the upper bin, and the maximum counts
    in the last bin (if all values coincide, everything lands there).
    Returns (lower, upper, count) rows, the bounds rounded at working
    precision, whose counts sum to len(d).
    """
    if bins < 1:
        raise ValueError("bins must be positive")
    vals = d.term_values
    if not vals:
        raise ValueError("empty distribution")
    with ctx.workprec():
        lo = min(vals)
        hi = max(vals)
        width = (hi - lo) / bins
        counts = [0] * bins
        if not width:
            counts[-1] = len(vals)
        else:
            at = min(width._mpf_[2], min(v._mpf_[2] for v in vals))

            def scaled(x):  # x / 2^at, an integer
                sign, man, exp, _ = x._mpf_
                return -(man << (exp - at)) if sign else man << (exp - at)

            base, step = scaled(lo), scaled(width)
            for v in vals:
                counts[min((scaled(v) - base) // step, bins - 1)] += 1
        rows = []
        for i in range(bins):
            lower = lo + i * width
            upper = hi if i == bins - 1 else lo + (i + 1) * width
            rows.append((lower, upper, counts[i]))
    return rows


def lambda_estimate(table: EtaTable | GammaTable, n: int,
                    ctx: PrecisionContext = DEFAULT_CONTEXT) -> LambdaRecord:
    """Bundle oscillation, trend, and their exact sum for one index.

    The table picks the oscillation route: an eta table is summed by the
    binomial transform, a gamma table by the explicit partition sum.
    Passing one eta table for every index builds it only once.
    """
    if isinstance(table, EtaTable):
        method, osc = "binomial", lambda_tilde_binomial(table, n, ctx)
    elif isinstance(table, GammaTable):
        method, osc = "explicit", lambda_tilde_explicit(table, n, ctx)
    else:
        raise TypeError("expected an EtaTable or a GammaTable, "
                        f"got {type(table).__name__}")
    trend = lambda_trend(n, ctx)
    estimate = mp.fadd(trend, osc, exact=True)
    return LambdaRecord(n=n, lambda_tilde=osc, trend=trend,
                        estimate=estimate, method=method)
