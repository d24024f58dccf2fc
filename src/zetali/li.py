"""Oscillating part of the Li sequence.

The quantity of interest is the binomial transform

    lambda_tilde_n = - sum_{j=1}^{n} C(n, j) * eta_{j-1}

— the oscillation lambda_n - lambda_bar_n left after subtracting from
the Li sequence its exact smooth part

    lambda_bar_n = 1 - (n/2)(gamma_0 + log pi + 2 log 2)
                   + sum_{j=2}^{n} (-1)^j C(n, j) (1 - 2^-j) zeta(j),

whose asymptotic form is the trend (1 + n log n)/2 + c n, c = (gamma_0
- 1 - log(2 pi)) / 2; the two differ by a constant tending to 1/4.
Whether the oscillation stays small against the smooth part is a famous
open problem; this module only computes it, two independent ways:

* ``lambda_tilde_binomial`` — the transform above with exact integer
  binomials, summed exactly and rounded once.  The weights amplify the
  eta table's own rounding by up to 2^n, so the route refuses a table
  too coarse for the target (:func:`lambda_context`, max(64, 10 n)
  guard bits, builds tables that pass) rather than return wrong digits.
* ``lambda_tilde_explicit`` — the direct partition sum over the
  Stieltjes constants,

    lambda_tilde_n = - sum_{1<=r<=n} sum_{r(k)=r}
                         (p-1)! C(n, r) r prod_i (-gamma_i)^(k_i) / k_i!

  (vectors with r > n would carry a zero binomial factor, so the
  enumeration simply stops at r = n).  This is the binomial transform
  above with each eta_{r-1} left as its exact partition sum E_r:
  lambda_tilde_n = - sum_{r<=n} C(n, r) E_r, rounded once, with the E_r
  of ``coefficients.eta_from_gamma_explicit`` formed in one walk.  A
  repeated request is a lookup in the gamma table's store, and
  ``lambda_tilde_explicit_table`` walks once for every index up to N.

``term_distribution`` exposes the individual partition-sum terms — one
value per vector, sum_{m<=n} p(m) of them — whose near-symmetric pileup
around zero is what makes the oscillation so much smaller than its
largest terms; ``histogram`` bins them for plotting, placing each value
by exact integer comparison with the bin bounds it returns, without a
per-value copy or key.  The walk rounds each term straight into a
packed form, about bits / 8 + 9 bytes a term against about 285 for an
``mpf``, and every request builds its ``mpf`` terms from that form in
one pass.  A gamma table keeps each (n, working precision) distribution
it serves so, at most 2 MiB a table, and every later request skips the
walk.

The trend takes gamma_0 from the caller, who already holds the gamma
table, so no second table is built for it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import filterfalse, repeat
from operator import itemgetter, lshift, sub

import mpmath as mp

from .coefficients import (
    SymbolicExpansion,
    _expand,
    _index_sums,
    _kept,
    _kept_terms,
    _signed_walk,
    modified_gamma,
)
from .errors import PrecisionInfeasibleError
from .numerics import PrecisionContext, pack_raw, raw_to_mpf, to_raw, weighted_sum
from .stieltjes import CoefficientTable, _require

__all__ = [
    "TermDistribution",
    "lambda_context",
    "lambda_tilde_binomial",
    "lambda_tilde_explicit",
    "lambda_tilde_explicit_table",
    "expand_lambda_symbolic",
    "trend_constant",
    "lambda_trend",
    "term_distribution",
    "histogram",
]


@dataclass(frozen=True)
class TermDistribution:
    """All nonzero partition-sum terms for one index, canonical order.

    The negated sum of ``term_values`` equals lambda_tilde_n.
    """

    n: int
    term_values: tuple[mp.mpf, ...]

    def __len__(self) -> int:
        return len(self.term_values)


def lambda_context(target_bits: int, n: int) -> PrecisionContext:
    """Context for oscillation work at every index up to n, with max(64,
    10 n) guard bits: the weights C(m, j), m <= n, amplify the rounding
    of an eta table built under it by up to 2^n."""
    return PrecisionContext(target_bits, max(64, 10 * n))


def lambda_tilde_binomial(e: CoefficientTable, n: int, ctx: PrecisionContext) -> mp.mpf:
    """lambda_tilde_n = - sum_{j=1}^{n} C(n, j) eta_{j-1}, with exact
    binomials, summed exactly and rounded once at working precision.

    Each eta entry may be off by 2^-precision_bits of itself, so this
    raises PrecisionInfeasibleError unless 2^-precision_bits * sum_j
    C(n, j) |eta_{j-1}| < 2^-(target_bits+1), summed exactly and
    rounded to 53 bits.
    """
    _require(e, "eta", n - 1)
    terms = [(math.comb(n, j), to_raw(e.values[j - 1])) for j in range(1, n + 1)]
    spread = weighted_sum(((w, (abs(man), exp)) for w, (man, exp) in terms), 53)
    if spread >= mp.ldexp(1, e.precision_bits - ctx.target_bits - 1):
        raise PrecisionInfeasibleError(
            f"an eta table of {e.precision_bits} bits cannot back lambda_tilde_{n}"
            f" to 2^-{ctx.target_bits + 1}: the binomial weights amplify its rounding")
    # negated in the exact weights: rounding to nearest is symmetric
    return weighted_sum(((-w, raw) for w, raw in terms), ctx.working_bits)


def _lambda_weights(n: int) -> list[list[int]]:
    """``weights[r][p] = (p-1)! C(n, r) r``, the integer factor of a
    term whose vector partitions r into p parts."""
    return [[modified_gamma(p) * math.comb(n, r) * r for p in range(r + 1)]
            for r in range(n + 1)]


def lambda_tilde_explicit(g: CoefficientTable, n: int, ctx: PrecisionContext) -> mp.mpf:
    """The oscillation by direct partition sum over the Stieltjes
    constants; needs only gamma_0 .. gamma_{n-1}.

    The binomial transform of the explicit eta left unrounded:
    lambda_tilde_n = - sum_{r=1}^{n} C(n, r) E_r, where eta_{r-1} is the
    exact partition sum E_r rounded.  One walk forms E_1 .. E_n; the
    binomials are applied exactly and the total is rounded once.  The
    result is kept on ``g`` (:func:`~zetali.coefficients._kept`), so a
    repeated request at the same working precision is a lookup.
    """
    _require(g, "gamma", n - 1)
    return _kept(g, "lambda", n, ctx, _negated_transform, least=1)


def lambda_tilde_explicit_table(g: CoefficientTable, n_max: int,
                                ctx: PrecisionContext) -> tuple[mp.mpf, ...]:
    """lambda_tilde_1 .. lambda_tilde_n_max, each the value
    :func:`lambda_tilde_explicit` gives, bit for bit, from one walk that
    forms every E_r, r <= n_max, once."""
    _require(g, "gamma", max(0, n_max - 1))
    sums = _index_sums(g, n_max, ctx, least=1)
    return tuple(_negated_transform(n, sums[:n], ctx.working_bits)
                 for n in range(1, n_max + 1))


def _negated_transform(n: int, sums: list[tuple[int, int]], bits: int) -> mp.mpf:
    """- sum_{r=1}^{n} C(n, r) E_r over the exact sums E_1 .. E_n, rounded
    once to ``bits``."""
    # negated in the exact weights: rounding to nearest is symmetric
    return weighted_sum(((-math.comb(n, r), raw) for r, raw in enumerate(sums, 1)), bits)


def term_distribution(g: CoefficientTable, n: int,
                      ctx: PrecisionContext) -> TermDistribution:
    """Every nonzero partition-sum term for index n, in canonical order:
    r ascending, then the canonical order of the partitions of r.

    Each term is its integer weight times its product (rounded as in
    the sum), rounded once at working precision.  The length is
    sum_{m<=n} p(m) and the negated sum equals lambda_tilde_n up to
    rounding.

    The walk rounds each term straight into a packed form
    (:func:`~zetali.numerics.pack_raw`, about bits / 8 + 9 bytes a term)
    and every request builds the ``mpf`` terms from it in one pass.  The
    first request for a (table, n, working precision) keeps that form on
    ``g``, and every later one skips the walk, bit for bit
    (:func:`~zetali.coefficients._kept_terms`).  A table keeps at most
    2 MiB of packed terms; once a distribution would pass that, it is
    walked on every request.
    """
    _require(g, "gamma", n - 1)

    def walk():
        return pack_raw(_signed_walk(g.values, n, ctx, least=1), _lambda_weights(n),
                        ctx.working_bits)

    return TermDistribution(n, _kept_terms(g, n, ctx, walk))


def expand_lambda_symbolic(n: int) -> SymbolicExpansion:
    """lambda_tilde_n as an exact polynomial in gamma_0 .. gamma_{n-1}.

    Exponent vectors are padded to length n + 1 so all monomials share
    one key shape; the coefficient of the monomial with multiplicities k
    (partitioning r) is the integer (-1)^(p+1) (p-1)! C(n, r) r / prod k_i!.
    Term count: sum_{m<=n} p(m).
    """
    weights = [[(-1) ** (p + 1) * w for p, w in enumerate(row)]
               for row in _lambda_weights(n)]
    return _expand("lambda_tilde", n, weights, lambda j, c: math.factorial(c), 1)


# --------------------------------------------------------------------------
# Trend
# --------------------------------------------------------------------------

def trend_constant(gamma0: mp.mpf, ctx: PrecisionContext) -> mp.mpf:
    """c = (gamma_0 - 1 - log(2 pi)) / 2, about -1.1303307, from the
    caller's gamma_0."""
    with ctx.workprec():
        return (gamma0 - 1 - mp.log(2 * mp.pi)) / 2


def lambda_trend(n: int, gamma0: mp.mpf, ctx: PrecisionContext) -> mp.mpf:
    """Asymptotic trend (1 + n log n)/2 + c n of the smooth part."""
    if n < 1:
        raise ValueError("n must be positive")
    c = trend_constant(gamma0, ctx)
    with ctx.workprec():
        return (1 + n * mp.log(n)) / 2 + c * n


# --------------------------------------------------------------------------
# Distribution views
# --------------------------------------------------------------------------


def histogram(d: TermDistribution, bins: int,
              ctx: PrecisionContext) -> list[tuple[mp.mpf, mp.mpf, int]]:
    """Equal-width binning of the term values over [min, max].

    With ``width = (max - min) / bins``, row 0 opens at the minimum
    itself and row i > 0 at ``min + i * width`` rounded at working
    precision (at the minimum too when ``width`` is 0).  A value goes to
    the last bin whose returned lower bound it reaches, compared exactly
    as integers, so every counted value lies within its
    row's bounds: a value equal to a returned bound counts in the bin
    that bound opens, and the maximum counts in the last bin (if all
    values coincide, everything lands there).  Returns (lower, upper,
    count) rows whose counts sum to len(d).
    """
    if bins < 1:
        raise ValueError("bins must be positive")
    vals = d.term_values
    if not vals:
        raise ValueError("empty distribution")
    # compared exactly, as integers on the smallest exponent: each
    # value's _mpf_ tuple (sign, man, exp, bc) is read once, into lists of
    # references, not copies.  mpmath gives zero the exponent 0 and marks
    # inf and nan by a zero mantissa with a nonzero exponent; they are
    # refused as to_raw refuses them
    raws = [v._mpf_ for v in vals]
    if 0 in map(itemgetter(1), raws) and any(exp and not man for _, man, exp, _ in raws):
        raise ValueError("non-finite value")
    at = min(map(itemgetter(2), raws))
    ups = list(filterfalse(itemgetter(0), raws))  # zero and above
    downs = list(filter(itemgetter(0), raws))

    def scaled(part):  # |v| / 2^at of each value, made and dropped in turn
        return map(lshift, map(itemgetter(1), part),
                   map(sub, map(itemgetter(2), part), repeat(at)))

    low = -max(scaled(downs)) if downs else min(scaled(ups))
    high = max(scaled(ups)) if ups else -min(scaled(downs))
    lo, hi = (raw_to_mpf(key, at, key.bit_length()) for key in (low, high))
    with ctx.workprec():
        width = (hi - lo) / bins
        lowers = [lo] + [lo + i * width if width else lo for i in range(1, bins)]

    def ceil_scaled(x):  # smallest integer >= x / 2^at
        man, exp = to_raw(x)
        return man << (exp - at) if exp >= at else -(-man >> (at - exp))

    # interior bounds only: v reaches a bound exactly when v / 2^at
    # reaches the bound's ceiling E, so v >= 0 reaches the E <= |v| / 2^at
    # and v < 0 the E with -E >= |v| / 2^at; when width is 0 every value
    # equals every bound and lands in the last bin
    edges = [ceil_scaled(x) for x in lowers[1:]]
    counts = Counter(map(bisect_right, repeat(edges), scaled(ups)))
    negated = [-edge for edge in reversed(edges)]
    for missed, count in Counter(map(bisect_left, repeat(negated), scaled(downs))).items():
        counts[len(edges) - missed] += count
    return list(zip(lowers, lowers[1:] + [hi], [counts[i] for i in range(bins)]))
