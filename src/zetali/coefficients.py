"""Maps between the Stieltjes constants and the eta coefficients.

The eta coefficients are the Laurent coefficients of the negated
logarithmic derivative of zeta about its pole:

    -zeta'/zeta(1 + s) = 1/s + sum_{n>=0} eta_n s^n

Writing zeta(1+s) = A(s)/s with A(s) = 1 + sum gamma_n s^(n+1) ties the
two families together, and this module computes eta four independent
ways plus the inverse map:

* ``eta_from_gamma_recurrence`` — eta_n = -(n+1) gamma_n
  - sum_{k<n} eta_k gamma_{n-k-1}; the cheap production route.
* ``eta_from_gamma_explicit`` — the closed partition sum
  eta_{n-1} = n * sum_{r(k)=n} (p-1)! prod_i (-gamma_i)^{k_i} / k_i!.
* ``eta_series_oracle`` — coefficients of -A'(s)/A(s) computed with
  truncated-series arithmetic; independent of both formulas above.
* ``eta_contour`` — eta_n = -(n+1) [s^(n+1)] log(s zeta(1+s)), read off
  samples on |s| = 1; it starts from ``mp.zeta``, not from a gamma table.
* ``gamma_from_eta_explicit`` — the inverse partition sum
  gamma_{n-1} = sum_{r(k)=n} prod_i (1/k_i!) (-eta_i/(1+i))^{k_i}.

``eta_explicit_table``, ``gamma_explicit_table`` and
``li.lambda_tilde_explicit_table`` give every index up to N: one walk
forms the exact sum of each (``_index_sums``, which keeps nothing), and
each is rounded as its per-index route rounds it, bit for bit.  A table
keeps two things, under keys written in this module only: ``_kept``
keeps each per-index route's rounded value per working precision, so a
repeated request is a lookup, and ``_kept_terms`` keeps each term
distribution of ``li.term_distribution`` in the packed form its walk
wrote, up to 2 MiB a table.

``expand_eta_symbolic`` / ``expand_gamma_symbolic`` evaluate the two
partition sums with symbolic inputs, giving exact rational coefficients
per monomial; these pin down the algebra without any floating point.
They and ``li.expand_lambda_symbolic`` share one kernel, ``_expand``.

In the partition sums, the integer weight (p-1)! is the "modified
gamma": Gamma(p) for p >= 1 with Gamma(0) taken as 1.  Every vector
with r = n >= 1 has p >= 1, so the p = 0 case only makes the n = 0 edge
total; it is never reached in production paths.

Every route but ``eta_contour`` reads its input from a
:class:`~zetali.stieltjes.CoefficientTable` and refuses a table of the
wrong kind with ValueError; the table-building routes return one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .numerics import (
    PrecisionContext,
    cauchy_coefficients,
    packed_size,
    rational_to_str,
    raw_to_mpf,
    rounded_product,
    series_derivative,
    series_mul,
    series_recip,
    to_raw,
    unpack_mpfs,
)
from .partitions import _dense, _power_rows, _walk_partitions
from .stieltjes import CoefficientTable, _require

__all__ = [
    "SymbolicExpansion",
    "modified_gamma",
    "eta_from_gamma_recurrence",
    "eta_from_gamma_explicit",
    "gamma_from_eta_explicit",
    "eta_explicit_table",
    "gamma_explicit_table",
    "eta_series_oracle",
    "eta_contour",
    "expand_eta_symbolic",
    "expand_gamma_symbolic",
]


def modified_gamma(p: int) -> int:
    """Integer Gamma(p) = (p-1)! with the p = 0 edge defined as 1."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    return 1 if p == 0 else math.factorial(p - 1)


def partition_product(values, k: tuple[int, ...]) -> mp.mpf:
    """prod_i (-values[i])^(k_i) / k_i! over the nonzero multiplicities
    of the vector ``k``.

    Must be called under the working precision of the caller's context.
    """
    acc = mp.mpf(1)
    for i, m in enumerate(k):
        if m:
            acc *= (-values[i]) ** m / math.factorial(m)
    return acc


def _signed_walk(values, n: int, ctx: PrecisionContext, least: int | None = None):
    """The partition walk over the factors of :func:`partition_product`.

    Each factor is formed in ``mpf`` as there, at the working precision,
    and then held raw; the walk rounds every prefix product as ``mpf``
    multiplication at that precision would, so in each yielded
    ``(r, p, (man, exp))`` the product is :func:`partition_product`'s.
    """
    with ctx.workprec():
        powers = _power_rows(
            n, lambda j, c: to_raw((-values[j]) ** c / math.factorial(c)))
    return _walk_partitions(n, powers, least,
                            mul=rounded_product(ctx.working_bits), one=(1, 0))


def eta_from_gamma_recurrence(g: CoefficientTable, n_max: int,
                              ctx: PrecisionContext) -> CoefficientTable:
    """eta_n = -(n+1) gamma_n - sum_{k=0}^{n-1} eta_k gamma_{n-k-1}; the
    table claims no more bits than g carries."""
    _require(g, "gamma", n_max)
    with ctx.workprec():
        out: list[mp.mpf] = []
        for n in range(n_max + 1):
            acc = mp.mpf(0)
            for k in range(n):
                acc += out[k] * g.values[n - k - 1]
            out.append(-(n + 1) * g.values[n] - acc)
    return CoefficientTable("eta", "recurrence", tuple(out),
                            min(ctx.working_bits, g.precision_bits))


def _index_sums(table: CoefficientTable, n: int, ctx: PrecisionContext,
                least: int | None = None) -> list[tuple[int, int]]:
    """The exact partition sums E_r for every r in ``[least, n]``
    (``least`` defaults to n), as raw ``(man, exp)`` pairs, of the sum
    that ``table`` feeds, all from one walk:

    * over a gamma table, eta_{r-1} is E_r rounded,
      E_r = sum_{r(k)=r} r (p-1)! prod_i (-gamma_i)^(k_i) / k_i!;
    * over an eta table, gamma_{r-1} is E_r rounded,
      E_r = sum_{r(k)=r} prod_i (1/k_i!) (-eta_i / (1+i))^(k_i).

    Each product is rounded at working precision by :func:`_signed_walk`
    and the integer-weighted products are added exactly, so E_r does not
    depend on the order of the terms or on which walk formed them.
    """
    least = n if least is None else least
    if table.kind == "gamma":
        values = table.values
        weights = [[r * modified_gamma(p) for p in range(r + 1)] for r in range(n + 1)]
    else:
        with ctx.workprec():
            values = [table.values[i] / (1 + i) for i in range(n)]
        weights = [[1] * (r + 1) for r in range(n + 1)]
    # the exact sum of index r so far is acc[r] * 2^at[r], as in
    # weighted_sum, whose rounding of it is raw_to_mpf's
    acc = [0] * (n + 1)
    at = [0] * (n + 1)
    for r, p, (man, exp) in _signed_walk(values, n, ctx, least):
        if exp < at[r]:
            acc[r] = (acc[r] << (at[r] - exp)) + weights[r][p] * man
            at[r] = exp
        else:
            acc[r] += (weights[r][p] * man) << (exp - at[r])
    return list(zip(acc[least:], at[least:]))


def _kept(table: CoefficientTable, route: str, n: int, ctx: PrecisionContext,
          rounding, least: int | None = None) -> mp.mpf:
    """``rounding(n, sums, bits)`` of the exact sums ``_index_sums(table,
    n, ctx, least)`` at working precision ``bits``: the value of
    ``route`` (``"eta"``, ``"gamma"`` or ``"lambda"``) at index n, kept
    in the table's store under (route, working bits), so a repeated
    request neither walks nor rounds again."""
    bits = ctx.working_bits
    kept = table._sums.setdefault((route, bits), {})
    value = kept.get(n)
    if value is None:
        value = kept[n] = rounding(n, _index_sums(table, n, ctx, least), bits)
    return value


#: the bytes of packed term distributions one table keeps, at most
_PACKED_CAP = 2 << 20


def _kept_terms(table: CoefficientTable, n: int, ctx: PrecisionContext,
                walk) -> tuple[mp.mpf, ...]:
    """The ``mpf`` terms of index n at ``ctx``'s working precision, built
    in one pass (:func:`~zetali.numerics.unpack_mpfs`) from their packed
    form ``walk()``, :func:`~zetali.numerics.pack_raw` at that
    precision.  The table's store keeps that form under ("distribution",
    working bits), so only the first request walks.  A table keeps at
    most 2 MiB of packed terms: a distribution that would pass that is
    not kept, and nothing is evicted."""
    bits = ctx.working_bits
    kept = table._sums.setdefault(("distribution", bits), {})
    parts = kept.get(n)
    if parts is None:
        parts = walk()
        if _packed_bytes(table) + _parts_size(parts, bits) <= _PACKED_CAP:
            kept[n] = parts
        else:
            # handed over one at a time, so that each part is freed as
            # soon as its terms are built, not held beside all of them
            pending = parts[::-1]
            parts = (pending.pop() for _ in range(len(pending)))
    return unpack_mpfs(parts, bits)


def _parts_size(parts, bits: int) -> int:
    """The bytes of one packed distribution."""
    return packed_size(sum(len(codes) for _, codes in parts), bits)


def _packed_bytes(table: CoefficientTable) -> int:
    """The bytes of the term distributions ``table`` keeps packed."""
    return sum(_parts_size(parts, bits)
               for (route, bits), kept in table._sums.items() if route == "distribution"
               for parts in kept.values())


def _round_one(n: int, sums: list[tuple[int, int]], bits: int) -> mp.mpf:
    """The one exact sum of ``sums`` rounded to ``bits``."""
    return raw_to_mpf(*sums[0], bits)


def eta_from_gamma_explicit(g: CoefficientTable, n: int, ctx: PrecisionContext) -> mp.mpf:
    """eta_{n-1} by the closed partition sum

        eta_{n-1} = n * sum_{r(k)=n} (p-1)! prod_i (-gamma_i)^(k_i) / k_i!

    Each product is rounded at working precision; the integer weights
    n (p-1)! are applied and summed exactly, and the total is rounded
    once.  The rounded eta_{n-1} is kept on ``g`` (:func:`_kept`): a
    repeated request at the same working precision walks nothing and is
    a lookup.  :func:`eta_explicit_table` gives every index at once.
    """
    _require(g, "gamma", n - 1)
    return _kept(g, "eta", n, ctx, _round_one)


def gamma_from_eta_explicit(e: CoefficientTable, n: int, ctx: PrecisionContext) -> mp.mpf:
    """gamma_{n-1} by inverting the partition sum:

        gamma_{n-1} = sum_{r(k)=n} prod_i (1/k_i!) (-eta_i / (1+i))^(k_i)

    with the products summed exactly and rounded once; the rounded
    gamma_{n-1} is kept on ``e``, as in :func:`eta_from_gamma_explicit`.
    :func:`gamma_explicit_table` gives every index at once.
    """
    _require(e, "eta", n - 1)
    return _kept(e, "gamma", n, ctx, _round_one)


def eta_explicit_table(g: CoefficientTable, n_max: int,
                       ctx: PrecisionContext) -> CoefficientTable:
    """eta_0 .. eta_n_max by the closed partition sum, each the value
    :func:`eta_from_gamma_explicit` gives, bit for bit, from one walk
    over every index; the table claims no more bits than g carries."""
    _require(g, "gamma", n_max)
    bits = ctx.working_bits
    values = [raw_to_mpf(man, exp, bits) for man, exp in _index_sums(g, n_max + 1, ctx, 1)]
    return CoefficientTable("eta", "explicit", values, min(bits, g.precision_bits))


def gamma_explicit_table(e: CoefficientTable, n_max: int,
                         ctx: PrecisionContext) -> CoefficientTable:
    """gamma_0 .. gamma_n_max by the inverse partition sum, each the
    value :func:`gamma_from_eta_explicit` gives, bit for bit, from one
    walk over every index; the table claims no more bits than e
    carries."""
    _require(e, "eta", n_max)
    bits = ctx.working_bits
    values = [raw_to_mpf(man, exp, bits) for man, exp in _index_sums(e, n_max + 1, ctx, 1)]
    return CoefficientTable("gamma", "explicit", values, min(bits, e.precision_bits))


def eta_series_oracle(g: CoefficientTable, n_max: int,
                      ctx: PrecisionContext) -> CoefficientTable:
    """eta_0 .. eta_n_max as the coefficients of -A'(s)/A(s) where
    A(s) = 1 + sum gamma_n s^(n+1).

    Built entirely from truncated-series arithmetic on coefficient
    tuples, so it shares no code path with the recurrence or the
    partition sum.  Like the recurrence, it claims no more bits than g.
    """
    _require(g, "gamma", n_max)
    order = n_max + 1
    a = (mp.mpf(1),) + g.values[:order]
    da = series_derivative(a, ctx)                      # order n_max
    inv = series_recip(a, ctx)                          # order n_max + 1
    quot = series_mul(da, inv[:order], ctx)
    with ctx.workprec():
        values = tuple(-c for c in quot)
    return CoefficientTable("eta", "series_oracle", values,
                            min(ctx.working_bits, g.precision_bits))


def eta_contour(n_max: int, ctx: PrecisionContext) -> CoefficientTable:
    """eta_0 .. eta_n_max as eta_k = -(k+1) [s^(k+1)] log(s zeta(1+s)), by
    :func:`~zetali.numerics.cauchy_coefficients`; accurate to rounding at
    working precision.

    The log is analytic on |s| < 3 (zeta(1+s) vanishes at s = -3); on
    |s| = 1, Re(s zeta(1+s)) >= 1/2 keeps the principal log on that branch.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    c = cauchy_coefficients(lambda s: mp.log(s * mp.zeta(1 + s)), n_max + 1, ctx)
    with ctx.workprec():
        values = tuple(-(k + 1) * c[k + 1] for k in range(n_max + 1))
    return CoefficientTable("eta", "contour", values, ctx.working_bits)


# --------------------------------------------------------------------------
# Exact symbolic expansions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolicExpansion:
    """One coefficient expanded exactly as a polynomial in lower-level
    coefficients.

    ``terms`` maps a monomial's exponent vector (k_0, ..., k_n) to its
    exact rational coefficient, in canonical enumeration order.
    """

    target: str  # "eta" | "gamma" | "lambda_tilde"
    n: int
    terms: dict[tuple[int, ...], Fraction]

    def to_json_obj(self) -> dict:
        return {
            "target": self.target,
            "n": self.n,
            "terms": [
                {"k": list(k), "coeff": rational_to_str(c)}
                for k, c in self.terms.items()
            ],
        }


def _expand(target: str, n: int, weights, entry,
            least: int | None = None) -> SymbolicExpansion:
    """The exact expansion of one partition sum over every r in
    ``[least, n]`` (``least`` defaults to n): the monomial of a vector
    partitioning r into p parts, padded to length n + 1, gets the
    coefficient ``weights[r][p] / prod_j entry(j, k_j)``, its sign held
    in the integer weight.  Monomials come r ascending, each r in
    canonical order."""
    if n < 1:
        raise ValueError("n must be positive")
    # the ring of (denominator, parts) pairs: denominators multiply and
    # parts join, so each product carries the parts of its partition
    rows = _power_rows(n, lambda j, c: (entry(j, c), ((j, c),)))
    walk = _walk_partitions(n, rows, least, lambda x, y: (x[0] * y[0], x[1] + y[1]), (1, ()))
    by_r: list[list[tuple]] = [[] for _ in range(n + 1)]
    for r, p, (denom, parts) in walk:
        by_r[r].append((_dense(parts, n + 1), Fraction(weights[r][p], denom)))
    return SymbolicExpansion(target, n, dict(itertools.chain.from_iterable(by_r)))


def expand_eta_symbolic(n: int) -> SymbolicExpansion:
    """eta_{n-1} as an exact polynomial in gamma_0 .. gamma_{n-1}.

    The coefficient of the monomial with multiplicities k is the integer
    (-1)^p * n * (p-1)! / prod k_i!; the term count is p(n) and every
    sign is (-1)^p.
    """
    row = [(-1) ** p * n * modified_gamma(p) for p in range(n + 1)]
    return _expand("eta", n, {n: row}, lambda j, c: math.factorial(c))


def expand_gamma_symbolic(n: int) -> SymbolicExpansion:
    """gamma_{n-1} as an exact polynomial in eta_0 .. eta_{n-1};
    coefficients are prod_i (1/k_i!) (-1/(1+i))^(k_i), and n! times any
    of them is an integer."""
    row = [(-1) ** p for p in range(n + 1)]
    return _expand("gamma", n, {n: row}, lambda j, c: math.factorial(c) * (j + 1) ** c)
