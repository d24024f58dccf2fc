"""Stieltjes-constant tables, and the one table type for every family.

:class:`CoefficientTable` holds a table of gamma_n or of eta_n, tagged
with its kind and the route that built it.  One check,
:func:`_require`, covers every table a route reads: its kind, a
nonnegative index, and a length that reaches that index.

The values tabulated here are the coefficients gamma_n of the regular
part of the Laurent expansion of the Riemann zeta function about its
pole, in the normalization

    zeta(1 + s) = 1/s + sum_{n>=0} gamma_n s^n            (tag "paper")

which every table in memory uses.  The other common normalization, what
``mpmath.stieltjes`` returns, occurs only in table files, and
:func:`load_table` converts it as it reads them:

    gamma_classic[n] = (-1)^n * n! * gamma[n]             (tag "classic")

``compute_gamma_table`` is the production route.  It expands the
truncated Dirichlet sum plus Euler-Maclaurin tail of zeta(1+s) as a
power series in s and reads the coefficients off after removing the
1/s pole:

    zeta(1+s) = sum_{k=1}^{M-1} k^(-1-s)
              + M^(-s)/s  +  M^(-1-s)/2
              + sum_{j=1}^{J} B_2j/(2j)! * (1+s)(2+s)...(2j-1+s) * M^(-s-2j)
              + R_J

Every summand is elementary as a series in s (each k^(-1-s) is
(1/k) exp(-s log k); the rising-factorial polynomials have exact integer
coefficients), and the first omitted tail term bounds the truncation
error: the cutoff M grows with n and the target, and the tail order J
is chosen adaptively (a float search in log2 space) until that bound
drops below 2^-(target_bits + 8) for every retained coefficient.  The
Dirichlet sum, O(M n) of the work, runs in fixed-point integers with
working_bits + 32 fractional bits and is rounded once per coefficient;
its rounding error is counted, under (M^2 + 3M)/2 units of
2^-(working_bits + 32) (see ``_dirichlet_sums``).  The tail is summed
over j once, as one polynomial in s, before it is multiplied by the
series of M^(-s).  The construction is self-verifying: doubling M, J or the guard bits must
not change any digit above 2^-target_bits.

``gamma_contour`` checks the table builder from outside: it reads gamma_n
off samples of zeta(1+s) - 1/s on |s| = 1 and evaluates only ``mp.zeta``,
so it shares no code with the Euler-Maclaurin build.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import mpmath as mp
from mpmath.libmp import from_int, mpf_log, to_fixed, to_str

from .errors import PrecisionInfeasibleError, TableFormatError
from .numerics import (
    PrecisionContext,
    _require_headroom,
    bernoulli,
    cauchy_coefficients,
    decimal_digits,
    from_decimal,
    render,
)

__all__ = [
    "CoefficientTable",
    "compute_gamma_table",
    "euler_maclaurin_parameters",
    "gamma_contour",
    "render_table",
    "save_table",
    "load_table",
]

_CONVENTIONS = ("paper", "classic")
_PROVENANCES = ("euler_maclaurin", "file", "recurrence", "explicit",
                "series_oracle", "contour")
_KINDS = ("gamma", "eta")


@dataclass(frozen=True)
class CoefficientTable:
    """Immutable table of gamma_0 .. gamma_n_max or eta_0 .. eta_n_max.

    ``kind`` is ``"gamma"`` or ``"eta"``, in the paper normalization.
    ``provenance`` names the route that built the values, and
    ``precision_bits`` the precision they carry: the working precision
    of the build, or less when its input carried less.

    A table keeps two things, per working precision: the rounded value
    each per-index explicit route (eta, gamma and lambda_tilde_n) has
    formed from it, so a repeated request is a lookup, and, on a gamma
    table, each term distribution it has served, in the packed form its
    walk wrote (about bits / 8 + 9 bytes a term), up to 2 MiB of packed
    terms in all; past that it keeps no more.  The batch routes
    keep nothing.  The keys are written in :mod:`zetali.coefficients`
    only.  That store is not compared, hashed or shown, and lives
    exactly as long as the table: ``dataclasses.replace`` starts an
    empty one.
    """

    kind: str
    provenance: str
    values: tuple[mp.mpf, ...]
    precision_bits: int
    _sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.provenance not in _PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("a table needs at least its index-0 value")
        if self.precision_bits < 1:
            raise ValueError("precision_bits must be positive")

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, n: int) -> mp.mpf:
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)


def _require(table: CoefficientTable, kind: str, n_needed: int) -> None:
    """Raise ValueError unless ``table`` is a ``kind`` table reaching
    index ``n_needed`` >= 0."""
    if table.kind != kind:
        raise ValueError(f"need a table of kind {kind!r}, got kind {table.kind!r}")
    if n_needed < 0:
        raise ValueError(f"need a {kind} index of at least 0, got {n_needed}")
    if table.n_max < n_needed:
        raise ValueError(
            f"{kind} table too short: need index {n_needed}, have {table.n_max}")


# --------------------------------------------------------------------------
# Euler-Maclaurin extraction
# --------------------------------------------------------------------------

def _pochhammer_polys() -> Iterator[list[int]]:
    """Yield the integer coefficients (ascending powers) of
    prod_{i=1}^{2j-1} (s+i) for j = 1, 2, ..."""
    poly = [1, 1]  # j = 1: (s + 1)
    for j in itertools.count(1):
        yield poly
        for root in (2 * j, 2 * j + 1):
            grown = [0] * (len(poly) + 1)
            for i, a in enumerate(poly):
                grown[i] += a * root
                grown[i + 1] += a
            poly = grown


def euler_maclaurin_parameters(n_max: int, ctx: PrecisionContext,
                               cutoff: int | None = None) -> tuple[int, int]:
    """Choose the Dirichlet cutoff M and tail order J for a table build.

    M is ``cutoff`` if given (the self-verification tests pin it), else
    max(16, 2 n_max, 0.35 (target_bits + 8)), and J is the smallest tail
    order whose first omitted term contributes less than
    2^-(target_bits + 8) to every coefficient up to ``n_max`` (all
    parts of the term bounded in absolute value).  If no J reaches that
    bound at M, PrecisionInfeasibleError is raised; the adaptive M
    reached it at every target and n_max tried, up to 2,842 bits and
    n_max 1,574.  The search runs in floats in log2 space (only
    ``ctx.target_bits`` matters): the worst coefficient sums positive
    terms poly_j[m]/(2j)! * (ln M)^t/t!, each factor at most 1, so
    nothing cancels.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if cutoff is not None and cutoff < 2:
        raise ValueError(f"cutoff must be at least 2, got {cutoff}")
    target = ctx.target_bits
    m_cut = cutoff if cutoff is not None else max(
        16, 2 * n_max, (35 * (target + 8)) // 100)
    ln_m = math.log(m_cut)
    # |(-ln M)^t / t!| for the exp-series factor
    expc = [1.0]
    for t in range(1, n_max + 1):
        expc.append(expc[-1] * ln_m / t)
    prev = None
    for j, poly in zip(range(1, 8 * m_cut + 8), _pochhammer_polys()):
        fact = math.factorial(2 * j)
        scaled = [c / fact for c in poly]
        worst = max(sum(map(operator.mul, scaled, expc[n::-1]))
                    for n in range(n_max + 1))
        b = bernoulli(2 * j)
        bound = (math.log2(abs(b.numerator)) - math.log2(b.denominator)
                 - 2 * j * math.log2(m_cut) + math.log2(worst))
        if bound < -(target + 8):
            return m_cut, j - 1
        if prev is not None and bound > prev and j > 2:
            break  # asymptotic terms started growing; M too small
        prev = bound
    raise PrecisionInfeasibleError(
        f"no tail order reaches 2^-{target + 8} at cutoff {m_cut}")


def _dirichlet_sums(m_cut: int, n_max: int, w: int) -> list[int]:
    """The integers S_n ~ 2^w * sum_{k=1}^{M-1} (-ln k)^n / k, n = 0 .. n_max.

    Fixed point with w fractional bits: per k, ln k is computed to w + 16
    bits and truncated to an integer l, and the terms run from
    p = floor(2^w / k) by p <- floor(p * (-l) / 2^w).  The k = 1 term is
    exact (2^w in S_0).  Each floor division, shift and truncated log is
    off by less than one unit of 2^-w (the log's own error adds under
    2^-10 of a unit).  A unit of error made at step i of k's run reaches
    S_n / n! multiplied by at most (ln k)^(n-i) / n! <= (ln k)^(n-i) / (n-i)!,
    and the n + 1 such steps sum to at most e^(ln k) = k; the log's error
    reaches it as at most (ln k)^(n-1) / ((n-1)! k) < 1.  So every
    S_n / n! is within sum_{k=2}^{M-1} (k + 2) < (M^2 + 3M) / 2 units of
    2^-w of the exact sum (second-order terms are 2^-w smaller).
    """
    sums = [0] * (n_max + 1)
    sums[0] = 1 << w
    for k in range(2, m_cut):
        neg_l = -to_fixed(mpf_log(from_int(k), w + 16), w)
        power = (1 << w) // k
        for n in range(n_max + 1):
            sums[n] += power
            power = (power * neg_l) >> w
    return sums


def compute_gamma_table(n_max: int, ctx: PrecisionContext, *,
                        cutoff: int | None = None,
                        tail_terms: int | None = None) -> CoefficientTable:
    """Build the table gamma_0 .. gamma_n_max.

    Truncation error is below 2^-(target_bits + 8) per coefficient by
    construction.  The Dirichlet sum runs in integers at w =
    working_bits + 32 fractional bits: its rounding error is under
    (M^2 + 3M)/2 units of 2^-w (M <= 800 keeps that below
    2^-(working_bits + 12)), and one rounding at working precision per
    coefficient ends it.  The M^(-s) series and the tail add one
    working-precision rounding per term, and a guard too small for
    sums of M + 2J + n terms raises PrecisionInfeasibleError, by the
    headroom rule the contour routes share
    (:func:`~zetali.numerics._require_headroom`).  ``cutoff`` (at least
    2) and ``tail_terms`` (at least 0) override the adaptive M and J for
    stability self-tests.  The tail is folded into one polynomial before
    it meets the exp series, so the build costs O(Mn) integer steps plus
    O(n + J^2 + nJ) mpf operations.
    """
    if tail_terms is not None and tail_terms < 0:
        raise ValueError(f"tail_terms must be nonnegative, got {tail_terms}")
    m_cut, tail = euler_maclaurin_parameters(n_max, ctx, cutoff=cutoff)
    if tail_terms is not None:
        tail = tail_terms
    # the coefficient sums accumulate one rounding per term
    _require_headroom(ctx, m_cut + 2 * tail + n_max, "term")
    w = ctx.working_bits + 32
    sums = _dirichlet_sums(m_cut, n_max, w)
    with ctx.workprec():
        ln_m = mp.log(m_cut)
        inv_fact = [mp.mpf(1) / mp.factorial(t) for t in range(n_max + 2)]
        # S_n / (n! 2^w), a quotient of exact integers rounded once
        coef = [mp.fdiv(s_n, math.factorial(n) << w) for n, s_n in enumerate(sums)]
        # M^(-s)/s with the 1/s pole removed, whose coefficient of s^n is
        # (-ln M)^(n+1) / (n+1)!, then M^(-1-s)/2
        pole, half = -ln_m, mp.mpf(1) / (2 * m_cut)
        for n in range(n_max + 1):
            coef[n] += pole * inv_fact[n + 1]
            coef[n] += half * inv_fact[n]
            pole *= -ln_m
            half *= -ln_m
        # Euler-Maclaurin tail folded to T[m] = sum_j pref_j * poly_j[m]
        folded = [mp.mpf(0) for _ in range(min(2 * tail, n_max + 1))]
        for j, poly in zip(range(1, tail + 1), _pochhammer_polys()):
            b = bernoulli(2 * j)
            pref = (mp.mpf(b.numerator) / b.denominator
                    / mp.factorial(2 * j) * mp.mpf(m_cut) ** (-2 * j))
            for m in range(min(len(poly), len(folded))):
                folded[m] += pref * poly[m]
        expc = [(-ln_m) ** t * inv_fact[t] for t in range(n_max + 1)]
        for n in range(n_max + 1):
            acc = mp.mpf(0)
            for m in range(min(n + 1, len(folded))):
                acc += folded[m] * expc[n - m]
            coef[n] += acc
    return CoefficientTable("gamma", "euler_maclaurin", tuple(coef), ctx.working_bits)


def gamma_contour(n_max: int, ctx: PrecisionContext) -> CoefficientTable:
    """gamma_0 .. gamma_n_max as the Taylor coefficients of the entire
    function zeta(1+s) - 1/s, by
    :func:`~zetali.numerics.cauchy_coefficients`; accurate to rounding at
    working precision."""
    values = cauchy_coefficients(lambda s: mp.zeta(1 + s) - 1 / s, n_max, ctx)
    return CoefficientTable("gamma", "contour", values, ctx.working_bits)


# --------------------------------------------------------------------------
# Table files
# --------------------------------------------------------------------------


def render_table(table: CoefficientTable, fmt: str = "json") -> str:
    """Serialize a gamma table to its JSON or CSV file format.

    JSON: ``{"convention": "paper", "precision_bits", "n_max", "values"}``
    with values as decimal strings.  CSV: ``# key=value`` metadata comments,
    a ``n,value`` header, one row per index.  Values carry one digit more
    than printed output, ``decimal_digits(precision_bits) + 1``, which is
    at least the ceil(bits log10 2) + 1 digits that read back as the same
    binary value (Matula), so :func:`load_table` restores every bit.  The
    file format has no kind field, so an eta table is refused.
    """
    _require(table, "gamma", 0)
    digits = decimal_digits(table.precision_bits) + 1
    obj = {"convention": "paper", "precision_bits": table.precision_bits,
           "n_max": table.n_max,
           "values": [to_str(v._mpf_, digits, strip_zeros=False) for v in table.values]}
    return render(fmt, obj, ("convention", "precision_bits"), "n,value")


def save_table(table: CoefficientTable, path) -> None:
    """Write a table file; a ``.csv`` suffix selects CSV, anything else JSON."""
    fmt = "csv" if str(path).endswith(".csv") else "json"
    Path(path).write_text(render_table(table, fmt), encoding="utf-8")


def _metadata_int(name: str, value) -> int:
    """An integer field: a JSON integer, or a decimal-integer string as a
    CSV comment gives it; floats, booleans and the rest are refused."""
    if type(value) is int:
        return value
    if isinstance(value, str) and re.fullmatch(r"\s*[+-]?[0-9]+\s*", value):
        return int(value)
    raise TableFormatError(f"bad table metadata: {name} must be an integer, "
                           f"got {value!r}")


def _table_from_parts(meta: dict) -> CoefficientTable:
    """The table a file's four keys give; they are checked here, for both formats."""
    missing = {"convention", "precision_bits", "n_max", "values"} - meta.keys()
    if missing:
        raise TableFormatError(f"missing keys: {sorted(missing)}")
    convention, raw_values = meta["convention"], meta["values"]
    if not isinstance(raw_values, list):
        raise TableFormatError("values must be a list")
    if convention not in _CONVENTIONS:
        raise TableFormatError(f"unknown convention tag {convention!r}")
    precision_bits = _metadata_int("precision_bits", meta["precision_bits"])
    n_max = _metadata_int("n_max", meta["n_max"])
    if precision_bits < 1 or n_max < 0:
        raise TableFormatError("precision_bits/n_max out of range")
    if len(raw_values) != n_max + 1:
        raise TableFormatError(
            f"entry count mismatch: n_max={n_max} but {len(raw_values)} values")
    for n, v in enumerate(raw_values):
        if not isinstance(v, str):
            raise TableFormatError(
                f"values[{n}] must be a decimal string, got {v!r}")
    try:
        values = tuple(from_decimal(v, precision_bits) for v in raw_values)
    except (ValueError, TypeError) as exc:
        raise TableFormatError(f"bad value string: {exc}") from exc
    for n, v in enumerate(values):
        if not mp.isfinite(v):
            raise TableFormatError(f"non-finite value {raw_values[n]!r} at index {n}")
    if convention == "classic":
        # paper[n] = classic[n] / ((-1)^n n!), one rounding at the file's
        # precision (round to nearest is symmetric, so the sign is exact)
        with mp.workprec(precision_bits):
            values = tuple(v / ((-1) ** n * math.factorial(n))
                           for n, v in enumerate(values))
    return CoefficientTable("gamma", "file", values, precision_bits)


def load_table(path) -> CoefficientTable:
    """Read a table file written by :func:`save_table` (format sniffed
    from the content, so extensions do not matter on input).  A file
    tagged ``classic`` is converted to the paper normalization."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TableFormatError(f"not valid JSON: {exc}") from exc
        return _table_from_parts(obj)
    # CSV
    meta = {}
    rows = []
    header_seen = False
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                meta[key.strip()] = value.strip()
            continue
        if not header_seen:
            if line != "n,value":
                raise TableFormatError(f"expected 'n,value' header, got {line!r}")
            header_seen = True
            continue
        idx, sep, value = line.partition(",")
        if not sep:
            raise TableFormatError(f"bad row {line!r}")
        rows.append((idx, value))
    if not header_seen:
        raise TableFormatError("no 'n,value' header found")
    for want, (idx, _) in enumerate(rows):
        try:
            got = int(idx)
        except ValueError as exc:
            raise TableFormatError(f"bad index {idx!r}") from exc
        if got != want:
            raise TableFormatError(f"rows out of order: expected {want}, got {got}")
    return _table_from_parts({**meta, "n_max": len(rows) - 1,
                              "values": [v for _, v in rows]})
