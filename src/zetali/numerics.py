"""Arbitrary-precision building blocks.

Everything numeric in this package runs under an explicit
:class:`PrecisionContext`: ``target_bits`` of requested accuracy plus
``guard_bits`` of headroom that absorbs rounding and cancellation loss.
The caller always states both: no route has a default context, and the
library picks no precision of its own.
Real values are mpmath floats (``mp.mpf``), exact coefficients are
:class:`fractions.Fraction`.  All operations use
round-to-nearest and a fixed evaluation order, so identical inputs under
an identical context produce bit-identical results, call by call, within
one thread.  The working precision is mpmath's one process-wide setting,
so threads at different precisions change each other's results; run
parallel work in separate processes.

The partition sums run on raw ``(signed mantissa, exponent)`` integer
pairs instead: :func:`to_raw` turns a finite ``mpf`` into one, and
:func:`rounded_product` multiplies two of them rounded to nearest-even
by exactly mpmath's rule, on the signed mantissa, so every product is
the value ``mpf * mpf`` would give, without an ``mpf`` per product.
:func:`weighted_sum` adds integer-weighted pairs exactly and rounds once
(:func:`raw_to_mpf`), so its result does not depend on the order.
:func:`pack_raw` rounds weighted raw terms as :func:`raw_to_mpf` does
(both through :func:`round_raw`) and writes each straight into a packed
form, magnitudes in ``bytes`` and exponents and signs in an array, about
``bits / 8 + 9`` bytes a value against about 285 for an ``mpf``, so no
``mpf`` is made on the way.  :func:`unpack_mpfs` builds the ``mpf``
values in one pass, each with the ``_mpf_`` :func:`raw_to_mpf` gives,
and values that share an exponent or a bit count share its int; a term
distribution is packed so from its walk, and a table keeps it so.

:func:`render` writes every CSV and JSON output of the package.  Its JSON
is byte for byte what the stdlib's ``json.dumps`` writes with
``indent=2``, but an indent would send ``json.dumps`` through its
pure-Python encoder; here strings and keys go through the stdlib's C
string encoder, and an array of plain ints is one ``repr`` per item,
joined once.

The module also provides exact Bernoulli numbers (mpmath's ``bernfrac``
as a :class:`~fractions.Fraction`), arithmetic on truncated formal power
series, held as plain tuples of coefficients, and Taylor coefficients
read off the unit circle (:func:`cauchy_coefficients`); they back the
coefficient routes elsewhere in the package.
"""

from __future__ import annotations

import functools
import json
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import mpmath as mp
from mpmath.libmp import to_str

from .errors import PrecisionInfeasibleError

__all__ = [
    "PrecisionContext",
    "decimal_digits",
    "to_decimal",
    "render",
    "from_decimal",
    "rational_to_str",
    "bernoulli",
    "series_mul",
    "series_recip",
    "series_derivative",
    "cauchy_coefficients",
]

_make_mpf = mp.mp.make_mpf


@dataclass(frozen=True)
class PrecisionContext:
    """Precision policy for a computation.

    ``target_bits`` is the accuracy the caller wants in the result;
    ``guard_bits`` is extra working precision.  Every operation runs at
    ``working_bits = target_bits + guard_bits`` under round-to-nearest.
    """

    target_bits: int
    guard_bits: int

    def __post_init__(self):
        if self.target_bits < 1:
            raise ValueError("target_bits must be positive")
        if self.guard_bits < 0:
            raise ValueError("guard_bits must be nonnegative")

    @property
    def working_bits(self) -> int:
        return self.target_bits + self.guard_bits

    def workprec(self):
        """mpmath context manager switching to the working precision."""
        return mp.workprec(self.working_bits)


def _require_headroom(ctx: PrecisionContext, terms: int, unit: str) -> None:
    """The guard headroom rule of every N-term ``mpf`` sum: raise
    PrecisionInfeasibleError unless ``guard_bits`` is at least 8 +
    max(16, 4 + the bit length of ``terms``), which keeps the rounding
    of the sum below the 2^-(target_bits + 8) a route promises.
    ``unit`` names a term in the message."""
    needed = 8 + max(16, terms.bit_length() + 4)
    if ctx.guard_bits < needed:
        raise PrecisionInfeasibleError(f"{ctx.guard_bits} guard bits cannot hold "
                                       f"a {terms}-{unit} sum; need at least {needed}")


def decimal_digits(bits: int) -> int:
    """Significant decimal digits serializing a ``bits``-bit value.

    ceil(bits * 0.302), computed in exact integer arithmetic; slightly
    more than bits * log10(2).  Reading the digits back can move the
    value by an ulp; table files write one digit more, which cannot.
    """
    if bits < 1:
        raise ValueError("bits must be positive")
    return -((-bits * 302) // 1000)


def to_decimal(x: mp.mpf, bits: int) -> str:
    """Serialize ``x`` to a decimal string at the digit count implied by
    ``bits``.  Output grammar: optional sign, digits, optional '.',
    optional 'e'+-exponent."""
    if not isinstance(x, mp.mpf):
        # conversion rounds, so do it at the stated precision; an existing
        # mpf is formatted from its own mantissa, never re-rounded
        with mp.workprec(bits):
            x = mp.mpf(x)
    # what mp.nstr does for an mpf, without its dispatch on the type
    return to_str(x._mpf_, decimal_digits(bits), strip_zeros=False)


_encode_str = json.encoder.encode_basestring_ascii
_encode_leaf = json.JSONEncoder().encode


def _json_parts(v, pad: str, parts: list) -> None:
    """Append to ``parts`` the text the stdlib's ``json.dumps`` gives for
    ``v`` under ``indent=2``, nested at indentation ``pad``.  Dict keys
    must be strings."""
    if isinstance(v, str):
        parts.append(_encode_str(v))
    elif isinstance(v, dict) and v:
        inner = pad + "  "
        sep = "{\n" + inner
        for key, item in v.items():
            parts.append(sep + _encode_str(key) + ": ")
            _json_parts(item, inner, parts)
            sep = ",\n" + inner
        parts.append("\n" + pad + "}")
    elif isinstance(v, (list, tuple)) and v:
        inner = pad + "  "
        if set(map(type, v)) == {int}:  # not bool: it prints as true/false
            parts.append("[\n" + inner + (",\n" + inner).join(map(repr, v))
                         + "\n" + pad + "]")
        else:
            sep = "[\n" + inner
            for item in v:
                parts.append(sep)
                _json_parts(item, inner, parts)
                sep = ",\n" + inner
            parts.append("\n" + pad + "]")
    else:  # empty containers, numbers, None, booleans
        parts.append(_encode_leaf(v))


def render(fmt: str, obj: dict, meta_keys: Iterable[str], header: str) -> str:
    """Serialize an output object as JSON or as CSV.

    JSON is ``obj`` itself, indented by 2, byte for byte as the stdlib's
    ``json.dumps`` writes it with ``indent=2``.  CSV is one ``# key=value``
    line per key in ``meta_keys``, then ``header``, then one row per item
    of ``obj``'s last value: a dict item gives its values in order, any
    other item gives ``index,item``.  List cells are joined by spaces.
    """
    if fmt == "json":
        parts = []
        _json_parts(obj, "", parts)
        parts.append("\n")
        return "".join(parts)
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")

    def cell(v):
        return " ".join(map(str, v)) if isinstance(v, list) else str(v)

    lines = [f"# {k}={obj[k]}" for k in meta_keys]
    lines.append(header)
    for i, item in enumerate(list(obj.values())[-1]):
        cells = item.values() if isinstance(item, dict) else (i, item)
        lines.append(",".join(map(cell, cells)))
    return "\n".join(lines) + "\n"


def to_raw(x: mp.mpf) -> tuple[int, int]:
    """``x`` as ``(man, exp)`` with ``x = man * 2^exp``; zero is ``(0, 0)``.

    Raises ValueError for inf and nan, so a non-finite value is refused
    where it enters a raw computation.
    """
    sign, man, exp, _ = x._mpf_
    if not man:
        if exp:  # mpmath marks inf and nan by a zero mantissa
            raise ValueError("non-finite value")
        return 0, 0
    return (-man if sign else man), exp


def rounded_product(bits: int) -> Callable:
    """The product of two ``(man, exp)`` pairs, rounded to nearest-even
    at ``bits`` bits by the rule of mpmath's ``normalize``.

    The result has the value of the ``mpf`` product under
    ``workprec(bits)``; its mantissa may keep trailing zero bits (a
    carry can give ``2^bits``), which changes no later rounding.  The
    rounding works on the signed mantissa: ``>>`` floors, and on the
    floor the rule for ties to even reads the same for both signs.
    """
    def mul(x, y):
        (xm, xe), (ym, ye) = x, y
        man = xm * ym
        shift = man.bit_length() - bits
        if shift <= 0:
            return man, xe + ye
        t = man >> (shift - 1)  # the kept bits and the first dropped one
        if t & 1 and (t & 2 or man & ((1 << (shift - 1)) - 1)):
            t += 2
        return t >> 1, xe + ye + shift
    return mul


def round_raw(man: int, exp: int, bits: int) -> tuple[int, int, int]:
    """``man * 2^exp`` rounded to nearest-even at ``bits`` bits, by the
    rule of :func:`rounded_product`, as ``(sign, magnitude, exp)`` with
    an odd magnitude: the first three fields of the ``_mpf_`` that
    :func:`raw_to_mpf` gives.  Zero is ``(0, 0, 0)``."""
    sign = 0
    if man < 0:  # nearest-even rounds both signs alike
        sign, man = 1, -man
    shift = man.bit_length() - bits
    if shift > 0:
        t = man >> (shift - 1)
        if t & 1 and (t & 2 or man & ((1 << (shift - 1)) - 1)):
            t += 2
        man, exp = t >> 1, exp + shift
    if man & 1:
        return sign, man, exp
    if not man:
        return 0, 0, 0
    zeros = (man & -man).bit_length() - 1
    return sign, man >> zeros, exp + zeros


def raw_to_mpf(man: int, exp: int, bits: int) -> mp.mpf:
    """The ``mpf`` of ``man * 2^exp`` rounded to nearest-even at ``bits``
    bits (:func:`round_raw`): the value and form ``from_man_exp(man,
    exp, bits, round_nearest)`` gives."""
    sign, man, exp = round_raw(man, exp, bits)
    return _make_mpf((sign, man, exp, man.bit_length()))


def packed_size(count: int, bits: int) -> int:
    """The bytes :func:`pack_raw` gives ``count`` values of ``bits`` bits."""
    return count * (bits // 8 + 9)


def pack_raw(terms: Iterable[tuple[int, int, tuple[int, int]]], weights,
             bits: int) -> list[tuple[bytes, array]]:
    """The values ``weights[r][p] * man * 2^exp`` of ``(r, p, (man,
    exp))`` terms, each rounded at ``bits`` bits (:func:`round_raw`) and
    packed as it comes, one part per r, r ascending: a part holds the
    magnitudes of its values in one ``bytes`` buffer, ``bits // 8 + 1``
    bytes each, little-endian, and their exponents and signs, ``2 * exp
    + sign``, in an ``array('q')``, in the order of ``terms``.  That is
    :func:`packed_size`, about ``bits / 8 + 9`` bytes a value against
    about 285 for an ``mpf``; :func:`unpack_mpfs` builds the ``mpf``
    values."""
    width = bits // 8 + 1
    bufs = [bytearray() for _ in weights]
    codes = [array("q") for _ in weights]
    for r, p, (man, exp) in terms:
        sign, man, exp = round_raw(weights[r][p] * man, exp, bits)
        bufs[r] += man.to_bytes(width, "little")
        codes[r].append(exp << 1 | sign)
    return [(bytes(buf), part) for buf, part in zip(bufs, codes)]


def unpack_mpfs(parts: Iterable[tuple[bytes, array]], bits: int) -> tuple[mp.mpf, ...]:
    """The ``mpf`` values of the parts :func:`pack_raw` packed at
    ``bits``, in their order, each with the ``_mpf_`` :func:`raw_to_mpf`
    gives its pair, built in one pass; no part is read after the next
    one is taken.  Values that share an exponent, or a bit count, share
    one int object for it."""
    width = bits // 8 + 1
    shared: dict[int, int] = {}  # exponent -> its one int
    exps: dict[int, int] = {}  # code -> that int
    bit_counts = list(range(bits + 1))
    from_bytes = int.from_bytes
    values: list[mp.mpf] = []
    for buf, codes in parts:
        for code in set(codes).difference(exps):
            exps[code] = shared.setdefault(code >> 1, code >> 1)
        mans = [from_bytes(buf[i:i + width], "little") for i in range(0, len(buf), width)]
        # zero comes back as (0, 0, 0, 0), which is fzero
        values += [_make_mpf((code & 1, man, exps[code], bit_counts[man.bit_length()]))
                   for man, code in zip(mans, codes)]
    return tuple(values)


def weighted_sum(terms: Iterable[tuple[int, tuple[int, int]]], bits: int) -> mp.mpf:
    """``sum w * man * 2^exp`` over ``(int w, (man, exp))`` pairs, rounded
    once.

    Each term is formed and added exactly, as an integer on the smallest
    exponent seen so far, and only the total is rounded to ``bits`` bits
    (to nearest).  The result therefore does not depend on the order of
    the terms.  Zero terms are skipped; no terms sum to 0.  Values enter
    through :func:`to_raw`, which refuses inf and nan.
    """
    acc = at = 0  # the exact sum so far is acc * 2^at
    for w, (man, exp) in terms:
        if not man:
            continue
        if exp < at:
            acc = (acc << (at - exp)) + w * man
            at = exp
        else:
            acc += (w * man) << (exp - at)
    return raw_to_mpf(acc, at, bits)


def from_decimal(text: str, bits: int) -> mp.mpf:
    """Parse a decimal string, rounding once to ``bits`` bits."""
    with mp.workprec(bits):
        return mp.mpf(text.strip())


def rational_to_str(q: Fraction) -> str:
    """Render a rational as ``num/den`` in lowest terms, denominator
    always explicit and positive."""
    return f"{q.numerator}/{q.denominator}"


# --------------------------------------------------------------------------
# Bernoulli numbers
# --------------------------------------------------------------------------

@functools.cache
def bernoulli(m: int) -> Fraction:
    """Exact Bernoulli number B_m, from mpmath's ``bernfrac``.

    Convention: B_1 = -1/2; odd m > 1 gives exact zero (which keeps
    summation loops over even tail weights free of special cases).
    """
    if m < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    return Fraction(*mp.bernfrac(m))


# --------------------------------------------------------------------------
# Truncated formal power series
# --------------------------------------------------------------------------
#
# A series sum_{i<=N} c_i s^i truncated at order N is the tuple
# (c_0, ..., c_N) of its mpf coefficients.  Arithmetic keeps the
# truncation order and is exact modulo s^(N+1) up to rounding at the
# working precision of the supplied context.


def series_mul(a: tuple, b: tuple, ctx: PrecisionContext) -> tuple:
    """Cauchy product of two series of equal order, truncated at that order."""
    if len(a) != len(b):
        raise ValueError(
            f"truncation orders differ: {len(a) - 1} != {len(b) - 1}")
    out = []
    with ctx.workprec():
        for k in range(len(a)):
            acc = mp.mpf(0)
            for i in range(k + 1):
                acc += a[i] * b[k - i]
            out.append(acc)
    return tuple(out)


def series_recip(a: tuple, ctx: PrecisionContext) -> tuple:
    """Series b with ``a * b = 1`` modulo ``s^(N+1)``.

    Requires a nonzero constant term; coefficients follow the standard
    forward recursion b_k = -(1/a_0) * sum_{i=1..k} a_i b_{k-i}.
    """
    if a[0] == 0:
        raise ZeroDivisionError("constant term is zero")
    out = []
    with ctx.workprec():
        inv0 = mp.mpf(1) / a[0]
        out.append(inv0)
        for k in range(1, len(a)):
            acc = mp.mpf(0)
            for i in range(1, k + 1):
                acc += a[i] * out[k - i]
            out.append(-inv0 * acc)
    return tuple(out)


def series_derivative(a: tuple, ctx: PrecisionContext) -> tuple:
    """Termwise derivative, truncated at order N-1.

    The derivative of an order-0 series is the zero series of order 0.
    """
    if len(a) == 1:
        return (mp.mpf(0),)
    with ctx.workprec():
        return tuple((i + 1) * c for i, c in enumerate(a[1:]))


# --------------------------------------------------------------------------
# Cauchy coefficients
# --------------------------------------------------------------------------


def cauchy_coefficients(f: Callable, n_max: int, ctx: PrecisionContext) -> tuple:
    """Taylor coefficients c_0 .. c_n_max of ``f`` about 0, by the
    trapezoidal rule for the Cauchy integral on N points of |s| = 1.

    ``f`` maps ``mpc`` to ``mpc`` with f(conj s) = conj f(s), so only the
    upper half circle is sampled.  The rule gives c_k + c_(k+N) + ...; N
    is the smallest even number >= max(2 n_max + 4, (target_bits + 16) /
    log2 3), so for ``f`` analytic on |s| < 3 the aliased part is below
    2^-(target_bits + 16) of the size of ``f`` there.  A guard too
    small for sums of N terms raises PrecisionInfeasibleError, by the
    headroom rule the Euler-Maclaurin table shares
    (:func:`_require_headroom`).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    points = max(2 * n_max + 4, math.ceil((ctx.target_bits + 16) / math.log2(3)))
    points += points % 2
    _require_headroom(ctx, points, "point")
    with ctx.workprec():
        unit = [mp.expjpi(mp.mpf(2 * j) / points) for j in range(points)]
        samples = [f(unit[j]) for j in range(points // 2 + 1)]
        out = []
        for k in range(n_max + 1):
            # the points 1 and -1 count once, the other upper ones twice
            terms = [(v * unit[-j * k % points]).real for j, v in enumerate(samples)]
            out.append((2 * mp.fsum(terms) - terms[0] - terms[-1]) / points)
    return tuple(out)
