"""Shared test fixtures: frozen reference constants, the exact low-order
expansions, and small exact-polynomial helpers for composition oracles.

The decimal constants are classical published values (Euler's constant
and the first Stieltjes constant), frozen here so the tests never depend
on the code paths they check.
"""

import json
from fractions import Fraction

import mpmath as mp

# Euler's constant gamma_0, 80 digits.
GAMMA0_REF = ("0.5772156649015328606065120900824024310421593359399235988057"
              "6723488486772677766467")
# First Stieltjes constant in the classic normalization, 60 digits; the
# table's own normalization negates it.
GAMMA1_CLASSIC_REF = ("-0.07281584548367672486058637587490131913773633833433"
                      "79525990066")
# Trend constant c = (gamma_0 - 1 - log(2 pi)) / 2, 50 digits.
TREND_C_REF = "-1.1303307007539063114770736913644164243403178056678"

F = Fraction

# Exact low-order expansions (canonical key order).
ETA_EXPANSIONS = {
    1: {(1, 0): F(-1)},
    2: {(0, 1, 0): F(-2), (2, 0, 0): F(1)},
    3: {(0, 0, 1, 0): F(-3), (1, 1, 0, 0): F(3), (3, 0, 0, 0): F(-1)},
    4: {(0, 0, 0, 1, 0): F(-4), (0, 2, 0, 0, 0): F(2), (1, 0, 1, 0, 0): F(4),
        (2, 1, 0, 0, 0): F(-4), (4, 0, 0, 0, 0): F(1)},
    5: {(0, 0, 0, 0, 1, 0): F(-5), (0, 1, 1, 0, 0, 0): F(5),
        (1, 0, 0, 1, 0, 0): F(5), (1, 2, 0, 0, 0, 0): F(-5),
        (2, 0, 1, 0, 0, 0): F(-5), (3, 1, 0, 0, 0, 0): F(5),
        (5, 0, 0, 0, 0, 0): F(-1)},
}

GAMMA_EXPANSIONS = {
    1: {(1, 0): F(-1)},
    2: {(0, 1, 0): F(-1, 2), (2, 0, 0): F(1, 2)},
    3: {(0, 0, 1, 0): F(-1, 3), (1, 1, 0, 0): F(1, 2), (3, 0, 0, 0): F(-1, 6)},
    4: {(0, 0, 0, 1, 0): F(-1, 4), (0, 2, 0, 0, 0): F(1, 8),
        (1, 0, 1, 0, 0): F(1, 3), (2, 1, 0, 0, 0): F(-1, 4),
        (4, 0, 0, 0, 0): F(1, 24)},
    5: {(0, 0, 0, 0, 1, 0): F(-1, 5), (0, 1, 1, 0, 0, 0): F(1, 6),
        (1, 0, 0, 1, 0, 0): F(1, 4), (1, 2, 0, 0, 0, 0): F(-1, 8),
        (2, 0, 1, 0, 0, 0): F(-1, 6), (3, 1, 0, 0, 0, 0): F(1, 12),
        (5, 0, 0, 0, 0, 0): F(-1, 120)},
}

LAMBDA_EXPANSIONS = {
    1: {(1, 0): F(1)},
    2: {(1, 0, 0): F(2), (0, 1, 0): F(2), (2, 0, 0): F(-1)},
    3: {(1, 0, 0, 0): F(3), (0, 1, 0, 0): F(6), (2, 0, 0, 0): F(-3),
        (0, 0, 1, 0): F(3), (1, 1, 0, 0): F(-3), (3, 0, 0, 0): F(1)},
    4: {(1, 0, 0, 0, 0): F(4), (0, 1, 0, 0, 0): F(12), (2, 0, 0, 0, 0): F(-6),
        (0, 0, 1, 0, 0): F(12), (1, 1, 0, 0, 0): F(-12), (3, 0, 0, 0, 0): F(4),
        (0, 0, 0, 1, 0): F(4), (0, 2, 0, 0, 0): F(-2), (1, 0, 1, 0, 0): F(-4),
        (2, 1, 0, 0, 0): F(4), (4, 0, 0, 0, 0): F(-1)},
}


def rel_diff(a, b):
    """|a - b| / max(1, |a|) under the ambient mpmath precision."""
    return abs(a - b) / max(1, abs(a))


# ---------------------------------------------------------------------------
# Exact polynomial arithmetic on {exponent tuple: Fraction} maps, used to
# compose one symbolic expansion into another.
# ---------------------------------------------------------------------------


def _pad(key, length):
    return tuple(key) + (0,) * (length - len(key))


def poly_normalize(terms):
    """Drop zero coefficients and right-pad all keys to a common length."""
    length = max((len(k) for k in terms), default=0)
    out = {}
    for k, c in terms.items():
        if c:
            out[_pad(k, length)] = c
    return out


def poly_add(a, b):
    length = max([len(k) for k in (*a, *b)], default=0)
    out = {}
    for src in (a, b):
        for k, c in src.items():
            k = _pad(k, length)
            out[k] = out.get(k, F(0)) + c
    return poly_normalize(out)


def poly_scale(a, c):
    return poly_normalize({k: v * c for k, v in a.items()})


def poly_mul(a, b):
    length = max([len(k) for k in (*a, *b)], default=0)
    out = {}
    for ka, ca in a.items():
        ka = _pad(ka, length)
        for kb, cb in b.items():
            kb = _pad(kb, length)
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, F(0)) + ca * cb
    return poly_normalize(out)


def poly_pow(a, e):
    out = {(): F(1)}
    for _ in range(e):
        out = poly_mul(out, a)
    return out


def poly_compose(outer, inner_for_var):
    """Substitute polynomials for the variables of ``outer``.

    ``outer`` maps exponent tuples over variables x_0..x_m to rationals;
    ``inner_for_var(i)`` returns the polynomial replacing x_i.
    """
    total = {}
    for key, coeff in outer.items():
        term = {(): coeff}
        for i, e in enumerate(key):
            if e:
                term = poly_mul(term, poly_pow(inner_for_var(i), e))
        total = poly_add(total, term)
    return total


def eval_series(coefficients, x):
    """Horner evaluation of a coefficient list at x (ambient precision)."""
    acc = mp.mpf(0)
    for c in reversed(coefficients):
        acc = acc * x + c
    return acc


def classic_table_text(values, bits, fmt):
    """A classic-normalization table file, written as text without the
    package's writer: ``values`` (mpmath's ``stieltjes``) at ``bits``
    bits, in the JSON or CSV table format, tagged ``classic``."""
    digits = [mp.nstr(v, bits * 3 // 10 + 2) for v in values]
    if fmt == "json":
        return json.dumps({"convention": "classic", "precision_bits": bits,
                           "n_max": len(values) - 1, "values": digits})
    rows = "".join(f"{n},{d}\n" for n, d in enumerate(digits))
    return f"# convention=classic\n# precision_bits={bits}\nn,value\n{rows}"
