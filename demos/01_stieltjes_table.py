#!/usr/bin/env python3
"""Build a Stieltjes-constant table and poke at it.

Walks through the basic workflow: pick a precision context, compute the
table, compare it with an independent contour-integral route, look at
the other common normalization, and round-trip the table through a file.
"""

import math
import tempfile
from pathlib import Path

import mpmath as mp

from zetali import (
    PrecisionContext,
    compute_gamma_table,
    euler_maclaurin_parameters,
    gamma_contour,
    load_table,
    save_table,
    to_decimal,
)

ctx = PrecisionContext(target_bits=192, guard_bits=64)
N_MAX = 12

print(f"context: {ctx.target_bits} target + {ctx.guard_bits} guard "
      f"= {ctx.working_bits} working bits")
m_cut, tail = euler_maclaurin_parameters(N_MAX, ctx)
print(f"chosen internally: Dirichlet cutoff M={m_cut}, tail order J={tail}\n")

table = compute_gamma_table(N_MAX, ctx)
print(f"gamma_0 .. gamma_{N_MAX}  (zeta(1+s) = 1/s + sum gamma_n s^n):")
for n, v in enumerate(table.values):
    print(f"  gamma_{n:<2d} = {to_decimal(v, 96)}")

# An independent check: the Cauchy coefficients of the entire function
# zeta(1+s) - 1/s, read off samples on |s| = 1.  This route evaluates
# only mpmath's zeta, never the Euler-Maclaurin build above.
contour = gamma_contour(N_MAX, ctx)
with ctx.workprec():
    worst = max(abs(a - b) for a, b in zip(contour.values, table.values))
print(f"\ncontour route vs. table: largest |difference| over n <= {N_MAX} is "
      f"{to_decimal(worst, 12)}  (the table's bound: 2^-{ctx.target_bits + 8})")

# The "classic" normalization (what mpmath.stieltjes returns) multiplies
# by (-1)^n n!.  The package keeps every table in the normalization above;
# "classic" is only a tag of the table-file format, converted on load.
print("\nclassic normalization of the same table (note gamma_1's sign):")
for n in (0, 1, 2):
    classic = mp.fmul(table[n], (-1) ** n * math.factorial(n), exact=True)
    print(f"  classic gamma_{n} = {to_decimal(classic, 96)}")

# Tables round-trip through JSON (or CSV) files losslessly.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "gamma.json"
    save_table(table, path)
    again = load_table(path)
    print(f"\nsaved to {path.name} and loaded back: "
          f"values identical = {again.values == table.values}")
