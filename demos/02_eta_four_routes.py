#!/usr/bin/env python3
"""Compute the eta coefficients four independent ways and watch them agree.

eta_n are the Laurent coefficients of -zeta'/zeta(1+s) - 1/s.  Routes:

  1. recurrence      eta_n = -(n+1) gamma_n - sum eta_k gamma_{n-k-1}
  2. explicit        partition sum with (p-1)! weights over all vectors
                     with r = n  (p(n) terms)
  3. series oracle   coefficients of -A'/A for A = 1 + sum gamma_n s^(n+1)
  4. contour         -(n+1) [s^(n+1)] log(s zeta(1+s)), read off samples
                     on |s| = 1

Routes 1-3 start from a gamma table, route 4 from zeta itself; all four
agree to nearly working precision.
"""

from zetali import (
    PrecisionContext,
    compute_gamma_table,
    eta_contour,
    eta_from_gamma_explicit,
    eta_from_gamma_recurrence,
    eta_series_oracle,
    partition_count,
    to_decimal,
)

ctx = PrecisionContext(192, 64)
N_MAX = 10

gamma = compute_gamma_table(N_MAX, ctx)
rec = eta_from_gamma_recurrence(gamma, N_MAX, ctx)
ser = eta_series_oracle(gamma, N_MAX, ctx)
con = eta_contour(N_MAX, ctx)

print("n   eta_n (recurrence)                  |explicit-rec|  |series-rec|"
      " |contour-rec|  terms")
for n in range(N_MAX + 1):
    explicit = eta_from_gamma_explicit(gamma, n + 1, ctx)
    with ctx.workprec():
        diffs = [abs(v - rec[n]) for v in (explicit, ser[n], con[n])]
    print(f"{n:<3d} {to_decimal(rec[n], 110):<36s}"
          + "".join(f"{to_decimal(d, 10):>14s}" for d in diffs)
          + f"{partition_count(n + 1):>7d}")

print("\n(the explicit route's term count is the partition function: "
      "p(11) = %d terms were summed for eta_10)" % partition_count(11))
