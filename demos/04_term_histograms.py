#!/usr/bin/env python3
"""Where does the oscillation's smallness come from?  Term distributions.

For each n, the partition sum for lambda_tilde_n has sum_{m<=n} p(m)
nonzero terms.  Their values pile up almost symmetrically around zero,
and the tiny asymmetry is the oscillation.  This script prints ASCII
histograms for a few n and writes the raw term values of the largest one
to a CSV you can plot however you like.
"""

import csv
from pathlib import Path

import mpmath as mp

from zetali import (
    PrecisionContext,
    compute_gamma_table,
    histogram,
    summatory_partition_count,
    term_distribution,
    to_decimal,
)

ctx = PrecisionContext(192, 64)
BINS = 15
BAR = 48  # widest histogram bar, characters

gamma = compute_gamma_table(9, ctx)

for n in (4, 7, 10):
    dist = term_distribution(gamma, n, ctx)
    rows = histogram(dist, BINS, ctx)
    peak = max(c for _, _, c in rows)
    with ctx.workprec():
        total = -sum(dist.term_values, mp.mpf(0))
    print(f"\nn = {n}: {len(dist)} terms "
          f"(= sum of p(1..{n}) = {summatory_partition_count(n)}), "
          f"negated sum = lambda_tilde_{n} = {to_decimal(total, 40)}")
    for lo, hi, count in rows:
        marks = "#" * round(BAR * count / peak) if count else ""
        zero_tag = " <- 0" if lo <= 0 < hi else ""
        print(f"  [{to_decimal(lo, 14):>12s}, {to_decimal(hi, 14):>12s})"
              f" {count:>4d} {marks}{zero_tag}")

out = Path("term_values_n10.csv")
dist = term_distribution(gamma, 10, ctx)
with out.open("w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["term_index", "value"])
    for i, v in enumerate(dist.term_values):
        writer.writerow([i, to_decimal(v, ctx.target_bits)])
print(f"\nwrote raw n=10 terms to {out} ({len(dist)} rows)")
