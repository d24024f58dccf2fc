"""Cross-method verification suite.

Every quantity in this package is computable by at least two independent
routes; this module recomputes each one every way, once, and reports as
data (the CLI renders it one machine-readable line per check) the worst
relative discrepancy (:func:`_worst`) or, for an exact law, the count of
failing cases, next to its threshold.  A check passes iff its
discrepancy is strictly below its threshold.

The low-order expansions are also pinned against exact integer/rational
fixtures (the classical first lines of the eta, gamma and oscillation
expansions), so a sign or weight regression cannot hide inside a
floating-point tolerance.

The whole suite is deterministic: fixed evaluation order, fixed
precision contexts derived from ``target_bits`` (the oscillation rows at
``li``'s), no randomness — two runs produce identical bytes.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

from .coefficients import (
    eta_explicit_table,
    eta_from_gamma_recurrence,
    eta_series_oracle,
    expand_eta_symbolic,
    expand_gamma_symbolic,
    gamma_explicit_table,
)
from .li import (
    expand_lambda_symbolic,
    histogram,
    lambda_context,
    lambda_tilde_binomial,
    lambda_tilde_explicit_table,
    term_distribution,
)
from .numerics import PrecisionContext, to_decimal
from .partitions import enumerate_constrained, partition_count, summatory_partition_count
from .stieltjes import compute_gamma_table, euler_maclaurin_parameters

__all__ = ["run_verification"]

F = Fraction

# Known low-order expansions, exact.  Keys are exponent vectors in
# canonical order; eta/lambda coefficients are integers, gamma rationals.
ETA_FIXTURES = {
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

GAMMA_FIXTURES = {
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

LAMBDA_FIXTURES = {
    1: {(1, 0): F(1)},
    2: {(1, 0, 0): F(2), (0, 1, 0): F(2), (2, 0, 0): F(-1)},
    3: {(1, 0, 0, 0): F(3), (0, 1, 0, 0): F(6), (2, 0, 0, 0): F(-3),
        (0, 0, 1, 0): F(3), (1, 1, 0, 0): F(-3), (3, 0, 0, 0): F(1)},
    4: {(1, 0, 0, 0, 0): F(4), (0, 1, 0, 0, 0): F(12), (2, 0, 0, 0, 0): F(-6),
        (0, 0, 1, 0, 0): F(12), (1, 1, 0, 0, 0): F(-12), (3, 0, 0, 0, 0): F(4),
        (0, 0, 0, 1, 0): F(4), (0, 2, 0, 0, 0): F(-2), (1, 0, 1, 0, 0): F(-4),
        (2, 1, 0, 0, 0): F(4), (4, 0, 0, 0, 0): F(-1)},
}


def _worst(ctx: PrecisionContext, pairs) -> mp.mpf:
    """The largest relative discrepancy over ``(reference, value)`` pairs
    (0 if none), each pair drawn and compared at ``ctx``'s precision."""
    with ctx.workprec():
        return max((abs(a - b) / max(1, abs(a)) for a, b in pairs), default=mp.mpf(0))


def _result(name, scope, disc, threshold) -> dict:
    """One report row; the check passes iff ``disc < threshold``."""
    return {"name": name, "scope": scope,
            "max_discrepancy": to_decimal(disc, 64),
            "threshold": to_decimal(threshold, 64),
            "status": "pass" if disc < threshold else "fail"}


def run_verification(n_max: int, target_bits: int) -> list[dict]:
    """Run the full cross-method suite up to index ``n_max`` and return
    the rows ``zetali verify`` prints, one dict per check: ``name``,
    ``scope``, ``max_discrepancy`` and ``threshold`` (decimal strings)
    and ``status`` (``"pass"`` or ``"fail"``).

    ``target_bits`` must be at least 128: the fixed tolerances below are
    calibrated for a 64-bit guard on top of that.  The oscillation rows
    run at the one context ``li`` uses for every index up to ``n_max``,
    ``lambda_context(target_bits, n_max)``, tables and sums alike.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if target_bits < 128:
        raise ValueError("verification needs target_bits >= 128")
    ctx = PrecisionContext(target_bits, 64)
    checks: list[dict] = []

    # -- combinatorial law ----------------------------------------------
    bad = sum(sum(1 for _ in enumerate_constrained(n)) != partition_count(n)
              for n in range(n_max + 1))
    checks.append(_result("partition_count_law", f"n<={n_max}", bad, 1))

    # -- eta three ways ---------------------------------------------------
    gam = compute_gamma_table(n_max, ctx)
    eta = eta_from_gamma_recurrence(gam, n_max, ctx)
    tol = mp.mpf(2) ** -128
    # each explicit row walks its table once, as the CLI does
    worst = _worst(ctx, zip(eta.values, eta_explicit_table(gam, n_max, ctx).values))
    checks.append(_result("eta_explicit_vs_recurrence", f"n<={n_max}", worst, tol))
    worst = _worst(ctx, zip(eta.values, eta_series_oracle(gam, n_max, ctx).values))
    checks.append(_result("eta_series_vs_recurrence", f"n<={n_max}", worst, tol))

    # -- gamma -> eta -> gamma round trip --------------------------------
    worst = _worst(ctx, zip(gam.values, gamma_explicit_table(eta, n_max, ctx).values))
    checks.append(_result("gamma_eta_roundtrip", f"n<={n_max}",
                          worst, mp.mpf(2) ** -100))

    # -- oscillation two ways, at li's context ----------------------------
    ctx_big = lambda_context(target_bits, n_max)
    gam_big = compute_gamma_table(n_max - 1, ctx_big)
    eta_big = eta_from_gamma_recurrence(gam_big, n_max - 1, ctx_big)
    # each binomial value serves this check and the distribution sums
    lam = {n: lambda_tilde_binomial(eta_big, n, ctx_big) for n in range(1, n_max + 1)}
    worst = _worst(ctx_big, zip(lam.values(),
                                lambda_tilde_explicit_table(gam_big, n_max, ctx_big)))
    checks.append(_result("lambda_binomial_vs_explicit", f"n<={n_max}",
                          worst, mp.mpf(2) ** -80))

    # -- table stability under parameter doubling -------------------------
    # gam itself against its doubled M and doubled guard, on gamma_0..n_stab
    n_stab = min(n_max, 16)
    m_cut, _ = euler_maclaurin_parameters(n_max, ctx)
    double_m = compute_gamma_table(n_stab, ctx, cutoff=2 * m_cut)
    double_g = compute_gamma_table(n_stab, PrecisionContext(ctx.target_bits, 2 * ctx.guard_bits))
    with mp.workprec(ctx.working_bits + ctx.guard_bits):
        worst = max(abs(a - b) for other in (double_m, double_g)
                    for a, b in zip(gam.values, other.values))
    checks.append(_result("gamma_table_stability", f"n<={n_stab}",
                          worst, mp.mpf(2) ** -target_bits))

    # -- exact symbolic fixtures ------------------------------------------
    bad = sum(expand(n).terms != want
              for expand, fixtures in ((expand_eta_symbolic, ETA_FIXTURES),
                                       (expand_gamma_symbolic, GAMMA_FIXTURES),
                                       (expand_lambda_symbolic, LAMBDA_FIXTURES))
              for n, want in fixtures.items())
    checks.append(_result("symbolic_fixtures", "eta/gamma n<=5; lambda n<=4",
                          bad, 1))

    # -- sign and term-count laws -----------------------------------------
    # per index: a wrong term count, and any non-integer or mis-signed term
    n_sign = min(n_max, 25)
    bad = sum((len(exp.terms) != partition_count(exp.n))
              + any(coeff.denominator != 1 or (coeff > 0) == bool(sum(k) % 2)
                    for k, coeff in exp.terms.items())
              for exp in map(expand_eta_symbolic, range(1, n_sign + 1)))
    checks.append(_result("eta_sign_and_term_count", f"n<={n_sign}", bad, 1))

    n_cnt = min(n_max, 15)
    bad = sum(len(expand_lambda_symbolic(n).terms) != summatory_partition_count(n)
              for n in range(1, n_cnt + 1))
    checks.append(_result("lambda_term_count", f"n<={n_cnt}", bad, 1))

    # -- term distributions: sums and zero-centered mode ------------------
    n_hi = min(n_max, 10)
    if n_hi >= 3:
        dists = {n: term_distribution(gam_big, n, ctx_big) for n in range(3, n_hi + 1)}
        # minus the plain left-to-right sum (not mp.fsum), the summation
        # the tolerance allows for, drawn at ctx_big's precision by _worst
        worst = _worst(ctx_big, ((lam[n], -sum(d.term_values, mp.mpf(0)))
                                 for n, d in dists.items()))
        tightest = min(mp.mpf(2) ** -(ctx_big.working_bits - 10 * n) for n in dists)
        checks.append(_result("distribution_sum", f"3<=n<={n_hi}",
                              worst, tightest))
        # zero's bin is the last one when zero lies at or beyond its edge
        hists = [histogram(d, 9, ctx_big) for d in dists.values()]
        bad = sum(next((c for lo, hi, c in rows if lo <= 0 < hi), rows[-1][2])
                  != max(c for _, _, c in rows) for rows in hists)
        checks.append(_result("histogram_zero_bin_modal",
                              f"3<=n<={n_hi}; bins=9", bad, 1))

    return checks
