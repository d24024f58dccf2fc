"""Acceptance suite: the package's formal exit criteria.

Each test prints one ``[acceptance] criterion N (...): PASS`` line (or
FAIL before re-raising), so a ``pytest -s tests/test_acceptance.py`` run
reads as a checklist.  Tolerances are fixed here, not configurable.
"""

import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import mpmath as mp

import zetali
from zetali import (
    PrecisionContext,
    compute_gamma_table,
    enumerate_constrained,
    eta_from_gamma_explicit,
    eta_contour,
    eta_from_gamma_recurrence,
    eta_series_oracle,
    euler_maclaurin_parameters,
    expand_eta_symbolic,
    expand_gamma_symbolic,
    expand_lambda_symbolic,
    gamma_contour,
    gamma_from_eta_explicit,
    histogram,
    lambda_context,
    lambda_tilde_binomial,
    lambda_tilde_explicit,
    lambda_trend,
    partition_count,
    summatory_partition_count,
    term_distribution,
    trend_constant,
)
from helpers import (
    ETA_EXPANSIONS,
    GAMMA_EXPANSIONS,
    LAMBDA_EXPANSIONS,
    rel_diff,
)


@contextmanager
def report(num, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({label}): PASS")


def test_criterion_1_symbolic_fixtures():
    with report(1, "symbolic fixtures"):
        for n, want in ETA_EXPANSIONS.items():
            assert expand_eta_symbolic(n).terms == want, f"eta {n}"
        for n, want in GAMMA_EXPANSIONS.items():
            assert expand_gamma_symbolic(n).terms == want, f"gamma {n}"
        for n, want in LAMBDA_EXPANSIONS.items():
            assert expand_lambda_symbolic(n).terms == want, f"lambda {n}"


def test_criterion_2_three_way_eta_agreement(gamma40, eta40, ctx256):
    with report(2, "three-way eta agreement, n<=30, rel 2^-128"):
        assert ctx256.working_bits == 256
        tol = mp.mpf(2) ** -128
        series = eta_series_oracle(gamma40, 30, ctx256)
        with ctx256.workprec():
            for n in range(31):
                explicit = eta_from_gamma_explicit(gamma40, n + 1, ctx256)
                assert rel_diff(eta40[n], explicit) < tol, n
                assert rel_diff(eta40[n], series[n]) < tol, n


def test_criterion_3_gamma_roundtrip(gamma40, eta40, ctx256):
    with report(3, "gamma -> eta -> gamma round trip, n<=30, rel 2^-100"):
        tol = mp.mpf(2) ** -100
        with ctx256.workprec():
            for n in range(31):
                back = gamma_from_eta_explicit(eta40, n + 1, ctx256)
                assert rel_diff(gamma40[n], back) < tol, n


def test_criterion_4_lambda_cross_method():
    with report(4, "lambda cross-method, n<=20, rel 2^-80, eta table precise enough"):
        tol = mp.mpf(2) ** -80
        for n in range(1, 21):
            ctx = lambda_context(192, n)
            gamma = compute_gamma_table(max(0, n - 1), ctx)
            eta = eta_from_gamma_recurrence(gamma, max(0, n - 1), ctx)
            # the binomial route raises rather than sum an eta table whose
            # rounding its weights amplify past the target
            binom = lambda_tilde_binomial(eta, n, ctx)
            explicit = lambda_tilde_explicit(gamma, n, ctx)
            with ctx.workprec():
                assert rel_diff(binom, explicit) < tol, n


def test_criterion_5_combinatorial_laws():
    with report(5, "combinatorial laws (counts, sign, term counts)"):
        for n in range(61):
            assert sum(1 for _ in enumerate_constrained(n)) == \
                partition_count(n), n
        for n in range(1, 16):
            assert len(expand_eta_symbolic(n).terms) == partition_count(n)
            assert len(expand_lambda_symbolic(n).terms) == \
                summatory_partition_count(n)
        assert len(expand_lambda_symbolic(10).terms) == 138
        for n in range(1, 26):
            for k, coeff in expand_eta_symbolic(n).terms.items():
                assert coeff.denominator == 1
                assert (coeff > 0) == (sum(k) % 2 == 0), (n, k)


def test_criterion_6_stieltjes_self_consistency(gamma40, eta40, ctx256):
    with report(6, "table stability + independent contour routes"):
        base = compute_gamma_table(16, ctx256)
        m_cut, _ = euler_maclaurin_parameters(16, ctx256)
        double_m = compute_gamma_table(16, ctx256, cutoff=2 * m_cut)
        double_g = compute_gamma_table(16, PrecisionContext(192, 128))
        with mp.workprec(400):
            for n in range(17):
                assert abs(base[n] - double_m[n]) < mp.mpf(2) ** -192, n
                assert abs(base[n] - double_g[n]) < mp.mpf(2) ** -192, n
        gamma_c = gamma_contour(20, ctx256)
        eta_c = eta_contour(20, ctx256)
        with mp.workprec(400):
            for n in range(21):
                assert abs(gamma_c[n] - gamma40[n]) < mp.mpf(2) ** -190, n
                assert abs(eta_c[n] - eta40[n]) < mp.mpf(2) ** -190, n


def test_criterion_7_trend_constant(gamma40, ctx256):
    with report(7, "trend constant to 30 digits; trend(1) = 1/2 + c"):
        c = trend_constant(gamma40[0], ctx256)
        with mp.workprec(400):
            independent = (mp.euler - 1 - mp.log(2 * mp.pi)) / 2
            assert abs(c - independent) < mp.mpf(10) ** -30
        with ctx256.workprec():
            want = (1 + 1 * mp.log(1)) / 2 + c * 1
        assert lambda_trend(1, gamma40[0], ctx256) == want


def test_criterion_8_figure_reproduction(gamma40, eta40, ctx256):
    with report(8, "term distributions sum to -lambda; zero bin modal"):
        for n in range(3, 11):
            dist = term_distribution(gamma40, n, ctx256)
            lam = lambda_tilde_binomial(eta40, n, ctx256)
            with ctx256.workprec():
                total = mp.mpf(0)
                for t in dist.term_values:
                    total += t
                tol = mp.mpf(2) ** -(ctx256.working_bits - 10 * n)
                assert rel_diff(lam, -total) < tol, n
            rows = histogram(dist, 9, ctx256)
            assert sum(c for _, _, c in rows) == len(dist)
            zero = next((c for lo, hi, c in rows if lo <= 0 < hi), rows[-1][2])
            assert zero == max(c for _, _, c in rows), n


def test_criterion_9_verify_determinism(tmp_path):
    with report(9, "byte-identical verify runs"):
        cmd = [sys.executable, "-m", "zetali", "verify",
               "--n-max", "20", "--prec", "192"]
        # the child runs the package this suite imports, installed or not
        src = str(Path(zetali.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONPATH=path)
        first = subprocess.run(cmd, capture_output=True, timeout=600, env=env)
        second = subprocess.run(cmd, capture_output=True, timeout=600, env=env)
        assert first.returncode == 0, first.stderr.decode()
        assert second.returncode == 0
        assert first.stdout == second.stdout
        rows = first.stdout.decode().strip().splitlines()[3:]
        assert rows
        for row in rows:
            name, _, discrepancy, _, status = row.split(",")
            assert status == "pass", row
            assert float(discrepancy) < 1e-38, row
