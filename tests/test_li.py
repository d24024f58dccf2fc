import bisect
import itertools
import json
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from zetali import (
    PrecisionContext,
    PrecisionInfeasibleError,
    compute_gamma_table,
    eta_from_gamma_recurrence,
    expand_eta_symbolic,
    expand_lambda_symbolic,
    from_decimal,
    histogram,
    lambda_context,
    lambda_tilde_binomial,
    lambda_tilde_explicit,
    lambda_trend,
    summatory_partition_count,
    term_distribution,
    to_decimal,
    trend_constant,
)
import zetali.li
from zetali.cli import main
from zetali.li import TermDistribution
from zetali.numerics import to_raw
from helpers import LAMBDA_EXPANSIONS, TREND_C_REF, poly_add, poly_normalize, poly_scale, rel_diff


class TestBinomialRoute:
    def test_n1_is_gamma0(self, gamma40, eta40, ctx256):
        assert lambda_tilde_binomial(eta40, 1, ctx256) == gamma40[0]

    def test_n2_fixture(self, gamma40, eta40, ctx256):
        with ctx256.workprec():
            g0, g1 = gamma40[0], gamma40[1]
            want = 2 * g0 - g0 ** 2 + 2 * g1
            got = lambda_tilde_binomial(eta40, 2, ctx256)
            assert abs(got - want) < mp.mpf(2) ** -(ctx256.working_bits - 16)

    def test_table_too_short(self, eta40, ctx256):
        with pytest.raises(ValueError) as err:
            lambda_tilde_binomial(eta40, 42, ctx256)
        assert str(err.value) == "eta table too short: need index 41, have 40"

    def test_exact_sum_rounded_once(self, eta40, ctx256):
        def exact(x):
            sign, man, exp, _ = x._mpf_
            return Fraction(-man if sign else man) * Fraction(2) ** exp

        for n in range(1, 41):
            want = -sum(math.comb(n, j) * exact(eta40[j - 1]) for j in range(1, n + 1))
            assert lambda_tilde_binomial(eta40, n, ctx256) == mp.fdiv(
                want.numerator, want.denominator, prec=ctx256.working_bits), n

    def test_sentinel_fires_without_guard(self):
        bare = PrecisionContext(192, 0)
        table_ctx = PrecisionContext(192, 64)
        gamma = compute_gamma_table(19, table_ctx)
        eta = eta_from_gamma_recurrence(gamma, 19, bare)
        with pytest.raises(PrecisionInfeasibleError):
            lambda_tilde_binomial(eta, 20, bare)

    def test_sentinel_quiet_under_policy(self):
        ctx = lambda_context(192, 20)
        gamma = compute_gamma_table(19, ctx)
        eta = eta_from_gamma_recurrence(gamma, 19, ctx)
        lambda_tilde_binomial(eta, 20, ctx)  # must not raise


class TestExplicitRoute:
    def test_n1(self, gamma40, ctx256):
        got = lambda_tilde_explicit(gamma40, 1, ctx256)
        assert got == gamma40[0]

    def test_n3_fixture(self, gamma40, ctx256):
        with ctx256.workprec():
            g0, g1, g2 = gamma40[0], gamma40[1], gamma40[2]
            want = (3 * g0 - 3 * g0 ** 2 + g0 ** 3
                    + 6 * g1 - 3 * g0 * g1 + 3 * g2)
            got = lambda_tilde_explicit(gamma40, 3, ctx256)
            assert abs(got - want) < mp.mpf(2) ** -(ctx256.working_bits - 32)

    def test_cross_method_under_guard_policy(self):
        for n in (1, 4, 8, 12):
            ctx = lambda_context(192, n)
            gamma = compute_gamma_table(max(0, n - 1), ctx)
            eta = eta_from_gamma_recurrence(gamma, max(0, n - 1), ctx)
            a = lambda_tilde_binomial(eta, n, ctx)
            b = lambda_tilde_explicit(gamma, n, ctx)
            with ctx.workprec():
                # far below the acceptance bar of 2^-80
                assert rel_diff(a, b) < mp.mpf(2) ** -128, n

    def test_table_too_short(self, gamma40, ctx256):
        for route in (lambda_tilde_explicit, term_distribution):
            with pytest.raises(ValueError) as err:
                route(gamma40, 42, ctx256)
            assert str(err.value) == "gamma table too short: need index 41, have 40"


class TestSymbolicLambda:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_published_lines(self, n):
        assert expand_lambda_symbolic(n).terms == LAMBDA_EXPANSIONS[n]

    def test_term_counts(self):
        assert len(expand_lambda_symbolic(10).terms) == 138
        for n in range(1, 16):
            assert len(expand_lambda_symbolic(n).terms) == \
                summatory_partition_count(n)

    def test_coefficients_are_integers(self):
        for n in range(1, 16):
            for coeff in expand_lambda_symbolic(n).terms.values():
                assert coeff.denominator == 1

    def test_equals_binomial_transform_of_eta_expansions(self):
        # lambda_tilde_n = -sum_j C(n,j) eta_{j-1}, composed symbolically
        for n in range(1, 9):
            acc = {}
            for j in range(1, n + 1):
                inner = poly_normalize(expand_eta_symbolic(j).terms)
                acc = poly_add(acc, poly_scale(inner, Fraction(-math.comb(n, j))))
            assert acc == poly_normalize(expand_lambda_symbolic(n).terms), n


class TestTrend:
    def test_constant_fixture(self, gamma40, ctx256):
        ref = from_decimal(TREND_C_REF, 200)
        with ctx256.workprec():
            assert abs(trend_constant(gamma40[0], ctx256) - ref) < mp.mpf(10) ** -45

    def test_independent_evaluation(self, gamma40, ctx256):
        # same expression from mpmath's own Euler constant at higher precision
        with mp.workprec(400):
            ref = (mp.euler - 1 - mp.log(2 * mp.pi)) / 2
        with ctx256.workprec():
            assert abs(trend_constant(gamma40[0], ctx256) - ref) < mp.mpf(10) ** -45

    def test_n1_is_half_plus_c(self, gamma40, ctx256):
        c = trend_constant(gamma40[0], ctx256)
        with ctx256.workprec():
            want = (1 + 1 * mp.log(1)) / 2 + c * 1
        assert lambda_trend(1, gamma40[0], ctx256) == want

    def test_eventual_growth(self, gamma40, ctx256):
        g0 = gamma40[0]
        assert lambda_trend(128, g0, ctx256) > lambda_trend(64, g0, ctx256)

    def test_validation(self, gamma40, ctx256):
        with pytest.raises(ValueError):
            lambda_trend(0, gamma40[0], ctx256)


class TestTermDistribution:
    def test_n1_single_term(self, gamma40, ctx256):
        dist = term_distribution(gamma40, 1, ctx256)
        assert len(dist) == 1
        with ctx256.workprec():
            assert dist.term_values[0] == -gamma40[0]

    def test_lengths(self, gamma40, ctx256):
        for n in range(3, 13):
            dist = term_distribution(gamma40, n, ctx256)
            assert len(dist) == summatory_partition_count(n)

    def test_first_and_last_terms(self, gamma40, ctx256):
        # canonical order: the r=1 vector comes first (value -n*gamma0),
        # the all-ones-parts vector (n,0,...,0) last (value (-gamma0)^n)
        n = 7
        dist = term_distribution(gamma40, n, ctx256)
        with ctx256.workprec():
            tol = mp.mpf(2) ** -(ctx256.working_bits - 32)
            assert abs(dist.term_values[0] + n * gamma40[0]) < tol
            assert abs(dist.term_values[-1] - (-gamma40[0]) ** n) < tol

    def test_negated_sum_is_lambda(self, gamma40, eta40, ctx256):
        for n in range(3, 11):
            dist = term_distribution(gamma40, n, ctx256)
            lam = lambda_tilde_binomial(eta40, n, ctx256)
            with ctx256.workprec():
                total = mp.mpf(0)
                for t in dist.term_values:
                    total += t
                tol = mp.mpf(2) ** -(ctx256.working_bits - 10 * n)
                assert rel_diff(lam, -total) < tol, n


class TestHistogram:
    def _dist(self, values, ctx):
        with ctx.workprec():
            return TermDistribution(1, tuple(mp.mpf(v) for v in values))

    def test_single_value_single_bin(self, ctx256):
        rows = histogram(self._dist([2.5], ctx256), 1, ctx256)
        assert len(rows) == 1
        assert rows[0][2] == 1

    def test_boundary_goes_up(self, ctx256):
        rows = histogram(self._dist([0, 1, 2], ctx256), 2, ctx256)
        assert [r[2] for r in rows] == [1, 2]

    def test_max_in_last_bin(self, ctx256):
        rows = histogram(self._dist([0, 1, 2, 3], ctx256), 2, ctx256)
        assert [r[2] for r in rows] == [2, 2]

    def test_identical_values_fall_in_last_bin(self, ctx256):
        rows = histogram(self._dist([1, 1, 1], ctx256), 3, ctx256)
        assert [r[2] for r in rows] == [0, 0, 3]

    def test_counts_conserved(self, gamma40, ctx256):
        dist = term_distribution(gamma40, 10, ctx256)
        for bins in (1, 7, 40):
            rows = histogram(dist, bins, ctx256)
            assert sum(r[2] for r in rows) == 138
            assert len(rows) == bins

    def test_zero_bin_is_modal_for_figure_range(self, gamma40, ctx256):
        for n in range(3, 11):
            dist = term_distribution(gamma40, n, ctx256)
            rows = histogram(dist, 9, ctx256)
            zero = next((c for lo, hi, c in rows if lo <= 0 < hi), rows[-1][2])
            assert zero == max(c for _, _, c in rows), n

    @pytest.mark.parametrize("bins,i", [(5, 3), (9, 7), (12, 7)])
    def test_exact_boundary_goes_up(self, bins, i):
        # v = lo + i*width exactly, in 257, 256 and 258 bits; rounding
        # (v - lo)/width in mpf put it in bin i - 1 at (9, 7) and (12, 7).
        # Row i's returned lower bound, lo + i*width rounded, sits just
        # below v; placing values by the exact boundary put it in bin i - 1.
        ctx = PrecisionContext(256, 0)
        with ctx.workprec():
            lo, hi = mp.mpf(-4.125), mp.mpf(9.875)
            width = (hi - lo) / bins
            v = mp.fadd(lo, mp.fmul(i, width, exact=True), exact=True)

        def rows(values):
            return histogram(TermDistribution(1, values), bins, ctx)

        def counts(values):
            return [c for _, _, c in rows(values)]

        bound = rows((lo, hi))[i][0]
        up = [1] + [0] * (i - 1) + [1] + [0] * (bins - i - 2) + [1]
        for x in (v, bound):
            assert counts((lo, x, hi)) == up
            assert counts((x,) * 4) == [0] * (bins - 1) + [4]

    @staticmethod
    def _assert_rows_contain(rows, values):
        # placement is monotone in the value, so the rows count the
        # sorted values in runs, row by row
        values = sorted(values)
        assert sum(c for _, _, c in rows) == len(values)
        it = iter(values)
        for lower, upper, count in rows:
            for v in itertools.islice(it, count):
                assert lower <= v <= upper
        assert rows[0][0] == values[0] and rows[-1][1] == values[-1]

    def test_bounds_contain_values_finer_than_working_precision(self):
        # values of 258 bits binned at 256: the rounded minimum lay
        # above the minimum it counted, and with width 0 every bound
        # did; the interior bounds stay rounded
        ctx = PrecisionContext(256, 0)
        with mp.workprec(258):
            v = mp.mpf(-43) / 24  # -33/8 + 7/3, rounded once
            spread = tuple(v + mp.mpf(k) / 3 for k in range(40))
        with ctx.workprec():
            assert +v > v  # rounded to working precision, v moves up
        for values, bins in (((v,) * 4, 12), (spread, 12), (spread, 7)):
            rows = histogram(TermDistribution(1, values), bins, ctx)
            self._assert_rows_contain(rows, values)

    def test_bounds_contain_values_at_working_precision(self, gamma40, ctx256):
        for n in (6, 10):
            dist = term_distribution(gamma40, n, ctx256)
            for bins in (1, 9, 40):
                self._assert_rows_contain(histogram(dist, bins, ctx256),
                                          dist.term_values)

    def test_rows_unchanged_at_default_precision(self):
        # no term here lies within rounding of a boundary, so binning by
        # floor((v - lo)/width) in mpf arithmetic gives the same rows
        for n in range(12, 25):
            ctx = lambda_context(192, n)
            dist = term_distribution(compute_gamma_table(n - 1, ctx), n, ctx)
            for bins in (7, 9, 20, 40):
                rows = histogram(dist, bins, ctx)
                with ctx.workprec():
                    lo, hi = rows[0][0], rows[-1][1]
                    width = (hi - lo) / bins
                    counts = [0] * bins
                    for v in dist.term_values:
                        counts[min(int(mp.floor((v - lo) / width)), bins - 1)] += 1
                assert [c for _, _, c in rows] == counts, (n, bins)

    def test_one_conversion_per_value(self, gamma40, ctx256, monkeypatch):
        # each value's _mpf_ is read once, without to_raw; each interior
        # bound goes through to_raw once; the extremes and the bins
        # reuse those integers
        dist = term_distribution(gamma40, 10, ctx256)
        calls = []

        def counted(x):
            calls.append(x)
            return to_raw(x)

        monkeypatch.setattr(zetali.li, "to_raw", counted)
        for bins in (1, 9, 40):
            calls.clear()
            histogram(dist, bins, ctx256)
            assert len(calls) == bins - 1, bins

    @pytest.mark.parametrize("bad", [mp.inf, -mp.inf, mp.nan])
    def test_non_finite_rejected(self, ctx256, bad):
        for values in ([bad], [0, 1.5, bad, -2]):
            with pytest.raises(ValueError, match="non-finite"):
                histogram(self._dist(values, ctx256), 3, ctx256)

    def test_empty_rejected(self, ctx256):
        with pytest.raises(ValueError):
            histogram(TermDistribution(1, ()), 3, ctx256)

    def test_zero_bins_rejected(self, gamma40, ctx256):
        dist = term_distribution(gamma40, 3, ctx256)
        with pytest.raises(ValueError):
            histogram(dist, 0, ctx256)


class TestHistogramExact:
    """``histogram`` rows against a reference that finds the extremes
    and places every value with exact rationals: the bounds are the ones
    the docstring defines, formed in ``mpf`` at working precision, and
    a value goes to the last row whose lower bound it reaches."""

    @staticmethod
    def exact(x):
        sign, man, exp, _ = x._mpf_
        return Fraction(-man if sign else man) * Fraction(2) ** exp

    def reference(self, values, bins, ctx):
        exact = [self.exact(v) for v in values]
        lo = values[exact.index(min(exact))]
        hi = values[exact.index(max(exact))]
        with ctx.workprec():
            width = (hi - lo) / bins
            lowers = [lo] + [lo + i * width if width else lo for i in range(1, bins)]
        edges = [self.exact(x) for x in lowers[1:]]
        counts = [0] * bins
        for f in exact:
            counts[bisect.bisect_right(edges, f)] += 1
        return [(a._mpf_, b._mpf_, c) for a, b, c in zip(lowers, lowers[1:] + [hi], counts)]

    def check(self, values, bins, ctx):
        rows = histogram(TermDistribution(1, tuple(values)), bins, ctx)
        assert [(a._mpf_, b._mpf_, c) for a, b, c in rows] == self.reference(values, bins, ctx)
        return rows

    @pytest.mark.parametrize("bins", [1, 2, 9, 40])
    def test_real_distributions(self, gamma40, ctx256, bins):
        for n in range(1, 15):
            for ctx in (ctx256, lambda_context(192, n)):
                self.check(term_distribution(gamma40, n, ctx).term_values, bins, ctx)

    @pytest.mark.parametrize("bins", [2, 9, 40])
    def test_values_on_bounds_across_exponents(self, bins):
        # values from 2^-300 to 2^200 in magnitude, both signs; then each
        # returned bound as a value, and values an ulp of 2^-40 of a
        # bound's size to either side of it, which leave the bounds as
        # they were
        ctx = PrecisionContext(128, 0)
        rng = random.Random(bins)
        with ctx.workprec():
            base = [mp.ldexp(rng.choice((-1, 1)) * rng.getrandbits(rng.randrange(1, 129)),
                             rng.randrange(-428, 72)) for _ in range(300)]
            base += [mp.ldexp(1, 200), -mp.ldexp(3, 150)]
        bounds = [lower for lower, _, _ in self.check(base, bins, ctx)]
        with mp.workprec(256):  # exact
            near = [b + s * mp.ldexp(abs(b), -40) for b in bounds[1:] if b for s in (-1, 1)]
        rows = self.check(base + bounds + near, bins, ctx)
        assert [lower for lower, _, _ in rows] == bounds

    @pytest.mark.parametrize("values", [
        [0, 0, 0],
        [0, 3, -5, 0.25, 7],
        [-1, -2.5, -0.125, -7, -2 ** -80],
        [-3, -3, -3],
        [2 ** 90],
        [0],
    ], ids=["zeros", "with-zero", "negative", "negative-equal", "single", "single-zero"])
    def test_small_sets(self, values):
        ctx = PrecisionContext(64, 8)
        with ctx.workprec():
            values = [mp.mpf(v) for v in values]
        for bins in (1, 2, 9, 40):
            self.check(values, bins, ctx)

    @pytest.mark.parametrize("bad", [mp.inf, -mp.inf, mp.nan])
    def test_non_finite_message(self, ctx256, bad):
        with pytest.raises(ValueError) as err:
            histogram(TermDistribution(1, (mp.mpf(0), mp.mpf(2), bad)), 9, ctx256)
        assert str(err.value) == "non-finite value"


class TestLambdaEstimate:
    """The pieces of the estimate column of ``li --with-trend``: the
    oscillation by the route ``--method`` names, and the trend from the
    gamma table's gamma_0."""

    def test_exact_decomposition(self, capsys):
        # the CLI adds trend and oscillation exactly; only printing rounds
        ctx = PrecisionContext(192, 64)
        g = compute_gamma_table(4, ctx)
        osc = lambda_tilde_explicit(g, 5, ctx)
        trend = lambda_trend(5, g[0], ctx)
        estimate = mp.fadd(trend, osc, exact=True)
        assert mp.fsub(estimate, trend, exact=True) == osc
        assert main(["li", "--method", "explicit", "--n-max", "5", "--with-trend",
                     "--guard", "64", "--format", "json"]) == 0
        row = json.loads(capsys.readouterr().out)["records"][-1]
        assert row == {"n": 5, "lambda_tilde": to_decimal(osc, 192),
                       "trend": to_decimal(trend, 192),
                       "estimate": to_decimal(estimate, 192)}

    def test_n1(self, gamma40, eta40, ctx256):
        # lambda_tilde_1 = -eta_0 = gamma_0 on both routes
        assert lambda_tilde_binomial(eta40, 1, ctx256) == gamma40[0]
        assert lambda_tilde_explicit(gamma40, 1, ctx256) == gamma40[0]

    def test_methods_agree(self, gamma40, eta40, ctx256):
        a = lambda_tilde_binomial(eta40, 9, ctx256)
        b = lambda_tilde_explicit(gamma40, 9, ctx256)
        with ctx256.workprec():
            assert rel_diff(a, b) < mp.mpf(2) ** -80

    def test_trend_same_from_either_table(self):
        # eta_0 = -gamma_0 exactly, as long as the negation runs at
        # working precision (mpmath's default would round it to 53 bits),
        # so reading gamma_0 off the gamma table changes no trend
        ctx = lambda_context(192, 12)
        g = compute_gamma_table(11, ctx)
        e = eta_from_gamma_recurrence(g, 11, ctx)
        with ctx.workprec():
            gamma0 = -e[0]
        assert gamma0 == g[0]
        for n in range(1, 13):
            assert lambda_trend(n, gamma0, ctx) == lambda_trend(n, g[0], ctx), n

    def test_unknown_method(self, gamma40, eta40, ctx256):
        # each route sums one kind of table and refuses the other
        with pytest.raises(ValueError, match="kind"):
            lambda_tilde_binomial(gamma40, 3, ctx256)
        with pytest.raises(ValueError, match="kind"):
            lambda_tilde_explicit(eta40, 3, ctx256)

    def test_guard_policy_values(self):
        assert lambda_context(192, 1).guard_bits == 64
        assert lambda_context(192, 20).guard_bits == 200
        assert lambda_context(192, 20).working_bits == 392
