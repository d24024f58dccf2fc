"""The partition sums against the formulas they implement.

The references below state each sum plainly: loop over
``enumerate_constrained`` in canonical order and take each term's
``partition_product`` at working precision.  A sum multiplies these by
their integer weights exactly, adds them with ``mp.fsum`` at ample
precision (exact here) and rounds once at working precision.  The
library gets the same products from one partition walk that carries
running prefix products as raw integer pairs rounded by mpf's rule, for
the oscillation one walk over every r <= n, and adds the weighted
products exactly in integers, so its results must be identical to
these, not merely close.  ``term_distribution`` rounds
each weighted term on its own, and its reference does the same.
"""

import math

import mpmath as mp
import pytest
from mpmath.libmp import from_man_exp

from zetali import (
    compute_gamma_table,
    enumerate_constrained,
    eta_from_gamma_explicit,
    gamma_from_eta_explicit,
    lambda_context,
    lambda_tilde_explicit,
    modified_gamma,
    term_distribution,
)
from zetali.coefficients import _signed_walk, partition_product
from zetali.partitions import _power_rows, _walk_partitions

N_MAX = 12
BENCH_N = 24  # in the band of the partition_sums benchmark workload
AMPLE_BITS = 4096  # wide enough to hold every reference sum exactly


def from_raw(pair):
    """The mpf of a raw ``(man, exp)`` pair, exactly."""
    return mp.mp.make_mpf(from_man_exp(*pair))


def rounded_once(weighted, ctx):
    """sum w * x over (int w, mpf x) pairs, exact, then rounded once."""
    with mp.workprec(AMPLE_BITS):
        total = mp.fsum(mp.fmul(w, x, exact=True) for w, x in weighted)
    with ctx.workprec():
        return +total


def reference_eta(g, n, ctx):
    with ctx.workprec():
        weighted = [(n * modified_gamma(sum(k)), partition_product(g.values, k))
                    for k in enumerate_constrained(n)]
    return rounded_once(weighted, ctx)


def reference_gamma(e, n, ctx):
    with ctx.workprec():
        scaled = [e.values[i] / (1 + i) for i in range(n)]
        weighted = [(1, partition_product(scaled, k))
                    for k in enumerate_constrained(n)]
    return rounded_once(weighted, ctx)


def reference_weighted_terms(g, n, ctx):
    with ctx.workprec():
        return [(modified_gamma(sum(k)) * math.comb(n, r) * r,
                 partition_product(g.values, k))
                for r in range(1, n + 1) for k in enumerate_constrained(r)]


def reference_terms(g, n, ctx):
    with ctx.workprec():
        return tuple(w * x for w, x in reference_weighted_terms(g, n, ctx))


def reference_lambda(g, n, ctx):
    negated = [(-w, x) for w, x in reference_weighted_terms(g, n, ctx)]
    return rounded_once(negated, ctx)


@pytest.fixture(scope="module")
def lambda_setups():
    """A gamma table and the oscillation context, for n <= N_MAX and for
    BENCH_N."""
    setups = {}
    for m in (N_MAX, BENCH_N):
        ctx = lambda_context(192, m)
        setups[m] = compute_gamma_table(m, ctx), ctx
    return setups


class TestWalk:
    def test_empty_partition(self):
        assert list(_walk_partitions(0, [])) == [(0, (), 0, 1)]

    @pytest.mark.parametrize("n", range(1, N_MAX + 1))
    def test_matches_dense_enumeration(self, n):
        walked = [(r, parts, p) for r, parts, p, _ in
                  _walk_partitions(n, _power_rows(n, lambda j, c: 1))]
        dense = [(n, tuple((j, c) for j, c in enumerate(k) if c), sum(k))
                 for k in enumerate_constrained(n)]
        assert walked == dense

    @pytest.mark.parametrize("n", range(1, N_MAX + 1))
    def test_prefix_products_equal_partition_product(self, gamma40, ctx256, n):
        walk = _signed_walk(gamma40.values, n, ctx256)
        with ctx256.workprec():
            for (_, _, _, product), k in zip(walk, enumerate_constrained(n)):
                assert from_raw(product) == partition_product(gamma40.values, k)

    def test_integer_ring(self):
        # distinct primes per (j, c), so a wrong or missing factor shows
        primes = iter([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43])
        powers = _power_rows(6, lambda j, c: next(primes) if c else None)
        for _, parts, _, product in _walk_partitions(6, powers):
            assert product == math.prod(powers[j][c] for j, c in parts)


class TestEveryRWalk:
    @pytest.mark.parametrize("n", range(1, N_MAX + 1))
    def test_each_r_matches_its_own_walk(self, gamma40, ctx256, n):
        values = gamma40.values
        items = list(_signed_walk(values, n, ctx256, least=1))
        for r in range(1, n + 1):
            assert [item for item in items if item[0] == r] == \
                list(_signed_walk(values, r, ctx256))
        assert len(items) == sum(1 for r in range(1, n + 1)
                                 for _ in enumerate_constrained(r))
        # least defaults to n: the partitions of n alone
        assert list(_signed_walk(values, n, ctx256, least=n)) == \
            list(_signed_walk(values, n, ctx256))


class TestSumsMatchReference:
    @pytest.mark.parametrize("n", [*range(1, N_MAX + 1), BENCH_N])
    def test_eta_explicit(self, gamma40, ctx256, n):
        assert eta_from_gamma_explicit(gamma40, n, ctx256) == \
            reference_eta(gamma40, n, ctx256)

    @pytest.mark.parametrize("n", range(1, N_MAX + 1))
    def test_gamma_from_eta(self, eta40, ctx256, n):
        assert gamma_from_eta_explicit(eta40, n, ctx256) == \
            reference_gamma(eta40, n, ctx256)

    @pytest.mark.parametrize("n", [*range(1, N_MAX + 1), BENCH_N])
    def test_lambda_explicit(self, lambda_setups, n):
        g, ctx = lambda_setups[max(n, N_MAX)]
        assert lambda_tilde_explicit(g, n, ctx) == reference_lambda(g, n, ctx)

    @pytest.mark.parametrize("n", [*range(1, N_MAX + 1), BENCH_N])
    def test_term_distribution(self, lambda_setups, n):
        g, ctx = lambda_setups[max(n, N_MAX)]
        assert term_distribution(g, n, ctx).term_values == \
            reference_terms(g, n, ctx)



class TestSumAccuracy:
    """Rounded once, a sum's error is its products' roundings plus one
    final rounding: within 2^-(target+8) of the same sum with 256 more
    guard bits."""

    @pytest.fixture(scope="class")
    def gamma20(self):
        return compute_gamma_table(20, lambda_context(192, 20))

    @staticmethod
    def _close(value, better, ctx):
        with ctx.with_extra_guard(256).workprec():
            assert abs(value - better) < mp.mpf(2) ** -(ctx.target_bits + 8)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_eta_explicit(self, gamma40, ctx256, n):
        self._close(eta_from_gamma_explicit(gamma40, n, ctx256),
                    eta_from_gamma_explicit(gamma40, n, ctx256.with_extra_guard(256)),
                    ctx256)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_gamma_from_eta(self, eta40, ctx256, n):
        self._close(gamma_from_eta_explicit(eta40, n, ctx256),
                    gamma_from_eta_explicit(eta40, n, ctx256.with_extra_guard(256)),
                    ctx256)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_lambda_explicit(self, gamma20, n):
        ctx = lambda_context(192, n)
        self._close(lambda_tilde_explicit(gamma20, n, ctx),
                    lambda_tilde_explicit(gamma20, n, ctx.with_extra_guard(256)),
                    ctx)
