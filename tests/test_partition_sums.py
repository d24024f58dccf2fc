"""The partition sums against the formulas they implement.

The references below state each sum plainly: loop over
``enumerate_constrained`` in canonical order, weight ``partition_product``
by the integer factor, accumulate.  The library gets the same products
from one partition walk that carries running prefix products, so its
results must be identical to these, not merely close.
"""

import math

import mpmath as mp
import pytest

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
from zetali.coefficients import _signed_powers, partition_product
from zetali.partitions import _power_rows, _walk_partitions

N_MAX = 12


def reference_eta(g, n, ctx):
    with ctx.workprec():
        total = mp.mpf(0)
        for vec in enumerate_constrained(n):
            total += (n * modified_gamma(vec.p)) * partition_product(g.values, vec)
        return total


def reference_gamma(e, n, ctx):
    with ctx.workprec():
        scaled = [e.values[i] / (1 + i) for i in range(n)]
        total = mp.mpf(0)
        for vec in enumerate_constrained(n):
            total += partition_product(scaled, vec)
        return total


def reference_terms(g, n, ctx):
    with ctx.workprec():
        return tuple(
            modified_gamma(vec.p) * math.comb(n, r) * r * partition_product(g.values, vec)
            for r in range(1, n + 1) for vec in enumerate_constrained(r))


def reference_lambda(g, n, ctx):
    with ctx.workprec():
        total = mp.mpf(0)
        for t in reference_terms(g, n, ctx):
            total += t
        return -total


@pytest.fixture(scope="module")
def lambda_setup():
    ctx = lambda_context(192, N_MAX)
    return compute_gamma_table(N_MAX, ctx), ctx


class TestWalk:
    def test_empty_partition(self):
        assert list(_walk_partitions(0, [])) == [((), 0, 1)]

    @pytest.mark.parametrize("n", range(1, N_MAX + 1))
    def test_matches_dense_enumeration(self, n):
        walked = [(parts, p) for parts, p, _ in
                  _walk_partitions(n, _power_rows(n, lambda j, c: 1))]
        dense = [(tuple((j, c) for j, c in enumerate(v.k) if c), v.p)
                 for v in enumerate_constrained(n)]
        assert walked == dense

    @pytest.mark.parametrize("n", range(1, N_MAX + 1))
    def test_prefix_products_equal_partition_product(self, gamma40, ctx256, n):
        with ctx256.workprec():
            powers = _signed_powers(gamma40.values, n)
            for (_, _, product), vec in zip(_walk_partitions(n, powers),
                                            enumerate_constrained(n)):
                assert product == partition_product(gamma40.values, vec)

    def test_integer_ring(self):
        # distinct primes per (j, c), so a wrong or missing factor shows
        primes = iter([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43])
        powers = _power_rows(6, lambda j, c: next(primes) if c else None)
        for parts, _, product in _walk_partitions(6, powers):
            assert product == math.prod(powers[j][c] for j, c in parts)


class TestSumsMatchReference:
    @pytest.mark.parametrize("n", range(1, N_MAX + 1))
    def test_eta_explicit(self, gamma40, ctx256, n):
        assert eta_from_gamma_explicit(gamma40, n, ctx256) == \
            reference_eta(gamma40, n, ctx256)

    @pytest.mark.parametrize("n", range(1, N_MAX + 1))
    def test_gamma_from_eta(self, eta40, ctx256, n):
        assert gamma_from_eta_explicit(eta40, n, ctx256) == \
            reference_gamma(eta40, n, ctx256)

    @pytest.mark.parametrize("n", range(1, N_MAX + 1))
    def test_lambda_explicit(self, lambda_setup, n):
        g, ctx = lambda_setup
        assert lambda_tilde_explicit(g, n, ctx) == reference_lambda(g, n, ctx)

    @pytest.mark.parametrize("n", range(1, N_MAX + 1))
    def test_term_distribution(self, lambda_setup, n):
        g, ctx = lambda_setup
        assert term_distribution(g, n, ctx).term_values == \
            reference_terms(g, n, ctx)

