import functools

import mpmath as mp
import pytest

from zetali import (
    PrecisionContext,
    compute_gamma_table,
    eta_from_gamma_recurrence,
)


@pytest.fixture(scope="session")
def ctx256():
    """Default context: 192 target + 64 guard = 256 working bits."""
    return PrecisionContext(192, 64)


@pytest.fixture(scope="session")
def gamma40(ctx256):
    """Shared table gamma_0..gamma_40 at 256 working bits."""
    return compute_gamma_table(40, ctx256)


@pytest.fixture(scope="session")
def eta40(gamma40, ctx256):
    return eta_from_gamma_recurrence(gamma40, 40, ctx256)


@pytest.fixture(scope="session")
def em_reference():
    """``(gamma, eta)`` tables to ``n_max`` built by the Euler-Maclaurin
    route and the recurrence with 128 more target bits than
    ``target_bits``, one build per argument pair."""
    @functools.cache
    def build(n_max, target_bits):
        ctx = PrecisionContext(target_bits + 128, 64)
        gamma = compute_gamma_table(n_max, ctx)
        return gamma, eta_from_gamma_recurrence(gamma, n_max, ctx)
    return build


@pytest.fixture(scope="session")
def classic_stieltjes():
    """mpmath's Stieltjes constants gamma_0..gamma_8 in the classic
    normalization at ``bits`` bits, one computation per precision."""
    @functools.cache
    def compute(bits):
        with mp.workprec(bits):
            return tuple(mp.stieltjes(n) for n in range(9))
    return compute
