import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetali import (
    enumerate_constrained,
    partition_count,
    summatory_partition_count,
)

# p(0)..p(10), then spot values
KNOWN_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def brute_force_box(n, cap_axes=False):
    """Independent oracle: scan a box of candidate vectors, keep r == n.

    ``cap_axes=False`` scans the literal box k_i in [0, n] (only viable
    for small n); with capping each axis stops at n // (i+1), which
    discards only points with r > n.
    """
    ranges = []
    for i in range(n + 1):
        hi = (n // (i + 1)) if cap_axes else n
        ranges.append(range(hi + 1))
    out = set()
    for k in itertools.product(*ranges):
        if sum((i + 1) * v for i, v in enumerate(k)) == n:
            out.add(k)
    return out


class TestEnumeration:
    def test_n0_single_zero_vector(self):
        vecs = list(enumerate_constrained(0))
        assert vecs == [(0,)]

    def test_n1_single_vector(self):
        vecs = list(enumerate_constrained(1))
        assert len(vecs) == 1
        assert vecs[0] == (1, 0)
        assert sum(vecs[0]) == 1

    def test_n3_exact_set(self):
        assert list(enumerate_constrained(3)) == [
            (0, 0, 1, 0), (1, 1, 0, 0), (3, 0, 0, 0)]

    def test_n5_has_seven_vectors(self):
        assert sum(1 for _ in enumerate_constrained(5)) == 7

    @pytest.mark.parametrize("n", list(range(7)))
    def test_matches_full_box_scan(self, n):
        got = set(enumerate_constrained(n))
        assert got == brute_force_box(n)

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_matches_capped_box_scan(self, n):
        got = set(enumerate_constrained(n))
        assert got == brute_force_box(n, cap_axes=True)

    def test_canonical_order_is_sorted_lex(self):
        for n in (4, 9, 15):
            ks = list(enumerate_constrained(n))
            assert ks == sorted(ks)
            assert len(set(ks)) == len(ks)

    def test_two_runs_identical(self):
        a = list(enumerate_constrained(14))
        b = list(enumerate_constrained(14))
        assert a == b

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=24))
    def test_vector_statistics(self, n):
        count = 0
        for k in enumerate_constrained(n):
            count += 1
            assert len(k) == n + 1
            assert sum((i + 1) * m for i, m in enumerate(k)) == n
            if n >= 1:
                assert sum(k) >= 1
        assert count == partition_count(n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_constrained(-1))


class TestPartitionCount:
    def test_known_small(self):
        assert [partition_count(n) for n in range(11)] == KNOWN_COUNTS

    def test_known_large(self):
        assert partition_count(50) == 204226
        assert partition_count(60) == 966467
        assert partition_count(100) == 190569292

    def test_matches_enumeration_to_40(self):
        for n in range(41):
            assert sum(1 for _ in enumerate_constrained(n)) == partition_count(n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            partition_count(-3)


class TestSummatory:
    def test_small(self):
        assert summatory_partition_count(1) == 1
        assert summatory_partition_count(3) == 6
        assert summatory_partition_count(10) == 138

    def test_matches_direct_sum(self):
        for n in (2, 7, 15):
            assert summatory_partition_count(n) == sum(
                partition_count(m) for m in range(1, n + 1))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            summatory_partition_count(0)
