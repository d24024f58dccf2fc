"""Integer partitions in multiplicity representation.

A multiplicity vector ``(k_0, ..., k_n)`` describes a partition of

    r = sum_i (1+i) * k_i

in which the part of size ``i+1`` occurs ``k_i`` times; ``p = sum_i k_i``
is the total number of parts.  The coefficient formulas in this package
are sums indexed by exactly the vectors with ``r = n``, a set of size
``p(n)`` (the partition function) — vastly smaller than the O(n^n) box
``k_i in [0, n]`` those sums formally range over.

Every such sum runs on one walk, :func:`_walk_partitions`, which visits
the partitions of ``n`` sparsely, as ``(j, k_j)`` pairs with ``k_j > 0``:
it branches on the smallest part index ``j`` (largest first), then on
its multiplicity (smallest first), and splits the rest into larger
parts the same way (cf. the ascending-composition walks of Kelleher &
O'Sullivan, arXiv:0909.2331).  That is ascending lexicographic order on
``(k_0, k_1, ...)`` — the order the rest of the package adopts as
canonical (sums, expansions, distributions and histograms all use it).
The walk carries the running product of the caller's ``powers[j][k_j]``
over the parts fixed so far, so each added part costs one multiplication
instead of a loop over the whole vector; the table's entries set the
ring (``mpf`` for the numeric sums, ``int`` for the exact expansions).
:func:`enumerate_constrained` is the public, dense view of the walk.
"""

from __future__ import annotations

import threading
from typing import Iterator, NamedTuple, Sequence

__all__ = [
    "MultiplicityVector",
    "enumerate_constrained",
    "partition_count",
    "summatory_partition_count",
]


class MultiplicityVector(NamedTuple):
    """A tuple of part multiplicities with its derived statistics."""

    k: tuple[int, ...]
    p: int  #: total number of parts, sum k_i
    r: int  #: partitioned integer, sum (1+i) k_i

    @classmethod
    def from_multiplicities(cls, k: Sequence[int]) -> "MultiplicityVector":
        kk = tuple(k)
        return cls(kk, sum(kk), sum((i + 1) * m for i, m in enumerate(kk)))


def _walk_partitions(n: int, powers) -> Iterator[tuple]:
    """Yield ``(parts, p, product)`` for every partition of ``n`` in
    canonical order: ``parts`` holds the ``(j, k_j)`` with ``k_j > 0`` in
    ascending ``j``, ``p`` counts the parts, and ``product`` is
    ``1 * powers[j][k_j] * ...`` multiplied left to right in that order.
    """
    # Depth-first.  A frame (rem, lo, ...) splits rem into parts of size
    # > lo (rem = 0: a finished partition); children are pushed in reverse
    # canonical order so they pop in canonical order.  c parts of size s
    # must leave 0 or a rest > s, so above s = (rem-1)/2 only the parts
    # {rem} and {rem/2, rem/2} fit.
    stack = [(n, 0, (), 0, 1)]
    pop, push = stack.pop, stack.append
    while stack:
        rem, lo, parts, p, prod = pop()
        if not rem:
            yield parts, p, prod
            continue
        for size in range(lo + 1, (rem - 1) // 2 + 1):
            row = powers[size - 1]
            for c in range(rem // size, 0, -1):
                left = rem - c * size
                if left == 0 or left > size:
                    push((left, size, parts + ((size - 1, c),), p + c,
                          prod * row[c]))
        for c, size in ((2, rem // 2), (1, rem)):
            if c * size == rem and size > lo:
                push((0, size, parts + ((size - 1, c),), p + c,
                      prod * powers[size - 1][c]))


def _power_rows(n: int, entry) -> list[list]:
    """The walk's ``powers`` table for partitions of at most ``n``:
    ``rows[j][c] = entry(j, c)`` for ``j < n`` and ``c <= n // (j+1)``."""
    return [[entry(j, c) for c in range(n // (j + 1) + 1)] for j in range(n)]


def _dense(parts, length: int) -> tuple[int, ...]:
    """The multiplicity vector of ``length`` entries with these parts."""
    k = [0] * length
    for j, c in parts:
        k[j] = c
    return tuple(k)


def enumerate_constrained(n: int) -> Iterator[MultiplicityVector]:
    """Yield every multiplicity vector of length ``n + 1`` with ``r = n``,
    exactly once, in ascending lexicographic order on ``k``.

    For ``n = 0`` this is the single all-zero vector; for ``n >= 1``
    every emitted vector has ``p >= 1``.  The stream is lazy: the count
    equals ``partition_count(n)``, which at n=60 is close to a million.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    for parts, p, _ in _walk_partitions(n, _power_rows(n, lambda j, c: 1)):
        yield MultiplicityVector(_dense(parts, n + 1), p, n)


_pcount_lock = threading.Lock()
_pcount: list[int] = [1]  # p(0)


def partition_count(n: int) -> int:
    """Exact partition function p(n) via Euler's pentagonal recurrence

        p(n) = sum_{k>=1} (-1)^(k+1) [ p(n - k(3k-1)/2) + p(n - k(3k+1)/2) ].
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    with _pcount_lock:
        cache = _pcount
        while len(cache) <= n:
            m = len(cache)
            total = 0
            j = 1
            while True:
                g1 = j * (3 * j - 1) // 2
                if g1 > m:
                    break
                sign = 1 if j % 2 else -1
                total += sign * cache[m - g1]
                g2 = j * (3 * j + 1) // 2
                if g2 <= m:
                    total += sign * cache[m - g2]
                j += 1
            cache.append(total)
        return cache[n]


def summatory_partition_count(n: int) -> int:
    """``sum_{m=1}^{n} p(m)`` — the number of nonzero terms in the
    oscillation partition sum of index n."""
    if n < 1:
        raise ValueError("n must be positive")
    return sum(partition_count(m) for m in range(1, n + 1))
