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
instead of a loop over the whole vector.  The ring is the table's
entries together with ``(one, mul)``: plain ``int`` with ``1`` and
``operator.mul`` for the exact expansions, and for the numeric sums raw
``(mantissa, exponent)`` pairs with ``(1, 0)`` and
:func:`~zetali.numerics.rounded_product`, which rounds each product as
``mpf`` multiplication would without creating an ``mpf`` per term.
Given a least ``r``, the same walk also visits the partitions of every
smaller ``r`` down to it, which serves the oscillation's sum over all
``r <= n`` in one pass.  :func:`enumerate_constrained` is the public,
dense view of the walk.
"""

from __future__ import annotations

import operator
from typing import Iterator

__all__ = [
    "enumerate_constrained",
    "partition_count",
    "summatory_partition_count",
]


def _walk_partitions(n: int, powers, least: int | None = None,
                     mul=operator.mul, one=1) -> Iterator[tuple]:
    """Yield ``(r, parts, p, product)`` for every partition of every
    ``r`` in ``[least, n]`` (``least`` defaults to ``n``): ``parts`` holds
    the ``(j, k_j)`` with ``k_j > 0`` in ascending ``j``, ``p`` counts the
    parts, and ``product`` is ``mul(...mul(one, powers[j][k_j])..., ...)``,
    multiplied left to right in that order.

    A partition of a smaller ``r`` is a prefix of those of larger ones, so
    each prefix product is formed once for all of them.  The items of one
    ``r`` come in canonical order; different ``r`` interleave.
    """
    # Depth-first.  A frame (rem, lo, ...) has used n - rem and splits
    # more into parts of size > lo; it is a partition of r = n - rem to
    # yield when rem <= slack.  A child of c parts of size s is kept iff
    # its rest left = rem - c*s is <= slack or > s (room for a larger
    # part).  Children are pushed in reverse canonical order so they pop
    # in canonical order.  Above s = (rem-1)/2 no rest > s fits, so only
    # {rem/2, rem/2} and single parts s >= rem - slack remain.
    slack = 0 if least is None else n - least
    stack = [(n, 0, (), 0, one)]
    pop, push = stack.pop, stack.append
    while stack:
        rem, lo, parts, p, prod = pop()
        if rem <= slack:
            yield n - rem, parts, p, prod
            if not rem:
                continue
        half = (rem - 1) // 2
        for size in range(lo + 1, half + 1):
            row = powers[size - 1]
            for c in range(rem // size, 0, -1):
                left = rem - c * size
                if left <= slack or left > size:
                    push((left, size, parts + ((size - 1, c),), p + c,
                          mul(prod, row[c])))
        if not rem % 2 and rem // 2 > lo:
            size = rem // 2
            push((0, size, parts + ((size - 1, 2),), p + 2,
                  mul(prod, powers[size - 1][2])))
        size = rem - slack
        if size <= half:
            size = half + 1
        if size <= lo:
            size = lo + 1
        while size <= rem:
            push((rem - size, size, parts + ((size - 1, 1),), p + 1,
                  mul(prod, powers[size - 1][1])))
            size += 1


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


def enumerate_constrained(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every multiplicity vector ``k`` of length ``n + 1`` with
    ``r = n``, as a tuple, exactly once, in ascending lexicographic order.

    For ``n = 0`` this is the single all-zero vector; for ``n >= 1``
    every emitted vector has ``p >= 1``.  The stream is lazy: the count
    equals ``partition_count(n)``, which at n=60 is close to a million.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    for _, parts, _, _ in _walk_partitions(n, _power_rows(n, lambda j, c: 1)):
        yield _dense(parts, n + 1)


def _partition_counts(n: int) -> list[int]:
    """``[p(0), ..., p(n)]`` by Euler's pentagonal recurrence

        p(m) = sum_{k>=1} (-1)^(k+1) [ p(m - k(3k-1)/2) + p(m - k(3k+1)/2) ].
    """
    counts = [1]
    for m in range(1, n + 1):
        total = 0
        k = 1
        while (g1 := k * (3 * k - 1) // 2) <= m:
            sign = 1 if k % 2 else -1
            total += sign * counts[m - g1]
            g2 = g1 + k  # k(3k+1)/2
            if g2 <= m:
                total += sign * counts[m - g2]
            k += 1
        counts.append(total)
    return counts


def partition_count(n: int) -> int:
    """Exact partition function p(n), by Euler's pentagonal recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _partition_counts(n)[n]


def summatory_partition_count(n: int) -> int:
    """``sum_{m=1}^{n} p(m)`` — the number of nonzero terms in the
    oscillation partition sum of index n."""
    if n < 1:
        raise ValueError("n must be positive")
    return sum(_partition_counts(n)) - 1
