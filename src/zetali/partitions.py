"""Integer partitions in multiplicity representation.

A multiplicity vector ``(k_0, ..., k_n)`` describes a partition of

    r = sum_i (1+i) * k_i

in which the part of size ``i+1`` occurs ``k_i`` times; ``p = sum_i k_i``
is the total number of parts.  The coefficient formulas in this package
are sums indexed by exactly the vectors with ``r = n``, a set of size
``p(n)`` (the partition function) — vastly smaller than the O(n^n) box
``k_i in [0, n]`` those sums formally range over.

Every such sum runs on one walk, :func:`_walk_partitions`.  It branches
on the smallest part index ``j`` (largest first), then on its
multiplicity (smallest first), and splits the rest into larger parts the
same way (cf. the ascending-composition walks of Kelleher & O'Sullivan,
arXiv:0909.2331): ascending lexicographic order on ``(k_0, k_1, ...)``,
the package's canonical order.  It pushes only frames with children; a
single last part and a last pair of equal parts are yielded in place.
It yields ``(r, p, product)``, carrying the product of the caller's
``powers[j][k_j]`` over the parts fixed so far, one multiplication per
added part, in any ring ``(mul, one)``.  Two rings serve the coefficient
sums, side by side in :mod:`zetali.coefficients`: raw ``(mantissa,
exponent)`` pairs under :func:`~zetali.numerics.rounded_product` for the
numeric sums, ``(denominator, parts)`` pairs for the exact ones
(``_expand``).  The parts themselves (:func:`enumerate_constrained`) are
tuples ``((j, c),)`` under ``operator.add``.  Given a least ``r``, the
walk also visits every smaller ``r`` down to it, for the oscillation's
sum over all ``r <= n``.
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
    """Yield ``(r, p, product)`` for every partition of every ``r`` in
    ``[least, n]`` (``least`` defaults to ``n``): ``p`` counts the parts
    and ``product`` is ``mul(...mul(one, powers[j][k_j])..., ...)`` over
    the ``(j, k_j)`` with ``k_j > 0``, left to right in ascending ``j``;
    ``mul`` need not commute.

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
    # single parts s >= rem - slack and {rem/2, rem/2} remain; these are
    # leaves, yielded in place in the order they would pop: singles
    # largest first, then the pair, before any pushed child.
    slack = 0 if least is None else n - least
    stack = [(n, 0, 0, one)]
    pop, push = stack.pop, stack.append
    while stack:
        rem, lo, p, prod = pop()
        if rem <= slack:
            yield n - rem, p, prod
            if not rem:
                continue
        half = (rem - 1) // 2
        for size in range(lo + 1, half + 1):
            row = powers[size - 1]
            for c in range(rem // size, 0, -1):
                left = rem - c * size
                if left <= slack or left > size:
                    push((left, size, p + c, mul(prod, row[c])))
        stop = rem - slack - 1  # singles: sizes above stop, half and lo
        if stop < half or stop < lo:
            stop = half if half > lo else lo
        for size in range(rem, stop, -1):
            yield n - rem + size, p + 1, mul(prod, powers[size - 1][1])
        if not rem % 2 and rem // 2 > lo:
            yield n, p + 2, mul(prod, powers[rem // 2 - 1][2])


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
    words = _power_rows(n, lambda j, c: ((j, c),))
    for _, _, parts in _walk_partitions(n, words, mul=operator.add, one=()):
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
