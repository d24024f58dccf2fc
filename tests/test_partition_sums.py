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

import dataclasses
import gc
import hashlib
import math
import operator
import random
import tracemalloc

import mpmath as mp
import pytest
from mpmath.libmp import from_man_exp

from zetali import (
    PrecisionContext,
    compute_gamma_table,
    enumerate_constrained,
    eta_explicit_table,
    eta_from_gamma_explicit,
    gamma_explicit_table,
    gamma_from_eta_explicit,
    histogram,
    lambda_context,
    lambda_tilde_explicit,
    lambda_tilde_explicit_table,
    modified_gamma,
    partition_count,
    term_distribution,
)
from zetali import cli, coefficients, li, numerics
from zetali.coefficients import _signed_walk, partition_product
from zetali.numerics import from_decimal, weighted_sum
from zetali.partitions import _power_rows, _walk_partitions
from zetali.stieltjes import CoefficientTable

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


def walk_words(n, least=None):
    """The walk in the free monoid: the product of a partition is its
    parts ``((j, k_j), ...)`` in the order the walk multiplied them."""
    return list(_walk_partitions(n, _power_rows(n, lambda j, c: ((j, c),)), least,
                                 mul=operator.add, one=()))


def reference_walk(n, least=None):
    """``(r, p, parts)`` in the walk's order, by plain recursion: a
    prefix of parts is a partition of ``r`` once ``n - r`` is at most
    ``n - least``, and it is extended by ``c`` parts of size ``s``
    above its largest, ``s`` descending and ``c`` ascending."""
    slack = 0 if least is None else n - least

    def visit(rem, lo, parts):
        if rem <= slack:
            yield n - rem, sum(c for _, c in parts), parts
        for size in range(rem, lo, -1):
            for c in range(1, rem // size + 1):
                yield from visit(rem - c * size, size, parts + ((size - 1, c),))

    return list(visit(n, 0, ()))


class TestWalk:
    def test_empty_partition(self):
        assert list(_walk_partitions(0, [])) == [(0, 0, 1)]

    @pytest.mark.parametrize("n", range(1, N_MAX + 1))
    def test_matches_dense_enumeration(self, n):
        walked = [(r, parts, p) for r, p, parts in walk_words(n)]
        dense = [(n, tuple((j, c) for j, c in enumerate(k) if c), sum(k))
                 for k in enumerate_constrained(n)]
        assert walked == dense

    @pytest.mark.parametrize("n", range(1, N_MAX + 1))
    def test_prefix_products_equal_partition_product(self, gamma40, ctx256, n):
        walk = list(_signed_walk(gamma40.values, n, ctx256))
        assert len(walk) == partition_count(n)
        with ctx256.workprec():
            for (_, _, product), k in zip(walk, enumerate_constrained(n)):
                assert from_raw(product) == partition_product(gamma40.values, k)

    def test_integer_ring(self):
        # distinct primes per (j, c), so a wrong or missing factor shows;
        # the free-monoid walk gives the parts each product must have
        primes = iter([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43])
        powers = _power_rows(6, lambda j, c: next(primes) if c else None)
        walk = list(_walk_partitions(6, powers))
        assert len(walk) == partition_count(6)
        for (_, _, product), (_, _, parts) in zip(walk, walk_words(6)):
            assert product == math.prod(powers[j][c] for j, c in parts)


class TestWalkOrder:
    """The walk against :func:`reference_walk`, item by item: the order
    (singles largest first, then the pair, then the rest), each ``r``,
    each ``p`` and each product, multiplied left to right."""

    @pytest.mark.parametrize("least", [None, 1])
    @pytest.mark.parametrize("n", range(1, 15))
    def test_matches_reference(self, n, least):
        assert walk_words(n, least) == reference_walk(n, least)


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
    def _more_guard(ctx):
        return PrecisionContext(ctx.target_bits, ctx.guard_bits + 256)

    @classmethod
    def _close(cls, value, better, ctx):
        with cls._more_guard(ctx).workprec():
            assert abs(value - better) < mp.mpf(2) ** -(ctx.target_bits + 8)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_eta_explicit(self, gamma40, ctx256, n):
        self._close(eta_from_gamma_explicit(gamma40, n, ctx256),
                    eta_from_gamma_explicit(gamma40, n, self._more_guard(ctx256)),
                    ctx256)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_gamma_from_eta(self, eta40, ctx256, n):
        self._close(gamma_from_eta_explicit(eta40, n, ctx256),
                    gamma_from_eta_explicit(eta40, n, self._more_guard(ctx256)),
                    ctx256)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_lambda_explicit(self, gamma20, n):
        ctx = lambda_context(192, n)
        self._close(lambda_tilde_explicit(gamma20, n, ctx),
                    lambda_tilde_explicit(gamma20, n, self._more_guard(ctx)),
                    ctx)


def synthetic_table(kind, count):
    """A fixed table of ``count`` values that no table build produces.

    Each value is parsed from a decimal string of 154 significant digits
    taken from SHA-256 digests of its name, with a digest-chosen sign
    and a magnitude falling with the index, so a change to how tables
    are built cannot move what is computed from this one.
    """
    values = []
    for i in range(count):
        words = [int(hashlib.sha256(f"{kind} {i} {half}".encode()).hexdigest(), 16)
                 for half in (0, 1)]
        digits = "".join(str(w).zfill(78)[:77] for w in words)
        sign = "-" if words[0] % 2 else ""
        values.append(from_decimal(f"{sign}0.{digits}e-{i // 2}", 512))
    return CoefficientTable(kind, "file", tuple(values), 512)


class TestSyntheticTablePin:
    """One digest over every value the partition sums give from a fixed
    synthetic table, at three contexts.  The table does not come from
    ``compute_gamma_table``, so only a change to the sums themselves
    (their walk, products, rounding or order) can move the digest."""

    DIGEST = "2169a492b4d9e270084588ebbdbb6e33529640e7a7f157545702127357b80ef4"

    def test_digest(self):
        gamma, eta = synthetic_table("gamma", 24), synthetic_table("eta", 24)
        lines = []

        def put(*xs):
            lines.append(" ".join(str(x._mpf_) if isinstance(x, mp.mpf) else str(x)
                                  for x in xs))

        for ctx in (PrecisionContext(192, 64), PrecisionContext(128, 0),
                    PrecisionContext(300, 17)):
            for n in range(1, 25):
                put("eta", ctx, n, eta_from_gamma_explicit(gamma, n, ctx))
                put("gamma", ctx, n, gamma_from_eta_explicit(eta, n, ctx))
            for n in range(1, 21):
                put("lambda", ctx, n, lambda_tilde_explicit(gamma, n, ctx))
                dist = term_distribution(gamma, n, ctx)
                put("terms", ctx, n, *dist.term_values)
                for row in histogram(dist, 9, ctx):
                    put("bin", ctx, n, *row)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.DIGEST


STORE_N = 24
STORE_CTXS = (PrecisionContext(192, 64), PrecisionContext(128, 32))
# route -> (function, the kind of table it reads, its plain reference)
STORE_ROUTES = {
    "eta": (eta_from_gamma_explicit, "gamma", reference_eta),
    "gamma": (gamma_from_eta_explicit, "eta", reference_gamma),
    "lambda": (lambda_tilde_explicit, "gamma", reference_lambda),
}


class TestIndexSumStore:
    """The per-index explicit routes keep their rounded values on the
    table they read, keyed by route and working precision, and keep no
    exact sums there.  Whatever requests came before, on whatever table
    and at whatever context, each value must be bit for bit the plain
    reference's, and the store must not show in the table's equality,
    hash or repr."""

    @pytest.fixture(scope="class")
    def references(self):
        """``_mpf_`` of each route's reference for every n <= STORE_N at
        both contexts, from tables no route has read."""
        tables = {kind: synthetic_table(kind, STORE_N) for kind in ("gamma", "eta")}
        return {(route, ctx, n): reference(tables[kind], n, ctx)._mpf_
                for route, (_, kind, reference) in STORE_ROUTES.items()
                for ctx in STORE_CTXS for n in range(1, STORE_N + 1)}

    @staticmethod
    def fresh():
        return {kind: synthetic_table(kind, STORE_N) for kind in ("gamma", "eta")}

    @staticmethod
    def check(references, tables, route, n, ctx):
        function, kind, _ = STORE_ROUTES[route]
        assert function(tables[kind], n, ctx)._mpf_ == references[route, ctx, n]

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    @pytest.mark.parametrize("route", list(STORE_ROUTES))
    def test_any_order(self, references, route, order):
        indices = list(range(1, STORE_N + 1))
        if order == "descending":
            indices.reverse()
        elif order == "shuffled":
            random.Random(route).shuffle(indices)
        tables = self.fresh()
        for n in indices:
            self.check(references, tables, route, n, STORE_CTXS[0])

    def test_two_contexts_on_one_table(self, references):
        # a sum at one working precision must never serve another
        tables = self.fresh()
        indices = list(range(1, STORE_N + 1))
        random.Random("contexts").shuffle(indices)
        for i, n in enumerate(indices):
            for ctx in STORE_CTXS[::1 if i % 2 else -1]:
                for route in STORE_ROUTES:
                    self.check(references, tables, route, n, ctx)
        # each route's rounded values, per precision, and no exact sums
        bits = sorted(ctx.working_bits for ctx in STORE_CTXS)
        assert sorted(tables["gamma"]._sums) == [
            (key, b) for key in ("eta", "lambda") for b in bits]
        assert sorted(tables["eta"]._sums) == [("gamma", b) for b in bits]

    @pytest.mark.parametrize("route", list(STORE_ROUTES))
    def test_kept_per_context(self, references, route):
        # each working precision keeps its own rounded value, equal to a
        # fresh table's, and a repeat returns it unchanged
        function, kind, _ = STORE_ROUTES[route]
        table = self.fresh()[kind]
        for n in (7, 3, STORE_N):
            for ctx in STORE_CTXS + STORE_CTXS[::-1]:
                assert function(table, n, ctx)._mpf_ == references[route, ctx, n]
        for ctx in STORE_CTXS:
            kept = table._sums[route, ctx.working_bits]
            assert sorted(kept) == [3, 7, STORE_N]
            for n, value in kept.items():
                assert value._mpf_ == references[route, ctx, n]

    @pytest.mark.parametrize("route", ["eta", "gamma"])
    def test_repeated_eta_gamma_rounds_nothing(self, monkeypatch, route):
        calls = []

        def counted(name, function):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)
            return wrapped

        for name in ("_index_sums", "raw_to_mpf"):
            monkeypatch.setattr(coefficients, name,
                                counted(name, getattr(coefficients, name)))
        function, kind, _ = STORE_ROUTES[route]
        table, ctx = self.fresh()[kind], STORE_CTXS[0]
        first = [function(table, n, ctx) for n in range(1, 11)]
        assert calls == ["_index_sums", "raw_to_mpf"] * 10
        for n in (10, 1, 5, 10):
            assert function(table, n, ctx) is first[n - 1]
        assert len(calls) == 20
        # another working precision reads and rounds again, once
        function(table, 5, STORE_CTXS[1])
        function(table, 5, STORE_CTXS[1])
        assert calls[20:] == ["_index_sums", "raw_to_mpf"]

    def test_eta_and_lambda_interleaved(self, references):
        # eta and lambda_tilde requests on one gamma table, between batch
        # runs over it: no request changes what another one returns
        tables = self.fresh()
        indices = list(range(1, STORE_N + 1))
        random.Random("interleaved").shuffle(indices)
        ctx = STORE_CTXS[0]
        for i, n in enumerate(indices):
            pair = ("eta", "lambda") if i % 2 else ("lambda", "eta")
            for route in pair:
                self.check(references, tables, route, n, ctx)
            if i % 5 == 0:
                assert [x._mpf_ for x in lambda_tilde_explicit_table(tables["gamma"], n, ctx)] \
                    == [references["lambda", ctx, m] for m in range(1, n + 1)]
                assert [x._mpf_ for x in eta_explicit_table(tables["gamma"], n - 1, ctx)] \
                    == [references["eta", ctx, m] for m in range(1, n + 1)]

    def test_repeated_requests_walk_nothing(self, monkeypatch):
        walks = []

        def counted(values, n, ctx, least=None):
            walks.append((n, least))
            return _signed_walk(values, n, ctx, least)

        monkeypatch.setattr(coefficients, "_signed_walk", counted)
        g, ctx = self.fresh()["gamma"], STORE_CTXS[0]
        eta_from_gamma_explicit(g, 5, ctx)
        lambda_tilde_explicit(g, 8, ctx)
        lambda_tilde_explicit(g, 10, ctx)
        # no sums are kept: each new request walks every index it reads
        assert walks == [(5, 5), (8, 1), (10, 1)]
        for _ in range(2):
            eta_from_gamma_explicit(g, 5, ctx)
            lambda_tilde_explicit(g, 8, ctx)
            lambda_tilde_explicit(g, 10, ctx)
        assert len(walks) == 3
        # another working precision is another store
        eta_from_gamma_explicit(g, 5, STORE_CTXS[1])
        assert walks[3:] == [(5, 5)]

    def test_repeated_lambda_sums_nothing(self, monkeypatch):
        sums = []

        def counted(terms, bits):
            sums.append(bits)
            return weighted_sum(terms, bits)

        monkeypatch.setattr(li, "weighted_sum", counted)
        g, ctx = self.fresh()["gamma"], STORE_CTXS[0]
        first = [lambda_tilde_explicit(g, n, ctx) for n in range(1, 11)]
        assert len(sums) == 10
        for n in (10, 1, 5, 10):
            assert lambda_tilde_explicit(g, n, ctx) is first[n - 1]
        assert len(sums) == 10
        # another working precision sums again, once
        lambda_tilde_explicit(g, 5, STORE_CTXS[1])
        lambda_tilde_explicit(g, 5, STORE_CTXS[1])
        assert sums[10:] == [STORE_CTXS[1].working_bits]

    def test_store_out_of_sight(self):
        g, other = self.fresh()["gamma"], self.fresh()["gamma"]
        shown = repr(g), hash(g)
        lambda_tilde_explicit(g, 6, STORE_CTXS[0])
        assert g._sums and not other._sums
        assert (repr(g), hash(g)) == shown
        assert g == other and hash(g) == hash(other) and repr(g) == repr(other)
        # replace builds a new table, with a store of its own
        copy = dataclasses.replace(g)
        assert copy == g and not copy._sums
        eta_from_gamma_explicit(copy, 3, STORE_CTXS[1])
        bits = STORE_CTXS[0].working_bits
        assert sorted(g._sums) == [("lambda", bits)]


BATCH_N = 25
# route -> (its batch, its per-index function, the kind of table both read)
BATCHES = {
    "eta": (eta_explicit_table, eta_from_gamma_explicit, "gamma"),
    "gamma": (gamma_explicit_table, gamma_from_eta_explicit, "eta"),
    "lambda": (lambda_tilde_explicit_table, lambda_tilde_explicit, "gamma"),
}


class TestBatches:
    """Each batch gives every index up to N from one walk, ``_mpf_`` for
    ``_mpf_`` what its per-index route gives, and keeps nothing on the
    table it reads; no route keeps exact sums there."""

    @pytest.mark.parametrize("ctx", STORE_CTXS, ids=["192+64", "128+32"])
    @pytest.mark.parametrize("route", list(BATCHES))
    def test_equals_per_index_route(self, route, ctx):
        batch, single, kind = BATCHES[route]
        table = synthetic_table(kind, BATCH_N + 1)
        got = batch(table, BATCH_N, ctx)
        assert not table._sums
        if route == "lambda":
            values, indices = got, range(1, BATCH_N + 1)
        else:
            assert (got.kind, got.provenance, got.precision_bits) == (
                route, "explicit", min(ctx.working_bits, table.precision_bits))
            values, indices = got.values, range(1, BATCH_N + 2)
        assert [v._mpf_ for v in values] == [single(table, n, ctx)._mpf_ for n in indices]

    @pytest.mark.parametrize("route", list(BATCHES))
    def test_one_walk(self, monkeypatch, route):
        walks = []

        def counted(values, n, ctx, least=None):
            walks.append((n, least))
            return _signed_walk(values, n, ctx, least)

        monkeypatch.setattr(coefficients, "_signed_walk", counted)
        batch, _, kind = BATCHES[route]
        batch(synthetic_table(kind, 13), 12, STORE_CTXS[0])
        assert walks == [(12 if route == "lambda" else 13, 1)]

    def test_edges(self):
        g = synthetic_table("gamma", 3)
        assert lambda_tilde_explicit_table(g, 0, STORE_CTXS[0]) == ()
        for route, (batch, _, kind) in BATCHES.items():
            other = synthetic_table("eta" if kind == "gamma" else "gamma", 3)
            with pytest.raises(ValueError, match="need a table of kind"):
                batch(other, 2, STORE_CTXS[0])
            with pytest.raises(ValueError, match="table too short"):
                batch(synthetic_table(kind, 3), 5, STORE_CTXS[0])

    def test_no_route_keeps_exact_sums(self):
        g, e = synthetic_table("gamma", 13), synthetic_table("eta", 13)
        for ctx in STORE_CTXS:
            for n in (4, 9):
                eta_from_gamma_explicit(g, n, ctx)
                gamma_from_eta_explicit(e, n, ctx)
                lambda_tilde_explicit(g, n, ctx)
                term_distribution(g, n, ctx)
            for batch, _, kind in BATCHES.values():
                batch(g if kind == "gamma" else e, 12, ctx)
        # rounded values per route, and packed distributions: nothing else
        assert {route for route, _ in g._sums} == {"eta", "lambda", "distribution"}
        assert {route for route, _ in e._sums} == {"gamma"}


class TestPackedDistributions:
    """A gamma table keeps each term distribution it serves at one
    working precision, packed from the first request on, so later
    requests skip the walk.  A distribution served packed is bit for bit
    a fresh table's, in the same order; the table keeps at most 2 MiB of
    packed terms and evicts nothing."""

    @staticmethod
    def mpfs(dist):
        return [v._mpf_ for v in dist.term_values]

    @staticmethod
    def counted_walks(monkeypatch):
        walks = []

        def counted(values, n, ctx, least=None):
            walks.append((n, ctx.working_bits))
            return _signed_walk(values, n, ctx, least)

        monkeypatch.setattr(li, "_signed_walk", counted)
        return walks

    def test_first_request_packs_second_walks_nothing(self, monkeypatch):
        walks = self.counted_walks(monkeypatch)
        g, ctx = synthetic_table("gamma", STORE_N), STORE_CTXS[0]
        bits = ctx.working_bits
        first = term_distribution(g, 12, ctx)
        parts = g._sums["distribution", bits][12]
        assert [len(codes) for _, codes in parts] == [0] + [partition_count(r) for r in range(1, 13)]
        assert sum(len(codes) for _, codes in parts) == len(first) == 271
        assert sum(len(buf) + codes.itemsize * len(codes) for buf, codes in parts) == \
            coefficients._packed_bytes(g)
        assert walks == [(12, bits)]
        for _ in range(3):
            again = term_distribution(g, 12, ctx)
            assert again.n == 12 and self.mpfs(again) == self.mpfs(first)
        assert len(walks) == 1

    @pytest.mark.parametrize("n", [1, 2, 9, 16])
    def test_served_packed_is_fresh(self, n):
        g, ctx = synthetic_table("gamma", STORE_N), STORE_CTXS[0]
        for _ in range(2):
            served = term_distribution(g, n, ctx)
        assert g._sums["distribution", ctx.working_bits][n] is not None
        fresh = term_distribution(synthetic_table("gamma", STORE_N), n, ctx)
        assert served == fresh
        assert self.mpfs(served) == self.mpfs(fresh)

    def test_two_contexts_keep_separate_entries(self, monkeypatch):
        fresh = {ctx: self.mpfs(term_distribution(synthetic_table("gamma", STORE_N), 10, ctx))
                 for ctx in STORE_CTXS}
        walks = self.counted_walks(monkeypatch)
        g = synthetic_table("gamma", STORE_N)
        for ctx in STORE_CTXS * 4:
            assert self.mpfs(term_distribution(g, 10, ctx)) == fresh[ctx]
        bits = [ctx.working_bits for ctx in STORE_CTXS]
        assert walks == [(10, b) for b in bits]
        assert sorted(g._sums) == sorted(("distribution", b) for b in bits)
        for b in bits:
            assert sorted(g._sums["distribution", b]) == [10]
            assert g._sums["distribution", b][10] is not None

    def test_cap_holds(self, monkeypatch):
        assert coefficients._PACKED_CAP == 2 * 1024 * 1024
        g = synthetic_table("gamma", STORE_N)
        big, ctx = PrecisionContext(1936, 64), STORE_CTXS[0]
        big_size = numerics.packed_size(7337, big.working_bits)
        term_distribution(g, 24, big)
        assert coefficients._packed_bytes(g) == big_size
        # 23 would pass the cap: served, walked each time, never kept
        assert big_size + numerics.packed_size(5762, ctx.working_bits) > coefficients._PACKED_CAP
        walks = self.counted_walks(monkeypatch)
        served = [term_distribution(g, 23, ctx) for _ in range(3)]
        assert len(walks) == 3
        assert g._sums["distribution", ctx.working_bits] == {}
        fresh = term_distribution(synthetic_table("gamma", STORE_N), 23, ctx)
        assert all(self.mpfs(d) == self.mpfs(fresh) for d in served)
        # a smaller one still fits, and is kept
        term_distribution(g, 20, ctx)
        total = big_size + numerics.packed_size(2713, ctx.working_bits)
        assert coefficients._packed_bytes(g) == total <= coefficients._PACKED_CAP
        assert g._sums["distribution", ctx.working_bits][20] is not None

    def test_cli_histogram_packs_once(self, monkeypatch, capsys):
        # the one distribution a histogram command serves is walked and
        # packed once, straight from the walk
        tables, packs = [], []
        kept_terms, pack = li._kept_terms, li.pack_raw
        walks = self.counted_walks(monkeypatch)

        def seen(table, *args):
            tables.append(table)
            return kept_terms(table, *args)

        def counted(*args):
            packs.append(args)
            return pack(*args)

        monkeypatch.setattr(li, "_kept_terms", seen)
        monkeypatch.setattr(li, "pack_raw", counted)
        assert cli.main(["histogram", "--n", "12", "--raw"]) == 0
        capsys.readouterr()
        bits = lambda_context(192, 12).working_bits
        assert len(tables) == 1 and len(packs) == 1 and walks == [(12, bits)]
        assert sorted(tables[0]._sums) == [("distribution", bits)]
        assert coefficients._packed_bytes(tables[0]) == numerics.packed_size(271, bits)

    def test_store_out_of_sight(self):
        g, other = synthetic_table("gamma", STORE_N), synthetic_table("gamma", STORE_N)
        shown = repr(g), hash(g)
        for _ in range(2):
            term_distribution(g, 8, STORE_CTXS[0])
        assert coefficients._packed_bytes(g) > 0
        assert (repr(g), hash(g)) == shown
        assert g == other and hash(g) == hash(other) and repr(g) == repr(other)
        copy = dataclasses.replace(g)
        assert copy == g and not copy._sums
        term_distribution(copy, 8, STORE_CTXS[0])
        assert list(copy._sums) == [("distribution", STORE_CTXS[0].working_bits)]
        assert list(copy._sums["distribution", STORE_CTXS[0].working_bits]) == [8]


class TestDistributionMemory:
    """Peak Python memory, by tracemalloc, of the n = 24 distribution at
    ``lambda_context(192, 24)`` (432 bits, 7,337 terms) and of its
    40-bin histogram.  Each bound sits between what the walk, packing
    and binning of per-term ``mpf`` copies and shifted keys took (3.8,
    2.4 and 0.83 MiB) and what one packed form from the walk, shared
    exponent and bit-count ints and no per-term keys take (2.3, 1.8 and
    0.15 MiB)."""

    CTX = lambda_context(192, 24)

    @staticmethod
    def traced(call):
        """``call()``, its peak and what it left allocated, in MiB."""
        gc.collect()
        tracemalloc.start()
        try:
            result = call()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak / 2 ** 20, held / 2 ** 20

    @pytest.fixture
    def table(self):
        return synthetic_table("gamma", STORE_N)

    def test_first_request(self, table):
        dist, peak, _ = self.traced(lambda: term_distribution(table, 24, self.CTX))
        assert len(dist) == 7337 and peak < 3.0

    def test_repeat(self, table):
        term_distribution(table, 24, self.CTX)
        dist, peak, _ = self.traced(lambda: term_distribution(table, 24, self.CTX))
        assert len(dist) == 7337 and peak < 2.1

    def test_histogram(self, table):
        dist = term_distribution(table, 24, self.CTX)
        rows, peak, _ = self.traced(lambda: histogram(dist, 40, self.CTX))
        assert sum(count for _, _, count in rows) == 7337 and peak < 0.5

    def test_over_the_cap_frees_each_part(self, table):
        # a distribution the table does not keep: each packed part goes
        # once its terms are built, so about one part (p(23) terms, 0.08
        # MiB) is held beside the terms, not all 0.34 MiB of them
        term_distribution(table, 24, PrecisionContext(1936, 64))
        dist, peak, held = self.traced(lambda: term_distribution(table, 23, self.CTX))
        assert len(dist) == 5762 and not table._sums["distribution", self.CTX.working_bits]
        assert peak - held < 0.25
