"""Per-layer tracing of the zetali library from outside its source.

The tracer wraps public functions of the library's modules and patches
every module namespace that holds the same function object, so calls
made through a re-imported name (``li.partition_product``,
``verify.enumerate_constrained``, the imports in ``cli``) are seen too.

Each wrapped function belongs to a *layer* named ``<module>.<function>``.
Ordinary calls become spans ``(name, start, end, parent, job)`` kept in
memory and written out when the run ends.  Two kinds of call are too
frequent for one span each and are aggregated instead:

* hot leaves (``partition_product``, ``bernoulli``): calls and busy time
  are summed and credited to the enclosing span as child time;
* the lazy generator ``enumerate_constrained``: one span per generator,
  whose busy time is the sum of its ``next()`` calls only, so the
  consumer's work between vectors is not charged to enumeration.

A layer's busy time counts only its outermost spans (a layer nested in
itself, such as ``save_table`` calling ``render_table``, is not counted
twice); its self time is busy time minus the busy time of child layers.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import zetali.cli  # noqa: F401  (with the package, loads every module)
from zetali import partitions

# (module, attribute, layer, kind); kind is "span", "hot" or "generator"
TARGETS = (
    ("partitions", "enumerate_constrained", "partitions.enumerate", "generator"),
    ("coefficients", "partition_product", "coefficients.partition_product", "hot"),
    ("coefficients", "eta_from_gamma_explicit", "coefficients.eta_explicit", "span"),
    ("coefficients", "gamma_from_eta_explicit", "coefficients.gamma_from_eta", "span"),
    ("coefficients", "expand_eta_symbolic", "coefficients.symbolic", "span"),
    ("coefficients", "expand_gamma_symbolic", "coefficients.symbolic", "span"),
    ("coefficients", "eta_from_gamma_recurrence", "coefficients.recurrence", "span"),
    ("coefficients", "eta_series_oracle", "coefficients.series_oracle", "span"),
    ("li", "lambda_tilde_explicit", "li.explicit", "span"),
    ("li", "term_distribution", "li.term_distribution", "span"),
    ("li", "expand_lambda_symbolic", "li.symbolic", "span"),
    ("li", "lambda_tilde_binomial", "li.binomial", "span"),
    ("li", "histogram", "li.histogram", "span"),
    ("stieltjes", "euler_maclaurin_parameters", "stieltjes.em_parameters", "span"),
    ("stieltjes", "compute_gamma_table", "stieltjes.compute_gamma_table", "span"),
    ("stieltjes", "render_table", "stieltjes.table_io", "span"),
    ("stieltjes", "save_table", "stieltjes.table_io", "span"),
    ("stieltjes", "load_table", "stieltjes.table_io", "span"),
    ("numerics", "bernoulli", "numerics.bernoulli", "hot"),
    ("numerics", "series_mul", "numerics.series", "span"),
    ("numerics", "series_recip", "numerics.series", "span"),
    ("numerics", "series_derivative", "numerics.series", "span"),
    ("verify", "run_verification", "verify.run_verification", "span"),
    ("cli", "main", "cli.main", "span"),
)


class _Layer:
    __slots__ = ("calls", "busy", "self_time")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0


class Tracer:
    """Collects spans and per-layer totals while installed."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent, job, busy)
        self.layers: dict[str, _Layer] = defaultdict(_Layer)
        self.counts: Counter = Counter()
        self.job = None                # identifier shared by one job's spans
        self._stack: list[list] = []   # open spans: [id, name, start, child_busy]
        self._ids = 0
        self._open = Counter()         # layer -> open spans of that layer
        self._patches: list[tuple] = []  # (module, name, original, wrapper)

    # -- span bookkeeping -------------------------------------------------

    def _close(self, frame, end, busy, credit_parent=True):
        span_id, name, start, child = frame
        parent = self._stack[-1] if self._stack else None
        self.spans.append((span_id, name, start, end,
                           parent and parent[0], self.job, busy))
        layer = self.layers[name]
        layer.calls += 1
        layer.self_time += busy - child
        if not self._open[name]:
            layer.busy += busy
        if parent and credit_parent:
            parent[3] += busy

    def _frame(self, name, start):
        self._ids += 1
        return [self._ids, name, start, 0.0]

    def _enter(self, name, start):
        frame = self._frame(name, start)
        self._stack.append(frame)
        self._open[name] += 1
        return frame

    def _leave(self, frame, end, busy):
        self._stack.pop()
        self._open[frame[1]] -= 1
        self._close(frame, end, busy)

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name, on_result):
        def traced(*args, **kwargs):
            frame = self._enter(name, perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._leave(frame, end, end - frame[2])
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return traced

    def _hot(self, fn, name):
        layer = self.layers[name]
        stack = self._stack

        def traced(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            busy = perf_counter() - start
            layer.calls += 1
            layer.busy += busy
            layer.self_time += busy
            if stack:
                stack[-1][3] += busy
            return result
        return traced

    def _generator(self, fn, name):
        stack = self._stack

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            first = last = None
            busy = 0.0
            items = 0
            try:
                while True:
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        last = perf_counter()
                        step = last - start
                        busy += step
                        if first is None:
                            first = start
                        if stack:
                            stack[-1][3] += step
                    items += 1
                    yield item
            finally:
                if first is None:  # closed before its first next()
                    first = last = perf_counter()
                # next() time was credited to the consumer step by step
                self._close(self._frame(name, first), last, busy,
                            credit_parent=False)
                self.counts[name + ".vectors"] += items
        return traced

    # -- installation -------------------------------------------------------

    def _plan(self):
        """Every (module, name) that holds a target, with its wrapper."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "zetali" or k.startswith("zetali."))]
        for module_name, attr, layer, kind in TARGETS:
            original = getattr(sys.modules["zetali." + module_name], attr)
            if kind == "hot":
                wrapper = self._hot(original, layer)
            elif kind == "generator":
                wrapper = self._generator(original, layer)
            else:
                wrapper = self._span(original, layer, self._observer(attr))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original, wrapper))

    def install(self):
        """Wrap every target in every zetali module that holds it."""
        if not self._patches:
            self._plan()
        for module, key, _, wrapper in self._patches:
            setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original, _ in self._patches:
            setattr(module, key, original)

    def _observer(self, attr):
        # exact work counts read off arguments and results
        if attr == "euler_maclaurin_parameters":
            def seen(args, kwargs, result):
                self.counts["stieltjes.em_cutoff_M"] += result[0]
                self.counts["stieltjes.em_tail_J"] += result[1]
            return seen
        if attr == "lambda_tilde_explicit":
            def seen(args, kwargs, result):
                n = args[1] if len(args) > 1 else kwargs["n"]
                self.counts["li.terms"] += partitions.summatory_partition_count(n)
            return seen
        if attr == "term_distribution":
            def seen(args, kwargs, result):
                self.counts["li.terms"] += len(result)
            return seen
        return None

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every layer's calls, busy_s and self_s, plus the exact counts."""
        out: dict[str, float] = {}
        for name in sorted(self.layers):
            layer = self.layers[name]
            out[name + ".calls"] = layer.calls
            out[name + ".busy_s"] = layer.busy
            out[name + ".self_s"] = layer.self_time
        out.update(self.counts)
        return out

    def write(self, path):
        """Write the spans as JSON lines, one per span."""
        keys = ("id", "name", "start", "end", "parent", "job", "busy")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
