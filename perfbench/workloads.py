"""The two benchmark workloads: job lists, set-up, execution and checks.

Every workload is a closed loop with one client: the next job starts
when the previous one, and its check, are done.  A run's job list is a
number of *rounds*; each round holds one job per slot, in an order the
seed shuffles.  A slot draws its inputs (index, precision) from a small
grid: per slot, every ``len(grid)`` consecutive rounds hold each grid
point once, in an order the seed shuffles.  So a seed changes which
inputs run and in what order but hardly the mix of job sizes, in the
whole list and in every prefix of it, which keeps round times and job
percentiles comparable across seeds and across runs cut short; grid
points still repeat within a run, which is what a memoising change
needs to show.

Jobs reach the library through its modules (``li.lambda_tilde_explicit``),
so the tracer, which patches module attributes, sees them.  Per-job
checks use names bound when this file is imported, so they stay outside
the trace; run-level checks (``prepare``) run before the tracer is
installed.  No check runs inside a timed region.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import mpmath as mp

import zetali.cli
from zetali import coefficients, li, stieltjes
from zetali.coefficients import eta_from_gamma_recurrence
from zetali.li import lambda_context, lambda_tilde_binomial, lambda_tilde_explicit
from zetali.numerics import PrecisionContext, to_decimal
from zetali.partitions import summatory_partition_count
from zetali.stieltjes import compute_gamma_table
from zetali.verify import ETA_FIXTURES, GAMMA_FIXTURES, LAMBDA_FIXTURES

#: Cross-route tolerances, as in ``zetali.verify.run_verification``.
ETA_TOL = mp.mpf(2) ** -128
GAMMA_TOL = mp.mpf(2) ** -100
LAMBDA_TOL = mp.mpf(2) ** -80

#: Precision of comparisons and reference values.
CHECK_BITS = 1200

ROOT = Path(__file__).resolve().parent.parent


def _dec(text):
    with mp.workprec(CHECK_BITS):
        return mp.mpf(text)


def _rel(a, b):
    with mp.workprec(CHECK_BITS):
        return abs(a - b) / max(1, abs(a))


def stieltjes_reference(n: int, bits: int):
    """gamma_n in the package's convention from mpmath's own Stieltjes
    constants: (-1)^n stieltjes(n) / n!."""
    with mp.workprec(bits):
        return mp.stieltjes(n) * (-1) ** n / mp.factorial(n)


def span(lo, hi):
    return tuple(range(lo, hi + 1))


class Workload:
    """One workload: its job list, set-up, jobs and checks."""

    name = ""
    #: rounds per second of ``--seconds``: a run's job list holds 0.6 to
    #: 0.8 times ``--seconds`` of job time on the machine of the
    #: baseline, so that a run is seldom cut short
    rounds_per_second = 1.0
    #: (make_job, axis, ...): one job per slot per round, made from one
    #: point of the grid of its axes.  Slots are listed cheapest first:
    #: a few cheap ones, then a band that holds the median, then a costly
    #: one that holds the tail rank (the 11th job from the top).  The
    #: host flips between a faster and a slower speed, about 1.7 times
    #: apart, so the job sizes around the median and the tail rank spread
    #: over about that ratio or more: a quantile that sits among jobs of
    #: one size would jump with the host's state from run to run, while
    #: among spread sizes it moves smoothly.  Grid sizes divide the
    #: number of rounds where they can, so that every seed runs the same
    #: mix of sizes.
    slots = ()

    def round_count(self, seconds: float) -> int:
        return max(2, round(seconds * self.rounds_per_second))

    def rounds(self, seed: int, count: int) -> list[list]:
        """``count`` rounds of one job per slot, each round shuffled."""
        rng = random.Random(f"{self.name}:{seed}")
        columns = []
        for make, *axes in self.slots:
            grid = list(itertools.product(*axes))
            column = []
            while len(column) < count:
                rng.shuffle(grid)
                column.extend(make(*point) for point in grid)
            columns.append(column[:count])
        out = []
        for batch in zip(*columns):
            batch = list(batch)
            rng.shuffle(batch)
            out.append(batch)
        return out

    def jobs(self, seed: int, seconds: float) -> list:
        """The job list of a run of ``seconds``, its rounds joined."""
        return [job for batch in self.rounds(seed, self.round_count(seconds))
                for job in batch]

    def setup(self) -> None:
        """Shared inputs and cache warm-up; timed as ``setup_s``."""

    def prepare(self, seed: int) -> list[str]:
        """Untimed references and run-level checks; returns failures."""
        return []

    def run(self, job):
        """One user request; timed."""
        raise NotImplementedError

    def check(self, job, result) -> tuple[str | None, str]:
        """(failure or None, canonical digits of the result); untimed."""
        raise NotImplementedError

    def close(self) -> None:
        """Remove whatever the run left behind."""


# --------------------------------------------------------------------------
# partition_sums
# --------------------------------------------------------------------------


class PartitionSums(Workload):
    """The partition-sum routes over one shared gamma table."""

    name = "partition_sums"
    rounds_per_second = 1 / 3
    n_max = 34
    slots = (
        (lambda n: ("distribution", n), span(16, 19)),
        (lambda n: ("gamma_from_eta", n), span(24, 27)),
        (lambda n: ("lambda_explicit", n), span(18, 21)),
        (lambda n: ("lambda_explicit", n), span(22, 25)),
        (lambda n: ("distribution", n), span(21, 24)),
        (lambda n: ("eta_explicit", n), span(27, 30)),
        (lambda n: ("gamma_from_eta", n), span(29, 32)),
        (lambda n: ("eta_explicit", n), span(29, 32)),
        (lambda n: ("lambda_explicit", n), span(25, 28)),
    )
    ctx = PrecisionContext(192, 64)

    def setup(self):
        table_ctx = li.lambda_context(192, self.n_max)
        self.gamma = stieltjes.compute_gamma_table(self.n_max, table_ctx)
        self.eta = coefficients.eta_from_gamma_recurrence(
            self.gamma, self.n_max, table_ctx)
        self.lambdas = {}

    def prepare(self, seed):
        rng = random.Random(f"{self.name}:{seed}:reference")
        failures = []
        for n in rng.sample(range(13), 3):
            ref = stieltjes_reference(n, 192 + 32)
            if abs(ref - self.gamma[n]) >= mp.mpf(2) ** -192:
                failures.append(f"gamma_{n} differs from mpmath.stieltjes")
        return failures

    def _lambda(self, n):
        if n not in self.lambdas:
            self.lambdas[n] = lambda_tilde_binomial(self.eta, n, lambda_context(192, n))
        return self.lambdas[n]

    def run(self, job):
        kind, n = job
        if kind == "lambda_explicit":
            return li.lambda_tilde_explicit(self.gamma, n, li.lambda_context(192, n))
        if kind == "eta_explicit":
            return coefficients.eta_from_gamma_explicit(self.gamma, n, self.ctx)
        if kind == "gamma_from_eta":
            return coefficients.gamma_from_eta_explicit(self.eta, n, self.ctx)
        ctx_n = li.lambda_context(192, n)
        dist = li.term_distribution(self.gamma, n, ctx_n)
        return dist, li.histogram(dist, 40, ctx_n)

    def check(self, job, result):
        kind, n = job
        if kind == "lambda_explicit":
            ok = _rel(self._lambda(n), result) < LAMBDA_TOL
            return (None if ok else "explicit != binomial"), to_decimal(result, 192)
        if kind == "eta_explicit":
            ok = _rel(self.eta[n - 1], result) < ETA_TOL
            return (None if ok else "explicit != recurrence"), to_decimal(result, 192)
        if kind == "gamma_from_eta":
            ok = _rel(self.gamma[n - 1], result) < GAMMA_TOL
            return (None if ok else "inverse != table"), to_decimal(result, 192)
        dist, rows = result
        ctx_n = lambda_context(192, n)
        with ctx_n.workprec():
            lam = -mp.fsum(dist.term_values)
        digits = to_decimal(lam, 192)
        if len(dist) != summatory_partition_count(n):
            return "term count != sum of p(m)", digits
        if sum(c for _, _, c in rows) != len(dist):
            return "histogram counts != term count", digits
        tol = mp.mpf(2) ** -(ctx_n.working_bits - 10 * n)
        if _rel(self._lambda(n), lam) >= tol:
            return "term sum != binomial", digits
        return None, digits


# --------------------------------------------------------------------------
# cli
# --------------------------------------------------------------------------

TABLE = "{table}"


def _command(*words):
    """A one-command job; integer words become strings."""
    return (tuple(str(w) for w in words),)


def _stieltjes_then_li(top, n):
    return (("stieltjes", "--n-max", str(top), "--format", "json", "--out", TABLE),
            ("li", "--table", TABLE, "--n-max", str(n)))


def _csv_rows(text):
    return [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#")][1:]


class Cli(Workload):
    """One ``python -m zetali`` process per command; a job is one or two
    commands run one after the other."""

    name = "cli"
    rounds_per_second = 0.24
    slots = (
        (lambda: _command("stieltjes", "--n-max", 2),),
        (lambda n: _command("histogram", "--n", n, "--raw"), span(21, 22)),
        (_stieltjes_then_li, span(28, 29), span(24, 25)),
        (lambda n: _command("expand", "--target", "lambda", "--n", n, "--format", "json"),
         span(24, 25)),
        (lambda n: _command("li", "--n-max", n), span(56, 59)),
        (lambda n: _command("li", "--method", "explicit", "--n-max", n), span(18, 19)),
        (lambda: _command("verify", "--n-max", 20),),
    )
    ref_n = 68
    explicit_n = 20

    def __init__(self):
        #: run commands through zetali.cli.main in this process, so the
        #: tracer sees them, instead of one child process each
        self.in_process = False
        self.workdir = ROOT / ".perfbench_out" / f"cli-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.outputs = {}

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        if not self.in_process:
            self._spawn(("stieltjes", "--n-max", "2"))

    def prepare(self, seed):
        ctx = lambda_context(192, self.ref_n)
        self.gamma = compute_gamma_table(self.ref_n, ctx)
        eta = eta_from_gamma_recurrence(self.gamma, self.ref_n, ctx)
        self.binomial = {n: lambda_tilde_binomial(eta, n, lambda_context(192, n))
                         for n in range(1, self.ref_n + 1)}
        self.explicit = {n: lambda_tilde_explicit(self.gamma, n, lambda_context(192, n))
                         for n in range(1, self.explicit_n + 1)}
        failures = []
        for n in range(3):
            if abs(stieltjes_reference(n, 256) - self.gamma[n]) >= mp.mpf(2) ** -192:
                failures.append(f"gamma_{n} differs from mpmath.stieltjes")
        for fixtures, expand in ((ETA_FIXTURES, coefficients.expand_eta_symbolic),
                                 (GAMMA_FIXTURES, coefficients.expand_gamma_symbolic),
                                 (LAMBDA_FIXTURES, li.expand_lambda_symbolic)):
            for n, want in fixtures.items():
                if expand(n).terms != want:
                    failures.append(f"{expand.__name__}({n}) != fixture")
        return failures

    def _argv(self, command):
        table = str(self.workdir / "t.json")
        return [table if a == TABLE else a for a in command]

    def _spawn(self, command):
        proc = subprocess.run([sys.executable, "-m", "zetali", *self._argv(command)],
                              env=self.env, cwd=self.workdir, capture_output=True,
                              text=True, timeout=120)
        return proc.returncode, proc.stdout

    def _call(self, command):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = zetali.cli.main(self._argv(command))
        return code, out.getvalue()

    def run(self, job):
        step = self._call if self.in_process else self._spawn
        return [step(command) for command in job]

    def check(self, job, result):
        digest = hashlib.sha256()
        for command, (code, text) in zip(job, result):
            digest.update(text.encode())
            if code != 0:
                return f"{command[0]} exited {code}", digest.hexdigest()
            first = self.outputs.setdefault(command, text)
            if first != text:
                return f"{' '.join(command)}: output differs on repeat", digest.hexdigest()
            failure = self._check_output(command, text)
            if failure:
                return f"{command[0]}: {failure}", digest.hexdigest()
        return None, digest.hexdigest()

    def _check_output(self, command, text):
        kind = command[0]
        if kind == "verify":
            rows = _csv_rows(text)
            if len(rows) < 9 or any(row[-1] != "pass" for row in rows):
                return "a check did not pass"
            return None
        if kind == "li":
            explicit = "explicit" in command
            for n, value in _csv_rows(text):
                n, value = int(n), _dec(value)
                refs = [self.binomial[n]]
                if not explicit and n <= self.explicit_n:
                    refs.append(self.explicit[n])
                if any(_rel(ref, value) >= LAMBDA_TOL for ref in refs):
                    return f"lambda_tilde_{n} disagrees with the other route"
            return None
        if kind == "histogram":
            n = int(command[2])
            values = [_dec(v) for _, v in _csv_rows(text)]
            if len(values) != summatory_partition_count(n):
                return "term count"
            with mp.workprec(CHECK_BITS):
                if _rel(self.binomial[n], -mp.fsum(values)) >= LAMBDA_TOL:
                    return "term sum != binomial"
            return None
        if kind == "expand":
            obj = json.loads(text)
            n = obj["n"]
            if len(obj["terms"]) != summatory_partition_count(n):
                return "term count"
            for term in obj["terms"]:
                num, _, den = term["coeff"].partition("/")
                if den != "1" or (int(num) > 0) != (sum(term["k"]) % 2 == 1):
                    return "integrality or sign law"
            return None
        # stieltjes: printed values, and the full-precision file if written
        if "--format" in command:
            values = json.loads(text)["values"]
        else:
            values = [v for _, v in _csv_rows(text)]
        tables = [values]
        if TABLE in command:
            tables.append(json.loads(Path(self._argv(command)[-1]).read_text())["values"])
        for printed in tables:
            for n, value in enumerate(printed):
                with mp.workprec(CHECK_BITS):
                    if abs(_dec(value) - self.gamma[n]) >= mp.mpf(2) ** -190:
                        return f"gamma_{n} disagrees with the reference"
        return None

    def close(self):
        for path in sorted(self.workdir.glob("*")):
            path.unlink()
        if self.workdir.exists():
            self.workdir.rmdir()


WORKLOADS = {w.name: w for w in (PartitionSums, Cli)}
