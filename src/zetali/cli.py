"""Command-line front end.

Subcommands: ``stieltjes``, ``eta``, ``gamma-invert``, ``li``,
``histogram``, ``expand``, ``verify``.  Each subcommand computes one
output object and hands it to :func:`zetali.numerics.render`, the single
writer of CSV and JSON text (the JSON shapes are described by
``schemas/cli_output.schema.json`` shipped inside the package).  All
output is deterministic: byte-identical across runs with identical flags.

Exit codes: 0 success, 1 usage or I/O error (including failed
verification, a flag the subcommand does not use, such as ``--prec`` on
``expand`` or ``--guard`` on ``verify``, ``--table`` with ``--method
contour``, which starts from no table, and ``--guard N`` with
``stieltjes --table``, which builds nothing), 2 precision infeasible.

Values print at ceil(target_bits * 0.302) significant digits.  The one
exception is ``stieltjes --out``: the file written there is a
full-working-precision table with one digit more (loadable back bit for
bit), while stdout shows target-precision digits.

The library picks no precision; this module does.  ``--prec`` is the
target, and ``--guard auto`` (the default) adds max(64, 2 n_max) guard
bits for ``stieltjes``, ``eta`` and ``gamma-invert``, whose tables feed
binomial sums that lose bits about linearly in the index, and
max(64, 10 n) bits for ``li`` and ``histogram``
(:func:`~zetali.li.lambda_context`).  ``--guard N`` sets N bits instead;
with ``--table``, the guard sets the working precision of the sums that
``eta``, ``gamma-invert``, ``li`` and ``histogram`` form from the table.
``verify`` takes no ``--guard``: it fixes its own contexts.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import mpmath as mp

from .coefficients import (
    eta_contour,
    eta_explicit_table,
    eta_from_gamma_recurrence,
    eta_series_oracle,
    expand_eta_symbolic,
    expand_gamma_symbolic,
    gamma_explicit_table,
)
from .errors import PrecisionInfeasibleError
from .li import (
    expand_lambda_symbolic,
    histogram,
    lambda_context,
    lambda_tilde_binomial,
    lambda_tilde_explicit_table,
    lambda_trend,
    term_distribution,
)
from .numerics import PrecisionContext, render, to_decimal
from .stieltjes import (
    CoefficientTable,
    _require,
    compute_gamma_table,
    gamma_contour,
    load_table,
    render_table,
)
from .verify import run_verification

__all__ = ["build_parser", "main", "output_schema"]


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, reserving 2 for precision-infeasible
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _guard(text: str):
    if text == "auto":
        return "auto"
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("guard must be 'auto' or nonnegative")
    return value


def _context(args, auto: PrecisionContext) -> PrecisionContext:
    """``auto`` under ``--guard auto``, else ``--prec`` with ``--guard`` bits."""
    return auto if args.guard == "auto" else PrecisionContext(args.prec, args.guard)


def _table_context(args) -> PrecisionContext:
    """The context of ``stieltjes``, ``eta`` and ``gamma-invert``: under
    ``--guard auto``, max(64, 2 n_max) guard bits."""
    return _context(args, PrecisionContext(args.prec, max(64, 2 * args.n_max)))


def _emit(args, obj: dict, meta_keys, header: str, file_text: str | None = None) -> int:
    """Write the rendered output to ``--out`` (or ``file_text`` there
    instead, when given) and then to stdout."""
    text = render(args.format, obj, meta_keys, header)
    # the file first: a run that cannot write it prints nothing
    if args.out:
        Path(args.out).write_text(text if file_text is None else file_text,
                                  encoding="utf-8")
    sys.stdout.write(text)
    return 0


def _emit_values(args, meta: dict, values, file_text: str | None = None) -> int:
    """Emit a table as ``meta``, ``n_max`` and one ``n,value`` row per index."""
    obj = {**meta, "n_max": len(values) - 1,
           "values": [to_decimal(v, args.prec) for v in values]}
    return _emit(args, obj, tuple(meta), "n,value", file_text)


def _gamma_source(args, n_needed: int, ctx: PrecisionContext) -> CoefficientTable:
    """Load the table given by --table (a classic file arrives converted)
    cut to index ``n_needed``, or compute one."""
    if args.table:
        table = load_table(args.table)
        _require(table, "gamma", n_needed)
        if table.precision_bits < args.prec:
            raise PrecisionInfeasibleError(
                f"table {args.table} carries {table.precision_bits} bits, "
                f"less than --prec {args.prec}")
        return replace(table, values=table.values[:n_needed + 1])
    return compute_gamma_table(n_needed, ctx)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_stieltjes(args) -> int:
    # a loaded table is printed, not built, so no guard could act on it
    if args.table and args.guard != "auto":
        raise ValueError("--guard cannot be combined with --table on stieltjes")
    ctx = _table_context(args)
    if args.method == "contour":
        table = gamma_contour(args.n_max, ctx)
    else:
        table = _gamma_source(args, args.n_max, ctx)
    # the --out file is a full-precision, loadable table
    file_text = render_table(table, args.format) if args.out else None
    return _emit_values(args, {"convention": "paper",
                               "precision_bits": table.precision_bits},
                        table.values, file_text)


def _cmd_eta(args) -> int:
    ctx = _table_context(args)
    if args.method == "contour":
        table = eta_contour(args.n_max, ctx)
    else:
        route = {"recurrence": eta_from_gamma_recurrence, "series": eta_series_oracle,
                 "explicit": eta_explicit_table}[args.method]
        table = route(_gamma_source(args, args.n_max, ctx), args.n_max, ctx)
    return _emit_values(args, {"provenance": table.provenance,
                               "precision_bits": table.precision_bits}, table.values)


def _cmd_gamma_invert(args) -> int:
    ctx = _table_context(args)
    eta = eta_from_gamma_recurrence(_gamma_source(args, args.n_max, ctx), args.n_max, ctx)
    gamma = gamma_explicit_table(eta, args.n_max, ctx)
    return _emit_values(args, {"convention": "paper", "precision_bits": gamma.precision_bits},
                        gamma.values)


def _cmd_li(args) -> int:
    n_max = args.n_max
    ctx = _context(args, lambda_context(args.prec, n_max))
    gamma = _gamma_source(args, max(0, n_max - 1), ctx)
    if args.method == "binomial" and n_max > 0:
        # the eta table for the top index serves every smaller index
        eta = eta_from_gamma_recurrence(gamma, n_max - 1, ctx)
        values = [lambda_tilde_binomial(eta, n, ctx) for n in range(1, n_max + 1)]
    else:
        values = lambda_tilde_explicit_table(gamma, n_max, ctx)
    records = []
    for n, osc in enumerate(values, 1):
        row = {"n": n, "lambda_tilde": to_decimal(osc, args.prec)}
        if args.with_trend:
            # the estimate is the exact sum; it rounds only when printed
            trend = lambda_trend(n, gamma[0], ctx)
            row["trend"] = to_decimal(trend, args.prec)
            row["estimate"] = to_decimal(mp.fadd(trend, osc, exact=True), args.prec)
        records.append(row)
    obj = {"method": args.method,
           "precision_bits": min(ctx.working_bits, gamma.precision_bits),
           "n_max": n_max, "with_trend": bool(args.with_trend), "records": records}
    header = "n,lambda_tilde,trend,estimate" if args.with_trend else "n,lambda_tilde"
    return _emit(args, obj, ("method", "precision_bits"), header)


def _cmd_histogram(args) -> int:
    ctx = _context(args, lambda_context(args.prec, args.n))
    dist = term_distribution(_gamma_source(args, args.n - 1, ctx), args.n, ctx)
    obj = {"n": args.n, "count": len(dist)}
    if args.raw:
        obj["values"] = [to_decimal(v, args.prec) for v in dist.term_values]
        return _emit(args, obj, ("n", "count"), "term_index,value")
    obj["bins"] = [{"lower": to_decimal(lo, args.prec),
                    "upper": to_decimal(hi, args.prec),
                    "count": c} for lo, hi, c in histogram(dist, args.bins, ctx)]
    return _emit(args, obj, ("n", "count"), "bin_lower,bin_upper,count")


def _cmd_expand(args) -> int:
    expand = {"eta": expand_eta_symbolic, "gamma": expand_gamma_symbolic,
              "lambda": expand_lambda_symbolic}[args.target]
    return _emit(args, expand(args.n).to_json_obj(), ("target", "n"), "k,coeff")


def _cmd_verify(args) -> int:
    checks = run_verification(n_max=args.n_max, target_bits=args.prec)
    ok = all(c["status"] == "pass" for c in checks)
    obj = {"n_max": args.n_max, "target_bits": args.prec, "passed": ok,
           "checks": checks}
    _emit(args, obj, ("n_max", "target_bits"),
          "check,scope,max_discrepancy,threshold,status")
    return 0 if ok else 1


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zetali",
        description="Stieltjes constants, eta coefficients, and the "
                    "oscillating part of the Li sequence, with "
                    "cross-verified, reproducible output.")
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared between subcommands, each declared once and given only
    # to the subcommands that use it: expand is exact and takes no
    # precision, and verify fixes its own 64-bit guard
    prec = argparse.ArgumentParser(add_help=False)
    prec.add_argument("--prec", type=_positive_int, default=192,
                      help="target precision in bits (default 192)")
    guard = argparse.ArgumentParser(add_help=False)
    guard.add_argument("--guard", type=_guard, default="auto",
                       help="guard bits, or 'auto' for the per-command policy")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    output.add_argument("--out", metavar="PATH", default=None,
                        help="also write the output to PATH")
    n_max = argparse.ArgumentParser(add_help=False)
    n_max.add_argument("--n-max", dest="n_max", type=_nonneg_int, default=8,
                       help="highest index to compute (default 8)")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--table", metavar="PATH", default=None,
                       help="gamma table to start from (computed if omitted)")

    p = sub.add_parser("stieltjes", parents=[prec, guard, output, n_max, table],
                       help="table of Stieltjes constants")
    p.add_argument("--method", choices=("em", "contour"), default="em",
                   help="'em' (production Euler-Maclaurin) or 'contour' "
                        "(Cauchy coefficients of zeta; independent check)")
    p.set_defaults(func=_cmd_stieltjes)

    p = sub.add_parser("eta", parents=[prec, guard, output, n_max, table],
                       help="table of eta coefficients")
    p.add_argument("--method",
                   choices=("recurrence", "explicit", "series", "contour"),
                   default="recurrence",
                   help="route; 'contour' starts from zeta itself, not "
                        "from a gamma table")
    p.set_defaults(func=_cmd_eta)

    p = sub.add_parser("gamma-invert", parents=[prec, guard, output, n_max, table],
                       help="round-trip gamma -> eta -> gamma via the "
                            "explicit inversion")
    p.set_defaults(func=_cmd_gamma_invert)

    p = sub.add_parser("li", parents=[prec, guard, output, n_max, table],
                       help="oscillating part of the Li sequence")
    p.add_argument("--method", choices=("binomial", "explicit"),
                   default="binomial", help="oscillation route")
    p.add_argument("--with-trend", dest="with_trend", action="store_true",
                   help="also print the asymptotic trend and trend+oscillation")
    p.set_defaults(func=_cmd_li)

    p = sub.add_parser("histogram", parents=[prec, guard, output, table],
                       help="distribution of the oscillation's partition-sum terms")
    p.add_argument("--n", type=_positive_int, required=True,
                   help="oscillation index")
    shape = p.add_mutually_exclusive_group()
    shape.add_argument("--bins", type=_positive_int, default=40,
                       help="number of equal-width bins (default 40)")
    shape.add_argument("--raw", action="store_true",
                       help="emit the raw term values instead of binning")
    p.set_defaults(func=_cmd_histogram)

    p = sub.add_parser("expand", parents=[output],
                       help="exact symbolic expansion of one coefficient")
    p.add_argument("--target", choices=("eta", "gamma", "lambda"),
                   required=True, help="which family to expand")
    p.add_argument("--n", type=_positive_int, required=True,
                   help="expansion index")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("verify", parents=[prec, output, n_max],
                       help="run the cross-method invariant suite "
                            "(exit 0 iff every check passes)")
    p.set_defaults(func=_cmd_verify)

    return parser


def output_schema() -> dict:
    """The JSON Schema describing every JSON output of this CLI."""
    from importlib import resources

    text = resources.files("zetali").joinpath(
        "schemas/cli_output.schema.json").read_text(encoding="utf-8")
    return json.loads(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the contour routes start from no table
        if getattr(args, "method", None) == "contour" and args.table:
            raise ValueError("--table cannot be combined with --method contour")
        return args.func(args)
    except PrecisionInfeasibleError as exc:
        print(f"zetali: precision infeasible: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"zetali: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
