"""Command-line front end.

Subcommands: ``stieltjes``, ``eta``, ``gamma-invert``, ``li``,
``histogram``, ``expand``, ``verify``.  All output is deterministic
(byte-identical across runs with identical flags) and available as CSV
or JSON; the JSON shapes are described by ``schemas/cli_output.schema.json``
shipped inside the package.

Exit codes: 0 success, 1 usage or I/O error (including failed
verification), 2 precision infeasible.

Values print at ceil(target_bits * 0.302) significant digits.  The one
exception is ``stieltjes --out``: the file written there is a
full-working-precision table (loadable back with no digit loss), while
stdout shows target-precision digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .coefficients import (
    eta_from_gamma_explicit,
    eta_from_gamma_recurrence,
    eta_limit_definition,
    eta_series_oracle,
    expand_eta_symbolic,
    expand_gamma_symbolic,
    gamma_from_eta_explicit,
    EtaTable,
    PROVENANCE_EXPLICIT,
    PROVENANCE_LIMIT_DEFINITION,
)
from .errors import PrecisionInfeasibleError, TableFormatError
from .li import (
    expand_lambda_symbolic,
    histogram,
    lambda_estimate,
    lambda_guard_bits,
    term_distribution,
)
from .numerics import PrecisionContext, default_guard_bits, to_decimal
from .stieltjes import (
    CONVENTION_PAPER,
    GammaTable,
    compute_gamma_table,
    convert_convention,
    gamma_limit_definition,
    load_table,
    render_table,
)
from .verify import run_verification

__all__ = ["RunConfig", "build_parser", "main", "output_schema"]


@dataclass(frozen=True)
class RunConfig:
    """Resolved common flags; fully deterministic (no seeds anywhere)."""

    precision_target_bits: int = 192
    guard_bits: int | str = "auto"
    n_max: int = 8
    output_format: str = "csv"
    table_path: Optional[str] = None

    def resolve_context(self, policy_guard: int) -> PrecisionContext:
        guard = policy_guard if self.guard_bits == "auto" else int(self.guard_bits)
        return PrecisionContext(self.precision_target_bits, guard)


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


def _config(args) -> RunConfig:
    return RunConfig(
        precision_target_bits=args.prec,
        guard_bits=args.guard,
        n_max=getattr(args, "n_max", 8),
        output_format=args.format,
        table_path=getattr(args, "table", None),
    )


def _emit(text: str, out_path) -> None:
    sys.stdout.write(text)
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")


def _gamma_source(config: RunConfig, n_needed: int, ctx: PrecisionContext) -> GammaTable:
    """Load the table given by --table (converting to the working
    convention if needed) or compute one."""
    if config.table_path:
        table = load_table(config.table_path)
        if table.convention != CONVENTION_PAPER:
            table = convert_convention(table, CONVENTION_PAPER)
        if table.n_max < n_needed:
            raise ValueError(
                f"table {config.table_path} too short: need index {n_needed}")
        if table.precision_bits < config.precision_target_bits:
            raise PrecisionInfeasibleError(
                f"table {config.table_path} carries {table.precision_bits} bits, "
                f"less than --prec {config.precision_target_bits}")
        return table
    return compute_gamma_table(n_needed, ctx)


def _rows_csv(meta: dict, header: str, rows) -> str:
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(header)
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_stieltjes(args) -> int:
    config = _config(args)
    ctx = config.resolve_context(default_guard_bits(config.n_max))
    digits_bits = config.precision_target_bits
    if args.method == "limit":
        if args.x_max is None:
            raise ValueError("--method limit requires --x-max")
        values = tuple(gamma_limit_definition(n, args.x_max, ctx)
                       for n in range(config.n_max + 1))
        table = GammaTable(CONVENTION_PAPER, config.n_max, values, ctx.working_bits)
    else:
        table = _gamma_source(config, config.n_max, ctx)
    printed = [to_decimal(v, digits_bits) for v in table.values]
    if config.output_format == "json":
        text = _json_text({
            "convention": table.convention,
            "precision_bits": table.precision_bits,
            "n_max": table.n_max,
            "values": printed,
        })
    else:
        text = _rows_csv(
            {"convention": table.convention, "precision_bits": table.precision_bits},
            "n,value", (f"{n},{v}" for n, v in enumerate(printed)))
    sys.stdout.write(text)
    if args.out:
        # full-precision, loadable table file
        Path(args.out).write_text(render_table(table, config.output_format),
                                  encoding="utf-8")
    return 0


def _eta_table(config: RunConfig, args, ctx: PrecisionContext) -> EtaTable:
    method = args.method
    if method == "limit":
        if args.x_max is None:
            raise ValueError("--method limit requires --x-max")
        values = tuple(eta_limit_definition(n, args.x_max, ctx)
                       for n in range(config.n_max + 1))
        return EtaTable(config.n_max, values, ctx.working_bits,
                        PROVENANCE_LIMIT_DEFINITION)
    gamma = _gamma_source(config, config.n_max, ctx)
    if method == "recurrence":
        return eta_from_gamma_recurrence(gamma, config.n_max, ctx)
    if method == "series":
        return eta_series_oracle(gamma, config.n_max, ctx)
    # explicit
    values = tuple(eta_from_gamma_explicit(gamma, n + 1, ctx)
                   for n in range(config.n_max + 1))
    return EtaTable(config.n_max, values, ctx.working_bits, PROVENANCE_EXPLICIT)


def _cmd_eta(args) -> int:
    config = _config(args)
    ctx = config.resolve_context(default_guard_bits(config.n_max))
    table = _eta_table(config, args, ctx)
    printed = [to_decimal(v, config.precision_target_bits) for v in table.values]
    if config.output_format == "json":
        text = _json_text({
            "provenance": table.provenance,
            "precision_bits": table.precision_bits,
            "n_max": table.n_max,
            "values": printed,
        })
    else:
        text = _rows_csv(
            {"provenance": table.provenance, "precision_bits": table.precision_bits},
            "n,value", (f"{n},{v}" for n, v in enumerate(printed)))
    _emit(text, args.out)
    return 0


def _cmd_gamma_invert(args) -> int:
    config = _config(args)
    ctx = config.resolve_context(default_guard_bits(config.n_max))
    gamma = _gamma_source(config, config.n_max, ctx)
    eta = eta_from_gamma_recurrence(gamma, config.n_max, ctx)
    values = tuple(gamma_from_eta_explicit(eta, n + 1, ctx)
                   for n in range(config.n_max + 1))
    printed = [to_decimal(v, config.precision_target_bits) for v in values]
    if config.output_format == "json":
        text = _json_text({
            "convention": CONVENTION_PAPER,
            "precision_bits": ctx.working_bits,
            "n_max": config.n_max,
            "values": printed,
        })
    else:
        text = _rows_csv(
            {"convention": CONVENTION_PAPER, "precision_bits": ctx.working_bits},
            "n,value", (f"{n},{v}" for n, v in enumerate(printed)))
    _emit(text, args.out)
    return 0


def _cmd_li(args) -> int:
    config = _config(args)
    ctx = config.resolve_context(lambda_guard_bits(config.n_max))
    gamma = _gamma_source(config, max(0, config.n_max - 1), ctx)
    digits_bits = config.precision_target_bits
    records = []
    for n in range(1, config.n_max + 1):
        rec = lambda_estimate(gamma, n, ctx, method=args.method)
        row = {"n": n, "lambda_tilde": to_decimal(rec.lambda_tilde, digits_bits)}
        if args.with_trend:
            row["trend"] = to_decimal(rec.trend, digits_bits)
            row["estimate"] = to_decimal(rec.estimate, digits_bits)
        records.append(row)
    if config.output_format == "json":
        text = _json_text({
            "method": args.method,
            "precision_bits": ctx.working_bits,
            "n_max": config.n_max,
            "with_trend": bool(args.with_trend),
            "records": records,
        })
    else:
        if args.with_trend:
            header = "n,lambda_tilde,trend,estimate"
            rows = (f"{r['n']},{r['lambda_tilde']},{r['trend']},{r['estimate']}"
                    for r in records)
        else:
            header = "n,lambda_tilde"
            rows = (f"{r['n']},{r['lambda_tilde']}" for r in records)
        text = _rows_csv(
            {"method": args.method, "precision_bits": ctx.working_bits},
            header, rows)
    _emit(text, args.out)
    return 0


def _cmd_histogram(args) -> int:
    config = _config(args)
    ctx = config.resolve_context(lambda_guard_bits(args.n))
    gamma = _gamma_source(config, args.n - 1, ctx)
    dist = term_distribution(gamma, args.n, ctx)
    digits_bits = config.precision_target_bits
    if args.raw:
        values = [to_decimal(v, digits_bits) for v in dist.term_values]
        if config.output_format == "json":
            text = _json_text({"n": args.n, "count": len(values), "values": values})
        else:
            text = _rows_csv({"n": args.n, "count": len(values)},
                             "term_index,value",
                             (f"{i},{v}" for i, v in enumerate(values)))
    else:
        rows = histogram(dist, args.bins, ctx)
        if config.output_format == "json":
            text = _json_text({
                "n": args.n,
                "count": len(dist),
                "bins": [{"lower": to_decimal(lo, digits_bits),
                          "upper": to_decimal(hi, digits_bits),
                          "count": c} for lo, hi, c in rows],
            })
        else:
            text = _rows_csv({"n": args.n, "count": len(dist)},
                             "bin_lower,bin_upper,count",
                             (f"{to_decimal(lo, digits_bits)},"
                              f"{to_decimal(hi, digits_bits)},{c}"
                              for lo, hi, c in rows))
    _emit(text, args.out)
    return 0


def _cmd_expand(args) -> int:
    target = args.target
    if target == "eta":
        exp = expand_eta_symbolic(args.n)
    elif target == "gamma":
        exp = expand_gamma_symbolic(args.n)
    else:
        exp = expand_lambda_symbolic(args.n)
    if args.format == "json":
        text = _json_text(exp.to_json_obj())
    else:
        obj = exp.to_json_obj()
        text = _rows_csv({"target": obj["target"], "n": obj["n"]},
                         "k,coeff",
                         (f"{' '.join(map(str, t['k']))},{t['coeff']}"
                          for t in obj["terms"]))
    _emit(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    checks = run_verification(n_max=args.n_max, target_bits=args.prec)
    ok = all(c.passed for c in checks)
    if args.format == "json":
        text = _json_text({
            "n_max": args.n_max,
            "target_bits": args.prec,
            "passed": ok,
            "checks": [{
                "name": c.name,
                "scope": c.scope,
                "max_discrepancy": c.max_discrepancy,
                "threshold": c.threshold,
                "status": "pass" if c.passed else "fail",
            } for c in checks],
        })
    else:
        text = _rows_csv(
            {"n_max": args.n_max, "target_bits": args.prec},
            "check,scope,max_discrepancy,threshold,status",
            (f"{c.name},{c.scope},{c.max_discrepancy},{c.threshold},"
             f"{'pass' if c.passed else 'fail'}" for c in checks))
    _emit(text, args.out)
    return 0 if ok else 1


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _add_common(parser, n_max=True):
    parser.add_argument("--prec", type=_positive_int, default=192,
                        help="target precision in bits (default 192)")
    parser.add_argument("--guard", type=_guard, default="auto",
                        help="guard bits, or 'auto' for the per-command policy")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="also write the output to PATH")
    if n_max:
        parser.add_argument("--n-max", dest="n_max", type=_nonneg_int, default=8,
                            help="highest index to compute (default 8)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zetali",
        description="Stieltjes constants, eta coefficients, and the "
                    "oscillating part of the Li sequence, with "
                    "cross-verified, reproducible output.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stieltjes", help="table of Stieltjes constants")
    _add_common(p)
    p.add_argument("--table", metavar="PATH", default=None,
                   help="load this table instead of computing one")
    p.add_argument("--method", choices=("em", "limit"), default="em",
                   help="'em' (production Euler-Maclaurin) or 'limit' "
                        "(direct truncated limit; slow, sanity check only)")
    p.add_argument("--x-max", dest="x_max", type=_positive_int, default=None,
                   help="truncation point for --method limit")
    p.set_defaults(func=_cmd_stieltjes)

    p = sub.add_parser("eta", help="table of eta coefficients")
    _add_common(p)
    p.add_argument("--table", metavar="PATH", default=None,
                   help="gamma table to start from (computed if omitted)")
    p.add_argument("--method",
                   choices=("recurrence", "explicit", "series", "limit"),
                   default="recurrence",
                   help="route; 'limit' is the slow truncated limit "
                        "(sanity check only) and requires --x-max")
    p.add_argument("--x-max", dest="x_max", type=_positive_int, default=None,
                   help="truncation point for --method limit")
    p.set_defaults(func=_cmd_eta)

    p = sub.add_parser("gamma-invert",
                       help="round-trip gamma -> eta -> gamma via the "
                            "explicit inversion")
    _add_common(p)
    p.add_argument("--table", metavar="PATH", default=None,
                   help="gamma table to start from (computed if omitted)")
    p.set_defaults(func=_cmd_gamma_invert)

    p = sub.add_parser("li", help="oscillating part of the Li sequence")
    _add_common(p)
    p.add_argument("--table", metavar="PATH", default=None,
                   help="gamma table to start from (computed if omitted)")
    p.add_argument("--method", choices=("binomial", "explicit"),
                   default="binomial", help="oscillation route")
    p.add_argument("--with-trend", dest="with_trend", action="store_true",
                   help="also print the asymptotic trend and trend+oscillation")
    p.set_defaults(func=_cmd_li)

    p = sub.add_parser("histogram",
                       help="distribution of the oscillation's partition-sum terms")
    _add_common(p, n_max=False)
    p.add_argument("--table", metavar="PATH", default=None,
                   help="gamma table to start from (computed if omitted)")
    p.add_argument("--n", type=_positive_int, required=True,
                   help="oscillation index")
    p.add_argument("--bins", type=_positive_int, default=40,
                   help="number of equal-width bins (default 40)")
    p.add_argument("--raw", action="store_true",
                   help="emit the raw term values instead of binning")
    p.set_defaults(func=_cmd_histogram)

    p = sub.add_parser("expand",
                       help="exact symbolic expansion of one coefficient")
    _add_common(p, n_max=False)
    p.add_argument("--target", choices=("eta", "gamma", "lambda"),
                   required=True, help="which family to expand")
    p.add_argument("--n", type=_positive_int, required=True,
                   help="expansion index")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("verify",
                       help="run the cross-method invariant suite "
                            "(exit 0 iff every check passes)")
    _add_common(p)
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
        return args.func(args)
    except PrecisionInfeasibleError as exc:
        print(f"zetali: precision infeasible: {exc}", file=sys.stderr)
        return 2
    except (TableFormatError, OSError, ValueError) as exc:
        print(f"zetali: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
