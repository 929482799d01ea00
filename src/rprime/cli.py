"""Command-line front end.

Subcommands: tables, count, vmr, direct, scan, fit, exponents, zeta.
Results go to stdout or --out; scan emits plot-ready CSV/JSON records
(never plots).  Slope-fit summaries accompanying a CSV scan go to
stderr so the record stream stays pipeable; JSON output embeds them.

Every computation is deterministic, so identical invocations produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import __version__
from .analytic import (
    DEFAULT_PRIME_CAP,
    abelian_exponent,
    dedekind_zeta_with_cutoff,
    error_term_exponent,
    sittinger_exponent,
)
from .errors import RPrimeError
from .fields import FieldSpec, load_field_file
from .ideals import count_rprime_direct
from .scan import ScanRecord, SlopeFit, fit_slope, run_error_scan
from .sieve import (
    build_tables,
    count_rprime_mobius,
    ideal_count,
    load_table,
    save_table,
)

CSV_HEADER = "x,V,main,E,log10_x,log10_absE"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--field", required=True, help="field-spec document (JSON)")
    _add_output(parser)


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write results to this file instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_table_source(parser: argparse.ArgumentParser) -> None:
    # a cache fixes its own N, so the two sources exclude each other
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--N", type=int, default=10**6, help="table cap (default 1e6)")
    source.add_argument("--tables", dest="tables_file", help="reuse a table cache file")


def _add_zeta_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=1e-9, help="zeta tolerance (default 1e-9)")
    parser.add_argument(
        "--prime-cap",
        type=int,
        default=DEFAULT_PRIME_CAP,
        help="largest prime the zeta Euler product may use",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rprime",
        description="Count relatively r-prime tuples of ideals and measure error exponents.",
    )
    parser.add_argument("--version", action="version", version=f"rprime {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="build a coefficient table and write a binary cache")
    p.add_argument("--field", required=True, help="field-spec document (JSON)")
    p.add_argument("--N", type=int, default=10**6, help="table cap (default 1e6)")
    p.add_argument("--out", required=True, help="table cache file to write")

    p = sub.add_parser("count", help="number of ideals of norm <= x")
    _add_common(p)
    _add_table_source(p)
    p.add_argument("--x", type=float, required=True)

    p = sub.add_parser("vmr", help="relatively r-prime m-tuple count (Mobius identity)")
    _add_common(p)
    _add_table_source(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("direct", help="the same count from the enumeration oracle")
    _add_common(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("scan", help="error-term scan over a geometric x-grid")
    _add_common(p)
    _add_table_source(p)
    _add_zeta_options(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--xmin", type=float, required=True)
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--fit", action="store_true", help="also fit a log-log slope")

    p = sub.add_parser("fit", help="fit a slope to a previously written scan CSV")
    p.add_argument("--in", dest="infile", required=True, help="scan CSV to read")
    _add_output(p)

    p = sub.add_parser("exponents", help="theoretical error exponents")
    p.add_argument("--n", type=int, required=True, help="field degree")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument(
        "--law",
        choices=("improved", "sittinger", "abelian"),
        default="improved",
        help="which exponent table to read (default: improved)",
    )
    _add_output(p)

    p = sub.add_parser("zeta", help="evaluate the zeta function of the field")
    _add_common(p)
    _add_zeta_options(p)
    p.add_argument("--s", type=float, required=True)

    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _get_table(field: FieldSpec, args: argparse.Namespace):
    if args.tables_file:
        return load_table(field, args.tables_file)
    return build_tables(field, args.N)


def _scalar_output(args: argparse.Namespace, command: str, payload: dict) -> str:
    if args.format == "json":
        doc = {"command": command, **payload, "tool_version": __version__}
        return json.dumps(doc, indent=2) + "\n"
    return f"{payload['value']}\n"


def _record_csv(rec: ScanRecord) -> str:
    tail = "" if rec.log10_absE is None else repr(rec.log10_absE)
    return f"{rec.x!r},{rec.V},{rec.main!r},{rec.E!r},{rec.log10_x!r},{tail}"


def parse_scan_csv(text: str) -> list[ScanRecord]:
    """Rebuild scan records from the CSV schema this tool writes."""
    lines = [line for line in text.split("\n") if line]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"expected header {CSV_HEADER!r}")
    records = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 6:
            raise ValueError(f"malformed scan row: {line!r}")
        records.append(
            ScanRecord(
                x=float(parts[0]),
                V=int(parts[1]),
                main=float(parts[2]),
                E=float(parts[3]),
                log10_x=float(parts[4]),
                log10_absE=float(parts[5]) if parts[5] else None,
            )
        )
    return records


def _fit_summary_text(fit: SlopeFit) -> str:
    return (
        f"slope {fit.slope!r}\nintercept {fit.intercept!r}\n"
        f"r_squared {fit.r_squared!r}\npoints_used {fit.points_used}\n"
    )


def _cmd_tables(args: argparse.Namespace) -> int:
    field = load_field_file(args.field)
    table = build_tables(field, args.N)
    save_table(table, args.out)
    sys.stdout.write(f"wrote table cache for {field.name} up to N={args.N}: {args.out}\n")
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    field = load_field_file(args.field)
    table = _get_table(field, args)
    value = ideal_count(table, args.x)
    _emit(_scalar_output(args, "count", {"field": field.name, "x": args.x, "value": value}), args.out)
    return 0


def _cmd_vmr(args: argparse.Namespace) -> int:
    field = load_field_file(args.field)
    table = _get_table(field, args)
    value = count_rprime_mobius(table, args.x, args.m, args.r)
    _emit(
        _scalar_output(
            args,
            "vmr",
            {"field": field.name, "x": args.x, "m": args.m, "r": args.r, "value": value},
        ),
        args.out,
    )
    return 0


def _cmd_direct(args: argparse.Namespace) -> int:
    field = load_field_file(args.field)
    value = count_rprime_direct(field, args.x, args.m, args.r)
    _emit(
        _scalar_output(
            args,
            "direct",
            {"field": field.name, "x": args.x, "m": args.m, "r": args.r, "value": value},
        ),
        args.out,
    )
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    field = load_field_file(args.field)
    table = _get_table(field, args)
    records = run_error_scan(
        field,
        args.m,
        args.r,
        args.xmin,
        args.xmax,
        args.points,
        table_N=table.N,
        tol=args.tol,
        table=table,
        prime_cap=args.prime_cap,
    )
    usable = [rec for rec in records if rec.log10_absE is not None]
    zero_count = len(records) - len(usable)
    if args.format == "json":
        doc = {
            "records": [asdict(rec) for rec in records],
            "metadata": {
                "field": field.name,
                "m": args.m,
                "r": args.r,
                "N": table.N,
                "tool_version": __version__,
            },
        }
        if args.fit:
            doc["zero_error_points"] = zero_count
            doc["fit"] = asdict(fit_slope(records)) if len(usable) >= 2 else None
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        body = CSV_HEADER + "\n" + "".join(_record_csv(rec) + "\n" for rec in records)
        _emit(body, args.out)
        if args.fit:
            if len(usable) >= 2:
                summary = _fit_summary_text(fit_slope(records))
                summary += f"zero_error_points {zero_count}\n"
            else:
                summary = (
                    f"no fit: {len(usable)} points with nonzero E "
                    f"(zero_error_points {zero_count})\n"
                )
            sys.stderr.write(summary)
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    with open(args.infile, "r", encoding="utf-8") as handle:
        records = parse_scan_csv(handle.read())
    fit = fit_slope(records)
    if args.format == "json":
        _emit(json.dumps({"fit": asdict(fit)}, indent=2) + "\n", args.out)
    else:
        _emit(_fit_summary_text(fit), args.out)
    return 0


def _cmd_exponents(args: argparse.Namespace) -> int:
    law = args.law
    if law == "improved":
        result = error_term_exponent(args.n, args.m, args.r)
    elif law == "sittinger":
        result = sittinger_exponent(args.n, args.m, args.r)
    else:
        result = abelian_exponent(args.n, args.m, args.r)
    if args.format == "json":
        doc = {
            "law": law,
            "n": args.n,
            "m": args.m,
            "r": args.r,
            "exponent": str(result.exponent),
            "log_power": str(result.log_power),
            "epsilon_flag": result.epsilon_flag,
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        _emit(
            f"exponent {result.exponent}\nlog_power {result.log_power}\n"
            f"epsilon_flag {str(result.epsilon_flag).lower()}\n",
            args.out,
        )
    return 0


def _cmd_zeta(args: argparse.Namespace) -> int:
    field = load_field_file(args.field)
    value, cutoff, certified = dedekind_zeta_with_cutoff(
        field, args.s, args.tol, prime_cap=args.prime_cap
    )
    _emit(
        _scalar_output(
            args,
            "zeta",
            {
                "field": field.name,
                "s": args.s,
                "value": value,
                "euler_cutoff": cutoff,
                "certified_error": certified,
            },
        ),
        args.out,
    )
    return 0


_HANDLERS = {
    "tables": _cmd_tables,
    "count": _cmd_count,
    "vmr": _cmd_vmr,
    "direct": _cmd_direct,
    "scan": _cmd_scan,
    "fit": _cmd_fit,
    "exponents": _cmd_exponents,
    "zeta": _cmd_zeta,
}


def cli_dispatch(argv: list[str]) -> int:
    """Run one subcommand; 0 on success, nonzero with a diagnostic."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (RPrimeError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
