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
from collections.abc import Callable
from dataclasses import asdict, fields

from . import __version__
from .analytic import (
    abelian_exponent,
    dedekind_zeta_with_cutoff,
    error_term_exponent,
    sittinger_exponent,
    zeta_route,
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

# the scan CSV's columns are ScanRecord's fields, read back by their annotation
_READERS = {"float": float, "int": int, "float | None": lambda text: float(text) if text else None}
_COLUMNS = [(f.name, _READERS[f.type]) for f in fields(ScanRecord)]
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)

_LAWS = {
    "improved": error_term_exponent,
    "sittinger": sittinger_exponent,
    "abelian": abelian_exponent,
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--field", required=True, help="field-spec document (JSON)")
    _add_output(parser)


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write results to this file instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _table_cap(text: str) -> int:
    """--N: an integer literal, or a float literal of an integer such as
    1e7 or 1.5e6; 2.5, inf and nan are refused with exit status 2."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
    if not value.is_integer():
        raise argparse.ArgumentTypeError(f"table cap must be an integer, got {text}")
    return int(value)


def _add_table_cap(parser) -> None:
    parser.add_argument("--N", type=_table_cap, default=10**6, help="table cap (default 1e6)")


def _add_table_source(parser: argparse.ArgumentParser) -> None:
    # a cache fixes its own N, so the two sources exclude each other
    source = parser.add_mutually_exclusive_group()
    _add_table_cap(source)
    source.add_argument("--tables", dest="tables_file", help="reuse a table cache file")


def _add_tuple_shape(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--r", type=int, required=True)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rprime",
        description="Count relatively r-prime tuples of ideals and measure error exponents.",
    )
    parser.add_argument("--version", action="version", version=f"rprime {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        return p

    p = add("tables", _cmd_tables, "build a coefficient table and write a binary cache")
    p.add_argument("--field", required=True, help="field-spec document (JSON)")
    _add_table_cap(p)
    p.add_argument("--out", required=True, help="table cache file to write")

    p = add("count", _cmd_count, "number of ideals of norm <= x")
    _add_common(p)
    _add_table_source(p)
    p.add_argument("--x", type=float, required=True)

    p = add("vmr", _cmd_vmr, "relatively r-prime m-tuple count (Mobius identity)")
    _add_common(p)
    _add_table_source(p)
    p.add_argument("--x", type=float, required=True)
    _add_tuple_shape(p)

    p = add("direct", _cmd_direct, "the same count from the enumeration oracle")
    _add_common(p)
    p.add_argument("--x", type=float, required=True)
    _add_tuple_shape(p)

    p = add("scan", _cmd_scan, "error-term scan over a geometric x-grid")
    _add_common(p)
    _add_table_source(p)
    _add_tuple_shape(p)
    p.add_argument("--xmin", type=float, required=True)
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--fit", action="store_true", help="also fit a log-log slope")

    p = add("fit", _cmd_fit, "fit a slope to a previously written scan CSV")
    p.add_argument("--in", dest="infile", required=True, help="scan CSV to read")
    _add_output(p)

    p = add("exponents", _cmd_exponents, "theoretical error exponents")
    p.add_argument("--n", type=int, required=True, help="field degree")
    _add_tuple_shape(p)
    p.add_argument(
        "--law",
        choices=tuple(_LAWS),
        default="improved",
        help="which exponent table to read (default: improved)",
    )
    _add_output(p)

    p = add("zeta", _cmd_zeta, "evaluate the zeta function of the field")
    _add_common(p)
    p.add_argument("--tol", type=float, default=1e-9, help="zeta tolerance (default 1e-9)")
    p.add_argument("--s", type=float, required=True)

    return parser


def _emit(args: argparse.Namespace, doc: dict, text: str) -> None:
    """Write the JSON document or the text, as --format says, to --out or stdout."""
    if args.format == "json":
        text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _get_table(field: FieldSpec, args: argparse.Namespace):
    if args.tables_file:
        return load_table(field, args.tables_file)
    return build_tables(field, args.N)


def _scalar(compute: Callable[[FieldSpec, argparse.Namespace], dict]):
    """A handler that emits one computed value: bare, or as the JSON
    document {command, field, **payload, tool_version}."""

    def handler(args: argparse.Namespace) -> None:
        field = load_field_file(args.field)
        payload = {"field": field.name, **compute(field, args)}
        doc = {"command": args.command, **payload, "tool_version": __version__}
        _emit(args, doc, f"{payload['value']}\n")

    return handler


def _record_csv(rec: ScanRecord) -> str:
    values = (getattr(rec, name) for name, _ in _COLUMNS)
    return ",".join("" if value is None else repr(value) for value in values) + "\n"


def parse_scan_csv(text: str) -> list[ScanRecord]:
    """Rebuild scan records from the CSV schema this tool writes."""
    lines = [line for line in text.split("\n") if line]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"expected header {CSV_HEADER!r}")
    records = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(_COLUMNS):
            raise ValueError(f"malformed scan row: {line!r}")
        records.append(
            ScanRecord(**{name: read(part) for (name, read), part in zip(_COLUMNS, parts)})
        )
    return records


def _fit_summary_text(fit: SlopeFit) -> str:
    return (
        f"slope {fit.slope!r}\nintercept {fit.intercept!r}\n"
        f"r_squared {fit.r_squared!r}\npoints_used {fit.points_used}\n"
    )


def _cmd_tables(args: argparse.Namespace) -> None:
    field = load_field_file(args.field)
    save_table(build_tables(field, args.N), args.out)
    sys.stdout.write(f"wrote table cache for {field.name} up to N={args.N}: {args.out}\n")


@_scalar
def _cmd_count(field: FieldSpec, args: argparse.Namespace) -> dict:
    return {"x": args.x, "value": ideal_count(_get_table(field, args), args.x)}


@_scalar
def _cmd_vmr(field: FieldSpec, args: argparse.Namespace) -> dict:
    value = count_rprime_mobius(_get_table(field, args), args.x, args.m, args.r)
    return {"x": args.x, "m": args.m, "r": args.r, "value": value}


@_scalar
def _cmd_direct(field: FieldSpec, args: argparse.Namespace) -> dict:
    value = count_rprime_direct(field, args.x, args.m, args.r)
    return {"x": args.x, "m": args.m, "r": args.r, "value": value}


@_scalar
def _cmd_zeta(field: FieldSpec, args: argparse.Namespace) -> dict:
    value, cutoff, certified = dedekind_zeta_with_cutoff(field, args.s, args.tol)
    route = zeta_route(field)
    # the cutoff is the largest prime on the ladder, the split point on the L route
    cutoff_key = "euler_cutoff" if route == "euler" else "em_split"
    return {
        "s": args.s,
        "value": value,
        "route": route,
        cutoff_key: cutoff,
        "certified_error": certified,
    }


def _cmd_scan(args: argparse.Namespace) -> None:
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
        table=table,
    )
    zero_count = sum(rec.log10_absE is None for rec in records)
    usable = len(records) - zero_count
    fit = fit_slope(records) if args.fit and usable >= 2 else None
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
        doc["fit"] = asdict(fit) if fit else None
    _emit(args, doc, CSV_HEADER + "\n" + "".join(map(_record_csv, records)))
    if args.fit and args.format == "csv":
        if fit:
            summary = _fit_summary_text(fit) + f"zero_error_points {zero_count}\n"
        else:
            summary = f"no fit: {usable} points with nonzero E (zero_error_points {zero_count})\n"
        sys.stderr.write(summary)


def _cmd_fit(args: argparse.Namespace) -> None:
    with open(args.infile, "r", encoding="utf-8") as handle:
        records = parse_scan_csv(handle.read())
    fit = fit_slope(records)
    _emit(args, {"fit": asdict(fit)}, _fit_summary_text(fit))


def _cmd_exponents(args: argparse.Namespace) -> None:
    result = _LAWS[args.law](args.n, args.m, args.r)
    doc = {
        "law": args.law,
        "n": args.n,
        "m": args.m,
        "r": args.r,
        "exponent": str(result.exponent),
        "log_power": str(result.log_power),
        "epsilon_flag": result.epsilon_flag,
    }
    text = (
        f"exponent {result.exponent}\nlog_power {result.log_power}\n"
        f"epsilon_flag {str(result.epsilon_flag).lower()}\n"
    )
    _emit(args, doc, text)


def cli_dispatch(argv: list[str]) -> int:
    """Run one subcommand; 0 on success, nonzero with a diagnostic."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.handler(args)
    except (RPrimeError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
