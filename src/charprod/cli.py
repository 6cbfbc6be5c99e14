"""Command-line interface: verification sweeps, one-off evaluations, tables.

Exit codes: 0 all checks passed, 1 at least one mismatch, 2 no verdict:
usage or I/O error.
``verify`` emits one JSON line per check; ``eval`` prints a closed-form
product side by side with its brute-force value; ``table`` renders the
four summary tables of normalized products for one field.  ``verify`` and
``table`` build each field's tables; ``eval`` scans without them and never
imports numpy.  This module only parses arguments, checks the scan bound,
builds the field and prints: the family grammar is
``charsets.parse_family``, the tables ``sweeps.render_table``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import charsets, sweeps
from .closedform import closed_product
from .ffield import field_order, mk_field


def _cmd_eval(args) -> int:
    charsets.check_scan_bound(field_order(args.p, args.n))  # before the modulus search
    ctx = mk_field(args.p, args.n)
    fam = charsets.parse_family(ctx, args.family)
    closed = closed_product(ctx, fam)
    rep = charsets.brute_product(ctx, fam)
    match = closed == rep.value
    if args.json:
        row = charsets.report_row(ctx, fam, rep)
        row["closed"] = ctx.elem_str(closed)
        row["match"] = match
        print(json.dumps(row))
    else:
        print(f"family: {fam.label(ctx)}  (q={ctx.q})")
        print(f"closed: {ctx.elem_str(closed)}")
        print(f"brute:  {ctx.elem_str(rep.value)}")
        print(f"cardinality: {rep.cardinality}")
        print(f"match: {str(match).lower()}")
    return 0 if match else 1


def _cmd_table(args) -> int:
    charsets.check_scan_bound(field_order(args.p, args.n))  # before the modulus search
    ctx = mk_field(args.p, args.n)
    ctx.tables()
    lines, mismatches = sweeps.render_table(ctx, args.table_id)
    for line in lines:
        print(line)
    return 0 if mismatches == 0 else 1


def _cmd_verify(args) -> int:
    suites = tuple(s.strip() for s in args.suites.split(",") if s.strip())
    config = sweeps.SweepConfig(
        q_min=args.qmin, q_max=args.qmax,
        max_degree=None if args.maxdeg < 1 else args.maxdeg,
        suites=suites, workers=args.workers, report_path=args.out)
    return sweeps.run_verify(config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charprod",
        description="Products of quadratic-character set families over F_q: "
                    "closed formulas checked against brute-force scans.")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification sweeps over a range of q")
    v.add_argument("--qmin", type=int, default=3)
    v.add_argument("--qmax", type=int, required=True)
    v.add_argument("--maxdeg", type=int, default=3,
                   help="max extension degree n (values < 1 mean unbounded)")
    v.add_argument("--suites", default=",".join(sweeps.ALL_SUITES),
                   help="comma-separated subset of: " + ",".join(sweeps.ALL_SUITES))
    v.add_argument("--workers", type=int, default=1)
    v.add_argument("--out", default=None, help="report file (default stdout)")
    v.set_defaults(func=_cmd_verify)

    e = sub.add_parser("eval", help="evaluate one family both ways")
    e.add_argument("family", help="e.g. 'T 1 3 --', 'S1 0 +', 'S -4 0 --'")
    e.add_argument("--p", type=int, required=True)
    e.add_argument("--n", type=int, default=1)
    e.add_argument("--json", action="store_true",
                   help="emit the product-report row as JSON")
    e.set_defaults(func=_cmd_eval)

    t = sub.add_parser("table", help="render one summary table for a field")
    t.add_argument("table_id", type=int, choices=(1, 2, 3, 4))
    t.add_argument("--p", type=int, required=True)
    t.add_argument("--n", type=int, default=1)
    t.set_defaults(func=_cmd_table)
    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first main call


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
