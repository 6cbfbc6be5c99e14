"""Command-line interface: verification sweeps, one-off evaluations, tables.

Exit codes: 0 all checks passed, 1 at least one mismatch, 2 no verdict:
usage or I/O error.
``verify`` emits one JSON line per check; ``eval`` prints a closed-form
product side by side with its brute-force value; ``table`` renders the
four summary tables of normalized products for one field.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import charsets, closedform, sweeps
from .charsets import SIGN_PAIRS, SetFamily, parse_signs, sign_str
from .closedform import closed_product
from .dickson import poly_str
from .ffield import FieldCtx, field_order, mk_field


def parse_family(ctx: FieldCtx, text: str) -> SetFamily:
    """Parse 'KIND params signs', e.g. 'T 1 3 --' or 'S1 0 +'."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty family spec")
    kind = tokens[0].upper()
    if kind not in ("A", "S", "S1", "T"):
        raise ValueError(f"token 1 ({tokens[0]!r}): unknown family kind")
    want = 3 if kind == "S1" else 4
    if len(tokens) != want:
        raise ValueError(f"{kind} spec needs {want} tokens, got {len(tokens)}")
    params = []
    for i, tok in enumerate(tokens[1:-1], start=2):
        try:
            params.append(ctx.parse_elem(tok))
        except ValueError as exc:
            raise ValueError(f"token {i} ({tok!r}): {exc}") from None
    try:
        signs = parse_signs(tokens[-1])
    except ValueError as exc:
        raise ValueError(f"token {want} ({tokens[-1]!r}): {exc}") from None
    if kind == "S1":
        if not isinstance(signs, int):
            raise ValueError(f"token {want}: S1 takes a single sign")
        fam = charsets.s1_family(params[0], signs)
    else:
        if isinstance(signs, int):
            raise ValueError(f"token {want}: {kind} takes two signs")
        fam = SetFamily(kind, tuple(params), signs)
    fam.validate(ctx)
    return fam


def _cmd_eval(args) -> int:
    charsets.check_scan_bound(field_order(args.p, args.n))  # before the modulus search
    ctx = mk_field(args.p, args.n)
    fam = parse_family(ctx, args.family)
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


# ---------------------------------------------------------------------------
# table rendering
# ---------------------------------------------------------------------------

def _specific_rows(ctx: FieldCtx):
    """(label, frame, skip_reason) for the named-ratio table rows."""
    q = ctx.q
    branch8 = "q=+-1 mod 8" if q % 8 in (1, 7) else "q=+-3 mod 8"
    named = [("tau=0", 0), ("tau=inf", closedform.INF), (f"tau=1 [{branch8}]", ctx.one)]
    if ctx.p != 3:
        branch12 = "q=+-1 mod 12" if q % 12 in (1, 11) else "q=+-5 mod 12"
        three = ctx.from_int(3)
        named += [(f"tau=3 [{branch12}]", three), (f"tau=1/3 [{branch12}]", ctx.inv(three))]
    rows = [(label, closedform.normalized_frame(ctx, tau), None) for label, tau in named]
    if ctx.p == 3:
        rows.append(("tau=3", None, "p=3 folds this into tau=0"))
        rows.append(("tau=1/3", None, "p=3 folds this into tau=inf"))
    return rows


def _witness_frame(ctx: FieldCtx, cls: tuple[int, int], mu: int | None = None):
    """Frame of the tau of smallest code with the given square classes
    (and, if mu is given, with all-square class mu), or None."""
    for tau in ctx.elements_canonical():
        if tau == ctx.minus_one:
            continue
        frame = closedform.normalized_frame(ctx, tau)
        if frame.cls == cls and (mu is None or closedform.all_square_class(ctx, frame) == mu):
            return frame
    return None


def _square_class_rows(ctx: FieldCtx, table_id: int):
    if table_id in (1, 2):
        wanted = [((1, 1), mu, f"tau,tau+1 squares; 1+-sqrt(l)/2 {name}")
                  for mu, name in ((1, "squares"), (-1, "nonsquares"))]
    else:
        wanted = [(cls, None, f"chi(tau)={cls[0]:+d}, chi(tau+1)={cls[1]:+d}")
                  for cls in ((1, -1), (-1, 1), (-1, -1))]
    rows = []
    for cls, mu, label in wanted:
        frame = _witness_frame(ctx, cls, mu)
        if frame is None:
            rows.append((label, None, "no such tau at this q"))
            continue
        note = f"tau={ctx.elem_str(frame.tau)}"
        if mu is None:
            note += f", c={ctx.elem_str(closedform.mixed_class_root(ctx, frame))}"
        rows.append((f"{label} [{note}]", frame, None))
    return rows


def render_table(ctx: FieldCtx, table_id: int) -> tuple[list[str], int]:
    """Rows of one summary table with closed and brute values side by side."""
    if table_id not in (1, 2, 3, 4):
        raise ValueError("table id must be 1..4")
    s_flavor = table_id in (1, 3)
    rows = (_specific_rows(ctx) if table_id in (1, 2) else []) \
        + _square_class_rows(ctx, table_id)
    lines = [f"table {table_id} at q={ctx.q} (p={ctx.p}, n={ctx.n}); "
             f"{'S' if s_flavor else 'T'}-products, "
             f"{'l-k=4' if s_flavor else 'j+l=4'} normalization"]
    family, x_name = (charsets.s_family, "k") if s_flavor else (charsets.t_family, "j")
    mismatches = 0
    for label, frame, skip in rows:
        if skip is not None:
            lines.append(f"  {label}: skipped ({skip})")
            continue
        x, l = (ctx.neg(frame.j) if s_flavor else frame.j), frame.l
        parts = []
        for sp in SIGN_PAIRS:
            fam = family(x, l, sp)
            closed = closed_product(ctx, fam)
            brute = charsets.brute_product(ctx, fam).value
            ok = closed == brute
            mismatches += not ok
            parts.append(f"{sign_str(sp)}: {ctx.elem_str(closed)}"
                         f"/{ctx.elem_str(brute)}{'' if ok else ' MISMATCH'}")
        head = f"{x_name}={ctx.elem_str(x)} l={ctx.elem_str(l)}"
        lines.append(f"  {label} [{head}]  " + "  ".join(parts))
    lines.append("  (entries are closed/brute)")
    # the polynomial identities behind the tables, coefficient lists
    # low degree first
    for name, (poly, signs, target) in zip(("D_m", "E_(m-1)"),
                                           sweeps.dickson_identities(ctx)):
        ok = poly == target
        mismatches += not ok
        lines.append(f"  {name} = {poly_str(ctx, poly)}")
        lines.append(f"  vanishing{sign_str(signs)} = {poly_str(ctx, target)}"
                     f"  [{'equal' if ok else 'MISMATCH'}]")
    return lines, mismatches


def _cmd_table(args) -> int:
    charsets.check_scan_bound(field_order(args.p, args.n))  # before the modulus search
    ctx = mk_field(args.p, args.n)
    ctx.tables()
    lines, mismatches = render_table(ctx, args.table_id)
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
