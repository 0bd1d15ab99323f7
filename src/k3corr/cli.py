"""Command-line interface.

Exit codes: 0 all good, 1 a verification check failed or another
``K3CorrError``, 2 usage error or an ``InputError`` (malformed or unusable
input), 3 internal error (any other exception is a toolkit bug: one
``internal error:`` line on stderr, never a failed check).  Commands raise;
only ``main`` turns an exception into an exit code.  ``--format kv``
switches reports to deterministic machine-readable key=value lines.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from . import correspondence, picard
from .dataset import load_rows, select_rows
from .intlinalg import InputError, K3CorrError
from .polytope import (
    OriginNotInterior,
    hull,
    is_reflexive,
    parse_points_text,
    points_to_text,
    polar_dual,
)
from .weights import newton_polytope, weights_from_text

CHECK_FAILED = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3


def _read_polytope(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return hull(parse_points_text(fh.read()))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (InputError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _newton_arg(text: str):
    """The weight system written in text, and its Newton polytope."""
    try:
        ws = weights_from_text(text)
        return ws, newton_polytope(ws)
    except InputError as exc:
        raise InputError(f"{text}: {exc}") from exc


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _print_report(report, fmt: str, suffix: str) -> None:
    for c in report.checks:
        if fmt == "kv":
            state = "pass" if c.passed else "fail"
            print(f"row.{report.key}{suffix}.{_kv_name(c.name)}={state}")
        else:
            mark = "ok" if c.passed else "FAIL"
            detail = f"  ({c.detail})" if c.detail else ""
            print(f"[{mark:>4}] {report.key}: {c.name}{detail}")


def _kv_name(name: str) -> str:
    return (
        name.replace(" ", "_")
        .replace("=", "_eq_")
        .replace("->", "_to_")
        .replace(",", "+")
    )


def cmd_verify_table(args) -> int:
    rows = all_rows = load_rows(args.data)
    if args.row is not None:
        rows = select_rows(all_rows, args.row)
        if not rows:
            print(f"no row matches {args.row!r}; available rows:", file=sys.stderr)
            for row in all_rows:
                print(f"  {row.key}  (rank {row.rank})", file=sys.stderr)
            return USAGE_ERROR
    ok = True
    for row in rows:
        reports = [correspondence.verify_row(row), correspondence.verify_swaps(row)]
        for report, suffix in zip(reports, ("", ".swaps")):
            _print_report(report, args.format, suffix)
            ok = ok and report.passed
        if args.format != "kv":
            verdict = "PASS" if all(r.passed for r in reports) else "FAIL"
            print(f"row {row.key}: {verdict}")
    if args.format != "kv":
        print(f"{'all rows pass' if ok else 'FAILURES detected'}")
    return 0 if ok else CHECK_FAILED


def cmd_newton(args) -> int:
    ws, p = _newton_arg(args.weights)
    print(points_to_text(p.vertices, comment=f"newton polytope of {ws}"), end="")
    return 0


def cmd_dual(args) -> int:
    d = polar_dual(_read_polytope(args.file))
    print(points_to_text(d.vertices, comment="polar dual vertices"), end="")
    return 0


def cmd_reflexive(args) -> int:
    p = _read_polytope(args.file)
    try:
        answer = is_reflexive(p)
    except K3CorrError as exc:
        print(f"reflexive=false  # {exc}")
        return 0
    print(f"reflexive={'true' if answer else 'false'}")
    return 0


def cmd_points(args) -> int:
    p = _read_polytope(args.file)
    print(points_to_text(p.lattice_points, comment="lattice points"), end="")
    return 0


def cmd_picard(args) -> int:
    if "," in args.target and not os.path.isfile(args.target):
        _, p = _newton_arg(args.target)
    else:
        p = _read_polytope(args.target)
    bk = picard.picard_rank(p)
    print(f"rho={bk.rho} toric={bk.toric_part} correction={bk.correction}")
    if args.format != "kv":
        print(f"dual lattice points: {bk.dual_points}")
        print(f"rho of polar dual: {bk.dual_rho}")
        for pair in bk.edge_pairs:
            if pair.contribution:
                print(
                    f"edge {pair.edge} x dual edge {pair.dual_edge}: "
                    f"{pair.interior} * {pair.interior_dual} = {pair.contribution}"
                )
    return 0


def cmd_search_sub(args) -> int:
    ws, p = _newton_arg(args.weights)
    try:
        res = correspondence.search_sub_reflexive(p, args.max_results, args.max_depth)
    except OriginNotInterior as exc:
        raise OriginNotInterior(f"{args.weights}: {exc}") from exc
    print(
        f"# {len(res.found)} reflexive subpolytopes of newton({ws}) "
        f"within depth {args.max_depth}, {res.explored} states explored"
        f"{' (limits exhausted)' if res.exhausted else ''}"
    )
    for i, q in enumerate(res.found):
        bk = picard.picard_rank(q)
        print(f"# subpolytope {i}: rho={bk.rho} l0={bk.correction}")
        print(points_to_text(q.vertices), end="")
    return 0


def cmd_amoeba(args) -> int:
    all_rows = load_rows(args.data)
    rows = select_rows(all_rows, args.row)
    if len(rows) != 1:
        print(
            f"selector {args.row!r} matches {len(rows)} rows; use a full key:",
            file=sys.stderr,
        )
        for row in all_rows:
            print(f"  {row.key}", file=sys.stderr)
        return USAGE_ERROR
    row = rows[0]
    try:
        i = row.ids.index(args.src)
        j = row.ids.index(args.dst)
    except ValueError:
        print(f"row {row.key} has families {row.ids}", file=sys.stderr)
        return USAGE_ERROR
    u = correspondence.derive_iso(row, i, j)
    print(f"# amoeba map {args.src} -> {args.dst} (log coordinates)")
    for r in u:
        print(" ".join(str(x) for x in r))
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing does not
    change it, and each in-process `main` call would otherwise pay for its
    eight subparsers again."""
    ap = argparse.ArgumentParser(
        prog="k3corr",
        description="Exact lattice-polytope checks for weighted K3 correspondences",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    vt = sub.add_parser("verify-table", help="verify table rows")
    vt.add_argument("--row", help="row key (e.g. 26-34-76) or a single family id")
    vt.add_argument("--format", choices=("text", "kv"), default="text")
    vt.add_argument("--data", help="alternative dataset JSON path")
    vt.set_defaults(fn=cmd_verify_table)

    nw = sub.add_parser("newton", help="newton polytope of a weight system")
    nw.add_argument("weights", help="comma-separated, e.g. 1,6,14,21")
    nw.set_defaults(fn=cmd_newton)

    du = sub.add_parser("dual", help="polar dual of the hull of a point file")
    du.add_argument("file")
    du.set_defaults(fn=cmd_dual)

    rf = sub.add_parser("reflexive", help="is the hull of a point file reflexive")
    rf.add_argument("file")
    rf.set_defaults(fn=cmd_reflexive)

    pt = sub.add_parser("points", help="lattice points of the hull of a point file")
    pt.add_argument("file")
    pt.set_defaults(fn=cmd_points)

    pc = sub.add_parser("picard", help="Picard rank of a file or weight system")
    pc.add_argument("target", metavar="FILE|WEIGHTS")
    pc.add_argument("--format", choices=("text", "kv"), default="text")
    pc.set_defaults(fn=cmd_picard)

    ss = sub.add_parser("search-sub", help="reflexive subpolytope search")
    ss.add_argument("weights")
    ss.add_argument("--max-depth", type=_positive_int, default=3)
    ss.add_argument("--max-results", type=_positive_int, default=64)
    ss.set_defaults(fn=cmd_search_sub)

    am = sub.add_parser("amoeba", help="amoeba map between two families of a row")
    am.add_argument("--row", required=True)
    am.add_argument("--from", dest="src", type=int, required=True)
    am.add_argument("--to", dest="dst", type=int, required=True)
    am.add_argument("--data", help="alternative dataset JSON path")
    am.set_defaults(fn=cmd_amoeba)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except K3CorrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR if isinstance(exc, InputError) else CHECK_FAILED
    except Exception as exc:  # a toolkit bug, kept apart from failed checks
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
