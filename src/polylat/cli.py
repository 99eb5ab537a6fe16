"""Command-line front end.

Subcommands:

    count    one exact count, selectable route, computed in this process
    table    a full table of counts (csv, json or md)
    gf       leading coefficients of one of the generating functions
    verify   run a verification suite, JSON report on stdout
    asympt   fit a width polynomial and compare with the published one

Exit codes: 0 on success (verification discrepancies with published values
do not fail a run), 1 when a verification check fails or a --dump writes
a different number of objects than the oracle counted, 2 on usage errors,
including a negative count size, a --dump path that cannot be written, and
a width, size, term count, table or worker count over its limit (the width
and size caps hold for every count route, the oracle included).
All output is deterministic; counts are printed in full decimal.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import asymptotics, gfseries, oracle, reference_tables, verify
from .counting import FAMILIES, ROUTES, build_table
from .gfseries import gf_coeffs

# Upper bounds on every argument that sizes an allocation (series
# coefficients, table cells), far above the tested and benchmarked inputs.
MAX_WIDTH = 400
MAX_SIZE = 10_000
MAX_TABLE_CELLS = 200_000
# count --workers changes no count (every count runs in one process), but it
# keeps its range checks, exit codes and messages while callers still pass
# it, the oracle benchmark among them.
MAX_WORKERS = 64

# --which -> (its series builder, the least -k it takes; S takes none)
_GF_BUILDERS = {
    "Sk": (gfseries.gf_S_k, 0),
    "S": (lambda k: gfseries.gf_S(), None),
    "Ck": (gfseries.gf_C, 0),
    "Rk": (gfseries.gf_R, 1),
}


def _usage_error(parser: argparse.ArgumentParser, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    print(parser.format_usage(), end="", file=sys.stderr)
    return 2


def _over_limit(*checks) -> str | None:
    """A usage-error message for the first (name, value, limit) whose value
    is over its limit, or None when every value is within bounds."""
    for name, value, limit in checks:
        if value is not None and value > limit:
            return f"{name} {value} is over the limit of {limit}"
    return None


def cmd_count(args, parser) -> int:
    if args.workers < 1:
        return _usage_error(parser, f"--workers must be >= 1, got {args.workers}")
    message = _over_limit(("--workers", args.workers, MAX_WORKERS))
    if message:
        return _usage_error(parser, message)
    family = args.family
    if args.n is not None and args.m is not None:
        return _usage_error(parser, "give one size, -n or -m, not both")
    size = args.n if args.n is not None else args.m
    if size is None:
        return _usage_error(parser, "a size is required (-n for areas, -m for lateral areas)")
    routes = ROUTES[family]
    method = args.method or next(iter(routes))
    if method not in routes:
        valid = ", ".join(routes)
        return _usage_error(parser, f"method {method!r} is not available for family {family!r} (valid: {valid})")
    if args.dump and method != "oracle":
        return _usage_error(parser, "--dump requires --method oracle")
    if args.workers != 1 and method != "oracle":
        return _usage_error(parser, "--workers requires --method oracle")
    size_flag = "-n" if args.n is not None else "-m"
    if size < 0:
        return _usage_error(parser, f"{size_flag} must be >= 0, got {size}")
    message = _over_limit(("-k", args.k, MAX_WIDTH), (size_flag, size, MAX_SIZE))
    if message:
        return _usage_error(parser, message)
    try:
        value = routes[method](args.k, size)
    except ValueError as exc:
        return _usage_error(parser, str(exc))
    dumped = None
    if args.dump:
        try:
            with open(args.dump, "w", encoding="utf-8") as stream:
                dumped = oracle.dump_objects(family, args.k, size, stream)
        except OSError as exc:
            return _usage_error(parser, f"cannot write --dump {args.dump}: {exc.strerror or exc}")
    if args.json:
        print(json.dumps({"family": family, "k": args.k, "size": size, "method": method, "value": value}))
    else:
        print(value)
    if dumped is not None and dumped != value:
        print(f"error: --dump wrote {dumped} objects but the oracle counted {value}", file=sys.stderr)
        return 1
    return 0


def _table_rows(table) -> list[list[int]]:
    # one transpose of the width columns, from the least size on
    start = table.size_min
    return [[size, *cells] for size, cells in zip(table.sizes(), zip(*(column[start:] for column in table.columns)))]


def cmd_table(args, parser) -> int:
    # bounds below 1 are left to build_table, whose message names them
    message = _over_limit(
        ("--k-max", args.k_max, MAX_WIDTH),
        ("--size-max", args.size_max, MAX_SIZE),
        ("table cells (--k-max x --size-max)", max(args.k_max, 0) * max(args.size_max, 0), MAX_TABLE_CELLS),
    )
    if message:
        return _usage_error(parser, message)
    try:
        table = build_table(args.family, args.k_max, args.size_max)
    except ValueError as exc:
        return _usage_error(parser, str(exc))
    header = ["size"] + [f"k={k}" for k in range(1, args.k_max + 1)]
    rows = _table_rows(table)
    if args.format == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(str(v) for v in row))
    elif args.format == "json":
        print(
            json.dumps(
                {
                    "family": args.family,
                    "k_max": args.k_max,
                    "size_max": args.size_max,
                    "header": header,
                    "rows": rows,
                }
            )
        )
    else:  # md
        print("| " + " | ".join(header) + " |")
        print("|" + "|".join("---" for _ in header) + "|")
        for row in rows:
            print("| " + " | ".join(str(v) for v in row) + " |")
    return 0


def cmd_gf(args, parser) -> int:
    if args.which != "S" and args.k is None:
        return _usage_error(parser, f"-k is required for --which {args.which}")
    if args.which == "S" and args.k is not None:
        return _usage_error(parser, "-k does not apply to --which S")
    build, k_min = _GF_BUILDERS[args.which]
    if args.k is not None and args.k < k_min:
        return _usage_error(parser, f"-k must be >= {k_min}, got {args.k}")
    if args.terms < 0:
        return _usage_error(parser, f"--terms must be >= 0, got {args.terms}")
    message = _over_limit(("-k", args.k, MAX_WIDTH), ("--terms", args.terms, MAX_SIZE))
    if message:
        return _usage_error(parser, message)
    try:
        gf = build(args.k)
        coeffs = gf_coeffs(gf, args.terms)
    except ValueError as exc:
        return _usage_error(parser, str(exc))
    if args.json:
        print(json.dumps(coeffs))
    else:
        for c in coeffs:
            print(c)
    return 0


def cmd_verify(args, parser) -> int:
    report = verify.run_suite(args.suite)
    print(report.to_json())
    return 1 if report.failed else 0


def cmd_asympt(args, parser) -> int:
    family, offset = args.family, args.offset
    if offset < 0:
        return _usage_error(parser, "--offset must be >= 0")
    k_min = reference_tables.published_min_k(family, offset)
    needed = k_min + offset + 2 - 1
    k_max = args.k_max if args.k_max is not None else needed + asymptotics.SURPLUS_POINTS
    if k_max < needed:
        return _usage_error(
            parser, f"--k-max {k_max} is too small: a degree-{offset} fit needs samples up to k={needed}"
        )
    message = _over_limit(("fit width --k-max", k_max, MAX_WIDTH))
    if message:
        return _usage_error(parser, message)
    try:
        fitted = asymptotics.fit_family(family, offset, k_min, k_max - k_min + 1)
    except asymptotics.FitError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 1
    print(asymptotics.format_poly(fitted))
    print(f"degree: {fitted.degree}")
    expected = asymptotics.leading_coeff_expected(family, offset)
    print(f"leading coefficient: {fitted.leading} (expected {expected})")
    if offset in reference_tables.PUBLISHED_OFFSETS:
        printed = asymptotics.RatPoly(reference_tables.published_polynomial(family, offset))
        verdict = "match" if printed.coeffs == fitted.coeffs else "MISMATCH"
        print(f"published polynomial: {asymptotics.format_poly(printed)} -> {verdict}")
        if family == "plateau" and offset in reference_tables.COROLLARY_OFFSETS:
            print("note: published subscript k+offset read as lateral area 2k+offset")
    else:
        print("published polynomial: none at this offset (fit is an extrapolation)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polylat", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="one exact count")
    p_count.add_argument("--family", required=True, choices=FAMILIES)
    p_count.add_argument("-k", type=int, required=True, help="width (number of columns/strata)")
    p_count.add_argument("-n", type=int, help="area (2D families); any family takes either size flag")
    p_count.add_argument("-m", type=int, help="lateral area (3D families); any family takes either size flag")
    p_count.add_argument("--method", choices=sorted({route for routes in ROUTES.values() for route in routes}))
    p_count.add_argument("--workers", type=int, default=1,
                         help=f"with --method oracle: accepted (1 to {MAX_WORKERS}); every count runs in one process")
    p_count.add_argument("--dump", metavar="PATH", help="with --method oracle: write one object per line")
    p_count.add_argument("--json", action="store_true")
    p_count.set_defaults(fn=cmd_count)

    p_table = sub.add_parser("table", help="full table of counts")
    p_table.add_argument("--family", required=True, choices=FAMILIES)
    p_table.add_argument("--k-max", type=int, required=True)
    p_table.add_argument("--size-max", type=int, required=True)
    p_table.add_argument("--format", choices=("csv", "json", "md"), default="md")
    p_table.set_defaults(fn=cmd_table)

    p_gf = sub.add_parser("gf", help="generating function coefficients")
    p_gf.add_argument("--which", required=True, choices=tuple(_GF_BUILDERS))
    p_gf.add_argument("-k", type=int)
    p_gf.add_argument("--terms", type=int, required=True)
    p_gf.add_argument("--json", action="store_true")
    p_gf.set_defaults(fn=cmd_gf)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=verify.SUITES)
    p_verify.set_defaults(fn=cmd_verify)

    p_asympt = sub.add_parser("asympt", help="fit a width polynomial")
    p_asympt.add_argument("--family", required=True, choices=reference_tables.FITTED_FAMILIES)
    p_asympt.add_argument("--offset", type=int, required=True)
    p_asympt.add_argument("--k-max", type=int)
    p_asympt.set_defaults(fn=cmd_asympt)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # one parser per process: parsing leaves no state in it, and building
    # it costs more than most commands
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    return args.fn(args, parser)


if __name__ == "__main__":
    sys.exit(main())
