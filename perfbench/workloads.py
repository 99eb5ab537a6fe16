"""Seeded inputs of the three workloads, how one operation runs, and what
its answer is.

An operation is one call into polylat, either ``cli.main`` with an argument
list or one public API function. ``make_ops`` turns (workload, seed, scale)
into the operation list; the same arguments always give the same list, and
the polylat code under test sees only that list.

Why each workload exists (see README.md for the metrics each one moves):

    tables         four large ``polylat table --format csv`` calls: series
                   expansion in gfseries plus CSV formatting in cli; the
                   oracle does nothing.
    point_queries  a stream of single counts, nine in ten on a hot set of
                   small widths (cache hits after the first touch) and the
                   rest on cold widths at sizes in the hundreds (expansions).
    verify_oracle  ``polylat verify --suite all`` and oracle counts: the
                   brute-force enumeration does the work and the formula
                   layers almost none, the mirror image of ``tables``.
"""
from __future__ import annotations

import hashlib
import io
import json
import random
import statistics
from contextlib import redirect_stdout
from functools import partial
from pathlib import Path
from time import perf_counter

import reference

WORKLOADS = ("tables", "point_queries", "verify_oracle")
SCALES = ("full", "tiny")
FAMILIES = ("dcc", "cc", "dplateau", "plateau")
AREA_FAMILIES = ("dcc", "cc")

# (k_max, size_max) per family.
TABLE_DIMS = {
    "full": {"cc": (80, 320), "plateau": (48, 320), "dcc": (80, 320), "dplateau": (48, 320)},
    "tiny": {"cc": (6, 12), "plateau": (4, 12), "dcc": (6, 12), "dplateau": (4, 12)},
}

# point_queries: per route, (hot count, cold count) at full scale. count_cc
# and r_gf dominate the hot set so that the median query is a cache hit.
QUERY_MIX = {
    "count_cc": (540, 40),
    "r_gf": (540, 40),
    "s_closed": (216, 20),
    "s_conv": (144, 30),
    "r_conv": (144, 30),
    "gf_S_k": (216, 40),
}
TINY_DIVISOR = 36
HOT_K_MAX = 12
HOT_SPAN = 30
# Cold widths and sizes per route: (k_lo, k_hi, size_lo, size_hi).
COLD_RANGE = {
    "count_cc": (13, 48, 100, 400),
    "r_gf": (13, 40, 100, 400),
    "s_closed": (13, 48, 100, 400),
    "s_conv": (13, 48, 100, 400),
    "r_conv": (13, 40, 100, 400),
    "gf_S_k": (13, 40, 100, 300),
}
FITS = (("cc", 2), ("cc", 3), ("plateau", 2), ("plateau", 3))

# verify_oracle: one oracle cell per family of about a second, the plateau
# cell again with two workers, and one small dump chosen by the seed.
ORACLE_CELLS = {
    "full": {"cc": (5, 16), "dcc": (4, 15), "dplateau": (3, 12), "plateau": (4, 15)},
    "tiny": {"cc": (3, 6), "dcc": (3, 6), "dplateau": (2, 6), "plateau": (2, 6)},
}
DUMP_CELLS = {
    "full": (("plateau", 3, 9), ("cc", 4, 10), ("dplateau", 3, 10), ("dcc", 4, 10)),
    "tiny": (("plateau", 2, 5), ("cc", 2, 4), ("dplateau", 2, 5), ("dcc", 2, 4)),
}
VERIFY_SUITE = {"full": "all", "tiny": "lemma41"}


# Twins: after every block of operations (at least TWIN_EVERY_S of them), the
# worker runs the workload's twin, a fixed list of calls into reference.py,
# until it has taken TWIN_SHARE of the block's time (at least once). Each
# operation's time is then read against the twin measured just before and
# just after it: totals and tails against the twin's time per pass, the
# median against the twin's median call. A twin is written in the style of
# the polylat code the workload exercises: big-integer series loops and CSV
# text for tables, many small calls plus a few big-integer cells for point
# queries (most of which are cache hits), nested generators for the oracle.
# So it slows down and speeds up with the shared machine the way that code
# does, which a generic arithmetic loop was measured not to do. No polylat
# code runs in a twin.
TWIN_EVERY_S = 0.05
TWIN_SHARE = 0.1
TWINS = {
    "tables": [partial(reference.table_csv, "cc", 24, 160), partial(reference.table_csv, "plateau", 12, 160)],
    "point_queries": [partial(reference.dcc_cell, k, n) for k in range(1, HOT_K_MAX + 1) for n in range(k, k + HOT_SPAN)]
    + [partial(reference.cell, "plateau", k, 300) for k in (16, 24, 32, 40)]
    + [partial(reference.cell, "cc", 40, 300), partial(reference.cell, "dplateau", 30, 300)],
    "verify_oracle": [partial(reference.plateau_objects, 4, 12)],
}


def twin_seconds(workload: str, budget_s: float) -> tuple[float, float]:
    """(seconds per pass over the twin's calls, median seconds of one call),
    passing over them until budget_s has gone by (at least once). Each call
    is timed on its own, as each operation is."""
    calls = TWINS[workload]
    latencies, passes, start = [], 0, perf_counter()
    while True:
        for call in calls:
            began = perf_counter()
            call()
            latencies.append(perf_counter() - began)
        passes += 1
        elapsed = perf_counter() - start
        if elapsed >= budget_s:
            return elapsed / passes, statistics.median(latencies)


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """count values in [lo, hi], one drawn from each of count equal strata, in
    random order: every seed gets the same spread of widths and sizes, so the
    cost of a cold stream hardly depends on the seed."""
    width = (hi - lo + 1) / count
    values = [lo + int((j + rng.random()) * width) for j in range(count)]
    rng.shuffle(values)
    return values


def _point_query_ops(rng: random.Random, scale: str) -> list[tuple]:
    ops = []
    for route, (hot, cold) in QUERY_MIX.items():
        if scale == "tiny":
            hot, cold = max(1, hot // TINY_DIVISOR), max(1, cold // TINY_DIVISOR)
        area = route == "count_cc"
        for _ in range(hot):
            k = rng.randint(1, HOT_K_MAX)
            low = k if area else 2 * k
            ops.append(("api", route, k, rng.randint(low, low + HOT_SPAN)))
        k_lo, k_hi, s_lo, s_hi = COLD_RANGE[route]
        for k, size in zip(_stratified(rng, k_lo, k_hi, cold), _stratified(rng, s_lo, s_hi, cold)):
            ops.append(("api", route, k, size))
    rng.shuffle(ops)
    fits = FITS if scale == "full" else FITS[:1]
    for family, offset in fits:
        ops.insert(rng.randrange(len(ops) + 1), ("fit", family, offset, offset + 1, offset + 4))
    return ops


def make_ops(workload: str, seed: int, scale: str = "full") -> list[tuple]:
    """The operation list of one workload run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}, expected one of {SCALES}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tables":
        order = list(FAMILIES)
        rng.shuffle(order)
        return [("table", family, *TABLE_DIMS[scale][family]) for family in order]
    if workload == "point_queries":
        return _point_query_ops(rng, scale)
    ops = [("verify", VERIFY_SUITE[scale])]
    for family, (k, size) in ORACLE_CELLS[scale].items():
        ops.append(("count", family, k, size, 1))
    k, size = ORACLE_CELLS[scale]["plateau"]
    ops.append(("count", "plateau", k, size, 2))
    ops.append(("dump", *rng.choice(DUMP_CELLS[scale])))
    rng.shuffle(ops)
    return ops


def op_label(op: tuple) -> str:
    """Short stable name of an operation, used to key spans and timings."""
    if op[0] == "count":
        return f"count-{op[1]}-k{op[2]}-s{op[3]}-w{op[4]}"
    return "-".join(str(part) for part in op)


def cli_argv(op: tuple, dump_path: Path | None = None) -> list[str]:
    kind = op[0]
    if kind == "table":
        _, family, k_max, size_max = op
        return ["table", "--family", family, "--k-max", str(k_max),
                "--size-max", str(size_max), "--format", "csv"]
    if kind == "verify":
        return ["verify", "--suite", op[1]]
    family, k, size = op[1:4]
    argv = ["count", "--family", family, "-k", str(k),
            "-n" if family in AREA_FAMILIES else "-m", str(size), "--method", "oracle"]
    if kind == "count" and op[4] > 1:
        argv += ["--workers", str(op[4])]
    if kind == "dump":
        argv += ["--dump", str(dump_path)]
    return argv


def execute(op: tuple, polylat, dump_path: Path) -> tuple[float, object]:
    """Run one operation; returns (seconds, raw result). Only the call into
    polylat is timed; for cli calls the raw result is (exit code, stdout)."""
    kind = op[0]
    if kind == "api":
        _, route, k, size = op
        if route == "gf_S_k":
            gf_coeff, gf_S_k = polylat.gf_coeff, polylat.gf_S_k
            start = perf_counter()
            value = gf_coeff(gf_S_k(k), size)
        else:
            fn = getattr(polylat, route)
            start = perf_counter()
            value = fn(k, size)
        return perf_counter() - start, value
    if kind == "fit":
        fit_family = polylat.fit_family
        start = perf_counter()
        value = fit_family(*op[1:])
        return perf_counter() - start, value
    argv = cli_argv(op, dump_path)
    main = polylat.cli.main
    buffer = io.StringIO()
    start = perf_counter()
    with redirect_stdout(buffer):
        code = main(argv)
    return perf_counter() - start, (code, buffer.getvalue())


def corrupt(op: tuple, raw):
    """A wrong version of a raw result, to prove that the checks run."""
    if op[0] == "api":
        return raw + 1
    if op[0] == "fit":
        return type(raw)(raw.coeffs + (1,))
    code, out = raw
    return code, out.replace("\n", "1\n", 1)


def answer(op: tuple, raw, polylat, dump_path: Path):
    """The JSON-able answer the parent checks, derived from a raw result
    outside the timed region."""
    kind = op[0]
    if kind == "api":
        return str(raw)
    if kind == "fit":
        return [str(c) for c in raw.coeffs]
    code, out = raw
    if kind == "table":
        return {"code": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}
    if kind == "verify":
        report = json.loads(out)
        return {
            "code": code,
            "fail": report["summary"]["fail"],
            "flagged": [[c["id"], c["status"]] for c in report["checks"] if c["status"] != "pass"],
        }
    result = {"code": code, "value": out.strip()}
    if kind == "dump":
        family, k, size = op[1:4]
        parse = polylat.oracle.parse_cc if family in AREA_FAMILIES else polylat.oracle.parse_plateau
        lines = dump_path.read_text(encoding="utf-8").splitlines()
        objects = [parse(line) for line in lines]
        sizes = {(o.width, o.area if family in AREA_FAMILIES else o.lateral_area) for o in objects}
        directed = all(o.is_directed() for o in objects) if family in ("dcc", "dplateau") else True
        result.update(lines=len(lines), distinct=len(set(objects)),
                      shape_ok=sizes <= {(k, size)} and directed)
    return result


def table_cells(op: tuple) -> int:
    _, family, k_max, size_max = op
    return k_max * (size_max - (1 if family in AREA_FAMILIES else 2) + 1)
