"""The polylat benchmark.

One workload run (the form the contract in BENCHMARK.json uses):

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

starts a fresh interpreter (worker.py) per sample, one after the other (a
closed loop with one caller), until the next sample would end after
``--seconds``; at least four untraced samples are taken, so a workload whose
samples are long runs longer. Every answer is checked outside the timed
region. The last line of stdout is one JSON
object: with ``--trace 0`` the end-to-end metrics (medians over samples),
with ``--trace 1`` the per-layer metrics of traced samples, which alternate
with untraced ones so that ``trace.overhead_s`` is the difference of their
median wall times. Lines before it name every metric with its unit.

All workloads, untraced and traced, with an environment block written to
perfbench/out/report.json:

    python3 perfbench/run.py --all --seed 1 --seconds 30
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKER_TIMEOUT_S = 120
MIN_UNTRACED = 4

# Gated metrics. Each operation's time is divided by the mean time of one
# twin unit measured just before and just after it (workloads.twin_seconds):
# on a shared machine whose speed drifts by a quarter from one minute to the
# next, raw seconds do not repeat between runs, and these ratios repeat far
# better.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "wall_rel": "twins",
    "work_rel": "1/twin",
    "call_p50_rel": "twins",
    "call_p99_rel": "twins",
}
# Raw figures printed by the names users know, with their units.
RAW_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "wall_s": "s",
    "twin_ms": "ms",
}
WORKLOAD_RAW = {
    "tables": {"table_cells_per_s": ("work_per_s", 1, "cells/s")},
    "point_queries": {"queries_per_s": ("work_per_s", 1, "1/s"),
                      "query_p50_us": ("call_p50_s", 1e6, "us"),
                      "query_p99_ms": ("call_p99_s", 1e3, "ms")},
    "verify_oracle": {"oracle_objects_per_s": ("work_per_s", 1, "objects/s"),
                      "verify_s": ("verify_s", 1, "s")},
}


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, scale: str, traced: bool, inject: bool, sample: int) -> dict:
    spans = OUT / f"spans-{workload}-seed{seed}-{sample}.jsonl"
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), workload, str(seed), scale,
         str(int(traced)), str(int(inject)), repr(time.monotonic()), str(spans)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker took longer than {WORKER_TIMEOUT_S} s") from None
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.splitlines()[-1])


def _work(workload: str, ops: list, expected: list, seconds: list) -> float:
    """Units of work per second of the operations that do it: table cells,
    queries, or objects counted by ``count --method oracle`` (not the dump)."""
    if workload == "tables":
        pairs = [(workloads.table_cells(op), s) for op, s in zip(ops, seconds)]
    elif workload == "point_queries":
        pairs = [(1, s) for s in seconds]
    else:
        pairs = [(e, s) for op, e, s in zip(ops, expected, seconds) if op[0] == "count"]
    pairs = [(units, s) for units, s in pairs if s is not None]
    return sum(u for u, _ in pairs) / sum(s for _, s in pairs)


def sample_metrics(workload: str, ops: list, expected: list, sample: dict) -> dict:
    """Raw and twin-relative metrics of one sample (one worker)."""
    seconds = [s for s in sample["seconds"] if s is not None]
    twins = sample["twin_seconds"]  # per operation: [seconds per twin pass, median twin call]
    relative = [None if s is None else s / t[0] for s, t in zip(sample["seconds"], twins)]
    present = [r for r in relative if r is not None]
    per_call = [s / t[1] for s, t in zip(sample["seconds"], twins) if s is not None]
    m = {
        "setup_s": sample["setup_s"],
        "peak_rss_mb": sample["peak_rss_mb"],
        "wall_s": sum(seconds),
        "twin_ms": statistics.median(t[0] for t in twins) * 1e3,
        "work_per_s": _work(workload, ops, expected, sample["seconds"]),
        "call_p50_s": statistics.median(seconds),
        "call_p99_s": statistics.quantiles(seconds, n=100, method="inclusive")[98],
        "verify_s": sum(s for op, s in zip(ops, sample["seconds"]) if op[0] == "verify" and s),
        "wall_rel": sum(present),
        "work_rel": _work(workload, ops, expected, relative),
        "call_p50_rel": statistics.median(per_call),
        "call_p99_rel": statistics.quantiles(present, n=100, method="inclusive")[98],
    }
    return m


def _medians(rows: list[dict]) -> dict:
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", inject: bool = False) -> dict:
    """Run one workload for about `seconds`; returns the result object plus
    the human-readable lines under "lines"."""
    import polylat

    ops = workloads.make_ops(workload, seed, scale)
    expect = checks.Expectations(polylat)
    expected = [expect.expected(op) for op in ops]
    if trace:
        OUT.mkdir(exist_ok=True)

    samples: dict[bool, list] = {False: [], True: []}
    durations: dict[bool, list] = {False: [], True: []}
    start = time.monotonic()
    while True:
        traced = trace and len(samples[True]) < len(samples[False])
        began = time.monotonic()
        samples[traced].append(spawn(workload, seed, scale, traced, inject, len(samples[False]) + len(samples[True])))
        durations[traced].append(time.monotonic() - began)
        enough = len(samples[True]) >= 1 if trace else len(samples[False]) >= MIN_UNTRACED
        upcoming = trace and len(samples[True]) < len(samples[False])
        estimate = statistics.median(durations[upcoming] or durations[not upcoming])
        if enough and time.monotonic() - start + estimate > seconds:
            break

    attempted = failed = 0
    lines = []
    for sample in samples[False] + samples[True]:
        for index, (op, exp, got) in enumerate(zip(ops, expected, sample["answers"])):
            attempted += 1
            error = sample["errors"].get(str(index))
            if error or not checks.is_correct(op, exp, got):
                failed += 1
                if failed <= 5:
                    lines.append(f"# wrong answer: {workloads.op_label(op)}: {error or got!r} (expected {exp!r})")

    untraced = [sample_metrics(workload, ops, expected, s) for s in samples[False]]
    e2e = _medians(untraced)
    n = len(untraced)
    lines.append(f"# {workload} seed {seed}: {n} untraced and {len(samples[True])} traced samples, "
                 f"each a fresh interpreter; timings are medians over the {n} untraced samples")
    for name, unit in RAW_UNITS.items():
        lines.append(f"{name} {e2e[name]:.6g} {unit}")
    for name, (key, scale, unit) in WORKLOAD_RAW[workload].items():
        lines.append(f"{name} {e2e[key] * scale:.6g} {unit}")
    for name, unit in END_TO_END_UNITS.items():
        if name not in RAW_UNITS:
            lines.append(f"{name} {e2e[name]:.6g} {unit}  (relative to the twins)")
    lines.append(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} operations)")

    if trace:
        layers = _medians([s["layers"] for s in samples[True]])
        traced_wall = statistics.median(sum(x for x in s["seconds"] if x is not None) for s in samples[True])
        layers["trace.overhead_s"] = traced_wall - e2e["wall_s"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in tracing.PER_LAYER_UNITS.items()}
        lines.append(f"# per-layer metrics: medians over {len(samples[True])} traced samples")
        lines.extend(f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items())
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    op_seconds = {
        workloads.op_label(op): statistics.median(s["seconds"][i] for s in samples[False])
        for i, op in enumerate(ops) if op[0] not in ("api", "fit") and not any(
            s["seconds"][i] is None for s in samples[False])
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
            "lines": lines, "end_to_end": e2e, "op_seconds": op_seconds}


def environment(seed: int) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            cpu = next((line.split(":", 1)[1].strip() for line in stream if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        "seed": seed,
    }


def run_all(seed: int, seconds: float) -> int:
    report = {"environment": environment(seed), "seconds": seconds, "workloads": {}}
    for workload in workloads.WORKLOADS:
        plain = run_workload(workload, seed, seconds, trace=False)
        traced = run_workload(workload, seed, seconds, trace=True)
        for line in plain["lines"] + traced["lines"]:
            print(line if line.startswith("#") else f"{workload}.{line}")
        report["workloads"][workload] = {
            "correct": plain["correct"] and traced["correct"],
            "end_to_end": plain["end_to_end"],
            "op_seconds": plain["op_seconds"],
            "error_rate": (plain["failed"] + traced["failed"]) / (plain["attempted"] + traced["attempted"]),
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    OUT.mkdir(exist_ok=True)
    (OUT / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"# report written to {(OUT / 'report.json').relative_to(ROOT)}")
    return 0 if all(w["correct"] for w in report["workloads"].values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if not (ROOT / "src" / "polylat" / "__init__.py").is_file():
        print(f"error: polylat sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in result["lines"]:
        print(line)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
