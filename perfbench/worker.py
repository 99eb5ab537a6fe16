"""One fresh interpreter that runs one workload's operation list once.

run.py starts this script once per sample, so polylat's process-global
caches start cold, as they do for every CLI call. It prints one JSON object
on stdout: set-up time, per-operation seconds, answers and peak RSS, plus
the per-layer metrics when traced. Usage (normally only from run.py):

    python3 perfbench/worker.py WORKLOAD SEED SCALE TRACE INJECT SPAWNED_AT SPANS_PATH

SPAWNED_AT is ``time.monotonic()`` in the parent just before it started
this process; Linux's monotonic clock is shared between processes, so
set-up time covers interpreter start, ``import polylat`` and input
generation.
"""
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_mb() -> float:
    """Peak resident set of this process since it started running Python.

    Linux's ru_maxrss also keeps the peak of the address space this process
    replaced at exec, which is the parent's; VmHWM covers only our own."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv: list[str]) -> int:
    workload, seed, scale, trace, inject, spawned_at, spans_path = argv
    src = ROOT / "src"
    if not (src / "polylat" / "__init__.py").is_file():
        print(f"polylat sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))

    import json
    import tempfile

    import polylat
    import polylat.cli  # noqa: F401  (the package does not import its CLI module)

    import workloads

    ops = workloads.make_ops(workload, int(seed), scale)
    setup_s = time.monotonic() - float(spawned_at)

    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer().install(polylat)

    timings, twins, raws, errors = [], [], [], {}
    workloads.twin_seconds(workload, 0.0)  # fills reference.py's own memo
    before = workloads.twin_seconds(workload, workloads.TWIN_EVERY_S)
    pending = 0.0
    with tempfile.TemporaryDirectory(prefix=".dump-", dir=ROOT / "perfbench") as tmp:
        dump_path = Path(tmp) / "objects.txt"
        for index, op in enumerate(ops):
            if tracer:
                tracer.op = index
            try:
                seconds, raw = workloads.execute(op, polylat, dump_path)
            except Exception as exc:  # an operation that raises counts as failed
                seconds, raw = None, None
                errors[index] = f"{type(exc).__name__}: {exc}"
            timings.append(seconds)
            raws.append(raw)
            pending += seconds or 0.0
            if pending >= workloads.TWIN_EVERY_S or index == len(ops) - 1:
                after = workloads.twin_seconds(workload, workloads.TWIN_SHARE * pending)
                twins += [[(b + a) / 2 for b, a in zip(before, after)]] * (len(timings) - len(twins))
                before, pending = after, 0.0
        if tracer:
            tracer.uninstall()
        if inject == "1" and raws[0] is not None:
            raws[0] = workloads.corrupt(ops[0], raws[0])
        answers = []
        for index, (op, raw) in enumerate(zip(ops, raws)):
            try:
                answers.append(None if raw is None else workloads.answer(op, raw, polylat, dump_path))
            except Exception as exc:
                answers.append(None)
                errors.setdefault(index, f"{type(exc).__name__}: {exc}")

    result = {
        "setup_s": setup_s,
        "seconds": timings,
        "twin_seconds": twins,
        "answers": answers,
        "errors": {str(k): v for k, v in errors.items()},
        "peak_rss_mb": peak_rss_mb(),
        "layers": None,
    }
    if tracer:
        layers = tracer.metrics()
        oracle_by_op = tracer.layer_seconds_by_op("oracle")
        serial = [i for i, op in enumerate(ops) if op[:2] == ("count", "plateau") and op[4] == 1]
        parallel = [i for i, op in enumerate(ops) if op[:2] == ("count", "plateau") and op[4] > 1]
        layers["oracle.workers2_speedup"] = (
            oracle_by_op[serial[0]] / oracle_by_op[parallel[0]] if serial and parallel else 0.0
        )
        verify = [a for op, a in zip(ops, answers) if op[0] == "verify" and a]
        layers["verify.checks.fail"] = sum(a["fail"] for a in verify)
        layers["verify.checks.paper_discrepancy"] = sum(
            status == "paper-discrepancy" for a in verify for _, status in a["flagged"]
        )
        layers["cli.stdout_bytes"] = sum(
            len(raw[1].encode()) for op, raw in zip(ops, raws) if raw is not None and op[0] not in ("api", "fit")
        )
        result["layers"] = layers
        tracer.write(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
