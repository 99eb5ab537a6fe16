"""Self-test of the benchmark harness, on tiny generated inputs.

    python3 -m pytest -q perfbench/tests
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_present_and_answers_checked(workload):
    result = run.run_workload(workload, seed=5, seconds=0, trace=False, scale="tiny")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_UNTRACED * len(workloads.make_ops(workload, 5, "tiny"))
    assert _units(result) == run.END_TO_END_UNITS
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert any(line.startswith("error_rate 0 ") for line in result["lines"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_per_layer_metrics_present(workload):
    result = run.run_workload(workload, seed=5, seconds=0, trace=True, scale="tiny")
    assert result["correct"]
    assert _units(result) == tracing.PER_LAYER_UNITS
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert values["counting.calls"] > 0 and values["counting.self_s"] > 0
    if workload == "verify_oracle":
        assert values["oracle.objects"] > 0 and values["oracle.workers2_speedup"] > 0
        assert values["verify.checks.paper_discrepancy"] == 24
    else:
        assert values["oracle.calls"] == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_injected_wrong_answer_raises_error_rate(workload):
    result = run.run_workload(workload, seed=5, seconds=0, trace=False, scale="tiny", inject=True)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert any(line.startswith("# wrong answer") for line in result["lines"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    assert workloads.make_ops(workload, 7) == workloads.make_ops(workload, 7)
    assert workloads.make_ops(workload, 7) != workloads.make_ops(workload, 8)


def test_benchmark_json_declares_the_reported_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_reference_agrees_with_published_cc_table():
    from polylat.reference_tables import CC_TABLE

    for n, row in enumerate(CC_TABLE, start=1):
        assert [reference.cc_cell(k, n) for k in range(1, 11)] == list(row)
    assert reference.table_columns("cc", 10, 10)[4][8] == CC_TABLE[7][3]


def test_tracer_records_spans_and_restores_bindings():
    import polylat
    from polylat import counting

    original = counting.count_cc
    tracer = tracing.Tracer().install(polylat)
    try:
        assert counting.count_cc is not original
        assert polylat.r_conv(3, 12) == polylat.r_gf(3, 12)
    finally:
        tracer.uninstall()
    assert counting.count_cc is original and polylat.count_cc is original
    metrics = tracer.metrics()
    assert metrics["counting.calls"] == 2
    assert metrics["counting.cache_lookups"] >= 2
    assert metrics["combinatorics.calls"] >= 1  # antidiagonal, from gfseries.gf_C
    assert all(span[tracing.END] >= span[tracing.START] for span in tracer.spans)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__", ".*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
