"""Verification suites: statuses, the documented discrepancy set, and the
report schema."""
import json
import tracemalloc
from itertools import chain

import pytest

from polylat import oracle, verify
from polylat.counting import count_dcc, r_gf, s_closed
from polylat.oracle import count_sizes
from polylat.verify import (
    FAIL,
    PAPER_DISCREPANCY,
    PASS,
    RunReport,
    run_suite,
    suite_tables,
)

# every publication defect the toolkit knows about, by check id
EXPECTED_TABLE_DISCREPANCY_CELLS = {
    "plateau-table-m13-k4",   # printed 57922, regenerated 57928
    "plateau-table-m21-k5",   # printed 7008599688, regenerated 700859688
    "plateau-table-m22-k4",   # printed 48109488, regenerated 481094288
}


def test_run_suite_rejects_unknown():
    with pytest.raises(ValueError):
        run_suite("percolation")


def test_delannoy_suite_all_pass():
    report = run_suite("delannoy")
    assert report.summary[FAIL] == 0
    assert report.summary[PAPER_DISCREPANCY] == 0
    assert report.summary[PASS] == len(report.checks)


def test_vandermonde_suite_all_pass():
    report = run_suite("vandermonde")
    assert not report.failed
    assert report.summary[PASS] == 31


def test_lemma41_suite_demonstrates_counterexamples():
    report = run_suite("lemma41")
    assert not report.failed
    by_id = {c.id: c for c in report.checks}
    counterexample = by_id["printed-formula-vs-gf-k2-n3"]
    assert counterexample.status == PAPER_DISCREPANCY
    assert counterexample.expected == "4"
    assert counterexample.actual == "2"
    counterexample = by_id["printed-formula-vs-gf-k2-n4"]
    assert counterexample.status == PAPER_DISCREPANCY
    assert counterexample.expected == "9"
    assert counterexample.actual == "1"
    # the generating-function route agrees with the table and the oracle
    assert by_id["gf-vs-table-k2-n3"].status == PASS
    assert by_id["gf-vs-oracle-k2-n3"].status == PASS
    assert by_id["gf-vs-oracle-k2-n4"].status == PASS


def test_tables_suite_documents_published_typos():
    report = suite_tables()
    assert not report.failed
    discrepancy_ids = {c.id for c in report.checks if c.status == PAPER_DISCREPANCY}
    value_ids = {i for i in discrepancy_ids if i.startswith("plateau-table-")}
    label_ids = {i for i in discrepancy_ids if i.startswith("plateau-row-label-")}
    assert value_ids == EXPECTED_TABLE_DISCREPANCY_CELLS
    assert len(label_ids) == 8  # the tail rows 18..25 carry wrong labels
    by_id = {c.id: c for c in report.checks}
    assert by_id["plateau-table-m13-k4"].expected == "57928"
    assert by_id["plateau-table-m13-k4"].actual == "57922"
    assert by_id["plateau-table-m21-k5"].expected == "700859688"
    assert by_id["plateau-table-m22-k4"].expected == "481094288"
    # all column-convex rows and all clean plateau rows pass
    assert by_id["cc-table-n10"].status == PASS
    assert by_id["plateau-row-m15"].status == PASS
    # cross-method agreement over the regenerated range
    for k in range(1, 8):
        assert by_id[f"plateau-gf-vs-conv-k{k}"].status == PASS
    for m in range(2, 17):
        assert by_id[f"plateau-oracle-m{m}"].status == PASS


def test_bijection_suite_all_pass():
    report = run_suite("bijection")
    assert report.summary[FAIL] == 0
    assert report.summary[PAPER_DISCREPANCY] == 0


# an undirected polycube of width 2 and lateral area 7, and another one of
# the same size
TARGET = oracle.PlateauPolycube(((0, 2, 0, 1), (-1, 2, 0, 2)))
OTHER = oracle.PlateauPolycube(((0, 1, 0, 2), (0, 2, 0, 2)))


@pytest.mark.parametrize("owner, name, fault, record", [
    # the round trip and the pairing set give another polycube for the target
    (oracle, "unproject", lambda right: lambda a, b: OTHER if right(a, b) == TARGET else right(a, b),
     "bijection-k2-m7"),
    # the voxel lateral area is one too large on the target's cells
    (oracle, "lateral_area_voxels", lambda right: lambda cells: right(cells) + (cells == TARGET.cells()),
     "bijection-k2-m7"),
    # the target's two projections come out swapped
    (oracle, "project", lambda right: lambda p: right(p)[::-1] if p == TARGET else right(p),
     "bijection-k2-m7"),
    # the whole-object search answers wrong on the target alone
    (oracle.PlateauPolycube, "is_directed", lambda right: lambda p: right(p) != (p == TARGET),
     "directedness-transfer-k2-m7"),
    # the enumeration yields the target twice: every pair is still met once
    (oracle, "iter_plateau", lambda right: lambda k, m: chain(right(k, m), [TARGET] * ((k, m) == (2, 7))),
     "bijection-k2-m7"),
])
def test_bijection_suite_catches_a_fault_on_one_object(monkeypatch, owner, name, fault, record):
    monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    assert [c.id for c in verify.suite_bijection().checks if c.status != PASS] == [record]


def test_bijection_suite_keeps_no_projection_per_polycube():
    # the projections are looked up among the pairs, not kept beside them
    tracemalloc.start()
    try:
        report = verify.suite_bijection()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not report.failed
    assert peak < 1_500_000


def test_asymptotics_suite_all_pass():
    report = run_suite("asymptotics")
    assert report.summary[FAIL] == 0
    ids = {c.id for c in report.checks}
    assert "plateau-size-reading" in ids
    # the published offset-3 polynomial at k=4 and the count at area 11
    reading = next(c for c in report.checks if c.id == "plateau-size-reading")
    assert reading.expected == reading.actual == "r_{k,2k+offset}: offset 3, k=4 -> 2152"
    for family in ("cc", "plateau"):
        for offset in range(7):
            assert f"asympt-{family}-offset{offset}-degree" in ids
            assert f"asympt-{family}-offset{offset}-leading" in ids
            assert f"asympt-{family}-offset{offset}-printed" in ids


@pytest.fixture(scope="module")
def all_report():
    return run_suite("all")


def test_all_suite_aggregates(all_report):
    combined = all_report
    parts = [run_suite(s) for s in ("delannoy", "vandermonde", "lemma41", "tables", "bijection", "asymptotics")]
    assert len(combined.checks) == sum(len(p.checks) for p in parts)
    assert combined.summary[PAPER_DISCREPANCY] == sum(p.summary[PAPER_DISCREPANCY] for p in parts)
    assert not combined.failed


def test_status_is_pass_exactly_when_strings_agree(all_report):
    for check in all_report.checks:
        assert (check.status == PASS) == (check.expected == check.actual), check
    assert all_report.summary[FAIL] == 0
    assert all_report.summary[PAPER_DISCREPANCY] == 35


def test_oracle_records_state_skipped_widths_in_both_strings(monkeypatch):
    # no width is skipped under the real budget; a small one skips many
    monkeypatch.setattr(verify, "ORACLE_COUNT_BUDGET", 1000)
    oracle_checks = [c for c in suite_tables().checks if c.id.startswith("plateau-oracle-")]
    skipping = [c for c in oracle_checks if "skipped" in c.expected]
    assert len(skipping) == 7  # lateral areas 10..16
    assert all(c.actual == c.expected and c.status == PASS for c in oracle_checks)


def test_directed_oracle_records(all_report):
    by_id = {c.id: c for c in all_report.checks}
    scope = "agreement for k in [1, 2, 3, 4]"
    ids = [f"dcc-oracle-n{n}" for n in range(1, 11)] + [f"dplateau-oracle-m{m}" for m in range(2, 11)]
    for check_id in ids:
        assert (by_id[check_id].expected, by_id[check_id].actual, by_id[check_id].status) == (scope, scope, PASS)


def test_oracle_walks_stay_within_the_budget(monkeypatch):
    # each width is walked once, at most to its largest size within the
    # budget, and no skipped cell is counted
    monkeypatch.setattr(verify, "ORACLE_COUNT_BUDGET", 1000)
    walks = []

    def recording(family, k, sizes):
        walks.append((family, k, list(sizes)))
        return count_sizes(family, k, sizes)

    monkeypatch.setattr(oracle, "count_sizes", recording)
    skipped = {c.id for c in suite_tables().checks if "skipped" in c.expected}
    assert len(skipped) == 7
    formulas = {"plateau": r_gf, "dcc": count_dcc, "dplateau": s_closed}
    assert [(family, k) for family, k, _ in walks] == [
        *(("plateau", k) for k in range(1, 8)), *(("dcc", k) for k in range(1, 5)),
        *(("dplateau", k) for k in range(1, 5))]
    for family, k, sizes in walks:
        # the walk's largest size, like every size it counts, is within the budget
        assert sizes and all(formulas[family](k, size) <= 1000 for size in sizes), (family, k)


def test_oracle_disagreement_fails_its_record(monkeypatch):
    def off_at_k3_n7(family, k, sizes):
        return {n: count + ((k, n) == (3, 7)) for n, count in count_sizes(family, k, sizes).items()}

    monkeypatch.setattr(oracle, "count_sizes", off_at_k3_n7)
    report = RunReport("demo")
    verify._add_oracle_checks(report, "dcc-oracle-n", "dcc", count_dcc, range(6, 9), range(1, 5))
    assert [(c.id, c.actual, c.status) for c in report.checks] == [
        ("dcc-oracle-n6", "agreement for k in [1, 2, 3, 4]", PASS),
        ("dcc-oracle-n7", "oracle disagreement", FAIL),
        ("dcc-oracle-n8", "agreement for k in [1, 2, 3, 4]", PASS),
    ]


def test_report_mismatch_status():
    report = RunReport("demo")
    report.add("same", "4", 4, PAPER_DISCREPANCY)
    report.add("differs", 4, 2, PAPER_DISCREPANCY)
    assert [c.status for c in report.checks] == [PASS, PAPER_DISCREPANCY]
    assert not report.failed


def test_report_schema():
    report = run_suite("delannoy")
    data = json.loads(report.to_json())
    assert set(data) == {"suite", "checks", "summary"}
    assert data["suite"] == "delannoy"
    for check in data["checks"]:
        assert set(check) == {"id", "expected", "actual", "status"}
        assert check["status"] in (PASS, FAIL, PAPER_DISCREPANCY)
    assert set(data["summary"]) == {PASS, FAIL, PAPER_DISCREPANCY}


def test_report_failed_flag():
    report = RunReport("demo")
    report.add("ok", 1, 1)
    assert not report.failed
    report.add("broken", 1, 2)
    assert report.failed
    assert report.summary[FAIL] == 1
