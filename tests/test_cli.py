"""Command-line interface: outputs, formats, exit codes, determinism."""
import argparse
import hashlib
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylat import cli
from polylat.cli import MAX_SIZE, MAX_TABLE_CELLS, MAX_WIDTH, MAX_WORKERS, build_parser, main
from polylat.counting import FAMILIES, ROUTES, SIZE_UNIT
from polylat.reference_tables import CC_TABLE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_plateau_gf(capsys):
    code, out, _ = run_cli(capsys, "count", "--family", "plateau", "-k", "3", "-m", "8", "--method", "gf")
    assert code == 0
    assert out == "126\n"


def test_count_default_method(capsys):
    code, out, _ = run_cli(capsys, "count", "--family", "dplateau", "-k", "1", "-m", "2")
    assert code == 0
    assert out == "1\n"


def test_count_oracle(capsys):
    code, out, _ = run_cli(capsys, "count", "--family", "cc", "-k", "2", "-n", "3", "--method", "oracle")
    assert code == 0
    assert out == "4\n"


def test_count_json(capsys):
    code, out, _ = run_cli(capsys, "count", "--family", "plateau", "-k", "2", "-m", "6", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"family": "plateau", "k": 2, "size": 6, "method": "gf", "value": 34}


def test_count_gf_routes(capsys):
    code, out, _ = run_cli(capsys, "count", "--family", "dcc", "-k", "3", "-n", "4", "--method", "gf")
    assert (code, out) == (0, "5\n")
    code, out, _ = run_cli(capsys, "count", "--family", "dplateau", "-k", "2", "-m", "5", "--method", "gf")
    assert (code, out) == (0, "6\n")
    code, out, _ = run_cli(capsys, "count", "--family", "dplateau", "-k", "2", "-m", "6", "--method", "conv")
    assert (code, out) == (0, "21\n")


def test_count_accepts_either_size_flag(capsys):
    code_n, out_n, _ = run_cli(capsys, "count", "--family", "plateau", "-k", "2", "-n", "6")
    code_m, out_m, _ = run_cli(capsys, "count", "--family", "plateau", "-k", "2", "-m", "6")
    assert code_n == code_m == 0
    assert out_n == out_m


def test_count_usage_errors(capsys):
    code, _, err = run_cli(capsys, "count", "--family", "cc", "-k", "2", "-n", "3", "--method", "closed")
    assert code == 2
    assert "not available" in err
    code, _, err = run_cli(capsys, "count", "--family", "plateau", "-k", "2")
    assert code == 2
    assert "size" in err
    code, _, err = run_cli(capsys, "count", "--family", "cc", "-k", "0", "-n", "3")
    assert code == 2
    code, _, err = run_cli(capsys, "count", "--family", "cc", "-k", "2", "-n", "3", "--dump", "x")
    assert code == 2
    code, out, err = run_cli(capsys, "count", "--family", "plateau", "-k", "2", "-n", "6", "-m", "9")
    assert (code, out) == (2, "")
    assert "not both" in err
    for k in ("0", "-2"):
        code, out, err = run_cli(capsys, "count", "--family", "dplateau", "-k", k, "-m", "5", "--method", "gf")
        assert (code, out) == (2, "")
        assert "width must be >= 1" in err


@pytest.mark.parametrize("family", ROUTES)
def test_count_routes_agree(capsys, family):
    unit = SIZE_UNIT[family]
    size_flag = "-n" if unit == 1 else "-m"
    for k in range(1, 4):
        for size in range(unit * k, unit * k + 5):
            argv = ["count", "--family", family, "-k", str(k), size_flag, str(size)]
            code, default, _ = run_cli(capsys, *argv)
            assert code == 0
            for route in ROUTES[family]:
                assert run_cli(capsys, *argv, "--method", route) == (0, default, ""), (route, k, size)


def test_count_dump(tmp_path, capsys):
    path = tmp_path / "objects.txt"
    code, out, _ = run_cli(
        capsys, "count", "--family", "plateau", "-k", "2", "-m", "5", "--method", "oracle", "--dump", str(path)
    )
    assert code == 0
    assert out == "8\n"
    lines = path.read_text().splitlines()
    assert len(lines) == 8
    assert all(line.count("(") == 2 for line in lines)


def test_count_dump_disagreeing_with_count_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(ROUTES["plateau"], "oracle", lambda k, m: 9)
    path = tmp_path / "objects.txt"
    code, out, err = run_cli(
        capsys, "count", "--family", "plateau", "-k", "2", "-m", "5", "--method", "oracle", "--dump", str(path)
    )
    assert code == 1
    assert out == "9\n"
    assert "wrote 8 objects" in err
    assert len(path.read_text().splitlines()) == 8


def test_count_dump_to_unwritable_path_exits_2(tmp_path, capsys):
    # a missing directory and a directory are usage errors, not tracebacks
    for path in (tmp_path / "missing" / "x.txt", tmp_path):
        code, out, err = run_cli(
            capsys, "count", "--family", "cc", "-k", "2", "-n", "4", "--method", "oracle", "--dump", str(path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write --dump {path}: ")
    assert not (tmp_path / "missing").exists()


def test_table_md(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "cc", "--k-max", "10", "--size-max", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "| size | " + " | ".join(f"k={k}" for k in range(1, 11)) + " |"
    assert lines[2] == "| 1 | 1 | 0 | 0 | 0 | 0 | 0 | 0 | 0 | 0 | 0 |"
    for n in range(1, 11):
        cells = [int(v) for v in lines[n + 1].strip("|").split("|")]
        assert cells == [n] + list(CC_TABLE[n - 1])


def test_table_csv(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "dplateau", "--k-max", "3", "--size-max", "8", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "size,k=1,k=2,k=3"
    assert lines[1] == "2,1,0,0"
    # s_closed values: C(7,6), C(9,4), C(11,2)
    assert lines[-1] == "8,7,126,55"


def test_table_json(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "plateau", "--k-max", "7", "--size-max", "15", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "plateau"
    assert data["header"] == ["size"] + [f"k={k}" for k in range(1, 8)]
    row11 = next(row for row in data["rows"] if row[0] == 11)
    assert row11 == [11, 10, 1968, 9052, 2152, 32, 0, 0]


def test_table_rejects_unknown_format(capsys):
    with pytest.raises(SystemExit) as info:
        main(["table", "--family", "cc", "--k-max", "3", "--size-max", "3", "--format", "xml"])
    assert info.value.code == 2


def test_gf_S(capsys):
    code, out, _ = run_cli(capsys, "gf", "--which", "S", "--terms", "5")
    assert code == 0
    assert out.splitlines() == ["0", "0", "1", "2", "4", "10"]


def test_gf_Rk_json(capsys):
    code, out, _ = run_cli(capsys, "gf", "--which", "Rk", "-k", "2", "--terms", "7", "--json")
    assert code == 0
    assert json.loads(out) == [0, 0, 0, 0, 1, 8, 34, 104]


def test_gf_Ck(capsys):
    code, out, _ = run_cli(capsys, "gf", "--which", "Ck", "-k", "0", "--terms", "3")
    assert code == 0
    assert out.splitlines() == ["0", "1", "1", "1"]


def test_gf_missing_k(capsys):
    code, _, err = run_cli(capsys, "gf", "--which", "Rk", "--terms", "4")
    assert code == 2
    assert "-k is required" in err


def test_gf_s_rejects_k(capsys):
    code, out, err = run_cli(capsys, "gf", "--which", "S", "-k", "3", "--terms", "4")
    assert code == 2
    assert out == ""
    assert "error: -k does not apply to --which S" in err


def test_verify_vandermonde(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "vandermonde")
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["fail"] == 0
    assert report["summary"]["pass"] == 31


def test_verify_lemma41_exit_zero_with_discrepancies(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemma41")
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["paper-discrepancy"] > 0
    ids = {c["id"] for c in report["checks"] if c["status"] == "paper-discrepancy"}
    assert {"printed-formula-vs-gf-k2-n3", "printed-formula-vs-gf-k2-n4"} <= ids


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "everything"])
    assert info.value.code == 2


def test_verify_exit_one_on_failure(capsys, monkeypatch):
    from polylat import verify as verify_module

    def broken_suite(suite):
        report = verify_module.RunReport(suite)
        report.add("synthetic", 1, 2)
        return report

    monkeypatch.setattr("polylat.cli.verify.run_suite", broken_suite)
    code, out, _ = run_cli(capsys, "verify", "--suite", "delannoy")
    assert code == 1
    assert json.loads(out)["summary"]["fail"] == 1


def test_asympt_cc_offset2(capsys):
    code, out, _ = run_cli(capsys, "asympt", "--family", "cc", "--offset", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "8k^2 - 19k + 16"
    assert lines[1] == "degree: 2"
    assert "match" in lines[3]


def test_asympt_plateau_offset0(capsys):
    code, out, _ = run_cli(capsys, "asympt", "--family", "plateau", "--offset", "0")
    assert code == 0
    assert out.splitlines()[0] == "1"


def test_asympt_plateau_offset4(capsys):
    code, out, _ = run_cli(capsys, "asympt", "--family", "plateau", "--offset", "4")
    assert code == 0
    assert "leading coefficient: 512/3 (expected 512/3)" in out
    assert "2k+offset" in out


def test_asympt_k_max_too_small(capsys):
    code, _, err = run_cli(capsys, "asympt", "--family", "cc", "--offset", "2", "--k-max", "4")
    assert code == 2
    assert "too small" in err


def test_asympt_negative_offset(capsys):
    code, _, err = run_cli(capsys, "asympt", "--family", "cc", "--offset", "-1")
    assert code == 2


def test_deterministic_output(capsys):
    first = run_cli(capsys, "table", "--family", "plateau", "--k-max", "5", "--size-max", "12", "--format", "csv")
    second = run_cli(capsys, "table", "--family", "plateau", "--k-max", "5", "--size-max", "12", "--format", "csv")
    assert first == second
    first = run_cli(capsys, "verify", "--suite", "delannoy")
    second = run_cli(capsys, "verify", "--suite", "delannoy")
    assert first == second


def test_count_workers(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--family", "plateau", "-k", "3", "-m", "9", "--method", "oracle", "--workers", "2"
    )
    assert code == 0
    assert out == "666\n"


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_must_be_positive(capsys, workers):
    code, out, err = run_cli(
        capsys, "count", "--family", "plateau", "-k", "3", "-m", "9", "--method", "oracle", "--workers", workers
    )
    assert (code, out) == (2, "")
    assert "--workers must be >= 1" in err


@pytest.mark.parametrize("workers", ["65", "100000"])
def test_workers_over_limit(capsys, workers):
    code, out, err = run_cli(
        capsys, "count", "--family", "plateau", "-k", "3", "-m", "9", "--method", "oracle", "--workers", workers
    )
    assert (code, out) == (2, "")
    assert f"--workers {workers} is over the limit of {MAX_WORKERS}" in err


def test_workers_need_fork(capsys, monkeypatch):
    # no count forks: without os.fork, --workers 2 prints the serial bytes
    # at the oracle cells of the benchmark
    monkeypatch.delattr(os, "fork")
    for family, size_flag, k, size in (("cc", "-n", "5", "16"), ("dcc", "-n", "4", "15"),
                                       ("dplateau", "-m", "3", "12"), ("plateau", "-m", "4", "15")):
        argv = ("count", "--family", family, "-k", k, size_flag, size, "--method", "oracle", "--workers")
        serial = run_cli(capsys, *argv, "1")
        assert serial[0] == 0 and serial[1], family
        assert run_cli(capsys, *argv, "2") == serial, family


@pytest.mark.parametrize("method", [["--method", "gf"], []])
def test_workers_require_oracle(capsys, method):
    # a non-oracle route runs no worker: --workers there is a usage error
    code, out, err = run_cli(capsys, "count", "--family", "cc", "-k", "3", "-n", "5", *method, "--workers", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: --workers requires --method oracle\n")
    # the range checks on --workers come first
    code, out, err = run_cli(capsys, "count", "--family", "cc", "-k", "3", "-n", "5", *method, "--workers", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: --workers must be >= 1, got 0\n")
    code, out, _ = run_cli(capsys, "count", "--family", "cc", "-k", "3", "-n", "5", *method, "--workers", "1")
    assert (code, out) == (0, "31\n")


def test_verify_takes_no_workers(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "delannoy", "--workers", "2"])
    assert info.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_one_parser_serves_every_call_in_a_process(capsys, monkeypatch):
    # a count, an argparse error and a usage error of our own print what a
    # freshly built parser prints, and the process builds one parser
    calls = [
        ["count", "--family", "dcc", "-k", "3", "-n", "7", "--method", "oracle"],
        ["table", "--family", "cc", "--k-max", "3", "--size-max", "3", "--format", "xml"],
        ["count", "--family", "cc", "-k", "3", "-n", "5", "--method", "closed"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, *capsys.readouterr()

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    assert [code for code, _, _ in fresh] == [0, 2, 2]
    assert "invalid choice: 'xml'" in fresh[1][2] and "method 'closed' is not available" in fresh[2][2]

    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    assert [outcome(argv) for argv in calls] == fresh
    assert built == [1]


# Every subcommand's options: adding or dropping one must change this map.
CLI_OPTIONS = {
    "count": {"--family", "-k", "-n", "-m", "--method", "--workers", "--dump", "--json"},
    "table": {"--family", "--k-max", "--size-max", "--format"},
    "gf": {"--which", "-k", "--terms", "--json"},
    "verify": {"--suite"},
    "asympt": {"--family", "--offset", "--k-max"},
}


def test_cli_option_surface():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert options == CLI_OPTIONS


# SHA-256 of stdout, taken when every series was still expanded by the
# general denominator recurrence: the prefix-sum expansion must not change
# a byte.
TABLE_CSV_DIGESTS = {
    "dcc": "2271c6593218a50c2547afbbd7c180942f1ecae0ee74a083da4a7802b8110f53",
    "cc": "263c882604c4b399e81a037bfbd88e0e021a1990bec9ad896875c3f01012fcfa",
    "dplateau": "d9fce6610c75af6faad57e9f2804c355d0a64ce551e11d2bf4fe974a0e63b131",
    "plateau": "e613972c81f5c0217cc816a51724f0ecc73a8319184644df4e3b2630c7203a8a",
}
GF_DIGESTS = {
    "Sk": "900d8ee92f3636ba4e5873a13ee98510aa2ec72705f7a2037bef883518f7d41c",
    "S": "b441ae94ba1c3cd97cfa5f2fa5be906e053b45e7bdbd06e800146378ca2654b2",
    "Ck": "07ae49d2044df54bda38dfc2c686575ca325bd0731c21b5e095f5733ab76e2f5",
    "Rk": "c6fb44f0da9950985c406569e1f42345cb927ec5954a94a2e5169cb705524104",
}


# SHA-256 of verify --suite all stdout and of the dump files of the
# benchmark's dump cells, taken while 2D and 3D directedness were still
# searched by separate functions: lifting columns to depth-1 strata for the
# one 3D search must not change a byte. The last four dump cells, past the
# benchmark's, were taken while columns and strata had rules of their own:
# one set of slice rules by number of axes must not change a byte either.
VERIFY_ALL_DIGEST = "317a5db272cd083b80b6a46be57e673bcd1f81e98bcd2809b49407d500968062"
DUMP_DIGESTS = {
    ("plateau", 3, 9): "904dabb1730cd3fec4fd7616a50ff2ea8b0bed47623c1c83733e2aa750495d55",
    ("cc", 4, 10): "c845c376fce35cd88c0a47fe5d11333a2071d0ea841062426c2ec1e6d6482354",
    ("dplateau", 3, 10): "16c62c5a39b48cf684fa325dda64263ab0b9e768eb655be59118d86254942635",
    ("dcc", 4, 10): "50e161421117d97247fab56c552dedf1da3086357a38f1376a7d8a63c36dfdea",
    ("plateau", 2, 5): "20db77db9d4fe70bb154d8f875b7104b1b5b1d9a3edc8505543f6919ee233344",
    ("cc", 2, 4): "8a8fdade4aa27ecfefcabd30e0554529364ee8177df5ebff90356c9a48fea999",
    ("dplateau", 2, 5): "d7ec7011df8b8f470cd552c5ff777ad0882519dfd49a13daac857ee998f759ab",
    ("dcc", 2, 4): "fc0ed134e1600bf58c453e76e5e6ceb78ebc062fc989fa0d201bb73e4cd2e34a",
    ("cc", 5, 13): "455b97e9b728a83f589a0aaaf0b38303c0d37da78e1948ab5590db4cb8d2e0b5",
    ("dcc", 5, 14): "d221eb13bc79a2dac4c1fcd729900591eb3aaf3dd4a271bb1094db3bb5e3d480",
    ("plateau", 4, 13): "4851d275d4d9adb0f263fdf44fddd4278b043d16b57668385ab8710f3fcdd0fb",
    ("dplateau", 4, 14): "5b8bd7e85b7b8141074a0d4f5aaa5054b0d125df4d9cf58fa3ab5c280c1b1dc2",
}


@pytest.mark.parametrize("family", TABLE_CSV_DIGESTS)
def test_table_csv_golden_digest(capsys, family):
    code, out, _ = run_cli(capsys, "table", "--family", family, "--k-max", "30", "--size-max", "90", "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_CSV_DIGESTS[family]


@pytest.mark.parametrize("which", GF_DIGESTS)
def test_gf_golden_digest(capsys, which):
    width = () if which == "S" else ("-k", "7")  # S has no width
    code, out, _ = run_cli(capsys, "gf", "--which", which, *width, "--terms", "60")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GF_DIGESTS[which]


def test_verify_all_golden_digest(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_DIGEST


@pytest.mark.parametrize("family, k, size", DUMP_DIGESTS)
def test_dump_golden_digest(tmp_path, capsys, family, k, size):
    path = tmp_path / "objects.txt"
    size_flag = "-n" if SIZE_UNIT[family] == 1 else "-m"
    code, _, _ = run_cli(
        capsys, "count", "--family", family, "-k", str(k), size_flag, str(size), "--method", "oracle", "--dump", str(path)
    )
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DUMP_DIGESTS[family, k, size]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["gf", "--which", "Sk", "-k", "1", "--terms", "100000000000"], f"--terms 100000000000 is over the limit of {MAX_SIZE}"),
        (["gf", "--which", "Ck", "-k", str(MAX_WIDTH + 1), "--terms", "3"], f"-k {MAX_WIDTH + 1} is over the limit of {MAX_WIDTH}"),
        (["table", "--family", "cc", "--k-max", str(MAX_WIDTH + 1), "--size-max", "3"], f"--k-max {MAX_WIDTH + 1} is over the limit"),
        (["table", "--family", "plateau", "--k-max", "3", "--size-max", str(MAX_SIZE + 1)], f"--size-max {MAX_SIZE + 1} is over the limit"),
        (["table", "--family", "dcc", "--k-max", str(MAX_WIDTH), "--size-max", str(MAX_SIZE)], f"is over the limit of {MAX_TABLE_CELLS}"),
        (["count", "--family", "cc", "-k", "3", "-n", str(MAX_SIZE + 1)], f"-n {MAX_SIZE + 1} is over the limit of {MAX_SIZE}"),
        (["count", "--family", "plateau", "-k", "3", "-m", str(MAX_SIZE + 1), "--method", "conv"], f"-m {MAX_SIZE + 1} is over the limit"),
        (["count", "--family", "dplateau", "-k", str(MAX_WIDTH + 1), "-m", "4", "--method", "gf"], f"-k {MAX_WIDTH + 1} is over the limit"),
        (["asympt", "--family", "cc", "--offset", "2", "--k-max", str(MAX_WIDTH + 1)], f"--k-max {MAX_WIDTH + 1} is over the limit"),
        (["asympt", "--family", "plateau", "--offset", str(MAX_WIDTH)], "is over the limit"),
        (["count", "--family", "cc", "-k", "1200", "-n", "1200", "--method", "oracle"], f"-k 1200 is over the limit of {MAX_WIDTH}"),
        (["count", "--family", "dplateau", "-k", "2", "-m", str(MAX_SIZE + 1), "--method", "oracle"], f"-m {MAX_SIZE + 1} is over the limit"),
        (["count", "--family", "dcc", "-k", "2", "-n", "-5", "--method", "oracle"], "-n must be >= 0, got -5"),
        (["count", "--family", "plateau", "-k", "2", "-m", "-1"], "-m must be >= 0, got -1"),
        (["gf", "--which", "Ck", "-k", "2", "--terms", "-1"], "--terms must be >= 0, got -1"),
        (["gf", "--which", "Ck", "-k", "-1", "--terms", "3"], "error: -k must be >= 0, got -1"),
        (["gf", "--which", "Sk", "-k", "-1", "--terms", "3"], "error: -k must be >= 0, got -1"),
        (["gf", "--which", "Rk", "-k", "0", "--terms", "3"], "error: -k must be >= 1, got 0"),
        (["gf", "--which", "Rk", "-k", "-1", "--terms", "3"], "error: -k must be >= 1, got -1"),
    ],
)
def test_arguments_over_their_limit_exit_2(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert named in err


@pytest.mark.parametrize("family", ROUTES)
def test_count_size_below_zero_exits_2_on_every_route(capsys, family):
    # size 0 is below every family's support, a valid count of 0
    size_flag = "-n" if SIZE_UNIT[family] == 1 else "-m"
    for route in ROUTES[family]:
        argv = ["count", "--family", family, "-k", "2", "--method", route]
        code, out, err = run_cli(capsys, *argv, size_flag, "-5")
        assert (code, out) == (2, ""), route
        assert f"{size_flag} must be >= 0, got -5" in err
        assert run_cli(capsys, *argv, size_flag, "0") == (0, "0\n", ""), route


@pytest.mark.parametrize("family", ROUTES)
def test_oracle_runs_at_the_width_cap(tmp_path, capsys, family):
    # one object at the widest width and its minimal size: a DFS as deep as
    # the cap allows, counted and dumped
    size_flag, size = ("-n" if SIZE_UNIT[family] == 1 else "-m"), SIZE_UNIT[family] * MAX_WIDTH
    path = tmp_path / "objects.txt"
    code, out, _ = run_cli(
        capsys, "count", "--family", family, "-k", str(MAX_WIDTH), size_flag, str(size),
        "--method", "oracle", "--dump", str(path),
    )
    assert (code, out) == (0, "1\n")
    assert len(path.read_text().splitlines()) == 1


def _flag(name, good, bad=()):
    """The flag with a value, or no word for None: good values (None among
    them where leaving the flag out is good) are drawn twice as often as
    bad ones, and None once more."""
    values = (*good * 2, None, *bad)
    return st.sampled_from(values).map(lambda value: [] if value is None else [name, str(value)])


def _switch(name):
    return st.sampled_from(([], [name]))


def _size(flag):
    return _flag(flag, (0, 3, 6, 9, 12), (-1, MAX_SIZE + 1, "x"))


# An argv grammar over the five subcommands: good and bad choices, negative,
# over-limit and non-integer values, missing and conflicting flags, and
# --dump paths that can and cannot be written ({dir} is a fresh directory).
# With no work bound on the oracle yet, every count is a small cell (size
# at most 12), every table at most 400 x 10 or 3 x 501 cells, every fit at
# most 40 widths wide, and verify runs only its suites that take
# milliseconds (not bijection, not all). The 300 cases, each run twice,
# take 1.5-1.9 s on 2 vCPUs under Python 3.11.
WIDTHS, BAD_WIDTHS = (1, 2, 3, 4, MAX_WIDTH), (-1, 0, MAX_WIDTH + 1, "x", "1.5")
CLI_GRAMMAR = {
    "count": (
        _flag("--family", FAMILIES, ("nope",)), _flag("-k", WIDTHS, BAD_WIDTHS),
        st.one_of(_size("-n"), _size("-m"), st.tuples(_size("-n"), _size("-m")).map(lambda pair: pair[0] + pair[1])),
        _flag("--method", ("closed", "conv", "gf", "oracle", None), ("brute",)),
        _flag("--workers", (None, 1), (0, 2, MAX_WORKERS + 1)),
        _flag("--dump", (None,), ("{dir}/objects.txt", "{dir}/missing/objects.txt")), _switch("--json"),
    ),
    "table": (
        _flag("--family", FAMILIES, ("nope",)), _flag("--k-max", (1, 3, MAX_WIDTH), (-1, 0, MAX_WIDTH + 1, "x")),
        _flag("--size-max", (1, 10, 501), (-1, 0, MAX_SIZE + 1, "x")),
        _flag("--format", ("csv", "json", "md", None), ("xml",)),
    ),
    "gf": (
        _flag("--which", ("Sk", "S", "Ck", "Rk"), ("Q",)), _flag("-k", (0, *WIDTHS, None), BAD_WIDTHS),
        _flag("--terms", (0, 5, 60), (-1, MAX_SIZE + 1, "x")), _switch("--json"),
    ),
    "verify": (_flag("--suite", ("delannoy", "vandermonde", "lemma41", "tables", "asymptotics"), ("nope",)),),
    "asympt": (
        _flag("--family", ("cc", "plateau"), ("dcc",)), _flag("--offset", (0, 2, 4, 7), (-1, "x")),
        _flag("--k-max", (None, 12, 40), (1, MAX_WIDTH + 1, "x")),
    ),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from((*CLI_GRAMMAR, "frob")))
    groups = [group for group in (draw(option) for option in CLI_GRAMMAR.get(command, ())) if group]
    return [command] + [word for group in draw(st.permutations(groups)) for word in group]


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _read_if_written(path):
    return open(path, "rb").read() if os.path.exists(path) else None


@settings(deadline=None, max_examples=300)
@given(_argv())
def test_any_argv_exits_0_1_or_2_with_the_same_bytes_twice(argv):
    # any other exception escapes main and fails the test with its argv
    with tempfile.TemporaryDirectory() as directory:
        argv = [word.replace("{dir}", directory) for word in argv]
        dump = os.path.join(directory, "objects.txt")
        first, dumped = _outcome(argv), _read_if_written(dump)
        assert (_outcome(argv), _read_if_written(dump)) == (first, dumped)
    code, out, err = first
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert "error:" in err and out == ""
