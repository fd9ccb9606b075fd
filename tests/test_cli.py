import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qthresh.cli import SEED_ENV_VAR, main
from qthresh.functions import (
    build_tribes,
    indicator,
    parse_function_file,
    random_zero_monotone,
    write_function_file,
)
from qthresh.influence import influence_bkkkl
from qthresh.measures import SimplexMeasure


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# eval


def test_eval_exact_frozen_row(capsys):
    code, out, _ = run(
        ["eval", "--family", "tribes", "--q", "3", "--n", "4", "--p0", "0.5", "--r", "2",
         "--mu", "0.5,0.25,0.25", "--a", "0"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q,n,mu,a,method,value,std_error,samples"
    assert lines[1] == '3,4,"0.5,0.25,0.25",0,exact-enumeration,0.4375,0,81'


def test_eval_exact_past_cap_exits_1(capsys):
    code, out, err = run(
        ["eval", "--family", "tribes", "--q", "3", "--n", "65536", "--p0", "0.5",
         "--mu", "0.5,0.25,0.25", "--a", "0", "--evaluator", "exact"],
        capsys,
    )
    assert code == 1
    assert "enumeration cap" in err
    assert out == ""


def test_eval_multiple_measures(capsys):
    code, out, _ = run(
        ["eval", "--family", "tribes", "--q", "3", "--n", "4", "--p0", "0.5", "--r", "2",
         "--mu", "0.5,0.25,0.25", "--mu", "0,0.5,0.5", "--a", "0"],
        capsys,
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 3


def test_eval_closed_matches_exact(capsys):
    argv_tail = ["--family", "tribes", "--q", "3", "--n", "6", "--p0", "0.5", "--r", "2",
                 "--mu", "0.3,0.4,0.3", "--a", "0"]
    _, out_exact, _ = run(["eval", *argv_tail], capsys)
    _, out_closed, _ = run(["eval", *argv_tail, "--evaluator", "closed"], capsys)
    val_exact = float(out_exact.strip().split("\n")[1].split(",")[-3])
    val_closed = float(out_closed.strip().split("\n")[1].split(",")[-3])
    assert val_closed == pytest.approx(val_exact, abs=1e-12)


def test_eval_mc_deterministic_per_seed(capsys):
    argv = ["eval", "--family", "tribes", "--q", "3", "--n", "6", "--p0", "0.5", "--r", "2",
            "--mu", "0.5,0.25,0.25", "--a", "0", "--evaluator", "mc",
            "--samples", "5000", "--seed", "9"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert out1 == out2
    _, out3, _ = run(argv[:-1] + ["10"], capsys)
    assert out1 != out3


def test_eval_function_file(tmp_path, capsys):
    f = random_zero_monotone(3, 3, 0.4, seed=21)
    path = tmp_path / "fn.txt"
    write_function_file(f, path)
    code, out, _ = run(["eval", "--fn", str(path), "--mu", "0.2,0.4,0.4", "--a", "1"], capsys)
    assert code == 0
    row = next(csv.reader([out.strip().split("\n")[1]]))
    assert row[4] == "exact-enumeration"
    assert 0.0 < float(row[5]) < 1.0


@pytest.mark.parametrize("f", [random_zero_monotone(3, 3, 0.4, seed=21), indicator(build_tribes(3, 4, 0.5, r=2), 1)],
                         ids=["table", "family"])
def test_eval_function_file_with_byte_order_mark(f, tmp_path, capsys):
    clean, marked = tmp_path / "clean.txt", tmp_path / "marked.txt"
    write_function_file(f, clean)
    marked.write_bytes(b"\xef\xbb\xbf" + clean.read_bytes())
    want = parse_function_file(clean)
    for source in (marked, io.StringIO(marked.read_text(encoding="utf-8"))):
        got = parse_function_file(source)
        assert (got.table is None) == (want.table is None)
        assert got.table is None or np.array_equal(got.table, want.table)
        assert (got.kind, got.family, got.indicator_of) == (want.kind, want.family, want.indicator_of)
    outs = []
    for path in (clean, marked):
        code, out, err = run(["eval", "--fn", str(path), "--mu", "0.2,0.4,0.4", "--a", "1"], capsys)
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]


def test_eval_constant_function_file(tmp_path, capsys):
    path = tmp_path / "const.txt"
    path.write_text("q=3 n=2 kind=full\n" + "2\n" * 9)
    code, out, _ = run(["eval", "--fn", str(path), "--mu", "0.2,0.3,0.5", "--a", "2"], capsys)
    assert code == 0
    row = next(csv.reader([out.strip().split("\n")[1]]))
    assert row[5] == "1"


def test_eval_malformed_file_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("q=2 n=1 kind=full\n0\n5\n")
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--fn", str(path), "--mu", "0.5,0.5", "--a", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{path}:3:" in err


def test_eval_requires_one_source(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--mu", "0.5,0.5", "--a", "0"])
    assert exc.value.code == 2


def test_eval_mismatched_measure_is_an_input_error(capsys):
    code, _, err = run(
        ["eval", "--family", "tribes", "--q", "3", "--n", "4", "--p0", "0.5", "--r", "2",
         "--mu", "0.5,0.5", "--a", "0"],
        capsys,
    )
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# influence


def test_influence_variance_rows(capsys):
    code, out, _ = run(
        ["influence", "--family", "tribes", "--q", "3", "--n", "4", "--p0", "0.5", "--r", "2",
         "--level", "0", "--mu", "0.33333333333333331,0.33333333333333331,0.33333333333333337",
         "--kind", "variance"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,kind,value"
    assert len(lines) == 5
    for k, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert fields[0] == str(k)
        assert float(fields[2]) == pytest.approx(16 / 243, abs=1e-12)


def test_influence_keller_row(capsys):
    code, out, _ = run(
        ["influence", "--family", "tribes", "--q", "3", "--n", "4", "--p0", "0.5", "--r", "2",
         "--level", "0", "--mu", "0.5,0.25,0.25", "--kind", "keller"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q,n,max_k,max_value,variance,denominator,ratio"
    fields = lines[1].split(",")
    assert fields[0] == "3" and fields[1] == "4"
    assert float(fields[6]) > 0


def test_influence_keller_constant_reports_na(tmp_path, capsys):
    path = tmp_path / "const.txt"
    path.write_text("q=3 n=2 kind=indicator\n" + "0\n" * 9)
    code, out, _ = run(["influence", "--fn", str(path), "--mu", "0.2,0.4,0.4", "--kind", "keller"], capsys)
    assert code == 0
    assert out.strip().split("\n")[1].endswith(",na")


def test_influence_bkkkl_rows_match_influence_bkkkl(capsys):
    # Blocks of 2 and 3 coordinates, so the coordinates differ.
    mu = "0.5,0.25,0.25"
    code, out, _ = run(["influence", "--family", "tribes", "--q", "3", "--n", "5", "--p0", "0.5",
                        "--r", "2", "--level", "0", "--mu", mu, "--kind", "bkkkl"], capsys)
    assert code == 0
    f = indicator(build_tribes(3, 5, 0.5, r=2), 0)
    want = [["k", "kind", "value"]]
    want += [[str(k), "bkkkl", format(influence_bkkkl(f, SimplexMeasure.parse(mu), k), ".17g")] for k in range(5)]
    assert list(csv.reader(out.splitlines())) == want
    assert len({row[2] for row in want[1:]}) == 2


def test_influence_single_measure_enforced(capsys):
    with pytest.raises(SystemExit):
        main(["influence", "--family", "tribes", "--q", "3", "--n", "4", "--p0", "0.5", "--r", "2",
              "--level", "0", "--mu", "0.5,0.25,0.25", "--mu", "0.2,0.4,0.4"])


# ---------------------------------------------------------------------------
# width


def test_width_row_schema(capsys):
    code, out, _ = run(
        ["width", "--family", "tribes", "--q", "3", "--n", "16", "--p0", "0.5", "--r", "4",
         "--a", "0", "--eps", "0.1", "--evaluator", "closed"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q,n,a,eps,evaluator,method,t_lo,t_hi,width,grid_points,t_tol,lo_absent,hi_absent"
    fields = lines[1].split(",")
    assert fields[4] == "closed"
    assert fields[5] == "bisection"
    assert 0.0 < float(fields[8]) < 1.0
    assert fields[11] == "false" and fields[12] == "false"


def test_width_diagnostics_file(tmp_path, capsys):
    diag = tmp_path / "diag.csv"
    code, _, _ = run(
        ["width", "--family", "tribes", "--q", "3", "--n", "6", "--p0", "0.5", "--r", "2",
         "--level", "0", "--a", "1", "--eps", "0.1", "--diagnostics", str(diag),
         "--diag-grid", "5", "--out", str(tmp_path / "w.csv")],
        capsys,
    )
    assert code == 0
    rows = read_csv(diag)
    assert rows[0] == ["n", "t", "alpha", "derivative", "lower_bound_denominator", "ratio"]
    assert len(rows) == 6
    assert float(rows[1][2]) == 0.5  # alpha of the central base


def test_width_failing_diagnostics_leave_no_file(tmp_path, capsys):
    # width succeeds through the closed form; the diagnostics need the table
    diag, out = tmp_path / "d.csv", tmp_path / "w.csv"
    code, _, err = run(
        ["width", "--family", "tribes", "--q", "3", "--n", "65536", "--p0", "0.5",
         "--a", "0", "--eps", "0.1", "--evaluator", "closed",
         "--diagnostics", str(diag), "--out", str(out)],
        capsys,
    )
    assert code == 1
    assert "enumeration cap" in err
    assert not diag.exists() and not out.exists()


def test_width_custom_base_measure(capsys):
    code, out, _ = run(
        ["width", "--family", "tribes", "--q", "3", "--n", "8", "--p0", "0.5", "--r", "2",
         "--a", "0", "--eps", "0.1", "--mu", "0,0.3,0.7", "--evaluator", "closed"],
        capsys,
    )
    assert code == 0
    assert float(out.strip().split("\n")[1].split(",")[8]) > 0


# ---------------------------------------------------------------------------
# region


def test_region_row_schema(capsys):
    code, out, _ = run(
        ["region", "--family", "tribes", "--q", "3", "--n", "64", "--p0", "0.5", "--r", "4",
         "--a", "0", "--eps", "0.1", "--samples", "2000", "--evaluator", "closed", "--seed", "7"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q,n,a,eps,samples,fraction,std_error,seed"
    fields = lines[1].split(",")
    assert fields[4] == "2000"
    assert 0.0 < float(fields[5]) < 1.0
    assert fields[7] == "7"


def test_region_seed_env_var(tmp_path, capsys, monkeypatch):
    argv = ["region", "--family", "tribes", "--q", "3", "--n", "16", "--p0", "0.5", "--r", "4",
            "--a", "0", "--eps", "0.1", "--samples", "500", "--evaluator", "closed"]
    monkeypatch.setenv(SEED_ENV_VAR, "77")
    _, out_env, _ = run(argv, capsys)
    monkeypatch.delenv(SEED_ENV_VAR)
    _, out_flag, _ = run(argv + ["--seed", "77"], capsys)
    assert out_env == out_flag
    _, out_default, _ = run(argv, capsys)
    assert out_default != out_env  # default seed is 0


def test_region_bad_env_seed(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
    code, _, err = run(
        ["region", "--family", "tribes", "--q", "3", "--n", "16", "--p0", "0.5", "--r", "4",
         "--a", "0", "--eps", "0.1", "--samples", "100", "--evaluator", "closed"],
        capsys,
    )
    assert code == 2
    assert SEED_ENV_VAR in err


TRIBES16 = ["--family", "tribes", "--q", "3", "--n", "16", "--p0", "0.5", "--r", "4"]


@pytest.mark.parametrize("argv, env, named", [
    (["region", *TRIBES16, "--a", "0", "--eps", "0.1", "--samples", "100", "--evaluator", "closed",
      "--seed", "-1"], None, "--seed"),
    (["eval", *TRIBES16, "--mu", "0.5,0.25,0.25", "--a", "0", "--evaluator", "mc", "--samples", "100",
      "--seed", "-3"], None, "--seed"),
    (["eval", *TRIBES16, "--mu", "0.5,0.25,0.25", "--a", "0", "--evaluator", "mc", "--samples", "100"],
     "-2", SEED_ENV_VAR),
], ids=["region-flag", "eval-mc-flag", "eval-env"])
def test_negative_seed_names_its_source(argv, env, named, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    if env is not None:
        monkeypatch.setenv(SEED_ENV_VAR, env)
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert f"error: {named} must be a non-negative integer" in err


TRIBES6 = ["--family", "tribes", "--q", "3", "--n", "6", "--p0", "0.5", "--r", "2"]


@pytest.mark.parametrize("argv", [
    ["eval", *TRIBES6, "--mu", "0.5,0.25,0.25", "--a", "0", "--evaluator", "exact"],
    ["width", *TRIBES6, "--a", "0", "--eps", "0.1", "--evaluator", "closed"],
], ids=["eval-exact", "width-closed"])
def test_bad_env_seed_leaves_a_command_that_draws_nothing_alone(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert run(argv + ["--out", str(tmp_path / "clean.csv")], capsys)[0] == 0
    monkeypatch.setenv(SEED_ENV_VAR, "x")
    code, _, err = run(argv + ["--out", str(tmp_path / "env.csv")], capsys)
    assert code == 0 and err == ""
    assert (tmp_path / "env.csv").read_bytes() == (tmp_path / "clean.csv").read_bytes()


def test_bad_env_seed_fails_an_mc_eval(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "x")
    code, out, err = run(["eval", *TRIBES6, "--mu", "0.5,0.25,0.25", "--a", "0", "--evaluator", "mc",
                          "--samples", "100"], capsys)
    assert code == 2 and out == ""
    assert f"error: {SEED_ENV_VAR} must be an integer" in err


@pytest.mark.parametrize("evaluator", ["exact", "closed", "mc"])
@pytest.mark.parametrize("command", ["eval", "width", "region"])
def test_indicator_output_2_exits_2(command, evaluator, capsys):
    # An indicator's outputs are 0 and 1, so Pr[1[f = 0] = 2] is refused
    # on every route, not read as 0 by one and estimated by another.
    argv = [command, "--family", "tribes", "--q", "3", "--n", "6", "--p0", "0.5", "--r", "2",
            "--level", "0", "--a", "2", "--evaluator", evaluator]
    argv += {"eval": ["--mu", "0.5,0.25,0.25", "--samples", "100"],
             "width": ["--eps", "0.1", "--eval-samples", "100"],
             "region": ["--eps", "0.1", "--samples", "10", "--eval-samples", "100"]}[command]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert "a=2 is not an output of f" in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_files(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(
        ["sweep", "--q", "3", "--p0", "0.5", "--n-list", "1024,4096,16384", "--out", str(out)],
        capsys,
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["n", "r", "p_lo", "p_hi", "width", "width_times_ln_n"]
    assert [r[0] for r in rows[1:]] == ["1024", "4096", "16384"]
    assert rows[1][4] == "0.19587081670761108"
    assert rows[2][4] == "0.16266521718353033"
    assert rows[3][4] == "0.13759851828217506"
    plot = tmp_path / "sweep.plot.dat"
    assert plot.exists()
    assert plot.read_text().splitlines()[0] == "1024 0.19587081670761108"


def test_sweep_explicit_plot_path(tmp_path, capsys):
    plot = tmp_path / "curve.dat"
    code, out, _ = run(
        ["sweep", "--q", "3", "--p0", "0.5", "--n-list", "256", "--plot-out", str(plot)],
        capsys,
    )
    assert code == 0
    assert plot.read_text().startswith("256 ")
    assert out.startswith("n,r,")  # CSV still lands on stdout


def test_sweep_empty_n_list(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    code, _, _ = run(["sweep", "--q", "3", "--p0", "0.5", "--n-list", "", "--out", str(out)], capsys)
    assert code == 0
    assert read_csv(out) == [["n", "r", "p_lo", "p_hi", "width", "width_times_ln_n"]]


def test_sweep_rejects_garbage_n_list(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--q", "3", "--p0", "0.5", "--n-list", "12,potato"])


# ---------------------------------------------------------------------------
# verify


def test_verify_all_suites_pass(capsys):
    code, out, _ = run(["verify"], capsys)
    assert code == 0
    lines = [l for l in out.strip().split("\n") if l.startswith("suite ")]
    assert len(lines) == 8
    assert all(": PASS (" in l for l in lines)


def test_verify_suite_filter(capsys):
    code, out, _ = run(["verify", "--suite", "hent"], capsys)
    assert code == 0
    lines = [l for l in out.strip().split("\n") if l.startswith("suite ")]
    assert len(lines) == 1
    assert lines[0].startswith("suite hent: PASS")


def test_verify_fault_injection_fails(capsys):
    code, out, _ = run(["verify", "--suite", "order", "--inject-fault", "leq"], capsys)
    assert code == 1
    assert "suite order: FAIL" in out
    assert "  - " in out  # at least one failure bullet


# ---------------------------------------------------------------------------
# output files and stdout


TRIBES4 = ["--family", "tribes", "--q", "3", "--n", "4", "--p0", "0.5", "--r", "2"]


@pytest.mark.parametrize("argv", [
    ["eval", *TRIBES4, "--mu", "0.5,0.25,0.25", "--a", "0", "--out", "{tmp}/nodir/x.csv"],
    ["width", *TRIBES4, "--level", "0", "--a", "1", "--eps", "0.1",
     "--diagnostics", "{tmp}/nodir/d.csv", "--out", "{tmp}/w.csv"],
    ["sweep", "--q", "3", "--p0", "0.5", "--n-list", "1024,2048",
     "--out", "{tmp}/s.csv", "--plot-out", "{tmp}/nodir/p.dat"],
])
def test_unwritable_output_exits_1_and_leaves_no_file(tmp_path, capsys, argv):
    code, out, err = run([a.replace("{tmp}", str(tmp_path)) for a in argv], capsys)
    assert code == 1
    assert err.startswith("error: ") and "nodir" in err
    assert "Traceback" not in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["sweep", "--q", "3", "--p0", "0.5", "--n-list", "1024", "--out", "{tmp}/s.dat", "--plot-out", "{tmp}/s.dat"],
    ["width", *TRIBES4, "--level", "0", "--a", "1", "--eps", "0.1",
     "--out", "{tmp}/w.csv", "--diagnostics", "{tmp}/./w.csv"],
])
def test_outputs_naming_one_file_exit_2_and_leave_no_file(tmp_path, capsys, argv):
    code, out, err = run([a.replace("{tmp}", str(tmp_path)) for a in argv], capsys)
    assert code == 2
    assert "same file" in err and str(tmp_path) in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("t_tol, evaluator", [("nan", "exact"), ("inf", "exact"), ("nan", "mc")])
def test_width_non_finite_t_tol_exits_2_and_leaves_no_file(tmp_path, capsys, t_tol, evaluator):
    out = tmp_path / "w.csv"
    code, _, err = run(["width", *TRIBES4, "--a", "0", "--eps", "0.1", "--evaluator", evaluator,
                        "--t-tol", t_tol, "--out", str(out)], capsys)
    assert code == 2
    assert "t_tol" in err
    assert list(tmp_path.iterdir()) == []


FN_EVAL = ["eval", "--fn", "{fn}", "--mu", "0.5,0.25,0.25", "--a", "0"]


@pytest.mark.parametrize("text, argv, lineno, message", [
    pytest.param("q=3 n=2 kind\n", FN_EVAL, 1, "expected key=value tokens", id="bad-token"),
    pytest.param("q=3 n=2 kind=full colour=red\n", FN_EVAL, 1, "unknown key 'colour'", id="unknown-key"),
    pytest.param("q=3 n=2 kind=full\nfamily=tribes r=1 p0=0.5 r=2\n", FN_EVAL, 2, "duplicate key 'r'",
                 id="duplicate-key"),
    pytest.param("\n", FN_EVAL, 1, "empty file", id="empty-file"),
    pytest.param("q=3 n=2 kind=partial\n", FN_EVAL, 1, "kind must be full or indicator", id="bad-kind"),
    pytest.param("q=1 n=2 kind=full\n", FN_EVAL, 1, "need q >= 2 and n >= 1", id="q-below-2"),
    pytest.param("q=3 n=4 kind=full\nfamily=majority r=2 p0=0.5\n", FN_EVAL, 2, "unknown family 'majority'",
                 id="unknown-family"),
    pytest.param("q=3 n=4 kind=full\nfamily=tribes r=2 p0=half\n", FN_EVAL, 2, "p0 must be a real number",
                 id="p0-not-real"),
    pytest.param("q=3 n=4 kind=full\nfamily=tribes r=5 p0=0.5\n", FN_EVAL, 2, "explicit r=5 must lie in 1..4",
                 id="r-out-of-range"),
    pytest.param("q=3 n=4 kind=indicator\nfamily=tribes r=2 p0=0.5 a=3\n", FN_EVAL, 2,
                 "a=3 out of range for q=3", id="a-out-of-range"),
    pytest.param("q=3 n=4 kind=full\nfamily=tribes r=2 p0=0.5 a=0\n", FN_EVAL, 2,
                 "only applies to indicator kind", id="a-on-full-kind"),
    pytest.param(None, FN_EVAL, None, "does not exist", id="missing-file"),
    pytest.param(None, ["eval", "--family", "tribes", "--q", "3", "--mu", "0.5,0.25,0.25", "--a", "0"], None,
                 "--family tribes needs --n, --p0", id="family-without-n-p0"),
    pytest.param(None, ["eval", *TRIBES4, "--a", "0"], None, "at least one --mu is required", id="no-mu"),
    pytest.param(None, ["width", *TRIBES4, "--mu", "0,0.5,0.25,0.25", "--a", "0", "--eps", "0.1"], None,
                 "base measure has 4 atoms, function needs 3", id="width-mu-atom-count"),
])
def test_input_errors_exit_2(tmp_path, capsys, text, argv, lineno, message):
    path = tmp_path / "fn.txt"
    if text is not None:
        path.write_text(text)
    try:
        code = main([a.replace("{fn}", str(path)) for a in argv])
    except SystemExit as exc:  # argparse usage errors and function-file errors
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert message in err
    if lineno is not None:
        assert err.startswith(f"{path}:{lineno}: ")


@pytest.mark.parametrize("argv", [
    ["--family", "tribes", "--q", "3", "--n", "1024", "--p0", "0.5", "--evaluator", "closed"],
    ["--family", "tribes", "--q", "3", "--n", "8", "--p0", "0.5", "--evaluator", "exact"],
], ids=["closed", "exact"])
def test_width_t_tol_below_the_float_spacing_exits_0(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "qthresh.cli", "width", *argv, "--a", "0", "--eps", "0.1",
                           "--t-tol", "1e-20"], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert ",bisection," in proc.stdout


@pytest.mark.parametrize("argv, want", [
    (["verify", "--suite", "order", "--inject-fault", "leq"], 1),
    (["influence", *TRIBES4, "--level", "0", "--mu", "0.5,0.25,0.25"], 0),
])
def test_closed_stdout_keeps_exit_code_without_traceback(argv, want):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "qthresh.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader goes away before the command writes
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == want
    assert "Traceback" not in err and "BrokenPipeError" not in err


# ---------------------------------------------------------------------------
# rerun determinism across commands


def test_rerun_output_files_byte_identical(tmp_path, capsys):
    specs = [
        (["eval", "--family", "tribes", "--q", "3", "--n", "6", "--p0", "0.5", "--r", "2",
          "--mu", "0.5,0.25,0.25", "--a", "0", "--evaluator", "mc", "--samples", "3000",
          "--seed", "5"], "eval.csv"),
        (["width", "--family", "tribes", "--q", "3", "--n", "16", "--p0", "0.5", "--r", "4",
          "--a", "0", "--eps", "0.1", "--evaluator", "closed"], "width.csv"),
        (["region", "--family", "tribes", "--q", "3", "--n", "16", "--p0", "0.5", "--r", "4",
          "--a", "0", "--eps", "0.1", "--samples", "1000", "--evaluator", "closed",
          "--seed", "3"], "region.csv"),
        (["sweep", "--q", "3", "--p0", "0.5", "--n-list", "512,1024"], "sweep.csv"),
    ]
    for argv, name in specs:
        first = tmp_path / ("a_" + name)
        second = tmp_path / ("b_" + name)
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name
    capsys.readouterr()


# ---------------------------------------------------------------------------
# pinned output bytes: every evaluator route of eval, region and width


def _tribes(n, *extra):
    return ["--family", "tribes", "--q", "3", "--n", str(n), "--p0", "0.5", *extra]


PINNED = {
    "eval-exact": (
        ["eval", *_tribes(6, "--r", "2"), "--mu", "0.5,0.25,0.25", "--mu", "0,0.5,0.5",
         "--mu", "0.2,0.3,0.5", "--a", "0", "--evaluator", "exact"],
        'q,n,mu,a,method,value,std_error,samples\n'
        '3,6,"0.5,0.25,0.25",0,exact-enumeration,0.578125,0,729\n'
        '3,6,"0,0.5,0.5",0,exact-enumeration,0,0,729\n'
        '3,6,"0.20000000000000001,0.29999999999999999,0.5",0,exact-enumeration,0.11526400000000002,0,729\n',
    ),
    "eval-closed": (
        ["eval", *_tribes(1024), "--mu", "0.3,0.4,0.3", "--mu", "0.6,0.2,0.2", "--a", "0",
         "--evaluator", "closed"],
        'q,n,mu,a,method,value,std_error,samples\n'
        '3,1024,"0.29999999999999999,0.40000000000000002,0.29999999999999999",0,closed-form,'
        '0.11595899663095388,0,0\n'
        '3,1024,"0.59999999999999998,0.20000000000000001,0.20000000000000001",0,closed-form,'
        '0.99969057544579187,0,0\n',
    ),
    "eval-mc": (
        ["eval", *_tribes(64), "--mu", "0.5,0.25,0.25", "--mu", "0,0.5,0.5", "--mu", "0.9,0.05,0.05",
         "--a", "0", "--evaluator", "mc", "--samples", "2000", "--seed", "9"],
        'q,n,mu,a,method,value,std_error,samples\n'
        '3,64,"0.5,0.25,0.25",0,monte-carlo,0.93300000000000005,0.0055906618570612885,2000\n'
        '3,64,"0,0.5,0.5",0,monte-carlo,0,0.0015,2000\n'
        '3,64,"0.90000000000000002,0.050000000000000003,0.050000000000000003",0,monte-carlo,1,0.0015,2000\n',
    ),
    "region-exact": (
        ["region", *_tribes(6, "--r", "2"), "--level", "0", "--a", "1", "--eps", "0.1",
         "--samples", "500", "--evaluator", "exact", "--seed", "3"],
        'q,n,a,eps,samples,fraction,std_error,seed\n'
        '3,6,1,0.10000000000000001,500,0.60399999999999998,0.021871625453998612,3\n',
    ),
    "region-closed": (
        ["region", *_tribes(1024), "--a", "0", "--eps", "0.1", "--samples", "2000",
         "--evaluator", "closed", "--seed", "4"],
        'q,n,a,eps,samples,fraction,std_error,seed\n'
        '3,1024,0,0.10000000000000001,2000,0.246,0.0096302647938673012,4\n',
    ),
    "region-mc": (
        ["region", *_tribes(32), "--a", "0", "--eps", "0.1", "--samples", "40",
         "--evaluator", "mc", "--eval-samples", "500", "--seed", "5"],
        'q,n,a,eps,samples,fraction,std_error,seed\n'
        '3,32,0,0.10000000000000001,40,0.47499999999999998,0.078958058486768776,5\n',
    ),
    "width-exact": (
        ["width", *_tribes(6, "--r", "2"), "--a", "0", "--eps", "0.1", "--evaluator", "exact"],
        'q,n,a,eps,evaluator,method,t_lo,t_hi,width,grid_points,t_tol,lo_absent,hi_absent\n'
        '3,6,0,0.10000000000000001,exact,bisection,0.18577032955363393,0.73201169120147824,'
        '0.54624136164784431,101,1.0000000000000001e-09,false,false\n',
    ),
    "width-mc": (
        ["width", *_tribes(64), "--a", "0", "--eps", "0.1", "--evaluator", "mc", "--seed", "11"],
        'q,n,a,eps,evaluator,method,t_lo,t_hi,width,grid_points,t_tol,lo_absent,hi_absent\n'
        '3,64,0,0.10000000000000001,mc,mc-bisection,0.17224551366852281,0.47416946532043391,'
        '0.3019239516519111,0,0.0001,false,false\n',
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_csv_bytes(name, capsys):
    argv, want = PINNED[name]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == want
