import csv
import io
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import qthresh.evaluate as evaluate
import qthresh.functions as functions
import qthresh.verification as verification
from qthresh.cli import SEED_ENV_VAR, main
from qthresh.evaluate import ClosedFormEvaluator
from qthresh.functions import (
    build_tribes,
    from_table,
    indicator,
    materialize_table,
    parse_function_file,
    random_zero_monotone,
)
from qthresh.influence import influence_bkkkl
from qthresh.measures import SimplexMeasure, central_measure, line_rows
from test_functions import reference_write_table


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


@pytest.mark.parametrize("args, want_code, message", [
    # q^n has few enough digits to print in full: the decimal branch of check_cap
    (["--q", "3", "--n", "16", "--p0", "0.5", "--evaluator", "exact"], 1,
     "q^n = 3^16 = 43046721 exceeds the enumeration cap 16777216"),
    (["--q", "1", "--n", "4", "--p0", "0.5"], 2, "q must be at least 2"),
    (["--q", "3", "--n", "0", "--p0", "0.5"], 2, "n must be at least 1"),
    (["--q", "3", "--n", "8", "--p0", "1.5"], 2, "p0 must lie strictly inside (0, 1), got 1.5"),  # no --r
    (["--q", "3", "--n", "8", "--p0", "1.5", "--r", "2"], 2, "p0 must lie strictly inside (0, 1), got 1.5"),
    (["--q", "3", "--n", "8", "--p0", "1.5", "--r", "9"], 2, "explicit r=9 must lie in 1..8"),  # r before p0
], ids=["cap-decimal", "q-1", "n-0", "p0-without-r", "p0-with-r", "r-before-p0"])
def test_eval_tribes_refusals_name_their_cause_and_leave_no_file(tmp_path, capsys, args, want_code, message):
    out = tmp_path / "out.csv"
    code, stdout, err = run(["eval", "--family", "tribes", *args, "--mu", "0.5,0.25,0.25", "--a", "0",
                             "--out", str(out)], capsys)
    assert (code, stdout, err) == (want_code, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["influence", "--kind", "bkkkl"],
    ["influence", "--kind", "variance"],
    ["influence", "--kind", "h"],
    ["influence", "--kind", "keller"],
    ["width", "--a", "1", "--eps", "0.1", "--diagnostics", "DIAG"],
], ids=["influence-bkkkl", "influence-variance", "influence-h", "influence-keller", "width-diagnostics"])
def test_fibre_quantities_past_the_cap_exit_1_and_leave_no_file(tmp_path, capsys, command):
    # The fibres are counted from the blocks, but the tally they belong to still stops at q^n.
    out, diag = tmp_path / "out.csv", tmp_path / "diag.csv"
    argv = [str(diag) if arg == "DIAG" else arg for arg in command]
    code, stdout, err = run([*argv, "--family", "tribes", "--q", "3", "--n", "16", "--p0", "0.5", "--level", "0",
                             "--mu", "0,0.5,0.5" if argv[0] == "width" else "0.5,0.25,0.25", "--out", str(out)],
                            capsys)
    assert (code, stdout, err) == (1, "", "error: q^n = 3^16 = 43046721 exceeds the enumeration cap 16777216\n")
    assert not any(tmp_path.iterdir())


def test_eval_tally_past_the_cap_exits_1_before_building_types(tmp_path, capsys, monkeypatch):
    # q^n = 4e6 is under the cap, but the tally would hold C(2001, 1999) * 2000 cells.
    def refuse(q, n):
        raise AssertionError("the types were built")

    monkeypatch.setattr(evaluate, "_types", refuse)
    out = tmp_path / "out.csv"
    code, stdout, err = run(["eval", "--family", "tribes", "--q", "2000", "--n", "2", "--r", "1", "--p0", "0.5",
                             "--a", "0", "--mu", ",".join(["0.0005"] * 2000), "--out", str(out)], capsys)
    assert (code, stdout) == (1, "")
    assert err == "error: the type tally of q=2000, n=2 has 4002000000 cells, past the enumeration cap 16777216\n"
    assert not out.exists()


def test_out_of_memory_exits_1_with_one_error_line(tmp_path, capsys, monkeypatch):
    # One MC sample row of n = 10^11 uniforms does not fit; the batch stands in for numpy's refusal.
    def exhaust(self, f, measures, a):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape (1, 100000000000)")

    monkeypatch.setattr(evaluate.MonteCarloEvaluator, "batch", exhaust)
    out = tmp_path / "out.csv"
    code, stdout, err = run(["region", "--family", "tribes", "--q", "3", "--n", "100000000000", "--p0", "0.5",
                             "--a", "0", "--eps", "0.1", "--samples", "10", "--evaluator", "mc",
                             "--eval-samples", "1", "--out", str(out)], capsys)
    assert (code, stdout) == (1, "")
    assert err == "error: Unable to allocate 745. GiB for an array with shape (1, 100000000000)\n"
    assert not out.exists()


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
    reference_write_table(f, path)
    code, out, _ = run(["eval", "--fn", str(path), "--mu", "0.2,0.4,0.4", "--a", "1"], capsys)
    assert code == 0
    row = next(csv.reader([out.strip().split("\n")[1]]))
    assert row[4] == "exact-enumeration"
    assert 0.0 < float(row[5]) < 1.0


@pytest.mark.parametrize("write", [
    lambda path: reference_write_table(random_zero_monotone(3, 3, 0.4, seed=21), path),
    lambda path: path.write_text("q=3 n=4 kind=indicator\nfamily=tribes r=2 p0=0.5 a=1\n"),
], ids=["table", "family"])
def test_eval_function_file_with_byte_order_mark(write, tmp_path, capsys):
    clean, marked = tmp_path / "clean.txt", tmp_path / "marked.txt"
    write(clean)
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
    row = SimplexMeasure.parse(mu).as_array()[None, :]
    want += [[str(k), "bkkkl", format(influence_bkkkl(f, row, k)[0], ".17g")] for k in range(5)]
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


@pytest.mark.parametrize("grid", ["-1", "0"])
def test_width_diag_grid_below_one_is_a_usage_error(tmp_path, capsys, grid):
    # A grid of no points would write a header-only table; -1 reached numpy.
    diag, out = tmp_path / "d.csv", tmp_path / "w.csv"
    with pytest.raises(SystemExit) as exc:
        main(["width", "--family", "tribes", "--q", "3", "--n", "6", "--p0", "0.5", "--r", "2", "--level", "0",
              "--a", "1", "--eps", "0.1", "--diagnostics", str(diag), "--diag-grid", grid, "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument --diag-grid: must be a positive integer, got '{grid}'" in capsys.readouterr().err
    assert not diag.exists() and not out.exists()


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


@pytest.mark.parametrize("tail", [["eval", "--a", "0"], ["influence"], ["width", "--a", "0", "--eps", "0.1"]],
                         ids=["eval", "influence", "width"])
def test_empty_mu_is_a_bad_measure_string(tmp_path, capsys, tail):
    # An empty --mu is a measure string like any other, not "no --mu given":
    # width once read it as the central base.
    out = tmp_path / "out.csv"
    code, stdout, err = run([tail[0], *TRIBES6, *tail[1:], "--mu", "", "--out", str(out)], capsys)
    assert code == 2
    assert "error: bad measure string '': atoms must be decimal numbers" in err
    assert stdout == "" and not out.exists()


def test_width_diagnostics_follow_a(tmp_path, capsys):
    # The full function at --a 0 tabulates the level 1[f = 0], as --level 0 --a 1 does.
    for name, tail in (("full", ["--a", "0"]), ("level", ["--level", "0", "--a", "1"])):
        code, _, _ = run(["width", *TRIBES6, *tail, "--eps", "0.1", "--diagnostics", str(tmp_path / f"{name}.csv"),
                          "--out", str(tmp_path / f"w-{name}.csv")], capsys)
        assert code == 0
    assert (tmp_path / "full.csv").read_bytes() == (tmp_path / "level.csv").read_bytes()


# The diagnostics table is refused on every route, before the width: at n = 64
# the exact width would stop on the enumeration cap with exit 1.
DIAGNOSTICS_REFUSED = "error: the fibre-sum derivative needs a level that only rises toward delta_0, and 1[f = 2] is not one"


@pytest.mark.parametrize("n, tail, message", [
    pytest.param("6", ["--level", "0", "--a", "0", "--diagnostics", "{tmp}/d.csv"], "on an indicator use --a 1",
                 id="diagnostics-level-a0"),
    pytest.param("6", ["--a", "1", "--diagnostics", "{tmp}/d.csv"], "1[f = 1] is not one", id="diagnostics-full-a1"),
    pytest.param("6", ["--a", "2", "--evaluator", "mc"], "use --evaluator exact or closed", id="mc-full-a2"),
    *[pytest.param(n, ["--level", "2", "--a", "1", "--evaluator", ev, "--diagnostics", "{tmp}/d.csv"],
                   DIAGNOSTICS_REFUSED, id=f"diagnostics-level2-n{n}-{ev}")
      for n in ("6", "64") for ev in ("exact", "closed", "mc")],
])
def test_width_refuses_a_level_that_does_not_rise(tmp_path, capsys, n, tail, message):
    tribes = ["--family", "tribes", "--q", "3", "--n", n, "--p0", "0.5", "--r", "2"]
    code, out, err = run(["width", *tribes, "--eps", "0.1", *[a.replace("{tmp}", str(tmp_path)) for a in tail],
                          "--out", str(tmp_path / "w.csv")], capsys)
    assert code == 2 and out == ""
    assert message in err
    assert list(tmp_path.iterdir()) == []


def test_width_refusals_name_the_level_of_the_original_function(tmp_path, capsys):
    # --level b --a 0 measures f != b, and --level b --a 1 measures f = b.
    tribes = ["--family", "tribes", "--q", "3", "--n", "64", "--p0", "0.5", "--r", "2", "--eps", "0.1"]
    errors = {}
    for level in ("0", "1"):
        code, out, err = run(["width", *tribes, "--level", level, "--a", "0", "--evaluator", "mc"], capsys)
        assert code == 2 and out == ""
        errors[level] = err
    assert errors["1"] != errors["0"]
    assert "1[f != 1] is not one" in errors["1"] and "1[f != 0] is not one" in errors["0"]
    code, _, err = run(["width", *tribes, "--level", "2", "--a", "1", "--diagnostics", str(tmp_path / "d.csv")],
                       capsys)
    assert code == 2 and "1[f = 2] is not one" in err
    assert list(tmp_path.iterdir()) == []
    # A view of a table names its level the same way.
    path = tmp_path / "tribes.txt"
    reference_write_table(from_table(3, 4, materialize_table(build_tribes(3, 4, 0.5, r=2))), path)
    for a, level in (("1", "1[f = 2]"), ("0", "1[f != 2]")):
        code, _, err = run(["width", "--fn", str(path), "--level", "2", "--a", a, "--eps", "0.1",
                            "--evaluator", "mc"], capsys)
        assert code == 2 and f"{level} is not one" in err


def test_width_custom_base_measure(capsys):
    code, out, _ = run(
        ["width", "--family", "tribes", "--q", "3", "--n", "8", "--p0", "0.5", "--r", "2",
         "--a", "0", "--eps", "0.1", "--mu", "0,0.3,0.7", "--evaluator", "closed"],
        capsys,
    )
    assert code == 0
    assert float(out.strip().split("\n")[1].split(",")[8]) > 0


@pytest.mark.parametrize("evaluator", ["exact", "closed"])
def test_width_on_a_base_at_the_sum_tolerance_bisects_both_crossings(evaluator, capsys):
    # The base's atoms sum to 1 + 0.99987e-12, which --mu accepts; line rows
    # near t = 1e-11, where t_lo lies, sum further off.  The line's rows are
    # checked once, when they are built, so no probe refuses one mid-search.
    code, out, err = run(
        ["width", "--family", "tribes", "--q", "3", "--n", "10", "--p0", "0.5", "--r", "1",
         "--mu", "0,0.71958261879600915,0.28041738120499077", "--a", "0", "--eps", "1e-7", "--t-tol", "1e-300",
         "--evaluator", evaluator],
        capsys,
    )
    assert (code, err) == (0, "")
    header, row = csv.reader(io.StringIO(out))
    row = dict(zip(header, row))
    assert row["method"] == "bisection" and row["lo_absent"] == row["hi_absent"] == "false"
    assert 0.0 < float(row["t_lo"]) < 1e-7 < float(row["t_hi"]) < 1.0


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


def test_sweep_crossings_bracket_their_targets_up_to_2_100(capsys):
    # Each crossing lies within the default --t-tol of where the closed form
    # passes eps or 1 - eps.  Past 2^60 a product of block factors read 0;
    # the log-space closed form keeps every width and width * ln n.
    n_list = [2**k for k in (*range(10, 21), 60, 64, 100)]
    code, out, _ = run(["sweep", "--q", "3", "--p0", "0.5", "--n-list", ",".join(map(str, n_list)), "--eps", "0.1"],
                       capsys)
    rows = {int(row["n"]): row for row in csv.DictReader(out.splitlines())}
    assert code == 0 and list(rows) == n_list
    for n, row in rows.items():
        assert float(row["width"]) > 0
        for key, target in (("p_lo", 0.1), ("p_hi", 0.9)):
            t = float(row[key])
            line = line_rows(central_measure(3), [t - 1e-9, t + 1e-9])
            below, above = ClosedFormEvaluator().batch(build_tribes(3, n, 0.5), line, 0).values
            assert below <= target <= above, (n, key)
    for k, want in ((64, 1.1634), (100, 1.1369)):
        assert abs(float(rows[2**k]["width_times_ln_n"]) - want) <= 1e-4, k


PAST_FLOAT = ["--family", "tribes", "--q", "3", "--n", str(2**1100), "--p0", "0.5", "--a", "0", "--evaluator", "closed"]


@pytest.mark.parametrize("command", [
    ["sweep", "--q", "3", "--p0", "0.5", "--n-list", f"{2**1030},{2**1100}"],  # 2^1030 still answers
    ["eval", *PAST_FLOAT, "--mu", "0.5,0.25,0.25"],
    ["width", *PAST_FLOAT, "--eps", "0.1"],
    ["region", *PAST_FLOAT, "--eps", "0.1", "--samples", "100"],
], ids=["sweep", "eval", "width", "region"])
def test_closed_form_past_float_range_exits_1_and_leaves_no_file(tmp_path, capsys, command):
    # At n = 2^1100 the closed form's m - 1 full blocks are more than the largest float.
    code, stdout, err = run([*command, "--out", str(tmp_path / "out.csv")], capsys)
    assert (code, stdout, err) == (1, "", "error: the closed form needs at most 1.7976931348623157e+308 full "
                                          "tribes blocks, the largest float, and this f has at least 2^1089\n")
    assert not any(tmp_path.iterdir())  # no CSV, and no sweep plot file


# ---------------------------------------------------------------------------
# verify


VERIFY_CHECKS = {"order": 66, "single-variable": 571, "rm": 400, "alpha": 2125, "hent": 2, "closed": 224,
                 "influence": 308, "coupling": 36}


def test_verify_all_suites_pass(capsys):
    code, out, _ = run(["verify"], capsys)
    assert code == 0
    untimed = [re.sub(r", [0-9.]+ s\)$", ")", l) for l in out.strip().split("\n") if l.startswith("suite ")]
    assert untimed == [f"suite {name}: PASS ({count} checks)" for name, count in VERIFY_CHECKS.items()]


def test_verify_suite_filter(capsys):
    code, out, _ = run(["verify", "--suite", "hent"], capsys)
    assert code == 0
    lines = [l for l in out.strip().split("\n") if l.startswith("suite ")]
    assert len(lines) == 1
    assert lines[0].startswith("suite hent: PASS")


@pytest.mark.parametrize("suites, unknown", [(["bogus"], "bogus"), (["hent", "bogus", "nope"], "bogus, nope")])
def test_verify_unknown_suite_exits_2_and_names_every_suite(capsys, suites, unknown):
    code, out, err = run(["verify", *[arg for name in suites for arg in ("--suite", name)]], capsys)
    assert code == 2
    assert out == ""  # refused before any suite runs
    assert err == f"error: unknown suites: {unknown}; the suites are {', '.join(verification.SUITE_BUILDERS)}\n"


def test_verify_fault_injection_fails(capsys, monkeypatch):
    monkeypatch.setattr(verification, "leq_a", lambda x, y, a: all(yv == a or xv <= yv for xv, yv in zip(x, y)))
    code, out, _ = run(["verify", "--suite", "order"], capsys)
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


@pytest.mark.parametrize("argv, option", [
    (["eval", *TRIBES4, "--mu", "0.5,0.25,0.25", "--a", "0", "--out", ""], "--out"),
    (["influence", *TRIBES4, "--level", "0", "--mu", "0.5,0.25,0.25", "--out", ""], "--out"),
    (["width", *TRIBES4, "--a", "0", "--eps", "0.1", "--out", ""], "--out"),
    (["width", *TRIBES4, "--level", "0", "--a", "1", "--eps", "0.1", "--diagnostics", "", "--out", "w.csv"],
     "--diagnostics"),
    (["region", *TRIBES4, "--a", "0", "--eps", "0.1", "--samples", "10", "--out", ""], "--out"),
    (["sweep", "--q", "3", "--p0", "0.5", "--n-list", "1024", "--out", ""], "--out"),
    (["sweep", "--q", "3", "--p0", "0.5", "--n-list", "1024", "--out", "s.csv", "--plot-out", ""], "--plot-out"),
    # past the cap, so a command that did any work would exit 1
    (["eval", "--family", "tribes", "--q", "3", "--n", "16", "--p0", "0.5", "--mu", "0.5,0.25,0.25", "--a", "0",
      "--out", ""], "--out"),
], ids=["eval", "influence", "width", "width-diagnostics", "region", "sweep", "sweep-plot", "eval-past-cap"])
def test_empty_output_path_is_a_usage_error_before_any_work(tmp_path, capsys, monkeypatch, argv, option):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        f"qthresh {argv[0]}: error: argument {option}: must name a file or -, got ''"]
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["eval", *TRIBES4, "--mu", "0.5,0.25,0.25", "--a", "0", "--out", "dir"],
    # the later of two outputs, so the earlier one must not be left behind either
    ["width", *TRIBES4, "--level", "0", "--a", "1", "--eps", "0.1", "--diagnostics", "dir", "--out", "w.csv"],
], ids=["eval", "width-diagnostics"])
def test_output_naming_a_directory_exits_1_and_names_only_the_target(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (1, "", "error: [Errno 21] Is a directory: 'dir'\n")
    assert [path.name for path in tmp_path.iterdir()] == ["dir"] and list((tmp_path / "dir").iterdir()) == []


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
    pytest.param("q=3 n=4 kind=full\nfamily=tribes r=2 p0=1.5\n", FN_EVAL, 2,
                 "p0 must lie strictly inside (0, 1), got 1.5", id="p0-out-of-range"),
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
    ["--family", "tribes", "--q", "3", "--n", "1024", "--p0", "0.5", "--evaluator", "closed", "--a", "0"],
    ["--family", "tribes", "--q", "3", "--n", "8", "--p0", "0.5", "--evaluator", "exact", "--a", "0"],
    ["--fn", "{fn}", "--a", "1"],  # an upset table on [3]^8
], ids=["closed", "exact", "table"])
def test_width_t_tol_below_the_float_spacing_exits_0(argv, tmp_path):
    reference_write_table(random_zero_monotone(3, 8, 0.01, seed=1), tmp_path / "fn.txt")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [a.replace("{fn}", str(tmp_path / "fn.txt")) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "qthresh.cli", "width", *argv, "--eps", "0.1", "--t-tol", "1e-20"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert ",bisection," in proc.stdout


# verify with a numeric order comparator patched in: the order suite fails, exit 1.
FAILING_VERIFY = ("import sys, qthresh.cli as cli, qthresh.verification as v; "
                  "v.leq_a = lambda x, y, a: all(yv == a or xv <= yv for xv, yv in zip(x, y)); "
                  "sys.exit(cli.main(['verify', '--suite', 'order']))")


@pytest.mark.parametrize("argv, want", [
    (["-c", FAILING_VERIFY], 1),
    (["-m", "qthresh.cli", "influence", *TRIBES4, "--level", "0", "--mu", "0.5,0.25,0.25"], 0),
])
def test_closed_stdout_keeps_exit_code_without_traceback(argv, want):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader goes away before the command writes
    with proc.stderr:
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


TABLE4 = str(Path(__file__).resolve().parent / "data" / "upset-q3-n4.txt")  # a 0-monotone upset on [3]^4
TABLE_Q4 = str(Path(__file__).resolve().parent / "data" / "upset-q4-n3.txt")  # one on [4]^3


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
        '0.11595899663095696,0,0\n'
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
    "eval-mc-chunks": (  # 5000 rows of n = 2048: several sample chunks per measure
        ["eval", *_tribes(2048), "--mu", "0.4,0.3,0.3", "--mu", "0.45,0.5,0.05", "--a", "0",
         "--evaluator", "mc", "--samples", "5000", "--seed", "13"],
        'q,n,mu,a,method,value,std_error,samples\n'
        '3,2048,"0.40000000000000002,0.29999999999999999,0.29999999999999999",0,monte-carlo,'
        '0.37480000000000002,0.0068458010488181729,5000\n'
        '3,2048,"0.45000000000000001,0.5,0.050000000000000003",0,monte-carlo,'
        '0.66720000000000002,0.0066639951980775013,5000\n',
    ),
    "eval-mc-level": (  # f = 1 reads the first nonzero symbol; zero atoms, mu_0 = 0 and mu_0 = 1
        ["eval", *_tribes(256), "--mu", "0.3,0.4,0.3", "--mu", "0.5,0,0.5", "--mu", "0.5,0.5,0",
         "--mu", "0,0.5,0.5", "--mu", "1,0,0", "--a", "1", "--evaluator", "mc", "--samples", "3000", "--seed", "9"],
        'q,n,mu,a,method,value,std_error,samples\n'
        '3,256,"0.29999999999999999,0.40000000000000002,0.29999999999999999",1,monte-carlo,'
        '0.34300000000000003,0.0086670064035974971,3000\n'
        '3,256,"0.5,0,0.5",1,monte-carlo,0,0.001,3000\n'
        '3,256,"0.5,0.5,0",1,monte-carlo,0.017000000000000001,0.002360155362117785,3000\n'
        '3,256,"0,0.5,0.5",1,monte-carlo,0.50900000000000001,0.0091272303210411729,3000\n'
        '3,256,"1,0,0",1,monte-carlo,0,0.001,3000\n',
    ),
    "eval-mc-level-q4-chunks": (  # 3000 rows of n = 2048: 47 sample chunks per measure
        ["eval", "--family", "tribes", "--q", "4", "--n", "2048", "--p0", "0.5", "--level", "2", "--a", "1",
         "--mu", "0.4,0.2,0.3,0.1", "--mu", "0.3,0,0.5,0.2", "--evaluator", "mc", "--samples", "3000",
         "--seed", "13"],
        'q,n,mu,a,method,value,std_error,samples\n'
        '4,2048,"0.40000000000000002,0.20000000000000001,0.29999999999999999,0.10000000000000001",1,'
        'monte-carlo,0.31333333333333335,0.0084686786760697508,3000\n'
        '4,2048,"0.29999999999999999,0,0.5,0.20000000000000001",1,monte-carlo,'
        '0.67400000000000004,0.0085581150572619277,3000\n',
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
    "region-closed-blocks": (  # 100000 points: several sample blocks
        ["region", *_tribes(65536), "--a", "0", "--eps", "0.1", "--samples", "100000",
         "--evaluator", "closed", "--seed", "7"],
        'q,n,a,eps,samples,fraction,std_error,seed\n'
        '3,65536,0,0.10000000000000001,100000,0.12873999999999999,0.0010590845688612407,7\n',
    ),
    "region-closed-blocks-q4": (
        ["region", "--family", "tribes", "--q", "4", "--n", "65536", "--p0", "0.5", "--a", "2", "--eps", "0.1",
         "--samples", "100000", "--evaluator", "closed", "--seed", "7"],
        'q,n,a,eps,samples,fraction,std_error,seed\n'
        '4,65536,2,0.10000000000000001,100000,0.69472999999999996,0.001456297452789093,7\n',
    ),
    "region-mc": (
        ["region", *_tribes(32), "--a", "0", "--eps", "0.1", "--samples", "40",
         "--evaluator", "mc", "--eval-samples", "500", "--seed", "5"],
        'q,n,a,eps,samples,fraction,std_error,seed\n'
        '3,32,0,0.10000000000000001,40,0.47499999999999998,0.078958058486768776,5\n',
    ),
    "region-mc-level": (  # every point's MC row reads the first nonzero symbol
        ["region", *_tribes(64), "--a", "2", "--eps", "0.1", "--samples", "40",
         "--evaluator", "mc", "--eval-samples", "500", "--seed", "5"],
        'q,n,a,eps,samples,fraction,std_error,seed\n'
        '3,64,2,0.10000000000000001,40,0.52500000000000002,0.078958058486768776,5\n',
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
    "eval-exact-n15": (
        ["eval", *_tribes(15), "--a", "1", "--mu", "0.5,0.25,0.25", "--evaluator", "exact"],
        'q,n,mu,a,method,value,std_error,samples\n'
        '3,15,"0.5,0.25,0.25",1,exact-enumeration,1.52587890625e-05,0,14348907\n',
    ),
    "width-exact-n15": (
        ["width", *_tribes(15), "--a", "0", "--eps", "0.1", "--evaluator", "exact"],
        'q,n,a,eps,evaluator,method,t_lo,t_hi,width,grid_points,t_tol,lo_absent,hi_absent\n'
        '3,15,0,0.10000000000000001,exact,bisection,0.006999423261731863,0.1423041014932096,'
        '0.13530467823147774,101,1.0000000000000001e-09,false,false\n',
    ),
    "width-mc-4096": (  # 11 coupled chunks: U, then W skipped or drawn, fixes these bytes
        ["width", *_tribes(4096), "--a", "0", "--eps", "0.1", "--evaluator", "mc", "--seed", "11"],
        'q,n,a,eps,evaluator,method,t_lo,t_hi,width,grid_points,t_tol,lo_absent,hi_absent\n'
        '3,4096,0,0.10000000000000001,mc,mc-bisection,0.34609895317736883,0.50818206858820358,'
        '0.16208311541083475,0,0.0001,false,false\n',
    ),
    "width-mc-chunks": (  # 10000 rows of n = 1024: three coupled sample chunks
        ["width", *_tribes(1024), "--a", "0", "--eps", "0.1", "--evaluator", "mc", "--seed", "11"],
        'q,n,a,eps,evaluator,method,t_lo,t_hi,width,grid_points,t_tol,lo_absent,hi_absent\n'
        '3,1024,0,0.10000000000000001,mc,mc-bisection,0.29079190614103589,0.4877120002432026,'
        '0.19692009410216671,0,0.0001,false,false\n',
    ),
    "width-mc-blocks-of-one": (  # 1[f != 1] with r = 1: rows with V_0 != 1 start at the level
        ["width", *_tribes(64, "--r", "1"), "--level", "1", "--a", "0", "--eps", "0.1", "--evaluator", "mc",
         "--seed", "11"],
        'q,n,a,eps,evaluator,method,t_lo,t_hi,width,grid_points,t_tol,lo_absent,hi_absent\n'
        '3,64,0,0.10000000000000001,mc,mc-bisection,,0.025069286842083871,0.025069286842083871,0,0.0001,'
        'true,false\n',
    ),
    "width-mc-table": (  # a table has no switching-time rule of its own: each row's T is bisected
        ["width", "--fn", TABLE4, "--a", "1", "--eps", "0.1", "--evaluator", "mc", "--seed", "11"],
        'q,n,a,eps,evaluator,method,t_lo,t_hi,width,grid_points,t_tol,lo_absent,hi_absent\n'
        '3,4,1,0.10000000000000001,mc,mc-bisection,0.15677955024860157,0.80195414578769442,'
        '0.64517459553909284,0,0.0001,false,false\n',
    ),
    "width-mc-q2-level": (  # at q = 2, 1[f != 1] is the zero event
        ["width", "--family", "tribes", "--q", "2", "--n", "256", "--p0", "0.5", "--level", "1", "--a", "0",
         "--eps", "0.1", "--evaluator", "mc", "--seed", "11"],
        'q,n,a,eps,evaluator,method,t_lo,t_hi,width,grid_points,t_tol,lo_absent,hi_absent\n'
        '2,256,0,0.10000000000000001,mc,mc-bisection,0.19946558563245842,0.4341848108630364,'
        '0.23471922523057798,0,0.0001,false,false\n',
    ),
    "sweep-closed": (  # every row's crossings are closed-form line bisections
        ["sweep", "--q", "3", "--p0", "0.5", "--n-list", "1024,65536,1048576", "--eps", "0.1"],
        'n,r,p_lo,p_hi,width,width_times_ln_n\n'
        '1024,6,0.29226233204826713,0.48813314875587821,0.19587081670761108,1.3576730435485445\n'
        '65536,12,0.40469071781262755,0.52329163486137986,0.11860091704875231,1.3153262602266658\n'
        '1048576,15,0.40914589585736394,0.5025510978884995,0.093405202031135559,1.2948710487502737\n',
    ),
    "width-closed-adjacent-floats": (  # a t_tol below the float spacing: bisection stops at adjacent floats
        ["width", *_tribes(1048576), "--a", "0", "--eps", "0.1", "--evaluator", "closed", "--t-tol", "1e-300"],
        'q,n,a,eps,evaluator,method,t_lo,t_hi,width,grid_points,t_tol,lo_absent,hi_absent\n'
        '3,1048576,0,0.10000000000000001,closed,bisection,0.40914589611173979,0.50255109750981797,'
        '0.093405201398078175,101,1e-300,false,false\n',
    ),
    "influence-table-bkkkl": (
        ["influence", "--fn", TABLE4, "--mu", "0.45,0.2,0.35", "--kind", "bkkkl"],
        'k,kind,value\n'
        '0,bkkkl,0.46174999999999999\n'
        '1,bkkkl,0.42525000000000002\n'
        '2,bkkkl,0.49937500000000001\n'
        '3,bkkkl,0.40837499999999999\n',
    ),
    "influence-table-q4-variance": (  # at q = 4 a matrix product of rows rounds fibre means otherwise
        ["influence", "--fn", TABLE_Q4, "--mu", "0.1234567,0.3141592,0.2718281,0.290556", "--kind", "variance"],
        'k,kind,value\n'
        '0,variance,0.10907510666855361\n'
        '1,variance,0.15903492937412383\n'
        '2,variance,0.14056054421368408\n',
    ),
    "influence-tribes-bkkkl": (
        ["influence", *_tribes(6, "--r", "2", "--level", "0"), "--mu", "0.3,0.3,0.4", "--kind", "bkkkl"],
        'k,kind,value\n'
        '0,bkkkl,0.24842999999999998\n'
        '1,bkkkl,0.24842999999999998\n'
        '2,bkkkl,0.24842999999999998\n'
        '3,bkkkl,0.24842999999999998\n'
        '4,bkkkl,0.24842999999999998\n'
        '5,bkkkl,0.24842999999999998\n',
    ),
    "influence-table-h": (
        ["influence", "--fn", TABLE4, "--mu", "0.45,0.2,0.35", "--kind", "h"],
        'k,kind,value\n'
        '0,h,0.66549531615670143\n'
        '1,h,0.62677888860110031\n'
        '2,h,0.81852843391861529\n'
        '3,h,0.65316396893690654\n',
    ),
    "influence-tribes-h": (
        ["influence", *_tribes(6, "--r", "2", "--level", "0"), "--mu", "0.3,0.3,0.4", "--kind", "h"],
        'k,kind,value\n'
        '0,h,0.47185425885177895\n'
        '1,h,0.47185425885177895\n'
        '2,h,0.47185425885177895\n'
        '3,h,0.47185425885177895\n'
        '4,h,0.47185425885177895\n'
        '5,h,0.47185425885177895\n',
    ),
    "influence-table-keller": (
        ["influence", "--fn", TABLE4, "--mu", "0.45,0.2,0.35", "--kind", "keller"],
        'q,n,max_k,max_value,variance,denominator,ratio\n'
        '3,4,2,0.81852843391861529,0.24413148246093752,0.084609524376859285,9.674187864155904\n',
    ),
    "influence-tribes-keller": (
        ["influence", *_tribes(6, "--r", "2", "--level", "0"), "--mu", "0.3,0.3,0.4", "--kind", "keller"],
        'q,n,max_k,max_value,variance,denominator,ratio\n'
        '3,6,0,0.47185425885177895,0.18570174795899999,0.055455477559623316,8.5087042726205322\n',
    ),
    "influence-table-variance": (
        ["influence", "--fn", TABLE4, "--mu", "0.45,0.2,0.35", "--kind", "variance"],
        'k,kind,value\n'
        '0,variance,0.1021640625\n'
        '1,variance,0.090812812499999992\n'
        '2,variance,0.11992781250000002\n'
        '3,variance,0.095706562499999995\n',
    ),
    "influence-tribes-variance": (
        ["influence", *_tribes(6, "--r", "2", "--level", "0"), "--mu", "0.3,0.3,0.4", "--kind", "variance"],
        'k,kind,value\n'
        '0,variance,0.052170299999999996\n'
        '1,variance,0.052170299999999996\n'
        '2,variance,0.052170299999999996\n'
        '3,variance,0.052170299999999996\n'
        '4,variance,0.052170299999999996\n'
        '5,variance,0.052170299999999996\n',
    ),
    "width-diagnostics": (  # the width row, then the 20-point derivative table, both on stdout
        ["width", *_tribes(8, "--level", "0"), "--mu", "0,0.35,0.65", "--a", "1", "--eps", "0.1",
         "--diagnostics", "-"],
        'q,n,a,eps,evaluator,method,t_lo,t_hi,width,grid_points,t_tol,lo_absent,hi_absent\n'
        '3,8,1,0.10000000000000001,exact,bisection,0.013083718251436949,0.25010579032823443,'
        '0.23702207207679749,101,1.0000000000000001e-09,false,false\n'
        'n,t,alpha,derivative,lower_bound_denominator,ratio\n'
        '8,0,0.34999999999999998,8,0,na\n'
        '8,0.049999999999999996,0.34999999999999998,5.586698368749996,0.44229047491994994,12.631288000857651\n'
        '8,0.099999999999999992,0.34999999999999998,3.8263752000000024,0.48561243955634226,7.8794834899530093\n'
        '8,0.14999999999999999,0.34999999999999998,2.5646167062499998,0.39266397099709033,6.5313267721957713\n'
        '8,0.19999999999999998,0.34999999999999998,1.6777215999999997,0.27656239691886148,6.0663402497636492\n'
        '8,0.24999999999999997,0.34999999999999998,1.06787109375,0.1784469464353248,5.9842497452711108\n'
        '8,0.29999999999999999,0.34999999999999998,0.6588343999999996,0.10760401263718815,6.1227679512418591\n'
        '8,0.34999999999999998,0.34999999999999998,0.39217823125000001,0.061104613513530803,6.4181443707709134\n'
        '8,0.39999999999999997,0.34999999999999998,0.22394880000000025,0.032710302754934598,6.8464300583771234\n'
        '8,0.44999999999999996,0.34999999999999998,0.12179481875000008,0.016446772360299362,7.4053933551119684\n'
        '8,0.49999999999999994,0.34999999999999998,0.0625,0.0077071044451442715,8.1094009358309727\n'
        '8,0.54999999999999993,0.34999999999999998,0.029893556250000019,0.0033250656054611728,8.9903658444820085\n'
        '8,0.59999999999999998,0.34999999999999998,0.013107199999999998,0.0012972575673846603,10.103776096234153\n'
        '8,0.64999999999999991,0.34999999999999998,0.0051471437500000081,0.00044594114105583199,11.542204286900688\n'
        '8,0.69999999999999996,0.34999999999999998,0.001749600000000002,0.00012994887900726269,13.463756004407079\n'
        '8,0.74999999999999989,0.34999999999999998,0.00048828125000000173,3.0223477819856068e-05,16.155693693172967\n'
        '8,0.79999999999999993,0.34999999999999998,0.00010240000000000029,5.0707225487502235e-06,20.19436066862675\n'
        '8,0.84999999999999998,0.34999999999999998,1.3668750000000015e-05,5.0764598517959657e-07,26.92575219552705\n'
        '8,0.89999999999999991,0.34999999999999998,8.0000000000000505e-07,1.9807560465335327e-08,40.388618346013047\n'
        '8,0.94999999999999996,0.34999999999999998,6.2500000000000394e-09,7.7373283838426561e-11,80.777235887409091\n',
    ),
    "width-diagnostics-one-point": (  # --diag-grid 1: the one-point grid at t = 0
        ["width", *_tribes(8, "--level", "0"), "--mu", "0,0.35,0.65", "--a", "1", "--eps", "0.1",
         "--diagnostics", "-", "--diag-grid", "1"],
        'q,n,a,eps,evaluator,method,t_lo,t_hi,width,grid_points,t_tol,lo_absent,hi_absent\n'
        '3,8,1,0.10000000000000001,exact,bisection,0.013083718251436949,0.25010579032823443,'
        '0.23702207207679749,101,1.0000000000000001e-09,false,false\n'
        'n,t,alpha,derivative,lower_bound_denominator,ratio\n'
        '8,0,0.34999999999999998,8,0,na\n',
    ),
    "influence-tribes-keller-zero-atom": (  # a zero atom: the measure row has no mass at symbol 2
        ["influence", *_tribes(6, "--r", "2", "--level", "0"), "--mu", "0.5,0.5,0", "--kind", "keller"],
        'q,n,max_k,max_value,variance,denominator,ratio\n'
        '3,6,0,0.47619764453248464,0.243896484375,0.072833972565056429,6.5381253797070809\n',
    ),
}
# A family's exact tally and its fibre tallies are counted from its blocks.
NEVER_ENUMERATE = ("eval-exact-n15", "width-exact-n15", "influence-tribes-bkkkl", "influence-tribes-h",
                   "influence-tribes-keller", "influence-tribes-keller-zero-atom", "influence-tribes-variance",
                   "width-diagnostics", "width-diagnostics-one-point")


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_csv_bytes(name, capsys, monkeypatch):
    def refuse(f):
        raise AssertionError("materialize_table called")

    if name in NEVER_ENUMERATE:
        monkeypatch.setattr(functions, "materialize_table", refuse)
    argv, want = PINNED[name]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == want


@pytest.mark.parametrize("name", ["width-mc", "width-mc-chunks", "width-mc-4096"])
def test_pinned_mc_widths_cross_where_the_closed_form_does(name):
    # Pr[f = 0] at each crossing lies within 6 SE of its target, plus the
    # slope times the MC t_tol; 10^4 rows are width's default --eval-samples.
    row = next(csv.DictReader(PINNED[name][1].splitlines()))
    f, eps, samples, t_tol, h = build_tribes(3, int(row["n"]), 0.5), 0.1, 10000, 1e-4, 1e-6
    for key, target in (("t_lo", eps), ("t_hi", 1 - eps)):
        t = float(row[key])
        p, below, above = ClosedFormEvaluator().batch(f, line_rows(central_measure(3), [t, t - h, t + h]), 0).values
        assert abs(p - target) <= 6 * math.sqrt(eps * (1 - eps) / samples) + (above - below) / (2 * h) * t_tol, key


# ---------------------------------------------------------------------------
# a fresh process writes what main writes in this one


CONSOLE = "from qthresh.cli import console_main; console_main()"  # the installed entry point; argv from sys.argv
FRESH = {  # name: (how the interpreter runs qthresh, argv), run in a directory of its own
    "eval-exact": (["-m", "qthresh.cli"], ["eval", *_tribes(6, "--r", "2"), "--mu", "0.5,0.25,0.25",
                                           "--mu", "0.2,0.3,0.5", "--a", "0", "--out", "eval.csv"]),
    "eval-mc-console": (["-c", CONSOLE], ["eval", *_tribes(6), "--mu", "0.5,0.25,0.25", "--a", "0",
                                          "--evaluator", "mc", "--samples", "2000", "--seed", "7"]),
    "width-closed": (["-m", "qthresh.cli"], ["width", *_tribes(1024), "--a", "0", "--eps", "0.1",
                                             "--evaluator", "closed", "--out", "width.csv"]),
    "width-diagnostics": (["-m", "qthresh.cli"], ["width", *TRIBES4, "--level", "0", "--a", "1", "--eps", "0.1",
                                                  "--diag-grid", "4", "--diagnostics", "diag.csv"]),
    "region": (["-m", "qthresh.cli"], ["region", *TRIBES4, "--a", "0", "--eps", "0.1", "--samples", "50",
                                       "--evaluator", "closed", "--seed", "3", "--out", "region.csv"]),
    "sweep-plot": (["-m", "qthresh.cli"], ["sweep", "--q", "3", "--p0", "0.5", "--n-list", "1024,4096",
                                           "--out", "sweep.csv"]),
    "cap-refusal": (["-m", "qthresh.cli"], ["eval", *_tribes(16), "--mu", "0.5,0.25,0.25", "--a", "0",
                                            "--out", "cap.csv"]),
    "bad-mu": (["-m", "qthresh.cli"], ["eval", *TRIBES4, "--mu", "0.5,0.6,0.1", "--a", "0", "--out", "bad.csv"]),
}


def _files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.fixture(scope="module")
def fresh_runs(tmp_path_factory):
    """Exit code, stdout, stderr and output files of each FRESH case, two fresh processes at a time."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def fresh(name):
        how, argv = FRESH[name]
        cwd = tmp_path_factory.mktemp(name)
        proc = subprocess.run([sys.executable, *how, *argv], cwd=cwd, env=env, capture_output=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr, _files(cwd)

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(FRESH, pool.map(fresh, FRESH)))


@pytest.mark.parametrize("name", FRESH)
def test_a_fresh_process_writes_what_main_writes(name, fresh_runs, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    try:
        code = main(FRESH[name][1])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    assert fresh_runs[name] == (code, captured.out.encode(), captured.err.encode(), _files(tmp_path))
