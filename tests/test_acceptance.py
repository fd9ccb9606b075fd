"""Acceptance gate: the ten headline guarantees, one test per criterion.

Each test prints a single ``ACCEPTANCE NN <name>: PASS/FAIL`` line (visible
with ``pytest -s`` or in failure output) and asserts at the stated tolerance,
so ``pytest -v tests/test_acceptance.py`` reads as the acceptance report.
"""
import itertools
import math
import time

import numpy as np

from qthresh.cli import main
from qthresh.evaluate import (
    ClosedFormEvaluator,
    ExactEvaluator,
)
from qthresh.functions import (
    build_tribes,
    from_table,
    indicator,
    level_rises,
    materialize_table,
)
from qthresh.influence import (
    ent,
    h_nonconstant,
    h_paper,
    h_variance,
    influence_bkkkl,
    influence_h,
    influence_variance,
)
from qthresh.measures import (
    SimplexMeasure,
    central_measure,
    line_rows,
    sample_uniform_batch,
    second_smallest_atom,
)
from qthresh.threshold import line_width, region_measure, rm_derivative_exact, sweep_scaling
from qthresh.verification import (
    FD_NOISE_FLOOR,
    fd_probability_derivative,
    full_support_bases,
    upset_corpus,
)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail})", flush=True)


def fd_ok(exact: float, approx: float, rel_tol: float) -> tuple[bool, float]:
    # A finite difference of an exact probability carries rounding noise of
    # order eps/dt, so differences below the noise floor are indistinguishable
    # from a perfect match; the relative error is meaningful only above it.
    diff = abs(exact - approx)
    rel = diff / max(abs(exact), abs(approx), 1e-300)
    good = rel <= rel_tol or diff <= FD_NOISE_FLOOR
    return good, (rel if diff > FD_NOISE_FLOOR else 0.0), diff


def test_criterion_01_derivative_identity():
    started = time.perf_counter()
    corpus = upset_corpus(3, 3, 20, seed=101)
    base = central_measure(3)
    t_grid = np.linspace(0.1, 0.9, 9)
    worst_rel = 0.0
    worst_diff = 0.0
    ok = True
    for f in corpus:
        for t in t_grid:
            exact = rm_derivative_exact(f, base, [float(t)])[0]
            approx = fd_probability_derivative(f, base, [float(t)])[0]
            good, rel, diff = fd_ok(exact, approx, 1e-6)
            worst_rel = max(worst_rel, rel)
            worst_diff = max(worst_diff, diff)
            ok = ok and good
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    report(1, "derivative-identity", ok,
           f"20 upsets x 9 t, max rel {worst_rel:.2e}, max diff {worst_diff:.2e}, {elapsed:.2f} s")
    assert ok


def test_criterion_02_single_variable_exhaustive():
    tables = [tbl for tbl in itertools.product((0, 1), repeat=3)]
    monotone = [
        from_table(3, 1, tbl, kind="indicator")
        for tbl in tables
        if level_rises(from_table(3, 1, tbl, kind="indicator"), 1, 0)
    ]
    assert len(monotone) == 5  # exhaustiveness witness: 1 + constants + upsets
    bases = [
        SimplexMeasure((0.0, 0.5, 0.5)),
        SimplexMeasure((0.0, 0.2, 0.8)),
        SimplexMeasure((0.0, 0.35, 0.65)),
    ]
    worst_rel = 0.0
    worst_diff = 0.0
    ok = True
    for f in monotone:
        for base in bases:
            for t in np.linspace(0.05, 0.95, 19):
                exact = rm_derivative_exact(f, base, [float(t)])[0]
                approx = fd_probability_derivative(f, base, [float(t)])[0]
                good, rel, diff = fd_ok(exact, approx, 1e-8)
                worst_rel = max(worst_rel, rel)
                worst_diff = max(worst_diff, diff)
                ok = ok and good
    report(2, "single-variable-derivative", ok,
           f"5 functions x 3 bases x 19 t, max rel {worst_rel:.2e}, max diff {worst_diff:.2e}")
    assert ok


def test_criterion_03_alpha_bound_exhaustive_fibres():
    corpus = upset_corpus(3, 4, 20, seed=102)
    bases = full_support_bases(3, 5, seed=103)
    t_values = (0.0, 0.25, 0.5, 0.75, 0.9)
    slack = 1e-12
    checked = 0
    violations = 0
    worst_margin = math.inf
    for f in corpus:
        nd = materialize_table(f).reshape((3,) * 4)
        for k in range(4):
            rows = np.moveaxis(nd, k, -1).reshape(-1, 3)
            rows = rows[rows.min(axis=1) != rows.max(axis=1)]
            for base in bases:
                alpha = second_smallest_atom(base)
                for t in t_values:
                    mu_t = line_rows(base, [t])[0]
                    expected_zero = 1.0 - rows @ mu_t
                    floor = alpha * (1.0 - t)
                    margin = float((expected_zero - floor).min()) if rows.size else math.inf
                    worst_margin = min(worst_margin, margin)
                    checked += rows.shape[0]
                    violations += int((expected_zero < floor - slack).sum())
    ok = violations == 0
    report(3, "alpha-derivative-floor", ok,
           f"{checked} fibre checks, {violations} violations, min margin {worst_margin:.2e}")
    assert ok


def test_criterion_04_h_dominates_entropy():
    t = np.linspace(0.0, 1.0, 10**6 + 1)
    gap = h_paper(t) - ent(t)
    min_gap = float(gap.min())
    ok = min_gap >= -1e-12
    report(4, "weight-profile-dominates-entropy", ok, f"10^6+1 grid, min gap {min_gap:.2e}")
    assert ok


def test_criterion_05_influence_specializations():
    corpus = (
        upset_corpus(3, 2, 3, seed=104)
        + upset_corpus(3, 3, 3, seed=105)
        + upset_corpus(3, 4, 2, seed=106)
        + [indicator(build_tribes(3, 4, 0.5, r=2), 0)]
    )
    measures = [
        SimplexMeasure((1 / 3, 1 / 3, 1 / 3)),
        SimplexMeasure((0.5, 0.25, 0.25)),
        SimplexMeasure((0.1, 0.6, 0.3)),
    ]
    worst = 0.0
    checks = 0
    for f in corpus:
        for mu in measures:
            row = mu.as_array()[None, :]  # the influences answer a one-row matrix in row 0
            for k in range(f.n):
                d1 = abs(influence_h(f, row, k, h_variance)[0] - influence_variance(f, row, k)[0])
                d2 = abs(influence_h(f, row, k, h_nonconstant)[0] - influence_bkkkl(f, row, k)[0])
                worst = max(worst, d1, d2)
                checks += 2
    ok = worst <= 1e-12
    report(5, "influence-specializations", ok, f"{checks} equalities, max gap {worst:.2e}")
    assert ok


def test_criterion_06_tribes_closed_form():
    worst = 0.0
    for n in (4, 6):
        f = build_tribes(3, n, 0.5, r=2)
        measures = sample_uniform_batch(3, 10, 200 + n)
        closed = ClosedFormEvaluator().batch(f, measures, 0).values
        exact = ExactEvaluator().batch(f, measures, 0).values
        worst = max(worst, float(np.abs(closed - exact).max()))
    ok = worst <= 1e-12
    report(6, "tribes-closed-form", ok, f"2 n x 10 measures, max gap {worst:.2e}")
    assert ok


def test_criterion_07_width_scaling():
    started = time.perf_counter()
    rows = sweep_scaling(3, 0.5, [2**k for k in range(10, 21, 2)], 0.1)
    elapsed = time.perf_counter() - started
    widths = [r.width for r in rows]
    wln = [r.width_times_ln_n for r in rows]
    decreasing = all(w0 > w1 for w0, w1 in zip(widths, widths[1:]))
    ratio = max(wln) / min(wln)
    ok = decreasing and ratio <= 3.0 and elapsed < 1.0
    report(7, "width-scaling-band", ok,
           f"n=2^10..2^20, width*ln(n) ratio {ratio:.3f}, decreasing={decreasing}, {elapsed:.2f} s")
    assert ok


def test_criterion_08_region_slab():
    evaluator = ClosedFormEvaluator()
    f16 = build_tribes(3, 2**16, 0.5)
    est16 = region_measure(f16, 0, 0.1, samples=100000, seed=2026, evaluator=evaluator)
    rep = line_width(f16, central_measure(3), 0, 0.1, evaluator)
    # the zero probability depends on a measure only through atom 0, so the
    # band region is the slab t_lo <= mu(0) <= t_hi; under the uniform simplex
    # measure atom 0 follows Beta(1, q-1) with cdf 1 - (1-x)^(q-1)
    analytic = (1.0 - rep.t_lo) ** 2 - (1.0 - rep.t_hi) ** 2
    gap_sigmas = abs(est16.fraction - analytic) / est16.std_error
    fractions = {16: est16.fraction}
    for exp in (12, 20):
        f = build_tribes(3, 2**exp, 0.5)
        fractions[exp] = region_measure(
            f, 0, 0.1, samples=100000, seed=2026 + exp, evaluator=evaluator
        ).fraction
    scaled = [fractions[e] * math.log(2**e) for e in (12, 16, 20)]
    ratio = max(scaled) / min(scaled)
    ok = gap_sigmas <= 4.0 and ratio <= 3.0
    report(8, "region-slab-measure", ok,
           f"n=2^16 gap {gap_sigmas:.2f} sigma vs analytic {analytic:.6f}, "
           f"fraction*ln(n) ratio {ratio:.3f}")
    assert ok


def test_criterion_09_monotone_coupling():
    corpus = (
        upset_corpus(3, 3, 10, seed=107)
        + upset_corpus(3, 4, 5, seed=109)
        + [indicator(build_tribes(3, 4, 0.5, r=2), 0),
           indicator(build_tribes(3, 6, 0.5, r=2), 0)]
    )
    bases = [central_measure(3)] + full_support_bases(3, 2, seed=108)
    t_grid = np.linspace(0.0, 1.0, 100)
    worst_drop = 0.0
    for f in corpus:
        for base in bases:
            vals = np.array(
                [ExactEvaluator().batch(f, line_rows(base, [float(t)]), 1).values[0] for t in t_grid]
            )
            worst_drop = min(worst_drop, float(np.diff(vals).min()))
    ok = worst_drop >= -1e-12
    report(9, "line-monotone-coupling", ok,
           f"{len(corpus)} functions x {len(bases)} bases x 100 t, worst step {worst_drop:.2e}")
    assert ok


def test_criterion_10_cli_determinism(tmp_path):
    command_specs = [
        ("eval-exact", ["eval", "--family", "tribes", "--q", "3", "--n", "6", "--p0", "0.5",
                        "--r", "2", "--mu", "0.5,0.25,0.25", "--a", "0"]),
        ("eval-mc", ["eval", "--family", "tribes", "--q", "3", "--n", "6", "--p0", "0.5",
                     "--r", "2", "--mu", "0.5,0.25,0.25", "--a", "0", "--evaluator", "mc",
                     "--samples", "20000", "--seed", "12"]),
        ("influence", ["influence", "--family", "tribes", "--q", "3", "--n", "4", "--p0", "0.5",
                       "--r", "2", "--level", "0", "--mu", "0.5,0.25,0.25", "--kind", "variance"]),
        ("region", ["region", "--family", "tribes", "--q", "3", "--n", "1024", "--p0", "0.5",
                    "--a", "0", "--eps", "0.1", "--samples", "20000", "--evaluator", "closed",
                    "--seed", "7"]),
        ("sweep", ["sweep", "--q", "3", "--p0", "0.5", "--n-list", "1024,4096,16384"]),
    ]
    mismatches = []
    for name, argv in command_specs:
        paths = [tmp_path / f"{name}_{run}.csv" for run in ("a", "b")]
        for path in paths:
            assert main(argv + ["--out", str(path)]) == 0
        if paths[0].read_bytes() != paths[1].read_bytes():
            mismatches.append(name)
        if name == "sweep":
            plots = [p.with_suffix(".plot.dat") for p in paths]
            if plots[0].read_bytes() != plots[1].read_bytes():
                mismatches.append(name + "-plot")
    # width writes two files in one invocation; check both
    for run in ("a", "b"):
        code = main(["width", "--family", "tribes", "--q", "3", "--n", "6", "--p0", "0.5",
                     "--r", "2", "--level", "0", "--a", "1", "--eps", "0.1",
                     "--out", str(tmp_path / f"width_{run}.csv"),
                     "--diagnostics", str(tmp_path / f"diag_{run}.csv"), "--diag-grid", "8"])
        assert code == 0
    for stem in ("width", "diag"):
        if (tmp_path / f"{stem}_a.csv").read_bytes() != (tmp_path / f"{stem}_b.csv").read_bytes():
            mismatches.append(stem)
    ok = not mismatches
    report(10, "cli-rerun-determinism", ok,
           "7 output files byte-identical" if ok else f"mismatched: {', '.join(mismatches)}")
    assert ok
