"""The four workloads: their inputs, their ops and the check of every output.

A workload is a fixed list of ops, each one ``qthresh`` command run.  Its
inputs (the upset table, measures, base measures, eps values and every
``--seed``) come from the workload seed alone.  Each op carries a check that
compares its output files with answers computed in :mod:`reference`.

Edge ops (``edge=True``) probe a known defect: they must exit 1 and leave no
output file.  They are not timed and count only in ``ops_ok_frac``.
"""
from __future__ import annotations

import csv
import functools
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

Q = 3
P0 = 0.5
T_TOL = 1e-9  # the CLI's default --t-tol
MC_T_TOL = 1e-4  # the MC width path bisects to max(--t-tol, 1e-4)
MC_PROBE_SAMPLES = 10_000  # the MC width path's per-probe sample count at eps = 0.1
Z = 6.0  # standard errors allowed between a sampled answer and its reference

Check = Callable[[dict], list]


@dataclass
class Op:
    name: str
    args: list  # qthresh arguments; "{out}" and "{diag}" stand for output paths
    outputs: list = field(default_factory=lambda: ["out"])
    check: Check | None = None
    edge: bool = False

    @property
    def command(self) -> str:
        return self.args[0]

    def argv(self, paths: dict) -> list:
        return [a.format(**paths) for a in self.args]


def output_paths(workdir: Path, op: Op) -> dict:
    paths = {"stdout": workdir / f"{op.name}.stdout", "stderr": workdir / f"{op.name}.stderr"}
    for key in op.outputs:
        paths[key] = workdir / f"{op.name}.{key}.csv"
    if "plot" in op.outputs:
        paths["plot"] = paths["out"].with_suffix(".plot.dat")  # sweep derives it from --out
    return paths


_TIMING = re.compile(rb", [0-9.]+ s\)")


def comparable(key: str, data: bytes) -> bytes:
    """Output bytes that must repeat across runs; verify prints each suite's run time."""
    return _TIMING.sub(b", <t> s)", data) if key == "stdout" else data


# ---------------------------------------------------------------------------
# Check helpers


def _rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _close(problems: list, what: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        problems.append(f"{what}: got {got!r}, reference {want!r} (tolerance {tol:.3g})")


def _measure(rng: np.random.Generator, p0: float | None = None) -> list[float]:
    """A full-support measure on [3]; atom 0 is ``p0`` when given."""
    a0 = float(rng.uniform(0.1, 0.8)) if p0 is None else p0
    a1 = (1.0 - a0) * float(rng.uniform(0.2, 0.8))
    return [a0, a1, 1.0 - a0 - a1]


def _zero_face_base(rng: np.random.Generator) -> list[float]:
    b = float(rng.uniform(0.25, 0.75))
    return [0.0, b, 1.0 - b]


def _fmt(mu) -> str:
    return ",".join(format(float(a), ".17g") for a in mu)


def _seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31)))


def _tribes(n: int, r: int | None = None) -> list:
    args = ["--family", "tribes", "--q", str(Q), "--n", str(n), "--p0", str(P0)]
    return args + (["--r", str(r)] if r is not None else [])


def _crossing_ok(problems, what, t, prob, target, tol) -> None:
    # A nondecreasing probability crosses target inside [t - tol, t + tol].
    lo, hi = prob(max(0.0, t - tol)), prob(min(1.0, t + tol))
    if not lo - 1e-12 <= target <= hi + 1e-12:
        problems.append(f"{what}={t!r} does not bracket {target}: P(t-tol)={lo!r}, P(t+tol)={hi!r}")


def check_width(blocks, eps: float, tol: float, method: str) -> Check:
    """Widths of the tribes zero event against the closed-form crossings."""
    t_lo, t_hi = ref.tribes_crossing(blocks, eps), ref.tribes_crossing(blocks, 1.0 - eps)

    def check(out: dict) -> list:
        problems: list = []
        (row,) = _rows(out["out"])
        if row["method"] != method or row["lo_absent"] != "false" or row["hi_absent"] != "false":
            problems.append(f"width row {row} is not a two-sided {method}")
            return problems
        _close(problems, "t_lo", float(row["t_lo"]), t_lo, tol)
        _close(problems, "t_hi", float(row["t_hi"]), t_hi, tol)
        _close(problems, "width", float(row["width"]), t_hi - t_lo, 2 * tol)
        return problems

    return check


def check_width_mc(blocks, eps: float) -> Check:
    """MC crossings within Z standard errors (plus the bisection tolerance) of the closed form."""
    se = math.sqrt(eps * (1.0 - eps) / MC_PROBE_SAMPLES)

    def check(out: dict) -> list:
        problems: list = []
        (row,) = _rows(out["out"])
        if row["method"] != "mc-bisection":
            return [f"MC width took {row['method']!r}"]
        for key, target in (("t_lo", eps), ("t_hi", 1.0 - eps)):
            t = float(row[key])
            slack = Z * se + ref.tribes_zero_prob_slope(blocks, t) * MC_T_TOL
            _close(problems, f"P({key})", float(ref.tribes_zero_prob(blocks, t)), target, slack)
        return problems

    return check


def check_eval(prob: Callable, mus, a: int, n: int, method: str, samples: int | None, tol: float = 1e-12) -> Check:
    """Eval rows against reference probabilities within ``tol``; MC within Z standard errors."""

    def check(out: dict) -> list:
        problems: list = []
        rows = _rows(out["out"])
        if len(rows) != len(mus):
            return [f"eval wrote {len(rows)} rows for {len(mus)} measures"]
        for mu, row in zip(mus, rows):
            want = prob(mu)
            if row["method"] != method or int(row["n"]) != n or int(row["a"]) != a:
                problems.append(f"eval row {row} has the wrong method, n or a")
            if samples is None:
                _close(problems, f"Pr[f={a}] at {_fmt(mu)}", float(row["value"]), want, tol)
            else:
                se = math.sqrt(want * (1.0 - want) / samples)
                _close(problems, f"MC Pr[f={a}] at {_fmt(mu)}", float(row["value"]), want, Z * se + 1.0 / samples)
        return problems

    return check


def check_region(fraction_ref: float, ref_se: float, samples: int, misclassified: float = 0.0) -> Check:
    """Region fraction within Z standard errors of a reference fraction."""

    def check(out: dict) -> list:
        problems: list = []
        (row,) = _rows(out["out"])
        frac = float(row["fraction"])
        se = math.sqrt(fraction_ref * (1.0 - fraction_ref) / samples)
        _close(problems, "region fraction", frac, fraction_ref, Z * (se + ref_se) + misclassified)
        if int(row["samples"]) != samples:
            problems.append(f"region used {row['samples']} samples, asked for {samples}")
        if 0 < frac < 1:
            _close(problems, "region std_error", float(row["std_error"]),
                   math.sqrt(frac * (1.0 - frac) / samples), 1e-15)
        return problems

    return check


def tribes_region_fraction(blocks, eps: float) -> float:
    """Uniform-simplex fraction with the zero event in [eps, 1-eps]: the Beta marginal of atom 0."""
    lo, hi = ref.tribes_crossing(blocks, eps), ref.tribes_crossing(blocks, 1.0 - eps)
    return float(ref.zero_atom_cdf(hi, Q) - ref.zero_atom_cdf(lo, Q))


def check_influence(table_fn: Callable, n: int, mu, kind: str) -> Check:
    """Variance profiles, or the Keller row, against fibre sums of the table."""

    def check(out: dict) -> list:
        problems: list = []
        rows = _rows(out["out"])
        table = table_fn()
        if kind == "variance":
            want = ref.variance_influences(table, Q, n, mu)
            if len(rows) != n:
                return [f"influence wrote {len(rows)} rows for n={n}"]
            for k, row in enumerate(rows):
                _close(problems, f"variance influence {k}", float(row["value"]), want[k], 1e-12)
            return problems
        h = ref.h_influences(table, Q, n, mu)
        p = ref.TypeTally(table, Q, n).prob(mu, 1)
        (row,) = _rows(out["out"])
        k = int(row["max_k"])
        _close(problems, "keller max_value", float(row["max_value"]), max(h), 1e-12)
        _close(problems, f"h-influence at max_k={k}", h[k], max(h), 1e-12)
        _close(problems, "keller variance", float(row["variance"]), p * (1.0 - p), 1e-12)
        denominator = p * (1.0 - p) * math.log(n) / n
        _close(problems, "keller denominator", float(row["denominator"]), denominator, 1e-12)
        _close(problems, "keller ratio", float(row["ratio"]), max(h) / denominator, 1e-9 * max(h) / denominator)
        return problems

    return check


def check_diagnostics(blocks, base, n: int, diag_grid: int = 20) -> Check:
    """Derivative diagnostics against the closed-form slope of the zero event."""
    alpha = min(base[1:])

    def check(out: dict) -> list:
        problems: list = []
        rows = _rows(out["diag"])
        grid = np.linspace(0.0, 0.95, diag_grid)
        if len(rows) != diag_grid:
            return [f"diagnostics wrote {len(rows)} rows, expected {diag_grid}"]
        for t, row in zip(grid, rows):
            slope = ref.tribes_zero_prob_slope(blocks, float(t))
            p = float(ref.tribes_zero_prob(blocks, float(t)))
            _close(problems, f"derivative at t={t}", float(row["derivative"]), slope, 1e-9 * max(1.0, slope))
            _close(problems, f"alpha at t={t}", float(row["alpha"]), alpha, 0.0)
            denominator = p * (1.0 - p) * math.log(n) / math.log(1.0 / alpha)
            _close(problems, f"denominator at t={t}", float(row["lower_bound_denominator"]), denominator, 1e-12)
        return problems

    return check


def check_sweep(n_list, eps: float) -> Check:
    """Every sweep row's crossings bracket eps and 1-eps under the closed form."""

    def check(out: dict) -> list:
        problems: list = []
        rows = _rows(out["out"])
        if [int(r["n"]) for r in rows] != sorted(n_list):
            return [f"sweep rows cover n={[r['n'] for r in rows]}, expected {sorted(n_list)}"]
        plot = [line.split() for line in out["plot"].decode("utf-8").splitlines()]
        for row, (pn, pw) in zip(rows, plot):
            n = int(row["n"])
            r = ref.tribes_r(n, P0)
            blocks = ref.tribes_blocks(n, r)
            if int(row["r"]) != r:
                problems.append(f"sweep n={n}: r={row['r']}, expected {r}")
            p_lo, p_hi, width = float(row["p_lo"]), float(row["p_hi"]), float(row["width"])

            def prob(t, blocks=blocks):
                return float(ref.tribes_zero_prob(blocks, t))

            _crossing_ok(problems, f"sweep n={n} p_lo", p_lo, prob, eps, T_TOL)
            _crossing_ok(problems, f"sweep n={n} p_hi", p_hi, prob, 1.0 - eps, T_TOL)
            _close(problems, f"sweep n={n} width", width, p_hi - p_lo, 1e-15)
            _close(problems, f"sweep n={n} width*ln n", float(row["width_times_ln_n"]), width * math.log(n), 1e-12)
            if int(pn) != n or pw != row["width"]:
                problems.append(f"plot line {pn} {pw} does not match sweep row n={n}")
        if len(plot) != len(rows):
            problems.append(f"plot file has {len(plot)} lines for {len(rows)} rows")
        return problems

    return check


def check_verify(suites: int) -> Check:
    def check(out: dict) -> list:
        lines = [ln for ln in out["stdout"].decode("utf-8").splitlines() if ln.startswith("suite ")]
        bad = [ln for ln in lines if ": PASS (" not in ln]
        if len(lines) != suites or bad:
            return [f"verify reported {lines}"]
        return []

    return check


# ---------------------------------------------------------------------------
# Workloads


SMALL_SWEEP = [2**k for k in range(10, 15)]


def _sweep_op(rng, name: str, n_list) -> Op:
    eps = float(rng.uniform(0.05, 0.15))
    args = ["sweep", "--q", str(Q), "--p0", str(P0), "--n-list", ",".join(map(str, n_list)),
            "--eps", repr(eps), "--out", "{out}"]
    return Op(name, args, ["out", "plot"], check_sweep(n_list, eps))


@functools.cache
def _tribes_indicator(n: int, r: int) -> np.ndarray:
    return (ref.tribes_table(Q, n, ref.tribes_blocks(n, r)) == 0).astype(np.int32)


def _filler_ops(rng, workdir: Path) -> list:
    """Small instances of the commands off the workload's route, so that every workload runs every command.

    They do not enumerate a family: the influence reads a small upset table
    from a file, and the ``hent`` and ``order`` suites evaluate no function.
    """
    n = 8
    table = ref.random_upset(Q, n, 8, rng)
    fn = workdir / "small-upset.txt"
    ref.write_table_file(fn, Q, n, "indicator", table)
    mu = _measure(rng)
    args = ["influence", "--fn", str(fn), "--mu", _fmt(mu), "--kind", "variance", "--out", "{out}"]
    return [
        Op("influence-small", args, check=check_influence(lambda: table, n, mu, "variance")),
        Op("verify-hent-order", ["verify", "--suite", "hent", "--suite", "order"], [], check_verify(2)),
    ]


def tribes_exact(rng: np.random.Generator, workdir: Path) -> list:
    """Family-backed tribes, q=3, r=2: every exact probe enumerates the 3^n table."""
    r, eps = 2, 0.1
    ops = []

    n = 10

    @functools.cache
    def tally(n=n):
        return ref.TypeTally(ref.tribes_table(Q, n, ref.tribes_blocks(n, r)), Q, n)

    a = int(rng.integers(0, Q))
    mus = [_measure(rng) for _ in range(6)]
    args = ["eval", *_tribes(n, r), "--a", str(a), "--evaluator", "exact", "--out", "{out}"]
    for mu in mus:
        args += ["--mu", _fmt(mu)]
    ops.append(Op("eval-exact", args,
                  check=check_eval(lambda mu: tally().prob(mu, a), mus, a, n, "exact-enumeration", None)))

    n = 9
    base = _zero_face_base(rng)
    args = ["width", *_tribes(n, r), "--mu", _fmt(base), "--a", "0", "--eps", str(eps),
            "--evaluator", "exact", "--out", "{out}"]
    ops.append(Op("width-exact", args, check=check_width(ref.tribes_blocks(n, r), eps, T_TOL, "bisection")))

    n = 8
    base = _zero_face_base(rng)
    blocks = ref.tribes_blocks(n, r)
    args = ["width", *_tribes(n, r), "--level", "0", "--mu", _fmt(base), "--a", "1", "--eps", str(eps),
            "--evaluator", "exact", "--diagnostics", "{diag}", "--out", "{out}"]
    width_check, diag_check = check_width(blocks, eps, T_TOL, "bisection"), check_diagnostics(blocks, base, n)
    ops.append(Op("width-diagnostics", args, ["out", "diag"],
                  lambda out: width_check(out) + diag_check(out)))

    n = 10
    for kind in ("variance", "keller"):
        mu = _measure(rng)
        args = ["influence", *_tribes(n, r), "--level", "0", "--mu", _fmt(mu), "--kind", kind, "--out", "{out}"]
        ops.append(Op(f"influence-{kind}", args,
                      check=check_influence(lambda n=n: _tribes_indicator(n, r), n, mu, kind)))

    n, points = 7, 500
    args = ["region", *_tribes(n, r), "--a", "0", "--eps", str(eps), "--samples", str(points),
            "--evaluator", "exact", "--seed", _seed(rng), "--out", "{out}"]
    frac = tribes_region_fraction(ref.tribes_blocks(n, r), eps)
    ops.append(Op("region-exact", args, check=check_region(frac, 0.0, points)))

    ops.append(_sweep_op(rng, "sweep", SMALL_SWEEP))
    ops.append(Op("verify-closed-coupling", ["verify", "--suite", "closed", "--suite", "coupling"], [],
                  check_verify(2)))
    return ops


TABLE_N = 12
TABLE_SEEDS = 40  # seed points of the random upset; their up-closure is the table


def table_exact(rng: np.random.Generator, workdir: Path) -> list:
    """A seeded random 0-monotone upset written to a table file: every command parses it."""
    n, eps = TABLE_N, 0.1
    table = ref.random_upset(Q, n, TABLE_SEEDS, rng)
    fn = workdir / "upset.txt"
    ref.write_table_file(fn, Q, n, "indicator", table)
    tally = functools.cache(lambda: ref.TypeTally(table, Q, n))
    source = ["--fn", str(fn)]
    ops = []

    mus = [_measure(rng) for _ in range(20)]
    args = ["eval", *source, "--a", "1", "--evaluator", "exact", "--out", "{out}"]
    for mu in mus:
        args += ["--mu", _fmt(mu)]
    ops.append(Op("eval-exact", args,
                  check=check_eval(lambda mu: tally().prob(mu, 1), mus, 1, n, "exact-enumeration", None)))

    base = _zero_face_base(rng)

    def line_prob(t: float) -> float:
        return tally().prob([t, (1.0 - t) * base[1], (1.0 - t) * base[2]], 1)

    def check_table_width(out: dict) -> list:
        problems: list = []
        (row,) = _rows(out["out"])
        if row["method"] != "bisection":
            return [f"table width took {row['method']!r}"]
        for key, target in (("t_lo", eps), ("t_hi", 1.0 - eps)):
            if row[key]:
                _crossing_ok(problems, key, float(row[key]), line_prob, target, T_TOL)
            elif (line_prob(0.0) < target) if key == "t_lo" else (line_prob(1.0) > target):
                problems.append(f"{key} reported absent but the line crosses {target}")
        return problems

    args = ["width", *source, "--mu", _fmt(base), "--a", "1", "--eps", str(eps), "--evaluator", "exact",
            "--out", "{out}"]
    ops.append(Op("width-exact", args, check=check_table_width))

    mu = _measure(rng)
    args = ["influence", *source, "--mu", _fmt(mu), "--kind", "keller", "--out", "{out}"]
    ops.append(Op("influence-keller", args, check=check_influence(lambda: table, n, mu, "keller")))

    # The reference region fraction comes from a large uniform-simplex sample of our own.
    points, ref_points = 120, 20_000
    g = rng.exponential(size=(ref_points, Q))
    ref_measures = g / g.sum(axis=1, keepdims=True)

    def check_table_region(out: dict) -> list:
        probs = np.array([tally().prob(m, 1) for m in ref_measures])
        frac = float(((probs >= eps) & (probs <= 1.0 - eps)).mean())
        return check_region(frac, math.sqrt(frac * (1.0 - frac) / ref_points), points)(out)

    args = ["region", *source, "--a", "1", "--eps", str(eps), "--samples", str(points), "--evaluator", "exact",
            "--seed", _seed(rng), "--out", "{out}"]
    ops.append(Op("region-exact", args, check=check_table_region))

    ops.append(Op("verify", ["verify"], [], check_verify(8)))
    ops.append(_sweep_op(rng, "sweep", SMALL_SWEEP))
    return ops


def mc(rng: np.random.Generator, workdir: Path) -> list:
    """Past the enumeration cap: every probe samples."""
    eps = 0.1
    ops = []

    n = 64
    blocks = ref.tribes_blocks(n, ref.tribes_r(n, P0))
    args = ["width", *_tribes(n), "--mu", _fmt(_zero_face_base(rng)), "--a", "0", "--eps", str(eps),
            "--evaluator", "mc", "--seed", _seed(rng), "--out", "{out}"]
    ops.append(Op("width-mc", args, check=check_width_mc(blocks, eps)))

    n, samples = 1024, 10_000
    blocks = ref.tribes_blocks(n, ref.tribes_r(n, P0))
    mus = [_measure(rng, ref.tribes_crossing(blocks, float(rng.uniform(0.1, 0.9)))) for _ in range(2)]
    args = ["eval", *_tribes(n), "--a", "0", "--evaluator", "mc", "--samples", str(samples),
            "--seed", _seed(rng), "--out", "{out}"]
    for mu in mus:
        args += ["--mu", _fmt(mu)]
    ops.append(Op("eval-mc", args,
                  check=check_eval(lambda mu, blocks=blocks: float(ref.tribes_zero_prob(blocks, mu[0])), mus, 0,
                                   n, "monte-carlo", samples)))

    n, points, probe_samples = 256, 50, 1000
    blocks = ref.tribes_blocks(n, ref.tribes_r(n, P0))
    args = ["region", *_tribes(n), "--a", "0", "--eps", str(eps), "--samples", str(points),
            "--evaluator", "mc", "--eval-samples", str(probe_samples), "--seed", _seed(rng), "--out", "{out}"]
    # Points whose probability sits within Z probe errors of the band edges may land on either side.
    p_lo, p_hi = ref.tribes_crossing(blocks, eps), ref.tribes_crossing(blocks, 1.0 - eps)
    edge_t = Z * math.sqrt(0.25 / probe_samples) / ref.tribes_zero_prob_slope(blocks, p_lo)
    edge_mass = float(ref.zero_atom_cdf(p_lo + edge_t, Q) - ref.zero_atom_cdf(p_lo - edge_t, Q))
    edge_t = Z * math.sqrt(0.25 / probe_samples) / ref.tribes_zero_prob_slope(blocks, p_hi)
    edge_mass += float(ref.zero_atom_cdf(p_hi + edge_t, Q) - ref.zero_atom_cdf(p_hi - edge_t, Q))
    ops.append(Op("region-mc", args,
                  check=check_region(tribes_region_fraction(blocks, eps), 0.0, points, edge_mass)))

    ops += _filler_ops(rng, workdir)
    ops.append(_sweep_op(rng, "sweep", SMALL_SWEEP))
    return ops


EDGE_N = 65536  # q^n past the cap by far: q**n has over 4300 decimal digits


def closed(rng: np.random.Generator, workdir: Path) -> list:
    """The tribes closed form at large n: cheap probes, many of them."""
    ops = []
    ops.append(_sweep_op(rng, "sweep", [2**k for k in range(10, 21)]))

    n, eps = 2**20, float(rng.uniform(0.05, 0.15))
    blocks = ref.tribes_blocks(n, ref.tribes_r(n, P0))
    args = ["width", *_tribes(n), "--mu", _fmt(_zero_face_base(rng)), "--a", "0", "--eps", repr(eps),
            "--evaluator", "closed", "--out", "{out}"]
    ops.append(Op("width-closed", args, check=check_width(blocks, eps, T_TOL, "bisection")))

    points = 10**6
    args = ["region", *_tribes(n), "--a", "0", "--eps", repr(eps), "--samples", str(points),
            "--evaluator", "closed", "--seed", _seed(rng), "--out", "{out}"]
    ops.append(Op("region-closed", args,
                  check=check_region(tribes_region_fraction(blocks, eps), 0.0, points)))

    mus = [_measure(rng, ref.tribes_crossing(blocks, float(rng.uniform(0.05, 0.95)))) for _ in range(10)]
    args = ["eval", *_tribes(n), "--a", "0", "--evaluator", "closed", "--out", "{out}"]
    for mu in mus:
        args += ["--mu", _fmt(mu)]
    ops.append(Op("eval-closed", args,
                  check=check_eval(lambda mu, blocks=blocks: float(ref.tribes_zero_prob(blocks, mu[0])), mus, 0,
                                   n, "closed-form", None, tol=1e-9)))

    ops += _filler_ops(rng, workdir)

    mu = _measure(rng)
    ops.append(Op("edge-eval-exact",
                  ["eval", *_tribes(EDGE_N), "--a", "0", "--evaluator", "exact", "--mu", _fmt(mu), "--out", "{out}"],
                  edge=True))
    ops.append(Op("edge-width-diagnostics",
                  ["width", *_tribes(EDGE_N), "--a", "0", "--eps", "0.1", "--evaluator", "closed",
                   "--diagnostics", "{diag}", "--out", "{out}"], ["out", "diag"], edge=True))
    return ops


WORKLOADS = {
    "tribes-exact": tribes_exact,
    "table-exact": table_exact,
    "mc": mc,
    "closed": closed,
}
