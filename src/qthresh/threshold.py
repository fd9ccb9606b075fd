"""Threshold locations, widths, and derivative identities along simplex lines.

The central object is the line from a zero-face base measure toward the
point mass at symbol 0.  For a 0-monotone indicator the output probability
is nondecreasing along that line, its derivative has an exact fibre-sum
expression, and the threshold width is the stretch of the line where the
probability crosses from eps to 1 - eps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .evaluate import (
    SAMPLE_CELLS,
    ClosedFormEvaluator,
    MonteCarloEvaluator,
    binomial_std_error,
    type_tally,
    variance_of_indicator,
)
from .functions import (
    KIND_FULL,
    FunctionSpec,
    build_tribes,
    check_measure_q,
    check_output,
    indicator,
    level_name,
    level_rises,
)
from .measures import (
    SimplexMeasure,
    central_measure,
    derivative_ts,
    line_rows,
    require_zero_face,
    sample_uniform_batch,
    second_smallest_atom,
)

METHOD_BISECTION = "bisection"
METHOD_GRID_SCAN = "grid-scan"
METHOD_MC_BISECTION = "mc-bisection"

_GRID_POINTS = 101  # the deterministic route's monotonicity check, one line call
_MC_T_TOL = 1e-4
_DKW_DELTA = 0.05
_MONOTONE_SLACK = 1e-12  # rounding may dip a monotone probe profile by this much


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie strictly inside (0, 0.5), got {eps!r}")
    return eps


def rm_derivative_exact(f: FunctionSpec, base: SimplexMeasure, ts) -> np.ndarray:
    """Exact d/dt Pr[f = 1] along line_rows(base, ts) for 0-monotone indicators, one value per t in [0, 1).

    Equals sum_k E[ 1[fibre nonconstant] (1 - fibre mean) ] / (1 - t) under
    the mixed measure; an identity, not an approximation, so finite
    differences of the exact probability must reproduce it to rounding.
    The grid takes one ``phi_k`` call per coordinate.  The identity needs
    1[f = 1] to rise toward delta_0 (``level_rises(f, 1, 0)``); any other
    {0,1}-valued f is refused before a fibre is built, and ``phi_k`` refuses
    an f that is not {0,1}-valued.  It is this module's one reader of the
    influence module, so it imports ``phi_k`` itself: a command that reaches
    no derivative (``width`` without ``--diagnostics``, ``region``,
    ``sweep``) never compiles that module.
    """
    from .influence import phi_k

    ts = derivative_ts(ts)
    rows = line_rows(base, ts)
    if not level_rises(f, 1, 0) and (f.kind != KIND_FULL or type_tally(f).binary):
        raise ValueError(f"the fibre-sum derivative needs a level that only rises toward delta_0, and "
                         f"{level_name(f, 1)} is not one")
    terms = np.column_stack([phi_k(f, rows, k) for k in range(f.n)])
    return np.array([math.fsum(row) for row in terms]) / (1.0 - ts)


@dataclass(frozen=True)
class DerivativeDiagnostic:
    """One probe of the derivative against its influence-style benchmark.

    ``denominator`` is E(1-E) ln(n) / ln(1/alpha) with E the output
    probability at t and alpha the smallest nonzero-symbol atom of the base;
    ``ratio`` is derivative/denominator, None when the benchmark degenerates
    (constant f, n = 1, or alpha = 1).
    """

    n: int
    t: float
    alpha: float
    derivative: float
    denominator: float
    ratio: float | None


def derivative_lower_bound_ratio(f: FunctionSpec, a: int, base: SimplexMeasure, ts) -> list[DerivativeDiagnostic]:
    """One :class:`DerivativeDiagnostic` of d/dt Pr[g = 1] per t of a grid, for g = 1[f = a].

    A full f is read through ``indicator(f, a)``; an indicator is g at a = 1
    and refused at a = 0.  One derivative call, one variance batch.
    """
    check_output(f, a)
    if f.kind == KIND_FULL:
        f = indicator(f, a)
    elif a == 0:
        raise ValueError("--diagnostics tabulates d/dt Pr[g = 1]; on an indicator use --a 1")
    alpha = second_smallest_atom(base)
    if alpha == 0.0:
        raise ValueError("benchmark needs every symbol 1..q-1 to carry mass (alpha > 0)")
    derivative = rm_derivative_exact(f, base, ts)  # checks the grid, the zero face and the level
    variance = variance_of_indicator(f, line_rows(base, ts))  # E(1-E), both factors from the tally
    log_inv_alpha = math.log(1.0 / alpha)
    denominator = variance * math.log(f.n) / log_inv_alpha if log_inv_alpha > 0.0 else np.full(len(ts), math.inf)
    return [DerivativeDiagnostic(n=f.n, t=float(u), alpha=alpha, derivative=float(d), denominator=float(den),
                                 ratio=float(d / den) if 0.0 < den < math.inf else None)
            for u, d, den in zip(ts, derivative, denominator)]


@dataclass(frozen=True)
class ThresholdReport:
    """Where the output probability crosses eps and 1 - eps along a line.

    ``t_lo``/``t_hi`` are the crossing positions, None when the probability
    already starts above eps (or ends below 1 - eps), in which case the
    width counts only the achieved stretch of [eps, 1 - eps].
    """

    eps: float
    t_lo: float | None
    t_hi: float | None
    width: float
    method: str
    grid_points: int
    t_tol: float
    lo_absent: bool
    hi_absent: bool


def _midpoint(lo: float, hi: float, t_tol: float) -> float | None:
    """The next probe of a bisection on [lo, hi], or None once it stops.

    It stops at t_tol, or once lo and hi are adjacent floats: the midpoint
    is then one of them, and no t_tol can be met.
    """
    mid = 0.5 * (lo + hi)
    return mid if hi - lo > t_tol and lo < mid < hi else None


def _bisect_increasing(values, targets: list[float], t_tol: float) -> list[float]:
    """Where a nondecreasing curve on [0, 1] crosses each target, bisected to t_tol in lock step.

    Invariant per target: P(lo) < target <= P(hi), from [lo, hi] = [0, 1].
    Each step is one call of ``values(ts)``, P at the midpoint
    (:func:`_midpoint`) of every bisection still running: at most one row
    per target.  A row's value does not depend on the others in its call,
    so each crossing probes, and returns, the floats of a loop that
    bisects it alone, one row per step.
    """
    lo, hi = [0.0] * len(targets), [1.0] * len(targets)
    while steps := [(i, mid) for i in range(len(targets)) if (mid := _midpoint(lo[i], hi[i], t_tol)) is not None]:
        for (i, mid), p in zip(steps, values([mid for _, mid in steps])):
            if p < targets[i]:
                lo[i] = mid
            else:
                hi[i] = mid
    return [0.5 * (a + b) for a, b in zip(lo, hi)]


def _grid_scan_report(grid: np.ndarray, vals: np.ndarray, eps: float, t_tol: float) -> ThresholdReport:
    # Linear interpolation inside each cell; exact when the probability is
    # piecewise linear, a controlled estimate otherwise.
    lo_band, hi_band = eps, 1.0 - eps
    width = 0.0
    for j in range(len(grid) - 1):
        p0, p1 = vals[j], vals[j + 1]
        if p1 == p0:
            frac = 1.0 if lo_band <= p0 <= hi_band else 0.0
        else:
            u0 = (lo_band - p0) / (p1 - p0)
            u1 = (hi_band - p0) / (p1 - p0)
            ua, ub = min(u0, u1), max(u0, u1)
            frac = max(0.0, min(1.0, ub) - max(0.0, ua))
        width += frac * (grid[j + 1] - grid[j])
    inside = np.nonzero((vals >= lo_band) & (vals <= hi_band))[0]
    t_lo = float(grid[inside[0]]) if inside.size else None
    t_hi = float(grid[inside[-1]]) if inside.size else None
    return ThresholdReport(eps=eps, t_lo=t_lo, t_hi=t_hi, width=width, method=METHOD_GRID_SCAN,
                           grid_points=len(grid), t_tol=t_tol, lo_absent=t_lo is None, hi_absent=t_hi is None)


def _crossing_report(eps, p_start, p_end, crossings, method, grid_points, t_tol) -> ThresholdReport:
    """Report of a nondecreasing curve from p_start to p_end.

    ``crossings(targets)`` locates where the curve passes each target, all
    in one call.  A crossing the curve never makes is absent, and the width
    then counts only the achieved stretch of [eps, 1 - eps].
    """
    t_lo = t_hi = None
    width = 0.0
    if eps <= p_end and p_start <= 1.0 - eps:
        find_lo, find_hi = p_start < eps, p_end > 1.0 - eps
        found = iter(crossings([eps] * find_lo + [1.0 - eps] * find_hi))
        t_lo = next(found) if find_lo else None
        t_hi = next(found) if find_hi else None
        width = max(0.0, (1.0 if t_hi is None else t_hi) - (0.0 if t_lo is None else t_lo))
    return ThresholdReport(eps=eps, t_lo=t_lo, t_hi=t_hi, width=width, method=method,
                           grid_points=grid_points, t_tol=t_tol, lo_absent=t_lo is None, hi_absent=t_hi is None)


def _line_width_deterministic(f, base, a, eps, evaluator, t_tol):
    def values(ts) -> np.ndarray:
        return evaluator.line(f, a, base, ts)

    grid = np.linspace(0.0, 1.0, _GRID_POINTS)
    vals = values(grid)
    if np.any(np.diff(vals) < -_MONOTONE_SLACK):
        return _grid_scan_report(grid, vals, eps, t_tol)

    def crossings(targets: list[float]) -> list[float]:
        return _bisect_increasing(values, targets, t_tol)

    return _crossing_report(eps, float(vals[0]), float(vals[-1]), crossings, METHOD_BISECTION, _GRID_POINTS, t_tol)


def _dkw_samples(eps: float) -> int:
    """Sample count whose empirical CDF lies within r of the true one along
    the whole line with probability 1 - delta, r = 0.25 min(eps, 0.1).

    Dvoretzky-Kiefer-Wolfowitz with Massart's constant:
    Pr[sup |F_N - F| > r] <= 2 exp(-2 N r^2).
    """
    r = 0.25 * min(eps, 0.1)
    return math.ceil(math.log(2.0 / _DKW_DELTA) / (2.0 * r * r))


def _line_width_mc(f, base, a, eps, evaluator, t_tol):
    """Width from the switching times of one coupled sample of the line.

    The sample's size, max(evaluator.samples, DKW count), bounds the error
    of the empirical curve along the whole line, not only at single probes.
    ``evaluator.switching_times`` draws it, and refuses a level that does
    not rise toward 0; the exact or closed route answers that one.
    """
    samples = max(evaluator.samples, _dkw_samples(eps))
    t_tol = max(t_tol, _MC_T_TOL)
    # Each path is one step at its switching time T, so the probability
    # curve is the empirical CDF of T and a crossing is a quantile of T.
    T, start, end = evaluator.switching_times(f, a, base, samples)
    T.sort()

    def crossings(targets: list[float]) -> list[float]:
        return [float(T[math.ceil(target * samples) - 1]) for target in targets]

    return _crossing_report(eps, float(start.mean()), float(end.mean()), crossings, METHOD_MC_BISECTION, 0, t_tol)


def line_width(
    f: FunctionSpec,
    base: SimplexMeasure,
    a: int,
    eps: float,
    evaluator,
    *,
    t_tol: float = 1e-9,
) -> ThresholdReport:
    """Threshold width of Pr[f = a] along the line from base toward delta_0.

    A deterministic evaluator is read through ``evaluator.line(f, a, base,
    ts)``, which checks the line once.  It gets a monotonicity check on a
    101-point grid, one call, and then bisection to ``t_tol``; a visibly
    non-monotone probe profile falls back to a grid scan of the band.  Both
    crossings are bisected in lock step, one call of at most 2 rows per
    step (:func:`_bisect_increasing`), with the floats of one row per step.
    A :class:`~qthresh.evaluate.MonteCarloEvaluator` returns the
    switching times of one coupled sample of the whole line, and the
    crossings are their quantiles (:func:`_line_width_mc`); it takes only
    0-monotone levels, and its reported ``t_tol`` is at least 1e-4.
    """
    require_zero_face(base)
    check_measure_q(f, base.q)
    eps = _check_eps(eps)
    check_output(f, a)
    if not (math.isfinite(t_tol) and t_tol > 0.0):
        raise ValueError(f"t_tol must be finite and positive, got {t_tol!r}")
    if isinstance(evaluator, MonteCarloEvaluator):
        return _line_width_mc(f, base, a, eps, evaluator, t_tol)
    return _line_width_deterministic(f, base, a, eps, evaluator, t_tol)


@dataclass(frozen=True)
class RegionMeasureEstimate:
    """Uniform-measure fraction of the simplex where Pr[f = a] sits in the band."""

    fraction: float
    std_error: float
    samples: int
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction {self.fraction!r} outside [0, 1]")
        if self.std_error < 0.0:
            raise ValueError("std_error must be nonnegative")


def region_measure(
    f: FunctionSpec, a: int, eps: float, samples: int, seed: int, evaluator
) -> RegionMeasureEstimate:
    """Monte Carlo fraction of uniform simplex points with eps <= Pr[f=a] <= 1-eps.

    The points come in blocks of ``SAMPLE_CELLS // q`` rows, one
    ``sample_uniform_batch`` from one generator and one ``batch`` each, so
    memory does not grow with ``samples``.  The blocks are the rows of one
    ``sample_uniform_batch(q, samples, seed)``, and a row reads the same
    alone or in a batch on every route (Monte Carlo rows take their streams
    in order), so the count is that of one batch of all the points.  With
    a deterministic evaluator the randomness is only in the simplex sample,
    so the estimate is reproducible from the seed alone.
    """
    eps = _check_eps(eps)
    if samples < 1:
        raise ValueError("samples must be positive")
    check_output(f, a)
    gen = np.random.default_rng(seed)
    block = max(1, SAMPLE_CELLS // f.q)
    hits = 0
    for done in range(0, samples, block):
        probs = evaluator.batch(f, sample_uniform_batch(f.q, min(block, samples - done), gen), a).values
        hits += int(np.count_nonzero((probs >= eps) & (probs <= 1.0 - eps)))
    return RegionMeasureEstimate(fraction=hits / samples, std_error=float(binomial_std_error(hits, samples)),
                                 samples=samples, seed=int(seed))


@dataclass(frozen=True)
class ScalingRow:
    """One n of a tribes width sweep along the central line."""

    n: int
    r: int
    p_lo: float
    p_hi: float
    width: float
    width_times_ln_n: float


def sweep_scaling(q: int, p0: float, n_list: Sequence[int], eps: float) -> list[ScalingRow]:
    """Tribes threshold widths along the central line for each n, sorted by n.

    The closed-form evaluator keeps every n cheap, so the sweep scales to n
    in the millions.  Width times ln n is the quantity expected to stay in a
    constant band.
    """
    eps = _check_eps(eps)
    evaluator = ClosedFormEvaluator()
    rows = []
    for n in sorted(int(n) for n in n_list):
        f = build_tribes(q, n, p0)
        rep = line_width(f, central_measure(q), 0, eps, evaluator)
        if rep.t_lo is None or rep.t_hi is None:
            raise AssertionError("tribes zero-probability spans [0, 1]; crossings must exist")
        rows.append(ScalingRow(n=n, r=f.family.r, p_lo=rep.t_lo, p_hi=rep.t_hi, width=rep.width,
                               width_times_ln_n=rep.width * math.log(n)))
    return rows
