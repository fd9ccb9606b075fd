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

from .evaluate import ClosedFormEvaluator, MonteCarloEvaluator, binomial_std_error, variance_of_indicator
from .functions import FunctionSpec, build_tribes, check_measure_q, check_output, evaluate_batch, level_is_zero_monotone
from .influence import phi_k
from .measures import (
    SimplexMeasure,
    central_measure,
    mix_t,
    require_zero_face,
    sample_uniform_batch,
    second_smallest_atom,
)

METHOD_BISECTION = "bisection"
METHOD_GRID_SCAN = "grid-scan"
METHOD_MC_BISECTION = "mc-bisection"
METHOD_MC_GRID_SCAN = "mc-grid-scan"

_GRID_POINTS = 101  # the deterministic route's monotonicity check, one batch
_MC_GRID_POINTS = 33
_MC_T_TOL = 1e-4
_DKW_DELTA = 0.05
_MONOTONE_SLACK = 1e-12  # rounding may dip a monotone probe profile by this much


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie strictly inside (0, 0.5), got {eps!r}")
    return eps


def rm_derivative_exact(f: FunctionSpec, base: SimplexMeasure, t: float) -> float:
    """Exact d/dt Pr[f = 1] along mix_t(base, t) for 0-monotone indicators.

    Equals sum_k E[ 1[fibre nonconstant] (1 - fibre mean) ] / (1 - t) under
    the mixed measure; an identity, not an approximation, so finite
    differences of the exact probability must reproduce it to rounding.
    """
    require_zero_face(base)
    t = float(t)
    if not 0.0 <= t < 1.0:
        raise ValueError(f"t must lie in [0, 1); the identity divides by 1 - t, got {t!r}")
    mu_t = mix_t(base, t)
    total = math.fsum(phi_k(f, mu_t, k) for k in range(f.n))
    return total / (1.0 - t)


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


def derivative_lower_bound_ratio(f: FunctionSpec, base: SimplexMeasure, t: float) -> DerivativeDiagnostic:
    require_zero_face(base)
    alpha = second_smallest_atom(base)
    if alpha == 0.0:
        raise ValueError("benchmark needs every symbol 1..q-1 to carry mass (alpha > 0)")
    derivative = rm_derivative_exact(f, base, t)
    variance = variance_of_indicator(f, mix_t(base, t))  # E(1-E), both factors from the tally
    log_inv_alpha = math.log(1.0 / alpha)
    if log_inv_alpha > 0.0:
        denominator = variance * math.log(f.n) / log_inv_alpha
    else:
        denominator = math.inf
    ratio = derivative / denominator if 0.0 < denominator < math.inf else None
    return DerivativeDiagnostic(
        n=f.n, t=float(t), alpha=alpha, derivative=derivative, denominator=denominator, ratio=ratio
    )


@dataclass(frozen=True)
class ThresholdReport:
    """Where the output probability crosses eps and 1 - eps along a line.

    ``t_lo``/``t_hi`` are the crossing positions, None when the probability
    already starts above eps (or ends below 1 - eps), in which case the
    width counts only the achieved stretch of [eps, 1 - eps].
    """

    eps: float
    a: int
    t_lo: float | None
    t_hi: float | None
    width: float
    method: str
    grid_points: int
    t_tol: float
    lo_absent: bool
    hi_absent: bool


def _bisect_increasing(probe, target: float, lo: float, hi: float, t_tol: float) -> float:
    # Invariant: probe(lo) < target <= probe(hi).  Once lo and hi are
    # adjacent floats the midpoint is one of them, and no t_tol can be met.
    while hi - lo > t_tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if probe(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _grid_scan_report(
    grid: np.ndarray, vals: np.ndarray, eps: float, a: int, t_tol: float, method: str
) -> ThresholdReport:
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
    return ThresholdReport(
        eps=eps,
        a=a,
        t_lo=t_lo,
        t_hi=t_hi,
        width=width,
        method=method,
        grid_points=len(grid),
        t_tol=t_tol,
        lo_absent=t_lo is None,
        hi_absent=t_hi is None,
    )


def _crossing_report(eps, a, p_start, p_end, crossing, method, grid_points, t_tol) -> ThresholdReport:
    """Report of a nondecreasing curve from p_start to p_end.

    ``crossing(target)`` locates where the curve passes target.  A crossing
    the curve never makes is absent, and the width then counts only the
    achieved stretch of [eps, 1 - eps].
    """
    t_lo = t_hi = None
    width = 0.0
    if eps <= p_end and p_start <= 1.0 - eps:
        if p_start < eps:
            t_lo = crossing(eps)
        if p_end > 1.0 - eps:
            t_hi = crossing(1.0 - eps)
        width = max(0.0, (1.0 if t_hi is None else t_hi) - (0.0 if t_lo is None else t_lo))
    return ThresholdReport(
        eps=eps,
        a=a,
        t_lo=t_lo,
        t_hi=t_hi,
        width=width,
        method=method,
        grid_points=grid_points,
        t_tol=t_tol,
        lo_absent=t_lo is None,
        hi_absent=t_hi is None,
    )


def _line_width_deterministic(f, base, a, eps, evaluator, t_tol):
    grid = np.linspace(0.0, 1.0, _GRID_POINTS)
    vals = evaluator.batch(f, np.stack([mix_t(base, float(t)).as_array() for t in grid]), a).values
    if np.any(np.diff(vals) < -_MONOTONE_SLACK):
        return _grid_scan_report(grid, vals, eps, a, t_tol, METHOD_GRID_SCAN)

    def crossing(target: float) -> float:
        return _bisect_increasing(lambda t: evaluator(f, mix_t(base, t), a), target, 0.0, 1.0, t_tol)

    return _crossing_report(eps, a, float(vals[0]), float(vals[-1]), crossing, METHOD_BISECTION,
                            _GRID_POINTS, t_tol)


def _dkw_samples(eps: float) -> int:
    """Sample count whose empirical CDF lies within r of the true one along
    the whole line with probability 1 - delta, r = 0.25 min(eps, 0.1).

    Dvoretzky-Kiefer-Wolfowitz with Massart's constant:
    Pr[sup |F_N - F| > r] <= 2 exp(-2 N r^2).
    """
    r = 0.25 * min(eps, 0.1)
    return math.ceil(math.log(2.0 / _DKW_DELTA) / (2.0 * r * r))


def _switching_times(f: FunctionSpec, a: int, U: np.ndarray, V: np.ndarray):
    """Where 1[f(x(t)) = a] steps from 0 to 1 on each coupled row.

    For a level that only rises as coordinates turn to 0, each row's path
    is one step.  x(t) changes only when t passes an order statistic of U,
    so the step is at the k-th smallest U_i for the least k such that
    zeroing the k smallest-U coordinates reaches f = a; k is found by
    bisection over all rows at once.  Returns ``(T, start, end)``: T is the
    switching time (0 for rows with f = a already at t = 0), ``start`` and
    ``end`` say whether f = a at t = 0 and at t = 1.  Every point rewrites
    to the all-zero point, so a row with f != a at t = 1 means the level is
    identically 0; its crossings are then absent and T is never read.
    """
    b, n = U.shape
    rows = np.arange(b)
    order = np.sort(U, axis=1)

    def cut(k: np.ndarray) -> np.ndarray:  # the k-th smallest U_i of each row; -1 for k = 0
        return np.where(k > 0, order[rows, np.maximum(k - 1, 0)], -1.0)

    def at(k: np.ndarray) -> np.ndarray:
        # f = a with the k smallest U_i of each row zeroed: the state just
        # after t passes the k-th order statistic.
        return evaluate_batch(f, V * (U > cut(k)[:, None])) == a

    lo, hi = np.zeros(b, dtype=np.int64), np.full(b, n, dtype=np.int64)
    start, end = at(lo), at(hi)
    for _ in range(math.ceil(math.log2(n))):  # keeps at(lo) false and at(hi) true
        mid = (lo + hi) // 2
        hit = at(mid)
        hi = np.where(hit, mid, hi)
        lo = np.where(hit, lo, mid)
    T = np.where(start, 0.0, cut(hi))
    return T, start, end


def _line_width_mc(f, base, a, eps, evaluator, t_tol):
    """Width from one coupled sample of the line, drawn in one evaluator call.

    Row i of the sample is x(t) with x_j(t) = 0 if U_j < t, else V_j, so
    the rows have the law of the line's measure at every t at once.  Its
    size, max(evaluator.samples, DKW count), bounds the error of the
    empirical curve along the whole line, not only at single probes.  When
    1[f = a] is 0-monotone every row switches once, and the crossings are
    quantiles of the switching times (``mc-bisection``, ``grid_points`` 0).
    Otherwise the sample is read on a 33-point grid (``mc-grid-scan``).
    """
    samples = max(evaluator.samples, _dkw_samples(eps))
    t_tol = max(t_tol, _MC_T_TOL)
    chunks = evaluator.coupled_line(f.n, base, samples)
    if not level_is_zero_monotone(f, a):
        # Paths may rise and fall: read the same sample on a grid.
        grid = np.linspace(0.0, 1.0, _MC_GRID_POINTS)
        hits = np.zeros(len(grid))
        for U, V in chunks:
            for j, t in enumerate(grid):
                hits[j] += np.count_nonzero(evaluate_batch(f, V * (U >= t)) == a)
        return _grid_scan_report(grid, hits / samples, eps, a, t_tol, METHOD_MC_GRID_SCAN)

    # Each path is one step at its switching time T, so the probability
    # curve is the empirical CDF of T and a crossing is a quantile of T.
    T, start, end = (np.concatenate(part) for part in zip(*(_switching_times(f, a, U, V) for U, V in chunks)))
    T.sort()

    def crossing(target: float) -> float:
        return float(T[math.ceil(target * samples) - 1])

    return _crossing_report(eps, a, float(start.mean()), float(end.mean()), crossing, METHOD_MC_BISECTION, 0,
                            t_tol)


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

    A deterministic evaluator gets a monotonicity check on a 101-point
    grid, one batch, and then bisection to ``t_tol``; a visibly non-monotone
    probe profile falls back to a grid scan of the band.  A
    :class:`~qthresh.evaluate.MonteCarloEvaluator` draws one coupled sample
    for the whole line, see :func:`_line_width_mc`; its reported ``t_tol``
    is at least 1e-4.
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

    All points go to the evaluator in one ``batch``.  With a deterministic
    evaluator the randomness is only in the simplex sample, so the estimate
    is reproducible from the seed alone.
    """
    eps = _check_eps(eps)
    if samples < 1:
        raise ValueError("samples must be positive")
    check_output(f, a)
    probs = evaluator.batch(f, sample_uniform_batch(f.q, samples, seed), a).values
    hits = int(((probs >= eps) & (probs <= 1.0 - eps)).sum())
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
        rows.append(
            ScalingRow(
                n=n,
                r=f.family.r,
                p_lo=rep.t_lo,
                p_hi=rep.t_hi,
                width=rep.width,
                width_times_ln_n=rep.width * math.log(n),
            )
        )
    return rows
