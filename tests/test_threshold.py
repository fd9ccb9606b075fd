import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qthresh.evaluate import (
    ClosedFormEvaluator,
    Evaluator,
    ExactEvaluator,
    MonteCarloEvaluator,
    tribes_prob_zero,
    variance_of_indicator,
)
from qthresh.functions import (
    build_tribes,
    constant_function,
    evaluate_batch,
    from_table,
    indicator,
    random_zero_monotone,
)
from qthresh.measures import SimplexMeasure, central_measure, mix_t, sample_uniform_batch
from qthresh.threshold import (
    METHOD_BISECTION,
    METHOD_GRID_SCAN,
    METHOD_MC_BISECTION,
    METHOD_MC_GRID_SCAN,
    ThresholdReport,
    _grid_scan_report,
    derivative_lower_bound_ratio,
    line_width,
    region_measure,
    rm_derivative_exact,
    sweep_scaling,
)


CENTRAL3 = central_measure(3)
EXACT = ExactEvaluator()


def fd_derivative(f, base, t, dt=1e-6):
    lo = EXACT(f, mix_t(base, t - dt), 1)
    hi = EXACT(f, mix_t(base, t + dt), 1)
    return (hi - lo) / (2 * dt)


def dictator_indicator(q=3, n=3):
    tbl = (np.arange(q**n) // q ** (n - 1) >= 1).astype(np.int32)
    return from_table(q, n, tbl, kind="indicator")


# ---------------------------------------------------------------------------
# Derivative identity


def test_rm_derivative_constant_function_is_zero():
    f = constant_function(3, 3, 1, kind="indicator")
    for t in (0.0, 0.3, 0.9):
        assert rm_derivative_exact(f, CENTRAL3, t) == 0.0


def test_rm_derivative_matches_finite_differences():
    f = indicator(build_tribes(3, 4, 0.5, r=2), 0)
    for base in (CENTRAL3, SimplexMeasure((0.0, 0.3, 0.7))):
        for t in (0.1, 0.4, 0.75):
            exact = rm_derivative_exact(f, base, t)
            approx = fd_derivative(f, base, t)
            assert exact == pytest.approx(approx, rel=1e-6)


def test_rm_derivative_dictator_closed_form():
    # Pr[f = 1] = 1 - t along the line, derivative is identically -(-1) ... no:
    # the indicator of x_0 >= 1 has Pr = 1 - t, so d/dt = -1; 0-monotone
    # indicators of the *zero* event instead increase.  Use the dead-tribe
    # indicator of a single block of size 1 on one coordinate: Pr = t.
    tbl = np.zeros(3, dtype=np.int32)
    tbl[0] = 1
    f = from_table(3, 1, tbl, kind="indicator")  # 1 iff x_0 == 0
    for t in (0.0, 0.25, 0.6, 0.9):
        assert rm_derivative_exact(f, CENTRAL3, t) == pytest.approx(1.0, rel=1e-12)


def test_rm_derivative_rejects_bad_inputs():
    f = indicator(build_tribes(3, 4, 0.5, r=2), 0)
    with pytest.raises(ValueError):
        rm_derivative_exact(f, CENTRAL3, 1.0)  # divides by 1 - t
    with pytest.raises(ValueError):
        rm_derivative_exact(f, SimplexMeasure((0.2, 0.4, 0.4)), 0.5)  # off the zero face


# ---------------------------------------------------------------------------
# Derivative benchmark diagnostic


def test_derivative_lower_bound_ratio_fields():
    f = indicator(build_tribes(3, 6, 0.5, r=2), 0)
    diag = derivative_lower_bound_ratio(f, CENTRAL3, 0.5)
    assert diag.n == 6
    assert diag.alpha == 0.5
    assert diag.derivative == pytest.approx(rm_derivative_exact(f, CENTRAL3, 0.5), abs=0)
    p = EXACT(f, mix_t(CENTRAL3, 0.5), 1)
    expected_den = p * (1 - p) * math.log(6) / math.log(2)
    assert diag.denominator == pytest.approx(expected_den, rel=1e-15)
    assert diag.ratio == pytest.approx(diag.derivative / expected_den, rel=1e-15)


def exact_tribes_pair_split(atoms, blocks):
    """(Pr[f = 1], Pr[f = 0]) of 1[tribes = 0] in exact rationals of the float atoms.

    The event depends only on which coordinates are 0, so the 2^n zero
    patterns carry all of the mass.
    """
    zero, rest = Fraction(atoms[0]), sum(Fraction(a) for a in atoms[1:])
    n = sum(blocks)
    starts = np.cumsum((0,) + blocks[:-1])
    one = Fraction(0)
    total = Fraction(0)
    for pattern in itertools.product((0, 1), repeat=n):
        weight = zero ** sum(pattern) * rest ** (n - sum(pattern))
        total += weight
        if any(all(pattern[s:s + b]) for s, b in zip(starts, blocks)):
            one += weight
    return one, total - one


def test_variance_near_one_keeps_full_precision():
    # Near E = 1 the factor 1 - E is the difference of two close numbers;
    # both factors must come from the tally to stay accurate to the last digit.
    f = indicator(build_tribes(3, 8, 0.5, r=2), 0)
    base = SimplexMeasure((0.0, 0.5, 0.5))
    for t in np.linspace(0.85, 0.95, 11):
        mu = mix_t(base, float(t))
        one, zero = exact_tribes_pair_split(mu.atoms, (2, 2, 2, 2))
        want = float(one * zero)
        assert variance_of_indicator(f, mu) == pytest.approx(want, rel=1e-14, abs=0)
        diag = derivative_lower_bound_ratio(f, base, float(t))
        assert diag.denominator == pytest.approx(want * math.log(8) / math.log(2), rel=1e-14, abs=0)


def test_derivative_lower_bound_ratio_degenerate_cases():
    f = constant_function(3, 3, 0, kind="indicator")
    diag = derivative_lower_bound_ratio(f, CENTRAL3, 0.2)
    assert diag.denominator == 0.0
    assert diag.ratio is None

    with pytest.raises(ValueError):
        # alpha = 0: a rest symbol carries no mass
        g = indicator(build_tribes(3, 4, 0.5, r=2), 0)
        derivative_lower_bound_ratio(g, SimplexMeasure((0.0, 1.0, 0.0)), 0.2)


def test_derivative_lower_bound_ratio_alpha_one_binary():
    # q = 2 central measure has alpha = 1, so ln(1/alpha) = 0
    tbl = np.array([1, 0], dtype=np.int32)
    f = from_table(2, 1, tbl, kind="indicator")
    diag = derivative_lower_bound_ratio(f, central_measure(2), 0.3)
    assert diag.denominator == math.inf
    assert diag.ratio is None


# ---------------------------------------------------------------------------
# Line widths, deterministic path


def test_line_width_dictator():
    # indicator of x_0 == 0 climbs linearly: Pr = t, so width is 1 - 2 eps
    tbl = np.zeros(27, dtype=np.int32)
    tbl[:9] = 1
    f = from_table(3, 3, tbl, kind="indicator")
    rep = line_width(f, CENTRAL3, 1, 0.1, EXACT)
    assert rep.method == METHOD_BISECTION
    assert rep.t_lo == pytest.approx(0.1, abs=1e-8)
    assert rep.t_hi == pytest.approx(0.9, abs=1e-8)
    assert rep.width == pytest.approx(0.8, abs=2e-8)
    assert not rep.lo_absent and not rep.hi_absent


def test_line_width_tribes_closed_vs_exact():
    f = build_tribes(3, 6, 0.5, r=2)
    rep_closed = line_width(f, CENTRAL3, 0, 0.1, ClosedFormEvaluator())
    rep_exact = line_width(f, CENTRAL3, 0, 0.1, EXACT)
    assert rep_closed.width == pytest.approx(rep_exact.width, abs=1e-8)
    assert rep_closed.t_lo == pytest.approx(rep_exact.t_lo, abs=1e-8)


def test_line_width_t_tol_controls_precision():
    f = build_tribes(3, 8, 0.5, r=2)
    coarse = line_width(f, CENTRAL3, 0, 0.1, ClosedFormEvaluator(), t_tol=1e-3)
    fine = line_width(f, CENTRAL3, 0, 0.1, ClosedFormEvaluator(), t_tol=1e-10)
    assert coarse.t_lo == pytest.approx(fine.t_lo, abs=2e-3)
    assert abs(coarse.width - fine.width) <= 4e-3


def test_line_width_absent_crossings():
    # a constant-0 indicator never reaches eps: zero width, both ends absent
    f = constant_function(3, 3, 0, kind="indicator")
    rep = line_width(f, CENTRAL3, 1, 0.1, EXACT)
    assert rep.width == 0.0
    assert rep.lo_absent and rep.hi_absent
    assert rep.t_lo is None and rep.t_hi is None


def test_line_width_partial_band():
    # Pr[tribes = 0] at t = 0 is already positive for small blocks; with a
    # large eps the lower crossing can be absent while the upper one exists
    f = build_tribes(3, 2, 0.5, r=2)  # single block of 2: Pr = t^2 ... at the
    # central line Pr[f=0] = t^2 which starts at 0; use a=1 instead:
    rep = line_width(f, CENTRAL3, 0, 0.05, EXACT)
    assert rep.t_lo is not None
    assert rep.t_hi is not None
    assert rep.width == pytest.approx(math.sqrt(0.95) - math.sqrt(0.05), abs=1e-7)


def test_line_width_grid_scan_fallback():
    # Pr[f = 1] for the full tribes family is not monotone along the line:
    # it rises from near 0 and then dies as the zero event takes over
    f = build_tribes(3, 6, 0.5, r=2)
    rep = line_width(f, CENTRAL3, 1, 0.2, EXACT)
    assert rep.method == METHOD_GRID_SCAN
    assert 0.0 <= rep.width <= 1.0


def test_line_width_rejections():
    f = build_tribes(3, 4, 0.5, r=2)
    with pytest.raises(ValueError):
        line_width(f, CENTRAL3, 0, 0.6, EXACT)
    with pytest.raises(ValueError):
        line_width(f, CENTRAL3, 3, 0.1, EXACT)
    with pytest.raises(ValueError):
        line_width(f, SimplexMeasure((0.1, 0.45, 0.45)), 0, 0.1, EXACT)
    for evaluator in (EXACT, MonteCarloEvaluator(samples=100, seed=0)):
        for t_tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="t_tol"):
                line_width(f, CENTRAL3, 0, 0.1, evaluator, t_tol=t_tol)


@pytest.mark.parametrize("f, a", [(build_tribes(3, 8, 0.5, r=2), 0), (random_zero_monotone(3, 6, 0.05, seed=3), 1)],
                         ids=["tribes", "table"])
@pytest.mark.parametrize("atoms", [(0.0, 0.2, 0.3, 0.5), (0.0, 1.0)], ids=["q4", "q2"])
def test_line_width_refuses_a_base_of_the_wrong_size_on_every_route(f, a, atoms):
    mc = MonteCarloEvaluator(samples=2000, seed=1)
    for evaluator in (EXACT, mc):
        with pytest.raises(ValueError, match=f"measure has q={len(atoms)}, function has q=3"):
            line_width(f, SimplexMeasure(atoms), a, 0.1, evaluator)
    assert mc.calls == 0


class ProbeBudget(Evaluator):
    """Delegates to ``inner`` and fails, instead of hanging, past ``budget`` batches."""

    def __init__(self, inner: Evaluator, budget: int):
        self.inner, self.budget = inner, budget

    def batch(self, f, measures, a):
        self.budget -= 1
        if self.budget < 0:
            raise RuntimeError("probe budget spent")
        return self.inner.batch(f, measures, a)


@pytest.mark.parametrize("evaluator", [EXACT, ClosedFormEvaluator()], ids=["exact", "closed"])
def test_line_width_t_tol_below_the_float_spacing_returns(evaluator):
    # No t_tol this small is ever met: the bisection stops once lo and hi
    # are adjacent floats, after about 60 probes per crossing.
    f = build_tribes(3, 8, 0.5)
    fine = line_width(f, CENTRAL3, 0, 0.1, ProbeBudget(evaluator, 1000), t_tol=1e-300)
    assert fine.method == METHOD_BISECTION
    for t_tol in (1e-12, 1e-15):
        rep = line_width(f, CENTRAL3, 0, 0.1, evaluator, t_tol=t_tol)
        assert fine.t_lo == pytest.approx(rep.t_lo, abs=t_tol)
        assert fine.t_hi == pytest.approx(rep.t_hi, abs=t_tol)


# ---------------------------------------------------------------------------
# Line widths, Monte Carlo path


def test_line_width_mc_matches_closed_form():
    f = build_tribes(3, 64, 0.5, r=4)
    truth = line_width(f, CENTRAL3, 0, 0.1, ClosedFormEvaluator())
    ev = MonteCarloEvaluator(samples=2000, seed=31)
    rep = line_width(f, CENTRAL3, 0, 0.1, ev)
    assert rep.method == METHOD_MC_BISECTION
    assert rep.t_tol >= 1e-4
    assert rep.width == pytest.approx(truth.width, abs=0.02)


def test_line_width_mc_deterministic_replay():
    f = build_tribes(3, 64, 0.5, r=4)
    rep1 = line_width(f, CENTRAL3, 0, 0.1, MonteCarloEvaluator(samples=2000, seed=8))
    rep2 = line_width(f, CENTRAL3, 0, 0.1, MonteCarloEvaluator(samples=2000, seed=8))
    assert rep1 == rep2


def test_line_width_mc_crossings_within_6_se_of_closed_form():
    # One coupled sample of N = max(2000, DKW count) = 2952 rows per base;
    # the closed-form probability at each MC crossing must sit within 6
    # binomial standard errors of its target.
    f = build_tribes(3, 64, 0.5, r=4)
    eps, samples = 0.1, 2952
    se = math.sqrt(eps * (1 - eps) / samples)
    rng = np.random.default_rng(64)
    worst = 0.0
    for seed in range(24):
        b = float(rng.uniform(0.1, 0.9))
        rep = line_width(f, SimplexMeasure((0.0, b, 1.0 - b)), 0, eps, MonteCarloEvaluator(samples=2000, seed=seed))
        assert rep.method == METHOD_MC_BISECTION
        for t, target in ((rep.t_lo, eps), (rep.t_hi, 1 - eps)):
            worst = max(worst, abs(tribes_prob_zero(f.family, t) - target) / se)
    assert worst <= 6.0


@pytest.mark.parametrize("level", [False, True])
def test_line_width_mc_grid_scan_matches_exact_grid_scan(level):
    # Pr[tribes = 2] and Pr[1[tribes = 1] = 1] rise and fall along the line,
    # so MC reads its coupled sample on the 33-point grid.
    f = build_tribes(3, 10, 0.5, r=2)
    f, a = (indicator(f, 1), 1) if level else (f, 2)
    ev = MonteCarloEvaluator(samples=10000, seed=5)
    rep = line_width(f, CENTRAL3, a, 0.1, ev)
    grid = np.linspace(0.0, 1.0, 33)
    vals = EXACT.batch(f, np.stack([mix_t(CENTRAL3, float(t)).as_array() for t in grid]), a).values
    exact = _grid_scan_report(grid, vals, 0.1, a, 1e-9, METHOD_GRID_SCAN)
    assert rep.method == METHOD_MC_GRID_SCAN
    assert line_width(f, CENTRAL3, a, 0.1, EXACT).method == METHOD_GRID_SCAN
    assert rep.grid_points == 33
    assert rep.width == pytest.approx(exact.width, abs=0.02)
    # The band's first and last grid points inside may move by one step.
    assert rep.t_lo == pytest.approx(exact.t_lo, abs=1 / 32 + 1e-12)
    assert rep.t_hi == pytest.approx(exact.t_hi, abs=1 / 32 + 1e-12)


def test_line_width_mc_bisection_on_a_monotone_table():
    f = random_zero_monotone(3, 6, 0.05, seed=3)
    exact = line_width(f, CENTRAL3, 1, 0.1, EXACT)
    rep = line_width(f, CENTRAL3, 1, 0.1, MonteCarloEvaluator(samples=10000, seed=4))
    assert rep.method == METHOD_MC_BISECTION
    assert rep.t_lo == pytest.approx(exact.t_lo, abs=0.02)
    assert rep.t_hi == pytest.approx(exact.t_hi, abs=0.02)
    assert rep.width == pytest.approx(exact.width, abs=0.02)


def brute_switching_time(f, a, u, v):
    """First t at which the coupled row (u, v) reaches f = a, by walking t
    through every order statistic of u in turn."""
    stops = np.concatenate([[-1.0], np.sort(u)])
    hits = evaluate_batch(f, np.stack([np.where(u <= s, 0, v) for s in stops])) == a
    if not hits.any():
        return math.inf
    return max(0.0, float(stops[np.argmax(hits)]))


@pytest.mark.parametrize("seed", [0, 1])
def test_line_width_mc_crossings_are_switching_time_quantiles(seed):
    # Replay the stream of the evaluator's first call and find each row's
    # switching time by a walk over all of its order statistics.  The
    # crossings must be the eps and 1 - eps quantiles of those times exactly.
    f = random_zero_monotone(3, 6, 0.05, seed=3)
    base = SimplexMeasure((0.0, 0.3, 0.7))
    eps, samples = 0.1, 3000
    rep = line_width(f, base, 1, eps, MonteCarloEvaluator(samples=samples, seed=seed))
    rows = MonteCarloEvaluator(samples=samples, seed=seed).coupled_line(f.n, base, samples)
    T = np.sort([brute_switching_time(f, 1, u, v) for U, V in rows for u, v in zip(U, V)])
    assert rep.method == METHOD_MC_BISECTION
    assert rep.t_lo == T[math.ceil(eps * samples) - 1]
    assert rep.t_hi == T[math.ceil((1 - eps) * samples) - 1]


def test_line_width_mc_one_stream_per_line():
    f = build_tribes(3, 64, 0.5, r=4)
    ev = MonteCarloEvaluator(samples=2000, seed=8)
    first = line_width(f, CENTRAL3, 0, 0.1, ev)
    second = line_width(f, CENTRAL3, 0, 0.1, ev)
    assert ev.calls == 2  # one coupled draw per line, not one per probe
    assert (first.t_lo, first.t_hi) != (second.t_lo, second.t_hi)
    fresh = MonteCarloEvaluator(samples=2000, seed=8)
    assert [line_width(f, CENTRAL3, 0, 0.1, fresh) for _ in range(2)] == [first, second]


def test_line_width_mc_absent_crossings():
    # 1[x_0 != 2] on [3]^2 is 0-monotone with Pr = (1 + t) / 2 along the
    # central line: half the paths start at f = 1, so there is no lower
    # crossing, and the upper one sits at t = 0.8.
    f = from_table(3, 2, [1] * 6 + [0] * 3, kind="indicator")
    rep = line_width(f, CENTRAL3, 1, 0.1, MonteCarloEvaluator(samples=10000, seed=2))
    assert rep.method == METHOD_MC_BISECTION
    assert rep.lo_absent and rep.t_lo is None and not rep.hi_absent
    assert rep.t_hi == pytest.approx(0.8, abs=0.02)
    assert rep.width == rep.t_hi
    never = constant_function(3, 3, 0, kind="indicator")
    rep = line_width(never, CENTRAL3, 1, 0.1, MonteCarloEvaluator(samples=100, seed=2))
    assert rep.method == METHOD_MC_BISECTION
    assert rep.lo_absent and rep.hi_absent and rep.width == 0.0
    always = constant_function(3, 3, 1, kind="indicator")
    rep = line_width(always, CENTRAL3, 1, 0.1, MonteCarloEvaluator(samples=100, seed=2))
    assert rep.lo_absent and rep.hi_absent and rep.width == 0.0


# ---------------------------------------------------------------------------
# Region measure


def test_region_measure_constant_function():
    f = constant_function(3, 4, 0, kind="indicator")
    est = region_measure(f, 1, 0.1, samples=500, seed=3, evaluator=EXACT)
    assert est.fraction == 0.0
    assert est.std_error == pytest.approx(3.0 / 500, abs=0)


def test_region_measure_deterministic():
    f = build_tribes(3, 32, 0.5, r=4)
    ev = ClosedFormEvaluator()
    e1 = region_measure(f, 0, 0.1, samples=2000, seed=11, evaluator=ev)
    e2 = region_measure(f, 0, 0.1, samples=2000, seed=11, evaluator=ev)
    assert e1 == e2
    e3 = region_measure(f, 0, 0.1, samples=2000, seed=12, evaluator=ev)
    assert e1.fraction != e3.fraction


def test_region_measure_batch_and_scalar_agree():
    f = build_tribes(3, 6, 0.5, r=2)
    with_batch = region_measure(f, 0, 0.1, samples=400, seed=5, evaluator=ClosedFormEvaluator())
    scalar_only = region_measure(f, 0, 0.1, samples=400, seed=5, evaluator=EXACT)
    assert with_batch.fraction == pytest.approx(scalar_only.fraction, abs=0)


def test_region_measure_mc_draws_one_stream_per_point():
    # One batch over all points: point k is row k, on the evaluator's stream
    # (seed, k), so the band count equals that of k one-row batches.
    f = build_tribes(3, 8, 0.5, r=2)
    ev = MonteCarloEvaluator(samples=400, seed=6)
    est = region_measure(f, 0, 0.1, samples=30, seed=5, evaluator=ev)
    assert ev.calls == 30
    fresh = MonteCarloEvaluator(samples=400, seed=6)
    points = sample_uniform_batch(3, 30, 5)
    probs = [fresh(f, SimplexMeasure(tuple(row)), 0) for row in points]
    assert est.fraction == sum(0.1 <= p <= 0.9 for p in probs) / 30


def test_region_measure_matches_analytic_small_case():
    # single block of size 1 on one coordinate: Pr[f = 0] = mu(0), and the
    # atom-0 marginal of the uniform simplex measure is Beta(1, q-1), so the
    # band probability is (1 - eps)^(q-1) - eps^(q-1)
    f = build_tribes(3, 1, 0.5, r=1)
    est = region_measure(f, 0, 0.1, samples=40000, seed=19, evaluator=EXACT)
    analytic = 0.9**2 - 0.1**2
    assert abs(est.fraction - analytic) <= 4 * est.std_error


def test_region_measure_rejections():
    f = build_tribes(3, 4, 0.5, r=2)
    with pytest.raises(ValueError):
        region_measure(f, 0, 0.1, samples=0, seed=1, evaluator=EXACT)
    with pytest.raises(ValueError):
        region_measure(f, 4, 0.1, samples=10, seed=1, evaluator=EXACT)


# ---------------------------------------------------------------------------
# Scaling sweep


def test_sweep_scaling_rows():
    rows = sweep_scaling(3, 0.5, [1024, 256], 0.1)
    assert [r.n for r in rows] == [256, 1024]  # sorted
    assert rows[0].r == 4 and rows[1].r == 6
    for row in rows:
        assert 0.0 < row.p_lo < row.p_hi < 1.0
        assert row.width == pytest.approx(row.p_hi - row.p_lo, abs=1e-12)
        assert row.width_times_ln_n == pytest.approx(row.width * math.log(row.n), abs=0)


def test_sweep_scaling_widths_decrease():
    rows = sweep_scaling(3, 0.5, [2**10, 2**12, 2**14], 0.1)
    widths = [r.width for r in rows]
    assert widths[0] > widths[1] > widths[2]


def test_sweep_scaling_frozen_values():
    rows = sweep_scaling(3, 0.5, [1024, 4096, 16384], 0.1)
    assert [r.r for r in rows] == [6, 8, 10]
    assert rows[0].width == pytest.approx(0.19587081670761108, abs=1e-12)
    assert rows[1].width == pytest.approx(0.16266521718353033, abs=1e-12)
    assert rows[2].width == pytest.approx(0.13759851828217506, abs=1e-12)


def test_sweep_scaling_duplicate_n_identical():
    rows = sweep_scaling(3, 0.5, [512, 512], 0.1)
    assert rows[0] == rows[1]


def test_sweep_scaling_empty():
    assert sweep_scaling(3, 0.5, [], 0.1) == []


def test_threshold_report_is_plain_record():
    rep = ThresholdReport(
        eps=0.1, a=0, t_lo=0.2, t_hi=0.7, width=0.5, method=METHOD_BISECTION,
        grid_points=101, t_tol=1e-9, lo_absent=False, hi_absent=False,
    )
    assert rep.width == 0.5
