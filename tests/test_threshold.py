import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import qthresh.evaluate as evaluate
import qthresh.threshold as threshold
from qthresh.evaluate import (
    ClosedFormEvaluator,
    Evaluator,
    ExactEvaluator,
    MonteCarloEvaluator,
    binomial_std_error,
    variance_of_indicator,
)
from qthresh.functions import (
    FunctionSpec,
    TribesVariant,
    build_tribes,
    evaluate_batch,
    from_table,
    indicator,
    level_rises,
    materialize_table,
    random_zero_monotone,
)
from qthresh.influence import influence_bkkkl
from qthresh.measures import SimplexMeasure, central_measure, derivative_ts, line_rows, sample_uniform_batch
from qthresh.threshold import (
    METHOD_BISECTION,
    METHOD_GRID_SCAN,
    METHOD_MC_BISECTION,
    RegionMeasureEstimate,
    ThresholdReport,
    derivative_lower_bound_ratio,
    line_width,
    region_measure,
    rm_derivative_exact,
    sweep_scaling,
)


CENTRAL3 = central_measure(3)
EXACT = ExactEvaluator()


def probe(evaluator, f, base, t, a):
    """Pr[f = a] at line point t: row 0 of a one-row batch."""
    return evaluator.batch(f, line_rows(base, [t]), a).values[0]


def fd_derivative(f, base, t, dt=1e-6):
    lo = probe(EXACT, f, base, t - dt, 1)
    hi = probe(EXACT, f, base, t + dt, 1)
    return (hi - lo) / (2 * dt)


def dictator_indicator(q=3, n=3):
    tbl = (np.arange(q**n) // q ** (n - 1) >= 1).astype(np.int32)
    return from_table(q, n, tbl, kind="indicator")


# ---------------------------------------------------------------------------
# Derivative identity


def test_rm_derivative_constant_function_is_zero():
    f = from_table(3, 3, np.full(3**3, 1), kind="indicator")
    for t in (0.0, 0.3, 0.9):
        assert rm_derivative_exact(f, CENTRAL3, [t])[0] == 0.0


def test_rm_derivative_matches_finite_differences():
    f = indicator(build_tribes(3, 4, 0.5, r=2), 0)
    for base in (CENTRAL3, SimplexMeasure((0.0, 0.3, 0.7))):
        for t in (0.1, 0.4, 0.75):
            exact = rm_derivative_exact(f, base, [t])[0]
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
        assert rm_derivative_exact(f, CENTRAL3, [t])[0] == pytest.approx(1.0, rel=1e-12)


def test_rm_derivative_rejects_bad_inputs():
    f = indicator(build_tribes(3, 4, 0.5, r=2), 0)
    with pytest.raises(ValueError):
        rm_derivative_exact(f, CENTRAL3, [1.0])  # divides by 1 - t
    with pytest.raises(ValueError):
        rm_derivative_exact(f, SimplexMeasure((0.2, 0.4, 0.4)), [0.5])  # off the zero face


def test_fibre_sum_derivative_refuses_a_level_that_does_not_rise():
    # Tribes level 1 can drop toward delta_0: the fibre sum reads +0.627 at
    # t = 0.1 there, where the exact (Bernstein) derivative is -0.198.
    full = build_tribes(3, 4, 0.5, r=2)
    g = indicator(full, 1)
    message = "the fibre-sum derivative needs a level that only rises toward delta_0, and 1[f = 1] is not one"
    calls = [lambda: rm_derivative_exact(g, CENTRAL3, [0.1, 0.4, 0.7]),
             lambda: derivative_lower_bound_ratio(g, 1, CENTRAL3, [0.1, 0.4, 0.7]),
             lambda: derivative_lower_bound_ratio(full, 1, CENTRAL3, [0.1, 0.4, 0.7])]
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
    # A function that is not {0,1}-valued keeps its own refusal, whether or not its level 1 rises.
    for f in (full, from_table(3, 1, [1, 2, 0])):
        with pytest.raises(ValueError, match=r"^this influence needs a \{0,1\}-valued function$"):
            rm_derivative_exact(f, CENTRAL3, [0.1])


def test_derivative_lower_bound_ratio_reads_the_level_of_f():
    # A full f at a is its indicator at 1; an indicator at 0 is refused.
    full = build_tribes(3, 6, 0.5, r=2)
    g = indicator(full, 0)
    assert derivative_lower_bound_ratio(full, 0, CENTRAL3, [0.2, 0.5]) == \
        derivative_lower_bound_ratio(g, 1, CENTRAL3, [0.2, 0.5])
    with pytest.raises(ValueError, match="on an indicator use --a 1"):
        derivative_lower_bound_ratio(g, 0, CENTRAL3, [0.2])
    with pytest.raises(ValueError, match="a=2 is not an output of f"):
        derivative_lower_bound_ratio(g, 2, CENTRAL3, [0.2])


# ---------------------------------------------------------------------------
# Derivative benchmark diagnostic


def test_derivative_lower_bound_ratio_fields():
    f = indicator(build_tribes(3, 6, 0.5, r=2), 0)
    diag = derivative_lower_bound_ratio(f, 1, CENTRAL3, [0.5])[0]
    assert diag.n == 6
    assert diag.alpha == 0.5
    assert diag.derivative == pytest.approx(rm_derivative_exact(f, CENTRAL3, [0.5])[0], abs=0)
    p = probe(EXACT, f, CENTRAL3, 0.5, 1)
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
        mu = line_rows(base, [t])
        one, zero = exact_tribes_pair_split(mu[0].tolist(), (2, 2, 2, 2))
        want = float(one * zero)
        assert variance_of_indicator(f, mu)[0] == pytest.approx(want, rel=1e-14, abs=0)
        diag = derivative_lower_bound_ratio(f, 1, base, [float(t)])[0]
        assert diag.denominator == pytest.approx(want * math.log(8) / math.log(2), rel=1e-14, abs=0)


def test_derivative_lower_bound_ratio_degenerate_cases():
    f = from_table(3, 3, np.full(3**3, 0), kind="indicator")
    diag = derivative_lower_bound_ratio(f, 1, CENTRAL3, [0.2])[0]
    assert diag.denominator == 0.0
    assert diag.ratio is None

    with pytest.raises(ValueError):
        # alpha = 0: a rest symbol carries no mass
        g = indicator(build_tribes(3, 4, 0.5, r=2), 0)
        derivative_lower_bound_ratio(g, 1, SimplexMeasure((0.0, 1.0, 0.0)), [0.2])


def test_derivative_lower_bound_ratio_alpha_one_binary():
    # q = 2 central measure has alpha = 1, so ln(1/alpha) = 0
    tbl = np.array([1, 0], dtype=np.int32)
    f = from_table(2, 1, tbl, kind="indicator")
    diag = derivative_lower_bound_ratio(f, 1, central_measure(2), [0.3])[0]
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
    f = from_table(3, 3, np.full(3**3, 0), kind="indicator")
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


class DippingProfile(Evaluator):
    """Pr at the 101-point grid's point j = 100 t: 0 below j = 10, 0.5 to j = 30, 1 to j = 50, then 0.3."""

    def line(self, f, a, base, ts):
        j = np.rint(100.0 * np.asarray(ts)).astype(int)
        return np.select([j < 10, j < 30, j < 50], [0.0, 0.5, 1.0], 0.3)


def test_line_width_grid_scan_sums_flat_cells_by_where_they_sit():
    # The dip sends the profile to the grid scan.  A flat cell counts whole
    # inside [eps, 1 - eps] and not at all outside it; each step cell counts
    # the share of it that linear interpolation puts in the band.
    rep = line_width(build_tribes(3, 4, 0.5, r=2), CENTRAL3, 0, 0.1, DippingProfile())
    assert rep.method == METHOD_GRID_SCAN and rep.grid_points == 101
    steps = (0.5 - 0.1) / 0.5 + (0.9 - 0.5) / 0.5 + (0.9 - 0.3) / 0.7  # 0 -> 0.5, 0.5 -> 1 and 1 -> 0.3
    flat = 19 + 50  # cells at 0.5 and at 0.3; the 9 at 0 and the 19 at 1 count nothing
    assert rep.width == pytest.approx((steps + flat) / 100, abs=1e-12)
    assert (rep.t_lo, rep.t_hi) == (0.1, 1.0) and not (rep.lo_absent or rep.hi_absent)


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
    """Delegates ``line`` to ``inner`` and fails, instead of hanging, past ``budget`` calls."""

    def __init__(self, inner: Evaluator, budget: int):
        self.inner, self.budget = inner, budget

    def line(self, f, a, base, ts):
        self.budget -= 1
        if self.budget < 0:
            raise RuntimeError("probe budget spent")
        return self.inner.line(f, a, base, ts)


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


def scalar_bisect(probe, target, lo, hi, t_tol):
    # The plain bisection: one probe per step, kept here as the reference.
    while hi - lo > t_tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if probe(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scalar_crossings(f, base, a, eps, evaluator, t_tol):
    """(t_lo, t_hi) of a nondecreasing level from one-row line probes, one crossing at a time."""
    def at(t):
        return evaluator.line(f, a, base, [t])[0]

    p_start, p_end = at(0.0), at(1.0)
    assert eps <= p_end and p_start <= 1 - eps
    t_lo = scalar_bisect(at, eps, 0.0, 1.0, t_tol) if p_start < eps else None
    t_hi = scalar_bisect(at, 1 - eps, 0.0, 1.0, t_tol) if p_end > 1 - eps else None
    return t_lo, t_hi


class Staircase(Evaluator):
    """Pr = floor(7 t) / 7 along the line: flat steps whose edges the bisection must find."""

    def line(self, f, a, base, ts):
        return np.floor(7.0 * np.asarray(ts)) / 7.0


class Counting(Evaluator):
    """Delegates ``line`` to ``inner`` and records the row count of every call."""

    def __init__(self, inner: Evaluator):
        self.inner, self.sizes = inner, []

    def line(self, f, a, base, ts):
        self.sizes.append(len(ts))
        return self.inner.line(f, a, base, ts)


BISECTION_CASES = {  # exact rows of 84 to 13728 cells, C(n+q-1, q-1) q: from far cheaper than a call to dearer
    "closed-zero-event": (build_tribes(3, 2**20, 0.5), CENTRAL3, 0, 0.1, ClosedFormEvaluator()),
    "closed-q5-not-1": (indicator(build_tribes(5, 64, 0.5, r=1), 1), SimplexMeasure((0.0, 0.05, 0.2, 0.3, 0.45)),
                        0, 0.01, ClosedFormEvaluator()),
    "exact-tribes": (build_tribes(3, 6, 0.5, r=2), SimplexMeasure((0.0, 0.3, 0.7)), 0, 0.1, EXACT),
    "exact-table": (random_zero_monotone(3, 6, 0.05, seed=3), CENTRAL3, 1, 0.1, EXACT),
    "exact-q4": (build_tribes(4, 7, 0.5, r=2), central_measure(4), 0, 0.05, EXACT),
    "exact-q5": (build_tribes(5, 6, 0.5, r=2), central_measure(5), 0, 0.1, EXACT),
    "exact-q6": (build_tribes(6, 5, 0.5, r=2), central_measure(6), 0, 0.1, EXACT),
    "exact-q4-n12": (build_tribes(4, 12, 0.5), central_measure(4), 0, 0.1, EXACT),
    "exact-q5-n10": (build_tribes(5, 10, 0.5), central_measure(5), 0, 0.1, EXACT),
    "exact-q8-n6": (build_tribes(8, 6, 0.5, r=2), central_measure(8), 0, 0.1, EXACT),
    "staircase": (build_tribes(3, 6, 0.5, r=2), CENTRAL3, 0, 0.1, Staircase()),
}


@pytest.mark.parametrize("t_tol", [0.3, 1e-9, 1e-15, 1e-300])
@pytest.mark.parametrize("case", sorted(BISECTION_CASES))
def test_batched_bisection_returns_the_scalar_loop_floats(case, t_tol):
    f, base, a, eps, evaluator = BISECTION_CASES[case]
    rep = line_width(f, base, a, eps, evaluator, t_tol=t_tol)
    assert rep.method == METHOD_BISECTION
    assert (rep.t_lo, rep.t_hi) == scalar_crossings(f, base, a, eps, evaluator, t_tol)


def scalar_steps(f, base, a, target, evaluator, t_tol):
    """How many one-row probes the scalar loop takes to bisect one crossing."""
    steps = []

    def at(t):
        steps.append(t)
        return evaluator.line(f, a, base, [t])[0]

    scalar_bisect(at, target, 0.0, 1.0, t_tol)
    return len(steps)


@pytest.mark.parametrize("case, t_tol, calls", [
    ("two-crossings", 1e-9, [101] + [2] * 30),  # 31 calls and 161 rows
    ("lo-absent", 1e-9, [101] + [1] * 30),  # Pr[f != 1] starts at 1/2: only t_hi is bisected
    ("two-crossings", 1e-300, None),  # each stops at adjacent floats, maybe at different steps
])
def test_closed_width_bisects_both_crossings_in_lock_step(case, t_tol, calls):
    # One grid call, then one call per step with one row per crossing still
    # running: a step holds 2 rows until a crossing stops, and 1 after.
    f, a = {"two-crossings": (build_tribes(3, 2**20, 0.5), 0),
            "lo-absent": (indicator(build_tribes(3, 64, 0.5, r=1), 1), 0)}[case]
    counting = Counting(ClosedFormEvaluator())
    rep = line_width(f, CENTRAL3, a, 0.1, counting, t_tol=t_tol)
    assert rep == line_width(f, CENTRAL3, a, 0.1, ClosedFormEvaluator(), t_tol=t_tol)
    assert (rep.t_lo, rep.t_hi) == scalar_crossings(f, CENTRAL3, a, 0.1, ClosedFormEvaluator(), t_tol)
    steps = [scalar_steps(f, CENTRAL3, a, target, ClosedFormEvaluator(), t_tol)
             for target, found in ((0.1, rep.t_lo), (0.9, rep.t_hi)) if found is not None]
    assert counting.sizes == [101] + [sum(k > step for k in steps) for step in range(max(steps))]
    if calls is not None:
        assert counting.sizes == calls


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
        base = SimplexMeasure((0.0, b, 1.0 - b))
        rep = line_width(f, base, 0, eps, MonteCarloEvaluator(samples=2000, seed=seed))
        assert rep.method == METHOD_MC_BISECTION
        closed = ClosedFormEvaluator().batch(f, line_rows(base, [rep.t_lo, rep.t_hi]), 0).values
        for p, target in zip(closed, (eps, 1 - eps)):
            worst = max(worst, abs(p - target) / se)
    assert worst <= 6.0


@pytest.mark.parametrize("level", [False, True], ids=["full-a2", "level1-a1"])
def test_line_width_mc_refuses_a_non_monotone_level(level):
    # Pr[tribes = 2] and Pr[1[tribes = 1] = 1] rise and fall along the line.
    # MC width refuses them before it takes a stream; the exact and closed
    # routes answer them with the same grid scan.
    f = build_tribes(3, 10, 0.5, r=2)
    f, a = (indicator(f, 1), 1) if level else (f, 2)
    ev = MonteCarloEvaluator(samples=10000, seed=5)
    with pytest.raises(ValueError, match="--evaluator exact or closed"):
        line_width(f, CENTRAL3, a, 0.1, ev)
    assert ev.calls == 0
    exact = line_width(f, CENTRAL3, a, 0.1, EXACT)
    closed = line_width(f, CENTRAL3, a, 0.1, ClosedFormEvaluator())
    assert exact.method == closed.method == METHOD_GRID_SCAN
    assert closed.width == pytest.approx(exact.width, abs=1e-12)


def test_line_width_mc_answers_a_nonzero_level_with_blocks_of_size_1():
    # With blocks of size 1, f != 1 only rises toward delta_0, so MC width
    # answers it by switching times.  Along the central line
    # Pr[f != 1] = 1 - (1 - t)^n / 2 starts at 1/2 > eps, so only t_hi
    # exists; the closed form there must sit within 6 SE of 1 - eps.
    g = indicator(build_tribes(3, 64, 0.5, r=1), 1)
    eps, samples = 0.1, 10000
    rep = line_width(g, CENTRAL3, 0, eps, MonteCarloEvaluator(samples=samples, seed=4))
    closed = line_width(g, CENTRAL3, 0, eps, ClosedFormEvaluator())
    assert rep.method == METHOD_MC_BISECTION and rep.lo_absent and closed.lo_absent
    se = math.sqrt(eps * (1 - eps) / samples)
    assert abs(probe(ClosedFormEvaluator(), g, CENTRAL3, rep.t_hi, 0) - (1 - eps)) <= 6 * se
    assert closed.t_hi == pytest.approx(1 - 0.2 ** (1 / 64), abs=1e-8)


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
    # Replay the stream of the evaluator's first call, one chunk of U and
    # then the uniforms W behind V, and find each row's switching time by a
    # walk over all of its order statistics.  switching_times must give
    # those times row by row, in draw order, and the crossings must be the
    # eps and 1 - eps quantiles of them exactly.
    f = random_zero_monotone(3, 6, 0.05, seed=3)
    base = SimplexMeasure((0.0, 0.3, 0.7))
    eps, samples = 0.1, 3000
    rep = line_width(f, base, 1, eps, MonteCarloEvaluator(samples=samples, seed=seed))
    T, start, end = MonteCarloEvaluator(samples=samples, seed=seed).switching_times(f, 1, base, samples)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    U = rng.random((samples, f.n))  # one chunk: samples <= BATCH_CELLS // n
    V = evaluate._inverse_cdf(base.as_array(), rng.random((samples, f.n)))
    walked = np.array([brute_switching_time(f, 1, u, v) for u, v in zip(U, V)])
    assert np.array_equal(T, walked) and np.array_equal(start, walked == 0.0) and end.all()
    T = np.sort(walked)
    assert rep.method == METHOD_MC_BISECTION
    assert rep.t_lo == T[math.ceil(eps * samples) - 1]
    assert rep.t_hi == T[math.ceil((1 - eps) * samples) - 1]


# The block layouts of test_functions.py::test_tribes_batch_matches_point_on_every_block_layout
BLOCK_LAYOUTS = [(1, 1), (5, 1), (4, 4), (9, 2), (7, 3), (11, 3), (12, 3)]


def tribes_views(f):
    """f and each of its indicator views, with every output a of each."""
    return [(g, a) for g in [f, *(indicator(f, b) for b in range(f.q))] for a in range(g.outputs)]


def blocks_of_one_rule(g, a):
    """Whether the tribes rule answers (g, a) by reading V_0, not by the zero event's rule."""
    return g.kind == "indicator" and a == 0 and g.q > 2


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n, r", BLOCK_LAYOUTS)
def test_tribes_switching_times_match_the_bisection_bit_for_bit(q, n, r):
    # The same (U, V) through the family rule and through the bisection on
    # the same spec.  Half the rows draw U from {0, 1/4, 1/2}, so ties and
    # exact zeros occur, and one row is all 0.0.
    f = build_tribes(q, n, 0.5, r=r)
    rng = np.random.default_rng(1000 * q + 10 * n + r)
    U = np.vstack([rng.random((300, n)), rng.integers(0, 3, size=(300, n)) / 4.0, np.zeros((1, n))])
    V = rng.integers(1, q, size=U.shape, dtype=np.int32)  # zero-free, as drawn from a zero-face base
    assert (U[300:-1] == 0.0).any() and not (U[300:-1] == 0.0).all()
    levels = [(g, a) for g, a in tribes_views(f) if level_rises(g, a, 0)]
    assert {blocks_of_one_rule(g, a) for g, a in levels} == ({False, True} if r == 1 and q > 2 else {False})
    for g, a in levels:
        got = evaluate._tribes_switching_times(g, a, U, lambda rows, cols: V[rows, cols])
        want = evaluate._bisect_switching_times(g, a, U, V)
        for x, w in zip(got, want):
            assert x.dtype == w.dtype and np.array_equal(x, w)
        _, start, end = got
        assert end.all() and start.any() == blocks_of_one_rule(g, a) and not start.all()
        if q**n <= 4**7:  # the table of the same level takes the bisection
            table = from_table(q, n, materialize_table(g), kind=g.kind)
            for x, w in zip(evaluate._bisect_switching_times(table, a, U, V), got):
                assert np.array_equal(x, w)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_tribes_switching_times_answer_exactly_the_zero_monotone_levels(q, r, monkeypatch):
    # A level added to level_rises toward 0 cannot reach the rule unawares:
    # switching_times, the rule's one guard, refuses every level the rule
    # does not answer, before it takes a stream.
    f = build_tribes(q, 7, 0.5, r=r)
    rng = np.random.default_rng(q + 10 * r)
    U, V = rng.random((50, 7)), rng.integers(1, q, size=(50, 7), dtype=np.int32)
    ev = MonteCarloEvaluator(samples=50, seed=1)

    def symbol_at(rows, cols):
        return V[rows, cols]

    answered = 0
    for g, a in tribes_views(f):
        if level_rises(g, a, 0):
            T, start, end = evaluate._tribes_switching_times(g, a, U, symbol_at)
            assert T.shape == start.shape == end.shape == (50,)
            answered += 1
        else:
            with pytest.raises(ValueError, match="only rises toward delta_0"):
                ev.switching_times(g, a, central_measure(q), 50)
    assert answered == 2 + (q - 1) * (q == 2 or r == 1)  # f = 0 twice, then f != b for every b >= 1
    assert ev.calls == 0
    table = from_table(q, 7, materialize_table(indicator(f, 0)), kind="indicator")
    assert level_rises(table, 1, 0)

    def refuse(*args):
        raise AssertionError("a table reached the tribes rule")

    monkeypatch.setattr(evaluate, "_tribes_switching_times", refuse)
    T, start, end = ev.switching_times(table, 1, central_measure(q), 50)  # bisected instead
    assert T.shape == (50,)


def test_line_width_mc_on_tribes_evaluates_no_state(monkeypatch):
    # The family rule replaces every evaluation of f on a coupled state,
    # and the zero event's rule inverts no uniform at all.
    f = build_tribes(3, 256, 0.5)
    want = line_width(f, CENTRAL3, 0, 0.1, MonteCarloEvaluator(samples=2000, seed=6))

    def refuse(*args):
        raise AssertionError("the MC width on tribes evaluated f")

    def invert_nothing(*args):
        raise AssertionError("the MC width of the zero event inverted a uniform")

    monkeypatch.setattr(evaluate, "evaluate_batch", refuse)
    monkeypatch.setattr(evaluate, "_inverse_cdf", invert_nothing)
    assert line_width(f, CENTRAL3, 0, 0.1, MonteCarloEvaluator(samples=2000, seed=6)) == want


# Atoms with mu_0 = 0, mu_0 = 1 and zero atoms behind mu_0, per q
SAMPLED_ATOMS = {
    2: [(0.0, 1.0), (1.0, 0.0), (0.3, 0.7)],
    3: [(0.0, 0.5, 0.5), (1.0, 0.0, 0.0), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0), (0.3, 0.4, 0.3)],
    4: [(0.0, 0.2, 0.3, 0.5), (1.0, 0.0, 0.0, 0.0), (0.4, 0.0, 0.6, 0.0), (0.25, 0.25, 0.25, 0.25)],
}


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n, r", BLOCK_LAYOUTS)
def test_tribes_sampled_values_match_the_inverted_chunk_bit_for_bit(q, n, r):
    # The family route reads zeros off U < mu_0 and inverts one uniform per
    # row; it must give the ints f takes on the whole inverted chunk.  Half
    # the cells hold 0.0, a CDF bound or the float just below one, one row
    # is all 0.0 and one row sits just below mu_0 everywhere.
    f = build_tribes(q, n, 0.5, r=r)
    rng = np.random.default_rng(1000 * q + 10 * n + r)
    for atoms in map(np.array, SAMPLED_ATOMS[q]):
        bounds = np.cumsum(atoms)[:-1]
        special = np.concatenate([[0.0], bounds, np.nextafter(bounds, 0.0)])
        U = rng.random((400, n))
        U[200:] = rng.choice(special, size=(200, n))
        U[-2] = 0.0
        U[-1] = np.nextafter(atoms[0], 0.0)
        assert (U == atoms[0]).any() and (U == np.nextafter(atoms[0], 0.0)).any()
        for g in {g for g, _ in tribes_views(f)}:  # equal values give equal hits at every a
            got = evaluate._sampled_values(g, atoms, U)
            want = evaluate_batch(g, evaluate._inverse_cdf(atoms, U))
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_monte_carlo_on_tribes_builds_no_symbol_matrix(monkeypatch):
    # A family batch, and an MC region through it, never evaluate f on
    # symbols and invert no matrix of uniforms; a table batch still does.
    f = build_tribes(3, 256, 0.5)
    table = random_zero_monotone(3, 4, 0.3, seed=4)
    measures = line_rows(CENTRAL3, [0.3, 0.45, 0.6])
    want = MonteCarloEvaluator(samples=2000, seed=6).batch(f, measures, 1)
    want_region = region_measure(f, 0, 0.1, samples=20, seed=3, evaluator=MonteCarloEvaluator(samples=300, seed=5))

    def refuse(*args):
        raise AssertionError("evaluate_batch was called")

    inverse = evaluate._inverse_cdf

    def one_uniform_per_row(atoms, u):
        assert np.ndim(u) == 1, "a matrix of uniforms was inverted"
        return inverse(atoms, u)

    monkeypatch.setattr(evaluate, "evaluate_batch", refuse)
    with pytest.raises(AssertionError, match="evaluate_batch was called"):
        MonteCarloEvaluator(samples=100, seed=6).batch(table, measures, 1)
    monkeypatch.setattr(evaluate, "_inverse_cdf", one_uniform_per_row)
    got = MonteCarloEvaluator(samples=2000, seed=6).batch(f, measures, 1)
    assert np.array_equal(got.values, want.values) and np.array_equal(got.std_errors, want.std_errors)
    region = region_measure(f, 0, 0.1, samples=20, seed=3, evaluator=MonteCarloEvaluator(samples=300, seed=5))
    assert region == want_region


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
    never = from_table(3, 3, np.full(3**3, 0), kind="indicator")
    rep = line_width(never, CENTRAL3, 1, 0.1, MonteCarloEvaluator(samples=100, seed=2))
    assert rep.method == METHOD_MC_BISECTION
    assert rep.lo_absent and rep.hi_absent and rep.width == 0.0
    always = from_table(3, 3, np.full(3**3, 1), kind="indicator")
    rep = line_width(always, CENTRAL3, 1, 0.1, MonteCarloEvaluator(samples=100, seed=2))
    assert rep.lo_absent and rep.hi_absent and rep.width == 0.0


# ---------------------------------------------------------------------------
# Region measure


def test_region_measure_constant_function():
    f = from_table(3, 4, np.full(3**4, 0), kind="indicator")
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
    probs = [fresh.batch(f, points[k:k + 1], 0).values[0] for k in range(30)]
    assert est.fraction == sum(0.1 <= p <= 0.9 for p in probs) / 30


def test_region_measure_matches_analytic_small_case():
    # single block of size 1 on one coordinate: Pr[f = 0] = mu(0), and the
    # atom-0 marginal of the uniform simplex measure is Beta(1, q-1), so the
    # band probability is (1 - eps)^(q-1) - eps^(q-1)
    f = build_tribes(3, 1, 0.5, r=1)
    est = region_measure(f, 0, 0.1, samples=40000, seed=19, evaluator=EXACT)
    analytic = 0.9**2 - 0.1**2
    assert abs(est.fraction - analytic) <= 4 * est.std_error


def _region_one_batch(f, a, eps, samples, seed, evaluator):
    """The region estimate from one batch of every point of one sample_uniform_batch."""
    probs = evaluator.batch(f, sample_uniform_batch(f.q, samples, seed), a).values
    hits = int(((probs >= eps) & (probs <= 1.0 - eps)).sum())
    return RegionMeasureEstimate(fraction=hits / samples, std_error=float(binomial_std_error(hits, samples)),
                                 samples=samples, seed=seed)


def _block_edges(q):
    block = threshold.SAMPLE_CELLS // q
    return (block - 1, block, block + 1, 3 * block + 7)


@pytest.mark.parametrize("q", [2, 3, 4, 7])
def test_region_blocks_match_one_batch_closed(q):
    f = build_tribes(q, 64, 0.5, r=3)
    for a in (0, 1):
        for samples in _block_edges(q):
            ev = ClosedFormEvaluator()
            assert region_measure(f, a, 0.1, samples, 8, ev) == _region_one_batch(f, a, 0.1, samples, 8, ev)


@pytest.mark.parametrize("q", [2, 3, 4, 7])
def test_region_blocks_match_one_batch_exact(q):
    f = indicator(build_tribes(q, 3, 0.5, r=2), 1)
    for samples in _block_edges(q):
        got = region_measure(f, 1, 0.1, samples, 9, EXACT)
        assert got == _region_one_batch(f, 1, 0.1, samples, 9, EXACT)


@pytest.mark.parametrize("q", [2, 3, 4, 7])
def test_region_blocks_match_one_batch_mc(q, monkeypatch):
    # 128 cells per block (18 to 64 points), so every block edge is crossed
    # at a few dozen points: each point costs one MC row.
    monkeypatch.setattr(threshold, "SAMPLE_CELLS", 2**7)
    f = build_tribes(q, 8, 0.5, r=2)
    for samples in _block_edges(q):
        blocked, one_batch = MonteCarloEvaluator(samples=50, seed=4), MonteCarloEvaluator(samples=50, seed=4)
        assert region_measure(f, 0, 0.1, samples, 10, blocked) == _region_one_batch(f, 0, 0.1, samples, 10,
                                                                                     one_batch)
        assert blocked.calls == one_batch.calls == samples


def test_region_memory_does_not_grow_with_samples():
    # numpy reports its buffers to tracemalloc.  One batch of 10^6 points
    # holds 24 MB of points alone, and its peak is about 57 MB; the blocks
    # need about 3 MB.
    f = build_tribes(3, 2**20, 0.5)
    samples = 10**6
    tracemalloc.start()
    try:
        est = region_measure(f, 0, 0.1, samples, 1, ClosedFormEvaluator())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < samples * f.q * 8 // 4
    # Pr[f = 0] reads only atom 0, which is Beta(1, 2) under the uniform simplex measure.
    rep = line_width(f, CENTRAL3, 0, 0.1, ClosedFormEvaluator())
    assert abs(est.fraction - ((1 - rep.t_lo) ** 2 - (1 - rep.t_hi) ** 2)) <= 6 * est.std_error


def test_region_measure_rejections():
    f = build_tribes(3, 4, 0.5, r=2)
    with pytest.raises(ValueError):
        region_measure(f, 0, 0.1, samples=0, seed=1, evaluator=EXACT)
    with pytest.raises(ValueError):
        region_measure(f, 4, 0.1, samples=10, seed=1, evaluator=EXACT)


REFUSALS = {
    "derivative-grid-2d": (lambda: derivative_ts([[0.1, 0.2]]), "expected a 1-D grid of t, got shape (1, 2)"),
    "sample-q1": (lambda: sample_uniform_batch(1, 3, 0), "q must be at least 2"),
    "sample-count-negative": (lambda: sample_uniform_batch(3, -1, 0), "count must be nonnegative"),
    "evaluate-batch-columns": (lambda: evaluate_batch(build_tribes(3, 4, 0.5, r=2), np.zeros((2, 3))),
                               "expected an (m, 4) matrix, got shape (2, 3)"),
    "evaluate-batch-1d": (lambda: evaluate_batch(from_table(2, 2, [0, 0, 0, 1]), np.zeros(2)),
                          "expected an (m, 2) matrix, got shape (2,)"),
    "spec-q1": (lambda: FunctionSpec(q=1, n=2, kind="full", table=[0]), "q must be at least 2"),
    "spec-n0": (lambda: FunctionSpec(q=2, n=0, kind="full", table=[0]), "n must be at least 1"),
    "spec-kind": (lambda: FunctionSpec(q=2, n=1, kind="bool", table=[0, 1]),
                  "kind must be 'full' or 'indicator', got 'bool'"),
    "spec-family-n": (lambda: FunctionSpec(q=3, n=5, kind="full", family=TribesVariant(r=2, m=2, last=2)),
                      "family covers 4 coordinates, expected n=5"),
    "spec-family-indicator": (lambda: FunctionSpec(q=3, n=4, kind="indicator",
                                                   family=TribesVariant(r=2, m=2, last=2)),
                              "family-backed indicator needs indicator_of"),
    "tribes-p0-one": (lambda: build_tribes(3, 4, 1.0, r=2), "p0 must lie strictly inside (0, 1), got 1.0"),
    "tribes-p0-zero": (lambda: build_tribes(3, 4, 0.0, r=2), "p0 must lie strictly inside (0, 1), got 0.0"),
    "upset-density": (lambda: random_zero_monotone(3, 4, 1.5, seed=0), "density must lie in [0, 1], got 1.5"),
    "product-weights-n": (lambda: evaluate.product_weights(CENTRAL3, -1), "n must be nonnegative"),
    "influence-k": (lambda: influence_bkkkl(indicator(build_tribes(3, 4, 0.5, r=2), 0), [[0.3, 0.3, 0.4]], 4),
                    "coordinate k=4 out of range for n=4"),
    "region-fraction": (lambda: RegionMeasureEstimate(fraction=1.5, std_error=0.0, samples=1, seed=0),
                        "fraction 1.5 outside [0, 1]"),
    "region-std-error": (lambda: RegionMeasureEstimate(fraction=0.5, std_error=-0.1, samples=1, seed=0),
                         "std_error must be nonnegative"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusals_name_their_cause(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


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
        eps=0.1, t_lo=0.2, t_hi=0.7, width=0.5, method=METHOD_BISECTION,
        grid_points=101, t_tol=1e-9, lo_absent=False, hi_absent=False,
    )
    assert rep.width == 0.5
