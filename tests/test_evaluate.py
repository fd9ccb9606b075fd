import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qthresh.evaluate import (
    METHOD_CLOSED,
    METHOD_EXACT,
    METHOD_MC,
    ClosedFormEvaluator,
    Estimate,
    ExactEvaluator,
    MonteCarloEvaluator,
    exact_probability,
    mc_probability,
    product_weights,
    quantile_encode,
    tribes_prob_zero,
    variance_of_indicator,
)
from qthresh.functions import (
    TribesVariant,
    build_tribes,
    constant_function,
    evaluate_point,
    from_table,
    indicator,
    random_zero_monotone,
)
from qthresh.measures import SimplexMeasure, central_measure, mix_t


HALF_QUARTER = SimplexMeasure((0.5, 0.25, 0.25))


# ---------------------------------------------------------------------------
# Product weights and exact probability


def test_product_weights_sum_to_one():
    w = product_weights(HALF_QUARTER, 4)
    assert w.shape == (81,)
    assert math.isclose(w.sum(), 1.0, rel_tol=0, abs_tol=1e-12)


def test_product_weights_lexicographic():
    w = product_weights(SimplexMeasure((0.7, 0.3)), 2)
    # index 1 is the point (0, 1): coordinate 0 most significant
    assert w[1] == pytest.approx(0.7 * 0.3, abs=0)
    assert w[2] == pytest.approx(0.3 * 0.7, abs=0)


def test_exact_probability_tribes_frozen():
    f = build_tribes(3, 4, 0.5, r=2)
    est = exact_probability(f, HALF_QUARTER, 0)
    assert est.value == pytest.approx(0.4375, abs=1e-15)
    assert est.method == METHOD_EXACT
    assert est.std_error == 0.0


def test_exact_probability_partitions():
    f = build_tribes(3, 4, 0.5, r=2)
    total = sum(exact_probability(f, HALF_QUARTER, a).value for a in range(3))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_exact_probability_dictator():
    tbl = (np.arange(9) // 3) % 3
    f = from_table(3, 2, tbl)
    mu = SimplexMeasure((0.2, 0.5, 0.3))
    for a in range(3):
        assert exact_probability(f, mu, a).value == pytest.approx(mu[a], abs=1e-15)


def test_exact_probability_point_mass():
    f = build_tribes(3, 4, 0.5, r=2)
    for j in range(3):
        mu = SimplexMeasure.point_mass(3, j)
        want = 1.0 if evaluate_point(f, (j,) * 4) == 0 else 0.0
        assert exact_probability(f, mu, 0).value == want


def test_exact_probability_rejects_bad_inputs():
    f = build_tribes(3, 4, 0.5, r=2)
    with pytest.raises(ValueError):
        exact_probability(f, SimplexMeasure((0.5, 0.5)), 0)
    with pytest.raises(ValueError):
        exact_probability(f, HALF_QUARTER, 3)


# ---------------------------------------------------------------------------
# Closed form for the zero level


@st.composite
def tribes_and_measures(draw):
    q = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(min_value=1, max_value=7))
    r = draw(st.integers(min_value=1, max_value=n))
    weights = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=q, max_size=q))
    assume(math.fsum(weights) > 0.0)
    return build_tribes(q, n, 0.5, r=r), SimplexMeasure.normalized(weights)


@given(tribes_and_measures())
@settings(max_examples=120, deadline=None)
def test_tribes_prob_zero_matches_exact(case):
    # r in 1..n covers uneven last blocks (r <= last < 2r) and m = 1.
    f, mu = case
    closed = tribes_prob_zero(f.family, mu[0])
    assert abs(closed - exact_probability(f, mu, 0).value) <= 1e-12
    g = indicator(f, 0)
    ev = ClosedFormEvaluator()
    for out in (0, 1):
        assert abs(ev(g, mu, out) - exact_probability(g, mu, out).value) <= 1e-12


def test_tribes_prob_zero_edges():
    fam = build_tribes(3, 4, 0.5, r=2).family
    assert tribes_prob_zero(fam, 0.0) == 0.0
    assert tribes_prob_zero(fam, 1.0) == 1.0
    # one block of size 1: f = 0 iff that coordinate is 0 when n = r = 1
    single = build_tribes(3, 1, 0.5, r=1).family
    assert tribes_prob_zero(single, 0.25) == pytest.approx(0.25, abs=1e-15)


def test_tribes_prob_zero_formula_value():
    # 1 - (1 - p0^2)^2 at p0 = 1/2 is 1 - (3/4)^2 = 7/16
    fam = build_tribes(3, 4, 0.5, r=2).family
    assert tribes_prob_zero(fam, 0.5) == pytest.approx(0.4375, abs=1e-15)
    # a 1-D p0 gives one value per entry, equal to the scalar calls
    p0 = np.array([0.0, 0.5, 0.9, 1.0])
    assert list(tribes_prob_zero(fam, p0)) == [tribes_prob_zero(fam, float(p)) for p in p0]


def test_tribes_prob_zero_rejects():
    fam = build_tribes(3, 4, 0.5, r=2).family
    with pytest.raises(ValueError):
        tribes_prob_zero(fam, 1.5)
    with pytest.raises(ValueError):
        tribes_prob_zero(fam, np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        tribes_prob_zero(fam, np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        TribesVariant(r=2, m=0, last=2, p0=0.5)  # no blocks
    with pytest.raises(ValueError):
        TribesVariant(r=2, m=2, last=4, p0=0.5)  # last block outside [r, 2r)


# ---------------------------------------------------------------------------
# Quantile map


def test_quantile_map_intervals():
    gmap = quantile_encode(HALF_QUARTER)
    assert gmap(0.0) == 0
    assert gmap(0.49) == 0
    assert gmap(0.5) == 1  # boundary belongs to the next symbol
    assert gmap(0.7) == 1
    assert gmap(0.75) == 2
    assert gmap(1.0) == 2  # top endpoint folds into the last symbol


def test_quantile_map_pushforward_is_exact():
    # empirical mass of each preimage interval converges to the atom
    mu = SimplexMeasure((0.125, 0.375, 0.5))
    gmap = quantile_encode(mu)
    u = np.linspace(0.0, 1.0, 8193)[:-1]  # uniform grid on [0, 1)
    counts = np.bincount(gmap(u), minlength=3) / u.size
    assert counts == pytest.approx(list(mu), abs=1e-3)


def test_quantile_map_handles_zero_atoms():
    mu = SimplexMeasure((0.0, 0.5, 0.5))
    gmap = quantile_encode(mu)
    assert gmap(0.0) == 1  # zero-length interval is never hit
    assert gmap(0.5) == 2


def searchsorted_quantile(mu, u):
    """The binary-search form of G(u) that the comparison kernel replaced."""
    bounds = np.cumsum(mu.as_array())
    return np.minimum(np.searchsorted(bounds, u, side="right"), mu.q - 1).astype(np.int32)


@pytest.mark.parametrize("q", range(2, 13))
def test_quantile_map_matches_searchsorted(q):
    rng = np.random.default_rng(q)
    for trial in range(4):
        atoms = rng.exponential(size=q)
        atoms[rng.random(q) < 0.3 * (trial % 2)] = 0.0  # zero atoms repeat a boundary
        if atoms.sum() == 0.0:
            atoms[-1] = 1.0
        mu = SimplexMeasure.normalized(atoms)
        gmap = quantile_encode(mu)
        bounds = gmap.boundaries
        # Uniforms, every boundary exactly and one ulp either side, both ends.
        u = np.concatenate([rng.random(2000), bounds, np.nextafter(bounds, 0.0), np.nextafter(bounds, 1.0),
                            [0.0, 1.0]])
        u = np.clip(u, 0.0, 1.0)
        want = searchsorted_quantile(mu, u)
        got = gmap(u)
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(gmap(u.reshape(-1, 1)), want.reshape(-1, 1))
        for v in (0.0, 1.0, float(bounds[0]), float(u[5])):
            for arg in (v, np.float64(v), np.array(v)):
                g = gmap(arg)
                assert type(g) is int
                assert g == int(searchsorted_quantile(mu, v))
        with pytest.raises(ValueError):
            gmap(np.array([0.5, np.nan]))


def test_quantile_map_rejects_out_of_range():
    gmap = quantile_encode(HALF_QUARTER)
    with pytest.raises(ValueError):
        gmap(np.array([0.5, 1.5]))


# ---------------------------------------------------------------------------
# Monte Carlo


def test_mc_probability_deterministic():
    f = build_tribes(3, 6, 0.5, r=2)
    e1 = mc_probability(f, HALF_QUARTER, 0, samples=5000, seed=42)
    e2 = mc_probability(f, HALF_QUARTER, 0, samples=5000, seed=42)
    assert e1.value == e2.value
    assert e1.std_error == e2.std_error


def test_mc_probability_within_four_sigma():
    f = build_tribes(3, 6, 0.5, r=2)
    truth = exact_probability(f, HALF_QUARTER, 0).value
    est = mc_probability(f, HALF_QUARTER, 0, samples=40000, seed=7)
    assert abs(est.value - truth) <= 4 * est.std_error
    assert est.method == METHOD_MC
    assert est.samples == 40000


def test_mc_probability_rule_of_three_at_extremes():
    f = constant_function(3, 4, 1, kind="full")
    est = mc_probability(f, HALF_QUARTER, 0, samples=900, seed=0)
    assert est.value == 0.0
    assert est.std_error == pytest.approx(3.0 / 900, abs=0)


def test_mc_probability_rejects():
    f = build_tribes(3, 4, 0.5, r=2)
    with pytest.raises(ValueError):
        mc_probability(f, HALF_QUARTER, 0, samples=0, seed=1)
    with pytest.raises(ValueError):
        mc_probability(f, SimplexMeasure((0.5, 0.5)), 0, samples=10, seed=1)


# ---------------------------------------------------------------------------
# Variance


def test_variance_of_indicator_moment_oracle():
    f = build_tribes(3, 4, 0.5, r=2)
    g = indicator(f, 0)
    p = exact_probability(f, HALF_QUARTER, 0).value
    assert variance_of_indicator(g, HALF_QUARTER) == pytest.approx(p * (1 - p), abs=1e-15)


def test_variance_of_indicator_accepts_binary_full_table():
    tbl = np.zeros(9, dtype=np.int32)
    tbl[4:] = 1
    f = from_table(3, 2, tbl, kind="full")
    p = exact_probability(f, HALF_QUARTER, 1).value
    assert variance_of_indicator(f, HALF_QUARTER) == pytest.approx(p * (1 - p), abs=1e-15)


def test_variance_of_indicator_rejects_wider_range():
    f = build_tribes(3, 4, 0.5, r=2)  # values 0..2
    with pytest.raises(ValueError):
        variance_of_indicator(f, HALF_QUARTER)


# ---------------------------------------------------------------------------
# Estimate container


def test_estimate_validation():
    Estimate(value=0.5, std_error=0.0, method=METHOD_EXACT, samples=0)
    with pytest.raises(ValueError):
        Estimate(value=1.5, std_error=0.0, method=METHOD_EXACT, samples=0)
    with pytest.raises(ValueError):
        Estimate(value=0.5, std_error=0.1, method=METHOD_EXACT, samples=0)
    with pytest.raises(ValueError):
        Estimate(value=0.5, std_error=0.0, method="guesswork", samples=0)
    Estimate(value=0.5, std_error=0.1, method=METHOD_MC, samples=100)


# ---------------------------------------------------------------------------
# Evaluators


def test_exact_evaluator():
    ev = ExactEvaluator()
    f = build_tribes(3, 4, 0.5, r=2)
    assert ev(f, HALF_QUARTER, 0) == pytest.approx(0.4375, abs=1e-15)
    assert not ev.stochastic


def test_closed_form_evaluator_full_zero_level():
    ev = ClosedFormEvaluator()
    f = build_tribes(3, 6, 0.5, r=2)
    mu = SimplexMeasure((0.3, 0.4, 0.3))
    exact = exact_probability(f, mu, 0).value
    assert ev(f, mu, 0) == pytest.approx(exact, abs=1e-12)
    assert not ev.stochastic


def test_closed_form_evaluator_indicator_levels():
    base = build_tribes(3, 6, 0.5, r=2)
    g = indicator(base, 0)
    ev = ClosedFormEvaluator()
    mu = SimplexMeasure((0.3, 0.4, 0.3))
    pz = exact_probability(base, mu, 0).value
    assert ev(g, mu, 1) == pytest.approx(pz, abs=1e-12)
    assert ev(g, mu, 0) == pytest.approx(1 - pz, abs=1e-12)


def test_closed_form_evaluator_rejections():
    ev = ClosedFormEvaluator()
    f = build_tribes(3, 4, 0.5, r=2)
    with pytest.raises(ValueError):
        ev(f, HALF_QUARTER, 1)  # only the zero level has a closed form
    g = random_zero_monotone(3, 3, 0.4, seed=1)
    with pytest.raises(ValueError):
        ev(g, central_measure(3), 1)  # not a tribes family


def test_closed_form_evaluator_batch_matches_scalar():
    ev = ClosedFormEvaluator()
    f = build_tribes(3, 8, 0.5, r=2)
    base = central_measure(3)
    ts = np.linspace(0.05, 0.95, 7)
    measures = np.stack([mix_t(base, float(t)).as_array() for t in ts])
    batch = ev.batch(f, measures, 0)
    for t, v in zip(ts, batch):
        assert v == ev(f, mix_t(base, float(t)), 0)


def test_monte_carlo_evaluator_deterministic_replay():
    f = build_tribes(3, 6, 0.5, r=2)
    ev1 = MonteCarloEvaluator(samples=20000, seed=5)
    ev2 = MonteCarloEvaluator(samples=20000, seed=5)
    vals1 = [ev1(f, HALF_QUARTER, 0) for _ in range(3)]
    vals2 = [ev2(f, HALF_QUARTER, 0) for _ in range(3)]
    assert vals1 == vals2
    # the call counter advances the substream, so repeated calls differ
    assert len(set(vals1)) > 1
    assert ev1.stochastic


def test_monte_carlo_evaluator_tracks_accuracy():
    f = build_tribes(3, 6, 0.5, r=2)
    truth = exact_probability(f, HALF_QUARTER, 0).value
    ev = MonteCarloEvaluator(samples=50000, seed=11)
    value = ev(f, HALF_QUARTER, 0)
    est = ev.last_estimate
    assert est.value == value
    assert abs(value - truth) <= 4 * est.std_error


def test_monte_carlo_evaluator_samples_override():
    f = build_tribes(3, 6, 0.5, r=2)
    ev = MonteCarloEvaluator(samples=1000, seed=3)
    ev(f, HALF_QUARTER, 0, samples=2500)
    assert ev.last_estimate.samples == 2500
    with pytest.raises(ValueError):
        ev(f, HALF_QUARTER, 0, samples=0)  # not the default in disguise
    with pytest.raises(ValueError):
        MonteCarloEvaluator(samples=0, seed=3)
