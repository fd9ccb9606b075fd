import decimal
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qthresh.evaluate as evaluate
from qthresh.evaluate import (
    METHOD_CLOSED,
    METHOD_EXACT,
    METHOD_MC,
    ClosedFormEvaluator,
    Estimate,
    ExactEvaluator,
    MonteCarloEvaluator,
    binomial_std_error,
    check_measures,
    _inverse_cdf,
    product_weights,
    variance_of_indicator,
)
from qthresh.functions import (
    TribesVariant,
    _rewrite_monotone,
    build_tribes,
    evaluate_batch,
    from_table,
    indicator,
    level_rises,
    materialize_table,
    random_zero_monotone,
)
from qthresh.measures import ATOM_SUM_TOL, SimplexMeasure, central_measure, line_rows, sample_uniform_batch
from qthresh.threshold import line_width


HALF_QUARTER = SimplexMeasure((0.5, 0.25, 0.25))
EXACT = ExactEvaluator()


def rows(*mus):
    return np.stack([mu.as_array() for mu in mus])


def probe(evaluator, f, mu, a):
    """Pr[f = a] under the one measure mu: row 0 of a one-row batch."""
    return evaluator.batch(f, rows(mu), a).values[0]


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
    est = EXACT.batch(f, rows(HALF_QUARTER), 0)
    assert est.values[0] == pytest.approx(0.4375, abs=1e-15)
    assert est.method == METHOD_EXACT
    assert est.std_errors[0] == 0.0
    assert est.samples == 81


def test_exact_probability_partitions():
    f = build_tribes(3, 4, 0.5, r=2)
    total = sum(probe(EXACT, f, HALF_QUARTER, a) for a in range(3))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_exact_probability_dictator():
    tbl = (np.arange(9) // 3) % 3
    f = from_table(3, 2, tbl)
    mu = SimplexMeasure((0.2, 0.5, 0.3))
    for a in range(3):
        assert probe(EXACT, f, mu, a) == pytest.approx(mu.atoms[a], abs=1e-15)


def test_exact_probability_point_mass():
    f = build_tribes(3, 4, 0.5, r=2)
    for j in range(3):
        mu = SimplexMeasure(tuple(float(i == j) for i in range(3)))
        want = 1.0 if evaluate_batch(f, np.full((1, 4), j))[0] == 0 else 0.0
        assert probe(EXACT, f, mu, 0) == want


def test_exact_probability_rejects_bad_inputs():
    f = build_tribes(3, 4, 0.5, r=2)
    with pytest.raises(ValueError):
        probe(EXACT, f, SimplexMeasure((0.5, 0.5)), 0)
    with pytest.raises(ValueError):
        probe(EXACT, f, HALF_QUARTER, 3)
    with pytest.raises(ValueError):
        EXACT.batch(f, HALF_QUARTER.as_array(), 0)  # one row must still be a matrix


# The atoms add up to the float 1 + 1.00009e-12, past the tolerance; the float
# 1.0 + ATOM_SUM_TOL is that same float, so a test of total <= 1 + tol let it pass.
EDGE_ATOMS = (0.13509650502241122, 0.6240177870194408, 0.2408857079591481)


def test_measure_and_batch_refuse_a_row_just_past_the_sum_tolerance():
    with pytest.raises(ValueError, match=r"^atoms sum to 1\.000000000001; must equal 1 within 1e-12$"):
        SimplexMeasure(EDGE_ATOMS)
    f = build_tribes(3, 6, 0.5, r=2)
    with pytest.raises(ValueError, match=r"^each measure row must be atoms in \[0, 1\] summing to 1 within 1e-12$"):
        EXACT.batch(f, np.array([EDGE_ATOMS]), 0)


@given(st.integers(min_value=3, max_value=5), st.data())
@settings(max_examples=300, deadline=None)
def test_measure_and_batch_agree_at_the_sum_tolerance(q, data):
    # Atoms scaled to sum, up to rounding, within 2e-4 tolerances of 1 +- ATOM_SUM_TOL.
    weights = data.draw(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=q, max_size=q))
    side = data.draw(st.sampled_from((-1.0, 1.0)))
    nudge = data.draw(st.floats(min_value=-2e-4, max_value=2e-4))
    target = 1.0 + side * ATOM_SUM_TOL * (1.0 + nudge)
    atoms = tuple(w / math.fsum(weights) * target for w in weights)
    assume(max(atoms) <= 1.0)
    try:
        SimplexMeasure(atoms)
        measure_ok = True
    except ValueError:
        measure_ok = False
    f = from_table(q, 1, np.arange(q) % 2, kind="indicator")
    try:
        check_measures(f, np.array([atoms]), 0)
        rows_ok = True
    except ValueError:
        rows_ok = False
    assert measure_ok == rows_ok


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


def closed_zero_event(f, ts):
    """Pr[f = 0] by the closed form at zero masses ``ts``: it reads atom 0 only."""
    return ClosedFormEvaluator().batch(f, line_rows(central_measure(f.q), ts), 0).values


@given(tribes_and_measures())
@settings(max_examples=120, deadline=None)
def test_closed_form_zero_event_matches_exact(case):
    # r in 1..n covers uneven last blocks (r <= last < 2r) and m = 1.
    f, mu = case
    assert abs(closed_zero_event(f, [mu.atoms[0]])[0] - probe(EXACT, f, mu, 0)) <= 1e-12
    g = indicator(f, 0)
    ev = ClosedFormEvaluator()
    for out in (0, 1):
        assert abs(probe(ev, g, mu, out) - probe(EXACT, g, mu, out)) <= 1e-12


def test_closed_form_zero_event_edges():
    f = build_tribes(3, 4, 0.5, r=2)
    assert closed_zero_event(f, [0.0])[0] == 0.0
    assert closed_zero_event(f, [1.0])[0] == 1.0
    # one block of size 1: f = 0 iff that coordinate is 0 when n = r = 1
    single = build_tribes(3, 1, 0.5, r=1)
    assert closed_zero_event(single, [0.25])[0] == pytest.approx(0.25, abs=1e-15)


def test_closed_form_zero_event_formula_value():
    # 1 - (1 - p0^2)^2 at p0 = 1/2 is 1 - (3/4)^2 = 7/16
    f = build_tribes(3, 4, 0.5, r=2)
    assert closed_zero_event(f, [0.5])[0] == pytest.approx(0.4375, abs=1e-15)
    # a batch of rows gives one value per row, equal to the one-row calls
    p0 = [0.0, 0.5, 0.9, 1.0]
    assert list(closed_zero_event(f, p0)) == [closed_zero_event(f, [p])[0] for p in p0]


def decimal_alive(fam, p0):
    """Pr[no block is all zero] at a zero mass p0, to 60 digits: (1 - p0^r)^(m-1) (1 - p0^last)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        p = decimal.Decimal(p0)  # the float's exact value
        return (1 - p**fam.r) ** (fam.m - 1) * (1 - p**fam.last)


@pytest.mark.parametrize("n", [2**10, 2**20, 2**40, 2**60])
def test_closed_form_zero_event_matches_a_decimal_reference(n):
    # A product (1 - p0^r)^m loses about m 2^-53 and reads 0 at n = 2^60.
    # On a grid of zero masses where Pr[f = 0] runs over [0.01, 0.99], the
    # zero event stays within 1e-15 relative of the 60-digit reference.
    # Its complement is read as exp(L): a rounding of a few ulps in L moves
    # it by |L| times that, and |L| reaches ln 100 at Pr[f = 0] = 0.99.
    f = build_tribes(3, n, 0.5)
    fam = f.family
    alive = np.linspace(0.01, 0.99, 99)
    p0 = (-np.log(alive) / fam.m) ** (1.0 / fam.r)  # about where the product is ``alive``
    p0 = np.append(p0, 0.5)  # and the zero mass of mu = (0.5, 0.25, 0.25)
    rows = np.column_stack([p0, (1 - p0) / 2, (1 - p0) / 2])
    zero = ClosedFormEvaluator().batch(f, rows, 0).values
    complement = ClosedFormEvaluator().batch(indicator(f, 0), rows, 0).values
    for p, z, c in zip(p0.tolist(), zero.tolist(), complement.tolist()):
        ref = decimal_alive(fam, p)
        assert 0.005 <= 1 - ref <= 0.995
        assert abs(decimal.Decimal(z) - (1 - ref)) <= decimal.Decimal(1e-15) * (1 - ref)
        assert abs(decimal.Decimal(c) - ref) <= decimal.Decimal(1e-15) * max(1, -ref.ln()) * ref


def test_tribes_variant_rejects_bad_blocks():
    with pytest.raises(ValueError):
        TribesVariant(r=2, m=0, last=2)  # no blocks
    with pytest.raises(ValueError):
        TribesVariant(r=2, m=2, last=4)  # last block outside [r, 2r)


# ---------------------------------------------------------------------------
# Quantile map


def test_quantile_map_intervals():
    u = np.array([0.0, 0.49, 0.5, 0.7, 0.75, 1.0])
    # 0.5 belongs to the next symbol; the top endpoint folds into the last.
    np.testing.assert_array_equal(_inverse_cdf(HALF_QUARTER.as_array(), u), [0, 0, 1, 1, 2, 2])


def test_quantile_map_pushforward_is_exact():
    # empirical mass of each preimage interval converges to the atom
    mu = SimplexMeasure((0.125, 0.375, 0.5))
    u = np.linspace(0.0, 1.0, 8193)[:-1]  # uniform grid on [0, 1)
    counts = np.bincount(_inverse_cdf(mu.as_array(), u), minlength=3) / u.size
    assert counts == pytest.approx(mu.atoms, abs=1e-3)


def test_quantile_map_handles_zero_atoms():
    mu = SimplexMeasure((0.0, 0.5, 0.5))
    # The zero-length interval of symbol 0 is never hit.
    np.testing.assert_array_equal(_inverse_cdf(mu.as_array(), np.array([0.0, 0.5])), [1, 2])


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
        bounds = np.cumsum(mu.as_array())
        # Uniforms, every boundary exactly and one ulp either side, both ends.
        u = np.concatenate([rng.random(2000), bounds, np.nextafter(bounds, 0.0), np.nextafter(bounds, 1.0),
                            [0.0, 1.0]])
        u = np.clip(u, 0.0, 1.0)
        want = searchsorted_quantile(mu, u)
        got = _inverse_cdf(mu.as_array(), u)
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(_inverse_cdf(mu.as_array(), u.reshape(-1, 1)), want.reshape(-1, 1))
        for v in (0.0, 1.0, float(bounds[0]), float(u[5])):
            assert _inverse_cdf(mu.as_array(), np.array(v)) == searchsorted_quantile(mu, v)


# ---------------------------------------------------------------------------
# Monte Carlo


def test_mc_probability_deterministic():
    f = build_tribes(3, 6, 0.5, r=2)
    e1 = MonteCarloEvaluator(samples=5000, seed=42).batch(f, rows(HALF_QUARTER), 0)
    e2 = MonteCarloEvaluator(samples=5000, seed=42).batch(f, rows(HALF_QUARTER), 0)
    assert e1.values[0] == e2.values[0]
    assert e1.std_errors[0] == e2.std_errors[0]


def test_mc_probability_within_four_sigma():
    f = build_tribes(3, 6, 0.5, r=2)
    truth = probe(EXACT, f, HALF_QUARTER, 0)
    est = MonteCarloEvaluator(samples=40000, seed=7).batch(f, rows(HALF_QUARTER), 0)
    assert abs(est.values[0] - truth) <= 4 * est.std_errors[0]
    assert est.method == METHOD_MC
    assert est.samples == 40000


def test_mc_probability_rule_of_three_at_extremes():
    f = from_table(3, 4, np.full(3**4, 1), kind="full")
    est = MonteCarloEvaluator(samples=900, seed=0).batch(f, rows(HALF_QUARTER), 0)
    assert est.values[0] == 0.0
    assert est.std_errors[0] == pytest.approx(3.0 / 900, abs=0)


def test_mc_probability_rejects():
    f = build_tribes(3, 4, 0.5, r=2)
    with pytest.raises(ValueError):
        MonteCarloEvaluator(samples=0, seed=1)
    ev = MonteCarloEvaluator(samples=10, seed=1)
    with pytest.raises(ValueError):
        ev.batch(f, rows(SimplexMeasure((0.5, 0.5))), 0)
    with pytest.raises(ValueError):
        probe(ev, f, HALF_QUARTER, 3)
    assert ev.calls == 0  # a rejected batch draws no stream


def test_binomial_std_error_and_rule_of_three():
    hits = np.array([0, 1, 250, 999, 1000])
    se = binomial_std_error(hits, 1000)
    assert se[0] == se[-1] == 3.0 / 1000  # the rule-of-three bound at 0 and N hits
    for h, got in zip(hits[1:-1], se[1:-1]):
        p = int(h) / 1000
        assert got == math.sqrt(p * (1.0 - p) / 1000)
    assert float(binomial_std_error(250, 1000)) == se[2]


# ---------------------------------------------------------------------------
# Variance


def test_variance_of_indicator_moment_oracle():
    f = build_tribes(3, 4, 0.5, r=2)
    g = indicator(f, 0)
    p = probe(EXACT, f, HALF_QUARTER, 0)
    assert variance_of_indicator(g, rows(HALF_QUARTER))[0] == pytest.approx(p * (1 - p), abs=1e-15)


def test_variance_of_indicator_accepts_binary_full_table():
    tbl = np.zeros(9, dtype=np.int32)
    tbl[4:] = 1
    f = from_table(3, 2, tbl, kind="full")
    p = probe(EXACT, f, HALF_QUARTER, 1)
    assert variance_of_indicator(f, rows(HALF_QUARTER))[0] == pytest.approx(p * (1 - p), abs=1e-15)


def test_variance_of_indicator_rejects_wider_range():
    f = build_tribes(3, 4, 0.5, r=2)  # values 0..2
    with pytest.raises(ValueError):
        variance_of_indicator(f, rows(HALF_QUARTER))


# ---------------------------------------------------------------------------
# Estimate container


def test_estimate_validation():
    est = Estimate(np.array([0.5, 1.0]), 0.0, METHOD_EXACT, 0)
    assert len(est) == 2
    assert est.std_errors.shape == (2,) and not est.std_errors.any()
    with pytest.raises(ValueError):
        Estimate(np.array([0.5, 1.5]), 0.0, METHOD_EXACT, 0)
    with pytest.raises(ValueError):
        Estimate(np.array([np.nan]), 0.0, METHOD_EXACT, 0)
    with pytest.raises(ValueError):
        Estimate(np.array([0.5]), 0.1, METHOD_EXACT, 0)
    with pytest.raises(ValueError):
        Estimate(np.array([0.5]), 0.0, "guesswork", 0)
    with pytest.raises(ValueError):
        Estimate(np.array([0.5]), np.array([-0.1]), METHOD_MC, 100)
    with pytest.raises(ValueError):
        Estimate(np.array([[0.5]]), 0.0, METHOD_EXACT, 0)
    Estimate(np.array([0.5, 0.25]), np.array([0.1, 0.05]), METHOD_MC, 100)


# ---------------------------------------------------------------------------
# Evaluators


def test_exact_evaluator():
    ev = ExactEvaluator()
    f = build_tribes(3, 4, 0.5, r=2)
    assert probe(ev, f, HALF_QUARTER, 0) == pytest.approx(0.4375, abs=1e-15)
    assert probe(ev, f, HALF_QUARTER, 0) == ev.batch(f, rows(HALF_QUARTER, central_measure(3)), 0).values[0]


def test_closed_form_evaluator_full_zero_level():
    ev = ClosedFormEvaluator()
    f = build_tribes(3, 6, 0.5, r=2)
    mu = SimplexMeasure((0.3, 0.4, 0.3))
    exact = probe(EXACT, f, mu, 0)
    assert probe(ev, f, mu, 0) == pytest.approx(exact, abs=1e-12)
    est = ev.batch(f, rows(mu), 0)
    assert (est.method, est.samples, est.std_errors[0]) == (METHOD_CLOSED, 0, 0.0)


def test_closed_form_evaluator_indicator_levels():
    base = build_tribes(3, 6, 0.5, r=2)
    g = indicator(base, 0)
    ev = ClosedFormEvaluator()
    mu = SimplexMeasure((0.3, 0.4, 0.3))
    pz = probe(EXACT, base, mu, 0)
    assert probe(ev, g, mu, 1) == pytest.approx(pz, abs=1e-12)
    assert probe(ev, g, mu, 0) == pytest.approx(1 - pz, abs=1e-12)


def test_closed_form_evaluator_rejections():
    ev = ClosedFormEvaluator()
    f = build_tribes(3, 4, 0.5, r=2)
    with pytest.raises(ValueError):
        probe(ev, f, HALF_QUARTER, 3)  # not an output of f
    g = random_zero_monotone(3, 3, 0.4, seed=1)
    with pytest.raises(ValueError):
        probe(ev, g, central_measure(3), 1)  # not a tribes family


def test_closed_form_evaluator_batch_matches_scalar():
    ev = ClosedFormEvaluator()
    f = build_tribes(3, 8, 0.5, r=2)
    base = central_measure(3)
    ts = np.linspace(0.05, 0.95, 7)
    batch = ev.batch(f, line_rows(base, ts), 0)
    assert len(batch) == len(ts)
    for t, v in zip(ts, batch.values):
        assert v == ev.batch(f, line_rows(base, [t]), 0).values[0]


@pytest.mark.parametrize("q", [4, 5, 8, 13])
def test_closed_form_rows_read_the_same_alone_or_in_a_batch(q):
    # Pr[f = b], b >= 1, divides by mu_1 + ... + mu_{q-1}; a matrix product
    # of several rows may sum them in another order than of one row.
    rng = np.random.default_rng(q)
    ev = ClosedFormEvaluator()
    f = build_tribes(q, 64, 0.5, r=1)
    for b in (0, 1, q - 1):
        for g, a in ((f, b), (indicator(f, b), 0), (indicator(f, b), 1)):
            measures = sample_uniform_batch(q, 64, rng)
            batch = ev.batch(g, measures, a).values
            alone = [ev.batch(g, measures[k:k + 1], a).values[0] for k in range(len(measures))]
            assert batch.tobytes() == np.array(alone).tobytes()


# ---------------------------------------------------------------------------
# The input contract every route shares


ROUTES = {"exact": ExactEvaluator, "closed": ClosedFormEvaluator,
          "mc": lambda: MonteCarloEvaluator(samples=200, seed=1)}
ZERO_VIEW = indicator(build_tribes(3, 6, 0.5, r=2), 0)  # every route answers it at a = 0 and 1


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("row, a", [
    ((0.2, 0.2, 0.2), 1),  # sums to 0.6
    ((-0.25, 0.75, 0.5), 1),
    ((np.nan, 0.5, 0.5), 1),
    ((np.inf, 0.5, 0.5), 1),
    ((1.0 + 4e-13, 0.0, 0.0), 1),  # sums to 1 within the tolerance, but an atom passes 1
    ((0.5, 0.25, 0.25), 2),  # an indicator outputs 0 and 1
], ids=["sum-0.6", "negative", "nan", "inf", "atom-past-1", "indicator-a2"])
def test_every_route_rejects_what_the_contract_rejects(route, row, a):
    ev = ROUTES[route]()
    good = HALF_QUARTER.as_array()
    assert len(ev.batch(ZERO_VIEW, good[None, :], 1)) == 1  # the same call with a valid input passes
    calls = getattr(ev, "calls", None)
    with pytest.raises(ValueError):
        ev.batch(ZERO_VIEW, np.stack([good, np.array(row)]), a)  # the bad row is not row 0
    assert getattr(ev, "calls", None) == calls  # a rejected batch takes no MC stream


# ---------------------------------------------------------------------------
# Line probes: the batch kernel along a line, its rows checked once


@st.composite
def line_cases(draw):
    """(f, a, base, ts): a table or tribes family at q = 2..5 or one of its
    indicator views, read at any output (a = 0 of a view is its complement),
    a zero-face base, and ts that include 0 and 1."""
    q = draw(st.integers(min_value=2, max_value=5))
    n = draw(st.integers(min_value=1, max_value={2: 8, 3: 6}.get(q, 4)))
    if draw(st.booleans()):
        f = build_tribes(q, n, 0.5, r=draw(st.integers(min_value=1, max_value=n)))
    else:
        f = from_table(q, n, np.random.default_rng(draw(st.integers(0, 2**16))).integers(0, q, q**n))
    view = draw(st.sampled_from([None, *range(q)]))
    g = f if view is None else indicator(f, view)
    a = draw(st.integers(min_value=0, max_value=g.outputs - 1))
    weights = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=q - 1, max_size=q - 1))
    assume(math.fsum(weights) > 0.0)
    ts = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=6)) + [0.0, 1.0]
    return g, a, SimplexMeasure.normalized([0.0, *weights]), draw(st.permutations(ts))


@given(line_cases())
@settings(max_examples=200, deadline=None)
def test_line_equals_the_batch_of_its_rows_bit_for_bit(case):
    g, a, base, ts = case
    for ev in (EXACT, ClosedFormEvaluator()) if g.family is not None else (EXACT,):
        got = ev.line(g, a, base, ts)
        assert got.dtype == np.float64
        assert got.tobytes() == ev.batch(g, line_rows(base, ts), a).values.tobytes()


# SimplexMeasure takes it (its atoms sum to 1 + 0.99987e-12), but the line row
# at t = 1e-13 sums to 1 + 1.00009e-12, which a batch refuses.
EDGE_BASE = SimplexMeasure((0.0, 0.71958261879600915, 0.28041738120499077))


def test_line_answers_where_a_batch_of_its_rows_is_refused():
    rows = line_rows(EDGE_BASE, [1e-13])
    with pytest.raises(ValueError, match="summing to 1 within 1e-12"):
        check_measures(ZERO_VIEW, rows, 1)
    exact, closed = (ev.line(ZERO_VIEW, 1, EDGE_BASE, [1e-13])[0] for ev in (EXACT, ClosedFormEvaluator()))
    assert exact == pytest.approx(closed, rel=1e-12) and exact == pytest.approx(3e-26, rel=1e-9)  # 3 blocks, t^2 each


@given(st.integers(min_value=2, max_value=5), st.data())
@settings(max_examples=300, deadline=None)
def test_line_answers_on_every_base_at_the_sum_tolerance(q, data):
    # Zero-face atoms scaled to sum within 2e-4 tolerances of 1 +- ATOM_SUM_TOL;
    # t anywhere in [0, 1], or below 1e-10, where a row's sum is nearest the base's.
    weights = data.draw(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=q - 1, max_size=q - 1))
    side = data.draw(st.sampled_from((-1.0, 1.0)))
    nudge = data.draw(st.floats(min_value=-2e-4, max_value=2e-4))
    target = 1.0 + side * ATOM_SUM_TOL * (1.0 + nudge)
    try:
        base = SimplexMeasure((0.0, *(w / math.fsum(weights) * target for w in weights)))
    except ValueError:
        assume(False)
    t = data.draw(st.one_of(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1e-10)))
    g = indicator(build_tribes(q, 4, 0.5, r=2), 0)
    for ev in (EXACT, ClosedFormEvaluator()):
        for a in (0, 1):
            assert 0.0 <= ev.line(g, a, base, [t])[0] <= 1.0


LINE_REFUSALS = {  # (f, a, base): each refused by line_width before any probe, or by the closed route
    "q4-base": (ZERO_VIEW, 1, SimplexMeasure((0.0, 0.2, 0.3, 0.5))),
    "off-face": (ZERO_VIEW, 1, HALF_QUARTER),
    "off-face-q2": (ZERO_VIEW, 1, SimplexMeasure((0.5, 0.5))),
    "indicator-a2": (ZERO_VIEW, 2, central_measure(3)),
    "full-a3": (build_tribes(3, 6, 0.5, r=2), 3, central_measure(3)),
    "q2-base-a3": (build_tribes(3, 6, 0.5, r=2), 3, SimplexMeasure((0.0, 1.0))),
    "table": (random_zero_monotone(3, 3, 0.4, seed=1), 1, central_measure(3)),
    "table-a2": (random_zero_monotone(3, 3, 0.4, seed=1), 2, central_measure(3)),
}


@pytest.mark.parametrize("route", ["exact", "closed"])
@pytest.mark.parametrize("name", sorted(LINE_REFUSALS))
def test_line_refuses_what_line_width_refuses_with_its_message(route, name):
    f, a, base = LINE_REFUSALS[name]
    ev = ROUTES[route]()
    try:
        line_width(f, base, a, 0.1, ev)
    except ValueError as exc:
        want = str(exc)
    else:
        assert (route, name) == ("exact", "table")  # the one pair that is not refused
        return
    with pytest.raises(ValueError) as info:
        ev.line(f, a, base, [0.0, 0.5, 1.0])
    assert str(info.value) == want


@pytest.mark.parametrize("q", [2, 3, 4])
def test_closed_form_answers_exactly_the_levels_the_tribes_rule_names(q):
    # The closed form must answer every output of every view as the exact
    # route does, and the tribes rule must call monotone exactly the levels
    # whose materialised table passes the covering check.
    f = build_tribes(q, 5, 0.5, r=2)
    rng = np.random.default_rng(q)
    measures = np.vstack([sample_uniform_batch(q, 6, rng), np.eye(q), np.full(q, 1.0 / q)])
    views = [f] + [indicator(f, b) for b in range(q)]
    monotone = 0
    for g in views:
        for a in range(g.outputs):
            closed = ClosedFormEvaluator().batch(g, measures, a).values
            np.testing.assert_allclose(closed, EXACT.batch(g, measures, a).values, rtol=0, atol=1e-12)
            level = materialize_table(g).reshape((q,) * g.n) == a
            assert level_rises(g, a, 0) == _rewrite_monotone(level, 0)
            monotone += level_rises(g, a, 0)
    assert monotone == (3 if q == 2 else 2)  # the zero event: f = 0, 1[f = 0] = 1, and 1[f = 1] = 0 at q = 2


def test_monte_carlo_evaluator_samples_override():
    f = build_tribes(3, 6, 0.5, r=2)
    ev = MonteCarloEvaluator(samples=1000, seed=3)
    base = SimplexMeasure((0.0, 0.25, 0.75))
    T, start, end = ev.switching_times(f, 0, base, 2500)
    assert len(T) == len(start) == len(end) == 2500 and ev.calls == 1  # the per-call count, drawn from one stream
    with pytest.raises(ValueError, match="samples must be positive"):
        ev.switching_times(f, 0, base, 0)  # not the default in disguise
    with pytest.raises(ValueError, match="use --evaluator exact or closed"):
        ev.switching_times(f, 1, base, 2500)  # f = 1 can drop toward delta_0
    assert ev.calls == 1  # a rejected call draws no stream
    with pytest.raises(ValueError):
        MonteCarloEvaluator(samples=0, seed=3)


def test_switching_times_refuse_a_base_off_the_zero_face_or_of_another_q():
    # The tribes rule reads V as zero-free: off the zero face it returned
    # start all false, while Pr[f = 0] = 0.578 at t = 0.
    f = build_tribes(3, 6, 0.5, r=2)
    ev = MonteCarloEvaluator(samples=1000, seed=3)
    with pytest.raises(ValueError, match=r"^base measure must place zero mass at symbol 0, got 0\.5$"):
        ev.switching_times(f, 0, HALF_QUARTER, 1000)
    with pytest.raises(ValueError, match="^measure has q=4, function has q=3$"):
        ev.switching_times(f, 0, central_measure(4), 1000)
    with pytest.raises(ValueError, match="base measure must place zero mass"):
        ev.switching_times(f, 1, HALF_QUARTER, 0)  # the base is checked before the level and the count
    assert ev.calls == 0  # no stream taken


def test_switching_times_is_the_one_guard_of_both_rules(monkeypatch):
    # Neither rule checks what it is given: switching_times refuses every
    # input they do not cover before it takes a stream, and a table level
    # that rises toward delta_0 goes to the bisection, never to the tribes rule.
    bisect = evaluate._bisect_switching_times

    def reached(*args):
        raise AssertionError("a switching-time rule was reached")

    monkeypatch.setattr(evaluate, "_tribes_switching_times", reached)
    monkeypatch.setattr(evaluate, "_bisect_switching_times", reached)
    f = build_tribes(3, 6, 0.5, r=2)
    base = central_measure(3)
    ev = MonteCarloEvaluator(samples=100, seed=3)
    refused = [
        (f, 1, base, 100, "only rises toward delta_0"),  # f = 1 can drop to f = 0
        (indicator(f, 2), 0, base, 100, "only rises toward delta_0"),  # f != 2 with blocks of 2
        (f, 0, HALF_QUARTER, 100, "zero mass at symbol 0"),
        (f, 0, central_measure(4), 100, "^measure has q=4, function has q=3$"),
        (f, 0, base, 0, "^samples must be positive$"),
    ]
    for g, a, mu, samples, message in refused:
        with pytest.raises(ValueError, match=message):
            ev.switching_times(g, a, mu, samples)
    assert ev.calls == 0
    table = from_table(3, 6, materialize_table(indicator(f, 0)), kind="indicator")
    assert level_rises(table, 1, 0)
    monkeypatch.setattr(evaluate, "_bisect_switching_times", bisect)
    T, start, end = ev.switching_times(table, 1, base, 100)
    assert T.shape == start.shape == end.shape == (100,) and ev.calls == 1


@pytest.mark.parametrize("g, a, reads_v", [
    (build_tribes(3, 6, 0.5, r=2), 0, False),  # the zero event
    (indicator(build_tribes(3, 6, 0.5, r=1), 1), 0, True),  # f != 1 with blocks of one reads V_0
    (from_table(3, 6, materialize_table(indicator(build_tribes(3, 6, 0.5, r=2), 0)), kind="indicator"), 1, True),
], ids=["zero-event", "blocks-of-one", "table"])
def test_switching_times_draw_w_only_where_the_rule_reads_v(g, a, reads_v, monkeypatch):
    # Each chunk draws U, then draws W where its rule reads V and skips W
    # by advancing the stream as far where it reads none.  Either way the
    # rows are those of the stream replayed chunk by chunk, U then W.
    monkeypatch.setattr(evaluate, "BATCH_CELLS", 4 * g.n)  # chunks of 4, 4 and 2 rows
    default_rng, log = np.random.default_rng, []

    class Recording:  # the generator switching_times builds, logging each draw and each skip
        def __init__(self, seed):
            self.rng, self.bit_generator = default_rng(seed), self

        def random(self, shape):
            log.append(("draw", shape))
            return self.rng.random(shape)

        def advance(self, delta):
            log.append(("skip", delta))
            self.rng.bit_generator.advance(delta)

    monkeypatch.setattr(np.random, "default_rng", Recording)
    base, chunks = SimplexMeasure((0.0, 0.3, 0.7)), (4, 4, 2)
    got = MonteCarloEvaluator(samples=10, seed=5).switching_times(g, a, base, 10)
    w_step = (lambda b: ("draw", (b, g.n))) if reads_v else (lambda b: ("skip", b * g.n))
    assert log == [step for b in chunks for step in (("draw", (b, g.n)), w_step(b))]
    rng, want = default_rng(np.random.SeedSequence((5, 0))), []
    for b in chunks:
        U = rng.random((b, g.n))
        want.append(evaluate._bisect_switching_times(g, a, U, _inverse_cdf(base.as_array(), rng.random((b, g.n)))))
    for x, w in zip(got, zip(*want)):
        assert np.array_equal(x, np.concatenate(w))


def test_monte_carlo_evaluator_deterministic_replay():
    f = build_tribes(3, 6, 0.5, r=2)
    ev1 = MonteCarloEvaluator(samples=20000, seed=5)
    ev2 = MonteCarloEvaluator(samples=20000, seed=5)
    vals1 = [probe(ev1, f, HALF_QUARTER, 0) for _ in range(3)]
    vals2 = [probe(ev2, f, HALF_QUARTER, 0) for _ in range(3)]
    assert vals1 == vals2
    # the call counter advances the substream, so repeated calls differ
    assert len(set(vals1)) > 1


def test_monte_carlo_evaluator_tracks_accuracy():
    f = build_tribes(3, 6, 0.5, r=2)
    truth = probe(EXACT, f, HALF_QUARTER, 0)
    value = probe(MonteCarloEvaluator(samples=50000, seed=11), f, HALF_QUARTER, 0)
    est = MonteCarloEvaluator(samples=50000, seed=11).batch(f, rows(HALF_QUARTER), 0)
    assert est.values[0] == value  # a fresh evaluator of the same seed replays the row
    assert abs(value - truth) <= 4 * est.std_errors[0]


def tribes_row(fam, x):
    """Per-row tribes definition: 0 if some block of x is all zero, else the first nonzero symbol."""
    bounds = [j * fam.r for j in range(fam.m)] + [fam.n]
    if any(not any(x[lo:hi]) for lo, hi in zip(bounds, bounds[1:])):
        return 0
    return next(v for v in x if v)


def test_monte_carlo_batch_draws_do_not_depend_on_the_chunk_layout():
    # 5000 rows of n = 1024 span several sample chunks.  Row k must still
    # count the hits of one random((samples, n)) call on stream (seed, k),
    # inverted by binary search and evaluated row by row.
    f = build_tribes(3, 1024, 0.5)
    mus = [SimplexMeasure((0.4, 0.3, 0.3)), SimplexMeasure((0.45, 0.5, 0.05))]
    est = MonteCarloEvaluator(samples=5000, seed=11).batch(f, rows(*mus), 0)
    for k, mu in enumerate(mus):
        U = np.random.default_rng(np.random.SeedSequence((11, k))).random((5000, f.n))
        hits = sum(tribes_row(f.family, x) == 0 for x in searchsorted_quantile(mu, U).tolist())
        assert est.values[k] == hits / 5000
    assert 0.2 < est.values.min() and est.values.max() < 0.8  # both outcomes are common
    closed = ClosedFormEvaluator().batch(f, rows(*mus), 0).values
    assert np.all(np.abs(est.values - closed) <= 6 * est.std_errors)


@pytest.mark.parametrize("a", [1, 2])
def test_monte_carlo_levels_lie_within_6_se_of_the_closed_form(a):
    # f = a >= 1 reads the first nonzero symbol of each sampled row.
    f, mus = build_tribes(3, 4096, 0.5), rows(SimplexMeasure((0.4, 0.3, 0.3)), SimplexMeasure((0.45, 0.4, 0.15)))
    est = MonteCarloEvaluator(samples=5000, seed=11).batch(f, mus, a)
    assert np.all(np.abs(est.values - ClosedFormEvaluator().batch(f, mus, a).values) <= 6 * est.std_errors)


@pytest.mark.parametrize("f", [build_tribes(3, 6, 0.5, r=2), random_zero_monotone(3, 4, 0.3, seed=4)])
def test_monte_carlo_batch_rows_are_one_row_batches(f):
    # Row k of a batch draws from stream (seed, k), as the k-th one-row
    # batch of a fresh evaluator with the same seed does.
    mus = [HALF_QUARTER, central_measure(3), SimplexMeasure((0.2, 0.3, 0.5)), SimplexMeasure((1.0, 0.0, 0.0))]
    ev = MonteCarloEvaluator(samples=3000, seed=8)
    est = ev.batch(f, rows(*mus), 1 if f.kind == "indicator" else 0)
    fresh = MonteCarloEvaluator(samples=3000, seed=8)
    singles = [fresh.batch(f, rows(mu), 1 if f.kind == "indicator" else 0) for mu in mus]
    assert list(est.values) == [s.values[0] for s in singles]
    assert list(est.std_errors) == [s.std_errors[0] for s in singles]
    assert ev.calls == fresh.calls == len(mus)
    assert len(est) == len(mus) and est.samples == 3000
