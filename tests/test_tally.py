"""The type-class tally against independent brute-force references.

Every exact route reads one tally per function, so each of its quantities is
checked here against a reference that never touches it: point weights of the
full product measure for probabilities, a per-coordinate ``moveaxis`` of the
value table for influences.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qthresh.evaluate as evaluate
from qthresh.evaluate import (
    ExactEvaluator,
    bernstein_derivative,
    product_weights,
    variance_of_indicator,
)
from qthresh.functions import (
    build_tribes,
    from_table,
    indicator,
    materialize_table,
    random_zero_monotone,
)
from qthresh.influence import (
    h_paper,
    influence_bkkkl,
    influence_h,
    influence_variance,
    phi_k,
)
from qthresh.measures import SimplexMeasure, central_measure, mix_t
from qthresh.threshold import rm_derivative_exact
from qthresh.verification import fd_probability_derivative, upset_corpus

# Zero weights make zero atoms (and, all but one zero, point masses) common.
WEIGHTS = st.sampled_from((0.0, 0.0, 0.1, 0.25, 0.5, 1.0, 3.7))


@st.composite
def function_specs(draw):
    """Tables and tribes, [q]-valued or indicators, for q in {2, 3, 4}, n <= 6."""
    q = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(min_value=1, max_value=6))
    full = draw(st.booleans())
    if draw(st.booleans()):
        f = build_tribes(q, n, 0.5, r=draw(st.integers(min_value=1, max_value=n)))
        return f if full else indicator(f, draw(st.integers(min_value=0, max_value=q - 1)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    hi = q if full else 2
    return from_table(q, n, rng.integers(0, hi, size=q**n), kind="full" if full else "indicator")


def measures(q: int):
    return st.lists(WEIGHTS, min_size=q, max_size=q).filter(lambda w: math.fsum(w) > 0.0).map(
        SimplexMeasure.normalized
    )


@st.composite
def functions_and_measures(draw, count: int = 3):
    f = draw(function_specs())
    return f, [draw(measures(f.q)) for _ in range(count)]


def fibre_rows(f, k):
    """Reference fibres: one row of q outputs per rest point, in lexicographic order."""
    tbl = materialize_table(f).reshape((f.q,) * f.n)
    return np.moveaxis(tbl, k, -1).reshape(-1, f.q)


@given(functions_and_measures())
@settings(max_examples=150, deadline=None)
def test_tally_matches_enumeration(case):
    f, mus = case
    tbl = materialize_table(f)
    for mu in mus:
        w = product_weights(mu, f.n)
        for a in range(f.outputs):
            assert abs(ExactEvaluator()(f, mu, a) - float(w @ (tbl == a))) <= 1e-12


@given(functions_and_measures(count=2))
@settings(max_examples=120, deadline=None)
def test_fibre_tally_influences_match_moveaxis_reference(case):
    f, mus = case
    binary = int(materialize_table(f).max()) <= 1
    for mu in mus:
        atoms = mu.as_array()
        w = product_weights(mu, f.n - 1)
        for k in range(f.n):
            rows = fibre_rows(f, k)
            nonconst = rows.min(axis=1) != rows.max(axis=1)
            m = np.clip(rows @ atoms, 0.0, 1.0)  # partial sums of atoms may round past 1
            assert abs(influence_bkkkl(f, mu, k) - float(w @ nonconst)) <= 1e-12
            if not binary:
                with pytest.raises(ValueError):
                    influence_variance(f, mu, k)
                continue
            assert abs(influence_variance(f, mu, k) - float(w @ (m * (1.0 - m)))) <= 1e-12
            assert abs(influence_h(f, mu, k, h_paper) - float(w @ h_paper(m))) <= 1e-12
            assert abs(phi_k(f, mu, k) - float(w @ (nonconst * (1.0 - m)))) <= 1e-12


@given(functions_and_measures(count=5))
@settings(max_examples=100, deadline=None)
def test_exact_batch_equals_its_scalar_calls(case):
    f, mus = case
    ev = ExactEvaluator()
    M = np.array([mu.as_array() for mu in mus])
    for a in range(f.outputs):
        batch = ev.batch(f, M, a).values
        assert batch.shape == (len(mus),)
        assert list(batch) == [ev(f, mu, a) for mu in mus]
        assert list(batch) == [ev.batch(f, mu.as_array()[None, :], a).values[0] for mu in mus]


def test_tally_is_built_once_per_function(monkeypatch):
    calls = []
    original = evaluate.materialize_table
    monkeypatch.setattr(evaluate, "materialize_table", lambda f: calls.append(f) or original(f))
    f = indicator(build_tribes(3, 6, 0.5, r=2), 0)
    mu = SimplexMeasure((0.2, 0.3, 0.5))
    ExactEvaluator()(f, mu, 1)
    ExactEvaluator().batch(f, np.array([mu.as_array()] * 3), 0)
    variance_of_indicator(f, mu)
    for k in range(f.n):
        influence_h(f, mu, k, h_paper)
        phi_k(f, mu, k)
    bernstein_derivative(f, central_measure(3), 0.3)
    assert calls == [f]
    # a new spec of the same function gets its own tally
    g = indicator(build_tribes(3, 6, 0.5, r=2), 0)
    ExactEvaluator()(g, mu, 1)
    assert calls == [f, g]


def test_tallies_of_one_shape_share_read_only_type_steps():
    # Types and steps depend on (q, n) alone: two functions of one shape
    # read the same arrays, which no tally can write through.
    f = indicator(build_tribes(3, 5, 0.5, r=2), 0)
    g = random_zero_monotone(3, 5, 0.2, seed=3)
    tf, tg = evaluate.type_tally(f), evaluate.type_tally(g)
    assert tf.types is tg.types and tf.rest_types is tg.rest_types and tf._rest_ids is tg._rest_ids
    for arr in (tf.types, tf.rest_types, tf._rest_ids):
        assert not arr.flags.writeable
    assert evaluate.type_tally(build_tribes(3, 4, 0.5, r=2)).types is not tf.types


def test_fibre_patterns_beyond_int64_codes():
    # With 64 symbols even a {0,1} fibre has 2^64 possible patterns, so the
    # (rest type, pattern) key cannot be one int64.
    q = 64
    rng = np.random.default_rng(3)
    mu = SimplexMeasure.normalized(rng.uniform(0.0, 1.0, size=q))
    w = product_weights(mu, 1)
    f = from_table(q, 2, rng.integers(0, q, size=q * q))
    g = from_table(q, 2, rng.integers(0, 2, size=q * q), kind="indicator")
    for k in range(2):
        rows = fibre_rows(f, k)
        assert abs(influence_bkkkl(f, mu, k) - float(w @ (rows.min(axis=1) != rows.max(axis=1)))) <= 1e-12
        m = np.clip(fibre_rows(g, k) @ mu.as_array(), 0.0, 1.0)
        assert abs(influence_variance(g, mu, k) - float(w @ (m * (1.0 - m)))) <= 1e-12
        assert abs(influence_h(g, mu, k, h_paper) - float(w @ h_paper(m))) <= 1e-12


def test_fibre_mean_that_rounds_past_one_is_clipped():
    # Atoms 0.0247 + 0.9136 + 0.0617 of the fibre (1, 1, 0, 1) sum to
    # 1 + 2^-52 in floating point; h_paper is only defined on [0, 1].
    f = from_table(4, 2, [1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1], kind="indicator")
    mu = SimplexMeasure.normalized([0.1, 3.7, 0.0, 0.25])
    w = product_weights(mu, 1)
    for k in range(2):
        m = np.clip(fibre_rows(f, k) @ mu.as_array(), 0.0, 1.0)
        assert influence_h(f, mu, k, h_paper) == pytest.approx(float(w @ h_paper(m)), abs=1e-12)
        assert influence_variance(f, mu, k) >= 0.0


@given(functions_and_measures(count=1), st.sampled_from((0.0, 0.05, 0.5, 0.95)))
@settings(max_examples=80, deadline=None)
def test_bernstein_derivative_matches_finite_differences(case, t):
    f, (mu,) = case
    assume(mu[0] < 1.0)
    base = SimplexMeasure.normalized((0.0,) + tuple(mu.atoms[1:]))
    analytic = bernstein_derivative(f, base, t)
    approx = fd_probability_derivative(f, base, t)
    assert abs(analytic - approx) <= 1e-6 * max(1.0, abs(analytic))


def test_bernstein_derivative_is_the_fibre_sum_on_upsets():
    base = SimplexMeasure((0.0, 0.3, 0.7))
    for f in upset_corpus(3, 4, 5, seed=8):
        for t in (0.0, 0.2, 0.7):
            assert abs(bernstein_derivative(f, base, t) - rm_derivative_exact(f, base, t)) <= 1e-12
    dictator = from_table(3, 1, [1, 0, 0], kind="indicator")
    # Pr[x = 0] = t along the line: derivative 1 everywhere, t = 0 included
    for t in (0.0, 0.5, 0.99):
        assert bernstein_derivative(dictator, base, t) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        bernstein_derivative(dictator, base, 1.0)
    with pytest.raises(ValueError):
        bernstein_derivative(dictator, mix_t(base, 0.5), 0.1)
