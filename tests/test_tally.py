"""The type-class tally against independent brute-force references.

Every exact route reads one tally per function, so each of its quantities is
checked here against a reference that never touches it: point weights of the
full product measure for probabilities, a per-coordinate ``moveaxis`` of the
value table for influences.
"""
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qthresh.evaluate as evaluate
import qthresh.functions as functions
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
    influence_profile,
    influence_variance,
    keller_diagnostic,
    phi_k,
)
from qthresh.measures import SimplexMeasure, central_measure, line_rows
from qthresh.threshold import derivative_lower_bound_ratio, line_width, rm_derivative_exact
from qthresh.verification import FD_STEP, fd_probability_derivative, upset_corpus

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


def row(mu):
    """mu as a one-row matrix of measures: every row form answers it in row 0."""
    return mu.as_array()[None, :]


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
            assert abs(ExactEvaluator().batch(f, row(mu), a).values[0] - float(w @ (tbl == a))) <= 1e-12


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
            assert abs(influence_bkkkl(f, row(mu), k)[0] - float(w @ nonconst)) <= 1e-12
            if not binary:
                with pytest.raises(ValueError):
                    influence_variance(f, row(mu), k)
                continue
            assert abs(influence_variance(f, row(mu), k)[0] - float(w @ (m * (1.0 - m)))) <= 1e-12
            assert abs(influence_h(f, row(mu), k, h_paper)[0] - float(w @ h_paper(m))) <= 1e-12
            assert abs(phi_k(f, row(mu), k)[0] - float(w @ (nonconst * (1.0 - m)))) <= 1e-12


@given(functions_and_measures(count=5))
@settings(max_examples=100, deadline=None)
def test_exact_batch_equals_its_scalar_calls(case):
    f, mus = case
    ev = ExactEvaluator()
    M = np.array([mu.as_array() for mu in mus])
    for a in range(f.outputs):
        batch = ev.batch(f, M, a).values
        assert batch.shape == (len(mus),)
        assert list(batch) == [ev.batch(f, row(mu), a).values[0] for mu in mus]


def test_tally_is_built_once_per_function(monkeypatch):
    calls = []
    original = functions.materialize_table
    monkeypatch.setattr(functions, "materialize_table", lambda f: calls.append(f) or original(f))
    f = indicator(build_tribes(3, 6, 0.5, r=2), 0)
    mu = SimplexMeasure((0.2, 0.3, 0.5))
    ExactEvaluator().batch(f, row(mu), 1)
    ExactEvaluator().batch(f, np.array([mu.as_array()] * 3), 0)
    variance_of_indicator(f, row(mu))
    bernstein_derivative(f, central_measure(3), [0.3])
    assert calls == []  # a tribes tally is counted from its blocks
    for k in range(f.n):
        influence_h(f, row(mu), k, h_paper)
        phi_k(f, row(mu), k)
        influence_bkkkl(f, row(mu), k)
    assert calls == []  # so are its fibres
    # a new spec of the same function gets its own tally
    g = indicator(build_tribes(3, 6, 0.5, r=2), 0)
    assert evaluate.type_tally(g) is not evaluate.type_tally(f)


def test_tallies_of_one_shape_share_read_only_type_steps():
    # Types and steps depend on (q, n) alone: two functions of one shape,
    # counted from blocks and from a table, read the same arrays, which no
    # tally can write through.
    f = indicator(build_tribes(3, 5, 0.5, r=2), 0)
    g = random_zero_monotone(3, 5, 0.2, seed=3)
    tf, tg = evaluate.type_tally(f), evaluate.type_tally(g)
    assert tf.types is tg.types and tf.rest_types is tg.rest_types
    for arr in (tf.types, tf.rest_types, evaluate._type_steps(3, 5), evaluate._appended(3, 4)):
        assert not arr.flags.writeable
    assert evaluate.type_tally(build_tribes(3, 4, 0.5, r=2)).types is not tf.types


def sorted_steps(q, k):
    """The steps by sorting every grown type, the order of ``_types``: the reference for the ranks."""
    grown = (evaluate._types(q, k)[:, None, :] + np.eye(q, dtype=np.int64)[None, :, :]).reshape(-1, q)
    return np.unique(grown, axis=0, return_inverse=True)[1].reshape(-1, q)


@pytest.mark.parametrize("q, k", [(q, k) for q in range(2, 7) for k in range(7)] + [(64, 2)])
def test_appended_ranks_equal_the_sorted_steps(q, k):
    step = evaluate._appended(q, k)
    assert np.array_equal(step, sorted_steps(q, k))
    assert not step.flags.writeable
    assert evaluate._appended(q, k) is step


def tribes_views(q, n):
    """(view, its value table): the full tribes function and every indicator view, for each r in {1, 2, 3, n}."""
    for r in sorted({1, 2, 3, n} & set(range(1, n + 1))):
        f = build_tribes(q, n, 0.5, r=r)
        table = materialize_table(f)
        yield f, table
        yield from ((indicator(f, b), (table == b).astype(np.int32)) for b in range(q))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_block_counts_equal_the_table_tally(q):
    # m = 1 (r = n) and last != r (n = 5, r = 2) are among the views.
    for n in range(1, 9):
        for g, values in tribes_views(q, n):
            counted = evaluate.type_tally(g)
            table = evaluate.type_tally(from_table(q, n, values, kind=g.kind))
            assert counted.types is table.types
            assert counted.counts.dtype == table.counts.dtype == np.int64
            assert np.array_equal(counted.counts, table.counts), (q, n, g.family, g.indicator_of)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_block_fibres_equal_the_table_fibres(q):
    # Every class of the fibre rule shows: k in the first block and in a
    # later one, first, middle and last in its block, blocks of one, m = 1.
    for n in range(1, 9):
        for g, values in tribes_views(q, n):
            table = from_table(q, n, values, kind=g.kind)
            for k in range(n):
                pairs = zip(evaluate.type_tally(g).fibre_tally(g, k), evaluate.type_tally(table).fibre_tally(table, k))
                for got, want in pairs:
                    assert got.dtype == want.dtype and np.array_equal(got, want), (q, n, g.family, g.indicator_of, k)


@pytest.mark.parametrize("q, n, r", [(64, 2, 1), (64, 2, 2), (21, 3, 2)])
def test_block_fibres_past_int64_keys_equal_the_table_fibres(q, n, r):
    # Many symbols: the rows are sorted whole, and no row of zero count is made.
    f = build_tribes(q, n, 0.5, r=r)
    table = materialize_table(f)
    for g, values in [(f, table), (indicator(f, 0), table == 0), (indicator(f, q - 1), table == q - 1)]:
        spec = from_table(q, n, values, kind=g.kind)
        for k in range(n):
            pairs = zip(evaluate.type_tally(g).fibre_tally(g, k), evaluate.type_tally(spec).fibre_tally(spec, k))
            for got, want in pairs:
                assert got.dtype == want.dtype and np.array_equal(got, want), (g.indicator_of, k)


@pytest.mark.parametrize("n, r, counted", [(15, None, [0, 1]), (10, 2, [0, 1, 2]), (7, 2, [0, 1, 2, 4])])
def test_tribes_fibres_are_counted_once_per_class(monkeypatch, n, r, counted):
    # A coordinate's fibres read its place in the first block, or else the
    # size of its block: build_tribes(3, 15, 0.5) has blocks of one (r = 1),
    # so two classes serve all 15 coordinates; blocks (2, 2, 3) have four.
    f = build_tribes(3, n, 0.5, r=r)
    tally = evaluate.type_tally(f)  # its fold reads the last coordinate's rows once, before the count below
    calls = []
    original = evaluate._tribes_fibres
    monkeypatch.setattr(evaluate, "_tribes_fibres", lambda g, k: calls.append(k) or original(g, k))
    influence_profile(f, central_measure(3), "bkkkl")
    assert calls == counted
    shared = {}  # one read-only tally per class, shared by its coordinates
    for k in range(n):
        fibres = tally.fibre_tally(f, k)
        assert shared.setdefault(evaluate._fibre_class(f, k), fibres) is fibres
        assert not any(arr.flags.writeable for arr in fibres)
    assert len(shared) == len(calls) == len(counted)


@pytest.mark.parametrize("q, n, kind", [(2, 10, "full"), (3, 8, "full"), (3, 8, "indicator"), (4, 5, "full"),
                                        (4, 5, "indicator"), (5, 4, "full"), (5, 4, "indicator"),
                                        (3, 12, "full"), (3, 12, "indicator")])
def test_counted_table_fibres_equal_the_sorted_ones(q, n, kind):
    # The sort of the same rows is the reference, array for array, dtypes
    # included; the count is called directly where the tally would sort.
    rng = np.random.default_rng(10 * q + n)
    f = from_table(q, n, rng.integers(0, q if kind == "full" else 2, size=q**n), kind=kind)
    tally = evaluate.type_tally(f)
    hi, width = tally.outputs, len(tally.rest_types)
    for k in range(n):
        rest, columns, count = evaluate._fibre_rows(f, k)
        want = evaluate._distinct_fibres(rest, columns, count, hi, width)
        for got in (evaluate._counted_fibres(rest, columns, hi, width), tally.fibre_tally(f, k)):
            assert len(got) == len(want) == 4
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b), k


def test_a_table_with_many_symbols_sorts_its_fibres(monkeypatch):
    # 64 symbols: 64 rest types times 2^64 (or 64^64) patterns are far more keys than the 64 rows of a fibre.
    def refuse(*args):
        raise AssertionError("the fibres were counted")

    monkeypatch.setattr(evaluate, "_counted_fibres", refuse)
    rng = np.random.default_rng(6)
    for f in (from_table(64, 2, rng.integers(0, 64, size=64 * 64)),
              from_table(64, 2, rng.integers(0, 2, size=64 * 64), kind="indicator")):
        tally = evaluate.type_tally(f)
        for k in range(2):
            rows = fibre_rows(f, k)
            rest, patterns, count, nonconstant = tally.fibre_tally(f, k)
            assert count.sum() == 64 and np.array_equal(np.unique(rows, axis=0), np.unique(patterns, axis=0))


def test_table_fibres_are_counted_not_sorted(monkeypatch):
    # Every fibre tally of a 3^8 upset takes the count: the Keller diagnostic
    # runs with np.unique refused inside evaluate, and gives the digits of a
    # fresh spec of the same table after.
    class NoUnique:
        def __getattr__(self, name):
            if name == "unique":
                raise AssertionError("np.unique called")
            return getattr(np, name)

    f = random_zero_monotone(3, 8, 0.3, seed=5)
    with monkeypatch.context() as patch:
        patch.setattr(evaluate, "np", NoUnique())
        got = keller_diagnostic(f, central_measure(3))
    want = keller_diagnostic(from_table(3, 8, f.table, kind="indicator"), central_measure(3))
    assert (got.max_value, got.ratio) == (want.max_value, want.ratio)


def test_tribes_fibre_quantities_never_enumerate(monkeypatch):
    def refuse(f):
        raise AssertionError("materialize_table called")

    # evaluate keeps no name of its own for materialize_table, so this patch covers every route.
    assert not hasattr(evaluate, "materialize_table")
    monkeypatch.setattr(functions, "materialize_table", refuse)
    base = SimplexMeasure((0.0, 0.35, 0.65))
    rows = np.array([[0.5, 0.25, 0.25], [0.2, 0.3, 0.5]])
    for n in (5, 15):
        f = build_tribes(3, n, 0.5)
        level = indicator(f, 0)
        for k in (0, n - 1):
            assert influence_bkkkl(f, rows, k).shape == (2,)
            for influence in (influence_variance, phi_k, lambda g, mu, k: influence_h(g, mu, k, h_paper)):
                assert influence(level, rows, k).shape == (2,)
        assert rm_derivative_exact(level, base, [0.0, 0.5]).shape == (2,)
        assert len(derivative_lower_bound_ratio(level, 1, base, [0.0, 0.5])) == 2
        assert keller_diagnostic(level, central_measure(3)).argmax_k in range(n)


@pytest.mark.parametrize("q, n", [(2, 20), (3, 12), (4, 9), (5, 7)])
def test_block_counts_of_a_type_sum_to_its_size(q, n):
    # Type c holds n! / prod_j c_j! = C(n, c0) M points, whatever f maps them to.
    for r in (1, 2, 3, n):
        f = build_tribes(q, n, 0.5, r=r)
        for g in [f] + [indicator(f, b) for b in range(q)]:
            tally = evaluate.type_tally(g)
            sizes = [math.factorial(n) // math.prod(map(math.factorial, c)) for c in tally.types.tolist()]
            assert tally.counts.sum(axis=1).tolist() == sizes


def test_tribes_probes_widths_and_variances_never_enumerate(monkeypatch):
    def refuse(f):
        raise AssertionError("materialize_table called")

    def no_ids(q, n):
        raise AssertionError("the q^(n-1) type ids were built")

    monkeypatch.setattr(functions, "materialize_table", refuse)
    # The fold of a family's rows needs only the steps, never a type id per rest point.
    monkeypatch.setattr(evaluate, "_type_steps", no_ids)
    base = SimplexMeasure((0.0, 0.5, 0.5))
    rows = np.array([[0.5, 0.25, 0.25], [0.2, 0.3, 0.5]])
    for n in (5, 11, 15):
        f = build_tribes(3, n, 0.5)
        for g in (f, indicator(f, 0)):
            for a in range(g.outputs):
                assert ExactEvaluator().batch(g, rows, a).values.shape == (2,)
        level = indicator(f, 0)
        assert variance_of_indicator(level, rows).shape == (2,)
        assert bernstein_derivative(level, base, [0.0, 0.5]).shape == (2,)
        report = line_width(f, base, 0, 0.1, ExactEvaluator())
        assert 0.0 < report.t_lo < report.t_hi < 1.0


@pytest.mark.parametrize("fibres", [False, True], ids=["tally", "fibres"])
@pytest.mark.parametrize("make", [lambda: build_tribes(3, 5, 0.5, r=2),
                                  lambda: random_zero_monotone(3, 5, 0.2, seed=4)], ids=["tribes", "table"])
def test_a_freed_spec_frees_its_tally(make, fibres):
    # The spec keys its tally weakly; a tally that held the spec would pin both.
    f = make()
    ExactEvaluator().batch(f, np.array([[0.5, 0.25, 0.25]]), 0)
    if fibres:
        influence_bkkkl(f, np.array([[0.5, 0.25, 0.25]]), 0)
    spec, tally = weakref.ref(f), weakref.ref(evaluate.type_tally(f))
    del f
    gc.collect()
    assert spec() is None and tally() is None


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
        assert abs(influence_bkkkl(f, row(mu), k)[0] - float(w @ (rows.min(axis=1) != rows.max(axis=1)))) <= 1e-12
        m = np.clip(fibre_rows(g, k) @ mu.as_array(), 0.0, 1.0)
        assert abs(influence_variance(g, row(mu), k)[0] - float(w @ (m * (1.0 - m)))) <= 1e-12
        assert abs(influence_h(g, row(mu), k, h_paper)[0] - float(w @ h_paper(m))) <= 1e-12


def test_fibre_mean_that_rounds_past_one_is_clipped():
    # Atoms 0.0247 + 0.9136 + 0.0617 of the fibre (1, 1, 0, 1) sum to
    # 1 + 2^-52 in floating point; h_paper is only defined on [0, 1].
    f = from_table(4, 2, [1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1], kind="indicator")
    mu = SimplexMeasure.normalized([0.1, 3.7, 0.0, 0.25])
    w = product_weights(mu, 1)
    for k in range(2):
        m = np.clip(fibre_rows(f, k) @ mu.as_array(), 0.0, 1.0)
        assert influence_h(f, row(mu), k, h_paper)[0] == pytest.approx(float(w @ h_paper(m)), abs=1e-12)
        assert influence_variance(f, row(mu), k)[0] >= 0.0


@given(functions_and_measures(count=1), st.sampled_from((0.0, 0.05, 0.5, 0.95)))
@settings(max_examples=80, deadline=None)
def test_bernstein_derivative_matches_finite_differences(case, t):
    f, (mu,) = case
    assume(mu.atoms[0] < 1.0)
    base = SimplexMeasure.normalized((0.0,) + tuple(mu.atoms[1:]))
    analytic = bernstein_derivative(f, base, [t])[0]
    approx = fd_probability_derivative(f, base, [t])[0]
    assert abs(analytic - approx) <= 1e-6 * max(1.0, abs(analytic))


def test_bernstein_derivative_is_the_fibre_sum_on_upsets():
    base = SimplexMeasure((0.0, 0.3, 0.7))
    for f in upset_corpus(3, 4, 5, seed=8):
        for t in (0.0, 0.2, 0.7):
            assert abs(bernstein_derivative(f, base, [t])[0] - rm_derivative_exact(f, base, [t])[0]) <= 1e-12
    dictator = from_table(3, 1, [1, 0, 0], kind="indicator")
    # Pr[x = 0] = t along the line: derivative 1 everywhere, t = 0 included
    for t in (0.0, 0.5, 0.99):
        assert bernstein_derivative(dictator, base, [t])[0] == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        bernstein_derivative(dictator, base, [1.0])
    with pytest.raises(ValueError):
        bernstein_derivative(dictator, SimplexMeasure(tuple(line_rows(base, [0.5])[0])), [0.1])  # off the zero face


# t = 0, and t within FD_STEP of either end, where the stencils are one-sided.
EDGE_TS = (0.0, 0.25 * FD_STEP, FD_STEP, 1.0 - FD_STEP, 1.0 - 0.25 * FD_STEP)
T_VALUES = st.one_of(st.sampled_from(EDGE_TS), st.floats(min_value=0.0, max_value=1.0, exclude_max=True))


@st.composite
def row_cases(draw):
    """A random upset at q = 3 or 4, or a small tribes zero event, with measure rows and a line."""
    q = draw(st.sampled_from((3, 4)))
    n = draw(st.integers(min_value=1, max_value=5 if q == 3 else 4))
    if draw(st.booleans()):
        f = random_zero_monotone(q, n, draw(st.sampled_from((0.05, 0.2, 0.5))), seed=draw(st.integers(0, 2**32 - 1)))
    else:
        f = indicator(build_tribes(q, n, 0.5, r=draw(st.integers(min_value=1, max_value=n))), 0)
    # Rows with zero atoms, as in the influence suite, besides the drawn ones.
    with_zero = [(0.0,) + (1.0,) * (q - 1), (1.0, 1.0) + (0.0,) * (q - 2)]
    # Rounding shows only on atoms with full mantissas: draw those, or a zero.
    weights = st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=1.0)), min_size=q, max_size=q)
    mus = [SimplexMeasure.normalized(w) for w in draw(st.lists(weights.filter(any), min_size=1, max_size=4))]
    mus += [SimplexMeasure.normalized(w) for w in with_zero]
    rest = draw(st.lists(WEIGHTS, min_size=q - 1, max_size=q - 1).filter(lambda w: math.fsum(w) > 0.0))
    base = SimplexMeasure.normalized((0.0, *rest))
    return f, mus, base, draw(st.lists(T_VALUES, min_size=1, max_size=6))


@given(row_cases())
@settings(max_examples=80, deadline=None)
def test_row_forms_equal_their_one_row_calls(case):
    # Row i of every row form is the call on rows[i:i+1], and grid point i the
    # call on the one-point grid, to the bit.
    f, mus, base, ts = case
    rows = np.stack([mu.as_array() for mu in mus])
    one_rows = [rows[i:i + 1] for i in range(len(rows))]
    for k in range(f.n):
        for influence in (phi_k, influence_bkkkl, influence_variance,
                          lambda f, mu, k: influence_h(f, mu, k, h_paper)):
            assert np.array_equal(influence(f, rows, k), [influence(f, one, k)[0] for one in one_rows])
    assert np.array_equal(variance_of_indicator(f, rows), [variance_of_indicator(f, one)[0] for one in one_rows])
    for derivative in (rm_derivative_exact, bernstein_derivative):
        assert np.array_equal(derivative(f, base, ts), [derivative(f, base, [t])[0] for t in ts])
    fd_ts = ts + [1.0]  # the oracle alone also answers at t = 1
    assert np.array_equal(fd_probability_derivative(f, base, fd_ts),
                          [fd_probability_derivative(f, base, [t])[0] for t in fd_ts])


@given(row_cases())
@settings(max_examples=40, deadline=None)
def test_grid_oracles_are_their_textbook_formulas(case):
    # The identity: fsum over k of one-row phi_k calls, over 1 - t.
    f, _, base, ts = case
    want = [math.fsum(phi_k(f, line_rows(base, [t]), k)[0] for k in range(f.n)) / (1.0 - t) for t in ts]
    assert np.array_equal(rm_derivative_exact(f, base, ts), want)
    # Finite differences: the backward stencil is the forward one with a
    # negative step; the negation is exact in floating point, so the digits
    # are those of (3 p0 - 4 p1 + p2) / (2 dt).
    dt = FD_STEP

    def p(*us):
        return ExactEvaluator().batch(f, line_rows(base, us), 1).values.tolist()

    want = []
    for t in ts + [1.0]:
        if t < dt:
            p0, p1, p2 = p(t, t + dt, t + 2.0 * dt)
            want.append((-3.0 * p0 + 4.0 * p1 - p2) / (2.0 * dt))
        elif t > 1.0 - dt:
            p0, p1, p2 = p(t, t - dt, t - 2.0 * dt)
            want.append((3.0 * p0 - 4.0 * p1 + p2) / (2.0 * dt))
        else:
            p_hi, p_lo = p(t + dt, t - dt)
            want.append((p_hi - p_lo) / (2.0 * dt))
    assert np.array_equal(fd_probability_derivative(f, base, ts + [1.0]), want)
