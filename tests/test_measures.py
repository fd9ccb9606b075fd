import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qthresh.measures import (
    SimplexMeasure,
    central_measure,
    line_rows,
    sample_uniform_batch,
    second_smallest_atom,
)


def test_construction_validates():
    with pytest.raises(ValueError):
        SimplexMeasure((1.0,))  # q=1
    with pytest.raises(ValueError):
        SimplexMeasure((0.5, 0.6))  # sum 1.1
    with pytest.raises(ValueError):
        SimplexMeasure((-0.1, 1.1))  # negative atom
    with pytest.raises(ValueError):
        SimplexMeasure((float("nan"), 1.0))


def test_construction_accepts_tiny_sum_drift():
    # fp sums like 3 * (1/3) are fine; 1e-12 is the contract
    mu = SimplexMeasure((1 / 3, 1 / 3, 1 / 3))
    assert mu.q == 3


def test_construction_refuses_an_atom_past_one_within_the_sum_drift():
    # The sum passes the 1e-12 tolerance but the atom is not a probability;
    # every evaluator batch refuses such a row too.
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        SimplexMeasure((1.0 + 5e-13, 0.0))


def test_point_mass_and_indexing():
    mu = SimplexMeasure((0, 0, 1, 0))
    assert mu.atoms == (0.0, 0.0, 1.0, 0.0)
    assert mu.atoms[2] == 1.0


def test_normalized():
    mu = SimplexMeasure.normalized([2, 1, 1])
    assert mu.atoms == (0.5, 0.25, 0.25)
    with pytest.raises(ValueError):
        SimplexMeasure.normalized([0.0, 0.0])


def test_serialize_parse_round_trip():
    mu = SimplexMeasure((0.0, 1 / 3, 2 / 3))
    again = SimplexMeasure.parse(mu.serialize())
    assert again.atoms == mu.atoms
    with pytest.raises(ValueError):
        SimplexMeasure.parse("0.5,oops,0.5")


@pytest.mark.parametrize("atoms", [(0.0, 0.5, 0.5), (0.0, 0.3, 0.7), (0.0, 0.1, 0.2, 0.3, 0.4), (0.0, 1.0)])
def test_line_rows_are_stacked_mix_t_rows_bytewise(atoms):
    # Row k of a grid is the one-point grid at ts[k], byte for byte.
    base = SimplexMeasure(atoms)
    ts = [0.0, 1.0, 0.5, 1e-300, 1.0 - 2.0**-53, *np.random.default_rng(3).random(20)]
    rows = line_rows(base, ts)
    assert rows.shape == (len(ts), base.q) and rows.dtype == np.float64
    stacked = np.concatenate([line_rows(base, [t]) for t in ts])
    # The rule in Python floats: atom 0 is t, the others base's scaled by 1 - t.
    rule = np.array([(t, *((1.0 - t) * a for a in atoms[1:])) for t in map(float, ts)])
    assert rows.tobytes() == stacked.tobytes() == rule.tobytes()
    assert line_rows(base, []).shape == (0, base.q)
    # Exact endpoints and an exact atom 0.
    assert tuple(rows[0]) == base.atoms
    assert tuple(rows[1]) == (1.0,) + (0.0,) * (base.q - 1)  # exactly delta_0
    assert rows[:, 0].tolist() == [float(t) for t in ts]


@pytest.mark.parametrize("ts", [[0.5, math.nan], [-0.25], [0.2, 1.5, 2.0]])
def test_line_rows_refuses_what_mix_t_refuses_with_its_message(ts):
    # The first bad t of a grid is named, alone or among good ones.
    base = SimplexMeasure((0.0, 0.5, 0.5))
    bad = next(t for t in ts if not 0.0 <= t <= 1.0)
    for grid in (ts, [bad]):
        with pytest.raises(ValueError, match=r"^t must lie in \[0, 1\], got " + repr(bad) + "$"):
            line_rows(base, grid)
    off_face = SimplexMeasure((0.1, 0.4, 0.5))
    with pytest.raises(ValueError, match="^base measure must place zero mass at symbol 0, got 0.1$"):
        line_rows(off_face, [0.5])


def test_second_smallest_atom():
    assert second_smallest_atom(SimplexMeasure((0.0, 0.2, 0.8))) == 0.2
    assert second_smallest_atom(SimplexMeasure((0.9, 0.1, 0.0))) == 0.0
    assert second_smallest_atom(SimplexMeasure((0.0, 1.0))) == 1.0


def test_central_measure():
    assert central_measure(2).atoms == (0.0, 1.0)
    assert central_measure(3).atoms == (0.0, 0.5, 0.5)
    mu = central_measure(5)
    assert mu.atoms[0] == 0.0
    assert all(a == 0.25 for a in mu.atoms[1:])
    with pytest.raises(ValueError):
        central_measure(1)


def test_sample_uniform_is_valid_measure():
    for row in sample_uniform_batch(4, 50, np.random.default_rng(0)):
        mu = SimplexMeasure(tuple(row))
        assert mu.q == 4
        assert all(a >= 0.0 for a in mu.atoms)
        assert abs(math.fsum(mu.atoms) - 1.0) <= 1e-12


def test_sample_uniform_batch_rows_normalized():
    M = sample_uniform_batch(3, 1000, rng=np.random.default_rng(1))
    assert M.shape == (1000, 3)
    assert np.all(M >= 0.0)
    assert np.allclose(M.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("q", [2, 3, 7, 8, 13])
def test_sample_uniform_batch_is_exponentials_over_their_sum(q):
    # The rows are one exponential((count, q)) draw over its row sums.  The
    # sums add columns left to right: numpy's row sum adds in that order up
    # to 7 columns, and in another order from 8 on, within a few ulps.
    g = np.random.default_rng(q).exponential(size=(5000, q))
    got = sample_uniform_batch(q, 5000, q)
    numpy_sum = g / g.sum(axis=1, keepdims=True)
    if q <= 7:
        assert np.array_equal(got, numpy_sum)
    assert np.allclose(got, numpy_sum, rtol=4 * np.finfo(float).eps, atol=0.0)
    total = g[:, 0].copy()
    for j in range(1, q):
        total += g[:, j]
    assert np.array_equal(got, g / total[:, None])


def test_sample_uniform_batch_in_parts_is_one_draw():
    gen = np.random.default_rng(4)
    parts = [sample_uniform_batch(3, size, gen) for size in (7, 7, 3)]
    assert np.array_equal(np.concatenate(parts), sample_uniform_batch(3, 17, 4))


def test_sample_uniform_mean_matches_dirichlet():
    # Under Dirichlet(1,..,1) each atom has mean 1/q.
    M = sample_uniform_batch(3, 200_000, rng=np.random.default_rng(2))
    means = M.mean(axis=0)
    assert np.all(np.abs(means - 1 / 3) < 0.004)


def test_sample_uniform_first_atom_beta_marginal():
    # Atom 0 of a uniform simplex point is Beta(1, q-1):
    # P(atom0 <= x) = 1 - (1-x)^(q-1).  At q=3, x=0.5 that is 0.75.
    M = sample_uniform_batch(3, 200_000, rng=np.random.default_rng(3))
    frac = float((M[:, 0] <= 0.5).mean())
    assert abs(frac - 0.75) < 0.004


@st.composite
def zero_face_bases(draw):
    q = draw(st.integers(min_value=2, max_value=5))
    weights = draw(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=q - 1, max_size=q - 1)
    )
    total = math.fsum(weights)
    return SimplexMeasure((0.0,) + tuple(w / total for w in weights))


@given(zero_face_bases(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=150, deadline=None)
def test_line_rows_properties(base, t):
    mu = SimplexMeasure(tuple(line_rows(base, [t])[0]))
    assert mu.atoms[0] == t
    assert all(a >= 0.0 for a in mu.atoms)
    assert abs(math.fsum(mu.atoms) - 1.0) <= 1e-12
    # scaling of the rest is linear in (1-t)
    for j in range(1, base.q):
        assert mu.atoms[j] == (1.0 - t) * base.atoms[j]
