import itertools
import math

import numpy as np
import pytest

from qthresh.evaluate import product_weights
from qthresh.functions import (
    build_tribes,
    constant_function,
    from_table,
    indicator,
    materialize_table,
    point_index,
    random_zero_monotone,
)
from qthresh.influence import (
    InfluenceProfile,
    ent,
    h_nonconstant,
    h_paper,
    h_variance,
    influence_bkkkl,
    influence_h,
    influence_profile,
    influence_variance,
    keller_diagnostic,
    phi_k,
)
from qthresh.measures import SimplexMeasure


UNIFORM3 = SimplexMeasure((1 / 3, 1 / 3, 1 / 3))
SKEWED3 = SimplexMeasure((0.5, 0.25, 0.25))


def dictator(q=3, n=3, k=0):
    """Indicator of x_k >= 1."""
    size = q**n
    tbl = np.zeros(size, dtype=np.int32)
    for idx in range(size):
        digits = []
        rest = idx
        for _ in range(n):
            digits.append(rest % q)
            rest //= q
        digits.reverse()
        tbl[idx] = int(digits[k] >= 1)
    return from_table(q, n, tbl, kind="indicator")


def brute_force_influences(f, mu, h):
    """Scalar-loop oracle for all three influence notions at once."""
    bk = [0.0] * f.n
    var = [0.0] * f.n
    hw = [0.0] * f.n
    tbl = materialize_table(f)
    for k in range(f.n):
        rest_axes = [range(f.q)] * (f.n - 1)
        w = product_weights(mu, f.n - 1)
        for widx, rest in enumerate(itertools.product(*rest_axes)):
            # the k-fibre over this rest point: f with coordinate k set to v
            outputs = [int(tbl[point_index(rest[:k] + (v,) + rest[k:], f.q)]) for v in range(f.q)]
            m = sum(mu[v] * outputs[v] for v in range(f.q))
            bk[k] += w[widx] * (min(outputs) != max(outputs))
            var[k] += w[widx] * m * (1.0 - m)
            hw[k] += w[widx] * h(m)
    return bk, var, hw


# ---------------------------------------------------------------------------
# Influence values


def test_dictator_influences():
    # the deciding coordinate has geometric influence 1, the rest 0
    f = dictator(3, 3, k=0)
    assert influence_bkkkl(f, SKEWED3, 0) == pytest.approx(1.0, abs=0)
    assert influence_bkkkl(f, SKEWED3, 1) == pytest.approx(0.0, abs=0)
    assert influence_bkkkl(f, SKEWED3, 2) == pytest.approx(0.0, abs=0)
    # fibre mean is 1 - mu(0) everywhere, so variance influence is mu0(1-mu0)
    assert influence_variance(f, SKEWED3, 0) == pytest.approx(0.25, abs=1e-15)
    assert influence_variance(f, SKEWED3, 1) == pytest.approx(0.0, abs=0)


def test_constant_function_has_zero_influence():
    f = constant_function(3, 3, 1, kind="indicator")
    for k in range(3):
        assert influence_bkkkl(f, UNIFORM3, k) == 0.0
        assert influence_variance(f, UNIFORM3, k) == 0.0
        assert influence_h(f, UNIFORM3, k, h_paper) == 0.0
        assert phi_k(f, UNIFORM3, k) == 0.0


def test_tribes_indicator_uniform_influence_frozen():
    # every coordinate of the 2x2 tribes zero-indicator gets 16/243 variance
    # influence under the uniform measure
    g = indicator(build_tribes(3, 4, 0.5, r=2), 0)
    for k in range(4):
        assert influence_variance(g, UNIFORM3, k) == pytest.approx(16 / 243, abs=1e-15)


def test_influences_match_brute_force():
    corpus = [
        indicator(build_tribes(3, 4, 0.5, r=2), 0),
        random_zero_monotone(3, 3, 0.4, seed=2),
        dictator(3, 3, k=1),
    ]
    for f in corpus:
        for mu in (UNIFORM3, SKEWED3):
            bk, var, hw = brute_force_influences(f, mu, h_paper)
            for k in range(f.n):
                assert influence_bkkkl(f, mu, k) == pytest.approx(bk[k], abs=1e-12)
                assert influence_variance(f, mu, k) == pytest.approx(var[k], abs=1e-12)
                assert influence_h(f, mu, k, h_paper) == pytest.approx(hw[k], abs=1e-12)


def test_influence_specializations():
    f = random_zero_monotone(3, 3, 0.45, seed=6)
    for mu in (UNIFORM3, SKEWED3):
        for k in range(f.n):
            assert influence_h(f, mu, k, h_variance) == pytest.approx(
                influence_variance(f, mu, k), abs=1e-12
            )
            assert influence_h(f, mu, k, h_nonconstant) == pytest.approx(
                influence_bkkkl(f, mu, k), abs=1e-12
            )


def test_nonconstant_profile_misses_hidden_fibres_on_zero_atoms():
    # with mu = (1/2, 1/2, 0) the fibre (1, 1, 0) is nonconstant but its mean
    # is exactly 1, so the (0,1)-indicator profile scores it zero while the
    # geometric influence still sees it
    tbl = [1, 1, 0]
    f = from_table(3, 1, tbl, kind="indicator")
    mu = SimplexMeasure((0.5, 0.5, 0.0))
    assert influence_bkkkl(f, mu, 0) == 1.0
    assert influence_h(f, mu, 0, h_nonconstant) == 0.0


def test_influence_rejects_nonbinary_function():
    f = build_tribes(3, 4, 0.5, r=2)  # values 0..2
    with pytest.raises(ValueError):
        influence_variance(f, UNIFORM3, 0)
    with pytest.raises(ValueError):
        influence_h(f, UNIFORM3, 0, h_paper)
    # the geometric notion only asks about constancy, so it still applies
    assert 0.0 <= influence_bkkkl(f, UNIFORM3, 0) <= 1.0


def test_influence_permutation_equivariance():
    f = random_zero_monotone(3, 3, 0.35, seed=9)
    sigma = (2, 0, 1)
    inverse = tuple(sigma.index(j) for j in range(3))
    # g(x) = f(y) with y[j] = x[sigma[j]]: axis j of g's cube is axis sigma^{-1}(j) of f's
    cube = materialize_table(f).reshape((3,) * 3)
    g = from_table(3, 3, cube.transpose(inverse), kind="indicator")
    # g reads its coordinate k through position sigma^{-1}(k) of f
    for k in range(3):
        assert influence_bkkkl(g, SKEWED3, k) == pytest.approx(
            influence_bkkkl(f, SKEWED3, inverse[k]), abs=1e-15
        )


# ---------------------------------------------------------------------------
# phi_k


def test_phi_dictator():
    # nonconstant everywhere, fibre mean = 1 - mu(0), so phi = mu(0)
    f = dictator(3, 2, k=0)
    for mu in (UNIFORM3, SKEWED3):
        assert phi_k(f, mu, 0) == pytest.approx(mu[0], abs=1e-15)
        assert phi_k(f, mu, 1) == 0.0


def test_phi_bounded_by_bkkkl():
    f = indicator(build_tribes(3, 6, 0.5, r=2), 0)
    for k in range(6):
        assert 0.0 <= phi_k(f, SKEWED3, k) <= influence_bkkkl(f, SKEWED3, k) + 1e-15


# ---------------------------------------------------------------------------
# Weight profiles


def test_ent_frozen_values():
    assert ent(0.0) == 0.0
    assert ent(1.0) == 0.0
    assert ent(0.5) == pytest.approx(math.log(2), abs=1e-15)
    assert ent(0.25) == pytest.approx(0.5623351446188083, abs=1e-15)


def test_h_paper_frozen_values():
    assert h_paper(0.0) == 0.0
    assert h_paper(1.0) == 0.0
    # 2 * (1/2) * (1 - ln(1/2)) = 1 + ln 2
    assert h_paper(0.5) == pytest.approx(1.6931471805599453, abs=1e-15)


def test_h_paper_dominates_entropy():
    t = np.linspace(0.0, 1.0, 10001)
    gap = h_paper(t) - ent(t)
    assert gap.min() >= -1e-12


def test_profiles_vectorize_and_reject_out_of_range():
    t = np.array([0.0, 0.25, 1.0])
    assert ent(t).shape == (3,)
    assert h_variance(0.25) == pytest.approx(0.1875, abs=0)
    assert h_nonconstant(0.0) == 0.0
    assert h_nonconstant(0.3) == 1.0
    for h in (ent, h_paper, h_variance, h_nonconstant):
        with pytest.raises(ValueError):
            h(1.5)


# ---------------------------------------------------------------------------
# Profiles and the max-influence diagnostic


def test_influence_profile_construction():
    g = indicator(build_tribes(3, 4, 0.5, r=2), 0)
    prof = influence_profile(g, UNIFORM3, "variance")
    assert prof.n == 4
    assert math.fsum(prof.values) == pytest.approx(4 * 16 / 243, abs=1e-15)
    k, v = prof.max_coordinate()
    assert v == pytest.approx(16 / 243, abs=1e-15)
    assert 0 <= k < 4


def test_influence_profile_h_defaults_to_h_paper():
    g = indicator(build_tribes(3, 4, 0.5, r=2), 0)
    by_default = influence_profile(g, SKEWED3, "h")
    assert by_default.values == tuple(influence_h(g, SKEWED3, k, h_paper) for k in range(g.n))


def test_influence_profile_validation():
    with pytest.raises(ValueError):
        InfluenceProfile(kind="bogus", values=(0.1,))
    with pytest.raises(ValueError):
        InfluenceProfile(kind="bkkkl", values=(1.5,))
    with pytest.raises(ValueError):
        InfluenceProfile(kind="variance", values=(0.3,))
    with pytest.raises(ValueError):
        InfluenceProfile(kind="variance", values=(-0.1,))


def test_keller_diagnostic_tribes():
    g = indicator(build_tribes(3, 4, 0.5, r=2), 0)
    diag = keller_diagnostic(g, UNIFORM3)
    values = influence_profile(g, UNIFORM3, "h").values
    assert len(values) == 4
    assert diag.max_value == max(values)
    assert values[diag.argmax_k] == diag.max_value
    assert diag.denominator == pytest.approx(diag.variance * math.log(4) / 4, abs=1e-18)
    assert diag.ratio == pytest.approx(diag.max_value / diag.denominator, abs=1e-12)


def test_keller_diagnostic_degenerate():
    f = constant_function(3, 3, 0, kind="indicator")
    diag = keller_diagnostic(f, UNIFORM3)
    assert diag.variance == 0.0
    assert diag.ratio is None
