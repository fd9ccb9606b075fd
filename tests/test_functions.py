import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qthresh.functions import (
    CapExceededError,
    FunctionFileError,
    FunctionSpec,
    PermutationGroupSpec,
    adjacent_transpositions,
    apply_permutation,
    build_tribes,
    check_cap,
    constant_function,
    evaluate_batch,
    evaluate_point,
    from_table,
    full_cycle,
    indicator,
    index_point,
    is_a_monotone,
    is_monotone_full,
    is_symmetric,
    leq_a,
    materialize_table,
    parse_function_file,
    point_index,
    random_zero_monotone,
    tribes_block_size,
    write_function_file,
)


def all_pairs_monotone(f, a):
    """Brute-force oracle: check f(x) <= f(y) on every comparable pair."""
    tbl = materialize_table(f)
    points = list(itertools.product(range(f.q), repeat=f.n))
    for x, y in itertools.product(points, repeat=2):
        if leq_a(x, y, a) and tbl[point_index(x, f.q)] > tbl[point_index(y, f.q)]:
            return False
    return True


# ---------------------------------------------------------------------------
# Point indexing


def test_point_index_round_trip():
    for idx in range(3**4):
        assert point_index(index_point(idx, 3, 4), 3) == idx


def test_point_index_is_lexicographic():
    # coordinate 0 is the most significant digit
    assert point_index((0, 0, 1), 3) == 1
    assert point_index((1, 0, 0), 3) == 9
    assert point_index((2, 2, 2), 3) == 26


# ---------------------------------------------------------------------------
# Partial order


def test_leq_examples():
    assert leq_a((1, 2), (1, 2), 0)
    assert leq_a((1, 2), (0, 2), 0)  # rewrite coordinate 0 to the symbol 0
    assert not leq_a((1, 2), (2, 2), 0)  # changed to a non-a value
    assert leq_a((1, 2), (1, 1), 1)
    assert not leq_a((0, 0), (1, 1), 2)


def test_leq_length_mismatch():
    with pytest.raises(ValueError):
        leq_a((0, 1), (0, 1, 2), 0)


@st.composite
def point_pairs(draw):
    q = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=1, max_value=4))
    symbol = st.integers(min_value=0, max_value=q - 1)
    pt = st.tuples(*([symbol] * n))
    return q, draw(pt), draw(pt), draw(pt), draw(symbol)


@given(point_pairs())
@settings(max_examples=300, deadline=None)
def test_leq_is_a_partial_order(data):
    q, x, y, z, a = data
    assert leq_a(x, x, a)  # reflexive
    if leq_a(x, y, a) and leq_a(y, x, a):
        assert x == y  # antisymmetric
    if leq_a(x, y, a) and leq_a(y, z, a):
        assert leq_a(x, z, a)  # transitive


@given(point_pairs())
@settings(max_examples=300, deadline=None)
def test_leq_iff_rewrite_reachable(data):
    # y is above x exactly when y == x after forcing some coordinate set to a
    q, x, y, _, a = data
    reachable = all(yv == xv or yv == a for xv, yv in zip(x, y))
    assert leq_a(x, y, a) == reachable


def test_rewriting_one_coordinate_moves_up():
    for x in itertools.product(range(3), repeat=3):
        for k in range(3):
            for a in range(3):
                y = list(x)
                y[k] = a
                assert leq_a(x, tuple(y), a)


# ---------------------------------------------------------------------------
# Monotonicity checks


def test_constant_is_monotone_every_way():
    f = constant_function(3, 2, 1, kind="indicator")
    for a in range(3):
        assert is_a_monotone(f, a)


def test_is_a_monotone_matches_all_pairs_oracle():
    rng = np.random.default_rng(9)
    corpus = [random_zero_monotone(3, 3, d, seed=s) for d, s in ((0.2, 1), (0.5, 2), (0.8, 3))]
    corpus.append(from_table(3, 1, [1, 1, 0], kind="indicator"))
    for _ in range(8):
        corpus.append(from_table(3, 2, rng.integers(0, 2, size=9), kind="indicator"))
    for f in corpus:
        for a in range(f.q):
            assert is_a_monotone(f, a) == all_pairs_monotone(f, a)


def test_upset_is_zero_monotone_but_usually_not_other_ways():
    f = random_zero_monotone(3, 3, 0.3, seed=4)
    assert is_a_monotone(f, 0)
    assert all_pairs_monotone(f, 0)


def test_is_monotone_full_dictator():
    # f(x) = x_0 has every level indicator monotone for its own symbol
    size = 3**3
    digits = (np.arange(size) // 9) % 3
    f = from_table(3, 3, digits)
    assert is_monotone_full(f)


def test_is_monotone_full_rejects_counterexample():
    # f(x) = 2 - x_0 moves against the rewrite order
    size = 3**2
    digits = (np.arange(size) // 3) % 3
    f = from_table(3, 2, 2 - digits)
    assert not is_monotone_full(f)


def test_tribes_is_monotone_full():
    assert is_monotone_full(build_tribes(3, 4, 0.5, r=2))
    assert is_monotone_full(build_tribes(3, 6, 0.5, r=2))
    assert is_monotone_full(build_tribes(4, 6, 0.3, r=3))


# ---------------------------------------------------------------------------
# Symmetry


def _multiset_indicator():
    # symmetric by construction: depends only on the multiset of symbols
    size = 3**3
    tbl = np.zeros(size, dtype=np.int32)
    for idx in range(size):
        x = index_point(idx, 3, 3)
        tbl[idx] = int(sorted(x)[1] == 1)
    return from_table(3, 3, tbl, kind="indicator")


def test_symmetric_function_accepted():
    f = _multiset_indicator()
    assert is_symmetric(f, adjacent_transpositions(3))
    assert is_symmetric(f, full_cycle(3))


def test_dictator_not_symmetric():
    size = 3**3
    digits = ((np.arange(size) // 9) % 3 == 0).astype(np.int32)
    f = from_table(3, 3, digits, kind="indicator")
    # identity-only group is not transitive
    identity = PermutationGroupSpec(((0, 1, 2),))
    assert not is_symmetric(f, identity)
    # transitive group, but the dictator is not invariant
    assert not is_symmetric(f, full_cycle(3))


def test_apply_permutation():
    assert apply_permutation((5, 6, 7), (2, 0, 1)) == (7, 5, 6)
    with pytest.raises(ValueError):
        apply_permutation((1, 2), (0, 0))


def test_group_orbit():
    g = full_cycle(4)
    assert g.is_transitive()
    two_orbits = PermutationGroupSpec(((1, 0, 2, 3),))
    assert not two_orbits.is_transitive()


# ---------------------------------------------------------------------------
# Tribes family


def test_tribes_block_size_frozen_values():
    # floor[(ln n - ln ln n + ln ln(1/p0)) / ln(1/p0)] at p0 = 1/2
    assert tribes_block_size(2**16, 0.5) == 12
    assert tribes_block_size(2**10, 0.5) == 6
    assert tribes_block_size(2**20, 0.5) == 15


def test_build_tribes_partition():
    fam = build_tribes(3, 4, 0.5, r=2).family
    assert (fam.r, fam.m, fam.last) == (2, 2, 2)
    fam = build_tribes(3, 7, 0.5, r=2).family  # remainder folds into the last block
    assert (fam.r, fam.m, fam.last) == (2, 3, 3)
    assert fam.n == 7
    fam = build_tribes(3, 4, 0.5, r=3).family  # m=1: single block takes everything
    assert (fam.r, fam.m, fam.last) == (3, 1, 4)


def test_build_tribes_formula_clamps():
    f = build_tribes(3, 4, 0.5)  # raw formula gives 0 here
    assert f.family.r == 1
    assert f.family.r_clamped


def test_build_tribes_rejects():
    with pytest.raises(ValueError):
        build_tribes(3, 2, 0.5)  # formula needs n >= 3
    with pytest.raises(ValueError):
        build_tribes(3, 4, 1.0, r=2)
    with pytest.raises(ValueError):
        build_tribes(3, 4, 0.5, r=5)
    build_tribes(3, 2, 0.5, r=2)  # explicit r lifts the n >= 3 requirement


def test_tribes_evaluation_examples():
    f = build_tribes(3, 4, 0.5, r=2)
    assert evaluate_point(f, (0, 0, 2, 1)) == 0  # first tribe all-zero
    assert evaluate_point(f, (0, 2, 0, 1)) == 2  # no dead tribe; first nonzero
    assert evaluate_point(f, (0, 0, 0, 0)) == 0
    assert evaluate_point(f, (1, 1, 1, 1)) == 1
    assert evaluate_point(f, (0, 1, 2, 2)) == 1


def test_tribes_batch_matches_point():
    f = build_tribes(3, 5, 0.5, r=2)
    X = np.array(list(itertools.product(range(3), repeat=5)))
    batch = evaluate_batch(f, X)
    for row, val in zip(X, batch):
        assert evaluate_point(f, tuple(row)) == val


def test_table_batch_matches_point():
    f = random_zero_monotone(3, 4, 0.4, seed=12)
    X = np.array(list(itertools.product(range(3), repeat=4)))
    batch = evaluate_batch(f, X)
    for row, val in zip(X, batch):
        assert evaluate_point(f, tuple(row)) == val


def test_materialize_table_family_agrees_with_point_eval():
    f = build_tribes(3, 4, 0.5, r=2)
    tbl = materialize_table(f)
    for idx in range(3**4):
        assert tbl[idx] == evaluate_point(f, index_point(idx, 3, 4))


def test_enumeration_cap_enforced():
    f = build_tribes(3, 64, 0.5, r=4)
    with pytest.raises(CapExceededError):
        materialize_table(f, cap=2**20)
    assert check_cap(2, 24) == 2**24  # exactly at the cap
    with pytest.raises(CapExceededError):
        check_cap(2, 25)
    with pytest.raises(CapExceededError):
        check_cap(3, 65536)  # q**n has far more digits than Python formats


# ---------------------------------------------------------------------------
# Indicators


def test_indicator_levels_partition():
    f = build_tribes(3, 4, 0.5, r=2)
    tables = [materialize_table(indicator(f, a)) for a in range(3)]
    assert np.array_equal(sum(tables), np.ones(3**4, dtype=np.int32))


def test_indicator_zero_matches_dead_tribe_predicate():
    f = indicator(build_tribes(3, 4, 0.5, r=2), 0)
    for x in itertools.product(range(3), repeat=4):
        dead = all(v == 0 for v in x[:2]) or all(v == 0 for v in x[2:])
        assert evaluate_point(f, x) == int(dead)


def test_indicator_rejects_indicator_input():
    f = indicator(build_tribes(3, 4, 0.5, r=2), 0)
    with pytest.raises(ValueError):
        indicator(f, 1)


# ---------------------------------------------------------------------------
# Random upsets


def test_random_zero_monotone_densities():
    empty = random_zero_monotone(3, 3, 0.0, seed=0)
    assert materialize_table(empty).max() == 0
    full = random_zero_monotone(3, 3, 1.0, seed=0)
    assert materialize_table(full).min() == 1


def test_random_zero_monotone_always_monotone():
    for seed in range(10):
        f = random_zero_monotone(3, 4, 0.35, seed=seed)
        assert is_a_monotone(f, 0)


def test_random_zero_monotone_contains_its_seeds():
    # closure only adds points, so density is a lower bound on the mass
    f = random_zero_monotone(3, 4, 0.25, seed=5)
    assert materialize_table(f).sum() >= round(0.25 * 3**4)


def test_random_zero_monotone_reproducible():
    a = random_zero_monotone(3, 4, 0.3, seed=77)
    b = random_zero_monotone(3, 4, 0.3, seed=77)
    assert np.array_equal(a.table, b.table)


# ---------------------------------------------------------------------------
# FunctionSpec validation


def test_function_spec_validation():
    with pytest.raises(ValueError):
        FunctionSpec(q=3, n=2, kind="full", table=np.zeros(8, dtype=int))  # wrong size
    with pytest.raises(ValueError):
        FunctionSpec(q=3, n=2, kind="indicator", table=np.full(9, 2))  # not binary
    with pytest.raises(ValueError):
        FunctionSpec(q=3, n=2, kind="full")  # neither table nor family
    with pytest.raises(ValueError):
        from_table(3, 2, np.full(9, 3))  # value out of range


def test_function_spec_table_is_frozen_copy():
    src = np.zeros(9, dtype=np.int32)
    f = from_table(3, 2, src)
    src[0] = 1  # caller's array stays writable ...
    assert f.table[0] == 0  # ... and the stored copy is unaffected
    with pytest.raises(ValueError):
        f.table[0] = 1  # stored table refuses writes


# ---------------------------------------------------------------------------
# Function files


def test_file_round_trip_table(tmp_path):
    f = random_zero_monotone(3, 3, 0.4, seed=3)
    path = tmp_path / "fn.txt"
    write_function_file(f, path)
    g = parse_function_file(path)
    assert (g.q, g.n, g.kind) == (3, 3, "indicator")
    assert np.array_equal(g.table, f.table)


def test_file_round_trip_family(tmp_path):
    f = build_tribes(3, 6, 0.25, r=2)
    path = tmp_path / "tribes.txt"
    write_function_file(f, path)
    g = parse_function_file(path)
    assert g.family == f.family
    assert g.kind == "full"


def test_file_round_trip_family_indicator(tmp_path):
    f = indicator(build_tribes(3, 6, 0.25, r=2), 0)
    path = tmp_path / "tribes0.txt"
    write_function_file(f, path)
    g = parse_function_file(path)
    assert g.kind == "indicator"
    assert g.indicator_of == 0
    assert g.family == f.family


def test_file_errors_carry_line_numbers(tmp_path):
    bad_header = tmp_path / "bad1.txt"
    bad_header.write_text("q=3 kind=full\n")
    with pytest.raises(FunctionFileError) as err:
        parse_function_file(bad_header)
    assert err.value.lineno == 1

    bad_value = tmp_path / "bad2.txt"
    bad_value.write_text("q=2 n=1 kind=full\n0\n7\n")
    with pytest.raises(FunctionFileError) as err:
        parse_function_file(bad_value)
    assert err.value.lineno == 3

    short = tmp_path / "bad3.txt"
    short.write_text("q=2 n=2 kind=full\n0\n1\n")
    with pytest.raises(FunctionFileError) as err:
        parse_function_file(short)
    assert "expected 4 table lines" in str(err.value)

    indicator_without_a = tmp_path / "bad4.txt"
    indicator_without_a.write_text("q=3 n=4 kind=indicator\nfamily=tribes r=2 p0=0.5\n")
    with pytest.raises(FunctionFileError) as err:
        parse_function_file(indicator_without_a)
    assert err.value.lineno == 2
