import io
import itertools
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qthresh import functions
from qthresh.functions import (
    KIND_FULL,
    KIND_INDICATOR,
    CapExceededError,
    FunctionFileError,
    FunctionSpec,
    build_tribes,
    check_cap,
    constant_function,
    evaluate_batch,
    from_table,
    indicator,
    is_a_monotone,
    leq_a,
    level_is_zero_monotone,
    materialize_table,
    parse_function_file,
    point_index,
    random_zero_monotone,
    tribes_block_size,
    write_function_file,
)
from qthresh.functions import _parse_int, _parse_tokens


def tribes_point(fam, x):
    """Scalar tribes oracle: 0 if some block of x is all zero, else the first nonzero symbol."""
    for j in range(fam.m):
        stop = fam.n if j == fam.m - 1 else (j + 1) * fam.r
        if all(v == 0 for v in x[j * fam.r : stop]):
            return 0
    for v in x:
        if v != 0:
            return int(v)
    raise AssertionError("unreachable: all-zero input has an all-zero tribe")


def monotone_full(f):
    """Whether every level indicator 1[f = a] is monotone for the rewrite-to-a order."""
    return all(is_a_monotone(indicator(f, a), a) for a in range(f.q))


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
        assert point_index(np.unravel_index(idx, (3,) * 4), 3) == idx


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


def level_table(f, a):
    """1[f = a] as an explicit indicator table."""
    return from_table(f.q, f.n, (materialize_table(f) == a).astype(np.int32), kind="indicator")


def test_level_is_zero_monotone_matches_all_pairs_oracle_on_tables():
    rng = np.random.default_rng(23)
    corpus = [random_zero_monotone(3, 3, d, seed=s) for d, s in ((0.2, 1), (0.5, 2))]
    corpus += [from_table(3, 2, rng.integers(0, 3, size=9)) for _ in range(6)]
    corpus += [from_table(3, 2, rng.integers(0, 2, size=9), kind="indicator") for _ in range(6)]
    corpus.append(from_table(3, 3, (np.arange(27) // 9) % 3))  # f(x) = x_0
    seen = set()
    for f in corpus:
        for a in range(f.q if f.kind == KIND_FULL else 2):
            want = all_pairs_monotone(level_table(f, a), 0)
            assert level_is_zero_monotone(f, a) == want
            seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("q", [2, 3])
def test_level_is_zero_monotone_tribes_rule_matches_the_table(q):
    # With blocks of two or more, the family rule must agree with a check
    # of the materialised table for every view and level.
    f = build_tribes(q, 5, 0.5, r=2)
    views = [(f, range(q))] + [(indicator(f, b), range(2)) for b in range(q)]
    for g, levels in views:
        for a in levels:
            assert level_is_zero_monotone(g, a) == is_a_monotone(level_table(g, a), 0)


def test_level_is_zero_monotone_never_enumerates_a_family():
    f = build_tribes(3, 10**6, 0.5)  # 3^n is far past the cap
    assert level_is_zero_monotone(f, 0)
    assert level_is_zero_monotone(indicator(f, 0), 1)
    assert not level_is_zero_monotone(f, 2)
    assert not level_is_zero_monotone(indicator(f, 1), 1)
    with pytest.raises(ValueError):
        level_is_zero_monotone(f, 3)


def test_is_monotone_full_dictator():
    # f(x) = x_0 has every level indicator monotone for its own symbol
    size = 3**3
    digits = (np.arange(size) // 9) % 3
    f = from_table(3, 3, digits)
    assert monotone_full(f)


def test_is_monotone_full_rejects_counterexample():
    # f(x) = 2 - x_0 moves against the rewrite order
    size = 3**2
    digits = (np.arange(size) // 3) % 3
    f = from_table(3, 2, 2 - digits)
    assert not monotone_full(f)


def test_tribes_is_monotone_full():
    assert monotone_full(build_tribes(3, 4, 0.5, r=2))
    assert monotone_full(build_tribes(3, 6, 0.5, r=2))
    assert monotone_full(build_tribes(4, 6, 0.3, r=3))


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
    X = np.array([
        (0, 0, 2, 1),  # first tribe all-zero
        (0, 2, 0, 1),  # no dead tribe; first nonzero
        (0, 0, 0, 0),
        (1, 1, 1, 1),
        (0, 1, 2, 2),
    ])
    assert list(evaluate_batch(f, X)) == [0, 2, 0, 1, 1]


def test_tribes_batch_matches_point():
    f = build_tribes(3, 5, 0.5, r=2)
    X = np.array(list(itertools.product(range(3), repeat=5)))
    batch = evaluate_batch(f, X)
    for row, val in zip(X, batch):
        assert tribes_point(f.family, tuple(row)) == val


def test_table_batch_matches_point():
    f = random_zero_monotone(3, 4, 0.4, seed=12)
    X = np.array(list(itertools.product(range(3), repeat=4)))
    batch = evaluate_batch(f, X)
    for row, val in zip(X, batch):
        assert f.table[point_index(row, 3)] == val


def test_materialize_table_family_agrees_with_point_eval():
    f = build_tribes(3, 4, 0.5, r=2)
    tbl = materialize_table(f)
    for idx, x in enumerate(itertools.product(range(3), repeat=4)):
        assert tbl[idx] == tribes_point(f.family, x)


def test_enumeration_cap_enforced():
    f = build_tribes(3, 64, 0.5, r=4)
    with pytest.raises(CapExceededError):
        materialize_table(f)
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
    X = np.array(list(itertools.product(range(3), repeat=4)))
    for x, val in zip(X, evaluate_batch(f, X)):
        dead = all(v == 0 for v in x[:2]) or all(v == 0 for v in x[2:])
        assert val == int(dead) == int(tribes_point(f.family, x) == 0)


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


# ---------------------------------------------------------------------------
# Table parsing against the line-by-line reader it replaced


def reference_parse_function_file(source) -> FunctionSpec:
    """The line-by-line reader that parse_function_file replaced, kept verbatim."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return reference_parse_function_file(fh)
    lines = [ln.rstrip("\n") for ln in source]
    if not lines or not lines[0].strip():
        raise FunctionFileError(1, "empty file; expected a header line")
    head = _parse_tokens(1, lines[0], required=("q", "n", "kind"))
    q = _parse_int(1, "q", head["q"])
    n = _parse_int(1, "n", head["n"])
    kind = head["kind"]
    if kind not in (KIND_FULL, KIND_INDICATOR):
        raise FunctionFileError(1, f"kind must be full or indicator, got {kind!r}")
    if q < 2 or n < 1:
        raise FunctionFileError(1, f"need q >= 2 and n >= 1, got q={q} n={n}")

    body = lines[1:]
    if body and body[0].lstrip().startswith("family="):
        fields = _parse_tokens(2, body[0], required=("family", "r", "p0"), optional=("a",))
        if fields["family"] != "tribes":
            raise FunctionFileError(2, f"unknown family {fields['family']!r}")
        r = _parse_int(2, "r", fields["r"])
        try:
            p0 = float(fields["p0"])
        except ValueError:
            raise FunctionFileError(2, f"p0 must be a real number, got {fields['p0']!r}") from None
        for extra_no, extra in enumerate(body[1:], start=3):
            if extra.strip():
                raise FunctionFileError(extra_no, "unexpected content after family line")
        try:
            f = build_tribes(q, n, p0, r=r)
        except ValueError as exc:
            raise FunctionFileError(2, str(exc)) from None
        if kind == KIND_INDICATOR:
            if "a" not in fields:
                raise FunctionFileError(2, "indicator family needs a=<symbol>")
            a = _parse_int(2, "a", fields["a"])
            if not 0 <= a < q:
                raise FunctionFileError(2, f"a={a} out of range for q={q}")
            return indicator(f, a)
        if "a" in fields:
            raise FunctionFileError(2, "a=<symbol> only applies to indicator kind")
        return f

    expected = q**n
    values = np.empty(expected, dtype=np.int32)
    hi = q if kind == KIND_FULL else 2
    count = 0
    for lineno, raw in enumerate(body, start=2):
        text = raw.strip()
        if not text:
            continue
        if count >= expected:
            raise FunctionFileError(lineno, f"too many table lines; expected {expected}")
        v = _parse_int(lineno, "table entry", text)
        if not 0 <= v < hi:
            raise FunctionFileError(lineno, f"value {v} out of range [0, {hi})")
        values[count] = v
        count += 1
    if count != expected:
        raise FunctionFileError(len(lines) + 1, f"expected {expected} table lines, found {count}")
    return FunctionSpec(q=q, n=n, kind=kind, table=values)


def parse_outcome(parse, data: bytes):
    """The table a parser reads from UTF-8 bytes, or its (lineno, message)."""
    # A fresh text wrapper per parse, as open(path, encoding="utf-8") gives.
    try:
        f = parse(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except FunctionFileError as exc:
        return exc.lineno, str(exc)
    if f.table is None:
        return f.q, f.n, f.kind, f.family, f.indicator_of
    return f.q, f.n, f.kind, f.table.dtype.str, f.table.tobytes()


ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x0660, 0x066A))))
FILLER_LINES = ("", " ", "\t", "  \t ", "\u00a0", "\x0c", "\u3000")


def table_entry_line(rnd, hi: int) -> str:
    v = rnd.randrange(hi)
    style = rnd.choice(["plain"] * 6 + ["pad", "sign", "zeros", "underscore", "arabic", "wide_zeros"])
    if style == "pad":
        return rnd.choice([" ", "\t", "\u00a0"]) + str(v) + rnd.choice(["", " ", "\t "])
    if style == "sign":
        return "-0" if v == 0 and rnd.random() < 0.5 else f"+{v}"
    if style == "zeros":
        return "0" * rnd.randint(1, 3) + str(v)
    if style == "underscore":
        return "_".join(str(v)) if v >= 10 else f"0_{v}"
    if style == "arabic":
        return str(v).translate(ARABIC_INDIC)
    if style == "wide_zeros":  # ten or more digits that still read as a small value
        return "0" * rnd.randint(9, 18) + str(v)
    return str(v)


# Extra lines, most of which break a table: values past the range of most
# alphabets here, huge or negative values, and text int() refuses.
BAD_LINES = st.lists(
    st.one_of(
        st.integers(2, 40).map(str),
        st.integers(10**9, 10**20).map(str),
        st.integers(-12, -1).map(str),
        st.text(max_size=5).filter(lambda s: "\n" not in s and "\r" not in s),
        st.sampled_from(["x", "1.0", "1e3", "0x1", "1 2", "--1", "_1", "\u0661x"]),
    ),
    max_size=2,
)


@st.composite
def table_files(draw) -> bytes:
    """A table file mixing valid entries, fillers and faults.

    Line endings are \\n, \\r\\n or \\r; the final newline may be missing;
    the entry count may be short or long; any line may be out of range or
    not an integer at all.  The bulk of the entries comes from one drawn
    random stream, which keeps an example cheap to generate.
    """
    q = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(["full", "indicator"]))
    n = draw(st.integers(1, 3 if q <= 5 else 2))
    hi = q if kind == "full" else 2
    expected = q**n
    count = draw(st.sampled_from([expected] * 4 + [expected - 1, expected + 1, max(0, expected - 5), expected + 3]))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    lines = [table_entry_line(rnd, hi) for _ in range(count)]
    for line in draw(BAD_LINES):
        lines.insert(draw(st.integers(0, len(lines))), line)
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(rnd.randint(0, len(lines)), rnd.choice(FILLER_LINES))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join([f"q={q} n={n} kind={kind}", *lines])
    if draw(st.booleans()):
        text += newline
    return text.encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(table_files())
def test_table_parse_matches_line_by_line_reader(data):
    assert parse_outcome(parse_function_file, data) == parse_outcome(reference_parse_function_file, data)


@pytest.mark.parametrize(
    "body, outcome",
    [
        ("0\r\n1", np.array([0, 1])),  # CRLF, no final newline
        ("\n 1 \n\n+0\n\t\n", np.array([1, 0])),  # blanks, padding, a sign
        ("0000000001\r0_0\r", np.array([1, 0])),  # CR endings, ten digits, an underscore
        ("\u0661\n-0\n", np.array([1, 0])),  # Arabic-Indic digit, negative zero
        ("0\n1\nx\n", (4, "line 4: too many table lines; expected 2")),
        ("0\nx\n7\n", (3, "line 3: table entry must be an integer, got 'x'")),
        ("0\n-1\nx\n", (3, "line 3: value -1 out of range [0, 2)")),
        ("0\n12345678901234567890\n", (3, "line 3: value 12345678901234567890 out of range [0, 2)")),
        ("0\n\n", (4, "line 4: expected 2 table lines, found 1")),
        ("0", (3, "line 3: expected 2 table lines, found 1")),
    ],
)
def test_table_parse_pinned_cases(tmp_path, body, outcome):
    path = tmp_path / "fn.txt"
    path.write_bytes(("q=2 n=1 kind=full\n" + body).encode("utf-8"))
    if isinstance(outcome, tuple):
        with pytest.raises(FunctionFileError) as err:
            parse_function_file(path)
        assert (err.value.lineno, str(err.value)) == outcome
    else:
        assert np.array_equal(parse_function_file(path).table, outcome)
    assert parse_outcome(parse_function_file, path.read_bytes()) == parse_outcome(
        reference_parse_function_file, path.read_bytes()
    )


def test_table_parse_multi_digit_values_and_family_files():
    table = np.arange(12 * 12) % 12
    data = ("q=12 n=2 kind=full\n" + "\n".join(map(str, table)) + "\n").encode()
    assert np.array_equal(parse_function_file(io.StringIO(data.decode())).table, table)
    for text in (
        "q=3 n=4 kind=full\nfamily=tribes r=2 p0=0.5\n\n",
        "q=3 n=4 kind=indicator\n  family=tribes r=2 p0=0.5 a=1\n",
        "q=3 n=4 kind=full\nfamily=tribes r=2 p0=0.5\n\n0\n",
        "q=3 n=4 kind=indicator\nfamily=tribes r=2 p0=0.5\n",
    ):
        data = text.encode()
        assert parse_outcome(parse_function_file, data) == parse_outcome(reference_parse_function_file, data)


def test_table_parse_huge_header_reports_the_count():
    # The line-by-line reader allocated q^n entries before reading a line,
    # so this header failed inside numpy; now the count check reports it.
    with pytest.raises(FunctionFileError) as err:
        parse_function_file(io.StringIO("q=3 n=100 kind=full\n0\n"))
    assert err.value.lineno == 3
    assert f"expected {3**100} table lines, found 1" in str(err.value)


def test_table_parse_header_past_any_body_names_its_line():
    # q^n has 4772 digits here; the count error names line 3 and writes the
    # count as a power instead of formatting it.
    with pytest.raises(FunctionFileError) as err:
        parse_function_file(io.StringIO("q=3 n=10000 kind=full\n0\n"))
    assert err.value.lineno == 3
    assert "expected 3^10000 table lines, found 1" in str(err.value)
    # Earlier errors keep their own lines at any n.
    for body, lineno, message in (("0\nx\n", 3, "must be an integer"), ("0\n1\n7\n", 4, "out of range")):
        with pytest.raises(FunctionFileError) as err:
            parse_function_file(io.StringIO("q=3 n=10000 kind=full\n" + body))
        assert err.value.lineno == lineno
        assert message in str(err.value)


def test_clean_table_body_never_reaches_the_line_reader(tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    f = from_table(3, 8, rng.integers(0, 3, size=3**8))
    path = tmp_path / "fn.txt"
    write_function_file(f, path)
    clean = path.read_text()
    header, _, body = clean.partition("\n")
    lines = body.split("\n")
    lines[5:5] = ["", ""]  # empty lines inside, and no final newline
    gappy = "\n".join([header, "", *lines]).rstrip("\n")
    wide = from_table(12, 2, np.arange(144) % 12)  # two-digit entries
    write_function_file(wide, path)
    wide_text = path.read_text()

    def refuse(*args):
        raise AssertionError("a clean body reached the line reader")

    monkeypatch.setattr(functions, "_read_table_lines", refuse)
    for text, want in ((clean, f), (gappy, f), (wide_text, wide)):
        assert np.array_equal(parse_function_file(io.StringIO(text)).table, want.table)
    # A padded line is not clean, so that body goes through the line reader.
    with pytest.raises(AssertionError, match="line reader"):
        parse_function_file(io.StringIO(clean.replace("\n", "\n ", 1)))


def reference_write_table(f: FunctionSpec, path) -> None:
    """The table writer that one join replaced, kept for byte comparison."""
    out = [f"q={f.q} n={f.n} kind={f.kind}"]
    out.extend(str(int(v)) for v in f.table)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


def test_table_writer_bytes_match_the_per_entry_writer(tmp_path):
    rng = np.random.default_rng(17)
    for f in (
        from_table(12, 2, rng.integers(0, 12, size=144)),
        random_zero_monotone(3, 6, 0.05, seed=17),
    ):
        write_function_file(f, tmp_path / "new.txt")
        reference_write_table(f, tmp_path / "old.txt")
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()
