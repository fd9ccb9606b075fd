"""Output-probability evaluation under product measures.

Three routes to Pr[f(x) = a] when the n coordinates are iid from a simplex
measure: an exact type-class tally, a closed-form product for the tribes
family, and Monte Carlo via CDF inversion of the measure.  The routes are
deliberately independent so they can cross-check each other, and they share
one input contract, :func:`check_measures`; a deterministic route's line
probe checks the line instead (:func:`check_line`).

The exact route rests on one fact: under mu^n the weight of a point depends
only on its type, the vector c of symbol counts, so

    Pr[f = a] = sum_c N_a(c) prod_j mu_j^c_j,

where N_a(c) counts the points of type c that f maps to a.  That is
C(n+q-1, q-1) terms against q^n points.  :class:`TypeTally` holds N_a(c).
It is built the first time any exact quantity of a
:class:`~qthresh.functions.FunctionSpec` is asked for, by one fold of the
fibres of the last coordinate: a point is a rest point of the other n-1
coordinates with a symbol v appended, so each fibre row adds its count to
the type its rest type grows to by v, at the output its pattern reads at v.
The rows come from :func:`_fibre_rows`, the one place that tells a table
from a family: a table gives one row per rest point, and a tribes family a
few rows per rest type, counted from its blocks with no enumeration.  This
module keeps the tally, keyed by the spec, for as long as the spec lives.
Every later exact probe, batch of probes, variance and line derivative of
the same spec is then a dot product over types.  For influences and the
fibre-sum derivative the tally also keeps, per coordinate k and built on
first use, the same rows of coordinate k merged into counts of (type of the
other n-1 coordinates, fibre pattern); the pattern is the row of q outputs
along coordinate k.  So one count rule per function serves both, and no
exact quantity of a family reads a value table.  The enumeration cap is
one constant, ``functions.DEFAULT_CAP``, checked once, when the tally is
built.  The coupled line sample of an MC width lives here alone, in
:meth:`MonteCarloEvaluator.switching_times`, the one guard of its two rules.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
import weakref
from dataclasses import dataclass

import numpy as np

from .functions import (
    BATCH_CELLS,
    DEFAULT_CAP,
    CapExceededError,
    FunctionSpec,
    TribesVariant,
    _fold_blocks,
    check_cap,
    check_measure_q,
    check_output,
    evaluate_batch,
    level_name,
    level_rises,
    level_symbol,
    tribes_values,
)
from .measures import ATOM_SUM_TOL, SimplexMeasure, derivative_ts, line_rows, require_zero_face, row_sums, sums_to_one

# Largest fibre key (rest type and pattern digits) that stays inside int64.
_KEY_LIMIT = 2**62
_TALLIES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # spec, by identity -> TypeTally
# Cells of one sample chunk: the uniforms of an MC batch row's reused buffer,
# or the simplex points of a region block.  Cache-sized.
SAMPLE_CELLS = 2**17

METHOD_EXACT = "exact-enumeration"
METHOD_CLOSED = "closed-form"
METHOD_MC = "monte-carlo"


@dataclass(frozen=True, eq=False)
class Estimate:
    """Probability estimates for a batch of measures: row k answers measure k.

    ``values`` and ``std_errors`` have one entry per row.  Deterministic
    methods report std_errors 0, as a broadcast view that allocates no
    per-row array; Monte Carlo reports :func:`binomial_std_error` of each
    row.  ``samples`` is the count behind every row: the q^n points the
    exact tally sums over, 0 for the closed form, the draws per row for
    Monte Carlo.
    """

    values: np.ndarray
    std_errors: np.ndarray
    method: str
    samples: int

    def __post_init__(self) -> None:
        if self.method not in (METHOD_EXACT, METHOD_CLOSED, METHOD_MC):
            raise ValueError(f"unknown method {self.method!r}")
        values = check_values(self.values)
        std = np.asarray(self.std_errors, dtype=float)  # checked before broadcasting: a 0 is one scalar
        if std.size and not std.min() >= 0.0:
            raise ValueError("std_errors must be nonnegative")
        if self.method != METHOD_MC and std.any():
            raise ValueError(f"{self.method} is deterministic; std_errors must be 0")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "std_errors", np.broadcast_to(std, values.shape))

    def __len__(self) -> int:
        return len(self.values)


def check_values(values) -> np.ndarray:
    """Probabilities as a 1-D float array, each in [0, 1]: the one output check of every route."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"expected one value per row, got shape {values.shape}")
    if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):  # NaN fails too
        raise ValueError("estimates must lie in [0, 1]")
    return values


def binomial_std_error(hits, samples: int):
    """Standard error of the rate hits/samples, elementwise over ``hits``.

    sqrt(p (1 - p) / samples) reads 0 when no draw (or every draw) hit.
    There the value is 3/samples instead: the rule-of-three 95% upper bound
    on the rate (or on one minus it), a bound and not a standard error.
    """
    hits = np.asarray(hits)
    rate = hits / samples
    se = np.sqrt(rate * (1.0 - rate) / samples)
    return np.where((hits == 0) | (hits == samples), 3.0 / samples, se)


def product_weights(mu: SimplexMeasure, n: int) -> np.ndarray:
    """Vector of point probabilities under mu^n in lexicographic order.

    The brute-force enumeration that the tests check the type tally against.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_cap(mu.q, n)
    atoms = mu.as_array()
    w = np.ones(1)
    for _ in range(n):
        w = (w[:, None] * atoms[None, :]).reshape(-1)
    return w


@functools.lru_cache(maxsize=16)
def _types(q: int, n: int) -> np.ndarray:
    """Every type of n coordinates over q symbols, in lexicographic order, read-only.

    A type is placed by the q - 1 bars of a stars-and-bars string of n stars:
    c_j is the gap between bars j - 1 and j.  ``itertools.combinations``
    yields the bar positions in lexicographic order, and so the types.
    Every route of every function of shape (q, n) reads this one array.
    """
    bars = np.array(list(itertools.combinations(range(n + q - 1), q - 1)), dtype=np.int64).reshape(-1, q - 1)
    edges = np.hstack([np.full((len(bars), 1), -1), bars, np.full((len(bars), 1), n + q - 1)])
    types = np.diff(edges, axis=1) - 1
    types.setflags(write=False)
    return types


@functools.lru_cache(maxsize=16)
def _appended(q: int, k: int) -> np.ndarray:
    """``step[t, v]``: the row of ``_types(q, k + 1)`` reached by appending symbol v to type t of k, read-only.

    The row is the lexicographic rank of the grown type's bar positions
    b_0 < ... < b_{q-2} among the (q-1)-subsets of range(k + q):
    C(k + q, q-1) - 1 - sum_i C(k + q-1 - b_i, j), j = q-1-i.  Appending
    q-1 moves no bar of t, and bar i's term is C(d_i + j, j), with
    d_i = k - c_0 - ... - c_i; appending v moves bars v, ..., q-2 one place
    right, and by Pascal's rule each moved term falls by C(d_i + j-1, j-1).
    So every row is the rank of appending q-1 plus a suffix sum, and no
    grown type is formed or sorted.  Every binomial is at most
    C(k + q-1, q-1), the number of types of k.
    """
    d = k - np.cumsum(_types(q, k)[:, :-1], axis=1)
    j = np.arange(q - 1, 0, -1)
    choose = np.array([[math.comb(e + y, y) for e in range(k + 1)] for y in range(q)], dtype=np.int64)
    moved = np.cumsum(choose[j - 1, d][:, ::-1], axis=1)[:, ::-1]  # over the bars i >= v
    last = math.comb(k + q, q - 1) - 1 - choose[j, d].sum(axis=1)
    step = (last[:, None] + np.pad(moved, ((0, 0), (0, 1)))).astype(np.int32)
    step.setflags(write=False)
    return step


@functools.lru_cache(maxsize=8)
def _type_steps(q: int, n: int) -> np.ndarray:
    """Type ids of the points of [q]^(n-1), grown by the type steps, read-only.

    ``ids[i]`` is the row of ``_types(q, n - 1)`` holding the type of the
    i-th point of [q]^(n-1) in lexicographic order.  The ids grow one
    coordinate at a time through :func:`_appended`, so no (q^n, n) digit
    matrix is ever built.  They depend on (q, n) alone, so every table of
    that shape shares one copy.  A family never asks for them.
    """
    ids = np.zeros(1, dtype=np.int32)
    for k in range(n - 1):
        ids = _appended(q, k)[ids].reshape(-1)
    ids.setflags(write=False)
    return ids


def _type_weights(measures: np.ndarray, types: np.ndarray) -> np.ndarray:
    """(m, T) matrix of prod_j mu_j^c_j; numpy's 0.0**0 = 1 covers zero atoms."""
    return np.prod(measures[:, None, :] ** types[None, :, :], axis=2)


def _weighted_sums(w: np.ndarray, values: np.ndarray) -> np.ndarray:
    # Row by row, so one measure gets the same digits alone or in a batch;
    # ``values`` is one row shared by all rows of w, or one row per row.
    return (w * values).sum(axis=1)


class TypeTally:
    """Per-type output counts of one function on [q]^n, folded from its fibres.

    ``types[t]`` is a symbol-count vector (q nonnegative integers summing to
    n, :func:`_types`) and ``counts[t, a]`` the number of points of that
    type where f = a, for a below ``outputs`` (``FunctionSpec.outputs``).
    ``rest_types`` are the types of the other n-1 coordinates, which index
    the fibre rows.  The counts are one fold of the last coordinate's rows
    (:func:`_fibre_rows`): a row of rest type t, pattern p and count w adds
    w to ``counts[step[t, v], p_v]`` for each symbol v, ``step`` being
    :func:`_appended`.  Every sum counts at most q^n points, which the cap
    keeps below 2^53, so the float weights of ``bincount`` add exactly and
    the counts are exact int64.  The tally keeps no reference to its spec,
    which keys it in ``_TALLIES``.
    """

    def __init__(self, f: FunctionSpec):
        self.q, self.n = f.q, f.n
        self.outputs = f.outputs
        self.types, self.rest_types = _types(f.q, f.n), _types(f.q, f.n - 1)
        rest, columns, count = _fibre_rows(f, f.n - 1)
        step = _appended(f.q, f.n - 1)
        self.counts = np.zeros((len(self.types), f.outputs), dtype=np.int64)
        for v, column in enumerate(columns):
            key = (rest * f.outputs + column).reshape(-1)
            part = np.bincount(key, weights=count, minlength=len(step) * f.outputs)
            self.counts[step[:, v]] += part.reshape(-1, f.outputs).astype(np.int64)
        self.binary = not self.counts[:, 2:].any()
        self._fibres: dict = {}  # fibre class (_fibre_class) -> fibre tally

    def probabilities(self, measures: np.ndarray, a: int) -> np.ndarray:
        """Pr[f = a] under mu^n for each row mu of an (m, q) matrix; a < outputs."""
        column = self.counts[:, a].astype(float)
        out = np.empty(measures.shape[0])
        chunk = max(1, BATCH_CELLS // self.types.size)
        for lo in range(0, len(out), chunk):
            out[lo:lo + chunk] = _weighted_sums(_type_weights(measures[lo:lo + chunk], self.types), column)
        return out

    def fibre_tally(self, f: FunctionSpec, k: int):
        """Distinct (rest type, pattern) pairs of the coordinate-k fibres of f, this tally's spec.

        Returns ``(rest, patterns, count, nonconstant)``, read-only and
        sorted by rest type and then pattern: ``count[i]`` rest points of
        type ``rest_types[rest[i]]`` have the fibre ``patterns[i]``, the q
        outputs of f with coordinate k set to 0, ..., q-1 (as floats, ready
        for the fibre means); ``nonconstant`` masks the patterns that are
        not constant.  Built on first use, and kept per
        :func:`_fibre_class`, by merging the equal rows of
        :func:`_fibre_rows`, the rows the counts are folded from at
        k = n - 1.  A table's rows are counted (:func:`_counted_fibres`)
        when its key space, ``len(rest_types)`` outputs^q, is no larger
        than its q^(n-1) rows; other rows, a family's or those of a table
        with many symbols, are sorted (:func:`_distinct_fibres`).  Either
        way the merged rows, and every digit read from them, are the same.
        """
        key = _fibre_class(f, k)
        if key not in self._fibres:
            rest, columns, count = _fibre_rows(f, k)
            hi, width = self.outputs, len(self.rest_types)
            if count is None and width * hi**f.q <= rest.size:
                fibres = _counted_fibres(rest, columns, hi, width)
            else:
                fibres = _distinct_fibres(rest, columns, count, hi, width)
            for arr in fibres:
                arr.setflags(write=False)
            self._fibres[key] = fibres
        return self._fibres[key]

    def fibre_expectation(self, f: FunctionSpec, k: int, rows: np.ndarray, g) -> np.ndarray:
        """E over the other n-1 coordinates of g(nonconstant, mean) of f's k-fibre, per measure row.

        ``g`` maps the fibres' nonconstant mask and the (rows, fibres) matrix
        of fibre means to values that broadcast to that matrix.  A row gets
        the digits of a one-row call: its means are its own matrix-vector
        product (a matrix product may round otherwise at q >= 4), and a
        bincount keyed by row sums its rest types in fibre order.
        """
        rest, patterns, count, nonconstant = self.fibre_tally(f, k)
        # A {0,1} fibre's mean is a partial sum of the atoms, which can round
        # an ulp past 1; h profiles are defined on [0, 1] only.
        mean = np.minimum(np.reshape([patterns @ atoms for atoms in rows], (len(rows), len(patterns))), 1.0)
        values = np.multiply(count, g(nonconstant, mean), out=np.empty(mean.shape))
        width = len(self.rest_types)
        keys = rest + width * np.arange(len(rows))[:, None]
        per_type = np.bincount(keys.ravel(), weights=values.ravel(), minlength=len(rows) * width)
        return _weighted_sums(_type_weights(rows, self.rest_types), per_type.reshape(len(rows), width))

    def line_derivative(self, base: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """d/dt Pr[f = 1] under (t delta_0 + (1-t) base)^n, base_0 = 0, at each t of ``ts``.

        The weight of type c is t^c0 (1-t)^(n-c0) prod_{j>0} base_j^c_j, a
        Bernstein polynomial in t, so the derivative is exact:
        sum_c N_1(c) w_c(t) (c0/t - (n-c0)/(1-t)), written without the
        divisions so that t = 0 needs no limit.
        """
        c0 = self.types[:, 0]
        rest = self.n - c0
        scale = _type_weights(base[None, 1:], self.types[:, 1:])[0]
        t = np.asarray(ts, dtype=float)[:, None]
        dw = (c0 * t ** np.maximum(c0 - 1, 0) * (1.0 - t) ** rest
              - rest * t**c0 * (1.0 - t) ** np.maximum(rest - 1, 0))
        return (self.counts[:, 1] * scale * dw).sum(axis=1)


def _distinct_fibres(rest: np.ndarray, columns, count, hi: int, width: int):
    """Sorted distinct (rest type, pattern) rows, as :meth:`TypeTally.fibre_tally` returns them, by sorting.

    The rows are those of :func:`_fibre_rows`, with rest types below
    ``width`` and outputs below ``hi``.  Equal rows merge and their counts
    add.  One int64 key per row is sorted, rest type and then the pattern
    as q base-hi digits; where that key would overflow int64 (many
    symbols), whole rows are.
    """
    q = len(columns)

    def distinct(rows, **axis):
        if count is None:
            return np.unique(rows, return_counts=True, **axis)
        found, inverse = np.unique(rows, return_inverse=True, **axis)
        total = np.zeros(len(found), dtype=np.int64)
        np.add.at(total, inverse.reshape(-1), count)
        return found, total

    if width * hi**q <= _KEY_LIMIT:
        key = rest.astype(np.int64)
        for col in columns:
            key = key * hi + col
        return _keyed_fibres(*distinct(key), hi, q)
    pairs, total = distinct(np.stack([rest, *columns], axis=-1).reshape(-1, q + 1), axis=0)
    return _fibre_arrays(pairs[:, 0].astype(np.int64), pairs[:, 1:], total)


def _counted_fibres(rest: np.ndarray, columns, hi: int, width: int):
    """Sorted distinct (rest type, pattern) rows of a table, as :func:`_distinct_fibres` gives them, by counting.

    A row's key, rest * hi^q + sum_v p_v hi^(q-1-v), is formed in place
    in one int32 array, by Horner's rule over the column views; one
    ``bincount`` over the width * hi^q keys merges the rows, and its
    nonzero keys come out sorted.  The caller takes this path only when
    width * hi^q is at most the q^(n-1) rows, which the cap keeps inside
    int32.
    """
    key = np.array(rest, dtype=np.int32)
    for col in columns:
        key *= hi
        key += col
    seen = np.bincount(key.reshape(-1), minlength=width * hi ** len(columns))
    keys = np.flatnonzero(seen)
    return _keyed_fibres(keys, seen[keys], hi, len(columns))


def _keyed_fibres(keys: np.ndarray, total: np.ndarray, hi: int, q: int):
    """The fibre arrays of sorted distinct int64 keys rest * hi^q + sum_v p_v hi^(q-1-v), each ``total`` rows."""
    rest, code = np.divmod(keys, hi**q)
    return _fibre_arrays(rest, (code[:, None] // hi ** np.arange(q - 1, -1, -1)) % hi, total)


def _fibre_arrays(rest: np.ndarray, patterns: np.ndarray, total: np.ndarray):
    return rest, patterns.astype(float), total, patterns.min(axis=1) != patterns.max(axis=1)


def _fibre_rows(f: FunctionSpec, k: int):
    """The coordinate-k fibres of f as rows ``(rest, columns, count)``: the one table-or-family branch of exact counts.

    Row i has rest type ``rest[i]``, a row of ``_types(q, n - 1)``, and
    pattern ``columns[v][i]`` (v < q), the output of f with coordinate k set
    to v; it stands for ``count[i]`` rest points, or for one when ``count``
    is None.  ``rest`` and the columns are arrays of one shape, indexed
    alike.  A table gives one row per rest point, in lexicographic order
    (:func:`_type_steps`), as (q^k, q^(n-1-k)) views of its type ids and of
    its values, with no copy; a tribes family gives a few rows per rest
    type, counted from its blocks (:func:`_tribes_fibres`), as 1-D arrays.
    """
    if f.family is not None:
        return _tribes_fibres(f, k)
    cube = f.table.reshape(f.q**k, f.q, -1)
    return _type_steps(f.q, f.n).reshape(f.q**k, -1), [cube[:, v, :] for v in range(f.q)], None


def _live(size: int) -> list:
    """(1 + z)^size - z^size: the zero sets of a block of ``size`` coordinates that are not all of it."""
    return [math.comb(size, j) for j in range(size)] or [0]


@functools.lru_cache(maxsize=16)
def _multinomials(q: int, n: int):
    """``(m, size, (at, symbol, share))`` of the types of n coordinates over q symbols, read-only.

    The K = n - c0 nonzero coordinates of type t take their counts in
    ``m[t]`` = M = K! / prod_{j>0} c_j! ways (exact), the first of them b in
    M c_b / K, listed at the pairs (``at``, ``symbol``) = (t, b) with c_b > 0
    alone, so a type costs what its nonzero counts cost; ``size[t]`` is
    C(n, c0) M, the number of points of type t.
    """
    types = _types(q, n)
    at, col = np.nonzero(types[:, 1:])
    counts = types[at, col + 1]
    bounds = np.searchsorted(at, np.arange(len(types) + 1)).tolist()
    cs = counts.tolist()
    m = np.array([math.factorial(sum(cs[lo:hi])) // math.prod(math.factorial(c) for c in cs[lo:hi] if c > 1)
                  for lo, hi in zip(bounds, bounds[1:])], dtype=np.int64)
    size = np.array([math.comb(n, c0) for c0 in range(n + 1)], dtype=np.int64)[types[:, 0]] * m
    symbol, share = col + 1, m[at] * counts // (n - types[at, 0])
    for arr in (m, size, at, symbol, share):
        arr.setflags(write=False)
    return m, size, (at, symbol, share)


def _fibre_class(f: FunctionSpec, k: int):
    """The key :meth:`TypeTally.fibre_tally` keeps the coordinate-k fibres of f under.

    A table's is k.  A tribes family's fibres read k only through this
    class, as :func:`_tribes_fibres` shows: ``("first", j)`` for the j-th
    coordinate of the first block, and ``("size", s)`` for a coordinate of
    any later block, of size s, whatever its place in it.  So a family has
    at most r + 2 fibre tallies, whatever n is.
    """
    if f.family is None:
        return k
    fam = f.family
    block = min(k // fam.r, fam.m - 1)
    return ("first", k) if block == 0 else ("size", fam.r if block < fam.m - 1 else fam.last)


def _tribes_fibres(f: FunctionSpec, k: int):
    """The coordinate-k fibres of a tribes view, counted from its blocks with no enumeration.

    This is a family's one count rule: its tally folds these rows at
    k = n - 1 (:class:`TypeTally`).  Coordinate k is the j-th of block B, of
    size s.  A rest point's fibre is 0 at every symbol when some other block
    is all zero (D).  Otherwise let Z be "the other s - 1 coordinates of B
    are zero", "before" be "a nonzero rest coordinate comes before k"
    (always, unless B is the first block) and sigma the first nonzero rest
    symbol.  The fibre is then (0, sigma, ..., sigma) under Z and before,
    (0, 1, ..., q-1) under Z alone, (sigma, ..., sigma) under before alone,
    and (sigma, 1, ..., q-1) under neither.  Each class's zero sets of size
    c0 are the z^c0 coefficient of prod_{B' != B} ((1 + z)^|B'| - z^|B'|)
    times one of z^(s-1), ((1 + z)^j - z^j) (1 + z)^(s-1-j) and
    z^j ((1 + z)^(s-1-j) - z^(s-1-j)), in exact integers.  The product over
    B' != B is formed once, and each class convolves its factors onto it.
    So k is read only through j in the first block and s elsewhere, its
    :func:`_fibre_class`.  sigma = b takes the share M c_b / K of the
    symbol assignments (:func:`_multinomials`).  An indicator view maps each pattern through
    ``== b``.  Returns ``(rest, columns, count)`` as :func:`_fibre_rows`
    does: one row per class, rest type and sigma with a positive count,
    where equal rows may repeat.  Each count counts points, at most q^n,
    so int64 holds it exactly.
    """
    fam, q, n = f.family, f.q, f.n
    where, place = _fibre_class(f, k)  # all that is read of k
    first = where == "first"
    sizes = [fam.r] * (fam.m - 1) + [fam.last]
    s = sizes[0] if first else place  # the size of B
    sizes.remove(s)  # leaves the blocks B' != B: whichever block of size s goes, their product is the same
    c0 = _types(q, n - 1)[:, 0]

    def ones(e: int) -> list:  # (1 + z)^e
        return [math.comb(e, i) for i in range(e + 1)]

    others = np.ones(1, dtype=object)  # coefficients in z, z^0 first, as exact integers
    for size in sizes:
        others = np.convolve(others, np.array(_live(size), dtype=object))

    def zero_sets(*factors) -> np.ndarray:  # with no other block all zero, at each rest type's c0
        poly = others
        for factor in factors:
            poly = np.convolve(poly, np.array(factor, dtype=object))
        return np.array(poly.tolist() + [0] * (n - len(poly)), dtype=np.int64)[c0]

    if first:  # before: a nonzero among the j coordinates of B ahead of k
        j = place
        before, neither = [_live(j), ones(s - 1 - j)], [[0] * j + [1], _live(s - 1 - j)]
    else:  # before: always, behind the first block's nonzero
        before, neither = [_live(s - 1)], [[0]]
    # Every zero set, then those of Z, before alone and neither.
    alive, on_z, on_before, on_neither = (zero_sets(*factors) for factors in
                                          ([ones(s - 1)], [[0] * (s - 1) + [1]], before, neither))
    m, size, (at, b, share) = _multinomials(q, n - 1)
    every, symbols, sigma = np.arange(len(m)), np.arange(q), b[:, None]

    def rows(rest, pattern, count):
        return rest, np.zeros((len(rest), q), dtype=np.int64) + pattern, count

    parts = [rows(every, 0, size - alive * m),  # D
             rows(every, symbols, on_z * m) if first else rows(at, np.where(symbols > 0, sigma, 0), on_z[at] * share),
             rows(at, sigma, on_before[at] * share),
             rows(at, np.where(symbols > 0, symbols, sigma), on_neither[at] * share)]
    t, patterns, count = (np.concatenate(column) for column in zip(*parts))
    keep = count > 0
    t, patterns, count = t[keep], patterns[keep], count[keep]
    if f.indicator_of is not None:
        patterns = (patterns == f.indicator_of).astype(np.int64)
    return t, list(patterns.T), count


def type_tally(f: FunctionSpec) -> TypeTally:
    """The type tally of ``f``: built on first use, kept until ``f`` is freed.

    Table or family, it is one fold of the last coordinate's fibre rows
    (:class:`TypeTally`).  The enumeration cap is checked once, just before
    the build, for tables and families alike; a tally that exists already
    passed it.  A family's rows need no table; the cap still bounds the
    number of types they are counted and summed over.  It bounds the
    tally's cells too, one weight per symbol of every type,
    C(n+q-1, q-1) q, which outgrow q^n at large q.
    """
    if f not in _TALLIES:
        check_cap(f.q, f.n)
        if (cells := math.comb(f.n + f.q - 1, f.q - 1) * f.q) > DEFAULT_CAP:
            raise CapExceededError(f"the type tally of q={f.q}, n={f.n} has {cells} cells, "
                                   f"past the enumeration cap {DEFAULT_CAP}")
        _TALLIES[f] = TypeTally(f)
    return _TALLIES[f]


def check_measures(f: FunctionSpec, measures, a: int) -> np.ndarray:
    """The measures of one batch as an (m, q) float matrix, checked against f and a.

    The one input contract of every route's ``batch``: each row is a point
    of the simplex (atoms finite and in [0, 1], summing to 1 within
    ``ATOM_SUM_TOL``, :func:`sums_to_one`) and ``a`` is an output of f.
    """
    measures = np.asarray(measures, dtype=float)
    if measures.ndim != 2:
        raise ValueError(f"expected an (m, {f.q}) matrix of measures")
    check_measure_q(f, measures.shape[1])
    check_output(f, a)
    if measures.size and not (measures.min() >= 0.0 and measures.max() <= 1.0  # NaN fails too
                              and sums_to_one(row_sums(measures))):
        raise ValueError(f"each measure row must be atoms in [0, 1] summing to 1 within {ATOM_SUM_TOL}")
    return measures


def check_line(f: FunctionSpec, a: int, base: SimplexMeasure, ts) -> np.ndarray:
    """The rows of a deterministic route's ``line``, checked once, with f's q and output a as in :func:`check_measures`.

    ``line_rows`` checks the zero face and every t, and its rows are not
    checked again: a base that ``SimplexMeasure`` takes with its atom sum
    1e-12 off can give rows near t = 0 whose sum is further off.
    """
    rows = line_rows(base, ts)
    check_measure_q(f, base.q)
    check_output(f, a)
    return rows


def bernstein_derivative(f: FunctionSpec, base: SimplexMeasure, ts) -> np.ndarray:
    """d/dt Pr[f = 1] along line_rows(base, ts), one value per t in [0, 1), read off the type tally.

    Along the line the probability is a degree-n polynomial in t, so this derivative is exact
    and shares no code with the fibre-sum identity or with finite differences.
    """
    require_zero_face(base)
    check_measure_q(f, base.q)
    return type_tally(f).line_derivative(base.as_array(), derivative_ts(ts))


def _tribes_log_alive(fam: TribesVariant, p0: np.ndarray) -> np.ndarray:
    """log Pr[no block is all zero] for each entry of a 1-D array of zero masses in [0, 1].

    L = (m - 1) log1p(-p0^r) + log1p(-p0^last).  A sum of logs keeps its
    relative error to a few ulps at any block count m, where the product
    (1 - p0^r)^m loses about m 2^-53 and reads 0 at n = 2^60.  At
    p0 = 1 a factor is log1p(-1) = -inf, and L is -inf; with m = 1 the
    zero count of full blocks is not multiplied in, since 0 (-inf) is nan.
    m - 1 enters as a float, so past the largest float (from n = 2^1034 at
    p0 = 0.5) the closed form is refused, as the cap refuses a table.
    """
    if fam.m - 1 > sys.float_info.max:  # an int and a float compare exactly
        raise CapExceededError(f"the closed form needs at most {sys.float_info.max:.17g} full tribes blocks, "
                               f"the largest float, and this f has at least 2^{(fam.m - 1).bit_length() - 1}")
    with np.errstate(divide="ignore"):
        last = np.log1p(-p0**fam.last)
        return last if fam.m == 1 else (fam.m - 1) * np.log1p(-p0**fam.r) + last


def _inverse_cdf(atoms: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Symbols G(u) for an array of uniforms u in [0, 1], by CDF inversion.

    G(u) is the smallest symbol whose cumulative mass strictly exceeds u,
    with G(1) pinned to q-1, so the pushforward of the uniform distribution
    is exactly the measure: symbol i owns an interval of length atom i
    (empty for a zero atom).  ``atoms`` is a row that
    :func:`check_measures` accepted; ``u`` is not checked.
    """
    # G(u) counts the boundaries at or below u; the last boundary (the
    # total mass) is left out, which pins G(1) to q-1.  One comparison per
    # symbol, into one reused mask, beats a binary search for small q.
    idx = np.zeros(u.shape, dtype=np.int32)
    above = np.empty(u.shape, dtype=bool)
    for bound in np.cumsum(atoms)[:-1]:
        idx += np.greater_equal(u, bound, out=above)
    return idx


def _sampled_values(f: FunctionSpec, atoms: np.ndarray, U: np.ndarray) -> np.ndarray:
    """f at each row of G(U), the CDF inversion of an (m, n) matrix of uniforms.

    A table is evaluated on G(U).  A tribes family never builds G(U): its
    zero pattern is U < mu_0, since G(u) = 0 exactly when u lies below the
    first CDF bound, and :func:`~qthresh.functions.tribes_values` inverts
    one uniform per row, at the first nonzero coordinate.  The values are
    those of ``evaluate_batch(f, _inverse_cdf(atoms, U))`` either way.
    """
    if f.family is None:
        return evaluate_batch(f, _inverse_cdf(atoms, U))
    return tribes_values(f, U < atoms[0], lambda rows, cols: _inverse_cdf(atoms, U[rows, cols]))


def variance_of_indicator(f: FunctionSpec, rows) -> np.ndarray:
    """Var[f] = Pr[f = 1] Pr[f = 0] for a {0,1}-valued f, one value per row of an (m, q) matrix of measures.

    Both factors are read from the tally.  Forming 1 - Pr[f = 1] instead
    would keep only the last digits of Pr[f = 1] when it is close to 1.
    """
    if not type_tally(f).binary:
        raise ValueError("variance in this sense is defined for {0,1}-valued functions")
    return ExactEvaluator().batch(f, rows, 1).values * ExactEvaluator().batch(f, rows, 0).values


# ---------------------------------------------------------------------------
# Evaluator strategies for the threshold machinery


class Evaluator:
    """One route to Pr[f = a] under product measures.

    A route implements ``batch(f, measures, a)``: one row of an (m, q)
    matrix of measures in, one row of an :class:`Estimate` out.  One
    measure is a one-row batch.  A deterministic route also implements
    ``line(f, a, base, ts)``: the values of the same kernel along the line
    t delta_0 + (1-t) base, equal to ``batch(f, line_rows(base, ts),
    a).values`` bit for bit, with the rows checked once (:func:`check_line`).
    Monte Carlo answers a line with ``switching_times`` instead.
    """

    def batch(self, f: FunctionSpec, measures, a: int) -> Estimate:
        raise NotImplementedError


class ExactEvaluator(Evaluator):
    """Tally-backed Pr[f = a]; exact but capped at q^n table size."""

    def batch(self, f: FunctionSpec, measures, a: int) -> Estimate:
        measures = check_measures(f, measures, a)
        return Estimate(_exact_values(f, measures, a), 0.0, METHOD_EXACT, f.size)

    def line(self, f: FunctionSpec, a: int, base: SimplexMeasure, ts) -> np.ndarray:
        return check_values(_exact_values(f, check_line(f, a, base, ts), a))


def _exact_values(f: FunctionSpec, measures: np.ndarray, a: int) -> np.ndarray:
    # A sum of nonnegative terms; rounding can only overshoot 1.
    return np.minimum(type_tally(f).probabilities(measures, a), 1.0)


class ClosedFormEvaluator(Evaluator):
    """Product formulas for every level of the tribes family.

    With alive = Pr[no block is all zero] = exp(L) (:func:`_tribes_log_alive`),

        Pr[f = 0] = 1 - alive = -expm1(L),
        Pr[f = b] = alive mu_b / (mu_1 + ... + mu_{q-1})  for b >= 1:

    when no block is all zero, the first block holds a nonzero coordinate,
    and given the zero pattern the nonzero symbols are iid with law
    mu_b / (1 - mu_0), so the first of them is b with that chance.  A row
    with mu_0 = 1 reads 0 there.  The indicator view of b reads Pr[f = b]
    at a = 1 and its complement at a = 0
    (:func:`~qthresh.functions.level_symbol`), with the zero event's
    complement read as ``alive`` itself.  No enumeration or sampling
    happens at any n.
    """

    def batch(self, f: FunctionSpec, measures, a: int) -> Estimate:
        _require_family(f)
        return Estimate(_closed_values(f, check_measures(f, measures, a), a), 0.0, METHOD_CLOSED, 0)

    def line(self, f: FunctionSpec, a: int, base: SimplexMeasure, ts) -> np.ndarray:
        rows = check_line(f, a, base, ts)
        _require_family(f)
        return check_values(_closed_values(f, rows, a))


def _require_family(f: FunctionSpec) -> None:
    if f.family is None:
        raise ValueError("closed form requires a tribes family function")


def _closed_values(f: FunctionSpec, measures: np.ndarray, a: int) -> np.ndarray:
    b, complement = level_symbol(f, a)
    log_alive = _tribes_log_alive(f.family, measures[:, 0])
    if b == 0:  # 0 - expm1: no -0.0 where L = 0
        return np.exp(log_alive) if complement else 0.0 - np.expm1(log_alive)
    rest = row_sums(measures[:, 1:])  # mu_1 + ... + mu_{q-1}
    values = np.exp(log_alive) * np.divide(measures[:, b], rest, out=np.zeros(len(rest)), where=rest > 0)
    return 1.0 - values if complement else values


class MonteCarloEvaluator(Evaluator):
    """Sampling-backed Pr[f = a] with per-call deterministic substreams.

    Call k, one row of a batch or one coupled line sample, draws from a
    stream seeded by (seed, k), so a fresh evaluator replays an identical
    sweep while successive calls stay independent.
    """

    def __init__(self, samples: int, seed: int):
        if samples < 1:
            raise ValueError("samples must be positive")
        self.samples = int(samples)
        self.seed = int(seed)
        self.calls = 0

    def _stream(self) -> np.random.SeedSequence:
        stream = np.random.SeedSequence((self.seed, self.calls))
        self.calls += 1
        return stream

    def batch(self, f: FunctionSpec, measures, a: int) -> Estimate:
        """Each row's rate of f = a over ``samples`` draws: uniforms, CDF-inverted.

        The rows are checked before any stream is taken.  A row draws only
        uniforms, ``samples`` rows of n in row-major order from its own
        stream, so its draws are those of one ``random((samples, n))`` call
        and depend only on the stream and on (f, measure, samples), not on
        the chunks they are drawn in.  Every chunk of every row refills one
        buffer of about ``SAMPLE_CELLS`` uniforms.

        :func:`_sampled_values` evaluates f on each chunk: a table inverts
        the whole chunk, a tribes family one uniform per sample.
        """
        measures = check_measures(f, measures, a)
        chunk = max(1, SAMPLE_CELLS // f.n)
        buffer = np.empty((min(chunk, self.samples), f.n))
        hits = np.zeros(len(measures), dtype=np.int64)
        for k, row in enumerate(measures):
            rng = np.random.default_rng(self._stream())
            for done in range(0, self.samples, chunk):
                U = rng.random(out=buffer[:min(chunk, self.samples - done)])
                hits[k] += np.count_nonzero(_sampled_values(f, row, U) == a)
        return Estimate(hits / self.samples, binomial_std_error(hits, self.samples), METHOD_MC, self.samples)

    def switching_times(self, f: FunctionSpec, a: int, base: SimplexMeasure, samples: int):
        """Where 1[f = a] switches on each row of one coupled sample of the line t delta_0 + (1-t) base.

        Row i draws U uniform on [0, 1)^n and V from base^n, zero-free since
        base must sit on the zero face.  The state x_j(t) = 0 if U_j < t, else
        V_j, has law (t delta_0 + (1-t) base)^n at every t, and raising t only
        rewrites coordinates to 0.  The level must rise toward 0
        (:func:`~qthresh.functions.level_rises`), so each row steps once.
        Returns ``(T, start, end)`` in draw order: the switching time (0 where
        f = a at t = 0), and whether f = a at t = 0 and at t = 1.  A chunk of
        at most ``BATCH_CELLS // n`` rows draws U, then W with V = G(W)
        (:func:`_inverse_cdf`): a table inverts all of W and bisects
        (:func:`_bisect_switching_times`), a tribes family reads its blocks
        (:func:`_tribes_switching_times`), inverting only the symbols read:
        where it reads none, W is skipped, not drawn.  This call is the one
        guard of both rules: a base off the zero face or of another q, any
        other level, or samples < 1, is refused before it takes its one
        stream.  ``samples`` overrides the evaluator's count.  Unlike a batch
        row, the rows a seed gives depend on the chunk size.
        """
        require_zero_face(base)
        check_measure_q(f, base.q)
        if not level_rises(f, a, 0):
            raise ValueError(f"Monte Carlo width needs a level that only rises toward delta_0, and "
                             f"{level_name(f, a)} is not one; use --evaluator exact or closed")
        if samples < 1:
            raise ValueError("samples must be positive")
        rng = np.random.default_rng(self._stream())
        atoms, chunk = base.as_array(), max(1, BATCH_CELLS // f.n)
        parts = []
        for b in (min(chunk, samples - done) for done in range(0, samples, chunk)):
            U = rng.random((b, f.n))  # U, then W: this order fixes the rows a seed gives
            if f.family is None:
                parts.append(_bisect_switching_times(f, a, U, _inverse_cdf(atoms, rng.random((b, f.n)))))
            elif _tribes_reads_symbol(f, a):  # the reader is called inside this chunk, while W is still its own
                W = rng.random((b, f.n))
                parts.append(_tribes_switching_times(f, a, U, lambda rows, cols: _inverse_cdf(atoms, W[rows, cols])))
            else:  # W goes unread: skip it as drawing it would, so the stream and every width's bytes stay
                rng.bit_generator.advance(b * f.n)
                parts.append(_tribes_switching_times(f, a, U, None))
        return tuple(np.concatenate(part) for part in zip(*parts))


def _tribes_reads_symbol(f: FunctionSpec, a: int) -> bool:
    """Whether :func:`_tribes_switching_times` reads V on this level: f != b, b >= 1, at q >= 3."""
    return level_symbol(f, a)[1] and f.q > 2


def _tribes_switching_times(f: FunctionSpec, a: int, U: np.ndarray, symbol_at):
    """Where 1[f = a] steps from 0 to 1 on each coupled row of a tribes family, read off the blocks.

    Only :meth:`MonteCarloEvaluator.switching_times` calls it, on what it
    guards: a level that rises toward 0, and V zero-free, read only through
    ``symbol_at(rows, cols)`` as in :func:`~qthresh.functions.tribes_values`.
    Returns ``(T, start, end)`` as that method does.  Block B is all zero
    once t passes max_{j in B} U_j.

    - The zero event (f = 0; f != b at q = 2) switches at T = min_B max_{j in B} U_j
      on every row.  It never calls ``symbol_at``, which may be None.
    - f != b, b >= 1, with blocks of size 1: f = x_0 until T = min_j U_j and
      0 after, so rows with V_0 != b start at the level, with T = 0.  Only
      column 0 of V is read.
    """
    full_max, last_max = _fold_blocks(f.family, U, np.maximum)
    T = np.minimum(last_max, full_max.min(axis=1, initial=np.inf))
    start = np.zeros(U.shape[0], dtype=bool)
    if _tribes_reads_symbol(f, a):  # f != b with blocks of size 1
        start = symbol_at(np.arange(U.shape[0]), 0) != level_symbol(f, a)[0]
        T[start] = 0.0
    return T, start, np.ones(U.shape[0], dtype=bool)


def _bisect_switching_times(f: FunctionSpec, a: int, U: np.ndarray, V: np.ndarray):
    """Where 1[f(x(t)) = a] steps from 0 to 1 on each coupled row, for any f, by bisection.

    Returns ``(T, start, end)`` as :meth:`MonteCarloEvaluator.switching_times`
    does, with the floats of :func:`_tribes_switching_times` on a tribes
    level.  x(t) changes only when t passes an order statistic of U, so the
    step is at the k-th smallest U_i for the least k such that zeroing the k
    smallest-U coordinates reaches f = a; k is found by bisection over all
    rows at once, in ceil(log2 n) + 2 evaluations of f.  Every point rewrites to the all-zero point, so a row with f != a at
    t = 1 means the level is identically 0; its crossings are then absent
    and T is never read.
    """
    b, n = U.shape
    rows = np.arange(b)
    order = np.sort(U, axis=1)

    def cut(k: np.ndarray) -> np.ndarray:  # the k-th smallest U_i of each row; -1 for k = 0
        return np.where(k > 0, order[rows, np.maximum(k - 1, 0)], -1.0)

    def at(k: np.ndarray) -> np.ndarray:
        # f = a with the k smallest U_i of each row zeroed: the state just
        # after t passes the k-th order statistic.
        return evaluate_batch(f, V * (U > cut(k)[:, None])) == a

    lo, hi = np.zeros(b, dtype=np.int64), np.full(b, n, dtype=np.int64)
    start, end = at(lo), at(hi)
    for _ in range(math.ceil(math.log2(n))):  # keeps at(lo) false and at(hi) true
        mid = (lo + hi) // 2
        hit = at(mid)
        hi = np.where(hit, mid, hi)
        lo = np.where(hit, lo, mid)
    T = np.where(start, 0.0, cut(hi))
    return T, start, end
