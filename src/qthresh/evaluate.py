"""Output-probability evaluation under product measures.

Three routes to Pr[f(x) = a] when the n coordinates are iid from a simplex
measure: an exact type-class tally, a closed-form product for the tribes
family, and Monte Carlo via CDF inversion of the measure.  The routes are
deliberately independent so they can cross-check each other, and they share
one input contract, :func:`_check_measures`.

The exact route rests on one fact: under mu^n the weight of a point depends
only on its type, the vector c of symbol counts, so

    Pr[f = a] = sum_c N_a(c) prod_j mu_j^c_j,

where N_a(c) counts the points of type c that f maps to a.  That is
C(n+q-1, q-1) terms against q^n points.  :class:`TypeTally` holds N_a(c).
It is built in one pass over the value table (materialised once for a
family-backed function) the first time any exact quantity of a
:class:`~qthresh.functions.FunctionSpec` is asked for, and this module keeps
it, keyed by the spec, for as long as the spec lives.  Every later exact
probe, batch of probes, variance, influence and fibre-sum derivative of the
same spec is then a dot product over types.  For influences the tally also
keeps, per coordinate k and built on first use, the counts of (type of the
other n-1 coordinates, fibre pattern); the pattern is the row of q outputs
along coordinate k.  The enumeration cap is one constant,
``functions.DEFAULT_CAP``, checked once, when the tally is built.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .functions import (
    BATCH_CELLS,
    FunctionSpec,
    TribesVariant,
    check_cap,
    check_measure_q,
    check_output,
    evaluate_batch,
    materialize_table,
    tribes_zero_level,
)
from .measures import ATOM_SUM_TOL, SimplexMeasure, require_zero_face

# Largest fibre key (rest type and pattern digits) that stays inside int64.
_KEY_LIMIT = 2**62
_TALLIES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # spec, by identity -> TypeTally

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
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError(f"expected one value per row, got shape {values.shape}")
        if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):  # NaN fails too
            raise ValueError("estimates must lie in [0, 1]")
        std = np.asarray(self.std_errors, dtype=float)  # checked before broadcasting: a 0 is one scalar
        if std.size and not std.min() >= 0.0:
            raise ValueError("std_errors must be nonnegative")
        if self.method != METHOD_MC and std.any():
            raise ValueError(f"{self.method} is deterministic; std_errors must be 0")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "std_errors", np.broadcast_to(std, values.shape))

    def __len__(self) -> int:
        return len(self.values)


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


def _type_steps(q: int, n: int):
    """Types of n-1 and of n coordinates, with the type id of each point.

    Returns ``(rest_types, rest_ids, types, step)``: ``rest_ids[i]`` is the
    row of ``rest_types`` holding the type of the i-th point of [q]^(n-1) in
    lexicographic order, and ``step[t, v]`` is the row of ``types`` reached
    by appending symbol v to a point of type ``rest_types[t]``.  The ids grow
    one coordinate at a time, so no (q^n, n) digit matrix is ever built.
    """

    def grow(types: np.ndarray):
        grown = (types[:, None, :] + np.eye(q, dtype=np.int64)[None, :, :]).reshape(-1, q)
        longer, step = np.unique(grown, axis=0, return_inverse=True)
        return longer, step.reshape(-1, q).astype(np.int32)

    types = np.zeros((1, q), dtype=np.int64)
    ids = np.zeros(1, dtype=np.int32)
    for _ in range(n - 1):
        longer, step = grow(types)
        types, ids = longer, step[ids].reshape(-1)
    longer, step = grow(types)
    return types, ids, longer, step


def _type_weights(measures: np.ndarray, types: np.ndarray) -> np.ndarray:
    """(m, T) matrix of prod_j mu_j^c_j; numpy's 0.0**0 = 1 covers zero atoms."""
    return np.prod(measures[:, None, :] ** types[None, :, :], axis=2)


def _weighted_sums(w: np.ndarray, values: np.ndarray) -> np.ndarray:
    # Row by row, so one measure gets the same digits alone or in a batch.
    return (w * values[None, :]).sum(axis=1)


class TypeTally:
    """Per-type output counts of one function on [q]^n.

    ``types[t]`` is a symbol-count vector (q nonnegative integers summing to
    n) and ``counts[t, a]`` the number of points of that type where f = a,
    for a below ``outputs`` (``FunctionSpec.outputs``).
    ``rest_types`` are the types of the other n-1 coordinates, which index
    the fibre tallies.
    """

    def __init__(self, f: FunctionSpec, table: np.ndarray):
        self.q, self.n = f.q, f.n
        self.outputs = f.outputs
        self.rest_types, self._rest_ids, self.types, step = _type_steps(f.q, f.n)
        # Row i of the reshaped table is the fibre of the last coordinate
        # over rest point i: symbol v there extends the rest type by v.
        rows = table.reshape(-1, f.q)
        counts = np.zeros((len(self.types), self.outputs), dtype=np.int64)
        for v in range(f.q):
            part = np.bincount(self._rest_ids * self.outputs + rows[:, v],
                               minlength=len(self.rest_types) * self.outputs)
            counts[step[:, v]] += part.reshape(-1, self.outputs)
        self.counts = counts
        self.binary = not counts[:, 2:].any()
        self._table = table
        self._fibres: list = [None] * f.n

    def probabilities(self, measures: np.ndarray, a: int) -> np.ndarray:
        """Pr[f = a] under mu^n for each row mu of an (m, q) matrix; a < outputs."""
        column = self.counts[:, a].astype(float)
        out = np.empty(measures.shape[0])
        chunk = max(1, BATCH_CELLS // self.types.size)
        for lo in range(0, len(out), chunk):
            out[lo:lo + chunk] = _weighted_sums(_type_weights(measures[lo:lo + chunk], self.types), column)
        return out

    def fibre_tally(self, k: int):
        """Distinct (rest type, pattern) pairs of the coordinate-k fibres.

        Returns ``(rest, patterns, count)``, sorted by rest type and then
        pattern: ``count[i]`` rest points of type ``rest_types[rest[i]]``
        have the fibre ``patterns[i]``, the q outputs of f with coordinate k
        set to 0, ..., q-1.  Built on first use.
        """
        if self._fibres[k] is None:
            q, hi = self.q, self.outputs
            cube = self._table.reshape(q**k, q, -1)
            columns = [cube[:, v, :].reshape(-1) for v in range(q)]
            if len(self.rest_types) * hi**q <= _KEY_LIMIT:
                # One int64 key per rest point: rest type, then the pattern
                # as q base-hi digits.
                key = self._rest_ids.astype(np.int64)
                for col in columns:
                    key = key * hi + col
                keys, count = np.unique(key, return_counts=True)
                rest, code = np.divmod(keys, hi**q)
                patterns = (code[:, None] // hi ** np.arange(q - 1, -1, -1)) % hi
            else:
                # The key would overflow int64 (many symbols): sort whole rows.
                pairs, count = np.unique(np.column_stack([self._rest_ids, *columns]), axis=0,
                                         return_counts=True)
                rest, patterns = pairs[:, 0], pairs[:, 1:]
            self._fibres[k] = (rest, patterns, count)
        return self._fibres[k]

    def fibre_expectation(self, k: int, atoms: np.ndarray, g) -> float:
        """E over the other n-1 coordinates of g(nonconstant, mean) of the k-fibre.

        ``g`` maps the arrays (fibre is nonconstant, fibre mean under
        ``atoms``) to one value per fibre.
        """
        rest, patterns, count = self.fibre_tally(k)
        nonconstant = patterns.min(axis=1) != patterns.max(axis=1)
        # A {0,1} fibre's mean is a partial sum of the atoms, which can round
        # an ulp past 1; h profiles are defined on [0, 1] only.
        mean = np.minimum(patterns @ atoms, 1.0)
        per_type = np.bincount(rest, weights=count * g(nonconstant, mean), minlength=len(self.rest_types))
        return float(_weighted_sums(_type_weights(atoms[None, :], self.rest_types), per_type)[0])

    def line_derivative(self, base: np.ndarray, t: float) -> float:
        """d/dt Pr[f = 1] under (t delta_0 + (1-t) base)^n, base_0 = 0.

        The weight of type c is t^c0 (1-t)^(n-c0) prod_{j>0} base_j^c_j, a
        Bernstein polynomial in t, so the derivative is exact:
        sum_c N_1(c) w_c(t) (c0/t - (n-c0)/(1-t)), written without the
        divisions so that t = 0 needs no limit.
        """
        c0 = self.types[:, 0]
        rest = self.n - c0
        scale = _type_weights(base[None, 1:], self.types[:, 1:])[0]
        dw = (c0 * t ** np.maximum(c0 - 1, 0) * (1.0 - t) ** rest
              - rest * t**c0 * (1.0 - t) ** np.maximum(rest - 1, 0))
        return float((self.counts[:, 1] * scale * dw).sum())


def type_tally(f: FunctionSpec) -> TypeTally:
    """The type tally of ``f``: built on first use, kept until ``f`` is freed.

    The enumeration cap is checked once, just before the build, for tables
    and families alike; a tally that exists already passed it.
    """
    if f not in _TALLIES:
        check_cap(f.q, f.n)
        _TALLIES[f] = TypeTally(f, materialize_table(f))
    return _TALLIES[f]


def _check_measures(f: FunctionSpec, measures, a: int) -> np.ndarray:
    """The measures of one batch as an (m, q) float matrix, checked against f and a.

    The one input contract of every route's ``batch``: each row is a point
    of the simplex (atoms finite and in [0, 1], summing to 1 within
    ``ATOM_SUM_TOL``) and ``a`` is an output of f (:func:`check_output`).
    """
    measures = np.asarray(measures, dtype=float)
    if measures.ndim != 2:
        raise ValueError(f"expected an (m, {f.q}) matrix of measures")
    check_measure_q(f, measures.shape[1])
    check_output(f, a)
    total = measures @ np.ones(f.q)  # numpy's sum of short rows is slow
    if measures.size and not (measures.min() >= 0.0 and measures.max() <= 1.0  # NaN fails too
                              and 1.0 - ATOM_SUM_TOL <= total.min() and total.max() <= 1.0 + ATOM_SUM_TOL):
        raise ValueError(f"each measure row must be atoms in [0, 1] summing to 1 within {ATOM_SUM_TOL}")
    return measures


def bernstein_derivative(f: FunctionSpec, base: SimplexMeasure, t: float) -> float:
    """d/dt Pr[f = 1] along mix_t(base, t), read off the type tally.

    Along the line the probability is a degree-n polynomial in t, so this
    derivative is exact and shares no code with the fibre-sum identity or
    with finite differences.
    """
    require_zero_face(base)
    check_measure_q(f, base.q)
    t = float(t)
    if not 0.0 <= t < 1.0:
        raise ValueError(f"t must lie in [0, 1), got {t!r}")
    return type_tally(f).line_derivative(base.as_array(), t)


def tribes_prob_zero(fam: TribesVariant, p0: float | np.ndarray) -> float | np.ndarray:
    """Pr[some block is all zero] = 1 - (1 - p0^r)^(m-1) (1 - p0^last).

    Valid for any product measure whose zero-symbol mass is p0; the event
    depends on the coordinates only through their zero pattern.  ``p0`` is a
    scalar (the result is a float) or a 1-D array (the result is an array).
    """
    p = np.asarray(p0, dtype=float)
    if p.ndim > 1 or not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails too
        raise ValueError("p0 must be a scalar or a 1-D array with entries in [0, 1]")
    pz = 1.0 - _tribes_alive(fam, np.atleast_1d(p))
    return float(pz[0]) if p.ndim == 0 else pz


def _tribes_alive(fam: TribesVariant, p0: np.ndarray) -> np.ndarray:
    """Pr[no block is all zero] for each entry of a 1-D array of zero masses in [0, 1].

    Factors go by ascending block size, equal sizes share one power, so the
    rounding is fixed by (r, m, last) alone.  The complement of the zero
    event reads this product directly: 1 - (1 - alive) would lose the digits
    of a small product.
    """
    if fam.last == fam.r:
        sizes, mult = [fam.r], [fam.m]
    else:
        sizes, mult = [fam.r, fam.last], [fam.m - 1, 1]
    sizes, mult = np.array(sizes, dtype=float), np.array(mult, dtype=float)
    return np.prod((1.0 - p0[:, None] ** sizes[None, :]) ** mult[None, :], axis=1)


def _inverse_cdf(atoms: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Symbols G(u) for an array of uniforms u in [0, 1], by CDF inversion.

    G(u) is the smallest symbol whose cumulative mass strictly exceeds u,
    with G(1) pinned to q-1, so the pushforward of the uniform distribution
    is exactly the measure: symbol i owns an interval of length atom i
    (empty for a zero atom).  ``atoms`` is a row that
    :func:`_check_measures` accepted; ``u`` is not checked.
    """
    # G(u) counts the boundaries at or below u; the last boundary (the
    # total mass) is left out, which pins G(1) to q-1.  One comparison per
    # symbol beats a binary search for small q.
    idx = np.zeros(u.shape, dtype=np.int32)
    for bound in np.cumsum(atoms)[:-1]:
        idx += u >= bound
    return idx


def variance_of_indicator(f: FunctionSpec, mu: SimplexMeasure) -> float:
    """Var[f] = Pr[f = 1] Pr[f = 0] for a {0,1}-valued f.

    Both factors are read from the tally.  Forming 1 - Pr[f = 1] instead
    would keep only the last digits of Pr[f = 1] when it is close to 1.
    """
    if not type_tally(f).binary:
        raise ValueError("variance in this sense is defined for {0,1}-valued functions")
    evaluator = ExactEvaluator()
    return evaluator(f, mu, 1) * evaluator(f, mu, 0)


# ---------------------------------------------------------------------------
# Evaluator strategies for the threshold machinery


class Evaluator:
    """One route to Pr[f = a] under product measures.

    A route implements only ``batch(f, measures, a)``: one row of an (m, q)
    matrix of measures in, one row of an :class:`Estimate` out.  The scalar
    probe ``evaluator(f, mu, a)`` is row 0 of a one-row batch.
    """

    def batch(self, f: FunctionSpec, measures, a: int) -> Estimate:
        raise NotImplementedError

    def __call__(self, f: FunctionSpec, mu: SimplexMeasure, a: int) -> float:
        return float(self.batch(f, mu.as_array()[None, :], a).values[0])


class ExactEvaluator(Evaluator):
    """Tally-backed Pr[f = a]; exact but capped at q^n table size."""

    def batch(self, f: FunctionSpec, measures, a: int) -> Estimate:
        measures = _check_measures(f, measures, a)
        # A sum of nonnegative terms; rounding can only overshoot 1.
        values = np.minimum(type_tally(f).probabilities(measures, a), 1.0)
        return Estimate(values, 0.0, METHOD_EXACT, f.size)


class ClosedFormEvaluator(Evaluator):
    """Product-formula Pr for the tribes family's zero event and its complement.

    Covers every level 1[f = a] that :func:`~qthresh.functions.tribes_zero_level`
    names: the full family at a = 0 (and a = 1 when q = 2), and the
    indicator views of those outputs at either a.  The probability depends
    on mu only through atom 0, so no enumeration or sampling happens at any
    n.  Any other level is refused.
    """

    def batch(self, f: FunctionSpec, measures, a: int) -> Estimate:
        if f.family is None:
            raise ValueError("closed form requires a tribes family function")
        measures = _check_measures(f, measures, a)
        zero = tribes_zero_level(f, a)
        if zero is None:
            raise ValueError("closed form covers only the tribes zero event and its complement")
        values = (tribes_prob_zero if zero else _tribes_alive)(f.family, measures[:, 0])
        return Estimate(values, 0.0, METHOD_CLOSED, 0)


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

        The rows are checked before any stream is taken.  The chunk layout
        is fixed, so a row's draws depend only on its stream and on
        (f, measure, samples).
        """
        measures = _check_measures(f, measures, a)
        chunk = max(1, BATCH_CELLS // f.n)
        hits = np.zeros(len(measures), dtype=np.int64)
        for k, row in enumerate(measures):
            rng = np.random.default_rng(self._stream())
            for done in range(0, self.samples, chunk):
                X = _inverse_cdf(row, rng.random((min(chunk, self.samples - done), f.n)))
                hits[k] += np.count_nonzero(evaluate_batch(f, X) == a)
        return Estimate(hits / self.samples, binomial_std_error(hits, self.samples), METHOD_MC, self.samples)

    def coupled_line(self, n: int, base: SimplexMeasure, samples: int):
        """One coupled sample of the line t delta_0 + (1-t) base, in row chunks.

        Returns an iterator of ``(U, V)`` pairs: U is uniform on [0, 1)^n
        and V is drawn from base^n, one row per sample point.  The coupled state
        x_i(t) = 0 if U_i < t, else V_i, has law (t delta_0 + (1-t) base)^n
        at every t, and raising t only rewrites coordinates to 0 (the
        monotone coupling).  ``samples`` overrides the evaluator's own count
        for this call, which takes one stream, like one batch row.  Chunks
        of at most ``BATCH_CELLS // n`` rows keep memory bounded at any n.
        """
        if samples < 1:
            raise ValueError("samples must be positive")  # before the stream is taken
        rng = np.random.default_rng(self._stream())
        chunk = max(1, BATCH_CELLS // n)
        sizes = (min(chunk, samples - done) for done in range(0, samples, chunk))
        # Each chunk draws U, then V, from the stream: that order fixes the rows a seed gives.
        return ((rng.random((b, n)), _inverse_cdf(base.as_array(), rng.random((b, n)))) for b in sizes)
