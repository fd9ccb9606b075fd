"""Output-probability evaluation under product measures.

Three routes to Pr[f(x) = a] when the n coordinates are iid from a simplex
measure: exact enumeration of [q]^n, a closed-form product for the tribes
family, and Monte Carlo via a quantile encoding of the measure.  The routes
are deliberately independent so they can cross-check each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import (
    DEFAULT_CAP,
    KIND_FULL,
    KIND_INDICATOR,
    FunctionSpec,
    TribesVariant,
    check_cap,
    evaluate_batch,
    materialize_table,
)
from .measures import SimplexMeasure

_MC_BATCH_CELLS = 4_000_000

METHOD_EXACT = "exact-enumeration"
METHOD_CLOSED = "closed-form"
METHOD_MC = "monte-carlo"


@dataclass(frozen=True)
class Estimate:
    """A probability estimate with its sampling uncertainty.

    Deterministic methods report std_error 0; Monte Carlo reports the
    binomial standard error, with the rule-of-three surrogate 3/samples when
    the empirical rate sits exactly at 0 or 1.
    """

    value: float
    std_error: float
    method: str
    samples: int

    def __post_init__(self) -> None:
        if self.method not in (METHOD_EXACT, METHOD_CLOSED, METHOD_MC):
            raise ValueError(f"unknown method {self.method!r}")
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"estimate {self.value!r} outside [0, 1]")
        if self.std_error < 0.0:
            raise ValueError("std_error must be nonnegative")
        if self.method != METHOD_MC and self.std_error != 0.0:
            raise ValueError(f"{self.method} is deterministic; std_error must be 0")


def product_weights(mu: SimplexMeasure, n: int, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Vector of point probabilities under mu^n in lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_cap(mu.q, n, cap)
    atoms = mu.as_array()
    w = np.ones(1)
    for _ in range(n):
        w = (w[:, None] * atoms[None, :]).reshape(-1)
    return w


def exact_probability(f: FunctionSpec, mu: SimplexMeasure, a: int, cap: int = DEFAULT_CAP) -> Estimate:
    """Pr[f(x) = a] by full enumeration of [q]^n."""
    if mu.q != f.q:
        raise ValueError(f"measure has q={mu.q}, function has q={f.q}")
    if not 0 <= a < f.q:
        raise ValueError(f"symbol a={a} out of range for q={f.q}")
    tbl = materialize_table(f, cap)
    w = product_weights(mu, f.n, cap)
    p = float(w[tbl == a].sum())
    return Estimate(value=min(1.0, max(0.0, p)), std_error=0.0, method=METHOD_EXACT, samples=f.size)


def tribes_prob_zero(fam: TribesVariant, p0: float | np.ndarray) -> float | np.ndarray:
    """Pr[some block is all zero] = 1 - (1 - p0^r)^(m-1) (1 - p0^last).

    Valid for any product measure whose zero-symbol mass is p0; the event
    depends on the coordinates only through their zero pattern.  ``p0`` is a
    scalar (the result is a float) or a 1-D array (the result is an array).
    """
    p = np.asarray(p0, dtype=float)
    if p.ndim > 1:
        raise ValueError(f"p0 must be a scalar or a 1-D array, got shape {p.shape}")
    pz = 1.0 - _tribes_alive(fam, np.atleast_1d(p))
    return float(pz[0]) if p.ndim == 0 else pz


def _tribes_alive(fam: TribesVariant, p0: np.ndarray) -> np.ndarray:
    """Pr[no block is all zero] for each entry of a 1-D array of zero masses.

    Factors go by ascending block size, equal sizes share one power, so the
    rounding is fixed by (r, m, last) alone.  The indicator's output 0 reads
    this product directly: 1 - (1 - alive) would lose the digits of a small
    product.
    """
    ok = (p0 >= 0.0) & (p0 <= 1.0)
    if not ok.all():
        raise ValueError(f"p0 must lie in [0, 1], got {float(p0[~ok][0])!r}")
    if fam.last == fam.r:
        sizes, mult = [fam.r], [fam.m]
    else:
        sizes, mult = [fam.r, fam.last], [fam.m - 1, 1]
    sizes, mult = np.array(sizes, dtype=float), np.array(mult, dtype=float)
    return np.prod((1.0 - p0[:, None] ** sizes[None, :]) ** mult[None, :], axis=1)


@dataclass(frozen=True, eq=False)
class QuantileMap:
    """CDF inversion of a simplex measure: [0, 1] -> symbols.

    G(u) is the smallest symbol whose cumulative mass strictly exceeds u,
    with G(1) pinned to q-1.  The pushforward of the uniform distribution on
    [0, 1] is exactly the measure; symbol i owns an interval whose length is
    atom i (empty for zero atoms).
    """

    atoms: tuple[float, ...]
    boundaries: np.ndarray

    def __call__(self, u):
        arr = np.asarray(u, dtype=float)
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise ValueError("quantile arguments must lie in [0, 1]")
        idx = np.searchsorted(self.boundaries, arr, side="right")
        idx = np.minimum(idx, len(self.atoms) - 1)
        if np.isscalar(u) or arr.ndim == 0:
            return int(idx)
        return idx.astype(np.int32)


def quantile_encode(mu: SimplexMeasure) -> QuantileMap:
    bounds = np.cumsum(mu.as_array())
    bounds.setflags(write=False)
    return QuantileMap(atoms=mu.atoms, boundaries=bounds)


def mc_probability(f: FunctionSpec, mu: SimplexMeasure, a: int, samples: int, seed) -> Estimate:
    """Monte Carlo Pr[f(x) = a]: sample uniforms, quantile-encode, evaluate.

    Deterministic given (f, mu, a, samples, seed): the batch layout is fixed,
    so the stream of uniforms does not depend on anything else.
    """
    if mu.q != f.q:
        raise ValueError(f"measure has q={mu.q}, function has q={f.q}")
    if not 0 <= a < f.q:
        raise ValueError(f"symbol a={a} out of range for q={f.q}")
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    gmap = quantile_encode(mu)
    batch = max(1, _MC_BATCH_CELLS // f.n)
    hits = 0
    done = 0
    while done < samples:
        b = min(batch, samples - done)
        X = gmap(rng.random((b, f.n)))
        hits += int((evaluate_batch(f, X) == a).sum())
        done += b
    phat = hits / samples
    if hits in (0, samples):
        se = 3.0 / samples
    else:
        se = math.sqrt(phat * (1.0 - phat) / samples)
    return Estimate(value=phat, std_error=se, method=METHOD_MC, samples=samples)


def variance_of_indicator(f: FunctionSpec, mu: SimplexMeasure, cap: int = DEFAULT_CAP) -> float:
    """Var[f] = p(1-p) for a {0,1}-valued f with p = Pr[f = 1]."""
    if f.kind != KIND_INDICATOR:
        tbl = materialize_table(f, cap)
        if tbl.size and tbl.max() > 1:
            raise ValueError("variance in this sense is defined for {0,1}-valued functions")
    p = exact_probability(f, mu, 1, cap).value
    return p * (1.0 - p)


# ---------------------------------------------------------------------------
# Evaluator strategies for the threshold machinery


class ExactEvaluator:
    """Enumeration-backed Pr[f = a]; exact but capped at q^n table size."""

    stochastic = False

    def __init__(self, cap: int = DEFAULT_CAP):
        self.cap = cap

    def __call__(self, f: FunctionSpec, mu: SimplexMeasure, a: int) -> float:
        return exact_probability(f, mu, a, cap=self.cap).value


class ClosedFormEvaluator:
    """Product-formula Pr for the tribes family's zero event.

    Covers the [q]-valued family at a = 0 and its indicator-of-0 view at
    either output; the probability depends on mu only through atom 0, so no
    enumeration or sampling happens at any n.
    """

    stochastic = False

    def __call__(self, f: FunctionSpec, mu: SimplexMeasure, a: int) -> float:
        return float(self.batch(f, mu.as_array()[None, :], a)[0])

    def batch(self, f: FunctionSpec, measures: np.ndarray, a: int) -> np.ndarray:
        if f.family is None:
            raise ValueError("closed form requires a tribes family function")
        measures = np.asarray(measures, dtype=float)
        if measures.ndim != 2 or measures.shape[1] != f.q:
            raise ValueError(f"expected an (m, {f.q}) matrix of measures")
        if f.kind == KIND_FULL:
            if a != 0:
                raise ValueError("closed form covers only the a=0 output of the full family")
            want_zero_event = True
        else:
            if f.indicator_of != 0:
                raise ValueError("closed form covers only the indicator of output 0")
            if a not in (0, 1):
                raise ValueError("indicator outputs are 0 and 1")
            want_zero_event = a == 1
        if want_zero_event:
            return tribes_prob_zero(f.family, measures[:, 0])
        return _tribes_alive(f.family, measures[:, 0])


class MonteCarloEvaluator:
    """Sampling-backed Pr[f = a] with per-call deterministic substreams.

    Call k draws from a stream seeded by (seed, k), so a fresh evaluator
    replays an identical sweep while successive calls stay independent.
    """

    stochastic = True

    def __init__(self, samples: int, seed: int):
        if samples < 1:
            raise ValueError("samples must be positive")
        self.samples = int(samples)
        self.seed = int(seed)
        self.calls = 0
        self.last_estimate: Estimate | None = None

    def __call__(self, f: FunctionSpec, mu: SimplexMeasure, a: int, samples: int | None = None) -> float:
        stream = np.random.SeedSequence((self.seed, self.calls))
        self.calls += 1
        est = mc_probability(f, mu, a, self.samples if samples is None else samples, seed=stream)
        self.last_estimate = est
        return est.value
