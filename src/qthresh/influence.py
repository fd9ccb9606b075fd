"""Coordinate influences for functions on [q]^n under product measures.

Three influence notions for a {0,1}-valued f, all expectations over the
other n-1 coordinates of a statistic of the one-coordinate fibre:

* geometric: probability that the fibre is nonconstant,
* variance: expected conditional variance of the fibre,
* h-weighted: expectation of h(fibre mean) for a supplied weight profile h.

The weight profile ``h_paper`` dominating the binary entropy is the one the
threshold lower-bound machinery needs, alongside the per-coordinate
derivative contribution ``phi_k``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evaluate import type_tally, variance_of_indicator
from .functions import FunctionSpec, check_measure_q
from .measures import SimplexMeasure


def _fibre_expectation(f: FunctionSpec, mu: SimplexMeasure, k: int, g, binary: bool = True) -> float:
    """E over the rest coordinates of g(nonconstant, mean) of the k-fibre."""
    check_measure_q(f, mu.q)
    if not 0 <= k < f.n:
        raise ValueError(f"coordinate k={k} out of range for n={f.n}")
    tally = type_tally(f)
    if binary and not tally.binary:
        raise ValueError("this influence needs a {0,1}-valued function")
    return tally.fibre_expectation(k, mu.as_array(), g)


def influence_bkkkl(f: FunctionSpec, mu: SimplexMeasure, k: int) -> float:
    """Probability over the rest coordinates that the k-fibre is nonconstant."""
    return _fibre_expectation(f, mu, k, lambda nonconst, m: nonconst, binary=False)


def influence_variance(f: FunctionSpec, mu: SimplexMeasure, k: int) -> float:
    """Expected conditional variance E[m(1-m)] of the k-fibre mean m."""
    return _fibre_expectation(f, mu, k, lambda nonconst, m: m * (1.0 - m))


def influence_h(f: FunctionSpec, mu: SimplexMeasure, k: int, h) -> float:
    """E over rest coordinates of h(fibre mean); h maps an array of means in [0, 1]."""
    return _fibre_expectation(f, mu, k, lambda nonconst, m: h(m))


def phi_k(f: FunctionSpec, mu: SimplexMeasure, k: int) -> float:
    """E[ 1[k-fibre nonconstant] * (1 - fibre mean) ] under mu.

    Summed over k and divided by (1 - t) this is the exact derivative of
    Pr[f = 1] along the line mixture for 0-monotone indicators.
    """
    return _fibre_expectation(f, mu, k, lambda nonconst, m: nonconst * (1.0 - m))


# ---------------------------------------------------------------------------
# Weight profiles on [0, 1]


def _profile(t, values_fn):
    arr = np.asarray(t, dtype=float)
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise ValueError("weight profiles are defined on [0, 1]")
    out = values_fn(arr)
    if np.isscalar(t) or arr.ndim == 0:
        return float(out)
    return out


def ent(t):
    """Binary entropy -t ln t - (1-t) ln(1-t) in nats, 0 at the endpoints."""

    def values(arr):
        with np.errstate(divide="ignore", invalid="ignore"):
            v = -arr * np.log(arr) - (1.0 - arr) * np.log1p(-arr)
        return np.where((arr == 0.0) | (arr == 1.0), 0.0, v)

    return _profile(t, values)


def h_paper(t):
    """The profile 2 (1-t) (1 - ln(1-t)) on (0, 1), zero at the endpoints.

    Dominates the binary entropy pointwise, which is what the threshold
    lower bound needs from a weight profile.
    """

    def values(arr):
        with np.errstate(divide="ignore", invalid="ignore"):
            v = 2.0 * (1.0 - arr) * (1.0 - np.log1p(-arr))
        return np.where((arr > 0.0) & (arr < 1.0), v, 0.0)

    return _profile(t, values)


def h_variance(t):
    """t(1-t); plugging it into influence_h recovers the variance influence."""
    return _profile(t, lambda arr: arr * (1.0 - arr))


def h_nonconstant(t):
    """Indicator of (0, 1); recovers the geometric influence when every
    symbol has positive mass (zero-mass symbols can hide a nonconstant fibre
    behind a degenerate mean)."""
    return _profile(t, lambda arr: ((arr > 0.0) & (arr < 1.0)).astype(float))


# ---------------------------------------------------------------------------
# Profiles across coordinates and the max-influence diagnostic


_PROFILE_KINDS = ("bkkkl", "variance", "h")


@dataclass(frozen=True)
class InfluenceProfile:
    """Per-coordinate influences of one kind, in coordinate order."""

    kind: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in _PROFILE_KINDS:
            raise ValueError(f"kind must be one of {_PROFILE_KINDS}, got {self.kind!r}")
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        for k, v in enumerate(values):
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"influence {k} is {v!r}; must be finite and nonnegative")
            if self.kind == "bkkkl" and v > 1.0 + 1e-12:
                raise ValueError(f"geometric influence {v!r} exceeds 1")
            if self.kind == "variance" and v > 0.25 + 1e-12:
                raise ValueError(f"variance influence {v!r} exceeds 1/4")

    @property
    def n(self) -> int:
        return len(self.values)

    def max_coordinate(self) -> tuple[int, float]:
        k = max(range(self.n), key=lambda j: self.values[j])
        return k, self.values[k]


def influence_profile(f: FunctionSpec, mu: SimplexMeasure, kind: str) -> InfluenceProfile:
    """All n influences of one kind; ``kind='h'`` weights by h_paper."""
    if kind == "bkkkl":
        vals = [influence_bkkkl(f, mu, k) for k in range(f.n)]
    elif kind == "variance":
        vals = [influence_variance(f, mu, k) for k in range(f.n)]
    elif kind == "h":
        vals = [influence_h(f, mu, k, h_paper) for k in range(f.n)]
    else:
        raise ValueError(f"kind must be one of {_PROFILE_KINDS}, got {kind!r}")
    return InfluenceProfile(kind=kind, values=tuple(vals))


@dataclass(frozen=True)
class KellerDiagnostic:
    """Largest h_paper-influence against the variance-scaled benchmark.

    ``ratio`` is max_k I_k / (Var(f) ln(n) / n), reported as None when the
    benchmark degenerates (constant f, or n = 1 where ln n = 0).
    """

    max_value: float
    argmax_k: int
    variance: float
    denominator: float
    ratio: float | None


def keller_diagnostic(f: FunctionSpec, mu: SimplexMeasure) -> KellerDiagnostic:
    prof = influence_profile(f, mu, "h")
    argmax_k, max_value = prof.max_coordinate()
    variance = variance_of_indicator(f, mu)
    denominator = variance * math.log(f.n) / f.n
    ratio = max_value / denominator if denominator > 0.0 else None
    return KellerDiagnostic(
        max_value=max_value,
        argmax_k=argmax_k,
        variance=variance,
        denominator=denominator,
        ratio=ratio,
    )
