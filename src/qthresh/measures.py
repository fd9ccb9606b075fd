"""Probability measures on [q] and the simplex paths used by threshold sweeps.

A measure is a point of the probability simplex: q nonnegative atoms summing
to one.  Threshold questions live on the boundary face where atom 0 vanishes;
the sweeps move from a base point on that face toward the point mass at
symbol 0 along a straight line.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A measure's atoms may sum to 1 within this (:func:`sums_to_one`).
ATOM_SUM_TOL = 1e-12


@dataclass(frozen=True)
class SimplexMeasure:
    """A probability measure on the symbol set {0, ..., q-1}."""

    atoms: tuple[float, ...]

    def __post_init__(self) -> None:
        atoms = tuple(float(a) for a in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if len(atoms) < 2:
            raise ValueError("a measure needs at least two atoms (q >= 2)")
        for j, a in enumerate(atoms):
            if not 0.0 <= a <= 1.0:  # NaN fails too
                raise ValueError(f"atom {j} is {a!r}; atoms must lie in [0, 1]")
        total = row_sums(np.array([atoms]))
        if not sums_to_one(total):
            raise ValueError(f"atoms sum to {float(total[0])!r}; must equal 1 within {ATOM_SUM_TOL}")

    @property
    def q(self) -> int:
        return len(self.atoms)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.atoms, dtype=float)

    def serialize(self) -> str:
        """Comma-separated decimal atoms, e.g. ``0,0.5,0.5``.  Round-trips exactly."""
        return ",".join(format(a, ".17g") for a in self.atoms)

    @classmethod
    def parse(cls, text: str) -> "SimplexMeasure":
        try:
            atoms = tuple(float(tok) for tok in text.split(","))
        except ValueError:
            raise ValueError(f"bad measure string {text!r}: atoms must be decimal numbers") from None
        return cls(atoms)

    @classmethod
    def normalized(cls, weights) -> "SimplexMeasure":
        """Scale a nonnegative weight vector so it sums exactly to one."""
        w = [float(v) for v in weights]
        total = math.fsum(w)
        if not math.isfinite(total) or total <= 0.0:
            raise ValueError("weights must be finite with positive total mass")
        return cls(tuple(v / total for v in w))


def row_sums(rows: np.ndarray) -> np.ndarray:
    """Each row's sum, left to right column by column: a row gets the same digits alone or in a batch."""
    total = rows[:, 0].copy()
    for j in range(1, rows.shape[1]):
        total += rows[:, j]
    return total


def sums_to_one(total: np.ndarray) -> bool:
    """The one simplex-sum rule: every :func:`row_sums` atom total (at least one) is 1 within ATOM_SUM_TOL."""
    return abs(total.min() - 1.0) <= ATOM_SUM_TOL and abs(total.max() - 1.0) <= ATOM_SUM_TOL  # a NaN total is not


def require_zero_face(mu: SimplexMeasure) -> None:
    """Reject measures with mass at symbol 0 (sweep bases must have atom 0 == 0)."""
    if mu.atoms[0] != 0.0:
        raise ValueError(f"base measure must place zero mass at symbol 0, got {mu.atoms[0]!r}")


def line_rows(base: SimplexMeasure, ts) -> np.ndarray:
    """The line mixtures t*delta_0 + (1-t)*base, one row per t of ``ts``.

    ``base`` must have no mass at symbol 0 and every t must lie in [0, 1].
    Returns an (m, q) matrix whose row k has atom 0 equal to ``ts[k]``
    exactly and base's other atoms scaled by (1 - ts[k]).
    """
    require_zero_face(base)
    ts = np.asarray(ts, dtype=float)
    bad = ts[~((ts >= 0.0) & (ts <= 1.0))]  # NaN is bad too
    if bad.size:
        raise ValueError(f"t must lie in [0, 1], got {float(bad[0])!r}")
    rows = np.empty((len(ts), base.q))
    rows[:, 0] = ts
    rows[:, 1:] = np.outer(1.0 - ts, base.atoms[1:])
    return rows


def derivative_ts(ts) -> np.ndarray:
    """A grid of t where a line derivative is taken, as a 1-D array; each in [0, 1)."""
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ValueError(f"expected a 1-D grid of t, got shape {ts.shape}")
    bad = ts[~((ts >= 0.0) & (ts < 1.0))]  # NaN is bad too
    if bad.size:
        raise ValueError(f"t must lie in [0, 1), got {float(bad[0])!r}")
    return ts


def second_smallest_atom(mu: SimplexMeasure) -> float:
    """Smallest atom over symbols 1..q-1 (symbol 0 excluded)."""
    return min(mu.atoms[1:])


def central_measure(q: int) -> SimplexMeasure:
    """Uniform measure on symbols 1..q-1 with zero mass at symbol 0."""
    if q < 2:
        raise ValueError("q must be at least 2")
    return SimplexMeasure((0.0,) + (1.0 / (q - 1),) * (q - 1))


def sample_uniform_batch(q: int, count: int, rng) -> np.ndarray:
    """Matrix of ``count`` uniform (Lebesgue) simplex points, one per row.

    Uses the exponential trick: q iid Exp(1) variates divided by their sum
    are Dirichlet(1, ..., 1), which is the uniform distribution.  ``rng``
    may be a seed or an ``np.random.Generator``; the variates are drawn
    row-major from it, so k rows and then m more from one generator are
    the rows of one draw of k + m.  Each row is divided by its
    :func:`row_sums`.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if count < 0:
        raise ValueError("count must be nonnegative")
    g = np.random.default_rng(rng).exponential(size=(count, q))
    g /= row_sums(g)[:, None]
    return g
