"""Reference answers the benchmark checks qthresh outputs against.

Everything here is written from the definitions with numpy alone and shares
no code with ``src/qthresh``: the tribes closed form, a table generator for
random 0-monotone upsets, type-count enumeration of a table, fibre
influences, and the uniform-simplex marginal of atom 0.
"""
from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# Tribes: blocks of r coordinates, the remainder folded into the last block.


def tribes_blocks(n: int, r: int) -> tuple[tuple[int, int], ...]:
    """(block size, block count) pairs: blocks of r, the last one holding the remainder too."""
    m = n // r
    if m <= 1:
        return ((n, 1),)
    last = r + n - m * r
    return ((r, m),) if last == r else ((r, m - 1), (last, 1))


def tribes_r(n: int, p0: float) -> int:
    """Block size floor((ln n - ln ln n + ln ln(1/p0)) / ln(1/p0)), clamped to [1, n]."""
    b = math.log(1.0 / p0)
    raw = math.floor((math.log(n) - math.log(math.log(n)) + math.log(b)) / b)
    return min(n, max(1, raw))


def tribes_zero_prob(blocks, p0):
    """Pr[some block is all zero] when each coordinate is 0 with probability p0."""
    p0 = np.asarray(p0, dtype=float)
    log_alive = np.zeros_like(p0)
    for size, count in blocks:
        log_alive = log_alive + count * np.log1p(-(p0**size))
    return -np.expm1(log_alive)


def tribes_zero_prob_slope(blocks, p0: float) -> float:
    """d/dp0 of :func:`tribes_zero_prob`."""
    alive = 1.0 - float(tribes_zero_prob(blocks, p0))
    return alive * sum(count * s * p0 ** (s - 1) / (1.0 - p0**s) for s, count in blocks)


def tribes_crossing(blocks, target: float) -> float:
    """The p0 at which the zero event has probability ``target`` (bisection to 1 ulp)."""
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if tribes_zero_prob(blocks, mid) < target:
            lo = mid
        else:
            hi = mid


def tribes_table(q: int, n: int, blocks) -> np.ndarray:
    """Full value table: 0 if some block is all zero, else the first nonzero symbol."""
    cells = np.arange(q**n, dtype=np.int64)
    digits = np.empty((q**n, n), dtype=np.int8)
    for k in range(n - 1, -1, -1):
        cells, digits[:, k] = np.divmod(cells, q)
    zero = digits == 0
    dead = np.zeros(q**n, dtype=bool)
    pos = 0
    for size, count in blocks:
        for _ in range(count):
            dead |= zero[:, pos : pos + size].all(axis=1)
            pos += size
    first = digits[np.arange(q**n), np.argmax(~zero, axis=1)]
    return np.where(dead, 0, first).astype(np.int32)


# ---------------------------------------------------------------------------
# Random 0-monotone upsets and table files


def random_upset(q: int, n: int, seeds: int, rng: np.random.Generator) -> np.ndarray:
    """Indicator table of the up-closure (rewrite coordinates to 0) of random seed points."""
    hit = np.zeros(q**n, dtype=bool)
    hit[rng.choice(q**n, size=seeds, replace=False)] = True
    cube = hit.reshape((q,) * n)
    for k in range(n):
        sel = [slice(None)] * n
        sel[k] = 0
        cube[tuple(sel)] |= cube.any(axis=k)
    return cube.reshape(-1).astype(np.int32)


def write_table_file(path, q: int, n: int, kind: str, table: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"q={q} n={n} kind={kind}\n")
        fh.write("\n".join(map(str, table.tolist())))
        fh.write("\n")


# ---------------------------------------------------------------------------
# Enumeration of a table through its symbol-count types


class TypeTally:
    """Pr[f = a] under mu^n as sum over types c of N_a(c) prod_j mu_j^c_j.

    N_a(c) counts the cells of symbol-count type c that the table maps to a;
    building it visits every cell once.
    """

    def __init__(self, table: np.ndarray, q: int, n: int):
        cells = np.arange(q**n, dtype=np.int64)
        counts = np.zeros((q**n, q), dtype=np.int16)
        for _ in range(n):
            cells, digit = np.divmod(cells, q)
            counts[np.arange(q**n), digit] += 1
        key = counts.astype(np.int64) @ (n + 1) ** np.arange(q, dtype=np.int64)
        _, first, type_of = np.unique(key, return_index=True, return_inverse=True)
        self.types = counts[first].astype(float)
        self.tally = np.zeros((int(table.max()) + 1, len(first)))
        np.add.at(self.tally, (table, type_of.reshape(-1)), 1.0)

    def prob(self, mu, a: int) -> float:
        if a >= self.tally.shape[0]:
            return 0.0
        mono = np.prod(np.asarray(mu, dtype=float)[None, :] ** self.types, axis=1)
        return float(self.tally[a] @ mono)


# ---------------------------------------------------------------------------
# Fibre influences of a {0,1}-valued table


def _rest_weights(mu, n: int) -> np.ndarray:
    w = np.ones(1)
    for _ in range(n - 1):
        w = np.outer(w, mu).reshape(-1)
    return w


def fibre_means(table: np.ndarray, q: int, n: int, k: int, mu) -> np.ndarray:
    rows = np.moveaxis(table.reshape((q,) * n), k, -1).reshape(-1, q)
    return rows @ np.asarray(mu, dtype=float)


def variance_influences(table, q: int, n: int, mu) -> list[float]:
    w = _rest_weights(np.asarray(mu, dtype=float), n)
    return [float(w @ (m * (1.0 - m))) for m in (fibre_means(table, q, n, k, mu) for k in range(n))]


def h_paper(m: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        v = 2.0 * (1.0 - m) * (1.0 - np.log1p(-m))
    return np.where((m > 0.0) & (m < 1.0), v, 0.0)


def h_influences(table, q: int, n: int, mu) -> list[float]:
    w = _rest_weights(np.asarray(mu, dtype=float), n)
    return [float(w @ h_paper(fibre_means(table, q, n, k, mu))) for k in range(n)]


def zero_atom_cdf(x, q: int):
    """Pr[atom 0 <= x] for a uniform point of the simplex: 1 - (1 - x)^(q-1)."""
    return 1.0 - (1.0 - np.asarray(x, dtype=float)) ** (q - 1)
