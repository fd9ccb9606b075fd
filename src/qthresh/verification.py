"""Self-check suites: identities and inequalities verified by dual routes.

Each suite pits an implementation against an independent oracle (the
Bernstein derivative of the type tally and finite differences against the
fibre-sum derivative, the exact tally against the closed form and against
brute-force enumeration, an all-pairs order oracle against the
covering-relation check) and records every comparison into the recorder it
is given.  :func:`run_suites` is the harness: it names, times and collects
the suites, one :class:`SuiteResult` each.  The CLI exposes the suites
behind ``verify``; the acceptance tests run them at pinned tolerances.

Each answer is one fresh process, which compiles every module it imports
where bytecode is not cached.  So each suite imports the influence and
threshold names it reads inside its function: ``verify --suite closed``
compiles neither module, and ``verify --suite hent`` only the influence one.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .evaluate import (
    ClosedFormEvaluator,
    ExactEvaluator,
    bernstein_derivative,
    product_weights,
    type_tally,
)
from .functions import (
    FunctionSpec,
    build_tribes,
    from_table,
    indicator,
    leq_a,
    level_rises,
    materialize_table,
    random_zero_monotone,
)
from .measures import SimplexMeasure, central_measure, line_rows, second_smallest_atom


# Step of the finite-difference oracle.  Machine epsilon over 2*FD_STEP is
# about 5.5e-12, so a central difference below FD_NOISE_FLOOR carries no signal.
FD_STEP = 1e-5
FD_NOISE_FLOOR = 1e-10

# Two exact routes to one quantity differ only by the rounding of a few dozen
# terms, far below this; it is also the slack of every exact inequality checked.
ROUNDING_TOL = 1e-12

FD_REL_TOL = 1e-6  # finite differences against the identity on random upsets
SINGLE_VARIABLE_REL_TOL = 1e-8  # the n = 1 identity against its direct formula and finite differences
HENT_GRID_POINTS = 10**6 + 1  # where suite_hent compares h_paper with entropy
_HENT_BLOCK = 2**15  # grid points suite_hent evaluates at a time
_KEEP_FAILURES = 12  # failure messages a suite keeps; at least 1, since a kept one marks the suite failed
_BASE_SPREAD = 0.5  # full_support_bases draws each atom weight in 1 +- this


def _fd_close(exact: float, approx: float, rel_tol: float) -> tuple[bool, float]:
    diff = abs(exact - approx)
    rel = diff / max(abs(exact), abs(approx), 1e-300)
    return (rel <= rel_tol or diff <= FD_NOISE_FLOOR), rel


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    checks: int
    failures: tuple[str, ...]
    seconds: float


class _Recorder:
    """Counts comparisons and keeps the first few failure messages: a suite failed when it kept one."""

    def __init__(self):
        self.checks = 0
        self.failures: list[str] = []

    def record(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok and len(self.failures) < _KEEP_FAILURES:
            self.failures.append(message)


# ---------------------------------------------------------------------------
# Shared corpora and oracles


def fd_probability_derivative(f: FunctionSpec, base: SimplexMeasure, ts) -> np.ndarray:
    """Finite-difference oracle for d/dt Pr[f = 1] along the line mixture, one value per t in [0, 1].

    Central stencil in the interior, one-sided second-order stencils
    stepping inward within FD_STEP of the endpoints, with every stencil
    point of the grid in one exact batch.  Entirely independent of the
    fibre-sum identity.
    """
    dt = FD_STEP
    ts = np.asarray(ts, dtype=float).tolist()
    steps = [dt if u < dt else -dt if u > 1.0 - dt else 0.0 for u in ts]  # 0: central
    points = [(u, u + h, u + 2.0 * h) if h else (u + dt, u - dt) for u, h in zip(ts, steps)]
    p = iter(ExactEvaluator().batch(f, line_rows(base, [u for s in points for u in s]), 1).values.tolist())
    out = []
    for h in steps:
        if h:  # at h = -dt this is (3 p0 - 4 p1 + p2) / (2 dt) to the bit: negation is exact
            p0, p1, p2 = next(p), next(p), next(p)
            out.append((-3.0 * p0 + 4.0 * p1 - p2) / (2.0 * h))
        else:
            p_hi, p_lo = next(p), next(p)
            out.append((p_hi - p_lo) / (2.0 * dt))
    return np.array(out)


def full_support_bases(q: int, count: int, seed: int) -> list[SimplexMeasure]:
    """Zero-face bases whose remaining atoms stay well away from 0."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        w = rng.uniform(1.0 - _BASE_SPREAD, 1.0 + _BASE_SPREAD, size=q - 1)
        w = w / w.sum()
        out.append(SimplexMeasure((0.0,) + tuple(w)))
    return out


def upset_corpus(q: int, n: int, count: int, seed: int) -> list[FunctionSpec]:
    """Nonconstant random 0-monotone indicators, deterministic in the seed."""
    rng = np.random.default_rng(seed)
    out: list[FunctionSpec] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 50 * count:
            raise RuntimeError("could not find enough nonconstant upsets")
        density = float(rng.uniform(0.1, 0.6))
        f = random_zero_monotone(q, n, density, seed=rng.integers(2**63))
        tbl = f.table
        if tbl.min() != tbl.max():
            out.append(f)
    return out


def dictator_indicator(q: int, n: int) -> FunctionSpec:
    """1[x_0 = 0]: the sharpest single-coordinate threshold function."""
    digits = np.arange(q**n) // q ** (n - 1)
    return FunctionSpec(q=q, n=n, kind="indicator", table=(digits == 0).astype(np.int32))


# ---------------------------------------------------------------------------
# Suites


def suite_order(rec: _Recorder) -> None:
    """Partial-order laws of :func:`leq_a` on [3]^n for n <= 3, plus
    covering-check vs all-pairs-oracle agreement."""
    for n in (1, 2, 3):
        points = list(itertools.product(range(3), repeat=n))
        m = len(points)
        for a in range(3):
            rel = np.zeros((m, m), dtype=bool)
            for ix, x in enumerate(points):
                for iy, y in enumerate(points):
                    rel[ix, iy] = leq_a(x, y, a)
            rec.record(bool(rel.diagonal().all()), f"reflexivity fails (n={n}, a={a})")
            off_diagonal_cycles = rel & rel.T & ~np.eye(m, dtype=bool)
            rec.record(not off_diagonal_cycles.any(), f"antisymmetry fails (n={n}, a={a})")
            reach2 = (rel.astype(np.int64) @ rel.astype(np.int64)) > 0
            rec.record(bool((~reach2 | rel).all()), f"transitivity fails (n={n}, a={a})")

    # Covering-relation check must agree with the brute-force oracle on a
    # mixed corpus: monotone upsets, a hand-picked near-miss, random tables.
    corpus: list[FunctionSpec] = list(upset_corpus(3, 3, 6, seed=20260822))
    corpus.append(from_table(3, 1, [1, 1, 0], kind="indicator"))
    rng = np.random.default_rng(7)
    for _ in range(6):
        corpus.append(from_table(3, 2, rng.integers(0, 2, size=9), kind="indicator"))
    for f in corpus:
        points = list(itertools.product(range(f.q), repeat=f.n))
        values = materialize_table(f).tolist()  # lexicographic, the order of points
        # Only a pair where the table drops can refute monotonicity, so the
        # comparator is asked about those pairs alone.
        drops = [(x, y) for (x, u), (y, v) in itertools.product(zip(points, values), repeat=2) if u > v]
        for a in range(f.q):
            oracle = not any(leq_a(x, y, a) for x, y in drops)
            fast = level_rises(f, 1, a)
            rec.record(
                fast == oracle,
                f"covering check ({fast}) disagrees with all-pairs oracle ({oracle}) "
                f"on a {f.q}^{f.n} table at a={a}",
            )


def suite_rm(rec: _Recorder) -> None:
    """Derivative identity on 20 random upsets, against two oracles.

    The noise-free one is the Bernstein derivative of the type tally, which
    must agree to rounding; finite differences of the exact probability must
    agree to ``FD_REL_TOL`` or to their noise floor.
    """
    from .threshold import rm_derivative_exact

    corpus = upset_corpus(3, 3, 20, seed=11)
    bases = full_support_bases(3, 3, seed=12)
    t_grid = (0.0,) + tuple(np.linspace(0.1, 0.9, 9))
    for fi, f in enumerate(corpus):
        base = bases[fi % len(bases)]
        rows = zip(t_grid, rm_derivative_exact(f, base, t_grid).tolist(),
                   bernstein_derivative(f, base, t_grid).tolist(), fd_probability_derivative(f, base, t_grid).tolist())
        for t, exact, analytic, approx in rows:
            diff = abs(exact - analytic)
            rec.record(
                diff <= ROUNDING_TOL * max(1.0, abs(analytic)),
                f"identity vs Bernstein derivative differ by {diff:.3e} (function {fi}, t={t})",
            )
            ok, rel = _fd_close(exact, approx, FD_REL_TOL)
            rec.record(
                ok,
                f"identity vs finite difference: rel err {rel:.3e} > {FD_REL_TOL:.1e} "
                f"(function {fi}, t={t})",
            )


def suite_single_variable(rec: _Recorder) -> None:
    """n=1 case: identity equals the direct one-coordinate formula and the
    finite-difference oracle on every 0-monotone indicator over [3]."""
    from .threshold import rm_derivative_exact

    monotone = []
    for values in itertools.product((0, 1), repeat=3):
        f = from_table(3, 1, values, kind="indicator")
        if level_rises(f, 1, 0):
            monotone.append((values, f))
    rec.record(len(monotone) == 5, f"expected 5 single-variable 0-monotone indicators, got {len(monotone)}")
    bases = [SimplexMeasure((0.0, 0.5, 0.5)), SimplexMeasure((0.0, 0.2, 0.8)), SimplexMeasure((0.0, 0.35, 0.65))]
    t_grid = np.linspace(0.05, 0.95, 19)
    for values, f in monotone:
        nonconst = min(values) != max(values)
        for base in bases:
            rows = zip(t_grid.tolist(), line_rows(base, t_grid), rm_derivative_exact(f, base, t_grid).tolist(),
                       fd_probability_derivative(f, base, t_grid).tolist())
            for t, atoms, via_identity, approx in rows:
                direct = 0.0
                if nonconst:
                    mean = sum(atoms[v] * values[v] for v in range(3))
                    direct = (1.0 - mean) / (1.0 - t)
                rec.record(
                    abs(via_identity - direct) <= SINGLE_VARIABLE_REL_TOL * max(abs(direct), 1e-300) + 1e-15,
                    f"identity vs direct formula differ on table {values} at t={t:.3f}",
                )
                ok, rel = _fd_close(via_identity, approx, SINGLE_VARIABLE_REL_TOL)
                rec.record(
                    ok,
                    f"finite difference off by rel {rel:.3e} on table {values} at t={t:.3f}",
                )


def suite_alpha(rec: _Recorder) -> None:
    """Nonconstant fibres keep expected complement mass at least alpha(1-t)."""
    corpus = upset_corpus(3, 4, 20, seed=23)
    corpus.append(indicator(build_tribes(3, 4, 0.5, r=2), 0))
    corpus.append(dictator_indicator(3, 4))
    bases = full_support_bases(3, 5, seed=24)
    t_grid = (0.0, 0.25, 0.5, 0.75, 0.9)
    for fi, f in enumerate(corpus):
        tbl = materialize_table(f).reshape((f.q,) * f.n)
        fibres = []
        for k in range(f.n):
            rows = np.moveaxis(tbl, k, -1).reshape(-1, f.q)
            nonconst = rows.min(axis=1) != rows.max(axis=1)
            if nonconst.any():
                fibres.append((k, rows[nonconst]))
        for base in bases:
            alpha = second_smallest_atom(base)
            floor = alpha * (1.0 - np.array(t_grid)) - ROUNDING_TOL
            line = line_rows(base, t_grid)
            # held[k][i]: every nonconstant k-fibre keeps the mass at t_grid[i]
            held = [((1.0 - rows @ line.T) >= floor).all(axis=0) for _, rows in fibres]
            for i, t in enumerate(t_grid):
                for (k, _), ok in zip(fibres, held):
                    rec.record(bool(ok[i]), f"complement mass dips below alpha(1-t) (function {fi}, k={k}, t={t})")


def _hent_grid(lo: int, hi: int) -> np.ndarray:
    """Points lo..hi-1 of ``np.linspace(0.0, 1.0, HENT_GRID_POINTS)``: the same floats.

    linspace sets point i to i * (1 / (points - 1)) and the last point to 1.
    """
    t = np.arange(lo, hi, dtype=float)
    t *= 1.0 / (HENT_GRID_POINTS - 1)
    if hi == HENT_GRID_POINTS:
        t[-1] = 1.0
    return t


def suite_hent(rec: _Recorder) -> None:
    """The h_paper weight dominates binary entropy across [0, 1].

    The grid is scanned in blocks of ``_HENT_BLOCK`` points; a failure
    names the first grid point where the gap is least.
    """
    from .influence import ent, h_paper

    lows, low_ts = [], []  # each block's least gap (or first NaN) and where
    for lo in range(0, HENT_GRID_POINTS, _HENT_BLOCK):
        grid = _hent_grid(lo, min(lo + _HENT_BLOCK, HENT_GRID_POINTS))
        gap = h_paper(grid) - ent(grid)
        if lo == 0:
            first = float(gap[0])
        i = int(gap.argmin())
        lows.append(float(gap[i]))
        low_ts.append(float(grid[i]))
    j = int(np.argmin(lows))
    worst = lows[j]
    rec.record(worst >= -ROUNDING_TOL, f"profile drops below entropy by {-worst:.3e} at t={low_ts[j]:.6f}")
    rec.record(first == 0.0 and float(gap[-1]) == 0.0, "endpoints must agree exactly")


def suite_closed(rec: _Recorder) -> None:
    """Tribes closed form against the exact tally at accessible sizes.

    Checks every output of every view (the full function and the indicator
    of each symbol), one batch of all the measures per output.  A tribes
    tally is folded from the last coordinate's fibres as counted from the
    blocks, never from a table, and shares the closed form's symmetry
    argument, so every output of the tally is then checked against
    brute-force enumeration: the weights of the points under mu^n summed
    over the materialised table, with no type counts.  That check ties the
    family's one count rule to enumeration at the last coordinate, as
    :func:`suite_influence` does at others.  The
    closed-form checks of a case come first, so a fault they see is among
    the failure messages a suite keeps.
    """
    rng = np.random.default_rng(5)
    cases = [
        build_tribes(3, 4, 0.5, r=2),
        build_tribes(3, 4, 0.5),
        build_tribes(3, 6, 0.5, r=2),
        build_tribes(3, 6, 0.3, r=4),
        build_tribes(4, 5, 0.4, r=2),
    ]
    for f in cases:
        mus = [SimplexMeasure((0.5, 0.25, 0.25)) if f.q == 3 else SimplexMeasure((0.4, 0.2, 0.2, 0.2))]
        for _ in range(10):
            w = rng.exponential(size=f.q)
            mus.append(SimplexMeasure.normalized(w))
        fam = f.family
        rows = np.stack([mu.as_array() for mu in mus])
        for name, g in [("f", f)] + [(f"1[f = {b}]", indicator(f, b)) for b in range(f.q)]:
            for a in range(g.outputs):
                closed = ClosedFormEvaluator().batch(g, rows, a).values
                gap = np.abs(closed - ExactEvaluator().batch(g, rows, a).values)
                rec.record(
                    float(gap.max()) <= ROUNDING_TOL,
                    f"Pr[{name} = {a}]: closed form vs exact differ by {gap.max():.3e} at measure "
                    f"{int(gap.argmax())}, q={f.q} (r, m, last)=({fam.r}, {fam.m}, {fam.last})",
                )
        table = materialize_table(f)
        tallies = [ExactEvaluator().batch(f, rows, a).values.tolist() for a in range(f.q)]
        for i, mu in enumerate(mus):
            weights = product_weights(mu, f.n)
            for a in range(f.q):
                tally = tallies[a][i]
                brute = float(weights @ (table == a))
                rec.record(
                    abs(tally - brute) <= ROUNDING_TOL,
                    f"Pr[f = {a}]: tally {tally!r} vs brute force {brute!r} at q={f.q} n={f.n}",
                )


def suite_influence(rec: _Recorder) -> None:
    """h-influence specializations recover the variance and geometric forms.

    Every influence of a tribes family reads fibres counted from its blocks,
    not from a table, so the counted fibres of every view of two small
    tribes functions are then compared, array for array, with those
    enumerated from the view's materialised table.  A coordinate's count
    reads its place in the first block, or else only the size of its
    block, so the coordinates of the first block, the first of the second
    and the last one take every path the count has.
    """
    from .influence import h_nonconstant, h_variance, influence_bkkkl, influence_h, influence_variance

    corpus: list[FunctionSpec] = []
    corpus.extend(upset_corpus(3, 2, 3, seed=31))
    corpus.extend(upset_corpus(3, 3, 3, seed=32))
    corpus.extend(upset_corpus(3, 4, 3, seed=33))
    corpus.append(indicator(build_tribes(3, 4, 0.5, r=2), 0))
    corpus.append(dictator_indicator(3, 3))
    full_support = [SimplexMeasure((1 / 3, 1 / 3, 1 / 3)), SimplexMeasure((0.5, 0.25, 0.25)), SimplexMeasure((0.1, 0.6, 0.3))]
    with_zero = [SimplexMeasure((0.0, 0.5, 0.5)), SimplexMeasure((0.5, 0.5, 0.0))]
    # (measure rows, profile, influence it recovers, what the message calls them)
    groups = [(np.stack([mu.as_array() for mu in full_support + with_zero]), h_variance, influence_variance,
               "t(1-t) profile vs variance influence"),
              (np.stack([mu.as_array() for mu in full_support]), h_nonconstant, influence_bkkkl,
               "indicator profile vs geometric influence")]
    for fi, f in enumerate(corpus):
        for rows, h, influence, what in groups:
            # gaps[k, i]: both sides at coordinate k under row i, from one call per side and coordinate
            gaps = np.abs([influence_h(f, rows, k, h) - influence(f, rows, k) for k in range(f.n)])
            for i in range(len(rows)):
                for k in range(f.n):
                    rec.record(bool(gaps[k, i] <= ROUNDING_TOL),
                               f"{what} differ by {gaps[k, i]:.3e} (function {fi}, k={k})")
    for f in (build_tribes(3, 6, 0.5, r=2), build_tribes(4, 5, 0.5, r=2)):
        fam, values = f.family, materialize_table(f)
        views = [("f", f, values)] + [(f"1[f = {b}]", indicator(f, b), values == b) for b in range(f.q)]
        for name, g, view_values in views:
            table = from_table(g.q, g.n, view_values, kind=g.kind)
            for k in sorted({*range(fam.r + 1), g.n - 1}):
                pairs = zip(type_tally(g).fibre_tally(g, k), type_tally(table).fibre_tally(table, k))
                rec.record(all(np.array_equal(got, want) for got, want in pairs),
                           f"counted fibres of {name} differ from the enumerated ones at k={k}, "
                           f"q={f.q} (r, m, last)=({fam.r}, {fam.m}, {fam.last})")


def suite_coupling(rec: _Recorder) -> None:
    """Exact Pr[f = 1] is nondecreasing along the line for 0-monotone f."""
    corpus: list[FunctionSpec] = list(upset_corpus(3, 3, 10, seed=17))
    corpus.append(indicator(build_tribes(3, 4, 0.5, r=2), 0))
    corpus.append(indicator(build_tribes(3, 6, 0.5, r=2), 0))
    bases = full_support_bases(3, 2, seed=18) + [central_measure(3)]
    grid = np.linspace(0.0, 1.0, 100)
    for fi, f in enumerate(corpus):
        for bi, base in enumerate(bases):
            vals = ExactEvaluator().batch(f, line_rows(base, grid), 1).values
            worst = float(np.diff(vals).min())
            rec.record(
                worst >= -ROUNDING_TOL,
                f"probability drops by {-worst:.3e} along the line (function {fi}, base {bi})",
            )


SUITE_BUILDERS: dict[str, Callable[[_Recorder], None]] = {
    "order": suite_order,
    "single-variable": suite_single_variable,
    "rm": suite_rm,
    "alpha": suite_alpha,
    "hent": suite_hent,
    "closed": suite_closed,
    "influence": suite_influence,
    "coupling": suite_coupling,
}


def run_suites(names: Iterable[str] | None = None) -> list[SuiteResult]:
    """Run the named suites (all by default) in declaration order.

    This is the one place that names, times and collects the suites: each
    runs on a fresh recorder, and its result carries its ``SUITE_BUILDERS``
    key and its wall time.  It is also the one owner of the suite names: an
    unknown name is refused, before any suite runs, with a ValueError that
    lists the valid names in ``SUITE_BUILDERS`` order (``verify --suite``
    takes any string and leaves the check to this).
    """
    selected = list(SUITE_BUILDERS) if names is None else list(names)
    unknown = [s for s in selected if s not in SUITE_BUILDERS]
    if unknown:
        raise ValueError(f"unknown suites: {', '.join(unknown)}; the suites are {', '.join(SUITE_BUILDERS)}")
    results = []
    for name in selected:
        started = time.perf_counter()
        rec = _Recorder()
        SUITE_BUILDERS[name](rec)
        results.append(SuiteResult(name=name, passed=not rec.failures, checks=rec.checks,
                                   failures=tuple(rec.failures), seconds=time.perf_counter() - started))
    return results
