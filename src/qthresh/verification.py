"""Self-check suites: identities and inequalities verified by dual routes.

Each suite pits an implementation against an independent oracle (the
Bernstein derivative of the type tally and finite differences against the
fibre-sum derivative, the exact tally against the closed form and against
brute-force enumeration, an all-pairs order oracle against the
covering-relation check) and records every comparison into the recorder it
is given.  :func:`run_suites` is the harness: it names, times and collects
the suites, one :class:`SuiteResult` each.  The CLI exposes the suites
behind ``verify``; the acceptance tests run them at pinned tolerances.
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
    tribes_prob_zero,
)
from .functions import (
    FunctionSpec,
    build_tribes,
    from_table,
    indicator,
    is_a_monotone,
    leq_a,
    materialize_table,
    point_index,
    random_zero_monotone,
)
from .influence import (
    ent,
    h_nonconstant,
    h_paper,
    h_variance,
    influence_bkkkl,
    influence_h,
    influence_variance,
)
from .measures import SimplexMeasure, central_measure, mix_t, second_smallest_atom
from .threshold import rm_derivative_exact


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
_KEEP_FAILURES = 12  # failure messages a suite keeps; it counts them all
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
    """Counts comparisons and keeps the first few failure messages."""

    def __init__(self):
        self.checks = 0
        self.failed = False
        self.failures: list[str] = []

    def record(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failed = True
            if len(self.failures) < _KEEP_FAILURES:
                self.failures.append(message)


# ---------------------------------------------------------------------------
# Shared corpora and oracles


def fd_probability_derivative(f: FunctionSpec, base: SimplexMeasure, t: float) -> float:
    """Finite-difference oracle for d/dt Pr[f = 1] along the line mixture.

    Central stencil in the interior, one-sided second-order stencils within
    FD_STEP of the endpoints.  Entirely independent of the fibre-sum identity.
    """
    dt = FD_STEP

    def p(u: float) -> float:
        return ExactEvaluator()(f, mix_t(base, u), 1)

    if t < dt:
        return (-3.0 * p(t) + 4.0 * p(t + dt) - p(t + 2.0 * dt)) / (2.0 * dt)
    if t > 1.0 - dt:
        return (3.0 * p(t) - 4.0 * p(t - dt) + p(t - 2.0 * dt)) / (2.0 * dt)
    return (p(t + dt) - p(t - dt)) / (2.0 * dt)


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


def suite_order(rec: _Recorder, leq: Callable = leq_a) -> None:
    """Partial-order laws on [3]^n for n <= 3, plus covering-check vs
    all-pairs-oracle agreement."""
    for n in (1, 2, 3):
        points = list(itertools.product(range(3), repeat=n))
        m = len(points)
        for a in range(3):
            rel = np.zeros((m, m), dtype=bool)
            for ix, x in enumerate(points):
                for iy, y in enumerate(points):
                    rel[ix, iy] = leq(x, y, a)
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
        tbl = materialize_table(f)
        for a in range(f.q):
            oracle = True
            for x, y in itertools.product(points, repeat=2):
                if leq(x, y, a) and tbl[point_index(x, f.q)] > tbl[point_index(y, f.q)]:
                    oracle = False
                    break
            fast = is_a_monotone(f, a)
            rec.record(
                fast == oracle,
                f"covering check ({fast}) disagrees with all-pairs oracle ({oracle}) "
                f"on a {f.q}^{f.n} table at a={a}",
            )


def corrupted_leq(x, y, a: int) -> bool:
    """Deliberately wrong comparator (numeric instead of rewrite-to-a) for
    exercising the harness: suites consuming it must fail."""
    if len(x) != len(y):
        raise ValueError("length mismatch")
    return all(yv == a or xv <= yv for xv, yv in zip(x, y))


def suite_rm(rec: _Recorder) -> None:
    """Derivative identity on 20 random upsets, against two oracles.

    The noise-free one is the Bernstein derivative of the type tally, which
    must agree to rounding; finite differences of the exact probability must
    agree to ``FD_REL_TOL`` or to their noise floor.
    """
    corpus = upset_corpus(3, 3, 20, seed=11)
    bases = full_support_bases(3, 3, seed=12)
    t_grid = (0.0,) + tuple(np.linspace(0.1, 0.9, 9))
    for fi, f in enumerate(corpus):
        base = bases[fi % len(bases)]
        for t in t_grid:
            exact = rm_derivative_exact(f, base, float(t))
            analytic = bernstein_derivative(f, base, float(t))
            diff = abs(exact - analytic)
            rec.record(
                diff <= ROUNDING_TOL * max(1.0, abs(analytic)),
                f"identity vs Bernstein derivative differ by {diff:.3e} (function {fi}, t={t})",
            )
            approx = fd_probability_derivative(f, base, float(t))
            ok, rel = _fd_close(exact, approx, FD_REL_TOL)
            rec.record(
                ok,
                f"identity vs finite difference: rel err {rel:.3e} > {FD_REL_TOL:.1e} "
                f"(function {fi}, t={t})",
            )


def suite_single_variable(rec: _Recorder) -> None:
    """n=1 case: identity equals the direct one-coordinate formula and the
    finite-difference oracle on every 0-monotone indicator over [3]."""
    monotone = []
    for values in itertools.product((0, 1), repeat=3):
        f = from_table(3, 1, values, kind="indicator")
        if is_a_monotone(f, 0):
            monotone.append((values, f))
    rec.record(len(monotone) == 5, f"expected 5 single-variable 0-monotone indicators, got {len(monotone)}")
    bases = [SimplexMeasure((0.0, 0.5, 0.5)), SimplexMeasure((0.0, 0.2, 0.8)), SimplexMeasure((0.0, 0.35, 0.65))]
    t_grid = np.linspace(0.05, 0.95, 19)
    for values, f in monotone:
        nonconst = min(values) != max(values)
        for base in bases:
            for t in t_grid:
                t = float(t)
                mu_t = mix_t(base, t)
                direct = 0.0
                if nonconst:
                    mean = sum(mu_t[v] * values[v] for v in range(3))
                    direct = (1.0 - mean) / (1.0 - t)
                via_identity = rm_derivative_exact(f, base, t)
                rec.record(
                    abs(via_identity - direct) <= SINGLE_VARIABLE_REL_TOL * max(abs(direct), 1e-300) + 1e-15,
                    f"identity vs direct formula differ on table {values} at t={t:.3f}",
                )
                approx = fd_probability_derivative(f, base, t)
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
            for t in t_grid:
                atoms = mix_t(base, t).as_array()
                floor = alpha * (1.0 - t) - ROUNDING_TOL
                for k, rows in fibres:
                    complement = 1.0 - rows @ atoms
                    rec.record(
                        bool((complement >= floor).all()),
                        f"complement mass dips below alpha(1-t) (function {fi}, k={k}, t={t})",
                    )


def suite_hent(rec: _Recorder) -> None:
    """The h_paper weight dominates binary entropy across [0, 1]."""
    grid = np.linspace(0.0, 1.0, HENT_GRID_POINTS)
    gap = h_paper(grid) - ent(grid)
    worst = float(gap.min())
    rec.record(
        worst >= -ROUNDING_TOL,
        f"profile drops below entropy by {-worst:.3e} at t={grid[int(gap.argmin())]:.6f}",
    )
    rec.record(float(gap[0]) == 0.0 and float(gap[-1]) == 0.0, "endpoints must agree exactly")


def suite_closed(rec: _Recorder) -> None:
    """Tribes closed form against the exact tally at accessible sizes.

    Checks level 0 of the full function and output 0 of its indicator view,
    the two products the closed-form evaluator returns.  Every output of the
    tally is also checked against brute-force enumeration: the weights of
    the points under mu^n summed over the table, with no type counts.
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
        zero_view = indicator(f, 0)
        table = materialize_table(f)
        for mu in mus:
            weights = product_weights(mu, f.n)
            tallied = [ExactEvaluator()(f, mu, a) for a in range(f.q)]
            for a, tally in enumerate(tallied):
                brute = float(weights @ (table == a))
                rec.record(
                    abs(tally - brute) <= ROUNDING_TOL,
                    f"Pr[f = {a}]: tally {tally!r} vs brute force {brute!r} at q={f.q} n={f.n}",
                )
            exact = tallied[0]
            for label, closed, want in (
                ("Pr[f = 0]", tribes_prob_zero(fam, mu[0]), exact),
                ("Pr[f != 0]", ClosedFormEvaluator()(zero_view, mu, 0), 1.0 - exact),
            ):
                rec.record(
                    abs(closed - want) <= ROUNDING_TOL,
                    f"{label}: closed form {closed!r} vs exact {want!r} at q={f.q} "
                    f"(r, m, last)=({fam.r}, {fam.m}, {fam.last})",
                )


def suite_influence(rec: _Recorder) -> None:
    """h-influence specializations recover the variance and geometric forms."""
    corpus: list[FunctionSpec] = []
    corpus.extend(upset_corpus(3, 2, 3, seed=31))
    corpus.extend(upset_corpus(3, 3, 3, seed=32))
    corpus.extend(upset_corpus(3, 4, 3, seed=33))
    corpus.append(indicator(build_tribes(3, 4, 0.5, r=2), 0))
    corpus.append(dictator_indicator(3, 3))
    full_support = [SimplexMeasure((1 / 3, 1 / 3, 1 / 3)), SimplexMeasure((0.5, 0.25, 0.25)), SimplexMeasure((0.1, 0.6, 0.3))]
    with_zero = [SimplexMeasure((0.0, 0.5, 0.5)), SimplexMeasure((0.5, 0.5, 0.0))]
    for fi, f in enumerate(corpus):
        for mu in full_support + with_zero:
            for k in range(f.n):
                lhs = influence_h(f, mu, k, h_variance)
                rhs = influence_variance(f, mu, k)
                rec.record(
                    abs(lhs - rhs) <= ROUNDING_TOL,
                    f"t(1-t) profile vs variance influence differ by {abs(lhs - rhs):.3e} "
                    f"(function {fi}, k={k})",
                )
        for mu in full_support:
            for k in range(f.n):
                lhs = influence_h(f, mu, k, h_nonconstant)
                rhs = influence_bkkkl(f, mu, k)
                rec.record(
                    abs(lhs - rhs) <= ROUNDING_TOL,
                    f"indicator profile vs geometric influence differ by {abs(lhs - rhs):.3e} "
                    f"(function {fi}, k={k})",
                )


def suite_coupling(rec: _Recorder) -> None:
    """Exact Pr[f = 1] is nondecreasing along the line for 0-monotone f."""
    corpus: list[FunctionSpec] = list(upset_corpus(3, 3, 10, seed=17))
    corpus.append(indicator(build_tribes(3, 4, 0.5, r=2), 0))
    corpus.append(indicator(build_tribes(3, 6, 0.5, r=2), 0))
    bases = full_support_bases(3, 2, seed=18) + [central_measure(3)]
    grid = np.linspace(0.0, 1.0, 100)
    for fi, f in enumerate(corpus):
        for bi, base in enumerate(bases):
            line = np.stack([mix_t(base, float(t)).as_array() for t in grid])
            vals = ExactEvaluator().batch(f, line, 1).values
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


def run_suites(names: Iterable[str] | None = None, *, inject_fault: str | None = None) -> list[SuiteResult]:
    """Run the named suites (all by default) in declaration order.

    This is the one place that names, times and collects the suites: each
    runs on a fresh recorder, and its result carries its ``SUITE_BUILDERS``
    key and its wall time.  ``inject_fault='leq'`` swaps the corrupted
    comparator into the order suite; the run must then report a failure,
    which exercises the harness itself.
    """
    selected = list(SUITE_BUILDERS) if names is None else list(names)
    unknown = [s for s in selected if s not in SUITE_BUILDERS]
    if unknown:
        raise ValueError(f"unknown suites: {', '.join(unknown)}")
    if inject_fault not in (None, "leq"):
        raise ValueError(f"unknown fault {inject_fault!r}")
    results = []
    for name in selected:
        started = time.perf_counter()
        rec = _Recorder()
        if name == "order" and inject_fault == "leq":
            suite_order(rec, leq=corrupted_leq)
        else:
            SUITE_BUILDERS[name](rec)
        results.append(SuiteResult(name=name, passed=not rec.failed, checks=rec.checks,
                                   failures=tuple(rec.failures), seconds=time.perf_counter() - started))
    return results
