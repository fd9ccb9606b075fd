import tracemalloc

import numpy as np
import pytest

import qthresh.evaluate as evaluate
import qthresh.influence as influence
import qthresh.verification as verification
from qthresh.evaluate import ClosedFormEvaluator, Estimate, TypeTally
from qthresh.functions import leq_a
from qthresh.measures import central_measure
from qthresh.threshold import rm_derivative_exact
from qthresh.verification import (
    HENT_GRID_POINTS,
    SUITE_BUILDERS,
    dictator_indicator,
    fd_probability_derivative,
    full_support_bases,
    run_suites,
    upset_corpus,
)


def numeric_leq(x, y, a: int) -> bool:
    """A wrong comparator, numeric instead of rewrite-to-a: the order suite must fail on it."""
    return all(yv == a or xv <= yv for xv, yv in zip(x, y))


def test_fd_oracle_interior_and_edges():
    # dictator 1[x_0 = 0]: Pr = t along the central line, derivative 1 at
    # every t including the one-sided stencils at the endpoints
    f = dictator_indicator(3, 2)
    base = central_measure(3)
    for t in (0.0, 0.4, 1.0):
        assert fd_probability_derivative(f, base, [t])[0] == pytest.approx(1.0, abs=1e-9)


def test_fd_oracle_agrees_with_identity_near_edges():
    f = upset_corpus(3, 3, 1, seed=3)[0]
    base = central_measure(3)
    for t in (0.0, 1e-6):
        assert fd_probability_derivative(f, base, [t])[0] == pytest.approx(
            rm_derivative_exact(f, base, [t])[0], abs=1e-4
        )


def test_full_support_bases():
    bases = full_support_bases(3, 5, seed=1)
    assert len(bases) == 5
    for mu in bases:
        assert mu.atoms[0] == 0.0
        assert min(mu.atoms[1], mu.atoms[2]) > 0.0
    assert bases == full_support_bases(3, 5, seed=1)
    assert bases != full_support_bases(3, 5, seed=2)


def test_upset_corpus_properties():
    corpus = upset_corpus(3, 3, 8, seed=4)
    assert len(corpus) == 8
    for f in corpus:
        assert f.table.min() != f.table.max()  # nonconstant
    again = upset_corpus(3, 3, 8, seed=4)
    assert all(np.array_equal(a.table, b.table) for a, b in zip(corpus, again))


def test_corrupted_comparator_is_actually_wrong():
    disagreements = [
        ((1, 2), (2, 2), 0)  # numeric comparison accepts, rewrite order refuses
    ]
    for x, y, a in disagreements:
        assert numeric_leq(x, y, a) != leq_a(x, y, a)


def test_run_suites_all_pass():
    results = run_suites()
    assert [r.name for r in results] == list(SUITE_BUILDERS)
    assert all(r.passed for r in results)
    assert all(r.checks > 0 for r in results)


def test_run_suites_filter_and_unknown():
    results = run_suites(["hent", "closed"])
    assert [r.name for r in results] == ["hent", "closed"]
    with pytest.raises(ValueError):
        run_suites(["no-such-suite"])


def test_suite_rm_catches_a_corrupted_phi_k(monkeypatch):
    assert run_suites(["rm"])[0].passed
    original = influence.phi_k

    # An offset of 1e-11 per coordinate hides under the finite-difference
    # noise floor (1e-10); only the Bernstein derivative can see it.
    def corrupted(f, mu, k):
        return original(f, mu, k) + 1e-11

    monkeypatch.setattr(influence, "phi_k", corrupted)
    bad = run_suites(["rm"])[0]
    assert not bad.passed
    assert bad.failures
    assert all("Bernstein" in msg for msg in bad.failures)

    monkeypatch.setattr(influence, "phi_k", lambda f, mu, k: 1.5 * original(f, mu, k))
    bad = run_suites(["rm"])[0]
    assert not bad.passed
    assert any("finite difference" in msg for msg in bad.failures)


def test_suite_closed_catches_a_corrupted_tally(monkeypatch):
    assert run_suites(["closed"])[0].passed
    original = TypeTally.probabilities

    # Output 2 of the full function: brute-force enumeration and the
    # closed form both see it go wrong, and nothing else does.
    def corrupted(self, measures, a):
        out = original(self, measures, a)
        return out * (1.0 + 1e-9) if a == 2 else out

    monkeypatch.setattr(TypeTally, "probabilities", corrupted)
    bad = run_suites(["closed"])[0]
    assert not bad.passed
    assert all("Pr[f = 2]" in msg for msg in bad.failures)
    assert any("brute force" in msg for msg in bad.failures)
    assert any("closed form" in msg for msg in bad.failures)

    monkeypatch.setattr(TypeTally, "probabilities", lambda self, measures, a: original(self, measures, a) + 1e-11)
    bad = run_suites(["closed"])[0]
    assert not bad.passed
    assert any("closed form" in msg for msg in bad.failures)


def test_suite_closed_catches_a_corrupted_closed_form_at_nonzero_symbols(monkeypatch):
    original = ClosedFormEvaluator.batch

    # Levels of a symbol b >= 1 only: the zero event's checks stay clean.
    def corrupted(self, f, measures, a):
        est = original(self, f, measures, a)
        b = a if f.kind == "full" else f.indicator_of
        return est if b == 0 else Estimate(est.values * (1.0 - 1e-9), 0.0, est.method, est.samples)

    monkeypatch.setattr(ClosedFormEvaluator, "batch", corrupted)
    bad = run_suites(["closed"])[0]
    assert not bad.passed
    assert all("closed form" in msg for msg in bad.failures)
    assert not any("f = 0]" in msg for msg in bad.failures)


def test_suite_influence_sees_a_moved_fibre_count(monkeypatch):
    assert run_suites(["influence"])[0].passed
    original = evaluate._tribes_fibres

    # One rest point moves from the first counted row to the last.  The
    # h-influence and the influence it specialises to read the same rows,
    # so only the comparison with enumeration sees it.
    def moved(f, k):
        rest, columns, count = original(f, k)
        count = count.copy()
        count[0] -= 1
        count[-1] += 1
        return rest, columns, count

    monkeypatch.setattr(evaluate, "_tribes_fibres", moved)
    bad = run_suites(["influence"])[0]
    assert not bad.passed
    assert bad.failures and all("counted fibres" in msg for msg in bad.failures)

    # The tally is folded from the same rows, so the closed suite's
    # comparison with enumeration sees the moved count too.  Every message
    # is kept: the closed-form checks, which come first, fail as well.
    monkeypatch.setattr(verification, "_KEEP_FAILURES", 10**6)
    bad = run_suites(["closed"])[0]
    assert not bad.passed
    assert any("vs brute force" in msg for msg in bad.failures)


def _hent_blocks():
    block = verification._HENT_BLOCK
    return [verification._hent_grid(lo, min(lo + block, HENT_GRID_POINTS))
            for lo in range(0, HENT_GRID_POINTS, block)]


def test_hent_blocks_are_the_linspace_grid():
    blocks = _hent_blocks()
    assert len(blocks[-1]) < verification._HENT_BLOCK  # the last block is partial
    assert np.array_equal(np.concatenate(blocks), np.linspace(0.0, 1.0, HENT_GRID_POINTS))


@pytest.mark.parametrize("where, value", [("middle-block-start", 0.0), ("last-block", 0.0),
                                          ("middle-block-start", np.nan)])
def test_suite_hent_sees_a_dip_at_one_grid_point(monkeypatch, where, value):
    blocks = _hent_blocks()
    t_bad = float(blocks[len(blocks) // 2][0] if where == "middle-block-start" else blocks[-1][-2])
    original = influence.h_paper

    def dipped(t):  # value at t_bad alone, where the entropy is positive
        return np.where(t == t_bad, value, original(t))

    monkeypatch.setattr(influence, "h_paper", dipped)
    bad = run_suites(["hent"])[0]
    assert not bad.passed and bad.checks == 2
    drop = float(influence.ent(t_bad)) - value
    assert bad.failures == (f"profile drops below entropy by {drop:.3e} at t={t_bad:.6f}",)


def test_suite_hent_names_the_first_of_equal_dips(monkeypatch):
    blocks = _hent_blocks()
    first, second = float(blocks[3][100]), float(blocks[20][5])
    h_paper, ent = influence.h_paper, influence.ent
    monkeypatch.setattr(influence, "h_paper", lambda t: np.where(np.isin(t, (first, second)), -1.0, h_paper(t)))
    monkeypatch.setattr(influence, "ent", lambda t: np.where(np.isin(t, (first, second)), 0.0, ent(t)))
    bad = run_suites(["hent"])[0]
    assert bad.failures == (f"profile drops below entropy by 1.000e+00 at t={first:.6f}",)


def test_suite_hent_memory_stays_a_fraction_of_its_grid():
    # The 10^6 + 1 grid points alone take 8 MB; one pass over all of them
    # peaks at about 48 MB, the blocks at about 2 MB.
    tracemalloc.start()
    try:
        run_suites(["hent"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < HENT_GRID_POINTS * 8 // 2


def _odd_rows_lowered(probabilities):
    def corrupted(self, measures, a):
        out = probabilities(self, measures, a).copy()
        out[1::2] *= 0.9
        return out

    return corrupted


@pytest.mark.parametrize("name, owner, attr, corrupt", [
    pytest.param("order", verification, "leq_a", lambda leq: numeric_leq, id="order"),
    pytest.param("single-variable", influence, "phi_k",
                 lambda phi_k: lambda f, mu, k: 1.5 * phi_k(f, mu, k), id="single-variable"),
    pytest.param("alpha", verification, "second_smallest_atom",
                 lambda atom: lambda mu: 2.0 * atom(mu), id="alpha"),
    # h_paper at half strength still dominates the entropy; at 0.4 it does not.
    pytest.param("hent", influence, "h_paper", lambda h: lambda t: 0.4 * h(t), id="hent"),
    pytest.param("influence", influence, "influence_variance",
                 lambda var: lambda f, mu, k: var(f, mu, k) + 1e-9, id="influence"),
    # An alternating +-1e-9 hides under the rise of one grid step; a 10% dip does not.
    pytest.param("coupling", TypeTally, "probabilities", _odd_rows_lowered, id="coupling"),
])
def test_suite_fails_under_a_corruption(monkeypatch, name, owner, attr, corrupt):
    assert run_suites([name])[0].passed
    monkeypatch.setattr(owner, attr, corrupt(getattr(owner, attr)))
    bad = run_suites([name])[0]
    assert not bad.passed
    assert bad.failures
