import numpy as np
import pytest

import qthresh.threshold as threshold
import qthresh.verification as verification
from qthresh.evaluate import TypeTally
from qthresh.functions import leq_a
from qthresh.measures import central_measure
from qthresh.threshold import rm_derivative_exact
from qthresh.verification import (
    SUITE_BUILDERS,
    corrupted_leq,
    dictator_indicator,
    fd_probability_derivative,
    full_support_bases,
    run_suites,
    upset_corpus,
)


def test_fd_oracle_interior_and_edges():
    # dictator 1[x_0 = 0]: Pr = t along the central line, derivative 1 at
    # every t including the one-sided stencils at the endpoints
    f = dictator_indicator(3, 2)
    base = central_measure(3)
    for t in (0.0, 0.4, 1.0):
        assert fd_probability_derivative(f, base, t) == pytest.approx(1.0, abs=1e-9)


def test_fd_oracle_agrees_with_identity_near_edges():
    f = upset_corpus(3, 3, 1, seed=3)[0]
    base = central_measure(3)
    for t in (0.0, 1e-6):
        assert fd_probability_derivative(f, base, t) == pytest.approx(
            rm_derivative_exact(f, base, t), abs=1e-4
        )


def test_full_support_bases():
    bases = full_support_bases(3, 5, seed=1)
    assert len(bases) == 5
    for mu in bases:
        assert mu[0] == 0.0
        assert min(mu[1], mu[2]) > 0.0
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
        assert corrupted_leq(x, y, a) != leq_a(x, y, a)


def test_suite_order_passes_and_detects_fault():
    good = run_suites(["order"])[0]
    assert good.passed
    assert good.checks > 50
    assert good.failures == ()

    bad = run_suites(["order"], inject_fault="leq")[0]
    assert not bad.passed
    assert bad.failures  # carries messages naming the broken law


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


def test_run_suites_fault_injection():
    results = run_suites(["order"], inject_fault="leq")
    assert len(results) == 1
    assert not results[0].passed
    with pytest.raises(ValueError):
        run_suites(["order"], inject_fault="bogus")


def test_suite_rm_catches_a_corrupted_phi_k(monkeypatch):
    assert run_suites(["rm"])[0].passed
    original = threshold.phi_k

    # An offset of 1e-11 per coordinate hides under the finite-difference
    # noise floor (1e-10); only the Bernstein derivative can see it.
    def corrupted(f, mu, k, cap=None):
        return original(f, mu, k) + 1e-11

    monkeypatch.setattr(threshold, "phi_k", corrupted)
    bad = run_suites(["rm"])[0]
    assert not bad.passed
    assert bad.failures
    assert all("Bernstein" in msg for msg in bad.failures)

    monkeypatch.setattr(threshold, "phi_k", lambda f, mu, k, cap=None: 1.5 * original(f, mu, k))
    bad = run_suites(["rm"])[0]
    assert not bad.passed
    assert any("finite difference" in msg for msg in bad.failures)


def test_suite_closed_catches_a_corrupted_tally(monkeypatch):
    assert run_suites(["closed"])[0].passed
    original = TypeTally.probabilities

    # Outputs 1 and 2 of the full function are not closed-form quantities;
    # only the brute-force enumeration can see them go wrong.
    def corrupted(self, measures, a):
        out = original(self, measures, a)
        return out * (1.0 + 1e-9) if a == 2 else out

    monkeypatch.setattr(TypeTally, "probabilities", corrupted)
    bad = run_suites(["closed"])[0]
    assert not bad.passed
    assert bad.failures
    assert all("brute force" in msg and msg.startswith("Pr[f = 2]") for msg in bad.failures)

    monkeypatch.setattr(TypeTally, "probabilities", lambda self, measures, a: original(self, measures, a) + 1e-11)
    bad = run_suites(["closed"])[0]
    assert not bad.passed
    assert any("closed form" in msg for msg in bad.failures)


def _odd_rows_lowered(probabilities):
    def corrupted(self, measures, a):
        out = probabilities(self, measures, a).copy()
        out[1::2] *= 0.9
        return out

    return corrupted


@pytest.mark.parametrize("name, owner, attr, corrupt", [
    pytest.param("single-variable", threshold, "phi_k",
                 lambda phi_k: lambda f, mu, k: 1.5 * phi_k(f, mu, k), id="single-variable"),
    pytest.param("alpha", verification, "second_smallest_atom",
                 lambda atom: lambda mu: 2.0 * atom(mu), id="alpha"),
    # h_paper at half strength still dominates the entropy; at 0.4 it does not.
    pytest.param("hent", verification, "h_paper", lambda h: lambda t: 0.4 * h(t), id="hent"),
    pytest.param("influence", verification, "influence_variance",
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
