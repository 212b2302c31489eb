"""The NumPy references against brute force on tiny models.

Run with ``python3 -m pytest perfbench/tests``.
"""
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import gen  # noqa: E402


def dense_logpdf(y, cov):
    d = len(y)
    _, logdet = np.linalg.slogdet(cov)
    return -0.5 * (d * math.log(2 * math.pi) + logdet + y @ np.linalg.solve(cov, y))


def state_covariance(Fs, Q, n):
    """Covariance of stacked ``x_0 .. x_T`` with ``x_0 ~ N(0, I)``.

    ``x_t = Fs[t-1] x_{t-1} + w_t``: every state is a linear map of the
    independent unit noises, so the joint covariance is ``M M^T``.
    """
    T = len(Fs)
    chol_q = np.linalg.cholesky(Q)
    M = np.zeros(((T + 1) * n, (T + 1) * n))
    M[:n, :n] = np.eye(n)
    for t in range(1, T + 1):
        M[t * n:(t + 1) * n] = Fs[t - 1] @ M[(t - 1) * n:t * n]
        M[t * n:(t + 1) * n, t * n:(t + 1) * n] += chol_q
    return M @ M.T


def test_hmm_forward_matches_enumeration():
    rng = np.random.default_rng(0)
    K, T = 3, 3
    trans = rng.dirichlet(np.ones(K), size=K)
    e = rng.normal(size=(T, K))
    terms = []
    for xs in itertools.product(range(K), repeat=T + 1):
        lp = math.log(1.0 / K)
        for t in range(T):
            lp += math.log(trans[xs[t], xs[t + 1]]) + e[t, xs[t + 1]]
        terms.append(lp)
    expected = float(np.logaddexp.reduce(terms))
    assert gen.hmm_forward(trans, e) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("bias", [False, True])
def test_kalman_filter_matches_dense_joint(bias):
    rng = np.random.default_rng(1)
    doc = gen.draw_kalman(rng, n=3, m=2, T=4, bias=bias)
    n, m, T = 3, 2, 4
    cov_x = state_covariance([doc["F"]] * T, doc["Q"], n)
    H_big = np.zeros((T * m, (T + 1) * n))
    for t in range(T):
        H_big[t * m:(t + 1) * m, (t + 1) * n:(t + 2) * n] = doc["H"]
    cov_y = H_big @ cov_x @ H_big.T + np.kron(np.eye(T), doc["R"])
    if bias:
        cov_y += np.kron(np.ones((T, T)), doc["bias_cov"])
    expected = dense_logpdf(doc["observations"].reshape(-1), cov_y)
    got = gen.kalman_filter(doc["F"], doc["Q"], doc["H"], doc["R"],
                            doc["observations"], doc.get("bias_cov"))
    assert float(got) == pytest.approx(expected, abs=1e-10)


def test_kalman_filter_batches_over_models():
    docs = [gen.draw_kalman(gen.rng_for(5, 0, i), 3, 2, 16, True) for i in range(3)]
    batched = gen.references(docs)
    single = [float(gen.kalman_filter(d["F"], d["Q"], d["H"], d["R"],
                                      d["observations"], d["bias_cov"])) for d in docs]
    assert batched == pytest.approx(single, abs=1e-12)


def slds_enumeration(doc):
    """Exact SLDS evidence: sum over switch paths of a dense Gaussian evidence."""
    trans, F, Q, H, R, ys = (doc[k] for k in ("transition", "F", "Q", "H", "R",
                                              "observations"))
    K, n = trans.shape[0], F.shape[-1]
    T, m = ys.shape
    H_big = np.kron(np.eye(T), H)
    terms = []
    for path in itertools.product(range(K), repeat=T):
        lp = math.log(trans[0, path[0]])
        lp += sum(math.log(trans[path[t - 1], path[t]]) for t in range(1, T))
        cov_x = state_covariance([F[s] for s in path[1:]], Q, n)
        cov_y = H_big @ cov_x @ H_big.T + np.kron(np.eye(T), R)
        terms.append(lp + dense_logpdf(ys.reshape(-1), cov_y))
    return float(np.logaddexp.reduce(terms))


@pytest.mark.parametrize("window", [4, 6])
def test_slds_filter_without_collapse_matches_enumeration(window):
    doc = gen.draw_slds(np.random.default_rng(2), K=2, n=2, m=1, T=4, window=window)
    got = gen.slds_filter(doc["transition"], doc["F"], doc["Q"], doc["H"], doc["R"],
                          doc["observations"], window)
    assert got == pytest.approx(slds_enumeration(doc), abs=1e-10)


@pytest.mark.parametrize("window", [1, 2])
def test_slds_collapse_is_exact_when_dynamics_do_not_switch(window):
    # With one shared F every mixture component is the same Gaussian, so
    # moment matching loses nothing and the windowed filter stays exact.
    doc = gen.draw_slds(np.random.default_rng(3), K=2, n=2, m=1, T=5, window=window)
    doc["F"] = np.stack([doc["F"][0]] * 2)
    got = gen.slds_filter(doc["transition"], doc["F"], doc["Q"], doc["H"], doc["R"],
                          doc["observations"], window)
    assert got == pytest.approx(slds_enumeration(doc), abs=1e-10)


def test_draws_repeat_per_seed_and_differ_per_index():
    wl = gen.WORKLOADS["slds_momentmatching"]
    a = gen.draw(wl, 7, gen.TIMED, 0)
    b = gen.draw(wl, 7, gen.TIMED, 0)
    c = gen.draw(wl, 7, gen.TIMED, 1)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert not np.array_equal(a["observations"], c["observations"])
