"""Reference agreement: ``funsor run`` against independent NumPy references.

Seeded models from ``perfbench/gen.py`` are written as model files and run
in this process through ``funsor.cli.main``; each printed ``log_value``
must agree with ``gen.py``'s reference (the log-space forward algorithm,
the moment-form Kalman filter, the windowed switching filter) within 1e-6
relative, under every closed-form interpretation and both scans.  Two
``-inf`` values agree.  The HMMs are sparse: zero transitions and
``-inf`` emissions reach the contraction's recomputed cells.  Max-product
HMMs are checked against a max-plus forward recursion written here.
Chains hold no mixture, so Monte Carlo samples nothing on them: it must
print Exact's bits and fit a long chain in the default fuel.
"""
import contextlib
import io
import json
import math
import os
import sys

import numpy as np
import pytest

from funsor.approx import MonteCarlo
from funsor.cli import main
from funsor.interp import EXACT, interpret
from funsor.markov import scan_mode
from funsor.models import HmmSpec, KalmanSpec, build_hmm, build_kalman

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gen  # noqa: E402

LENGTHS = (1, 2, 3, 5, 8, 13, 33)
DRAWS = (0, 1)
INTERPS = ("exact", "optimize", "momentmatching")
SCANS = ("sequential", "parallel")


def run(tmp_path, doc, *flags):
    path = tmp_path / f"{len(os.listdir(tmp_path))}.json"
    gen.write_model(doc, str(path))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(["run", str(path), *flags])
    payload = json.loads(buf.getvalue())
    assert code == 0, payload
    return float(payload["log_value"])


def assert_agrees(tmp_path, doc, ref, semirings=("sumproduct",)):
    for semiring in semirings:
        for interp in INTERPS:
            for scan in SCANS:
                flags = ("--interp", interp, "--scan", scan, "--semiring", semiring)
                got = run(tmp_path, doc, *flags)
                want = ref[semiring]
                assert math.isclose(got, want, rel_tol=1e-6), (flags, got, want)


def sparse_hmm(rng, K, T):
    """About 40% zero transitions (rows renormalized, none emptied) and
    about 30% ``-inf`` emissions."""
    trans = rng.dirichlet(np.ones(K), size=K)
    keep = rng.random((K, K)) >= 0.4
    keep[np.arange(K), rng.integers(K, size=K)] = True
    trans = np.where(keep, trans, 0.0)
    trans /= trans.sum(axis=1, keepdims=True)
    emission = rng.normal(size=(T, K))
    emission[rng.random((T, K)) < 0.3] = -np.inf
    return {"model": "hmm", "transition": trans, "emission_loglik": emission}


def max_forward(transition, emission_loglik):
    """The forward recursion in the max-plus semiring: the best path's score."""
    with np.errstate(divide="ignore"):
        log_a = np.log(transition)
    K = log_a.shape[0]
    alpha = np.full(K, -math.log(K))
    for e in emission_loglik:
        alpha = np.max(alpha[:, None] + log_a, axis=0) + e
    return float(np.max(alpha))


@pytest.mark.parametrize("draw", DRAWS)
@pytest.mark.parametrize("T", LENGTHS)
@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_sparse_hmm(tmp_path, K, T, draw):
    doc = sparse_hmm(gen.rng_for(10 + draw, K, T), K, T)
    with np.errstate(divide="ignore"):
        ref = {
            "sumproduct": gen.hmm_forward(doc["transition"], doc["emission_loglik"]),
            "maxproduct": max_forward(doc["transition"], doc["emission_loglik"]),
        }
    assert_agrees(tmp_path, doc, ref, ("sumproduct", "maxproduct"))


@pytest.mark.parametrize("draw", DRAWS)
@pytest.mark.parametrize("T", LENGTHS)
@pytest.mark.parametrize("bias", [False, True])
def test_kalman(tmp_path, bias, T, draw):
    rng = gen.rng_for(20 + draw, bias, T)
    n, m = (int(d) for d in rng.integers(1, 4, size=2))
    doc = gen.draw_kalman(rng, n, m, T, bias)
    ref = gen.kalman_filter(
        doc["F"], doc["Q"], doc["H"], doc["R"], doc["observations"], doc.get("bias_cov")
    )
    assert_agrees(tmp_path, doc, {"sumproduct": float(ref)})


@pytest.mark.parametrize("T", LENGTHS)
def test_slds(tmp_path, T):
    """Switching models collapse by moment matching whatever the flags say,
    so each runs once.  At odd lengths one transition is zero; the
    reference then runs with it at 1e-13, which moves the log evidence far
    less than the tolerance, because ``gen.slds_filter`` returns NaN at
    windows of 2 or more when a transition is zero."""
    rng = gen.rng_for(30, 0, T)
    K, window = (int(d) for d in rng.integers(1, 4, size=2))
    doc = gen.draw_slds(rng, K, 2, 1, T, window)
    trans = doc["transition"]
    near = trans
    if T % 2 and K > 1:
        trans[0, 1] = 0.0
        trans /= trans.sum(axis=1, keepdims=True)
        near = trans.copy()
        near[0, 1] = 1e-13
        near /= near.sum(axis=1, keepdims=True)
    ref = gen.slds_filter(
        near, doc["F"], doc["Q"], doc["H"], doc["R"], doc["observations"], window
    )
    got = run(tmp_path, doc)
    assert math.isclose(got, ref, rel_tol=1e-6), (got, ref)


def chain_term(doc):
    """The chain a model file's hmm or kalman document denotes."""
    if doc["model"] == "hmm":
        return build_hmm(HmmSpec(doc["transition"], doc["emission_loglik"]))
    keys = ("F", "Q", "H", "R", "observations", "bias_cov")
    return build_kalman(KalmanSpec(**{k: doc[k] for k in keys if k in doc}))


@pytest.mark.parametrize("scan", SCANS)
@pytest.mark.parametrize("T", [1, 2, 3, 8, 33])
def test_monte_carlo_prints_exact_bits_on_chains(tmp_path, T, scan):
    docs = [sparse_hmm(gen.rng_for(40, K, T), K, T) for K in range(1, 6)]
    docs += [gen.draw_kalman(gen.rng_for(41, bias, T), 3, 2, T, bias) for bias in (0, 1)]
    for doc in docs:
        mc = MonteCarlo(0)
        with scan_mode(scan), np.errstate(divide="ignore"):
            got = interpret(mc, chain_term(doc)).atom.data
            want = interpret(EXACT, chain_term(doc)).atom.data
        assert mc.draws == 0
        assert got.tobytes() == want.tobytes(), (doc["model"], got, want)
        flags = ("--scan", scan, "--interp")
        printed = run(tmp_path, doc, *flags, "montecarlo")
        assert printed.hex() == run(tmp_path, doc, *flags, "exact").hex()


def test_long_monte_carlo_chain_fits_the_default_fuel(monkeypatch):
    """Its closed-form steps replay plans and spend no fuel, as Exact's do."""
    monkeypatch.delenv("FUNSOR_FUEL", raising=False)
    term = chain_term(gen.draw_kalman(gen.rng_for(7, 0, 0), 3, 2, 5100, False))
    mc = MonteCarlo(0)
    with scan_mode("sequential"):
        got = interpret(mc, term).atom.data
    assert np.isfinite(got)
    assert mc.draws == 0


def growing_kalman(f, q, T):
    """A 2-D state with ``F = f I``, ``Q = q I``, ``R = 0.1 I`` and
    ``H = [1, 0]``, simulated from seed 0 in the reference's convention:
    ``x_0 ~ N(0, I)``, and ``y_t`` observes ``x_{t+1}``."""
    rng = np.random.default_rng(0)
    F, Q, H, R = f * np.eye(2), q * np.eye(2), np.array([[1.0, 0.0]]), 0.1 * np.eye(1)
    x, ys = rng.normal(size=2), np.empty((T, 1))
    for t in range(T):
        x = F @ x + math.sqrt(q) * rng.normal(size=2)
        ys[t] = H @ x + math.sqrt(0.1) * rng.normal(size=1)
    return {"model": "kalman", "F": F, "Q": Q, "H": H, "R": R, "observations": ys}


@pytest.mark.parametrize("scan", SCANS)
@pytest.mark.parametrize("f, q", [(0.9, 1e-8), (1.02, 1e-6)])
def test_nearly_noiseless_kalman(tmp_path, f, q, scan):
    """Nearly deterministic dynamics: the well-conditioned rows of the
    accuracy sweep, whose observations stay below 30 in magnitude, agree
    with the moment-form filter within 1e-6 nats per step.  Rows whose
    observations reach 3e4 lose whole nats to cancellation and are not
    gated here."""
    T = 256
    doc = growing_kalman(f, q, T)
    ref = float(gen.kalman_filter(doc["F"], doc["Q"], doc["H"], doc["R"], doc["observations"]))
    got = run(tmp_path, doc, "--scan", scan)
    assert abs(got - ref) <= 1e-6 * T, (got, ref)
