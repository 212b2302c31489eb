"""Seeded model files and independent NumPy references for the benchmark.

Every workload draws a fresh model per evaluation from
``(seed, stream, index)``, writes it as a ``funsor run`` JSON model file,
and computes the expected log evidence with code that shares nothing with
funsor: a log-space forward algorithm, a moment-form Kalman filter with
the shared observation bias carried as extra static state, and a
windowed-collapse switching filter in moment form.
"""
import json
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    flags: Tuple[str, ...]
    sizes: dict
    why: str

    @property
    def levels(self):
        """Doubling-scan depth the CLI must report, or None without a scan."""
        if "parallel" not in self.flags:
            return None
        return math.ceil(math.log2(self.sizes["T"]))


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "hmm_parallel", "hmm",
            ("--interp", "exact", "--scan", "parallel", "--semiring", "sumproduct"),
            {"K": 64, "T": 128},
            "HMM K=64 T=128, exact, parallel scan: dense log-space table contraction "
            "dominates; the Gaussian layer is idle",
        ),
        Workload(
            "kalman_sequential", "kalman",
            ("--interp", "exact", "--scan", "sequential"),
            {"n": 3, "m": 2, "T": 128, "bias": False},
            "Kalman n=3 m=2 T=128, sequential scan: per-step overhead dominates (affine "
            "probes, small Gaussian calls, Cholesky jitter retries)",
        ),
        Workload(
            "kalman_parallel", "kalman",
            ("--interp", "exact", "--scan", "parallel"),
            {"n": 3, "m": 2, "T": 2048, "bias": True},
            "Kalman n=3 m=2 T=2048 with bias, parallel scan: few large batched Gaussian "
            "calls over 11 levels; contract plans every level",
        ),
        Workload(
            "slds_momentmatching", "slds",
            ("--interp", "momentmatching"),
            {"K": 2, "n": 2, "m": 1, "T": 100, "window": 2},
            "SLDS K=2 n=2 m=1 T=100 window=2, momentmatching: mixtures collapse by moment "
            "matching; tables and Gaussians share one normal form; no scan",
        ),
    ]
}

DISTRIBUTIONS = {
    "hmm": "transition rows ~ Dirichlet(1); emission_loglik ~ N(0, 1) iid; "
    "uniform prior (omitted from the file)",
    "kalman": "F = 0.9 * Haar-random orthogonal; Q, R, bias_cov = A A^T + 0.5 I "
    "with A ~ N(0, 1); H ~ N(0, 1); init N(0, I) (omitted); observations "
    "simulated from the drawn model",
    "slds": "transition rows ~ Dirichlet(1); each F_k = 0.9 * Haar-random "
    "orthogonal; Q = A A^T + 0.5 I with A ~ N(0, 1); H ~ N(0, 1); R = 0.4; "
    "init N(0, I) (omitted); switch states and observations simulated from "
    "the drawn model",
}

# Streams keep the models of set-up evaluations apart from timed ones.
TIMED, SETUP = 0, 1


def rng_for(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, index]))


def haar_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diagonal(r))


def spd(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T + 0.5 * np.eye(d)


def draw_hmm(rng, K, T):
    return {
        "model": "hmm",
        "transition": rng.dirichlet(np.ones(K), size=K),
        "emission_loglik": rng.normal(size=(T, K)),
    }


def draw_kalman(rng, n, m, T, bias):
    F = 0.9 * haar_orthogonal(rng, n)
    Q = spd(rng, n)
    R = spd(rng, m)
    H = rng.normal(size=(m, n))
    b_cov = spd(rng, m) if bias else None
    b = np.linalg.cholesky(b_cov) @ rng.normal(size=m) if bias else np.zeros(m)
    w = rng.normal(size=(T, n)) @ np.linalg.cholesky(Q).T
    v = rng.normal(size=(T, m)) @ np.linalg.cholesky(R).T
    x = rng.normal(size=n)
    ys = np.empty((T, m))
    for t in range(T):
        x = F @ x + w[t]
        ys[t] = H @ x + b + v[t]
    doc = {"model": "kalman", "F": F, "Q": Q, "H": H, "R": R, "observations": ys}
    if bias:
        doc["bias_cov"] = b_cov
    return doc


def draw_slds(rng, K, n, m, T, window):
    trans = rng.dirichlet(np.ones(K), size=K)
    F = np.stack([0.9 * haar_orthogonal(rng, n) for _ in range(K)])
    Q = spd(rng, n)
    H = rng.normal(size=(m, n))
    R = 0.4 * np.eye(m)
    w = rng.normal(size=(T, n)) @ np.linalg.cholesky(Q).T
    v = rng.normal(size=(T, m)) @ np.linalg.cholesky(R).T
    s = rng.choice(K, p=trans[0])
    x = rng.normal(size=n)
    ys = np.empty((T, m))
    for t in range(T):
        if t > 0:
            s = rng.choice(K, p=trans[s])
            x = F[s] @ x + w[t]
        ys[t] = H @ x + v[t]
    return {
        "model": "slds", "transition": trans, "F": F, "Q": Q, "H": H, "R": R,
        "observations": ys, "window": window,
    }


def draw(workload: Workload, seed: int, stream: int, index: int) -> dict:
    rng = rng_for(seed, stream, index)
    sz = workload.sizes
    if workload.family == "hmm":
        return draw_hmm(rng, sz["K"], sz["T"])
    if workload.family == "kalman":
        return draw_kalman(rng, sz["n"], sz["m"], sz["T"], sz["bias"])
    return draw_slds(rng, sz["K"], sz["n"], sz["m"], sz["T"], sz["window"])


# ---------------------------------------------------------------------------
# References.


def _logsumexp(a, axis=None):
    peak = np.max(a, axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    out = np.log(np.sum(np.exp(a - peak), axis=axis, keepdims=True)) + peak
    return np.squeeze(out, axis=axis) if axis is not None else out.item()


def _gauss_logpdf(e, S):
    """log N(e; 0, S) for one vector."""
    L = np.linalg.cholesky(S)
    z = np.linalg.solve(L, e)
    return -0.5 * (len(e) * LOG_2PI + z @ z) - np.sum(np.log(np.diagonal(L)))


def hmm_forward(transition, emission_loglik):
    """Log evidence by the forward algorithm in log space.

    The chain starts in a uniformly drawn state and takes one transition
    per row of ``emission_loglik``; each row scores the state the
    transition lands in.
    """
    log_a = np.log(np.asarray(transition))
    e = np.asarray(emission_loglik)
    K = log_a.shape[0]
    alpha = np.full(K, -math.log(K))
    for t in range(e.shape[0]):
        alpha = _logsumexp(alpha[:, None] + log_a, axis=0) + e[t]
    return float(_logsumexp(alpha))


def kalman_filter(F, Q, H, R, observations, bias_cov=None):
    """Log evidence by a moment-form Kalman filter, batched over leading axes.

    ``y_t = H x_{t+1} + bias + noise`` with ``x_{t+1} = F x_t + noise`` and
    ``x_0 ~ N(0, I)``; the shared bias rides along as static extra state.
    Every argument may carry the same leading batch axes, one per model.
    """
    F, Q, H, R, ys = (np.asarray(a, dtype=float) for a in (F, Q, H, R, observations))
    batch = F.shape[:-2]
    n, m = F.shape[-1], H.shape[-2]
    d = n if bias_cov is None else n + m
    Fa = np.zeros(batch + (d, d))
    Qa = np.zeros(batch + (d, d))
    Ha = np.zeros(batch + (m, d))
    cov = np.zeros(batch + (d, d))
    Fa[..., :n, :n], Qa[..., :n, :n], Ha[..., :, :n] = F, Q, H
    cov[..., :n, :n] = np.eye(n)
    if bias_cov is not None:
        Fa[..., n:, n:] = np.eye(m)
        Ha[..., :, n:] = np.eye(m)
        cov[..., n:, n:] = bias_cov
    mean = np.zeros(batch + (d,))
    FaT, HaT = np.swapaxes(Fa, -1, -2), np.swapaxes(Ha, -1, -2)
    total = np.zeros(batch)
    for t in range(ys.shape[-2]):
        mean = np.einsum("...ij,...j->...i", Fa, mean)
        cov = Fa @ cov @ FaT + Qa
        S = Ha @ cov @ HaT + R
        e = ys[..., t, :] - np.einsum("...ij,...j->...i", Ha, mean)
        L = np.linalg.cholesky(S)
        z = np.linalg.solve(L, e[..., None])[..., 0]
        total -= 0.5 * (m * LOG_2PI + np.sum(z * z, axis=-1))
        total -= np.sum(np.log(np.diagonal(L, axis1=-2, axis2=-1)), axis=-1)
        gain = np.swapaxes(np.linalg.solve(S, Ha @ cov), -1, -2)
        mean = mean + np.einsum("...ij,...j->...i", gain, e)
        cov = cov - gain @ S @ np.swapaxes(gain, -1, -2)
        cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    return total


def slds_filter(transition, F, Q, H, R, observations, window):
    """Log evidence of a switching linear model with windowed collapse.

    Keeps a joint moment-form Gaussian over the last ``window + 1``
    continuous states for every joint assignment of their switch states.
    After step ``t >= window`` the oldest continuous state is
    marginalized, then the mixture over the oldest switch state is
    replaced by one Gaussian with the same total mass, mean and
    covariance.  ``x_0 ~ N(0, I)``; the switch state starts from the first
    transition row and selects the dynamics of the step it enters.
    """
    log_a = np.log(np.asarray(transition, dtype=float))
    F = np.asarray(F, dtype=float)
    Q, H, R = (np.asarray(a, dtype=float) for a in (Q, H, R))
    K, n = log_a.shape[0], F.shape[-1]
    ys = np.asarray(observations, dtype=float)
    # Leading axes: one per switch state in the window, oldest first.
    logw = log_a[0].copy()
    mu = np.zeros((K, n))
    P = np.broadcast_to(np.eye(n), (K, n, n)).copy()
    for t in range(ys.shape[0]):
        if t > 0:
            logw = logw[..., None] + log_a
            last_mu = mu[..., -n:]
            new_mu = np.einsum("kij,...j->...ki", F, last_mu)
            cross = np.einsum("...ij,kaj->...kia", P[..., :, -n:], F)
            last_P = P[..., -n:, -n:]
            new_P = np.einsum("kai,...ij,kbj->...kab", F, last_P, F) + Q
            P = np.broadcast_to(P[..., None, :, :], logw.shape + P.shape[-2:])
            mu = np.broadcast_to(mu[..., None, :], logw.shape + mu.shape[-1:])
            mu = np.concatenate([mu, new_mu], axis=-1)
            top = np.concatenate([P, cross], axis=-1)
            bottom = np.concatenate([np.swapaxes(cross, -1, -2), new_P], axis=-1)
            P = np.concatenate([top, bottom], axis=-2)
        D = mu.shape[-1]
        Hf = np.zeros((H.shape[0], D))
        Hf[:, -n:] = H
        S = Hf @ P @ Hf.T + R
        e = ys[t] - mu @ Hf.T
        L = np.linalg.cholesky(S)
        z = np.linalg.solve(L, e[..., None])[..., 0]
        logw = logw - 0.5 * (len(ys[t]) * LOG_2PI + np.sum(z * z, axis=-1))
        logw = logw - np.sum(np.log(np.diagonal(L, axis1=-2, axis2=-1)), axis=-1)
        PH = P @ Hf.T
        gain = np.swapaxes(np.linalg.solve(S, np.swapaxes(PH, -1, -2)), -1, -2)
        mu = mu + np.einsum("...dm,...m->...d", gain, e)
        P = P - gain @ S @ np.swapaxes(gain, -1, -2)
        P = 0.5 * (P + np.swapaxes(P, -1, -2))
        if t >= window:
            mu, P = mu[..., n:], P[..., n:, n:]
            total = _logsumexp(logw, axis=0)
            p = np.exp(logw - total)[..., None]
            mean = np.sum(p * mu, axis=0)
            diff = mu - mean
            spread = P + diff[..., :, None] * diff[..., None, :]
            P = np.sum(p[..., None] * spread, axis=0)
            mu, logw = mean, total
    return float(_logsumexp(logw.reshape(-1)))


def references(docs: List[dict]) -> List[float]:
    """Reference log evidence of each model; Kalman models run as one batch."""
    if docs and docs[0]["model"] == "kalman":
        stacked = {k: np.stack([d[k] for d in docs]) for k in docs[0] if k != "model"}
        return [float(v) for v in kalman_filter(
            stacked["F"], stacked["Q"], stacked["H"], stacked["R"],
            stacked["observations"], stacked.get("bias_cov"),
        )]
    if docs and docs[0]["model"] == "hmm":
        return [hmm_forward(d["transition"], d["emission_loglik"]) for d in docs]
    return [
        slds_filter(d["transition"], d["F"], d["Q"], d["H"], d["R"],
                    d["observations"], d["window"])
        for d in docs
    ]


def write_model(doc: dict, path: str) -> None:
    plain = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in doc.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(plain, fh)


def make_models(workload: Workload, seed: int, stream: int, indices, directory) -> List[dict]:
    """Write one model file per index; returns ``{"path", "ref"}`` records."""
    docs = [draw(workload, seed, stream, i) for i in indices]
    paths = [f"{directory}/{workload.name}-s{seed}-{stream}-{i}.json" for i in indices]
    for doc, path in zip(docs, paths):
        write_model(doc, path)
    return [{"path": p, "ref": r} for p, r in zip(paths, references(docs))]
