"""Model builders: discrete chains, linear-Gaussian chains, switches, mixtures.

Every builder returns a closed lazy term, so one model can be evaluated
under several interpretations and scan strategies.  A chain's initial
factor is the prior; the switching model is such a chain too, and
``build_slds_marginal`` evaluates it under moment matching with the
model's window.  The mixture absorbs its data one at a time, so moment
matching collapses each datum's component label as it meets it.

The helpers at the top convert moment-form conditionals
``N(out; M @ in + offset, noise)`` into the information-form blocks the
quadratic factors store, together with the constant that makes the
factor integrate to one over its output.  Model data is checked here,
once, where it enters: every covariance by ``_expect_covariance``,
naming its key in any error; the engine derives every other atom from
the checked factors unchecked.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .approx import MomentMatching
from .domains import Bounded, RealArray, TypeContext
from .errors import BoundsError, FunsorTypeError, RankDeficient
from .gaussian import LOG_2PI, GaussianAtom, gaussian_log_normalizer, log_normalizer
from .interp import (
    LAZY,
    interpret,
    interpretation,
    lift,
    markov_term,
    reduce_term,
    subst_term,
    to_term,
    var,
)
from .markov import scan_mode
from .ops import TAKE
from .tensor import TensorAtom
from .terms import GaussianLeaf, TensorLeaf, Term


def conditional_gaussian(M, offset, noise) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Information-form blocks of ``N(out; M @ in + offset, noise)``.

    Returns ``(info, prec, const)`` over the stacked ``(in, out)`` vector,
    batched over any leading axes of the inputs.  Adding ``const`` makes
    the factor a normalized density in ``out`` for every ``in``.
    """
    M = np.asarray(M, dtype=np.float64)
    offset = np.asarray(offset, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    dx = M.shape[-2]
    dz = M.shape[-1]
    sinv_m = np.linalg.solve(noise, M)
    sinv_b = np.linalg.solve(noise, offset[..., None])[..., 0]
    mt_sinv = np.swapaxes(sinv_m, -1, -2)
    mt_sinv_m = np.swapaxes(M, -1, -2) @ sinv_m
    sinv = np.linalg.inv(noise)
    sinv = 0.5 * (sinv + np.swapaxes(sinv, -1, -2))
    batch = np.broadcast_shapes(
        M.shape[:-2], offset.shape[:-1], noise.shape[:-2]
    )
    d = dz + dx
    prec = np.zeros(batch + (d, d))
    prec[..., :dz, :dz] = mt_sinv_m
    prec[..., :dz, dz:] = -mt_sinv
    prec[..., dz:, :dz] = -sinv_m
    prec[..., dz:, dz:] = sinv
    info = np.zeros(batch + (d,))
    info[..., :dz] = -(mt_sinv @ offset[..., None])[..., 0]
    info[..., dz:] = sinv_b
    _, logdet = np.linalg.slogdet(noise)
    quad = np.einsum("...i,...i->...", offset, sinv_b)
    const = -0.5 * (dx * LOG_2PI + logdet + quad)
    return info, prec, np.broadcast_to(const, batch)


def dense_gaussian(mean, cov) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Information-form ``(info, prec, const)`` of a normalized density."""
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    d = mean.shape[-1]
    prec = np.linalg.inv(cov)
    prec = 0.5 * (prec + np.swapaxes(prec, -1, -2))
    info = (prec @ mean[..., None])[..., 0]
    _, logdet = np.linalg.slogdet(cov)
    quad = np.einsum("...d,...d->...", mean, info)
    const = -0.5 * (d * LOG_2PI + logdet + quad)
    return info, prec, const


def observation_factor(H, R, y) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadratic factor in the state from observing ``y = H @ state + noise``.

    ``y`` may carry leading batch axes; returns ``(info, prec, const)``
    where ``info`` and ``const`` share those axes.
    """
    H = np.asarray(H, dtype=np.float64)
    R = np.asarray(R, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m = H.shape[0]
    rinv_y = np.moveaxis(np.linalg.solve(R, np.moveaxis(y, -1, 0)), 0, -1)
    info = rinv_y @ H
    prec = H.T @ np.linalg.solve(R, H)
    prec = 0.5 * (prec + prec.T)
    _, logdet = np.linalg.slogdet(R)
    quad = np.einsum("...m,...m->...", y, rinv_y)
    const = -0.5 * (m * LOG_2PI + logdet + quad)
    return info, prec, const


def _gaussian_factor(
    batch: TypeContext, reals: TypeContext, info, prec, const
) -> Term:
    """A quadratic factor plus its constant, as one lazy sum.

    ``const`` is a table over ``batch`` (a scalar when ``batch`` is empty);
    ``prec`` is broadcast over ``batch`` when it lacks the batch axes.
    """
    bounds = tuple(tp.size for _, tp in batch.entries)
    prec = np.broadcast_to(prec, bounds + np.shape(prec)[-2:])
    g = GaussianAtom(batch, reals, info, prec)
    return lift("add", to_term(g), to_term(TensorAtom(batch, const)))


def _expect_shape(what: str, arr: np.ndarray, shape) -> None:
    """Raise unless ``arr`` has ``shape``; a ``None`` entry matches any size."""
    if arr.ndim != len(shape) or any(
        want is not None and want != got for want, got in zip(shape, arr.shape)
    ):
        want = "(" + ", ".join("?" if d is None else str(d) for d in shape) + ")"
        raise FunsorTypeError(f"{what} must have shape {want}, got {arr.shape}")


def _expect_covariance(key: str, cov: np.ndarray, n: int, batch=()) -> None:
    """Raise, naming ``key``, unless ``cov`` holds covariances of shape
    ``batch + (n, n)``, symmetric within ``GaussianAtom``'s 1e-8 relative
    tolerance (``TypeError``) and with a Cholesky factor (``RankDeficient``)."""
    _expect_shape(key, cov, tuple(batch) + (n, n))
    asym = float(np.max(np.abs(cov - np.swapaxes(cov, -1, -2)), initial=0.0))
    tol = 1e-8 * max(1.0, float(np.max(np.abs(cov), initial=0.0)))
    if asym > tol:
        raise FunsorTypeError(f"{key} must be symmetric, off by {asym:.3e}")
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise RankDeficient(f"{key} must be positive definite") from None


def _log_rows(p: np.ndarray, what: str) -> np.ndarray:
    """Log of row-stochastic data; rows must sum to one within 1e-9."""
    if (p < 0).any():
        raise FunsorTypeError(f"{what} holds a negative probability")
    sums = p.sum(axis=-1)
    if not np.allclose(sums, 1.0, atol=1e-9, rtol=0.0):
        raise FunsorTypeError(f"{what} rows must sum to 1, got sums {sums}")
    with np.errstate(divide="ignore"):
        return np.log(p)


# ---------------------------------------------------------------------------
# Discrete state chain.


@dataclass
class HmmSpec:
    """Bounded-state chain with per-step observation log-likelihoods.

    ``transition`` is a row-stochastic ``(K, K)`` matrix indexed
    ``[previous, current]`` in probability space; ``emission_loglik`` is
    ``(T, K)``: the log-likelihood of step ``t``'s observation under
    each state.  ``prior`` is a probability vector, uniform when omitted.
    """

    transition: np.ndarray
    emission_loglik: np.ndarray
    prior: Optional[np.ndarray] = None

    def __post_init__(self):
        self.transition = np.asarray(self.transition, dtype=np.float64)
        self.emission_loglik = np.asarray(self.emission_loglik, dtype=np.float64)
        _expect_shape("transition", self.transition, (None, None))
        k = self.transition.shape[0]
        _expect_shape("transition", self.transition, (k, k))
        _expect_shape("emission_loglik", self.emission_loglik, (None, k))
        if self.prior is None:
            self.prior = np.full(k, 1.0 / k)
        self.prior = np.asarray(self.prior, dtype=np.float64)
        _expect_shape("prior", self.prior, (k,))


def build_hmm(spec: HmmSpec, elim: str = "logaddexp") -> Term:
    """Closed lazy chain term for the log evidence, the prior as its ``init``.

    ``elim`` folds the state variables, in the chain and at its ends:
    ``logaddexp`` for the marginal likelihood, ``max`` for the best path score.
    """
    log_trans = _log_rows(spec.transition, "transition")
    log_prior = _log_rows(spec.prior[None, :], "prior")[0]
    T, K = spec.emission_loglik.shape
    ctx = TypeContext([("t", Bounded(T)), ("prev", Bounded(K)), ("curr", Bounded(K))])
    body_data = log_trans[None, :, :] + spec.emission_loglik[:, None, :]
    with interpretation(LAZY):
        body = to_term(TensorAtom(ctx, np.broadcast_to(body_data, (T, K, K))))
        prior = to_term(TensorAtom(TypeContext([("prev", Bounded(K))]), log_prior))
        return markov_term("t", [("prev", "curr")], body, elim, init=prior)


# ---------------------------------------------------------------------------
# Linear-Gaussian state chain.


def _check_linear_gaussian(spec, n: int) -> int:
    """Check ``Q``, ``H``, ``R`` and the initial state (standard normal
    unless given) of a model whose state has ``n`` dimensions; returns the
    observation size."""
    mean, cov = spec.init_mean, spec.init_cov
    spec.init_mean = np.asarray(np.zeros(n) if mean is None else mean, dtype=np.float64)
    spec.init_cov = np.asarray(np.eye(n) if cov is None else cov, dtype=np.float64)
    _expect_covariance("Q", spec.Q, n)
    _expect_shape("H", spec.H, (None, n))
    m = spec.H.shape[0]
    _expect_covariance("R", spec.R, m)
    _expect_shape("init_mean", spec.init_mean, (n,))
    _expect_covariance("init_cov", spec.init_cov, n)
    return m


@dataclass
class KalmanSpec:
    """Linear dynamics with Gaussian noise and linear observations.

    The initial state is standard normal unless a mean and covariance
    are given.  When ``bias_cov`` is set, every observation shares one
    latent offset with that prior covariance:
    ``y_t = H x_t + bias + noise``.
    """

    F: np.ndarray
    Q: np.ndarray
    H: np.ndarray
    R: np.ndarray
    observations: np.ndarray
    init_mean: Optional[np.ndarray] = None
    init_cov: Optional[np.ndarray] = None
    bias_cov: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("F", "Q", "H", "R", "observations"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        _expect_shape("F", self.F, (None, None))
        n = self.F.shape[0]
        _expect_shape("F", self.F, (n, n))
        m = _check_linear_gaussian(self, n)
        _expect_shape("observations", self.observations, (None, m))
        if self.bias_cov is not None:
            self.bias_cov = np.asarray(self.bias_cov, dtype=np.float64)
            _expect_covariance("bias_cov", self.bias_cov, m)


def kalman_factors(spec: KalmanSpec) -> Tuple[Term, Term]:
    """The chain's initial factor (the prior, plus the shared offset's
    prior when there is one) and the chained product."""
    n = spec.F.shape[0]
    T, m = spec.observations.shape
    x, scalar = RealArray((n,)), TypeContext()
    prev, curr = TypeContext([("prev", x)]), TypeContext([("curr", x)])
    tr = conditional_gaussian(spec.F, np.zeros(n), spec.Q)
    trans = _gaussian_factor(scalar, prev.union(curr), *tr)
    init = _gaussian_factor(scalar, prev, *dense_gaussian(spec.init_mean, spec.init_cov))
    H, obs_reals = spec.H, curr
    if spec.bias_cov is not None:
        H = np.concatenate([spec.H, np.eye(m)], axis=1)
        bias = TypeContext([("bias", RealArray((m,)))])
        obs_reals = obs_reals.union(bias)
        bias_prior = dense_gaussian(np.zeros(m), spec.bias_cov)
        init = lift("add", init, _gaussian_factor(scalar, bias, *bias_prior))
    i_ob, p_ob, c_ob = observation_factor(H, spec.R, spec.observations)
    obs = _gaussian_factor(TypeContext([("t", Bounded(T))]), obs_reals, i_ob, p_ob, c_ob)
    return init, markov_term("t", [("prev", "curr")], lift("add", trans, obs))


def build_kalman(spec: KalmanSpec) -> Term:
    """Closed lazy chain term for the log evidence of the observations; a
    shared offset is reduced after the chain."""
    with interpretation(LAZY):
        init, chain = kalman_factors(spec)
        out = markov_term(chain.timevar, chain.step, chain.body, init=init)
        return out if spec.bias_cov is None else reduce_term("logaddexp", "bias", out)


# ---------------------------------------------------------------------------
# Switching linear dynamics.


@dataclass
class SldsSpec:
    """Linear dynamics whose matrices switch with a bounded chain state.

    ``transition`` is row-stochastic ``(K, K)`` in probability space;
    the initial switch state is drawn from its first row.  ``F`` holds
    one ``(n, n)`` dynamics matrix per switch state; ``Q``, ``H``, ``R``
    are shared.  The continuous initial state is standard normal unless
    given.  ``window`` is the moment-matching window: how many steps stay
    joint before the oldest is collapsed.
    """

    transition: np.ndarray
    F: np.ndarray
    Q: np.ndarray
    H: np.ndarray
    R: np.ndarray
    init_mean: Optional[np.ndarray] = None
    init_cov: Optional[np.ndarray] = None
    window: int = 1

    def __post_init__(self):
        for name in ("transition", "F", "Q", "H", "R"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        _expect_shape("transition", self.transition, (None, None))
        k = self.transition.shape[0]
        _expect_shape("transition", self.transition, (k, k))
        _expect_shape("F", self.F, (k, None, None))
        n = self.F.shape[-1]
        _expect_shape("F", self.F, (k, n, n))
        _check_linear_gaussian(self, n)
        window = self.window
        if isinstance(window, bool) or not isinstance(window, (int, np.integer)):
            raise FunsorTypeError(f"window must be an integer, got {window!r}")
        self.window = int(window)
        if self.window < 1:
            raise BoundsError(f"window must be at least 1, got {self.window}")


def build_slds(spec: SldsSpec, observations) -> Term:
    """Closed lazy chain term for the log evidence of the observations.

    ``init`` holds the first switch state's row of the transition matrix,
    the prior and observation 0; the body pairs the states ``(x_prev,
    x_curr)`` and ``(s_prev, s_curr)`` of steps ``t - 1`` and ``t``.  No
    one of its tables (the transition, the dynamics and the observation
    constants) spans the others, so they stay apart, and a scan step adds
    them to the carried table in that order, as a step-by-step loop would.
    """
    observations = np.asarray(observations, dtype=np.float64)
    _expect_shape("observations", observations, (None, spec.H.shape[0]))
    log_trans = _log_rows(spec.transition, "transition")
    (K, n), T = spec.F.shape[:2], observations.shape[0]
    if T == 0:
        return to_term(0.0)
    i_dyn, p_dyn, c_dyn = conditional_gaussian(spec.F, np.zeros((K, n)), spec.Q)
    i_0, p_0, c_0 = dense_gaussian(spec.init_mean, spec.init_cov)
    i_ob, p_ob, c_ob = observation_factor(spec.H, spec.R, observations)
    x0, x1 = (TypeContext([(v, RealArray((n,)))]) for v in ("x_prev", "x_curr"))
    s0, s1 = (TypeContext([(v, Bounded(K))]) for v in ("s_prev", "s_curr"))
    # Each parameter set is checked once, where it enters.
    prior = GaussianAtom(TypeContext(), x0, i_0, p_0)
    dyn = GaussianAtom(s1, x0.union(x1), i_dyn, p_dyn)
    p_ob = np.broadcast_to(p_ob, (T, n, n))
    obs = GaussianAtom(TypeContext([("t", Bounded(T))]), x1, i_ob, p_ob)
    i_ob, p_ob = obs.info_vec, obs.precision

    def plus(g: GaussianAtom, const) -> Term:
        return GaussianLeaf(g) + TensorLeaf(TensorAtom._unchecked(g.batch, const))

    with interpretation(LAZY):
        obs_0 = GaussianAtom._unchecked(TypeContext(), x0, i_ob[0], p_ob[0])
        init = TensorLeaf(TensorAtom._unchecked(s0, log_trans[0])) + plus(prior, c_0)
        init = init + plus(obs_0, c_ob[0])
        if T == 1:
            return init.reduce("logaddexp", "x_prev").reduce("logaddexp", "s_prev")
        steps = TypeContext([("t", Bounded(T - 1))])
        obs_t = GaussianAtom._unchecked(steps, x1, i_ob[1:], p_ob[1:])
        trans = TensorLeaf(TensorAtom._unchecked(s0.union(s1), log_trans))
        # The transition spans the dynamics constant, so it meets it only
        # beside the observation constant, which neither spans.
        body = trans + (plus(dyn, c_dyn) + plus(obs_t, c_ob[1:]))
        return markov_term("t", [("x_prev", "x_curr"), ("s_prev", "s_curr")], body, init=init)


def build_slds_marginal(spec: SldsSpec, observations) -> Term:
    """Windowed log evidence: ``build_slds`` under ``MomentMatching`` with
    the model's window, in the sequential scan."""
    with scan_mode("sequential"):
        return interpret(MomentMatching(spec.window), build_slds(spec, observations))


# ---------------------------------------------------------------------------
# Mixture with per-component parameter vectors.


@dataclass
class GmmSpec:
    """Mixture of linear-Gaussian components with latent per-component means.

    All quadratic inputs are in information form.  ``prior_info`` and
    ``prior_prec`` give the shared prior over each component's parameter
    vector ``z_c``; ``cond_info`` and ``cond_prec``, batched over the
    component index, give the conditional factor over the stacked
    ``(z, x)`` vector tying a datum to its component's parameters.
    Component weights are uniform.
    """

    data: np.ndarray
    prior_info: np.ndarray
    prior_prec: np.ndarray
    cond_info: np.ndarray
    cond_prec: np.ndarray

    def __post_init__(self):
        names = ("data", "prior_info", "prior_prec", "cond_info", "cond_prec")
        for name in names:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        _expect_shape("prior_info", self.prior_info, (None,))
        _expect_shape("cond_info", self.cond_info, (None, None))
        (dz,), (k, d) = self.prior_info.shape, self.cond_info.shape
        _expect_shape("prior_prec", self.prior_prec, (dz, dz))
        _expect_shape("cond_prec", self.cond_prec, (k, d, d))
        _expect_shape("data", self.data, (None, d - dz))

    @classmethod
    def from_moments(cls, loadings, offsets, noises, prior_mean, prior_cov, data):
        """Build the information form from per-component moment parameters.

        A datum from component ``c`` is
        ``N(loadings[c] @ z_c + offsets[c], noises[c])`` with
        ``z_c ~ N(prior_mean, prior_cov)``.
        """
        loadings, offsets, noises, prior_mean, prior_cov = (
            np.asarray(a, dtype=np.float64)
            for a in (loadings, offsets, noises, prior_mean, prior_cov)
        )
        _expect_shape("loadings", loadings, (None, None, None))
        k, dx, dz = loadings.shape
        _expect_shape("offsets", offsets, (k, dx))
        _expect_covariance("noises", noises, dx, (k,))
        _expect_shape("prior_mean", prior_mean, (dz,))
        _expect_covariance("prior_cov", prior_cov, dz)
        i_c, p_c, _ = conditional_gaussian(loadings, offsets, noises)
        i_z, p_z, _ = dense_gaussian(prior_mean, prior_cov)
        return cls(data, i_z, p_z, i_c, p_c)


def build_gmm(spec: GmmSpec) -> Term:
    """Lazy term for the log evidence of the data.

    Data are absorbed one at a time: the component assignment reduces
    against the running posterior over all component parameters, so
    under moment matching every mixture branch is a proper density
    before it is matched.  Exact leaves these mixtures lazy.
    """
    K = spec.cond_info.shape[0]
    N, dx = spec.data.shape
    dz = spec.cond_info.shape[1] - dx
    # Normalizing constants follow from the information form: the prior
    # integrates to one over z, the conditional to one over x given z.
    prior_atom = GaussianAtom(
        TypeContext(),
        TypeContext([("z", RealArray((dz,)))]),
        spec.prior_info,
        spec.prior_prec,
    )
    c_z = -float(gaussian_log_normalizer(prior_atom).data)
    c_c = -log_normalizer(spec.cond_info[:, dz:], spec.cond_prec[:, dz:, dz:])

    with interpretation(LAZY):
        zs = var("zs", RealArray((K, dz)))
        c_ctx = TypeContext([("c", Bounded(K))])
        cond_reals = TypeContext([("z", RealArray((dz,))), ("x", RealArray((dx,)))])
        cond = _gaussian_factor(
            c_ctx, cond_reals, spec.cond_info, spec.cond_prec, c_c
        )
        weights = to_term(TensorAtom(c_ctx, np.full(K, -math.log(K))))
        prior = lift("add", to_term(prior_atom), to_term(float(c_z)))
        prior_c = subst_term(prior, {"z": lift(TAKE, zs, var("c", Bounded(K)))})
        joint = reduce_term("add", "c", prior_c)
        for j in range(N):
            x_j = TensorAtom(TypeContext(), spec.data[j], RealArray((dx,)))
            z_of_c = lift(TAKE, zs, var("c", Bounded(K)))
            factor = subst_term(cond, {"z": z_of_c, "x": to_term(x_j)})
            mixed = lift("add", joint, lift("add", weights, factor))
            joint = reduce_term("logaddexp", "c", mixed)
        return reduce_term("logaddexp", "zs", joint)
