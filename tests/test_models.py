"""Tests for the chain and mixture model builders against filter oracles."""

import dataclasses
import itertools

import numpy as np
import pytest

from funsor import markov, models
from funsor.approx import MomentMatching, MonteCarlo
from funsor.domains import Bounded, RealArray, TypeContext
from funsor.errors import BoundsError, FunsorTypeError
from funsor.gaussian import GaussianAtom, gaussian_index_batch, gaussian_rename
from funsor.interp import EXACT, interpret, interpretation, lift, reduce_term, to_term
from funsor.markov import scan_mode
from funsor.models import (
    GmmSpec,
    HmmSpec,
    KalmanSpec,
    SldsSpec,
    build_gmm,
    build_hmm,
    build_kalman,
    build_slds_marginal,
    conditional_gaussian,
    dense_gaussian,
    observation_factor,
)
from funsor.optimize import OPTIMIZE
from funsor.tensor import TensorAtom, index_tensor
from funsor.terms import infer_type


def value(term):
    """Ground scalar of a closed term under the exact rules."""
    return float(interpret(EXACT, term).atom.data)


def matched(term):
    """Ground scalar of a closed term with its mixtures moment-matched."""
    return float(interpret(MomentMatching(), term).atom.data)


def random_stochastic(rng, rows, cols):
    p = rng.uniform(0.2, 1.0, size=(rows, cols))
    return p / p.sum(axis=1, keepdims=True)


def mvn_logpdf(x, mean, cov):
    d = np.asarray(x, dtype=np.float64) - mean
    chol = np.linalg.cholesky(cov)
    half = np.linalg.solve(chol, d)
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    return -0.5 * (d.size * np.log(2.0 * np.pi) + logdet + half @ half)


def forward_loglik(transition, emission_loglik, prior):
    """Log evidence of a state chain by the forward recursion.

    The prior sits on the state before the first transition; every step
    applies one transition and one emission.
    """
    alpha = np.log(prior)
    log_trans = np.log(transition)
    for row in emission_loglik:
        alpha = np.logaddexp.reduce(alpha[:, None] + log_trans, axis=0) + row
    return np.logaddexp.reduce(alpha)


def best_path_score(transition, emission_loglik, prior):
    alpha = np.log(prior)
    log_trans = np.log(transition)
    for row in emission_loglik:
        alpha = np.max(alpha[:, None] + log_trans, axis=0) + row
    return np.max(alpha)


def kalman_loglik(F, Q, H, R, ys, m0, P0):
    """Textbook filter: predict from the pre-initial prior, then update."""
    m, P = np.array(m0, dtype=np.float64), np.array(P0, dtype=np.float64)
    total = 0.0
    for y in ys:
        m = F @ m
        P = F @ P @ F.T + Q
        S = H @ P @ H.T + R
        total += mvn_logpdf(y, H @ m, S)
        gain = np.linalg.solve(S, H @ P).T
        m = m + gain @ (y - H @ m)
        P = P - gain @ H @ P
    return total


def slds_enumeration(spec, ys):
    """Sum the per-path filter likelihood over every switch sequence.

    The first switch state follows the transition matrix's first row and
    the continuous state starts at the given prior with no dynamics step.
    """
    log_trans = np.log(spec.transition)
    n_states = spec.transition.shape[0]
    T = ys.shape[0]
    totals = []
    for path in itertools.product(range(n_states), repeat=T):
        ll = log_trans[0, path[0]]
        for t in range(1, T):
            ll += log_trans[path[t - 1], path[t]]
        m = spec.init_mean.copy()
        P = spec.init_cov.copy()
        for t, y in enumerate(ys):
            if t > 0:
                Ft = spec.F[path[t]]
                m = Ft @ m
                P = Ft @ P @ Ft.T + spec.Q
            S = spec.H @ P @ spec.H.T + spec.R
            ll += mvn_logpdf(y, spec.H @ m, S)
            gain = np.linalg.solve(S, spec.H @ P).T
            m = m + gain @ (y - spec.H @ m)
            P = P - gain @ spec.H @ P
        totals.append(ll)
    return np.logaddexp.reduce(totals)


def gmm_enumeration(loadings, offsets, noises, prior_mean, prior_cov, data):
    """Exact mixture evidence by summing over all component assignments.

    Data assigned to one component share that component's latent
    parameter vector, so their stacked marginal carries a common
    between-datum covariance block.
    """
    n_comp = loadings.shape[0]
    n_data = data.shape[0]
    totals = []
    for combo in itertools.product(range(n_comp), repeat=n_data):
        ll = -n_data * np.log(n_comp)
        for c in range(n_comp):
            rows = [j for j, cj in enumerate(combo) if cj == c]
            if not rows:
                continue
            W, b, R = loadings[c], offsets[c], noises[c]
            mean = np.tile(W @ prior_mean + b, len(rows))
            shared = W @ prior_cov @ W.T
            cov = np.kron(np.ones((len(rows), len(rows))), shared) + np.kron(
                np.eye(len(rows)), R
            )
            ll += mvn_logpdf(data[rows].reshape(-1), mean, cov)
        totals.append(ll)
    return np.logaddexp.reduce(totals)


def random_kalman(rng, n, m, T):
    F = rng.normal(size=(n, n)) * 0.5
    a = rng.normal(size=(n, n))
    Q = a @ a.T + 0.5 * np.eye(n)
    H = rng.normal(size=(m, n))
    b = rng.normal(size=(m, m))
    R = b @ b.T + 0.5 * np.eye(m)
    ys = rng.normal(size=(T, m))
    return KalmanSpec(F=F, Q=Q, H=H, R=R, observations=ys)


def random_slds(rng, n_states, n, T, window):
    F = rng.normal(size=(n_states, n, n)) * 0.5
    a = rng.normal(size=(n, n))
    Q = a @ a.T + 0.5 * np.eye(n)
    H = rng.normal(size=(1, n))
    R = np.array([[0.4]])
    spec = SldsSpec(
        transition=random_stochastic(rng, n_states, n_states),
        F=F,
        Q=Q,
        H=H,
        R=R,
        window=window,
    )
    ys = rng.normal(size=(T, 1))
    return spec, ys


def term_level_slds(spec, ys):
    """The SLDS collapse loop built as terms under moment matching.

    Every step is fused and reduced by the rules: the reference the
    builder's atom-level fold must reproduce bit for bit.
    """
    K = spec.transition.shape[0]
    n = spec.F.shape[-1]
    T = ys.shape[0]
    L = spec.window
    with np.errstate(divide="ignore"):
        log_trans = np.log(spec.transition)
    i_dyn, p_dyn, c_dyn = conditional_gaussian(spec.F, np.zeros((K, n)), spec.Q)
    i_0, p_0, c_0 = dense_gaussian(spec.init_mean, spec.init_cov)
    i_ob, p_ob, c_ob = observation_factor(spec.H, spec.R, ys)
    x_n, z_k = RealArray((n,)), Bounded(K)
    dyn_atom = GaussianAtom(
        TypeContext([("s", z_k)]),
        TypeContext([("prev", x_n), ("curr", x_n)]),
        i_dyn,
        p_dyn,
    )
    obs_atom = GaussianAtom(
        TypeContext([("t", Bounded(T))]),
        TypeContext([("curr", x_n)]),
        i_ob,
        np.broadcast_to(p_ob, (T, n, n)),
    )

    def with_const(g, const):
        return lift("add", to_term(g), to_term(TensorAtom(g.batch, const)))

    with interpretation(MomentMatching()):
        joint = to_term(0.0)
        for t in range(T):
            if t == 0:
                s0 = TypeContext([("s0", z_k)])
                joint = lift("add", joint, to_term(TensorAtom(s0, log_trans[0])))
                x0 = TypeContext([("x0", x_n)])
                init = GaussianAtom(TypeContext(), x0, i_0, p_0)
                joint = lift("add", joint, with_const(init, c_0))
            else:
                pair = TypeContext([(f"s{t - 1}", z_k), (f"s{t}", z_k)])
                joint = lift("add", joint, to_term(TensorAtom(pair, log_trans)))
                names = {"s": f"s{t}", "prev": f"x{t - 1}", "curr": f"x{t}"}
                dyn = gaussian_rename(dyn_atom, names)
                joint = lift("add", joint, with_const(dyn, c_dyn))
            obs = gaussian_index_batch(
                obs_atom, "t", index_tensor(TypeContext(), float(t), T)
            )
            obs = gaussian_rename(obs, {"curr": f"x{t}"})
            joint = lift("add", joint, with_const(obs, c_ob[t]))
            if t >= L:
                joint = reduce_term("logaddexp", f"x{t - L}", joint)
                joint = reduce_term("logaddexp", f"s{t - L}", joint)
        for prefix in ("x", "s"):
            for t in range(max(0, T - L), T):
                joint = reduce_term("logaddexp", f"{prefix}{t}", joint)
    return joint


# The joint holds K ** window switch cells, so full windows over long
# horizons are left to the small state counts.
SLDS_FOLD_CASES = [
    (K, T, window)
    for K in (1, 2, 3)
    for T in (1, 2, 5, 17)
    for window in sorted({1, 2, 3, T})
    if K ** min(window, T) <= 3 ** 5
]

# Long steady states: the step plan is replayed for most of the horizon.
SLDS_REPLAY_CASES = [
    (n, K, window) for n in (1, 3) for K in (2, 3) for window in (1, 2, 3)
]


class TestHmm:
    def test_single_state_sums_emissions(self):
        rng = np.random.default_rng(0)
        emis = rng.normal(size=(7, 1))
        spec = HmmSpec(transition=np.array([[1.0]]), emission_loglik=emis)
        np.testing.assert_allclose(value(build_hmm(spec)), emis.sum(), rtol=1e-12)

    def test_uniform_transition_factorizes_over_steps(self):
        rng = np.random.default_rng(1)
        T, K = 6, 3
        emis = rng.normal(size=(T, K))
        spec = HmmSpec(
            transition=np.full((K, K), 1.0 / K), emission_loglik=emis
        )
        target = T * np.log(1.0 / K) + np.logaddexp.reduce(emis, axis=1).sum()
        np.testing.assert_allclose(value(build_hmm(spec)), target, rtol=1e-12)

    def test_matches_forward_recursion(self):
        rng = np.random.default_rng(2)
        T, K = 20, 3
        trans = random_stochastic(rng, K, K)
        emis = rng.normal(size=(T, K))
        prior = random_stochastic(rng, 1, K)[0]
        spec = HmmSpec(transition=trans, emission_loglik=emis, prior=prior)
        target = forward_loglik(trans, emis, prior)
        np.testing.assert_allclose(value(build_hmm(spec)), target, rtol=1e-9)

    def test_max_elimination_matches_best_path(self):
        rng = np.random.default_rng(3)
        T, K = 5, 3
        trans = random_stochastic(rng, K, K)
        emis = rng.normal(size=(T, K))
        prior = random_stochastic(rng, 1, K)[0]
        spec = HmmSpec(transition=trans, emission_loglik=emis, prior=prior)
        term = build_hmm(spec, elim="max")
        target = best_path_score(trans, emis, prior)
        for mode in ("sequential", "parallel"):
            with scan_mode(mode):
                np.testing.assert_allclose(value(term), target, rtol=1e-10)

    def test_max_chain_carries_its_monoid(self):
        """The chain term names ``max``, so no scan state is needed: the
        value is the best path over every state sequence, enumerated."""
        rng = np.random.default_rng(13)
        T, K = 3, 2
        spec = HmmSpec(
            transition=random_stochastic(rng, K, K),
            emission_loglik=rng.normal(size=(T, K)),
        )
        log_trans = np.log(spec.transition)
        want = max(
            np.log(spec.prior[path[0]])
            + sum(
                log_trans[path[t], path[t + 1]] + spec.emission_loglik[t, path[t + 1]]
                for t in range(T)
            )
            for path in itertools.product(range(K), repeat=T + 1)
        )
        term = build_hmm(spec, elim="max")
        np.testing.assert_allclose(value(term), want, rtol=1e-12)
        for mode in ("sequential", "parallel"):
            with scan_mode(mode):
                np.testing.assert_allclose(value(term), want, rtol=1e-12)

    def test_interpretations_and_scans_agree(self):
        rng = np.random.default_rng(4)
        for _ in range(4):
            K = int(rng.integers(2, 5))
            T = int(rng.integers(2, 17))
            spec = HmmSpec(
                transition=random_stochastic(rng, K, K),
                emission_loglik=rng.normal(size=(T, K)),
            )
            term = build_hmm(spec)
            vals = []
            for interp in (EXACT, OPTIMIZE):
                for mode in ("sequential", "parallel"):
                    with scan_mode(mode):
                        vals.append(float(interpret(interp, term).atom.data))
            np.testing.assert_allclose(vals, vals[0], rtol=1e-8)

    def test_non_stochastic_rows_rejected(self):
        with pytest.raises(FunsorTypeError):
            build_hmm(
                HmmSpec(
                    transition=np.array([[0.5, 0.4], [0.5, 0.5]]),
                    emission_loglik=np.zeros((3, 2)),
                )
            )
        with pytest.raises(FunsorTypeError):
            build_hmm(
                HmmSpec(
                    transition=np.full((2, 2), 0.5),
                    emission_loglik=np.zeros((3, 2)),
                    prior=np.array([0.9, 0.2]),
                )
            )


def zero_observation_kalman():
    """A chain whose observations ignore the state (H = 0)."""
    rng = np.random.default_rng(10)
    n, m, T = 2, 2, 5
    F = np.array([[0.9, 0.1], [0.0, 0.8]])
    Q = np.array([[0.3, 0.05], [0.05, 0.2]])
    R = np.array([[0.5, 0.1], [0.1, 0.4]])
    ys = rng.normal(size=(T, m))
    return KalmanSpec(F=F, Q=Q, H=np.zeros((m, n)), R=R, observations=ys)


class TestKalman:
    def test_zero_observation_matrix_carries_no_information(self):
        spec = zero_observation_kalman()
        m = spec.R.shape[0]
        target = sum(mvn_logpdf(y, np.zeros(m), spec.R) for y in spec.observations)
        np.testing.assert_allclose(value(build_kalman(spec)), target, atol=1e-8)

    def test_optimize_agrees_with_exact_without_observation_information(self):
        """Each observation factor carries no precision on the state, so
        planning must not marginalize the state out of it alone.
        """
        term = build_kalman(zero_observation_kalman())
        for mode in ("sequential", "parallel"):
            with scan_mode(mode):
                want = float(interpret(EXACT, term).atom.data)
                got = float(interpret(OPTIMIZE, term).atom.data)
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_matches_filter_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            T = int(rng.integers(2, 51))
            spec = random_kalman(rng, n, m, T)
            target = kalman_loglik(
                spec.F, spec.Q, spec.H, spec.R, spec.observations,
                spec.init_mean, spec.init_cov,
            )
            np.testing.assert_allclose(value(build_kalman(spec)), target, atol=1e-8)

    def test_shared_offset_matches_augmented_filter(self):
        rng = np.random.default_rng(12)
        n, m, T = 2, 2, 12
        spec = random_kalman(rng, n, m, T)
        c = rng.normal(size=(m, m))
        spec.bias_cov = c @ c.T + 0.5 * np.eye(m)
        Fa = np.block([[spec.F, np.zeros((n, m))], [np.zeros((m, n)), np.eye(m)]])
        Qa = np.block(
            [[spec.Q, np.zeros((n, m))], [np.zeros((m, n)), np.zeros((m, m))]]
        )
        Ha = np.concatenate([spec.H, np.eye(m)], axis=1)
        m0 = np.concatenate([spec.init_mean, np.zeros(m)])
        P0 = np.block(
            [
                [spec.init_cov, np.zeros((n, m))],
                [np.zeros((m, n)), spec.bias_cov],
            ]
        )
        target = kalman_loglik(Fa, Qa, Ha, spec.R, spec.observations, m0, P0)
        np.testing.assert_allclose(value(build_kalman(spec)), target, atol=1e-8)

    def test_scan_modes_agree(self):
        rng = np.random.default_rng(13)
        spec = random_kalman(rng, 2, 1, 9)
        term = build_kalman(spec)
        vals = []
        for mode in ("sequential", "parallel"):
            with scan_mode(mode):
                vals.append(value(term))
        np.testing.assert_allclose(vals[0], vals[1], rtol=1e-8)

    def test_long_sequential_chain_fits_the_default_fuel(self, monkeypatch):
        """A sequential step folds its atoms with kernel calls, which spend
        no fuel, so a chain much longer than the default budget of rule
        firings evaluates."""
        monkeypatch.delenv("FUNSOR_FUEL", raising=False)
        rng = np.random.default_rng(14)
        n, m, T = 3, 2, 4096
        a, b = rng.normal(size=(n, n)), rng.normal(size=(m, m))
        spec = KalmanSpec(
            F=0.9 * np.linalg.qr(rng.normal(size=(n, n)))[0],
            Q=a @ a.T + 0.5 * np.eye(n),
            H=rng.normal(size=(m, n)),
            R=b @ b.T + 0.5 * np.eye(m),
            observations=rng.normal(size=(T, m)),
        )
        target = kalman_loglik(
            spec.F, spec.Q, spec.H, spec.R, spec.observations,
            spec.init_mean, spec.init_cov,
        )
        with scan_mode("sequential"):
            got = value(build_kalman(spec))
        np.testing.assert_allclose(got, target, atol=1e-6)

    def test_long_moment_matching_chain_fits_the_default_fuel(self, monkeypatch):
        """Moment matching declares its classifier, so its sequential steps
        replay plans and spend no fuel, as Exact's do."""
        monkeypatch.delenv("FUNSOR_FUEL", raising=False)
        rng = np.random.default_rng(16)
        n, m, T = 3, 2, 5100
        a, b = rng.normal(size=(n, n)), rng.normal(size=(m, m))
        spec = KalmanSpec(
            F=0.9 * np.linalg.qr(rng.normal(size=(n, n)))[0],
            Q=a @ a.T + 0.5 * np.eye(n),
            H=rng.normal(size=(m, n)),
            R=b @ b.T + 0.5 * np.eye(m),
            observations=rng.normal(size=(T, m)),
        )
        term = build_kalman(spec)
        with scan_mode("sequential"):
            exact = value(term)
            matched = float(interpret(MomentMatching(), term).atom.data)
        assert matched == exact

    def test_folded_steps_equal_the_rule_path(self):
        """Exact and moment matching both declare a classifier, so each
        replays the sequential steps' plans.  No step holds a mixture, so
        both plans run the same cores in the same order: the values are
        equal."""
        from funsor.approx import MomentMatching

        spec = random_kalman(np.random.default_rng(15), 3, 2, 64)
        term = build_kalman(spec)
        with scan_mode("sequential"):
            exact = value(term)
            matched = float(interpret(MomentMatching(), term).atom.data)
        assert exact == matched


class TestSlds:
    def test_single_switch_state_equals_plain_filter(self):
        rng = np.random.default_rng(20)
        n, T = 2, 6
        kal = random_kalman(rng, n, 1, T)
        spec = SldsSpec(
            transition=np.array([[1.0]]),
            F=kal.F[None],
            Q=kal.Q,
            H=kal.H,
            R=kal.R,
            init_mean=kal.F @ kal.init_mean,
            init_cov=kal.F @ kal.init_cov @ kal.F.T + kal.Q,
            window=T,
        )
        got = value(build_slds_marginal(spec, kal.observations))
        np.testing.assert_allclose(got, value(build_kalman(kal)), atol=1e-8)

    def test_full_window_matches_enumeration(self):
        rng = np.random.default_rng(21)
        for T in (2, 4, 5):
            spec, ys = random_slds(rng, 2, 2, T, window=T)
            got = value(build_slds_marginal(spec, ys))
            np.testing.assert_allclose(got, slds_enumeration(spec, ys), atol=1e-8)

    def test_wider_windows_are_closer(self):
        rng = np.random.default_rng(22)
        T = 5
        spec, ys = random_slds(rng, 2, 2, T, window=1)
        exact = slds_enumeration(spec, ys)
        errs = {}
        for window in (1, 3, T):
            spec.window = window
            got = value(build_slds_marginal(spec, ys))
            assert np.isfinite(got)
            errs[window] = abs(got - exact)
        assert errs[3] <= errs[1] + 1e-12
        assert errs[T] <= 1e-8

    def test_parameters_are_checked_once_per_model(self, monkeypatch):
        """The dynamics and observation parameters are checked once, not
        once per step: Cholesky calls made by checked construction, and
        jitter retries, do not grow with the horizon."""
        spec, ys = random_slds(np.random.default_rng(23), 2, 2, 40, window=2)
        init = GaussianAtom.__init__
        cholesky = np.linalg.cholesky
        inside = []
        counts = {}

        def counting_init(self, *args):
            inside.append(True)
            try:
                init(self, *args)
            finally:
                inside.pop()

        def counting_cholesky(m):
            counts["checks"] += bool(inside)
            try:
                return cholesky(m)
            except np.linalg.LinAlgError:
                counts["retries"] += 1
                raise

        monkeypatch.setattr(GaussianAtom, "__init__", counting_init)
        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        seen = []
        for T in (10, 40):
            counts.update(checks=0, retries=0)
            assert np.isfinite(value(build_slds_marginal(spec, ys[:T])))
            seen.append(dict(counts))
        assert seen[0] == seen[1]

    @pytest.mark.parametrize("K,T,window", SLDS_FOLD_CASES)
    def test_atom_fold_equals_the_rule_path(self, K, T, window):
        spec, ys = random_slds(np.random.default_rng([K, T, window]), K, 2, T, window)
        got = value(build_slds_marginal(spec, ys))
        assert got == value(term_level_slds(spec, ys))

    @pytest.mark.parametrize("n,K,window", SLDS_REPLAY_CASES)
    def test_replay_equals_the_rule_path_on_long_steady_states(self, n, K, window):
        rng = np.random.default_rng([n, K, window, 40])
        spec, ys = random_slds(rng, K, n, 40, window)
        got = value(build_slds_marginal(spec, ys))
        assert got == value(term_level_slds(spec, ys))

    def test_step_plans_are_derived_once_per_signature(self, monkeypatch):
        """Plan derivations and context constructions do not grow with
        the horizon: every step replays a plan derived for its signature."""
        spec, ys = random_slds(np.random.default_rng(25), 2, 2, 128, window=2)
        derive = markov.pair_plan
        init = TypeContext.__init__
        counts = {}

        def counting_derive(*args):
            counts["plans"] += 1
            return derive(*args)

        def counting_init(self, *args):
            counts["contexts"] += 1
            init(self, *args)

        monkeypatch.setattr(markov, "pair_plan", counting_derive)
        monkeypatch.setattr(TypeContext, "__init__", counting_init)
        seen = []
        for T in (32, 128):
            counts.update(plans=0, contexts=0)
            assert np.isfinite(value(build_slds_marginal(spec, ys[:T])))
            seen.append(dict(counts))
        assert seen[0] == seen[1]
        assert seen[0]["plans"] <= 6

    def test_identity_transition_equals_plain_filter(self):
        """With the switch stuck in its first state every mixture has one
        live component, and the cells of the dead state weigh -inf."""
        rng = np.random.default_rng(26)
        n, T = 2, 8
        kal = random_kalman(rng, n, 1, T)
        for window in (1, 2, 3):
            spec = SldsSpec(
                transition=np.eye(2),
                F=np.stack([kal.F, rng.normal(size=(n, n))]),
                Q=kal.Q,
                H=kal.H,
                R=kal.R,
                init_mean=kal.F @ kal.init_mean,
                init_cov=kal.F @ kal.init_cov @ kal.F.T + kal.Q,
                window=window,
            )
            with np.errstate(all="raise"):
                got = value(build_slds_marginal(spec, kal.observations))
            np.testing.assert_allclose(got, value(build_kalman(kal)), atol=1e-8)

    def test_sparse_transition_full_window_matches_enumeration(self):
        rng = np.random.default_rng(27)
        for T in (2, 4, 5):
            spec, ys = random_slds(rng, 2, 2, T, window=T)
            spec.transition = np.array([[1.0, 0.0], [0.5, 0.5]])
            got = value(build_slds_marginal(spec, ys))
            with np.errstate(divide="ignore"):
                want = slds_enumeration(spec, ys)
            np.testing.assert_allclose(got, want, atol=1e-8)

    def test_window_below_one_rejected(self):
        with pytest.raises(BoundsError):
            SldsSpec(
                transition=np.array([[1.0]]),
                F=np.eye(2)[None],
                Q=np.eye(2),
                H=np.ones((1, 2)),
                R=np.eye(1),
                window=0,
            )

    def test_window_must_be_an_integer(self):
        rng = np.random.default_rng(24)
        spec, _ = random_slds(rng, 2, 2, 3, window=np.int64(2))
        assert spec.window == 2 and type(spec.window) is int
        for window in (1.5, 2.0, float("nan"), "two", True):
            with pytest.raises(FunsorTypeError):
                random_slds(rng, 2, 2, 3, window=window)


class TestGmm:
    def setup_method(self):
        rng = np.random.default_rng(30)
        self.loadings = rng.normal(size=(2, 1, 2))
        self.offsets = rng.normal(size=(2, 1))
        self.noises = np.array([[[0.5]], [[0.8]]])
        self.prior_mean = rng.normal(size=2)
        a = rng.normal(size=(2, 2))
        self.prior_cov = a @ a.T + np.eye(2)
        self.rng = rng

    def spec_for(self, data, loadings=None):
        loadings = self.loadings if loadings is None else loadings
        return GmmSpec.from_moments(
            loadings[: len(self.noises)],
            self.offsets,
            self.noises,
            self.prior_mean,
            self.prior_cov,
            data,
        )

    def test_single_component_matches_dense_joint(self):
        data = self.rng.normal(size=(3, 1))
        spec = GmmSpec.from_moments(
            self.loadings[:1],
            self.offsets[:1],
            self.noises[:1],
            self.prior_mean,
            self.prior_cov,
            data,
        )
        target = gmm_enumeration(
            self.loadings[:1], self.offsets[:1], self.noises[:1],
            self.prior_mean, self.prior_cov, data,
        )
        np.testing.assert_allclose(matched(build_gmm(spec)), target, atol=1e-8)

    def test_one_datum_matches_enumeration(self):
        data = self.rng.normal(size=(1, 1))
        spec = self.spec_for(data)
        target = gmm_enumeration(
            self.loadings, self.offsets, self.noises,
            self.prior_mean, self.prior_cov, data,
        )
        got = matched(build_gmm(spec))
        assert abs(got - target) <= 0.15 * abs(target)
        np.testing.assert_allclose(got, target, atol=1e-8)

    def test_identical_components_single_datum_exact(self):
        # With one datum the matched mixture is integrated out whole, so
        # mass preservation makes the evidence exact; with more data the
        # per-component latent vectors keep branches distinct even for
        # identical parameters and matching becomes approximate.
        data = self.rng.normal(size=(1, 1))
        loadings = np.broadcast_to(self.loadings[0], (2, 1, 2)).copy()
        offsets = np.broadcast_to(self.offsets[0], (2, 1)).copy()
        noises = np.broadcast_to(self.noises[0], (2, 1, 1)).copy()
        spec = GmmSpec.from_moments(
            loadings, offsets, noises, self.prior_mean, self.prior_cov, data
        )
        target = gmm_enumeration(
            loadings, offsets, noises, self.prior_mean, self.prior_cov, data
        )
        np.testing.assert_allclose(matched(build_gmm(spec)), target, atol=1e-8)

    def test_tight_prior_shrinks_matching_error(self):
        data = self.rng.normal(size=(3, 1))
        tight = 0.01 * np.eye(2)
        spec = GmmSpec.from_moments(
            self.loadings, self.offsets, self.noises,
            self.prior_mean, tight, data,
        )
        target = gmm_enumeration(
            self.loadings, self.offsets, self.noises,
            self.prior_mean, tight, data,
        )
        np.testing.assert_allclose(matched(build_gmm(spec)), target, atol=1e-3)

    def test_several_data_stay_near_enumeration(self):
        data = self.rng.normal(size=(3, 1))
        spec = self.spec_for(data)
        target = gmm_enumeration(
            self.loadings, self.offsets, self.noises,
            self.prior_mean, self.prior_cov, data,
        )
        got = matched(build_gmm(spec))
        assert abs(got - target) <= 0.15 * abs(target)


class TestBuilderJudgements:
    def test_outputs_are_closed_scalars(self):
        rng = np.random.default_rng(40)
        hmm = build_hmm(
            HmmSpec(
                transition=random_stochastic(rng, 2, 2),
                emission_loglik=rng.normal(size=(4, 2)),
            )
        )
        kalman = build_kalman(random_kalman(rng, 2, 1, 4))
        slds_spec, ys = random_slds(rng, 2, 2, 3, window=3)
        slds = build_slds_marginal(slds_spec, ys)
        gmm = build_gmm(
            GmmSpec.from_moments(
                rng.normal(size=(2, 1, 2)),
                rng.normal(size=(2, 1)),
                np.array([[[0.5]], [[0.8]]]),
                rng.normal(size=2),
                np.eye(2),
                rng.normal(size=(2, 1)),
            )
        )
        for term in (hmm, kalman, slds, gmm):
            assert term.free_vars.names == ()
            ctx, tp = infer_type(term)
            assert ctx == TypeContext()
            assert tp == RealArray(())


class TestTrustBoundary:
    """Model data is checked once, where it enters; every atom the engine
    derives from checked atoms is built unchecked."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """Counts of checked ``TensorAtom`` and ``GaussianAtom`` constructions."""
        counts = {"TensorAtom": 0, "GaussianAtom": 0}

        def counting(init, name):
            def wrapped(self, *args, **kwargs):
                counts[name] += 1
                init(self, *args, **kwargs)

            return wrapped

        for cls in (TensorAtom, GaussianAtom):
            monkeypatch.setattr(cls, "__init__", counting(cls.__init__, cls.__name__))
        return counts

    @pytest.mark.parametrize("scan", ["sequential", "parallel"])
    @pytest.mark.parametrize(
        "interp",
        [EXACT, OPTIMIZE, MomentMatching(), MonteCarlo(0)],
        ids=lambda i: i.name,
    )
    @pytest.mark.parametrize("family", ["hmm", "kalman"])
    def test_chains_evaluate_without_checked_construction(
        self, checked, family, interp, scan
    ):
        # An odd length makes the parallel scan join a leftover cell.
        rng = np.random.default_rng(50)
        if family == "hmm":
            spec = HmmSpec(random_stochastic(rng, 3, 3), rng.normal(size=(33, 3)))
            term = build_hmm(spec)
        else:
            spec = random_kalman(rng, 2, 2, 33)
            term = build_kalman(dataclasses.replace(spec, bias_cov=np.eye(2)))
        checked.update(TensorAtom=0, GaussianAtom=0)
        with scan_mode(scan):
            out = interpret(interp, term)
        assert np.isfinite(float(out.atom.data))
        assert checked == {"TensorAtom": 0, "GaussianAtom": 0}

    def test_slds_checks_only_its_three_factors(self, checked):
        spec, ys = random_slds(np.random.default_rng(51), 2, 2, 33, window=2)
        checked.update(TensorAtom=0, GaussianAtom=0)
        assert np.isfinite(value(build_slds_marginal(spec, ys)))
        assert checked == {"TensorAtom": 0, "GaussianAtom": 3}

    def test_gmm_checks_only_its_factors_and_data(self, checked):
        rng = np.random.default_rng(52)
        spec = GmmSpec.from_moments(
            rng.normal(size=(3, 2, 2)),
            rng.normal(size=(3, 2)),
            np.stack([0.5 * np.eye(2)] * 3),
            rng.normal(size=2),
            np.eye(2),
            rng.normal(size=(5, 2)),
        )
        checked.update(TensorAtom=0, GaussianAtom=0)
        assert np.isfinite(matched(build_gmm(spec)))
        # The prior and the conditional factor, its constant, the weights,
        # and one table per datum.
        assert checked == {"TensorAtom": 2 + 5, "GaussianAtom": 2}


class TestFilteringCarry:
    """A closed chain's sequential scan starts from its initial factor and
    carries a message over the current state, as the forward algorithm
    and the Kalman filter do."""

    @staticmethod
    def gen():
        import os
        import sys

        sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
        import gen

        return gen

    def test_hmm_steps_contract_a_vector(self, monkeypatch):
        from funsor import optimize

        gen = self.gen()
        doc = gen.draw(gen.WORKLOADS["hmm_parallel"], 3, gen.TIMED, 0)
        term = build_hmm(HmmSpec(doc["transition"], doc["emission_loglik"]))
        real = optimize.contract_arrays
        carried = []

        def spy(op, layout, arrays):
            carried.append(arrays[0].shape)
            return real(op, layout, arrays)

        monkeypatch.setattr(optimize, "contract_arrays", spy)
        with scan_mode("sequential"):
            got = value(term)
        assert carried == [(64,)] * 128
        np.testing.assert_allclose(
            got, gen.hmm_forward(doc["transition"], doc["emission_loglik"]), rtol=1e-12
        )

    def test_long_switching_chain_fits_the_default_fuel(self, monkeypatch):
        monkeypatch.delenv("FUNSOR_FUEL", raising=False)
        gen = self.gen()
        doc = gen.draw_slds(gen.rng_for(61, 0, 0), 2, 2, 1, 1000, 2)
        keys = ("transition", "F", "Q", "H", "R", "window")
        got = value(build_slds_marginal(SldsSpec(**{k: doc[k] for k in keys}), doc["observations"]))
        want = gen.slds_filter(*(doc[k] for k in keys[:-1]), doc["observations"], 2)
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_parallel_scan_refuses_a_window(self):
        from funsor.errors import ScanUnsupported

        spec, ys = random_slds(np.random.default_rng(62), 2, 2, 9, window=2)
        term = models.build_slds(spec, ys)
        with scan_mode("parallel"), pytest.raises(ScanUnsupported):
            interpret(MomentMatching(window=2), term)
        with scan_mode("sequential"):
            assert value(build_slds_marginal(spec, ys)) == float(
                interpret(MomentMatching(window=2), term).atom.data
            )
