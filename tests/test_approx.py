"""Tests for moment matching and Monte Carlo estimation."""

import dataclasses

import numpy as np
import pytest

from funsor.approx import (
    MomentMatching,
    MonteCarlo,
    RngState,
    mc_sample_discrete,
    moment_match,
)
from funsor.domains import Bounded, RealArray, TypeContext
from funsor.errors import BoundsError, NameAbsent
from funsor.gaussian import GaussianAtom, gaussian_log_normalizer
from funsor.interp import EXACT, LAZY, interpret, interpretation, lift, reduce_term
from funsor.tensor import TensorAtom
from funsor.terms import Apply, GaussianLeaf, TensorLeaf


def random_mixture(rng, n_comp, dim=1):
    """Weights plus a batch of Gaussian components over a shared real var."""
    w = rng.normal(size=n_comp)
    w = w - np.logaddexp.reduce(w) + rng.normal()
    weight = TensorAtom(TypeContext([("c", Bounded(n_comp))]), w)
    info = rng.normal(size=(n_comp, dim))
    prec = np.empty((n_comp, dim, dim))
    for k in range(n_comp):
        a = rng.normal(size=(dim, dim))
        prec[k] = a @ a.T + (0.5 + 0.5 * dim) * np.eye(dim)
    gauss = GaussianAtom(
        TypeContext([("c", Bounded(n_comp))]),
        TypeContext([("x", RealArray((dim,) if dim > 1 else ()))]),
        info if dim > 1 else info,
        prec,
    )
    return weight, gauss


def atom_moments(g):
    """Mean and covariance of a Gaussian atom without batch dims."""
    cov = np.linalg.inv(g.precision)
    return cov @ g.info_vec, cov


def mixture_term(weight, gauss):
    """Lazy log-joint over the mixture label c and the real payload x."""
    with interpretation(LAZY):
        return lift("add", TensorLeaf(weight), GaussianLeaf(gauss))


class TestMomentMatch:
    def test_symmetric_unit_pair_gives_zero_mean_variance_two(self):
        weight = TensorAtom(TypeContext([("c", Bounded(2))]), np.log([0.5, 0.5]))
        gauss = GaussianAtom(
            TypeContext([("c", Bounded(2))]),
            TypeContext([("x", RealArray(()))]),
            np.array([[-1.0], [1.0]]),
            np.array([[[1.0]], [[1.0]]]),
        )
        matched, _ = moment_match(weight, gauss, "c")
        mean, cov = atom_moments(matched)
        assert mean[0] == 0.0
        assert cov[0, 0] == 2.0
        assert matched.precision[0, 0] == 0.5
        assert matched.info_vec[0] == 0.0

    def test_degenerate_mixture_recovers_component(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            n_comp = int(rng.integers(2, 5))
            info = rng.normal(size=2)
            a = rng.normal(size=(2, 2))
            prec = a @ a.T + 1.5 * np.eye(2)
            gauss = GaussianAtom(
                TypeContext([("c", Bounded(n_comp))]),
                TypeContext([("x", RealArray((2,)))]),
                np.broadcast_to(info, (n_comp, 2)).copy(),
                np.broadcast_to(prec, (n_comp, 2, 2)).copy(),
            )
            w = rng.normal(size=n_comp)
            weight = TensorAtom(TypeContext([("c", Bounded(n_comp))]), w)
            matched, reduced = moment_match(weight, gauss, "c")
            np.testing.assert_allclose(matched.info_vec, info, atol=1e-10)
            np.testing.assert_allclose(matched.precision, prec, atol=1e-10)
            np.testing.assert_allclose(
                reduced.data, np.logaddexp.reduce(w), atol=1e-10
            )

    def test_total_mass_is_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            weight, gauss = random_mixture(rng, int(rng.integers(2, 6)))
            matched, reduced = moment_match(weight, gauss, "c")
            mix_mass = np.logaddexp.reduce(
                weight.data + gaussian_log_normalizer(gauss).data
            )
            matched_mass = float(reduced.data) + float(
                gaussian_log_normalizer(matched).data
            )
            np.testing.assert_allclose(matched_mass, mix_mass, rtol=1e-12)

    def test_moments_agree_with_quadrature(self):
        rng = np.random.default_rng(2)
        xs = np.linspace(-30.0, 30.0, 120001)
        for _ in range(5):
            weight, gauss = random_mixture(rng, 3)
            matched, reduced = moment_match(weight, gauss, "c")
            info = gauss.info_vec[:, 0]
            prec = gauss.precision[:, 0, 0]
            logp = np.logaddexp.reduce(
                weight.data[:, None]
                + info[:, None] * xs[None, :]
                - 0.5 * prec[:, None] * xs[None, :] ** 2,
                axis=0,
            )
            dens = np.exp(logp)
            mass = np.trapezoid(dens, xs)
            mean = np.trapezoid(xs * dens, xs) / mass
            var = np.trapezoid((xs - mean) ** 2 * dens, xs) / mass
            mu, cov = atom_moments(matched)
            matched_mass = np.exp(
                float(reduced.data) + float(gaussian_log_normalizer(matched).data)
            )
            np.testing.assert_allclose(matched_mass, mass, rtol=1e-4)
            np.testing.assert_allclose(mu[0], mean, atol=1e-6)
            np.testing.assert_allclose(cov[0, 0], var, rtol=1e-5)

    def test_none_weight_means_zero_log_weights(self):
        rng = np.random.default_rng(3)
        _, gauss = random_mixture(rng, 4)
        zeros = TensorAtom(TypeContext([("c", Bounded(4))]), np.zeros(4))
        m_none, r_none = moment_match(None, gauss, "c")
        m_zero, r_zero = moment_match(zeros, gauss, "c")
        np.testing.assert_allclose(m_none.info_vec, m_zero.info_vec, rtol=1e-12)
        np.testing.assert_allclose(m_none.precision, m_zero.precision, rtol=1e-12)
        np.testing.assert_allclose(r_none.data, r_zero.data, rtol=1e-12)

    def test_singular_matched_covariance_is_jittered(self, monkeypatch):
        """Two sharp components whose means lie on a line match to a
        covariance that is exactly rank one in floating point
        (``[[1, 1], [1, 1]]``: the components' 1e-20 variances round away),
        so ``np.linalg.inv`` raises; the jittered factor inverts it instead.
        """
        import funsor.approx as approx

        c = TypeContext([("c", Bounded(2))])
        sharp = 1e20
        gauss = GaussianAtom(
            c,
            TypeContext([("x", RealArray((2,)))]),
            sharp * np.array([[-1.0, -1.0], [1.0, 1.0]]),
            sharp * np.broadcast_to(np.eye(2), (2, 2, 2)),
        )
        weight = TensorAtom(c, np.log([0.5, 0.5]))
        factored = []
        real = approx._cholesky_jitter

        def spy(mats):
            factored.append(mats.shape)
            return real(mats)

        monkeypatch.setattr(approx, "_cholesky_jitter", spy)
        matched, reduced = moment_match(weight, gauss, "c")
        assert factored == [(2, 2, 2), (2, 2)]  # the components, then cov2
        np.testing.assert_array_equal(matched.info_vec, [0.0, 0.0])
        np.testing.assert_array_equal(matched.precision, matched.precision.T)
        along, across = np.array([1.0, 1.0]), np.array([1.0, -1.0])
        # Variance 2 along the line; the jitter bounds the precision across it.
        np.testing.assert_allclose(along @ matched.precision @ along / 2, 0.5, rtol=1e-5)
        assert across @ matched.precision @ across / 2 > 1e9
        mix_mass = np.logaddexp.reduce(weight.data + gaussian_log_normalizer(gauss).data)
        matched_mass = float(reduced.data) + float(gaussian_log_normalizer(matched).data)
        np.testing.assert_allclose(matched_mass, mix_mass, rtol=1e-12)

    def test_batched_matches_per_slice(self):
        rng = np.random.default_rng(4)
        info = rng.normal(size=(2, 3, 1))
        prec = rng.uniform(0.5, 2.0, size=(2, 3, 1, 1))
        gauss = GaussianAtom(
            TypeContext([("b", Bounded(2)), ("c", Bounded(3))]),
            TypeContext([("x", RealArray(()))]),
            info,
            prec,
        )
        w = rng.normal(size=(2, 3))
        weight = TensorAtom(
            TypeContext([("b", Bounded(2)), ("c", Bounded(3))]), w
        )
        matched, reduced = moment_match(weight, gauss, "c")
        assert matched.precision.shape == (2, 1, 1)
        assert reduced.context.names == ("b",)
        for b in range(2):
            g_b = GaussianAtom(
                TypeContext([("c", Bounded(3))]),
                TypeContext([("x", RealArray(()))]),
                info[b],
                prec[b],
            )
            w_b = TensorAtom(TypeContext([("c", Bounded(3))]), w[b])
            m_b, r_b = moment_match(w_b, g_b, "c")
            np.testing.assert_allclose(matched.info_vec[b], m_b.info_vec, rtol=1e-12)
            np.testing.assert_allclose(matched.precision[b], m_b.precision, rtol=1e-12)
            np.testing.assert_allclose(reduced.data[b], r_b.data, rtol=1e-12)

    def test_cell_without_mass_matches_evenly(self):
        """A cell whose components all weigh -inf keeps weight -inf and
        gets a finite factor, without a floating-point warning; the other
        cells do not depend on it, bit for bit."""
        rng = np.random.default_rng(6)
        info = rng.normal(size=(2, 3, 2))
        a = rng.normal(size=(2, 3, 2, 2))
        prec = a @ np.swapaxes(a, -1, -2) + np.eye(2)
        ctx = TypeContext([("b", Bounded(2)), ("c", Bounded(3))])
        gauss = GaussianAtom(ctx, TypeContext([("x", RealArray((2,)))]), info, prec)
        w = rng.normal(size=(2, 3))
        w[0, 1] = -np.inf
        dead = w.copy()
        dead[1] = -np.inf
        with np.errstate(all="raise"):
            m_dead, r_dead = moment_match(TensorAtom(ctx, dead), gauss, "c")
        m_live, r_live = moment_match(TensorAtom(ctx, w), gauss, "c")
        assert r_dead.data[1] == -np.inf
        assert np.all(np.isfinite(m_dead.info_vec[1]))
        assert np.all(np.linalg.eigvalsh(m_dead.precision[1]) > 0)
        np.testing.assert_array_equal(r_dead.data[0], r_live.data[0])
        np.testing.assert_array_equal(m_dead.info_vec[0], m_live.info_vec[0])
        np.testing.assert_array_equal(m_dead.precision[0], m_live.precision[0])

    def test_missing_variable_raises(self):
        rng = np.random.default_rng(5)
        weight, gauss = random_mixture(rng, 3)
        with pytest.raises(NameAbsent):
            moment_match(weight, gauss, "zz")


class TestMomentMatchingInterpretation:
    def test_mixture_evidence_matches_exact(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            weight, gauss = random_mixture(rng, int(rng.integers(2, 5)))
            model = mixture_term(weight, gauss)
            with interpretation(LAZY):
                mixed_first = reduce_term(
                    "logaddexp", "x", reduce_term("logaddexp", "c", model)
                )
                integrated_first = reduce_term(
                    "logaddexp", "c", reduce_term("logaddexp", "x", model)
                )
            exact = float(interpret(EXACT, integrated_first).atom.data)
            mm = float(interpret(MomentMatching(), mixed_first).atom.data)
            np.testing.assert_allclose(mm, exact, rtol=1e-10)

    def test_partial_reduce_returns_matched_gaussian(self):
        rng = np.random.default_rng(11)
        weight, gauss = random_mixture(rng, 3)
        model = mixture_term(weight, gauss)
        with interpretation(LAZY):
            partial = reduce_term("logaddexp", "c", model)
        out = interpret(MomentMatching(), partial)
        assert isinstance(out, Apply)
        parts = {type(arg).__name__: arg for arg in out.args}
        assert set(parts) == {"TensorLeaf", "GaussianLeaf"}
        matched, reduced = moment_match(weight, gauss, "c")
        np.testing.assert_allclose(
            parts["GaussianLeaf"].atom.info_vec, matched.info_vec, rtol=1e-12
        )
        np.testing.assert_allclose(
            parts["GaussianLeaf"].atom.precision, matched.precision, rtol=1e-12
        )
        np.testing.assert_allclose(
            parts["TensorLeaf"].atom.data, reduced.data, rtol=1e-12
        )

    def test_window_below_one_is_refused(self):
        with pytest.raises(BoundsError, match="window must be at least 1, got 0"):
            MomentMatching(window=0)

    def test_pure_discrete_falls_back_to_exact(self):
        rng = np.random.default_rng(12)
        data = rng.normal(size=(3, 4))
        atom = TensorAtom(
            TypeContext([("i", Bounded(3)), ("j", Bounded(4))]), data
        )
        with interpretation(LAZY):
            term = reduce_term(
                "logaddexp", "i", reduce_term("logaddexp", "j", TensorLeaf(atom))
            )
        mm = float(interpret(MomentMatching(), term).atom.data)
        np.testing.assert_allclose(mm, np.logaddexp.reduce(data, axis=None), rtol=1e-12)


class TestRngState:
    def test_seed_must_be_a_philox_key(self):
        RngState(0)
        RngState(2**128 - 1)
        for seed in (-1, 2**128):
            with pytest.raises(BoundsError):
                RngState(seed)

    def test_same_state_same_stream(self):
        a = RngState(42, 7).generator().normal(size=5)
        b = RngState(42, 7).generator().normal(size=5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_counters_distinct_streams(self):
        a = RngState(42, 0).generator().normal(size=5)
        b = RngState(42, 1024).generator().normal(size=5)
        assert np.abs(a - b).max() > 1e-8

    def test_advance_moves_counter(self):
        state = RngState(9)
        assert state.counter == 0
        stepped = state.advance(3)
        assert stepped == RngState(9, 3)
        assert stepped.advance(4) == RngState(9, 7)

    def test_state_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RngState(1).counter = 5


class TestMcSampleDiscrete:
    def setup_method(self):
        self.weight = TensorAtom(
            TypeContext([("c", Bounded(3))]), np.log([0.2, 0.3, 0.5])
        )
        self.gauss = GaussianAtom(
            TypeContext([("c", Bounded(3))]),
            TypeContext([("x", RealArray(()))]),
            np.array([[-1.0], [0.0], [2.0]]),
            np.array([[[1.0]], [[1.0]], [[0.5]]]),
        )

    def test_estimator_drops_sampled_variable(self):
        est = mc_sample_discrete(
            self.weight, "c", GaussianLeaf(self.gauss), RngState(0)
        )
        assert est.free_vars.names == ("x",)

    def test_no_rest_is_exact_for_every_seed(self):
        target = np.logaddexp.reduce(self.weight.data)
        for seed in range(20):
            est = mc_sample_discrete(self.weight, "c", None, RngState(seed))
            value = float(interpret(EXACT, est).atom.data)
            np.testing.assert_allclose(value, target, rtol=1e-12)

    def test_unbiased_in_probability_space(self):
        with interpretation(LAZY):
            rest = GaussianLeaf(self.gauss)
        target = np.exp(
            np.logaddexp.reduce(
                self.weight.data + gaussian_log_normalizer(self.gauss).data
            )
        )
        n = 4000
        draws = np.empty(n)
        for k in range(n):
            est = mc_sample_discrete(self.weight, "c", rest, RngState(7, 64 * k))
            with interpretation(LAZY):
                total = reduce_term("logaddexp", "x", est)
            draws[k] = float(interpret(EXACT, total).atom.data)
        probs = np.exp(draws)
        se = probs.std() / np.sqrt(n)
        assert abs(probs.mean() - target) < 3.0 * se

    def test_fixed_state_is_deterministic(self):
        first = mc_sample_discrete(
            self.weight, "c", GaussianLeaf(self.gauss), RngState(5, 11)
        )
        second = mc_sample_discrete(
            self.weight, "c", GaussianLeaf(self.gauss), RngState(5, 11)
        )
        with interpretation(LAZY):
            a = reduce_term("logaddexp", "x", first)
            b = reduce_term("logaddexp", "x", second)
        assert float(interpret(EXACT, a).atom.data) == float(
            interpret(EXACT, b).atom.data
        )


class TestMonteCarloInterpretation:
    def setup_method(self):
        rng = np.random.default_rng(21)
        self.weight, self.gauss = random_mixture(rng, 3)
        model = mixture_term(self.weight, self.gauss)
        with interpretation(LAZY):
            self.term = reduce_term(
                "logaddexp", "x", reduce_term("logaddexp", "c", model)
            )
            self.exact_term = reduce_term(
                "logaddexp", "c", reduce_term("logaddexp", "x", model)
            )
        self.exact = float(interpret(EXACT, self.exact_term).atom.data)

    def test_fixed_seed_is_bit_identical(self):
        a = float(interpret(MonteCarlo(RngState(123, 0)), self.term).atom.data)
        b = float(interpret(MonteCarlo(RngState(123, 0)), self.term).atom.data)
        assert a == b

    def test_counter_offsets_vary_the_draw(self):
        vals = [
            float(interpret(MonteCarlo(RngState(123, 1024 * k)), self.term).atom.data)
            for k in range(8)
        ]
        assert np.std(vals) > 1e-8

    def test_integer_seed_is_accepted(self):
        assert MonteCarlo(5).state == RngState(5, 0)
        value = float(interpret(MonteCarlo(0), self.term).atom.data)
        assert np.isfinite(value)

    def test_mean_over_seeds_is_unbiased(self):
        n = 4000
        draws = np.array(
            [
                float(
                    interpret(MonteCarlo(RngState(7, 64 * k)), self.term).atom.data
                )
                for k in range(n)
            ]
        )
        probs = np.exp(draws)
        se = probs.std() / np.sqrt(n)
        assert abs(probs.mean() - np.exp(self.exact)) < 3.0 * se

    def test_pure_discrete_model_is_exact(self):
        rng = np.random.default_rng(22)
        data = rng.normal(size=(4, 3))
        atom = TensorAtom(
            TypeContext([("i", Bounded(4)), ("j", Bounded(3))]), data
        )
        with interpretation(LAZY):
            term = reduce_term(
                "logaddexp", "i", reduce_term("logaddexp", "j", TensorLeaf(atom))
            )
        target = np.logaddexp.reduce(data, axis=None)
        for seed in range(10):
            value = float(interpret(MonteCarlo(seed), term).atom.data)
            np.testing.assert_allclose(value, target, rtol=1e-12)


class TestMonteCarloParticles:
    setup_method = TestMonteCarloInterpretation.setup_method

    def test_particles_draw_once_along_one_variable(self):
        mc = MonteCarlo(RngState(3), samples=4000)
        out = interpret(mc, self.term).atom
        assert out.context == mc.particles
        assert mc.particles.typeof(mc.particles.names[0]) == Bounded(4000)
        assert mc.draws == 1
        assert len(np.unique(out.data)) > 1

    def test_particle_mean_is_unbiased(self):
        data = interpret(MonteCarlo(RngState(3), samples=4000), self.term).atom.data
        probs = np.exp(data)
        se = probs.std() / np.sqrt(probs.size)
        assert abs(probs.mean() - np.exp(self.exact)) < 3.0 * se

    def test_one_sample_keeps_the_draws(self):
        """Pinned values of the one-draw estimator, unchanged since it
        first sampled mixtures one draw per evaluation."""
        for counter, want in [(0, "0x1.7164d2529e964p+1"), (3, "0x1.1bebaed498563p+1")]:
            mc = MonteCarlo(RngState(123, counter), samples=1)
            assert float(interpret(mc, self.term).atom.data).hex() == want

    def test_no_mixture_no_particle_axis(self):
        atom = TensorAtom(TypeContext([("i", Bounded(4))]), np.arange(4.0))
        with interpretation(LAZY):
            term = reduce_term("logaddexp", "i", TensorLeaf(atom))
        mc = MonteCarlo(0, samples=50)
        assert interpret(mc, term).atom.context == TypeContext()
        assert mc.draws == 0

    def test_label_the_weights_lack_is_drawn_evenly(self):
        """A mixture with no weight table over its label reduces to a
        table, as under moment matching, and its particles estimate the
        evidence without bias."""
        with interpretation(LAZY):
            term = reduce_term(
                "logaddexp", "x", reduce_term("logaddexp", "c", GaussianLeaf(self.gauss))
            )
            exact = reduce_term(
                "logaddexp", "c", reduce_term("logaddexp", "x", GaussianLeaf(self.gauss))
            )
        assert isinstance(interpret(MomentMatching(), term), TensorLeaf)
        out = interpret(MonteCarlo(RngState(4), samples=4000), term)
        assert isinstance(out, TensorLeaf)
        probs = np.exp(out.atom.data)
        se = probs.std() / np.sqrt(probs.size)
        target = np.exp(float(interpret(EXACT, exact).atom.data))
        assert abs(probs.mean() - target) < 3.0 * se

    @pytest.mark.parametrize("samples", [0, -1])
    def test_needs_a_sample(self, samples):
        with pytest.raises(BoundsError):
            MonteCarlo(0, samples=samples)
