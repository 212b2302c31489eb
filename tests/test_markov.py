"""Chained products over a time axis: sequential fold and doubling scan.

The oracle is the explicit left fold: eliminate the linking variable
between consecutive slices one step at a time with plain numpy.
"""

import math

import numpy as np
import pytest

from funsor import markov
from funsor.domains import Bounded, RealArray, TypeContext
from funsor.errors import BoundsError, FunsorTypeError, InvalidMatching
from funsor.gaussian import GaussianAtom
from funsor.interp import (
    EXACT,
    LAZY,
    Interpretation,
    interpret,
    interpretation,
    lift,
    markov_term,
    reduce_term,
    subst_term,
    to_term,
)
from funsor.markov import SCAN_MODES, scan_mode
from funsor.ops import ADD_REDUCE, LOGADDEXP_REDUCE, MAX_REDUCE
from funsor.tensor import TensorAtom
from funsor.terms import (
    GaussianLeaf,
    MarkovProd,
    TensorLeaf,
    Variable,
    infer_type,
    pretty,
)


def chain_body(rng, T, K):
    ctx = TypeContext([("t", Bounded(T)), ("prev", Bounded(K)), ("curr", Bounded(K))])
    return TensorLeaf(TensorAtom(ctx, rng.normal(size=(T, K, K))))


def fold_chain(body_data, combine):
    """Left fold over time of (K, K) slices, eliminating the middle axis."""
    out = body_data[0]
    for t in range(1, body_data.shape[0]):
        out = combine(out, body_data[t])
    return out


def chain(body, op=LOGADDEXP_REDUCE):
    return MarkovProd("t", (("prev", "curr"),), body, op)


def logaddexp_compose(a, b):
    return np.logaddexp.reduce(a[:, :, None] + b[None, :, :], axis=1)


def max_compose(a, b):
    return np.max(a[:, :, None] + b[None, :, :], axis=1)


class TestValidateStep:
    """Step matchings are checked by the ``MarkovProd`` constructor."""

    def test_accepts_legal_matching(self):
        rng = np.random.default_rng(0)
        body = chain_body(rng, 4, 2)
        node = MarkovProd("t", (("prev", "curr"),), body)
        assert set(node.free_vars.names) == {"prev", "curr"}

    def test_rejects_timevar_in_matching(self):
        rng = np.random.default_rng(0)
        body = chain_body(rng, 4, 2)
        with pytest.raises(InvalidMatching):
            MarkovProd("t", (("t", "curr"),), body)

    def test_rejects_repeated_names(self):
        rng = np.random.default_rng(0)
        body = chain_body(rng, 4, 2)
        with pytest.raises(InvalidMatching):
            MarkovProd("t", (("prev", "prev"),), body)

    def test_rejects_unbound_names(self):
        rng = np.random.default_rng(0)
        body = chain_body(rng, 4, 2)
        with pytest.raises(InvalidMatching):
            MarkovProd("t", (("prev", "elsewhere"),), body)

    def test_rejects_mismatched_types(self):
        rng = np.random.default_rng(0)
        ctx = TypeContext(
            [("t", Bounded(3)), ("prev", Bounded(2)), ("curr", Bounded(4))]
        )
        body = TensorLeaf(TensorAtom(ctx, rng.normal(size=(3, 2, 4))))
        with pytest.raises(InvalidMatching):
            MarkovProd("t", (("prev", "curr"),), body)


class TestSequential:
    def test_matches_explicit_fold(self):
        rng = np.random.default_rng(1)
        T, K = 6, 3
        body = chain_body(rng, T, K)
        with scan_mode("sequential"):
            out = interpret(EXACT, chain(body))
        want = fold_chain(body.atom.data, logaddexp_compose)
        np.testing.assert_allclose(out.atom.data, want, rtol=1e-12)

    def test_single_step_is_the_slice(self):
        rng = np.random.default_rng(2)
        body = chain_body(rng, 1, 3)
        with scan_mode("sequential"):
            out = interpret(EXACT, chain(body))
        np.testing.assert_allclose(out.atom.data, body.atom.data[0])


class TestParallel:
    def test_matches_sequential(self):
        rng = np.random.default_rng(3)
        for T in (1, 2, 3, 5, 8, 13):
            body = chain_body(rng, T, 3)
            with scan_mode("sequential"):
                seq = interpret(EXACT, chain(body))
            with scan_mode("parallel"):
                par = interpret(EXACT, chain(body))
            np.testing.assert_allclose(
                par.atom.data, seq.atom.data, rtol=1e-10, atol=1e-12
            )

    def test_level_count_is_log2_ceiling(self):
        rng = np.random.default_rng(4)
        for T in (1, 2, 3, 5, 8, 16, 33):
            body = chain_body(rng, T, 2)
            stats = {}
            with scan_mode("parallel", stats=stats):
                interpret(EXACT, chain(body))
            assert stats["levels"] == math.ceil(math.log2(T))

    def test_max_elimination(self):
        rng = np.random.default_rng(5)
        T, K = 7, 3
        body = chain_body(rng, T, K)
        want = fold_chain(body.atom.data, max_compose)
        node = chain(body, MAX_REDUCE)
        for mode in SCAN_MODES:
            with scan_mode(mode):
                got = interpret(EXACT, node)
            np.testing.assert_allclose(got.atom.data, want, rtol=1e-12)


class TestScanModeContext:
    def test_interpret_respects_mode(self):
        rng = np.random.default_rng(6)
        body = chain_body(rng, 5, 2)
        with interpretation(LAZY):
            node = markov_term("t", (("prev", "curr"),), body)
        results = []
        for mode in SCAN_MODES:
            with scan_mode(mode):
                results.append(interpret(EXACT, node).atom.data)
        np.testing.assert_allclose(results[0], results[1], rtol=1e-10)

    def test_stats_only_when_requested(self):
        rng = np.random.default_rng(7)
        body = chain_body(rng, 4, 2)
        stats = {}
        with scan_mode("parallel", stats=stats):
            interpret(EXACT, MarkovProd("t", (("prev", "curr"),), body))
        assert stats["levels"] == 2

    def test_unknown_mode_is_refused_and_leaves_the_mode(self):
        with scan_mode("sequential"):
            with pytest.raises(BoundsError, match="diagonal"):
                with scan_mode("diagonal"):
                    pass
            assert markov._SCAN.mode == "sequential"


class TestGaussianChain:
    def test_real_state_chain_agrees_across_modes(self):
        rng = np.random.default_rng(8)
        T, n = 6, 2
        F = 0.8 * np.eye(n) + 0.05 * rng.normal(size=(n, n))
        Q = 0.5 * np.eye(n)
        Qi = np.linalg.inv(Q)
        prec = np.block([[F.T @ Qi @ F, -F.T @ Qi], [-Qi @ F, Qi]])
        reals = TypeContext([("prev", RealArray((n,))), ("curr", RealArray((n,)))])
        step = GaussianAtom(TypeContext(), reals, np.zeros(2 * n), prec)
        with interpretation(LAZY):
            body = lift(
                "add",
                GaussianLeaf(step),
                to_term(
                    TensorAtom(
                        TypeContext([("t", Bounded(T))]), rng.normal(size=T) * 0.1
                    )
                ),
            )
        outs = {}
        for mode in SCAN_MODES:
            with scan_mode(mode):
                outs[mode] = interpret(EXACT, chain(body))
        a, b = outs["sequential"], outs["parallel"]
        from funsor.interp import normalize

        nfa, nfb = normalize(a), normalize(b)
        xv = rng.normal(size=n)
        from funsor.gaussian import gaussian_eval

        va = float(nfa.tensor.data) if nfa.tensor is not None else 0.0
        vb = float(nfb.tensor.data) if nfb.tensor is not None else 0.0
        pt = {"prev": xv, "curr": -xv}
        np.testing.assert_allclose(
            va + gaussian_eval(nfa.gaussian, pt),
            vb + gaussian_eval(nfb.gaussian, pt),
            rtol=1e-9,
            atol=1e-9,
        )


class TestSequentialFold:
    """The sequential scan folds the body's atoms step by step; factors
    that are not atoms go through substitution, and interpretations that
    claim reductions see every step."""

    @pytest.mark.parametrize("T", [5, 7, 13])
    def test_lazy_factor_is_substituted_as_a_term(self, T):
        """At 7 and 13 an odd level after the first joins its last cell in
        front of the later cells, here on the term path."""
        rng = np.random.default_rng(16)
        K = 3
        body_data = rng.normal(size=(T, K, K))
        tab = TensorLeaf(
            TensorAtom(
                TypeContext([("t", Bounded(T)), ("prev", Bounded(K)), ("curr", Bounded(K))]),
                body_data,
            )
        )
        # A mixture over j of quadratics in x: Exact keeps its reduction lazy.
        info = rng.normal(size=(T, 2, 1))
        g = GaussianAtom(
            TypeContext([("t", Bounded(T)), ("j", Bounded(2))]),
            TypeContext([("x", RealArray((1,)))]),
            info,
            np.broadcast_to(2.0 * np.eye(1), (T, 2, 1, 1)),
        )
        with interpretation(LAZY):
            body = lift("add", tab, reduce_term("logaddexp", "j", GaussianLeaf(g)))
        x = 0.3
        mixture = np.logaddexp.reduce(info[..., 0] * x - x * x, axis=1).sum()
        want = fold_chain(body_data, logaddexp_compose) + mixture
        for mode in SCAN_MODES:
            with scan_mode(mode):
                out = interpret(EXACT, chain(body))
                assert not isinstance(out, TensorLeaf)
                got = interpret(EXACT, subst_term(out, {"x": np.array([x])}))
            np.testing.assert_allclose(got.atom.data, want, rtol=1e-12)

    def test_closed_chain_with_a_lazy_factor_filters_over_a_window(self):
        """Under ``MomentMatching(2)`` the fold's term loop takes every
        step of a closed switching chain with a lazy factor, and its first
        step reduces nothing."""
        from funsor.approx import MomentMatching

        rng = np.random.default_rng([2, 9])
        T, K, n = 9, 2, 2
        tab = TensorAtom(
            TypeContext([("t", Bounded(T)), ("sp", Bounded(K)), ("sc", Bounded(K))]),
            np.log(rng.dirichlet(np.ones(K), size=(T, K))),
        )
        Qi = np.linalg.inv(0.5 * np.eye(n))
        precs = []
        for _ in range(K):
            F = 0.9 * np.linalg.qr(rng.normal(size=(n, n)))[0]
            trans = np.block([[F.T @ Qi @ F, -F.T @ Qi], [-Qi @ F, Qi]])
            precs.append(trans + np.diag([0.1] * n + [1.0] * n))
        g = GaussianAtom(
            TypeContext([("t", Bounded(T)), ("sc", Bounded(K))]),
            TypeContext([("xp", RealArray((n,))), ("xc", RealArray((n,)))]),
            rng.normal(size=(T, K, 2 * n)),
            np.broadcast_to(np.stack(precs), (T, K, 2 * n, 2 * n)),
        )
        side = GaussianAtom(
            TypeContext([("t", Bounded(T)), ("j", Bounded(2))]),
            TypeContext([("y", RealArray((1,)))]),
            rng.normal(size=(T, 2, 1)),
            np.broadcast_to(2.0 * np.eye(1), (T, 2, 1, 1)),
        )
        init_tab = TensorAtom(
            TypeContext([("sp", Bounded(K))]), np.log(rng.dirichlet(np.ones(K)))
        )
        init_g = GaussianAtom(
            TypeContext(), TypeContext([("xp", RealArray((n,)))]), rng.normal(size=n), np.eye(n)
        )
        with interpretation(LAZY):
            # A max over a label the quadratic factor is batched over stays lazy.
            lazy = reduce_term("max", "j", GaussianLeaf(side))
            body = lift("add", lift("add", to_term(tab), GaussianLeaf(g)), lazy)
            init = lift("add", to_term(init_tab), GaussianLeaf(init_g))
            closed = markov_term("t", [("sp", "sc"), ("xp", "xc")], body, init=init)
        mm = MomentMatching(2)
        with scan_mode("sequential"):
            out = interpret(mm, closed)
            assert not isinstance(out, TensorLeaf)
            got = interpret(mm, subst_term(out, {"y": np.array([0.3])}))
        # The value the fold gave before its steps became ``_join`` steps,
        # as the whitened eliminations round it.
        assert float(got.atom.data).hex() == "0x1.bd0d90434ec23p+3"

    def test_two_matched_pairs_agree_across_modes(self):
        rng = np.random.default_rng(17)
        T, K, n = 6, 3, 2
        tab = TensorAtom(
            TypeContext([("t", Bounded(T)), ("ap", Bounded(K)), ("ac", Bounded(K))]),
            rng.normal(size=(T, K, K)),
        )
        F = 0.8 * np.eye(n) + 0.05 * rng.normal(size=(n, n))
        Qi = np.linalg.inv(0.5 * np.eye(n))
        prec = np.block([[F.T @ Qi @ F, -F.T @ Qi], [-Qi @ F, Qi]])
        reals = TypeContext([("xp", RealArray((n,))), ("xc", RealArray((n,)))])
        g = GaussianAtom(
            TypeContext([("t", Bounded(T))]),
            reals,
            rng.normal(size=(T, 2 * n)),
            np.broadcast_to(prec, (T, 2 * n, 2 * n)),
        )
        with interpretation(LAZY):
            body = lift("add", to_term(tab), GaussianLeaf(g))
        node = MarkovProd("t", (("ap", "ac"), ("xp", "xc")), body)
        point = {"xp": rng.normal(size=n), "xc": rng.normal(size=n)}
        outs = []
        for mode in SCAN_MODES:
            with scan_mode(mode):
                out = interpret(EXACT, node)
                outs.append(interpret(EXACT, subst_term(out, point)).atom.data)
        np.testing.assert_allclose(outs[0], outs[1], rtol=1e-9, atol=1e-9)

        # Two table pairs contract through ``tensor_contract`` at once.
        both = TensorLeaf(
            TensorAtom(
                TypeContext(
                    [("t", Bounded(T)), ("ap", Bounded(K)), ("ac", Bounded(K)),
                     ("bp", Bounded(2)), ("bc", Bounded(2))]
                ),
                rng.normal(size=(T, K, K, 2, 2)),
            )
        )
        node = MarkovProd("t", (("ap", "ac"), ("bp", "bc")), both)
        outs = []
        for mode in SCAN_MODES:
            with scan_mode(mode):
                outs.append(interpret(EXACT, node).atom)
        flat = both.atom.data.transpose(0, 1, 3, 2, 4).reshape(T, 2 * K, 2 * K)
        want = fold_chain(flat, logaddexp_compose).reshape(K, 2, K, 2)
        for out in outs:
            got = out.data.transpose(
                *[out.context.names.index(n) for n in ("ap", "bp", "ac", "bc")]
            )
            np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_max_product_folds_through_tensor_contract(self, monkeypatch):
        import funsor.optimize as optimize

        # Plans run ``tensor_contract``'s array core on raw arrays.
        calls = []
        real = optimize.contract_arrays

        def spy(op, layout, arrays):
            calls.append(op.name)
            return real(op, layout, arrays)

        monkeypatch.setattr(optimize, "contract_arrays", spy)
        rng = np.random.default_rng(18)
        T, K = 7, 4
        body = chain_body(rng, T, K)
        with scan_mode("sequential"):
            got = interpret(EXACT, chain(body, MAX_REDUCE))
        assert calls == ["max"] * (T - 1)
        want = fold_chain(body.atom.data, max_compose)
        np.testing.assert_array_equal(got.atom.data, want)

    def test_interpretations_declare_their_classifier(self):
        """Exact, Optimize and Monte Carlo reduce in closed form and
        moment matching also matches mixtures; Lazy declares nothing, so
        its steps dispatch every reduction."""
        from funsor.approx import MomentMatching, MonteCarlo, match_kind
        from funsor.interp import reduction_kind
        from funsor.optimize import OPTIMIZE

        for interp, classify in [
            (EXACT, reduction_kind),
            (OPTIMIZE, reduction_kind),
            (MomentMatching(), match_kind),
            (MonteCarlo(0), reduction_kind),
            (LAZY, None),
            (Interpretation("plain", fallback=EXACT), None),
        ]:
            assert interp.classify is classify, interp


def term_parallel(node, T, pairs):
    """The doubling scan on terms: each level substitutes stride-2 slices
    and fresh matched names into the whole body and reduces the names out
    of the two halves in one ``contract_pair`` step, in the order of
    ``pairs`` (reals first).  An odd level's last cell joins the same way
    in front of the product of the cells after the level, and the first
    cell joins in front of that product at the end.  The atom fold must
    reproduce it bit for bit."""
    from funsor.interp import flatten_product, var
    from funsor.optimize import contract_pair
    from funsor.terms import Slice, fresh_name

    body, tv = node.body, node.timevar
    types = body.free_vars

    def join(left, right, at=({}, {})):
        xs = {c: fresh_name(c) for _, c in pairs}
        ends = {c: var(xs[c], types.typeof(c)) for _, c in pairs}
        starts = {p: var(xs[c], types.typeof(c)) for p, c in pairs}
        f_l = subst_term(left, {**ends, **at[0]})
        f_r = subst_term(right, {**starts, **at[1]})
        return contract_pair(
            node.op, flatten_product(f_l), flatten_product(f_r), list(xs.values())
        )

    f, size, later = body, T, None
    while size > 1:
        if size % 2:
            last = {tv: size - 1}
            later = subst_term(f, last) if later is None else join(f, later, (last, {}))
        half = size // 2
        halves = [{tv: Slice(tv, k, 2 * half - 1 + k, 2, size)} for k in (0, 1)]
        f, size = join(f, f, halves), half
    f = subst_term(f, {tv: 0})
    return f if later is None else join(f, later)


def kalman_spec(rng, T, n=3, m=2):
    from funsor.models import KalmanSpec

    F = 0.9 * np.linalg.qr(rng.normal(size=(n, n)))[0]
    A = rng.normal(size=(m, m))
    return KalmanSpec(
        F=F,
        Q=0.5 * np.eye(n),
        H=rng.normal(size=(m, n)),
        R=0.3 * np.eye(m),
        observations=rng.normal(size=(T, m)),
        bias_cov=A @ A.T + 0.5 * np.eye(m),
    )


def fold_bodies(T):
    """Chains whose bodies hold only tables and quadratic factors."""
    from funsor.models import kalman_factors

    rng = np.random.default_rng(T)
    hmm = chain_body(rng, T, 3)
    with interpretation(LAZY):
        kalman = kalman_factors(kalman_spec(rng, T))[1]
    K, n = 3, 2
    tab = TensorAtom(
        TypeContext([("t", Bounded(T)), ("ap", Bounded(K)), ("ac", Bounded(K))]),
        rng.normal(size=(T, K, K)),
    )
    Qi = np.linalg.inv(0.5 * np.eye(n))
    F = 0.8 * np.eye(n)
    prec = np.block([[F.T @ Qi @ F, -F.T @ Qi], [-Qi @ F, Qi]])
    g = GaussianAtom(
        TypeContext([("t", Bounded(T))]),
        TypeContext([("xp", RealArray((n,))), ("xc", RealArray((n,)))]),
        rng.normal(size=(T, 2 * n)),
        np.broadcast_to(prec, (T, 2 * n, 2 * n)),
    )
    with interpretation(LAZY):
        mixed = lift("add", to_term(tab), GaussianLeaf(g))
    return {
        "hmm": chain(hmm),
        "kalman_bias": kalman,
        "two_pairs": MarkovProd("t", (("ap", "ac"), ("xp", "xc")), mixed),
    }


def term_sequential(node):
    """The fold on terms: each step substitutes a time index and fresh
    matched names into the evaluated body and reduces the names through
    the rules, reals first.  The replay must reproduce it bit for bit."""
    from funsor.interp import var
    from funsor.terms import fresh_name

    body, tv = interpret(EXACT, node.body), node.timevar
    types = body.free_vars
    T = types.typeof(tv).size
    pairs = sorted(node.step, key=lambda pc: isinstance(types.typeof(pc[1]), Bounded))
    f = subst_term(body, {tv: 0})
    for k in range(1, T):
        xs = {c: fresh_name(c) for _, c in pairs}
        carried = subst_term(f, {c: var(xs[c], types.typeof(c)) for _, c in pairs})
        now = subst_term(
            body, {tv: k, **{p: var(xs[c], types.typeof(c)) for p, c in pairs}}
        )
        f = lift("add", carried, now)
        for _, c in pairs:
            f = reduce_term(node.op, xs[c], f)
    return f


def shifting_bodies(T, K=3, n=2):
    """Chains whose first step has another layout than the later ones.

    Cell factors list the current names before the previous ones, so the
    first step's carried factors are ordered ``(mid, prev)`` and later
    ones ``(prev, mid)``.
    """
    rng = np.random.default_rng([T, K, n])
    tab = TensorAtom(
        TypeContext([("ac", Bounded(K)), ("t", Bounded(T)), ("ap", Bounded(K))]),
        rng.normal(size=(K, T, K)),
    )
    Qi = np.linalg.inv(0.5 * np.eye(n))
    F = 0.8 * np.eye(n) + 0.05 * rng.normal(size=(n, n))
    # Blocks ordered (xc, xp).
    prec = np.block([[Qi, -Qi @ F], [-F.T @ Qi, F.T @ Qi @ F]])
    g = GaussianAtom(
        TypeContext([("t", Bounded(T))]),
        TypeContext([("xc", RealArray((n,))), ("xp", RealArray((n,)))]),
        rng.normal(size=(T, 2 * n)),
        np.broadcast_to(prec, (T, 2 * n, 2 * n)),
    )
    const = TensorAtom(TypeContext([("t", Bounded(T))]), rng.normal(size=T))
    with interpretation(LAZY):
        mixed = lift("add", to_term(tab), GaussianLeaf(g))
        gauss = lift("add", to_term(const), GaussianLeaf(g))
    return [
        MarkovProd("t", (("ap", "ac"), ("xp", "xc")), mixed),
        MarkovProd("t", (("xp", "xc"),), gauss),
        MarkovProd("t", (("ap", "ac"),), TensorLeaf(tab), MAX_REDUCE),
    ]


class TestSequentialReplay:
    """Closed-form chain steps replay one array-level plan per step
    signature instead of building and contracting atoms at every step."""

    def test_contexts_built_do_not_grow_with_the_horizon(self, monkeypatch):
        """A Kalman chain, and a table-only HMM chain (K=8) under both of
        its monoids, replay their steps without deriving a context."""
        from funsor.models import HmmSpec, build_hmm, build_kalman

        def hmm(elim):
            def build(rng, T, K=8):
                spec = HmmSpec(rng.dirichlet(np.ones(K), size=K), rng.normal(size=(T, K)))
                return build_hmm(spec, elim)

            return build

        builders = {
            "kalman": lambda rng, T: build_kalman(kalman_spec(rng, T)),
            "hmm logaddexp": hmm("logaddexp"),
            "hmm max": hmm("max"),
        }
        init = TypeContext.__init__
        built = []

        def counting(self, *args, **kwargs):
            built[-1] += 1
            init(self, *args, **kwargs)

        for label, build in builders.items():
            built.clear()
            values = []
            for T in (32, 128):
                term = build(np.random.default_rng(T), T)
                built.append(0)
                with monkeypatch.context() as m:
                    m.setattr(TypeContext, "__init__", counting)
                    with scan_mode("sequential"):
                        values.append(float(interpret(EXACT, term).atom.data))
            assert np.all(np.isfinite(values)), label
            assert built[0] == built[1], (label, built)

    @pytest.mark.parametrize("T", [1, 2, 3, 17])
    def test_equals_the_rule_path(self, T, monkeypatch):
        from funsor import markov
        from funsor.optimize import OPTIMIZE

        derived = []
        real = markov.pair_plan

        def spy(*args):
            derived.append(args)
            return real(*args)

        monkeypatch.setattr(markov, "pair_plan", spy)
        for node in shifting_bodies(T):
            for interp in (EXACT, OPTIMIZE):
                with interpretation(interp):
                    want = term_sequential(node)
                derived.clear()
                with scan_mode("sequential"):
                    got = interpret(interp, node)
                assert got == want, (pretty(node), interp)
                # The first step's signature, then the two alternating ones.
                assert len(derived) == min(T - 1, 3)

    def test_step_left_lazy_goes_to_the_term_path(self):
        """A Gaussian batched over a matched label makes the step's label
        sum a mixture, which Exact leaves lazy: the replay stops at the
        first step and the term path takes it."""
        rng = np.random.default_rng(2)
        T, K, n = 2, 2, 1
        g = GaussianAtom(
            TypeContext([("t", Bounded(T)), ("ap", Bounded(K))]),
            TypeContext([("xp", RealArray((n,))), ("xc", RealArray((n,)))]),
            rng.normal(size=(T, K, 2 * n)),
            np.broadcast_to(np.array([[2.0, -1.0], [-1.0, 2.0]]), (T, K, 2, 2)),
        )
        tab = TensorAtom(
            TypeContext([("t", Bounded(T)), ("ap", Bounded(K)), ("ac", Bounded(K))]),
            rng.normal(size=(T, K, K)),
        )
        with interpretation(LAZY):
            body = lift("add", to_term(tab), GaussianLeaf(g))
        node = MarkovProd("t", (("ap", "ac"), ("xp", "xc")), body)
        point = {"xp": np.array([0.3]), "xc": np.array([-0.2])}
        with scan_mode("sequential"):
            out = interpret(EXACT, node)
            assert not isinstance(out, TensorLeaf)
            got = interpret(EXACT, subst_term(out, point))
        with interpretation(EXACT):
            want = subst_term(term_sequential(node), point)
        np.testing.assert_allclose(
            got.atom.data,
            want.atom.data.transpose(
                *[want.atom.context.names.index(v) for v in got.atom.context.names]
            ),
            rtol=1e-12,
        )


def switching_chain(K=2, n=2, T=9):
    """A switching linear-Gaussian chain with its boundary reduced.

    The table is over ``(sp, sc)`` and the quadratic factor over
    ``(xp, xc)`` is batched over ``sc``, so every step's switch sum is a
    mixture, which moment matching collapses.
    """
    rng = np.random.default_rng([K, n, T, 0])
    tab = TensorAtom(
        TypeContext([("t", Bounded(T)), ("sp", Bounded(K)), ("sc", Bounded(K))]),
        np.log(rng.dirichlet(np.ones(K), size=(T, K))),
    )
    Qi = np.linalg.inv(0.5 * np.eye(n))
    precs = []
    for _ in range(K):
        F = 0.9 * np.linalg.qr(rng.normal(size=(n, n)))[0]
        trans = np.block([[F.T @ Qi @ F, -F.T @ Qi], [-Qi @ F, Qi]])
        precs.append(trans + np.diag([0.1] * n + [1.0] * n))
    g = GaussianAtom(
        TypeContext([("t", Bounded(T)), ("sc", Bounded(K))]),
        TypeContext([("xp", RealArray((n,))), ("xc", RealArray((n,)))]),
        rng.normal(size=(T, K, 2 * n)),
        np.broadcast_to(np.stack(precs), (T, K, 2 * n, 2 * n)),
    )
    with interpretation(LAZY):
        out = MarkovProd(
            "t", (("sp", "sc"), ("xp", "xc")), lift("add", to_term(tab), GaussianLeaf(g))
        )
        for v in ("xp", "xc", "sp", "sc"):
            out = reduce_term("logaddexp", v, out)
    return out


class TestDeclaredClassifier:
    """Chain steps run as plans under the classifier the interpretation
    declares, and through the rules when it declares none."""

    # The values the rules gave before moment matching replayed its steps,
    # as the whitened eliminations round them.
    SWITCHING = {
        "sequential": "0x1.0f08622a23bf3p+4",
        "parallel": "0x1.10c3ac3bd4687p+4",
    }

    @pytest.mark.parametrize("mode", SCAN_MODES)
    def test_moment_matching_plans_switching_chains(self, mode, monkeypatch):
        from funsor import optimize
        from funsor.approx import MomentMatching

        matched = []
        real = optimize.match

        def spy(*args):
            matched.append(args)
            return real(*args)

        monkeypatch.setattr(optimize, "match", spy)
        with scan_mode(mode):
            got = interpret(MomentMatching(), switching_chain())
        assert float(got.atom.data).hex() == self.SWITCHING[mode]
        assert matched

    @pytest.mark.parametrize("mode", SCAN_MODES)
    def test_interpretations_agree_to_the_bit_with_a_bias(self, mode):
        """Exact reduces a lazily built product through the same rules as
        the interpretations that fall back to it, so a Kalman model with a
        bias prints the same bits under each of them."""
        from funsor.approx import MomentMatching
        from funsor.models import build_kalman

        term = build_kalman(kalman_spec(np.random.default_rng(30), 33))
        interps = (EXACT, MomentMatching(), Interpretation("plain", fallback=EXACT))
        with scan_mode(mode):
            got = {float(interpret(i, term).atom.data).hex() for i in interps}
        assert len(got) == 1, got

    def test_undeclared_interpretation_takes_the_rule_path(self, monkeypatch):
        from funsor import markov
        from funsor.models import kalman_factors

        plain = Interpretation("plain", fallback=EXACT)
        with interpretation(LAZY):
            term = kalman_factors(kalman_spec(np.random.default_rng(30), 33))[1]
        derived = []
        real = markov.pair_plan

        def spy(*args):
            derived.append(args)
            return real(*args)

        monkeypatch.setattr(markov, "pair_plan", spy)
        with scan_mode("sequential"):
            want = interpret(EXACT, term)
            assert derived
            derived.clear()
            got = interpret(plain, term)
        assert derived == []
        assert got == want


class TestParallelFold:
    """The doubling scan slices the body's atoms at every level; an odd
    level joins its last cell, apart from the pairs, in front of the cells
    after the level, with the step the pairs take.  It gives the term
    path's values exactly."""

    @pytest.mark.parametrize("T", [2, 8, 5, 7, 13])
    @pytest.mark.parametrize("body", ["hmm", "kalman_bias", "two_pairs"])
    def test_atom_bodies_substitute_no_terms(self, body, T, monkeypatch):
        from funsor import interp as interp_module
        from funsor import markov
        from funsor.optimize import OPTIMIZE
        from funsor.terms import Cat

        calls = []

        def spy(real):
            def counted(*args, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)

            return counted

        monkeypatch.setattr(markov, "subst_term", spy(markov.subst_term))
        monkeypatch.setattr(interp_module, "cat_term", spy(interp_module.cat_term))
        monkeypatch.setattr(Cat, "__init__", spy(Cat.__init__))
        node = fold_bodies(T)[body]
        for interp in (EXACT, OPTIMIZE):
            stats = {}
            with scan_mode("parallel", stats=stats):
                interpret(interp, node)
            assert calls == [], interp
            assert stats["levels"] == math.ceil(math.log2(T))

    @pytest.mark.parametrize("T", [2, 5, 13])
    @pytest.mark.parametrize("body", ["hmm", "kalman_bias", "two_pairs"])
    def test_no_level_runs_the_planner(self, body, T, monkeypatch):
        """Each level is one ``contract_pair`` step, as a fold step is."""
        from funsor import markov, optimize
        from funsor.approx import MomentMatching, MonteCarlo
        from funsor.optimize import OPTIMIZE

        calls = []

        def spy(name, real):
            def counted(*args):
                calls.append(name)
                return real(*args)

            return counted

        for module in (optimize, markov):
            for name in ("contract", "greedy_plan", "execute_plan"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        node = fold_bodies(T)[body]
        for interp in (EXACT, OPTIMIZE, MomentMatching(), MonteCarlo(0)):
            with scan_mode("parallel"):
                interpret(interp, node)
            assert calls == [], interp.name

    @pytest.mark.parametrize("T", [2, 3])
    @pytest.mark.parametrize("body", ["hmm", "kalman_bias", "two_pairs"])
    def test_equals_the_fold_where_both_group_alike(self, body, T):
        """At these lengths both scans combine ``(x0 x1) x2``, so the
        doubling scan's level step must give the fold step's bits."""
        from funsor.approx import MomentMatching
        from funsor.optimize import OPTIMIZE

        node = fold_bodies(T)[body]
        for interp in (EXACT, OPTIMIZE, MomentMatching()):
            with scan_mode("sequential"):
                want = interpret(interp, node)
            with scan_mode("parallel"):
                got = interpret(interp, node)
            assert got == want, interp.name

    @pytest.mark.parametrize("T", [1, 2, 3, 5, 7, 13, 64])
    def test_equals_the_term_path(self, T, monkeypatch):
        from funsor import markov

        tables = chain_body(np.random.default_rng(100 + T), T, 4)
        nodes = [*fold_bodies(T).values(), chain(tables, MAX_REDUCE)]
        for node in nodes:
            with scan_mode("parallel"):
                got = interpret(EXACT, node)
                with monkeypatch.context() as m:
                    m.setattr(markov, "_parallel", term_parallel)
                    want = interpret(EXACT, node)
            assert got == want, pretty(node)

    def test_shared_precision_is_factored_once_per_level(self, monkeypatch):
        """With a bias, every observation cell has the same precision, so
        the first level marginalizes over 1024 cells of one precision and
        factors that precision once."""
        from funsor import optimize
        from funsor.models import build_kalman

        term = build_kalman(kalman_spec(np.random.default_rng(8), 2048))
        batches, factored = [], []
        marginalize, cholesky = optimize.marginalize, np.linalg.cholesky

        def spy_marginalize(u, v, info, prec):
            batches.append(prec.shape[:-2])
            return marginalize(u, v, info, prec)

        def spy_cholesky(mats):
            factored.append(mats.shape[:-2])
            return cholesky(mats)

        monkeypatch.setattr(optimize, "marginalize", spy_marginalize)
        monkeypatch.setattr(np.linalg, "cholesky", spy_cholesky)
        stats = {}
        with scan_mode("parallel", stats=stats):
            interpret(EXACT, term)
        assert stats["levels"] == 11
        assert batches[:3] == [(1024,), (512,), (256,)]
        assert factored and all(math.prod(cells) == 1 for cells in factored)

    def test_odd_length_keeps_the_shared_precision(self, monkeypatch):
        """At T=2047 every level is odd: its last cell joins apart from the
        pairs, which keep their one precision, so the scan factors about
        as many cells as at T=2048."""
        from funsor.models import build_kalman

        cholesky, factored = np.linalg.cholesky, {}

        def spy(mats):
            factored[T] += math.prod(mats.shape[:-2])
            return cholesky(mats)

        for T in (2047, 2048):
            term = build_kalman(kalman_spec(np.random.default_rng(8), T))
            factored[T] = 0
            with monkeypatch.context() as m, scan_mode("parallel"):
                m.setattr(np.linalg, "cholesky", spy)
                interpret(EXACT, term)
        assert 0 < factored[2047] <= 2 * factored[2048], factored

    def test_monte_carlo_matches_the_term_path(self, monkeypatch):
        from funsor import markov
        from funsor.approx import MonteCarlo
        from funsor.models import build_kalman

        term = build_kalman(kalman_spec(np.random.default_rng(21), 13))
        values = []
        for scan in (markov._parallel, term_parallel):
            monkeypatch.setattr(markov, "_parallel", scan)
            with scan_mode("parallel"):
                values.append(float(interpret(MonteCarlo(5), term).atom.data))
        assert values[0] == values[1]


class TestCarriedMonoid:
    """The elimination monoid is part of the chain term, so every rebuild
    must keep it; dropping it would silently turn a max chain into a sum."""

    def test_lazy_substitution_into_max_chain(self):
        rng = np.random.default_rng(11)
        T, K = 5, 3
        ctx = TypeContext(
            [
                ("t", Bounded(T)),
                ("prev", Bounded(K)),
                ("curr", Bounded(K)),
                ("c", Bounded(2)),
            ]
        )
        body = TensorLeaf(TensorAtom(ctx, rng.normal(size=(T, K, K, 2))))
        with interpretation(LAZY):
            node = subst_term(chain(body, MAX_REDUCE), {"c": 1})
        assert isinstance(node, MarkovProd) and node.op == MAX_REDUCE
        want = fold_chain(body.atom.data[..., 1], max_compose)
        for mode in SCAN_MODES:
            with scan_mode(mode):
                got = interpret(EXACT, node)
            np.testing.assert_allclose(got.atom.data, want, rtol=1e-12)

    def test_reinterpret_keeps_op(self):
        rng = np.random.default_rng(12)
        with interpretation(LAZY):
            body = lift("add", chain_body(rng, 4, 2), chain_body(rng, 4, 2))
        node = chain(body, MAX_REDUCE)
        # Folds the body, then rebuilds the chain around it.
        pointwise = [r for r in EXACT.rules if r.head is type(body)]
        out = interpret(Interpretation("pointwise", pointwise, fallback=LAZY), node)
        assert isinstance(out, MarkovProd) and out.body is not body
        assert out.op == MAX_REDUCE

    def test_infer_type_revalidates_op(self):
        rng = np.random.default_rng(13)
        node = chain(chain_body(rng, 4, 2), MAX_REDUCE)
        assert infer_type(node) == (node.free_vars, node.output)
        object.__setattr__(node, "op", ADD_REDUCE)
        with pytest.raises(FunsorTypeError):
            infer_type(node)

    def test_op_is_part_of_equality_and_rendering(self):
        body = chain_body(np.random.default_rng(14), 4, 2)
        assert chain(body) != chain(body, MAX_REDUCE)
        assert chain(body) == chain(body)
        assert pretty(chain(body, MAX_REDUCE)).startswith("markovprod_t[(prev,curr);max](")
        assert pretty(chain(body)).startswith("markovprod_t[(prev,curr)](")

    def test_rejects_add_and_real_max(self):
        body = chain_body(np.random.default_rng(15), 4, 2)
        with pytest.raises(FunsorTypeError):
            chain(body, ADD_REDUCE)
        reals = TypeContext([("prev", RealArray((1,))), ("curr", RealArray((1,)))])
        step = GaussianAtom(TypeContext(), reals, np.zeros(2), np.eye(2))
        with interpretation(LAZY):
            real_body = lift(
                "add",
                GaussianLeaf(step),
                to_term(TensorAtom(TypeContext([("t", Bounded(3))]), np.zeros(3))),
            )
        chain(real_body)
        with pytest.raises(FunsorTypeError):
            chain(real_body, MAX_REDUCE)


class TestSubstitutionGuard:
    def test_matched_names_are_protected(self):
        rng = np.random.default_rng(9)
        node = MarkovProd("t", (("prev", "curr"),), chain_body(rng, 3, 2))
        with interpretation(LAZY), pytest.raises(InvalidMatching):
            subst_term(node, {"prev": Variable("curr", Bounded(2))})
        with interpretation(LAZY), pytest.raises(InvalidMatching):
            subst_term(node, {"prev": Variable("fresh", Bounded(2))})

    def test_side_variables_substitute_freely(self):
        rng = np.random.default_rng(10)
        ctx = TypeContext(
            [
                ("t", Bounded(3)),
                ("prev", Bounded(2)),
                ("curr", Bounded(2)),
                ("cond", Bounded(2)),
            ]
        )
        body = TensorLeaf(TensorAtom(ctx, rng.normal(size=(3, 2, 2, 2))))
        node = MarkovProd("t", (("prev", "curr"),), body)
        with interpretation(LAZY):
            out = subst_term(node, {"cond": Variable("side", Bounded(2))})
        assert isinstance(out, MarkovProd)
        assert sorted(out.free_vars.names) == ["curr", "prev", "side"]


class TestParallelScanMemory:
    def test_dense_hmm_peak_allocation_stays_near_the_body(self):
        """The doubling scan over a K=64, T=64 table chain contracts each
        level without materialising the (T/2, K, K, K) union table (128 MiB
        at the first level); the body itself is 2 MiB.
        """
        import tracemalloc

        from funsor.models import HmmSpec, build_hmm

        rng = np.random.default_rng(9)
        T, K = 64, 64
        spec = HmmSpec(rng.dirichlet(np.ones(K), size=K), rng.normal(size=(T, K)))
        term = build_hmm(spec)
        tracemalloc.start()
        try:
            with scan_mode("parallel"):
                got = float(interpret(EXACT, term).atom.data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Forward recursion: the prior is on the state before step 0.
        log_trans = np.log(spec.transition)
        alpha = np.log(spec.prior)
        for t in range(T):
            alpha = (
                np.logaddexp.reduce(alpha[:, None] + log_trans, axis=0)
                + spec.emission_loglik[t]
            )
        np.testing.assert_allclose(got, np.logaddexp.reduce(alpha), rtol=1e-12)
        assert peak < 32 * 2**20, f"peak traced allocation {peak / 2**20:.1f} MiB"


class TestClosedChain:
    """``init`` closes a chain: both ends are reduced out of ``init + chain``."""

    def pieces(self, T=6, K=3):
        rng = np.random.default_rng([T, K])
        names = [("t", T), ("prev", K), ("curr", K), ("z", 2)]
        ctx = TypeContext([(n, Bounded(size)) for n, size in names])
        body = TensorLeaf(TensorAtom(ctx, rng.normal(size=(T, K, K, 2))))
        init_ctx = TypeContext([("prev", Bounded(K)), ("z", Bounded(2))])
        return body, TensorLeaf(TensorAtom(init_ctx, rng.normal(size=(K, 2))))

    @pytest.mark.parametrize("mode", SCAN_MODES)
    @pytest.mark.parametrize("op", ["logaddexp", "max"])
    def test_reduces_both_ends_of_the_open_chain(self, mode, op):
        body, init = self.pieces()
        with interpretation(LAZY):
            closed = markov_term("t", [("prev", "curr")], body, op, init=init)
            joint = lift("add", init, markov_term("t", [("prev", "curr")], body, op))
            opened = reduce_term(op, "curr", reduce_term(op, "prev", joint))
        assert closed.free_vars.names == ("z",)
        assert "; init Tensor(" in pretty(closed)
        with scan_mode(mode):
            got, want = interpret(EXACT, closed).atom, interpret(EXACT, opened).atom
        assert got.context == want.context
        np.testing.assert_allclose(got.data, want.data, rtol=1e-12)

    def test_substitution_reaches_body_and_init(self):
        body, init = self.pieces()
        with interpretation(LAZY):
            closed = markov_term("t", [("prev", "curr")], body, init=init)
            pinned = subst_term(closed, {"z": 1})
            direct = markov_term(
                "t", [("prev", "curr")], subst_term(body, {"z": 1}),
                init=subst_term(init, {"z": 1}),
            )
        for mode in SCAN_MODES:
            with scan_mode(mode):
                got = float(interpret(EXACT, pinned).atom.data)
                assert got == float(interpret(EXACT, direct).atom.data)

    @pytest.mark.parametrize("name,size", [("curr", 3), ("t", 6)])
    def test_init_may_not_mention_last_names_or_time(self, name, size):
        body, _ = self.pieces()
        bad = TensorLeaf(TensorAtom(TypeContext([(name, Bounded(size))]), np.zeros(size)))
        with pytest.raises(InvalidMatching):
            MarkovProd("t", (("prev", "curr"),), body, LOGADDEXP_REDUCE, bad)
