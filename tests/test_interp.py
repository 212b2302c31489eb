"""Interpretation dispatch: rule order, fallbacks, fuel, normal forms."""

import numpy as np
import pytest

from funsor.delta import DeltaAtom
from funsor.domains import Bounded, RealArray, TypeContext
from funsor.errors import BoundsError, FuelExhausted, NotAffine, StackUnderflow
from funsor.gaussian import (
    GaussianAtom,
    gaussian_eval,
    gaussian_log_normalizer,
    gaussian_rename,
)
from funsor.interp import (
    EXACT,
    LAZY,
    Interpretation,
    Rule,
    affine_decompose,
    affine_substitute,
    cat_term,
    current_interpretation,
    flatten_product,
    interpret,
    interpretation,
    lift,
    markov_term,
    normal_form_from_parts,
    normalize,
    pop_interpretation,
    push_interpretation,
    reduce_term,
    reinterpret,
    subst_term,
    to_term,
    var,
)
from funsor.tensor import TensorAtom, align_atoms, index_tensor, scalar_tensor
from funsor.terms import (
    Apply,
    Cat,
    DeltaLeaf,
    GaussianLeaf,
    Reduce,
    Slice,
    Subst,
    TensorLeaf,
    Variable,
)


def table(entries, data):
    return TensorLeaf(TensorAtom(TypeContext(entries), np.asarray(data, float)))


def scalar_gaussian(info=1.0, prec=1.0, name="x"):
    return GaussianAtom(
        TypeContext(),
        TypeContext([(name, RealArray(()))]),
        np.array([info]),
        np.array([[prec]]),
    )


class TestStack:
    def test_default_is_exact(self):
        assert current_interpretation().name == "exact"

    def test_context_manager_scopes(self):
        with interpretation(LAZY):
            assert current_interpretation() is LAZY
            with interpretation(EXACT):
                assert current_interpretation() is EXACT
            assert current_interpretation() is LAZY
        assert current_interpretation().name == "exact"

    def test_push_pop(self):
        push_interpretation(LAZY)
        assert current_interpretation() is LAZY
        assert pop_interpretation() is LAZY

    def test_base_cannot_be_popped(self):
        with pytest.raises(StackUnderflow):
            pop_interpretation()


class TestLazyAndExact:
    def test_lazy_records_structure(self):
        with interpretation(LAZY):
            node = lift("add", 1.0, 2.0)
        assert isinstance(node, Apply)

    def test_exact_folds_scalars(self):
        node = interpret(EXACT, lift("add", to_term(1.0), to_term(2.0)))
        assert isinstance(node, TensorLeaf)
        np.testing.assert_allclose(node.atom.data, 3.0)

    def test_reinterpret_resolves_lazy_tree(self):
        with interpretation(LAZY):
            a = table([("i", Bounded(3))], [0.0, 1.0, 2.0])
            node = reduce_term("logaddexp", "i", lift("add", a, to_term(1.0)))
        assert isinstance(node, Reduce)
        out = interpret(EXACT, node)
        want = np.logaddexp.reduce(np.array([0.0, 1.0, 2.0]) + 1.0)
        np.testing.assert_allclose(out.atom.data, want)

    def test_string_op_names_resolve(self):
        out = interpret(EXACT, lift("max", to_term(2.0), to_term(5.0)))
        np.testing.assert_allclose(out.atom.data, 5.0)

    def test_mixed_product_stays_as_sum(self):
        g = scalar_gaussian()
        with interpretation(EXACT):
            node = lift("add", to_term(2.0), GaussianLeaf(g))
        assert isinstance(node, Apply)


class TestRuleDispatch:
    def test_first_matching_rule_wins(self):
        hits = []

        def h_first(node):
            hits.append("first")
            return None  # decline so the next rule runs

        def h_second(node):
            hits.append("second")
            return to_term(99.0)

        probe = Interpretation(
            "probe",
            rules=[Rule(Apply, h_first, "a"), Rule(Apply, h_second, "b")],
            fallback=EXACT,
        )
        with interpretation(LAZY):
            node = lift("add", to_term(1.0), to_term(1.0))
        out = interpret(probe, node)
        assert hits == ["first", "second"]
        np.testing.assert_allclose(out.atom.data, 99.0)

    def test_fallback_chain_reaches_exact(self):
        empty = Interpretation("empty", rules=[], fallback=EXACT)
        out = interpret(empty, lift("add", to_term(2.0), to_term(3.0)))
        np.testing.assert_allclose(out.atom.data, 5.0)


class TestFuel:
    def test_fuel_env_override(self, monkeypatch):
        monkeypatch.setenv("FUNSOR_FUEL", "2")
        with interpretation(LAZY):
            parts = [table([("i", Bounded(2))], [0.0, float(k)]) for k in range(6)]
            node = parts[0]
            for p in parts[1:]:
                node = lift("add", node, p)
        with pytest.raises(FuelExhausted):
            interpret(EXACT, node)

    def test_enough_fuel_succeeds(self, monkeypatch):
        monkeypatch.setenv("FUNSOR_FUEL", "100")
        node = interpret(EXACT, lift("add", to_term(1.0), to_term(1.0)))
        np.testing.assert_allclose(node.atom.data, 2.0)

    def test_renaming_probes_spend_no_fuel(self, monkeypatch):
        # A sequential Kalman step spends about 9 rule applications; probing
        # each renamed state coordinate must not add one more per probe.
        from funsor.markov import scan_mode
        from funsor.models import KalmanSpec, build_kalman

        monkeypatch.setenv("FUNSOR_FUEL", "2000")
        rng = np.random.default_rng(7)
        spec = KalmanSpec(
            F=0.9 * np.eye(3),
            Q=np.eye(3),
            H=rng.normal(size=(2, 3)),
            R=np.eye(2),
            observations=rng.normal(size=(150, 2)),
        )
        with scan_mode("sequential"):
            out = interpret(EXACT, build_kalman(spec))
        assert np.isfinite(out.atom.data)


class TestFuelBudget:
    @pytest.mark.parametrize("raw", ["abc", "0", "-5", "1.5"])
    def test_bad_budget_is_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("FUNSOR_FUEL", raw)
        with pytest.raises(BoundsError, match="FUNSOR_FUEL"):
            interpret(EXACT, lift("add", to_term(1.0), to_term(1.0)))

    def test_exhaustion_reports_the_budget_the_scope_opened_with(self, monkeypatch):
        def count(node):
            # Changing the variable mid-evaluation must not change the report.
            monkeypatch.setenv("FUNSOR_FUEL", "abc")
            return None

        probe = Interpretation(
            "probe", rules=[Rule(Apply, count, "count")], fallback=EXACT
        )
        with interpretation(LAZY):
            node = table([("i", Bounded(2))], [0.0, 1.0])
            for k in range(5):
                node = lift("add", node, table([("i", Bounded(2))], [0.0, float(k)]))
        monkeypatch.setenv("FUNSOR_FUEL", "2")
        with pytest.raises(FuelExhausted, match="exceeded 2 rule applications"):
            interpret(probe, node)


class TestNormalForm:
    def test_sum_collapses_to_one_tensor(self):
        rng = np.random.default_rng(0)
        parts = [
            table([("i", Bounded(2))], rng.normal(size=2)),
            table([("j", Bounded(3))], rng.normal(size=3)),
            table([("i", Bounded(2)), ("j", Bounded(3))], rng.normal(size=(2, 3))),
        ]
        with interpretation(EXACT):
            node = lift("add", lift("add", parts[0], parts[1]), parts[2])
        nf = normalize(node)
        assert nf.gaussian is None and not nf.deltas and not nf.lazy_rest
        want = (
            parts[0].atom.data[:, None]
            + parts[1].atom.data[None, :]
            + parts[2].atom.data
        )
        np.testing.assert_allclose(nf.tensor.data, want)

    def test_two_gaussians_fuse(self):
        rng = np.random.default_rng(1)
        a = scalar_gaussian(rng.normal(), 1.5)
        b = scalar_gaussian(rng.normal(), 0.7)
        with interpretation(EXACT):
            node = lift("add", GaussianLeaf(a), GaussianLeaf(b))
        nf = normalize(node)
        assert nf.gaussian is not None
        for xv in (-1.0, 0.0, 2.0):
            x = np.asarray(xv)
            want = gaussian_eval(a, {"x": x}) + gaussian_eval(b, {"x": x})
            got = gaussian_eval(nf.gaussian, {"x": x})
            if nf.tensor is not None:
                got = got + float(nf.tensor.data)
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_delta_pins_gaussian_cofactor(self):
        point = 1.5
        d = DeltaAtom("y", scalar_tensor(point))
        g = scalar_gaussian(name="y")
        with interpretation(EXACT):
            node = lift("add", DeltaLeaf(d), GaussianLeaf(g))
        nf = normalize(node)
        assert nf.gaussian is None
        assert len(nf.deltas) == 1 and nf.deltas[0].name == "y"
        want = gaussian_eval(g, {"y": np.asarray(point)})
        np.testing.assert_allclose(float(nf.tensor.data), want)

    def test_delta_sum_elimination_leaves_cofactor(self):
        d = DeltaAtom("y", scalar_tensor(0.25))
        g = scalar_gaussian(name="y")
        with interpretation(EXACT):
            node = reduce_term(
                "logaddexp", "y", lift("add", DeltaLeaf(d), GaussianLeaf(g))
            )
        out = interpret(EXACT, node)
        want = gaussian_eval(g, {"y": np.asarray(0.25)})
        np.testing.assert_allclose(out.atom.data, want)

    def test_delta_pins_lazy_cofactor_in_one_pass(self):
        y = var("y", RealArray(()))
        d = DeltaAtom("y", scalar_tensor(1.5))
        with interpretation(EXACT):
            node = lift("add", DeltaLeaf(d), lift("mul", y, y))
        # Already in normal form: a second pass changes nothing.
        assert interpret(EXACT, node) == node
        nf = normalize(node)
        assert not nf.lazy_rest
        np.testing.assert_allclose(float(nf.tensor.data), 2.25)


class TestSubstSemantics:
    def test_bindings_see_outer_scope(self):
        base = table([("i", Bounded(3))], [1.0, 2.0, 3.0])
        idx = TensorLeaf(
            TensorAtom(TypeContext([("j", Bounded(2))]), np.array([2, 0]), Bounded(3))
        )
        out = interpret(EXACT, subst_term(base, {"i": idx}))
        assert out.atom.context.names == ("j",)
        np.testing.assert_allclose(out.atom.data, [3.0, 1.0])

    def test_simultaneous_swap(self):
        base = table(
            [("i", Bounded(2)), ("j", Bounded(2))], np.arange(4.0).reshape(2, 2)
        )
        vi = var("i", Bounded(2))
        vj = var("j", Bounded(2))
        out = interpret(EXACT, subst_term(base, {"i": vj, "j": vi}))
        want = np.arange(4.0).reshape(2, 2).T
        got = interpret(EXACT, out).atom
        perm = got.data if got.context.names == ("i", "j") else got.data.T
        np.testing.assert_allclose(perm, want)


    def test_slice_along_another_free_axis_takes_the_diagonal(self):
        data = np.arange(8.0).reshape(4, 2)
        base = table([("t", Bounded(4)), ("k", Bounded(2))], data)
        out = subst_term(base, {"t": Slice("k", 0, 4, 2, 4)})
        assert out.atom.context.names == ("k",)
        np.testing.assert_allclose(out.atom.data, [0.0, 5.0])


class TestAffine:
    def test_decompose_recognizes_affine(self):
        with interpretation(LAZY):
            expr = lift(
                "add",
                lift("mul", to_term(2.0), var("a", RealArray(()))),
                to_term(3.0),
            )
        dec = affine_decompose(expr)
        assert dec is not None
        const, coeffs = dec
        np.testing.assert_allclose(float(const.data), 3.0)
        assert [name for name, _, _ in coeffs] == ["a"]
        _, _, coeff = coeffs[0]
        np.testing.assert_allclose(coeff.data.reshape(()), 2.0)

    def test_decompose_folds_lazy_constants(self):
        with interpretation(LAZY):
            const = TensorAtom(TypeContext(), np.array([1.0, 2.0]), RealArray((2,)))
            expr = lift(
                "add", var("b", RealArray((2,))), lift("add", to_term(const), const)
            )
        const_out, coeffs = affine_decompose(expr)
        np.testing.assert_allclose(const_out.data, [2.0, 4.0])
        np.testing.assert_allclose(coeffs[0][2].data, np.eye(2))

    def test_decompose_declines_nonlinear(self):
        with interpretation(LAZY):
            a = var("a", RealArray(()))
            expr = lift("mul", a, a)
        assert affine_decompose(expr) is None

    def test_affine_substitute_matches_pointwise_eval(self):
        g = scalar_gaussian(0.8, 2.0)
        with interpretation(LAZY):
            expr = lift(
                "add",
                lift("mul", to_term(1.5), var("a", RealArray(()))),
                to_term(-0.5),
            )
        const, rest = affine_substitute(g, "x", expr)
        assert rest is not None and "a" in rest.reals
        for av in (-1.0, 0.0, 0.7):
            xv = 1.5 * av - 0.5
            want = gaussian_eval(g, {"x": np.asarray(xv)})
            got = float(const.data) + gaussian_eval(rest, {"a": np.asarray(av)})
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_affine_substitute_rejects_nonlinear(self):
        g = scalar_gaussian()
        with interpretation(LAZY):
            a = var("a", RealArray(()))
            expr = lift("mul", a, a)
        with pytest.raises(NotAffine):
            affine_substitute(g, "x", expr)


def over_ij(atom):
    """A table over ``i`` and ``j``, in that axis order."""
    assert set(atom.context.names) == {"i", "j"}
    return atom.data if atom.context.names == ("i", "j") else atom.data.T


class TestAffineWalk:
    """Coefficients are read off the expression's nodes, not recovered by
    evaluating it at probe points."""

    @pytest.mark.parametrize("offset", [3.0, 1e8, 1e12, 1e16])
    def test_coefficient_is_exact_at_any_offset(self, offset):
        with interpretation(LAZY):
            expr = lift(
                "add", lift("mul", to_term(0.3), var("a", RealArray(()))), to_term(offset)
            )
        const, ((name, _, coeff),) = affine_decompose(expr)
        assert name == "a" and float(const.data) == offset
        assert coeff.data.reshape(()) == 0.3

    def test_spread_tables_times_a_variable_substitute(self):
        rng = np.random.default_rng(60)
        a = rng.normal(size=2)
        b = rng.normal(size=3)
        x = var("x", RealArray(()))
        expr = lift(
            "add",
            lift("mul", table([("i", Bounded(2))], a), x),
            table([("j", Bounded(3))], b),
        )
        const, ((_, _, coeff),) = affine_decompose(expr)
        assert coeff.context.names == ("i",)
        np.testing.assert_array_equal(coeff.data.reshape(2), a)
        np.testing.assert_array_equal(over_ij(const), a[:, None] * 0.0 + b[None, :])

        scalar = RealArray(())
        g = random_gaussian_atom(rng, [], [("y", scalar), ("z", scalar)])
        out = subst_term(GaussianLeaf(g), {"y": expr})
        assert all(
            isinstance(p, (TensorLeaf, GaussianLeaf)) for p in flatten_product(out)
        )
        for x0, z0 in ((0.4, -1.2), (-2.0, 0.5)):
            got = over_ij(interpret(EXACT, subst_term(out, {"x": x0, "z": z0})).atom)
            y = a[:, None] * x0 + b[None, :]
            v = np.stack([y, np.full_like(y, z0)], axis=-1)
            want = v @ g.info_vec - 0.5 * np.einsum("...a,ab,...b->...", v, g.precision, v)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_decompose_evaluates_nothing(self, monkeypatch):
        import funsor.interp as interp_module

        calls = []
        for name in ("interpret", "subst_term"):
            real = getattr(interp_module, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(interp_module, name, spy)
        with interpretation(LAZY):
            expr = lift(
                "sub",
                lift("mul", to_term(2.0), var("a", RealArray(()))),
                lift("neg", lift("add", var("b", RealArray(())), to_term(1.0))),
            )
        const, coeffs = affine_decompose(expr)
        assert calls == []
        assert float(const.data) == 1.0
        assert [float(c.data.reshape(())) for _, _, c in coeffs] == [2.0, 1.0]

    def test_batched_take_gives_a_selection_matrix(self):
        K, dz = 3, 2
        zs = var("zs", RealArray((K, dz)))
        expr = lift("take", zs, var("c", Bounded(K)))
        const, ((name, tp, coeff),) = affine_decompose(expr)
        assert name == "zs" and tp == RealArray((K, dz))
        assert const.context.names == ("c",)
        np.testing.assert_array_equal(const.data, np.zeros((K, dz)))
        assert coeff.context.names == ("c",) and coeff.output == RealArray((dz, K * dz))
        want = np.stack([np.eye(K * dz)[k * dz:(k + 1) * dz] for k in range(K)])
        np.testing.assert_array_equal(coeff.data, want)


def batch_table(entries, rng):
    ctx = TypeContext(entries)
    return TensorAtom(ctx, rng.normal(size=tuple(tp.size for _, tp in ctx.entries)))


def over_i(values, output=RealArray(())):
    ctx = TypeContext([("i", Bounded(2))])
    return TensorLeaf(TensorAtom(ctx, np.asarray(values), output))


class TestCaptureAvoidance:
    """A substituted value's free names are never captured by names the
    rules bind while resolving the same substitution."""

    def test_exact_reduce_keeps_outer_variable(self):
        rng = np.random.default_rng(4)
        g = GaussianAtom(
            TypeContext([("i", Bounded(2))]),
            TypeContext([("x", RealArray(()))]),
            rng.normal(size=(2, 1)),
            np.ones((2, 1, 1)),
        )
        t = batch_table([("i", Bounded(2)), ("j", Bounded(2))], rng)

        def substituted():
            r = reduce_term("logaddexp", "i", lift("add", to_term(g), to_term(t)))
            return subst_term(r, {"j": var("i", Bounded(2))})

        with interpretation(EXACT):
            got = substituted()
        with interpretation(LAZY):
            lazy = substituted()
        want = interpret(EXACT, lazy)
        assert set(got.free_vars.names) == {"i", "x"}
        for iv in range(2):
            for xv in (-0.5, 1.0):
                point = {"i": iv, "x": xv}
                a = interpret(EXACT, subst_term(got, point))
                b = interpret(EXACT, subst_term(want, point))
                np.testing.assert_allclose(a.atom.data, b.atom.data, rtol=1e-12)

    @pytest.mark.parametrize("kind", ["tensor", "gaussian", "delta"])
    def test_composed_substitution_keeps_both_names(self, kind):
        rng = np.random.default_rng(5)
        if kind == "tensor":
            t = batch_table([("i", Bounded(2)), ("j", Bounded(2))], rng)
            leaf, name, value = TensorLeaf(t), "j", over_i([1.0, 0.0], Bounded(2))
        elif kind == "gaussian":
            g = GaussianAtom(
                TypeContext([("i", Bounded(2))]),
                TypeContext([("x", RealArray(()))]),
                rng.normal(size=(2, 1)),
                np.ones((2, 1, 1)),
            )
            leaf, name, value = GaussianLeaf(g), "x", over_i([0.5, -1.0])
        else:
            d = DeltaAtom("y", over_i([0.5, -1.0]).atom)
            leaf, name, value = DeltaLeaf(d), "y", over_i([0.5, 2.0])
        inner = Subst(leaf, {"i": Variable("i#9", Bounded(2))})
        out = subst_term(inner, {name: value})
        assert set(out.free_vars.names) == {"i", "i#9"}
        # Cell (i#9=a, i=b) is the leaf at i=a with the value taken at i=b.
        for a in range(2):
            for b in range(2):
                got = interpret(EXACT, subst_term(out, {"i#9": a, "i": b}))
                want = interpret(
                    EXACT, subst_term(leaf, {"i": a, name: subst_term(value, {"i": b})})
                )
                np.testing.assert_allclose(got.atom.data, want.atom.data)

    def test_markov_timevar_capture(self):
        rng = np.random.default_rng(6)
        ctx = [
            ("t", Bounded(4)),
            ("prev", Bounded(2)),
            ("curr", Bounded(2)),
            ("c", Bounded(2)),
        ]
        with interpretation(LAZY):
            node = markov_term("t", [("prev", "curr")], to_term(batch_table(ctx, rng)))
        out = subst_term(node, {"c": var("t", Bounded(2))})
        assert set(out.free_vars.names) == {"t", "prev", "curr"}
        for k in range(2):
            want = interpret(EXACT, subst_term(node, {"c": k})).atom
            got = subst_term(out, {"t": k}).atom
            assert got.context == want.context
            _, (a, b) = align_atoms([got, want])
            np.testing.assert_allclose(a, b, rtol=1e-12)


def random_gaussian_atom(rng, batch, reals):
    batch, reals = TypeContext(batch), TypeContext(reals)
    dim = sum(tp.num_elements for _, tp in reals.entries)
    bounds = tuple(tp.size for _, tp in batch.entries)
    a = rng.normal(size=bounds + (dim, dim))
    prec = a @ np.swapaxes(a, -1, -2) + dim * np.eye(dim)
    return GaussianAtom(batch, reals, rng.normal(size=bounds + (dim,)), prec)


def dense_log_normalizer(info, prec):
    _, logdet = np.linalg.slogdet(prec)
    quad = info @ np.linalg.solve(prec, info)
    return 0.5 * (len(info) * np.log(2 * np.pi) - logdet + quad)


class TestGaussianRelabel:
    """A real bound to a fresh variable of its type is relabelled; renames
    that merge blocks or reuse a name of the atom take the affine path.
    Both must agree with Lazy-then-Exact and with dense references."""

    R2 = RealArray((2,))

    def substituted(self, g, bindings):
        with interpretation(EXACT):
            got = subst_term(GaussianLeaf(g), bindings)
        with interpretation(LAZY):
            lazy = subst_term(GaussianLeaf(g), bindings)
        return got, interpret(EXACT, lazy)

    def check(self, got, want, points, density, log_norm):
        for point in points:
            a = interpret(EXACT, subst_term(got, point)).atom.data
            b = interpret(EXACT, subst_term(want, point)).atom.data
            np.testing.assert_allclose(a, b, rtol=1e-12)
            np.testing.assert_allclose(a, density(point), rtol=1e-10)
        for term in (got, want):
            nf = normalize(term)
            z = gaussian_log_normalizer(nf.gaussian).data
            if nf.tensor is not None:
                z = z + nf.tensor.data
            np.testing.assert_allclose(z, log_norm, rtol=1e-10)

    def test_fresh_target_is_a_relabel(self):
        rng = np.random.default_rng(11)
        g = random_gaussian_atom(rng, [("i", Bounded(2))], [("x", self.R2), ("y", self.R2)])
        got, _ = self.substituted(g, {"x": var("z", self.R2)})
        assert isinstance(got, GaussianLeaf)
        assert got.atom == gaussian_rename(g, {"x": "z"})
        assert got.atom.info_vec is g.info_vec and got.atom.precision is g.precision

    def test_duplicate_target_adds_blocks(self):
        rng = np.random.default_rng(12)
        g = random_gaussian_atom(rng, [], [("x", self.R2), ("y", self.R2)])
        got, want = self.substituted(g, {"x": var("z", self.R2), "y": var("z", self.R2)})
        assert set(got.free_vars.names) == {"z"}
        fold = np.vstack([np.eye(2), np.eye(2)])
        info, prec = fold.T @ g.info_vec, fold.T @ g.precision @ fold
        points = [{"z": rng.normal(size=2)} for _ in range(3)]
        self.check(
            got, want, points,
            lambda p: gaussian_eval(g, {"x": p["z"], "y": p["z"]}),
            dense_log_normalizer(info, prec),
        )

    def test_swap(self):
        rng = np.random.default_rng(13)
        g = random_gaussian_atom(rng, [], [("x", self.R2), ("y", self.R2)])
        got, want = self.substituted(g, {"x": var("y", self.R2), "y": var("x", self.R2)})
        assert set(got.free_vars.names) == {"x", "y"}
        points = [{"x": rng.normal(size=2), "y": rng.normal(size=2)} for _ in range(3)]
        self.check(
            got, want, points,
            lambda p: gaussian_eval(g, {"x": p["y"], "y": p["x"]}),
            dense_log_normalizer(g.info_vec, g.precision),
        )

    def test_target_is_a_batch_name(self):
        rng = np.random.default_rng(14)
        g = random_gaussian_atom(rng, [("i", Bounded(2))], [("x", self.R2)])
        got, want = self.substituted(g, {"i": 1, "x": var("i", self.R2)})
        assert dict(got.free_vars.entries) == {"i": self.R2}
        points = [{"i": rng.normal(size=2)} for _ in range(3)]
        self.check(
            got, want, points,
            lambda p: gaussian_eval(g, {"x": p["i"]})[1],
            dense_log_normalizer(g.info_vec[1], g.precision[1]),
        )

    def test_value_naming_a_bound_real_stays_simultaneous(self):
        rng = np.random.default_rng(15)
        g = random_gaussian_atom(rng, [], [("x", self.R2), ("y", self.R2)])
        got, want = self.substituted(g, {"x": var("z", self.R2), "y": var("x", self.R2)})
        assert set(got.free_vars.names) == {"x", "z"}
        points = [{"x": rng.normal(size=2), "z": rng.normal(size=2)} for _ in range(3)]
        self.check(
            got, want, points,
            lambda p: gaussian_eval(g, {"x": p["z"], "y": p["x"]}),
            dense_log_normalizer(g.info_vec, g.precision),
        )

    def test_affine_value_adds_onto_a_relabel_target(self):
        rng = np.random.default_rng(16)
        g = random_gaussian_atom(rng, [], [("x", self.R2), ("y", self.R2)])
        z = var("z", self.R2)
        with interpretation(LAZY):
            ones = TensorAtom(TypeContext(), np.ones(2), self.R2)
            shifted = lift("add", z, to_term(ones))
        got, want = self.substituted(g, {"x": z, "y": shifted})
        assert set(got.free_vars.names) == {"z"}
        fold = np.vstack([np.eye(2), np.eye(2)])
        shift = np.array([0.0, 0.0, 1.0, 1.0])
        p_shift = g.precision @ shift
        info = fold.T @ (g.info_vec - p_shift)
        prec = fold.T @ g.precision @ fold
        const = g.info_vec @ shift - 0.5 * shift @ p_shift
        points = [{"z": rng.normal(size=2)} for _ in range(3)]
        self.check(
            got, want, points,
            lambda p: gaussian_eval(g, {"x": p["z"], "y": p["z"] + 1.0}),
            dense_log_normalizer(info, prec) + const,
        )


def at_point(term, point):
    """The value of a term with every free variable bound, as an array."""
    return interpret(EXACT, subst_term(term, point)).atom.data


class TestAtomSubstitution:
    """Index values, slices and point masses applied to each atom kind,
    checked against indexing the atoms' arrays directly."""

    R2 = RealArray((2,))

    def test_point_mass_pins_a_table_and_another_point(self):
        rng = np.random.default_rng(41)
        J = Bounded(2)
        d = DeltaAtom("i", index_tensor(TypeContext([("j", J)]), np.array([2.0, 0.0]), 3))
        a = table([("i", Bounded(3)), ("j", J)], rng.normal(size=(3, 2)))
        pts = rng.normal(size=(3, 2))
        e = DeltaAtom("x", TensorAtom(TypeContext([("i", Bounded(3))]), pts, self.R2))
        nf = normal_form_from_parts([DeltaLeaf(d), a, DeltaLeaf(e)])
        assert nf.deltas[0] == d and nf.gaussian is None and not nf.lazy_rest
        assert nf.tensor.context.names == ("j",)
        np.testing.assert_array_equal(nf.tensor.data, a.atom.data[[2, 0], [0, 1]])
        pinned = nf.deltas[1]
        assert pinned.name == "x" and pinned.point.context.names == ("j",)
        np.testing.assert_array_equal(pinned.point.data, pts[[2, 0]])

    def test_point_masses_pin_a_gaussian_batch_and_real(self):
        rng = np.random.default_rng(42)
        g = random_gaussian_atom(rng, [("i", Bounded(3))], [("y", self.R2), ("z", self.R2)])
        d = DeltaAtom("i", index_tensor(TypeContext(), np.float64(1), 3))
        y = rng.normal(size=2)
        f = DeltaAtom("y", TensorAtom(TypeContext(), y, self.R2))
        nf = normal_form_from_parts([DeltaLeaf(d), DeltaLeaf(f), GaussianLeaf(g)])
        assert [p.name for p in nf.deltas] == ["i", "y"]
        assert nf.gaussian.batch.names == () and nf.gaussian.reals.names == ("z",)
        for _ in range(3):
            z = rng.normal(size=2)
            got = float(nf.tensor.data) + gaussian_eval(nf.gaussian, {"z": z})
            want = gaussian_eval(g, {"y": y, "z": z})[1]
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_index_into_a_point_keeps_the_point_mass(self):
        pts = np.random.default_rng(43).normal(size=(3, 2))
        e = DeltaAtom("x", TensorAtom(TypeContext([("i", Bounded(3))]), pts, self.R2))
        idx = TensorLeaf(
            index_tensor(TypeContext([("k", Bounded(2))]), np.array([2.0, 0.0]), 3)
        )
        for value, rows in ((idx, [2, 0]), (Slice("k", 0, 3, 2, 3), [0, 2])):
            out = subst_term(DeltaLeaf(e), {"i": value})
            assert isinstance(out, DeltaLeaf) and out.atom.name == "x"
            assert out.atom.point.context.names == ("k",)
            np.testing.assert_array_equal(out.atom.point.data, pts[rows])

    def test_slice_of_a_slice_composes(self):
        outer = Slice("t", 1, 9, 2, 9)
        inner = Slice("s", 1, 4, 2, 4)
        out = subst_term(outer, {"t": inner})
        assert isinstance(out, Slice) and out.free_vars.names == ("s",)
        assert out.bound == 9
        want = outer.to_tensor().data[inner.to_tensor().data.astype(int)]
        np.testing.assert_array_equal(out.to_tensor().data, want)

    def test_cat_expands_a_gaussian_without_the_axis(self):
        rng = np.random.default_rng(44)
        g1 = random_gaussian_atom(rng, [], [("x", self.R2)])
        g2 = random_gaussian_atom(rng, [], [("x", self.R2)])
        a = rng.normal(size=2)
        first = lift("add", table([("t", Bounded(2))], a), GaussianLeaf(g1))
        out = cat_term("t", [first, GaussianLeaf(g2)])
        nf = normalize(out)
        assert nf.gaussian.batch.names == ("t",) and not nf.lazy_rest
        for _ in range(3):
            x = rng.normal(size=2)
            want = [a[0], a[1], 0.0] + np.array(
                [gaussian_eval(g, {"x": x}) for g in (g1, g1, g2)]
            )
            got = [at_point(out, {"t": k, "x": x}) for k in range(3)]
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_index_into_a_lazy_cat_picks_the_part(self):
        """A ``Cat`` with a lazy part stays lazy under Exact; a ground
        position substitutes into the one part that holds it, and the
        other bindings follow into that part."""
        rng = np.random.default_rng(46)
        a, b = rng.normal(size=2), rng.normal(size=3)
        x = var("x", RealArray(()))
        first = table([("t", Bounded(2))], a)
        with interpretation(EXACT):
            second = lift("add", lift("mul", x, x), table([("j", Bounded(3))], b))
            out = cat_term("t", [first, second])
            assert isinstance(out, Cat) and out.part_counts() == (2, 1)
            for k in range(2):
                got = subst_term(out, {"t": k})
                assert isinstance(got, TensorLeaf) and got.atom.context.names == ()
                assert got.atom.data == a[k]
            got = subst_term(out, {"t": 2})
            assert got == second
            got = subst_term(out, {"t": 2, "x": 0.5})
        assert isinstance(got, TensorLeaf) and got.atom.context.names == ("j",)
        np.testing.assert_array_equal(got.atom.data, 0.25 + b)


class TestPlateReduction:
    """``reduce-product`` under ``add`` over factors that do not mention
    the plate variable: tables and Gaussians are scaled by its size, lazy
    factors multiplied by it, and a point mass makes the rule decline."""

    R2 = RealArray((2,))

    def test_table_and_gaussian_are_scaled(self):
        rng = np.random.default_rng(45)
        b = table([("j", Bounded(3))], rng.normal(size=3))
        g = random_gaussian_atom(rng, [], [("x", self.R2)])
        t = table([("i", Bounded(4))], rng.normal(size=4))
        y = var("y", RealArray(()))
        body = lift("add", lift("add", b, GaussianLeaf(g)), lift("mul", lift("mul", y, y), t))
        out = reduce_term("add", "i", body)
        for j in range(3):
            x, yv = rng.normal(size=2), rng.normal()
            want = 4 * b.atom.data[j] + 4 * gaussian_eval(g, {"x": x}) + np.sum(
                yv * yv * t.atom.data
            )
            np.testing.assert_allclose(
                at_point(out, {"j": j, "x": x, "y": yv}), want, rtol=1e-12
            )

    def test_lazy_factor_is_multiplied(self):
        rng = np.random.default_rng(46)
        a = table([("i", Bounded(4))], rng.normal(size=4))
        g = random_gaussian_atom(rng, [], [("x", self.R2)])
        y = var("y", RealArray(()))
        body = lift("add", lift("add", a, GaussianLeaf(g)), lift("mul", y, y))
        out = reduce_term("add", "i", body)
        for _ in range(3):
            x, yv = rng.normal(size=2), rng.normal()
            want = np.sum(a.atom.data) + 4 * gaussian_eval(g, {"x": x}) + 4 * yv * yv
            np.testing.assert_allclose(at_point(out, {"x": x, "y": yv}), want, rtol=1e-12)

    def test_point_mass_declines(self):
        a = table([("i", Bounded(4))], np.arange(4.0))
        d = DeltaAtom("x", TensorAtom(TypeContext(), np.ones(2), self.R2))
        body = lift("add", DeltaLeaf(d), a)
        out = reduce_term("add", "i", body)
        assert isinstance(out, Reduce) and out.body == body
