"""Gaussian factors in information form.

The log density of an atom with information vector ``i`` and precision
``L`` is ``i @ x - x @ L @ x / 2`` with no stored constant, so it is
zero at ``x = 0``.  Oracles below use that formula directly, plus dense
multivariate-normal algebra and trapezoid quadrature for integrals.
"""

import numpy as np
import pytest

from funsor.approx import MomentMatching, match, match_layout, moment_match
from funsor.domains import Bounded, RealArray, TypeContext
from funsor.errors import ContextMismatch, FunsorTypeError, RankDeficient
from funsor.gaussian import (
    GaussianAtom,
    _block_offsets,
    _cholesky_jitter,
    _distinct,
    embed,
    embed_layout,
    gaussian_affine_substitute,
    gaussian_cat,
    gaussian_eval,
    gaussian_expand_batch,
    gaussian_fuse,
    gaussian_index_batch,
    gaussian_log_normalizer,
    gaussian_marginalize,
    gaussian_plated_product,
    gaussian_rename,
    gaussian_scale,
    gaussian_substitute,
    log_normalizer,
    marginal_layout,
    marginalize,
    normalizer,
    reorder_like,
)
from funsor.interp import EXACT, interpret
from funsor.markov import SCAN_MODES, scan_mode
from funsor.models import KalmanSpec, SldsSpec, build_kalman, build_slds
from funsor.tensor import TensorAtom, align_array, index_tensor


def random_gaussian(rng, reals, batch=()):
    """An atom with a well-conditioned random precision."""
    reals_ctx = TypeContext(reals)
    batch_ctx = TypeContext(batch)
    dim = sum(tp.num_elements for _, tp in reals_ctx.entries)
    bounds = tuple(tp.size for _, tp in batch_ctx.entries)
    a = rng.normal(size=bounds + (dim, dim))
    prec = a @ np.swapaxes(a, -1, -2) + 0.5 * dim * np.eye(dim)
    info = rng.normal(size=bounds + (dim,))
    return GaussianAtom(batch_ctx, reals_ctx, info, prec)


def dense_log_density(info, prec, x):
    return info @ x - 0.5 * x @ prec @ x


def dense_log_normalizer(info, prec):
    dim = len(info)
    chol = np.linalg.cholesky(prec)
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    mean = np.linalg.solve(prec, info)
    return 0.5 * dim * np.log(2 * np.pi) - 0.5 * logdet + 0.5 * info @ mean


class TestConstruction:
    def test_needs_a_real_variable(self):
        with pytest.raises(ContextMismatch):
            GaussianAtom(TypeContext(), TypeContext(), np.zeros(0), np.zeros((0, 0)))

    def test_shape_checks(self):
        reals = TypeContext([("x", RealArray(()))])
        with pytest.raises(FunsorTypeError):
            GaussianAtom(TypeContext(), reals, np.zeros(2), np.eye(2))

    def test_rejects_asymmetric_precision(self):
        reals = TypeContext([("x", RealArray((2,)))])
        prec = np.array([[1.0, 5.0], [0.0, 1.0]])
        with pytest.raises(ContextMismatch):
            GaussianAtom(TypeContext(), reals, np.zeros(2), prec)

    def test_density_is_zero_at_zero(self):
        rng = np.random.default_rng(0)
        g = random_gaussian(rng, [("x", RealArray((3,)))])
        np.testing.assert_allclose(gaussian_eval(g, {"x": np.zeros(3)}), 0.0)


class TestEval:
    def test_matches_quadratic_formula(self):
        rng = np.random.default_rng(1)
        g = random_gaussian(rng, [("x", RealArray((2,))), ("y", RealArray(()))])
        for _ in range(10):
            xv = rng.normal(size=2)
            yv = rng.normal()
            x = np.concatenate([xv, [yv]])
            want = dense_log_density(g.info_vec, g.precision, x)
            got = gaussian_eval(g, {"x": xv, "y": np.asarray(yv)})
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_batched_eval(self):
        rng = np.random.default_rng(2)
        g = random_gaussian(rng, [("x", RealArray(()))], [("b", Bounded(3))])
        xv = rng.normal()
        got = gaussian_eval(g, {"x": np.asarray(xv)})
        assert got.shape == (3,)
        for b in range(3):
            want = dense_log_density(
                g.info_vec[b], g.precision[b], np.array([xv])
            )
            np.testing.assert_allclose(got[b], want)


class TestFuse:
    def test_fuse_adds_log_densities(self):
        rng = np.random.default_rng(3)
        a = random_gaussian(rng, [("x", RealArray((2,)))])
        b = random_gaussian(rng, [("x", RealArray((2,))), ("y", RealArray(()))])
        fused = gaussian_fuse(a, b)
        for _ in range(10):
            pt = {"x": rng.normal(size=2), "y": np.asarray(rng.normal())}
            want = gaussian_eval(a, {"x": pt["x"]}) + gaussian_eval(b, pt)
            np.testing.assert_allclose(gaussian_eval(fused, pt), want, rtol=1e-12)

    def test_fuse_aligns_batches(self):
        rng = np.random.default_rng(4)
        a = random_gaussian(rng, [("x", RealArray(()))], [("i", Bounded(2))])
        b = random_gaussian(rng, [("x", RealArray(()))], [("j", Bounded(3))])
        fused = gaussian_fuse(a, b)
        assert set(fused.batch.names) == {"i", "j"}
        pt = {"x": np.asarray(0.7)}
        va = gaussian_eval(a, pt)
        vb = gaussian_eval(b, pt)
        vf = gaussian_eval(fused, pt)
        order = fused.batch.names
        for i in range(2):
            for j in range(3):
                idx = (i, j) if order == ("i", "j") else (j, i)
                np.testing.assert_allclose(vf[idx], va[i] + vb[j], rtol=1e-12)

    @staticmethod
    def zero_padded(a, b):
        """Both operands zero-padded over the union layout, summed, then
        symmetrized: the reference for the in-place embedding."""
        batch, reals = a.batch.union(b.batch), a.reals.union(b.reals)
        offs = _block_offsets(reals)
        bounds = tuple(tp.size for _, tp in batch.entries)
        dim = offs[reals.names[-1]][1]
        padded = []
        for g in (a, b):
            cols = np.asarray([k for n in g.reals.names for k in range(*offs[n])])
            i = np.zeros(bounds + (dim,))
            p = np.zeros(bounds + (dim, dim))
            i[..., cols] = align_array(g.info_vec, g.batch, batch)
            p[..., cols[:, None], cols] = align_array(g.precision, g.batch, batch)
            padded.append((i, p))
        (ia, pa), (ib, pb) = padded
        p = pa + pb
        return ia + ib, (p + np.swapaxes(p, -1, -2)) / 2.0

    @pytest.mark.parametrize(
        "a_reals, b_reals, a_batch, b_batch",
        [
            # b's blocks are out of the union's order: an index-array embed.
            ([("x", 2), ("y", 1), ("z", 3)], [("z", 3), ("w", 2), ("x", 2)], [], []),
            ([("x", 3), ("y", 2)], [("y", 2), ("z", 3)], [("t", 4)], [("t", 4)]),
            # Disjoint blocks, both contiguous.
            ([("x", 2)], [("y", 1), ("z", 2)], [("i", 2)], [("j", 3)]),
            # One operand broadcast over the other's batch.
            ([("x", 3), ("y", 3)], [("y", 3), ("b", 2)], [], [("t", 5)]),
            ([("y", 3), ("b", 2)], [("x", 3), ("y", 3)], [("t", 5)], []),
        ],
    )
    def test_fuse_equals_zero_padded_sum(self, a_reals, b_reals, a_batch, b_batch):
        rng = np.random.default_rng(5)
        a, b = (
            random_gaussian(
                rng,
                [(n, RealArray((d,))) for n, d in reals],
                [(n, Bounded(k)) for n, k in batch],
            )
            for reals, batch in ((a_reals, a_batch), (b_reals, b_batch))
        )
        fused = gaussian_fuse(a, b)
        info, prec = self.zero_padded(a, b)
        assert fused.batch.entries == a.batch.union(b.batch).entries
        assert fused.reals.entries == a.reals.union(b.reals).entries
        assert np.array_equal(fused.info_vec, info)
        assert np.array_equal(fused.precision, prec)


class TestNormalizer:
    def test_matches_dense_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_gaussian(rng, [("x", RealArray((3,)))])
            got = gaussian_log_normalizer(g)
            want = dense_log_normalizer(g.info_vec, g.precision)
            np.testing.assert_allclose(float(got.data), want, rtol=1e-12)

    def test_matches_quadrature_1d(self):
        rng = np.random.default_rng(6)
        g = random_gaussian(rng, [("x", RealArray(()))])
        xs = np.linspace(-30.0, 30.0, 200001)
        dens = np.exp([gaussian_eval(g, {"x": np.asarray(x)}) for x in xs])
        quad = np.log(np.trapezoid(dens, xs))
        np.testing.assert_allclose(
            float(gaussian_log_normalizer(g).data), quad, atol=1e-8
        )

    def test_indefinite_precision_raises(self):
        reals = TypeContext([("x", RealArray((2,)))])
        prec = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(RankDeficient):
            GaussianAtom(TypeContext(), reals, np.zeros(2), prec)

    def test_singular_psd_precision_is_jittered(self):
        # one zero eigenvalue: the retry with a diagonal nudge must succeed
        reals = TypeContext([("x", RealArray((2,)))])
        prec = np.array([[1.0, 1.0], [1.0, 1.0]])
        g = GaussianAtom(TypeContext(), reals, np.zeros(2), prec)
        assert np.isfinite(float(gaussian_log_normalizer(g).data))


class TestMarginalize:
    def test_sole_variable_gives_normalizer(self):
        rng = np.random.default_rng(7)
        g = random_gaussian(rng, [("x", RealArray((2,)))])
        const, rest = gaussian_marginalize(g, "x")
        assert rest is None
        np.testing.assert_allclose(
            float(const.data), dense_log_normalizer(g.info_vec, g.precision)
        )

    def test_partial_matches_dense_marginal(self):
        rng = np.random.default_rng(8)
        g = random_gaussian(rng, [("x", RealArray((2,))), ("y", RealArray((2,)))])
        const, rest = gaussian_marginalize(g, "y")
        assert rest is not None and rest.reals.names == ("x",)
        for _ in range(10):
            xv = rng.normal(size=2)
            got = float(const.data) + gaussian_eval(rest, {"x": xv})
            # integrate the conditional in closed form at fixed x
            i, L = g.info_vec, g.precision
            iy = i[2:] - L[2:, :2] @ xv
            want = dense_log_density(i[:2], L[:2, :2], xv) + dense_log_normalizer(
                iy, L[2:, 2:]
            )
            np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_marginal_matches_quadrature(self):
        rng = np.random.default_rng(9)
        g = random_gaussian(rng, [("x", RealArray(())), ("y", RealArray(()))])
        const, rest = gaussian_marginalize(g, "y")
        xs = np.linspace(-20.0, 20.0, 2001)
        for xv in (-1.0, 0.3, 2.0):
            dens = np.exp(
                [gaussian_eval(g, {"x": np.asarray(xv), "y": np.asarray(y)}) for y in xs]
            )
            quad = np.log(np.trapezoid(dens, xs))
            got = float(const.data) + gaussian_eval(rest, {"x": np.asarray(xv)})
            np.testing.assert_allclose(got, quad, atol=1e-6)


    def test_strided_batch_views_give_the_contiguous_results(self):
        """A stride-2 batch slice keeps its arrays as views, and the fuse
        and marginalize kernels give the same bits on it as on a
        contiguous copy."""
        from funsor.interp import index_gaussian_batch
        from funsor.terms import Slice

        rng = np.random.default_rng(10)
        reals = [("x", RealArray((2,))), ("y", RealArray((3,)))]
        g = random_gaussian(rng, reals, [("t", Bounded(9))])
        view = index_gaussian_batch(g, {"t": Slice("t", 0, 9, 2, 9)})
        assert np.shares_memory(view.precision, g.precision)
        assert not view.precision.flags.c_contiguous
        copy = GaussianAtom(
            view.batch,
            view.reals,
            np.ascontiguousarray(view.info_vec),
            np.ascontiguousarray(view.precision),
        )
        other = random_gaussian(
            rng, [("y", RealArray((3,))), ("z", RealArray(()))], [("t", Bounded(5))]
        )
        pairs = [
            (gaussian_fuse(view, other), gaussian_fuse(copy, other)),
            (gaussian_fuse(other, view), gaussian_fuse(other, copy)),
        ]
        for name in ("x", "y"):
            (w_a, g_a), (w_b, g_b) = (gaussian_marginalize(h, name) for h in (view, copy))
            np.testing.assert_array_equal(w_a.data, w_b.data)
            pairs.append((g_a, g_b))
        for a, b in pairs:
            np.testing.assert_array_equal(a.info_vec, b.info_vec)
            np.testing.assert_array_equal(a.precision, b.precision)


class TestSubstitute:
    def test_full_substitution_recovers_eval(self):
        rng = np.random.default_rng(10)
        g = random_gaussian(rng, [("x", RealArray((2,)))])
        xv = rng.normal(size=2)
        const, rest = gaussian_substitute(
            g, "x", TensorAtom(TypeContext(), xv, RealArray((2,)))
        )
        assert rest is None
        np.testing.assert_allclose(float(const.data), gaussian_eval(g, {"x": xv}))

    def test_partial_substitution_splits_density(self):
        rng = np.random.default_rng(11)
        g = random_gaussian(rng, [("x", RealArray((2,))), ("y", RealArray(()))])
        yv = np.asarray(1.3)
        const, rest = gaussian_substitute(
            g, "y", TensorAtom(TypeContext(), yv, RealArray(()))
        )
        assert rest is not None
        for _ in range(10):
            xv = rng.normal(size=2)
            got = float(const.data) + gaussian_eval(rest, {"x": xv})
            want = gaussian_eval(g, {"x": xv, "y": yv})
            np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_batched_substitution(self):
        rng = np.random.default_rng(12)
        g = random_gaussian(rng, [("x", RealArray(())), ("y", RealArray(()))])
        vals = rng.normal(size=3)
        value = TensorAtom(TypeContext([("b", Bounded(3))]), vals)
        const, rest = gaussian_substitute(g, "y", value)
        assert "b" in const.context and "b" in rest.batch
        xv = np.asarray(0.4)
        for b in range(3):
            want = gaussian_eval(g, {"x": xv, "y": np.asarray(vals[b])})
            got = const.data[b] + gaussian_eval(rest, {"x": xv})[b]
            np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_batched_value_keeps_one_precision(self):
        """The remaining precision does not depend on the value, so it
        stays one cell broadcast along the value's batch axis."""
        rng = np.random.default_rng(14)
        g = random_gaussian(rng, [("x", RealArray((2,))), ("y", RealArray(()))])
        value = TensorAtom(TypeContext([("b", Bounded(5))]), rng.normal(size=5))
        _, rest = gaussian_substitute(g, "y", value)
        assert rest.batch.names == ("b",) and rest.precision.strides[0] == 0
        np.testing.assert_array_equal(rest.precision[0], g.precision[:2, :2])


class TestBatchOps:
    def test_plated_product_sums_over_plate(self):
        rng = np.random.default_rng(13)
        g = random_gaussian(rng, [("x", RealArray((2,)))], [("i", Bounded(4))])
        prod = gaussian_plated_product(g, "i")
        assert "i" not in prod.batch
        xv = rng.normal(size=2)
        want = gaussian_eval(g, {"x": xv}).sum()
        np.testing.assert_allclose(gaussian_eval(prod, {"x": xv}), want, rtol=1e-12)

    def test_index_batch_selects(self):
        rng = np.random.default_rng(14)
        g = random_gaussian(rng, [("x", RealArray(()))], [("i", Bounded(3))])
        idx = index_tensor(TypeContext(), np.array(2), 3)
        sel = gaussian_index_batch(g, "i", idx)
        xv = np.asarray(-0.8)
        np.testing.assert_allclose(
            gaussian_eval(sel, {"x": xv}), gaussian_eval(g, {"x": xv})[2]
        )

    def test_index_batch_gathers_cells_without_refactoring(self, monkeypatch):
        """Cells gathered from a checked atom are already symmetric and
        definite, so the gather copies them without a Cholesky check.
        """
        rng = np.random.default_rng(16)
        g = random_gaussian(
            rng, [("x", RealArray((2,)))], [("i", Bounded(4)), ("j", Bounded(3))]
        )
        picks = np.array([[3.0, 0.0], [1.0, 1.0]])
        idx = index_tensor(TypeContext([("a", Bounded(2)), ("b", Bounded(2))]), picks, 4)
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(
            np.linalg, "cholesky", lambda m: calls.append(m) or cholesky(m)
        )
        sel = gaussian_index_batch(g, "i", idx)
        assert calls == []
        assert sorted(sel.batch.names) == ["a", "b", "j"]
        rows = picks.astype(int)
        perm = [sel.batch.names.index(n) for n in ("a", "b", "j")]
        info = np.transpose(sel.info_vec, perm + [3])
        prec = np.transpose(sel.precision, perm + [3, 4])
        np.testing.assert_array_equal(info, g.info_vec[rows])
        np.testing.assert_array_equal(prec, g.precision[rows])

    def test_cat_then_index_roundtrip(self):
        rng = np.random.default_rng(15)
        a = random_gaussian(rng, [("x", RealArray(()))], [("i", Bounded(2))])
        b = random_gaussian(rng, [("x", RealArray(()))])
        joined = gaussian_cat("i", [a, b])
        assert joined.batch.typeof("i") == Bounded(3)
        xv = np.asarray(0.2)
        va = gaussian_eval(a, {"x": xv})
        vj = gaussian_eval(joined, {"x": xv})
        np.testing.assert_allclose(vj[:2], va)
        np.testing.assert_allclose(vj[2], gaussian_eval(b, {"x": xv}))

    def test_expand_batch_repeats(self):
        rng = np.random.default_rng(16)
        g = random_gaussian(rng, [("x", RealArray(()))])
        wide = gaussian_expand_batch(g, "i", 3)
        xv = np.asarray(1.1)
        np.testing.assert_allclose(
            gaussian_eval(wide, {"x": xv}),
            np.full(3, gaussian_eval(g, {"x": xv})),
        )


class TestRearrangement:
    def test_reorder_preserves_density(self):
        rng = np.random.default_rng(17)
        g = random_gaussian(rng, [("x", RealArray((2,))), ("y", RealArray(()))])
        flipped = GaussianAtom(
            g.batch,
            TypeContext([("y", RealArray(())), ("x", RealArray((2,)))]),
            np.concatenate([g.info_vec[2:], g.info_vec[:2]]),
            np.block(
                [
                    [g.precision[2:, 2:], g.precision[2:, :2]],
                    [g.precision[:2, 2:], g.precision[:2, :2]],
                ]
            ),
        )
        back = reorder_like(flipped, g)
        np.testing.assert_allclose(back.info_vec, g.info_vec)
        np.testing.assert_allclose(back.precision, g.precision)

    def test_rename_is_alpha_equivalence(self):
        rng = np.random.default_rng(18)
        g = random_gaussian(rng, [("x", RealArray((2,)))])
        h = gaussian_rename(g, {"x": "z"})
        xv = rng.normal(size=2)
        np.testing.assert_allclose(
            gaussian_eval(h, {"z": xv}), gaussian_eval(g, {"x": xv})
        )

    def test_scale_multiplies_log_density(self):
        rng = np.random.default_rng(19)
        g = random_gaussian(rng, [("x", RealArray((2,)))])
        h = gaussian_scale(g, 2.5)
        xv = rng.normal(size=2)
        np.testing.assert_allclose(
            gaussian_eval(h, {"x": xv}), 2.5 * gaussian_eval(g, {"x": xv})
        )


def cells(ctx):
    """Every assignment of a batch context, as dicts."""
    for idx in np.ndindex(*(tp.size for _, tp in ctx.entries)):
        yield dict(zip(ctx.names, idx))


def at(arr, ctx, cell):
    """A batched array's entry at a cell; axes follow ``ctx``."""
    return arr[tuple(cell[n] for n in ctx.names)]


class TestKernelsAgainstDense:
    """Batched kernels against per-cell dense NumPy algebra.

    Values and coefficients may be batched over names the factor lacks,
    and affine coefficients may bring in new real variables."""

    def test_affine_substitute(self):
        rng = np.random.default_rng(30)
        R2, R3, R4 = RealArray((2,)), RealArray((3,)), RealArray((4,))
        g = random_gaussian(rng, [("x", R2), ("y", R3)], batch=[("i", Bounded(2))])
        j_ctx = TypeContext([("j", Bounded(3))])
        const = TensorAtom(TypeContext([("i", Bounded(2))]), rng.normal(size=(2, 3)), R3)
        a_x = TensorAtom(j_ctx, rng.normal(size=(3, 3, 2)), RealArray((3, 2)))
        a_u = TensorAtom(j_ctx, rng.normal(size=(3, 3, 4)), RealArray((3, 4)))
        t, rest = gaussian_affine_substitute(g, "y", const, [("x", R2, a_x), ("u", R4, a_u)])
        assert rest.reals.names == ("x", "u") and rest.dim > g.dim
        assert set(t.context.names) == set(rest.batch.names) == {"i", "j"}
        for cell in cells(rest.batch):
            # y = c + A_x x + A_u u, written as old = M @ new + m.
            m_map = np.zeros((5, 6))
            m_map[:2, :2] = np.eye(2)
            m_map[2:, :2] = at(a_x.data, j_ctx, cell)
            m_map[2:, 2:] = at(a_u.data, j_ctx, cell)
            m_vec = np.concatenate([np.zeros(2), const.data[cell["i"]]])
            info, prec = g.info_vec[cell["i"]], g.precision[cell["i"]]
            want_t = info @ m_vec - 0.5 * m_vec @ prec @ m_vec
            want_i = m_map.T @ (info - prec @ m_vec)
            want_p = m_map.T @ prec @ m_map
            np.testing.assert_allclose(at(t.data, t.context, cell), want_t, rtol=1e-12)
            np.testing.assert_allclose(at(rest.info_vec, rest.batch, cell), want_i, rtol=1e-12)
            np.testing.assert_allclose(at(rest.precision, rest.batch, cell), want_p, rtol=1e-12)
            new = rng.normal(size=6)
            old = m_map @ new + m_vec
            np.testing.assert_allclose(
                want_t + dense_log_density(want_i, want_p, new),
                dense_log_density(info, prec, old),
                rtol=1e-10,
            )

    def test_marginalize(self):
        rng = np.random.default_rng(31)
        g = random_gaussian(
            rng,
            [("x", RealArray((2,))), ("y", RealArray((3,))), ("z", RealArray(()))],
            batch=[("i", Bounded(2)), ("j", Bounded(3))],
        )
        w, rest = gaussian_marginalize(g, "y")
        assert rest.reals.names == ("x", "z")
        keep = np.array([0, 1, 5])
        drop = np.array([2, 3, 4])
        for cell in cells(g.batch):
            info, prec = at(g.info_vec, g.batch, cell), at(g.precision, g.batch, cell)
            p_kd = prec[np.ix_(keep, drop)]
            p_dd = prec[np.ix_(drop, drop)]
            want_w = dense_log_normalizer(info[drop], p_dd)
            want_i = info[keep] - p_kd @ np.linalg.solve(p_dd, info[drop])
            want_p = prec[np.ix_(keep, keep)] - p_kd @ np.linalg.solve(p_dd, p_kd.T)
            np.testing.assert_allclose(at(w.data, w.context, cell), want_w, rtol=1e-12)
            np.testing.assert_allclose(at(rest.info_vec, rest.batch, cell), want_i, rtol=1e-10)
            np.testing.assert_allclose(at(rest.precision, rest.batch, cell), want_p, rtol=1e-10)

    def test_substitute(self):
        rng = np.random.default_rng(32)
        g = random_gaussian(
            rng, [("x", RealArray((2,))), ("y", RealArray((3,)))], batch=[("i", Bounded(2))]
        )
        k_ctx = TypeContext([("k", Bounded(4))])
        value = TensorAtom(k_ctx, rng.normal(size=(4, 3)), RealArray((3,)))
        t, rest = gaussian_substitute(g, "y", value)
        assert set(t.context.names) == set(rest.batch.names) == {"i", "k"}
        for cell in cells(rest.batch):
            info, prec = g.info_vec[cell["i"]], g.precision[cell["i"]]
            yv = value.data[cell["k"]]
            want_t = info[2:] @ yv - 0.5 * yv @ prec[2:, 2:] @ yv
            want_i = info[:2] - prec[:2, 2:] @ yv
            np.testing.assert_allclose(at(t.data, t.context, cell), want_t, rtol=1e-12)
            np.testing.assert_allclose(at(rest.info_vec, rest.batch, cell), want_i, rtol=1e-12)
            np.testing.assert_allclose(
                at(rest.precision, rest.batch, cell), prec[:2, :2], rtol=1e-12
            )


def kernel_results(rng):
    """One call of each Gaussian kernel on checked atoms, by name."""
    R1, R2 = RealArray(()), RealArray((2,))
    g = random_gaussian(rng, [("x", R2), ("y", R1)], [("i", Bounded(3))])
    h = random_gaussian(rng, [("y", R1), ("z", R2)], [("j", Bounded(2))])
    y_val = TensorAtom(TypeContext([("k", Bounded(2))]), rng.normal(size=2))
    const = TensorAtom(TypeContext(), rng.normal(size=2), R2)
    coeff = TensorAtom(TypeContext(), rng.normal(size=(2, 2)), RealArray((2, 2)))
    log_w = TensorAtom(TypeContext([("i", Bounded(3))]), rng.normal(size=3))
    return {
        "fuse": lambda: gaussian_fuse(g, h),
        "marginalize": lambda: gaussian_marginalize(g, "y")[1],
        "substitute": lambda: gaussian_substitute(g, "y", y_val)[1],
        "affine_substitute": lambda: gaussian_affine_substitute(
            g, "x", const, [("u", R2, coeff)]
        )[1],
        "plated_product": lambda: gaussian_plated_product(g, "i"),
        "cat": lambda: gaussian_cat("i", [g, h]),
        "scale": lambda: gaussian_scale(g, 0.5),
        "expand_batch": lambda: gaussian_expand_batch(g, "k", 2),
        "moment_match": lambda: moment_match(log_w, g, "i")[0],
    }


class TestTrustBoundary:
    """Parameters are checked where they enter; kernel results are not
    re-factorized, and stay bit-identical to checked construction."""

    # Factorizations a kernel needs for its own solves: the marginalized
    # block, and for moment matching the components (their means,
    # covariances and normalizers) and the matched factor's normalizer.
    OWN_FACTORIZATIONS = {"marginalize": 1, "moment_match": 2}

    @pytest.mark.parametrize("kernel", sorted(kernel_results(np.random.default_rng(0))))
    def test_kernel_result_is_not_refactorized(self, kernel, monkeypatch):
        run = kernel_results(np.random.default_rng(40))[kernel]
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(
            np.linalg, "cholesky", lambda m: calls.append(m.shape) or cholesky(m)
        )
        got = run()
        assert len(calls) == self.OWN_FACTORIZATIONS.get(kernel, 0)

        def checked(cls, batch, reals, info_vec, precision):
            return GaussianAtom(batch, reals, info_vec, precision)

        monkeypatch.setattr(GaussianAtom, "_unchecked", classmethod(checked))
        want = kernel_results(np.random.default_rng(40))[kernel]()
        assert got.batch.entries == want.batch.entries
        assert got.reals.entries == want.reals.entries
        assert np.array_equal(got.info_vec, want.info_vec)
        assert np.array_equal(got.precision, want.precision)

    def test_indefinite_result_raises_at_first_factorization(self):
        # The x block has eigenvalues 3 and -1.
        prec = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        reals = TypeContext([("x", RealArray((2,))), ("y", RealArray(()))])
        g = GaussianAtom._unchecked(TypeContext(), reals, np.zeros(3), prec)
        with pytest.raises(RankDeficient):
            gaussian_log_normalizer(g)
        with pytest.raises(RankDeficient):
            gaussian_marginalize(g, "x")


# Shared cells: a precision repeated along ``t`` (12 cells) is a stride-0
# view; ``k`` varies.  ``info`` is per cell.
SHARED_BATCH = TypeContext([("t", Bounded(12)), ("k", Bounded(2))])
SHARED_REALS = TypeContext([("x", RealArray((2,))), ("y", RealArray(()))])


def shared_params(rng):
    a = rng.normal(size=(2, 3, 3))
    cell = a @ np.swapaxes(a, -1, -2) + 1.5 * np.eye(3)
    prec = np.broadcast_to(cell, (12, 2, 3, 3))
    return rng.normal(size=(12, 2, 3)), prec


def assert_bitwise(got, want):
    for a, b in zip(got, want):
        a = a.data if isinstance(a, TensorAtom) else a
        b = b.data if isinstance(b, TensorAtom) else b
        if isinstance(a, GaussianAtom):
            assert a.batch.entries == b.batch.entries
            assert a.reals.entries == b.reals.entries
            a, b = (a.info_vec, a.precision), (b.info_vec, b.precision)
            assert_bitwise(a, b)
        elif a is None:
            assert b is None
        else:
            assert a.shape == b.shape
            assert np.array_equal(a, b)
            assert a.tobytes() == b.tobytes()


class TestSharedCells:
    """A precision that repeats along a batch axis stays a stride-0 view;
    the cores compute on its distinct cells and give the bits they give
    on a full copy."""

    def atoms(self, rng):
        info, prec = shared_params(rng)
        full = np.ascontiguousarray(prec)
        return (
            GaussianAtom(SHARED_BATCH, SHARED_REALS, info, prec),
            GaussianAtom(SHARED_BATCH, SHARED_REALS, info, full),
        )

    def test_atom_keeps_the_view(self):
        shared, _ = self.atoms(np.random.default_rng(0))
        assert shared.precision.strides[0] == 0
        assert shared.precision.strides[1] != 0

    def test_cut_keeps_varying_and_length_one_axes(self):
        _, prec = shared_params(np.random.default_rng(1))
        assert _distinct(prec).shape == (1, 2, 3, 3)
        full = np.ascontiguousarray(prec)
        assert _distinct(full) is full
        # numpy reports stride 0 for these length-1 axes; they are not shared.
        single = np.broadcast_to(full[:1, :1], (1, 1, 3, 3))
        assert single.strides[:2] == (0, 0)
        assert _distinct(single) is single
        assert_bitwise([_cholesky_jitter(single)], [np.linalg.cholesky(single)])
        edge = np.broadcast_to(full[0, :1], (1, 9, 3, 3))
        assert _distinct(edge).shape == (1, 1, 3, 3)

    def test_cholesky(self):
        _, prec = shared_params(np.random.default_rng(2))
        got = _cholesky_jitter(prec)
        assert got.strides[0] == 0
        assert_bitwise([got], [_cholesky_jitter(np.ascontiguousarray(prec))])

    def test_embed(self):
        rng = np.random.default_rng(3)
        info, prec = shared_params(rng)
        other = random_gaussian(rng, [("y", RealArray(())), ("z", RealArray(()))])
        reals = SHARED_REALS.union(other.reals)
        layout = embed_layout(
            [(SHARED_BATCH, SHARED_REALS), (other.batch, other.reals)],
            SHARED_BATCH,
            reals,
        )
        theirs = (other.info_vec, other.precision)
        got = embed(layout, [(info, prec), theirs])
        want = embed(layout, [(info, np.ascontiguousarray(prec)), theirs])
        assert got[1].strides[0] == 0 and want[1].strides[0] != 0
        assert_bitwise(got, want)
        # No part varies along any axis: one cell, shared over both.
        lone = embed(layout[:2] + (layout[2][1:],), [theirs])
        assert lone[1].shape == (12, 2, 4, 4) and lone[1].strides[:2] == (0, 0)

    @pytest.mark.parametrize("varying", [2, None])
    @pytest.mark.parametrize("dx, name", [(2, "x"), (2, "y"), (4, "x")])
    def test_marginalize(self, dx, name, varying):
        # Keeping one coordinate against four eliminated ones makes the
        # Schur product a dot product, whose kernel numpy picks from the
        # operands' layout; the cut must keep the full product's layout.
        reals = TypeContext([("x", RealArray((dx,))), ("y", RealArray(()))])
        batch = (12,) if varying is None else (12, varying)
        u, v = marginal_layout(reals, name)
        for seed in range(8):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=batch[1:] + (dx + 1, dx + 1))
            cell = a @ np.swapaxes(a, -1, -2) + 1.5 * np.eye(dx + 1)
            prec = np.broadcast_to(cell, batch + cell.shape[-2:])
            info = rng.normal(size=batch + (dx + 1,))
            got = marginalize(u, v, info, prec)
            want = marginalize(u, v, info, np.ascontiguousarray(prec))
            assert got[2].strides[0] == 0
            assert_bitwise(got, want)

    def test_log_normalizer(self):
        info, prec = shared_params(np.random.default_rng(5))
        got = log_normalizer(info, prec)
        assert_bitwise([got], [log_normalizer(info, np.ascontiguousarray(prec))])

    def test_atom_kernels(self):
        rng = np.random.default_rng(6)
        shared, full = self.atoms(rng)
        other = random_gaussian(rng, [("y", RealArray(()))], [("t", Bounded(3))])
        picks = index_tensor(
            TypeContext([("s", Bounded(4))]), np.array([11.0, 0.0, 5.0, 5.0]), 12
        )
        template = GaussianAtom._unchecked(
            TypeContext([("k", Bounded(2)), ("t", Bounded(12))]),
            TypeContext([("y", RealArray(())), ("x", RealArray((2,)))]),
            np.zeros((2, 12, 3)),
            np.zeros((2, 12, 3, 3)),
        )
        y_val = TensorAtom(TypeContext([("j", Bounded(3))]), rng.normal(size=3))
        kernels = {
            "plated_product": lambda g: gaussian_plated_product(g, "t"),
            "plated_product_k": lambda g: gaussian_plated_product(g, "k"),
            "cat": lambda g: gaussian_cat("t", [g, other]),
            "index_batch": lambda g: gaussian_index_batch(g, "t", picks),
            "reorder_like": lambda g: reorder_like(g, template),
            "substitute": lambda g: gaussian_substitute(g, "y", y_val),
            "marginalize": lambda g: gaussian_marginalize(g, "x"),
            "log_normalizer": lambda g: gaussian_log_normalizer(g),
        }
        for name, kernel in kernels.items():
            got, want = kernel(shared), kernel(full)
            if not isinstance(got, tuple):
                got, want = (got,), (want,)
            assert_bitwise(got, want)

    @pytest.mark.parametrize("bad", ["asymmetric", "indefinite"])
    def test_checks_reject_a_shared_precision_as_a_full_one(self, bad):
        info, prec = shared_params(np.random.default_rng(7))
        cell = np.array(prec[0])
        if bad == "asymmetric":
            cell[:, 0, 1] += 1.0
        else:
            cell[1] = np.diag([1.0, -1.0, 1.0])
        errors = []
        for p in (np.broadcast_to(cell, prec.shape), np.broadcast_to(cell, prec.shape).copy()):
            with pytest.raises((ContextMismatch, RankDeficient)) as exc:
                GaussianAtom(SHARED_BATCH, SHARED_REALS, info, p)
            errors.append((type(exc.value), str(exc.value)))
        assert errors[0] == errors[1]


# The whitened cores against dense references built from the inverse of
# the full precision, on batches (5, 3) whose precision is either full or
# one cell per ``k`` repeated along ``t`` as a stride-0 view.
CORE_BATCH = TypeContext([("t", Bounded(5)), ("k", Bounded(3))])
CORE_CASES = [(d, shared) for d in (1, 2, 3, 4) for shared in (False, True)]


def core_params(rng, d, shared):
    cells = (1, 3) if shared else (5, 3)
    a = rng.normal(size=cells + (d, d))
    prec = np.broadcast_to(a @ np.swapaxes(a, -1, -2) + 0.5 * d * np.eye(d), (5, 3, d, d))
    return rng.normal(size=(5, 3, d)), prec


def dense_moments(info, prec):
    """Covariance, mean and log normalizer per cell, from ``inv(prec)``."""
    cov = np.linalg.inv(prec)
    mean = (cov @ info[..., None])[..., 0]
    logdet = np.linalg.slogdet(cov)[1]
    quad = np.sum(info * mean, axis=-1)
    return cov, mean, 0.5 * info.shape[-1] * np.log(2 * np.pi) + 0.5 * logdet + 0.5 * quad


def assert_relative(got, want):
    """Agreement within 1e-12 of the largest reference entry."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def spy_inv(monkeypatch):
    shapes = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda m: shapes.append(m.shape) or inv(m))
    return shapes


class TestWhitenedCores:
    """Every elimination inverts its Cholesky factor once per distinct cell
    and multiplies; its results agree with dense inverses."""

    @pytest.mark.parametrize("d, shared", CORE_CASES)
    def test_normalizer(self, d, shared, monkeypatch):
        info, prec = core_params(np.random.default_rng([d, shared]), d, shared)
        cov, mean, w = dense_moments(info, prec)
        chol = _cholesky_jitter(prec)
        shapes = spy_inv(monkeypatch)
        inv, z, got_w = normalizer(chol, info)
        assert shapes == [((1 if shared else 5), 3, d, d)]
        assert_relative(got_w, w)
        assert_relative((np.swapaxes(inv, -1, -2) @ z[..., None])[..., 0], mean)
        assert_relative(np.swapaxes(inv, -1, -2) @ inv, cov[: len(inv)])
        assert_relative(log_normalizer(info, prec), w)
        assert len(shapes) == 2 and shapes[1] == shapes[0]

    @pytest.mark.parametrize("d, shared", CORE_CASES)
    def test_marginalize(self, d, shared, monkeypatch):
        """The remainder is the marginal over the kept block: its
        covariance is that block of the full covariance, and the weight
        is what the full normalizer has left over."""
        info, prec = core_params(np.random.default_rng([d, shared, 1]), d + 2, shared)
        reals = TypeContext([("x", RealArray((d,))), ("y", RealArray((2,)))])
        u, v = marginal_layout(reals, "x")
        cov, mean, w_full = dense_moments(info, prec)
        p_want = np.linalg.inv(cov[..., u[:, None], u[None, :]])
        i_want = (p_want @ mean[..., u, None])[..., 0]
        w_want = w_full - dense_moments(i_want, p_want)[2]
        shapes = spy_inv(monkeypatch)
        w, i_new, p_new = marginalize(u, v, info, prec)
        assert shapes == [((1 if shared else 5), 3, d, d)]
        assert_relative(w, w_want)
        assert_relative(i_new, i_want)
        assert_relative(p_new, p_want)
        assert np.array_equal(p_new, np.swapaxes(p_new, -1, -2))
        assert (p_new.strides[0] == 0) == shared

    @pytest.mark.parametrize("d, shared", CORE_CASES)
    def test_match(self, d, shared, monkeypatch):
        """Moment matching over ``k``: covariances from the one inverse of
        each component's Cholesky factor, the matched precision from
        ``inv`` of the matched covariance."""
        rng = np.random.default_rng([d, shared, 2])
        info, prec = core_params(rng, d, shared)
        weight = rng.normal(size=(5, 3))
        cov, mean, w = dense_moments(info, prec)
        logw = weight + w
        total = np.logaddexp.reduce(logw, axis=1)
        p = np.exp(logw - total[:, None])
        mu2 = np.sum(p[..., None] * mean, axis=1)
        diff = mean - mu2[:, None]
        cov2 = np.sum(p[..., None, None] * (cov + diff[..., :, None] * diff[..., None, :]), axis=1)
        p_want = np.linalg.inv(cov2)
        i_want = (p_want @ mu2[..., None])[..., 0]
        w_want = total - dense_moments(i_want, p_want)[2]
        _, layout = match_layout(CORE_BATCH, CORE_BATCH, "k")
        shapes = spy_inv(monkeypatch)
        got_w, i_new, p_new = match(layout, weight, info, prec)
        assert shapes[0] == ((1 if shared else 5), 3, d, d)
        assert_relative(got_w, w_want)
        assert_relative(i_new, i_want)
        assert_relative(p_new, p_want)
        assert np.array_equal(p_new, np.swapaxes(p_new, -1, -2))


def small_kalman(rng, T):
    n, m = 3, 2
    a = rng.normal(size=(m, m))
    return KalmanSpec(
        F=0.9 * np.linalg.qr(rng.normal(size=(n, n)))[0],
        Q=0.5 * np.eye(n),
        H=rng.normal(size=(m, n)),
        R=0.3 * np.eye(m),
        observations=rng.normal(size=(T, m)),
        bias_cov=a @ a.T + 0.5 * np.eye(m),
    )


def small_slds(rng, T):
    K, n = 2, 2
    a = rng.normal(size=(n, n))
    spec = SldsSpec(
        transition=rng.dirichlet(np.ones(K), size=K),
        F=0.5 * rng.normal(size=(K, n, n)),
        Q=a @ a.T + 0.5 * np.eye(n),
        H=rng.normal(size=(1, n)),
        R=np.array([[0.4]]),
        window=2,
    )
    return spec, rng.normal(size=(T, 1))


class TestNoLinearSolves:
    """Evaluating a built model factors and multiplies: no elimination
    calls ``np.linalg.solve``."""

    def spy(self, monkeypatch):
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(
            np.linalg, "solve", lambda a, b: calls.append(a.shape) or solve(a, b)
        )
        return calls

    @pytest.mark.parametrize("mode", SCAN_MODES)
    def test_kalman(self, mode, monkeypatch):
        term = build_kalman(small_kalman(np.random.default_rng(3), 13))
        calls = self.spy(monkeypatch)
        with scan_mode(mode):
            got = interpret(EXACT, term)
        assert np.isfinite(got.atom.data) and calls == []

    def test_slds(self, monkeypatch):
        spec, ys = small_slds(np.random.default_rng(4), 13)
        term = build_slds(spec, ys)
        calls = self.spy(monkeypatch)
        with scan_mode("sequential"):
            got = interpret(MomentMatching(spec.window), term)
        assert np.isfinite(got.atom.data) and calls == []
