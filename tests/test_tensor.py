"""Named-axis tensor atoms: alignment, pointwise ops, reductions, reshaping.

Oracles below evaluate the same operations with plain positional numpy
on explicitly aligned arrays; the atoms must agree exactly.
"""

import tracemalloc

import numpy as np
import pytest

from funsor import tensor
from funsor.domains import Bounded, RealArray, TypeContext
from funsor.errors import FunsorTypeError, IndexOutOfRange, NameAbsent, TypeConflict
from funsor.ops import ADD, LOGADDEXP, MUL, REDUCE_OPS
from funsor.tensor import (
    _SCALED_FLOOR,
    TensorAtom,
    _contract_all,
    align_array,
    align_atoms,
    contract_arrays,
    contract_layout,
    index_tensor,
    logsumexp,
    realign,
    scalar_tensor,
    tensor_apply,
    tensor_cat,
    tensor_contract,
    tensor_index,
    tensor_reduce,
    tensor_slice,
    tensor_take,
    zeros_tensor,
)


def random_atom(rng, entries):
    ctx = TypeContext(entries)
    shape = tuple(tp.size for _, tp in ctx.entries)
    return TensorAtom(ctx, rng.normal(size=shape))


class TestAtomBasics:
    def test_scalar(self):
        a = scalar_tensor(2.5)
        assert a.context.names == ()
        assert a.data.shape == ()
        np.testing.assert_allclose(a.data, 2.5)

    def test_zeros(self):
        ctx = TypeContext([("i", Bounded(2)), ("j", Bounded(3))])
        z = zeros_tensor(ctx)
        assert z.data.shape == (2, 3)
        np.testing.assert_allclose(z.data, 0.0)

    def test_shape_must_match_context(self):
        ctx = TypeContext([("i", Bounded(2))])
        with pytest.raises(FunsorTypeError):
            TensorAtom(ctx, np.zeros(3))

    def test_data_is_read_only(self):
        a = scalar_tensor(1.0)
        with pytest.raises(ValueError):
            a.data[()] = 2.0

    def test_atom_equals_itself_without_comparing_data(self, monkeypatch):
        from funsor.gaussian import GaussianAtom

        rng = np.random.default_rng(30)
        t = random_atom(rng, [("i", Bounded(3))])
        g = GaussianAtom(
            TypeContext([("i", Bounded(3))]),
            TypeContext([("x", RealArray(()))]),
            rng.normal(size=(3, 1)),
            np.ones((3, 1, 1)),
        )

        def refuse(*args, **kwargs):
            raise AssertionError("compared data of an atom with itself")

        monkeypatch.setattr(np, "array_equal", refuse)
        assert t == t and g == g


class TestAlignment:
    def test_align_two(self):
        rng = np.random.default_rng(0)
        a = random_atom(rng, [("i", Bounded(2)), ("j", Bounded(3))])
        b = random_atom(rng, [("j", Bounded(3)), ("k", Bounded(4))])
        union, (va, vb) = align_atoms([a, b])
        assert union.names == ("i", "j", "k")
        assert va.shape == (2, 3, 1)
        assert vb.shape == (1, 3, 4)
        for i in range(2):
            for j in range(3):
                assert va[i, j, 0] == a.data[i, j]
                assert vb[0, j, 0] == b.data[j, 0]

    def test_align_many_matches_manual_broadcast(self):
        rng = np.random.default_rng(1)
        a = random_atom(rng, [("i", Bounded(2))])
        b = random_atom(rng, [("j", Bounded(3))])
        c = random_atom(rng, [("i", Bounded(2)), ("k", Bounded(4))])
        union, views = align_atoms([a, b, c])
        assert union.names == ("i", "j", "k")
        total = views[0] + views[1] + views[2]
        want = (
            a.data[:, None, None]
            + b.data[None, :, None]
            + c.data[:, None, :]
        )
        np.testing.assert_allclose(total, want)

    def test_align_array_keeps_a_matching_layout(self):
        arr = np.zeros((2, 3, 4))
        ctx = TypeContext([("i", Bounded(2)), ("j", Bounded(3))])
        same = TypeContext([("i", Bounded(2)), ("j", Bounded(3))])
        assert align_array(arr, ctx, same) is arr
        swapped = align_array(arr, ctx, TypeContext(reversed(ctx.entries)))
        assert swapped.shape == (3, 2, 4)

    def test_align_conflicting_types(self):
        a = TensorAtom(TypeContext([("i", Bounded(2))]), np.zeros(2))
        b = TensorAtom(TypeContext([("i", Bounded(3))]), np.zeros(3))
        with pytest.raises(TypeConflict):
            align_atoms([a, b])


class TestPointwise:
    def test_add_matches_numpy(self):
        rng = np.random.default_rng(2)
        a = random_atom(rng, [("i", Bounded(2)), ("j", Bounded(3))])
        b = random_atom(rng, [("j", Bounded(3))])
        out = tensor_apply(ADD, [a, b])
        assert out.context.names == ("i", "j")
        np.testing.assert_allclose(out.data, a.data + b.data[None, :])

    def test_logaddexp_matches_numpy(self):
        rng = np.random.default_rng(3)
        a = random_atom(rng, [("i", Bounded(4))])
        b = random_atom(rng, [("i", Bounded(4))])
        out = tensor_apply(LOGADDEXP, [a, b])
        np.testing.assert_allclose(out.data, np.logaddexp(a.data, b.data))

    def test_mul_with_scalar(self):
        a = scalar_tensor(3.0)
        b = scalar_tensor(-2.0)
        out = tensor_apply(MUL, [a, b])
        np.testing.assert_allclose(out.data, -6.0)


class TestReduce:
    def test_logaddexp_reduce_matches_manual(self):
        rng = np.random.default_rng(4)
        a = random_atom(rng, [("i", Bounded(3)), ("j", Bounded(5))])
        out = tensor_reduce(REDUCE_OPS["logaddexp"], a, "i")
        assert out.context.names == ("j",)
        np.testing.assert_allclose(
            out.data, np.logaddexp.reduce(a.data, axis=0), rtol=1e-12
        )

    def test_add_and_max_reduce(self):
        rng = np.random.default_rng(5)
        a = random_atom(rng, [("i", Bounded(3)), ("j", Bounded(5))])
        np.testing.assert_allclose(
            tensor_reduce(REDUCE_OPS["add"], a, "j").data, a.data.sum(axis=1)
        )
        np.testing.assert_allclose(
            tensor_reduce(REDUCE_OPS["max"], a, "j").data, a.data.max(axis=1)
        )

    def test_absent_name_raises(self):
        a = scalar_tensor(0.0)
        with pytest.raises(NameAbsent):
            tensor_reduce(REDUCE_OPS["add"], a, "missing")

    def test_logsumexp_helper_is_shift_invariant(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 5)) + 700.0
        got = logsumexp(x, axis=0)
        want = np.logaddexp.reduce(x, axis=0)
        np.testing.assert_allclose(got, want)
        assert np.isfinite(got).all()

    def test_logsumexp_helper_on_non_finite_slices(self):
        inf, nan = np.inf, np.nan
        slices = [
            [-inf, -inf, -inf],  # all -inf: -inf, not NaN
            [0.5, nan, 1.0],  # NaN propagates
            [nan, inf, 0.0],  # NaN beside +inf is still NaN
            [inf, -inf, -inf],  # +inf wins over -inf
            [inf, inf, inf],  # all +inf
            [1.0, -inf, 2.0],  # finite cells ignore -inf
        ]
        want = [-inf, nan, nan, inf, inf, np.logaddexp(1.0, 2.0)]
        got = logsumexp(np.array(slices), axis=1)
        np.testing.assert_array_equal(got, want)
        # One slice along the leading axis, and a list input.
        np.testing.assert_array_equal(logsumexp(np.array(slices).T, axis=0), want)
        for row, w in zip(slices, want):
            out = logsumexp(row, axis=0)
            assert isinstance(out, np.ndarray) and out.shape == ()
            np.testing.assert_array_equal(out, w)


class TestIndexingAndShaping:
    def test_index_substitutes_positions(self):
        rng = np.random.default_rng(7)
        a = random_atom(rng, [("i", Bounded(3)), ("j", Bounded(4))])
        idx = index_tensor(TypeContext([("k", Bounded(2))]), np.array([2, 0]), 3)
        out = tensor_index(a, "i", idx)
        assert out.context.names == ("j", "k")
        for k, i in enumerate([2, 0]):
            np.testing.assert_allclose(out.data[1, k], a.data[i, 1])

    @pytest.mark.parametrize("bad", [-1.0, 3.0, 1.5, np.nan, np.inf, -np.inf])
    def test_index_values_outside_the_bound_raise(self, bad):
        with pytest.raises(IndexOutOfRange):
            index_tensor(TypeContext(), bad, 3)
        with pytest.raises(IndexOutOfRange):
            index_tensor(TypeContext([("k", Bounded(2))]), [0.0, bad], 3)

    def test_ground_index_accepts_every_position(self):
        for k in (0, 1.0, np.float64(2), np.array(2.0)):
            assert index_tensor(TypeContext(), k, 3).data == k

    def test_index_bound_mismatch(self):
        a = TensorAtom(TypeContext([("i", Bounded(3))]), np.zeros(3))
        idx = index_tensor(TypeContext(), np.array(5), 6)
        with pytest.raises(FunsorTypeError):
            tensor_index(a, "i", idx)

    def test_take_gathers_rows(self):
        rng = np.random.default_rng(8)
        table = TensorAtom(TypeContext(), rng.normal(size=(3, 2)), RealArray((3, 2)))
        idx = index_tensor(TypeContext([("n", Bounded(4))]), np.array([0, 2, 1, 0]), 3)
        out = tensor_take(table, idx)
        assert out.context.names == ("n",)
        np.testing.assert_allclose(out.data, table.data[[0, 2, 1, 0]])

    def test_index_over_the_substituted_name(self):
        a = TensorAtom(
            TypeContext([("x", Bounded(3)), ("y", Bounded(2))]),
            np.arange(6.0).reshape(3, 2),
        )
        idx = index_tensor(TypeContext([("x", Bounded(3))]), [2.0, 0.0, 1.0], 3)
        out = tensor_index(a, "x", idx)
        assert out.context.names == ("y", "x")
        np.testing.assert_array_equal(out.data, [[4, 0, 2], [5, 1, 3]])

    def test_take_with_an_index_sharing_a_table_name(self):
        rng = np.random.default_rng(30)
        table = TensorAtom(
            TypeContext([("i", Bounded(2))]), rng.normal(size=(2, 3, 2)), RealArray((3, 2))
        )
        rows = rng.integers(3, size=(2, 4))
        idx = index_tensor(TypeContext([("i", Bounded(2)), ("n", Bounded(4))]), rows, 3)
        out = tensor_take(table, idx)
        assert out.context.names == ("i", "n") and out.output == RealArray((2,))
        for i in range(2):
            np.testing.assert_array_equal(out.data[i], table.data[i][rows[i]])

    def test_slice_selects_stride(self):
        rng = np.random.default_rng(9)
        a = random_atom(rng, [("t", Bounded(10))])
        out = tensor_slice(a, "t", 1, 9, 3)
        assert out.context.typeof("t") == Bounded(3)
        np.testing.assert_allclose(out.data, a.data[1:9:3])

    def test_cat_concatenates_and_broadcasts(self):
        rng = np.random.default_rng(10)
        a = random_atom(rng, [("t", Bounded(2)), ("j", Bounded(3))])
        b = random_atom(rng, [("j", Bounded(3))])
        out = tensor_cat("t", [a, b])
        assert out.context.typeof("t") == Bounded(3)
        np.testing.assert_allclose(out.data[:2], a.data)
        np.testing.assert_allclose(out.data[2], b.data)

    def test_ground_index_is_a_view(self):
        rng = np.random.default_rng(29)
        a = TensorAtom(
            TypeContext([("i", Bounded(3)), ("j", Bounded(4))]),
            rng.normal(size=(3, 4, 2)),
            RealArray((2,)),
        )
        out = tensor_index(a, "j", index_tensor(TypeContext(), 2.0, 4))
        assert out.context.names == ("i",) and out.output == a.output
        assert np.shares_memory(out.data, a.data)
        one = index_tensor(TypeContext([("c", Bounded(1))]), [2.0], 4)
        gathered = tensor_index(a, "j", one)
        assert gathered.context.names == ("i", "c")
        np.testing.assert_array_equal(out.data, gathered.data[:, 0])


def broadcast_contract(op, atoms, rvars):
    """The union table of the operands, folded one variable at a time."""
    out = atoms[0]
    for a in atoms[1:]:
        out = tensor_apply(ADD, [out, a])
    for v in rvars:
        out = tensor_reduce(op, out, v)
    return out


def assert_same_table(got, want, rtol=1e-12):
    assert got.context == want.context
    _, (g, w) = align_atoms([got, want])
    np.testing.assert_allclose(g, w, rtol=rtol, atol=1e-12)


def assert_same_bits(got, want):
    """Equal raw bits, except that any NaN matches any NaN."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def reference_logsumexp(data, axis):
    """``logsumexp`` with out-of-place exp and log, as it stood before its
    temporaries were reused."""
    with np.errstate(all="ignore"):
        peak = np.max(data, axis=axis, keepdims=True)
        shift = np.where(np.isfinite(peak), peak, 0.0)
        out = np.log(np.sum(np.exp(data - shift), axis=axis, keepdims=True)) + shift
    return np.squeeze(out, axis)


def reference_logaddexp_core(layout, arrays):
    """The ``logaddexp`` branch of ``contract_arrays`` as it stood before its
    guards moved onto the peaks: full-size guard masks, out-of-place exp
    and log.  It shares the matmul contraction ``_contract_all``."""
    lays, kept_shape = layout
    arrays = [realign(x, lay) for x, lay in zip(arrays, lays)]
    nk = len(kept_shape)
    red = list(range(nk, arrays[0].ndim))
    with np.errstate(all="ignore"):
        scaled = []
        shift = 0.0
        special = False
        for arr in arrays:
            own = tuple(a for a in red if arr.shape[a] > 1)
            peak = np.max(arr, axis=own, keepdims=True) if own else arr
            finite = np.isfinite(peak)
            special = special | ~(finite | np.isneginf(peak))
            peak = np.where(finite, peak, 0.0)
            scaled.append(np.exp(arr - peak))
            shift = shift + peak
        total = _contract_all(scaled, red)
        out = (np.log(total) + shift).reshape(kept_shape)
        low = total < _SCALED_FLOOR
        if np.any(low):
            counts = _contract_all([np.isfinite(a).astype(np.float64) for a in arrays], red)
            special = special | (low & (counts > 0))
        suspect = np.broadcast_to(special, total.shape).reshape(kept_shape)
        if np.any(suspect):
            rows = [np.broadcast_to(a, kept_shape + a.shape[nk:])[suspect] for a in arrays]
            total = rows[0]
            for x in rows[1:]:
                total = total + x
            while total.ndim > 1:
                total = reference_logsumexp(total, 1)
            out[suspect] = total
    return out


def reference_max(layout, arrays):
    """``max`` over the reduced axes of the summed union table."""
    lays, kept_shape = layout
    arrays = [realign(x, lay) for x, lay in zip(arrays, lays)]
    with np.errstate(all="ignore"):
        union = arrays[0]
        for x in arrays[1:]:
            union = union + x
        return np.max(union, axis=tuple(range(len(kept_shape), union.ndim)))


# Operand variables and reduced variables: shared, own (in one operand
# only) and batched (kept in every operand) axes; "t" leads when present.
CONTRACT_SHAPES = [
    ([("t", "i", "j")], ["j"]),
    ([("i", "j")], ["i", "j"]),
    ([("t", "i", "j"), ("t", "j", "k")], ["j"]),
    ([("t", "i", "j"), ("t", "i")], ["j"]),
    ([("t", "i", "j", "l"), ("t", "k", "j")], ["j", "l"]),
    ([("j", "i"), ("k", "j")], ["i", "j", "k"]),
    ([("t", "i", "j"), ("t", "j", "k"), ("t", "k", "l")], ["j", "k"]),
    ([("i", "j"), ("j",), ("j", "k")], ["j"]),
]
SMALL = {"t": 3, "i": 3, "j": 5, "k": 4, "l": 2}
# Large enough that the matmul path runs on blocks of real size.
LARGE = {"t": 8, "i": 64, "j": 32, "k": 64, "l": 4}
SPECIALS = ["plain", "neg_inf_rows", "neg_inf_peak", "nan_inf", "underflow"]


def contract_case(seed, names_list, rvars, sizes, special):
    """Layout and read-only arrays of one seeded case.  Operands over ``t``
    are stride-2 views on that leading axis, as the doubling scan passes
    them."""
    rng = np.random.default_rng(seed)
    contexts, arrays = [], []
    for names in names_list:
        contexts.append(TypeContext([(n, Bounded(sizes[n])) for n in names]))
        shape = tuple(sizes[n] for n in names)
        if names[0] == "t":
            x = rng.normal(size=(2 * shape[0],) + shape[1:])[rng.integers(2)::2]
        else:
            x = rng.normal(size=shape)
        if special == "neg_inf_rows":
            # One slice along a random axis, kept or reduced.
            sel = [slice(None)] * x.ndim
            axis = rng.integers(x.ndim)
            sel[axis] = rng.integers(x.shape[axis])
            x[tuple(sel)] = -np.inf
        if special == "neg_inf_peak" and not arrays:
            # Every reduced cell of one kept cell: a -inf peak, and no NaN
            # or +inf peak anywhere.
            x[tuple(slice(None) if n in rvars else 0 for n in names)] = -np.inf
        if special == "nan_inf":
            for value in (np.nan, np.inf, np.inf, -np.inf):
                x[tuple(rng.integers(n) for n in x.shape)] = value
        if special == "underflow":
            # Terms a thousand nats apart: scaled sums fall below the floor.
            x[rng.random(x.shape) < 0.5] -= 1000.0
        x.setflags(write=False)
        arrays.append(x)
    return contract_layout(contexts, rvars)[1], arrays


CONTRACT_CASES = [
    pytest.param(100 * c + 10 * s + z, names, rvars, sizes, special,
                 id=f"{'small' if z == 0 else 'large'}-{c}-{special}")
    for z, sizes in enumerate((SMALL, LARGE))
    for c, (names, rvars) in enumerate(CONTRACT_SHAPES)
    for s, special in enumerate(SPECIALS)
]


class TestContract:
    @pytest.mark.parametrize("op", ["logaddexp", "max", "add"])
    def test_two_operands_shared_batch_and_own_kept_axes(self, op):
        rng = np.random.default_rng(20)
        a = random_atom(rng, [("b", Bounded(3)), ("i", Bounded(4)), ("j", Bounded(5))])
        b = random_atom(rng, [("j", Bounded(5)), ("b", Bounded(3)), ("k", Bounded(2))])
        got = tensor_contract(REDUCE_OPS[op], [a, b], ["j"])
        assert got.context.names == ("b", "i", "k")
        assert_same_table(got, broadcast_contract(REDUCE_OPS[op], [a, b], ["j"]))

    @pytest.mark.parametrize("op", ["logaddexp", "max"])
    def test_three_operands_several_reduced_variables(self, op):
        rng = np.random.default_rng(21)
        a = random_atom(rng, [("i", Bounded(3)), ("j", Bounded(4))])
        b = random_atom(rng, [("j", Bounded(4)), ("k", Bounded(5)), ("m", Bounded(2))])
        c = random_atom(rng, [("k", Bounded(5)), ("l", Bounded(3)), ("n", Bounded(6))])
        rvars = ["j", "k", "n"]
        got = tensor_contract(REDUCE_OPS[op], [a, b, c], rvars)
        assert_same_table(got, broadcast_contract(REDUCE_OPS[op], [a, b, c], rvars))

    def test_reducing_everything_gives_a_scalar(self):
        rng = np.random.default_rng(22)
        a = random_atom(rng, [("i", Bounded(3)), ("j", Bounded(4))])
        b = random_atom(rng, [("j", Bounded(4))])
        op = REDUCE_OPS["logaddexp"]
        got = tensor_contract(op, [a, b], ["i", "j"])
        assert not got.context
        want = np.logaddexp.reduce((a.data + b.data[None, :]).ravel())
        np.testing.assert_allclose(got.data, want, rtol=1e-13)

    def test_no_reduced_variable_is_the_plain_sum(self):
        rng = np.random.default_rng(23)
        a = random_atom(rng, [("i", Bounded(3))])
        b = random_atom(rng, [("j", Bounded(2))])
        got = tensor_contract(REDUCE_OPS["logaddexp"], [a, b], [])
        want = tensor_apply(ADD, [a, b])
        assert got.context.names == want.context.names
        assert np.array_equal(got.data, want.data)

    def test_all_neg_inf_rows_give_neg_inf(self):
        rng = np.random.default_rng(24)
        ad = rng.normal(size=(4, 5))
        ad[1] = -np.inf
        bd = rng.normal(size=(5, 3))
        bd[:, 2] = -np.inf
        ad[3, :2] = -np.inf
        bd[2:, 0] = -np.inf
        a = TensorAtom(TypeContext([("i", Bounded(4)), ("j", Bounded(5))]), ad)
        b = TensorAtom(TypeContext([("j", Bounded(5)), ("k", Bounded(3))]), bd)
        op = REDUCE_OPS["logaddexp"]
        got = tensor_contract(op, [a, b], ["j"])
        want = broadcast_contract(op, [a, b], ["j"])
        assert np.array_equal(np.isneginf(got.data), np.isneginf(want.data))
        assert np.isneginf(got.data[1]).all() and np.isneginf(got.data[:, 2]).all()
        # (3, 0): every term pairs a -inf in one operand with a finite value.
        assert np.isneginf(got.data[3, 0])
        assert_same_table(got, want)

    def test_nan_and_pos_inf_propagate_as_on_the_broadcast_path(self):
        rng = np.random.default_rng(25)
        ad = rng.normal(size=(4, 5))
        bd = rng.normal(size=(5, 4))
        ad[0, 1] = np.nan
        ad[1, 2] = np.inf
        ad[2, 3] = np.inf
        bd[3, :] = -np.inf  # +inf meets -inf: NaN on the broadcast path
        bd[0, 3] = np.inf
        a = TensorAtom(TypeContext([("i", Bounded(4)), ("j", Bounded(5))]), ad)
        b = TensorAtom(TypeContext([("j", Bounded(5)), ("k", Bounded(4))]), bd)
        op = REDUCE_OPS["logaddexp"]
        got = tensor_contract(op, [a, b], ["j"])
        want = broadcast_contract(op, [a, b], ["j"])
        assert np.isnan(got.data[0]).all() and np.isnan(got.data[2]).all()
        assert np.isposinf(got.data[1]).all()
        assert np.isposinf(got.data[3, 3])
        assert_same_table(got, want)

    def test_thousand_nat_range_does_not_underflow(self):
        # Every term is exp(-1000) after shifting each operand by its own
        # max, which underflows to 0; the answer is log(2) - 1000.
        j = TypeContext([("j", Bounded(2))])
        a = TensorAtom(j, np.array([0.0, -1000.0]))
        b = TensorAtom(j, np.array([-1000.0, 0.0]))
        op = REDUCE_OPS["logaddexp"]
        got = tensor_contract(op, [a, b], ["j"])
        np.testing.assert_allclose(got.data, np.log(2.0) - 1000.0, rtol=1e-15)
        assert_same_table(got, broadcast_contract(op, [a, b], ["j"]))

    def test_underflow_cells_recomputed_within_a_batch(self):
        rng = np.random.default_rng(26)
        ad = rng.normal(size=(3, 4, 6))
        bd = rng.normal(size=(3, 6, 5))
        ad[1, 2, :3] -= 1000.0
        bd[1, 3:, :] -= 1000.0
        ad[2] -= 800.0 * np.arange(6)
        bd[2] += 800.0 * np.arange(6)[:, None] - 4000.0
        a = TensorAtom(TypeContext([("t", Bounded(3)), ("i", Bounded(4)), ("j", Bounded(6))]), ad)
        b = TensorAtom(TypeContext([("t", Bounded(3)), ("j", Bounded(6)), ("k", Bounded(5))]), bd)
        op = REDUCE_OPS["logaddexp"]
        got = tensor_contract(op, [a, b], ["j"])
        assert np.isfinite(got.data).all()
        assert_same_table(got, broadcast_contract(op, [a, b], ["j"]))

    def test_rejects_non_scalar_and_absent_names(self):
        vec = TensorAtom(TypeContext(), np.zeros(3), RealArray((3,)))
        with pytest.raises(FunsorTypeError):
            tensor_contract(REDUCE_OPS["logaddexp"], [vec], [])
        a = TensorAtom(TypeContext([("i", Bounded(2))]), np.zeros(2))
        with pytest.raises(NameAbsent):
            tensor_contract(REDUCE_OPS["logaddexp"], [a], ["j"])

    @pytest.mark.parametrize("seed,names,rvars,sizes,special", CONTRACT_CASES)
    def test_logaddexp_core_matches_reference_bit_for_bit(
        self, seed, names, rvars, sizes, special, monkeypatch
    ):
        layout, arrays = contract_case(seed, names, rvars, sizes, special)
        want = reference_logaddexp_core(layout, arrays)
        recomputed = []
        fold_sum = tensor._fold_sum

        def spy(op, rows, lead):
            recomputed.append(lead)
            return fold_sum(op, rows, lead)

        monkeypatch.setattr(tensor, "_fold_sum", spy)
        assert_same_bits(contract_arrays(REDUCE_OPS["logaddexp"], layout, arrays), want)
        if special in ("plain", "neg_inf_rows", "neg_inf_peak"):
            # -inf peaks record a mask with no cell in it: nothing is
            # recomputed on the broadcast path.
            assert recomputed == []
        for x in arrays:
            for axis in range(x.ndim):
                assert_same_bits(logsumexp(x, axis), reference_logsumexp(x, axis))

    @pytest.mark.parametrize("seed,names,rvars,sizes,special", CONTRACT_CASES)
    def test_max_core_matches_the_union_table_bit_for_bit(
        self, seed, names, rvars, sizes, special
    ):
        layout, arrays = contract_case(seed, names, rvars, sizes, special)
        got = contract_arrays(REDUCE_OPS["max"], layout, arrays)
        assert_same_bits(got, reference_max(layout, arrays))

    def test_a_level_peaks_at_three_operand_sizes(self):
        # One (32, 64, 64) doubling level: the union table is 64 times the
        # size of either operand or of the result.
        t, k = Bounded(32), Bounded(64)
        contexts = [
            TypeContext([("t", t), ("i", k), ("j", k)]),
            TypeContext([("t", t), ("j", k), ("k", k)]),
        ]
        kept, layout = contract_layout(contexts, ["j"])
        rng = np.random.default_rng(30)
        arrays = [rng.normal(size=(32, 64, 64)) for _ in contexts]
        size = arrays[0].nbytes

        tracemalloc.start()
        try:
            contract_arrays(REDUCE_OPS["logaddexp"], layout, arrays)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept.names == ("t", "i", "k")
        assert peak <= 3.5 * size

    @pytest.mark.parametrize("op", ["logaddexp", "max", "add"])
    @pytest.mark.parametrize("sizes", [SMALL, LARGE], ids=["small", "large"])
    def test_writeable_inputs_are_left_unchanged(self, op, sizes):
        for c, (names, rvars) in enumerate(CONTRACT_SHAPES):
            for s, special in enumerate(SPECIALS):
                layout, arrays = contract_case(100 * c + s, names, rvars, sizes, special)
                arrays = [x.copy() for x in arrays]
                before = [x.copy() for x in arrays]
                contract_arrays(REDUCE_OPS[op], layout, arrays)
                for x, b in zip(arrays, before):
                    assert x.flags.writeable
                    assert_same_bits(x, b)


class TestRename:
    def test_arange_index_over_fresh_name_is_a_view(self):
        rng = np.random.default_rng(27)
        a = random_atom(rng, [("i", Bounded(3)), ("j", Bounded(4))])
        idx = index_tensor(TypeContext([("x", Bounded(3))]), np.arange(3.0), 3)
        out = tensor_index(a, "i", idx)
        assert out.context.names == ("j", "x")
        assert np.shares_memory(out.data, a.data)
        np.testing.assert_array_equal(out.data, a.data.T)

    def test_diagonal_and_permutation_keep_the_gather(self):
        rng = np.random.default_rng(28)
        a = random_atom(rng, [("i", Bounded(3)), ("j", Bounded(3))])
        diag = tensor_index(
            a, "i", index_tensor(TypeContext([("j", Bounded(3))]), np.arange(3.0), 3)
        )
        assert diag.context.names == ("j",)
        np.testing.assert_array_equal(diag.data, np.diag(a.data))
        perm = tensor_index(
            a, "i", index_tensor(TypeContext([("x", Bounded(3))]), np.array([2.0, 0, 1]), 3)
        )
        assert not np.shares_memory(perm.data, a.data)
        np.testing.assert_array_equal(perm.data, a.data[[2, 0, 1]].T)
