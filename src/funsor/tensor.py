"""Dense arrays over contexts of bounded integer variables.

A ``TensorAtom`` stores one float64 cell per assignment of its context,
in row-major order with the context's axes first and the output type's
axes trailing.  ``-inf`` is a legal log weight; NaN propagates through
every operation.  Atoms whose output type is ``Bounded(n)`` hold integer
values ``0 .. n-1`` (stored as floats) and serve as substitution targets
for integer variables.

Every layout of batch axes over a wider context (permuting them into
another context's order, inserting singleton axes for names an atom
lacks) goes through one helper, ``align_array``: ``align_layout`` reads
the contexts, ``realign`` applies the result to an array.  The pointwise,
reduction and contraction kernels are split the same way
(``pointwise_layout`` and ``pointwise``; ``fold_axis``;
``contract_layout`` and ``contract_arrays``), so a caller that knows the
layouts in advance can replay the array arithmetic without building atoms.
The log-space cores work in place and guard special values on the peaks.
Model data is checked where it enters (see ``models``): the checked
constructor serves builders, ``index_tensor`` and user leaves, and every
atom derived from checked atoms is built through ``_unchecked``.
"""
from __future__ import annotations

import functools
import math
from typing import Sequence, Tuple

import numpy as np

from .domains import Bounded, FunsorType, RealArray, TypeContext
from .errors import (
    BoundsError,
    ContextMismatch,
    FunsorTypeError,
    IndexOutOfRange,
    NameAbsent,
)
from .ops import LiftedOp, ReduceOp, TAKE


def logsumexp(data: np.ndarray, axis: int) -> np.ndarray:
    """Log-sum-exp along one axis with the max-shift trick.

    All-(-inf) slices give -inf rather than NaN (the shift is zero where
    the max is not finite, and ``log(0)`` is ``-inf``); NaN inputs give NaN
    (``np.max`` propagates NaN, even beside ``+inf``).
    """
    data = np.asarray(data, dtype=np.float64)
    with np.errstate(all="ignore"):
        peak = np.max(data, axis=axis, keepdims=True)
        if not np.isfinite(peak).all():
            peak = np.where(np.isfinite(peak), peak, 0.0)
        out = np.subtract(data, peak)
        out = np.sum(np.exp(out, out=out), axis=axis, keepdims=True)
        np.add(np.log(out, out=out), peak, out=out)
    return np.squeeze(out, axis)


def _expected_shape(context: TypeContext, output: FunsorType) -> Tuple[int, ...]:
    bounds = tuple(tp.size for _, tp in context.entries)
    if isinstance(output, RealArray):
        return bounds + output.shape
    return bounds


class TensorAtom:
    """A dense table of float64 cells over a discrete context."""

    __slots__ = ("context", "data", "output", "_hash")

    def __init__(self, context: TypeContext, data, output: FunsorType = RealArray(())):
        if not isinstance(context, TypeContext):
            context = TypeContext(context)
        for name, tp in context.entries:
            if not isinstance(tp, Bounded):
                raise ContextMismatch(
                    f"tensor contexts hold bounded integers only; {name} is {tp.pretty()}"
                )
        arr = np.asarray(data, dtype=np.float64)
        expect = _expected_shape(context, output)
        if arr.shape != expect:
            raise FunsorTypeError(
                f"data shape {arr.shape} does not match context {context.pretty()}"
                f" with output {output.pretty()} (expected {expect})"
            )
        # A view keeps slicing zero-copy and leaves the caller's flags alone.
        arr = arr.view()
        if isinstance(output, Bounded):
            if arr.ndim == 0:
                # One ground index is checked in plain Python; NaN and the
                # infinities fail the range test.
                v = float(arr)
                ok = 0.0 <= v < output.size and v.is_integer()
            else:
                finite = np.isfinite(arr)
                ok = np.all(
                    finite & (arr == np.floor(arr)) & (arr >= 0) & (arr < output.size)
                )
            if not ok:
                raise IndexOutOfRange(
                    f"index-valued tensor holds values outside Z{output.size}"
                )
        self._fill(context, arr, output)

    def _fill(self, context, arr, output):
        arr.setflags(write=False)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "output", output)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _unchecked(cls, context, data, output: FunsorType = RealArray(())):
        """A table the kernels computed from checked atoms, left unchecked.

        Skips the context, shape and index-range tests of ``__init__``;
        the data is still held as a read-only view.
        """
        self = object.__new__(cls)
        self._fill(context, np.asarray(data, dtype=np.float64).view(), output)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("TensorAtom is immutable")

    @property
    def out_shape(self) -> Tuple[int, ...]:
        return self.output.shape if isinstance(self.output, RealArray) else ()

    @property
    def out_rank(self) -> int:
        return len(self.out_shape)

    def is_scalar_output(self) -> bool:
        return isinstance(self.output, RealArray) and not self.output.shape

    def check(self) -> "TensorAtom":
        """Re-validate data shape against the declared types."""
        expect = _expected_shape(self.context, self.output)
        if self.data.shape != expect:
            raise FunsorTypeError(
                f"tensor data shape {self.data.shape} does not match declared"
                f" context {self.context.pretty()} and output {self.output.pretty()}"
            )
        return self

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, TensorAtom):
            return NotImplemented
        if self.output != other.output or self.context != other.context:
            return False
        _, (a, b) = align_atoms([self, other])
        return bool(np.array_equal(a, b, equal_nan=True))

    def __hash__(self) -> int:
        if self._hash is None:
            key = (self.output, frozenset(self.context.entries))
            object.__setattr__(self, "_hash", hash(key))
        return self._hash

    def __repr__(self) -> str:
        return f"TensorAtom{self.context.pretty()}:{self.output.pretty()}"


def scalar_tensor(value: float) -> TensorAtom:
    return TensorAtom._unchecked(TypeContext(), np.float64(value).reshape(()))


def zeros_tensor(context: TypeContext) -> TensorAtom:
    bounds = tuple(tp.size for _, tp in context.entries)
    return TensorAtom._unchecked(context, np.zeros(bounds))


def index_tensor(context: TypeContext, data, bound: int) -> TensorAtom:
    return TensorAtom(context, data, Bounded(bound))


def align_layout(ctx: TypeContext, union: TypeContext):
    """How ``align_array`` lays ``ctx``'s batch axes out over ``union``.

    None when the two layouts already agree; otherwise the permutation of
    the batch axes and the selector that inserts the missing singletons.
    """
    if ctx.entries == union.entries:
        return None
    names = ctx.names
    perm = tuple(names.index(n) for n, _ in union.entries if n in ctx)
    sel = tuple(slice(None) if n in ctx else np.newaxis for n, _ in union.entries)
    return perm, sel


def realign(arr: np.ndarray, layout) -> np.ndarray:
    """Apply an ``align_layout`` to ``arr``; trailing axes are kept."""
    if layout is None:
        return arr
    perm, sel = layout
    return arr.transpose(perm + tuple(range(len(perm), arr.ndim)))[sel]


def align_array(arr: np.ndarray, ctx: TypeContext, union: TypeContext) -> np.ndarray:
    """View of ``arr`` with its batch axes laid out over ``union``.

    The leading axes of ``arr`` are the batch axes named by ``ctx``; they
    are permuted into ``union`` order, with a singleton axis for each
    union name ``ctx`` lacks.  Trailing axes are kept as they are.  When
    the two layouts already agree, ``arr`` itself is returned.
    """
    return realign(arr, align_layout(ctx, union))


def pointwise_layout(contexts: Sequence[TypeContext], ranks: Sequence[int]):
    """The union of ``contexts`` and, per operand, how it is laid over it.

    An operand's layout is its ``align_layout`` and the singleton output
    axes that left-pad its output rank (``ranks``) to the largest one.
    """
    union = TypeContext()
    for c in contexts:
        union = union.union(c)
    n, top = len(union), max(ranks, default=0)
    lays = [
        (align_layout(c, union), tuple(range(n, n + top - r)))
        for c, r in zip(contexts, ranks)
    ]
    return union, lays


def _laid(arr: np.ndarray, lay) -> np.ndarray:
    align, pad = lay
    arr = realign(arr, align)
    return np.expand_dims(arr, pad) if pad else arr


def align_atoms(atoms: Sequence[TensorAtom]):
    """Broadcast-ready views of several atoms over their union context.

    Batch axes are matched by name in the union's canonical order; output
    axes stay trailing, left-padded with singleton dims to a common rank.
    """
    union, lays = pointwise_layout(
        [a.context for a in atoms], [a.out_rank for a in atoms]
    )
    return union, [_laid(a.data, lay) for a, lay in zip(atoms, lays)]


def _absent_name(*contexts: TypeContext) -> str:
    """A label in none of ``contexts``: longer than every name they hold."""
    return max((n for c in contexts for n in c.names), key=len, default="") + "'"


def tensor_apply(op: LiftedOp, atoms: Sequence[TensorAtom]) -> TensorAtom:
    """Lift a pointwise operation over the union of the atoms' contexts."""
    if op is TAKE or op.name == "take":
        return tensor_take(atoms[0], atoms[1])
    out_type = op.result_type(*(a.output for a in atoms))
    union, lays = pointwise_layout(
        [a.context for a in atoms], [a.out_rank for a in atoms]
    )
    target = _expected_shape(union, out_type)
    data = pointwise(op, lays, target, [a.data for a in atoms])
    return TensorAtom._unchecked(union, data, out_type)


def pointwise(op: LiftedOp, lays, target: Tuple[int, ...], arrays) -> np.ndarray:
    """The array core of ``tensor_apply``: operands laid out by
    ``pointwise_layout``, the op applied, the result broadcast to ``target``."""
    data = op.apply(*(_laid(x, lay) for x, lay in zip(arrays, lays)))
    return data if data.shape == target else np.broadcast_to(data, target)


def tensor_take(arr: TensorAtom, idx: TensorAtom) -> TensorAtom:
    """Gather along the leading output axis of ``arr`` at integer ``idx``."""
    out_type = TAKE.result_type(arr.output, idx.output)
    # The leading output axis is already the axis after the batch axes.
    label = _absent_name(arr.context, idx.context)
    table = TensorAtom._unchecked(
        arr.context.union(TypeContext([(label, idx.output)])), arr.data, out_type
    )
    return tensor_index(table, label, idx)


def tensor_reduce(op: ReduceOp, atom: TensorAtom, name: str) -> TensorAtom:
    """Fold one context variable with the given monoid."""
    if not isinstance(atom.output, RealArray):
        raise FunsorTypeError(f"cannot reduce an index-valued tensor over {name!r}")
    axis = atom.context.names.index(name) if name in atom.context else None
    if axis is None:
        raise NameAbsent(f"{name!r} not in context {atom.context.pretty()}")
    if op.name not in ("logaddexp", "add", "max"):
        raise FunsorTypeError(f"unknown reduction {op!r}")
    return TensorAtom._unchecked(
        atom.context.remove(name), fold_axis(op, atom.data, axis), atom.output
    )


def fold_axis(op: ReduceOp, data: np.ndarray, axis: int) -> np.ndarray:
    """The array core of ``tensor_reduce``: fold one axis with the monoid."""
    if op.name == "logaddexp":
        return logsumexp(data, axis)
    if op.name == "add":
        return np.sum(data, axis=axis)
    return np.max(data, axis=axis)


# Scaled sums below this may be built from subnormal products, whose
# absolute error (about 5e-324 each) is no longer negligible against them.
_SCALED_FLOOR = 2.0 ** -900


def _mul_sum(x: np.ndarray, y: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """``sum(x * y, axes, keepdims=True)`` for broadcastable arrays, as one matmul.

    Axes where both arrays are non-trivial and that are not summed become
    the matmul batch; summed axes present in only one array are summed out
    of it first.
    """
    own_x = tuple(a for a in axes if x.shape[a] > 1 and y.shape[a] == 1)
    own_y = tuple(a for a in axes if y.shape[a] > 1 and x.shape[a] == 1)
    if own_x:
        x = x.sum(axis=own_x, keepdims=True)
    if own_y:
        y = y.sum(axis=own_y, keepdims=True)
    nd = x.ndim
    both = [a for a in axes if x.shape[a] > 1 and y.shape[a] > 1]
    rest = [a for a in range(nd) if a not in axes]
    batch = [a for a in rest if x.shape[a] > 1 and y.shape[a] > 1]
    only_x = [a for a in rest if x.shape[a] > 1 and y.shape[a] == 1]
    only_y = [a for a in rest if y.shape[a] > 1 and x.shape[a] == 1]

    def sizes(arr, group):
        return [arr.shape[a] for a in group]

    def to_3d(arr, first, second):
        used = batch + first + second
        perm = used + [a for a in range(nd) if a not in used]
        return arr.transpose(perm).reshape(
            math.prod(sizes(arr, batch)),
            math.prod(sizes(arr, first)),
            math.prod(sizes(arr, second)),
        )

    prod = np.matmul(to_3d(x, only_x, both), to_3d(y, both, only_y))
    order = batch + only_x + only_y
    prod = prod.reshape(sizes(x, batch) + sizes(x, only_x) + sizes(y, only_y))
    prod = prod.transpose(np.argsort(order))
    out_shape = tuple(
        x.shape[a] if a in only_x or a in batch else y.shape[a] if a in only_y else 1
        for a in range(nd)
    )
    return prod.reshape(out_shape)


def _contract_all(arrays: Sequence[np.ndarray], red: Sequence[int]) -> np.ndarray:
    """Sum over ``red`` of the product of broadcastable arrays, left to right.

    Each reduced axis is summed at the first step after which no later
    operand mentions it; the result keeps every axis (reduced ones as 1).
    """
    acc = arrays[0]
    for k in range(1, len(arrays)):
        later = arrays[k + 1:]
        now = [a for a in red if all(b.shape[a] == 1 for b in later)]
        acc = _mul_sum(acc, arrays[k], now)
    if len(arrays) == 1 and red:
        acc = acc.sum(axis=tuple(red), keepdims=True)
    return acc


def contract_layout(contexts: Sequence[TypeContext], rvars: Sequence[str]):
    """The kept context of ``tensor_contract`` over ``contexts``, and its layout.

    Reads the contexts only.  The layout lays each operand's batch axes
    over the kept names followed by ``rvars`` (an ``align_layout`` per
    operand) and records the kept shape; ``contract_arrays`` runs on it.
    """
    union = TypeContext()
    for c in contexts:
        union = union.union(c)
    kept = order = union
    if rvars:
        kept = TypeContext(e for e in union.entries if e[0] not in rvars)
        order = TypeContext(kept.entries + tuple((v, union.typeof(v)) for v in rvars))
    shape = tuple(t.size for _, t in kept.entries)
    return kept, (tuple(align_layout(c, order) for c in contexts), shape)


def _fold_sum(op: ReduceOp, arrays: Sequence[np.ndarray], lead: int) -> np.ndarray:
    """The broadcast path: ``arrays`` summed left to right, then every axis
    after the first ``lead`` folded with ``op``, one at a time."""
    total = functools.reduce(np.add, arrays)
    while total.ndim > lead:
        total = fold_axis(op, total, lead)
    return total


def contract_arrays(op: ReduceOp, layout, arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The array core of ``tensor_contract``: ``arrays`` over a ``contract_layout``.

    ``max``, ``add`` and a contraction that reduces nothing run the
    broadcast path, ``_fold_sum``, which builds the union table.
    ``logaddexp`` shifts each operand by
    its max over its reduced axes (zero where that max is not finite),
    exponentiates and contracts by matrix products, then takes the log and
    adds the shifts in place: the scaled operands and their product are its
    only full-size temporaries.  Cells whose operands hold NaN or ``+inf``
    over the reduced axes (read off the peaks), and cells whose scaled sum
    fell to underflow range while some term is finite, are recomputed on
    the broadcast path.  The inputs are never written.
    """
    lays, kept_shape = layout
    arrays = [realign(x, lay) for x, lay in zip(arrays, lays)]
    nk = len(kept_shape)
    red = list(range(nk, arrays[0].ndim))
    with np.errstate(all="ignore"):
        if op.name != "logaddexp" or not red:
            return _fold_sum(op, arrays, nk)
        scaled, peaks, special = [], [], False
        for arr in arrays:
            own = tuple(a for a in red if arr.shape[a] > 1)
            peak = np.max(arr, axis=own, keepdims=True) if own else arr
            if not np.isfinite(peak).all():
                # NaN or +inf over the reduced axes (np.max lets both through).
                special = special | np.isnan(peak) | np.isposinf(peak)
                peak = np.where(np.isfinite(peak), peak, 0.0)
            scaled.append(np.subtract(arr, peak))
            np.exp(scaled[-1], out=scaled[-1])
            peaks.append(peak)
        total = _contract_all(scaled, red)
        del scaled
        low = total < _SCALED_FLOOR
        if np.any(low):
            counts = _contract_all([np.isfinite(a).astype(np.float64) for a in arrays], red)
            special = special | (low & (counts > 0))
        shift = functools.reduce(np.add, peaks, 0.0)
        out = np.add(np.log(total, out=total), shift, out=total).reshape(kept_shape)
        # A recorded mask may be all False: every non-finite peak is -inf.
        if np.any(special):
            suspect = np.broadcast_to(special, total.shape).reshape(kept_shape)
            # One row per suspect cell (one row when nothing is kept).
            rows = [np.broadcast_to(a, kept_shape + a.shape[nk:])[suspect] for a in arrays]
            out[suspect] = _fold_sum(op, rows, 1)
    return out


def tensor_contract(
    op: ReduceOp, atoms: Sequence[TensorAtom], rvars: Sequence[str]
) -> TensorAtom:
    """Fold ``rvars`` out of the pointwise sum of real scalar atoms.

    Equals reducing ``tensor_apply(ADD, atoms)`` one variable at a time;
    atoms are fused in the order given, and callers plan that order.
    """
    for a in atoms:
        if not a.is_scalar_output():
            raise FunsorTypeError(f"contraction needs real scalar tables, got {a!r}")
    kept, layout = contract_layout([a.context for a in atoms], rvars)
    return TensorAtom._unchecked(kept, contract_arrays(op, layout, [a.data for a in atoms]))


def _is_rename(atom: TensorAtom, idx: TensorAtom) -> bool:
    """Whether ``idx`` enumerates one variable absent from ``atom`` in order.

    A name already in the atom's context would make the substitution a
    diagonal, which needs the gather.
    """
    if len(idx.context) != 1:
        return False
    new, tp = idx.context.entries[0]
    return (
        new not in atom.context
        and tp.size == idx.output.size
        and bool(np.array_equal(idx.data, np.arange(tp.size)))
    )


def ground_cell(context: TypeContext, name: str, idx: TensorAtom) -> tuple:
    """The selector of one cell along ``name`` at a ground index: a view."""
    return (slice(None),) * context.names.index(name) + (int(idx.data),)


def tensor_index(atom: TensorAtom, name: str, idx: TensorAtom) -> TensorAtom:
    """Substitute integer values for one context variable.

    ``idx`` is an index-valued atom over its own (bounded) context; shared
    names between the two contexts are matched pointwise.
    """
    tp = atom.context.typeof(name)
    if not isinstance(idx.output, Bounded) or idx.output.size != tp.size:
        raise FunsorTypeError(
            f"substituting {name!r}:{tp.pretty()} needs Z{tp.size} values,"
            f" got {idx.output.pretty()}"
        )
    rest = atom.context.remove(name)
    union = rest.union(idx.context)
    if not idx.context:
        cell = ground_cell(atom.context, name, idx)
        return TensorAtom._unchecked(rest, atom.data[cell], atom.output)
    if _is_rename(atom, idx):
        # Relabel the axis and move it where the gather would put it (last
        # batch axis), sharing the data.
        data = np.moveaxis(atom.data, atom.context.names.index(name), len(rest))
        return TensorAtom._unchecked(union, data, atom.output)
    # Lay the atom out over the union with the substituted axis last, under
    # a label outside the union (the index may mention ``name`` itself).
    label = _absent_name(union)
    src = TypeContext([(label if n == name else n, t) for n, t in atom.context.entries])
    arr = align_array(atom.data, src, union.union(TypeContext([(label, tp)])))
    iarr = align_array(idx.data, idx.context, union).astype(np.int64)
    iarr = iarr.reshape(iarr.shape + (1,) * (1 + atom.out_rank))
    data = np.take_along_axis(arr, iarr, axis=len(union))
    return TensorAtom._unchecked(union, data.squeeze(len(union)), atom.output)


def tensor_slice(
    atom: TensorAtom, name: str, start: int, stop: int, stride: int
) -> TensorAtom:
    """Restrict one context axis to ``range(start, stop, stride)``.

    The variable keeps its name and is re-bounded to the number of
    selected positions.
    """
    tp = atom.context.typeof(name)
    if stride < 1 or start < 0 or stop > tp.size or start >= stop:
        raise BoundsError(
            f"slice [{start}:{stop}:{stride}] does not fit Z{tp.size} axis {name!r}"
        )
    count = len(range(start, stop, stride))
    axis = atom.context.names.index(name)
    sel = [slice(None)] * atom.data.ndim
    sel[axis] = slice(start, stop, stride)
    data = atom.data[tuple(sel)]
    entries = [
        (n, Bounded(count) if n == name else t) for n, t in atom.context.entries
    ]
    return TensorAtom._unchecked(TypeContext(entries), data, atom.output)


def tensor_cat(name: str, atoms: Sequence[TensorAtom]) -> TensorAtom:
    """Concatenate along the axis of ``name``.

    Parts lacking ``name`` contribute one position.  All parts must share
    an output type; the other context entries are broadcast to their union.
    """
    if not atoms:
        raise BoundsError("cat needs at least one part")
    out = atoms[0].output
    if any(a.output != out for a in atoms):
        raise FunsorTypeError("cat parts must share an output type")
    union, counts = TypeContext.concat(name, [a.context for a in atoms])
    axis = union.names.index(name)
    bounds = [t.size for _, t in union.entries]
    pieces = []
    for a, count in zip(atoms, counts):
        # A part lacking ``name`` gets a singleton axis from the alignment.
        bounds[axis] = count
        arr = align_array(a.data, a.context, union)
        pieces.append(np.broadcast_to(arr, tuple(bounds) + a.out_shape))
    return TensorAtom._unchecked(union, np.concatenate(pieces, axis=axis), out)

