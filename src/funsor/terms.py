"""The typed term language.

Terms are immutable trees over atomic factors (tensors, Gaussians, point
masses), variables, lifted pointwise operations, substitution, reduction
with a monoid tag, Markov products, and the symbolic index families
``Slice`` and ``Cat``.  Every term carries a typing judgement: a context
of free variables and an output type, computed eagerly at construction
from the children's cached judgements.

A term class declares its fields once, in ``_args``: the constructor's
arguments in constructor order.  Equality, hashing, the rebuild in
``reinterpret`` (through ``map_terms``) and ``infer_type`` are generic
over them.  ``infer_type`` re-derives the judgement from scratch: it
revalidates leaf data against declared types and rebuilds every node
through its constructor.
"""
from __future__ import annotations

import itertools
import threading
from typing import Dict, Sequence, Tuple

import numpy as np

from .delta import DeltaAtom, point_context
from .domains import Bounded, FunsorType, RealArray, TypeContext
from .errors import BoundsError, FunsorTypeError, InvalidMatching, TypeConflict
from .gaussian import GaussianAtom
from .ops import LOGADDEXP_REDUCE, LiftedOp, ReduceOp
from .tensor import TensorAtom

_FRESH = itertools.count()
_FRESH_LOCK = threading.Lock()


def fresh_name(base: str) -> str:
    """A name distinct from prior fresh names and from any name without ``#``."""
    stem = base.split("#", 1)[0] or "v"
    with _FRESH_LOCK:
        n = next(_FRESH)
    return f"{stem}#{n}"


class Term:
    """Base class; subclasses set ``_ctx`` and ``_out`` in ``__init__``."""

    __slots__ = ("_ctx", "_out", "_hash")

    @property
    def free_vars(self) -> TypeContext:
        return self._ctx

    @property
    def output(self) -> FunsorType:
        return self._out

    def is_scalar_real(self) -> bool:
        return isinstance(self._out, RealArray) and not self._out.shape

    def _args(self) -> tuple:
        """The constructor's arguments, in constructor order.

        ``type(t)(*t._args())`` rebuilds ``t``; equality, hashing, the
        generic rebuild in ``reinterpret`` and ``infer_type`` all read the
        fields through here, so a field is declared once.
        """
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(self) is not type(other):
            return NotImplemented
        return self._args() == other._args()

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((type(self).__name__, self._args())))
        return self._hash

    def __repr__(self) -> str:
        return pretty(self)


def _set(term: Term, ctx: TypeContext, out: FunsorType):
    object.__setattr__(term, "_ctx", ctx)
    object.__setattr__(term, "_out", out)
    object.__setattr__(term, "_hash", None)


class TensorLeaf(Term):
    __slots__ = ("atom",)

    def __init__(self, atom: TensorAtom):
        if not isinstance(atom, TensorAtom):
            raise FunsorTypeError(f"expected a TensorAtom, got {atom!r}", atom)
        object.__setattr__(self, "atom", atom)
        _set(self, atom.context, atom.output)

    def _args(self):
        return (self.atom,)


class GaussianLeaf(Term):
    __slots__ = ("atom",)

    def __init__(self, atom: GaussianAtom):
        if not isinstance(atom, GaussianAtom):
            raise FunsorTypeError(f"expected a GaussianAtom, got {atom!r}", atom)
        object.__setattr__(self, "atom", atom)
        _set(self, atom.context, RealArray(()))

    def _args(self):
        return (self.atom,)


class DeltaLeaf(Term):
    __slots__ = ("atom",)

    def __init__(self, atom: DeltaAtom):
        if not isinstance(atom, DeltaAtom):
            raise FunsorTypeError(f"expected a DeltaAtom, got {atom!r}", atom)
        object.__setattr__(self, "atom", atom)
        _set(self, point_context(atom), RealArray(()))

    def _args(self):
        return (self.atom,)


class Variable(Term):
    __slots__ = ("name", "tp")

    def __init__(self, name: str, tp: FunsorType):
        if not isinstance(name, str) or not name:
            raise FunsorTypeError(f"variable names are nonempty strings, got {name!r}")
        if not isinstance(tp, (Bounded, RealArray)):
            raise FunsorTypeError(f"not a type: {tp!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "tp", tp)
        _set(self, TypeContext([(name, tp)]), tp)

    def _args(self):
        return (self.name, self.tp)


class Apply(Term):
    __slots__ = ("op", "args")

    def __init__(self, op: LiftedOp, args: Sequence[Term]):
        args = tuple(args)
        if not isinstance(op, LiftedOp):
            raise FunsorTypeError(f"not a lifted operation: {op!r}")
        for a in args:
            if not isinstance(a, Term):
                raise FunsorTypeError(f"not a term: {a!r}", a)
        out = op.result_type(*(a.output for a in args))
        ctx = TypeContext()
        try:
            for a in args:
                ctx = ctx.union(a.free_vars)
        except TypeConflict as e:
            raise FunsorTypeError(str(e), self) from e
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)
        _set(self, ctx, out)

    def _args(self):
        return (self.op, self.args)


class Subst(Term):
    """Simultaneous substitution, stored unevaluated.

    Bindings are canonicalized by name; values refer to the outer scope.
    """

    __slots__ = ("base", "bindings")

    def __init__(self, base: Term, bindings):
        if isinstance(bindings, dict):
            bindings = tuple(sorted(bindings.items()))
        else:
            bindings = tuple(sorted(bindings))
        names = [n for n, _ in bindings]
        if len(set(names)) != len(names):
            raise FunsorTypeError(f"duplicate substitution names in {names}")
        if not bindings:
            raise FunsorTypeError("substitution needs at least one binding")
        base_ctx = base.free_vars
        ctx = base_ctx
        for name, value in bindings:
            if not isinstance(value, Term):
                raise FunsorTypeError(f"not a term: {value!r}", value)
            if name in base_ctx:
                declared = base_ctx.typeof(name)
                if value.output != declared:
                    raise FunsorTypeError(
                        f"substituting {name!r}:{declared.pretty()} with a value"
                        f" of type {value.output.pretty()}",
                        value,
                    )
                ctx = ctx.remove(name)
        try:
            for name, value in bindings:
                if name in base_ctx:
                    ctx = ctx.union(value.free_vars)
        except TypeConflict as e:
            raise FunsorTypeError(str(e), self) from e
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "bindings", bindings)
        _set(self, ctx, base.output)

    def binding_map(self) -> Dict[str, Term]:
        return dict(self.bindings)

    def _args(self):
        return (self.base, self.bindings)


class Reduce(Term):
    __slots__ = ("op", "var", "body")

    def __init__(self, op: ReduceOp, var: str, body: Term):
        if not isinstance(op, ReduceOp):
            raise FunsorTypeError(f"not a reduction monoid: {op!r}")
        ctx = body.free_vars
        if var not in ctx:
            raise FunsorTypeError(
                f"cannot reduce over {var!r}: not free in {ctx.pretty()}", body
            )
        tp = ctx.typeof(var)
        if isinstance(tp, RealArray) and not op.allows_real():
            raise FunsorTypeError(
                f"monoid {op.name} folds bounded variables only; {var!r} is real", body
            )
        if not isinstance(body.output, RealArray):
            raise FunsorTypeError("reduction needs a real-valued body", body)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "body", body)
        _set(self, ctx.remove(var), body.output)

    def _args(self):
        return (self.op, self.var, self.body)


class MarkovProd(Term):
    """Product of a factor over a time axis, chaining matched variables.

    ``op`` eliminates each interior match, naming the semiring as ``Reduce``
    does: ``logaddexp`` for marginals, ``max`` for best-path scores.  The
    value is over the first and the last matched names, unless ``init``
    closes the chain: then ``op`` also reduces both ends out of
    ``init + chain``, and only unmatched names stay free.
    """

    __slots__ = ("timevar", "step", "body", "op", "init")

    def __init__(
        self, timevar: str, step, body: Term, op: ReduceOp = LOGADDEXP_REDUCE, init=None
    ):
        if not isinstance(op, ReduceOp) or op.name == "add":
            raise FunsorTypeError(f"not a chain elimination monoid: {op!r}")
        step = tuple(sorted(tuple(p) for p in step))
        ctx = body.free_vars
        if timevar not in ctx:
            raise FunsorTypeError(f"time variable {timevar!r} not free in body", body)
        ttp = ctx.typeof(timevar)
        if not isinstance(ttp, Bounded):
            raise FunsorTypeError(f"time variable {timevar!r} must be bounded", body)
        if not body.is_scalar_real():
            raise FunsorTypeError("Markov product bodies must be scalar-real", body)
        names = [n for pair in step for n in pair]
        if len(set(names)) != 2 * len(step):
            raise InvalidMatching(f"matched names must be distinct: {step}")
        if timevar in names:
            raise InvalidMatching(f"time variable {timevar!r} cannot be matched")
        for prev, curr in step:
            for n in (prev, curr):
                if n not in ctx:
                    raise InvalidMatching(f"matched name {n!r} not free in body")
            if ctx.typeof(prev) != ctx.typeof(curr):
                raise InvalidMatching(
                    f"pair ({prev!r}, {curr!r}) must share one type, got"
                    f" {ctx.typeof(prev).pretty()} and {ctx.typeof(curr).pretty()}"
                )
            if isinstance(ctx.typeof(prev), RealArray) and not op.allows_real():
                raise FunsorTypeError(
                    f"monoid {op.name} folds bounded variables only; {prev!r} is real", body
                )
        free = ctx.remove(timevar)
        if init is not None:
            banned = [timevar] + [c for _, c in step]
            if not init.is_scalar_real() or any(n in init.free_vars for n in banned):
                raise InvalidMatching(f"init must be scalar-real and free of {banned}")
            # A shared name keeps one type; both ends are reduced.
            free = free.union(init.free_vars)
            for n in names:
                free = free.remove(n)
        object.__setattr__(self, "timevar", timevar)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "init", init)
        _set(self, free, RealArray(()))

    def _args(self):
        return (self.timevar, self.step, self.body, self.op, self.init)


class Slice(Term):
    """The index family ``over -> start + stride * over`` into ``Z(bound)``.

    Equivalent to an index-valued tensor over ``(over : Z(count))`` holding
    ``range(start, stop, stride)``, kept symbolic so substitutions compose
    without copying.
    """

    __slots__ = ("over", "start", "stop", "stride", "bound")

    def __init__(self, over: str, start: int, stop: int, stride: int, bound: int):
        if stride < 1 or start < 0 or start >= stop or stop > bound:
            raise BoundsError(
                f"slice [{start}:{stop}:{stride}] does not fit Z{bound}"
            )
        count = len(range(start, stop, stride))
        object.__setattr__(self, "over", over)
        object.__setattr__(self, "start", int(start))
        object.__setattr__(self, "stop", int(stop))
        object.__setattr__(self, "stride", int(stride))
        object.__setattr__(self, "bound", int(bound))
        _set(self, TypeContext([(over, Bounded(count))]), Bounded(bound))

    @property
    def count(self) -> int:
        return len(range(self.start, self.stop, self.stride))

    def to_tensor(self) -> TensorAtom:
        data = np.arange(self.start, self.stop, self.stride, dtype=np.float64)
        return TensorAtom._unchecked(self.free_vars, data, Bounded(self.bound))

    def _args(self):
        return (self.over, self.start, self.stop, self.stride, self.bound)


class Cat(Term):
    """Concatenation of parts along the axis of one bounded variable.

    Parts lacking the variable contribute a single position.  All parts
    must share an output type; the result re-binds the variable to the
    total length.
    """

    __slots__ = ("over", "parts", "_counts")

    def __init__(self, over: str, parts: Sequence[Term]):
        parts = tuple(parts)
        if not parts:
            raise BoundsError("cat needs at least one part")
        out = parts[0].output
        for p in parts:
            if not isinstance(p, Term):
                raise FunsorTypeError(f"not a term: {p!r}", p)
            if p.output != out:
                raise FunsorTypeError("cat parts must share an output type", p)
        try:
            ctx, counts = TypeContext.concat(over, [p.free_vars for p in parts])
        except TypeConflict as e:
            raise FunsorTypeError(str(e), self) from e
        object.__setattr__(self, "over", over)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "_counts", counts)
        _set(self, ctx, out)

    def part_counts(self) -> Tuple[int, ...]:
        return self._counts

    def _args(self):
        return (self.over, self.parts)


def map_terms(args: tuple, f) -> tuple:
    """Apply ``f`` to every term among ``args``, descending into tuples.

    Terms are visited left to right; a tuple in which ``f`` changed no
    term comes back as the same object.
    """
    out = []
    changed = False
    for a in args:
        if isinstance(a, Term):
            b = f(a)
        elif isinstance(a, tuple):
            b = map_terms(a, f)
        else:
            b = a
        changed = changed or b is not a
        out.append(b)
    return tuple(out) if changed else args


def infer_type(term: Term) -> Tuple[TypeContext, FunsorType]:
    """Re-derive a term's typing judgement from its leaves.

    Unlike the judgement cached at construction, this revalidates leaf
    data shapes against their declared types, then rebuilds every node
    bottom-up through its constructor, so a corrupted leaf or field fails
    here with a ``TypeError``.
    """

    def retyped(t: Term) -> Term:
        args = map_terms(t._args(), retyped)
        for a in args:
            if isinstance(a, (TensorAtom, GaussianAtom, DeltaAtom)):
                a.check()
        return type(t)(*args)

    rebuilt = retyped(term)
    return rebuilt.free_vars, rebuilt.output


def _pretty_atom_data(atom: TensorAtom) -> str:
    if atom.data.size <= 8:
        return np.array2string(atom.data, separator=",", precision=6)
    return f"<{'x'.join(str(s) for s in atom.data.shape)}>"


def pretty(term: Term) -> str:
    """Deterministic single-line rendering of a term."""
    if isinstance(term, TensorLeaf):
        return f"Tensor({term.atom.context.pretty()}, {_pretty_atom_data(term.atom)})"
    if isinstance(term, GaussianLeaf):
        a = term.atom
        return f"Gaussian({a.batch.pretty()}|{a.reals.pretty()})"
    if isinstance(term, DeltaLeaf):
        a = term.atom
        return f"Delta({a.name}, Tensor({a.point.context.pretty()}, {_pretty_atom_data(a.point)}))"
    if isinstance(term, Variable):
        return term.name
    if isinstance(term, Apply):
        inner = ", ".join(pretty(a) for a in term.args)
        return f"{term.op.name}({inner})"
    if isinstance(term, Subst):
        inner = ", ".join(f"{n} := {pretty(v)}" for n, v in term.bindings)
        return f"{pretty(term.base)}[{inner}]"
    if isinstance(term, Reduce):
        head = {"logaddexp": "sum", "add": "prod", "max": "max"}[term.op.name]
        return f"{head}_{term.var}({pretty(term.body)})"
    if isinstance(term, MarkovProd):
        pairs = ",".join(f"({p},{c})" for p, c in term.step)
        if term.op != LOGADDEXP_REDUCE:
            pairs += f";{term.op.name}"
        init = "" if term.init is None else f"; init {pretty(term.init)}"
        return f"markovprod_{term.timevar}[{pairs}]({pretty(term.body)}{init})"
    if isinstance(term, Slice):
        return (
            f"slice_{term.over}[{term.start}:{term.stop}:{term.stride}]"
            f"@Z{term.bound}"
        )
    if isinstance(term, Cat):
        inner = ", ".join(pretty(p) for p in term.parts)
        return f"cat_{term.over}({inner})"
    return repr(term)
