"""Interpretations: swappable rule sets driving term evaluation.

An interpretation is an ordered list of rules.  Each rule names a head
constructor and a handler; handlers may decline by returning ``None``, in
which case later rules (and then the fallback chain) are tried.  The
first handler that fires wins.  Dispatch happens when terms are built
through the smart constructors here, so handlers that build their results
through the same constructors evaluate recursively under the current
interpretation.  Terms no rule claims are left as lazy syntax.

Whole-term rules see a node before ``reinterpret`` rebuilds its
children.  They belong to the interpretation that declares them: unlike
ordinary rules, they are not inherited through the fallback chain.
Only Optimize declares one.

The default interpretation is Exact, which evaluates products,
substitutions and reductions of the atomic factors in closed form and
leaves everything else lazy.  A sum of tables that no one of them spans
stays unfused, built eagerly or lazily alike, since fusing it would
build a table larger than any of them; a reduction contracts the ones
over its variable in one ``contract_pair`` step and keeps the others
apart.  Beside other factors they stay apart until a reduction fuses them.

One routine, ``substitute_atom``, applies bindings to a table, a
quadratic factor or a point mass: relabels, then index values and
slices, then real values as affine payloads.  Exact's three substitution
rules only choose the bindings it resolves; the chain scans and the
normal form, when a point mass pins another factor, call it directly.
An affine payload is read off the value's nodes by one structural walk
(``affine_decompose``), which runs the tensor kernels on constants and
coefficients and evaluates no term.

Lazy only pushes substitutions through non-atomic structure, and its
rule is the only code that pushes a substitution through ``Apply``,
``Subst``, ``Reduce``, ``MarkovProd`` and ``Cat``; every interpretation
falls back to it.  A bound variable that a substituted value would
capture is renamed inside the same simultaneous substitution, so the
rename is resolved by the current interpretation's rules like any other
binding.

A thread-local stack makes the choice dynamically scoped; a fuel counter
bounds rule applications per top-level evaluation (default 10000, or
the positive integer in the ``FUNSOR_FUEL`` environment variable).
"""
from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial, reduce
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .delta import DeltaAtom
from .domains import Bounded, RealArray, TypeContext
from .errors import (
    BoundsError,
    FuelExhausted,
    FunsorTypeError,
    InvalidMatching,
    NotAffine,
    StackUnderflow,
)
from .gaussian import (
    GaussianAtom,
    gaussian_affine_substitute,
    gaussian_cat,
    gaussian_fuse,
    gaussian_index_batch,
    gaussian_plated_product,
    gaussian_rename,
)
from .ops import ADD, LIFTED_OPS, MUL, NEG, REDUCE_OPS
from .tensor import (
    TensorAtom,
    align_atoms,
    index_tensor,
    scalar_tensor,
    tensor_apply,
    tensor_index,
    tensor_cat,
    tensor_reduce,
    tensor_slice,
    tensor_take,
    zeros_tensor,
)
from .terms import (
    Apply,
    Cat,
    DeltaLeaf,
    GaussianLeaf,
    MarkovProd,
    Reduce,
    Slice,
    Subst,
    TensorLeaf,
    Term,
    Variable,
    fresh_name,
    map_terms,
)

DEFAULT_FUEL = 10_000


def fuel_limit() -> int:
    raw = os.environ.get("FUNSOR_FUEL")
    if raw is None:
        return DEFAULT_FUEL
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise BoundsError(f"FUNSOR_FUEL must be a positive integer, got {raw!r}")
    return int(raw)


@dataclass
class Rule:
    """One rewrite: a head constructor plus a handler that may decline."""

    head: type
    handler: Callable[[Term], Optional[Term]]
    name: str = ""


@dataclass
class WholeRule:
    """A rule tried on unevaluated nodes before their children are rebuilt."""

    head: type
    handler: Callable[[Term, Callable[[Term], Term]], Optional[Term]]
    name: str = ""


class Interpretation:
    """An ordered rule list with an optional fallback chain.

    ``classify`` (``reduction_kind``'s signature; not inherited) declares
    how the interpretation reduces tables and quadratic factors, so steps
    over them run as ``PairPlan``s without dispatching a rule.  ``window``
    is how many states a closed chain's sequential scan keeps joint: 1,
    the exact filter, except under ``MomentMatching(window)``.
    """

    def __init__(
        self,
        name: str,
        rules: Sequence[Rule] = (),
        fallback: Optional["Interpretation"] = None,
        whole_rules: Sequence[WholeRule] = (),
        classify: Optional[Callable] = None,
    ):
        self.name = name
        self.rules = list(rules)
        self.fallback = fallback
        self.whole_rules = list(whole_rules)
        self.classify = classify
        self.window = 1

    def chain(self):
        interp = self
        while interp is not None:
            yield interp
            interp = interp.fallback

    def __repr__(self) -> str:
        return f"Interpretation({self.name})"


class _State(threading.local):
    def __init__(self):
        self.stack: List[Interpretation] = []
        self.fuel: Optional[int] = None
        self.budget = 0


_STATE = _State()


def current_interpretation() -> Interpretation:
    if _STATE.stack:
        return _STATE.stack[-1]
    return EXACT


def push_interpretation(interp: Interpretation):
    _STATE.stack.append(interp)


def pop_interpretation() -> Interpretation:
    if not _STATE.stack:
        raise StackUnderflow("no interpretation pushed")
    return _STATE.stack.pop()


@contextmanager
def interpretation(interp: Interpretation):
    push_interpretation(interp)
    try:
        yield interp
    finally:
        pop_interpretation()


def _burn_fuel():
    if _STATE.fuel is not None:
        _STATE.fuel -= 1
        if _STATE.fuel < 0:
            raise FuelExhausted(
                f"exceeded {_STATE.budget} rule applications in one evaluation"
            )


@contextmanager
def _fuel_scope():
    if _STATE.fuel is None:
        _STATE.fuel = _STATE.budget = fuel_limit()
        try:
            yield
        finally:
            _STATE.fuel = None
    else:
        yield


def dispatch(node: Term) -> Term:
    """Run the current interpretation's rules on one freshly built node."""
    with _fuel_scope():
        for interp in current_interpretation().chain():
            for rule in interp.rules:
                if isinstance(node, rule.head):
                    result = rule.handler(node)
                    if result is not None:
                        _burn_fuel()
                        return result
    return node


def reinterpret(term: Term) -> Term:
    """Rebuild a term bottom-up under the current interpretation."""
    memo: Dict[int, Term] = {}
    keep_alive: List[Term] = []

    def go(t: Term) -> Term:
        hit = memo.get(id(t))
        if hit is not None:
            return hit
        for rule in current_interpretation().whole_rules:
            if isinstance(t, rule.head):
                result = rule.handler(t, go)
                if result is not None:
                    _burn_fuel()
                    memo[id(t)] = result
                    keep_alive.append(t)
                    return result
        out = dispatch(_rebuild(t, go))
        memo[id(t)] = out
        keep_alive.append(t)
        return out

    with _fuel_scope():
        return go(term)


def _rebuild(t: Term, go) -> Term:
    args = t._args()
    new = map_terms(args, go)
    return t if new is args else type(t)(*new)


def interpret(interp: Interpretation, term: Term) -> Term:
    """Evaluate a term under an interpretation, restoring the prior one."""
    with interpretation(interp):
        return reinterpret(term)


# ---------------------------------------------------------------------------
# Smart constructors.


def to_term(x) -> Term:
    if isinstance(x, Term):
        return x
    if isinstance(x, TensorAtom):
        return dispatch(TensorLeaf(x))
    if isinstance(x, GaussianAtom):
        return dispatch(GaussianLeaf(x))
    if isinstance(x, DeltaAtom):
        return dispatch(DeltaLeaf(x))
    if isinstance(x, (int, float, np.floating, np.integer)):
        return dispatch(TensorLeaf(scalar_tensor(float(x))))
    raise FunsorTypeError(f"cannot convert {x!r} to a term", x)


def lift(op, *args) -> Term:
    if isinstance(op, str):
        op = LIFTED_OPS[op]
    return dispatch(Apply(op, [to_term(a) for a in args]))


def reduce_term(op, var: str, body) -> Term:
    if isinstance(op, str):
        op = REDUCE_OPS[op]
    return dispatch(Reduce(op, var, to_term(body)))


def subst_term(base, bindings: Dict[str, Term]) -> Term:
    base = to_term(base)
    coerced = {}
    for name, value in bindings.items():
        if name not in base.free_vars:
            continue
        tp = base.free_vars.typeof(name)
        if isinstance(value, Term):
            coerced[name] = value
        elif isinstance(value, TensorAtom):
            coerced[name] = to_term(value)
        elif isinstance(tp, Bounded) and isinstance(value, (int, np.integer)):
            coerced[name] = to_term(index_tensor(TypeContext(), np.float64(value), tp.size))
        elif isinstance(tp, RealArray):
            arr = np.asarray(value, dtype=np.float64).reshape(tp.shape)
            coerced[name] = to_term(TensorAtom(TypeContext(), arr, tp))
        else:
            raise FunsorTypeError(f"cannot bind {name!r} to {value!r}")
    if not coerced:
        return base
    node = Subst(base, coerced)
    if isinstance(base, Variable):
        # A bound variable is its value under every interpretation; no
        # rule needs to fire (or spend fuel) for it.
        return coerced[base.name]
    return dispatch(node)


def markov_term(timevar: str, step, body, op="logaddexp", init=None) -> Term:
    if isinstance(op, str):
        op = REDUCE_OPS[op]
    init = None if init is None else to_term(init)
    return dispatch(MarkovProd(timevar, step, to_term(body), op, init))


def cat_term(over: str, parts) -> Term:
    return dispatch(Cat(over, [to_term(p) for p in parts]))


def var(name: str, tp) -> Term:
    return dispatch(Variable(name, tp))


def _install_operators():
    def _add(self, other):
        return lift(ADD, self, other)

    def _radd(self, other):
        return lift(ADD, other, self)

    def _sub(self, other):
        return lift("sub", self, other)

    def _mul(self, other):
        return lift(MUL, self, other)

    def _rmul(self, other):
        return lift(MUL, other, self)

    def _neg(self):
        return lift("neg", self)

    def _reduce(self, op, v):
        return reduce_term(op, v, self)

    def _call(self, **bindings):
        return subst_term(self, bindings)

    Term.__add__ = _add
    Term.__radd__ = _radd
    Term.__sub__ = _sub
    Term.__mul__ = _mul
    Term.__rmul__ = _rmul
    Term.__neg__ = _neg
    Term.reduce = _reduce
    Term.__call__ = _call


_install_operators()


# ---------------------------------------------------------------------------
# Normal form.


def _chain_add(parts: Sequence[Term]) -> Term:
    """Raw left-nested ``ADD`` of the parts; no parts is the scalar 0."""
    if not parts:
        return TensorLeaf(scalar_tensor(0.0))
    out = parts[0]
    for p in parts[1:]:
        out = Apply(ADD, [out, p])
    return out


@dataclass
class NormalForm:
    """A flat product: point masses, one tensor, one Gaussian, lazy rest."""

    deltas: Tuple[DeltaAtom, ...] = ()
    tensor: Optional[TensorAtom] = None
    gaussian: Optional[GaussianAtom] = None
    lazy_rest: Tuple[Term, ...] = ()

    def to_term(self) -> Term:
        parts: List[Term] = [DeltaLeaf(d) for d in self.deltas]
        if self.tensor is not None:
            parts.append(TensorLeaf(self.tensor))
        if self.gaussian is not None:
            parts.append(GaussianLeaf(self.gaussian))
        parts.extend(self.lazy_rest)
        return _chain_add(parts)


def flatten_product(term: Term) -> List[Term]:
    """Flatten nested scalar log-space sums into a factor list."""
    if (
        isinstance(term, Apply)
        and term.op.name == "add"
        and term.is_scalar_real()
        and all(a.is_scalar_real() for a in term.args)
    ):
        out: List[Term] = []
        for a in term.args:
            out.extend(flatten_product(a))
        return out
    return [term]


def _fuse_tensor(acc: Optional[TensorAtom], atom: TensorAtom) -> TensorAtom:
    if acc is None:
        return atom
    return tensor_apply(ADD, [acc, atom])


def normal_form_from_parts(parts: Sequence[Term]) -> NormalForm:
    deltas: List[DeltaAtom] = []
    tensor: Optional[TensorAtom] = None
    gaussian: Optional[GaussianAtom] = None
    lazy: List[Term] = []

    def absorb(p: Term):
        nonlocal tensor, gaussian
        if isinstance(p, TensorLeaf) and p.is_scalar_real():
            tensor = _fuse_tensor(tensor, p.atom)
        elif isinstance(p, GaussianLeaf):
            gaussian = p.atom if gaussian is None else gaussian_fuse(gaussian, p.atom)
        elif isinstance(p, DeltaLeaf):
            deltas.append(p.atom)
        else:
            lazy.append(p)

    for p in parts:
        absorb(p)

    # Point masses trigger substitution of their point into every other
    # factor that mentions their variable.  A lazy factor is substituted
    # under the current interpretation and its parts are absorbed again.
    changed = True
    while changed:
        changed = False
        for k, d in enumerate(deltas):
            name, value = d.name, {d.name: TensorLeaf(d.point)}
            if tensor is not None and name in tensor.context:
                (leaf,) = substitute_atom(TensorLeaf(tensor), value)
                tensor = leaf.atom
                changed = True
            if gaussian is not None and name in gaussian.context:
                leaves, gaussian = substitute_atom(GaussianLeaf(gaussian), value), None
                for p in leaves:
                    absorb(p)
                changed = True
            for j, e in enumerate(deltas):
                if j != k and name in e.point.context:
                    (leaf,) = substitute_atom(DeltaLeaf(e), value)
                    deltas[j] = leaf.atom
                    changed = True
            hit = [t for t in lazy if name in t.free_vars]
            if hit:
                lazy[:] = [t for t in lazy if name not in t.free_vars]
                for t in hit:
                    for p in flatten_product(subst_term(t, value)):
                        absorb(p)
                changed = True
    return NormalForm(tuple(deltas), tensor, gaussian, tuple(lazy))


def normalize(term: Term) -> NormalForm:
    """Evaluate under Exact and flatten into the closed product form."""
    evaluated = interpret(EXACT, to_term(term))
    return normal_form_from_parts(flatten_product(evaluated))


# ---------------------------------------------------------------------------
# Substitution into atoms.


def _rename_tensor(atom: TensorAtom, renames: Dict[str, str]) -> TensorAtom:
    entries = [(renames.get(n, n), t) for n, t in atom.context.entries]
    return TensorAtom._unchecked(TypeContext(entries), atom.data, atom.output)


def _is_index_value(v: Term) -> bool:
    return (
        isinstance(v, TensorLeaf) and isinstance(v.atom.output, Bounded)
    ) or isinstance(v, Slice)


def _index_table(atom: TensorAtom, todo: Dict[str, Term]) -> TensorAtom:
    for n, v in todo.items():
        if not isinstance(v, Slice):
            atom = tensor_index(atom, n, v.atom)
        elif v.over != n and v.over in atom.context:
            # The slice runs along another axis of the atom: a diagonal.
            atom = tensor_index(atom, n, v.to_tensor())
        else:
            atom = tensor_slice(atom, n, v.start, v.stop, v.stride)
            if v.over != n:
                atom = _rename_tensor(atom, {n: v.over})
    return atom


def index_gaussian_batch(g: GaussianAtom, todo: Dict[str, Term]) -> GaussianAtom:
    """Bind batch variables of ``g`` to index values or slices.

    A ground index selects a view of one cell; other values go through
    ``_index_table`` on the parameters as tables.  Cells selected from a
    checked atom stay exactly symmetric, so every table and the result
    are built unchecked.
    """
    for n, v in todo.items():
        if not isinstance(v, Slice) and not v.atom.context:
            g = gaussian_index_batch(g, n, v.atom)
    todo = {n: v for n, v in todo.items() if n in g.batch}
    if not todo:
        return g
    info = _index_table(g.info_atom(), todo)
    prec = _index_table(g.precision_atom(), todo)
    return GaussianAtom._unchecked(info.context, g.reals, info.data, prec.data)


def _delta_indicator(point: TensorAtom, value: TensorAtom) -> TensorAtom:
    union, views = align_atoms([point, value])
    bounds = tuple(tp.size for _, tp in union.entries)
    pa = np.broadcast_to(views[0], bounds + point.out_shape)
    va = np.broadcast_to(views[1], bounds + point.out_shape)
    if point.out_shape:
        axes = tuple(range(len(bounds), len(bounds) + len(point.out_shape)))
        eq = np.all(pa == va, axis=axes)
    else:
        eq = pa == va
    data = np.where(eq, 0.0, -np.inf)
    return TensorAtom._unchecked(union, data)


def substitute_atom(leaf: Term, todo: Dict[str, object]) -> List[Term]:
    """Apply bindings to a table, a quadratic factor or a point mass.

    ``todo`` maps names to payloads: another name (a relabel); an index
    value or ``Slice`` for a bounded name; for a real of a quadratic
    factor, a value (a ``TensorLeaf``) or an ``affine_decompose`` payload
    ``(const, coeffs)``, a value being the payload with no coefficients;
    and for a point mass's own name, a value, which leaves the point
    mass's indicator.  Names the leaf does not mention are skipped.
    Relabels apply first, then index values, then reals in order, so an
    affine value may mention a relabel's target and add onto its block.
    Returns the leaves whose sum is the result.
    """
    relabels, values = {}, {}
    for n, p in todo.items():
        if n in leaf.free_vars:
            (relabels if isinstance(p, str) else values)[n] = p
    if isinstance(leaf, GaussianLeaf):
        g = gaussian_rename(leaf.atom, relabels) if relabels else leaf.atom
        g = index_gaussian_batch(g, {n: p for n, p in values.items() if n in g.batch})
        tensor = None
        for n, p in values.items():
            if not _is_index_value(p):
                const, coeffs = (p.atom, ()) if isinstance(p, TensorLeaf) else p
                const, g = gaussian_affine_substitute(g, n, const, coeffs)
                tensor = _fuse_tensor(tensor, const)
        leaves: List[Term] = [] if tensor is None else [TensorLeaf(tensor)]
        return leaves + ([] if g is None else [GaussianLeaf(g)])
    atom = leaf.atom if isinstance(leaf, TensorLeaf) else leaf.atom.point
    if relabels:
        atom = _rename_tensor(atom, relabels)
    if isinstance(leaf, TensorLeaf):
        return [TensorLeaf(_index_table(atom, values))]
    value = values.pop(leaf.atom.name, None)
    point = _index_table(atom, values)
    if value is not None:
        return [TensorLeaf(_delta_indicator(point, value.atom))]
    name = leaf.atom.name
    return [DeltaLeaf(DeltaAtom(relabels.get(name, name), point))]


# ---------------------------------------------------------------------------
# Affine decomposition by a structural walk.


def _affine_parts(t: Term):
    """``(value at zero, {real name: coefficient})`` of an affine term, a
    coefficient being a table whose output is the term's shape followed by
    the variable's size; None for a node the walk does not accept.  Both
    come from the kernels Exact runs, never from a difference of values."""
    if isinstance(t, TensorLeaf):
        return t.atom, {}
    if isinstance(t, Variable) and isinstance(t.tp, RealArray):
        shape, du = t.tp.shape, t.tp.num_elements
        eye = np.eye(du).reshape(shape + (du,))
        zero = TensorAtom._unchecked(TypeContext(), np.zeros(shape), t.tp)
        one = TensorAtom._unchecked(TypeContext(), eye, RealArray(eye.shape))
        return zero, {t.name: one}
    if not (isinstance(t, Apply) and t.op.name in ("add", "sub", "neg", "take", "mul")):
        return None
    parts = [_affine_parts(a) for a in t.args]
    if any(p is None for p in parts):
        return None
    const = tensor_apply(t.op, [c for c, _ in parts])
    name, coeffs = t.op.name, dict(parts[0][1])
    if name == "take":
        return const, {n: tensor_take(c, parts[1][0]) for n, c in coeffs.items()}
    if name == "mul":
        # One side is a real scalar table; it scales the other's coefficients.
        k = 0 if isinstance(t.args[0], TensorLeaf) else 1
        if not (isinstance(t.args[k], TensorLeaf) and t.args[k].is_scalar_real()):
            return None
        scaled = {}
        for n, c in parts[1 - k][1].items():
            union, (s, a) = align_atoms([parts[k][0], c])
            scaled[n] = TensorAtom._unchecked(union, MUL.apply(s, a), c.output)
        return const, scaled
    if name == "neg":
        return const, {n: tensor_apply(NEG, [c]) for n, c in coeffs.items()}
    for n, c in parts[1][1].items():
        if n in coeffs:
            coeffs[n] = tensor_apply(t.op, [coeffs[n], c])
        else:
            coeffs[n] = c if name == "add" else tensor_apply(NEG, [c])
    return const, coeffs


def affine_decompose(expr: Term):
    """Split an affine expression over its real variables.

    Returns ``(const, coeffs)``, ``const`` being the value at zero and
    ``coeffs`` listing ``(name, type, A)`` per real free variable in
    ``expr.free_vars.real_entries()`` order, ``A`` a ``(dim(expr),
    dim(name))`` matrix table over the bounded variables it varies along.
    Both are read off the nodes by one walk that evaluates no term: real
    variables, tables, ``add``, ``sub``, ``neg``, ``take`` at a constant
    index and ``mul`` by a real scalar table.  None for any other node.
    """
    parts = _affine_parts(expr) if isinstance(expr.output, RealArray) else None
    if parts is None:
        return None
    const, coeffs = parts
    dv, mats = expr.output.num_elements, []
    for n, tp in expr.free_vars.real_entries():
        c, mat = coeffs[n], RealArray((dv, tp.num_elements))
        data = c.data.reshape(c.data.shape[: len(c.context)] + mat.shape)
        mats.append((n, tp, TensorAtom._unchecked(c.context, data, mat)))
    return const, mats


def affine_substitute(g, name: str, expr):
    """Substitute an affine expression for one real variable of a factor.

    ``expr``'s constant and coefficient matrices are read off it by
    ``affine_decompose``; ``NotAffine`` when it declines.  Returns the
    constant tensor and the surviving Gaussian factor (None when no real
    variables remain).
    """
    dec = affine_decompose(to_term(expr))
    if dec is None:
        raise NotAffine("expression is not structurally affine")
    const, coeffs = dec
    return gaussian_affine_substitute(g, name, const, coeffs)


# ---------------------------------------------------------------------------
# Exact rules.


def _h_variable(node: Variable) -> Optional[Term]:
    if isinstance(node.tp, Bounded):
        n = node.tp.size
        ctx = TypeContext([(node.name, node.tp)])
        return TensorLeaf(TensorAtom._unchecked(ctx, np.arange(n), node.tp))
    return None


def _spread_tables(parts: Sequence[Term]) -> bool:
    """Whether the summands are real scalar tables that no one of them
    spans, so that fusing them would build a larger table than any."""
    if not all(isinstance(p, TensorLeaf) and p.is_scalar_real() for p in parts):
        return False
    names = [set(p.atom.context.names) for p in parts]
    return set().union(*names) not in names


def _h_apply_tensors(node: Apply) -> Optional[Term]:
    if node.op.name == "add" and _spread_tables(node.args):
        return None
    if all(isinstance(a, TensorLeaf) for a in node.args):
        return TensorLeaf(tensor_apply(node.op, [a.atom for a in node.args]))
    return None


def _h_product_normalize(node: Apply) -> Optional[Term]:
    parts = flatten_product(node)
    tables = [p for p in parts if isinstance(p, TensorLeaf) and p.is_scalar_real()]
    if len(parts) < 2 or (len(tables) > 1 and _spread_tables(tables)):
        return None
    candidate = normal_form_from_parts(parts).to_term()
    if candidate == node:
        return None
    return candidate


def _substitute_leaf(node: Subst, todo: Dict[str, object]) -> Term:
    """The substitution rules' shared tail.

    ``todo`` maps the names the rule resolves to ``substitute_atom``
    payloads; the leaf's other bindings are handed back to ``subst_term``,
    so a value mentioning any bound name would be captured by that later
    step.  In that case every bound name of the leaf is renamed fresh
    first.
    """
    leaf = node.base
    bindings = {n: v for n, v in node.bindings if n in leaf.free_vars}
    value_names = set()
    for v in bindings.values():
        value_names.update(v.free_vars.names)
    if not value_names.isdisjoint(bindings):
        renames = {n: fresh_name(n) for n in bindings}
        (leaf,) = substitute_atom(leaf, renames)
        todo = {renames[n]: p for n, p in todo.items()}
        bindings = {renames[n]: v for n, v in bindings.items()}
    out = _chain_add(substitute_atom(leaf, todo))
    leftover = {n: v for n, v in bindings.items() if n not in todo}
    return subst_term(out, leftover) if leftover else out


def _h_subst_tensor(node: Subst) -> Optional[Term]:
    base = node.base
    if not isinstance(base, TensorLeaf):
        return None
    todo = {
        n: v for n, v in node.bindings if n in base.atom.context and _is_index_value(v)
    }
    return _substitute_leaf(node, todo) if todo else None


def _h_subst_gaussian(node: Subst) -> Optional[Term]:
    base = node.base
    if not isinstance(base, GaussianLeaf):
        return None
    g = base.atom
    # A real bound to a variable (of its own type, as ``Subst`` checked)
    # whose name is fresh to the atom and targeted by no other binding is a
    # relabel; anything else would merge or collide blocks.
    targets = [v.name for n, v in node.bindings if n in g.reals and isinstance(v, Variable)]
    todo: Dict[str, object] = {}
    for n, v in node.bindings:
        if n in g.batch and _is_index_value(v):
            todo[n] = v
        elif n in g.reals:
            if (
                isinstance(v, Variable)
                and v.name not in g.context
                and targets.count(v.name) == 1
            ):
                todo[n] = v.name
            else:
                dec = affine_decompose(v)
                if dec is not None:
                    todo[n] = dec
    return _substitute_leaf(node, todo) if todo else None


def _h_subst_delta(node: Subst) -> Optional[Term]:
    base = node.base
    if not isinstance(base, DeltaLeaf):
        return None
    d = base.atom
    todo = {
        n: v for n, v in node.bindings if n in d.point.context and _is_index_value(v)
    }
    name_value = node.binding_map().get(d.name)
    if isinstance(name_value, TensorLeaf):
        todo[d.name] = name_value
    return _substitute_leaf(node, todo) if todo else None


def _h_subst_slice(node: Subst) -> Optional[Term]:
    base = node.base
    if not isinstance(base, Slice):
        return None
    v = node.binding_map().get(base.over)
    if v is None:
        return None
    if isinstance(v, TensorLeaf) and isinstance(v.atom.output, Bounded):
        data = base.start + base.stride * v.atom.data
        return TensorLeaf(TensorAtom._unchecked(v.atom.context, data, base.output))
    if isinstance(v, Slice):
        new_start = base.start + base.stride * v.start
        new_stride = base.stride * v.stride
        new_stop = new_start + new_stride * (v.count - 1) + 1
        return Slice(v.over, new_start, new_stop, new_stride, base.bound)
    return None


def _h_subst_cat(node: Subst) -> Optional[Term]:
    base = node.base
    if not isinstance(base, Cat):
        return None
    bindings = node.binding_map()
    v = bindings.get(base.over)
    if not (
        isinstance(v, TensorLeaf)
        and isinstance(v.atom.output, Bounded)
        and not v.atom.context
    ):
        return None
    k = int(v.atom.data)
    inner = {n: w for n, w in bindings.items() if n != base.over}
    offset = 0
    for part, cnt in zip(base.parts, base.part_counts()):
        if k < offset + cnt:
            idx = TensorAtom._unchecked(TypeContext(), k - offset, Bounded(cnt))
            picked = subst_term(part, {base.over: TensorLeaf(idx)})
            return subst_term(picked, inner) if inner else picked
        offset += cnt
    return None


def _h_reduce_tensor(node: Reduce) -> Optional[Term]:
    if isinstance(node.body, TensorLeaf):
        return TensorLeaf(tensor_reduce(node.op, node.body.atom, node.var))
    return None


def _h_reduce_gaussian(node: Reduce) -> Optional[Term]:
    body = node.body
    if not isinstance(body, GaussianLeaf):
        return None
    g = body.atom
    if node.op.name == "logaddexp" and node.var in g.reals:
        nf = NormalForm(gaussian=g)
        return reduce_normal_form(node.op, nf, node.var, reduction_kind)
    if node.op.name == "add" and node.var in g.batch:
        return GaussianLeaf(gaussian_plated_product(g, node.var))
    return None


def _h_reduce_delta(node: Reduce) -> Optional[Term]:
    body = node.body
    if not isinstance(body, DeltaLeaf):
        return None
    if node.op.name == "logaddexp" and node.var == body.atom.name:
        return TensorLeaf(scalar_tensor(0.0))
    return None


def _h_reduce_product(node: Reduce) -> Optional[Term]:
    from .gaussian import gaussian_scale

    body = node.body
    parts = flatten_product(body)
    if len(parts) < 2:
        return None
    v = node.var
    if node.op.name == "add":
        n = body.free_vars.typeof(v).size
        out_parts: List[Term] = []
        for p in parts:
            if v in p.free_vars:
                out_parts.append(reduce_term(node.op, v, p))
            elif isinstance(p, TensorLeaf):
                out_parts.append(
                    TensorLeaf(tensor_apply(MUL, [scalar_tensor(float(n)), p.atom]))
                )
            elif isinstance(p, GaussianLeaf):
                out_parts.append(GaussianLeaf(gaussian_scale(p.atom, float(n))))
            elif isinstance(p, DeltaLeaf):
                return None
            else:
                out_parts.append(lift(MUL, float(n), p))
        return reduce(partial(lift, ADD), out_parts)
    if _spread_tables(parts):
        from .optimize import contract_pair

        # One step on the tables that mention ``v``; the others stay apart.
        over = [p for p in parts if v in p.free_vars]
        apart = [p for p in parts if v not in p.free_vars]
        return reduce(partial(lift, ADD), apart, contract_pair(node.op, over, [], [v]))

    nf = normal_form_from_parts(parts)
    named = [d for d in nf.deltas if d.name == v]
    if len(named) == 1:
        rest = NormalForm(
            tuple(d for d in nf.deltas if d is not named[0]),
            nf.tensor,
            nf.gaussian,
            nf.lazy_rest,
        )
        rest_term = rest.to_term()
        if v not in rest_term.free_vars:
            return rest_term
        return None
    if named:
        return None
    if any(v in d.point.context for d in nf.deltas):
        return None
    if any(v in t.free_vars for t in nf.lazy_rest):
        return None
    # Exact's kinds, whichever interpretation's rules declined first.
    return reduce_normal_form(node.op, nf, v, reduction_kind)


def reduce_normal_form(op, nf: NormalForm, v: str, classify) -> Optional[Term]:
    """Reduce ``v`` out of a normal form's table and quadratic factor by
    the one-step ``PairPlan`` ``classify`` gives, keeping the other factors
    (which must not mention ``v``); None where ``classify`` leaves it lazy.
    """
    from .optimize import factor_layout, pair_plan

    parts = [TensorLeaf(nf.tensor)] if nf.tensor is not None else []
    if nf.gaussian is not None:
        parts.append(GaussianLeaf(nf.gaussian))
    plan = pair_plan(op, [factor_layout(p) for p in parts], [v], classify)
    if plan.rest:
        return None
    deltas = [DeltaLeaf(d) for d in nf.deltas]
    return _chain_add(deltas + plan.run_leaves(parts) + list(nf.lazy_rest))


def reduction_kind(op, table: Optional[TypeContext], gaussian, v: str) -> Optional[str]:
    """How Exact reduces ``v`` out of a table over ``table`` plus a
    quadratic factor over ``gaussian = (batch, reals)`` (either may be None).

    ``"marginalize"``: a real variable is integrated out of the quadratic
    factor and its normalizer added onto the table.  ``"fold"``: a label
    only the table mentions is folded out of it.  None where Exact leaves
    the reduction lazy: a ``logaddexp`` over a label the quadratic factor
    is batched over (a mixture), or a ``max`` over a variable it mentions.
    """
    batch, reals = ((), ()) if gaussian is None else gaussian
    if op.name == "logaddexp":
        if v in reals:
            return "marginalize"
        if v in batch:
            return None
    elif op.name != "max" or v in batch or v in reals:
        return None
    if table is not None and v in table:
        return "fold"
    return None


def _h_markov(node: MarkovProd) -> Optional[Term]:
    from . import markov as _markov

    return _markov.evaluate_markov(node)


def _h_cat(node: Cat) -> Optional[Term]:
    from .gaussian import gaussian_expand_batch

    parts_nf: List[NormalForm] = []
    for p in node.parts:
        nf = normal_form_from_parts(flatten_product(p))
        if nf.deltas or nf.lazy_rest:
            return None
        parts_nf.append(nf)
    counts = node.part_counts()
    any_g = any(nf.gaussian is not None for nf in parts_nf)
    tensors: List[TensorAtom] = []
    gaussians: List[GaussianAtom] = []
    for nf, cnt in zip(parts_nf, counts):
        t = nf.tensor if nf.tensor is not None else scalar_tensor(0.0)
        pad = zeros_tensor(TypeContext([(node.over, Bounded(cnt))]))
        tensors.append(tensor_apply(ADD, [t, pad]))
        if any_g:
            g = nf.gaussian
            if g is None:
                return None
            if node.over not in g.batch and cnt > 1:
                g = gaussian_expand_batch(g, node.over, cnt)
            gaussians.append(g)
    parts: List[Term] = [TensorLeaf(tensor_cat(node.over, tensors))]
    if any_g:
        parts.append(GaussianLeaf(gaussian_cat(node.over, gaussians)))
    return _chain_add(parts)


# ---------------------------------------------------------------------------
# Lazy rules: push substitutions through structure, defer everything else.


def _rename_binder(binder: str, body: Term, bindings: Dict[str, Term]):
    """Step a bound name aside when a substituted value would capture it.

    The rename joins the same simultaneous substitution as the other
    bindings, so the current interpretation resolves it like any of them.
    Returns the binder's name and the bindings to push into ``body``.
    """
    if all(binder not in v.free_vars for v in bindings.values()):
        return binder, bindings
    fresh = fresh_name(binder)
    return fresh, {**bindings, binder: var(fresh, body.free_vars.typeof(binder))}


def _h_lazy_subst(node: Subst) -> Optional[Term]:
    base = node.base
    bindings = {n: v for n, v in node.bindings if n in base.free_vars}
    if len(bindings) < len(node.bindings):
        return subst_term(base, bindings) if bindings else base
    if isinstance(base, Variable):
        return bindings[base.name]
    if isinstance(base, Apply):
        return lift(base.op, *[subst_term(a, bindings) for a in base.args])
    if isinstance(base, Subst):
        inner = base.binding_map()
        composed = {n: subst_term(v, bindings) for n, v in inner.items()}
        for n, v in bindings.items():
            if n not in inner and n in base.base.free_vars:
                composed[n] = v
        return subst_term(base.base, composed)
    value_fvs = set()
    for v in bindings.values():
        value_fvs.update(v.free_vars.names)
    if isinstance(base, Reduce):
        rvar, inner = _rename_binder(base.var, base.body, bindings)
        return reduce_term(base.op, rvar, subst_term(base.body, inner))
    if isinstance(base, MarkovProd):
        matched = set()
        for prev, curr in base.step:
            matched.add(prev)
            matched.add(curr)
        hit = matched & set(bindings)
        if hit:
            raise InvalidMatching(
                f"cannot substitute matched names {sorted(hit)} under a"
                " chained product; rename them first"
            )
        if value_fvs & matched:
            raise InvalidMatching(
                "substitution value mentions a matched name of a chained product"
            )
        tv, inner = _rename_binder(base.timevar, base.body, bindings)
        init = None if base.init is None else subst_term(base.init, bindings)
        return markov_term(tv, base.step, subst_term(base.body, inner), base.op, init)
    if isinstance(base, Cat):
        if base.over in bindings or base.over in value_fvs:
            return None
        return cat_term(base.over, [subst_term(p, bindings) for p in base.parts])
    return None


LAZY = Interpretation(
    "lazy",
    rules=[Rule(Subst, _h_lazy_subst, "push-substitution")],
)

EXACT = Interpretation(
    "exact",
    rules=[
        Rule(Variable, _h_variable, "enumerate-bounded-variable"),
        Rule(Apply, _h_apply_tensors, "numeric-pointwise"),
        Rule(Apply, _h_product_normalize, "product-normal-form"),
        Rule(Subst, _h_subst_tensor, "index-into-tensor"),
        Rule(Subst, _h_subst_gaussian, "substitute-into-gaussian"),
        Rule(Subst, _h_subst_delta, "substitute-into-point-mass"),
        Rule(Subst, _h_subst_slice, "compose-slices"),
        Rule(Subst, _h_subst_cat, "index-into-cat"),
        Rule(Reduce, _h_reduce_tensor, "reduce-tensor"),
        Rule(Reduce, _h_reduce_gaussian, "reduce-gaussian"),
        Rule(Reduce, _h_reduce_delta, "integrate-point-mass"),
        Rule(Reduce, _h_reduce_product, "reduce-product"),
        Rule(MarkovProd, _h_markov, "chain-product"),
        Rule(Cat, _h_cat, "concatenate-factors"),
    ],
    fallback=LAZY,
    classify=reduction_kind,
)
