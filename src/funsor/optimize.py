"""Contraction planning for sums of factor products.

A reduction over a product of factors admits many evaluation orders.
The planner pushes sums that touch a single factor into that factor,
then greedily fuses the cheapest pair of factors until one remains,
reducing each variable at the first step where no other factor mentions
it.  Cost of a step is the element count of the fused context: the
product of its bounded sizes times the squared flattened real dimension
plus one, matching how large the dense and quadratic blocks get.

``contract_pair`` is the one contraction step.  Both chain scans take
one per step or level, Exact one per reduction over tables that no one
of them spans, and ``contract`` runs Optimize's joint plans as a
sequence of them under the caller's interpretation; only Optimize
plans.  A step on tables and quadratic factors is a ``PairPlan``:
derived from the factors' layouts alone, with each reduction classified
as the interpretation declares, and run on their arrays.  Its tables
fuse in one ``contract_arrays`` call, which also sums the step's
variables when every factor is a table, and its quadratic factors in one
``embed`` call.  The fold replays it per step signature, and the rules
run it as a one-step plan.  Tables contract as a plan under every
interpretation, one without a classifier too.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Dict, List, Optional, Sequence, Tuple

from .approx import match, match_layout
from .domains import Bounded, TypeContext
from .gaussian import (
    GaussianAtom,
    embed,
    embed_layout,
    log_normalizer,
    marginal_layout,
    marginalize,
)
from .interp import (
    EXACT,
    Interpretation,
    WholeRule,
    _chain_add,
    current_interpretation,
    flatten_product,
    lift,
    reduce_term,
    reduction_kind,
)
from .ops import ADD, REDUCE_OPS, ReduceOp
from .tensor import TensorAtom, contract_arrays, contract_layout, fold_axis
from .terms import GaussianLeaf, Reduce, TensorLeaf, Term


def context_cost(ctx: TypeContext) -> float:
    """Element count of a factor over this context."""
    disc = 1.0
    real_dim = 0
    for _, tp in ctx.entries:
        if isinstance(tp, Bounded):
            disc *= tp.size
        else:
            real_dim += tp.num_elements
    return disc * (1 + real_dim) ** 2


@dataclass
class ContractionPlan:
    """Pairwise fusion schedule over an evolving factor list.

    Each step names two positions in the current list, fuses them, and
    reduces the listed variables; the fused factor moves to the front.
    """

    op: ReduceOp
    steps: List[Tuple[int, int, Tuple[str, ...]]] = field(default_factory=list)
    final_vars: Tuple[str, ...] = ()
    estimated_cost: float = 0.0


def push_singleton_sums(
    factors: Sequence[Term], rvars: Sequence[str], op: ReduceOp = None
) -> Tuple[List[Term], set]:
    """Reduce bounded variables confined to one factor inside that factor.

    Returns the updated factor list and the residual variable set: the
    variables shared by two or more factors, and every real variable.
    Marginalizing a real variable out of a lone conditional factor can
    leave a quadratic factor with no precision, so real variables wait
    for a fused step, where the other factors have joined them.
    """
    op = REDUCE_OPS["logaddexp"] if op is None else op
    out = list(factors)
    remaining = set()
    for v in rvars:
        holders = [k for k, p in enumerate(out) if v in p.free_vars]
        k = holders[0] if len(holders) == 1 else None
        if k is not None and isinstance(out[k].free_vars.typeof(v), Bounded):
            out[k] = reduce_term(op, v, out[k])
        else:
            remaining.add(v)
    return out, remaining


def greedy_plan(
    factors: Sequence[Term], rvars: Sequence[str], op: ReduceOp = None
) -> ContractionPlan:
    op = REDUCE_OPS["logaddexp"] if op is None else op
    plan = ContractionPlan(op)
    contexts = [p.free_vars for p in factors]
    # Sets hash-order their elements; a fixed order keeps plans repeatable.
    vars_left = sorted(rvars) if isinstance(rvars, (set, frozenset)) else list(rvars)
    # Real variables are reduced first within a step: integrating one out
    # is closed-form, while summing a label out of a Gaussian batched over
    # it is a mixture that Exact leaves lazy.
    reals = {n for c in contexts for n, tp in c.entries if not isinstance(tp, Bounded)}
    vars_left.sort(key=lambda v: v not in reals)
    while len(contexts) > 1:
        best = None
        for i in range(len(contexts)):
            for j in range(i + 1, len(contexts)):
                cost = context_cost(contexts[i].union(contexts[j]))
                if best is None or cost < best[0]:
                    best = (cost, i, j)
        cost, i, j = best
        fused = contexts[i].union(contexts[j])
        others = [c for k, c in enumerate(contexts) if k not in (i, j)]
        reducible = tuple(
            v for v in vars_left
            if v in fused and not any(v in c for c in others)
        )
        for v in reducible:
            fused = fused.remove(v)
            vars_left.remove(v)
        plan.steps.append((i, j, reducible))
        plan.estimated_cost += cost
        contexts = [fused] + others
    plan.final_vars = tuple(vars_left)
    return plan


def factor_layout(p: Term):
    """A table factor's context, or a quadratic factor's ``(batch, reals)``."""
    a = p.atom
    return a.context if isinstance(p, TensorLeaf) else (a.batch, a.reals)


def factor_arrays(p: Term):
    """A table factor's data, or a quadratic factor's ``(info_vec, precision)``."""
    a = p.atom
    return a.data if isinstance(p, TensorLeaf) else (a.info_vec, a.precision)


def factor_leaves(layouts, arrays) -> List[Term]:
    """Leaves over the given layouts holding arrays the kernels computed."""
    return [
        TensorLeaf(TensorAtom._unchecked(lay, x))
        if isinstance(lay, TypeContext)
        else GaussianLeaf(GaussianAtom._unchecked(*lay, *x))
        for lay, x in zip(layouts, arrays)
    ]


def is_atom_factor(p: Term) -> bool:
    """A real scalar table or a quadratic factor."""
    if isinstance(p, TensorLeaf):
        return p.is_scalar_real()
    return isinstance(p, GaussianLeaf)


@dataclass
class PairPlan:
    """The array-level schedule of one ``contract_pair`` step on atoms.

    Derived by ``pair_plan`` from the layouts of the parts alone.  ``run``
    takes the parts' arrays (``factor_arrays``) and runs the kernels'
    array cores: the tables in one ``contract_arrays`` call, which sums
    them left to right (and the step's variables when every part is a
    table), the quadratic factors in one ``embed`` call, then each
    remaining reduction in closed form or, for the ``"match"`` kind, by
    moment matching.  ``tables`` and ``gaussians`` hold the parts'
    positions and their fused layout, None for a lone part passed
    through.  ``run`` returns the arrays of the result, whose layouts are
    ``out`` (a table first, then a quadratic factor).  ``rest`` lists the
    variables from the first one the classifier leaves lazy on.
    """

    op: ReduceOp
    tables: Tuple = ((), None)
    gaussians: Tuple = ((), None)
    reductions: List = field(default_factory=list)
    rest: List[str] = field(default_factory=list)
    out: List = field(default_factory=list)

    def run(self, arrays: Sequence) -> List:
        def fused(core, ks, lay):
            if ks:
                return arrays[ks[0]] if lay is None else core(lay, [arrays[k] for k in ks])

        t = fused(partial(contract_arrays, self.op), *self.tables)
        g = fused(embed, *self.gaussians)
        for kind, how, lay in self.reductions:
            if kind == "fold":
                t = fold_axis(self.op, t, how)
                continue
            if kind == "match":
                t, i, p = match(how, t, *g)
                g = (i, p)
                continue
            if how is None:
                w, g = log_normalizer(*g), None
            else:
                w, i, p = marginalize(*how, *g)
                g = (i, p)
            t = w if lay is None else contract_arrays(self.op, lay, [t, w])
        return [x for x in (t, g) if x is not None]

    def run_leaves(self, parts: Sequence[Term]) -> List[Term]:
        """``run`` on the arrays of factor leaves; returns the result's leaves."""
        return factor_leaves(self.out, self.run([factor_arrays(p) for p in parts]))


def pair_plan(op: ReduceOp, parts: Sequence, rvars: Sequence[str], classify) -> PairPlan:
    """Derive the ``PairPlan`` of a step from its parts' layouts.

    ``parts`` are ``factor_layout``s.  When every part is a table, the
    step is one contraction that sums ``rvars``, as ``tensor_contract``
    does, whatever ``classify`` says; otherwise it is the closed form of
    ``normal_form_from_parts`` followed by one reduction per variable.
    ``classify`` says how each variable is reduced, with
    ``reduction_kind``'s signature: Exact's kinds (``reduction_kind``), or
    also ``"match"`` (``approx.match_kind``), a mixture collapsed by
    ``moment_match`` onto its weight table.
    """
    tk = [k for k, lay in enumerate(parts) if isinstance(lay, TypeContext)]
    gk = [k for k in range(len(parts)) if k not in tk]
    summed = () if gk else tuple(rvars)
    t, g = (parts[ks[0]] if ks else None for ks in (tk, gk))
    plan = PairPlan(op, (tk, None), (gk, None))
    if len(tk) > 1 or summed:
        t, step = contract_layout([parts[k] for k in tk], summed)
        plan.tables = (tk, step)
    if len(gk) > 1:
        g = tuple(reduce(TypeContext.union, c) for c in zip(*[parts[k] for k in gk]))
        plan.gaussians = (gk, embed_layout([parts[k] for k in gk], *g))
    rest = [v for v in rvars if v not in summed]
    while rest:
        v = rest[0]
        kind = classify(op, t, g, v)
        if kind == "match":
            kept, how = match_layout(t, g[0], v)
            plan.reductions.append((kind, how, None))
            t, g = kept, (kept, g[1])
        elif kind == "marginalize":
            u, vs = marginal_layout(g[1], v)
            t, step = (g[0], None) if t is None else contract_layout([t, g[0]], ())
            if len(u):
                plan.reductions.append((kind, (u, vs), step))
                g = (g[0], g[1].remove(v))
            else:
                plan.reductions.append((kind, None, step))
                g = None
        elif kind == "fold":
            plan.reductions.append((kind, t.names.index(v), None))
            t = t.remove(v)
        else:
            break
        rest.pop(0)
    plan.rest = rest
    plan.out = [lay for lay in (t, g) if lay is not None]
    return plan


def rename_layout(layout, renames: Dict[str, str]):
    """A ``factor_layout`` with variables relabeled."""
    if isinstance(layout, TypeContext):
        return TypeContext([(renames.get(n, n), t) for n, t in layout.entries])
    return tuple(rename_layout(ctx, renames) for ctx in layout)


def intern_layouts(signatures: Dict[tuple, int], layouts) -> int:
    """A small integer naming an ordered list of ``factor_layout``s.

    Loops that replay plans key them by it, so equal layouts share one.
    """
    key = tuple(
        lay.entries if isinstance(lay, TypeContext) else tuple(c.entries for c in lay)
        for lay in layouts
    )
    return signatures.setdefault(key, len(signatures))


def contract_pair(
    op: ReduceOp, a: Sequence[Term], b: Sequence[Term], rvars: Sequence[str]
) -> Term:
    """Reduce ``rvars`` out of the product of two factor lists.

    ``a`` and ``b`` are flat factor lists, as ``flatten_product`` returns
    them.  When every factor is a table or a quadratic factor, and either
    the current interpretation declares a classifier or every factor is a
    real scalar table (which contract exactly under every interpretation,
    without building their union table), the step's ``PairPlan`` runs the
    kernels' array cores without building or dispatching the intermediate
    terms.  The rules reduce the rest: other factors, and what the
    classifier leaves.
    """
    parts = [*a, *b]
    rest = list(rvars)
    classify = current_interpretation().classify
    tables = all(isinstance(p, TensorLeaf) for p in parts)
    if (classify is not None or tables) and all(is_atom_factor(p) for p in parts):
        plan = pair_plan(op, [factor_layout(p) for p in parts], rvars, classify)
        out = _chain_add(plan.run_leaves(parts))
        rest = plan.rest
    else:
        out = lift(ADD, _chain_add(a), _chain_add(b))
    for v in rest:
        out = reduce_term(op, v, out)
    return out


def execute_plan(plan: ContractionPlan, parts: Sequence[Term]) -> Term:
    factors = list(parts)
    for i, j, rvs in plan.steps:
        fused = contract_pair(
            plan.op, flatten_product(factors[i]), flatten_product(factors[j]), rvs
        )
        rest = [f for k, f in enumerate(factors) if k not in (i, j)]
        factors = [fused] + rest
    # The steps fuse until one factor remains.
    out = factors[0]
    for v in plan.final_vars:
        out = reduce_term(plan.op, v, out)
    return out


def contract(op, rvars: Sequence[str], parts: Sequence[Term]) -> Term:
    """Reduce several variables out of a factor product, planned greedily."""
    if isinstance(op, str):
        op = REDUCE_OPS[op]
    parts, residual = push_singleton_sums(list(parts), list(rvars), op)
    remaining = [v for v in rvars if v in residual]
    return execute_plan(greedy_plan(parts, remaining, op), parts)


def contract_reduction(node: Reduce, recurse) -> Optional[Term]:
    """Plan directly nested reductions over one product jointly.

    Optimize's whole-term rule: it runs before the product is rebuilt, so
    its factors are never fused into one union table, and the sums of the
    same op stacked over it join one ``contract`` call instead of
    collapsing innermost-first.  ``recurse`` evaluates each factor.
    """
    if node.op.name not in ("logaddexp", "max"):
        return None
    rvars = [node.var]
    body = node.body
    while isinstance(body, Reduce) and body.op.name == node.op.name:
        rvars.append(body.var)
        body = body.body
    raw_parts = flatten_product(body)
    if len(raw_parts) < 2:
        return None
    return contract(node.op, rvars, [recurse(p) for p in raw_parts])


OPTIMIZE = Interpretation(
    "optimize",
    rules=[],
    fallback=EXACT,
    whole_rules=[WholeRule(Reduce, contract_reduction, "plan-contraction")],
    classify=reduction_kind,
)
