"""Contraction planning for sums of factor products.

A reduction over a product of factors admits many evaluation orders.
The planner pushes sums that touch a single factor into that factor,
then greedily fuses the cheapest pair of factors until one remains,
reducing each variable at the first step where no other factor mentions
it.  Cost of a step is the element count of the fused context: the
product of its bounded sizes times the squared flattened real dimension
plus one, matching how large the dense and quadratic blocks get.

``contract`` is the one contraction path: chain steps, Exact's
lazily built reductions and Optimize's plans all go through it (a
sequential chain step calls its pairwise step, ``contract_pair``,
directly), and every plan runs under the caller's interpretation, so
approximate rules still see each planned reduction.  Exact plans one
reduction at a time; Optimize gathers directly nested sums over a
shared product into one joint plan instead of collapsing them
innermost-first.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .domains import Bounded, TypeContext
from .interp import (
    EXACT,
    Interpretation,
    NormalForm,
    WholeRule,
    _chain_add,
    closed_form_reductions,
    flatten_product,
    lift,
    normal_form_from_parts,
    reduce_atoms,
    reduce_term,
)
from .ops import ADD, REDUCE_OPS, ReduceOp
from .tensor import tensor_contract
from .terms import Apply, GaussianLeaf, Reduce, TensorLeaf, Term


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


def contract_pair(
    op: ReduceOp, a: Sequence[Term], b: Sequence[Term], rvars: Sequence[str]
) -> Term:
    """Reduce ``rvars`` out of the product of two factor lists.

    ``a`` and ``b`` are flat factor lists, as ``flatten_product`` returns
    them.  Two real scalar tables go through ``tensor_contract`` without
    building their union table.  When Exact's rules would evaluate the
    step and every factor is a table or a quadratic factor, the atoms are
    fused and reduced by the same kernels, in the same order, without
    building or dispatching the intermediate terms.  Other factors are
    lifted and reduced by the rules.
    """
    parts = [*a, *b]
    if len(parts) == 2 and all(
        isinstance(p, TensorLeaf) and p.is_scalar_real() for p in parts
    ):
        return TensorLeaf(tensor_contract(op, [p.atom for p in parts], rvars))
    rest = list(rvars)
    if closed_form_reductions() and all(
        isinstance(p, GaussianLeaf) or (isinstance(p, TensorLeaf) and p.is_scalar_real())
        for p in parts
    ):
        nf = normal_form_from_parts(parts)
        while rest:
            reduced = reduce_atoms(op, nf.tensor, nf.gaussian, rest[0])
            if reduced is None:
                break
            nf = NormalForm((), *reduced)
            rest.pop(0)
        out = nf.to_term()
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
    if len(parts) == 2 and all(v in p.free_vars for p in parts for v in rvars):
        # The only plan: fuse the pair and reduce everything, reals first.
        ctx = parts[0].free_vars
        order = sorted(rvars, key=lambda v: isinstance(ctx.typeof(v), Bounded))
        return contract_pair(
            op, flatten_product(parts[0]), flatten_product(parts[1]), order
        )
    parts, residual = push_singleton_sums(list(parts), list(rvars), op)
    remaining = [v for v in rvars if v in residual]
    return execute_plan(greedy_plan(parts, remaining, op), parts)


def contract_reduction(node: Reduce, recurse, joint: bool = False) -> Optional[Term]:
    """Contract a lazily built reduction over a product through ``contract``.

    Runs before the product is rebuilt, so its factors are never fused
    into one union table.  ``recurse`` evaluates each factor.  With
    ``joint``, directly nested reductions of the same op join one plan;
    otherwise only ``node``'s own variable is planned, and an inner
    reduction is contracted on its own when the rebuild reaches it.
    """
    if node.op.name not in ("logaddexp", "max"):
        return None
    rvars = [node.var]
    body = node.body
    while joint and isinstance(body, Reduce) and body.op.name == node.op.name:
        rvars.append(body.var)
        body = body.body
    if not (
        isinstance(body, Apply)
        and body.op.name == "add"
        and body.is_scalar_real()
    ):
        return None
    raw_parts = flatten_product(body)
    if len(raw_parts) < 2:
        return None
    return contract(node.op, rvars, [recurse(p) for p in raw_parts])


def _w_plan_reduction(node: Reduce, recurse) -> Optional[Term]:
    return contract_reduction(node, recurse, joint=True)


OPTIMIZE = Interpretation(
    "optimize",
    rules=[],
    fallback=EXACT,
    whole_rules=[WholeRule(Reduce, _w_plan_reduction, "plan-contraction")],
)
