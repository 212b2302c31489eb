"""Contraction planning for sums of factor products.

A reduction over a product of factors admits many evaluation orders.
The planner pushes sums that touch a single factor into that factor,
then greedily fuses the cheapest pair of factors until one remains,
reducing each variable at the first step where no other factor mentions
it.  Cost of a step is the element count of the fused context: the
product of its bounded sizes times the squared flattened real dimension
plus one, matching how large the dense and quadratic blocks get.

The Optimize interpretation applies this to whole reduction chains
before their bodies are rebuilt, so nested sums over a shared product
are planned jointly instead of being collapsed innermost-first.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .domains import Bounded, RealArray, TypeContext
from .interp import (
    EXACT,
    Interpretation,
    Rule,
    WholeRule,
    flatten_product,
    interpretation,
    lift,
    reduce_term,
)
from .ops import ADD, REDUCE_OPS, ReduceOp
from .tensor import tensor_contract
from .terms import Apply, Reduce, TensorLeaf, Term


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
    """Reduce variables confined to one factor inside that factor.

    Returns the updated factor list and the residual variable set, the
    variables still shared by two or more factors.
    """
    op = REDUCE_OPS["logaddexp"] if op is None else op
    out = list(factors)
    remaining = set()
    for v in rvars:
        holders = [k for k, p in enumerate(out) if v in p.free_vars]
        if len(holders) == 1:
            k = holders[0]
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


def contract_pair(op: ReduceOp, a: Term, b: Term, rvars: Sequence[str]) -> Term:
    """Reduce ``rvars`` out of ``a + b`` under the current interpretation.

    Two real scalar tables go through ``tensor_contract`` without building
    their union table; other factors are lifted and reduced by the rules.
    """
    if all(isinstance(p, TensorLeaf) and p.is_scalar_real() for p in (a, b)):
        return TensorLeaf(tensor_contract(op, [a.atom, b.atom], rvars))
    out = lift(ADD, a, b)
    for v in rvars:
        out = reduce_term(op, v, out)
    return out


def execute_plan(plan: ContractionPlan, parts: Sequence[Term]) -> Term:
    factors = list(parts)
    with interpretation(EXACT):
        for i, j, rvs in plan.steps:
            fused = contract_pair(plan.op, factors[i], factors[j], rvs)
            rest = [f for k, f in enumerate(factors) if k not in (i, j)]
            factors = [fused] + rest
        # The steps fuse until one factor remains.
        out = factors[0]
        for v in plan.final_vars:
            out = reduce_term(plan.op, v, out)
    return out


def contract(
    op,
    rvars: Sequence[str],
    parts: Sequence[Term],
    stats: Optional[Dict] = None,
) -> Term:
    """Reduce several variables out of a factor product, planned greedily."""
    if isinstance(op, str):
        op = REDUCE_OPS[op]
    parts, residual = push_singleton_sums(list(parts), list(rvars), op)
    remaining = [v for v in rvars if v in residual]
    plan = greedy_plan(parts, remaining, op)
    if stats is not None:
        stats["steps"] = len(plan.steps)
        stats["estimated_cost"] = plan.estimated_cost
    return execute_plan(plan, parts)


def _w_plan_reduce(node: Reduce, recurse) -> Optional[Term]:
    if node.op.name not in ("logaddexp", "max"):
        return None
    rvars: List[str] = []
    body: Term = node
    while isinstance(body, Reduce) and body.op.name == node.op.name:
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
    parts = [recurse(p) for p in raw_parts]
    return contract(node.op, rvars, parts)


OPTIMIZE = Interpretation(
    "optimize",
    rules=[],
    fallback=EXACT,
    whole_rules=[WholeRule(Reduce, _w_plan_reduce, "plan-contraction")],
)
