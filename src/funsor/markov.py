"""Evaluation of chained products over a time axis.

A chained product couples consecutive positions of its body through
matched variable pairs and eliminates the interior matches with the
monoid the term carries, leaving the two boundary sets free.  Two
evaluation strategies are provided: a left fold over time, and a
pairwise doubling scheme whose depth is the base-2 logarithm of the
length.  ``scan_mode`` picks the strategy for the chains evaluated on
this thread; it does not change what a chain denotes.  Both agree up
to floating point roundoff; the doubling scheme trades a logarithmic
number of larger contractions for the fold's linear chain of small ones.

Both scans work on the evaluated body's factors, not on terms.  The fold
takes the tables and quadratic factors at one time index as views; the
doubling scan takes them at the even and the odd stride-2 slice of each
level.  ``interp.substitute_atom`` takes the cells and relabels the
matched names at atom level.  A fold step and a level are the same
combine: one ``contract_pair`` step on two factor lists, which reduces
the real matched names before the bounded ones.  Under an
interpretation that declares a reduction classifier (all but Lazy) the
step runs the rules' kernels in the rules' order without dispatching a
rule (so no fuel is spent); a reduction the classifier leaves lazy, such
as a mixture Monte Carlo samples, goes through the rules.  A fold whose body
holds only tables and quadratic factors goes further: each step's
``PairPlan`` (the layout half of ``contract_pair``) is derived once per
step signature, which repeats with period two as the matched names
alternate, and replayed on raw arrays, so atoms are built for the
result only and no context is derived after the first steps (a
table-only chain's steps run ``tensor_contract``'s array core); a step
the classifier leaves lazy hands the rest of the chain back to
``contract_pair``.
An odd level's last position is joined to the merged pairs by a ``Cat``
term, whose rule concatenates the tables and the quadratic factors back
into one of each, so the next level starts from atoms again.  Other
factors, such as point masses or lazily kept reductions, are substituted
into as terms.  The body and the interpretation decide the path; there
is no setting.
"""
from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, List, Optional

import numpy as np

from .domains import Bounded, TypeContext
from .errors import BoundsError
from .interp import (
    _chain_add,
    cat_term,
    current_interpretation,
    flatten_product,
    subst_term,
    substitute_atom,
    var,
)
from .optimize import (
    contract_pair,
    factor_arrays,
    factor_layout,
    factor_leaves,
    intern_layouts,
    is_atom_factor,
    pair_plan,
    rename_layout,
)
from .tensor import TensorAtom
from .terms import MarkovProd, Slice, TensorLeaf, Term, fresh_name


class _ScanState(threading.local):
    def __init__(self):
        self.mode = "parallel"
        self.stats: Optional[Dict] = None


_SCAN = _ScanState()

SCAN_MODES = ("sequential", "parallel")


@contextmanager
def scan_mode(mode: str, stats: Optional[Dict] = None):
    """Select how chained products evaluate on this thread.

    Only the strategy is chosen here; the monoid that eliminates matched
    variables is part of each chain term.  ``stats``, if given, receives
    a ``levels`` entry when the doubling scheme runs.
    """
    if mode not in SCAN_MODES:
        raise BoundsError(f"unknown scan mode {mode!r}; pick one of {SCAN_MODES}")
    prev = (_SCAN.mode, _SCAN.stats)
    _SCAN.mode, _SCAN.stats = mode, stats
    try:
        yield
    finally:
        _SCAN.mode, _SCAN.stats = prev


def evaluate_markov(node: MarkovProd) -> Optional[Term]:
    types = node.body.free_vars
    T = types.typeof(node.timevar).size
    # Both scans reduce real matched names before bounded ones, as the
    # planner orders a pair's reductions.
    pairs = sorted(node.step, key=lambda pc: isinstance(types.typeof(pc[1]), Bounded))
    if _SCAN.mode == "sequential":
        return _sequential(node, T, pairs)
    return _parallel(node, T, pairs)


def _sequential(node: MarkovProd, T: int, pairs) -> Term:
    body, tv = node.body, node.timevar
    types = body.free_vars
    factors = flatten_product(body)
    # The names alternate between two sets minted once per chain; each
    # step eliminates the set it binds.
    names = [{c: fresh_name(c) for _, c in pairs} for _ in range(2)]
    classify = current_interpretation().classify
    if classify is not None and all(is_atom_factor(p) for p in factors):
        result, start = _replay(node, factors, pairs, names, T, classify)
    else:
        result, start = _at(factors, {tv: _cell(0, T)}, {}, types), 1
    for k in range(start, T):
        mid = names[k % 2]
        carried = _at(result, {}, mid, types)
        now = _at(factors, {tv: _cell(k, T)}, {p: mid[c] for p, c in pairs}, types)
        result = flatten_product(
            contract_pair(node.op, carried, now, list(mid.values()))
        )
    return _chain_add(result)


def _replay(node: MarkovProd, factors, pairs, names, T: int, classify):
    """Fold the chain's steps on arrays while ``classify`` reduces them.

    A step's ``PairPlan`` depends only on its signature: the layouts of
    the carried factors and of the body's cells, which alternate with the
    two matched name sets.  Each plan is derived once per signature and
    replayed on the carried arrays and on views of the body's arrays at
    the step's time index; atoms are built for the result only.  Returns
    the carried factors and the first step left to the term path (``T``
    when none is): a step with a reduction ``classify`` leaves lazy.
    """
    tv = node.timevar
    layouts = [factor_layout(p) for p in factors]
    arrays = [factor_arrays(p) for p in factors]
    cuts = []
    cell_layouts = []
    for lay in layouts:
        batch = lay if isinstance(lay, TypeContext) else lay[0]
        if tv in batch:
            cuts.append((slice(None),) * batch.names.index(tv))
            batch = batch.remove(tv)
        else:
            cuts.append(None)
        cell_layouts.append(batch if isinstance(lay, TypeContext) else (batch, lay[1]))
    cells = [
        [rename_layout(lay, {p: mid[c] for p, c in pairs}) for lay in cell_layouts]
        for mid in names
    ]

    def at(k):
        out = []
        for x, cut in zip(arrays, cuts):
            if cut is None:
                out.append(x)
            elif isinstance(x, np.ndarray):
                out.append(x[cut + (k,)])
            else:
                out.append(tuple(a[cut + (k,)] for a in x))
        return out

    # ``held`` are the carried factors' layouts, under the step's own names.
    carried, held = at(0), cell_layouts
    signatures: Dict[tuple, int] = {}
    plans: Dict[tuple, tuple] = {}
    sig = intern_layouts(signatures, held)
    for k in range(1, T):
        key = (k % 2, sig)
        hit = plans.get(key)
        if hit is None:
            mid = names[k % 2]
            plan = pair_plan(
                node.op,
                [rename_layout(lay, mid) for lay in held] + cells[k % 2],
                list(mid.values()),
                classify,
            )
            if plan.rest:
                return factor_leaves(held, carried), k
            hit = plans[key] = (plan, intern_layouts(signatures, plan.out))
        plan, sig = hit
        carried, held = plan.run(carried + at(k)), plan.out
    return factor_leaves(held, carried), T


def _cell(k: int, size: int) -> Term:
    return TensorLeaf(TensorAtom._unchecked(TypeContext(), k, Bounded(size)))


def _at(factors, cells: Dict[str, Term], renames: Dict[str, str], types) -> List[Term]:
    """The factors at ``cells``, with ``renames`` applied.

    A cell is a ground index or a ``Slice``.  Tables and quadratic factors
    are relabeled and indexed by ``substitute_atom``; any other factor is
    substituted into as a term.
    """
    out: List[Term] = []
    for p in factors:
        if is_atom_factor(p):
            out.extend(substitute_atom(p, {**cells, **renames}))
        else:
            bindings = dict(cells)
            bindings.update({n: var(m, types.typeof(n)) for n, m in renames.items()})
            out.extend(flatten_product(subst_term(p, bindings)))
    return out


def _parallel(node: MarkovProd, T: int, pairs) -> Term:
    body, tv = node.body, node.timevar
    types = body.free_vars
    factors = flatten_product(body)
    size = T
    levels = 0
    while size > 1:
        half = size // 2
        xs = {c: fresh_name(c) for _, c in pairs}
        halves = []
        for k in (0, 1):
            # Even cells' curr names and odd cells' prev names meet at ``xs``.
            cells = {tv: Slice(tv, k, 2 * half - 1 + k, 2, size)}
            renames = {pc[1 - k]: xs[pc[1]] for pc in pairs}
            halves.append(_at(factors, cells, renames, types))
        merged = flatten_product(contract_pair(node.op, *halves, list(xs.values())))
        if size % 2:
            last = _at(factors, {tv: _cell(size - 1, size)}, {}, types)
            # ``concatenate-factors`` joins the last cell to the pairs.
            merged = flatten_product(
                cat_term(tv, [_chain_add(merged), _chain_add(last)])
            )
        factors = merged
        size = (size + 1) // 2
        levels += 1
    if _SCAN.stats is not None:
        _SCAN.stats["levels"] = levels
    return _chain_add(_at(factors, {tv: _cell(0, 1)}, {}, types))
