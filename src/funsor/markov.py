"""Evaluation of chained products over a time axis.

A chained product couples consecutive positions of its body through
matched variable pairs and eliminates the interior matches with the
monoid the term carries; its value is over the first and the last
names, unless an initial factor closes it.  ``scan_mode`` picks the
strategy on this thread: a left fold over time, or a pairwise doubling
scheme of logarithmic depth.  Both combine in ``_join`` steps: the
body's factors at a time index or a level's stride-2 slices, relabeled
where the sides meet (``substitute_atom``), go into one ``contract_pair``
step, reals first, which dispatches no rule and spends no fuel under a
declared classifier.  Reductions the classifier leaves lazy, such as a
mixture Monte Carlo samples, go through the rules.

The fold filters a closed chain: it starts from the initial factor and
reduces each state ``window`` cells after it enters (1, the exact
filter, except under ``MomentMatching(window)``), then the rest, reals
first.  A body of tables and quadratic factors folds on arrays: each
step's ``PairPlan`` is derived once per signature and replayed on views
of the body's arrays, so atoms are built for the result only.  The
doubling scheme evaluates the two-ended chain, then closes it, so it cannot
filter; an odd level joins its last cell apart from the pairs, which keep
their sharing, in front of the cells after the level.
"""
from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, List, Optional

import numpy as np

from .approx import MomentMatching
from .domains import Bounded, TypeContext
from .errors import BoundsError, ScanUnsupported
from .interp import (
    _chain_add,
    current_interpretation,
    flatten_product,
    lift,
    reduce_term,
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
from .ops import ADD
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
    # Real matched names are reduced before bounded ones, as the planner
    # orders a pair's reductions.
    pairs = sorted(node.step, key=lambda pc: isinstance(types.typeof(pc[1]), Bounded))
    if _SCAN.mode == "sequential":
        return _sequential(node, T, pairs)
    if node.init is None:
        return _parallel(node, T, pairs)
    interp = current_interpretation()
    switching = len({isinstance(types.typeof(c), Bounded) for _, c in pairs}) == 2
    if interp.window > 1 or (switching and isinstance(interp, MomentMatching)):
        raise ScanUnsupported(f"{interp.name} filters this chain in the sequential scan only")
    # Close both ends as the builders did, one reduction at a time.
    out = lift(ADD, node.init, _parallel(node, T, pairs))
    for name in [p for p, _ in pairs] + [c for _, c in pairs]:
        out = reduce_term(node.op, name, out)
    return out


def _sequential(node: MarkovProd, T: int, pairs) -> Term:
    body, tv, init = node.body, node.timevar, node.init
    types = body.free_vars
    factors = flatten_product(body)
    lag = 1 if init is None else current_interpretation().window
    sets = [{c: fresh_name(c) for _, c in pairs} for _ in range(lag + 1)]
    if init is None:
        # The first cell keeps its first names, which stay free.
        held, start = _at(factors, {tv: _cell(0, T)}, {}, types), 1
    else:
        held, start = _at(flatten_product(init), {}, dict(pairs), types), 0
    # Per cell: the set the current names move to, and the names reduced: a
    # set ``lag`` cells after it entered; after the last, all reals, then labels.
    steps, live = [], []
    for k in range(start, T):
        live.append(sets[k % len(sets)])
        rvars = list(live.pop(0).values()) if len(live) == lag else []
        if init is not None and k == T - 1:
            left = live + [{c: c for _, c in pairs}]
            for real in (True, False):
                rvars += [s[c] for s in left for _, c in pairs
                          if isinstance(types.typeof(c), Bounded) != real]
        steps.append((k, sets[k % len(sets)], tuple(rvars)))
    classify = current_interpretation().classify
    done = 0
    if classify is not None and all(is_atom_factor(p) for p in factors + held):
        held, done = _replay(node.op, tv, factors, held, steps, pairs, sets, classify)
    for k, mid, rvars in steps[done:]:
        held = _join(node, pairs, held, factors, ({}, {tv: _cell(k, T)}), mid, rvars)
    return _chain_add(held)


def _replay(op, tv: str, factors, held, steps, pairs, sets, classify):
    """Fold the chain's steps on arrays while ``classify`` reduces them.

    A step's ``PairPlan`` depends only on its signature: the carried
    layouts, the set the current names move to, and the names reduced.
    Each is derived once and replayed on views of the body's arrays.
    Returns the carried factors and how many steps ran; the term path
    takes the rest, from a step ``classify`` leaves lazy.
    """
    # Per factor: its arrays, with the time axis moved first (kind 1 for a
    # table, 2 for a quadratic factor) or untimed (kind 0), and its cell's layout.
    arrays, kinds, cell_layouts = [], [], []
    for p in factors:
        lay, x, kind = factor_layout(p), factor_arrays(p), 0
        table = isinstance(lay, TypeContext)
        batch = lay if table else lay[0]
        if tv in batch:
            axis, kind = batch.names.index(tv), 1 if table else 2
            first = [np.moveaxis(a, axis, 0) for a in ([x] if table else x)]
            x = first[0] if table else tuple(first)
            batch = batch.remove(tv)
        arrays.append(x)
        kinds.append(kind)
        cell_layouts.append(batch if table else (batch, lay[1]))
    cells = [
        [rename_layout(lay, {p: mid[c] for p, c in pairs}) for lay in cell_layouts]
        for mid in sets
    ]

    def at(k):
        return [
            x if t == 0 else x[k] if t == 1 else (x[0][k], x[1][k])
            for x, t in zip(arrays, kinds)
        ]

    # ``lays`` are the carried factors' layouts, under their own names.
    carried, lays = [factor_arrays(p) for p in held], [factor_layout(p) for p in held]
    signatures: Dict[tuple, int] = {}
    plans: Dict[tuple, tuple] = {}
    sig = intern_layouts(signatures, lays)
    for i, (k, mid, rvars) in enumerate(steps):
        key = (k % len(sets), sig, rvars)
        hit = plans.get(key)
        if hit is None:
            renamed = [rename_layout(lay, mid) for lay in lays]
            plan = pair_plan(op, renamed + cells[k % len(sets)], rvars, classify)
            if plan.rest:
                return factor_leaves(lays, carried), i
            hit = plans[key] = (plan, intern_layouts(signatures, plan.out))
        plan, sig = hit
        carried, lays = plan.run(carried + at(k)), plan.out
    return factor_leaves(lays, carried), len(steps)


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


def _join(node, pairs, left, right, cells, mid, rvars) -> List[Term]:
    """Join ``left``'s last names to ``right``'s first at ``mid``; one step reduces ``rvars``."""
    a = _at(left, cells[0], {c: mid[c] for _, c in pairs}, node.body.free_vars)
    b = _at(right, cells[1], {p: mid[c] for p, c in pairs}, node.body.free_vars)
    return flatten_product(contract_pair(node.op, a, b, rvars))


def _parallel(node: MarkovProd, T: int, pairs) -> Term:
    tv, factors, size, levels = node.timevar, flatten_product(node.body), T, 0
    # Every join reduces all of one name set, so one set serves the scan.
    mid = {c: fresh_name(c) for _, c in pairs}
    rvars, later = list(mid.values()), None  # ``later``: the cells after the level

    def front(later):
        # The current level's last cell, in front of ``later``.
        cell = {tv: _cell(size - 1, size)}
        if later is None:
            return _at(factors, cell, {}, node.body.free_vars)
        return _join(node, pairs, factors, later, (cell, {}), mid, rvars)

    while size > 1:
        if size % 2:
            later = front(later)
        # Even cells' last names and odd cells' first names meet.
        halves = [{tv: Slice(tv, k, 2 * (size // 2) - 1 + k, 2, size)} for k in (0, 1)]
        factors = _join(node, pairs, factors, factors, halves, mid, rvars)
        size, levels = size // 2, levels + 1
    if _SCAN.stats is not None:
        _SCAN.stats["levels"] = levels + (later is not None)
    return _chain_add(front(later))
