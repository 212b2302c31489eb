"""Evaluation of chained products over a time axis.

A chained product couples consecutive positions of its body through
matched variable pairs and eliminates the interior matches with the
monoid the term carries; its value is over the first and the last
names, unless an initial factor closes it.  ``scan_mode`` picks the
strategy on this thread: a left fold over time, or a pairwise doubling
scheme of logarithmic depth.  Both combine in steps that relabel the two
sides where they meet and reduce the matched names in one ``PairPlan``,
reals first, which dispatches no rule and spends no fuel under a
declared classifier.  Under one, a body of tables and quadratic factors
runs on arrays in both scans: a step takes views at a time index or, on
a doubling level, stride-2 slices, and relabels their layouts (``_cut``);
atoms are built for the result only.  Other bodies, and a step the
classifier leaves partly lazy (a mixture Monte Carlo samples), take the
term path: ``substitute_atom`` relabels and indexes atoms, and
``contract_pair`` and the rules reduce them.

The fold filters a closed chain: it starts from the initial factor and
reduces each state ``window`` cells after it enters (1, the exact
filter, except under ``MomentMatching(window)``), then the rest, reals
first; it derives a step's plan once per signature and replays it.  The
doubling scheme derives one per level.  It evaluates the two-ended chain,
then closes it, so it cannot filter; an odd level joins its last cell
apart from the pairs, which keep their sharing, in front of the cells
after the level.
"""
from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, List, Optional

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
    body = [factor_layout(p) for p in factors], [factor_arrays(p) for p in factors]
    cuts = [_cut(tv, body[0], {p: mid[c] for p, c in pairs}) for mid in sets]
    axes, cells = cuts[0][0], [lays for _, lays in cuts]

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
        carried, lays = plan.run(carried + _take(body[1], axes, k)), plan.out
    return factor_leaves(lays, carried), len(steps)


def _cut(tv: str, layouts, renames: Dict[str, str], count: Optional[int] = None):
    """Per ``factor_layout``: the selector prefix of ``tv``'s axis (None
    without ``tv``), and the layout relabeled by ``renames`` with ``tv``
    dropped or, given ``count``, re-bounded to that many cells."""
    axes, out = [], []
    for lay in layouts:
        table = isinstance(lay, TypeContext)
        batch = lay if table else lay[0]
        axes.append((slice(None),) * batch.names.index(tv) if tv in batch else None)
        batch = TypeContext([
            (renames.get(n, n), Bounded(count) if n == tv else t)
            for n, t in batch.entries if n != tv or count
        ])
        out.append(batch if table else (batch, rename_layout(lay[1], renames)))
    return axes, out


def _take(arrays, axes, key) -> List:
    """Each factor's arrays at ``key`` on the axis ``_cut`` found."""
    return [
        x if a is None else (x[0][a + (key,)], x[1][a + (key,)]) if isinstance(x, tuple)
        else x[a + (key,)] for x, a in zip(arrays, axes)
    ]


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
    tv, types, factors = node.timevar, node.body.free_vars, flatten_product(node.body)
    # Every join reduces all of one name set, so one set serves the scan.
    mid = {c: fresh_name(c) for _, c in pairs}
    rvars = list(mid.values())
    ends = ({c: mid[c] for _, c in pairs}, {p: mid[c] for p, c in pairs})
    classify = current_interpretation().classify
    if classify is not None and all(is_atom_factor(p) for p in factors):
        factors = [factor_layout(p) for p in factors], [factor_arrays(p) for p in factors]

    def join(size, a, i, b=None, j=None):
        """``a`` at cell ``i`` (an index or a stride-2 slice) of ``size``,
        alone or joined to ``b`` at cell ``j`` (None: ``b`` is untimed).
        Factors held as ``(layouts, arrays)`` join by a ``PairPlan``; term
        lists, and a step it leaves partly lazy, take the term path."""
        if isinstance(a, tuple) and not isinstance(b, list):
            count = len(range(i.start, i.stop, 2)) if isinstance(i, slice) else None
            axes, la = _cut(tv, a[0], {} if b is None else ends[0], count)
            if b is None:
                return la, _take(a[1], axes, i)
            bx, lb = _cut(tv, b[0], ends[1], count)
            plan = pair_plan(node.op, la + lb, rvars, classify)
            if not plan.rest:
                return plan.out, plan.run(_take(a[1], axes, i) + _take(b[1], bx, j))
        a, b = (factor_leaves(*f) if isinstance(f, tuple) else f for f in (a, b))
        cells = [
            {} if k is None else {tv: _cell(k, size)} if isinstance(k, int)
            else {tv: Slice(tv, k.start, k.stop, 2, size)}
            for k in (i, j)
        ]
        if b is None:
            return _at(a, cells[0], {}, types)
        return _join(node, pairs, a, b, cells, mid, rvars)

    # The level loop; ``later`` holds the cells after the level.
    size, levels, later = T, 0, None
    while size > 1:
        if size % 2:
            later = join(size, factors, size - 1, later)
        # Even cells' last names and odd cells' first names meet.
        h = size // 2
        factors = join(size, factors, slice(0, 2 * h, 2), factors, slice(1, 2 * h, 2))
        size, levels = h, levels + 1
    if _SCAN.stats is not None:
        _SCAN.stats["levels"] = levels + (later is not None)
    out = join(1, factors, 0, later)
    return _chain_add(factor_leaves(*out) if isinstance(out, tuple) else out)
