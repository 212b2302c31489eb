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
"""
from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Optional

from .errors import BoundsError
from .interp import cat_term, flatten_product, subst_term, var
from .optimize import contract
from .terms import MarkovProd, Slice, Term, fresh_name


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
    T = node.body.free_vars.typeof(node.timevar).size
    if _SCAN.mode == "sequential":
        return _sequential(node, T)
    return _parallel(node, T)


def _sequential(node: MarkovProd, T: int) -> Term:
    body, tv = node.body, node.timevar
    types = body.free_vars
    result = subst_term(body, {tv: 0})
    for k in range(1, T):
        fresh = {c: fresh_name(c) for _, c in node.step}
        mid = {c: var(fresh[c], types.typeof(c)) for _, c in node.step}
        carried = subst_term(result, mid)
        step = subst_term(
            body, {tv: k, **{p: var(fresh[c], types.typeof(c)) for p, c in node.step}}
        )
        result = contract(node.op, list(fresh.values()), [carried, step])
    return result


def _parallel(node: MarkovProd, T: int) -> Term:
    body, tv = node.body, node.timevar
    types = body.free_vars
    f: Term = body
    size = T
    levels = 0
    while size > 1:
        half = size // 2
        xs = {c: fresh_name(c) for _, c in node.step}
        even = {c: var(xs[c], types.typeof(c)) for _, c in node.step}
        odd = {p: var(xs[c], types.typeof(c)) for p, c in node.step}
        f_e = subst_term(f, {**even, tv: Slice(tv, 0, 2 * half - 1, 2, size)})
        f_o = subst_term(f, {**odd, tv: Slice(tv, 1, 2 * half, 2, size)})
        merged = contract(
            node.op, list(xs.values()), flatten_product(f_e) + flatten_product(f_o)
        )
        if size % 2:
            last = subst_term(f, {tv: size - 1})
            f = cat_term(tv, [merged, last])
        else:
            f = merged
        size = (size + 1) // 2
        levels += 1
    if _SCAN.stats is not None:
        _SCAN.stats["levels"] = levels
    return subst_term(f, {tv: 0})
