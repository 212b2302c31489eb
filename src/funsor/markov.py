"""Evaluation of chained products over a time axis.

A chained product couples consecutive positions of its body through
matched variable pairs and eliminates the interior matches, leaving the
two boundary sets free.  Two evaluation strategies are provided: a left
fold over time, and a pairwise doubling scheme whose depth is the base-2
logarithm of the length.  Both agree up to floating point roundoff; the
doubling scheme trades a logarithmic number of larger contractions for
the fold's linear chain of small ones.
"""
from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, List, Optional

from .errors import BoundsError
from .interp import cat_term, flatten_product, subst_term, var
from .ops import REDUCE_OPS
from .optimize import contract
from .terms import MarkovProd, Slice, Term, fresh_name


class _ScanState(threading.local):
    def __init__(self):
        self.mode = "parallel"
        self.elim = "logaddexp"
        self.stats: Optional[Dict] = None


_SCAN = _ScanState()

SCAN_MODES = ("sequential", "parallel")


@contextmanager
def scan_mode(mode: str, elim: str = "logaddexp", stats: Optional[Dict] = None):
    """Select how chained products evaluate on this thread.

    ``elim`` picks the monoid that folds matched variables: ``logaddexp``
    for marginals, ``max`` for best-path scores.  ``stats``, if given,
    receives a ``levels`` entry when the doubling scheme runs.
    """
    if mode not in SCAN_MODES:
        raise BoundsError(f"unknown scan mode {mode!r}; pick one of {SCAN_MODES}")
    prev = (_SCAN.mode, _SCAN.elim, _SCAN.stats)
    _SCAN.mode, _SCAN.elim, _SCAN.stats = mode, elim, stats
    try:
        yield
    finally:
        _SCAN.mode, _SCAN.elim, _SCAN.stats = prev


def markov_sequential(body: Term, timevar: str, step) -> Term:
    """Left-fold evaluation of the chained product of ``body`` over time."""
    node = MarkovProd(timevar, step, body)
    T = node.body.free_vars.typeof(timevar).size
    return _sequential(node, T)


def markov_parallel(
    body: Term, timevar: str, step, stats: Optional[Dict] = None
) -> Term:
    """Doubling evaluation of the chained product; depth is log2 of T.

    ``stats``, if given, receives the level count under key ``levels``.
    """
    node = MarkovProd(timevar, step, body)
    T = node.body.free_vars.typeof(timevar).size
    if stats is None:
        return _parallel(node, T)
    prev = _SCAN.stats
    _SCAN.stats = stats
    try:
        return _parallel(node, T)
    finally:
        _SCAN.stats = prev


def evaluate_markov(node: MarkovProd) -> Optional[Term]:
    T = node.body.free_vars.typeof(node.timevar).size
    if _SCAN.mode == "sequential":
        return _sequential(node, T)
    return _parallel(node, T)


def _elim(rvars: List[str], parts: List[Term]) -> Term:
    return contract(REDUCE_OPS[_SCAN.elim], rvars, parts)


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
        result = _elim(list(fresh.values()), [carried, step])
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
        merged = _elim(
            list(xs.values()), flatten_product(f_e) + flatten_product(f_o)
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
