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

The fold works on the evaluated body's factors, not on terms: each step
takes the tables and quadratic factors at one time index as views,
relabels the matched names at atom level and hands both factor lists to
``contract_pair``.  Under Exact and Optimize that runs the rules' kernels
in the rules' order without dispatching a rule (so no fuel is spent);
Monte Carlo and moment matching see every step through their rules.
Other factors, such as point masses or lazily kept reductions, are
substituted into as terms.  The body and the interpretation decide the
path; there is no setting.
"""
from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, List, Optional

import numpy as np

from .domains import Bounded, TypeContext
from .errors import BoundsError
from .gaussian import gaussian_index_batch, gaussian_rename
from .interp import _chain_add, _rename_tensor, cat_term, flatten_product, subst_term, var
from .optimize import contract, contract_pair
from .tensor import index_tensor, tensor_index
from .terms import GaussianLeaf, MarkovProd, Slice, TensorLeaf, Term, fresh_name


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
    factors = flatten_product(body)
    # Real matched names are reduced before bounded ones, as ``contract``
    # orders them.  The names alternate between two sets minted once per
    # chain; each step eliminates the set it binds.
    pairs = sorted(node.step, key=lambda pc: isinstance(types.typeof(pc[1]), Bounded))
    names = [{c: fresh_name(c) for _, c in pairs} for _ in range(2)]
    result = _at(factors, {tv: 0}, {}, types)
    for k in range(1, T):
        mid = names[k % 2]
        carried = _at(result, {}, mid, types)
        now = _at(factors, {tv: k}, {p: mid[c] for p, c in pairs}, types)
        result = flatten_product(
            contract_pair(node.op, carried, now, list(mid.values()))
        )
    return _chain_add(result)


def _at(factors, cells: Dict[str, int], renames: Dict[str, str], types) -> List[Term]:
    """The factors at ground ``cells``, with ``renames`` applied.

    Tables and quadratic factors are indexed as views and relabeled at
    atom level; any other factor is substituted into as a term.
    """
    index = {
        n: index_tensor(TypeContext(), np.float64(i), types.typeof(n).size)
        for n, i in cells.items()
    }
    out: List[Term] = []
    for p in factors:
        if isinstance(p, TensorLeaf) and p.is_scalar_real():
            atom = p.atom
            for n, idx in index.items():
                if n in atom.context:
                    atom = tensor_index(atom, n, idx)
            if any(n in atom.context for n in renames):
                atom = _rename_tensor(atom, renames)
            out.append(TensorLeaf(atom))
        elif isinstance(p, GaussianLeaf):
            g = p.atom
            for n, idx in index.items():
                if n in g.batch:
                    g = gaussian_index_batch(g, n, idx)
            if any(n in g.context for n in renames):
                g = gaussian_rename(g, renames)
            out.append(GaussianLeaf(g))
        else:
            bindings: Dict[str, Term] = {n: TensorLeaf(i) for n, i in index.items()}
            bindings.update({n: var(m, types.typeof(n)) for n, m in renames.items()})
            out.extend(flatten_product(subst_term(p, bindings)))
    return out


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
