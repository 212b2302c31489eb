"""Approximate reduction rules: moment matching and Monte Carlo.

Both rules take the one reduction Exact leaves lazy, a mixture: a
``logaddexp`` over a label a quadratic factor is batched over
(``mixture_form``).  Both interpretations declare a classifier, so their
other reductions, chain steps and planned contractions replay Exact's
``PairPlan``s.  Moment matching collapses a mixture into the quadratic
factor with its mean and covariance, leaving the matched total weight
behind; ``match_kind`` gives mixtures the ``"match"`` kind, so its rule
and chain steps run one ``PairPlan`` step (``match_layout`` plus the
array core ``match``).  This is assumed-density filtering, whose window
a closed chain's sequential scan honours.  Monte Carlo samples the label
from the weight table, evenly where the table lacks it, leaving a
weighted point mass behind, so downstream factors see the sample while
the total weight stays an unbiased estimate.  Its particles are drawn in
one evaluation.

Randomness is deterministic given a seed: draws come from a counter-mode
bit generator, and every draw advances the counter, so a fresh
interpretation with the same seed replays the same samples.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .delta import DeltaAtom
from .domains import Bounded, TypeContext
from .errors import BoundsError, NameAbsent
from .gaussian import (
    GaussianAtom,
    _cholesky_jitter,
    log_normalizer,
    normalizer,
)
from .interp import (
    EXACT,
    Interpretation,
    NormalForm,
    Rule,
    flatten_product,
    lift,
    normal_form_from_parts,
    reduce_normal_form,
    reduce_term,
    reduction_kind,
)
from .ops import ADD, LOGADDEXP_REDUCE, SUB
from .tensor import (
    TensorAtom,
    align_layout,
    fold_axis,
    logsumexp,
    pointwise,
    pointwise_layout,
    realign,
    tensor_apply,
    tensor_reduce,
    zeros_tensor,
)
from .terms import DeltaLeaf, GaussianLeaf, Reduce, TensorLeaf, Term, fresh_name


@dataclass(frozen=True)
class RngState:
    """A seed plus a draw counter; value-equal states replay draws."""

    seed: int
    counter: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < 2**128:
            raise BoundsError(f"seed must lie in [0, 2**128), got {self.seed}")

    def advance(self, n: int = 1) -> "RngState":
        return RngState(self.seed, self.counter + n)

    def generator(self) -> np.random.Generator:
        bit = np.random.Philox(key=self.seed)
        if self.counter:
            bit = bit.advance(self.counter * (1 << 32))
        return np.random.Generator(bit)


def match_layout(weight: Optional[TypeContext], batch: TypeContext, v: str):
    """The layout half of ``moment_match``, from the contexts alone.

    ``weight`` is the weight table's context (None for no table) and
    ``batch`` the component family's batch context.  Returns the
    context the matched factor and its weight keep, and the layout
    ``match`` runs on: the union's bounds, the mixture axis, the
    alignments of both inputs over the union, the ``SUB`` layout of the
    matched normalizer against the union, and the axis the weight folds.
    """
    union = batch if weight is None else weight.union(batch)
    if v not in union:
        raise NameAbsent(f"{v!r} indexes neither the weights nor the factor")
    kept = union.remove(v)
    bounds = tuple(tp.size for _, tp in union.entries)
    w_align = None if weight is None else align_layout(weight, union)
    # The difference's context is ``union`` itself (``kept`` adds no
    # names), so the folded weight is over ``kept``.
    diff, sub = pointwise_layout([union, kept], (0, 0))
    return kept, (
        bounds,
        union.names.index(v),
        align_layout(batch, union),
        w_align,
        sub,
        diff.names.index(v),
    )


def match(layout, weight: Optional[np.ndarray], info: np.ndarray, prec: np.ndarray):
    """The array core of ``moment_match``, on a ``match_layout``.

    Returns the folded weight and the matched factor's ``(info_vec,
    precision)``, laid out as ``GaussianAtom.__init__`` stores them:
    a contiguous information vector and a symmetrized precision.  A cell
    whose components all weigh ``-inf`` matches them evenly, so its
    factor is finite and its weight stays ``-inf``; other cells are
    untouched by that case.
    """
    bounds, axis, g_align, w_align, sub, fold = layout
    d = info.shape[-1]
    i_full = np.broadcast_to(realign(info, g_align), bounds + (d,))
    p_full = np.broadcast_to(realign(prec, g_align), bounds + (d, d))
    inv, z, logw = normalizer(_cholesky_jitter(p_full), i_full)
    inv_t = np.swapaxes(inv, -1, -2)
    mu = (inv_t @ z[..., None])[..., 0]
    cov = inv_t @ inv
    if weight is not None:
        logw = ADD.apply(realign(weight, w_align), logw)
    total = logsumexp(logw, axis)
    dead = np.isneginf(total)
    some_dead = dead.any()
    if some_dead:
        total = np.where(dead, 0.0, total)
    p = np.exp(logw - np.expand_dims(total, axis))
    if some_dead:
        p = np.where(np.expand_dims(dead, axis), 1.0, p)
    p = p / np.sum(p, axis=axis, keepdims=True)
    mu2 = np.sum(p[..., None] * mu, axis=axis)
    diff = mu - np.expand_dims(mu2, axis)
    spread = cov + diff[..., :, None] * diff[..., None, :]
    cov2 = np.sum(p[..., None, None] * spread, axis=axis)
    try:
        prec2 = np.linalg.inv(cov2)
    except np.linalg.LinAlgError:
        inv2 = np.linalg.inv(_cholesky_jitter(cov2))
        prec2 = np.swapaxes(inv2, -1, -2) @ inv2
    prec2 = 0.5 * (prec2 + np.swapaxes(prec2, -1, -2))
    info2 = np.ascontiguousarray((prec2 @ mu2[..., None])[..., 0])
    w_out = pointwise(SUB, sub, bounds, [logw, log_normalizer(info2, prec2)])
    return fold_axis(LOGADDEXP_REDUCE, w_out, fold), info2, prec2


def moment_match(
    weight: Optional[TensorAtom], g: GaussianAtom, v: str
) -> Tuple[GaussianAtom, TensorAtom]:
    """Match mean and covariance of a discrete mixture of quadratics.

    ``weight`` holds per-component log weights over ``v`` (None for a
    uniform-zero table); ``g`` is the component family, batched over
    ``v`` when components differ.  Returns the matched factor with ``v``
    gone from its batch and the total-mass tensor: the ``logaddexp``
    reduction over ``v`` of table plus component normalizer, less the
    matched factor's own normalizer, so that weight times matched factor
    integrates to exactly the mixture's mass.  The components' normalizers
    come from the same factorization as their means and covariances.
    Where every component weighs ``-inf`` the total mass is ``-inf`` and
    the matched factor is their even mixture.  The layout comes from
    ``match_layout`` and the arithmetic from ``match``, which a replayed
    plan runs on raw arrays.
    """
    kept, layout = match_layout(
        None if weight is None else weight.context, g.batch, v
    )
    w, info, prec = match(
        layout, None if weight is None else weight.data, g.info_vec, g.precision
    )
    matched = GaussianAtom._unchecked(kept, g.reals, info, prec)
    return matched, TensorAtom._unchecked(kept, w)


def match_kind(op, table: Optional[TypeContext], gaussian, v: str) -> Optional[str]:
    """How moment matching reduces ``v``, in ``reduction_kind``'s terms.

    ``"match"`` for a ``logaddexp`` over a label the quadratic factor is
    batched over: a mixture, which ``moment_match`` collapses onto its
    weight table as the rule does.  Exact's kind otherwise.
    """
    if op.name == "logaddexp" and gaussian is not None and v in gaussian[0]:
        return "match"
    return reduction_kind(op, table, gaussian, v)


def mixture_form(node: Reduce) -> Optional[NormalForm]:
    """The body's normal form where ``node`` reduces a mixture, else None.

    A mixture is a ``logaddexp`` over a label the quadratic factor is
    batched over, in a body of tables and quadratic factors: the one
    reduction Exact leaves lazy that both approximate rules take.
    """
    v, types = node.var, node.body.free_vars
    if node.op.name != "logaddexp" or not isinstance(types.typeof(v), Bounded):
        return None
    nf = normal_form_from_parts(flatten_product(node.body))
    if nf.deltas or nf.lazy_rest or nf.gaussian is None or v not in nf.gaussian.batch:
        return None
    return nf


class MomentMatching(Interpretation):
    """Collapse quadratic mixtures at each reduction, exactly elsewhere.

    A closed chain's sequential scan keeps ``window`` states joint and
    collapses the oldest when the next arrives.
    """

    def __init__(self, window: int = 1):
        if window < 1:
            raise BoundsError(f"window must be at least 1, got {window}")
        super().__init__(
            "momentmatching",
            rules=[Rule(Reduce, self._h_reduce, "match-moments")],
            fallback=EXACT,
            classify=match_kind,
        )
        self.window = window

    def _h_reduce(self, node: Reduce) -> Optional[Term]:
        nf = mixture_form(node)
        if nf is not None:
            return reduce_normal_form(node.op, nf, node.var, match_kind)


def mc_sample_discrete(
    w: TensorAtom, v: str, rest: Optional[Term], rng: RngState, particles=TypeContext()
) -> Term:
    """Estimate a ``logaddexp`` reduction over ``v`` by sampling it.

    Draws one categorical index per remaining batch cell of the logits
    ``w``, and per cell of the ``particles`` context that ``w`` lacks, then
    returns the total weight plus ``rest`` with the draw pinned in.  The
    value is an unbiased estimate of the exact reduction.
    """
    tp = w.context.typeof(v)
    w_total = tensor_reduce(LOGADDEXP_REDUCE, w, v)
    axis = w.context.names.index(v)
    logits = np.moveaxis(w.data, axis, -1)
    probs = np.exp(logits - logsumexp(w.data, axis)[..., None])
    flat = probs.reshape(-1, tp.size)
    ctx = w.context.remove(v).union(particles)
    bounds = tuple(t.size for _, t in ctx.entries)
    u = rng.generator().random(bounds).reshape(flat.shape[0], -1, 1)
    cdf = np.cumsum(flat, axis=-1)[:, None, :]
    cdf[..., -1] = 1.0
    draws = np.sum(u > cdf, axis=-1).astype(np.float64).reshape(bounds)
    inner: Term = DeltaLeaf(DeltaAtom(v, TensorAtom._unchecked(ctx, draws, tp)))
    if rest is not None:
        inner = lift(ADD, inner, rest)
    return lift(ADD, TensorLeaf(w_total), reduce_term(LOGADDEXP_REDUCE, v, inner))


class MonteCarlo(Interpretation):
    """Sample the mixtures Exact leaves lazy, reducing the rest exactly.

    ``samples`` particles are drawn in one evaluation, over the context
    ``particles`` (one fresh bounded variable, or none for one sample),
    which a result holds only where a draw was made.  Each of its cells
    is an unbiased estimate, so their log-mean-exp is one as well.
    """

    def __init__(self, state, samples: int = 1):
        if isinstance(state, (int, np.integer)):
            state = RngState(int(state))
        if samples < 1:
            raise BoundsError(f"montecarlo needs at least one sample, got {samples}")
        self.state: RngState = state
        self.particles = TypeContext(
            [(fresh_name("particle"), Bounded(samples))] if samples > 1 else []
        )
        self.draws = 0
        super().__init__(
            "montecarlo",
            rules=[Rule(Reduce, self._h_reduce, "sample-reduction")],
            fallback=EXACT,
            classify=reduction_kind,
        )

    def _h_reduce(self, node: Reduce) -> Optional[Term]:
        nf = mixture_form(node)
        if nf is None:
            return None
        v, w = node.var, nf.tensor
        if w is None or v not in w.context:  # the label's values weigh evenly
            zeros = zeros_tensor(TypeContext([(v, nf.gaussian.batch.typeof(v))]))
            w = zeros if w is None else tensor_apply(ADD, [w, zeros])
        state = self.state.advance(self.draws)
        self.draws += 1
        rest = GaussianLeaf(nf.gaussian)
        return mc_sample_discrete(w, v, rest, state, self.particles)
