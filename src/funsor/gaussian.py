"""Log-quadratic factors in information form.

A ``GaussianAtom`` represents the log density ``i'x - x'Lx/2`` over the
concatenation ``x`` of its real variables' flattened values, batched over
a context of bounded integer variables.  The parameterization is the
information form: ``i`` is the information vector and ``L`` the precision
matrix.  Atoms are canonicalized to map the zero vector to zero log
density; normalization constants travel separately as tensors.

Precision matrices must be symmetric (tolerance 1e-8) and positive
semidefinite.  Semidefiniteness is checked with a jittered Cholesky
factorization: on failure the factorization is retried once with
``1e-10 * mean(diag) * I`` added, and a second failure raises
``RankDeficient``.  The same policy drives every elimination.

Batched matrix products and matrix-vector products use ``@`` on stacked
arrays (BLAS); affine substitution forms ``M' P M`` and ``M' (i - P m)``
with ``P m`` computed once, and a ground value is the affine substitution
with no coefficients.  Parameters are checked once, where they
enter: covariances at ``models._expect_covariance``, then the factors
built from them by ``GaussianAtom(...)``, which also serves user-built
leaves.  The kernels build every result through ``_unchecked``, which
skips those tests and stores the arrays as given; a kernel whose
arithmetic can leave a precision asymmetric symmetrizes it, as the
constructor does.  A result that rounding left indefinite raises
``RankDeficient`` at its first factorization.

The kernels a chain step runs are split into a half that reads only the
contexts and an array core: ``embed_layout`` and ``embed`` (under
``gaussian_fuse``), ``marginal_layout`` and ``marginalize`` (under
``gaussian_marginalize``), and ``log_normalizer``.  The atom kernels
derive the layout and run the core, so a replay of the cores on raw
arrays computes what they compute.  Every elimination is whitened: the
Cholesky factor ``L`` of the eliminated block is inverted once, and the
rest is matrix products.  Every log normalizer, including
``marginalize``'s weight and those of moment matching, comes from one
core, ``normalizer``, given ``L``.

A precision that repeats along a batch axis stays a stride-0 view, as
model builders and ``gaussian_expand_batch`` make it.  Precision-only
terms (Cholesky factors and their inverses, symmetrization, the
constructor's checks, ``embed``'s sums, the Schur complement) are
computed once per distinct cell (``_distinct``) and broadcast back.
The information vector is never shared.
"""
from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .domains import Bounded, RealArray, TypeContext
from .errors import (
    ContextMismatch,
    FunsorTypeError,
    NameAbsent,
    RankDeficient,
)
from .tensor import (
    TensorAtom,
    align_array,
    align_layout,
    ground_cell,
    realign,
    tensor_cat,
    tensor_index,
)

LOG_2PI = math.log(2.0 * math.pi)


def _distinct(mats: np.ndarray) -> np.ndarray:
    """``mats`` cut to length 1 along each batch axis it repeats along:
    stride 0 and length above 1.  ``mats`` itself when there is none; the
    last two axes are the matrices."""
    if 0 not in mats.strides[:-2]:
        return mats
    cut = [s == 0 and n > 1 for s, n in zip(mats.strides, mats.shape[:-2])]
    if not any(cut):
        return mats
    return mats[tuple(slice(None, 1 if c else None) for c in cut)]


def _spread(mats: np.ndarray, batch: Tuple[int, ...]) -> np.ndarray:
    """``mats``, computed on distinct cells, broadcast back over ``batch``."""
    if mats.shape[:-2] == batch:
        return mats
    return np.broadcast_to(mats, batch + mats.shape[-2:])


def _symmetrize(mats: np.ndarray) -> np.ndarray:
    """``(L + L')/2``, computed on distinct cells."""
    cells = _distinct(mats)
    return _spread((cells + np.swapaxes(cells, -1, -2)) / 2.0, mats.shape[:-2])


def _cholesky_jitter(mats: np.ndarray) -> np.ndarray:
    """Batched Cholesky with one jitter retry; raises ``RankDeficient``."""
    cells = _distinct(mats)
    if cells is not mats:
        return _spread(_cholesky_jitter(cells), mats.shape[:-2])
    try:
        return np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        pass
    diag = np.diagonal(mats, axis1=-2, axis2=-1)
    scale = np.mean(np.abs(diag), axis=-1)[..., None, None]
    scale = np.where(scale > 0.0, scale, 1.0)
    eye = np.eye(mats.shape[-1])
    try:
        return np.linalg.cholesky(mats + 1e-10 * scale * eye)
    except np.linalg.LinAlgError:
        raise RankDeficient(
            "matrix is not positive semidefinite (jittered Cholesky failed)"
        ) from None


def _chol_logdet(chol: np.ndarray) -> np.ndarray:
    return 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)


def _block_offsets(reals: TypeContext) -> Dict[str, Tuple[int, int]]:
    """Each real variable's ``(lo, hi)`` range in the stacked vector."""
    out, pos = {}, 0
    for name, tp in reals.entries:
        out[name] = (pos, pos + tp.num_elements)
        pos += tp.num_elements
    return out


def _check_shapes(batch: TypeContext, reals: TypeContext, i, p):
    dim = sum(tp.num_elements for _, tp in reals.entries)
    bounds = tuple(tp.size for _, tp in batch.entries)
    if i.shape != bounds + (dim,):
        raise FunsorTypeError(f"info vector shape {i.shape}, expected {bounds + (dim,)}")
    if p.shape != bounds + (dim, dim):
        raise FunsorTypeError(
            f"precision shape {p.shape}, expected {bounds + (dim, dim)}"
        )


class GaussianAtom:
    """Batched log-quadratic factor over named real variables."""

    __slots__ = ("batch", "reals", "info_vec", "precision", "_hash")

    def __init__(self, batch: TypeContext, reals: TypeContext, info_vec, precision):
        if not isinstance(batch, TypeContext):
            batch = TypeContext(batch)
        if not isinstance(reals, TypeContext):
            reals = TypeContext(reals)
        for name, tp in batch.entries:
            if not isinstance(tp, Bounded):
                raise ContextMismatch(f"batch variable {name!r} must be bounded")
        if not reals.entries:
            raise ContextMismatch("a Gaussian needs at least one real variable")
        for name, tp in reals.entries:
            if not isinstance(tp, RealArray):
                raise ContextMismatch(f"real variable {name!r} must be real-typed")
        i = np.asarray(info_vec, dtype=np.float64)
        p = np.asarray(precision, dtype=np.float64)
        _check_shapes(batch, reals, i, p)
        c = _distinct(p)
        asym = np.max(np.abs(c - np.swapaxes(c, -1, -2))) if p.size else 0.0
        tol = 1e-8 * max(1.0, float(np.max(np.abs(c))) if p.size else 1.0)
        if asym > tol:
            raise ContextMismatch(f"precision asymmetric beyond tolerance ({asym:.3e})")
        self._fill(batch, reals, np.ascontiguousarray(i), _symmetrize(p))
        _cholesky_jitter(self.precision)

    def _fill(self, batch, reals, info_vec, precision):
        i = np.asarray(info_vec, dtype=np.float64)
        p = np.asarray(precision, dtype=np.float64)
        p.setflags(write=False)
        i.setflags(write=False)
        object.__setattr__(self, "batch", batch)
        object.__setattr__(self, "reals", reals)
        object.__setattr__(self, "info_vec", i)
        object.__setattr__(self, "precision", p)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _unchecked(cls, batch, reals, info_vec, precision):
        """An atom the kernels computed from checked atoms, left unchecked.

        The arrays are stored as given.  Every kernel hands over an
        exactly symmetric precision, symmetrizing it where its arithmetic
        can break symmetry, so results are bit-identical to checked
        construction; a relabel shares its arrays.
        """
        self = object.__new__(cls)
        self._fill(batch, reals, info_vec, precision)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("GaussianAtom is immutable")

    def check(self) -> "GaussianAtom":
        """Re-validate parameter shapes against the declared contexts."""
        _check_shapes(self.batch, self.reals, self.info_vec, self.precision)
        return self

    @property
    def dim(self) -> int:
        return self.info_vec.shape[-1]

    @property
    def context(self) -> TypeContext:
        return self.batch.union(self.reals)

    def offsets(self) -> Dict[str, Tuple[int, int]]:
        return _block_offsets(self.reals)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, GaussianAtom):
            return NotImplemented
        if self.batch != other.batch or self.reals != other.reals:
            return False
        a, b = self, other
        if a.reals.entries != b.reals.entries or a.batch.entries != b.batch.entries:
            b = reorder_like(b, a)
        return bool(
            np.array_equal(a.info_vec, b.info_vec, equal_nan=True)
            and np.array_equal(a.precision, b.precision, equal_nan=True)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            key = (frozenset(self.batch.entries), frozenset(self.reals.entries))
            object.__setattr__(self, "_hash", hash(key))
        return self._hash

    def __repr__(self) -> str:
        return f"GaussianAtom{self.batch.pretty()}|{self.reals.pretty()}"

    def info_atom(self) -> TensorAtom:
        return TensorAtom._unchecked(self.batch, self.info_vec, RealArray((self.dim,)))

    def precision_atom(self) -> TensorAtom:
        out = RealArray((self.dim, self.dim))
        return TensorAtom._unchecked(self.batch, self.precision, out)


def reorder_like(g: GaussianAtom, template: GaussianAtom) -> GaussianAtom:
    """Permute batch axes and real blocks into another atom's order."""
    i = align_array(g.info_vec, g.batch, template.batch)
    p = align_array(g.precision, g.batch, template.batch)
    offs = g.offsets()
    cols: List[int] = []
    for name, _ in template.reals.entries:
        lo, hi = offs[name]
        cols.extend(range(lo, hi))
    i = i[..., cols]
    p = p[..., cols, :][..., :, cols]
    return GaussianAtom._unchecked(template.batch, template.reals, i, p)


def embed_layout(parts, batch: TypeContext, reals: TypeContext):
    """Where ``_embedded`` adds each part, given its ``(batch, reals)``.

    Returns the output's batch bounds and dimension, and per part its
    batch alignment and the row and column selectors of its blocks: a
    slice where they are contiguous, index arrays otherwise.
    """
    offsets = _block_offsets(reals)
    dim = sum(tp.num_elements for _, tp in reals.entries)
    bounds = tuple(tp.size for _, tp in batch.entries)
    places = []
    for part_batch, part_reals in parts:
        cols = [k for name, _ in part_reals.entries for k in range(*offsets[name])]
        if cols == list(range(cols[0], cols[-1] + 1)):
            rows = cols = slice(cols[0], cols[-1] + 1)
        else:
            cols = np.asarray(cols)
            rows = cols[:, None]
        places.append((align_layout(part_batch, batch), rows, cols))
    return bounds, dim, places


def embed(layout, params) -> Tuple[np.ndarray, np.ndarray]:
    """The array core of ``_embedded``: ``params`` are the parts'
    ``(info_vec, precision)`` pairs, added in order into one zeroed pair.
    The precision is shared over the batch axes no part varies along."""
    bounds, dim, places = layout
    info = np.zeros(bounds + (dim,))
    precs = [realign(_distinct(p), a) for (a, _, _), (_, p) in zip(places, params)]
    cells = bounds and tuple(map(max, zip(*[p.shape[:-2] for p in precs])))
    prec = np.zeros(cells + (dim, dim))
    for (align, rows, cols), (i, _), p in zip(places, params, precs):
        info[..., cols] += realign(i, align)
        prec[..., rows, cols] += p
    return info, _spread(prec, bounds)


def _embedded(
    parts: Sequence[GaussianAtom], batch: TypeContext, reals: TypeContext
) -> Tuple[np.ndarray, np.ndarray]:
    """The parts' summed parameters over ``batch`` and the blocks of ``reals``."""
    layout = embed_layout([(g.batch, g.reals) for g in parts], batch, reals)
    return embed(layout, [(g.info_vec, g.precision) for g in parts])


def gaussian_fuse(a: GaussianAtom, b: GaussianAtom) -> GaussianAtom:
    """Multiply two factors: information vectors and precisions are added.

    Real blocks missing from one operand are zero-padded; batch contexts
    are broadcast over their union.  The sum of two symmetric precisions
    is exactly symmetric, so it is not symmetrized again.
    """
    union_batch = a.batch.union(b.batch)
    reals = a.reals.union(b.reals)
    i, p = _embedded([a, b], union_batch, reals)
    return GaussianAtom._unchecked(union_batch, reals, i, p)


def gaussian_eval(g: GaussianAtom, assignment: Dict[str, np.ndarray]) -> np.ndarray:
    """Log density at ground real values, batched over the batch context."""
    parts = []
    for name, tp in g.reals.entries:
        try:
            v = np.asarray(assignment[name], dtype=np.float64)
        except KeyError:
            raise NameAbsent(f"no value for real variable {name!r}") from None
        if v.shape != tp.shape:
            raise FunsorTypeError(
                f"value for {name!r} has shape {v.shape}, expected {tp.shape}"
            )
        parts.append(v.reshape(-1))
    x = np.concatenate(parts) if parts else np.zeros(0)
    return g.info_vec @ x - 0.5 * ((g.precision @ x) @ x)


def gaussian_log_normalizer(g: GaussianAtom) -> TensorAtom:
    """Log integral over all real variables, as a tensor over the batch."""
    return TensorAtom._unchecked(g.batch, log_normalizer(g.info_vec, g.precision))


def log_normalizer(info: np.ndarray, prec: np.ndarray) -> np.ndarray:
    """The array core of ``gaussian_log_normalizer``."""
    return normalizer(_cholesky_jitter(_distinct(prec)), info)[2]


def normalizer(chol: np.ndarray, info: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Whiten ``i'x - x'Px/2`` by the Cholesky factor ``chol = L`` of ``P``.

    Returns ``L^-1``, inverted once per distinct cell of ``chol``, the
    whitened information ``z = L^-1 i``, and the log integral
    ``d/2 log 2pi - sum log diag L + z'z/2`` (batched).  A caller that
    needs the mean ``P^-1 i`` takes it as ``L^-T z``.
    """
    cells = _distinct(chol)
    inv = np.linalg.inv(cells)
    z = (inv @ info[..., None])[..., 0]
    logdet = _chol_logdet(cells)
    return inv, z, 0.5 * info.shape[-1] * LOG_2PI - 0.5 * logdet + 0.5 * np.sum(z * z, axis=-1)


def marginal_layout(reals: TypeContext, name: str):
    """The kept (``u``) and eliminated (``v``) coordinates of ``name``."""
    offs = _block_offsets(reals)
    if name not in offs:
        raise NameAbsent(f"{name!r} not a real variable of {reals.pretty()}")
    lo, hi = offs[name]
    dim = sum(tp.num_elements for _, tp in reals.entries)
    v = np.arange(lo, hi)
    u = np.asarray([k for k in range(dim) if not lo <= k < hi], dtype=np.int64)
    return u, v


def marginalize(u: np.ndarray, v: np.ndarray, info: np.ndarray, prec: np.ndarray):
    """The array core of ``gaussian_marginalize`` for a nonempty ``u``.

    Returns the log-normalizer over ``v`` and the Schur-complement
    remainder over ``u`` in whitened form: with ``W = L^-1 P_vu`` and
    ``z = L^-1 i_v``, the remainder is ``i_u - W'z`` and ``P_uu - W'W``,
    its precision symmetrized as ``__init__`` does.  ``W`` is computed
    once per distinct cell.
    """
    cells = _distinct(prec)
    p_uu = cells[..., u[:, None], u[None, :]]
    p_vu = cells[..., v[:, None], u[None, :]]
    p_vv = cells[..., v[:, None], v[None, :]]
    inv, z, w = normalizer(_cholesky_jitter(p_vv), info[..., v])
    wt = np.swapaxes(inv @ p_vu, -1, -2)
    i_new = info[..., u] - (wt @ z[..., None])[..., 0]
    p_new = p_uu - wt @ np.swapaxes(wt, -1, -2)
    p_new = _spread((p_new + np.swapaxes(p_new, -1, -2)) / 2.0, prec.shape[:-2])
    return w, i_new, p_new


def gaussian_marginalize(
    g: GaussianAtom, name: str
) -> Tuple[TensorAtom, Optional[GaussianAtom]]:
    """Integrate out one real variable.

    Returns the log-normalizer tensor and the Schur-complement remainder
    (``None`` when ``name`` was the only real variable).
    """
    u, v = marginal_layout(g.reals, name)
    if len(u) == 0:
        return gaussian_log_normalizer(g), None
    w, i_new, p_new = marginalize(u, v, g.info_vec, g.precision)
    rest = GaussianAtom._unchecked(g.batch, g.reals.remove(name), i_new, p_new)
    return TensorAtom._unchecked(g.batch, w), rest


def gaussian_substitute(
    g: GaussianAtom, name: str, value: TensorAtom
) -> Tuple[TensorAtom, Optional[GaussianAtom]]:
    """Plug ground (possibly batched) values in for one real variable.

    This is the affine substitution with no coefficients: the result is
    the constant tensor ``i_v'x - x'L_vv x/2`` plus, when other real
    variables remain, a Gaussian with the cross terms folded into its
    information vector.
    """
    return gaussian_affine_substitute(g, name, value, ())


def gaussian_plated_product(g: GaussianAtom, name: str) -> GaussianAtom:
    """Product over a batch variable: parameters sum along its axis."""
    if name not in g.batch:
        raise NameAbsent(f"{name!r} not a batch variable of {g!r}")
    axis = g.batch.names.index(name)
    i = np.sum(g.info_vec, axis=axis)
    p = np.sum(g.precision, axis=axis)
    return GaussianAtom._unchecked(g.batch.remove(name), g.reals, i, p)


def gaussian_index_batch(g: GaussianAtom, name: str, idx: TensorAtom) -> GaussianAtom:
    """Substitute integer values for one batch variable (a gather).

    A ground index selects one cell along the axis: a view.
    """
    if not idx.context:
        cell = ground_cell(g.batch, name, idx)
        return GaussianAtom._unchecked(
            g.batch.remove(name), g.reals, g.info_vec[cell], g.precision[cell]
        )
    i = tensor_index(g.info_atom(), name, idx)
    p = tensor_index(g.precision_atom(), name, idx)
    return GaussianAtom._unchecked(i.context, g.reals, i.data, p.data)


def gaussian_cat(name: str, parts: Sequence[GaussianAtom]) -> GaussianAtom:
    """Concatenate factors along one batch variable.

    Parts lacking the variable contribute one position; real blocks are
    aligned over the union layout with zero padding.
    """
    reals = TypeContext()
    for g in parts:
        reals = reals.union(g.reals)
    infos, precs = [], []
    for g in parts:
        iv, pv = _embedded([g], g.batch, reals)
        infos.append(TensorAtom._unchecked(g.batch, iv, RealArray(iv.shape[-1:])))
        precs.append(TensorAtom._unchecked(g.batch, pv, RealArray(pv.shape[-2:])))
    i = tensor_cat(name, infos)
    p = tensor_cat(name, precs)
    return GaussianAtom._unchecked(i.context, reals, i.data, p.data)


def gaussian_affine_substitute(
    g: GaussianAtom,
    name: str,
    const: TensorAtom,
    coeffs: Sequence[Tuple[str, RealArray, TensorAtom]],
) -> Tuple[TensorAtom, Optional[GaussianAtom]]:
    """Substitute ``name := const + sum_j A_j u_j`` into the factor.

    ``const`` has the substituted variable's (real) output type; each
    coefficient is ``(u_name, u_type, A)`` with ``A`` an index-free-shape
    ``(dim(name), dim(u))`` matrix tensor, possibly batched over bounded
    variables.  Retained real variables keep their blocks; coefficients
    may target retained variables, in which case contributions add.
    """
    tp = g.reals.typeof(name)
    dv = tp.num_elements
    if const.output != tp:
        raise FunsorTypeError(
            f"affine constant must have type {tp.pretty()}, got {const.output.pretty()}"
        )
    new_reals = g.reals.remove(name)
    for u_name, u_type, mat in coeffs:
        new_reals = new_reals.union(TypeContext([(u_name, u_type)]))
        du = u_type.num_elements
        if mat.output != RealArray((dv, du)):
            raise FunsorTypeError(
                f"coefficient for {u_name!r} must be R{dv}x{du},"
                f" got {mat.output.pretty()}"
            )
    coeff_axes = TypeContext()
    for _, _, mat in coeffs:
        coeff_axes = coeff_axes.union(mat.context)
    union = g.batch.union(const.context).union(coeff_axes)
    bounds = tuple(t.size for _, t in union.entries)
    old_offsets = g.offsets()
    vlo, vhi = old_offsets[name]
    m_vec = np.zeros(bounds + (g.dim,))
    m_vec[..., vlo:vhi] = align_array(
        const.data.reshape(const.data.shape[: len(const.context)] + (dv,)),
        const.context,
        union,
    )
    i_old = align_array(g.info_vec, g.batch, union)
    p_old = align_array(g.precision, g.batch, union)
    p_m = (p_old @ m_vec[..., None])[..., 0]
    t = np.sum(i_old * m_vec, axis=-1) - 0.5 * np.sum(m_vec * p_m, axis=-1)
    const_out = TensorAtom._unchecked(union, t)
    if not new_reals.entries:
        return const_out, None

    # The map varies only along the coefficients' axes, so the precision
    # is not copied along axes only the constant has.
    new_offsets = _block_offsets(new_reals)
    d_new = sum(t.num_elements for _, t in new_reals.entries)
    map_bounds = tuple(t.size if n in coeff_axes else 1 for n, t in union.entries)
    m_map = np.zeros(map_bounds + (g.dim, d_new))
    for n, _ in g.reals.entries:
        if n != name:
            m_map[..., np.arange(*old_offsets[n]), np.arange(*new_offsets[n])] = 1.0
    for u_name, u_type, mat in coeffs:
        nlo, nhi = new_offsets[u_name]
        block = align_array(
            mat.data.reshape(mat.data.shape[: len(mat.context)] + (dv, u_type.num_elements)),
            mat.context,
            union,
        )
        m_map[..., vlo:vhi, nlo:nhi] += block

    m_t = np.swapaxes(m_map, -1, -2)
    i_new = (m_t @ (i_old - p_m)[..., None])[..., 0]
    p_new = _symmetrize(np.broadcast_to(m_t @ p_old @ m_map, bounds + (d_new, d_new)))
    return const_out, GaussianAtom._unchecked(union, new_reals, i_new, p_new)


def gaussian_rename(g: GaussianAtom, mapping: Dict[str, str]) -> GaussianAtom:
    """Relabel batch and real variables without touching parameters."""
    batch = TypeContext([(mapping.get(n, n), t) for n, t in g.batch.entries])
    reals = TypeContext([(mapping.get(n, n), t) for n, t in g.reals.entries])
    return GaussianAtom._unchecked(batch, reals, g.info_vec, g.precision)


def gaussian_scale(g: GaussianAtom, k: float) -> GaussianAtom:
    """Raise the factor to a positive power: parameters scale linearly."""
    if k <= 0:
        raise FunsorTypeError(f"scale must be positive, got {k}")
    return GaussianAtom._unchecked(g.batch, g.reals, k * g.info_vec, k * g.precision)


def gaussian_expand_batch(g: GaussianAtom, name: str, size: int) -> GaussianAtom:
    """Broadcast the factor over a new batch variable (appended last)."""
    if name in g.batch:
        return g
    batch = g.batch.union(TypeContext([(name, Bounded(size))]))
    bounds = tuple(t.size for _, t in batch.entries)
    i = np.ascontiguousarray(
        np.broadcast_to(align_array(g.info_vec, g.batch, batch), bounds + (g.dim,))
    )
    p = np.broadcast_to(align_array(g.precision, g.batch, batch), bounds + (g.dim,) * 2)
    return GaussianAtom._unchecked(batch, g.reals, i, p)
