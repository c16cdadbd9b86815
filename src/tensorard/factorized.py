"""Factorized weight representations: CP, Tucker, TT and TTM.

A :class:`FactorizedLayer` stores one weight's factor set, each factor as a
pair of (mean, std) arrays, plus the per-rank prior variances that drive
automatic rank determination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dense

__all__ = [
    "KINDS",
    "SIGMA_FLOOR",
    "RANK_VAR_FLOOR",
    "GaussianFactor",
    "FactorizedLayer",
    "RankCollapsedError",
    "reconstruct",
    "backprop_reconstruction",
    "param_count",
    "param_count_at_max_ranks",
    "prune",
    "inferred_ranks",
    "prior_variance_arrays",
    "init_layer",
    "layer_state",
    "layer_from_state",
]

KINDS = ("cp", "tucker", "tt", "ttm")

# Smallest stddev the trainer keeps; the -1/sigma gradient diverges at 0.
SIGMA_FLOOR = 1e-6
# Rank variances are clamped here between updates so the KL stays finite.
RANK_VAR_FLOOR = 1e-12


class RankCollapsedError(RuntimeError):
    """Raised when pruning would remove every rank component of some mode."""


@dataclass
class GaussianFactor:
    """Elementwise-independent Gaussian tensor stored as (mean, std) arrays."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = dense.as_tensor(self.mean)
        self.std = dense.as_tensor(self.std)
        if self.mean.shape != self.std.shape:
            raise ValueError(
                f"mean shape {self.mean.shape} != std shape {self.std.shape}"
            )
        if np.any(self.std < 0):
            raise ValueError("stddev entries must be nonnegative")

    @property
    def shape(self):
        return self.mean.shape

    def copy(self) -> "GaussianFactor":
        return GaussianFactor(self.mean.copy(), self.std.copy())


@dataclass
class FactorizedLayer:
    """One weight tensor in a low-rank format with variational factors.

    Parameters
    ----------
    kind : str
        One of ``"cp"``, ``"tucker"``, ``"tt"``, ``"ttm"``.
    factors : list of GaussianFactor
        CP: d matrices (I_n, R).  Tucker: d matrices (I_n, R_n) followed by
        the core (R_1..R_d).  TT: d cores (R_{n-1}, I_n, R_n) with boundary
        ranks 1.  TTM: d cores (R_{n-1}, I_n, J_n, R_n).
    rank_variances : list of 1-d arrays
        Per-rank prior variances.  CP has a single vector of length R,
        Tucker one vector per mode, TT/TTM one vector per interior bond
        (the last bond vector is shared by the last two cores).
    row_dims, col_dims : lists of int
        Folding metadata.  The layer represents a flat buffer of
        prod(row_dims)*prod(col_dims) entries; for TTM the two lists must
        have equal length d and pair up with the cores.
    max_ranks : int or list of int
        The ranks the layer was initialized with (pruning only shrinks the
        current ranks, never this record).
    """

    kind: str
    factors: list
    rank_variances: list
    row_dims: list
    col_dims: list
    max_ranks: object = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown format kind {self.kind!r}")
        self.row_dims = [int(d) for d in self.row_dims]
        self.col_dims = [int(d) for d in self.col_dims]
        self.factors = list(self.factors)
        self.rank_variances = [
            np.ascontiguousarray(v, dtype=np.float64).reshape(-1)
            for v in self.rank_variances
        ]
        for v in self.rank_variances:
            if np.any(v <= 0):
                raise ValueError("rank variances must be strictly positive")
        if self.max_ranks is None:
            self.max_ranks = self.ranks
        self._validate_shapes()

    # -- structural queries ------------------------------------------------

    @property
    def tensor_dims(self) -> tuple:
        """Shape of the full (folded) weight tensor this layer represents."""
        return tuple(self.row_dims) + tuple(self.col_dims)

    @property
    def order(self) -> int:
        """Number of cores / factor matrices (excluding the Tucker core)."""
        if self.kind == "ttm":
            return len(self.row_dims)
        return len(self.row_dims) + len(self.col_dims)

    @property
    def ranks(self):
        """Current ranks: int for CP, per-mode tuple for Tucker, interior bond tuple for TT/TTM."""
        if self.kind == "cp":
            return self.factors[0].shape[1]
        if self.kind == "tucker":
            return tuple(f.shape[1] for f in self.factors[:-1])
        return tuple(f.shape[-1] for f in self.factors[:-1])

    def point_means(self) -> list:
        return [f.mean for f in self.factors]

    def copy(self) -> "FactorizedLayer":
        return FactorizedLayer(
            kind=self.kind,
            factors=[f.copy() for f in self.factors],
            rank_variances=[v.copy() for v in self.rank_variances],
            row_dims=list(self.row_dims),
            col_dims=list(self.col_dims),
            max_ranks=self.max_ranks,
        )

    def _validate_shapes(self):
        d = self.order
        dims = self.tensor_dims
        if self.kind == "cp":
            if len(self.factors) != d:
                raise ValueError(f"CP needs {d} factor matrices, got {len(self.factors)}")
            r = self.factors[0].shape[1]
            for n, f in enumerate(self.factors):
                if f.shape != (dims[n], r):
                    raise ValueError(
                        f"CP factor {n} has shape {f.shape}, expected {(dims[n], r)}"
                    )
            if len(self.rank_variances) != 1 or self.rank_variances[0].size != r:
                raise ValueError("CP needs a single rank-variance vector of length R")
        elif self.kind == "tucker":
            if len(self.factors) != d + 1:
                raise ValueError(f"Tucker needs {d} matrices plus a core")
            core = self.factors[-1]
            if core.mean.ndim != d:
                raise ValueError(f"Tucker core must have order {d}")
            for n, f in enumerate(self.factors[:-1]):
                if f.shape != (dims[n], core.shape[n]):
                    raise ValueError(
                        f"Tucker factor {n} has shape {f.shape}, expected "
                        f"{(dims[n], core.shape[n])}"
                    )
            if len(self.rank_variances) != d:
                raise ValueError(f"Tucker needs {d} rank-variance vectors")
            for n, v in enumerate(self.rank_variances):
                if v.size != core.shape[n]:
                    raise ValueError(f"rank-variance vector {n} has wrong length")
        elif self.kind in ("tt", "ttm"):
            if d < 2:
                raise ValueError(f"{self.kind} needs at least 2 cores")
            if len(self.factors) != d:
                raise ValueError(f"{self.kind} needs {d} cores, got {len(self.factors)}")
            if self.kind == "ttm" and len(self.row_dims) != len(self.col_dims):
                raise ValueError("TTM needs equal-length row and column dims")
            bond = 1
            for n, f in enumerate(self.factors):
                shape = f.shape
                want_order = 3 if self.kind == "tt" else 4
                if len(shape) != want_order:
                    raise ValueError(f"core {n} must have order {want_order}")
                if shape[0] != bond:
                    raise ValueError(
                        f"core {n} leading rank {shape[0]} != previous trailing rank {bond}"
                    )
                if self.kind == "tt":
                    if shape[1] != dims[n]:
                        raise ValueError(f"core {n} mode size {shape[1]} != {dims[n]}")
                else:
                    if shape[1] != self.row_dims[n] or shape[2] != self.col_dims[n]:
                        raise ValueError(
                            f"core {n} paired sizes {shape[1:3]} != "
                            f"{(self.row_dims[n], self.col_dims[n])}"
                        )
                bond = shape[-1]
            if bond != 1:
                raise ValueError("trailing bond rank must be 1")
            if len(self.rank_variances) != d - 1:
                raise ValueError(f"{self.kind} needs {d - 1} rank-variance vectors")
            for n, v in enumerate(self.rank_variances):
                if v.size != self.factors[n].shape[-1]:
                    raise ValueError(f"rank-variance vector {n} has wrong length")


# -- reconstruction ---------------------------------------------------------


def reconstruct(kind: str, factors) -> np.ndarray:
    """Materialize the full weight tensor from point-valued factors."""
    factors = [np.asarray(f, dtype=np.float64) for f in factors]
    if kind == "cp":
        return _cp_full(factors)
    if kind == "tucker":
        return _tucker_full(factors)
    if kind == "tt":
        return _tt_full(factors)
    if kind == "ttm":
        return _ttm_full(factors)
    raise ValueError(f"unknown format kind {kind!r}")


def _split(dims) -> int:
    """Number of leading modes whose size product is closest to the rest's.

    The modes ``dims[:s]`` and ``dims[s:]`` form the left and right sides of
    the CP and Tucker kernels; balancing them keeps both side GEMMs small.
    """
    return min(
        range(1, max(len(dims), 2)),
        key=lambda s: max(math.prod(dims[:s]), math.prod(dims[s:])),
    )


def _cp_full(mats):
    dims = [m.shape[0] for m in mats]
    if len(mats) == 1:
        return mats[0].sum(axis=1)
    s = _split(dims)
    left = dense.khatri_rao(mats[:s])
    right = dense.khatri_rao(mats[s:])
    return (left @ right.T).reshape(dims)


def _tucker_full(factors):
    core, mats = factors[-1], factors[:-1]
    out = core
    for n, u in enumerate(mats):
        out = dense.mode_n_product(out, u, n)
    return out


def _tt_full(cores):
    out = cores[0][0]
    for core in cores[1:]:
        out = np.tensordot(out, core, axes=([-1], [0]))
    return out[..., 0]


def _ttm_full(cores):
    merged = [c.reshape(c.shape[0], c.shape[1] * c.shape[2], c.shape[3]) for c in cores]
    out = _tt_full(merged)
    d = len(cores)
    paired = out.reshape([s for c in cores for s in c.shape[1:3]])
    perm = list(range(0, 2 * d, 2)) + list(range(1, 2 * d, 2))
    return np.ascontiguousarray(paired.transpose(perm))


# -- backpropagation through reconstruction ---------------------------------


def backprop_reconstruction(kind: str, factors, grad) -> list:
    """Exact gradients of a scalar loss w.r.t. every factor entry.

    ``grad`` holds the loss gradient w.r.t. the full tensor; the result is a
    list of arrays, one per factor, in the layer's factor order.  Each format
    passes over the full ``grad`` only a fixed number of times:

    - CP: the modes split into a left and a right side of near-equal size
      products.  One GEMM per side, ``G @ KR(right)`` and
      ``G.T @ KR(left)`` with ``G`` the (left, right) matricization and
      ``KR`` the Khatri-Rao product, gives each side's partial MTTKRP; a
      small Hadamard contraction within the side finishes each mode
      (a two-leaf MTTKRP dimension tree).
    - Tucker: with the same split, ``G`` is projected once onto the
      right-side factors and once onto the left-side factors.  The core
      gradient and every factor gradient are contracted from those two
      shared partials.
    - TT: one left-to-right sweep.  At core i the running contraction of
      ``G`` with cores 0..i-1, reshaped to ``(r_i * I_i, I_{i+1}...)``,
      times the right environment of cores i+1.. gives the core's gradient,
      and the core's transpose times it gives the next contraction.  The
      right environments are built once from the cores; every step is a
      plain GEMM on reshapes.
    - TTM: one transpose of ``G`` into the paired (I_n, J_n) layout, then
      the TT sweep with each pair merged into one mode.
    """
    factors = [np.asarray(f, dtype=np.float64) for f in factors]
    grad = np.asarray(grad, dtype=np.float64)
    want = reconstruct_shape(kind, factors)
    if grad.shape != want:
        raise ValueError(f"gradient shape {grad.shape} != tensor shape {want}")
    if kind == "cp":
        return _cp_backprop(factors, grad)
    if kind == "tucker":
        return _tucker_backprop(factors, grad)
    if kind == "tt":
        return _tt_backprop(factors, grad)
    if kind == "ttm":
        return _ttm_backprop(factors, grad)
    raise ValueError(f"unknown format kind {kind!r}")


def reconstruct_shape(kind: str, factors) -> tuple:
    if kind == "cp":
        return tuple(f.shape[0] for f in factors)
    if kind == "tucker":
        return tuple(f.shape[0] for f in factors[:-1])
    if kind == "tt":
        return tuple(f.shape[1] for f in factors)
    if kind == "ttm":
        return tuple(f.shape[1] for f in factors) + tuple(f.shape[2] for f in factors)
    raise ValueError(f"unknown format kind {kind!r}")


def _cp_backprop(mats, grad):
    d = len(mats)
    dims = [m.shape[0] for m in mats]
    if d == 1:
        return [np.repeat(grad.reshape(-1, 1), mats[0].shape[1], axis=1)]
    s = _split(dims)
    g = grad.reshape(math.prod(dims[:s]), -1)
    left = _cp_side(mats[:s], g @ dense.khatri_rao(mats[s:]))
    right = _cp_side(mats[s:], g.T @ dense.khatri_rao(mats[:s]))
    return left + right


def _cp_side(mats, partial):
    """Each mode's gradient from its side's partial MTTKRP ``(P_side, R)``.

    ``partial`` already holds the other side's Khatri-Rao contraction; what
    is left for mode n is the Hadamard contraction with the other factors
    of the same side.
    """
    k = len(mats)
    if k == 1:
        return [partial]
    r = k  # subscript of the rank axis
    t = partial.reshape([m.shape[0] for m in mats] + [partial.shape[1]])
    grads = []
    for n in range(k):
        operands = [t, list(range(k + 1))]
        for m in range(k):
            if m != n:
                operands += [mats[m], [m, r]]
        grads.append(np.einsum(*operands, [n, r]))
    return grads


def _tucker_backprop(factors, grad):
    core, mats = factors[-1], factors[:-1]
    d = len(mats)
    s = _split([m.shape[0] for m in mats])
    # Project G once onto each side's factors: the left partial keeps the
    # left modes at full size and the right modes at rank size, and the
    # right partial the other way round.
    left = _project(grad, mats, range(s, d))
    right = _project(grad, mats, range(s))
    mat_grads = []
    for n in range(d):
        side = range(s) if n < s else range(s, d)
        partial = _project(left if n < s else right, mats, [m for m in side if m != n])
        others = [m for m in range(d) if m != n]
        mat_grads.append(np.tensordot(partial, core, axes=(others, others)))
    core_grad = _project(left, mats, range(s))
    return mat_grads + [core_grad]


def _project(tensor, mats, modes):
    """Contract each mode in ``modes`` of ``tensor`` with its factor matrix."""
    for m in modes:
        tensor = dense.mode_n_product(tensor, mats[m].T, m)
    return tensor


def _tt_backprop(cores, grad):
    d = len(cores)
    # rights[i]: cores i..d-1 contracted, as an (r_i, I_i..I_{d-1}) matrix
    rights = [None] * (d + 1)
    rights[d] = np.ones((1, 1))
    for i in range(d - 1, 0, -1):
        r0, n, r1 = cores[i].shape
        rights[i] = (cores[i].reshape(r0 * n, r1) @ rights[i + 1]).reshape(r0, -1)
    # One left-to-right sweep: acc holds G contracted with cores 0..i-1, as
    # an (r_i * I_i, I_{i+1}..I_{d-1}) matrix, so every step is one GEMM.
    grads = []
    acc = grad.reshape(1, -1)
    for i, core in enumerate(cores):
        r0, n, r1 = core.shape
        acc = acc.reshape(r0 * n, -1)
        grads.append((acc @ rights[i + 1].T).reshape(core.shape))
        if i < d - 1:
            acc = core.reshape(r0 * n, r1).T @ acc
    return grads


def _ttm_backprop(cores, grad):
    d = len(cores)
    # Undo the (rows..., cols...) layout back to interleaved pairs, then
    # reuse the TT path with (I_n, J_n) merged into one mode per core.
    perm = list(range(0, 2 * d, 2)) + list(range(1, 2 * d, 2))
    inv = np.argsort(perm)
    paired = grad.transpose(inv)
    merged_grad = paired.reshape([c.shape[1] * c.shape[2] for c in cores])
    merged = [c.reshape(c.shape[0], c.shape[1] * c.shape[2], c.shape[3]) for c in cores]
    merged_grads = _tt_backprop(merged, merged_grad)
    return [g.reshape(c.shape) for g, c in zip(merged_grads, cores)]


# -- parameter counting, pruning, rank reporting -----------------------------


def param_count(layer: FactorizedLayer) -> int:
    """Scalar factor entries at the current ranks (one count per mean)."""
    return int(sum(f.mean.size for f in layer.factors))


def param_count_at_max_ranks(layer: FactorizedLayer) -> int:
    """Scalar factor entries at ``layer.max_ranks``, the count before any pruning."""
    shapes = _factor_shapes(layer.kind, layer.row_dims, layer.col_dims, layer.max_ranks)
    return sum(math.prod(shape) for shape in shapes)


def _keep_masks(layer: FactorizedLayer, threshold: float):
    masks = [v >= threshold for v in layer.rank_variances]
    for n, mask in enumerate(masks):
        if not mask.any():
            raise RankCollapsedError(
                f"rank collapsed to zero: every entry of rank-variance vector {n} "
                f"of a {layer.kind} layer fell below {threshold}"
            )
    return masks


def prune(layer: FactorizedLayer, threshold: float) -> FactorizedLayer:
    """Remove every rank slice whose prior variance fell below ``threshold``.

    Zeroed slices contribute nothing to the reconstruction, so the pruned
    layer reconstructs identically to the zeroed-but-unpruned layer.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    masks = _keep_masks(layer, threshold)
    kind = layer.kind
    new_factors = []
    if kind == "cp":
        (mask,) = masks
        new_factors = [
            GaussianFactor(f.mean[:, mask], f.std[:, mask]) for f in layer.factors
        ]
    elif kind == "tucker":
        for n, f in enumerate(layer.factors[:-1]):
            new_factors.append(GaussianFactor(f.mean[:, masks[n]], f.std[:, masks[n]]))
        core = layer.factors[-1]
        sel = np.ix_(*masks)
        new_factors.append(GaussianFactor(core.mean[sel], core.std[sel]))
    else:
        d = layer.order
        for i, f in enumerate(layer.factors):
            mean, std = f.mean, f.std
            if i < d - 1:
                mean, std = mean[..., masks[i]], std[..., masks[i]]
            if i > 0:
                mean, std = mean[masks[i - 1]], std[masks[i - 1]]
            new_factors.append(GaussianFactor(mean, std))
    new_vars = [v[m] for v, m in zip(layer.rank_variances, masks)]
    return FactorizedLayer(
        kind=kind,
        factors=new_factors,
        rank_variances=new_vars,
        row_dims=list(layer.row_dims),
        col_dims=list(layer.col_dims),
        max_ranks=layer.max_ranks,
    )


def inferred_ranks(layer: FactorizedLayer, threshold: float):
    """Count surviving rank components per rank-variance vector.

    Returns an int for CP, a per-mode tuple for Tucker, and the full bond
    tuple ``(1, r_1, ..., r_{d-1}, 1)`` for TT/TTM.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    counts = [int(np.count_nonzero(v >= threshold)) for v in layer.rank_variances]
    if layer.kind == "cp":
        return counts[0]
    if layer.kind == "tucker":
        return tuple(counts)
    return (1, *counts, 1)


def prior_variance_arrays(layer: FactorizedLayer, weak_prior_var: float) -> list:
    """Per-factor arrays of prior variances, broadcastable to each factor.

    Every factor entry's Gaussian prior variance is the rank variance of the
    slice it lives in; Tucker cores use the weak prior variance instead.
    """
    kind = layer.kind
    rv = layer.rank_variances
    if kind == "cp":
        return [rv[0][None, :] for _ in layer.factors]
    if kind == "tucker":
        out = [rv[n][None, :] for n in range(layer.order)]
        core_shape = layer.factors[-1].shape
        out.append(np.full((1,) * len(core_shape), float(weak_prior_var)))
        return out
    d = layer.order
    out = []
    for i in range(d):
        nd = layer.factors[i].mean.ndim
        if i < d - 1:
            shape = (1,) * (nd - 1) + (rv[i].size,)
            out.append(rv[i].reshape(shape))
        else:
            shape = (rv[d - 2].size,) + (1,) * (nd - 1)
            out.append(rv[d - 2].reshape(shape))
    return out


# -- initialization ----------------------------------------------------------


def init_layer(
    kind: str,
    row_dims,
    col_dims,
    ranks,
    rng: np.random.Generator,
    target_var: float | None = None,
    fan_in: int | None = None,
    std_ratio: float = 0.05,
) -> FactorizedLayer:
    """Random layer whose reconstructed entries have variance ~ ``target_var``.

    Means are i.i.d. N(0, s^2) with s solved from each format's
    multiplicative structure; stddevs start at ``std_ratio * s`` and the
    rank variances at s^2 (their prior-variance role).  ``target_var``
    defaults to 2/fan_in with fan_in = prod(row_dims).
    """
    row_dims = [int(d) for d in row_dims]
    col_dims = [int(d) for d in col_dims]
    if fan_in is None:
        fan_in = math.prod(row_dims)
    if target_var is None:
        target_var = 2.0 / fan_in
    if kind == "ttm":
        d = len(row_dims)
        if len(col_dims) != d:
            raise ValueError("TTM needs equal-length row and column dims")
    else:
        d = len(row_dims) + len(col_dims)

    ranks = _normalize_ranks(kind, d, ranks)
    if kind == "cp":
        mult, n_tensors = ranks, d
    elif kind == "tucker":
        mult, n_tensors = math.prod(ranks), d + 1
    else:
        mult, n_tensors = math.prod(ranks) if ranks else 1, d
    s = (target_var / mult) ** (1.0 / (2 * n_tensors))

    def draw(shape):
        mean = rng.normal(0.0, s, size=shape)
        return GaussianFactor(mean, np.full(shape, std_ratio * s))

    factors = [draw(shape) for shape in _factor_shapes(kind, row_dims, col_dims, ranks)]
    if kind == "cp":
        rank_variances = [np.full(ranks, s * s)]
    else:
        rank_variances = [np.full(r, s * s) for r in ranks]
    return FactorizedLayer(
        kind=kind,
        factors=factors,
        rank_variances=rank_variances,
        row_dims=row_dims,
        col_dims=col_dims,
        max_ranks=ranks,
    )


def _factor_shapes(kind: str, row_dims, col_dims, ranks) -> list:
    """Shapes of a layer's factors, in storage order, at normalized ``ranks``."""
    if kind == "ttm":
        bonds = [1, *ranks, 1]
        return [
            (bonds[n], row_dims[n], col_dims[n], bonds[n + 1])
            for n in range(len(row_dims))
        ]
    dims = list(row_dims) + list(col_dims)
    if kind == "cp":
        return [(n, ranks) for n in dims]
    if kind == "tucker":
        return [(n, r) for n, r in zip(dims, ranks)] + [tuple(ranks)]
    bonds = [1, *ranks, 1]
    return [(bonds[n], dims[n], bonds[n + 1]) for n in range(len(dims))]


def _normalize_ranks(kind: str, order: int, ranks):
    if kind == "cp":
        if not np.isscalar(ranks):
            (ranks,) = list(ranks)
        return int(ranks)
    count = order if kind == "tucker" else order - 1
    if np.isscalar(ranks):
        return [int(ranks)] * count
    ranks = [int(r) for r in ranks]
    if len(ranks) != count:
        raise ValueError(f"{kind} needs {count} rank entries, got {len(ranks)}")
    return ranks


# -- serialization -----------------------------------------------------------


def layer_state(layer: FactorizedLayer):
    """Split a layer into JSON-safe metadata and a dict of flat arrays."""
    meta = {
        "kind": layer.kind,
        "row_dims": list(layer.row_dims),
        "col_dims": list(layer.col_dims),
        "max_ranks": layer.max_ranks
        if isinstance(layer.max_ranks, int)
        else list(layer.max_ranks),
        "factor_shapes": [list(f.shape) for f in layer.factors],
    }
    arrays = {}
    for i, f in enumerate(layer.factors):
        arrays[f"factor{i}_mean"] = f.mean
        arrays[f"factor{i}_std"] = f.std
    for i, v in enumerate(layer.rank_variances):
        arrays[f"rank_var{i}"] = v
    return meta, arrays


def layer_from_state(meta, arrays) -> FactorizedLayer:
    factors = []
    for i, shape in enumerate(meta["factor_shapes"]):
        mean = np.asarray(arrays[f"factor{i}_mean"], dtype=np.float64).reshape(shape)
        std = np.asarray(arrays[f"factor{i}_std"], dtype=np.float64).reshape(shape)
        factors.append(GaussianFactor(mean, std))
    rank_variances = []
    i = 0
    while f"rank_var{i}" in arrays:
        rank_variances.append(np.asarray(arrays[f"rank_var{i}"], dtype=np.float64))
        i += 1
    max_ranks = meta["max_ranks"]
    if not isinstance(max_ranks, int):
        max_ranks = [int(r) for r in max_ranks]
    return FactorizedLayer(
        kind=meta["kind"],
        factors=factors,
        rank_variances=rank_variances,
        row_dims=meta["row_dims"],
        col_dims=meta["col_dims"],
        max_ranks=max_ranks,
    )
