"""Factorized weight representations: CP, Tucker, TT and TTM.

A :class:`FactorizedLayer` stores one weight's factor set, each factor as a
pair of (mean, std) arrays, plus the per-rank prior variances that drive
automatic rank determination.

``FORMATS`` maps each format kind to one object that states all the format's
own formulas: shapes, ranks and rank axes, reconstruction and its backprop,
rank caps, the row|col split of a linear product and the embedding row
lookup.  TTM is TT over merged (I_n·J_n) modes, so its class extends TT's,
and both contract their chains of cores through ``_lefts`` and ``_rights``
and sweep every chain's gradient through ``_left_grads`` and
``_right_grads``, each side of the TT split being a chain open at the
boundary bond.  A TTM embedding builds just the looked-up rows, each the TT
chain of each core's slice at the row's digit, batched over the distinct
ids; the lookup hands its sort, slices and left partials to the rows'
backward as a memo, so the backward repeats none of the forward's work.  No
caller tests a format's name.
"""

from __future__ import annotations

import functools
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
    "surviving_counts",
    "json_ranks",
    "prior_slots",
    "rank_moments",
    "init_layer",
    "layer_state",
    "layer_from_state",
    "FORMATS",
]

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
        A key of :data:`FORMATS`, whose entry describes the layout.
    factors : list of GaussianFactor
        The format's factors, in its storage order.
    rank_variances : list of 1-d arrays
        Per-rank prior variances; the format's ``rank_axes`` lists the
        factor slices each vector governs.
    row_dims, col_dims : lists of int
        Folding metadata.  The layer represents a flat buffer of
        prod(row_dims)*prod(col_dims) entries.
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
        FORMATS[self.kind]  # an unknown kind raises ValueError
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
        self._validate_shapes()
        if self.max_ranks is None:
            self.max_ranks = self.ranks

    # -- structural queries ------------------------------------------------

    @property
    def tensor_dims(self) -> tuple:
        """Shape of the full (folded) weight tensor this layer represents."""
        return tuple(self.row_dims) + tuple(self.col_dims)

    @property
    def format(self):
        """The layer's entry of :data:`FORMATS`."""
        return FORMATS[self.kind]

    @property
    def order(self) -> int:
        """Number of cores / factor matrices (excluding the Tucker core)."""
        return self.format.order(self.row_dims, self.col_dims)

    @property
    def ranks(self):
        """Current ranks: int for CP, per-mode tuple for Tucker, interior bond tuple for TT/TTM."""
        return self.format.ranks(self.factors)

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
        fmt = self.format
        fmt.check_dims(self.row_dims, self.col_dims)
        ranks = fmt.normalize_ranks(self.order, [v.size for v in self.rank_variances])
        want = fmt.factor_shapes(self.row_dims, self.col_dims, ranks)
        got = [f.shape for f in self.factors]
        if got != want:
            raise ValueError(
                f"{self.kind} factor shapes {got} do not match {want}, the shapes "
                f"the dims and rank-variance lengths give"
            )


# -- reconstruction and its backprop ------------------------------------------


def reconstruct(kind: str, factors) -> np.ndarray:
    """Materialize the full weight tensor from point-valued factors."""
    return FORMATS[kind].full([np.asarray(f, dtype=np.float64) for f in factors])


def backprop_reconstruction(kind: str, factors, grad) -> list:
    """Exact gradients of a scalar loss w.r.t. every factor entry.

    ``grad`` holds the loss gradient w.r.t. the full tensor; the result is a
    list of arrays, one per factor, in the layer's factor order.  Each format
    passes over ``grad`` a fixed number of times; its ``backprop`` says how.
    """
    fmt = FORMATS[kind]
    factors = [np.asarray(f, dtype=np.float64) for f in factors]
    grad = np.asarray(grad, dtype=np.float64)
    want = fmt.shape(factors)
    if grad.shape != want:
        raise ValueError(f"gradient shape {grad.shape} != tensor shape {want}")
    return fmt.backprop(factors, grad)


# -- the format table -----------------------------------------------------------
#
# A weight folded as (row modes, col modes) splits at that boundary into
# W = L·M·Rᵀ for CP, Tucker and TT, so a batch x of rows multiplies as
# ((x·L)·M)·Rᵀ and neither W nor its gradient is formed.  With g the output
# gradient, the backward pass needs dL = xᵀ(g·R·Mᵀ), dR = gᵀ(x·L·M),
# dM = (x·L)ᵀ(g·R) and the input gradient g·R·Mᵀ·Lᵀ; each format maps dL and
# dR onto its factors.  TTM interleaves row and column modes in every core, so
# it has no such split and still builds W and its gradient.  It splits instead
# at a bond: W = A·B over the bond s that balances the merged (I_n·J_n) sizes,
# written straight into its (rows..., cols...) layout, and dW contracts
# against A and B in two GEMMs (see ``_TTM.backprop``).


class _Format:
    """The rules most formats share; each subclass states its own formulas:
    ``factor_shapes``, ``ranks``, ``rank_axes``, ``rank_caps``, ``full``,
    ``shape``, ``backprop`` and the split (``_split_madds``,
    ``split_forward``, ``split_backward``).  ``rank_axes(order)`` lists each
    rank-variance vector's (factor, axis, is_prior) triples: pruning rank r
    removes index r along ``axis`` of each factor, and where ``is_prior``
    holds the rank variance is also those entries' prior variance.  Rank
    arguments are normalized: an int for CP, else one int per vector.
    """

    name = ""

    def order(self, row_dims, col_dims) -> int:
        return len(row_dims) + len(col_dims)

    def check_dims(self, row_dims, col_dims):
        """Raise ValueError for dims the format cannot fold."""
        dims = [*row_dims, *col_dims]
        if not dims or min(dims) < 1:
            raise ValueError(f"{self.name} needs at least one mode, each of size 1 or more")

    def normalize_ranks(self, order, ranks):
        """One int per rank-variance vector; a scalar fills every entry."""
        count = len(self.rank_axes(order))
        if np.isscalar(ranks):
            return [int(ranks)] * count
        ranks = [int(r) for r in ranks]
        if len(ranks) != count:
            raise ValueError(f"{self.name} needs {count} rank entries, got {len(ranks)}")
        return ranks

    def rank_list(self, ranks) -> list:
        """Normalized ``ranks`` as a list, one entry per rank-variance vector."""
        return list(ranks)

    def report(self, counts):
        """The inferred ranks, from the surviving count of each vector."""
        return tuple(counts)

    def check_rank_caps(self, row_dims, col_dims, ranks):
        """Raise ValueError unless every rank entry fits its structural cap."""
        ranks = self.rank_list(self.normalize_ranks(self.order(row_dims, col_dims), ranks))
        for r, cap in zip(ranks, self.rank_caps(row_dims, col_dims)):
            if r > cap:
                raise ValueError(f"{self.name} rank {r} exceeds the structural cap {cap}")

    @functools.lru_cache(maxsize=None)
    def split_madds(self, shapes: tuple, n_row: int, order: int):
        """Multiply-adds per input row of one training step through the split
        after the first ``n_row`` of ``order`` modes, or inf: each side needs
        a mode.  ``shapes`` are the factor shapes.  The count covers the
        product, the weight gradients and the input gradient, not the
        batch-independent work of building L and R and mapping dL and dR."""
        if not 0 < n_row < order:
            return math.inf
        return self._split_madds(shapes, n_row)

    def lookup_rows(self, table, points, idx):
        """Rows ``idx`` of the table ``points`` build, from the whole table,
        and the memo :meth:`backprop_rows` takes: here ``idx`` itself."""
        full = reconstruct(table.kind, points)
        return full.reshape(math.prod(table.row_dims), math.prod(table.col_dims))[idx], idx

    def backprop_rows(self, table, points, idx, row_grads):
        """Factor gradients from those of the rows :meth:`lookup_rows` looked
        up, through the whole table."""
        table_grad = np.zeros((math.prod(table.row_dims), math.prod(table.col_dims)))
        np.add.at(table_grad, idx, row_grads)
        tensor_grad = table_grad.reshape(table.tensor_dims)
        return backprop_reconstruction(table.kind, points, tensor_grad)


class _CP(_Format):
    """d matrices (I_n, R) and one rank-variance vector of length R.

    Split: L and R are the Khatri-Rao products of the row and the column
    factors; M = I.
    """

    name = "cp"

    def normalize_ranks(self, order, ranks):
        (rank,) = super().normalize_ranks(order, ranks)
        return rank

    def rank_list(self, ranks):
        return [ranks]

    def factor_shapes(self, row_dims, col_dims, ranks):
        return [(n, ranks) for n in [*row_dims, *col_dims]]

    def ranks(self, factors):
        return factors[0].shape[1]

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def rank_axes(order):
        return (tuple((n, 1, True) for n in range(order)),)

    def report(self, counts):
        return counts[0]

    def rank_caps(self, row_dims, col_dims):
        return [min([*row_dims, *col_dims])]

    def full(self, mats):
        dims = [m.shape[0] for m in mats]
        if len(mats) == 1:
            return mats[0].sum(axis=1)
        s = _split(dims)
        left = dense.khatri_rao(mats[:s])
        right = dense.khatri_rao(mats[s:])
        return (left @ right.T).reshape(dims)

    def shape(self, mats):
        return tuple(f.shape[0] for f in mats)

    def backprop(self, mats, grad):
        """One GEMM per side of the modes' split, ``G @ KR(right)`` and
        ``G.T @ KR(left)`` (``KR`` the Khatri-Rao product), gives each side's
        partial MTTKRP; a Hadamard contraction within the side finishes each
        mode (a two-leaf MTTKRP dimension tree)."""
        d = len(mats)
        dims = [m.shape[0] for m in mats]
        if d == 1:
            return [np.repeat(grad.reshape(-1, 1), mats[0].shape[1], axis=1)]
        s = _split(dims)
        g = grad.reshape(math.prod(dims[:s]), -1)
        left = _cp_side(mats[:s], g @ dense.khatri_rao(mats[s:]))
        right = _cp_side(mats[s:], g.T @ dense.khatri_rao(mats[:s]))
        return left + right

    def _split_madds(self, shapes, n_row):
        rows = math.prod(s[0] for s in shapes[:n_row])
        cols = math.prod(s[0] for s in shapes[n_row:])
        # forward x·L, ·Rᵀ; g·R, dL, dR; input gradient (g·R)·Lᵀ
        return 3 * shapes[0][1] * (rows + cols)

    def split_forward(self, mats, n_row, x):
        left = dense.khatri_rao(mats[:n_row])
        right = dense.khatri_rao(mats[n_row:])
        xl = x @ left
        return xl @ right.T, (left, right, xl)

    def split_backward(self, mats, n_row, x, memo, g, need_input_grad):
        left, right, xl = memo
        gr = g @ right
        grads = _cp_side(mats[:n_row], x.T @ gr) + _cp_side(mats[n_row:], g.T @ xl)
        return grads, gr @ left.T if need_input_grad else None


class _Tucker(_Format):
    """d matrices (I_n, R_n) followed by the core (R_1..R_d); one rank-variance
    vector per mode, which also prunes the core along that mode.

    Split: L and R are the Kronecker products of the row and the column
    factor matrices, applied mode by mode and never formed; M is the core
    matricized at the boundary.  A batch axis leads every intermediate.
    """

    name = "tucker"

    def factor_shapes(self, row_dims, col_dims, ranks):
        dims = [*row_dims, *col_dims]
        return [(n, r) for n, r in zip(dims, ranks)] + [tuple(ranks)]

    def ranks(self, factors):
        return tuple(f.shape[1] for f in factors[:-1])

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def rank_axes(order):
        return tuple(((n, 1, True), (order, n, False)) for n in range(order))

    def rank_caps(self, row_dims, col_dims):
        return [*row_dims, *col_dims]

    def full(self, factors):
        core, mats = factors[-1], factors[:-1]
        return _batched_chain(core[None], mats, False, range(len(mats)))[0]

    def shape(self, factors):
        return tuple(f.shape[0] for f in factors[:-1])

    def backprop(self, factors, grad):
        """With the modes split as for CP, the core gradient and every factor
        gradient are contracted from two shared partial projections of G."""
        core, mats = factors[-1], factors[:-1]
        d = len(mats)
        s = _split([m.shape[0] for m in mats])
        # Project G once onto each side's factors: the left partial keeps the
        # left modes at full size and the right modes at rank size, and the
        # right partial the other way round.  G enters as a batch of one.
        left = _batched_chain(grad[None], mats, True, range(s, d))
        right = _batched_chain(grad[None], mats, True, range(s))
        mat_grads = []
        for n in range(d):
            side = range(s) if n < s else range(s, d)
            partial = _batched_chain(left if n < s else right, mats, True,
                                     [m for m in side if m != n])[0]
            others = [m for m in range(d) if m != n]
            mat_grads.append(np.tensordot(partial, core, axes=(others, others)))
        core_grad = _batched_chain(left, mats, True, range(s))[0]
        return mat_grads + [core_grad]

    def _split_madds(self, shapes, n_row):
        dims = [s[0] for s in shapes[:-1]]
        ranks = list(shapes[-1])
        row_i, col_j = dims[:n_row], dims[n_row:]
        row_r, col_r = ranks[:n_row], ranks[n_row:]
        core = math.prod(ranks)
        return (
            _chain_madds(row_i, row_r) + core + _chain_madds(col_r, col_j)  # forward
            + _chain_madds(col_j, col_r) + 2 * core  # g·R, dM, (g·R)·Mᵀ
            + _side_madds(row_i, row_r) + _side_madds(col_j, col_r)  # dL, dR
            + _chain_madds(row_r, row_i)  # input gradient
        )

    def split_forward(self, factors, n_row, x):
        core, mats = factors[-1], factors[:-1]
        batch = x.shape[0]
        rows, cols = mats[:n_row], mats[n_row:]
        x_part, xl = _batched_project(x.reshape(batch, *(u.shape[0] for u in rows)), rows)
        xlm = xl.reshape(batch, -1) @ core.reshape(xl[0].size, -1)
        xlm = xlm.reshape(batch, *(u.shape[1] for u in cols))
        out = _batched_chain(xlm, cols, False, range(len(cols)))
        return out.reshape(batch, -1), (x_part, xl, xlm)

    def split_backward(self, factors, n_row, x, memo, g, need_input_grad):
        core, mats = factors[-1], factors[:-1]
        x_part, xl, xlm = memo
        batch = x.shape[0]
        rows, cols = mats[:n_row], mats[n_row:]
        g = g.reshape(batch, *(u.shape[0] for u in cols))
        g_part, gr = _batched_project(g, cols)
        gr = gr.reshape(batch, -1)
        m = core.reshape(xl[0].size, gr.shape[1])
        core_grad = (xl.reshape(batch, -1).T @ gr).reshape(core.shape)
        grm = (gr @ m.T).reshape(xl.shape)
        x = x.reshape(batch, *(u.shape[0] for u in rows))
        grads = _tucker_side(x, rows, grm, x_part) + _tucker_side(g, cols, xlm, g_part)
        g_in = None
        if need_input_grad:
            g_in = _batched_chain(grm, rows, False, range(n_row)).reshape(batch, -1)
        return grads + [core_grad], g_in


class _TT(_Format):
    """d cores (R_{n-1}, I_n, R_n) with boundary ranks 1; one rank-variance
    vector per interior bond, the last shared by the last two cores.

    Split: L contracts the row cores into an I x r_b matrix and R the column
    cores into an r_b x J one, r_b being the bond at the boundary; M = I.
    """

    name = "tt"

    def check_dims(self, row_dims, col_dims):
        super().check_dims(row_dims, col_dims)
        if self.order(row_dims, col_dims) < 2:
            raise ValueError(f"{self.name} needs at least 2 cores")

    def _modes(self, row_dims, col_dims):
        """Each core's mode sizes, between its two bonds."""
        return [(n,) for n in [*row_dims, *col_dims]]

    def factor_shapes(self, row_dims, col_dims, ranks):
        bonds = [1, *ranks, 1]
        modes = self._modes(row_dims, col_dims)
        return [(bonds[n], *m, bonds[n + 1]) for n, m in enumerate(modes)]

    def ranks(self, factors):
        return tuple(f.shape[-1] for f in factors[:-1])

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def rank_axes(order):
        return tuple(((i, -1, True), (i + 1, 0, i == order - 2)) for i in range(order - 1))

    def report(self, counts):
        return (1, *counts, 1)

    def rank_caps(self, row_dims, col_dims):
        # a bond is capped by the unfolding sizes on either side of it
        sizes = [math.prod(m) for m in self._modes(row_dims, col_dims)]
        return [min(math.prod(sizes[:n]), math.prod(sizes[n:])) for n in range(1, len(sizes))]

    def full(self, cores):
        return _lefts([c[:, :, None] for c in cores])[-1].reshape(self.shape(cores))

    def shape(self, cores):
        return tuple(f.shape[1] for f in cores)

    def backprop(self, cores, grad):
        """The :func:`_right_grads` sweep from bond 0 over the cores' J = 1 views."""
        views = [c[:, :, None] for c in cores]
        grads = _right_grads(views, grad.reshape(1, -1), _rights(views[1:]))
        return [g.reshape(c.shape) for g, c in zip(grads, cores)]

    def _split_madds(self, shapes, n_row):
        rows = math.prod(s[1] for s in shapes[:n_row])
        cols = math.prod(s[1] for s in shapes[n_row:])
        return 3 * shapes[n_row][0] * (rows + cols)  # as for CP at rank r_b

    def split_forward(self, cores, n_row, x):
        views, r = [c[:, :, None] for c in cores], cores[n_row].shape[0]
        left = _lefts(views[:n_row])[-1].reshape(-1, r)
        right = _rights(views[n_row:])[0].reshape(r, -1)
        xl = x @ left
        return xl @ right, (left, right, xl)

    def split_backward(self, cores, n_row, x, memo, g, need_input_grad):
        left, right, xl = memo
        gr = g @ right.T
        # Each side is a chain open at the boundary bond, the last row core
        # entering with the bond as its J.  xᵀ(g·R) is taken as ((g·R)ᵀx)ᵀ, as
        # network._dense_grads takes xᵀg; its reshape copies it into C order.
        views = [c[:, :, None] for c in cores]
        rows = [*views[:n_row - 1], cores[n_row - 1][..., None]]
        grads = (_right_grads(rows, (gr.T @ x).T.reshape(1, -1), _rights(rows[1:]))
                 + _right_grads(views[n_row:], xl.T @ g, _rights(views[n_row + 1:])))
        grads = [d.reshape(c.shape) for d, c in zip(grads, cores)]
        return grads, gr @ left.T if need_input_grad else None


class _TTM(_TT):
    """d cores (R_{n-1}, I_n, J_n, R_n): the TT of the merged (I_n·J_n) modes,
    its full tensor in (rows..., cols...) order.  Row and column modes share
    every core, so no row|col boundary falls between two cores (``n_row``
    equals the order) and the split rule never splits; W and its gradient
    are instead contracted through the bond that balances the merged sizes.
    An embedding builds only its rows, one TT chain over the cores' row
    slices per distinct id (:meth:`lookup_rows`)."""

    name = "ttm"

    def order(self, row_dims, col_dims):
        return len(row_dims)

    def check_dims(self, row_dims, col_dims):
        if len(row_dims) != len(col_dims):
            raise ValueError("TTM needs equal-length row and column dims")
        super().check_dims(row_dims, col_dims)

    def _modes(self, row_dims, col_dims):
        return list(zip(row_dims, col_dims))

    def _sides(self, cores):
        """The balanced bond s, the :func:`_lefts` of the cores before it and
        the :func:`_rights` of the rest: A = lefts[-1] is (I<, J<, r) and
        B = rights[0] is (r, I≥, J≥)."""
        s = _split([c.shape[1] * c.shape[2] for c in cores])
        return s, _lefts(cores[:s]), _rights(cores[s:])

    def full(self, cores):
        """W as A (I<, J<, r) times B (r, I≥, J≥) over the balanced bond:
        one batched product writes it as (I<, I≥, J<, J≥), which is already
        the (rows..., cols...) layout, so W is built once and never
        transposed."""
        if len(cores) == 1:  # one core is its own (I, J) matrix
            return cores[0][0, ..., 0].copy()
        _, lefts, rights = self._sides(cores)
        a, b = lefts[-1], rights[0]
        return np.matmul(a[:, None], b.transpose(1, 0, 2)[None]).reshape(self.shape(cores))

    def shape(self, cores):
        return tuple(f.shape[1] for f in cores) + tuple(f.shape[2] for f in cores)

    def backprop(self, cores, grad):
        """Through the balanced bond of :meth:`full`: G, viewed as
        (I<, I≥, J<, J≥), is transposed once into an (I<·J<, I≥·J≥) matrix;
        then gA = G·Bᵀ and gB = Aᵀ·G are two GEMMs of about I·J·r
        multiply-adds each.  Each side then sweeps from the bond outwards,
        the cores before it through :func:`_left_grads` and the rest through
        :func:`_right_grads`; a side of one core takes its gradient as a
        reshape."""
        if len(cores) == 1:
            return [grad.reshape(cores[0].shape).copy()]
        s, lefts, rights = self._sides(cores)
        (ri, ci, r), (_, ro, co) = lefts[-1].shape, rights[0].shape
        g = grad.reshape(ri, ro, ci, co).transpose(0, 2, 1, 3).reshape(ri * ci, ro * co)
        g_a = g @ rights[0].reshape(r, -1).T
        g_b = lefts[-1].reshape(-1, r).T @ g
        grads = _left_grads(cores[:s], g_a, lefts) + _right_grads(cores[s:], g_b, rights[1:])
        return [d.reshape(c.shape) for d, c in zip(grads, cores)]

    def lookup_rows(self, table, points, idx):
        """The rows of ids ``idx`` and the memo :meth:`backprop_rows` takes.

        One stable sort groups repeated ids.  Each distinct id's row is the
        :func:`_lefts` chain, batched over the distinct ids, of each core's
        (r_k, J_k, r_{k+1}) slice at the id's row digit, entering as I = 1.
        The memo is (firsts, repeats, groups, digits, slices, lefts): the
        position in ``idx`` of each distinct id's first occurrence, the
        positions of the later occurrences in sorted order and each one's
        distinct id, the distinct ids' digits, the slices as I = 1 views and
        every left partial."""
        order = np.argsort(idx, kind="stable")
        ids = idx[order]
        first = np.empty(ids.size, dtype=bool)
        first[:1] = True
        np.not_equal(ids[1:], ids[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        group = np.cumsum(first) - 1
        inverse = np.empty_like(order)
        inverse[order] = group
        repeat = ~first
        u = starts.size
        digits = np.unravel_index(ids[starts], table.row_dims)
        slices = [np.take(np.moveaxis(core, 1, 0), d, axis=0)[:, :, None]
                  for core, d in zip(points, digits)]
        lefts = _lefts(slices)
        rows = lefts[-1].reshape(u, math.prod(table.col_dims))[inverse]
        return rows, (order[starts], order[repeat], group[repeat], digits, slices, lefts)

    def backprop_rows(self, table, points, memo, row_grads):
        """Repeated ids' gradients are summed once: each distinct id's first
        row, then its repeats added in sorted order (``np.add.at``, the
        sequential sum ``np.add.reduceat`` over the sorted groups would take,
        without copying the many ids seen once); the :func:`_left_grads`
        sweep over the slices, entering as I = 1 and batched over the
        distinct ids, against the memo's left partials gives each distinct
        id's slice gradients, two batched GEMMs per core; and a one-hot
        (I_n x U) GEMM adds them into each core's I_n row slices, at a cost
        of I_n*U*r_{n-1}*J_n*r_n, small because TTM row modes are small."""
        firsts, repeats, groups, digits, slices, lefts = memo
        acc = row_grads[firsts]
        np.add.at(acc, groups, row_grads[repeats])
        per_id = _left_grads(slices, acc[..., None], lefts)
        grads = []
        for core, d, g in zip(points, digits, per_id):
            r_in, rows, cols, r_out = core.shape
            one_hot = (d == np.arange(rows)[:, None]).astype(np.float64)
            buf = one_hot @ g.reshape(d.size, r_in * cols * r_out)
            grads.append(np.ascontiguousarray(buf.reshape(rows, r_in, cols, r_out).swapaxes(0, 1)))
        return grads


class _Formats(dict):
    def __missing__(self, kind):
        raise ValueError(f"unknown format kind {kind!r}")


# Every format, keyed by its ``kind`` string; an unknown kind raises ValueError.
FORMATS = _Formats((f.name, f) for f in (_CP(), _Tucker(), _TT(), _TTM()))
KINDS = tuple(FORMATS)


# -- kernel helpers -----------------------------------------------------------


def _split(dims) -> int:
    """Number of leading modes whose size product is closest to the rest's.

    The modes ``dims[:s]`` and ``dims[s:]`` form the left and right sides of
    the CP, Tucker and TTM kernels; balancing them keeps both side GEMMs
    small.
    """
    return min(
        range(1, max(len(dims), 2)),
        key=lambda s: max(math.prod(dims[:s]), math.prod(dims[s:])),
    )


def _lefts(cores):
    """``lefts[k]``: the (..., r0, I, J, r1) cores[:k+1] contracted over their
    bonds as (..., I, J, r), row modes before column modes, one chain per
    entry of the batch axes every core leads with; r_0 = 1.  A TT core
    enters as a J = 1 view, a batch of row slices as I = 1."""
    left = cores[0][..., 0, :, :, :]
    batch, lefts = left.shape[:-3], [left]
    for core in cores[1:]:
        r0, n, m, r1 = core.shape[-4:]
        i, j = left.shape[-3:-1]
        a = left.reshape(batch + (i * j, r0)) @ core.reshape(batch + (r0, n * m * r1))
        if j > 1 and n > 1:  # a size-1 axis moves nothing, as in a TT or a row chain
            a = a.reshape(batch + (i, j, n, m, r1)).swapaxes(-4, -3)
        left = a.reshape(batch + (i * n, j * m, r1))
        lefts.append(left)
    return lefts


def _rights(cores):
    """``rights[k]``: the (r0, I, J, r1) cores[k:] contracted over their bonds
    as (r, I, J), row modes before column modes; r_d = 1; none for no cores."""
    if not cores:
        return []
    rights = [cores[-1][..., 0]]
    for core in reversed(cores[:-1]):
        r0, n, m, r1 = core.shape
        i, j = rights[0].shape[1:]
        b = core.reshape(-1, r1) @ rights[0].reshape(r1, -1)
        if m > 1 and i > 1:
            b = b.reshape(r0, n, m, i, j).swapaxes(2, 3)
        rights.insert(0, b.reshape(r0, n * i, m * j))
    return rights


def _left_grads(cores, g, lefts):
    """Each core's gradient, entries in order, from ``g``, that of ``lefts[-1]``
    (the :func:`_lefts` of ``cores``) as (..., I·J, r), swept right to left:
    the running gradient meets the partial before a core, then the core."""
    batch, grads = g.shape[:-2], []
    for core, left in zip(cores[:0:-1], lefts[-2::-1]):
        r0, n, m, r1 = core.shape[-4:]
        i, j = left.shape[-3:-1]
        if n > 1 and j > 1:
            g = g.reshape(batch + (i, n, j, m * r1)).swapaxes(-3, -2)
        g = g.reshape(batch + (i * j, n * m * r1))
        grads.append(left.reshape(batch + (i * j, r0)).swapaxes(-1, -2) @ g)
        g = g @ core.reshape(batch + (r0, n * m * r1)).swapaxes(-1, -2)
    grads.append(g)
    return grads[::-1]


def _right_grads(cores, g, rights):
    """Each core's gradient, entries in order, from ``g``, that of the chain
    as (r, I·J), swept left to right: the running gradient meets
    ``rights[k]``, the :func:`_rights` of ``cores[k+1:]``, then core k."""
    grads = []
    for core, right in zip(cores, rights):
        r0, n, m, r1 = core.shape
        i, j = right.shape[1:]
        if i > 1 and m > 1:
            g = g.reshape(r0 * n, i, m, j).swapaxes(1, 2)
        g = g.reshape(r0 * n * m, i * j)
        grads.append(g @ right.reshape(r1, -1).T)
        g = core.reshape(-1, r1).T @ g
    grads.append(g)
    return grads


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


def _batched_chain(t, mats, project, modes):
    """Mode k of ``t`` after its leading batch axis times ``mats[k]``, for each
    k in ``modes``: projected onto the factor's columns (``t ×ₖ Uᵀ``) when
    ``project`` holds, else expanded (``t ×ₖ U``)."""
    for k in modes:
        t = dense.mode_n_product(t, mats[k].T if project else mats[k], k + 1)
    return t


def _batched_project(t, mats):
    """``t`` projected onto all but its last mode's factor, and onto all."""
    part = _batched_chain(t, mats, True, range(len(mats) - 1))
    return part, dense.mode_n_product(part, mats[-1].T, len(mats))


def _tucker_side(t, mats, h, last_part):
    """Each side factor's gradient from the side's input ``t`` (batch, I_k...)
    and the gradient ``h`` (batch, R_k...) of its projection onto the factors.

    Mode k's gradient contracts ``h`` with ``t`` projected onto every other
    mode; for the last mode that projection is ``last_part``, from
    :func:`_batched_project`.
    """
    k = len(mats)
    grads = []
    for n in range(k):
        others = [m for m in range(k) if m != n]
        partial = last_part if n == k - 1 else _batched_chain(t, mats, True, others)
        axes = [0] + [m + 1 for m in others]
        grads.append(np.tensordot(partial, h, axes=(axes, axes)))
    return grads


def _chain_madds(sizes, new_sizes, modes=None):
    """Multiply-adds per row of mode-by-mode products taking each of ``modes``
    (default: all, in order) from its entry of ``sizes`` to ``new_sizes``."""
    sizes, total = list(sizes), 0
    for k in range(len(sizes)) if modes is None else modes:
        total += math.prod(sizes) * new_sizes[k]
        sizes[k] = new_sizes[k]
    return total


def _side_madds(dims, ranks):
    """Multiply-adds per row of :func:`_tucker_side`."""
    k = len(dims)
    # the last mode reuses the projection the product itself made
    projections = sum(
        _chain_madds(dims, ranks, [m for m in range(k) if m != n]) for n in range(k - 1)
    )
    return projections + sum(dims) * math.prod(ranks)


# -- parameter counting, pruning, rank reporting -----------------------------


def param_count(layer: FactorizedLayer) -> int:
    """Scalar factor entries at the current ranks (one count per mean)."""
    return int(sum(f.mean.size for f in layer.factors))


def param_count_at_max_ranks(layer: FactorizedLayer) -> int:
    """Scalar factor entries at ``layer.max_ranks``, the count before any pruning."""
    shapes = layer.format.factor_shapes(layer.row_dims, layer.col_dims, layer.max_ranks)
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
    means = [f.mean for f in layer.factors]
    stds = [f.std for f in layer.factors]
    for mask, axes in zip(masks, layer.format.rank_axes(layer.order)):
        for n, axis, _ in axes:
            means[n] = np.compress(mask, means[n], axis=axis)
            stds[n] = np.compress(mask, stds[n], axis=axis)
    new_vars = [v[m] for v, m in zip(layer.rank_variances, masks)]
    return FactorizedLayer(
        kind=layer.kind,
        factors=[GaussianFactor(m, s) for m, s in zip(means, stds)],
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
    return layer.format.report(surviving_counts(layer, threshold))


def surviving_counts(layer: FactorizedLayer, threshold: float) -> list:
    """How many entries of each rank-variance vector reach ``threshold``."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    return [int(np.count_nonzero(v >= threshold)) for v in layer.rank_variances]


def prior_slots(layer: FactorizedLayer, first: int, weak: int) -> list:
    """Per-factor index arrays, each of its factor's shape: the slot of every
    entry's prior variance when the layer's rank-variance vectors lie end to
    end from slot ``first``, or ``weak`` for an entry with no rank prior.

    Every factor entry's Gaussian prior variance is the rank variance of the
    slice it lives in along the factor's prior axis; a factor with no prior
    axis (the Tucker core) uses the weak prior variance instead.
    """
    slots = [np.full(f.shape, weak, dtype=np.intp) for f in layer.factors]
    for v, axes in zip(layer.rank_variances, layer.format.rank_axes(layer.order)):
        vec = np.arange(first, first + v.size, dtype=np.intp)
        for n, axis, prior in axes:
            if prior:
                slots[n][...] = vec.reshape(_axis_shape(slots[n].ndim, axis))
        first += v.size
    return slots


def rank_moments(layer: FactorizedLayer, squares=None) -> list:
    """One (moment_vec, count) pair per rank-variance vector.

    ``moment_vec[r]`` sums mean^2 + std^2 over every factor entry whose prior
    variance is rank variance r, and ``count`` is how many entries that is.
    Every entry of a vector governs slices of the same size, so one count
    serves the whole vector.  ``squares`` holds each factor's mean^2 + std^2
    when the caller has computed them already; an entry for a factor with
    no prior axis (the Tucker core) is never read.
    """
    if squares is None:
        squares = [f.mean * f.mean + f.std * f.std for f in layer.factors]
    out = []
    for axes in layer.format.rank_axes(layer.order):
        moments, count = None, 0
        for n, axis, prior in axes:
            if not prior:
                continue
            sq = squares[n]
            part = sq.sum(axis=_other_axes(sq.ndim, axis))
            moments = part if moments is None else moments + part
            count += sq.size // sq.shape[axis]
        out.append((moments, count))
    return out


@functools.lru_cache(maxsize=None)
def _axis_shape(ndim: int, axis: int) -> tuple:
    """Shape that lays a vector along ``axis`` of an ndim array."""
    shape = [1] * ndim
    shape[axis] = -1
    return tuple(shape)


@functools.lru_cache(maxsize=None)
def _other_axes(ndim: int, axis: int) -> tuple:
    """Every axis of an ndim array except ``axis``."""
    return tuple(a for a in range(ndim) if a != axis % ndim)


# -- initialization ----------------------------------------------------------


def init_layer(
    kind: str,
    row_dims,
    col_dims,
    ranks,
    rng: np.random.Generator,
    target_var: float | None = None,
    std_ratio: float = 0.05,
) -> FactorizedLayer:
    """Random layer whose reconstructed entries have variance ~ ``target_var``.

    Means are i.i.d. N(0, s^2) with s solved from each format's
    multiplicative structure; stddevs start at ``std_ratio * s`` and the
    rank variances at s^2 (their prior-variance role).  ``target_var``
    defaults to 2/prod(row_dims), the He variance for that fan-in.
    """
    fmt = FORMATS[kind]
    row_dims = [int(d) for d in row_dims]
    col_dims = [int(d) for d in col_dims]
    fmt.check_dims(row_dims, col_dims)
    if target_var is None:
        target_var = 2.0 / math.prod(row_dims)
    ranks = fmt.normalize_ranks(fmt.order(row_dims, col_dims), ranks)
    shapes = fmt.factor_shapes(row_dims, col_dims, ranks)
    # Every entry sums prod(ranks) products of one entry of each factor.
    s = (target_var / math.prod(fmt.rank_list(ranks))) ** (1.0 / (2 * len(shapes)))

    def draw(shape):
        mean = rng.normal(0.0, s, size=shape)
        return GaussianFactor(mean, np.full(shape, std_ratio * s))

    return FactorizedLayer(
        kind=kind,
        factors=[draw(shape) for shape in shapes],
        rank_variances=[np.full(r, s * s) for r in fmt.rank_list(ranks)],
        row_dims=row_dims,
        col_dims=col_dims,
        max_ranks=ranks,
    )


# -- serialization -----------------------------------------------------------


def json_ranks(ranks):
    """Ranks as JSON holds them: an int (CP) as is, else a list of ints."""
    return ranks if isinstance(ranks, int) else list(ranks)


def layer_state(layer: FactorizedLayer):
    """Split a layer into JSON-safe metadata and a dict of flat arrays."""
    meta = {
        "kind": layer.kind,
        "row_dims": list(layer.row_dims),
        "col_dims": list(layer.col_dims),
        "max_ranks": json_ranks(layer.max_ranks),
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
