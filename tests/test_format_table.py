"""The format table against the per-format branches it replaced.

The reference functions below are the earlier implementations, kept
verbatim apart from their docstrings and a ``ref_`` prefix on the names the
tests call: one ``kind ==`` branch per format in ``order``, ``ranks``,
reconstruction, its shape and its backprop, ``inferred_ranks``,
``init_layer``, the factor shapes, rank normalization, the synthetic
true-rank caps, the embedding lookup and the embedding backward, and the
kernels those call.  The current code looks each format up in
``factorized.FORMATS`` and must agree with them bit for bit: values,
shapes, dtypes and the types of rank reports.  The exceptions are the TTM
reconstruction and its backprop, which now split at a bond, and the TTM
embedding backward, which now runs a right-to-left sweep on the cores' row
slices against the left partials of the lookup; both sum in another order
and must agree to 1e-12 relative.  The TTM row kernels are also checked
against their previous form, which found the unique ids and ran the batched
TT kernels on every call: rows bit for bit, gradients to 1e-12 relative.
Validation must accept and reject the same inputs; where the table gives
every format one rank-entry count message (CP's read "too many values to
unpack"), only the exception type is compared.  Shape validation is compared in ``test_rank_axes.py``.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from tensorard import dense, factorized
from tensorard.factorized import FORMATS, FactorizedLayer, GaussianFactor
from tensorard.network import Embedding, _check_indices, embedding_lookup

# -- reference implementations -----------------------------------------------


def ref_order(self) -> int:
    if self.kind == "ttm":
        return len(self.row_dims)
    return len(self.row_dims) + len(self.col_dims)


def ref_ranks(self):
    if self.kind == "cp":
        return self.factors[0].shape[1]
    if self.kind == "tucker":
        return tuple(f.shape[1] for f in self.factors[:-1])
    return tuple(f.shape[-1] for f in self.factors[:-1])


def ref_reconstruct(kind: str, factors) -> np.ndarray:
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


def ref_backprop_reconstruction(kind: str, factors, grad) -> list:
    factors = [np.asarray(f, dtype=np.float64) for f in factors]
    grad = np.asarray(grad, dtype=np.float64)
    want = ref_reconstruct_shape(kind, factors)
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


def ref_reconstruct_shape(kind: str, factors) -> tuple:
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


def ref_inferred_ranks(layer: FactorizedLayer, threshold: float):
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    counts = [int(np.count_nonzero(v >= threshold)) for v in layer.rank_variances]
    if layer.kind == "cp":
        return counts[0]
    if layer.kind == "tucker":
        return tuple(counts)
    return (1, *counts, 1)


def ref_init_layer(
    kind: str,
    row_dims,
    col_dims,
    ranks,
    rng: np.random.Generator,
    target_var: float | None = None,
    std_ratio: float = 0.05,
) -> FactorizedLayer:
    row_dims = [int(d) for d in row_dims]
    col_dims = [int(d) for d in col_dims]
    if target_var is None:
        target_var = 2.0 / math.prod(row_dims)
    if kind == "ttm":
        d = len(row_dims)
        if len(col_dims) != d:
            raise ValueError("TTM needs equal-length row and column dims")
    else:
        d = len(row_dims) + len(col_dims)

    ranks = ref_normalize_ranks(kind, d, ranks)
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

    factors = [draw(shape) for shape in ref_factor_shapes(kind, row_dims, col_dims, ranks)]
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


def ref_factor_shapes(kind: str, row_dims, col_dims, ranks) -> list:
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


def ref_normalize_ranks(kind: str, order: int, ranks):
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


def ref_check_true_ranks(kind, row_dims, col_dims, true_ranks):
    dims = list(row_dims) + list(col_dims)
    if kind == "cp":
        r = true_ranks if np.isscalar(true_ranks) else list(true_ranks)[0]
        if r > min(dims):
            raise ValueError(f"CP rank {r} exceeds the smallest mode size {min(dims)}")
        return
    if kind == "tucker":
        ranks = [true_ranks] * len(dims) if np.isscalar(true_ranks) else list(true_ranks)
        for r, d in zip(ranks, dims):
            if r > d:
                raise ValueError(f"Tucker rank {r} exceeds mode size {d}")
        return
    # TT/TTM bond ranks are capped by the unfolding sizes on either side.
    if kind == "ttm":
        sizes = [r * c for r, c in zip(row_dims, col_dims)]
    else:
        sizes = dims
    interior = (
        [true_ranks] * (len(sizes) - 1) if np.isscalar(true_ranks) else list(true_ranks)
    )
    for n, r in enumerate(interior):
        cap = min(math.prod(sizes[: n + 1]), math.prod(sizes[n + 1 :]))
        if r > cap:
            raise ValueError(f"bond rank {r} exceeds the structural cap {cap}")


def ref_embedding_lookup(table: FactorizedLayer, point_factors, indices) -> np.ndarray:
    indices = np.asarray(indices)
    num_tokens = math.prod(table.row_dims)
    idx = _check_indices(indices, num_tokens)
    embed_dim = math.prod(table.col_dims)
    if table.kind != "ttm":
        full = ref_reconstruct(table.kind, point_factors)
        return full.reshape(num_tokens, embed_dim)[idx]
    unique, inverse = np.unique(idx, return_inverse=True)
    digits = _digit_matrix(unique, table.row_dims)
    rows = _ttm_rows(point_factors, digits).reshape(unique.size, embed_dim)
    return rows[inverse]


def _ttm_rows(cores, digits):
    slices = (_row_slice(core, digits[:, n]) for n, core in enumerate(cores))
    return _left_environments(slices, len(digits))[-1]


def _row_slice(core, digits):
    r_in, rows, cols, r_out = core.shape
    flat = np.moveaxis(core, 1, 0).reshape(rows, r_in * cols * r_out)
    return np.take(flat, digits, axis=0).reshape(len(digits), r_in, cols, r_out)


def _left_environments(slices, tokens):
    lefts = []
    for s in slices:
        _, r_in, cols, r_out = s.shape
        step = s.reshape(tokens, r_in, cols * r_out)
        if lefts:
            step = np.matmul(lefts[-1], step)
        lefts.append(step.reshape(tokens, step.shape[1] * cols, r_out))
    return lefts


def _digit_matrix(indices, dims):
    digits = np.empty((len(indices), len(dims)), dtype=np.int64)
    rem = np.asarray(indices, dtype=np.int64).copy()
    for i in range(len(dims) - 1, -1, -1):
        digits[:, i] = rem % dims[i]
        rem //= dims[i]
    return digits


def _ttm_embedding_backprop(cores, idx, row_grads, row_dims):
    unique, inverse = np.unique(np.asarray(idx), return_inverse=True)
    tokens = unique.size
    summed = np.zeros((tokens, row_grads.shape[1]))
    np.add.at(summed, inverse, row_grads)
    digits = _digit_matrix(unique, row_dims)
    slices = [_row_slice(core, digits[:, n]) for n, core in enumerate(cores)]
    d = len(cores)
    lefts = _left_environments(slices[:-1], tokens)
    rights = [None] * d  # rights[n]: (U, r_n, J_n..J_{d-1}), for n >= 1
    for n in range(d - 1, 0, -1):
        _, r_in, cols, r_out = slices[n].shape
        step = slices[n].reshape(tokens, r_in * cols, r_out)
        if n < d - 1:
            step = np.matmul(step, rights[n + 1])
        rights[n] = step.reshape(tokens, r_in, cols * step.shape[2])

    embed = summed.shape[1]
    grads = []
    for n, core in enumerate(cores):
        r_in, rows, cols, r_out = core.shape
        if n == 0:
            mid = summed.reshape(tokens, cols, embed // cols)  # r_0 = 1
        else:
            left = lefts[n - 1]  # (U, J_0..J_{n-1}, r_n)
            g = summed.reshape(tokens, left.shape[1], embed // left.shape[1])
            mid = np.matmul(left.transpose(0, 2, 1), g)
            mid = mid.reshape(tokens, r_in * cols, g.shape[2] // cols)
        if n == d - 1:
            per_token = mid  # (U, r_{d-1} J_{d-1}, 1)
        else:
            per_token = np.matmul(mid, rights[n + 1].transpose(0, 2, 1))
        one_hot = (digits[:, n] == np.arange(rows)[:, None]).astype(np.float64)
        buf = one_hot @ per_token.reshape(tokens, r_in * cols * r_out)
        grads.append(
            np.ascontiguousarray(buf.reshape(rows, r_in, cols, r_out).transpose(1, 0, 2, 3))
        )
    return grads


def ref_embedding_backward(self, entry, g, points, need_input_grad):
    if self.table.kind == "ttm":
        return _ttm_embedding_backprop(points, entry, g, self.table.row_dims), None
    table_grad = np.zeros((self.num_tokens, self.embed_dim))
    np.add.at(table_grad, entry, g)
    tensor_grad = table_grad.reshape(self.table.tensor_dims)
    return ref_backprop_reconstruction(self.table.kind, points, tensor_grad), None


# The TTM row kernels as they were before the lookup handed its work to the
# backward: each call finds the unique ids, gathers the row slices and runs
# the TT kernels batched over the ids (the TT reconstruction and backprop
# sweep of that time, on cores with a leading batch axis), and repeated ids
# are summed with ``np.add.at``.


def _batched_tt_left(cores):
    out = cores[0][..., 0, :, :]  # r_0 = 1
    for core in cores[1:]:
        *lead, r0, n, r1 = core.shape
        modes = out.shape[len(lead):-1]
        out = out.reshape(*lead, math.prod(modes), r0) @ core.reshape(*lead, r0, n * r1)
        out = out.reshape(*lead, *modes, n, r1)
    return out


def _batched_tt_backprop(cores, grad):
    d = len(cores)
    # rights[i]: cores i..d-1 contracted, as an (r_i, I_i..I_{d-1}) matrix
    rights = [None] * (d + 1)
    rights[d] = np.ones((1, 1))
    for i in range(d - 1, 0, -1):
        *lead, r0, n, r1 = cores[i].shape
        right = cores[i].reshape(*lead, r0 * n, r1) @ rights[i + 1]
        rights[i] = right.reshape(*lead, r0, n * right.shape[-1])
    # One left-to-right sweep: acc holds G contracted with cores 0..i-1, as
    # an (r_i * I_i, I_{i+1}..I_{d-1}) matrix, so every step is one GEMM.
    grads = []
    lead = cores[0].shape[:-3]
    acc = grad.reshape(*lead, 1, math.prod(grad.shape[len(lead):]))
    for i, core in enumerate(cores):
        *lead, r0, n, r1 = core.shape
        acc = acc.reshape(*lead, r0 * n, rights[i + 1].shape[-1])
        grads.append((acc @ rights[i + 1].swapaxes(-1, -2)).reshape(core.shape))
        if i < d - 1:
            acc = core.reshape(*lead, r0 * n, r1).swapaxes(-1, -2) @ acc
    return grads


def _row_slices(cores, ids, row_dims):
    digits = np.unravel_index(ids, row_dims)
    slices = [np.take(np.moveaxis(core, 1, 0), d, axis=0) for core, d in zip(cores, digits)]
    return digits, slices


def ref_ttm_lookup_rows(table, points, idx):
    unique, inverse = np.unique(idx, return_inverse=True)
    _, slices = _row_slices(points, unique, table.row_dims)
    rows = _batched_tt_left(slices)[..., 0]
    return rows.reshape(unique.size, math.prod(table.col_dims))[inverse]


def ref_ttm_backprop_rows(table, points, idx, row_grads):
    unique, inverse = np.unique(idx, return_inverse=True)
    summed = np.zeros((unique.size, row_grads.shape[1]))
    np.add.at(summed, inverse, row_grads)
    digits, slices = _row_slices(points, unique, table.row_dims)
    per_id = _batched_tt_backprop(slices, summed.reshape(unique.size, *table.col_dims))
    grads = []
    for core, d, g in zip(points, digits, per_id):
        r_in, rows, cols, r_out = core.shape
        one_hot = (d == np.arange(rows)[:, None]).astype(np.float64)
        buf = one_hot @ g.reshape(unique.size, r_in * cols * r_out)
        grads.append(
            np.ascontiguousarray(buf.reshape(rows, r_in, cols, r_out).transpose(1, 0, 2, 3))
        )
    return grads


# -- cases --------------------------------------------------------------------

# (kind, row_dims, col_dims, ranks): size-1 modes, rank-1 bonds, one-sided
# splits and list ranks with distinct entries.
EDGE_CASES = [
    ("cp", [1], [1], 1),
    ("cp", [], [2, 1, 3], [2]),
    ("cp", [3, 1], [], 4),
    ("tucker", [1], [1], [1, 1]),
    ("tucker", [2, 1], [3], [1, 2, 1]),
    ("tucker", [], [3, 2], 2),
    ("tt", [1], [1], [1]),
    ("tt", [2, 1, 3], [], [1, 3]),
    ("tt", [3], [1, 2, 2], [3, 1, 2]),
    ("ttm", [1, 1], [1, 1], [1]),
    ("ttm", [2, 1, 3], [1, 2, 2], [2, 1]),
    ("ttm", [3, 2], [2, 3], 4),
]


def _random_case(kind, rng):
    """Modes of size 1 to 3 on random sides; a scalar rank or one entry per
    rank-variance vector, each 1 to 3."""
    low = 2 if kind in ("tt", "ttm") else 1
    order = int(rng.integers(low, 5))
    if kind == "ttm":
        row, col = rng.integers(1, 4, order).tolist(), rng.integers(1, 4, order).tolist()
    else:
        dims = rng.integers(1, 4, order).tolist()
        split = int(rng.integers(0, order + 1))
        row, col = dims[:split], dims[split:]
    count = {"cp": 1, "tucker": order}.get(kind, order - 1)
    if rng.random() < 0.5:
        return kind, row, col, int(rng.integers(1, 4))
    return kind, row, col, rng.integers(1, 4, count).tolist()


def _cases():
    rng = np.random.default_rng(8)
    out = list(EDGE_CASES)
    for kind in factorized.KINDS:
        out += [_random_case(kind, rng) for _ in range(10)]
    return out


CASES = _cases()
IDS = [f"{c[0]}-{c[1]}x{c[2]}-r{c[3]}" for c in CASES]


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_close(got, want):
    """Same dtype and shape, values within 1e-12 of the largest, relative."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-300)
    assert float(np.max(np.abs(got - want), initial=0.0)) <= 1e-12 * scale


def assert_same_value(got, want):
    """Equal, and of the same type down to the entries of a list or tuple."""
    assert type(got) is type(want) and got == want
    if isinstance(want, (list, tuple)):
        assert [type(g) for g in got] == [type(w) for w in want]


def _layer(case, seed):
    """A layer with random means, stds and rank variances over six decades."""
    kind, row, col, ranks = case
    rng = np.random.default_rng(seed)
    layer = factorized.init_layer(kind, row, col, ranks, rng)
    for f in layer.factors:
        f.mean[...] = rng.standard_normal(f.shape)
        f.std[...] = rng.uniform(0.01, 1.0, f.shape)
    for v in layer.rank_variances:
        v[...] = 10.0 ** rng.uniform(-6, 0, v.shape)
    return layer


def _outcome(call):
    """(True, result) or (False, exception type and message)."""
    try:
        return True, call()
    except (ValueError, IndexError) as e:
        return False, (type(e), str(e))


# -- comparisons ----------------------------------------------------------------


@pytest.mark.parametrize("case", CASES, ids=IDS)
class TestMatchesReference:
    @pytest.mark.parametrize("kwargs", [{}, {"target_var": 0.3, "std_ratio": 0.2},
                                        {"target_var": 2.0 / 7}])
    def test_init_layer(self, case, kwargs):
        kind, row, col, ranks = case
        got = factorized.init_layer(kind, row, col, ranks, np.random.default_rng(3), **kwargs)
        want = ref_init_layer(kind, row, col, ranks, np.random.default_rng(3), **kwargs)
        assert_same_value(got.max_ranks, want.max_ranks)
        assert len(got.factors) == len(want.factors)
        for g, w in zip(got.factors, want.factors):
            assert_bitwise(g.mean, w.mean)
            assert_bitwise(g.std, w.std)
        assert len(got.rank_variances) == len(want.rank_variances)
        for g, w in zip(got.rank_variances, want.rank_variances):
            assert_bitwise(g, w)

    def test_order_ranks_shapes_and_normalization(self, case):
        kind, row, col, ranks = case
        layer = _layer(case, 1)
        assert_same_value(layer.order, ref_order(layer))
        assert_same_value(layer.ranks, ref_ranks(layer))
        fmt = FORMATS[kind]
        got = fmt.normalize_ranks(layer.order, ranks)
        assert_same_value(got, ref_normalize_ranks(kind, layer.order, ranks))
        for r in (got, layer.ranks, layer.max_ranks):
            assert fmt.factor_shapes(row, col, r) == ref_factor_shapes(kind, row, col, r)
            for g, w in zip(fmt.factor_shapes(row, col, r), ref_factor_shapes(kind, row, col, r)):
                assert [type(x) for x in g] == [type(x) for x in w]

    def test_reconstruct_and_backprop(self, case):
        kind = case[0]
        # TTM now contracts W and dW through one bond split, which sums in
        # another order than the reference's paired transpose and TT sweep.
        same = assert_close if kind == "ttm" else assert_bitwise
        layer = _layer(case, 2)
        points = layer.point_means()
        same(factorized.reconstruct(kind, points), ref_reconstruct(kind, points))
        shape = FORMATS[kind].shape(points)
        assert shape == ref_reconstruct_shape(kind, points)
        grad = np.random.default_rng(4).standard_normal(shape)
        got = factorized.backprop_reconstruction(kind, points, grad)
        want = ref_backprop_reconstruction(kind, points, grad)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            same(g, w)

    def test_inferred_ranks(self, case):
        layer = _layer(case, 5)
        for threshold in (1e-7, 1e-4, 1e-2, 0.5, 2.0):
            got = factorized.inferred_ranks(layer, threshold)
            assert_same_value(got, ref_inferred_ranks(layer, threshold))

    def test_embedding_lookup_and_backward(self, case):
        layer = _layer(case, 6)
        table = Embedding(layer, math.prod(layer.row_dims), math.prod(layer.col_dims))
        rng = np.random.default_rng(7)
        points = layer.point_means()
        for size in (1, 5, 40):
            ids = rng.integers(0, table.num_tokens, size)
            want_rows = ref_embedding_lookup(layer, points, ids)
            assert_bitwise(embedding_lookup(layer, points, ids), want_rows)
            rows, entry = table.forward(ids, points)
            assert_bitwise(rows, want_rows)
            g = rng.standard_normal((size, table.embed_dim))
            got, got_in = table.backward(entry, g, points, False)
            want, want_in = ref_embedding_backward(table, ids, g, points, False)
            assert got_in is want_in is None
            assert len(got) == len(want)
            # The TT sweep over a TTM table's row slices contracts G with one
            # slice at a time, where the reference first built the left
            # environment, so tables of three or more cores sum in another order.
            same = assert_close if layer.kind == "ttm" else assert_bitwise
            for a, b in zip(got, want):
                same(a, b)


# (row_dims, col_dims, ranks, ids) for the TTM row kernels: no ids, one id 50
# times, a table of one core (which ``init_layer`` refuses, so the kernels
# take the dims alone), and unsorted repeats over three and four cores.
TTM_ROW_CASES = [
    ([3, 4, 2], [2, 3, 2], [2, 3], []),
    ([3, 4, 2], [2, 3, 2], [2, 3], [17] * 50),
    ([6], [4], [], [5, 0, 5, 3, 0, 5]),
    ([3, 4, 2], [2, 1, 3], [3, 2], [21, 4, 21, 0, 9, 4, 21, 23, 0, 9, 21]),
    ([2, 3, 2, 3], [2, 2, 1, 2], [2, 4, 3], [35, 7, 7, 12, 35, 0, 7, 12, 30, 35]),
]


@pytest.mark.parametrize("row_dims,col_dims,ranks,ids", TTM_ROW_CASES,
                         ids=[f"{c[0]}x{c[1]}-{len(c[3])}ids" for c in TTM_ROW_CASES])
def test_ttm_rows_match_the_per_call_kernels(row_dims, col_dims, ranks, ids):
    """``lookup_rows`` builds the same rows, bit for bit, as the kernels that
    found the unique ids on every call; ``backprop_rows`` on its memo sums
    in another order, so the gradients agree to 1e-12 relative."""
    rng = np.random.default_rng(len(ids))
    fmt = FORMATS["ttm"]
    table = SimpleNamespace(row_dims=row_dims, col_dims=col_dims)
    points = [rng.standard_normal(s) for s in fmt.factor_shapes(row_dims, col_dims, ranks)]
    ids = np.array(ids, dtype=np.int64)
    g = rng.standard_normal((ids.size, math.prod(col_dims)))
    rows, memo = fmt.lookup_rows(table, points, ids)
    assert_bitwise(rows, ref_ttm_lookup_rows(table, points, ids))
    got = fmt.backprop_rows(table, points, memo, g)
    want = ref_ttm_backprop_rows(table, points, ids, g)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_close(a, b)


# -- validation -------------------------------------------------------------------


def _rank_variants(kind, row, col):
    """Scalar ranks, lists of the right length and lists one entry off."""
    fmt = FORMATS[kind]
    count = len(fmt.rank_axes(fmt.order(row, col)))
    out = [1, 2, 5, np.int64(3)]
    for n in (count - 1, count, count + 1):
        if n >= 0:
            out += [[1] * n, [2] * n, list(range(1, n + 1)), [7] * n]
    return out


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_normalize_ranks_accepts_and_rejects_alike(case):
    kind, row, col, _ = case
    order = FORMATS[kind].order(row, col)
    for ranks in _rank_variants(kind, row, col):
        got = _outcome(lambda: FORMATS[kind].normalize_ranks(order, ranks))
        want = _outcome(lambda: ref_normalize_ranks(kind, order, ranks))
        assert got[0] == want[0], ranks
        if got[0]:
            assert_same_value(got[1], want[1])
        elif kind == "cp":
            assert got[1][0] is want[1][0]
        else:
            assert got[1] == want[1]


# Dims the formats reject: unequal TTM sides and TT/TTM with one core.
BAD_DIMS = [("ttm", [2, 3], [4], 2), ("ttm", [2], [3, 1], [1]), ("tt", [3], [], 2),
            ("tt", [], [4], [1]), ("ttm", [3], [2], 1), ("ttm", [3], [2], [])]


@pytest.mark.parametrize("case", CASES + BAD_DIMS,
                         ids=IDS + [f"bad-{c[0]}-{c[1]}x{c[2]}" for c in BAD_DIMS])
def test_init_and_true_rank_caps_accept_and_reject_alike(case):
    """The same ranks pass or fail ``init_layer`` and, as ``gen_synthetic``
    runs them, the true-rank caps followed by ``init_layer``; on dims the
    format accepts, scalars and lists of the right length pass or fail the
    caps alone alike."""
    kind, row, col, _ = case
    fmt = FORMATS[kind]
    count = len(fmt.rank_axes(fmt.order(row, col)))
    valid_dims = _outcome(lambda: fmt.check_dims(row, col))[0]
    for ranks in _rank_variants(kind, row, col):
        got = _outcome(lambda: factorized.init_layer(kind, row, col, ranks,
                                                     np.random.default_rng(0)))
        want = _outcome(lambda: ref_init_layer(kind, row, col, ranks,
                                               np.random.default_rng(0)))
        assert got[0] == want[0], ranks
        if not got[0]:
            assert got[1][0] is want[1][0]

        def current():
            fmt.check_rank_caps(row, col, ranks)
            return factorized.init_layer(kind, row, col, ranks, np.random.default_rng(0))

        def reference():
            ref_check_true_ranks(kind, row, col, ranks)
            return ref_init_layer(kind, row, col, ranks, np.random.default_rng(0))

        assert _outcome(current)[0] == _outcome(reference)[0], ranks
        if valid_dims and (np.isscalar(ranks) or len(ranks) == count):
            got = _outcome(lambda: fmt.check_rank_caps(row, col, ranks))
            want = _outcome(lambda: ref_check_true_ranks(kind, row, col, ranks))
            assert got[0] == want[0], ranks
