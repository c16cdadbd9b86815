"""The factor-gradient, TTM embedding and linear-layer kernels against the
ones they replaced.

The reference functions below are the earlier implementations, kept verbatim:
one Khatri-Rao product and one unfolding of the full gradient per CP mode,
d-1 mode products per Tucker mode, and one full-gradient contraction per
TT core; for TTM weights, the TT contraction and sweep over merged
(I_n·J_n) modes with one transpose of W or of its gradient between the
paired and the (rows..., cols...) layout; for TTM embeddings, per-token
``np.einsum`` chains and ``np.add.at`` scatters over the tokens' mixed-radix
row digits; for linear layers, the pass that rebuilds W, runs the dense GEMMs
and maps dW back onto the factors.  They call the current ``dense``
primitives, which are checked on their own.  The kernels in ``factorized``
and ``network`` sum in another order, so the two must agree to 1e-12
relative, not bit for bit.  A TTM embedding now runs a TT chain on its
cores' row slices, one TT per looked-up token, and is reached here through
``embedding_lookup`` and through ``Embedding.forward`` and
``Embedding.backward``, the backward taking the forward's cache entry.

The last section keeps the loops that the shared TT/TTM chain helpers
(``factorized._lefts`` and ``_rights``), their gradient sweeps
(``_left_grads`` and ``_right_grads``) and the Tucker mode-product chain
(``_batched_chain``) replaced; those keep every GEMM's operands and order, so
they must agree with their loops bit for bit.
"""

import math

import numpy as np
import pytest

from tensorard import dense, factorized
from tensorard.network import Embedding, TensorizedLinear, embedding_lookup

REL_TOL = 1e-12


# -- reference kernels --------------------------------------------------------


def _cp_full(mats):
    dims = [m.shape[0] for m in mats]
    if len(mats) == 1:
        return mats[0].sum(axis=1)
    kr = dense.khatri_rao(mats[:-1])
    return (kr @ mats[-1].T).reshape(dims)


def _cp_backprop(mats, grad):
    d = len(mats)
    r = mats[0].shape[1]
    grads = []
    for n in range(d):
        others = [mats[m] for m in range(d) if m != n]
        unfolded = np.moveaxis(grad, n, 0).reshape(grad.shape[n], -1)
        kr = dense.khatri_rao(others) if others else np.ones((1, r))
        grads.append(unfolded @ kr)
    return grads


def _tucker_backprop(factors, grad):
    core, mats = factors[-1], factors[:-1]
    d = len(mats)
    mat_grads = []
    for n in range(d):
        partial = core
        for m in range(d):
            if m != n:
                partial = dense.mode_n_product(partial, mats[m], m)
        g_n = np.moveaxis(grad, n, 0).reshape(grad.shape[n], -1)
        p_n = np.moveaxis(partial, n, 0).reshape(partial.shape[n], -1)
        mat_grads.append(g_n @ p_n.T)
    core_grad = grad
    for m in range(d):
        core_grad = dense.mode_n_product(core_grad, mats[m].T, m)
    return mat_grads + [core_grad]


def _tt_backprop(cores, grad):
    d = len(cores)
    lefts = [None] * d  # lefts[i]: (I_0..I_i, r_{i+1})
    acc = cores[0][0]
    lefts[0] = acc
    for i in range(1, d):
        acc = np.tensordot(acc, cores[i], axes=([-1], [0]))
        lefts[i] = acc
    rights = [None] * d  # rights[i]: (r_i, I_i..I_{d-1})
    acc = cores[-1][..., 0]
    rights[d - 1] = acc
    for i in range(d - 2, -1, -1):
        acc = np.tensordot(cores[i], rights[i + 1], axes=([-1], [0]))
        rights[i] = acc
    grads = []
    for i in range(d):
        if i == 0:
            mid = grad[None]  # (1, I_0..I_{d-1})
        else:
            axes = list(range(i))
            mid = np.tensordot(lefts[i - 1], grad, axes=(axes, axes))
        if i == d - 1:
            grads.append(mid[..., None])
        else:
            k = mid.ndim - 2  # trailing sample modes I_{i+1}..I_{d-1}
            g = np.tensordot(
                mid,
                rights[i + 1],
                axes=(list(range(2, 2 + k)), list(range(1, 1 + k))),
            )
            grads.append(g)
    return grads


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


def _digit_matrix(indices, dims):
    """Mixed-radix digits of each index over ``dims``, most significant first."""
    digits = np.empty((len(indices), len(dims)), dtype=np.int64)
    rem = np.asarray(indices, dtype=np.int64).copy()
    for i in range(len(dims) - 1, -1, -1):
        digits[:, i] = rem % dims[i]
        rem //= dims[i]
    return digits


def _ttm_rows(cores, digits):
    """Contract TTM cores against per-token digit selections, batched."""
    out = cores[0][0, digits[:, 0]]  # (tokens, J_0, r_1)
    for n in range(1, len(cores)):
        sel = cores[n][:, digits[:, n]]  # (r_{n-1}, tokens, J_n, r_n)
        out = np.einsum("u...r,rujs->u...js", out, sel, optimize=True)
    return out[..., 0]


def _ttm_embedding_backprop(cores, idx, row_grads, row_dims):
    """Exact table gradients from per-row gradients, touching only seen tokens.

    Equivalent to scattering ``row_grads`` into the dense table gradient and
    backpropagating through the full reconstruction, but the chain runs per
    unique token over the column modes only.
    """
    d = len(cores)
    unique, inverse = np.unique(np.asarray(idx), return_inverse=True)
    summed = np.zeros((unique.size, row_grads.shape[1]))
    np.add.at(summed, inverse, row_grads)
    digits = _digit_matrix(unique, row_dims)
    # sel[n]: (tokens, r_n, J_n, r_{n+1}) with boundary ranks 1
    sel = [np.ascontiguousarray(np.moveaxis(c[:, digits[:, n]], 1, 0))
           for n, c in enumerate(cores)]
    col_dims = [c.shape[2] for c in cores]
    g = summed.reshape(unique.size, *col_dims)

    jl = "ABCDEFGH"[:d]  # one letter per column mode
    lefts = [None] * d  # lefts[n]: (tokens, J_0..J_n, r_{n+1})
    acc = sel[0][:, 0]
    lefts[0] = acc
    for n in range(1, d):
        acc = np.einsum(f"u...x,ux{jl[n]}y->u...{jl[n]}y", acc, sel[n], optimize=True)
        lefts[n] = acc
    rights = [None] * d  # rights[n]: (tokens, r_n, J_n..J_{d-1})
    acc = sel[d - 1][..., 0]
    rights[d - 1] = acc
    for n in range(d - 2, -1, -1):
        acc = np.einsum(f"ux{jl[n]}y,uy...->ux{jl[n]}...", sel[n], rights[n + 1], optimize=True)
        rights[n] = acc

    grads = []
    for n in range(d):
        if n == 0:
            mid = g[:, None]  # (tokens, 1, J_0..J_{d-1})
        else:
            sub = f"u{jl[:n]}x,u{jl}->ux{jl[n:]}"
            mid = np.einsum(sub, lefts[n - 1], g, optimize=True)
        if n == d - 1:
            per_token = mid[..., None]  # (tokens, r_{d-1}, J_{d-1}, 1)
        else:
            sub = f"ux{jl[n]}{jl[n + 1:]},uy{jl[n + 1:]}->ux{jl[n]}y"
            per_token = np.einsum(sub, mid, rights[n + 1], optimize=True)
        # scatter-add token contributions into the core's row-mode slices
        buf = np.zeros((cores[n].shape[1],) + per_token.shape[1:])
        np.add.at(buf, digits[:, n], per_token)
        grads.append(np.ascontiguousarray(np.moveaxis(buf, 0, 1)))
    return grads


REFERENCE = {
    "cp": _cp_backprop,
    "tucker": _tucker_backprop,
    "tt": _tt_backprop,
    "ttm": _ttm_backprop,
}


# -- random cases -----------------------------------------------------------------


def random_factors(kind, dims, ranks, rng):
    """Factors of one format; ``dims`` are (I_n) or, for TTM, (I_n, J_n) pairs."""
    d = len(dims)
    if kind == "cp":
        return [rng.standard_normal((n, ranks)) for n in dims]
    if kind == "tucker":
        mats = [rng.standard_normal((n, r)) for n, r in zip(dims, ranks)]
        return mats + [rng.standard_normal(tuple(ranks))]
    bonds = [1, *ranks, 1]
    if kind == "tt":
        return [rng.standard_normal((bonds[i], dims[i], bonds[i + 1])) for i in range(d)]
    return [
        rng.standard_normal((bonds[i], *dims[i], bonds[i + 1])) for i in range(d)
    ]


def random_case(kind, order, rng):
    """Mode sizes in 1..5 (1..3 per TTM pair) and ranks in 1..7.

    The ranges make size-1 modes, rank-1 bonds and ranks larger than the
    mode sizes all common.
    """
    if kind == "ttm":
        dims = [tuple(int(x) for x in rng.integers(1, 4, size=2)) for _ in range(order)]
    else:
        dims = [int(x) for x in rng.integers(1, 6, size=order)]
    if kind == "cp":
        ranks = int(rng.integers(1, 8))
    elif kind == "tucker":
        ranks = [int(x) for x in rng.integers(1, 8, size=order)]
    else:
        ranks = [int(x) for x in rng.integers(1, 8, size=order - 1)]
    return random_factors(kind, dims, ranks, rng)


def transposed_view(array):
    """The same values in a non-contiguous, reversed-stride layout."""
    return np.ascontiguousarray(array.T).T


def assert_close(got, want):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert got.shape == want.shape
    assert float(np.max(np.abs(got - want))) <= REL_TOL * scale


def check_kernel(kind, factors, rng, layout):
    shape = factorized.FORMATS[kind].shape(factors)
    grad = rng.standard_normal(shape)
    if layout == "transposed":
        grad = transposed_view(grad)
    want = REFERENCE[kind]([np.asarray(f) for f in factors], grad)
    got = factorized.backprop_reconstruction(kind, factors, grad)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_close(g, w)
    if kind == "ttm":
        assert_close(factorized.reconstruct(kind, factors), _ttm_full(factors))


@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
@pytest.mark.parametrize("order", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["cp", "tucker", "tt", "ttm"])
def test_kernel_matches_reference_on_random_cases(kind, order, layout):
    rng = np.random.default_rng([order, len(kind), len(layout)])
    for _ in range(6):
        check_kernel(kind, random_case(kind, order, rng), rng, layout)


# Hand-picked corners: order 1, every bond or rank 1, every mode size 1,
# ranks far above the mode sizes, and the wide 784x512 layer's split.  The
# TTM kernels split at the bond s that balances the merged (I_n·J_n) sizes;
# the cases after the first three TTM ones are the three TTM layers the
# benchmark trains (784->512 and 512->10 at rank 20, the narrow 784->10 at
# rank 10), then s = 1 and s = d-1 at orders 3 and 4, size-1 modes, every
# bond rank 1, a rank-1 bond at s between wider ones, and one core.
EDGE_CASES = [
    ("cp", [1, 1, 1], 3),
    ("cp", [2, 3, 4, 2], 1),
    ("cp", [2, 1, 3], 9),
    ("cp", [28, 28, 16, 32], 5),
    ("tucker", [4], [3]),
    ("tucker", [1, 1, 1], [1, 1, 1]),
    ("tucker", [2, 3, 2, 2], [1, 1, 1, 1]),
    ("tucker", [2, 1, 3], [5, 4, 6]),
    ("tt", [1, 1, 1, 1], [1, 1, 1]),
    ("tt", [3, 2, 4], [1, 1]),
    ("tt", [2, 1, 2, 3], [6, 9, 5]),
    ("ttm", [(1, 1), (1, 1), (1, 1)], [1, 1]),
    ("ttm", [(2, 3), (3, 2)], [1]),
    ("ttm", [(2, 1), (1, 3), (2, 2)], [7, 8]),
    ("ttm", [(4, 4), (7, 4), (4, 8), (7, 4)], [20, 20, 20]),
    ("ttm", [(32, 2), (16, 5)], [20]),
    ("ttm", [(4, 7), (7, 2), (4, 5)], [10, 10]),
    ("ttm", [(3, 4), (2, 1), (1, 3)], [3, 2]),
    ("ttm", [(1, 2), (3, 1), (4, 3)], [2, 3]),
    ("ttm", [(4, 5), (2, 1), (1, 2), (2, 1)], [2, 3, 2]),
    ("ttm", [(2, 1), (1, 2), (2, 1), (3, 4)], [1, 2, 3]),
    ("ttm", [(1, 1), (1, 3), (2, 1), (1, 1)], [2, 2, 2]),
    ("ttm", [(3, 2), (2, 2), (2, 3), (2, 2)], [1, 1, 1]),
    ("ttm", [(2, 2), (3, 2), (2, 3), (2, 2)], [5, 1, 4]),
    ("ttm", [(3, 2)], []),
]


@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
@pytest.mark.parametrize("kind,dims,ranks", EDGE_CASES)
def test_kernel_matches_reference_on_edge_cases(kind, dims, ranks, layout):
    rng = np.random.default_rng(len(EDGE_CASES))
    check_kernel(kind, random_factors(kind, dims, ranks, rng), rng, layout)


@pytest.mark.parametrize("dims,ranks,s", [
    ([(3, 3), (2, 2), (2, 2)], [3, 2], 1),
    ([(2, 2), (2, 3), (3, 2), (2, 2)], [2, 3, 2], 2),
])
def test_ttm_gradients_match_central_differences(dims, ranks, s):
    """Criterion 5 for the TTM kernels: every core entry's gradient of
    <reconstruct(cores), G> against a central difference.  Each case has a
    side of two cores, which the backward sweep peels one core at a time, and
    no such side has a size-1 mode, so a mode order mixed up between them
    shows."""
    assert factorized._split([i * j for i, j in dims]) == s
    rng = np.random.default_rng(len(dims))
    cores = [c * 0.5 for c in random_factors("ttm", dims, ranks, rng)]
    g = rng.standard_normal(factorized.FORMATS["ttm"].shape(cores))
    grads = factorized.backprop_reconstruction("ttm", cores, g)
    # The inner product is linear in each single entry, so the difference
    # has no truncation error and h only sets the roundoff.
    h = 1e-3
    for core, grad in zip(cores, grads):
        flat, grad_flat = core.reshape(-1), grad.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = float(np.sum(factorized.reconstruct("ttm", cores) * g))
            flat[j] = orig - h
            down = float(np.sum(factorized.reconstruct("ttm", cores) * g))
            flat[j] = orig
            numeric = (up - down) / (2 * h)
            rel = abs(numeric - grad_flat[j]) / max(abs(numeric), abs(grad_flat[j]), 1e-8)
            assert rel < 1e-6


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_cp_reconstruction_matches_reference(order):
    rng = np.random.default_rng(order)
    for _ in range(6):
        dims = [int(x) for x in rng.integers(1, 6, size=order)]
        mats = random_factors("cp", dims, int(rng.integers(1, 8)), rng)
        assert_close(factorized.reconstruct("cp", mats), _cp_full(mats))


def test_cp_order_one_gradient_repeats_grad_per_rank():
    rng = np.random.default_rng(0)
    mats = [rng.standard_normal((4, 3))]
    grad = rng.standard_normal(4)
    (got,) = factorized.backprop_reconstruction("cp", mats, grad)
    np.testing.assert_array_equal(got, _cp_backprop(mats, grad)[0])


# -- TTM embedding kernels ----------------------------------------------------------


def check_embedding_kernels(row_dims, col_dims, ranks, idx, rng):
    dims = list(zip(row_dims, col_dims))
    cores = random_factors("ttm", dims, ranks, rng)
    grads = rng.standard_normal((idx.size, int(np.prod(col_dims))))
    # The table supplies the dims; the rows and gradients are the cores'.
    layer = factorized.init_layer("ttm", row_dims, col_dims, ranks, np.random.default_rng(0))
    table = Embedding(layer, int(np.prod(row_dims)), int(np.prod(col_dims)))
    unique, inverse = np.unique(idx, return_inverse=True)
    digits = _digit_matrix(unique, row_dims)
    want_rows = _ttm_rows(cores, digits).reshape(unique.size, -1)[inverse]
    assert_close(embedding_lookup(layer, cores, idx), want_rows)
    rows, entry = table.forward(idx, cores)
    assert_close(rows, want_rows)
    want = _ttm_embedding_backprop(cores, idx, grads, row_dims)
    got, no_in = table.backward(entry, grads, cores, False)
    assert no_in is None
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_close(g, w)


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 7, 8])
def test_embedding_kernels_match_reference_on_random_cases(order):
    """Row and column modes in 1..3 and bonds in 1..4, so size-1 modes and
    rank-1 bonds are common; batches of 1 to 40 ids."""
    rng = np.random.default_rng([order, 17])
    for _ in range(6):
        row_dims = [int(x) for x in rng.integers(1, 4, size=order)]
        col_dims = [int(x) for x in rng.integers(1, 4, size=order)]
        ranks = [int(x) for x in rng.integers(1, 5, size=order - 1)]
        idx = rng.integers(0, int(np.prod(row_dims)), size=int(rng.integers(1, 41)))
        check_embedding_kernels(row_dims, col_dims, ranks, idx, rng)


def zipf_ids(rng, num_tokens, size):
    return (rng.zipf(1.3, size=size) - 1) % num_tokens


# (row_dims, col_dims, ranks, ids): every bond rank 1, every row mode or
# every column mode of size 1, a single token, one id repeated, Zipf-repeated
# ids, and a 4096-row batch of the embedding acceptance table.
EMBEDDING_CASES = [
    ([3, 4, 2], [2, 3, 2], [1, 1], lambda rng: rng.integers(0, 24, size=30)),
    ([1, 1, 1], [2, 3, 2], [3, 2], lambda rng: np.zeros(5, dtype=np.int64)),
    ([3, 4, 2], [1, 1, 1], [2, 3], lambda rng: rng.integers(0, 24, size=30)),
    ([5, 4, 3], [2, 2, 3], [3, 4], lambda rng: np.array([37])),
    ([5, 4, 3], [2, 2, 3], [3, 4], lambda rng: np.full(64, 11)),
    ([10, 10, 10], [2, 4, 4], [5, 6], lambda rng: zipf_ids(rng, 1000, 512)),
    ([10, 10, 10, 10], [2, 2, 2, 4], [6, 6, 6],
     lambda rng: rng.integers(0, 10_000, size=4096)),
]


@pytest.mark.parametrize("case", range(len(EMBEDDING_CASES)))
def test_embedding_kernels_match_reference_on_edge_cases(case):
    row_dims, col_dims, ranks, make_ids = EMBEDDING_CASES[case]
    rng = np.random.default_rng(case)
    check_embedding_kernels(row_dims, col_dims, ranks, make_ids(rng), rng)


# (kind, row_dims, col_dims, ranks): each format's table, a TTM one of three
# cores so the sweep over its row slices runs an interior core.
EMBEDDING_FD_CASES = [
    ("cp", [3, 4], [2, 3], 3),
    ("tucker", [3, 4], [2, 3], [2, 3, 2, 2]),
    ("tt", [3, 4], [2, 3], [2, 3, 2]),
    ("ttm", [2, 3, 2], [2, 1, 3], [2, 3]),
]


@pytest.mark.parametrize("kind,row_dims,col_dims,ranks", EMBEDDING_FD_CASES)
def test_embedding_gradients_match_central_differences(kind, row_dims, col_dims, ranks):
    """Criterion 5 for the embedding backward: every factor entry's gradient
    of <lookup(ids), G> against a central difference, on a batch that
    repeats ids."""
    check_central_differences(kind, row_dims, col_dims, ranks, [0, 5, 5, 11, 0, 7, 5])


def test_ttm_embedding_gradients_match_central_differences_on_repeats():
    """The same on a three-core TTM table and a batch in which most ids
    repeat, out of order, so most sorted groups sum several rows."""
    ids = [9, 2, 9, 9, 4, 2, 11, 9, 0, 4, 9, 2]
    check_central_differences("ttm", [3, 2, 2], [2, 2, 1], [3, 2], ids)


def check_central_differences(kind, row_dims, col_dims, ranks, ids):
    rng = np.random.default_rng(len(kind))
    layer = factorized.init_layer(kind, row_dims, col_dims, ranks, rng)
    table = Embedding(layer, int(np.prod(row_dims)), int(np.prod(col_dims)))
    points = [rng.standard_normal(f.shape) * 0.5 for f in layer.factors]
    ids = np.array(ids)
    g = rng.standard_normal((ids.size, table.embed_dim))
    _, entry = table.forward(ids, points)
    grads, _ = table.backward(entry, g, points, False)
    # The inner product is linear in each single entry, so the difference
    # has no truncation error and h only sets the roundoff.
    h = 1e-3
    for point, grad in zip(points, grads):
        flat, grad_flat = point.reshape(-1), grad.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = float(np.sum(embedding_lookup(layer, points, ids) * g))
            flat[j] = orig - h
            down = float(np.sum(embedding_lookup(layer, points, ids) * g))
            flat[j] = orig
            numeric = (up - down) / (2 * h)
            rel = abs(numeric - grad_flat[j]) / max(abs(numeric), abs(grad_flat[j]), 1e-8)
            assert rel < 1e-6


# -- linear layers through the row|col split --------------------------------------


def _matrix(self, weight_points):
    w = factorized.reconstruct(self.weight.kind, weight_points)
    return w.reshape(self.in_features, self.out_features)


def _weight_grads(self, weight_points, d_w):
    tensor_grad = d_w.reshape(self.weight.tensor_dims)
    return factorized.backprop_reconstruction(self.weight.kind, weight_points, tensor_grad)


def _linear_forward(self, x, points):
    """Layer output for a batch of rows, and the entry :meth:`backward` reads."""
    *weight, bias = points
    w = _matrix(self, weight)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(
            f"input of shape {x.shape} does not match layer input "
            f"size {w.shape[0]}"
        )
    pre = x @ w + bias
    out = np.maximum(pre, 0.0) if self.activation == "relu" else pre
    return out, (x, w, pre)


def _linear_backward(self, entry, g, points, need_input_grad):
    """Mean-gradients of every Gaussian, and the input gradient (or None)."""
    x, w, pre = entry
    if self.activation == "relu":
        g = g * (pre > 0)
    d_w = x.T @ g
    d_b = g.sum(axis=0)
    g_in = g @ w.T if need_input_grad else None
    return [*_weight_grads(self, points[:-1], d_w), d_b], g_in


def linear_layer(kind, row_dims, col_dims, ranks, activation, rng):
    cfg = {"format": kind, "row_dims": row_dims, "col_dims": col_dims,
           "max_rank": ranks, "activation": activation}
    return TensorizedLinear.from_config(cfg, rng, 0.05)


def check_split_layer(layer, batch, rng):
    """One pass through the split agrees with the dense reference pass."""
    points = [rng.standard_normal(g.shape) for g in layer.gaussians()]
    x = rng.standard_normal((batch, layer.in_features))
    g = rng.standard_normal((batch, layer.out_features))
    want_out, want_entry = _linear_forward(layer, x, points)
    want, want_in = _linear_backward(layer, want_entry, g, points, True)
    got_out, entry = layer.forward(x, points)
    assert_close(got_out, want_out)
    got, got_in = layer.backward(entry, g, points, True)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_close(a, b)
    assert_close(got_in, want_in)
    got_again, no_in = layer.backward(entry, g, points, False)
    assert no_in is None
    for a, b in zip(got_again, got):
        np.testing.assert_array_equal(a, b)


def random_split_case(kind, rng):
    """1-3 row and 1-3 column modes of size 1..5, ranks in 1..7."""
    row_dims = [int(x) for x in rng.integers(1, 6, size=int(rng.integers(1, 4)))]
    col_dims = [int(x) for x in rng.integers(1, 6, size=int(rng.integers(1, 4)))]
    d = len(row_dims) + len(col_dims)
    count = {"cp": 1, "tucker": d, "tt": d - 1}[kind]
    ranks = [int(x) for x in rng.integers(1, 8, size=count)]
    return row_dims, col_dims, ranks


@pytest.fixture
def always_split(monkeypatch):
    """Send every CP, Tucker and TT layer through the split, whatever it costs."""
    monkeypatch.setattr(TensorizedLinear, "takes_split", lambda self, points: True)


@pytest.mark.parametrize("kind", ["cp", "tucker", "tt"])
def test_split_matches_dense_pass_on_random_cases(kind, always_split):
    rng = np.random.default_rng([len(kind), 23])
    for _ in range(40):
        row_dims, col_dims, ranks = random_split_case(kind, rng)
        activation = ["relu", "identity"][int(rng.integers(2))]
        layer = linear_layer(kind, row_dims, col_dims, ranks, activation, rng)
        check_split_layer(layer, int(rng.integers(1, 10)), rng)


# (kind, row_dims, col_dims, ranks, batch): every rank or bond 1, every mode
# of size 1, one-mode sides, ranks far above the mode sizes, batch 1.
SPLIT_EDGE_CASES = [
    ("cp", [1, 1], [1], [3], 4),
    ("cp", [5], [4], [1], 1),
    ("cp", [2, 3, 2], [3, 1, 2], [9], 3),
    ("tucker", [1], [1], [1, 1], 1),
    ("tucker", [4], [3], [2, 5], 5),
    ("tucker", [2, 1, 3], [1, 2, 2], [1, 1, 1, 1, 1, 1], 2),
    ("tucker", [3, 2], [2, 3, 2], [5, 4, 6, 1, 3], 1),
    ("tt", [1], [1], [1], 1),
    ("tt", [4], [3], [1], 6),
    ("tt", [2, 3, 1], [1, 2, 3], [1, 1, 1, 1, 1], 2),
    ("tt", [3, 2], [2, 4], [6, 9, 5], 1),
]


@pytest.mark.parametrize("kind,row_dims,col_dims,ranks,batch", SPLIT_EDGE_CASES)
def test_split_matches_dense_pass_on_edge_cases(kind, row_dims, col_dims, ranks, batch,
                                                always_split):
    rng = np.random.default_rng(batch)
    layer = linear_layer(kind, row_dims, col_dims, ranks, "relu", rng)
    check_split_layer(layer, batch, rng)


@pytest.mark.parametrize("kind,rank", [("cp", 50), ("tucker", 12), ("tt", 20)])
def test_wide_layers_take_the_split_and_match_the_dense_pass(kind, rank):
    rng = np.random.default_rng(rank)
    layer = linear_layer(kind, [28, 28], [16, 32], rank, "relu", rng)
    assert layer.takes_split(layer.weight.point_means())
    check_split_layer(layer, 8, rng)


def _takes_split(cfg):
    layer = TensorizedLinear.from_config(cfg, np.random.default_rng(0), 0.05)
    return layer.takes_split(layer.weight.point_means())


def _cfg(kind, row_dims, col_dims, rank, in_out=None):
    cfg = {"format": kind, "row_dims": row_dims, "col_dims": col_dims, "max_rank": rank}
    if in_out:
        cfg["in_features"], cfg["out_features"] = in_out
    return cfg


@pytest.mark.parametrize("cfg,split", [
    # 784 -> 512 layers of the wide nets
    (_cfg("cp", [28, 28], [16, 32], 50), True),
    (_cfg("tucker", [28, 28], [16, 32], 12), True),
    (_cfg("tt", [28, 28], [16, 32], 20), True),
    (_cfg("ttm", [4, 7, 4, 7], [4, 4, 8, 4], 20), False),
    # 512 -> 10 heads of the wide nets
    (_cfg("cp", [32, 16], [10], 50), False),
    (_cfg("tucker", [32, 16], [10], 12), False),
    (_cfg("tt", [32, 16], [10], 20), False),
    (_cfg("ttm", [32, 16], [2, 5], 20), False),
    # the criterion-1 784 -> 10 configs
    (_cfg("cp", [28, 28], [10], 10), False),
    (_cfg("tucker", [28, 28], [10], 10), False),
    (_cfg("tt", [28, 28], [10], 10), False),
    (_cfg("ttm", [4, 7, 4], [7, 2, 5], 10, (784, 10)), False),
    # in/out overrides fold the weight across the row|col boundary
    (_cfg("cp", [28, 28], [16, 32], 50, (1568, 256)), False),
    (_cfg("tucker", [28, 28], [16, 32], 12, (392, 1024)), False),
    (_cfg("tt", [28, 28], [16, 32], 20, (1568, 256)), False),
    # every mode on one side: no row|col boundary to split at
    *((_cfg(kind, dims, other, 2), False)
      for kind in ("tt", "cp", "tucker")
      for dims, other in (([64, 64], []), ([], [64, 64]))),
])
def test_path_choice_on_fixed_shapes(cfg, split):
    assert _takes_split(cfg) == split


# -- the shared chains against the loops they replaced ------------------------------
#
# TT and TTM contract their chains of cores through ``factorized._lefts`` and
# ``_rights`` and sweep their gradients through ``_left_grads`` and
# ``_right_grads``, and Tucker its mode products through ``_batched_chain``.
# The references below are the loops those helpers replaced, verbatim: TT's
# left chain, the split's right chain, the backprop's right environments,
# TTM's two side chains and its per-id row chain, TT's backprop sweep closed
# by a ones matrix, its split's backward through identity cores on the
# boundary bond, TTM's two side sweeps and its per-id row sweep, and the
# unbatched projection and reconstruction.  Every GEMM keeps its operands and
# its order (the ones matrix and the identity cores only multiply by 1 and
# add zeros), so each helper must agree with its loop bit for bit, on the
# benchmark's shapes.


def _ref_tt_left(cores):
    """TT cores contracted over their bonds from the left: (I_0..I_k, r)."""
    out = cores[0][0]  # r_0 = 1
    for core in cores[1:]:
        r0, n, r1 = core.shape
        modes = out.shape[:-1]
        out = (out.reshape(-1, r0) @ core.reshape(r0, n * r1)).reshape(*modes, n, r1)
    return out


def _ref_tt_split_right(cores, n_row):
    """The right chain of the TT split: cores[n_row:] as an (r_b, J) matrix."""
    right = cores[-1].reshape(cores[-1].shape[0], -1)  # r_d = 1
    for core in reversed(cores[n_row:-1]):
        r0, n, r1 = core.shape
        right = (core.reshape(r0 * n, r1) @ right).reshape(r0, -1)
    return right


def _ref_tt_environments(cores):
    """The right environments of the TT backprop."""
    d = len(cores)
    # rights[i]: cores i..d-1 contracted, as an (r_i, I_i..I_{d-1}) matrix
    rights = [None] * (d + 1)
    rights[d] = np.ones((1, 1))
    for i in range(d - 1, 0, -1):
        r0, n, r1 = cores[i].shape
        right = cores[i].reshape(r0 * n, r1) @ rights[i + 1]
        rights[i] = right.reshape(r0, -1)
    return rights


def _ref_ttm_sides(cores):
    s = factorized._split([c.shape[1] * c.shape[2] for c in cores])
    lefts = [cores[0][0]]  # r_0 = 1
    for core in cores[1:s]:
        r0, n, m, r1 = core.shape
        i, j = lefts[-1].shape[:2]
        a = (lefts[-1].reshape(i * j, r0) @ core.reshape(r0, -1)).reshape(i, j, n, m, r1)
        lefts.append(a.transpose(0, 2, 1, 3, 4).reshape(i * n, j * m, r1))
    rights = [cores[-1][..., 0]]  # r_d = 1
    for core in reversed(cores[s:-1]):
        r0, n, m, r1 = core.shape
        i, j = rights[0].shape[1:]
        b = (core.reshape(-1, r1) @ rights[0].reshape(r1, -1)).reshape(r0, n, m, i, j)
        rights.insert(0, b.transpose(0, 1, 3, 2, 4).reshape(r0, n * i, m * j))
    return s, lefts, rights


def _ref_ttm_row_lefts(points, digits):
    """The per-id chain of the TTM row lookup: (U, J_0..J_k, r_{k+1})."""
    u = digits[0].size
    slices = [np.take(np.moveaxis(core, 1, 0), d, axis=0) for core, d in zip(points, digits)]
    lefts = [slices[0][:, 0]]  # r_0 = 1
    for s in slices[1:]:
        _, r0, n, r1 = s.shape
        p = lefts[-1].shape[1]
        lefts.append((lefts[-1] @ s.reshape(u, r0, n * r1)).reshape(u, p * n, r1))
    return lefts


def _ref_tt_backprop(cores, grad):
    """The TT backprop's left-to-right sweep, closed by a ones matrix."""
    d = len(cores)
    # rights[i]: cores i+1..d-1 contracted, as (r_{i+1}, I_{i+1}..I_{d-1}, 1);
    # a ones matrix closes the chain after the last core
    rights = [*factorized._rights([c[:, :, None] for c in cores[1:]]), np.ones((1, 1))]
    # One left-to-right sweep: acc holds G contracted with cores 0..i-1, as
    # an (r_i * I_i, I_{i+1}..I_{d-1}) matrix, so every step is one GEMM.
    grads = []
    acc = grad.reshape(1, -1)
    for i, core in enumerate(cores):
        r0, n, r1 = core.shape
        acc = acc.reshape(r0 * n, -1)
        grads.append((acc @ rights[i].reshape(r1, -1).T).reshape(core.shape))
        if i < d - 1:
            acc = core.reshape(r0 * n, r1).T @ acc
    return grads


def _ref_tt_split_backward(cores, n_row, x, memo, g, need_input_grad):
    """The TT split's backward, each side closed by an identity core."""
    left, right, xl = memo
    gr = g @ right.T
    # Each side is a TT closed by an identity core on the boundary bond,
    # so the TT sweep maps dL and dR onto the side's cores.
    eye = np.eye(left.shape[1])
    # xᵀ(g·R) is taken as ((g·R)ᵀx)ᵀ, as network._dense_grads takes xᵀg;
    # the sweep's first reshape copies it into C order.
    rows = _ref_tt_backprop([*cores[:n_row], eye[:, :, None]], (gr.T @ x).T)[:-1]
    cols = _ref_tt_backprop([eye[None], *cores[n_row:]], xl.T @ g)[1:]
    return rows + cols, gr @ left.T if need_input_grad else None


def _ref_ttm_backprop(cores, grad):
    """TTM's backprop with its two side sweeps written out."""
    if len(cores) == 1:
        return [grad.reshape(cores[0].shape).copy()]
    s, lefts, rights = factorized.FORMATS["ttm"]._sides(cores)
    (ri, ci, r), (_, ro, co) = lefts[-1].shape, rights[0].shape
    g = grad.reshape(ri, ro, ci, co).transpose(0, 2, 1, 3).reshape(ri * ci, ro * co)
    g_a = g @ rights[0].reshape(r, -1).T
    g_b = lefts[-1].reshape(-1, r).T @ g
    grads = [None] * len(cores)
    for k in range(s - 1, 0, -1):
        r0, n, m, r1 = cores[k].shape
        i, j = lefts[k - 1].shape[:2]
        g_a = g_a.reshape(i, n, j, m, r1).transpose(0, 2, 1, 3, 4).reshape(i * j, -1)
        grads[k] = (lefts[k - 1].reshape(-1, r0).T @ g_a).reshape(cores[k].shape)
        g_a = g_a @ cores[k].reshape(r0, -1).T
    grads[0] = g_a.reshape(cores[0].shape)
    for k in range(s, len(cores) - 1):
        r0, n, m, r1 = cores[k].shape
        i, j = rights[k - s + 1].shape[1:]
        g_b = g_b.reshape(r0, n, i, m, j).transpose(0, 1, 3, 2, 4).reshape(-1, i * j)
        grads[k] = (g_b @ rights[k - s + 1].reshape(r1, -1).T).reshape(cores[k].shape)
        g_b = cores[k].reshape(-1, r1).T @ g_b
    grads[-1] = g_b.reshape(cores[-1].shape)
    return grads


def _ref_ttm_backprop_rows(points, memo, row_grads):
    """The TTM rows' backward with its per-id right-to-left sweep."""
    firsts, repeats, groups, digits, slices, lefts = memo
    u = firsts.size
    # acc: the summed gradient contracted with slices k+1.., as
    # (U, J_0..J_k, r_{k+1}); the last core's r_d is 1.
    acc = row_grads[firsts]
    np.add.at(acc, groups, row_grads[repeats])
    per_id = [None] * len(slices)
    for k in range(len(slices) - 1, 0, -1):
        _, r0, n, r1 = slices[k].shape
        left = lefts[k - 1][:, 0]
        acc = acc.reshape(u, left.shape[1], n * r1)
        per_id[k] = left.swapaxes(1, 2) @ acc
        acc = acc @ slices[k].reshape(u, r0, n * r1).swapaxes(1, 2)
    per_id[0] = acc
    grads = []
    for core, d, g in zip(points, digits, per_id):
        r_in, rows, cols, r_out = core.shape
        one_hot = (d == np.arange(rows)[:, None]).astype(np.float64)
        buf = one_hot @ g.reshape(u, r_in * cols * r_out)
        grads.append(
            np.ascontiguousarray(buf.reshape(rows, r_in, cols, r_out).transpose(1, 0, 2, 3))
        )
    return grads


def _ref_project(tensor, mats, modes):
    """Contract each mode in ``modes`` of ``tensor`` with its factor matrix."""
    for m in modes:
        tensor = dense.mode_n_product(tensor, mats[m].T, m)
    return tensor


def _ref_tucker_full(factors):
    core, mats = factors[-1], factors[:-1]
    out = core
    for n, u in enumerate(mats):
        out = dense.mode_n_product(out, u, n)
    return out


def _ref_tucker_split_backprop(factors, grad):
    core, mats = factors[-1], factors[:-1]
    d = len(mats)
    s = factorized._split([m.shape[0] for m in mats])
    left = _ref_project(grad, mats, range(s, d))
    right = _ref_project(grad, mats, range(s))
    mat_grads = []
    for n in range(d):
        side = range(s) if n < s else range(s, d)
        partial = _ref_project(left if n < s else right, mats, [m for m in side if m != n])
        others = [m for m in range(d) if m != n]
        mat_grads.append(np.tensordot(partial, core, axes=(others, others)))
    core_grad = _ref_project(left, mats, range(s))
    return mat_grads + [core_grad]


def assert_same_entries(got, want):
    """Bit-equal entries in the same order; ``got`` may merge ``want``'s modes."""
    assert got.size == want.size
    assert np.array_equal(got.reshape(want.shape), want)


def assert_same_arrays(got, want):
    """Two lists of arrays, bit-equal and of the same shapes, in order."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


def _points(kind, row_dims, col_dims, rank):
    rng = np.random.default_rng(sum(row_dims) + 7 * sum(col_dims) + rank)
    return factorized.init_layer(kind, row_dims, col_dims, rank, rng).point_means()


@pytest.mark.parametrize("row_dims,col_dims,rank", [
    ([28, 28], [16, 32], 20),  # the wide net's 784 -> 512 layer
    ([32, 16], [10], 20),  # its head
    ([28, 28], [10], 10),  # the criterion-1 config
    ([2, 3, 3, 2], [2, 3], 3),  # modes and bonds of 2 and 3
], ids=["wide", "head", "narrow", "twos"])
def test_tt_chains_match_the_loops_they_replace(row_dims, col_dims, rank):
    cores = _points("tt", row_dims, col_dims, rank)
    views = [c[:, :, None] for c in cores]
    d = len(cores)
    for k, left in enumerate(factorized._lefts(views)):
        assert left.shape[1] == 1
        assert_same_entries(left, _ref_tt_left(cores[:k + 1]))
    for n_row in range(1, d):
        assert_same_entries(factorized._rights(views[n_row:])[0],
                            _ref_tt_split_right(cores, n_row))
    environments = _ref_tt_environments(cores)
    for i, right in enumerate(factorized._rights(views[1:]), start=1):
        assert_same_entries(right, environments[i])
    fmt = factorized.FORMATS["tt"]
    assert np.array_equal(fmt.full(cores), _ref_tt_left(cores)[..., 0])
    x = np.random.default_rng(1).standard_normal((3, math.prod(row_dims)))
    n_row = len(row_dims)
    _, (left, right, _) = fmt.split_forward(cores, n_row, x)
    ref_left = _ref_tt_left(cores[:n_row])
    assert np.array_equal(left, ref_left.reshape(-1, ref_left.shape[-1]))
    assert np.array_equal(right, _ref_tt_split_right(cores, n_row))
    rng = np.random.default_rng(3)
    grad = rng.standard_normal(fmt.shape(cores))
    assert_same_arrays(fmt.backprop(cores, grad), _ref_tt_backprop(cores, grad))
    # the split at every boundary: one row core first, one column core last
    for n_row in range(1, d):
        x = rng.standard_normal((3, math.prod(fmt.shape(cores[:n_row]))))
        g = rng.standard_normal((3, math.prod(fmt.shape(cores[n_row:]))))
        _, memo = fmt.split_forward(cores, n_row, x)
        got, got_in = fmt.split_backward(cores, n_row, x, memo, g, True)
        want, want_in = _ref_tt_split_backward(cores, n_row, x, memo, g, True)
        assert_same_arrays(got, want)
        assert np.array_equal(got_in, want_in)


@pytest.mark.parametrize("row_dims,col_dims,rank", [
    ([4, 7, 4, 7], [4, 4, 8, 4], 20),  # the wide net's 784 -> 512 layer
    ([4, 7, 4], [7, 2, 5], 10),  # the criterion-1 config
    ([2, 3, 3, 2], [2, 3, 3, 2], 3),  # a partial's J, then I, of 2 beside the bond
], ids=["wide", "narrow", "twos"])
def test_ttm_sides_match_the_loops_they_replace(row_dims, col_dims, rank):
    cores = _points("ttm", row_dims, col_dims, rank)
    s, lefts, rights = factorized.FORMATS["ttm"]._sides(cores)
    ref_s, ref_lefts, ref_rights = _ref_ttm_sides(cores)
    assert s == ref_s
    assert len(lefts) == len(ref_lefts) and len(rights) == len(ref_rights)
    for got, want in zip(lefts + rights, ref_lefts + ref_rights):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    fmt = factorized.FORMATS["ttm"]
    grad = np.random.default_rng(4).standard_normal(fmt.shape(cores))
    assert_same_arrays(fmt.backprop(cores, grad), _ref_ttm_backprop(cores, grad))


@pytest.mark.parametrize("ids", [[], [7], [3, 3, 9999, 3, 42, 9999, 0]],
                         ids=["0ids", "1id", "repeats"])
def test_ttm_row_chain_matches_the_loop_it_replaces(ids):
    row_dims, col_dims = [10, 10, 10, 10], [2, 2, 2, 4]
    table = factorized.init_layer("ttm", row_dims, col_dims, 6, np.random.default_rng(5))
    points = table.point_means()
    idx = np.array(ids, dtype=np.int64)
    rows, memo = factorized.FORMATS["ttm"].lookup_rows(table, points, idx)
    digits, lefts = memo[3], memo[5]
    ref = _ref_ttm_row_lefts(points, digits)
    assert len(lefts) == len(ref)
    for got, want in zip(lefts, ref):
        assert got.shape[1] == 1
        assert_same_entries(got, want)
    _, inverse = np.unique(idx, return_inverse=True)
    assert np.array_equal(rows, ref[-1].reshape(digits[0].size, math.prod(col_dims))[inverse])
    g = np.random.default_rng(6).standard_normal(rows.shape)
    got = factorized.FORMATS["ttm"].backprop_rows(table, points, memo, g)
    # the memo now holds the slices as I = 1 views; the loop took the slices
    old_memo = (*memo[:4], [s[:, :, 0] for s in memo[4]], memo[5])
    assert_same_arrays(got, _ref_ttm_backprop_rows(points, old_memo, g))


def test_tucker_chain_matches_the_loops_it_replaces():
    factors = _points("tucker", [28, 28], [16, 32], 12)
    core, mats = factors[-1], factors[:-1]
    grad = np.random.default_rng(2).standard_normal((28, 28, 16, 32))
    fmt = factorized.FORMATS["tucker"]
    assert np.array_equal(fmt.full(factors), _ref_tucker_full(factors))
    for modes in ([0], [3], [2, 3], [0, 1], [0, 2], [0, 1, 2, 3]):
        got = factorized._batched_chain(grad[None], mats, True, modes)
        assert got.shape[0] == 1
        assert np.array_equal(got[0], _ref_project(grad, mats, modes))
    got = fmt.backprop(factors, grad)
    want = _ref_tucker_split_backprop(factors, grad)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)
