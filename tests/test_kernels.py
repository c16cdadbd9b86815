"""The factor-gradient and TTM embedding kernels against the ones they replaced.

The reference functions below are the earlier implementations, kept verbatim:
one Khatri-Rao product and one unfolding of the full gradient per CP mode,
d-1 mode products per Tucker mode, and one full-gradient contraction per
TT core; for TTM embeddings, per-token ``np.einsum`` chains and
``np.add.at`` scatters.  They call the current ``dense`` primitives and
``network._digit_matrix``, which are checked on their own.  The kernels in
``factorized`` and ``network`` sum in another order, so the two must agree
to 1e-12 relative, not bit for bit.
"""

import numpy as np
import pytest

from tensorard import dense, factorized, network
from tensorard.network import _digit_matrix

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
    shape = factorized.reconstruct_shape(kind, factors)
    grad = rng.standard_normal(shape)
    if layout == "transposed":
        grad = transposed_view(grad)
    want = REFERENCE[kind]([np.asarray(f) for f in factors], grad)
    got = factorized.backprop_reconstruction(kind, factors, grad)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_close(g, w)


@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
@pytest.mark.parametrize("order", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["cp", "tucker", "tt", "ttm"])
def test_kernel_matches_reference_on_random_cases(kind, order, layout):
    rng = np.random.default_rng([order, len(kind), len(layout)])
    for _ in range(6):
        check_kernel(kind, random_case(kind, order, rng), rng, layout)


# Hand-picked corners: order 1, every bond or rank 1, every mode size 1,
# ranks far above the mode sizes, and the wide 784x512 layer's split.
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
]


@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
@pytest.mark.parametrize("kind,dims,ranks", EDGE_CASES)
def test_kernel_matches_reference_on_edge_cases(kind, dims, ranks, layout):
    rng = np.random.default_rng(len(EDGE_CASES))
    check_kernel(kind, random_factors(kind, dims, ranks, rng), rng, layout)


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
    unique = np.unique(idx)
    digits = _digit_matrix(unique, row_dims)
    want_rows = _ttm_rows(cores, digits).reshape(unique.size, -1)
    got_rows = network._ttm_rows(cores, digits).reshape(unique.size, -1)
    assert_close(got_rows, want_rows)
    want = _ttm_embedding_backprop(cores, idx, grads, row_dims)
    got = network._ttm_embedding_backprop(cores, idx, grads, row_dims)
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
