"""The factor-gradient kernels against the per-mode kernels they replaced.

The reference functions below are the earlier implementations, kept verbatim:
one Khatri-Rao product and one unfolding of the full gradient per CP mode,
d-1 mode products per Tucker mode, and one full-gradient contraction per
TT core.  They call the current ``dense`` primitives, which
``test_dense.py`` checks on their own.  The structured kernels in
``factorized`` sum in another order, so the two must agree to 1e-12
relative, not bit for bit.
"""

import numpy as np
import pytest

from tensorard import dense, factorized

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
