import numpy as np
import pytest

from tensorard import factorized
from tensorard.factorized import (
    FactorizedLayer,
    GaussianFactor,
    RankCollapsedError,
    backprop_reconstruction,
    inferred_ranks,
    init_layer,
    layer_from_state,
    layer_state,
    param_count,
    prune,
    reconstruct,
)

FORMAT_CASES = [
    ("cp", [3, 4], [5], 4),
    ("tucker", [3, 4], [5], [2, 3, 2]),
    ("tt", [3, 4], [5], [2, 3]),
    ("ttm", [3, 4, 2], [2, 3, 2], [3, 3]),
]


def random_layer(kind, row, col, ranks, seed=0):
    rng = np.random.default_rng(seed)
    layer = init_layer(kind, row, col, ranks, rng, target_var=1.0)
    for f in layer.factors:
        f.mean[...] = rng.uniform(-1.0, 1.0, size=f.shape)
        f.std[...] = rng.uniform(0.05, 0.5, size=f.shape)
    return layer


class TestReconstruct:
    def test_cp_rank_one_outer_product(self):
        u = np.array([[1.0], [2.0]])
        v = np.array([[3.0], [4.0]])
        np.testing.assert_array_equal(
            reconstruct("cp", [u, v]), [[3.0, 4.0], [6.0, 8.0]]
        )

    def test_tt_all_ones(self):
        cores = [np.ones((1, 2, 3)), np.ones((3, 2, 1))]
        # explicit product of a 1x3 ones row with a 3x1 ones column
        np.testing.assert_array_equal(reconstruct("tt", cores), np.full((2, 2), 3.0))

    def test_tucker_identity_factors_give_core(self):
        rng = np.random.default_rng(0)
        core = rng.standard_normal((3, 4, 5))
        mats = [np.eye(3), np.eye(4), np.eye(5)]
        np.testing.assert_array_equal(reconstruct("tucker", mats + [core]), core)

    def test_cp_elementwise_definition(self):
        rng = np.random.default_rng(1)
        mats = [rng.standard_normal((d, 3)) for d in (2, 3, 4)]
        full = reconstruct("cp", mats)
        for i in range(2):
            for j in range(3):
                for k in range(4):
                    want = sum(
                        mats[0][i, r] * mats[1][j, r] * mats[2][k, r] for r in range(3)
                    )
                    assert abs(full[i, j, k] - want) < 1e-12

    def test_tt_elementwise_definition(self):
        rng = np.random.default_rng(2)
        cores = [
            rng.standard_normal((1, 3, 2)),
            rng.standard_normal((2, 4, 3)),
            rng.standard_normal((3, 2, 1)),
        ]
        full = reconstruct("tt", cores)
        for i in range(3):
            for j in range(4):
                for k in range(2):
                    want = (cores[0][:, i, :] @ cores[1][:, j, :] @ cores[2][:, k, :])[
                        0, 0
                    ]
                    assert abs(full[i, j, k] - want) < 1e-12

    def test_ttm_elementwise_definition(self):
        rng = np.random.default_rng(3)
        cores = [rng.standard_normal((1, 2, 3, 2)), rng.standard_normal((2, 3, 2, 1))]
        full = reconstruct("ttm", cores)
        assert full.shape == (2, 3, 3, 2)
        for i1 in range(2):
            for i2 in range(3):
                for j1 in range(3):
                    for j2 in range(2):
                        want = (cores[0][:, i1, j1, :] @ cores[1][:, i2, j2, :])[0, 0]
                        assert abs(full[i1, i2, j1, j2] - want) < 1e-12

    def test_cp_scaling_one_factor_scales_reconstruction(self):
        rng = np.random.default_rng(4)
        mats = [rng.standard_normal((d, 2)) for d in (3, 4)]
        base = reconstruct("cp", mats)
        scaled = reconstruct("cp", [mats[0] * 2.5, mats[1]])
        np.testing.assert_allclose(scaled, 2.5 * base, atol=1e-12)


class TestParamCount:
    def test_mnist_cp_totals(self):
        rng = np.random.default_rng(0)
        l1 = init_layer("cp", [28, 28], [16, 32], 50, rng)
        l2 = init_layer("cp", [32, 16], [10], 50, rng)
        total = param_count(l1) + param_count(l2) + 512 + 10
        assert total == 8622

    def test_mnist_tucker_totals(self):
        rng = np.random.default_rng(0)
        l1 = init_layer("tucker", [28, 28], [16, 32], 20, rng)
        l2 = init_layer("tucker", [32, 16], [10], 20, rng)
        total = param_count(l1) + param_count(l2) + 512 + 10
        assert total == 171762

    def test_mnist_tt_totals(self):
        rng = np.random.default_rng(0)
        l1 = init_layer("tt", [28, 28], [16, 32], 20, rng)
        l2 = init_layer("tt", [32, 16], [10], 20, rng)
        assert param_count(l1) == 18800
        assert param_count(l2) == 7240
        assert param_count(l1) + param_count(l2) + 522 == 26562

    @pytest.mark.parametrize("kind,row,col,ranks", FORMAT_CASES)
    def test_max_rank_count_is_the_count_at_initialisation(self, kind, row, col, ranks):
        layer = init_layer(kind, row, col, ranks, np.random.default_rng(0))
        assert factorized.param_count_at_max_ranks(layer) == param_count(layer)
        layer.rank_variances[0][0] = 1e-9
        pruned = prune(layer, 1e-6)
        assert param_count(pruned) < param_count(layer)
        assert factorized.param_count_at_max_ranks(pruned) == param_count(layer)


class TestBackprop:
    @pytest.mark.parametrize("kind,row,col,ranks", FORMAT_CASES)
    def test_matches_finite_differences(self, kind, row, col, ranks):
        layer = random_layer(kind, row, col, ranks, seed=11)
        points = [f.mean.copy() for f in layer.factors]
        rng = np.random.default_rng(12)
        g = rng.standard_normal(reconstruct(kind, points).shape)
        grads = backprop_reconstruction(kind, points, g)
        h = 1e-5
        for fi in range(len(points)):
            flat = points[fi].reshape(-1)
            grad_flat = grads[fi].reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                up = float(np.sum(reconstruct(kind, points) * g))
                flat[j] = orig - h
                down = float(np.sum(reconstruct(kind, points) * g))
                flat[j] = orig
                numeric = (up - down) / (2 * h)
                analytic = grad_flat[j]
                rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
                assert rel < 1e-6

    def test_zero_gradient_in_gives_zero_out(self):
        layer = random_layer("cp", [3, 4], [5], 3)
        points = layer.point_means()
        grads = backprop_reconstruction("cp", points, np.zeros((3, 4, 5)))
        for g in grads:
            np.testing.assert_array_equal(g, 0.0)

    def test_linearity_in_upstream_gradient(self):
        layer = random_layer("tt", [3, 4], [5], [2, 3], seed=5)
        points = layer.point_means()
        rng = np.random.default_rng(6)
        g1 = rng.standard_normal((3, 4, 5))
        g2 = rng.standard_normal((3, 4, 5))
        a = backprop_reconstruction("tt", points, g1)
        b = backprop_reconstruction("tt", points, g2)
        c = backprop_reconstruction("tt", points, 2.0 * g1 + g2)
        for x, y, z in zip(a, b, c):
            np.testing.assert_allclose(2.0 * x + y, z, atol=1e-10)

    def test_shape_mismatch_rejected(self):
        layer = random_layer("cp", [3, 4], [5], 3)
        with pytest.raises(ValueError, match="shape"):
            backprop_reconstruction("cp", layer.point_means(), np.zeros((3, 4, 6)))


def zero_below_threshold(layer, threshold):
    """Independent oracle: zero controlled slices without removing them."""
    out = layer.copy()
    masks = [v < threshold for v in out.rank_variances]
    if out.kind == "cp":
        for f in out.factors:
            f.mean[:, masks[0]] = 0.0
            f.std[:, masks[0]] = 0.0
    elif out.kind == "tucker":
        for n, f in enumerate(out.factors[:-1]):
            f.mean[:, masks[n]] = 0.0
            f.std[:, masks[n]] = 0.0
    else:
        d = out.order
        for i, f in enumerate(out.factors):
            if i < d - 1:
                f.mean[..., masks[i]] = 0.0
                f.std[..., masks[i]] = 0.0
            else:
                f.mean[masks[d - 2]] = 0.0
                f.std[masks[d - 2]] = 0.0
    return out


class TestPrune:
    def test_cp_rank_two_to_one(self):
        layer = random_layer("cp", [2], [3], 2, seed=1)
        layer.rank_variances[0][:] = [0.5, 1e-9]
        pruned = prune(layer, 1e-4)
        assert pruned.ranks == 1
        zeroed = zero_below_threshold(layer, 1e-4)
        np.testing.assert_array_equal(
            reconstruct("cp", pruned.point_means()),
            reconstruct("cp", zeroed.point_means()),
        )

    def test_no_op_when_all_above(self):
        layer = random_layer("tucker", [3, 4], [5], [2, 2, 2], seed=2)
        pruned = prune(layer, 1e-12)
        assert pruned.ranks == layer.ranks
        np.testing.assert_array_equal(
            reconstruct("tucker", pruned.point_means()),
            reconstruct("tucker", layer.point_means()),
        )

    def test_tt_matched_slice_pair_removed(self):
        layer = random_layer("tt", [4], [4], [3], seed=3)
        layer.rank_variances[0][:] = [1.0, 1e-9, 1e-9]
        pruned = prune(layer, 1e-4)
        assert [f.shape for f in pruned.factors] == [(1, 4, 1), (1, 4, 1)]
        zeroed = zero_below_threshold(layer, 1e-4)
        np.testing.assert_allclose(
            reconstruct("tt", pruned.point_means()),
            reconstruct("tt", zeroed.point_means()),
            atol=1e-12,
        )

    @pytest.mark.parametrize("kind,row,col,ranks", FORMAT_CASES)
    def test_randomized_prune_equals_zeroing(self, kind, row, col, ranks):
        rng = np.random.default_rng(77)
        for trial in range(50):
            layer = random_layer(kind, row, col, ranks, seed=100 + trial)
            for v in layer.rank_variances:
                v[:] = rng.choice([1.0, 1e-9], size=v.size)
                v[rng.integers(0, v.size)] = 1.0  # keep at least one per mode
            threshold = 1e-4
            pruned = prune(layer, threshold)
            zeroed = zero_below_threshold(layer, threshold)
            np.testing.assert_allclose(
                reconstruct(kind, pruned.point_means()),
                reconstruct(kind, zeroed.point_means()),
                atol=1e-12,
            )
            assert param_count(pruned) <= param_count(layer)

    def test_collapse_raises(self):
        layer = random_layer("cp", [3, 4], [5], 3, seed=4)
        layer.rank_variances[0][:] = 1e-10
        with pytest.raises(RankCollapsedError, match="rank collapsed to zero"):
            prune(layer, 1e-4)

    def test_surviving_std_kept(self):
        layer = random_layer("cp", [3], [4], 3, seed=5)
        layer.rank_variances[0][:] = [1.0, 1e-9, 1.0]
        pruned = prune(layer, 1e-4)
        np.testing.assert_array_equal(pruned.factors[0].std, layer.factors[0].std[:, [0, 2]])


class TestInferredRanks:
    def test_cp_threshold_count(self):
        layer = random_layer("cp", [3], [4], 4, seed=6)
        layer.rank_variances[0][:] = [3.1, 0.2, 1e-7, 1e-9]
        assert inferred_ranks(layer, 1e-4) == 2

    def test_all_below_gives_zero(self):
        layer = random_layer("cp", [3], [4], 2, seed=7)
        layer.rank_variances[0][:] = 1e-9
        assert inferred_ranks(layer, 1e-4) == 0

    def test_tt_returns_full_bond_tuple(self):
        layer = random_layer("tt", [3, 4], [5], [2, 3], seed=8)
        ranks = inferred_ranks(layer, 1e-12)
        assert ranks == (1, 2, 3, 1)

    def test_tucker_returns_mode_tuple(self):
        layer = random_layer("tucker", [3, 4], [5], [2, 3, 2], seed=9)
        assert inferred_ranks(layer, 1e-12) == (2, 3, 2)


class TestSerialization:
    @pytest.mark.parametrize("kind,row,col,ranks", FORMAT_CASES)
    def test_state_round_trip_bit_exact(self, kind, row, col, ranks):
        layer = random_layer(kind, row, col, ranks, seed=21)
        meta, arrays = layer_state(layer)
        back = layer_from_state(meta, arrays)
        assert back.kind == layer.kind
        assert back.row_dims == layer.row_dims
        assert back.col_dims == layer.col_dims
        assert back.max_ranks == layer.max_ranks
        for a, b in zip(layer.factors, back.factors):
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.std, b.std)
        for a, b in zip(layer.rank_variances, back.rank_variances):
            np.testing.assert_array_equal(a, b)


class TestValidation:
    def test_negative_std_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            GaussianFactor(np.zeros(3), np.array([0.1, -0.1, 0.2]))

    def test_nonpositive_rank_variance_rejected(self):
        rng = np.random.default_rng(0)
        layer = init_layer("cp", [3], [4], 2, rng)
        with pytest.raises(ValueError, match="positive"):
            FactorizedLayer(
                "cp",
                layer.factors,
                [np.array([1.0, 0.0])],
                layer.row_dims,
                layer.col_dims,
            )

    def test_inconsistent_shapes_rejected(self):
        rng = np.random.default_rng(0)
        layer = init_layer("tt", [3, 4], [5], [2, 3], rng)
        bad = [f.copy() for f in layer.factors]
        bad[1] = GaussianFactor(np.zeros((3, 4, 3)), np.ones((3, 4, 3)))
        with pytest.raises(ValueError):
            FactorizedLayer(
                "tt", bad, layer.rank_variances, layer.row_dims, layer.col_dims
            )


class TestInit:
    @pytest.mark.parametrize("kind,row,col,ranks", FORMAT_CASES)
    def test_entry_variance_near_target(self, kind, row, col, ranks):
        # average over many draws: reconstructed entry variance ~ 2/fan_in
        rng = np.random.default_rng(31)
        target = 2.0 / np.prod(row)
        samples = []
        for _ in range(40):
            layer = init_layer(kind, row, col, ranks, rng)
            samples.append(np.var(reconstruct(kind, layer.point_means())))
        ratio = np.mean(samples) / target
        assert 0.5 < ratio < 2.0
