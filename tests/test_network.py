import numpy as np
import pytest

from tensorard import factorized, network
from tensorard.factorized import GaussianFactor, init_layer
from tensorard.network import (
    Embedding,
    LayerSample,
    Network,
    PlainLinear,
    TensorizedLinear,
    build_network,
    embedding_lookup,
    nll_multinomial,
    softmax,
)


def tiny_net(kind="cp", ranks=3, activation="identity", seed=3, classes=4):
    rng = np.random.default_rng(seed)
    return build_network(
        [
            {
                "type": "tensorized_linear",
                "format": kind,
                "row_dims": [3, 2],
                "col_dims": [classes],
                "max_rank": ranks,
                "activation": activation,
            }
        ],
        classes=classes,
        rng=rng,
    )


def zero_noise_state(net):
    state = []
    for layer in net.layers:
        if isinstance(layer, TensorizedLinear):
            fs = layer.weight.factors
            state.append(
                LayerSample(
                    [f.mean.copy() for f in fs],
                    [np.zeros(f.shape) for f in fs],
                    layer.bias.mean.copy(),
                    np.zeros(layer.bias.shape),
                )
            )
        elif isinstance(layer, PlainLinear):
            state.append(
                LayerSample(
                    [layer.weight.mean.copy()],
                    [np.zeros(layer.weight.shape)],
                    layer.bias.mean.copy(),
                    np.zeros(layer.bias.shape),
                )
            )
        else:
            fs = layer.table.factors
            state.append(
                LayerSample(
                    [f.mean.copy() for f in fs], [np.zeros(f.shape) for f in fs]
                )
            )
    return state


class TestForward:
    def test_zero_weights_zero_bias_give_zero_logits(self):
        net = tiny_net()
        layer = net.layers[0]
        for f in layer.weight.factors:
            f.mean[...] = 0.0
        layer.bias.mean[...] = 0.0
        logits = net.forward(np.random.default_rng(0).standard_normal((5, 6)))
        np.testing.assert_array_equal(logits, np.zeros((5, 4)))

    def test_posterior_mean_equals_zero_noise_sample(self):
        net = tiny_net(kind="tt", ranks=[2, 3])
        x = np.random.default_rng(1).standard_normal((7, 6))
        mean_logits = net.forward(x)
        sampled = net.forward(x, sample=zero_noise_state(net))
        np.testing.assert_allclose(mean_logits, sampled, atol=0)

    def test_rank_one_cp_matches_dense_product(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((2, 1))
        v = rng.standard_normal((2, 1))
        weight = factorized.FactorizedLayer(
            "cp",
            [GaussianFactor(u, np.zeros_like(u)), GaussianFactor(v, np.zeros_like(v))],
            [np.ones(1)],
            [2],
            [2],
        )
        bias = GaussianFactor(np.array([0.5, -0.2]), np.zeros(2))
        net = Network(
            [TensorizedLinear(weight, bias, 2, 2, activation="identity")], classes=2
        )
        x = rng.standard_normal((4, 2))
        dense_w = np.outer(u[:, 0], v[:, 0])
        np.testing.assert_allclose(
            net.forward(x), x @ dense_w + bias.mean, atol=1e-12
        )

    def test_relu_applied(self):
        net = tiny_net(activation="relu")
        x = np.random.default_rng(3).standard_normal((10, 6))
        logits = net.forward(x)
        assert np.all(logits >= 0.0)

    def test_dimension_mismatch_rejected(self):
        net = tiny_net()
        with pytest.raises(ValueError, match="input"):
            net.forward(np.zeros((5, 7)))

    def test_mean_forward_deterministic(self):
        net = tiny_net(kind="tucker", ranks=[2, 2, 2])
        x = np.random.default_rng(4).standard_normal((5, 6))
        np.testing.assert_array_equal(net.forward(x), net.forward(x))


class TestNll:
    def test_uniform_logits_log_classes(self):
        logits = np.zeros((8, 10))
        labels = np.arange(8) % 10
        assert nll_multinomial(logits, labels) == pytest.approx(np.log(10.0), abs=1e-12)

    def test_confident_correct_logit_drives_loss_to_zero(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 1e4
        assert nll_multinomial(logits, np.array([2])) < 1e-10

    def test_matches_naive_softmax(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((20, 3))
        labels = rng.integers(0, 3, size=20)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        naive = -np.mean(np.log(probs[np.arange(20), labels]))
        assert nll_multinomial(logits, labels) == pytest.approx(naive, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal((10, 4))
        labels = rng.integers(0, 4, size=10)
        shifted = logits + rng.standard_normal((10, 1)) * 50.0
        assert nll_multinomial(logits, labels) == pytest.approx(
            nll_multinomial(shifted, labels), rel=1e-9
        )

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        logits = rng.standard_normal((50, 6)) * 3
        labels = rng.integers(0, 6, size=50)
        assert nll_multinomial(logits, labels) >= 0.0

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="label"):
            nll_multinomial(np.zeros((2, 3)), np.array([0, 3]))


class TestBackward:
    @pytest.mark.parametrize(
        "kind,ranks",
        [("cp", 3), ("tucker", [2, 2, 3]), ("tt", [2, 3]), ("ttm", 3)],
    )
    def test_matches_finite_differences(self, kind, ranks):
        rng = np.random.default_rng(8)
        if kind == "ttm":
            cfg = {
                "type": "tensorized_linear",
                "format": "ttm",
                "row_dims": [3, 2],
                "col_dims": [2, 2],
                "max_rank": ranks,
                "activation": "identity",
            }
        else:
            cfg = {
                "type": "tensorized_linear",
                "format": kind,
                "row_dims": [3, 2],
                "col_dims": [4],
                "max_rank" if isinstance(ranks, int) else "max_ranks": ranks,
                "activation": "identity",
            }
        net = build_network([cfg], classes=4, rng=np.random.default_rng(9))
        x = rng.standard_normal((6, 6))
        y = rng.integers(0, 4, size=6)
        state = net.sample(np.random.default_rng(10))
        _, cache = net.forward(x, sample=state, want_cache=True)
        grads = net.backward(cache, y)
        layer = net.layers[0]
        draw = state[0]

        def loss():
            points = [
                f.mean + z * f.std for f, z in zip(layer.weight.factors, draw.noises)
            ]
            bias_point = layer.bias.mean + draw.bias_noise * layer.bias.std
            st = [LayerSample(points, draw.noises, bias_point, draw.bias_noise)]
            return nll_multinomial(net.forward(x, sample=st), y)

        h = 1e-5
        checks = []
        for fi, f in enumerate(layer.weight.factors):
            checks.append((f.mean, grads[0].factor_mean[fi]))
            checks.append((f.std, grads[0].factor_std[fi]))
        checks.append((layer.bias.mean, grads[0].bias_mean))
        checks.append((layer.bias.std, grads[0].bias_std))
        for arr, grad in checks:
            flat = arr.reshape(-1)
            gf = np.asarray(grad).reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                up = loss()
                flat[j] = orig - h
                down = loss()
                flat[j] = orig
                numeric = (up - down) / (2 * h)
                rel = abs(numeric - gf[j]) / max(abs(numeric), abs(gf[j]), 1e-7)
                assert rel < 1e-5

    def test_std_grad_is_noise_times_mean_grad(self):
        net = tiny_net(kind="cp", ranks=3, seed=12)
        rng = np.random.default_rng(13)
        x = rng.standard_normal((5, 6))
        y = rng.integers(0, 4, size=5)
        state = net.sample(np.random.default_rng(14))
        _, cache = net.forward(x, sample=state, want_cache=True)
        grads = net.backward(cache, y)
        for z, gm, gs in zip(
            state[0].noises, grads[0].factor_mean, grads[0].factor_std
        ):
            np.testing.assert_allclose(gs, z * gm, atol=1e-15)
        np.testing.assert_allclose(
            grads[0].bias_std, state[0].bias_noise * grads[0].bias_mean, atol=1e-15
        )

    def test_zero_inputs_symmetric_labels_stationary(self):
        net = tiny_net(kind="cp", ranks=2, classes=2, seed=15)
        net.layers[0].bias.mean[...] = 0.0
        x = np.zeros((4, 6))
        y = np.array([0, 1, 0, 1])
        state = zero_noise_state(net)
        _, cache = net.forward(x, sample=state, want_cache=True)
        grads = net.backward(cache, y)
        for g in grads[0].factor_mean:
            np.testing.assert_allclose(g, 0.0, atol=1e-15)
        np.testing.assert_allclose(grads[0].bias_mean, 0.0, atol=1e-15)

    def test_posterior_mean_cache_rejected(self):
        net = tiny_net()
        x = np.zeros((2, 6))
        _, cache = net.forward(x, want_cache=True)
        with pytest.raises(ValueError, match="missing z record"):
            net.backward(cache, np.array([0, 1]))


class TestEmbedding:
    def make_table(self, kind="ttm", ranks=3, seed=20):
        rng = np.random.default_rng(seed)
        return init_layer(kind, [4, 6], [2, 4], ranks, rng, target_var=1.0)

    def test_lookup_selects_rows(self):
        table = self.make_table(kind="cp", ranks=4)
        points = table.point_means()
        full = factorized.reconstruct("cp", points).reshape(24, 8)
        rows = embedding_lookup(table, points, np.array([3, 0, 17]))
        np.testing.assert_array_equal(rows, full[[3, 0, 17]])

    def test_ttm_contraction_matches_materialized(self):
        table = self.make_table(kind="ttm", ranks=3)
        points = table.point_means()
        full = factorized.reconstruct("ttm", points).reshape(24, 8)
        idx = np.arange(24)
        rows = embedding_lookup(table, points, idx)
        assert np.max(np.abs(rows - full)) < 1e-12

    def test_repeated_index_repeats_rows(self):
        table = self.make_table()
        points = table.point_means()
        rows = embedding_lookup(table, points, np.array([5, 5, 5]))
        np.testing.assert_array_equal(rows[0], rows[1])
        np.testing.assert_array_equal(rows[1], rows[2])

    def test_index_out_of_range_rejected(self):
        table = self.make_table()
        with pytest.raises(ValueError, match="out of range"):
            embedding_lookup(table, table.point_means(), np.array([24]))

    def test_sparse_ttm_backprop_equals_dense_scatter(self):
        from tensorard.network import _ttm_embedding_backprop

        rng = np.random.default_rng(30)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            row_dims = rng.integers(2, 5, size=d).tolist()
            col_dims = rng.integers(2, 4, size=d).tolist()
            ranks = rng.integers(1, 4, size=d - 1).tolist()
            table = init_layer("ttm", row_dims, col_dims, ranks, rng, target_var=1.0)
            points = table.point_means()
            n_tok = int(np.prod(row_dims))
            e_dim = int(np.prod(col_dims))
            idx = rng.integers(0, n_tok, size=int(rng.integers(1, 20)))
            g = rng.standard_normal((idx.size, e_dim))
            dense = np.zeros((n_tok, e_dim))
            np.add.at(dense, idx, g)
            ref = factorized.backprop_reconstruction(
                "ttm", points, dense.reshape(table.tensor_dims)
            )
            fast = _ttm_embedding_backprop(points, idx, g, row_dims)
            for a, b in zip(ref, fast):
                np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("cores", [9, 10])
    def test_ttm_table_with_more_than_eight_cores(self, cores):
        from tensorard.datasets import LabeledDataset
        from tensorard.network import _ttm_embedding_backprop
        from tensorard.training import TrainConfig, train

        row_dims, col_dims = [2] * cores, [1] * (cores - 2) + [2, 2]
        rng = np.random.default_rng(cores)
        table = init_layer("ttm", row_dims, col_dims, 2, rng, target_var=1.0)
        points = table.point_means()
        n_tok = 2**cores
        idx = rng.integers(0, n_tok, size=300)
        g = rng.standard_normal((idx.size, 4))
        dense = np.zeros((n_tok, 4))
        np.add.at(dense, idx, g)
        ref = factorized.backprop_reconstruction(
            "ttm", points, dense.reshape(table.tensor_dims)
        )
        fast = _ttm_embedding_backprop(points, idx, g, row_dims)
        for a, b in zip(ref, fast):
            np.testing.assert_allclose(a, b, atol=1e-12)

        net = build_network(
            [
                {"type": "embedding", "format": "ttm", "row_dims": row_dims,
                 "col_dims": col_dims, "max_rank": 2},
                {"type": "plain_linear", "in_features": 4, "out_features": 3},
            ],
            classes=3,
            rng=rng,
        )
        data = LabeledDataset(idx, rng.integers(0, 3, size=idx.size), 3)
        cfg = TrainConfig(epochs=1, batch_size=64, learning_rate=1e-3, seed=0)
        _, report = train(net, data, cfg)
        assert len(report.train_acc) == 1

    def test_cp_table_embedding_gradients(self):
        rng = np.random.default_rng(31)
        net = build_network(
            [
                {"type": "embedding", "format": "cp", "row_dims": [4, 6],
                 "col_dims": [2, 4], "max_rank": 3},
                {"type": "plain_linear", "in_features": 8, "out_features": 3},
            ],
            classes=3,
            rng=rng,
        )
        tokens = np.array([1, 9, 9, 20])
        labels = np.array([0, 2, 1, 2])
        state = net.sample(np.random.default_rng(32))
        _, cache = net.forward(tokens, sample=state, want_cache=True)
        grads = net.backward(cache, labels)
        layer = net.layers[0]
        draw = state[0]

        def loss():
            points = [
                f.mean + z * f.std for f, z in zip(layer.table.factors, draw.noises)
            ]
            st = [LayerSample(points, draw.noises), state[1]]
            return nll_multinomial(net.forward(tokens, sample=st), labels)

        h = 1e-6
        for fi, f in enumerate(layer.table.factors):
            flat = f.mean.reshape(-1)
            gf = grads[0].factor_mean[fi].reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                up = loss()
                flat[j] = orig - h
                down = loss()
                flat[j] = orig
                numeric = (up - down) / (2 * h)
                assert abs(numeric - gf[j]) < 1e-5 * max(1.0, abs(gf[j]))

    def test_embedding_network_forward_backward(self):
        rng = np.random.default_rng(21)
        net = build_network(
            [
                {
                    "type": "embedding",
                    "format": "ttm",
                    "row_dims": [4, 6],
                    "col_dims": [2, 4],
                    "max_rank": 3,
                },
                {"type": "plain_linear", "in_features": 8, "out_features": 3},
            ],
            classes=3,
            rng=rng,
        )
        tokens = np.array([0, 5, 23, 5])
        labels = np.array([0, 1, 2, 1])
        state = net.sample(np.random.default_rng(22))
        logits, cache = net.forward(tokens, sample=state, want_cache=True)
        assert logits.shape == (4, 3)
        grads = net.backward(cache, labels)
        assert grads[0].factor_mean is not None
        assert grads[0].bias_mean is None
        # finite-difference spot check on the first embedding core
        layer = net.layers[0]
        draw = state[0]

        def loss():
            points = [
                f.mean + z * f.std for f, z in zip(layer.table.factors, draw.noises)
            ]
            st = [LayerSample(points, draw.noises), state[1]]
            return nll_multinomial(net.forward(tokens, sample=st), labels)

        f = layer.table.factors[0]
        flat = f.mean.reshape(-1)
        gf = grads[0].factor_mean[0].reshape(-1)
        h = 1e-6
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = loss()
            flat[j] = orig - h
            down = loss()
            flat[j] = orig
            numeric = (up - down) / (2 * h)
            assert abs(numeric - gf[j]) < 1e-5 * max(1.0, abs(gf[j]))


class TestStructure:
    def test_param_count_includes_biases(self):
        rng = np.random.default_rng(23)
        net = build_network(
            [
                {
                    "type": "tensorized_linear",
                    "format": "cp",
                    "row_dims": [28, 28],
                    "col_dims": [16, 32],
                    "max_rank": 50,
                    "activation": "relu",
                },
                {
                    "type": "tensorized_linear",
                    "format": "cp",
                    "row_dims": [32, 16],
                    "col_dims": [10],
                    "max_rank": 50,
                    "activation": "identity",
                },
            ],
            classes=10,
            rng=rng,
        )
        assert net.param_count() == 8622
        assert net.dense_param_count() == 407050

    def test_mismatched_chain_rejected(self):
        rng = np.random.default_rng(24)
        with pytest.raises(ValueError, match="chain"):
            build_network(
                [
                    {
                        "type": "tensorized_linear",
                        "format": "cp",
                        "row_dims": [4],
                        "col_dims": [5],
                        "max_rank": 2,
                    },
                    {"type": "plain_linear", "in_features": 6, "out_features": 3},
                ],
                classes=3,
                rng=rng,
            )

    def test_final_width_must_match_classes(self):
        rng = np.random.default_rng(25)
        with pytest.raises(ValueError, match="final layer"):
            build_network(
                [{"type": "plain_linear", "in_features": 4, "out_features": 5}],
                classes=3,
                rng=rng,
            )

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(26)
        probs = softmax(rng.standard_normal((30, 7)) * 20)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


class TestKlTotal:
    def test_zero_when_posterior_matches_prior(self):
        from tensorard.bayes import LogUniform

        net = tiny_net(kind="tucker", ranks=[2, 2, 2])
        layer = net.layers[0]
        for v in layer.weight.rank_variances:
            v[:] = 1.0
        for f in layer.weight.factors:
            f.mean[...] = 0.0
            f.std[...] = 1.0
        layer.bias.mean[...] = 0.0
        layer.bias.std[...] = 1.0
        total = net.kl_total(LogUniform(), weak_prior_std=1.0)
        assert abs(total) < 1e-12

    def test_single_entry_half(self):
        from tensorard.bayes import kl_gaussian

        assert kl_gaussian(1.0, 1.0, 1.0) == 0.5

    def test_gradients_match_finite_differences_of_total(self):
        from tensorard.bayes import LogUniform

        net = tiny_net(kind="cp", ranks=3, seed=30)
        prior = LogUniform()
        grads = net.kl_gradients(weak_prior_std=1.3)
        layer = net.layers[0]
        h = 1e-6
        checks = [
            (f.mean, grads[0].factor_mean[i]) for i, f in enumerate(layer.weight.factors)
        ]
        checks += [
            (f.std, grads[0].factor_std[i]) for i, f in enumerate(layer.weight.factors)
        ]
        checks += [(layer.bias.mean, grads[0].bias_mean), (layer.bias.std, grads[0].bias_std)]
        for arr, grad in checks:
            flat = arr.reshape(-1)
            gf = np.asarray(grad).reshape(-1)
            for j in range(0, flat.size, 5):
                orig = flat[j]
                flat[j] = orig + h
                up = net.kl_total(prior, weak_prior_std=1.3)
                flat[j] = orig - h
                down = net.kl_total(prior, weak_prior_std=1.3)
                flat[j] = orig
                numeric = (up - down) / (2 * h)
                rel = abs(numeric - gf[j]) / max(abs(numeric), abs(gf[j]), 1e-8)
                assert rel < 1e-5
