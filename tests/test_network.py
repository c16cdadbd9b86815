import copy

import numpy as np
import pytest

from tensorard import factorized, network
from tensorard.factorized import GaussianFactor, init_layer
from tensorard.network import (
    Embedding,
    Network,
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


def per_gaussian(net, grads):
    """A flat (d/dmean, d/dstd) gradient pair read back per layer, one pair per
    Gaussian, through the views of the network's store."""
    store = net._gaussian_store()
    return [list(zip(m, s)) for m, s in zip(*map(store.views, grads))]


def zero_noise_state(net):
    return [
        (
            [g.mean.copy() for g in layer.gaussians()],
            [np.zeros(g.shape) for g in layer.gaussians()],
        )
        for layer in net.layers
    ]


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

    # On a batch of 4: one label that would broadcast, a column of labels,
    # and too few labels.
    @pytest.mark.parametrize("shape", [(1,), (4, 1), (2,)], ids=["broadcast", "column", "short"])
    def test_labels_must_be_one_per_input(self, shape):
        labels = np.zeros(shape, dtype=np.int64)
        with pytest.raises(ValueError, match="one entry per input"):
            nll_multinomial(np.zeros((4, 4)), labels)
        net = tiny_net()
        state = net.sample(np.random.default_rng(0))
        _, cache = net.forward(np.ones((4, 6)), sample=state, want_cache=True)
        with pytest.raises(ValueError, match="one entry per input"):
            net.backward(cache, labels)


class TestBackward:
    @pytest.mark.parametrize(
        "kind,ranks",
        [("cp", 3), ("tucker", [2, 2, 3]), ("tt", [2, 3]), ("ttm", 3)],
    )
    def test_matches_finite_differences(self, kind, ranks):
        rng = np.random.default_rng(8)
        cfg = {
            "type": "tensorized_linear",
            "format": kind,
            "row_dims": [3, 2],
            "col_dims": [2, 2] if kind == "ttm" else [4],
            "max_rank": ranks,
            "activation": "identity",
        }
        net = build_network([cfg], classes=4, rng=np.random.default_rng(9))
        x = rng.standard_normal((6, 6))
        y = rng.integers(0, 4, size=6)
        state = net.sample(np.random.default_rng(10))
        _, cache = net.forward(x, sample=state, want_cache=True)
        grads = per_gaussian(net, net.backward(cache, y))
        layer = net.layers[0]
        noises = state[0][1]

        def loss():
            points = [g.mean + z * g.std for g, z in zip(layer.gaussians(), noises)]
            st = [(points, noises)]
            return nll_multinomial(net.forward(x, sample=st), y)

        h = 1e-5
        checks = []
        for g, (d_mean, d_std) in zip(layer.gaussians(), grads[0]):
            checks.append((g.mean, d_mean))
            checks.append((g.std, d_std))
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
        grads = per_gaussian(net, net.backward(cache, y))
        for z, (gm, gs) in zip(state[0][1], grads[0]):
            np.testing.assert_allclose(gs, z * gm, atol=1e-15)

    def test_zero_inputs_symmetric_labels_stationary(self):
        net = tiny_net(kind="cp", ranks=2, classes=2, seed=15)
        net.layers[0].bias.mean[...] = 0.0
        x = np.zeros((4, 6))
        y = np.array([0, 1, 0, 1])
        state = zero_noise_state(net)
        _, cache = net.forward(x, sample=state, want_cache=True)
        grads = per_gaussian(net, net.backward(cache, y))
        for g, _ in grads[0]:
            np.testing.assert_allclose(g, 0.0, atol=1e-15)

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

    @pytest.mark.parametrize("kind", ["cp", "tucker", "tt", "ttm"])
    def test_from_config_rejects_an_empty_column_mode(self, kind):
        # The table's target variance divides by prod(col_dims).
        cfg = {"format": kind, "row_dims": [4], "col_dims": [0], "max_rank": 1}
        with pytest.raises(ValueError, match=f"{kind} needs at least one mode"):
            Embedding.from_config(cfg, np.random.default_rng(0), 0.05)

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
            fmt = factorized.FORMATS["ttm"]
            _, memo = fmt.lookup_rows(table, points, idx)
            fast = fmt.backprop_rows(table, points, memo, g)
            for a, b in zip(ref, fast):
                np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("cores", [9, 10])
    def test_ttm_table_with_more_than_eight_cores(self, cores):
        from tensorard.datasets import LabeledDataset
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
        embedding = Embedding(table, n_tok, 4)
        _, entry = embedding.forward(idx, points)
        fast, _ = embedding.backward(entry, g, points, False)
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
        grads = per_gaussian(net, net.backward(cache, labels))
        layer = net.layers[0]
        noises = state[0][1]

        def loss():
            points = [f.mean + z * f.std for f, z in zip(layer.table.factors, noises)]
            st = [(points, noises), state[1]]
            return nll_multinomial(net.forward(tokens, sample=st), labels)

        h = 1e-6
        for fi, f in enumerate(layer.table.factors):
            flat = f.mean.reshape(-1)
            gf = grads[0][fi][0].reshape(-1)
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
        grads = per_gaussian(net, net.backward(cache, labels))
        # one gradient pair per table core, none for a bias
        assert len(grads[0]) == len(net.layers[0].table.factors)
        # finite-difference spot check on the first embedding core
        layer = net.layers[0]
        noises = state[0][1]

        def loss():
            points = [f.mean + z * f.std for f, z in zip(layer.table.factors, noises)]
            st = [(points, noises), state[1]]
            return nll_multinomial(net.forward(tokens, sample=st), labels)

        f = layer.table.factors[0]
        flat = f.mean.reshape(-1)
        gf = grads[0][0][0].reshape(-1)
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

    @pytest.mark.parametrize("kind", ["ttm", "cp"])
    def test_embedding_only_network_gradients(self, kind):
        # The table rows are the logits: embed_dim equals the class count.
        net = build_network(
            [{"type": "embedding", "format": kind, "row_dims": [3, 4],
              "col_dims": [2, 2] if kind == "ttm" else [4], "max_rank": 2}],
            classes=4,
            rng=np.random.default_rng(40),
        )
        tokens = np.array([0, 7, 11, 7, 3])
        labels = np.array([1, 3, 0, 3, 2])
        state = net.sample(np.random.default_rng(41))
        _, cache = net.forward(tokens, sample=state, want_cache=True)
        grads = per_gaussian(net, net.backward(cache, labels))
        layer = net.layers[0]
        noises = state[0][1]

        def loss():
            points = [f.mean + z * f.std for f, z in zip(layer.table.factors, noises)]
            return nll_multinomial(net.forward(tokens, sample=[(points, noises)]), labels)

        h = 1e-6
        for f, z, (d_mean, d_std) in zip(layer.table.factors, noises, grads[0]):
            np.testing.assert_array_equal(d_std, z * d_mean)
            flat = f.mean.reshape(-1)
            gf = d_mean.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                up = loss()
                flat[j] = orig - h
                down = loss()
                flat[j] = orig
                numeric = (up - down) / (2 * h)
                assert abs(numeric - gf[j]) < 1e-6 * max(1.0, abs(gf[j]))


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

    @pytest.mark.parametrize("layer,key", [
        *((layer, key) for layer in ("tensorized_linear", "embedding")
          for key in ("type", "format", "row_dims", "col_dims", "max_rank")),
        *(("plain_linear", key) for key in ("type", "in_features", "out_features")),
    ])
    def test_missing_layer_key_names_the_layer_and_key(self, layer, key):
        cfg = ({"type": layer, "in_features": 4, "out_features": 3}
               if layer == "plain_linear" else
               {"type": layer, "format": "cp", "row_dims": [4], "col_dims": [3],
                "max_rank": 2})
        del cfg[key]
        head = {"type": "plain_linear", "in_features": 4, "out_features": 4}
        with pytest.raises(ValueError, match=f"^layer 1 lacks the required key '{key}'$"):
            build_network([head, cfg], classes=3, rng=np.random.default_rng(27))

    def test_unknown_layer_type_rejected(self):
        with pytest.raises(ValueError, match="unknown layer type 'conv'"):
            build_network([{"type": "conv"}], classes=3, rng=np.random.default_rng(28))

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

    @pytest.mark.parametrize("poison", ["weak_zero", "rank_zero", "rank_negative",
                                        "rank_nan", "std_nan_beside_negative"])
    @pytest.mark.parametrize("layers", ["with_biases", "embedding_only"])
    def test_raises_exactly_where_the_per_entry_check_raises(self, poison, layers):
        """The positivity checks read the prior slots in use: the weak slot
        counts only when some entry has the weak prior (none does in a CP
        embedding without a head), and a NaN passes as it did per entry."""
        from tensorard.bayes import HalfCauchy

        if layers == "with_biases":
            net = store_net("cp")
        else:
            net = build_network([{"type": "embedding", "format": "cp", "row_dims": [3, 2],
                                  "col_dims": [3], "max_rank": 2}], 3,
                                np.random.default_rng(41))
        fl = net.layers[0].factorized
        net.kl_total(HalfCauchy(0.3))  # the store is built, the poison lands in it
        weak_std = 0.0 if poison == "weak_zero" else 1.3
        if poison.startswith("rank_"):
            fl.rank_variances[0][1] = {"rank_zero": 0.0, "rank_negative": -1.0,
                                       "rank_nan": np.nan}[poison]
        elif poison == "std_nan_beside_negative":
            fl.factors[0].std[0, :2] = [np.nan, -1.0]

        def outcome(kl):
            try:
                return kl(HalfCauchy(0.3), weak_std)
            except ValueError as e:
                return str(e)

        with np.errstate(all="ignore"):
            got = outcome(net.kl_total)
            want = outcome(lambda prior, std: reference_kl_total(net, prior, std))
        np.testing.assert_equal(got, want)
        assert isinstance(got, str) == (poison not in ("rank_nan",) and not (
            poison == "weak_zero" and layers == "embedding_only"))

    def test_gradients_match_finite_differences_of_total(self):
        _check_kl_gradients(tiny_net(kind="cp", ranks=3, seed=30))

    @pytest.mark.parametrize("kind", ["tucker", "ttm"])
    def test_gradients_match_finite_differences_of_total_embedding(self, kind):
        # Every Gaussian kind at once: table factors (rank prior or, for the
        # Tucker core, the weak prior), a plain weight and a bias.
        net = build_network(
            [
                {"type": "embedding", "format": kind, "row_dims": [3, 2],
                 "col_dims": [2, 2], "max_rank": 2},
                {"type": "plain_linear", "in_features": 4, "out_features": 3},
            ],
            classes=3,
            rng=np.random.default_rng(30),
        )
        _check_kl_gradients(net)


def _check_kl_gradients(net):
    """Every fifth entry of every Gaussian: KL gradient vs central differences."""
    from tensorard.bayes import LogUniform

    prior = LogUniform()
    grads = per_gaussian(net, net.kl_gradients(weak_prior_std=1.3))
    h = 1e-6
    checks = []
    for layer, layer_grads in zip(net.layers, grads):
        assert len(layer_grads) == len(layer.gaussians())
        for g, (d_mean, d_std) in zip(layer.gaussians(), layer_grads):
            checks += [(g.mean, d_mean), (g.std, d_std)]
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


# -- the flat store -----------------------------------------------------------


def store_net(kind, seed=40):
    """Every Gaussian kind across three layers: a tensorized_linear weight of
    format ``kind`` and its bias, then a Tucker weight (a core under the weak
    prior) and its bias, then a plain weight and bias."""
    layers = [
        {"type": "tensorized_linear", "format": kind, "row_dims": [3, 4],
         "col_dims": [2, 3], "max_rank": 3, "activation": "relu"},
        {"type": "tensorized_linear", "format": "tucker", "row_dims": [2, 3],
         "col_dims": [4], "max_rank": [2, 1, 2], "activation": "relu"},
        {"type": "plain_linear", "in_features": 4, "out_features": 3},
    ]
    return build_network(layers, 3, np.random.default_rng(seed))


def reference_sample(net, rng):
    """One ``bayes.sample_gaussians`` call per layer."""
    from tensorard import bayes

    return [bayes.sample_gaussians(layer.gaussians(), rng) for layer in net.layers]


def reference_prior_variances(layer, weak_var):
    """Each Gaussian's prior variance: its rank variances, else the weak one.

    The rank variances come from the per-format reference in
    ``test_rank_axes.py``, not from ``factorized.prior_slots``, which the
    store itself reads."""
    from test_rank_axes import ref_prior_variance_arrays

    prior = {}
    fl = layer.factorized
    if fl is not None:
        arrays = ref_prior_variance_arrays(fl, weak_var)
        prior = {id(f): var for f, var in zip(fl.factors, arrays)}
    return [prior.get(id(g), weak_var) for g in layer.gaussians()]


def reference_kl_total(net, hyper_prior, weak_std):
    """``bayes.gaussian_kl`` per layer, then the rank penalties."""
    from tensorard import bayes

    weak_var = weak_std * weak_std
    total = 0.0
    for layer in net.layers:
        total += bayes.gaussian_kl(layer.gaussians(), reference_prior_variances(layer, weak_var))
    for _, fl in net.factorized_layers():
        total += bayes.rank_penalty(fl, hyper_prior)
    return total


def reference_kl_gradients(net, weak_std):
    from tensorard import bayes

    weak_var = weak_std * weak_std
    return [bayes.gaussian_kl_gradients(layer.gaussians(),
                                        reference_prior_variances(layer, weak_var))
            for layer in net.layers]


def assert_same_arrays(got, want):
    """Nested lists and tuples of arrays, equal bit for bit."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        return
    assert type(got) is type(want) and len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_arrays(g, w)


def assert_store_reads_the_layers(net, seed=0):
    """Sampling, the KL and its gradient equal their per-Gaussian references."""
    from tensorard.bayes import HalfCauchy

    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_same_arrays(net.sample(rng), reference_sample(net, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    prior = HalfCauchy(0.3)
    assert net.kl_total(prior, weak_prior_std=1.3) == reference_kl_total(net, prior, 1.3)
    assert_same_arrays(per_gaussian(net, net.kl_gradients(weak_prior_std=1.3)),
                       reference_kl_gradients(net, 1.3))


def all_arrays(net):
    out = [a for layer in net.layers for g in layer.gaussians() for a in (g.mean, g.std)]
    return out + [v for _, fl in net.factorized_layers() for v in fl.rank_variances]


@pytest.mark.parametrize("kind", ["cp", "tucker", "tt", "ttm"])
class TestFlatStore:
    """Every Gaussian is a view into the network's two flat buffers; each pass
    over them must equal the per-Gaussian computation bit for bit, and the
    buffers must follow every array a layer is given."""

    def test_sample_and_kl_equal_the_per_gaussian_references(self, kind):
        net = store_net(kind)
        before = [a.copy() for a in all_arrays(net)]
        assert_store_reads_the_layers(net)
        assert_same_arrays(all_arrays(net), before)  # building moved no value
        means, stds = net.flat_gaussians()
        for layer in net.layers:
            for g in layer.gaussians():
                assert g.mean.base is means and g.std.base is stds
        # A second call reuses the store and still reads the current values.
        net.layers[0].bias.mean[...] = 0.25
        assert_store_reads_the_layers(net, seed=1)

    def test_gradients_are_flat_pairs_aligned_with_the_buffers(self, kind):
        """``backward`` and ``kl_gradients`` each return two flat float64
        arrays the size of the buffers; read through the store's views, the
        likelihood's std half is z times its mean half, bit for bit."""
        net = store_net(kind)
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((6, 12)), rng.integers(0, 3, 6)
        state = net.sample(rng)
        _, cache = net.forward(x, sample=state, want_cache=True)
        means, _ = net.flat_gaussians()
        for grads in (net.backward(cache, y), net.kl_gradients()):
            assert len(grads) == 2
            for a in grads:
                assert a.dtype == np.float64 and a.shape == means.shape
        like = per_gaussian(net, net.backward(cache, y))
        for (_, noises), layer_grads in zip(state, like):
            for z, (d_mean, d_std) in zip(noises, layer_grads):
                assert d_std.tobytes() == (z * d_mean).tobytes()

    def test_training_a_deep_copy_leaves_the_original(self, kind):
        from tensorard import training
        from tensorard.datasets import LabeledDataset

        net = store_net(kind)
        net.sample(np.random.default_rng(0))  # builds the store
        before = [a.copy() for a in all_arrays(net)]
        trained = copy.deepcopy(net)
        rng = np.random.default_rng(3)
        data = LabeledDataset(rng.standard_normal((24, 12)), rng.integers(0, 3, 24), 3)
        training.train(trained, data, training.TrainConfig(epochs=2, batch_size=8,
                                                           prune_threshold=1e-30))
        assert_same_arrays(all_arrays(net), before)
        assert any(a.tobytes() != b.tobytes() for a, b in zip(all_arrays(trained), before))
        for a in net.flat_gaussians():
            assert not any(np.shares_memory(a, b) for b in trained.flat_gaussians())

    def test_replaced_bias_and_rank_vector_are_read(self, kind):
        net = store_net(kind)
        net.sample(np.random.default_rng(0))
        layer = net.layers[1]
        layer.bias = GaussianFactor(np.full(4, 0.5), np.full(4, 0.2))
        assert_store_reads_the_layers(net)
        assert layer.bias.mean.base is net.flat_gaussians()[0]
        fl = net.layers[0].weight
        fl.rank_variances[0] = np.full(fl.rank_variances[0].size, 0.3)
        assert_store_reads_the_layers(net)

    def test_rank_update_reads_only_rank_prior_factors(self, kind):
        """NaN in the entries without a rank prior (Tucker cores, biases and
        the plain weight) leaves the updated rank variances bit-equal to
        those of a clean copy."""
        from tensorard.bayes import HalfCauchy

        net = store_net(kind)
        clean = copy.deepcopy(net)
        for layer in net.layers:
            fl = layer.factorized
            weak = [layer.bias] + ([layer.weight] if fl is None else [])
            if fl is not None and fl.kind == "tucker":
                weak.append(fl.factors[-1])
            for g in weak:
                g.mean[...] = np.nan
                g.std[...] = np.nan
        for n in (net, clean):
            n.update_rank_variances(HalfCauchy(0.3), 0.5)
        got = [v for _, fl in net.factorized_layers() for v in fl.rank_variances]
        assert_same_arrays(got, [v for _, fl in clean.factorized_layers()
                                 for v in fl.rank_variances])
        assert all(np.isfinite(v).all() for v in got)

    def test_pruned_and_loaded_layers_are_read(self, kind, tmp_path):
        from tensorard import checkpoint

        net = store_net(kind)
        net.sample(np.random.default_rng(0))
        fl = net.layers[0].weight
        fl.rank_variances[0][0] = 1e-9
        pruned = factorized.prune(fl, 1e-6)
        fl.factors, fl.rank_variances = pruned.factors, pruned.rank_variances
        assert_store_reads_the_layers(net)
        checkpoint.save_network(net, tmp_path / "net.npz")
        loaded = checkpoint.load_network(tmp_path / "net.npz")
        assert_store_reads_the_layers(loaded)
        assert_same_arrays(all_arrays(loaded), all_arrays(net))
