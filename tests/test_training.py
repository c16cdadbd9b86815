import copy
import json

import numpy as np
import pytest

from tensorard import checkpoint, datasets, network, training
from tensorard.bayes import HalfCauchy, LogUniform
from tensorard.datasets import LabeledDataset, gen_synthetic
from tensorard.network import build_network
from tensorard.training import (
    TrainConfig,
    TrainingDiverged,
    evaluate,
    kl_weight,
    predict_uncertainty,
    train,
)


def toy_problem(seed=0, num=160, kind="cp", ranks=2):
    data, _ = gen_synthetic("cp", [4], [3], 1, num_samples=num, seed=seed)
    rng = np.random.default_rng(seed + 1)
    net = build_network(
        [
            {
                "type": "tensorized_linear",
                "format": kind,
                "row_dims": [4],
                "col_dims": [3],
                "max_rank": ranks,
                "activation": "identity",
            }
        ],
        classes=3,
        rng=rng,
    )
    return net, data


class TestKlWeight:
    def test_ramp(self):
        assert kl_weight(1, 10) == pytest.approx(0.1)

    def test_reaches_one(self):
        assert kl_weight(10, 10) == 1.0

    def test_clipped(self):
        assert kl_weight(25, 10) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            kl_weight(0, 10)


class TestConfig:
    def test_defaults_fill_warmup(self):
        cfg = TrainConfig(epochs=8)
        assert cfg.warmup_epochs == 4

    def test_gamma_zero_allowed(self):
        TrainConfig(epochs=2, rank_step=0.0)

    def test_gamma_above_one_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=2, rank_step=1.5)

    def test_warmup_beyond_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=2, warmup_epochs=3)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=2, mode="map")


class TestTrain:
    def test_gamma_zero_freezes_rank_variances(self):
        net, data = toy_problem()
        before = [v.copy() for _, fl in net.factorized_layers() for v in fl.rank_variances]
        cfg = TrainConfig(
            epochs=2, batch_size=32, learning_rate=1e-3, rank_step=0.0,
            prune_threshold=1e-12, seed=0,
        )
        net, report = train(net, data, cfg)
        after = [v.copy() for _, fl in net.factorized_layers() for v in fl.rank_variances]
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)

    def test_fixed_rank_mode_freezes_and_zeroes_beta(self):
        net, data = toy_problem()
        before = [v.copy() for _, fl in net.factorized_layers() for v in fl.rank_variances]
        cfg = TrainConfig(
            epochs=3, batch_size=32, learning_rate=1e-3, mode="fixed_rank",
            prune_threshold=1e-12, seed=0,
        )
        net, report = train(net, data, cfg)
        assert all(b == 0.0 for b in report.beta)
        after = [v for _, fl in net.factorized_layers() for v in fl.rank_variances]
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)

    def test_deterministic_given_seed(self):
        reports = []
        for _ in range(2):
            net, data = toy_problem(seed=4)
            cfg = TrainConfig(epochs=3, batch_size=32, learning_rate=2e-3, seed=7)
            _, report = train(net, data, cfg)
            d = report.to_json_dict()
            d.pop("wall_time_s")
            reports.append(json.dumps(d, sort_keys=True))
        assert reports[0] == reports[1]

    def test_train_ramps_the_kl_weight_from_epoch_one(self):
        net, data = toy_problem()
        cfg = TrainConfig(epochs=5, warmup_epochs=4, batch_size=80, learning_rate=1e-3, seed=1)
        _, report = train(net, data, cfg)
        assert report.beta == [0.25, 0.5, 0.75, 1.0, 1.0]

    def test_report_lengths_match_epochs(self):
        net, data = toy_problem()
        cfg = TrainConfig(epochs=5, batch_size=40, learning_rate=1e-3, seed=1)
        _, report = train(net, data, cfg)
        for series in (report.loss, report.nll, report.kl, report.beta,
                       report.train_acc, report.ranks):
            assert len(series) == 5

    def test_rank_update_is_convex_combination(self):
        net, data = toy_problem()
        fl = net.factorized_layers()[0][1]
        from tensorard.bayes import update_rank_variances
        from tensorard.factorized import rank_moments

        for step in (0.0, 0.25, 1.0):
            current = [v.copy() for v in fl.rank_variances]
            optima = []
            for m, c in rank_moments(fl):
                optima.append(np.array([
                    LogUniform().optimal_rank_var(float(mm), c) for mm in m
                ]))
            update_rank_variances(fl, LogUniform(), step)
            for v, cur, opt in zip(fl.rank_variances, current, optima):
                lo = np.minimum(cur, opt)
                hi = np.maximum(cur, opt)
                assert np.all(v <= hi + 1e-15)
                assert np.all(v >= np.minimum(lo, 1e-12) - 1e-18)
            fl.rank_variances = current

    def test_surviving_rank_variances_above_threshold(self):
        net, data = toy_problem(num=240)
        cfg = TrainConfig(
            epochs=40, batch_size=60, learning_rate=2e-3, rank_step=0.2,
            prune_threshold=1e-5, seed=3,
        )
        net, report = train(net, data, cfg)
        for _, fl in net.factorized_layers():
            for v in fl.rank_variances:
                assert np.all(v >= cfg.prune_threshold)

    def test_divergence_reported_with_location(self):
        net, data = toy_problem()
        net.layers[0].weight.factors[0].mean[0, 0] = np.nan
        cfg = TrainConfig(epochs=1, batch_size=32, learning_rate=1e-3, seed=0)
        with pytest.raises(TrainingDiverged, match="epoch 1"):
            train(net, data, cfg)

    @pytest.mark.parametrize("where", ["bias_mean", "factor_std", "rank_variance"])
    def test_divergence_blames_the_layer_holding_the_nan(self, where):
        data, _ = gen_synthetic("cp", [4], [3], 1, num_samples=160, seed=0)
        net = build_network(
            [
                {"type": "tensorized_linear", "format": "cp", "row_dims": [2, 2],
                 "col_dims": [3], "max_rank": 2, "activation": "relu"},
                {"type": "tensorized_linear", "format": "cp", "row_dims": [3],
                 "col_dims": [3], "max_rank": 2, "activation": "identity"},
            ],
            classes=3,
            rng=np.random.default_rng(1),
        )
        layer = net.layers[0]
        target = {"bias_mean": layer.bias.mean, "factor_std": layer.weight.factors[1].std,
                  "rank_variance": layer.weight.rank_variances[0]}[where]
        target.flat[0] = np.nan
        cfg = TrainConfig(epochs=1, batch_size=32, learning_rate=1e-3, seed=0)
        with pytest.raises(TrainingDiverged) as caught:
            train(net, data, cfg)
        assert caught.value.layer == 0

    def test_checkpoints_written_each_epoch(self, tmp_path):
        net, data = toy_problem()
        cfg = TrainConfig(epochs=2, batch_size=32, learning_rate=1e-3, seed=0)
        net, _ = train(net, data, cfg, out_dir=tmp_path)
        assert (tmp_path / "checkpoint_last.npz").exists()
        assert (tmp_path / "checkpoint_final.npz").exists()
        reloaded = checkpoint.load_network(tmp_path / "checkpoint_final.npz")
        x = data.inputs[:8]
        np.testing.assert_array_equal(reloaded.forward(x), net.forward(x))

    def test_kl_finite_throughout(self):
        net, data = toy_problem()
        cfg = TrainConfig(epochs=4, batch_size=32, learning_rate=5e-3, seed=2)
        _, report = train(net, data, cfg)
        assert np.all(np.isfinite(report.kl))


class TestStepAndEpochEnd:
    """train() is its setup, one _train_step per batch, one _end_epoch per
    epoch and the final prune: a hand loop over the two retraces it."""

    COLUMNS = ("epochs", "loss", "nll", "kl", "beta", "train_acc", "test_acc", "ranks")

    @pytest.mark.parametrize("mode", ["ard", "fixed_rank"])
    @pytest.mark.parametrize("with_test", [False, True], ids=["no_test", "test"])
    def test_hand_loop_matches_train(self, tmp_path, monkeypatch, mode, with_test):
        net, data = toy_problem(seed=2, num=200)
        train_data = data.subset(slice(0, 150))
        test_data = data.subset(slice(150, None)) if with_test else None
        cfg = TrainConfig(epochs=3, batch_size=40, learning_rate=2e-3, rank_step=0.2,
                          prune_threshold=1e-9, seed=5, mode=mode)
        hand = copy.deepcopy(net)

        # Record the generator every Network.sample call draws from.
        drawn_from = []
        sample = network.Network.sample
        monkeypatch.setattr(network.Network, "sample",
                            lambda self, rng: drawn_from.append(rng) or sample(self, rng))
        _, report = train(net, train_data, cfg, test_data=test_data,
                          out_dir=tmp_path / "train")
        per_epoch = len(datasets.batches(train_data, cfg.batch_size, [cfg.seed, 1]))
        assert len(drawn_from) == cfg.epochs * per_epoch
        assert all(g is drawn_from[0] for g in drawn_from)

        rng = np.random.default_rng(cfg.seed)
        hand_report = training.TrainReport()
        (tmp_path / "hand").mkdir()
        for epoch in range(1, cfg.epochs + 1):
            beta = 0.0 if mode == "fixed_rank" else kl_weight(epoch, cfg.warmup_epochs)
            batches = datasets.batches(train_data, cfg.batch_size, [cfg.seed, epoch])
            steps = [training._train_step(hand, train_data, idx, rng, cfg, beta, epoch, b)
                     for b, idx in enumerate(batches)]
            training._end_epoch(hand, hand_report, cfg, epoch, beta, steps, train_data,
                                test_data, tmp_path / "hand")

        assert rng.bit_generator.state == drawn_from[0].bit_generator.state
        for column in self.COLUMNS:
            assert getattr(hand_report, column) == getattr(report, column), column
        assert (hand_report.test_acc[0] is None) == (not with_test)
        with np.load(tmp_path / "train" / "checkpoint_last.npz") as want, \
                np.load(tmp_path / "hand" / "checkpoint_last.npz") as got:
            assert sorted(got.files) == sorted(want.files)
            for key in want.files:
                assert got[key].dtype == want[key].dtype
                assert got[key].tobytes() == want[key].tobytes(), key

    def test_divergence_is_placed_at_the_batch(self):
        net, data = toy_problem()
        cfg = TrainConfig(epochs=1, batch_size=32, learning_rate=1e-3, seed=0)
        net.layers[0].bias.mean[0] = np.nan
        before = net.layers[0].weight.factors[0].mean.copy()
        with pytest.raises(TrainingDiverged) as caught:
            training._train_step(net, data, np.arange(32), np.random.default_rng(0),
                                 cfg, 1.0, 4, 7)
        assert (caught.value.epoch, caught.value.batch, caught.value.layer) == (4, 7, 0)
        np.testing.assert_array_equal(net.layers[0].weight.factors[0].mean, before)

    def test_ttm_embedding_step_on_a_1e8_row_table_stays_small(self):
        """A TTM embedding step builds only the batch's rows and their
        gradients: one step on a 10^8 x 32 table (a dense one would take
        25.6 GB) peaks under 16 MB of traced allocations."""
        import tracemalloc

        net = build_network(
            [{"type": "embedding", "format": "ttm", "row_dims": [100] * 4,
              "col_dims": [2, 2, 2, 4], "max_rank": 8},
             {"type": "plain_linear", "in_features": 32, "out_features": 4}],
            classes=4, rng=np.random.default_rng(0),
        )
        rng = np.random.default_rng(1)
        data = LabeledDataset(rng.integers(0, 10**8, 256), rng.integers(0, 4, 256), 4)
        cfg = TrainConfig(epochs=1, batch_size=256, learning_rate=1e-3, seed=0)
        tracemalloc.start()
        try:
            training._train_step(net, data, np.arange(256), rng, cfg, 1.0, 1, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestEvaluate:
    def test_constant_logits_on_balanced_data(self):
        rng = np.random.default_rng(5)
        net = build_network(
            [{"type": "plain_linear", "in_features": 6, "out_features": 10}],
            classes=10,
            rng=rng,
        )
        net.layers[0].weight.mean[...] = 0.0
        net.layers[0].bias.mean[...] = 0.0
        labels = np.repeat(np.arange(10), 30)
        data = LabeledDataset(rng.standard_normal((300, 6)), labels, 10)
        # constant prediction hits exactly the class-0 share
        assert evaluate(net, data) == pytest.approx(0.1)

    def test_separable_toy_reaches_one(self):
        rng = np.random.default_rng(6)
        x = np.concatenate([rng.normal(-4, 0.3, (40, 2)), rng.normal(4, 0.3, (40, 2))])
        y = np.array([0] * 40 + [1] * 40)
        data = LabeledDataset(x, y, 2)
        net = build_network(
            [
                {
                    "type": "tensorized_linear",
                    "format": "cp",
                    "row_dims": [2],
                    "col_dims": [2],
                    "max_rank": 2,
                    "activation": "identity",
                }
            ],
            classes=2,
            rng=rng,
        )
        cfg = TrainConfig(epochs=30, batch_size=20, learning_rate=2e-3, seed=0,
                          prune_threshold=1e-9)
        net, _ = train(net, data, cfg)
        assert evaluate(net, data) == 1.0

    def test_empty_rejected(self):
        rng = np.random.default_rng(7)
        net = build_network(
            [{"type": "plain_linear", "in_features": 2, "out_features": 2}],
            classes=2,
            rng=rng,
        )
        with pytest.raises(ValueError, match="empty"):
            evaluate(net, None)

    def test_labels_beyond_the_net_classes_rejected(self):
        # The dataset allows labels up to 9; a 3-class net must not score them
        # as misses.
        net = build_network(
            [{"type": "plain_linear", "in_features": 3, "out_features": 3}],
            classes=3,
            rng=np.random.default_rng(9),
        )
        data = LabeledDataset(np.ones((4, 3)), np.array([0, 1, 2, 9]), 10)
        with pytest.raises(ValueError, match="label out of range"):
            evaluate(net, data)

    def test_ties_break_to_lowest_class(self):
        rng = np.random.default_rng(8)
        net = build_network(
            [{"type": "plain_linear", "in_features": 3, "out_features": 4}],
            classes=4,
            rng=rng,
        )
        net.layers[0].weight.mean[...] = 0.0
        net.layers[0].bias.mean[...] = 0.0
        data = LabeledDataset(np.ones((6, 3)), np.zeros(6, dtype=int), 4)
        assert evaluate(net, data) == 1.0


class TestPredictUncertainty:
    def make_net(self, std=0.0, seed=9):
        rng = np.random.default_rng(seed)
        net = build_network(
            [{"type": "plain_linear", "in_features": 3, "out_features": 4}],
            classes=4,
            rng=rng,
        )
        net.layers[0].weight.std[...] = std
        net.layers[0].bias.std[...] = std
        return net

    def test_degenerate_posterior_gives_zero_std(self):
        net = self.make_net(std=0.0)
        x = np.random.default_rng(10).standard_normal(3)
        mean, std = predict_uncertainty(net, x, num_samples=16, seed=0)
        np.testing.assert_array_equal(std, 0.0)
        np.testing.assert_allclose(
            mean, network.softmax(net.forward(x[None]))[0], atol=1e-15
        )

    def test_fixed_seed_identical(self):
        net = self.make_net(std=0.1)
        x = np.random.default_rng(11).standard_normal(3)
        a = predict_uncertainty(net, x, num_samples=25, seed=5)
        b = predict_uncertainty(net, x, num_samples=25, seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_means_sum_to_one(self):
        net = self.make_net(std=0.3)
        x = np.random.default_rng(12).standard_normal(3)
        mean, _ = predict_uncertainty(net, x, num_samples=200, seed=1)
        assert abs(mean.sum() - 1.0) < 1e-9

    def test_requires_two_samples(self):
        net = self.make_net()
        with pytest.raises(ValueError):
            predict_uncertainty(net, np.zeros(3), num_samples=1)

    def test_std_is_the_sample_std_of_the_same_draws(self):
        # The draws predict_uncertainty takes, replayed from its seed: its
        # std divides by n - 1, which at 8 draws is 7% above dividing by n.
        net = self.make_net(std=0.3)
        x = np.random.default_rng(14).standard_normal((2, 3))
        mean, std = predict_uncertainty(net, x, num_samples=8, seed=3)
        rng = np.random.default_rng(3)
        probs = np.stack([network.softmax(net.forward(x, sample=net.sample(rng)))
                          for _ in range(8)])
        np.testing.assert_allclose(mean, probs.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(std, np.std(probs, axis=0, ddof=1), rtol=1e-10)

    def test_monte_carlo_matches_delta_method(self):
        # single stochastic weight, two classes: logits = (w*x, 0)
        rng = np.random.default_rng(13)
        net = build_network(
            [{"type": "plain_linear", "in_features": 1, "out_features": 2}],
            classes=2,
            rng=rng,
        )
        mu, sigma, x = 0.4, 0.01, 1.7
        net.layers[0].weight.mean[...] = [[mu, 0.0]]
        net.layers[0].weight.std[...] = [[sigma, 0.0]]
        net.layers[0].bias.mean[...] = 0.0
        net.layers[0].bias.std[...] = 0.0
        mean, std = predict_uncertainty(net, np.array([x]), num_samples=10_000, seed=2)
        p = 1.0 / (1.0 + np.exp(-mu * x))
        analytic = p * (1 - p) * x * sigma
        assert abs(std[0] - analytic) / analytic < 0.03
