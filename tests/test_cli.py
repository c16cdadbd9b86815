import json

import numpy as np
import pytest

from tensorard import cli


def synthetic_runspec(out_dir, seed=0, prior=None, epochs=6):
    return {
        "model": {
            "classes": 3,
            "layers": [
                {
                    "type": "tensorized_linear",
                    "format": "cp",
                    "row_dims": [4],
                    "col_dims": [3],
                    "max_rank": 3,
                    "activation": "identity",
                }
            ],
        },
        "data": {
            "kind": "synthetic",
            "format": "cp",
            "row_dims": [4],
            "col_dims": [3],
            "true_rank": 1,
            "num_samples": 96,
            "test_samples": 32,
            "seed": 11,
        },
        "train": {
            "epochs": epochs,
            "batch_size": 32,
            "learning_rate": 2e-3,
            "rank_step": 0.1,
            "prune_threshold": 1e-8,
            "seed": seed,
            "hyper_prior": prior or {"kind": "log_uniform"},
        },
        "output_dir": str(out_dir),
    }


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return path


class TestValidation:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        spec = synthetic_runspec(tmp_path / "out")
        spec["unknown_field"] = 1
        rc = cli.main(["train", "--spec", str(write_spec(tmp_path, spec))])
        assert rc == 2
        assert "unknown_field" in capsys.readouterr().err

    def test_missing_dataset_field_named(self, tmp_path, capsys):
        spec = synthetic_runspec(tmp_path / "out")
        del spec["data"]["num_samples"]
        rc = cli.main(["train", "--spec", str(write_spec(tmp_path, spec))])
        assert rc == 2
        err = capsys.readouterr().err
        assert "data" in err and "num_samples" in err

    def test_bad_hyper_prior_rejected(self, tmp_path, capsys):
        spec = synthetic_runspec(tmp_path / "out", prior={"kind": "half_cauchy"})
        rc = cli.main(["train", "--spec", str(write_spec(tmp_path, spec))])
        assert rc == 2
        assert "scale" in capsys.readouterr().err

    def test_missing_spec_file(self, tmp_path, capsys):
        rc = cli.main(["train", "--spec", str(tmp_path / "nope.json")])
        assert rc == 2


class TestTrainCommand:
    def test_writes_outputs_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "run"
        spec_path = write_spec(tmp_path, synthetic_runspec(out))
        rc = cli.main(["train", "--spec", str(spec_path)])
        assert rc == 0
        for name in ("report.json", "metrics.csv", "ranks.json",
                     "checkpoint_last.npz", "checkpoint_final.npz"):
            assert (out / name).exists(), name
        header = (out / "metrics.csv").read_text().splitlines()[0].split(",")
        assert header[:7] == ["epoch", "loss", "nll", "kl", "beta", "train_acc", "test_acc"]
        assert header[7].startswith("rank_")
        ranks = json.loads((out / "ranks.json").read_text())
        assert ranks["layers"][0]["kind"] == "cp"

    def test_rerun_identical_metrics_and_ranks(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        spec_a = write_spec(tmp_path, synthetic_runspec(out_a), "a.json")
        spec_b = write_spec(tmp_path, synthetic_runspec(out_b), "b.json")
        assert cli.main(["--deterministic", "train", "--spec", str(spec_a)]) == 0
        assert cli.main(["--deterministic", "train", "--spec", str(spec_b)]) == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "ranks.json").read_bytes() == (out_b / "ranks.json").read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_training_exits_three(self, tmp_path, capsys):
        spec = synthetic_runspec(tmp_path / "d")
        spec["train"]["learning_rate"] = 1e18  # drives the loss non-finite
        spec["train"]["epochs"] = 5
        rc = cli.main(["train", "--spec", str(write_spec(tmp_path, spec))])
        assert rc == 3
        assert "aborted" in capsys.readouterr().err


class TestEvalCommand:
    def test_eval_prints_counts(self, tmp_path, capsys):
        out = tmp_path / "run"
        spec = synthetic_runspec(out)
        spec_path = write_spec(tmp_path, spec)
        assert cli.main(["train", "--spec", str(spec_path)]) == 0
        assert cli.main(["synth-gen", "--spec", str(spec_path), "--out",
                         str(tmp_path / "blob")]) == 0
        capsys.readouterr()
        rc = cli.main([
            "eval",
            "--checkpoint", str(out / "checkpoint_final.npz"),
            "--data", str(tmp_path / "blob"),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "accuracy" in text
        assert "compression ratio" in text

    def test_eval_without_data_exits_two(self, tmp_path, capsys):
        out = tmp_path / "run"
        spec_path = write_spec(tmp_path, synthetic_runspec(out))
        assert cli.main(["train", "--spec", str(spec_path)]) == 0
        rc = cli.main(["eval", "--checkpoint", str(out / "checkpoint_final.npz")])
        assert rc == 2


class TestPredictCommand:
    def _trained_checkpoint(self, tmp_path):
        out = tmp_path / "run"
        spec_path = write_spec(tmp_path, synthetic_runspec(out))
        assert cli.main(["train", "--spec", str(spec_path)]) == 0
        return out / "checkpoint_final.npz"

    def test_zero_std_checkpoint_gives_zero_stds(self, tmp_path, capsys):
        from tensorard import checkpoint

        ck = self._trained_checkpoint(tmp_path)
        net = checkpoint.load_network(ck)
        for f in net.layers[0].weight.factors:
            f.std[...] = 0.0
        net.layers[0].bias.std[...] = 0.0
        frozen = tmp_path / "frozen.npz"
        checkpoint.save_network(net, frozen)
        inp = tmp_path / "x.json"
        inp.write_text(json.dumps([0.1, -0.2, 0.3, 0.4]))
        capsys.readouterr()
        rc = cli.main(["predict", "--checkpoint", str(frozen), "--input", str(inp),
                       "--samples", "16"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(s == 0.0 for s in payload["std"])
        assert abs(sum(payload["mean"]) - 1.0) < 1e-9

    def test_fixed_seed_identical_json(self, tmp_path, capsys):
        ck = self._trained_checkpoint(tmp_path)
        inp = tmp_path / "x.json"
        inp.write_text(json.dumps([0.5, 0.5, -0.5, 0.1]))
        outputs = []
        for _ in range(2):
            capsys.readouterr()
            rc = cli.main(["predict", "--checkpoint", str(ck), "--input", str(inp),
                           "--samples", "20", "--seed", "4"])
            assert rc == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_sample_count_validated(self, tmp_path, capsys):
        ck = self._trained_checkpoint(tmp_path)
        inp = tmp_path / "x.json"
        inp.write_text(json.dumps([0.0, 0.0, 0.0, 0.0]))
        rc = cli.main(["predict", "--checkpoint", str(ck), "--input", str(inp),
                       "--samples", "1"])
        assert rc == 2


class TestSynthGen:
    def test_writes_blob_pair(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, synthetic_runspec(tmp_path / "o"))
        rc = cli.main(["synth-gen", "--spec", str(spec_path), "--out",
                       str(tmp_path / "ds")])
        assert rc == 0
        assert (tmp_path / "ds.json").exists()
        assert (tmp_path / "ds.bin").exists()
        assert (tmp_path / "ds_test.json").exists()
        from tensorard import datasets

        ds = datasets.load_dataset(tmp_path / "ds")
        assert len(ds) == 96

    def test_rejects_non_synthetic_spec(self, tmp_path, capsys):
        spec = synthetic_runspec(tmp_path / "o")
        spec["data"] = {"kind": "mnist", "train_images": "a", "train_labels": "b"}
        spec_path = write_spec(tmp_path, spec)
        rc = cli.main(["synth-gen", "--spec", str(spec_path), "--out",
                       str(tmp_path / "ds")])
        assert rc == 2


def embedding_net(seed=0):
    from tensorard import network

    return network.build_network(
        [
            {"type": "embedding", "format": "ttm", "row_dims": [4, 5],
             "col_dims": [2, 3], "max_rank": 2},
            {"type": "plain_linear", "in_features": 6, "out_features": 3},
        ],
        classes=3, rng=np.random.default_rng(seed),
    )


class TestPredictEmbedding:
    def test_token_ids_are_a_batch(self, tmp_path, capsys):
        from tensorard import checkpoint

        ck = tmp_path / "embed.npz"
        checkpoint.save_network(embedding_net(), ck)
        inp = tmp_path / "tokens.json"
        inp.write_text(json.dumps([0, 7, 19, 7, 3]))
        capsys.readouterr()
        rc = cli.main(["predict", "--checkpoint", str(ck), "--input", str(inp),
                       "--samples", "8"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        mean = np.asarray(payload["mean"])
        assert mean.shape == (5, 3)
        assert np.asarray(payload["std"]).shape == (5, 3)
        np.testing.assert_allclose(mean.sum(axis=1), 1.0, atol=1e-12)
        # a repeated token sees the same draws, so its rows are identical
        np.testing.assert_array_equal(mean[1], mean[3])


class TestCorruptCheckpoint:
    """Every unreadable checkpoint exits 2 with a message, never a traceback."""

    def _fixture(self, tmp_path):
        from tensorard import checkpoint, datasets, network

        net = network.build_network(
            [{"type": "tensorized_linear", "format": "cp", "row_dims": [4],
              "col_dims": [3], "max_rank": 2, "activation": "identity"}],
            classes=3, rng=np.random.default_rng(0),
        )
        good = tmp_path / "good.npz"
        checkpoint.save_network(net, good)
        rng = np.random.default_rng(1)
        datasets.save_dataset(
            datasets.LabeledDataset(rng.standard_normal((8, 4)),
                                    rng.integers(0, 3, size=8), 3),
            tmp_path / "blob",
        )
        inp = tmp_path / "x.json"
        inp.write_text(json.dumps([0.1, 0.2, 0.3, 0.4]))
        return good, inp

    def _bad_files(self, tmp_path, good):
        blob = good.read_bytes()
        with np.load(good) as data:
            arrays = {k: data[k] for k in data.files}
        files = {}
        for cut in (0, 1, 30, len(blob) // 3, len(blob) // 2, len(blob) - 22, len(blob) - 1):
            files[f"truncated at {cut}"] = blob[:cut]
        files["garbage"] = bytes(np.random.default_rng(2).integers(0, 256, 2000, dtype=np.uint8))
        variants = {
            "no meta": {k: v for k, v in arrays.items() if k != "meta"},
            "meta not JSON": {**arrays, "meta": np.frombuffer(b"\xff{not json", np.uint8)},
            "meta JSON of the wrong shape": {**arrays, "meta": np.frombuffer(b"[1, 2]", np.uint8)},
            "layer arrays missing": {k: v for k, v in arrays.items()
                                     if k == "meta" or "bias" in k},
        }
        for name, contents in variants.items():
            path = tmp_path / "variant.npz"
            np.savez(path, **contents)
            files[name] = path.read_bytes()
        np.save(tmp_path / "array.npy", np.ones(3))
        files["a .npy array"] = (tmp_path / "array.npy").read_bytes()
        return files

    def test_eval_and_predict_exit_two(self, tmp_path, capsys):
        good, inp = self._fixture(tmp_path)
        assert cli.main(["eval", "--checkpoint", str(good),
                         "--data", str(tmp_path / "blob")]) == 0
        for name, contents in self._bad_files(tmp_path, good).items():
            bad = tmp_path / "bad.npz"
            bad.write_bytes(contents)
            for argv in (
                ["eval", "--checkpoint", str(bad), "--data", str(tmp_path / "blob")],
                ["predict", "--checkpoint", str(bad), "--input", str(inp),
                 "--samples", "4"],
            ):
                capsys.readouterr()
                rc = cli.main(argv)
                err = capsys.readouterr().err
                assert rc == 2, (name, argv[0])
                assert str(bad) in err and "Traceback" not in err, (name, err)
