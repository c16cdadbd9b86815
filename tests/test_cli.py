import functools
import itertools
import json
import operator
import os
import subprocess
import sys
from pathlib import Path

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

    def test_zero_init_std_ratio_names_the_field(self, tmp_path, capsys):
        spec = synthetic_runspec(tmp_path / "out")
        spec["train"]["init_std_ratio"] = 0
        rc = cli.main(["train", "--spec", str(write_spec(tmp_path, spec))])
        assert rc == 2
        assert "train/init_std_ratio" in capsys.readouterr().err

    def test_test_images_without_test_labels_names_the_field(self, tmp_path, capsys):
        # The schema rejects it before any IDX file is read: none exists.
        spec = synthetic_runspec(tmp_path / "out")
        spec["data"] = {"kind": "mnist", "train_images": str(tmp_path / "ti"),
                        "train_labels": str(tmp_path / "tl"), "test_images": str(tmp_path / "si")}
        rc = cli.main(["train", "--spec", str(write_spec(tmp_path, spec))])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: invalid spec at data:") and "'test_labels'" in err
        assert not (tmp_path / "out").exists()

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

    def test_embedding_only_net_trains(self, tmp_path, capsys):
        # One TTM table whose rows are the logits: embed_dim equals classes.
        from tensorard import datasets

        tokens = np.random.default_rng(3).integers(0, 20, size=64)
        datasets.save_dataset(datasets.LabeledDataset(tokens, tokens % 4, 4),
                              tmp_path / "tokens")
        spec = synthetic_runspec(tmp_path / "run", epochs=3)
        spec["model"] = {"classes": 4, "layers": [
            {"type": "embedding", "format": "ttm", "row_dims": [4, 5],
             "col_dims": [2, 2], "max_rank": 3}]}
        spec["data"] = {"kind": "blob", "train_prefix": str(tmp_path / "tokens")}
        rc = cli.main(["train", "--spec", str(write_spec(tmp_path, spec))])
        assert rc == 0, capsys.readouterr().err
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert len(report["nll"]) == 3 and report["dense_params"] == 80

    def test_tt_layer_without_column_modes_trains(self, tmp_path, capsys):
        # A 16 -> 1 TT layer has all its modes on the row side, so it has no
        # row|col split and must take the dense path.
        spec = synthetic_runspec(tmp_path / "run", epochs=2)
        spec["model"] = {"classes": 2, "layers": [
            {"type": "tensorized_linear", "format": "tt", "row_dims": [4, 4],
             "col_dims": [], "max_rank": 2},
            {"type": "plain_linear", "in_features": 1, "out_features": 2}]}
        spec["data"] = {"kind": "synthetic", "format": "tt", "row_dims": [4, 4],
                        "col_dims": [2], "true_rank": 1, "num_samples": 64, "seed": 11}
        rc = cli.main(["train", "--spec", str(write_spec(tmp_path, spec))])
        assert rc == 0, capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e8, 1e100])
    def test_half_cauchy_at_a_large_scale_trains(self, tmp_path, capsys, scale):
        # The published update's numerator cancels once s²D dwarfs M and its
        # discriminant overflows past scale ~1e150/D: at 1e8 two rank
        # variances came out equal and at 1e100 training exited 3.
        spec = synthetic_runspec(tmp_path / "run",
                                 prior={"kind": "half_cauchy", "scale": scale})
        spec["train"]["prune_threshold"] = 1e-2
        rc = cli.main(["train", "--spec", str(write_spec(tmp_path, spec))])
        assert rc == 0, capsys.readouterr().err
        with np.load(tmp_path / "run" / "checkpoint_final.npz") as ck:
            rank_var = ck["layer0_rank_var0"]
        assert rank_var.size == 3 and np.unique(rank_var).size == 3

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

    def test_eval_labels_beyond_the_net_classes_exit_two(self, tmp_path, capsys):
        from tensorard import datasets

        out = tmp_path / "run"
        assert cli.main(["train", "--spec", str(write_spec(tmp_path, synthetic_runspec(out)))]) == 0
        rng = np.random.default_rng(3)
        datasets.save_dataset(
            datasets.LabeledDataset(rng.standard_normal((10, 4)), np.arange(10), 10),
            tmp_path / "blob")
        capsys.readouterr()
        rc = cli.main(["eval", "--checkpoint", str(out / "checkpoint_final.npz"),
                       "--data", str(tmp_path / "blob")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "label out of range" in err and "Traceback" not in err

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

    def test_invalid_data_spec_names_the_field(self, tmp_path, capsys):
        spec = synthetic_runspec(tmp_path / "o")
        spec["data"]["true_rank"] = 0
        spec_path = write_spec(tmp_path, spec)
        rc = cli.main(["synth-gen", "--spec", str(spec_path), "--out",
                       str(tmp_path / "ds")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "error: invalid spec at data/true_rank: 0 is less than the minimum of 1\n"

    @pytest.mark.parametrize("doc", [[1, 2], "synthetic", 3.5, None],
                             ids=["list", "string", "number", "null"])
    def test_rejects_non_object_spec(self, tmp_path, capsys, doc):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        rc = cli.main(["synth-gen", "--spec", str(spec_path), "--out",
                       str(tmp_path / "ds")])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(spec_path) in err and "JSON object" in err
        assert "Traceback" not in err


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _run_python(code, tmp_path):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_package_names_resolve_on_every_access():
    import tensorard
    from tensorard import factorized

    for name in tensorard.__all__:
        assert getattr(tensorard, name) is not None
    assert set(tensorard.__all__) <= set(dir(tensorard))
    # Never cached in the package, so a swapped submodule function shows.
    original = factorized.reconstruct
    try:
        factorized.reconstruct = len
        assert tensorard.reconstruct is len
    finally:
        factorized.reconstruct = original
    assert tensorard.reconstruct is original
    assert "reconstruct" not in vars(tensorard)
    with pytest.raises(AttributeError):
        tensorard.no_such_name


def test_cli_import_loads_no_numpy(tmp_path):
    out = _run_python("import sys, tensorard.cli; print('numpy' in sys.modules)", tmp_path)
    assert out.strip() == "False"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
@pytest.mark.parametrize("flags", [["--threads", "1"], ["--deterministic"]])
def test_thread_flags_leave_one_thread(tmp_path, flags):
    """After a GEMM the process holds one thread: BLAS started none of its own."""
    spec = {"data": {"kind": "synthetic", "format": "cp", "row_dims": [4],
                     "col_dims": [3], "true_rank": 1, "num_samples": 8, "seed": 1}}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    code = (
        "import os\n"
        "from tensorard import cli\n"
        f"assert cli.main({flags!r} + ['synth-gen', '--spec', 'spec.json', '--out', 'ds']) == 0\n"
        "import numpy as np\n"
        "a = np.ones((256, 256))\n"
        "a @ a\n"
        "print(len(os.listdir('/proc/self/task')))\n"
    )
    assert _run_python(code, tmp_path).splitlines()[-1] == "1"


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_thread_counts_below_one_exit_two(tmp_path, capsys, monkeypatch, threads):
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    spec = write_spec(tmp_path, synthetic_runspec(tmp_path / "out"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--threads", threads, "train", "--spec", str(spec)])
    assert exc.value.code == 2
    assert "thread count must be at least 1" in capsys.readouterr().err
    assert not any(var in os.environ for var in THREAD_VARS)
    assert not (tmp_path / "out").exists()


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
            "unknown layer type": {**arrays, "meta": np.frombuffer(
                bytes(arrays["meta"]).replace(b'"tensorized_linear"', b'"conv2d"'),
                np.uint8)},
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


def linear_checkpoint(path):
    """A 4 -> 3 CP net saved at ``path``, untrained."""
    from tensorard import checkpoint, network

    net = network.build_network(
        [{"type": "tensorized_linear", "format": "cp", "row_dims": [4],
          "col_dims": [3], "max_rank": 2, "activation": "identity"}],
        classes=3, rng=np.random.default_rng(0),
    )
    checkpoint.save_network(net, path)
    return path


class TestBadPredictInput:
    """A predict input of the wrong order or with a non-finite feature exits 2
    with a message, never a traceback."""

    @pytest.mark.parametrize("text", [
        "5", '"hello"', "[[[0.1, 0.2, 0.3, 0.4]]]", "[1e400, 0, 0, 0]",
        "[NaN, 0, 0, 0]", "[[0.1, 0.2, 0.3, 0.4], [0, -1e400, 0, 0]]",
    ], ids=["number", "string", "3-d", "inf", "nan", "-inf in a batch"])
    def test_json_input_exits_two(self, tmp_path, capsys, text):
        ck = linear_checkpoint(tmp_path / "lin.npz")
        inp = tmp_path / "x.json"
        inp.write_text(text)
        capsys.readouterr()
        rc = cli.main(["predict", "--checkpoint", str(ck), "--input", str(inp),
                       "--samples", "2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: inputs must be") and "Traceback" not in err

    @pytest.mark.parametrize("array", [np.array(5.0), np.array([0.1, np.nan, 0.3, 0.4])],
                             ids=["0-d", "nan"])
    def test_npy_input_exits_two(self, tmp_path, capsys, array):
        ck = linear_checkpoint(tmp_path / "lin.npz")
        np.save(tmp_path / "x.npy", array)
        capsys.readouterr()
        rc = cli.main(["predict", "--checkpoint", str(ck), "--input",
                       str(tmp_path / "x.npy"), "--samples", "2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: inputs must be") and "Traceback" not in err

    def test_a_token_id_is_one_input_of_an_embedding_net(self, tmp_path, capsys):
        from tensorard import checkpoint

        ck = tmp_path / "embed.npz"
        checkpoint.save_network(embedding_net(), ck)
        inp = tmp_path / "token.json"
        inp.write_text("7")
        capsys.readouterr()
        rc = cli.main(["predict", "--checkpoint", str(ck), "--input", str(inp),
                       "--samples", "4"])
        assert rc == 0
        assert np.asarray(json.loads(capsys.readouterr().out)["mean"]).shape == (3,)


class TestCorruptDatasetHeader:
    """Every ``--data`` header that is not the one ``save_dataset`` writes
    exits 2 with a message naming the prefix, never a traceback."""

    def _headers(self, good):
        headers = {"a list": [good], "a string": "blob", "null": None, "a number": 3}
        for key in good:
            headers[f"no {key}"] = {k: v for k, v in good.items() if k != key}
        for key in good:
            for value in (None, "float", -1, 2.5, True, 10**30, [], [8], {"a": 1}):
                # A class count above the labels' is a valid header.
                if value != good[key] and (key, value) != ("classes", 10**30):
                    headers[f"{key} {value!r}"] = {**good, key: value}
        for shape in ([8], [4, 8], [32], [-8, -4], [2.0, 4], [10**30, 1], "8x4"):
            headers[f"input_shape {shape!r}"] = {**good, "input_shape": shape}
        return headers

    def test_eval_exits_two(self, tmp_path, capsys):
        from tensorard import datasets

        ck = linear_checkpoint(tmp_path / "lin.npz")
        rng = np.random.default_rng(1)
        prefix = tmp_path / "blob"
        datasets.save_dataset(
            datasets.LabeledDataset(rng.standard_normal((8, 4)), rng.integers(0, 3, 8), 3),
            prefix)
        argv = ["eval", "--checkpoint", str(ck), "--data", str(prefix)]
        assert cli.main(argv) == 0
        header = prefix.with_suffix(".json")
        good = json.loads(header.read_text())
        for name, doc in self._headers(good).items():
            header.write_text(json.dumps(doc))
            capsys.readouterr()
            rc = cli.main(argv)
            err = capsys.readouterr().err
            assert rc == 2, name
            assert str(prefix) in err and "Traceback" not in err, (name, err)


def _bad_input_argv(tmp_path, case):
    """Files for one bad-input case under ``tmp_path``, its argv and a part
    of its message: the path at fault, or what a non-real input is not."""
    spec = write_spec(tmp_path, synthetic_runspec(tmp_path / "run", epochs=1))
    ck = str(linear_checkpoint(tmp_path / "lin.npz"))
    afile = tmp_path / "afile"
    afile.write_text("x")
    npy = tmp_path / "x.npy"
    if case == "predict --input DIR.npy":
        npy.mkdir()
    elif case == "zero-byte .npy":
        npy.write_bytes(b"")
    elif case == ".npz named .npy":
        np.savez(tmp_path / "x.npz", a=np.zeros(4))
        (tmp_path / "x.npz").rename(npy)
    elif case == "complex .npy non-real":
        np.save(npy, np.zeros((2, 4), dtype=complex))
    elif case == "string .npy non-real":
        np.save(npy, np.array([["0.1"] * 4]))
    argv, named = {
        "train --spec DIR": (["train", "--spec", str(tmp_path)], tmp_path),
        "train --out FILE": (["train", "--spec", str(spec), "--out", str(afile)], afile),
        "train --out FILE/sub": (["train", "--spec", str(spec), "--out", str(afile / "sub")],
                                 afile / "sub"),
        "synth-gen --out FILE/x": (["synth-gen", "--spec", str(spec), "--out", str(afile / "x")],
                                   afile / "x"),
    }.get(case, (["predict", "--checkpoint", ck, "--input", str(npy), "--samples", "2"], npy))
    return argv, "inputs must be real numbers" if case.endswith("non-real") else str(named)


@pytest.mark.parametrize("case", [
    "train --spec DIR", "train --out FILE", "train --out FILE/sub",
    "predict --input DIR.npy", "synth-gen --out FILE/x", "zero-byte .npy",
    ".npz named .npy", "complex .npy non-real", "string .npy non-real",
])
def test_unreadable_paths_and_inputs_exit_two(tmp_path, capsys, case):
    """A path that cannot be read or written, an .npy input that is no
    readable array and a non-real input exit 2 with a message."""
    argv, named = _bad_input_argv(tmp_path, case)
    capsys.readouterr()
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and named in err and "Traceback" not in err


# Prior stds whose square underflows to 0, is subnormal or overflows to inf.
BAD_WEAK_PRIOR_STDS = ("1e-300", "1e-160", "1e200")
BAD_HALF_CAUCHY_SCALES = ("1e-300", "1e-160", "1e300")


def _bad_spec_argv(tmp_path, case):
    """The argv of one bad rank, seed, prior std or spec-file case under
    ``tmp_path``, and the part of its message that names the field, flag or
    file at fault."""
    spec = synthetic_runspec(tmp_path / "run", epochs=1)
    layer = spec["model"]["layers"][0]
    kind, _, value = case.rpartition(" ")
    if kind == "weak_prior_std":
        spec["train"]["weak_prior_std"] = float(value)
    elif kind == "half_cauchy scale":
        spec["train"]["hyper_prior"] = {"kind": "half_cauchy", "scale": float(value)}
    named = {
        "weak_prior_std": "error: weak_prior_std must have a normal, finite square",
        "half_cauchy scale": "error: half-Cauchy scale must have a normal, finite square",
    }.get(kind) or {
        "linear layer without max_rank": "model/layers/0: 'max_rank' is a required property",
        "embedding layer without max_rank": "model/layers/0: 'max_rank' is a required property",
        "layer with max_ranks": "'max_ranks' was unexpected",
        "max_rank 0": "invalid spec at model/layers/0/max_rank:",
        "max_rank [0]": ("invalid spec at model/layers/0/max_rank/0: "
                         "0 is less than the minimum of 1"),
        "true_rank [0]": "invalid spec at data/true_rank/0: 0 is less than the minimum of 1",
        "cp max_rank [2, 2]": "layer 0: max_rank: cp needs 1 rank entries, got 2",
        "train seed -1": "invalid spec at train/seed:",
        "data seed -1": "invalid spec at data/seed:",
        "train --seed -1": "argument --seed: seed must be at least 0, got -1",
        "predict --seed -1": "argument --seed: seed must be at least 0, got -1",
    }.get(case)
    if case == "linear layer without max_rank":
        del layer["max_rank"]
    elif case == "embedding layer without max_rank":
        spec["model"]["layers"] = [{"type": "embedding", "format": "cp", "row_dims": [4],
                                    "col_dims": [3]}]
    elif case == "layer with max_ranks":
        layer["max_ranks"] = [layer.pop("max_rank")]
    elif case == "max_rank 0":
        layer["max_rank"] = 0
    elif case == "max_rank [0]":
        layer["max_rank"] = [0]
    elif case == "true_rank [0]":
        spec["data"]["true_rank"] = [0]
    elif case == "cp max_rank [2, 2]":
        layer["max_rank"] = [2, 2]
    elif case == "train seed -1":
        spec["train"]["seed"] = -1
    elif case == "data seed -1":
        spec["data"]["seed"] = -1
    spec_path = write_spec(tmp_path, spec)
    if case == "predict --seed -1":
        inp = tmp_path / "x.json"
        inp.write_text(json.dumps([0.0] * 4))
        ck = linear_checkpoint(tmp_path / "lin.npz")
        return ["predict", "--checkpoint", str(ck), "--input", str(inp), "--seed", "-1"], named
    if case == "synth-gen spec not JSON":
        spec_path.write_text("not json")
        return ["synth-gen", "--spec", str(spec_path), "--out", str(tmp_path / "ds")], (
            f"error: spec {spec_path} is not valid JSON")
    seed = ["--seed", "-1"] if case == "train --seed -1" else []
    return ["train", "--spec", str(spec_path), *seed], named


@pytest.mark.parametrize("case", [
    "linear layer without max_rank", "embedding layer without max_rank",
    "layer with max_ranks", "max_rank 0", "max_rank [0]", "true_rank [0]",
    "cp max_rank [2, 2]", "train seed -1", "data seed -1",
    "train --seed -1", "predict --seed -1", "synth-gen spec not JSON",
    *(f"weak_prior_std {v}" for v in BAD_WEAK_PRIOR_STDS),
    *(f"half_cauchy scale {v}" for v in BAD_HALF_CAUCHY_SCALES),
])
def test_bad_ranks_seeds_and_spec_files_exit_two(tmp_path, capsys, case):
    """A missing or misnamed rank key, a rank below 1 (alone or in a list), a
    rank list of the wrong length, a negative seed, a weak prior std or
    half-Cauchy scale whose square is not a normal, finite float and a spec
    file that is not JSON exit 2 with a message naming what is at fault."""
    argv, named = _bad_spec_argv(tmp_path, case)
    capsys.readouterr()
    try:
        rc = cli.main(argv)
    except SystemExit as exit_:
        rc = exit_.code
    err = capsys.readouterr().err
    assert rc == 2
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


class TestLayersWithoutModes:
    """A layer with no row and no column modes exits 2 in every format."""

    @pytest.mark.parametrize("kind", ["cp", "tucker", "tt", "ttm"])
    @pytest.mark.parametrize("layer", ["tensorized_linear", "embedding"])
    def test_train_exits_two(self, tmp_path, capsys, kind, layer):
        from tensorard import datasets

        rng = np.random.default_rng(2)
        inputs = rng.integers(0, 1, 8) if layer == "embedding" else rng.standard_normal((8, 1))
        datasets.save_dataset(datasets.LabeledDataset(inputs, np.arange(8) % 3, 3),
                              tmp_path / "blob")
        first = {"type": layer, "format": kind, "row_dims": [], "col_dims": [],
                 "max_rank": 1}
        if layer == "tensorized_linear":
            first.update(in_features=1, out_features=1)
        spec = synthetic_runspec(tmp_path / "run", epochs=1)
        spec["model"] = {"classes": 3, "layers": [
            first, {"type": "plain_linear", "in_features": 1, "out_features": 3}]}
        spec["data"] = {"kind": "blob", "train_prefix": str(tmp_path / "blob")}
        capsys.readouterr()
        rc = cli.main(["train", "--spec", str(write_spec(tmp_path, spec))])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{kind} needs at least one mode" in err and "Traceback" not in err


def _branches(tagged, tag):
    """The {name: schema} branches of a tagged union, in the order of its
    tag's enum, which must name them all."""
    branches = {rule["if"]["properties"][tag]["const"]: rule["then"]
                for rule in tagged["allOf"]}
    assert list(branches) == tagged["properties"][tag]["enum"]
    return branches


class TestSchemaPinned:
    """The run-spec schema stays in cli.py, which must not import numpy before
    --threads pins BLAS; this keeps its enums equal to the library's tables."""

    def test_layer_types_and_formats_match_the_library(self):
        from tensorard import factorized, network

        layers = cli.RUNSPEC_SCHEMA["properties"]["model"]["properties"]["layers"]
        types = list(_branches(layers["items"], "type"))
        assert sorted(types) == sorted(network.LAYER_TYPES)
        assert len(types) == len(network.LAYER_TYPES)

        def format_enums(node):
            if isinstance(node, dict):
                if isinstance(node.get("format"), dict):
                    yield node["format"]["enum"]
                for value in node.values():
                    yield from format_enums(value)
            elif isinstance(node, list):
                for value in node:
                    yield from format_enums(value)

        enums = list(format_enums(cli.RUNSPEC_SCHEMA))
        assert len(enums) == 3
        for enum in enums:
            assert tuple(enum) == factorized.KINDS

    def test_activations_modes_and_hyper_priors_match_the_library(self):
        from tensorard import bayes, network, training

        layers = cli.RUNSPEC_SCHEMA["properties"]["model"]["properties"]["layers"]
        activations = [b["properties"]["activation"]["enum"]
                       for b in _branches(layers["items"], "type").values()
                       if "activation" in b["properties"]]
        assert len(activations) == 2
        for enum in activations:
            assert tuple(enum) == network.ACTIVATIONS
        train = cli.RUNSPEC_SCHEMA["properties"]["train"]["properties"]
        assert tuple(train["mode"]["enum"]) == training.MODES
        kinds = list(_branches(train["hyper_prior"], "kind"))
        assert kinds == [bayes.LogUniform.name, bayes.HalfCauchy.name]

    def test_schema_accepts_what_the_reference_accepts(self):
        import jsonschema

        tagged = jsonschema.Draft202012Validator(cli.RUNSPEC_SCHEMA)
        reference = jsonschema.Draft202012Validator(REFERENCE_SCHEMA)
        # A spec the corpus repeats is checked once.
        corpus = {json.dumps(doc, sort_keys=True): doc
                  for doc in seeded_spec_corpus(20_000, seed=0)}
        verdicts = {text: (tagged.is_valid(doc), reference.is_valid(doc))
                    for text, doc in corpus.items()}
        assert [text for text, (a, b) in verdicts.items() if a != b] == []
        # Both verdicts are common, so the corpus can tell the schemas apart.
        valid = sum(a for a, _ in verdicts.values())
        assert 500 <= valid <= len(verdicts) - 500

    def test_every_one_edit_error_names_the_field(self):
        misses, invalid = [], 0
        for path, doc in one_edit_mutations():
            try:
                cli.validate_runspec(doc)
            except cli.SpecError as e:
                invalid += 1
                if not names_the_field(str(e), path):
                    misses.append((path, str(e)))
        assert invalid >= 4000
        assert misses == []

    def test_train_keys_are_the_train_config_fields(self):
        # _train_config passes the mapping straight to TrainConfig, so every
        # default is TrainConfig's.
        import dataclasses

        from tensorard import bayes, training

        keys = cli.RUNSPEC_SCHEMA["properties"]["train"]["properties"]
        assert sorted(keys) == sorted(f.name for f in dataclasses.fields(training.TrainConfig))
        required = {"epochs": 4, "batch_size": 8}
        assert cli._train_config(required) == training.TrainConfig(**required)
        cfg = cli._train_config({**required, "seed": 1,
                                 "hyper_prior": {"kind": "half_cauchy", "scale": 0.2}}, 9)
        assert cfg.seed == 9 and cfg.hyper_prior == bayes.HalfCauchy(0.2)


def valid_spec_grid():
    """Small valid run specs: each data kind under each hyper-prior, with
    ranks as an int and as a list. Every layer type is used, and every
    optional key of the model and the data is set."""
    priors = ({"kind": "log_uniform"}, {"kind": "half_cauchy", "scale": 0.5})
    for rank, prior, kind in itertools.product((2, [2]), priors, ("mnist", "synthetic", "blob")):
        data = {
            "mnist": {"train_images": "a", "train_labels": "b", "test_images": "c",
                      "test_labels": "d"},
            "synthetic": {"format": "cp", "row_dims": [4], "col_dims": [3], "true_rank": rank,
                          "num_samples": 8, "test_samples": 0, "seed": 0,
                          "label_sampling": "argmax", "in_features": 4, "out_features": 3},
            "blob": {"train_prefix": "p", "test_prefix": "q"},
        }[kind]
        yield {
            "model": {"classes": 3, "layers": [
                {"type": "tensorized_linear", "format": "cp", "row_dims": [4], "col_dims": [3],
                 "max_rank": rank, "activation": "relu", "in_features": 4, "out_features": 3},
                {"type": "embedding", "format": "tt", "row_dims": [4], "col_dims": [3],
                 "max_rank": rank},
                {"type": "plain_linear", "in_features": 3, "out_features": 3,
                 "activation": "identity"},
            ]},
            "data": {"kind": kind, **data},
            "train": {"epochs": 1, "batch_size": 2, "mode": "ard", "hyper_prior": prior,
                      "rank_step": 0.5, "seed": 0},
            "output_dir": "out",
        }


# The values a one-edit mutation sets a key or a list entry to.
EDIT_VALUES = (0, -1, 2.5, "x", None, [], [0], {}, "bogus", True)
_DELETE = object()


def _paths(node, prefix=()):
    """The path of every key and list entry under ``node``, parents first."""
    for key in (node if isinstance(node, dict) else range(len(node))):
        yield prefix + (key,)
        if isinstance(node[key], (dict, list)):
            yield from _paths(node[key], prefix + (key,))


def _copy(doc):
    return json.loads(json.dumps(doc))


def _edit(doc, path, value):
    """Set ``path`` in ``doc`` to a copy of ``value``, or delete its key."""
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if value is _DELETE:
        parent.pop(path[-1], None)
    else:
        parent[path[-1]] = _copy(value)


def one_edit_mutations():
    """(path, spec) for every one-edit mutation of the valid grid's specs: a
    key deleted, or a key or list entry set to one of EDIT_VALUES. Some of
    the results are valid."""
    for spec in valid_spec_grid():
        for path in _paths(spec):
            deletes = (_DELETE,) if isinstance(path[-1], str) else ()
            for value in (*deletes, *EDIT_VALUES):
                doc = _copy(spec)
                _edit(doc, path, value)
                yield path, doc


def names_the_field(message, path):
    """Whether a SpecError message names the edited ``path``: it is at that
    path or under it, or at an ancestor and quotes the edited key."""
    where = message.removeprefix("invalid spec at ").split(": ", 1)[0]
    at = [] if where == "<root>" else where.split("/")
    edited = [str(p) for p in path]
    return (at[:len(edited)] == edited
            or (edited[:len(at)] == at and f"'{path[-1]}'" in message))


def _grid_values():
    """Each key's and list index's distinct values across the valid grid."""
    seen = {}
    for spec in valid_spec_grid():
        for path in _paths(spec):
            value = functools.reduce(operator.getitem, path, spec)
            seen.setdefault(path[-1], {})[json.dumps(value, sort_keys=True)] = value
    return {key: [texts[t] for t in sorted(texts)] for key, texts in seen.items()}


def seeded_spec_corpus(count, seed):
    """``count`` specs, each a spec of the valid grid after one to three
    seeded edits. An edit picks a key or list entry, or a key the grid uses
    that may be new where it lands, and deletes the key or sets it to one of
    EDIT_VALUES or to a value the grid gives that key anywhere: another
    branch's tag, a whole data or layer mapping, or a rank list."""
    rng = np.random.default_rng(seed)
    grid = list(valid_spec_grid())
    values = _grid_values()
    keys = sorted(k for k in values if isinstance(k, str))
    for _ in range(count):
        doc = _copy(grid[rng.integers(len(grid))])
        for _ in range(rng.integers(1, 4)):
            paths = list(_paths(doc))
            path = paths[rng.integers(len(paths))]
            if isinstance(path[-1], str) and rng.random() < 0.3:
                path = path[:-1] + (keys[rng.integers(len(keys))],)
            pick = rng.random()
            if pick < 0.2:
                if isinstance(path[-1], str):
                    _edit(doc, path, _DELETE)
            elif pick < 0.35:
                _edit(doc, path, EDIT_VALUES[rng.integers(len(EDIT_VALUES))])
            else:
                choices = values[path[-1]]
                _edit(doc, path, choices[rng.integers(len(choices))])
        yield doc


# The run-spec schema as a hand-written literal whose unions are oneOf, not
# tagged; cli.RUNSPEC_SCHEMA must accept and reject the same specs.
REFERENCE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["model", "data", "train"],
    "properties": {
        "output_dir": {"type": "string"},
        "model": {
            "type": "object",
            "additionalProperties": False,
            "required": ["layers", "classes"],
            "properties": {
                "classes": {"type": "integer", "minimum": 2},
                "layers": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "oneOf": [
                            {
                                "type": "object",
                                "additionalProperties": False,
                                "required": ["type", "format", "row_dims", "col_dims", "max_rank"],
                                "properties": {
                                    "type": {"const": "tensorized_linear"},
                                    "format": {"enum": ["cp", "tucker", "tt", "ttm"]},
                                    "row_dims": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                                    "col_dims": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                                    "max_rank": {
                                        "oneOf": [
                                            {"type": "integer", "minimum": 1},
                                            {"type": "array", "items": {"type": "integer", "minimum": 1}},
                                        ]
                                    },
                                    "activation": {"enum": ["relu", "identity"]},
                                    "in_features": {"type": "integer", "minimum": 1},
                                    "out_features": {"type": "integer", "minimum": 1},
                                },
                            },
                            {
                                "type": "object",
                                "additionalProperties": False,
                                "required": ["type", "format", "row_dims", "col_dims", "max_rank"],
                                "properties": {
                                    "type": {"const": "embedding"},
                                    "format": {"enum": ["cp", "tucker", "tt", "ttm"]},
                                    "row_dims": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                                    "col_dims": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                                    "max_rank": {
                                        "oneOf": [
                                            {"type": "integer", "minimum": 1},
                                            {"type": "array", "items": {"type": "integer", "minimum": 1}},
                                        ]
                                    },
                                },
                            },
                            {
                                "type": "object",
                                "additionalProperties": False,
                                "required": ["type", "in_features", "out_features"],
                                "properties": {
                                    "type": {"const": "plain_linear"},
                                    "in_features": {"type": "integer", "minimum": 1},
                                    "out_features": {"type": "integer", "minimum": 1},
                                    "activation": {"enum": ["relu", "identity"]},
                                },
                            },
                        ]
                    },
                },
            },
        },
        "data": {
            "oneOf": [
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["kind", "train_images", "train_labels"],
                    "properties": {
                        "kind": {"const": "mnist"},
                        "train_images": {"type": "string"},
                        "train_labels": {"type": "string"},
                        "test_images": {"type": "string"},
                        "test_labels": {"type": "string"},
                    },
                    "dependentRequired": {"test_images": ["test_labels"]},
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["kind", "format", "row_dims", "col_dims", "true_rank", "num_samples"],
                    "properties": {
                        "kind": {"const": "synthetic"},
                        "format": {"enum": ["cp", "tucker", "tt", "ttm"]},
                        "row_dims": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                        "col_dims": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                        "true_rank": {
                            "oneOf": [
                                {"type": "integer", "minimum": 1},
                                {"type": "array", "items": {"type": "integer", "minimum": 1}},
                            ]
                        },
                        "num_samples": {"type": "integer", "minimum": 1},
                        "test_samples": {"type": "integer", "minimum": 0},
                        "seed": {"type": "integer", "minimum": 0},
                        "label_sampling": {"enum": ["argmax", "multinomial"]},
                        "in_features": {"type": "integer", "minimum": 1},
                        "out_features": {"type": "integer", "minimum": 1},
                    },
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["kind", "train_prefix"],
                    "properties": {
                        "kind": {"const": "blob"},
                        "train_prefix": {"type": "string"},
                        "test_prefix": {"type": "string"},
                    },
                },
            ]
        },
        "train": {
            "type": "object",
            "additionalProperties": False,
            "required": ["epochs", "batch_size"],
            "properties": {
                "mode": {"enum": ["ard", "fixed_rank"]},
                "hyper_prior": {
                    "oneOf": [
                        {
                            "type": "object",
                            "additionalProperties": False,
                            "required": ["kind"],
                            "properties": {"kind": {"const": "log_uniform"}},
                        },
                        {
                            "type": "object",
                            "additionalProperties": False,
                            "required": ["kind", "scale"],
                            "properties": {
                                "kind": {"const": "half_cauchy"},
                                "scale": {"type": "number", "exclusiveMinimum": 0},
                            },
                        },
                    ]
                },
                "learning_rate": {"type": "number", "exclusiveMinimum": 0},
                "rank_step": {"type": "number", "minimum": 0, "maximum": 1},
                "prune_threshold": {"type": "number", "exclusiveMinimum": 0},
                "epochs": {"type": "integer", "minimum": 1},
                "warmup_epochs": {"type": "integer", "minimum": 1},
                "batch_size": {"type": "integer", "minimum": 1},
                "weak_prior_std": {"type": "number", "exclusiveMinimum": 0},
                "seed": {"type": "integer", "minimum": 0},
                "init_std_ratio": {"type": "number", "exclusiveMinimum": 0},
            },
        },
    },
}
