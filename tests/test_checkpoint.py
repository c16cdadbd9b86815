import numpy as np
import pytest

from tensorard import checkpoint, network


def small_net(seed):
    return network.build_network(
        [{"type": "tensorized_linear", "format": "tt", "row_dims": [2, 3],
          "col_dims": [4], "max_rank": 2, "activation": "relu"},
         {"type": "plain_linear", "in_features": 4, "out_features": 3}],
        classes=3, rng=np.random.default_rng(seed),
    )


def means(net):
    return [f.mean for f in net.layers[0].weight.factors] + [net.layers[1].weight.mean]


def test_failed_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "checkpoint_last.npz"
    checkpoint.save_network(small_net(0), path)

    def failing_savez(handle, **arrays):
        handle.write(b"PK\x03\x04 half an archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", failing_savez)
    with pytest.raises(OSError, match="disk full"):
        checkpoint.save_network(small_net(1), path)
    monkeypatch.undo()

    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    for got, want in zip(means(checkpoint.load_network(path)), means(small_net(0))):
        np.testing.assert_array_equal(got, want)


def test_save_replaces_and_keeps_the_exact_name(tmp_path):
    path = tmp_path / "ckpt"  # no .npz suffix
    checkpoint.save_network(small_net(0), path)
    checkpoint.save_network(small_net(1), path)
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
    for got, want in zip(means(checkpoint.load_network(path)), means(small_net(1))):
        np.testing.assert_array_equal(got, want)


def test_truncated_file_raises_value_error_naming_path(tmp_path):
    path = tmp_path / "c.npz"
    checkpoint.save_network(small_net(0), path)
    path.write_bytes(path.read_bytes()[:100])
    with pytest.raises(ValueError, match="c.npz"):
        checkpoint.load_network(path)


def test_missing_file_still_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        checkpoint.load_network(tmp_path / "absent.npz")
