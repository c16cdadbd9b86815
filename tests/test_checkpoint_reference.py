"""Checkpoints against the per-layer-type writer and reader they replaced.

The reference below is the earlier ``save_network`` and ``_network_from_state``,
kept verbatim, with one branch per layer type.  The current code asks each
layer class for its state.  For every layer type and format, both writers must
give the same array keys, the same arrays and the same ``meta`` bytes, and a
checkpoint from either writer must load through either reader into the same
network.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from tensorard import checkpoint, datasets, factorized, training
from tensorard.factorized import GaussianFactor
from tensorard.network import (
    Embedding,
    Network,
    PlainLinear,
    TensorizedLinear,
    build_network,
)

# -- reference writer and reader -----------------------------------------------


def save_network(net: Network, path) -> None:
    """Write ``net`` to ``path`` atomically.

    The archive goes to a temporary file in the same directory, which then
    replaces ``path`` in one rename, so a process killed mid-write leaves
    the previous checkpoint (or none) in place, never a truncated one.
    """
    meta = {"classes": net.classes, "layers": []}
    arrays = {}
    for i, layer in enumerate(net.layers):
        prefix = f"layer{i}_"
        if isinstance(layer, TensorizedLinear):
            lmeta, larrays = factorized.layer_state(layer.weight)
            meta["layers"].append(
                {
                    "type": "tensorized_linear",
                    "in_features": layer.in_features,
                    "out_features": layer.out_features,
                    "activation": layer.activation,
                    "weight": lmeta,
                }
            )
            for k, v in larrays.items():
                arrays[prefix + k] = v
            arrays[prefix + "bias_mean"] = layer.bias.mean
            arrays[prefix + "bias_std"] = layer.bias.std
        elif isinstance(layer, PlainLinear):
            meta["layers"].append(
                {"type": "plain_linear", "activation": layer.activation}
            )
            arrays[prefix + "weight_mean"] = layer.weight.mean
            arrays[prefix + "weight_std"] = layer.weight.std
            arrays[prefix + "bias_mean"] = layer.bias.mean
            arrays[prefix + "bias_std"] = layer.bias.std
        elif isinstance(layer, Embedding):
            lmeta, larrays = factorized.layer_state(layer.table)
            meta["layers"].append(
                {
                    "type": "embedding",
                    "num_tokens": layer.num_tokens,
                    "embed_dim": layer.embed_dim,
                    "table": lmeta,
                }
            )
            for k, v in larrays.items():
                arrays[prefix + k] = v
        else:
            raise TypeError(f"cannot serialize layer of type {type(layer)!r}")
    arrays["meta"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
    )
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        # Through a handle: np.savez appends ".npz" to a name lacking it.
        with open(tmp, "wb") as handle:
            np.savez(handle, **arrays)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _network_from_state(meta, arrays) -> Network:
    layers = []
    for i, lmeta in enumerate(meta["layers"]):
        prefix = f"layer{i}_"
        local = {
            k[len(prefix) :]: v for k, v in arrays.items() if k.startswith(prefix)
        }
        if lmeta["type"] == "tensorized_linear":
            weight = factorized.layer_from_state(lmeta["weight"], local)
            bias = GaussianFactor(local["bias_mean"], local["bias_std"])
            layers.append(
                TensorizedLinear(
                    weight,
                    bias,
                    int(lmeta["in_features"]),
                    int(lmeta["out_features"]),
                    activation=lmeta["activation"],
                )
            )
        elif lmeta["type"] == "plain_linear":
            layers.append(
                PlainLinear(
                    GaussianFactor(local["weight_mean"], local["weight_std"]),
                    GaussianFactor(local["bias_mean"], local["bias_std"]),
                    activation=lmeta["activation"],
                )
            )
        elif lmeta["type"] == "embedding":
            table = factorized.layer_from_state(lmeta["table"], local)
            layers.append(
                Embedding(table, int(lmeta["num_tokens"]), int(lmeta["embed_dim"]))
            )
        else:
            raise ValueError(f"unknown layer type {lmeta['type']!r}")
    return Network(layers, meta["classes"])


# -- cases ----------------------------------------------------------------------


def _trained_net(first, kind):
    """A ``first`` layer (of format ``kind`` unless plain) ahead of a second
    layer, after two pruned epochs, so ranks differ from the max ranks."""
    rng = np.random.default_rng(7)
    if first == "embedding":
        cols = [2, 3] if kind == "ttm" else [6]
        layers = [{"type": "embedding", "format": kind, "row_dims": [4, 5],
                   "col_dims": cols, "max_rank": 3}]
        inputs = rng.integers(0, 20, size=48)
    elif first == "tensorized_linear":
        layers = [{"type": "tensorized_linear", "format": kind, "row_dims": [3, 4],
                   "col_dims": [2, 3], "max_rank": 3, "activation": "relu"}]
        inputs = rng.standard_normal((48, 12))
    else:
        layers = [{"type": "plain_linear", "in_features": 12, "out_features": 6,
                   "activation": "relu"}]
        inputs = rng.standard_normal((48, 12))
    if first == "tensorized_linear" and kind != "ttm":
        layers.append({"type": "tensorized_linear", "format": kind, "row_dims": [6],
                       "col_dims": [3], "max_rank": 2, "activation": "identity"})
    else:
        layers.append({"type": "plain_linear", "in_features": 6, "out_features": 3})
    net = build_network(layers, 3, np.random.default_rng(8))
    data = datasets.LabeledDataset(inputs, rng.integers(0, 3, size=48), 3)
    cfg = training.TrainConfig(epochs=2, batch_size=16, learning_rate=1e-2,
                               rank_step=0.5, prune_threshold=0.1, seed=9)
    net, _ = training.train(net, data, cfg)
    return net


CASES = [("tensorized_linear", k) for k in factorized.KINDS]
CASES += [("embedding", k) for k in factorized.KINDS]
CASES += [("plain_linear", None)]


def _read(path):
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def _assert_same_net(got, want):
    assert type(got) is type(want) and got.classes == want.classes
    assert [type(layer) for layer in got.layers] == [type(layer) for layer in want.layers]
    for a, b in zip(got.layers, want.layers):
        for ga, gb in zip(a.gaussians(), b.gaussians(), strict=True):
            assert ga.mean.tobytes() == gb.mean.tobytes() and ga.shape == gb.shape
            assert ga.std.tobytes() == gb.std.tobytes()
        assert a.out_features == b.out_features
        assert getattr(a, "activation", None) == getattr(b, "activation", None)
    for (i, fa), (j, fb) in zip(got.factorized_layers(), want.factorized_layers(),
                                strict=True):
        assert i == j
        assert (fa.kind, fa.row_dims, fa.col_dims, fa.max_ranks) == (
            fb.kind, fb.row_dims, fb.col_dims, fb.max_ranks)
        for va, vb in zip(fa.rank_variances, fb.rank_variances, strict=True):
            assert va.tobytes() == vb.tobytes()


@pytest.mark.parametrize("first,kind", CASES, ids=[f"{f}-{k}" for f, k in CASES])
def test_checkpoints_match_the_per_type_writer(tmp_path, first, kind):
    net = _trained_net(first, kind)
    save_network(net, tmp_path / "ref.npz")
    checkpoint.save_network(net, tmp_path / "new.npz")
    ref, new = _read(tmp_path / "ref.npz"), _read(tmp_path / "new.npz")
    assert list(new) == list(ref)
    for key in ref:
        assert new[key].dtype == ref[key].dtype and new[key].shape == ref[key].shape
        assert new[key].tobytes() == ref[key].tobytes(), key

    # Either reader takes either writer's file.
    for path in (tmp_path / "ref.npz", tmp_path / "new.npz"):
        _assert_same_net(checkpoint.load_network(path), net)
        arrays = _read(path)
        meta = json.loads(bytes(arrays.pop("meta")).decode())
        _assert_same_net(_network_from_state(meta, arrays), net)
