"""Network (de)serialization to a single .npz file with a JSON header.

Arrays round-trip bit-exactly; the header carries layer structure.
"""

from __future__ import annotations

import json
import os
import zipfile
from pathlib import Path

import numpy as np

from . import factorized
from .factorized import GaussianFactor
from .network import Embedding, Network, PlainLinear, TensorizedLinear

__all__ = ["save_network", "load_network"]


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


def load_network(path) -> Network:
    """Read a network written by :func:`save_network`.

    A file that is not such a checkpoint (not an npz archive, truncated, no
    ``meta`` header, a header that is not JSON, missing or mismatched layer
    arrays) raises ``ValueError`` naming ``path``.
    """
    try:
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
    except FileNotFoundError:
        raise
    except (OSError, EOFError, ValueError, TypeError, zipfile.BadZipFile) as e:
        # For a .npy file np.load hands back a plain array, which is no
        # context manager: that is the TypeError.
        raise ValueError(f"{path} is not a readable checkpoint: {e}") from e
    if "meta" not in arrays:
        raise ValueError(f"{path} is not a checkpoint: it has no 'meta' header")
    try:
        meta = json.loads(bytes(arrays.pop("meta")).decode())
    except ValueError as e:
        raise ValueError(f"{path} has a 'meta' header that is not JSON: {e}") from e
    try:
        return _network_from_state(meta, arrays)
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"{path} is not a valid checkpoint: {e!r}") from e


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
