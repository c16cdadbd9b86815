"""Network (de)serialization to a single .npz file with a JSON header.

Arrays round-trip bit-exactly; the header carries layer structure.
"""

from __future__ import annotations

import json
import os
import zipfile
from pathlib import Path

import numpy as np

from .network import LAYER_TYPES, Network

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
        lmeta, larrays = layer.state()
        meta["layers"].append({"type": layer.type_name, **lmeta})
        for k, v in larrays.items():
            arrays[f"layer{i}_{k}"] = v
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
        layers.append(LAYER_TYPES[lmeta["type"]].from_state(lmeta, local))
    return Network(layers, meta["classes"])
