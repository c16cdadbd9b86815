"""Golden runs: digests of 20 short `tensorard train` runs, for refactor gates.

Each format (cp, tucker, tt, ttm) trains as a two-layer linear net and as an
embedding + plain-head net, under LogUniform and HalfCauchy(0.3) hyper-priors,
pruning at 0.08.  Each format also trains one linear net whose first layer has
three row modes, a per-entry ``max_ranks`` list and synthetic data drawn at a
per-entry ``true_rank`` list, under LogUniform.  For every run the script prints the return code and SHA-256
digests of ``metrics.csv``, ``ranks.json``, the report less its wall time, and
every array of ``checkpoint_final.npz`` (``meta`` included), one per line.

A refactor that must not change any number runs this once on the old tree and
once on the new one, and the two outputs must be identical:

    PYTHONPATH=<old>/src python tools/golden_runs.py OUT_OLD > old.txt
    PYTHONPATH=<new>/src python tools/golden_runs.py OUT_NEW > new.txt
    diff old.txt new.txt

OUT is a scratch directory for the runs; it is created if missing.
"""

import contextlib
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from tensorard import cli, datasets

PRIORS = {"lu": {"kind": "log_uniform"},
          "hc": {"kind": "half_cauchy", "scale": 0.3}}
TRAIN = {"epochs": 5, "batch_size": 32, "learning_rate": 2e-3,
         "rank_step": 0.2, "prune_threshold": 0.08, "seed": 3,
         "warmup_epochs": 2}


def linear_spec(fmt, out):
    head = ({"type": "plain_linear", "in_features": 6, "out_features": 6}
            if fmt == "ttm" else
            {"type": "tensorized_linear", "format": fmt, "row_dims": [2, 3],
             "col_dims": [3, 2], "max_rank": 2, "activation": "identity"})
    first = {"type": "tensorized_linear", "format": fmt, "row_dims": [4, 4],
             "col_dims": [2, 3], "max_rank": 4, "activation": "relu"}
    return {"classes": 6, "layers": [first, head]}, {
        "kind": "synthetic", "format": fmt, "row_dims": [4, 4],
        "col_dims": [2, 3], "true_rank": 2, "num_samples": 128,
        "test_samples": 32, "seed": 11}


# Per-format (max_ranks, true_rank) lists for 24 -> 6 layers with three row
# modes: one rank entry for CP, one per mode for Tucker, one per interior bond
# for TT (five modes) and TTM (three paired modes).
RANK_LISTS = {"cp": ([3], [2]),
              "tucker": ([2, 3, 3, 2, 3], [1, 2, 2, 1, 2]),
              "tt": ([2, 3, 4, 2], [1, 2, 2, 1]),
              "ttm": ([4, 3], [2, 2])}


def rank_list_spec(fmt, out):
    cols = [2, 3, 1] if fmt == "ttm" else [2, 3]
    max_ranks, true_rank = RANK_LISTS[fmt]
    model, _ = linear_spec(fmt, out)
    model["layers"][0] = {"type": "tensorized_linear", "format": fmt,
                          "row_dims": [2, 3, 4], "col_dims": cols,
                          "max_ranks": max_ranks, "activation": "relu"}
    return model, {
        "kind": "synthetic", "format": fmt, "row_dims": [2, 3, 4],
        "col_dims": cols, "true_rank": true_rank, "num_samples": 128,
        "test_samples": 32, "seed": 11}


def embedding_spec(fmt, out):
    cols = [2, 3] if fmt == "ttm" else [6]
    emb = {"type": "embedding", "format": fmt, "row_dims": [4, 5],
           "col_dims": cols, "max_rank": 4}
    return {"classes": 3, "layers": [emb, {"type": "plain_linear",
            "in_features": 6, "out_features": 3}]}, {
        "kind": "blob", "train_prefix": str(out / "tokens")}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv):
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(5)
    tokens = rng.integers(0, 20, size=160)
    datasets.save_dataset(datasets.LabeledDataset(tokens, tokens % 3, 3),
                          out / "tokens")
    runs = [(fmt, net, make, pname)
            for fmt in ("cp", "tucker", "tt", "ttm")
            for net, make in (("linear", linear_spec), ("embed", embedding_spec))
            for pname in PRIORS]
    runs += [(fmt, "linear3", rank_list_spec, "lu") for fmt in RANK_LISTS]
    for fmt, net, make, pname in runs:
        name = f"{fmt}-{net}-{pname}"
        model, data = make(fmt, out)
        spec = {"model": model, "data": data,
                "train": {**TRAIN, "hyper_prior": PRIORS[pname]}}
        run, path = out / name, out / f"{name}.json"
        path.write_text(json.dumps(spec))
        # The CLI's summary names the output directory: keep it out of the
        # digests.
        with contextlib.redirect_stdout(sys.stderr):
            rc = cli.main(["train", "--spec", str(path), "--out", str(run)])
        print(name, "rc", rc)
        for item in ("metrics.csv", "ranks.json"):
            print(name, item, digest((run / item).read_bytes()))
        with np.load(run / "checkpoint_final.npz") as ck:
            for key in sorted(ck.files):
                a = ck[key]
                print(name, "final", key, a.dtype, a.shape, digest(a.tobytes()))
        report = json.loads((run / "report.json").read_text())
        report.pop("wall_time_s", None)
        print(name, "report", digest(json.dumps(report, sort_keys=True).encode()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
