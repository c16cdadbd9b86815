"""Golden runs: digests of 23 short `tensorard train` runs, for refactor gates.

Each format (cp, tucker, tt, ttm) trains as a two-layer linear net and as an
embedding + plain-head net, under LogUniform and HalfCauchy(0.3) hyper-priors,
pruning at 0.08.  Each format also trains one linear net whose first layer has
three row modes, a per-entry ``max_rank`` list and synthetic data drawn at a
per-entry ``true_rank`` list, under LogUniform.  One more run trains a TTM
embedding table of three cores, under LogUniform; every token batch repeats
ids, so its backward sums repeated rows and runs an interior core.  A last
run trains the CP linear net in ``fixed_rank`` mode under LogUniform, where
the KL weight stays 0 and no rank-variance update runs.  The 23rd run trains
the CP linear net under LogUniform with a hidden 6 -> 6 ``plain_linear``
(relu) between its two layers; with three layers, the order of the KL's
per-layer sum shows in its digests.  For every run the script prints the return code and SHA-256 digests of
``metrics.csv``, ``ranks.json``, every array of ``checkpoint_final.npz``
(``meta`` included), the report less its wall time, and the JSON that
``tensorard predict --samples 4 --seed 0`` writes from the final checkpoint
for four fixed inputs (seeded feature rows for a linear net, token ids 0-3
for an embedding), one per line, after a header line naming the numpy
version and the BLAS it was built against.  The output holds no path and
does not depend on the BLAS thread count.

``tools/golden_digests.txt`` holds this output for the current tree, and
``tests/test_golden.py`` runs the script in-process against it.  A change that
moves numbers on purpose regenerates the file:

    PYTHONPATH=src python tools/golden_runs.py OUT > tools/golden_digests.txt

A refactor that must not change any number runs this once on the old tree and
once on the new one, and the two outputs must be identical:

    PYTHONPATH=<old>/src python tools/golden_runs.py OUT_OLD > old.txt
    PYTHONPATH=<new>/src python tools/golden_runs.py OUT_NEW > new.txt
    diff old.txt new.txt

OUT is a scratch directory for the runs; it is created if missing.

A change that may only move floats by rounding (one that sums in another
order) compares the two OUT directories numerically instead:

    PYTHONPATH=<new>/src python tools/golden_runs.py --compare OUT_OLD OUT_NEW

For each run of OUT_OLD it prints the largest relative difference (the
largest absolute difference over the largest magnitude in OUT_OLD) of every
float array of ``checkpoint_final.npz`` and of every float column of
``metrics.csv``, then the largest over all runs.  It exits 1 when OUT_OLD
holds no run, when a run is missing from OUT_NEW, or when any integer array
(``meta`` included), array shape, array or column name, row count, or
``epoch`` or ``rank_*`` column differs; else 0.
"""

import contextlib
import csv
import hashlib
import json
import math
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


# Per-format (max_rank, true_rank) lists for 24 -> 6 layers with three row
# modes: one rank entry for CP, one per mode for Tucker, one per interior bond
# for TT (five modes) and TTM (three paired modes).
RANK_LISTS = {"cp": ([3], [2]),
              "tucker": ([2, 3, 3, 2, 3], [1, 2, 2, 1, 2]),
              "tt": ([2, 3, 4, 2], [1, 2, 2, 1]),
              "ttm": ([4, 3], [2, 2])}


def rank_list_spec(fmt, out):
    cols = [2, 3, 1] if fmt == "ttm" else [2, 3]
    max_rank, true_rank = RANK_LISTS[fmt]
    model, _ = linear_spec(fmt, out)
    model["layers"][0] = {"type": "tensorized_linear", "format": fmt,
                          "row_dims": [2, 3, 4], "col_dims": cols,
                          "max_rank": max_rank, "activation": "relu"}
    return model, {
        "kind": "synthetic", "format": fmt, "row_dims": [2, 3, 4],
        "col_dims": cols, "true_rank": true_rank, "num_samples": 128,
        "test_samples": 32, "seed": 11}


def hidden_spec(fmt, out):
    model, data = linear_spec(fmt, out)
    model["layers"].insert(1, {"type": "plain_linear", "in_features": 6,
                               "out_features": 6, "activation": "relu"})
    return model, data


def embedding_spec(fmt, out):
    cols = [2, 3] if fmt == "ttm" else [6]
    emb = {"type": "embedding", "format": fmt, "row_dims": [4, 5],
           "col_dims": cols, "max_rank": 4}
    return {"classes": 3, "layers": [emb, {"type": "plain_linear",
            "in_features": 6, "out_features": 3}]}, {
        "kind": "blob", "train_prefix": str(out / "tokens")}


def embedding3_spec(fmt, out):
    model, data = embedding_spec(fmt, out)
    model["layers"][0].update(row_dims=[2, 2, 5], col_dims=[2, 3, 1])
    return model, data


def predict_digest(model, run) -> str:
    """The digest of ``tensorard predict --samples 4 --seed 0``'s JSON for
    four fixed inputs to the run's final checkpoint, or its return code."""
    first = model["layers"][0]
    if first["type"] == "embedding":
        inputs = np.arange(4)
    else:
        inputs = np.random.default_rng(0).standard_normal((4, math.prod(first["row_dims"])))
    np.save(run / "predict_input.npy", inputs)
    rc = cli.main(["predict", "--checkpoint", str(run / "checkpoint_final.npz"),
                   "--input", str(run / "predict_input.npy"), "--samples", "4",
                   "--seed", "0", "--out", str(run / "predict.json")])
    return digest((run / "predict.json").read_bytes()) if rc == 0 else f"rc {rc}"


def header() -> str:
    """The numpy version and the BLAS it was built against, as one line."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"# numpy {np.__version__}, BLAS {blas['name']} {blas.get('version', '?')}"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def max_rel_diff(got, want) -> float:
    """max |got - want| over max |want|; NaNs must sit in the same places."""
    nan = np.isnan(want)
    if not np.array_equal(nan, np.isnan(got)):
        return math.inf
    got, want = np.where(nan, 0.0, got), np.where(nan, 0.0, want)
    scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-300)
    return float(np.max(np.abs(got - want), initial=0.0)) / scale


def read_metrics(path):
    with open(path, newline="") as handle:
        header, *rows = list(csv.reader(handle))
    return header, rows


def compare_run(name, old, new):
    """Print one run's float differences; return (largest, mismatches)."""
    bad, worst = [], 0.0
    with np.load(old / "checkpoint_final.npz") as a, np.load(new / "checkpoint_final.npz") as b:
        if sorted(a.files) != sorted(b.files):
            bad.append("checkpoint array names")
        for key in sorted(set(a.files) & set(b.files)):
            x, y = a[key], b[key]
            if x.dtype != y.dtype or x.shape != y.shape:
                bad.append(f"final {key} dtype or shape")
            elif not np.issubdtype(x.dtype, np.floating):
                if not np.array_equal(x, y):
                    bad.append(f"final {key}")
            else:
                rel = max_rel_diff(y, x)
                worst = max(worst, rel)
                print(name, "final", key, x.dtype, x.shape, f"maxrel {rel:.3g}")
    (head_a, rows_a), (head_b, rows_b) = (read_metrics(d / "metrics.csv") for d in (old, new))
    if head_a != head_b or len(rows_a) != len(rows_b):
        bad.append("metrics.csv columns or rows")
        return worst, bad
    for j, column in enumerate(head_a):
        x, y = [r[j] for r in rows_a], [r[j] for r in rows_b]
        if column.startswith("rank_") or column == "epoch":
            if x != y:
                bad.append(f"metrics.csv {column}")
            continue
        rel = max_rel_diff(np.array(y, dtype=float), np.array(x, dtype=float))
        worst = max(worst, rel)
        print(name, "metrics.csv", column, f"maxrel {rel:.3g}")
    return worst, bad


def compare(old_dir, new_dir) -> int:
    worst, failed = 0.0, False
    runs = sorted(p.name for p in Path(old_dir).iterdir()
                  if (p / "checkpoint_final.npz").is_file())
    for name in runs:
        old, new = Path(old_dir) / name, Path(new_dir) / name
        if not (new / "checkpoint_final.npz").is_file():
            print(name, "MISMATCH missing from", new_dir)
            failed = True
            continue
        rel, bad = compare_run(name, old, new)
        worst = max(worst, rel)
        for what in bad:
            print(name, "MISMATCH", what)
        failed = failed or bool(bad)
    print(f"{len(runs)} runs, largest relative difference {worst:.3g}")
    return 1 if failed or not runs else 0


def main(argv):
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    print(header())
    rng = np.random.default_rng(5)
    tokens = rng.integers(0, 20, size=160)
    datasets.save_dataset(datasets.LabeledDataset(tokens, tokens % 3, 3),
                          out / "tokens")
    runs = [(fmt, net, make, pname, "ard")
            for fmt in ("cp", "tucker", "tt", "ttm")
            for net, make in (("linear", linear_spec), ("embed", embedding_spec))
            for pname in PRIORS]
    runs += [(fmt, "linear3", rank_list_spec, "lu", "ard") for fmt in RANK_LISTS]
    runs += [("ttm", "embed3", embedding3_spec, "lu", "ard"),
             ("cp", "linear", linear_spec, "lu", "fixed_rank"),
             ("cp", "hidden", hidden_spec, "lu", "ard")]
    for fmt, net, make, pname, mode in runs:
        name = f"{fmt}-{net}-{pname}" + ("" if mode == "ard" else f"-{mode}")
        model, data = make(fmt, out)
        spec = {"model": model, "data": data,
                "train": {**TRAIN, "hyper_prior": PRIORS[pname], "mode": mode}}
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
        print(name, "predict", predict_digest(model, run))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
