"""Command-line front end: train, eval, predict, synth-gen.

Exit codes: 0 success, 2 invalid usage, spec, input or path, 3 numerical
failure. Heavy imports happen after argument parsing so --threads can pin
the BLAS thread count before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# The schema is built from shared pieces, each stated once. They are shared
# dict objects, so nothing may mutate them.
_COUNT = {"type": "integer", "minimum": 1}
_DIMS = {"type": "array", "items": _COUNT}
_FORMAT = {"enum": ["cp", "tucker", "tt", "ttm"]}
_ACTIVATION = {"enum": ["relu", "identity"]}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_STRING = {"type": "string"}
_SEED = {"type": "integer", "minimum": 0}
# An int, or one entry per rank-variance vector of the format.
_RANKS = {"type": ["integer", "array"], "if": {"type": "integer"}, "then": {"minimum": 1},
          "else": {"items": _COUNT}}
# The keys that tensorized_linear and embedding layers share, all required.
_TENSORIZED = {"format": _FORMAT, "row_dims": _DIMS, "col_dims": _DIMS,
               "max_rank": _RANKS}


def _object(required, **properties):
    """An object schema with these properties; unknown keys are rejected."""
    return {"type": "object", "additionalProperties": False,
            "required": list(required), "properties": properties}


def _tagged(tag, **branches):
    """An object whose ``tag`` names one of ``branches``, _object schemas
    without the tag. Only the named branch applies, so an error names a field
    of the branch the spec asked for, or the tag itself."""
    return {"type": "object", "required": [tag], "properties": {tag: {"enum": list(branches)}},
            "allOf": [{"if": {"required": [tag], "properties": {tag: {"const": name}}},
                       "then": {**branch, "properties": {tag: True, **branch["properties"]}}}
                      for name, branch in branches.items()]}


RUNSPEC_SCHEMA = _object(
    ["model", "data", "train"],
    output_dir=_STRING,
    model=_object(
        ["layers", "classes"],
        classes={"type": "integer", "minimum": 2},
        layers={"type": "array", "minItems": 1, "items": _tagged(
            "type",
            tensorized_linear=_object(_TENSORIZED, **_TENSORIZED, activation=_ACTIVATION,
                                      in_features=_COUNT, out_features=_COUNT),
            embedding=_object(_TENSORIZED, **_TENSORIZED),
            plain_linear=_object(["in_features", "out_features"], in_features=_COUNT,
                                 out_features=_COUNT, activation=_ACTIVATION),
        )},
    ),
    data=_tagged(
        "kind",
        mnist={**_object(["train_images", "train_labels"], train_images=_STRING,
                         train_labels=_STRING, test_images=_STRING, test_labels=_STRING),
               "dependentRequired": {"test_images": ["test_labels"]}},
        synthetic=_object(["format", "row_dims", "col_dims", "true_rank", "num_samples"],
                          format=_FORMAT, row_dims=_DIMS, col_dims=_DIMS, true_rank=_RANKS,
                          num_samples=_COUNT, test_samples={"type": "integer", "minimum": 0},
                          seed=_SEED, label_sampling={"enum": ["argmax", "multinomial"]},
                          in_features=_COUNT, out_features=_COUNT),
        blob=_object(["train_prefix"], train_prefix=_STRING, test_prefix=_STRING),
    ),
    train=_object(
        ["epochs", "batch_size"],
        mode={"enum": ["ard", "fixed_rank"]},
        hyper_prior=_tagged("kind", log_uniform=_object([]),
                            half_cauchy=_object(["scale"], scale=_POSITIVE)),
        learning_rate=_POSITIVE,
        rank_step={"type": "number", "minimum": 0, "maximum": 1},
        prune_threshold=_POSITIVE,
        epochs=_COUNT,
        warmup_epochs=_COUNT,
        batch_size=_COUNT,
        weak_prior_std=_POSITIVE,
        seed=_SEED,
        init_std_ratio=_POSITIVE,
    ),
)


class SpecError(Exception):
    pass


def _set_thread_env(threads):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(threads)


def _int_at_least(low, what):
    """An argparse type: an int of at least ``low``, called ``what`` in errors."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} must be at least {low}, got {value}")
        return value
    return parse


def load_runspec(path, key=None):
    """The validated run spec in the JSON file at ``path``; with ``key``, its
    ``key`` mapping alone, which the file may also hold bare."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise SpecError(f"spec {path} is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise SpecError(f"spec {path} is not a JSON object")
    doc = doc.get(key, doc) if key else doc
    validate_runspec(doc, key)
    return doc


def validate_runspec(doc, key=None):
    """Raise SpecError naming the offending field of a run spec, or of its
    ``key`` mapping alone when ``key`` is given."""
    import jsonschema
    from jsonschema.exceptions import relevance

    schema = RUNSPEC_SCHEMA if key is None else RUNSPEC_SCHEMA["properties"][key]
    errors = jsonschema.Draft202012Validator(schema).iter_errors(doc)
    err = max(errors, key=relevance, default=None)
    if err is None:
        return
    path = ([key] if key else []) + list(err.absolute_path)
    where = "/".join(str(p) for p in path) or "<root>"
    raise SpecError(f"invalid spec at {where}: {err.message}")


def _load_data(data_cfg):
    from . import datasets

    kind = data_cfg["kind"]
    if kind == "mnist":
        train = datasets.load_mnist_idx(data_cfg["train_images"], data_cfg["train_labels"])
        test = (
            datasets.load_mnist_idx(data_cfg["test_images"], data_cfg["test_labels"])
            if "test_images" in data_cfg
            else None
        )
        return train, test, None
    if kind == "synthetic":
        n_train = data_cfg["num_samples"]
        n_test = data_cfg.get("test_samples", 0)
        # Optional keys pass only when set, so their defaults are gen_synthetic's.
        optional = {k: data_cfg[k] for k in ("seed", "label_sampling", "in_features",
                                             "out_features") if k in data_cfg}
        data, teacher = datasets.gen_synthetic(
            data_cfg["format"],
            data_cfg["row_dims"],
            data_cfg["col_dims"],
            data_cfg["true_rank"],
            num_samples=n_train + n_test,
            **optional,
        )
        train = data.subset(slice(0, n_train))
        test = data.subset(slice(n_train, None)) if n_test else None
        return train, test, teacher
    # The schema admits no other kind than blob.
    train = datasets.load_dataset(data_cfg["train_prefix"])
    test = datasets.load_dataset(data_cfg["test_prefix"]) if "test_prefix" in data_cfg else None
    return train, test, None


def _train_config(train_cfg, seed_override=None):
    """The spec's ``train`` mapping as a TrainConfig, whose fields it names."""
    from . import bayes, training

    kwargs = dict(train_cfg)
    if "hyper_prior" in kwargs:
        kwargs["hyper_prior"] = bayes.hyper_prior_from_config(kwargs["hyper_prior"])
    if seed_override is not None:
        kwargs["seed"] = seed_override
    return training.TrainConfig(**kwargs)


def ranks_payload(net, threshold):
    """JSON-safe per-layer inferred ranks plus rank-variance histograms."""
    import numpy as np

    from . import factorized

    layers = []
    for idx, fl in net.factorized_layers():
        vectors = []
        for v, surviving in zip(fl.rank_variances, factorized.surviving_counts(fl, threshold)):
            log10 = np.log10(v)
            edges = list(range(-12, 2))
            hist, _ = np.histogram(log10, bins=edges)
            vectors.append(
                {
                    "values": [float(x) for x in v],
                    "surviving": surviving,
                    "log10_histogram": {
                        "bin_edges": edges,
                        "counts": [int(c) for c in hist],
                    },
                }
            )
        layers.append(
            {
                "layer": idx,
                "kind": fl.kind,
                "max_ranks": factorized.json_ranks(fl.max_ranks),
                "inferred_ranks": factorized.json_ranks(factorized.inferred_ranks(fl, threshold)),
                "rank_variances": vectors,
            }
        )
    return {"epsilon": threshold, "layers": layers}


def cmd_train(args):
    spec = load_runspec(args.spec)
    out_dir = Path(args.out or spec.get("output_dir") or "run_output")

    import numpy as np

    from . import network, training

    cfg = _train_config(spec["train"], args.seed)
    train_data, test_data, _ = _load_data(spec["data"])
    init_rng = np.random.default_rng([cfg.seed, 1])
    net = network.build_network(
        spec["model"]["layers"], spec["model"]["classes"], init_rng,
        std_ratio=cfg.init_std_ratio,
    )
    net, report = training.train(net, train_data, cfg, test_data=test_data, out_dir=out_dir)
    (out_dir / "report.json").write_text(
        json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    )
    report.write_csv(out_dir / "metrics.csv")
    (out_dir / "ranks.json").write_text(
        json.dumps(ranks_payload(net, cfg.prune_threshold), sort_keys=True, indent=2) + "\n"
    )
    final_acc = report.test_acc[-1] if report.test_acc[-1] is not None else report.train_acc[-1]
    print(
        f"trained {cfg.epochs} epochs: accuracy={final_acc:.4f} "
        f"params {report.params_before_prune} -> {report.params_after_prune} "
        f"(dense {report.dense_params}); outputs in {out_dir}"
    )
    return 0


def cmd_eval(args):
    from . import checkpoint, training

    net = checkpoint.load_network(args.checkpoint)
    data = _eval_dataset(args)
    acc = training.evaluate(net, data)
    current = net.param_count()
    dense = net.dense_param_count()
    at_max = _param_count_at_max_ranks(net)
    print(f"posterior-mean accuracy: {acc:.4f}")
    print(f"parameters (current ranks): {current}")
    print(f"parameters (max ranks, pre-prune): {at_max}")
    print(f"dense equivalent: {dense}")
    print(f"compression ratio vs dense: {dense / current:.1f}x")
    return 0


def _param_count_at_max_ranks(net):
    from . import factorized

    total = net.param_count()
    for _, layer in net.factorized_layers():
        total += factorized.param_count_at_max_ranks(layer) - factorized.param_count(layer)
    return total


def _eval_dataset(args):
    from . import datasets

    if args.data:
        return datasets.load_dataset(args.data)
    if args.mnist_images and args.mnist_labels:
        return datasets.load_mnist_idx(args.mnist_images, args.mnist_labels)
    raise SpecError("eval needs --data PREFIX or --mnist-images/--mnist-labels")


def cmd_predict(args):
    from . import checkpoint, training

    if args.samples < 2:
        raise SpecError("--samples must be at least 2")
    net = checkpoint.load_network(args.checkpoint)
    inputs = _load_input(args.input)
    mean, std = training.predict_uncertainty(net, inputs, args.samples, seed=args.seed)
    payload = {"classes": net.classes, "samples": args.samples,
               "mean": mean.tolist(), "std": std.tolist()}
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def _load_input(path):
    import numpy as np

    p = Path(path)
    if p.suffix == ".npy":
        try:
            arr = np.load(p)
        except (OSError, EOFError, ValueError) as e:
            raise SpecError(f"{path} is not a readable .npy array: {e}") from e
        if not isinstance(arr, np.ndarray):
            # np.load reads an .npz archive whatever its suffix.
            arr.close()
            raise SpecError(f"{path} is not a readable .npy array: it is an .npz archive")
        return arr
    try:
        values = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise SpecError(f"input file is neither .npy nor JSON: {e}")
    arr = np.asarray(values)
    if arr.dtype == object:
        raise SpecError("input JSON must be a flat or nested numeric array")
    return arr


def cmd_synth_gen(args):
    from . import datasets

    data_cfg = load_runspec(args.spec, "data")
    if data_cfg["kind"] != "synthetic":
        raise SpecError("synth-gen needs a spec whose data kind is 'synthetic'")
    train, test, _ = _load_data(data_cfg)
    datasets.save_dataset(train, args.out)
    written = [f"{args.out}.json", f"{args.out}.bin"]
    if test is not None:
        datasets.save_dataset(test, f"{args.out}_test")
        written += [f"{args.out}_test.json", f"{args.out}_test.bin"]
    print("wrote " + ", ".join(written))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tensorard",
        description="Train tensorized neural networks with automatic rank determination.",
    )
    parser.add_argument("--threads", type=_int_at_least(1, "thread count"),
                        help="cap BLAS/OpenMP threads")
    parser.add_argument(
        "--deterministic",
        action="store_true",
        help="force single-threaded, reproducible execution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training spec")
    p_train.add_argument("--spec", required=True, help="RunSpec JSON path")
    p_train.add_argument("--out", help="output directory (overrides spec)")
    p_train.add_argument("--seed", type=_int_at_least(0, "seed"), help="override the training seed")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", help="dataset blob prefix")
    p_eval.add_argument("--mnist-images")
    p_eval.add_argument("--mnist-labels")
    p_eval.set_defaults(func=cmd_eval)

    p_pred = sub.add_parser("predict", help="softmax mean/std under weight sampling")
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument("--input", required=True, help=".npy or JSON array")
    p_pred.add_argument("--samples", type=int, default=100)
    p_pred.add_argument("--seed", type=_int_at_least(0, "seed"), default=0)
    p_pred.add_argument("--out", help="write JSON here instead of stdout")
    p_pred.set_defaults(func=cmd_predict)

    p_gen = sub.add_parser("synth-gen", help="generate a synthetic dataset blob")
    p_gen.add_argument("--spec", required=True, help="RunSpec (or bare data spec) JSON")
    p_gen.add_argument("--out", required=True, help="output path prefix")
    p_gen.set_defaults(func=cmd_synth_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.deterministic:
        _set_thread_env(1)
    elif args.threads:
        _set_thread_env(args.threads)
    try:
        return args.func(args)
    except (SpecError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        from .factorized import RankCollapsedError
        from .training import TrainingDiverged

        if isinstance(e, (TrainingDiverged, RankCollapsedError)):
            print(f"training aborted: {e}", file=sys.stderr)
            return 3
        raise


if __name__ == "__main__":
    sys.exit(main())
