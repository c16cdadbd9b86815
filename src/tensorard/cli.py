"""Command-line front end: train, eval, predict, synth-gen.

Exit codes: 0 success, 2 invalid usage or spec, 3 numerical failure.
Heavy imports happen after argument parsing so --threads can pin the BLAS
thread count before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

RUNSPEC_SCHEMA = {
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
                                "required": ["type", "format", "row_dims", "col_dims"],
                                "properties": {
                                    "type": {"const": "tensorized_linear"},
                                    "format": {"enum": ["cp", "tucker", "tt", "ttm"]},
                                    "row_dims": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                                    "col_dims": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                                    "max_rank": {"type": "integer", "minimum": 1},
                                    "max_ranks": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                                    "activation": {"enum": ["relu", "identity"]},
                                    "in_features": {"type": "integer", "minimum": 1},
                                    "out_features": {"type": "integer", "minimum": 1},
                                },
                            },
                            {
                                "type": "object",
                                "additionalProperties": False,
                                "required": ["type", "format", "row_dims", "col_dims"],
                                "properties": {
                                    "type": {"const": "embedding"},
                                    "format": {"enum": ["cp", "tucker", "tt", "ttm"]},
                                    "row_dims": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                                    "col_dims": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                                    "max_rank": {"type": "integer", "minimum": 1},
                                    "max_ranks": {"type": "array", "items": {"type": "integer", "minimum": 1}},
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
                        "seed": {"type": "integer"},
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
                "seed": {"type": "integer"},
                "init_std_ratio": {"type": "number", "minimum": 0},
            },
        },
    },
}


class SpecError(Exception):
    pass


def _set_thread_env(threads):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(threads)


def load_runspec(path):
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise SpecError(f"spec file not found: {path}")
    except json.JSONDecodeError as e:
        raise SpecError(f"spec is not valid JSON: {e}")
    validate_runspec(doc)
    return doc


def validate_runspec(doc):
    import jsonschema
    from jsonschema.exceptions import relevance

    validator = jsonschema.Draft202012Validator(RUNSPEC_SCHEMA)
    errors = list(validator.iter_errors(doc))
    if not errors:
        return
    err = max(errors, key=relevance)
    # Descend through oneOf wrappers into the branch whose discriminator
    # ("kind"/"type" const) matches, so messages name the offending field.
    while err.context:
        by_branch = {}
        for sub in err.context:
            idx = next(iter(sub.schema_path), 0)
            by_branch.setdefault(idx, []).append(sub)
        matching = [
            subs
            for subs in by_branch.values()
            if not any(s.validator == "const" for s in subs)
        ]
        pool = matching[0] if matching else list(err.context)
        err = max(pool, key=relevance)
    where = "/".join(str(p) for p in err.absolute_path) or "<root>"
    raise SpecError(f"invalid spec at {where}: {err.message}")


def _load_data(data_cfg):
    from . import datasets

    kind = data_cfg["kind"]
    if kind == "mnist":
        train = datasets.load_mnist_idx(data_cfg["train_images"], data_cfg["train_labels"])
        test = None
        if "test_images" in data_cfg:
            if "test_labels" not in data_cfg:
                raise SpecError("invalid spec at data/test_labels: required with test_images")
            test = datasets.load_mnist_idx(data_cfg["test_images"], data_cfg["test_labels"])
        return train, test, None
    if kind == "synthetic":
        n_train = data_cfg["num_samples"]
        n_test = data_cfg.get("test_samples", 0)
        data, teacher = datasets.gen_synthetic(
            data_cfg["format"],
            data_cfg["row_dims"],
            data_cfg["col_dims"],
            data_cfg["true_rank"],
            num_samples=n_train + n_test,
            seed=data_cfg.get("seed", 0),
            label_sampling=data_cfg.get("label_sampling", "argmax"),
            in_features=data_cfg.get("in_features"),
            out_features=data_cfg.get("out_features"),
        )
        train = data.subset(slice(0, n_train))
        test = data.subset(slice(n_train, None)) if n_test else None
        return train, test, teacher
    if kind == "blob":
        train = datasets.load_dataset(data_cfg["train_prefix"])
        test = (
            datasets.load_dataset(data_cfg["test_prefix"])
            if "test_prefix" in data_cfg
            else None
        )
        return train, test, None
    raise SpecError(f"invalid spec at data/kind: unknown kind {kind!r}")


def _train_config(train_cfg, seed_override=None):
    from . import bayes, training

    prior = bayes.hyper_prior_from_config(
        train_cfg.get("hyper_prior", {"kind": "log_uniform"})
    )
    kwargs = dict(
        learning_rate=train_cfg.get("learning_rate", 1e-3),
        rank_step=train_cfg.get("rank_step", 0.05),
        prune_threshold=train_cfg.get("prune_threshold", 1e-5),
        epochs=train_cfg["epochs"],
        warmup_epochs=train_cfg.get("warmup_epochs"),
        batch_size=train_cfg["batch_size"],
        hyper_prior=prior,
        weak_prior_std=train_cfg.get("weak_prior_std", 1.0),
        seed=train_cfg.get("seed", 0) if seed_override is None else seed_override,
        mode=train_cfg.get("mode", "ard"),
        init_std_ratio=train_cfg.get("init_std_ratio", 0.05),
    )
    return training.TrainConfig(**kwargs)


def ranks_payload(net, threshold):
    """JSON-safe per-layer inferred ranks plus rank-variance histograms."""
    import numpy as np

    from . import factorized

    layers = []
    for idx, fl in net.factorized_layers():
        vectors = []
        for v in fl.rank_variances:
            log10 = np.log10(v)
            edges = list(range(-12, 2))
            hist, _ = np.histogram(log10, bins=edges)
            vectors.append(
                {
                    "values": [float(x) for x in v],
                    "surviving": int(np.count_nonzero(v >= threshold)),
                    "log10_histogram": {
                        "bin_edges": edges,
                        "counts": [int(c) for c in hist],
                    },
                }
            )
        ranks = factorized.inferred_ranks(fl, threshold)
        layers.append(
            {
                "layer": idx,
                "kind": fl.kind,
                "max_ranks": fl.max_ranks if isinstance(fl.max_ranks, int) else list(fl.max_ranks),
                "inferred_ranks": ranks if isinstance(ranks, int) else list(ranks),
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
    import numpy as np

    from . import checkpoint, training

    if args.samples < 2:
        raise SpecError("--samples must be at least 2")
    net = checkpoint.load_network(args.checkpoint)
    inputs = _load_input(args.input)
    mean, std = training.predict_uncertainty(net, inputs, args.samples, seed=args.seed)
    payload = {
        "classes": net.classes,
        "samples": args.samples,
        "mean": [float(x) for x in np.atleast_2d(mean)[0]]
        if np.asarray(mean).ndim == 1
        else [[float(x) for x in row] for row in mean],
        "std": [float(x) for x in np.atleast_2d(std)[0]]
        if np.asarray(std).ndim == 1
        else [[float(x) for x in row] for row in std],
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def _load_input(path):
    import numpy as np

    p = Path(path)
    if not p.exists():
        raise SpecError(f"input file not found: {path}")
    if p.suffix == ".npy":
        return np.load(p)
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

    doc = json.loads(Path(args.spec).read_text())
    data_cfg = doc.get("data", doc)
    if data_cfg.get("kind") != "synthetic":
        raise SpecError("synth-gen needs a spec whose data kind is 'synthetic'")
    validate_runspec_fragment(data_cfg)
    train, test, _ = _load_data(data_cfg)
    datasets.save_dataset(train, args.out)
    written = [f"{args.out}.json", f"{args.out}.bin"]
    if test is not None:
        datasets.save_dataset(test, f"{args.out}_test")
        written += [f"{args.out}_test.json", f"{args.out}_test.bin"]
    print("wrote " + ", ".join(written))
    return 0


def validate_runspec_fragment(data_cfg):
    import jsonschema

    schema = RUNSPEC_SCHEMA["properties"]["data"]
    try:
        jsonschema.validate(data_cfg, schema)
    except jsonschema.ValidationError as e:
        raise SpecError(f"invalid synthetic data spec: {e.message}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tensorard",
        description="Train tensorized neural networks with automatic rank determination.",
    )
    parser.add_argument("--threads", type=int, help="cap BLAS/OpenMP threads")
    parser.add_argument(
        "--deterministic",
        action="store_true",
        help="force single-threaded, reproducible execution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training spec")
    p_train.add_argument("--spec", required=True, help="RunSpec JSON path")
    p_train.add_argument("--out", help="output directory (overrides spec)")
    p_train.add_argument("--seed", type=int, help="override the training seed")
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
    p_pred.add_argument("--seed", type=int, default=0)
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
    except SpecError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
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
