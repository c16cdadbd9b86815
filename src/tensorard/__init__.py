"""End-to-end training of tensorized neural networks with automatic rank
determination.

Weight matrices are folded into tensors and stored in CP, Tucker,
tensor-train or tensor-train-matrix format with a Gaussian variational
posterior per factor entry.  Per-rank prior variances are updated in closed
form during training and pruned afterwards, so the tensor ranks are learned
rather than hand-picked.

The public names below load their submodule on first use, so importing
``tensorard.cli`` loads no numpy and the command line can still set the
BLAS thread count.
"""

import importlib

# The public names, keyed by the submodule that defines them.
_EXPORTS = {
    "bayes": (
        "HalfCauchy",
        "LogUniform",
        "kl_gaussian",
        "optimal_rank_var_half_cauchy",
        "optimal_rank_var_log_uniform",
        "sample_factors",
    ),
    "checkpoint": ("load_network", "save_network"),
    "datasets": ("LabeledDataset", "batches", "gen_synthetic", "load_mnist_idx"),
    "dense": ("fold_matrix", "khatri_rao", "mode_n_product"),
    "factorized": (
        "FactorizedLayer",
        "GaussianFactor",
        "RankCollapsedError",
        "backprop_reconstruction",
        "inferred_ranks",
        "init_layer",
        "param_count",
        "prune",
        "reconstruct",
    ),
    "network": (
        "Embedding",
        "Network",
        "PlainLinear",
        "TensorizedLinear",
        "build_network",
        "embedding_lookup",
        "nll_multinomial",
        "softmax",
    ),
    "training": (
        "TrainConfig",
        "TrainingDiverged",
        "TrainReport",
        "evaluate",
        "kl_weight",
        "predict_uncertainty",
        "train",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Looked up on every access and never stored here, so code that swaps a
    # submodule's function for a wrapper and back leaves no stale copy.
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
