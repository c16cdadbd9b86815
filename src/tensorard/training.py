"""Training loop: warmup-weighted loss, hybrid half-steps, pruning, reporting."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bayes, checkpoint, datasets, factorized, network
from .factorized import RANK_VAR_FLOOR, SIGMA_FLOOR
from .network import Embedding, Network, PlainLinear, TensorizedLinear

__all__ = [
    "TrainConfig",
    "TrainReport",
    "TrainingDiverged",
    "kl_weight",
    "train",
    "evaluate",
    "predict_uncertainty",
]

MODES = ("ard", "fixed_rank")


class TrainingDiverged(RuntimeError):
    """Raised when the loss stops being finite; carries the failure location."""

    def __init__(self, epoch, batch, layer):
        self.epoch, self.batch, self.layer = epoch, batch, layer
        super().__init__(
            f"non-finite loss at epoch {epoch}, batch {batch}, layer {layer}"
        )


@dataclass
class TrainConfig:
    """All knobs of the training loop.

    ``learning_rate`` multiplies the gradient of N*meanNLL + beta*KL, so a
    sensible value scales like 1/N.  ``rank_step`` is the per-batch mixing
    rate of the closed-form rank-variance updates; 0 freezes them (degenerate
    but allowed).  ``warmup_epochs`` defaults to half the epochs.
    """

    learning_rate: float = 1e-3
    rank_step: float = 0.05
    prune_threshold: float = 1e-5
    epochs: int = 10
    warmup_epochs: int | None = None
    batch_size: int = 64
    hyper_prior: object = field(default_factory=bayes.LogUniform)
    weak_prior_std: float = 1.0
    seed: int = 0
    mode: str = "ard"
    init_std_ratio: float = 0.05

    def __post_init__(self):
        if self.warmup_epochs is None:
            self.warmup_epochs = max(1, self.epochs // 2)
        if not 0.0 <= self.rank_step <= 1.0:
            raise ValueError("rank_step must lie in [0, 1]")
        if self.prune_threshold <= 0:
            raise ValueError("prune_threshold must be positive")
        if self.epochs < 1 or self.warmup_epochs < 1:
            raise ValueError("epochs and warmup_epochs must be at least 1")
        if self.warmup_epochs > self.epochs:
            raise ValueError("warmup_epochs cannot exceed epochs")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.weak_prior_std <= 0:
            raise ValueError("weak_prior_std must be positive")


@dataclass
class TrainReport:
    """Per-epoch metrics plus final parameter accounting."""

    epochs: list = field(default_factory=list)
    loss: list = field(default_factory=list)
    nll: list = field(default_factory=list)
    kl: list = field(default_factory=list)
    beta: list = field(default_factory=list)
    train_acc: list = field(default_factory=list)
    test_acc: list = field(default_factory=list)
    ranks: list = field(default_factory=list)
    rank_columns: list = field(default_factory=list)
    final_ranks: dict = field(default_factory=dict)
    params_before_prune: int = 0
    params_after_prune: int = 0
    dense_params: int = 0
    wall_time_s: float = 0.0

    def to_json_dict(self):
        return {
            "epochs": self.epochs,
            "loss": self.loss,
            "nll": self.nll,
            "kl": self.kl,
            "beta": self.beta,
            "train_acc": self.train_acc,
            "test_acc": self.test_acc,
            "rank_columns": self.rank_columns,
            "ranks": self.ranks,
            "final_ranks": self.final_ranks,
            "params_before_prune": self.params_before_prune,
            "params_after_prune": self.params_after_prune,
            "dense_params": self.dense_params,
            "wall_time_s": self.wall_time_s,
        }

    def csv_rows(self):
        """Stable column layout: epoch, loss, nll, kl, beta, accuracies, ranks."""
        header = ["epoch", "loss", "nll", "kl", "beta", "train_acc", "test_acc"]
        header += self.rank_columns
        rows = [header]
        for i, epoch in enumerate(self.epochs):
            row = [
                str(epoch),
                repr(self.loss[i]),
                repr(self.nll[i]),
                repr(self.kl[i]),
                repr(self.beta[i]),
                repr(self.train_acc[i]),
                repr(self.test_acc[i]) if self.test_acc[i] is not None else "nan",
            ]
            row += [str(r) for r in self.ranks[i]]
            rows.append(row)
        return rows

    def write_csv(self, path):
        lines = [",".join(r) for r in self.csv_rows()]
        Path(path).write_text("\n".join(lines) + "\n")


def kl_weight(epoch: int, warmup_epochs: int) -> float:
    """Linear KL ramp min(1, epoch/warmup_epochs); epochs count from 1."""
    if epoch < 1 or warmup_epochs < 1:
        raise ValueError("epoch and warmup_epochs must be at least 1")
    return min(1.0, epoch / warmup_epochs)


def _apply_update(param, like_grad, kl_grad, lr, n_data, beta):
    """SGD on N*NLL + beta*KL; the KL component is trust-region clipped.

    The KL gradients are stiff in 1/sigma and 1/lambda, so their step is
    capped entrywise at half the parameter's magnitude; fixed points are
    unchanged and the likelihood step stays plain SGD.
    """
    param -= lr * n_data * like_grad
    if beta != 0.0:
        step = lr * beta * kl_grad
        cap = 0.5 * np.abs(param)
        np.clip(step, -cap, cap, out=step)
        param -= step


def _step_network(net, like, klg, lr, n_data, beta):
    for layer, lg, kg in zip(net.layers, like, klg):
        if isinstance(layer, TensorizedLinear):
            gaussians = layer.weight.factors
        elif isinstance(layer, PlainLinear):
            gaussians = [layer.weight]
        else:
            gaussians = layer.table.factors
        for f, lm, ls, km, ks in zip(
            gaussians, lg.factor_mean, lg.factor_std, kg.factor_mean, kg.factor_std
        ):
            _apply_update(f.mean, lm, km, lr, n_data, beta)
            _apply_update(f.std, ls, ks, lr, n_data, beta)
            np.maximum(f.std, SIGMA_FLOOR, out=f.std)
        if lg.bias_mean is not None:
            bias = layer.bias
            _apply_update(bias.mean, lg.bias_mean, kg.bias_mean, lr, n_data, beta)
            _apply_update(bias.std, lg.bias_std, kg.bias_std, lr, n_data, beta)
            np.maximum(bias.std, SIGMA_FLOOR, out=bias.std)


def _find_bad_layer(net, logits):
    for i, layer in enumerate(net.layers):
        if isinstance(layer, TensorizedLinear):
            arrays = [f.mean for f in layer.weight.factors]
        elif isinstance(layer, PlainLinear):
            arrays = [layer.weight.mean]
        else:
            arrays = [f.mean for f in layer.table.factors]
        if any(not np.isfinite(a).all() for a in arrays):
            return i
    if logits is not None and not np.isfinite(logits).all():
        return len(net.layers) - 1
    return "unknown"


def _rank_snapshot(net, threshold):
    """Per-vector surviving-rank counts, flattened across layers."""
    counts, columns = [], []
    for idx, layer in net.factorized_layers():
        for v, vec in enumerate(layer.rank_variances):
            counts.append(int(np.count_nonzero(vec >= threshold)))
            columns.append(f"rank_l{idx}_v{v}")
    return counts, columns


def train(net: Network, data, config: TrainConfig, test_data=None, out_dir=None):
    """Run the full loop and prune; returns (net, TrainReport).

    Per batch: one joint factor sample, a gradient step on
    N*meanNLL + beta*kl_total, then (in "ard" mode) the incremental
    closed-form rank-variance update.  Pruning happens once, at the end.
    Deterministic for a fixed config seed.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    n_data = len(data)
    prior = config.hyper_prior
    report = TrainReport()
    _, report.rank_columns = _rank_snapshot(net, config.prune_threshold)
    report.params_before_prune = net.param_count()
    report.dense_params = net.dense_param_count()
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    for epoch in range(1, config.epochs + 1):
        beta = 0.0 if config.mode == "fixed_rank" else kl_weight(epoch, config.warmup_epochs)
        losses, nlls, kls = [], [], []
        for b, idx in enumerate(datasets.batches(data, config.batch_size, [config.seed, epoch])):
            x, y = data.inputs[idx], data.labels[idx]
            state = net.sample(rng)
            logits, cache = net.forward(x, sample=state, want_cache=True)
            batch_nll = network.nll_multinomial(logits, y)
            batch_kl = net.kl_total(prior, config.weak_prior_std)
            loss = n_data * batch_nll + beta * batch_kl
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch, b, _find_bad_layer(net, logits))
            like = net.backward(cache, y)
            klg = net.kl_gradients(config.weak_prior_std)
            _step_network(net, like, klg, config.learning_rate, n_data, beta)
            if config.mode == "ard" and config.rank_step > 0.0:
                for _, fl in net.factorized_layers():
                    bayes.update_rank_variances(fl, prior, config.rank_step)
            losses.append(loss)
            nlls.append(batch_nll)
            kls.append(batch_kl)
        epoch_kl = float(np.mean(kls))
        if not np.isfinite(epoch_kl):
            raise TrainingDiverged(epoch, "epoch-end", _find_bad_layer(net, None))
        report.epochs.append(epoch)
        report.loss.append(float(np.mean(losses)))
        report.nll.append(float(np.mean(nlls)))
        report.kl.append(epoch_kl)
        report.beta.append(beta)
        report.train_acc.append(evaluate(net, data))
        report.test_acc.append(evaluate(net, test_data) if test_data is not None else None)
        counts, _ = _rank_snapshot(net, config.prune_threshold)
        report.ranks.append(counts)
        if out_path is not None:
            checkpoint.save_network(net, out_path / "checkpoint_last.npz")

    for i, fl in net.factorized_layers():
        pruned = factorized.prune(fl, config.prune_threshold)
        layer = net.layers[i]
        if isinstance(layer, TensorizedLinear):
            layer.weight = pruned
        else:
            layer.table = pruned
    report.params_after_prune = net.param_count()
    report.final_ranks = {
        f"layer{i}": factorized.inferred_ranks(fl, config.prune_threshold)
        for i, fl in net.factorized_layers()
    }
    report.wall_time_s = time.perf_counter() - started
    if out_path is not None:
        checkpoint.save_network(net, out_path / "checkpoint_final.npz")
    return net, report


def evaluate(net: Network, data, chunk: int = 4096) -> float:
    """Posterior-mean accuracy; argmax ties resolve to the lowest class index."""
    if data is None or len(data) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    hits = 0
    for start in range(0, len(data), chunk):
        x = data.inputs[start : start + chunk]
        y = data.labels[start : start + chunk]
        logits = net.forward(x)
        hits += int((np.argmax(logits, axis=1) == y).sum())
    return hits / len(data)


def predict_uncertainty(net: Network, inputs, num_samples: int, seed: int = 0):
    """Per-class mean and stddev of softmax outputs over sampled weights."""
    if num_samples < 2:
        raise ValueError("need at least 2 samples")
    inputs = np.asarray(inputs)
    # A batch of token ids is 1-d, a batch of feature rows 2-d; one lower
    # is a single input.
    batch_ndim = 1 if isinstance(net.layers[0], Embedding) else 2
    single = inputs.ndim == batch_ndim - 1
    if single:
        inputs = inputs[None]
    rng = np.random.default_rng(seed)
    probs = np.empty((num_samples, inputs.shape[0], net.classes))
    for s in range(num_samples):
        state = net.sample(rng)
        probs[s] = network.softmax(net.forward(inputs, sample=state))
    mean = probs.mean(axis=0)
    # Deviations are taken from the first draw so a degenerate posterior
    # (all stddevs zero) reports exactly zero spread.
    dev = probs - probs[0]
    dev_mean = dev.mean(axis=0)
    var = (dev * dev).sum(axis=0) - num_samples * dev_mean * dev_mean
    std = np.sqrt(np.maximum(var / (num_samples - 1), 0.0))
    if single:
        return mean[0], std[0]
    return mean, std
