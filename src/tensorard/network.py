"""Tensorized feed-forward classifiers with a multinomial likelihood.

Layers materialize their weight matrix from sampled (or mean) factors on
every pass; the backward pass maps the dense weight gradient back onto the
factor entries exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bayes, factorized
from .factorized import FactorizedLayer, GaussianFactor

__all__ = [
    "TensorizedLinear",
    "PlainLinear",
    "Embedding",
    "Network",
    "LayerSample",
    "LayerGrads",
    "softmax",
    "nll_multinomial",
    "embedding_lookup",
    "build_network",
]

ACTIVATIONS = ("relu", "identity")


@dataclass
class TensorizedLinear:
    """Fully connected layer whose weight matrix lives in a factorized format."""

    weight: FactorizedLayer
    bias: GaussianFactor
    in_features: int
    out_features: int
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        total = math.prod(self.weight.tensor_dims)
        if total != self.in_features * self.out_features:
            raise ValueError(
                f"factorized buffer holds {total} entries, layer needs "
                f"{self.in_features}x{self.out_features}"
            )
        if self.bias.mean.ndim != 1 or self.bias.mean.size != self.out_features:
            raise ValueError("bias length must equal out_features")


@dataclass
class PlainLinear:
    """Untensorized dense layer (used as the output head of embedding models)."""

    weight: GaussianFactor
    bias: GaussianFactor
    activation: str = "identity"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.weight.mean.ndim != 2:
            raise ValueError("plain weight must be a matrix")
        if self.bias.mean.size != self.weight.mean.shape[1]:
            raise ValueError("bias length must equal out_features")

    @property
    def in_features(self):
        return self.weight.mean.shape[0]

    @property
    def out_features(self):
        return self.weight.mean.shape[1]


@dataclass
class Embedding:
    """Token lookup table stored in a factorized format; no bias, no activation."""

    table: FactorizedLayer
    num_tokens: int
    embed_dim: int

    def __post_init__(self):
        if math.prod(self.table.row_dims) != self.num_tokens:
            raise ValueError("row dims must factor the token count exactly")
        if math.prod(self.table.col_dims) != self.embed_dim:
            raise ValueError("col dims must factor the embedding size exactly")

    @property
    def out_features(self):
        return self.embed_dim


@dataclass
class LayerSample:
    """One joint draw for a layer: factor points, their z record, bias draw."""

    points: list | None = None
    noises: list | None = None
    bias_point: np.ndarray | None = None
    bias_noise: np.ndarray | None = None


@dataclass
class LayerGrads:
    """Gradients w.r.t. one layer's variational parameters."""

    factor_mean: list | None = None
    factor_std: list | None = None
    bias_mean: np.ndarray | None = None
    bias_std: np.ndarray | None = None


class Network:
    """Ordered layers ending in a ``classes``-way classifier head."""

    def __init__(self, layers, classes: int):
        if not layers:
            raise ValueError("network needs at least one layer")
        self.layers = list(layers)
        self.classes = int(classes)
        out = self.layers[-1].out_features
        if out != self.classes:
            raise ValueError(f"final layer emits {out} features, expected {classes}")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if isinstance(nxt, Embedding):
                raise ValueError("embedding layers must come first")
            if prev.out_features != nxt.in_features:
                raise ValueError(
                    f"layer dimensions do not chain: {prev.out_features} -> "
                    f"{nxt.in_features}"
                )

    # -- sampling ------------------------------------------------------------

    def sample(self, rng: np.random.Generator):
        """One joint reparameterized draw of every weight and bias."""
        state = []
        for layer in self.layers:
            if isinstance(layer, TensorizedLinear):
                points, noises = bayes.sample_factors(layer.weight, rng)
                bz = rng.standard_normal(layer.bias.shape)
                state.append(
                    LayerSample(points, noises, layer.bias.mean + bz * layer.bias.std, bz)
                )
            elif isinstance(layer, PlainLinear):
                wz = rng.standard_normal(layer.weight.shape)
                bz = rng.standard_normal(layer.bias.shape)
                state.append(
                    LayerSample(
                        [layer.weight.mean + wz * layer.weight.std],
                        [wz],
                        layer.bias.mean + bz * layer.bias.std,
                        bz,
                    )
                )
            else:
                points, noises = bayes.sample_factors(layer.table, rng)
                state.append(LayerSample(points, noises))
        return state

    def _mean_state(self):
        state = []
        for layer in self.layers:
            if isinstance(layer, TensorizedLinear):
                state.append(LayerSample([f.mean for f in layer.weight.factors], None,
                                         layer.bias.mean, None))
            elif isinstance(layer, PlainLinear):
                state.append(LayerSample([layer.weight.mean], None, layer.bias.mean, None))
            else:
                state.append(LayerSample([f.mean for f in layer.table.factors], None))
        return state

    # -- forward / backward ----------------------------------------------------

    def forward(self, inputs, sample=None, want_cache: bool = False):
        """Logits for a batch; posterior-mean weights when ``sample`` is None."""
        state = sample if sample is not None else self._mean_state()
        cache = []
        x = inputs
        for layer, draw in zip(self.layers, state):
            entry = {"inputs": x, "draw": draw}
            if isinstance(layer, Embedding):
                idx = _check_indices(x, layer.num_tokens)
                entry["indices"] = idx
                x = embedding_lookup(layer.table, draw.points, idx)
            else:
                if isinstance(layer, TensorizedLinear):
                    w = factorized.reconstruct(layer.weight.kind, draw.points)
                    w = w.reshape(layer.in_features, layer.out_features)
                else:
                    w = draw.points[0]
                x = np.asarray(x, dtype=np.float64)
                if x.ndim != 2 or x.shape[1] != w.shape[0]:
                    raise ValueError(
                        f"input of shape {x.shape} does not match layer input "
                        f"size {w.shape[0]}"
                    )
                pre = x @ w + draw.bias_point
                entry["matrix"] = w
                entry["pre"] = pre
                x = np.maximum(pre, 0.0) if layer.activation == "relu" else pre
            cache.append(entry)
        logits = x
        if want_cache:
            return logits, cache
        return logits

    def backward(self, cache, labels):
        """Gradients of the batch-mean NLL w.r.t. every variational parameter.

        Requires a cache from a forward pass in sampled mode; the recorded z
        turns each likelihood mean-gradient into the matching std-gradient.
        """
        labels = _check_labels(labels, self.classes)
        last = cache[-1]
        out = last["pre"] if "pre" in last else None
        if out is None:
            raise ValueError("cannot backpropagate through an embedding-only network")
        final_layer = self.layers[-1]
        final_out = (
            np.maximum(out, 0.0) if final_layer.activation == "relu" else out
        )
        batch = final_out.shape[0]
        probs = softmax(final_out)
        g = probs.copy()
        g[np.arange(batch), labels] -= 1.0
        g /= batch

        grads = [None] * len(self.layers)
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            entry = cache[i]
            draw = entry["draw"]
            if draw.noises is None:
                raise ValueError("backward needs a sampled forward pass (missing z record)")
            if isinstance(layer, Embedding):
                idx = entry["indices"]
                if layer.table.kind == "ttm":
                    fgrads = _ttm_embedding_backprop(
                        draw.points, idx, g, layer.table.row_dims
                    )
                else:
                    table_grad = np.zeros((layer.num_tokens, layer.embed_dim))
                    np.add.at(table_grad, idx, g)
                    tensor_grad = table_grad.reshape(layer.table.tensor_dims)
                    fgrads = factorized.backprop_reconstruction(
                        layer.table.kind, draw.points, tensor_grad
                    )
                grads[i] = LayerGrads(
                    factor_mean=fgrads,
                    factor_std=[z * fg for z, fg in zip(draw.noises, fgrads)],
                )
                continue
            if layer.activation == "relu":
                g = g * (entry["pre"] > 0)
            x = np.asarray(entry["inputs"], dtype=np.float64)
            w = entry["matrix"]
            d_w = x.T @ g
            d_b = g.sum(axis=0)
            if i > 0:  # nothing reads the input gradient of the first layer
                g = g @ w.T
            if isinstance(layer, TensorizedLinear):
                tensor_grad = d_w.reshape(layer.weight.tensor_dims)
                fgrads = factorized.backprop_reconstruction(
                    layer.weight.kind, draw.points, tensor_grad
                )
            else:
                fgrads = [d_w]
            grads[i] = LayerGrads(
                factor_mean=fgrads,
                factor_std=[z * fg for z, fg in zip(draw.noises, fgrads)],
                bias_mean=d_b,
                bias_std=draw.bias_noise * d_b,
            )
        return grads

    # -- KL over the whole model -------------------------------------------------

    def kl_total(self, hyper_prior, weak_prior_std: float = 1.0) -> float:
        """KL to the prior over all factors, cores, plain weights and biases."""
        weak_var = weak_prior_std * weak_prior_std
        total = 0.0
        for layer in self.layers:
            if isinstance(layer, TensorizedLinear):
                total += bayes.layer_kl(layer.weight, hyper_prior, weak_var)
                total += float(
                    bayes.kl_gaussian(layer.bias.mean, layer.bias.std, weak_var).sum()
                )
            elif isinstance(layer, PlainLinear):
                for g in (layer.weight, layer.bias):
                    total += float(bayes.kl_gaussian(g.mean, g.std, weak_var).sum())
            else:
                total += bayes.layer_kl(layer.table, hyper_prior, weak_var)
        return total

    def kl_gradients(self, weak_prior_std: float = 1.0):
        """KL-part gradients in the same structure as :meth:`backward` returns."""
        weak_var = weak_prior_std * weak_prior_std
        grads = []
        for layer in self.layers:
            if isinstance(layer, TensorizedLinear):
                fg = bayes.kl_gradients(layer.weight, weak_var)
                grads.append(
                    LayerGrads(
                        factor_mean=[m for m, _ in fg],
                        factor_std=[s for _, s in fg],
                        bias_mean=layer.bias.mean / weak_var,
                        bias_std=-1.0 / layer.bias.std + layer.bias.std / weak_var,
                    )
                )
            elif isinstance(layer, PlainLinear):
                grads.append(
                    LayerGrads(
                        factor_mean=[layer.weight.mean / weak_var],
                        factor_std=[
                            -1.0 / layer.weight.std + layer.weight.std / weak_var
                        ],
                        bias_mean=layer.bias.mean / weak_var,
                        bias_std=-1.0 / layer.bias.std + layer.bias.std / weak_var,
                    )
                )
            else:
                fg = bayes.kl_gradients(layer.table, weak_var)
                grads.append(
                    LayerGrads(
                        factor_mean=[m for m, _ in fg],
                        factor_std=[s for _, s in fg],
                    )
                )
        return grads

    # -- bookkeeping ---------------------------------------------------------------

    def param_count(self) -> int:
        """Factor, plain-weight and bias entries at the current ranks."""
        total = 0
        for layer in self.layers:
            if isinstance(layer, TensorizedLinear):
                total += factorized.param_count(layer.weight) + layer.bias.mean.size
            elif isinstance(layer, PlainLinear):
                total += layer.weight.mean.size + layer.bias.mean.size
            else:
                total += factorized.param_count(layer.table)
        return total

    def dense_param_count(self) -> int:
        """Entries of the equivalent untensorized model (weights plus biases)."""
        total = 0
        for layer in self.layers:
            if isinstance(layer, Embedding):
                total += layer.num_tokens * layer.embed_dim
            else:
                total += layer.in_features * layer.out_features + layer.out_features
        return total

    def factorized_layers(self):
        """(index, FactorizedLayer) pairs for every rank-controlled weight."""
        out = []
        for i, layer in enumerate(self.layers):
            if isinstance(layer, TensorizedLinear):
                out.append((i, layer.weight))
            elif isinstance(layer, Embedding):
                out.append((i, layer.table))
        return out


def softmax(logits):
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def nll_multinomial(logits, labels) -> float:
    """Mean negative log-likelihood of integer labels under softmax logits.

    Uses the max-shifted log-sum-exp, so arbitrarily large logits stay finite.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ValueError("logits must be a [batch, classes] matrix")
    labels = _check_labels(labels, logits.shape[1])
    if labels.shape[0] != logits.shape[0]:
        raise ValueError("batch size mismatch between logits and labels")
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(logits.shape[0]), labels]
    return float(np.mean(lse - picked))


def embedding_lookup(table: FactorizedLayer, point_factors, indices) -> np.ndarray:
    """Rows of the reconstructed table for the given token indices.

    For TTM tables the rows are built by contracting the cores against each
    token's mixed-radix digits, never materializing the full table; other
    formats materialize and select.
    """
    indices = np.asarray(indices)
    num_tokens = math.prod(table.row_dims)
    idx = _check_indices(indices, num_tokens)
    embed_dim = math.prod(table.col_dims)
    if table.kind != "ttm":
        full = factorized.reconstruct(table.kind, point_factors)
        return full.reshape(num_tokens, embed_dim)[idx]
    unique, inverse = np.unique(idx, return_inverse=True)
    digits = _digit_matrix(unique, table.row_dims)
    rows = _ttm_rows(point_factors, digits).reshape(unique.size, embed_dim)
    return rows[inverse]


def _ttm_rows(cores, digits):
    """Rows of a TTM table for the tokens whose digits are given: (U, E, 1).

    Algorithm: a left-to-right sweep of batched GEMMs.  Each core's
    row-digit slices are gathered once into a (U, r_{n-1}, J_n*r_n) stack,
    and one ``np.matmul`` per core extends the running (U, P, r_{n-1})
    contraction to (U, P*J_n, r_n), where U counts the tokens and P the
    column entries built so far.
    """
    slices = (_row_slice(core, digits[:, n]) for n, core in enumerate(cores))
    return _left_environments(slices, len(digits))[-1]


def _row_slice(core, digits):
    """A core's slices at one row digit per token: (U, r_{n-1}, J_n, r_n)."""
    r_in, rows, cols, r_out = core.shape
    flat = np.moveaxis(core, 1, 0).reshape(rows, r_in * cols * r_out)
    return np.take(flat, digits, axis=0).reshape(len(digits), r_in, cols, r_out)


def _left_environments(slices, tokens):
    """Per-token contraction of the leading cores: entry n is (U, J_0..J_n, r_{n+1}).

    The column modes are flattened into one axis in row-major order, so the
    last entry, once its trailing rank 1 is dropped, holds the rows.
    """
    lefts = []
    for s in slices:
        _, r_in, cols, r_out = s.shape
        step = s.reshape(tokens, r_in, cols * r_out)
        if lefts:
            step = np.matmul(lefts[-1], step)
        lefts.append(step.reshape(tokens, step.shape[1] * cols, r_out))
    return lefts


def _digit_matrix(indices, dims):
    """Mixed-radix digits of each index over ``dims``, most significant first."""
    digits = np.empty((len(indices), len(dims)), dtype=np.int64)
    rem = np.asarray(indices, dtype=np.int64).copy()
    for i in range(len(dims) - 1, -1, -1):
        digits[:, i] = rem % dims[i]
        rem //= dims[i]
    return digits


def _ttm_embedding_backprop(cores, idx, row_grads, row_dims):
    """Exact table gradients from per-row gradients, touching only seen tokens.

    Equivalent to scattering ``row_grads`` into the dense table gradient and
    backpropagating through the full reconstruction, but the chain runs per
    unique token over the column modes only.

    Algorithm: repeated ids are summed once (``np.add.at``, linear in the
    batch).  Left and right environments of each core come from batched
    GEMMs over the U unique tokens, and each core's per-token gradient from
    two more: the left environment against the row gradient, then the
    result against the right environment.  A one-hot (I_n x U) GEMM adds
    the per-token gradients into the core's I_n row slices, at a cost of
    I_n*U*r_{n-1}*J_n*r_n, small because TTM row modes are small.
    """
    unique, inverse = np.unique(np.asarray(idx), return_inverse=True)
    tokens = unique.size
    summed = np.zeros((tokens, row_grads.shape[1]))
    np.add.at(summed, inverse, row_grads)
    digits = _digit_matrix(unique, row_dims)
    slices = [_row_slice(core, digits[:, n]) for n, core in enumerate(cores)]
    d = len(cores)
    lefts = _left_environments(slices[:-1], tokens)
    rights = [None] * d  # rights[n]: (U, r_n, J_n..J_{d-1}), for n >= 1
    for n in range(d - 1, 0, -1):
        _, r_in, cols, r_out = slices[n].shape
        step = slices[n].reshape(tokens, r_in * cols, r_out)
        if n < d - 1:
            step = np.matmul(step, rights[n + 1])
        rights[n] = step.reshape(tokens, r_in, cols * step.shape[2])

    embed = summed.shape[1]
    grads = []
    for n, core in enumerate(cores):
        r_in, rows, cols, r_out = core.shape
        if n == 0:
            mid = summed.reshape(tokens, cols, embed // cols)  # r_0 = 1
        else:
            left = lefts[n - 1]  # (U, J_0..J_{n-1}, r_n)
            g = summed.reshape(tokens, left.shape[1], embed // left.shape[1])
            mid = np.matmul(left.transpose(0, 2, 1), g)
            mid = mid.reshape(tokens, r_in * cols, g.shape[2] // cols)
        if n == d - 1:
            per_token = mid  # (U, r_{d-1} J_{d-1}, 1)
        else:
            per_token = np.matmul(mid, rights[n + 1].transpose(0, 2, 1))
        one_hot = (digits[:, n] == np.arange(rows)[:, None]).astype(np.float64)
        buf = one_hot @ per_token.reshape(tokens, r_in * cols * r_out)
        grads.append(
            np.ascontiguousarray(buf.reshape(rows, r_in, cols, r_out).transpose(1, 0, 2, 3))
        )
    return grads


def _check_indices(indices, num_tokens):
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ValueError("embedding inputs must be integer token indices")
    if idx.ndim != 1:
        raise ValueError("embedding inputs must be a 1-d index array")
    if idx.size and (idx.min() < 0 or idx.max() >= num_tokens):
        raise ValueError(f"token index out of range [0, {num_tokens})")
    return idx


def _check_labels(labels, classes):
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("labels must be integers")
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ValueError(f"label out of range [0, {classes})")
    return labels


# -- construction ------------------------------------------------------------


def build_network(layer_configs, classes: int, rng: np.random.Generator,
                  std_ratio: float = 0.05) -> Network:
    """Build an initialized network from a list of layer config mappings."""
    layers = []
    for cfg in layer_configs:
        kind = cfg["type"]
        if kind == "tensorized_linear":
            row_dims, col_dims = list(cfg["row_dims"]), list(cfg["col_dims"])
            in_features = int(cfg.get("in_features", math.prod(row_dims)))
            out_features = int(cfg.get("out_features", math.prod(col_dims)))
            ranks = cfg.get("max_ranks", cfg.get("max_rank"))
            weight = factorized.init_layer(
                cfg["format"], row_dims, col_dims, ranks, rng,
                fan_in=in_features, std_ratio=std_ratio,
            )
            bias = GaussianFactor(
                np.zeros(out_features), np.full(out_features, 0.01)
            )
            layers.append(
                TensorizedLinear(
                    weight, bias, in_features, out_features,
                    activation=cfg.get("activation", "relu"),
                )
            )
        elif kind == "embedding":
            row_dims, col_dims = list(cfg["row_dims"]), list(cfg["col_dims"])
            ranks = cfg.get("max_ranks", cfg.get("max_rank"))
            table = factorized.init_layer(
                cfg["format"], row_dims, col_dims, ranks, rng,
                target_var=1.0 / math.prod(col_dims), std_ratio=std_ratio,
            )
            layers.append(
                Embedding(table, math.prod(row_dims), math.prod(col_dims))
            )
        elif kind == "plain_linear":
            n_in, n_out = int(cfg["in_features"]), int(cfg["out_features"])
            scale = math.sqrt(2.0 / n_in)
            weight = GaussianFactor(
                rng.normal(0.0, scale, size=(n_in, n_out)),
                np.full((n_in, n_out), std_ratio * scale),
            )
            bias = GaussianFactor(np.zeros(n_out), np.full(n_out, 0.01))
            layers.append(
                PlainLinear(weight, bias, activation=cfg.get("activation", "identity"))
            )
        else:
            raise ValueError(f"unknown layer type {kind!r}")
    return Network(layers, classes)
