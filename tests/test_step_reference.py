"""One training step against the per-layer-type step it replaced.

The reference below is the earlier step, kept verbatim: ``LayerSample`` and
``LayerGrads`` records, and ``Network.sample``, ``forward``, ``backward``,
``kl_gradients`` and ``training._step_network`` with one branch per layer
type (written here as functions of the network).  The current step is the
library's ``training._train_step``, which samples, takes the KL gradient,
steps and updates the rank variances in one pass over the network's flat
buffers of means and stds.  Both draw the same noise in the same order, so
after k steps both generators must be in the same state.

Where the current step builds W as the reference does, it applies the same
arithmetic to each entry, and every mean, std and rank variance must agree
bit for bit.  The CP and TT ``tensorized_linear`` first layers here (12 -> 6
at rank 3) instead multiply through their factors, W = L·M·Rᵀ, which sums in
another order; for those four cases the arrays must agree to 1e-12
relative.  The nets of two ``tensorized_linear`` layers build W in both, so
they are bitwise too, as are the nets of the benchmark's shapes: one
784 -> 10 layer of each format at max rank 10, at batches 128 and 256.  The reference's TTM embedding branch calls the current
``FORMATS["ttm"].lookup_rows`` and hands its memo to
``FORMATS["ttm"].backprop_rows``; their own references are in
``test_format_table.py`` and ``test_kernels.py``.
"""

import copy
from dataclasses import dataclass

import numpy as np
import pytest

from tensorard import bayes, factorized, training
from tensorard.datasets import LabeledDataset
from tensorard.factorized import FORMATS, SIGMA_FLOOR
from tensorard.network import (
    Embedding,
    PlainLinear,
    TensorizedLinear,
    _check_indices,
    _check_labels,
    build_network,
    embedding_lookup,
    softmax,
)
from tensorard.training import _apply_update

# Relative tolerance for the cases whose current step takes the split path.
SPLIT_REL_TOL = 1e-12

# -- reference step -----------------------------------------------------------


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
            if layer.table.kind == "ttm":
                x, entry["memo"] = FORMATS["ttm"].lookup_rows(layer.table, draw.points, idx)
            else:
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
                fgrads = FORMATS["ttm"].backprop_rows(layer.table, draw.points, entry["memo"], g)
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


def reference_step(net, x, y, rng, lr, n_data, beta, weak_prior_std, prior, rank_step):
    state = sample(net, rng)
    _, cache = forward(net, x, sample=state, want_cache=True)
    like = backward(net, cache, y)
    klg = kl_gradients(net, weak_prior_std)
    _step_network(net, like, klg, lr, n_data, beta)
    for _, fl in net.factorized_layers():
        bayes.update_rank_variances(fl, prior, rank_step)


def current_step(net, x, y, rng, lr, n_data, beta, weak_prior_std, prior, rank_step):
    # The library step takes N from the dataset, so the batch is all of it.
    data = LabeledDataset(x, y, net.classes)
    assert len(data) == n_data
    config = training.TrainConfig(learning_rate=lr, rank_step=rank_step,
                                  weak_prior_std=weak_prior_std, hyper_prior=prior)
    training._train_step(net, data, np.arange(n_data), rng, config, beta, 1, 0)


# -- cases ----------------------------------------------------------------------


def _problem(kind, first):
    """A ``first`` layer of format ``kind`` (12 inputs or tokens, 6 outputs)
    followed by a PlainLinear head, with a batch of 16 inputs and labels.

    ``first`` "two_tensorized_linear" is two tensorized_linear layers of
    format ``kind`` instead, 12 -> 6 -> 3 at max ranks 4 and 2, so the prior
    slots of the second layer's factors follow the first layer's rank
    variances.  Neither layer multiplies through its factors there.
    """
    rng = np.random.default_rng(1)
    if first == "two_tensorized_linear":
        layers = [
            {"type": "tensorized_linear", "format": kind, "row_dims": [3, 4],
             "col_dims": [2, 3], "max_rank": 4, "activation": "relu"},
            {"type": "tensorized_linear", "format": kind, "row_dims": [2, 3],
             "col_dims": [3, 1] if kind == "ttm" else [3], "max_rank": 2,
             "activation": "identity"},
        ]
        x = rng.standard_normal((16, 12))
        net = build_network(layers, 3, np.random.default_rng(2))
        return net, x, rng.integers(0, 3, size=16)
    col_dims = [6] if first == "tensorized_linear" and kind != "ttm" else [2, 3]
    layer = {"type": first, "format": kind, "row_dims": [3, 4], "col_dims": col_dims,
             "max_rank": 3}
    if first == "tensorized_linear":
        layer["activation"] = "relu"
        x = rng.standard_normal((16, 12))
    else:
        x = rng.integers(0, 12, size=16)
    head = {"type": "plain_linear", "in_features": 6, "out_features": 3}
    net = build_network([layer, head], 3, np.random.default_rng(2))
    return net, x, rng.integers(0, 3, size=16)


# Row and column dims of the benchmark's narrow 784 -> 10 layers (the
# criterion-1 synthetic configs); the TTM layer's dims fold 112 x 70.
BENCH_DIMS = {"cp": ([28, 28], [10]), "tucker": ([28, 28], [10]),
              "tt": ([28, 28], [10]), "ttm": ([4, 7, 4], [7, 2, 5])}


def _bench_problem(kind, batch):
    """One 784 -> 10 ``tensorized_linear`` layer of format ``kind`` at max
    rank 10, as the benchmark's narrow nets, with ``batch`` inputs and labels."""
    rng = np.random.default_rng(1)
    row_dims, col_dims = BENCH_DIMS[kind]
    layer = {"type": "tensorized_linear", "format": kind, "row_dims": row_dims,
             "col_dims": col_dims, "max_rank": 10, "activation": "identity",
             "in_features": 784, "out_features": 10}
    net = build_network([layer], 10, np.random.default_rng(2))
    return net, rng.standard_normal((batch, 784)), rng.integers(0, 10, size=batch)


def _arrays(net):
    out = []
    for layer in net.layers:
        for g in layer.gaussians():
            out += [g.mean, g.std]
    for _, fl in net.factorized_layers():
        out += fl.rank_variances
    return out


@pytest.mark.parametrize("first", ["tensorized_linear", "embedding", "two_tensorized_linear"])
@pytest.mark.parametrize("kind", ["cp", "tucker", "tt", "ttm"])
@pytest.mark.parametrize(
    "prior", [bayes.LogUniform(), bayes.HalfCauchy(0.3)], ids=["log_uniform", "half_cauchy"]
)
def test_steps_match_the_per_type_step_bitwise(kind, first, prior):
    ref, x, y = _problem(kind, first)
    head = TensorizedLinear if first == "two_tensorized_linear" else PlainLinear
    assert isinstance(ref.layers[-1], head)
    _assert_steps_match(ref, x, y, prior, 0.05,
                        split=first == "tensorized_linear" and kind in ("cp", "tt"))


@pytest.mark.parametrize("batch", [128, 256])
@pytest.mark.parametrize("kind", ["cp", "tucker", "tt", "ttm"])
@pytest.mark.parametrize(
    "prior", [bayes.LogUniform(), bayes.HalfCauchy(0.3)], ids=["log_uniform", "half_cauchy"]
)
def test_steps_at_the_benchmark_shapes_match_bitwise(kind, batch, prior):
    ref, x, y = _bench_problem(kind, batch)
    _assert_steps_match(ref, x, y, prior, 0.5 / batch, split=False)


def _assert_steps_match(ref, x, y, prior, lr, split):
    """Six steps of the reference and of the library from one net; the
    arrays agree bit for bit, or to ``SPLIT_REL_TOL`` where ``split``."""
    cur = copy.deepcopy(ref)
    rng_ref, rng_cur = np.random.default_rng(4), np.random.default_rng(4)
    for step in range(6):
        beta = min(1.0, step / 3)  # the first step runs with the KL switched off
        hyper = (lr, len(y), beta, 0.8, prior, 0.2)
        reference_step(ref, x, y, rng_ref, *hyper)
        current_step(cur, x, y, rng_cur, *hyper)
    assert split == any(layer.takes_split(layer.weight.point_means())
                        for layer in cur.layers if isinstance(layer, TensorizedLinear))
    got, want = _arrays(cur), _arrays(ref)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.isfinite(a).all()
        if split:
            scale = max(float(np.max(np.abs(b))), 1e-300)
            assert float(np.max(np.abs(a - b))) <= SPLIT_REL_TOL * scale
        else:
            assert a.tobytes() == b.tobytes()
    # Both generators were advanced by the same draws.
    assert rng_ref.bit_generator.state == rng_cur.bit_generator.state
