"""Tensorized feed-forward classifiers with a multinomial likelihood.

Every layer lists its variational Gaussians (factors, cores, plain weights,
biases).  A network keeps all their means and stds in two flat buffers, each
Gaussian's arrays being views of its segment, so sampling, the KL, its
gradient, the step and the rank update run one pass per network, not one per
Gaussian.  A tensorized linear layer whose row and column dims fold
its input and output sizes multiplies a batch through its factors,
W = L·M·Rᵀ, whenever its format splits there and that takes fewer
multiply-adds than the dense product; otherwise a pass builds the weight
matrix from the sampled (or mean) factors and the backward pass maps the
dense weight gradient back onto the factor entries.  Either way the
gradients are exact.  An embedding's format looks up its rows.  A network's
gradients are flat (d/dmean, d/dstd) pairs in the layout of its buffers.

Each layer class also owns its forward and backward pass, its dense
parameter count, its rank-controlled weight and its checkpoint state, and
``LAYER_TYPES`` maps the run-spec ``type`` strings to the classes, so no
caller tests a layer's type; ``factorized.FORMATS`` does the same for formats.
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
    "LAYER_TYPES",
    "softmax",
    "nll_multinomial",
    "embedding_lookup",
    "build_network",
]

ACTIVATIONS = ("relu", "identity")


class _Linear:
    """Matmul, bias and activation of the linear layers; a subclass multiplies
    a batch by its weight (``_product``) and maps the output gradient back onto
    its weight points and its input (``_product_grads``).  The bias is the last
    Gaussian."""

    input_ndim = 2

    def forward(self, x, points):
        """Layer output for a batch of rows, and the entry :meth:`backward` reads."""
        *weight, bias = points
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"input of shape {x.shape} does not match layer input "
                f"size {self.in_features}"
            )
        xw, memo = self._product(x, weight)
        pre = xw + bias
        out = np.maximum(pre, 0.0) if self.activation == "relu" else pre
        return out, (x, memo, pre)

    def backward(self, entry, g, points, need_input_grad):
        """Mean-gradients of every Gaussian, and the input gradient (or None)."""
        x, memo, pre = entry
        if self.activation == "relu":
            g = g * (pre > 0)
        d_weight, g_in = self._product_grads(x, memo, g, points[:-1], need_input_grad)
        return [*d_weight, g.sum(axis=0)], g_in

    @property
    def dense_params(self):
        """Entries of the equivalent dense weight plus the bias."""
        return self.in_features * self.out_features + self.out_features


def _dense_grads(x, w, g, need_input_grad):
    """The gradient xᵀg of the weight of ``x @ w``, and the input gradient g·wᵀ (or None).

    Unless g has more columns than rows, xᵀg is taken as (gᵀx)ᵀ, a
    transposed view.  Both give the same bits, and OpenBLAS runs the skinny
    product up to 1.9x faster with the few columns of g on the left (784x10
    at batch 128: 151 against 79 µs).  A wide gradient stays in C order: its
    GEMM gains less than the weight's backprop then loses reading a large
    transposed view (Tucker 784x512: 3.5 against 8.5 ms)."""
    d_w = x.T @ g if g.shape[1] > g.shape[0] else (g.T @ x).T
    return d_w, g @ w.T if need_input_grad else None


@dataclass
class TensorizedLinear(_Linear):
    """Fully connected layer whose weight matrix lives in a factorized format."""

    weight: FactorizedLayer
    bias: GaussianFactor
    in_features: int
    out_features: int
    activation: str = "relu"

    type_name = "tensorized_linear"

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

    def gaussians(self):
        """The layer's variational Gaussians: the weight factors, then the bias."""
        return [*self.weight.factors, self.bias]

    @property
    def factorized(self):
        """The rank-controlled weight, or None for a layer without one."""
        return self.weight

    def takes_split(self, weight_points):
        """Whether a pass with these weight points multiplies through the
        factors, W = L·M·Rᵀ (see :mod:`tensorard.factorized`), not through W.

        That needs row and column dims that fold the input and output sizes
        and a split with fewer multiply-adds per input row than the dense
        path's 3·I·J.  Both count the input gradient even where the caller
        will not read it: the backward pass must take the forward's path.
        """
        w = self.weight
        if (self.in_features != math.prod(w.row_dims)
                or self.out_features != math.prod(w.col_dims)):
            return False
        shapes = tuple(p.shape for p in weight_points)
        madds = w.format.split_madds(shapes, len(w.row_dims), w.order)
        return madds < 3 * self.in_features * self.out_features

    def _product(self, x, weight_points):
        w = self.weight
        if self.takes_split(weight_points):
            return w.format.split_forward(weight_points, len(w.row_dims), x)
        full = factorized.reconstruct(w.kind, weight_points)
        full = full.reshape(self.in_features, self.out_features)
        return x @ full, full

    def _product_grads(self, x, memo, g, weight_points, need_input_grad):
        w = self.weight
        if self.takes_split(weight_points):
            return w.format.split_backward(
                weight_points, len(w.row_dims), x, memo, g, need_input_grad
            )
        d_w, g_in = _dense_grads(x, memo, g, need_input_grad)
        tensor_grad = d_w.reshape(w.tensor_dims)
        return factorized.backprop_reconstruction(w.kind, weight_points, tensor_grad), g_in

    def state(self):
        """JSON-safe metadata and a dict of named arrays; see :meth:`from_state`."""
        wmeta, arrays = factorized.layer_state(self.weight)
        arrays.update(bias_mean=self.bias.mean, bias_std=self.bias.std)
        return {"in_features": self.in_features, "out_features": self.out_features,
                "activation": self.activation, "weight": wmeta}, arrays

    @classmethod
    def from_state(cls, meta, arrays):
        weight = factorized.layer_from_state(meta["weight"], arrays)
        bias = GaussianFactor(arrays["bias_mean"], arrays["bias_std"])
        return cls(weight, bias, int(meta["in_features"]), int(meta["out_features"]),
                   activation=meta["activation"])

    @classmethod
    def from_config(cls, cfg, rng, std_ratio):
        """A freshly initialized layer from one run-spec layer mapping."""
        row_dims, col_dims = list(cfg["row_dims"]), list(cfg["col_dims"])
        in_features = int(cfg.get("in_features", math.prod(row_dims)))
        out_features = int(cfg.get("out_features", math.prod(col_dims)))
        weight = factorized.init_layer(
            cfg["format"], row_dims, col_dims, _max_rank(cfg, row_dims, col_dims),
            rng, target_var=2.0 / in_features, std_ratio=std_ratio,
        )
        bias = GaussianFactor(np.zeros(out_features), np.full(out_features, 0.01))
        return cls(weight, bias, in_features, out_features,
                   activation=cfg.get("activation", "relu"))


@dataclass
class PlainLinear(_Linear):
    """Untensorized dense layer (used as the output head of embedding models)."""

    weight: GaussianFactor
    bias: GaussianFactor
    activation: str = "identity"

    type_name = "plain_linear"
    factorized = None

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.weight.mean.ndim != 2:
            raise ValueError("plain weight must be a matrix")
        if self.bias.mean.size != self.weight.mean.shape[1]:
            raise ValueError("bias length must equal out_features")

    def gaussians(self):
        return [self.weight, self.bias]

    @property
    def in_features(self):
        return self.weight.mean.shape[0]

    @property
    def out_features(self):
        return self.weight.mean.shape[1]

    def _product(self, x, weight_points):
        w = weight_points[0]
        return x @ w, w

    def _product_grads(self, x, w, g, weight_points, need_input_grad):
        d_w, g_in = _dense_grads(x, w, g, need_input_grad)
        return [d_w], g_in

    def state(self):
        return {"activation": self.activation}, {
            "weight_mean": self.weight.mean, "weight_std": self.weight.std,
            "bias_mean": self.bias.mean, "bias_std": self.bias.std}

    @classmethod
    def from_state(cls, meta, arrays):
        weight = GaussianFactor(arrays["weight_mean"], arrays["weight_std"])
        bias = GaussianFactor(arrays["bias_mean"], arrays["bias_std"])
        return cls(weight, bias, activation=meta["activation"])

    @classmethod
    def from_config(cls, cfg, rng, std_ratio):
        n_in, n_out = int(cfg["in_features"]), int(cfg["out_features"])
        scale = math.sqrt(2.0 / n_in)
        weight = GaussianFactor(
            rng.normal(0.0, scale, size=(n_in, n_out)),
            np.full((n_in, n_out), std_ratio * scale),
        )
        bias = GaussianFactor(np.zeros(n_out), np.full(n_out, 0.01))
        return cls(weight, bias, activation=cfg.get("activation", "identity"))


@dataclass
class Embedding:
    """Token lookup table stored in a factorized format; no bias, no activation."""

    table: FactorizedLayer
    num_tokens: int
    embed_dim: int

    type_name = "embedding"
    input_ndim = 1

    def __post_init__(self):
        if math.prod(self.table.row_dims) != self.num_tokens:
            raise ValueError("row dims must factor the token count exactly")
        if math.prod(self.table.col_dims) != self.embed_dim:
            raise ValueError("col dims must factor the embedding size exactly")

    def gaussians(self):
        return list(self.table.factors)

    @property
    def out_features(self):
        return self.embed_dim

    @property
    def dense_params(self):
        return self.num_tokens * self.embed_dim

    @property
    def factorized(self):
        return self.table

    def forward(self, x, points):
        """Rows of the drawn table for a batch of token ids; the entry is the
        format's lookup memo."""
        idx = _check_indices(x, self.num_tokens)
        return self.table.format.lookup_rows(self.table, points, idx)

    def backward(self, entry, g, points, need_input_grad):
        """Mean-gradients of the table factors; token ids have no input gradient."""
        return self.table.format.backprop_rows(self.table, points, entry, g), None

    def state(self):
        tmeta, arrays = factorized.layer_state(self.table)
        return {"num_tokens": self.num_tokens, "embed_dim": self.embed_dim,
                "table": tmeta}, arrays

    @classmethod
    def from_state(cls, meta, arrays):
        table = factorized.layer_from_state(meta["table"], arrays)
        return cls(table, int(meta["num_tokens"]), int(meta["embed_dim"]))

    @classmethod
    def from_config(cls, cfg, rng, std_ratio):
        row_dims, col_dims = list(cfg["row_dims"]), list(cfg["col_dims"])
        # Checks the dims first: the target variance divides by prod(col_dims).
        ranks = _max_rank(cfg, row_dims, col_dims)
        table = factorized.init_layer(
            cfg["format"], row_dims, col_dims, ranks,
            rng, target_var=1.0 / math.prod(col_dims), std_ratio=std_ratio,
        )
        return cls(table, math.prod(row_dims), math.prod(col_dims))


def _max_rank(cfg, row_dims, col_dims):
    """A layer mapping's ``max_rank``, normalized for its format once the
    format has checked the dims; a rank list of the wrong length raises
    ValueError naming ``max_rank``."""
    fmt = factorized.FORMATS[cfg["format"]]
    fmt.check_dims(row_dims, col_dims)
    try:
        return fmt.normalize_ranks(fmt.order(row_dims, col_dims), cfg["max_rank"])
    except ValueError as e:
        raise ValueError(f"max_rank: {e}") from e


class _LayerTypes(dict):
    def __missing__(self, type_name):
        raise ValueError(f"unknown layer type {type_name!r}")


# Every layer class, keyed by the ``type`` string of its run-spec and
# checkpoint entries; an unknown type raises ValueError.
LAYER_TYPES = _LayerTypes(
    (cls.type_name, cls) for cls in (TensorizedLinear, Embedding, PlainLinear)
)


class _GaussianStore:
    """Every Gaussian of a network as views into two flat buffers.

    ``mean`` and ``std`` hold every entry, layer by layer in ``gaussians()``
    order, and each Gaussian's ``mean`` and ``std`` become reshaped views of
    its segment.  ``rank_var`` holds every rank-variance vector end to end,
    each rebound to its view, and a last slot for the weak prior variance.
    Each entry's prior slot comes from :func:`factorized.prior_slots`, whose
    factors are the first Gaussians of their layer; every other entry has the
    weak prior.  ``used`` lists the slots some entry uses and ``slot`` maps
    every entry to its slot's place in ``used``.  ``vector_slices`` holds, per
    rank-controlled weight, the slice of ``rank_var`` each of its rank
    vectors fills.  Building the store copies the current values in.
    """

    def __init__(self, layers):
        gaussians = [layer.gaussians() for layer in layers]
        flat = [g for gs in gaussians for g in gs]
        bounds = np.cumsum([0] + [g.mean.size for g in flat]).tolist()
        segments = [(slice(a, b), g.shape) for g, a, b in zip(flat, bounds, bounds[1:])]
        self.mean, self.std = np.empty(bounds[-1]), np.empty(bounds[-1])
        for g, (seg, shape) in zip(flat, segments):
            self.mean[seg], self.std[seg] = g.mean.reshape(-1), g.std.reshape(-1)
            g.mean, g.std = self.mean[seg].reshape(shape), self.std[seg].reshape(shape)
        starts = np.cumsum([0] + [len(gs) for gs in gaussians]).tolist()
        self.layout = [segments[a:b] for a, b in zip(starts, starts[1:])]

        weights = [layer.factorized for layer in layers]
        vectors = [v for fl in weights if fl is not None for v in fl.rank_variances]
        self.rank_var = np.empty(sum(v.size for v in vectors) + 1)
        weak = self.rank_var.size - 1
        prior_index = np.full(bounds[-1], weak, dtype=np.intp)
        self.vector_slices, first = [], 0
        for layer, fl in zip(self.layout, weights):
            if fl is None:
                continue
            for (seg, _), slots in zip(layer, factorized.prior_slots(fl, first, weak)):
                prior_index[seg] = slots.reshape(-1)
            vector_slices = []
            for k, v in enumerate(fl.rank_variances):
                view = self.rank_var[first:first + v.size]
                view[:] = v
                fl.rank_variances[k] = view
                vector_slices.append(slice(first, first + v.size))
                first += v.size
            self.vector_slices.append(vector_slices)
        # a count, not np.unique: its sort of every entry cost more than the
        # rest of the build (0.6 ms on the wide TTM net)
        in_use = np.bincount(prior_index, minlength=self.rank_var.size) > 0
        self.used, self.slot = np.flatnonzero(in_use), (np.cumsum(in_use) - 1)[prior_index]
        self.counts = (len(flat), len(vectors))

    def holds(self, layers) -> bool:
        """Whether every Gaussian and rank vector of ``layers`` is still a view
        of this store.  A base test, not identity: a deep copy keeps the
        identities among its objects but turns each view into an owning array."""
        gaussians = vectors = 0
        for layer in layers:
            for g in layer.gaussians():
                if g.mean.base is not self.mean or g.std.base is not self.std:
                    return False
                gaussians += 1
            fl = layer.factorized
            if fl is not None:
                for v in fl.rank_variances:
                    if v.base is not self.rank_var:
                        return False
                vectors += len(fl.rank_variances)
        return (gaussians, vectors) == self.counts

    def views(self, flat):
        """Per layer, the views of a flat array that align with ``gaussians()``."""
        return [[flat[seg].reshape(shape) for seg, shape in layer] for layer in self.layout]

    def slot_variances(self, weak_var):
        """The prior variance of every slot in use, and ``slot``."""
        self.rank_var[-1] = weak_var
        return self.rank_var[self.used], self.slot


def _layer_sums(total, values, layers):
    """``total`` plus ``values`` summed over each layer's slices in turn, each
    layer's sum taken on its own first: the order of :meth:`Network.kl_total`."""
    for slices in layers:
        layer_total = 0.0
        for seg in slices:
            layer_total += float(values[seg].sum())
        total += layer_total
    return total


class Network:
    """Ordered layers ending in a ``classes``-way classifier head."""

    def __init__(self, layers, classes: int):
        if not layers:
            raise ValueError("network needs at least one layer")
        self.layers = list(layers)
        self.classes = int(classes)
        self._store = None
        out = self.layers[-1].out_features
        if out != self.classes:
            raise ValueError(f"final layer emits {out} features, expected {classes}")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.input_ndim != 2:
                raise ValueError("embedding layers must come first")
            if prev.out_features != nxt.in_features:
                raise ValueError(
                    f"layer dimensions do not chain: {prev.out_features} -> "
                    f"{nxt.in_features}"
                )

    # -- the flat store -----------------------------------------------------------
    #
    # Sampling, the KL, its gradient, the step and the rank update each run
    # one pass over the store's flat buffers.  The store is built on first
    # use and rebuilt whenever a layer's Gaussians or rank vectors are not
    # its views: after pruning, loading or a deep copy, or when a bias or a
    # rank-variance vector is replaced.

    def _gaussian_store(self) -> _GaussianStore:
        if self._store is None or not self._store.holds(self.layers):
            self._store = _GaussianStore(self.layers)
        return self._store

    def flat_gaussians(self):
        """(means, stds): every Gaussian's entries in two flat buffers, of which
        each ``mean`` and ``std`` is a view; updating them in place moves the
        Gaussians."""
        store = self._gaussian_store()
        return store.mean, store.std

    # -- sampling ------------------------------------------------------------
    #
    # A draw holds one (points, noises) pair per layer, each aligned with
    # ``layer.gaussians()``; a gradient, one (d/dmean, d/dstd) pair of flat
    # arrays aligned with :meth:`flat_gaussians`.

    def sample(self, rng: np.random.Generator):
        """One joint reparameterized draw of every weight and bias.

        One ``standard_normal`` call over the flat buffers draws what one
        call per Gaussian, in ``gaussians()`` order, would.
        """
        store = self._gaussian_store()
        z = rng.standard_normal(store.mean.size)
        return list(zip(store.views(store.mean + z * store.std), store.views(z)))

    def _mean_state(self):
        return [([g.mean for g in layer.gaussians()], None) for layer in self.layers]

    # -- forward / backward ----------------------------------------------------

    def forward(self, inputs, sample=None, want_cache: bool = False):
        """Logits for a batch; posterior-mean weights when ``sample`` is None.

        The cache holds the logits and each layer's (entry, points, noises).
        """
        state = sample if sample is not None else self._mean_state()
        records = []
        x = inputs
        for layer, (points, noises) in zip(self.layers, state):
            x, entry = layer.forward(x, points)
            records.append((entry, points, noises))
        if want_cache:
            return x, (x, records)
        return x

    def backward(self, cache, labels):
        """Gradients (d/dmean, d/dstd) of the batch-mean NLL w.r.t. every
        variational parameter, as two flat arrays.

        Requires a cache from a forward pass in sampled mode; the recorded z
        turns each likelihood mean-gradient into the matching std-gradient.
        """
        logits, records = cache
        batch = logits.shape[0]
        labels = _check_labels(labels, self.classes, batch)
        g = softmax(logits)
        g[np.arange(batch), labels] -= 1.0
        g /= batch

        store = self._gaussian_store()
        grads = np.empty(store.mean.size), np.empty(store.mean.size)
        mean_views, std_views = map(store.views, grads)
        for i in range(len(self.layers) - 1, -1, -1):
            entry, points, noises = records[i]
            if noises is None:
                raise ValueError("backward needs a sampled forward pass (missing z record)")
            # nothing reads the input gradient of the first layer
            d_means, g = self.layers[i].backward(entry, g, points, i > 0)
            for z, dm, mean_view, std_view in zip(noises, d_means, mean_views[i], std_views[i]):
                mean_view[...] = dm
                np.multiply(z, dm, out=std_view)
        return grads

    # -- KL over the whole model -------------------------------------------------

    def kl_total(self, hyper_prior, weak_prior_std: float = 1.0) -> float:
        """KL to the prior over all factors, cores, plain weights and biases,
        plus the rank-variance penalties.

        The entries' KL is summed per Gaussian, then per layer, as
        :func:`bayes.gaussian_kl` sums each layer; the penalties, from one
        ``penalty`` call over every rank variance, per vector, then per
        layer, as :func:`bayes.rank_penalty` sums each layer.
        """
        store = self._gaussian_store()
        slot_var, slot = store.slot_variances(weak_prior_std * weak_prior_std)
        kl = bayes._kl_gaussian_by_slot(store.mean, store.std, slot_var, slot)
        total = _layer_sums(0.0, kl, ([seg for seg, _ in layer] for layer in store.layout))
        penalties = hyper_prior.penalty(store.rank_var[:-1])
        return _layer_sums(total, penalties, store.vector_slices)

    def kl_gradients(self, weak_prior_std: float = 1.0):
        """KL-part gradients (d/dmean, d/dstd), laid out as :meth:`backward`'s."""
        store = self._gaussian_store()
        slot_var, slot = store.slot_variances(weak_prior_std * weak_prior_std)
        return bayes.kl_gaussian_gradients(store.mean, store.std, slot_var[slot])

    def update_rank_variances(self, hyper_prior, step: float) -> None:
        """:func:`bayes.update_rank_variances` on every rank-controlled weight,
        with mean^2 + std^2 computed once over the flat buffers and read
        through the store's views of its layer's factors; only the entries
        with a rank prior feed the rank moments."""
        store = self._gaussian_store()
        squares = store.views(store.mean * store.mean + store.std * store.std)
        for layer, views in zip(self.layers, squares):
            fl = layer.factorized
            if fl is not None:
                bayes.update_rank_variances(fl, hyper_prior, step, views[:len(fl.factors)])

    # -- bookkeeping ---------------------------------------------------------------

    def param_count(self) -> int:
        """Factor, plain-weight and bias entries at the current ranks."""
        return sum(g.mean.size for layer in self.layers for g in layer.gaussians())

    def dense_param_count(self) -> int:
        """Entries of the equivalent untensorized model (weights plus biases)."""
        return sum(layer.dense_params for layer in self.layers)

    def factorized_layers(self):
        """(index, FactorizedLayer) pairs for every rank-controlled weight."""
        return [(i, layer.factorized) for i, layer in enumerate(self.layers)
                if layer.factorized is not None]


# The likelihood head runs once per step on a small [batch, classes] array,
# so it calls the reductions behind ``max``, ``sum`` and ``mean`` directly and
# skips their Python wrappers; the bits are the same.


def softmax(logits):
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def nll_multinomial(logits, labels) -> float:
    """Mean negative log-likelihood of integer labels under softmax logits.

    Uses the max-shifted log-sum-exp, so arbitrarily large logits stay finite.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ValueError("logits must be a [batch, classes] matrix")
    batch = logits.shape[0]
    labels = _check_labels(labels, logits.shape[1], batch)
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    lse = np.log(np.add.reduce(np.exp(shifted), axis=1))
    picked = shifted[np.arange(batch), labels]
    return float(np.add.reduce(lse - picked) / batch)


def embedding_lookup(table: FactorizedLayer, point_factors, indices) -> np.ndarray:
    """Rows of the reconstructed table for the given token indices; a TTM
    table builds only those rows, the other formats the whole table.

    Only the rows: a training step calls the format's ``lookup_rows``
    through :meth:`Embedding.forward`, which also keeps the memo that the
    backward pass takes."""
    idx = _check_indices(indices, math.prod(table.row_dims))
    return table.format.lookup_rows(table, point_factors, idx)[0]


def _check_indices(indices, num_tokens):
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ValueError("embedding inputs must be integer token indices")
    if idx.ndim != 1:
        raise ValueError("embedding inputs must be a 1-d index array")
    if idx.size and (idx.min() < 0 or idx.max() >= num_tokens):
        raise ValueError(f"token index out of range [0, {num_tokens})")
    return idx


def _check_labels(labels, classes, batch=None):
    """Integer labels in [0, classes), 1-d, and ``batch`` long when given."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise ValueError("labels must be integers")
    if labels.ndim != 1 or (batch is not None and labels.shape[0] != batch):
        raise ValueError(f"labels of shape {labels.shape} do not hold one entry per input")
    if labels.size and (np.minimum.reduce(labels) < 0
                        or np.maximum.reduce(labels) >= classes):
        raise ValueError(f"label out of range [0, {classes})")
    return labels


# -- construction ------------------------------------------------------------


def build_network(layer_configs, classes: int, rng: np.random.Generator,
                  std_ratio: float = 0.05) -> Network:
    """Build an initialized network from a list of layer config mappings; a
    missing key raises ValueError naming the layer's index and the key, and
    every other ValueError of a layer's construction names its index."""
    layers = []
    for index, cfg in enumerate(layer_configs):
        try:
            layers.append(LAYER_TYPES[cfg["type"]].from_config(cfg, rng, std_ratio))
        except KeyError as e:
            raise ValueError(f"layer {index} lacks the required key {e.args[0]!r}") from e
        except ValueError as e:
            raise ValueError(f"layer {index}: {e}") from e
    return Network(layers, classes)
