"""Gaussian KL terms, reparameterized sampling, and rank-variance updates.

The posterior over every factor entry is an independent Gaussian; the
posterior over each rank variance is a point mass, which makes the
rank-variance subproblem solvable in closed form and keeps the factor
KL gradients noise-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .factorized import (
    RANK_VAR_FLOOR,
    FactorizedLayer,
    prior_variance_arrays,
)

__all__ = [
    "LogUniform",
    "HalfCauchy",
    "hyper_prior_from_config",
    "optimal_rank_var_log_uniform",
    "optimal_rank_var_half_cauchy",
    "kl_gaussian",
    "sample_factors",
    "rank_var_stats",
    "rank_var_stats_all",
    "kl_gradients",
    "layer_kl",
    "update_rank_variances",
]


def _check_rank_var_inputs(moment_sum, count):
    """``moment_sum`` and ``count`` as float64 arrays or scalars, each checked once."""
    m = np.asarray(moment_sum, dtype=np.float64)
    d = np.asarray(count, dtype=np.float64)
    # min() with an initial value is one reduction and accepts empty input;
    # NaN propagates through it, so a vector holding NaN passes, as a NaN
    # entry passed the per-entry comparison.
    if m.min(initial=0.0) < 0:
        raise ValueError("moment_sum must be nonnegative")
    if d.min(initial=1.0) < 1:
        raise ValueError("count must be at least 1")
    # [()] turns a 0-d array into a scalar, whose arithmetic skips the
    # array machinery; an array passes through unchanged.
    return m[()], d[()]


def optimal_rank_var_log_uniform(moment_sum, count):
    """Closed-form KL minimizer for a rank variance under the log-uniform prior.

    ``moment_sum`` is the total mean^2 + std^2 of the controlled entries and
    ``count`` is how many entries there are.  Either may be an array, one
    entry per rank variance; they broadcast.
    """
    m, d = _check_rank_var_inputs(moment_sum, count)
    return m / (d + 1)


def optimal_rank_var_half_cauchy(moment_sum, count, scale: float):
    """Closed-form rank-variance update under the half-Cauchy prior on the stddev.

    Shrinks harder as ``scale`` decreases and approaches the log-uniform
    update M/(D+1) as ``scale`` tends to zero.  Elementwise over arrays, as
    :func:`optimal_rank_var_log_uniform`.
    """
    m, d = _check_rank_var_inputs(moment_sum, count)
    if scale <= 0:
        raise ValueError("scale must be positive")
    s2 = scale * scale
    disc = m * m + (2 * d + 8) * s2 * m + s2 * s2 * d * d
    return (m - s2 * d + np.sqrt(disc)) / (2 * d + 2)


@dataclass(frozen=True)
class LogUniform:
    """Improper 1/x prior on the rank stddevs; parameter-free, fat-tailed."""

    name = "log_uniform"

    def optimal_rank_var(self, moment_sum, count):
        return optimal_rank_var_log_uniform(moment_sum, count)

    def penalty(self, rank_var):
        """Negative log density of sqrt(rank_var), up to an additive constant."""
        return 0.5 * np.log(rank_var)


@dataclass(frozen=True)
class HalfCauchy:
    """Half-Cauchy prior on the rank stddevs with a tunable scale."""

    scale: float

    name = "half_cauchy"

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("half-Cauchy scale must be positive")

    def optimal_rank_var(self, moment_sum, count):
        return optimal_rank_var_half_cauchy(moment_sum, count, self.scale)

    def penalty(self, rank_var):
        return np.log1p(np.asarray(rank_var) / (self.scale * self.scale))


def hyper_prior_from_config(cfg):
    """Build a hyper-prior from a {"kind": ..., "scale"?} mapping."""
    kind = cfg["kind"]
    if kind == "log_uniform":
        return LogUniform()
    if kind == "half_cauchy":
        return HalfCauchy(float(cfg["scale"]))
    raise ValueError(f"unknown hyper prior kind {kind!r}")


def kl_gaussian(mean, std, prior_var):
    """KL(N(mean, std^2) || N(0, prior_var)), elementwise.

    Equals log(sqrt(prior_var)/std) + (mean^2 + std^2)/(2 prior_var) - 1/2;
    nonnegative, and zero only at mean = 0, std^2 = prior_var.
    """
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    prior_var = np.asarray(prior_var, dtype=np.float64)
    if np.any(std <= 0):
        raise ValueError("std must be positive")
    if np.any(prior_var <= 0):
        raise ValueError("prior_var must be positive")
    return (
        0.5 * np.log(prior_var)
        - np.log(std)
        + (mean * mean + std * std) / (2.0 * prior_var)
        - 0.5
    )


def sample_factors(layer: FactorizedLayer, rng: np.random.Generator):
    """Draw point factors via mean + z*std, returning the z draws as well.

    The z record is what lets the stddev gradient reuse the same noise.
    """
    points, noises = [], []
    for f in layer.factors:
        z = rng.standard_normal(f.shape)
        points.append(f.mean + z * f.std)
        noises.append(z)
    return points, noises


def _second_moment(factor):
    return factor.mean * factor.mean + factor.std * factor.std


def rank_var_stats(layer: FactorizedLayer, vec_index: int, entry_index: int):
    """(moment_sum, count) for one rank-variance entry.

    ``count`` is the number of factor entries whose prior variance this entry
    controls, and ``moment_sum`` their total mean^2 + std^2.
    """
    if not 0 <= vec_index < len(layer.rank_variances):
        raise IndexError(f"rank-variance vector {vec_index} out of range")
    if not 0 <= entry_index < layer.rank_variances[vec_index].size:
        raise IndexError(f"entry {entry_index} out of range")
    k = entry_index
    kind = layer.kind
    if kind == "cp":
        moment = sum(float(_second_moment(f)[:, k].sum()) for f in layer.factors)
        count = sum(f.shape[0] for f in layer.factors)
        return moment, count
    if kind == "tucker":
        f = layer.factors[vec_index]
        return float(_second_moment(f)[:, k].sum()), f.shape[0]
    d = layer.order
    f = layer.factors[vec_index]
    moment = float(_second_moment(f)[..., k].sum())
    count = f.mean[..., k].size
    if vec_index == d - 2:
        last = layer.factors[d - 1]
        moment += float(_second_moment(last)[k].sum())
        count += last.mean[k].size
    return moment, count


def rank_var_stats_all(layer: FactorizedLayer):
    """Vectorized stats: one (moment_vec, count_vec) pair per rank-variance vector."""
    return [
        (m, np.full(m.shape, count, dtype=np.int64))
        for m, count in _moments_and_counts(layer)
    ]


def _moments_and_counts(layer: FactorizedLayer):
    """One (moment_vec, count) pair per rank-variance vector.

    Every entry of a vector controls slices of the same size, so one count
    serves the whole vector.
    """
    kind = layer.kind
    if kind == "cp":
        moments = sum(_second_moment(f).sum(axis=0) for f in layer.factors)
        return [(moments, sum(f.shape[0] for f in layer.factors))]
    if kind == "tucker":
        return [(_second_moment(f).sum(axis=0), f.shape[0]) for f in layer.factors[:-1]]
    d = layer.order
    out = []
    for i in range(d - 1):
        f = layer.factors[i]
        m = _second_moment(f).sum(axis=tuple(range(f.mean.ndim - 1)))
        count = f.mean[..., 0].size
        if i == d - 2:
            last = layer.factors[d - 1]
            m = m + _second_moment(last).sum(axis=tuple(range(1, last.mean.ndim)))
            count += last.mean[0].size
        out.append((m, count))
    return out


def kl_gradients(layer: FactorizedLayer, weak_prior_var: float = 1.0):
    """Exact KL gradients per factor: (d/dmean, d/dstd) arrays.

    d/dstd = -1/std + std/prior_var and d/dmean = mean/prior_var, with the
    Tucker core using the weak prior variance.  Deterministic: no sampling.
    """
    grads = []
    for f, var in zip(layer.factors, prior_variance_arrays(layer, weak_prior_var)):
        if np.any(f.std <= 0):
            raise ValueError("std must be positive for KL gradients")
        d_mean = f.mean / var
        d_std = -1.0 / f.std + f.std / var
        grads.append((d_mean, d_std))
    return grads


def layer_kl(layer: FactorizedLayer, hyper_prior, weak_prior_var: float = 1.0) -> float:
    """Total KL of one layer: Gaussian terms plus the rank-variance penalties."""
    total = 0.0
    for f, var in zip(layer.factors, prior_variance_arrays(layer, weak_prior_var)):
        total += float(kl_gaussian(f.mean, f.std, var).sum())
    for v in layer.rank_variances:
        total += float(np.sum(hyper_prior.penalty(v)))
    return total


def update_rank_variances(layer: FactorizedLayer, hyper_prior, step: float) -> None:
    """In-place incremental move of every rank variance toward its optimum.

    new = step * optimum + (1 - step) * current, then floored so the KL term
    stays finite before pruning.
    """
    if not 0.0 <= step <= 1.0:
        raise ValueError("step must lie in [0, 1]")
    for v, (moments, count) in zip(layer.rank_variances, _moments_and_counts(layer)):
        optima = hyper_prior.optimal_rank_var(moments, count)
        v *= 1.0 - step
        v += step * optima
        np.maximum(v, RANK_VAR_FLOOR, out=v)
