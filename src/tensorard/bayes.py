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
    prior_slots,
    rank_moments,
)

__all__ = [
    "LogUniform",
    "HalfCauchy",
    "hyper_prior_from_config",
    "check_prior_std",
    "optimal_rank_var_log_uniform",
    "optimal_rank_var_half_cauchy",
    "kl_gaussian",
    "kl_gaussian_gradients",
    "gaussian_kl",
    "gaussian_kl_gradients",
    "rank_penalty",
    "sample_gaussians",
    "sample_factors",
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

    The published form is (M - s²D + sqrt(disc)) / (2D + 2).  Where s²D > M
    its numerator cancels, to 0 once s²D dwarfs M, and s⁴D² in ``disc``
    overflows for a large scale; there the same value is taken with the
    numerator rationalized, M(4D + 8) / ((2D + 2)(sqrt(t² + (2D + 8)t + D²)
    + D - t)) with t = M/s², which neither cancels nor overflows.
    """
    m, d = _check_rank_var_inputs(moment_sum, count)
    if scale <= 0:
        raise ValueError("scale must be positive")
    s2 = scale * scale
    # Both forms run on every entry, and each is finite where it is taken;
    # the other may overflow or divide by 0 there, silently.
    with np.errstate(all="ignore"):
        disc = m * m + (2 * d + 8) * s2 * m + s2 * s2 * d * d
        published = (m - s2 * d + np.sqrt(disc)) / (2 * d + 2)
        t = m / s2
        root = np.sqrt(t * t + (2 * d + 8) * t + d * d)
        rationalized = m * (4 * d + 8) / ((2 * d + 2) * (root + d - t))
        return np.where(s2 * d > m, rationalized, published)[()]


def check_prior_std(name, std):
    """Raise ValueError naming ``name`` unless ``std`` is positive and its
    square is a normal, finite float; a smaller square is subnormal or 0 and
    a larger one inf, and either drives the KL or the rank update non-finite."""
    if not std > 0:
        raise ValueError(f"{name} must be positive")
    if not np.finfo(float).tiny <= std * std < np.inf:
        raise ValueError(f"{name} must have a normal, finite square; "
                         f"{std!r} squared is {std * std!r}")


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
        check_prior_std("half-Cauchy scale", self.scale)

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


def _check_std(std, message):
    """Raise ValueError(message) if some entry of ``std`` is 0 or less.

    One pass: fmin skips NaN, so a NaN entry passes and a nonpositive one
    beside it still raises, as ``(std <= 0).any()`` would."""
    if np.fmin.reduce(std, axis=None, initial=np.inf) <= 0:
        raise ValueError(message)


def _kl_terms(mean, std, half_log_var, two_var):
    """The per-entry KL of :func:`kl_gaussian`, given ½·log(prior_var) and
    2·prior_var."""
    return half_log_var - np.log(std) + (mean * mean + std * std) / two_var - 0.5


def kl_gaussian(mean, std, prior_var):
    """KL(N(mean, std^2) || N(0, prior_var)), elementwise.

    Equals log(sqrt(prior_var)/std) + (mean^2 + std^2)/(2 prior_var) - 1/2;
    nonnegative, and zero only at mean = 0, std^2 = prior_var.
    """
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    prior_var = np.asarray(prior_var, dtype=np.float64)
    _check_std(std, "std must be positive")
    if (prior_var <= 0).any():
        raise ValueError("prior_var must be positive")
    return _kl_terms(mean, std, 0.5 * np.log(prior_var), 2.0 * prior_var)


def _kl_gaussian_by_slot(mean, std, slot_var, slot):
    """:func:`kl_gaussian` of ``mean`` and ``std`` against ``slot_var[slot]``,
    for flat arrays: entry i's prior variance is ``slot_var[slot[i]]``.

    The log and the doubling run once per slot, not once per entry, and the
    positivity check reads the slots.  It raises exactly where a check of the
    gathered variances would only if every slot is one some entry uses; the
    caller (``Network.kl_total``, which passes the store's slots in use)
    keeps that precondition.
    """
    _check_std(std, "std must be positive")
    if (slot_var <= 0).any():
        raise ValueError("prior_var must be positive")
    return _kl_terms(mean, std, (0.5 * np.log(slot_var))[slot], (2.0 * slot_var)[slot])


def gaussian_kl(gaussians, prior_variances) -> float:
    """Summed KL of independent Gaussians to N(0, prior variance).

    ``prior_variances`` holds one variance per Gaussian, broadcastable to it.
    """
    total = 0.0
    for g, var in zip(gaussians, prior_variances):
        total += float(kl_gaussian(g.mean, g.std, var).sum())
    return total


def kl_gaussian_gradients(mean, std, prior_var):
    """Exact gradients (d/dmean, d/dstd) of :func:`kl_gaussian`, elementwise,
    for arrays ``mean`` and ``std``.

    d/dmean = mean/prior_var and d/dstd = -1/std + std/prior_var.
    Deterministic: no sampling.
    """
    _check_std(std, "std must be positive for KL gradients")
    return mean / prior_var, -1.0 / std + std / prior_var


def gaussian_kl_gradients(gaussians, prior_variances):
    """:func:`kl_gaussian_gradients` per Gaussian: a (d/dmean, d/dstd) pair each."""
    return [kl_gaussian_gradients(g.mean, g.std, var)
            for g, var in zip(gaussians, prior_variances)]


def sample_gaussians(gaussians, rng: np.random.Generator):
    """Draw points via mean + z*std, returning the z draws as well.

    The z record is what lets the stddev gradient reuse the same noise.
    One ``standard_normal`` call per Gaussian, in list order.
    """
    points, noises = [], []
    for g in gaussians:
        z = rng.standard_normal(g.shape)
        points.append(g.mean + z * g.std)
        noises.append(z)
    return points, noises


def sample_factors(layer: FactorizedLayer, rng: np.random.Generator):
    """:func:`sample_gaussians` over a layer's factors."""
    return sample_gaussians(layer.factors, rng)


def _prior_variances(layer: FactorizedLayer, weak_prior_var: float) -> list:
    """Each factor's prior variances, one per entry, gathered through
    :func:`~tensorard.factorized.prior_slots`: an entry's rank variance, or
    the weak prior variance for an entry with no rank prior."""
    table = np.append(np.concatenate(layer.rank_variances), float(weak_prior_var))
    return [table[s] for s in prior_slots(layer, 0, table.size - 1)]


def kl_gradients(layer: FactorizedLayer, weak_prior_var: float = 1.0):
    """:func:`gaussian_kl_gradients` over a layer's factors.

    Each factor entry's prior variance is its rank variance; the Tucker core
    uses the weak prior variance.
    """
    return gaussian_kl_gradients(layer.factors, _prior_variances(layer, weak_prior_var))


def rank_penalty(layer: FactorizedLayer, hyper_prior) -> float:
    """Hyper-prior penalty summed over every rank variance of a layer."""
    total = 0.0
    for v in layer.rank_variances:
        total += float(np.sum(hyper_prior.penalty(v)))
    return total


def layer_kl(layer: FactorizedLayer, hyper_prior, weak_prior_var: float = 1.0) -> float:
    """Total KL of one layer: Gaussian terms plus the rank-variance penalties."""
    gaussians = gaussian_kl(layer.factors, _prior_variances(layer, weak_prior_var))
    return gaussians + rank_penalty(layer, hyper_prior)


def update_rank_variances(layer: FactorizedLayer, hyper_prior, step: float,
                          squares=None) -> None:
    """In-place incremental move of every rank variance toward its optimum.

    new = step * optimum + (1 - step) * current, then floored so the KL term
    stays finite before pruning.  ``squares`` is passed to
    :func:`~tensorard.factorized.rank_moments`.
    """
    if not 0.0 <= step <= 1.0:
        raise ValueError("step must lie in [0, 1]")
    for v, (moments, count) in zip(layer.rank_variances, rank_moments(layer, squares)):
        optima = hyper_prior.optimal_rank_var(moments, count)
        v *= 1.0 - step
        v += step * optima
        np.maximum(v, RANK_VAR_FLOOR, out=v)
