"""The rank-axis table against the per-format code it replaced.

The reference functions below are the earlier implementations, kept
verbatim: one branch per format in shape validation, pruning, prior
variances and rank-variance moments.  The current code derives all four
from each format's ``rank_axes`` in ``factorized.FORMATS`` and must agree
with them bit for bit: values, shapes, dtypes and count types.  Validation
must accept and reject the same layers.
"""

from pathlib import Path

import numpy as np
import pytest

from tensorard import bayes, factorized
from tensorard.factorized import (
    RANK_VAR_FLOOR,
    FactorizedLayer,
    GaussianFactor,
    RankCollapsedError,
    _keep_masks,
)

# -- reference implementations -----------------------------------------------


def ref_validate_shapes(self):
    d = self.order
    dims = self.tensor_dims
    if self.kind == "cp":
        if len(self.factors) != d:
            raise ValueError(f"CP needs {d} factor matrices, got {len(self.factors)}")
        r = self.factors[0].shape[1]
        for n, f in enumerate(self.factors):
            if f.shape != (dims[n], r):
                raise ValueError(
                    f"CP factor {n} has shape {f.shape}, expected {(dims[n], r)}"
                )
        if len(self.rank_variances) != 1 or self.rank_variances[0].size != r:
            raise ValueError("CP needs a single rank-variance vector of length R")
    elif self.kind == "tucker":
        if len(self.factors) != d + 1:
            raise ValueError(f"Tucker needs {d} matrices plus a core")
        core = self.factors[-1]
        if core.mean.ndim != d:
            raise ValueError(f"Tucker core must have order {d}")
        for n, f in enumerate(self.factors[:-1]):
            if f.shape != (dims[n], core.shape[n]):
                raise ValueError(
                    f"Tucker factor {n} has shape {f.shape}, expected "
                    f"{(dims[n], core.shape[n])}"
                )
        if len(self.rank_variances) != d:
            raise ValueError(f"Tucker needs {d} rank-variance vectors")
        for n, v in enumerate(self.rank_variances):
            if v.size != core.shape[n]:
                raise ValueError(f"rank-variance vector {n} has wrong length")
    elif self.kind in ("tt", "ttm"):
        if d < 2:
            raise ValueError(f"{self.kind} needs at least 2 cores")
        if len(self.factors) != d:
            raise ValueError(f"{self.kind} needs {d} cores, got {len(self.factors)}")
        if self.kind == "ttm" and len(self.row_dims) != len(self.col_dims):
            raise ValueError("TTM needs equal-length row and column dims")
        bond = 1
        for n, f in enumerate(self.factors):
            shape = f.shape
            want_order = 3 if self.kind == "tt" else 4
            if len(shape) != want_order:
                raise ValueError(f"core {n} must have order {want_order}")
            if shape[0] != bond:
                raise ValueError(
                    f"core {n} leading rank {shape[0]} != previous trailing rank {bond}"
                )
            if self.kind == "tt":
                if shape[1] != dims[n]:
                    raise ValueError(f"core {n} mode size {shape[1]} != {dims[n]}")
            else:
                if shape[1] != self.row_dims[n] or shape[2] != self.col_dims[n]:
                    raise ValueError(
                        f"core {n} paired sizes {shape[1:3]} != "
                        f"{(self.row_dims[n], self.col_dims[n])}"
                    )
            bond = shape[-1]
        if bond != 1:
            raise ValueError("trailing bond rank must be 1")
        if len(self.rank_variances) != d - 1:
            raise ValueError(f"{self.kind} needs {d - 1} rank-variance vectors")
        for n, v in enumerate(self.rank_variances):
            if v.size != self.factors[n].shape[-1]:
                raise ValueError(f"rank-variance vector {n} has wrong length")


def ref_prune(layer: FactorizedLayer, threshold: float) -> FactorizedLayer:
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    masks = _keep_masks(layer, threshold)
    kind = layer.kind
    new_factors = []
    if kind == "cp":
        (mask,) = masks
        new_factors = [
            GaussianFactor(f.mean[:, mask], f.std[:, mask]) for f in layer.factors
        ]
    elif kind == "tucker":
        for n, f in enumerate(layer.factors[:-1]):
            new_factors.append(GaussianFactor(f.mean[:, masks[n]], f.std[:, masks[n]]))
        core = layer.factors[-1]
        sel = np.ix_(*masks)
        new_factors.append(GaussianFactor(core.mean[sel], core.std[sel]))
    else:
        d = layer.order
        for i, f in enumerate(layer.factors):
            mean, std = f.mean, f.std
            if i < d - 1:
                mean, std = mean[..., masks[i]], std[..., masks[i]]
            if i > 0:
                mean, std = mean[masks[i - 1]], std[masks[i - 1]]
            new_factors.append(GaussianFactor(mean, std))
    new_vars = [v[m] for v, m in zip(layer.rank_variances, masks)]
    return FactorizedLayer(
        kind=kind,
        factors=new_factors,
        rank_variances=new_vars,
        row_dims=list(layer.row_dims),
        col_dims=list(layer.col_dims),
        max_ranks=layer.max_ranks,
    )


def ref_prior_variance_arrays(layer: FactorizedLayer, weak_prior_var: float) -> list:
    kind = layer.kind
    rv = layer.rank_variances
    if kind == "cp":
        return [rv[0][None, :] for _ in layer.factors]
    if kind == "tucker":
        out = [rv[n][None, :] for n in range(layer.order)]
        core_shape = layer.factors[-1].shape
        out.append(np.full((1,) * len(core_shape), float(weak_prior_var)))
        return out
    d = layer.order
    out = []
    for i in range(d):
        nd = layer.factors[i].mean.ndim
        if i < d - 1:
            shape = (1,) * (nd - 1) + (rv[i].size,)
            out.append(rv[i].reshape(shape))
        else:
            shape = (rv[d - 2].size,) + (1,) * (nd - 1)
            out.append(rv[d - 2].reshape(shape))
    return out


def _second_moment(factor):
    return factor.mean * factor.mean + factor.std * factor.std


def ref_moments_and_counts(layer: FactorizedLayer):
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


def ref_update_rank_variances(layer: FactorizedLayer, hyper_prior, step: float) -> None:
    if not 0.0 <= step <= 1.0:
        raise ValueError("step must lie in [0, 1]")
    for v, (moments, count) in zip(layer.rank_variances, ref_moments_and_counts(layer)):
        optima = hyper_prior.optimal_rank_var(moments, count)
        v *= 1.0 - step
        v += step * optima
        np.maximum(v, RANK_VAR_FLOOR, out=v)


# -- layers -------------------------------------------------------------------

EDGE_CASES = [
    ("cp", [1], [3], 1),
    ("cp", [2, 1, 3], [4], 5),
    ("tucker", [3], [4], [1, 2]),
    ("tucker", [1, 2], [3], [1, 2, 1]),
    ("tt", [3], [4], [1]),
    ("tt", [1, 3], [2, 1], [1, 2, 1]),
    ("ttm", [2, 3], [3, 1], [1]),
    ("ttm", [1, 2, 1], [2, 1, 3], [1, 2]),
    ("ttm", [10, 10, 10, 10], [2, 2, 2, 4], [3, 4, 2]),
]


def _random_config(kind, rng):
    low = 2 if kind in ("tt", "ttm") else 1
    order = int(rng.integers(low, 5))
    if kind == "ttm":
        row = rng.integers(1, 5, order).tolist()
        col = rng.integers(1, 5, order).tolist()
    else:
        split = int(rng.integers(1, order + 1))
        dims = rng.integers(1, 5, order).tolist()
        row, col = dims[:split], dims[split:]
    count = {"cp": 1, "tucker": order}.get(kind, order - 1)
    ranks = rng.integers(1, 5, count).tolist()
    return kind, row, col, ranks[0] if kind == "cp" else ranks


def _layer(config, rng):
    """A layer with random means, stds and rank variances over six decades."""
    kind, row, col, ranks = config
    layer = factorized.init_layer(kind, row, col, ranks, rng)
    for f in layer.factors:
        f.mean[...] = rng.standard_normal(f.shape)
        f.std[...] = rng.uniform(0.01, 1.0, f.shape)
    for v in layer.rank_variances:
        v[...] = 10.0 ** rng.uniform(-6, 0, v.shape)
    return layer


def _configs():
    rng = np.random.default_rng(0)
    out = list(EDGE_CASES)
    for kind in factorized.KINDS:
        out += [_random_config(kind, rng) for _ in range(12)]
    return out


CONFIGS = _configs()
IDS = [f"{c[0]}-{c[1]}x{c[2]}-r{c[3]}" for c in CONFIGS]


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# -- comparisons --------------------------------------------------------------


@pytest.mark.parametrize("config", CONFIGS, ids=IDS)
class TestMatchesReference:
    def test_prior_variance_arrays(self, config):
        """Gathered through ``prior_slots``, with the rank-variance vectors end
        to end from slot 3 and the weak prior at the last slot, every entry's
        prior variance equals the reference broadcast to its factor."""
        layer = _layer(config, np.random.default_rng(1))
        table = np.concatenate([[0.1, 0.2, 0.3], *layer.rank_variances, [0.7]])
        slots = factorized.prior_slots(layer, 3, table.size - 1)
        want = ref_prior_variance_arrays(layer, 0.7)
        assert len(slots) == len(want) == len(layer.factors)
        for s, w, f in zip(slots, want, layer.factors):
            assert s.dtype == np.intp
            assert_bitwise(table[s], np.broadcast_to(w, f.shape))

    def test_rank_moments_and_counts(self, config):
        layer = _layer(config, np.random.default_rng(2))
        got = factorized.rank_moments(layer)
        want = ref_moments_and_counts(layer)
        assert len(got) == len(want) == len(layer.rank_variances)
        for (gm, gc), (wm, wc) in zip(got, want):
            assert_bitwise(gm, wm)
            assert type(gc) is type(wc) and gc == wc

    def test_rank_var_stats_all(self, config):
        """The per-entry (moments, counts) vectors the rank-variance update
        reads, built from ``rank_moments`` as the update builds them."""
        layer = _layer(config, np.random.default_rng(3))
        got = [(m, np.full(m.shape, c, dtype=np.int64))
               for m, c in factorized.rank_moments(layer)]
        for (gm, gc), (wm, wc) in zip(got, ref_moments_and_counts(layer)):
            assert_bitwise(gm, wm)
            assert_bitwise(gc, np.full(wm.shape, wc, dtype=np.int64))

    @pytest.mark.parametrize("prior", [bayes.LogUniform(), bayes.HalfCauchy(0.3)])
    def test_update_rank_variances(self, config, prior):
        layer = _layer(config, np.random.default_rng(4))
        ref = layer.copy()
        for step in (0.05, 1.0):
            bayes.update_rank_variances(layer, prior, step)
            ref_update_rank_variances(ref, prior, step)
            for g, w in zip(layer.rank_variances, ref.rank_variances):
                assert_bitwise(g, w)

    def test_layer_kl(self, config):
        layer = _layer(config, np.random.default_rng(5))
        prior = bayes.HalfCauchy(0.3)
        want = bayes.gaussian_kl(
            layer.factors, ref_prior_variance_arrays(layer, 1.3)
        ) + bayes.rank_penalty(layer, prior)
        assert bayes.layer_kl(layer, prior, 1.3) == want

    def test_prune(self, config):
        layer = _layer(config, np.random.default_rng(6))
        for threshold in (1e-7, 1e-4, 1e-2, 0.5):
            try:
                want = ref_prune(layer, threshold)
            except RankCollapsedError:
                with pytest.raises(RankCollapsedError):
                    factorized.prune(layer, threshold)
                continue
            got = factorized.prune(layer, threshold)
            assert got.max_ranks == want.max_ranks
            assert len(got.factors) == len(want.factors)
            for g, w in zip(got.factors, want.factors):
                assert_bitwise(g.mean, w.mean)
                assert_bitwise(g.std, w.std)
            for g, w in zip(got.rank_variances, want.rank_variances):
                assert_bitwise(g, w)


# -- validation ---------------------------------------------------------------


def _unvalidated(kind, factors, rank_variances, row_dims, col_dims):
    """A layer object with its fields set but no constructor checks run."""
    layer = object.__new__(FactorizedLayer)
    layer.kind = kind
    layer.factors = factors
    layer.rank_variances = rank_variances
    layer.row_dims = row_dims
    layer.col_dims = col_dims
    return layer


def _accepts(validate, layer):
    # The reference indexes a CP factor's rank axis before checking its
    # order, so a 1-d CP factor raises IndexError there.
    try:
        validate(layer)
    except (ValueError, IndexError):
        return False
    return True


def _shape_mutations(shape):
    """Every shape one axis away: each size one up or down, one axis added or dropped."""
    for axis, size in enumerate(shape):
        for new in (size - 1, size + 1):
            if new >= 1:
                yield shape[:axis] + (new,) + shape[axis + 1:]
    for axis in range(len(shape) + 1):
        yield shape[:axis] + (1,) + shape[axis:]
        yield shape[:axis] + (2,) + shape[axis:]
    if len(shape) > 1:
        for axis in range(len(shape)):
            yield shape[:axis] + shape[axis + 1:]


def _variants(layer):
    """(factors, rank_variances) pairs, each one edit away from ``layer``."""
    factors, rvs = layer.factors, layer.rank_variances
    for n, f in enumerate(factors):
        for shape in _shape_mutations(f.shape):
            mutated = GaussianFactor(np.ones(shape), np.ones(shape))
            yield factors[:n] + [mutated] + factors[n + 1:], rvs
    for n, v in enumerate(rvs):
        yield factors, rvs[:n] + rvs[n + 1:]
        yield factors, rvs[:n] + [v, v] + rvs[n + 1:]
        yield factors, rvs[:n] + [np.ones(v.size + 1)] + rvs[n + 1:]
        if v.size > 1:
            yield factors, rvs[:n] + [np.ones(v.size - 1)] + rvs[n + 1:]
    yield factors, rvs + [np.ones(1)]
    yield factors, []
    yield factors[:-1], rvs
    yield factors + [factors[-1]], rvs


@pytest.mark.parametrize("config", CONFIGS, ids=IDS)
def test_validation_accepts_and_rejects_alike(config):
    kind, row, col, _ = config
    layer = _layer(config, np.random.default_rng(7))
    rejected = 0
    for factors, rvs in _variants(layer):
        candidate = _unvalidated(kind, factors, rvs, list(row), list(col))
        if _accepts(ref_validate_shapes, candidate):
            candidate._validate_shapes()
        else:
            with pytest.raises(ValueError):
                candidate._validate_shapes()
            rejected += 1
    assert rejected > 0
    same = _unvalidated(kind, layer.factors, layer.rank_variances, list(row), list(col))
    assert _accepts(ref_validate_shapes, same)
    same._validate_shapes()


@pytest.mark.parametrize("kind", ["tt", "ttm"])
def test_single_core_and_unequal_ttm_dims_rejected(kind):
    shape = (1, 3, 1) if kind == "tt" else (1, 3, 1, 1)
    core = GaussianFactor(np.ones(shape), np.ones(shape))
    row, col = ([3], []) if kind == "tt" else ([3], [1])
    lone = _unvalidated(kind, [core], [], row, col)
    assert not _accepts(ref_validate_shapes, lone)
    with pytest.raises(ValueError, match="at least 2 cores"):
        lone._validate_shapes()
    if kind == "ttm":
        uneven = _unvalidated(kind, [core, core], [np.ones(1)], [3, 1], [1])
        assert not _accepts(ref_validate_shapes, uneven)
        with pytest.raises(ValueError, match="equal-length"):
            uneven._validate_shapes()


# -- one statement of the table ------------------------------------------------


def test_only_the_format_table_reads_rank_axes():
    """Which factor slices a rank variance governs is stated once, in
    ``factorized``; every other module reads it through ``prior_slots``,
    ``rank_moments``, ``prune`` or the shape checks."""
    package = Path(factorized.__file__).parent
    readers = sorted(p.name for p in package.glob("*.py") if "rank_axes" in p.read_text())
    assert readers == ["factorized.py"]
