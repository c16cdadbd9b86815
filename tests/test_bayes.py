import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from tensorard import bayes
from tensorard.bayes import (
    HalfCauchy,
    LogUniform,
    kl_gaussian,
    kl_gradients,
    layer_kl,
    optimal_rank_var_half_cauchy,
    optimal_rank_var_log_uniform,
    rank_var_stats,
    rank_var_stats_all,
    sample_factors,
    update_rank_variances,
)
from tensorard.factorized import init_layer


def lu_objective(lam, moment_sum, count):
    return count * 0.5 * np.log(lam) + moment_sum / (2 * lam) + 0.5 * np.log(lam)


def hc_objective(lam, moment_sum, count, scale):
    return (
        count * 0.5 * np.log(lam)
        + moment_sum / (2 * lam)
        + np.log1p(lam / scale**2)
    )


def golden_minimize(f, lo=1e-12, hi=1e6):
    xs = np.logspace(np.log10(lo), np.log10(hi), 4000)
    ys = np.array([f(x) for x in xs])
    i = int(np.argmin(ys))
    lo_b, hi_b = xs[max(0, i - 1)], xs[min(len(xs) - 1, i + 1)]
    res = minimize_scalar(
        f, bracket=(lo_b, xs[i], hi_b), method="golden", options={"xtol": 1e-13}
    )
    return float(res.x)


class TestKlGaussian:
    def test_matched_distributions_zero(self):
        assert kl_gaussian(0.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_unit_mean_half(self):
        assert kl_gaussian(1.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_quadrature_oracle(self):
        mu, sigma, var = 0.3, 0.7, 2.0

        def q(x):
            return np.exp(-((x - mu) ** 2) / (2 * sigma**2)) / np.sqrt(
                2 * np.pi * sigma**2
            )

        def p(x):
            return np.exp(-(x**2) / (2 * var)) / np.sqrt(2 * np.pi * var)

        integral, _ = quad(
            lambda x: q(x) * (np.log(q(x)) - np.log(p(x))), -12, 12, limit=200
        )
        assert kl_gaussian(mu, sigma, var) == pytest.approx(integral, abs=1e-8)

    def test_nonnegative_and_zero_only_at_prior(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            mu = rng.normal()
            sigma = rng.uniform(0.01, 3.0)
            var = rng.uniform(0.01, 3.0)
            val = kl_gaussian(mu, sigma, var)
            assert val >= -1e-15
            if abs(mu) > 1e-3 or abs(sigma**2 - var) > 1e-3:
                assert val > 0.0
        assert kl_gaussian(0.0, np.sqrt(1.7), 1.7) == pytest.approx(0.0, abs=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            kl_gaussian(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            kl_gaussian(0.0, 1.0, 0.0)


class TestLogUniformUpdate:
    def test_zero_moment_gives_zero(self):
        for count in (1, 5, 100):
            assert optimal_rank_var_log_uniform(0.0, count) == 0.0

    def test_simple_arithmetic(self):
        assert optimal_rank_var_log_uniform(2.0, 1) == pytest.approx(1.0)

    def test_golden_section_oracle(self):
        got = optimal_rank_var_log_uniform(0.37, 12)
        want = golden_minimize(lambda x: lu_objective(x, 0.37, 12))
        assert abs(got - want) / want < 1e-6

    def test_golden_section_oracle_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = rng.uniform(1e-3, 50.0)
            d = int(rng.integers(1, 500))
            got = optimal_rank_var_log_uniform(m, d)
            want = golden_minimize(lambda x: lu_objective(x, m, d))
            assert abs(got - want) / want < 1e-6


class TestHalfCauchyUpdate:
    def test_zero_moment_gives_zero(self):
        assert optimal_rank_var_half_cauchy(0.0, 4, 0.3) == pytest.approx(0.0, abs=1e-18)

    def test_small_scale_limit_matches_log_uniform(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            m = rng.uniform(1e-3, 20.0)
            d = int(rng.integers(1, 300))
            hc = optimal_rank_var_half_cauchy(m, d, 1e-8)
            lu = optimal_rank_var_log_uniform(m, d)
            assert abs(hc - lu) / lu < 1e-6

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = rng.uniform(0.0, 10.0)
            d = int(rng.integers(1, 100))
            eta = rng.uniform(1e-3, 10.0)
            assert optimal_rank_var_half_cauchy(m, d, eta) >= 0.0

    def test_monotone_in_moment_sum(self):
        d, eta = 7, 0.4
        values = [optimal_rank_var_half_cauchy(m, d, eta) for m in np.linspace(0, 20, 50)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_shrinks_with_smaller_scale(self):
        m, d = 3.0, 10
        big = optimal_rank_var_half_cauchy(m, d, 10.0)
        small = optimal_rank_var_half_cauchy(m, d, 0.01)
        assert small < big

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "The published closed form (denominator 2D+2) is not the exact "
            "minimizer of the half-Cauchy-regularized KL objective; the exact "
            "minimizer has denominator 2D+4 with the identical discriminant, "
            "but then its small-scale limit would be M/(D+2), contradicting the "
            "pinned M/(D+1) limit.  The two requirements are mutually exclusive; "
            "the published form (which satisfies the limit) is implemented."
        ),
    )
    def test_golden_section_oracle(self):
        got = optimal_rank_var_half_cauchy(1.0, 4, 0.5)
        want = golden_minimize(lambda x: hc_objective(x, 1.0, 4, 0.5))
        assert abs(got - want) / want < 1e-6


class TestRankVarStats:
    def test_cp_count_is_sum_of_mode_sizes(self):
        rng = np.random.default_rng(1)
        layer = init_layer("cp", [2], [3], 2, rng)
        _, count = rank_var_stats(layer, 0, 0)
        assert count == 5

    def test_zero_layer_gives_zero_moment(self):
        rng = np.random.default_rng(2)
        layer = init_layer("cp", [2], [3], 2, rng)
        for f in layer.factors:
            f.mean[...] = 0.0
            f.std[...] = 0.0
        moment, _ = rank_var_stats(layer, 0, 1)
        assert moment == 0.0

    def test_tt_shared_bond_counts_both_cores(self):
        rng = np.random.default_rng(3)
        layer = init_layer("tt", [2], [2], [3], rng)
        assert [f.shape for f in layer.factors] == [(1, 2, 3), (3, 2, 1)]
        _, count = rank_var_stats(layer, 0, 0)
        assert count == 1 * 2 + 2 * 1

    def test_moment_matches_explicit_sum(self):
        rng = np.random.default_rng(4)
        layer = init_layer("tt", [3, 4], [5], [2, 3], rng)
        k = 1
        moment, count = rank_var_stats(layer, 1, k)  # shared bond vector
        f1, f2 = layer.factors[1], layer.factors[2]
        want = float(
            (f1.mean[:, :, k] ** 2 + f1.std[:, :, k] ** 2).sum()
            + (f2.mean[k] ** 2 + f2.std[k] ** 2).sum()
        )
        assert moment == pytest.approx(want, rel=1e-12)
        assert count == f1.mean[:, :, k].size + f2.mean[k].size

    def test_tucker_counts_one_column(self):
        rng = np.random.default_rng(5)
        layer = init_layer("tucker", [3, 4], [5], [2, 2, 2], rng)
        _, count = rank_var_stats(layer, 1, 0)
        assert count == 4

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(6)
        for kind, row, col, ranks in [
            ("cp", [3, 4], [5], 4),
            ("tucker", [3, 4], [5], [2, 3, 2]),
            ("tt", [3, 4], [5], [2, 3]),
            ("ttm", [3, 4], [2, 3], [3]),
        ]:
            layer = init_layer(kind, row, col, ranks, rng)
            for v, (moments, counts) in enumerate(rank_var_stats_all(layer)):
                for k in range(moments.size):
                    m, c = rank_var_stats(layer, v, k)
                    assert m == pytest.approx(float(moments[k]), rel=1e-12)
                    assert c == int(counts[k])

    def test_out_of_range_rejected(self):
        rng = np.random.default_rng(7)
        layer = init_layer("cp", [3], [4], 2, rng)
        with pytest.raises(IndexError):
            rank_var_stats(layer, 1, 0)
        with pytest.raises(IndexError):
            rank_var_stats(layer, 0, 2)


class TestKlGradients:
    def test_stationary_point(self):
        rng = np.random.default_rng(8)
        layer = init_layer("cp", [3], [4], 2, rng)
        lam = 0.7
        layer.rank_variances[0][:] = lam
        for f in layer.factors:
            f.mean[...] = 0.0
            f.std[...] = np.sqrt(lam)
        for d_mean, d_std in kl_gradients(layer):
            np.testing.assert_allclose(d_mean, 0.0, atol=1e-14)
            np.testing.assert_allclose(d_std, 0.0, atol=1e-12)

    def test_plug_in_value(self):
        rng = np.random.default_rng(9)
        layer = init_layer("cp", [1], [1], 1, rng)
        layer.rank_variances[0][:] = 2.0
        layer.factors[0].mean[...] = 1.0
        d_mean, _ = kl_gradients(layer)[0]
        assert d_mean[0, 0] == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "kind,row,col,ranks",
        [
            ("cp", [3, 4], [5], 3),
            ("tucker", [3, 4], [5], [2, 2, 2]),
            ("tt", [3, 4], [5], [2, 3]),
            ("ttm", [3, 4], [2, 3], [3]),
        ],
    )
    def test_matches_finite_differences_of_layer_kl(self, kind, row, col, ranks):
        rng = np.random.default_rng(10)
        layer = init_layer(kind, row, col, ranks, rng)
        for f in layer.factors:
            f.mean[...] = rng.uniform(-1, 1, f.shape)
            f.std[...] = rng.uniform(0.1, 0.8, f.shape)
        prior = LogUniform()
        weak_var = 1.3
        grads = kl_gradients(layer, weak_var)
        h = 1e-6
        for fi, f in enumerate(layer.factors):
            for arr, grad in ((f.mean, grads[fi][0]), (f.std, grads[fi][1])):
                flat = arr.reshape(-1)
                gf = grad.reshape(-1)
                for j in range(0, flat.size, 7):  # stride to keep it quick
                    orig = flat[j]
                    flat[j] = orig + h
                    up = layer_kl(layer, prior, weak_var)
                    flat[j] = orig - h
                    down = layer_kl(layer, prior, weak_var)
                    flat[j] = orig
                    numeric = (up - down) / (2 * h)
                    rel = abs(numeric - gf[j]) / max(abs(numeric), abs(gf[j]), 1e-8)
                    assert rel < 1e-6

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(11)
        layer = init_layer("cp", [3, 4], [5], 3, rng)
        a = kl_gradients(layer)
        b = kl_gradients(layer)
        for (am, astd), (bm, bstd) in zip(a, b):
            np.testing.assert_array_equal(am, bm)
            np.testing.assert_array_equal(astd, bstd)


class TestSampling:
    def test_same_seed_identical(self):
        rng = np.random.default_rng(12)
        layer = init_layer("tt", [3, 4], [5], [2, 3], rng)
        p1, z1 = sample_factors(layer, np.random.default_rng(99))
        p2, z2 = sample_factors(layer, np.random.default_rng(99))
        for a, b in zip(p1 + z1, p2 + z2):
            np.testing.assert_array_equal(a, b)

    def test_reparameterization_identity(self):
        rng = np.random.default_rng(13)
        layer = init_layer("cp", [3], [4], 2, rng)
        points, noises = sample_factors(layer, np.random.default_rng(0))
        for f, p, z in zip(layer.factors, points, noises):
            np.testing.assert_allclose(p, f.mean + z * f.std, atol=0)

    def test_monte_carlo_stddev(self):
        rng = np.random.default_rng(14)
        layer = init_layer("cp", [1], [1], 1, rng)
        layer.factors[0].mean[...] = 0.0
        layer.factors[0].std[...] = 2.0
        draws = np.empty(100_000)
        stream = np.random.default_rng(21)
        for i in range(draws.size):
            points, _ = sample_factors(layer, stream)
            draws[i] = points[0][0, 0]
        assert 1.98 <= draws.std() <= 2.02


class TestRankVarianceUpdate:
    def test_zero_step_freezes(self):
        rng = np.random.default_rng(15)
        layer = init_layer("cp", [3], [4], 2, rng)
        before = layer.rank_variances[0].copy()
        update_rank_variances(layer, LogUniform(), 0.0)
        np.testing.assert_array_equal(layer.rank_variances[0], before)

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(16)
        for step in (0.0, 0.3, 1.0):
            layer = init_layer("tt", [3, 4], [5], [2, 3], rng)
            before = [v.copy() for v in layer.rank_variances]
            optima = []
            for moments, counts in rank_var_stats_all(layer):
                optima.append(
                    np.array(
                        [
                            optimal_rank_var_log_uniform(float(m), int(c))
                            for m, c in zip(moments, counts)
                        ]
                    )
                )
            update_rank_variances(layer, LogUniform(), step)
            for v, b, o in zip(layer.rank_variances, before, optima):
                lo = np.minimum(b, o) - 1e-15
                hi = np.maximum(b, o) + 1e-15
                assert np.all(v >= np.minimum(lo, 1e-12))
                assert np.all(v <= hi)

    def test_full_step_hits_optimum(self):
        rng = np.random.default_rng(17)
        layer = init_layer("tucker", [3, 4], [5], [2, 2, 2], rng)
        update_rank_variances(layer, HalfCauchy(0.5), 1.0)
        for v, (moments, counts) in zip(
            layer.rank_variances, rank_var_stats_all(layer)
        ):
            want = [
                max(optimal_rank_var_half_cauchy(float(m), int(c), 0.5), 1e-12)
                for m, c in zip(moments, counts)
            ]
            np.testing.assert_allclose(v, want, rtol=1e-12)

    # The scalar closed forms as they were before they took arrays, applied
    # one rank entry at a time: the reference the vectorised update must
    # match bit for bit.
    @staticmethod
    def _scalar_log_uniform(moment_sum, count):
        return moment_sum / (count + 1)

    @staticmethod
    def _scalar_half_cauchy(moment_sum, count, scale):
        m, d, s2 = float(moment_sum), float(count), scale * scale
        disc = m * m + (2 * d + 8) * s2 * m + s2 * s2 * d * d
        return (m - s2 * d + math.sqrt(disc)) / (2 * d + 2)

    def _loop_update(self, layer, prior, step):
        for v, (moments, counts) in zip(layer.rank_variances, rank_var_stats_all(layer)):
            if isinstance(prior, HalfCauchy):
                optima = [self._scalar_half_cauchy(float(m), int(c), prior.scale)
                          for m, c in zip(moments, counts)]
            else:
                optima = [self._scalar_log_uniform(float(m), int(c))
                          for m, c in zip(moments, counts)]
            v *= 1.0 - step
            v += step * np.array(optima)
            np.maximum(v, 1e-12, out=v)

    @pytest.mark.parametrize("prior", [LogUniform(), HalfCauchy(0.3), HalfCauchy(1e-3)],
                             ids=["log_uniform", "half_cauchy_0.3", "half_cauchy_1e-3"])
    @pytest.mark.parametrize("kind,row,col,ranks", [
        ("cp", [3, 4], [5], 6),
        ("tucker", [3, 4], [5], [2, 3, 4]),
        ("tt", [3, 4, 2], [5], [2, 5, 3]),
        ("ttm", [3, 4, 2], [2, 3, 2], [4, 3]),
    ])
    def test_vectorised_update_equals_scalar_loop_bitwise(self, kind, row, col, ranks, prior):
        rng = np.random.default_rng(18)
        layer = init_layer(kind, row, col, ranks, rng)
        for f in layer.factors:
            f.mean *= rng.uniform(0.0, 3.0, size=f.shape)
        want = layer.copy()
        for step in (1.0, 0.3, 0.1):
            self._loop_update(want, prior, step)
            update_rank_variances(layer, prior, step)
            for v, w in zip(layer.rank_variances, want.rank_variances):
                np.testing.assert_array_equal(v, w)
        for moments, counts in rank_var_stats_all(layer):
            for m, c in zip(moments, counts):
                got = prior.optimal_rank_var(float(m), int(c))
                if isinstance(prior, HalfCauchy):
                    assert got == self._scalar_half_cauchy(m, c, prior.scale)
                else:
                    assert got == self._scalar_log_uniform(float(m), int(c))

    def test_rejects_bad_moments_or_counts_in_a_vector(self):
        with pytest.raises(ValueError, match="nonnegative"):
            optimal_rank_var_log_uniform(np.array([1.0, -1e-9]), np.array([3, 3]))
        with pytest.raises(ValueError, match="at least 1"):
            optimal_rank_var_half_cauchy(np.array([1.0, 2.0]), np.array([3, 0]), 0.5)


class TestHyperPriorObjects:
    def test_half_cauchy_requires_positive_scale(self):
        with pytest.raises(ValueError):
            HalfCauchy(0.0)

    def test_config_round_trip(self):
        assert isinstance(bayes.hyper_prior_from_config({"kind": "log_uniform"}), LogUniform)
        hc = bayes.hyper_prior_from_config({"kind": "half_cauchy", "scale": 0.2})
        assert isinstance(hc, HalfCauchy) and hc.scale == 0.2

    def test_penalties_prefer_small_variances(self):
        for prior in (LogUniform(), HalfCauchy(0.5)):
            assert prior.penalty(0.01) < prior.penalty(1.0) < prior.penalty(100.0)
