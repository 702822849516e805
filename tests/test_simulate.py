import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from conftest import kernel_moments, make_model
from quantogreeks import (
    SimConfig,
    SimScheme,
    TuningFunction,
    VolatilityCurve,
    draw_samples,
    sample_block,
)
from quantogreeks.model import CorrelationMode
from quantogreeks.simulate import BLOCK_SIZE, _block_generator, _build_plan

GAUSSIAN_FIELDS = ("gE", "gI", "iE", "iI", "iE_cross", "gI_cross")


def _stderr(x):
    return x.std(ddof=1) / np.sqrt(len(x))


class TestExactTerminal:
    def test_degenerate_volatility_gives_constant_price(self, uniform_tuning):
        m = make_model(sigE=0.0)
        draw = draw_samples(m, uniform_tuning, SimConfig(1000, seed=1))
        assert np.all(draw.fE_T == 100.0)

    def test_terminal_prices_are_martingales(self, atm_model, uniform_tuning):
        draw = draw_samples(atm_model, uniform_tuning, SimConfig(1_000_000, seed=2))
        for leg, f0 in ((draw.fE_T, 100.0), (draw.fI_T, 100.0)):
            assert abs(leg.mean() - f0) < 4.0 * _stderr(leg)

    def test_constant_vol_makes_weight_integral_proportional_to_return(self, atm_model, uniform_tuning):
        # gE = sigma * W and iE = W / sigma share one Gaussian, so the sample
        # correlation is 1 up to rounding: v_as / sqrt(v_aa v_ss) = 1.
        draw = draw_samples(atm_model, uniform_tuning, SimConfig(50_000, seed=3))
        corr = np.corrcoef(draw.gE, draw.iE)[0, 1]
        assert corr == pytest.approx(1.0, abs=1e-12)

    def test_moments_match_kernel_integrals(self, uniform_tuning):
        m = make_model(sigE=0.2, sigI=0.4)
        v_aa, v_as, v_ss = kernel_moments(m.energy_vol, uniform_tuning)
        draw = draw_samples(m, uniform_tuning, SimConfig(1_000_000, seed=4))
        assert draw.gE.var(ddof=1) == pytest.approx(v_ss, abs=4 * np.sqrt(2 / 1e6) * v_ss)
        assert draw.iE.var(ddof=1) == pytest.approx(v_aa, abs=4 * np.sqrt(2 / 1e6) * v_aa)
        cov = np.cov(draw.gE, draw.iE)[0, 1]
        se_cov = np.sqrt((draw.gE.var() * draw.iE.var() + cov**2) / 1e6)
        assert cov == pytest.approx(v_as, abs=4 * se_cov)

    def test_piecewise_curves_still_exact(self):
        m = dataclasses.replace(
            make_model(),
            energy_vol=VolatilityCurve.from_segments([(0.0, 0.1), (0.5, 0.3)], 1.0),
        )
        a = TuningFunction.from_segments([(0.0, 2.0), (0.5, 0.0)], 1.0)
        v_aa, v_as, v_ss = kernel_moments(m.energy_vol, a)
        draw = draw_samples(m, a, SimConfig(500_000, seed=5))
        assert draw.gE.var(ddof=1) == pytest.approx(v_ss, rel=0.02)
        assert draw.iE.var(ddof=1) == pytest.approx(v_aa, rel=0.02)
        assert np.cov(draw.gE, draw.iE)[0, 1] == pytest.approx(v_as, abs=0.02)


class TestSdeMixing:
    def test_martingale_and_log_correlation(self, uniform_tuning):
        m = make_model(rho=0.6, sigI=0.4, mode=CorrelationMode.SDE_MIXING)
        draw = draw_samples(m, uniform_tuning, SimConfig(500_000, seed=6))
        assert abs(draw.fI_T.mean() - 100.0) < 4.0 * _stderr(draw.fI_T)
        corr = np.corrcoef(np.log(draw.fE_T), np.log(draw.fI_T))[0, 1]
        assert corr == pytest.approx(0.6, abs=0.01)

    def test_payoff_mixing_keeps_legs_independent(self, uniform_tuning):
        m = make_model(rho=0.6, sigI=0.4)
        draw = draw_samples(m, uniform_tuning, SimConfig(500_000, seed=6))
        corr = np.corrcoef(np.log(draw.fE_T), np.log(draw.fI_T))[0, 1]
        assert corr == pytest.approx(0.0, abs=0.01)


class TestLogEuler:
    def test_single_step_matches_exact_law(self, atm_model, uniform_tuning):
        n = 100_000
        exact = draw_samples(atm_model, uniform_tuning, SimConfig(n, seed=7))
        euler = draw_samples(
            atm_model, uniform_tuning, SimConfig(n, seed=8, scheme=SimScheme.log_euler(1))
        )
        stat = ks_2samp(exact.fE_T, euler.fE_T).statistic
        assert stat < 0.01

    def test_weight_integral_mean_and_variance(self, atm_model, uniform_tuning):
        cfg = SimConfig(250_000, seed=9, scheme=SimScheme.log_euler(256))
        draw = draw_samples(atm_model, uniform_tuning, cfg)
        assert abs(draw.iE.mean()) < 3.0 * _stderr(draw.iE)
        v_aa = 25.0
        se_var = np.sqrt(2.0 / len(draw.iE)) * v_aa
        assert draw.iE.var(ddof=1) == pytest.approx(v_aa, abs=3 * se_var)

    def test_many_steps_distribution_matches_exact(self, uniform_tuning):
        # piecewise curve not aligned with the uniform grid: euler converges
        m = dataclasses.replace(
            make_model(),
            energy_vol=VolatilityCurve.from_segments([(0.0, 0.15), (0.37, 0.28)], 1.0),
        )
        n = 100_000
        exact = draw_samples(m, uniform_tuning, SimConfig(n, seed=10))
        euler = draw_samples(
            m, uniform_tuning, SimConfig(n, seed=11, scheme=SimScheme.log_euler(512))
        )
        assert ks_2samp(exact.fE_T, euler.fE_T).statistic < 0.01

    def test_rejects_zero_steps(self, atm_model, uniform_tuning):
        with pytest.raises(ValueError):
            draw_samples(atm_model, uniform_tuning,
                         SimConfig(10, seed=0, scheme=SimScheme.log_euler(0)))


def _piecewise_model(sigE_segments, mode=CorrelationMode.PAYOFF_MIXING):
    return dataclasses.replace(
        make_model(rho=0.4, mode=mode),
        energy_vol=VolatilityCurve.from_segments(sigE_segments, 1.0),
        temperature_vol=VolatilityCurve.from_segments([(0.0, 0.4), (0.6, 0.25)], 1.0),
    )


def _driver_loads(model, tuning, t_left):
    """Accumulator kernels at the left points: (gE, iE, gI_cross), (gI, iI, iE_cross)."""
    sigE = model.energy_vol.values_on_grid(t_left)
    sigI = model.temperature_vol.values_on_grid(t_left)
    av = tuning.values_on_grid(t_left)
    kernE = np.where(sigE > 0.0, av / np.where(sigE > 0.0, sigE, 1.0), 0.0)
    kernI = av / sigI
    return (sigE, kernE, sigI), (sigI, kernI, kernE)


class TestFixedRankSampler:
    TUNING = TuningFunction.from_segments([(0.0, 0.5), (0.6, 1.75)], 1.0)

    @pytest.mark.parametrize("sigE_segments", [((0.0, 0.15), (0.37, 0.28)),
                                               ((0.0, 0.0), (0.5, 0.3))])
    def test_factor_reproduces_accumulator_covariance(self, sigE_segments):
        m = _piecewise_model(sigE_segments)
        steps = 64
        plan = _build_plan(m, self.TUNING, SimScheme.log_euler(steps))
        dt = np.full(steps, 1.0 / steps)
        loads = _driver_loads(m, self.TUNING, np.linspace(0.0, 1.0, steps + 1)[:-1])
        assert np.array_equal(plan.scale, np.ones(3))
        for factor, columns in zip((plan.loadE, plan.loadI), loads):
            K = np.column_stack(columns)
            R = factor.T
            np.testing.assert_allclose(R.T @ R, K.T @ (dt[:, None] * K), rtol=1e-12, atol=1e-12)

    def test_rank_deficient_loads_give_finite_draw(self):
        # sigma_E = 0 on the first half zeroes both energy columns there, and
        # with uniform tuning the energy kernel is proportional to sigma_E: rank 2.
        m = _piecewise_model(((0.0, 0.0), (0.5, 0.3)))
        tuning = TuningFunction.uniform(1.0)
        energy_columns, _ = _driver_loads(m, tuning, np.linspace(0.0, 1.0, 65)[:-1])
        assert np.linalg.matrix_rank(np.column_stack(energy_columns)) == 2
        draw = sample_block(m, tuning, SimConfig(1000, seed=30, scheme=SimScheme.log_euler(64)), 0)
        for name in ("fE_T", "fI_T") + GAUSSIAN_FIELDS:
            assert np.all(np.isfinite(getattr(draw, name)))

    @pytest.mark.parametrize("scheme", [SimScheme.log_euler(2), SimScheme.exact()])
    def test_few_segments_keep_per_segment_stream(self, scheme):
        m = _piecewise_model(((0.0, 0.15), (0.3, 0.28)), mode=CorrelationMode.SDE_MIXING)
        n, seed = 5000, 31
        if scheme.kind == "exact":
            edges = np.array([0.0, 0.3, 0.6, 1.0])
        else:
            edges = np.linspace(0.0, 1.0, scheme.steps + 1)
        dt = np.diff(edges)
        columnsE, columnsI = _driver_loads(m, self.TUNING, edges[:-1])

        z = _block_generator(seed, 0).standard_normal((n, len(dt), 2))
        dwE = z[:, :, 0] * np.sqrt(dt)
        dwI = z[:, :, 1] * np.sqrt(dt)
        expected = dict(zip(("gE", "iE", "gI_cross"), (dwE @ c for c in columnsE)))
        expected.update(zip(("gI", "iI", "iE_cross"), (dwI @ c for c in columnsI)))
        draw = sample_block(m, self.TUNING, SimConfig(n, seed=seed, scheme=scheme), 0)
        for name, value in expected.items():
            assert np.array_equal(getattr(draw, name), value), name

    def test_block_memory_does_not_grow_with_steps(self, atm_model, uniform_tuning):
        def peak(steps):
            cfg = SimConfig(4096, seed=32, scheme=SimScheme.log_euler(steps))
            tracemalloc.start()
            try:
                sample_block(atm_model, uniform_tuning, cfg, 0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1000) <= 2 * peak(4)


class TestAntithetic:
    def test_interleaved_stream_negates_odd_draws(self, atm_model, uniform_tuning):
        cfg = SimConfig(10_000, seed=14, antithetic=True)
        draw = draw_samples(atm_model, uniform_tuning, cfg)
        assert np.array_equal(draw.gE[1::2], -draw.gE[0::2])
        assert np.array_equal(draw.iI[1::2], -draw.iI[0::2])
        for name in GAUSSIAN_FIELDS:
            assert np.array_equal(getattr(draw, name)[1::2], -getattr(draw, name)[0::2]), name

    def test_paired_mean_estimator_has_lower_variance(self, atm_model, uniform_tuning):
        n = 100_000
        plain = draw_samples(atm_model, uniform_tuning, SimConfig(n, seed=15))
        anti = draw_samples(atm_model, uniform_tuning, SimConfig(n, seed=15, antithetic=True))
        pair_means = anti.fE_T.reshape(-1, 2).mean(axis=1)
        var_plain = plain.fE_T.var(ddof=1) / n
        var_anti = pair_means.var(ddof=1) / (n // 2)
        assert var_anti < var_plain

    def test_odd_count_rejected(self, atm_model, uniform_tuning):
        with pytest.raises(ValueError):
            draw_samples(atm_model, uniform_tuning, SimConfig(11, seed=0, antithetic=True))


class TestReproducibility:
    def test_same_seed_bitwise_identical(self, atm_model, uniform_tuning):
        cfg = SimConfig(200_000, seed=16)
        a = draw_samples(atm_model, uniform_tuning, cfg)
        b = draw_samples(atm_model, uniform_tuning, cfg)
        assert np.array_equal(a.fE_T, b.fE_T)
        assert np.array_equal(a.iI, b.iI)

    def test_longer_run_extends_shorter_one(self, atm_model, uniform_tuning):
        # crosses a block boundary: the counter-based stream is a prefix code
        short = draw_samples(atm_model, uniform_tuning, SimConfig(70_000, seed=17))
        long = draw_samples(atm_model, uniform_tuning, SimConfig(140_000, seed=17))
        assert len(short) == 70_000 and BLOCK_SIZE < 70_000 * 2
        assert np.array_equal(long.fE_T[:70_000], short.fE_T)

    def test_blocks_are_pure_functions_of_index(self, atm_model, uniform_tuning):
        cfg = SimConfig(150_000, seed=18)
        full = draw_samples(atm_model, uniform_tuning, cfg)
        b1 = sample_block(atm_model, uniform_tuning, cfg, 1)
        assert np.array_equal(full.gE[BLOCK_SIZE:2 * BLOCK_SIZE], b1.gE)

    def test_config_validation(self, atm_model, uniform_tuning):
        with pytest.raises(ValueError):
            draw_samples(atm_model, uniform_tuning, SimConfig(0, seed=0))
        with pytest.raises(ValueError):
            sample_block(atm_model, uniform_tuning, SimConfig(10, seed=0), 5)
