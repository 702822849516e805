import dataclasses
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ks_2samp

from conftest import kernel_moments, make_model
from oracles import column_sum, untiled_block
from quantogreeks import (
    SimConfig,
    SimScheme,
    TuningFunction,
    VolatilityCurve,
    draw_samples,
    sample_block,
)
from quantogreeks.config import build_run, load_config
from quantogreeks.model import CorrelationMode
from quantogreeks.simulate import (BLOCK_SIZE, TILE_SIZE, SampleDraw, _block_generator,
                                   _build_plan, _draw_block, _temperature_level, block_count,
                                   iter_sample_blocks)

GAUSSIAN_FIELDS = ("gE", "gI", "iE", "iI", "iE_cross", "gI_cross")
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


    @pytest.mark.parametrize("driftI", [None, 0.0, -0.0], ids=["drawn", "zero", "minus-zero"])
    @pytest.mark.parametrize("rho", [0.0, -0.0])
    def test_zero_rho_level_skips_the_mix_bit_for_bit(self, uniform_tuning, rho, driftI):
        # gI + driftI instead of rho * gI_cross + sqrt(1 - rho^2) * gI + driftI: the sign
        # of a zero driver is all that may differ, and the drift or exp erases it
        model = make_model(rho=rho, sigI=0.4, mode=CorrelationMode.SDE_MIXING)
        plan = _build_plan(model, uniform_tuning, SimScheme.exact())
        if driftI is not None:
            plan = dataclasses.replace(plan, driftI=driftI)
        draw = draw_samples(model, uniform_tuning, SimConfig(1000, seed=36))
        gI = draw.gI.copy()
        gI[:2] = (0.0, -0.0)
        full = np.exp(rho * draw.gI_cross + float(np.sqrt(1.0 - rho * rho)) * gI
                      + plan.driftI) * plan.f0I
        assert _temperature_level(plan, rho, gI, draw.gI_cross).tobytes() == full.tobytes()


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

    def test_factored_fine_grid_matches_exact_law(self, atm_model, uniform_tuning):
        # constant coefficients: the 250-step grid draws one normal per driver
        n = 100_000
        exact = draw_samples(atm_model, uniform_tuning, SimConfig(n, seed=12))
        euler = draw_samples(
            atm_model, uniform_tuning, SimConfig(n, seed=13, scheme=SimScheme.log_euler(250))
        )
        for name in ("fE_T", "iE"):
            assert ks_2samp(getattr(exact, name), getattr(euler, name)).statistic < 0.01, name

    @pytest.mark.parametrize("make", [SimScheme.log_euler,
                                      lambda steps: SimScheme("euler", steps)])
    @pytest.mark.parametrize("steps", [2.5, 2.0, True])
    def test_rejects_a_step_count_that_is_not_an_integer(self, make, steps):
        # log_euler truncated 2.5 to 2 steps; the constructor let a bare
        # TypeError out of the draw
        with pytest.raises(ValueError, match="steps must be an integer"):
            make(steps)

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

    # Constant sigma_E with uniform tuning makes the energy kernel a multiple of
    # sigma_E, while the piecewise sigma_I column is not: rank 2 on both drivers,
    # where truncating an unpivoted QR to two rows would drop part of sigma_I.
    @pytest.mark.parametrize("sigE_segments,tuning,rank", [
        (((0.0, 0.15), (0.37, 0.28)), TUNING, 3),
        (((0.0, 0.0), (0.5, 0.3)), TUNING, 3),
        (((0.0, 0.2),), TuningFunction.uniform(1.0), 2),
    ], ids=["full-rank", "full-rank-zero-vol", "collinear-leading-columns"])
    def test_factor_reproduces_accumulator_covariance(self, sigE_segments, tuning, rank):
        m = _piecewise_model(sigE_segments)
        steps = 64
        plan = _build_plan(m, tuning, SimScheme.log_euler(steps))
        dt = np.full(steps, 1.0 / steps)
        loads = _driver_loads(m, tuning, np.linspace(0.0, 1.0, steps + 1)[:-1])
        assert plan.loadE.shape[1] == rank
        for factor, columns in zip((plan.loadE, plan.loadI), loads):
            K = np.column_stack(columns)
            R = factor.T
            np.testing.assert_allclose(R.T @ R, K.T @ (dt[:, None] * K), rtol=1e-12, atol=1e-12)

    def test_factor_draws_one_normal_per_rank(self, atm_model, uniform_tuning):
        scheme = SimScheme.log_euler(250)
        assert _build_plan(atm_model, uniform_tuning, scheme).loadE.shape[1] == 1
        collar = build_run(load_config(str(CONFIGS / "correlated_collar.cfg")))
        assert _build_plan(collar.model, collar.tuning, scheme).loadE.shape[1] == 2

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
        loadsE, loadsI = (np.stack(columns) * np.sqrt(dt)
                          for columns in _driver_loads(m, self.TUNING, edges[:-1]))

        z = _block_generator(seed, 0).standard_normal((n, len(dt), 2))
        expected = dict(zip(("gE", "iE", "gI_cross"),
                            (column_sum(z[:, :, 0], load) for load in loadsE)))
        expected.update(zip(("gI", "iI", "iE_cross"),
                            (column_sum(z[:, :, 1], load) for load in loadsI)))
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


def _assert_same_bits(got, expected):
    for f in dataclasses.fields(SampleDraw):
        a, b = getattr(got, f.name), getattr(expected, f.name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name


class TestTiles:
    """The tiled draw has the bits of one standard_normal call per block."""

    MODEL_ARGS = dict(rho=0.4, sigI=0.3)
    TUNING = TuningFunction.from_segments([(0.0, 2.0), (0.5, 0.0)], 1.0)
    UNIFORM = TuningFunction.uniform(1.0)
    # (sample count, antithetic, block): k tiles, k tiles plus one row, k tiles
    # plus one pair, a full block and a partial last block
    CASES = [(2 * TILE_SIZE, False, 0), (2 * TILE_SIZE + 1, False, 0),
             (TILE_SIZE + 2, True, 0), (3 * TILE_SIZE + 2, True, 0),
             (BLOCK_SIZE + 5, False, 0), (BLOCK_SIZE + 2 * TILE_SIZE + 7, False, 1),
             (BLOCK_SIZE + TILE_SIZE + 2, True, 1)]
    # (mode, scheme, tuning, sigE). Constant volatility with uniform tuning is
    # a one-segment exact grid, where each accumulator is one product of a
    # normal and its load; sigE = 0 makes the energy loads zero. On a 16-step
    # grid the same coefficients factor to rank 1: one normal per driver. An
    # energy break at 0.25 with the tuning's at 0.5 is a three-segment exact
    # grid of rank 3, the longest column sum.
    THREE_SEGMENTS = ((0.0, 0.2), (0.25, 0.3))
    SETUPS = [*itertools.product(CorrelationMode, [SimScheme.exact(), SimScheme.log_euler(16)],
                                 [TUNING], [0.2]),
              *itertools.product(CorrelationMode, [SimScheme.exact()], [UNIFORM], [0.2, 0.0]),
              *itertools.product(CorrelationMode, [SimScheme.log_euler(16)], [UNIFORM], [0.2]),
              *itertools.product(CorrelationMode, [SimScheme.exact()], [TUNING],
                                 [THREE_SEGMENTS])]
    SETUP_IDS = [f"{mode.value}-{setup}" for setups in (["exact", "euler:16"],
                                                          ["one-segment", "one-segment-zero-load"],
                                                          ["factored-rank-1"], ["three-segment"])
                 for mode, setup in itertools.product(CorrelationMode, setups)]

    @classmethod
    def _model(cls, mode, sigE):
        """The setup's model; ``sigE`` is a constant level or (start, level) segments."""
        if isinstance(sigE, float):
            return make_model(mode=mode, sigE=sigE, **cls.MODEL_ARGS)
        return dataclasses.replace(make_model(mode=mode, **cls.MODEL_ARGS),
                                   energy_vol=VolatilityCurve.from_segments(sigE, 1.0))

    @pytest.mark.parametrize("mode,scheme,tuning,sigE", SETUPS, ids=SETUP_IDS)
    @pytest.mark.parametrize("n,antithetic,block", CASES)
    def test_sample_block_equals_untiled_draw(self, mode, scheme, tuning, sigE, n, antithetic,
                                              block):
        model = self._model(mode, sigE)
        cfg = SimConfig(n, seed=33, antithetic=antithetic, scheme=scheme)
        _assert_same_bits(sample_block(model, tuning, cfg, block),
                          untiled_block(model, tuning, cfg, block))

    @pytest.mark.parametrize("mode,scheme,tuning,sigE", SETUPS, ids=SETUP_IDS)
    def test_buffered_draw_equals_untiled_draw(self, mode, scheme, tuning, sigE):
        # one set of buffers, reused across configs and blocks as a pass reuses them
        model = self._model(mode, sigE)
        plan = _build_plan(model, tuning, scheme)
        buffers = SampleDraw(*np.full((len(dataclasses.fields(SampleDraw)), BLOCK_SIZE), np.nan))
        for n, antithetic, _ in self.CASES:
            cfg = SimConfig(n, seed=34, antithetic=antithetic, scheme=scheme)
            for block in range(block_count(n)):
                got = _draw_block(plan, cfg, block, buffers)
                assert np.shares_memory(got.fE_T, buffers.fE_T)
                _assert_same_bits(got, untiled_block(model, tuning, cfg, block))

    def test_streamed_blocks_share_no_memory(self, atm_model, uniform_tuning):
        first, second = iter_sample_blocks(atm_model, uniform_tuning,
                                           SimConfig(BLOCK_SIZE + 10, seed=35))
        for f, g in itertools.product(dataclasses.fields(SampleDraw), repeat=2):
            assert not np.shares_memory(getattr(first, f.name), getattr(second, g.name))


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
        assert len(short.fE_T) == 70_000 and BLOCK_SIZE < 70_000 * 2
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

    def test_unknown_scheme_kind_rejected(self, atm_model, uniform_tuning):
        cfg = SimConfig(10, seed=0, scheme=SimScheme("bogus", 0))
        with pytest.raises(ValueError, match="^unknown scheme kind 'bogus'$"):
            sample_block(atm_model, uniform_tuning, cfg, 0)

    def test_tuning_horizon_must_match_the_model(self, atm_model):
        with pytest.raises(ValueError, match="^tuning function horizon must match"):
            sample_block(atm_model, TuningFunction.uniform(2.0), SimConfig(10, seed=0), 0)
