import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_model
from quantogreeks import (
    DigitalProduct,
    FourStrikeCollar,
    PiecewiseLinear,
    ProductCall,
    Separable,
    SimConfig,
    TuningFunction,
    WeightVariant,
    convergence_table,
    draw_samples,
    fd_greek,
    mc_estimates,
    mc_greek,
    mc_price,
    quad_greek,
    quad_price,
    residual_risk,
    sample_block,
    validate_model,
    weight_for,
)
from quantogreeks import cli, estimators, payoffs, weights
from quantogreeks.config import build_run, load_config
from quantogreeks.model import CorrelationMode
from quantogreeks.payoffs import validate_payoff
from quantogreeks.simulate import (BLOCK_SIZE, TILE_SIZE, SampleDraw, SimScheme, block_count,
                                   tile_bounds)

ATM = ProductCall(100.0, 100.0)
V = WeightVariant
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Frozen once from the quadrature oracle (nodes=96, halfwidth=12 agrees to 2e-13);
# cross-checked against Monte Carlo at N=1e7 below.
QUAD_RHO_HALF_PAYOFF_MIXING = 409.7914744063864

MODES = list(CorrelationMode)
COLLAR = FourStrikeCollar(110.0, 70.0, 90.0, 50.0, 1.0)
PAYOFF_KINDS = [
    ProductCall(100.0, 60.0), DigitalProduct(100.0, 60.0), COLLAR,
    Separable(PiecewiseLinear((80.0, 100.0, 120.0), (0.0, 5.0, 20.0), 0.0, 1.0),
              PiecewiseLinear((40.0, 60.0, 90.0), (1.0, 3.0, 3.5), -0.5, 0.2)),
]


@dataclasses.dataclass(frozen=True)
class NotAPayoff:
    """A frozen dataclass of finite numbers that is no payoff spec."""

    k: float


class TestMcPrice:
    def test_zero_strikes_price_product_of_forwards(self, atm_model, uniform_tuning):
        est = mc_price(atm_model, ProductCall(0.0, 0.0), SimConfig(200_000, seed=31),
                       uniform_tuning)
        assert abs(est.value - 100.0 * 100.0) < 4.0 * est.stderr

    def test_atm_independent_matches_closed_form(self, atm_model, uniform_tuning):
        est = mc_price(atm_model, ATM, SimConfig(400_000, seed=32), uniform_tuning)
        ref = oracles.product_call_price(100, 100, 0.2, 100, 100, 0.2, 1.0)
        assert abs(est.value - ref) < 4.0 * est.stderr

    def test_deep_out_of_the_money_is_exactly_zero(self, atm_model, uniform_tuning):
        est = mc_price(atm_model, ProductCall(1e6, 1e6), SimConfig(50_000, seed=33),
                       uniform_tuning)
        assert est.value == 0.0
        assert est.stderr == 0.0

    def test_discounting_scales_price_and_greeks_exactly(self, uniform_tuning):
        cfg = SimConfig(50_000, seed=34)
        flat = mc_price(make_model(rate=0.0), ATM, cfg, uniform_tuning)
        bumped = mc_price(make_model(rate=0.03), ATM, cfg, uniform_tuning)
        assert bumped.value == flat.value * math.exp(-0.03)
        assert bumped.stderr == flat.stderr * math.exp(-0.03)
        delta_E = V.CORR_DELTA_E_CONDITIONAL
        g_flat = mc_greek(make_model(rate=0.0), ATM, uniform_tuning, delta_E, cfg)
        g_bump = mc_greek(make_model(rate=0.03), ATM, uniform_tuning, delta_E, cfg)
        assert g_bump.value == g_flat.value * math.exp(-0.03)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_stderr_survives_a_large_offset(self, atm_model, uniform_tuning, threads):
        # payoff 1e7 + 5e-5 fE: a spread near 1e-3 on a level near 1e7, where
        # sum(x^2) - sum(x)^2 / n loses every digit and reported 0.0
        payoff = Separable(PiecewiseLinear((0.0,), (1e7,), 0.0, 5e-5),
                           PiecewiseLinear((0.0,), (1.0,)))
        cfg = SimConfig(200_001, seed=69)
        est = mc_price(atm_model, payoff, cfg, uniform_tuning, threads=threads)
        x = 1e7 + 5e-5 * draw_samples(atm_model, uniform_tuning, cfg).fE_T
        assert est.stderr == pytest.approx(x.std(ddof=1) / math.sqrt(len(x)), rel=1e-6)

    def test_antithetic_reduces_price_stderr_here(self, atm_model, uniform_tuning):
        plain = mc_price(atm_model, ATM, SimConfig(100_000, seed=35), uniform_tuning)
        anti = mc_price(atm_model, ATM, SimConfig(100_000, seed=35, antithetic=True),
                        uniform_tuning)
        assert anti.stderr < plain.stderr


class TestMcGreek:
    def test_independent_delta_E(self, atm_model, uniform_tuning):
        est = mc_greek(atm_model, ATM, uniform_tuning, V.CORR_DELTA_E_CONDITIONAL,
                       SimConfig(400_000, seed=36))
        ref = oracles.product_call_delta_E(100, 100, 0.2, 100, 100, 0.2, 1.0)
        assert abs(est.value - ref) < 3.0 * est.stderr

    def test_zero_energy_strike_recovers_temperature_leg_price(self, atm_model, uniform_tuning):
        # g(F) = F makes the price linear in f0E, so delta = price / f0E = call_I price
        est = mc_greek(atm_model, ProductCall(0.0, 100.0), uniform_tuning,
                       V.CORR_DELTA_E_CONDITIONAL, SimConfig(400_000, seed=37))
        ref = oracles.black_call(100, 100, 0.2, 1.0)
        assert abs(est.value - ref) < 3.0 * est.stderr

    def test_digital_delta_matches_density_formula(self, atm_model, uniform_tuning):
        est = mc_greek(atm_model, DigitalProduct(100.0, 100.0), uniform_tuning,
                       V.CORR_DELTA_E_CONDITIONAL, SimConfig(400_000, seed=38))
        ref = oracles.digital_product_delta_E(100, 100, 0.2, 100, 100, 0.2, 1.0)
        assert abs(est.value - ref) < 3.0 * est.stderr

    def test_shared_pass_matches_single_runs(self, atm_model, uniform_tuning):
        cfg = SimConfig(50_000, seed=39)
        combined = mc_estimates(atm_model, ATM, uniform_tuning,
                                [V.CORR_DELTA_E_CONDITIONAL, V.CORR_CROSS_GAMMA_CONDITIONAL], cfg)
        for v in (V.CORR_DELTA_E_CONDITIONAL, V.CORR_CROSS_GAMMA_CONDITIONAL):
            single = mc_greek(atm_model, ATM, uniform_tuning, v, cfg)
            assert combined[v.value].value == single.value

    def test_threads_do_not_change_results(self, atm_model, uniform_tuning):
        cfg = SimConfig(200_000, seed=40)
        one = mc_greek(atm_model, ATM, uniform_tuning, V.CORR_DELTA_E_CONDITIONAL, cfg, threads=1)
        four = mc_greek(atm_model, ATM, uniform_tuning, V.CORR_DELTA_E_CONDITIONAL, cfg, threads=4)
        assert one.value == four.value
        assert one.stderr == four.stderr

    @pytest.mark.parametrize("threads", [0, -2])
    def test_thread_count_below_one_rejected(self, atm_model, uniform_tuning, threads):
        # rejected before the pass starts, so no worker thread is created
        with pytest.raises(ValueError, match="threads"):
            mc_price(atm_model, ATM, SimConfig(1000, seed=41), uniform_tuning, threads=threads)


# Every Monte Carlo and quadrature entry point, called as (model, payoff, tuning, cfg).
ENTRY_POINTS = {
    "mc_price": lambda m, p, a, cfg: mc_price(m, p, cfg, a),
    "mc_greek": lambda m, p, a, cfg: mc_greek(m, p, a, V.CORR_DELTA_E_CONDITIONAL, cfg),
    "mc_estimates": lambda m, p, a, cfg: mc_estimates(m, p, a, [V.CORR_DELTA_I], cfg,
                                                      fd_greeks=["dE"]),
    "fd_greek": lambda m, p, a, cfg: fd_greek(m, p, "dEdI", cfg, a),
    "quad_price": lambda m, p, a, cfg: quad_price(m, p),
    "quad_greek": lambda m, p, a, cfg: quad_greek(m, p, "dE"),
}
MONTE_CARLO = ["mc_price", "mc_greek", "mc_estimates", "fd_greek"]


class TestEngineValidation:
    # Unvalidated, these models give nan, a confident 0.0, a finite price at
    # rho = 1, or a bare math or division error.
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [dict(rho=1.0), dict(rho=1.5), dict(rho=math.nan),
                                     dict(sigE=0.0), dict(f0E=-5.0), dict(f0E=0.0),
                                     dict(f0I=0.0)])
    def test_invalid_model_raises_the_validation_message(self, uniform_tuning, entry, bad):
        model = make_model(**bad)
        with pytest.raises(ValueError) as exc:
            ENTRY_POINTS[entry](model, ATM, uniform_tuning, SimConfig(1000, seed=0))
        assert str(exc.value) == "; ".join(validate_model(model))

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_invalid_payoff_raises_the_validation_message(self, atm_model, uniform_tuning,
                                                          entry):
        payoff = FourStrikeCollar(90.0, 95.0, 110.0, 75.0, alpha=0.0)
        with pytest.raises(ValueError) as exc:
            ENTRY_POINTS[entry](atm_model, payoff, uniform_tuning, SimConfig(1000, seed=0))
        assert str(exc.value) == "; ".join(validate_payoff(payoff))

    @pytest.mark.parametrize("entry", MONTE_CARLO)
    def test_monte_carlo_rejects_a_non_unit_tuning_function(self, atm_model, entry):
        doubled = TuningFunction((0.0,), (2.0,), 1.0)
        with pytest.raises(ValueError) as exc:
            ENTRY_POINTS[entry](atm_model, ATM, doubled, SimConfig(1000, seed=0))
        assert str(exc.value) == "; ".join(validate_model(atm_model, doubled))

    @pytest.mark.parametrize("mode", list(CorrelationMode))
    @pytest.mark.parametrize("rho", [1.0, 1.5, math.nan])
    def test_scenario_models_raise_the_validation_message(self, monkeypatch, uniform_tuning,
                                                          mode, rho):
        # unvalidated, rho = 1 divides by zero and 1.5 takes the root of a negative
        calls = counting_draws(monkeypatch)
        model = make_model(rho=0.3, mode=mode)
        for which in ("dI", "dE"):
            with pytest.raises(ValueError) as exc:
                mc_greek(model, ATM, uniform_tuning, weights.mode_variant(which, mode),
                         SimConfig(1000, seed=0), scenarios=[0.5, rho])
            assert str(exc.value) == "; ".join(
                validate_model(dataclasses.replace(model, rho=rho)))
        assert calls == []

    # unchecked, a fractional size reported a row at n = 10, 1000.0 and a
    # fractional seed raised bare TypeErrors, and True ran as n = 1
    @pytest.mark.parametrize("cfg,sizes,field", [
        (SimConfig(1000, 0), [10.7, 1000], "n_samples"),
        (SimConfig(1000.0, 0), None, "n_samples"),
        (SimConfig(True, 0), None, "n_samples"),
        (SimConfig(1000, 0.5), None, "seed"),
    ])
    def test_sample_counts_and_seeds_must_be_integers(self, monkeypatch, atm_model,
                                                       uniform_tuning, cfg, sizes, field):
        calls = counting_draws(monkeypatch)
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            mc_price(atm_model, ATM, cfg, uniform_tuning, sizes=sizes)
        assert calls == []

    # unchecked, these drew block 0 before weight_for refused the variant
    @pytest.mark.parametrize("call", [
        lambda a, cfg: mc_estimates(make_model(rho=0.3), ATM, a,
                                    [V.CORR_CROSS_GAMMA_CONDITIONAL,
                                     V.CORR_CROSS_GAMMA_MATRIX_INVERSE], cfg),
        lambda a, cfg: mc_greek(make_model(rho=0.3, mode=CorrelationMode.SDE_MIXING), ATM, a,
                                V.CORR_DELTA_I, cfg),
        lambda a, cfg: residual_risk(make_model(rho=0.3), ATM, a, [0.3], cfg,
                                     variant=V.CORR_DELTA_E_MATRIX_INVERSE, which="dE"),
    ], ids=["mc_estimates", "mc_greek", "residual_risk_scenario"])
    def test_other_mode_variants_are_refused_before_drawing(self, monkeypatch, uniform_tuning,
                                                            call):
        calls = counting_draws(monkeypatch)
        message = r"^\w+ is a \w+ weight \(model has correlation_mode = \w+, rho=0.3\)$"
        with pytest.raises(ValueError, match=message):
            call(uniform_tuning, SimConfig(1000, seed=0))
        assert calls == []

    @pytest.mark.parametrize("entry", MONTE_CARLO)
    def test_usage_errors_come_before_validation(self, uniform_tuning, entry):
        with pytest.raises(ValueError, match="n_samples"):
            ENTRY_POINTS[entry](make_model(rho=1.5), ATM, uniform_tuning, SimConfig(0, seed=0))

    def test_usage_errors_come_before_scenario_validation(self, monkeypatch, uniform_tuning):
        # the scenario's rho error used to come first, unlike an invalid pass model's
        calls = counting_draws(monkeypatch)
        with pytest.raises(ValueError, match="^n_samples must be >= 1"):
            mc_greek(make_model(rho=0.3), ATM, uniform_tuning, V.CORR_DELTA_I,
                     SimConfig(0, seed=0), scenarios=[1.5])
        assert calls == []

    # unchecked, a dataclass that is not a payoff drew block 0 before evaluate raised a
    # TypeError, quad_price raised one too, and a str raised one from vars()
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("payoff", [NotAPayoff(100.0), "product_call"],
                             ids=["dataclass", "str"])
    def test_unknown_payoff_type_fails_validation(self, monkeypatch, atm_model, uniform_tuning,
                                                  entry, payoff):
        calls = counting_draws(monkeypatch)
        with pytest.raises(ValueError) as exc:
            ENTRY_POINTS[entry](atm_model, payoff, uniform_tuning, SimConfig(1000, seed=0))
        assert str(exc.value) == f"unknown payoff spec {type(payoff).__name__}"
        assert calls == []

    @pytest.mark.parametrize("call", [
        lambda m, a, cfg: fd_greek(m, ATM, "dX", cfg, a),
        lambda m, a, cfg: mc_estimates(m, ATM, a, [V.CORR_DELTA_I], cfg, fd_greeks=["dX"]),
        lambda m, a, cfg: residual_risk(m, ATM, a, [0.3], cfg, which="dX"),
    ], ids=["fd_greek", "mc_estimates", "residual_risk"])
    def test_unknown_sensitivity_is_refused_before_drawing(self, monkeypatch, atm_model,
                                                           uniform_tuning, call):
        calls = counting_draws(monkeypatch)
        with pytest.raises(ValueError, match=r"^unknown sensitivity 'dX'; expected one of"):
            call(atm_model, uniform_tuning, SimConfig(1000, seed=0))
        assert calls == []

    def test_a_pass_with_no_jobs_validates_and_draws_nothing(self, monkeypatch, atm_model,
                                                             uniform_tuning):
        # it drew all million samples before returning {}
        calls = counting_draws(monkeypatch)
        assert mc_estimates(atm_model, ATM, uniform_tuning, [], SimConfig(1_000_000, seed=1)) == {}
        with pytest.raises(ValueError, match="rho"):
            mc_estimates(make_model(rho=1.5), ATM, uniform_tuning, [], SimConfig(1000, seed=1))
        assert calls == []


class TestQuadrature:
    def test_zero_strikes_integrate_to_forward_product(self, atm_model):
        value = quad_price(atm_model, ProductCall(0.0, 0.0))
        assert value == pytest.approx(10_000.0, rel=1e-6)

    def test_atm_price_matches_closed_form(self, atm_model):
        ref = oracles.product_call_price(100, 100, 0.2, 100, 100, 0.2, 1.0)
        assert quad_price(atm_model, ATM) == pytest.approx(ref, rel=1e-8)

    def test_digital_price_matches_closed_form(self, atm_model):
        ref = oracles.digital_product_price(100, 100, 0.2, 100, 100, 0.2, 1.0)
        assert quad_price(atm_model, DigitalProduct(100.0, 100.0)) == pytest.approx(ref, rel=1e-8)

    def test_delta_E_matches_closed_form(self, atm_model):
        ref = oracles.product_call_delta_E(100, 100, 0.2, 100, 100, 0.2, 1.0)
        assert quad_greek(atm_model, ATM, "dE") == pytest.approx(ref, rel=1e-4)

    def test_cross_gamma_matches_closed_form(self, atm_model):
        ref = oracles.product_call_cross_gamma(100, 100, 0.2, 100, 100, 0.2, 1.0)
        assert quad_greek(atm_model, ATM, "dEdI") == pytest.approx(ref, rel=1e-4)

    def test_correlated_payoff_mixing_regression_value(self, uniform_tuning):
        m = make_model(rho=0.5)
        value = quad_price(m, ATM)
        assert value == pytest.approx(QUAD_RHO_HALF_PAYOFF_MIXING, rel=1e-9)
        dense = oracles.reference_quad_price(m, ATM, nodes=96, halfwidth=12.0)
        assert dense == pytest.approx(value, rel=1e-10)

    def test_nodes_are_computed_on_first_use_not_at_import(self):
        # computing them at import slowed the start-up of every command
        code = ("import sys, quantogreeks.cli, quantogreeks.estimators as e;"
                "assert 'numpy.polynomial' not in sys.modules;"
                "e._legendre(); assert 'numpy.polynomial' in sys.modules")
        src = os.path.dirname(os.path.dirname(estimators.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                       check=True, timeout=60)
        assert estimators._legendre() is estimators._legendre()

    @pytest.mark.slow
    def test_correlated_regression_cross_checked_by_mc(self, uniform_tuning):
        m = make_model(rho=0.5)
        est = mc_price(m, ATM, SimConfig(10_000_000, seed=41), uniform_tuning)
        assert abs(est.value - QUAD_RHO_HALF_PAYOFF_MIXING) < 4.0 * est.stderr

    def test_collar_and_separable_agree_with_mc(self, uniform_tuning):
        m = make_model()
        collar = FourStrikeCollar(110.0, 95.0, 90.0, 75.0, 1.3)
        sep = Separable(PiecewiseLinear((100.0,), (0.0,), 0.0, 1.0),
                        PiecewiseLinear((80.0,), (5.0,), -0.5, 2.0))
        for payoff in (collar, sep):
            est = mc_price(m, payoff, SimConfig(400_000, seed=42), uniform_tuning)
            assert abs(est.value - quad_price(m, payoff)) < 4.0 * est.stderr

    def test_sde_mixing_price_and_delta(self, uniform_tuning):
        m = make_model(rho=0.4, sigI=0.3, mode=CorrelationMode.SDE_MIXING)
        est = mc_price(m, ATM, SimConfig(400_000, seed=43), uniform_tuning)
        assert abs(est.value - quad_price(m, ATM)) < 4.0 * est.stderr
        greek = mc_greek(m, ATM, uniform_tuning, V.CORR_DELTA_E_MATRIX_INVERSE,
                         SimConfig(400_000, seed=44))
        assert abs(greek.value - quad_greek(m, ATM, "dE")) < 3.5 * greek.stderr

    def test_rejects_unknown_sensitivity(self, atm_model):
        with pytest.raises(ValueError):
            quad_greek(atm_model, ATM, "vega")

    @pytest.mark.parametrize("mode", list(CorrelationMode))
    @pytest.mark.parametrize("rho", [1.0, -1.0, 1.5, math.nan])
    def test_rejects_correlation_outside_unit_interval(self, mode, rho):
        with pytest.raises(ValueError, match=r"rho must lie in \(-1, 1\)"):
            quad_price(make_model(rho=rho, mode=mode), ATM)

    @pytest.mark.parametrize("mode", list(CorrelationMode))
    @pytest.mark.parametrize("rho", [-0.6, 0.0, 0.5, 0.9])
    def test_batched_oracle_equals_node_by_node_sum(self, mode, rho):
        model = make_model(f0I=60.0, sigE=0.25, sigI=0.35, rho=rho, rate=0.03, mode=mode)
        separable = Separable(PiecewiseLinear((80.0, 100.0, 120.0), (0.0, 5.0, 20.0), 0.0, 1.0),
                              PiecewiseLinear((40.0, 60.0, 90.0), (1.0, 3.0, 3.5), -0.5, 0.2))
        for payoff in (ProductCall(100.0, 60.0), DigitalProduct(95.0, 65.0), COLLAR, separable):
            ref = oracles.reference_quad_price(model, payoff)
            assert abs(quad_price(model, payoff) - ref) <= 1e-12 * abs(ref), payoff

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("rho", [-0.6, 0.0, 0.3])
    def test_array_oracle_equals_the_scalar_loop_bit_for_bit(self, mode, rho):
        model = make_model(f0I=60.0, sigE=0.25, sigI=0.35, rho=rho, rate=0.03, mode=mode)
        # a knot at -5 lies at or below the shift (0 under sde_mixing, rho fE otherwise)
        # at some nodes, so the h leg's call there is the linear branch
        below_shift = Separable(PiecewiseLinear((90.0, 110.0), (0.0, 10.0), 0.0, 0.5),
                                PiecewiseLinear((-5.0, 40.0, 60.0, 90.0), (0.5, 1.0, 3.0, 3.5),
                                                -0.5, 0.2))
        for payoff in (*PAYOFF_KINDS, below_shift):
            assert (quad_price(model, payoff).hex()
                    == oracles.scalar_quad_price(model, payoff).hex()), payoff
            for which in ("dE", "dI", "dEdI"):
                assert (quad_greek(model, payoff, which).hex()
                        == oracles.scalar_quad_greek(model, payoff, which).hex()), (payoff, which)


class TestFiniteDifferences:
    def test_linear_leg_is_exact_at_the_fixed_bump(self, atm_model, uniform_tuning):
        # payoff linear in f0E: CRN differences collapse to price / f0E up to rounding
        payoff = ProductCall(0.0, 100.0)
        cfg = SimConfig(100_000, seed=45)
        price = mc_price(atm_model, payoff, cfg, uniform_tuning)
        fd = fd_greek(atm_model, payoff, "dE", cfg, uniform_tuning)
        assert fd.value == pytest.approx(price.value / 100.0, rel=1e-12)

    def test_matches_weighted_estimator_on_smooth_payoff(self, atm_model, uniform_tuning):
        cfg = SimConfig(200_000, seed=46)
        fd = fd_greek(atm_model, ATM, "dE", cfg, uniform_tuning)
        mal = mc_greek(atm_model, ATM, uniform_tuning, V.CORR_DELTA_E_CONDITIONAL, cfg)
        assert abs(fd.value - mal.value) < 3.0 * math.hypot(fd.stderr, mal.stderr)

    def test_cross_stencil_matches_oracle(self, atm_model, uniform_tuning):
        cfg = SimConfig(200_000, seed=47)
        fd = fd_greek(atm_model, ATM, "dEdI", cfg, uniform_tuning)
        ref = oracles.product_call_cross_gamma(100, 100, 0.2, 100, 100, 0.2, 1.0)
        assert abs(fd.value - ref) < 4.0 * fd.stderr

    @pytest.mark.parametrize("mode,frozen", [
        (CorrelationMode.PAYOFF_MIXING, {"dE": 10.655252519458207, "dI": 3.8691828767036225,
                                         "dEdI": 0.3366589728134315}),
        (CorrelationMode.SDE_MIXING, {"dE": 1.8883200075668607, "dI": 1.9187959558836105,
                                      "dEdI": 0.315502586827337}),
    ])
    def test_collar_bumps_keep_their_values(self, mode, frozen):
        # frozen from the per-Greek stencils that preceded the shared central difference,
        # then re-frozen when the draw began summing each accumulator in fixed order
        model = make_model(rho=0.3, f0I=60.0, sigI=0.4, mode=mode)
        tuning = TuningFunction.from_segments([(0.0, 2.0), (0.5, 0.0)], 1.0)
        cfg = SimConfig(65_538, seed=66, antithetic=True)
        fused = mc_estimates(model, COLLAR, tuning, [], cfg, fd_greeks=list(frozen))
        assert {which: fused[f"FD_{which}"].value for which in frozen} == frozen

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("rho", [0.0, 0.4])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("payoff", PAYOFF_KINDS, ids=lambda p: type(p).__name__)
    def test_payoff_grid_equals_the_per_point_stencil(self, monkeypatch, payoff, mode, rho,
                                                      antithetic):
        model = make_model(rho=rho, f0I=60.0, sigI=0.4, mode=mode)
        tuning = TuningFunction.from_segments([(0.0, 2.0), (0.5, 0.0)], 1.0)
        cfg = SimConfig(TILE_SIZE + 6, seed=68, antithetic=antithetic)
        points = {(1.0, 1.0), *(p for which in estimators.GREEKS
                                for p in estimators._bump_points(which))}
        data = estimators._BlockData(draw_samples(model, tuning, cfg), None, model, payoff,
                                     estimators._grid_layout(points))
        for point in points:
            grid = data.payoff_at(*point)
            assert grid.tobytes() == oracles.per_point_payoff(data, *point).tobytes(), point

        def passes():
            # every grid shape: all points, the bumps of dE and dI alone, and each stencil
            fused = mc_estimates(model, payoff, tuning, [weights.mode_variant("dI", mode)], cfg,
                                 fd_greeks=estimators.GREEKS)
            bumps = mc_estimates(model, payoff, tuning, [], cfg, fd_greeks=["dE", "dI"])
            singles = [fd_greek(model, payoff, which, cfg, tuning) for which in estimators.GREEKS]
            return [(e.value, e.stderr) for e in [*fused.values(), *bumps.values(), *singles]]

        on_the_grid = passes()
        monkeypatch.setattr(estimators._BlockData, "payoff_at", oracles.per_point_payoff)
        assert on_the_grid == passes()

    @pytest.mark.parametrize("points", ["base", "grid"])
    @pytest.mark.parametrize("rho", [0.0, -0.0])
    @pytest.mark.parametrize("payoff", PAYOFF_KINDS, ids=lambda p: type(p).__name__)
    def test_zero_rho_payoff_grid_skips_the_mix_bit_for_bit(self, payoff, rho, points):
        # payoff_mixing at rho = 0 evaluates fI itself; the oracle evaluates the explicit mix
        # rho * fE + sqrt(1 - rho^2) * fI. On a tile at rho = 0 and on a view at rho = 0 of
        # a tile at rho = 0.4
        model = make_model(rho=rho, f0I=60.0, sigI=0.4)
        tuning = TuningFunction.from_segments([(0.0, 2.0), (0.5, 0.0)], 1.0)
        cfg = SimConfig(TILE_SIZE + 6, seed=73)
        read = {(1.0, 1.0)}
        if points == "grid":
            read |= {p for which in estimators.GREEKS for p in estimators._bump_points(which)}
        draw, layout = draw_samples(model, tuning, cfg), estimators._grid_layout(read)
        tile = estimators._BlockData(draw, None, model, payoff, layout)
        other = estimators._BlockData(draw, None, dataclasses.replace(model, rho=0.4), payoff,
                                      layout)
        for data in (tile, other.at(model)):
            for point in read:
                assert (data.payoff_at(*point).tobytes()
                        == oracles.per_point_payoff(data, *point).tobytes()), point

    def test_digital_bump_noise_dwarfs_weighted_estimator(self, atm_model, uniform_tuning):
        cfg = SimConfig(10_000, seed=48)
        digital = DigitalProduct(100.0, 100.0)
        fd = fd_greek(atm_model, digital, "dE", cfg, uniform_tuning)
        mal = mc_greek(atm_model, digital, uniform_tuning, V.CORR_DELTA_E_CONDITIONAL, cfg)
        assert fd.stderr > mal.stderr


class TestLiveSamples:
    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("rho", [-0.6, 0.0, 0.3])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("payoff", PAYOFF_KINDS, ids=lambda p: type(p).__name__)
    def test_pass_on_live_samples_equals_the_pass_on_every_sample(self, monkeypatch, payoff,
                                                                   mode, rho, antithetic):
        # a group of the mode's three weights and the three finite differences reads bump
        # points, so its tiles run on their live samples, unless the legs are a separable
        # payoff's piecewise lines; a partial block and a partial tile end the pass
        model = make_model(rho=rho, f0I=60.0, sigI=0.4, mode=mode)
        tuning = TuningFunction.from_segments([(0.0, 2.0), (0.5, 0.0)], 1.0)
        cfg = SimConfig(BLOCK_SIZE + 2 * TILE_SIZE + 8, seed=74, antithetic=antithetic)
        variants = [weights.mode_variant(which, mode) for which in estimators.GREEKS]
        live_samples = estimators._live_samples
        kept = []

        def counted(data, energy_only):
            assert not energy_only
            kept.append((len(live := live_samples(data, energy_only)), len(data.eE)))
            return live

        def estimates():
            ests = mc_estimates(model, payoff, tuning, variants, cfg,
                                fd_greeks=estimators.GREEKS)
            return {label: (e.value, e.stderr) for label, e in ests.items()}

        monkeypatch.setattr(estimators, "_live_samples", counted)
        on_live = estimates()
        monkeypatch.setattr(estimators, "_live_samples",
                            lambda data, energy_only: np.arange(len(data.eE)))
        assert on_live == estimates()
        if isinstance(payoff, Separable):
            assert not kept
        else:
            assert len(kept) == 7 and 0 < sum(k for k, _ in kept) < sum(n for _, n in kept)

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("rho", [-0.6, 0.0, 0.3])
    @pytest.mark.parametrize("payoff", PAYOFF_KINDS[:3], ids=lambda p: type(p).__name__)
    def test_scenario_pass_on_energy_live_samples_equals_the_pass_on_every_sample(
            self, monkeypatch, payoff, rho, antithetic):
        # an sde_mixing group with scenario jobs runs each tile on the samples where an
        # energy leg can be non-zero, one set for every view; scenarios of both signs, one
        # pass per Greek's weight, prefix sizes that end inside a block and a partial tile
        mode = CorrelationMode.SDE_MIXING
        model = make_model(rho=rho, f0I=60.0, sigI=0.4, mode=mode)
        tuning = TuningFunction.from_segments([(0.0, 2.0), (0.5, 0.0)], 1.0)
        cfg = SimConfig(BLOCK_SIZE + 2 * TILE_SIZE + 8, seed=75, antithetic=antithetic)
        sizes = [TILE_SIZE + 6, BLOCK_SIZE + 10, cfg.n_samples]
        live_samples = estimators._live_samples
        kept = []

        def counted(data, energy_only):
            assert energy_only
            kept.append((len(live := live_samples(data, energy_only)), len(data.eE)))
            return live

        def estimates():
            return [[(e.value, e.stderr, e.n) for e in ests] for which in estimators.GREEKS
                    for ests in mc_greek(model, payoff, tuning, weights.mode_variant(which, mode),
                                         cfg, sizes=sizes, scenarios=[-0.5, 0.4, 0.7, -0.2])]

        monkeypatch.setattr(estimators, "_live_samples", counted)
        on_live = estimates()
        monkeypatch.setattr(estimators, "_live_samples",
                            lambda data, energy_only: np.arange(len(data.eE)))
        assert on_live == estimates()
        assert len(kept) == 3 * 7 and 0 < sum(k for k, _ in kept) < sum(n for _, n in kept)

    @pytest.mark.parametrize("mode,payoff", [(CorrelationMode.PAYOFF_MIXING, PAYOFF_KINDS[0]),
                                             (CorrelationMode.PAYOFF_MIXING, COLLAR),
                                             (CorrelationMode.SDE_MIXING, PAYOFF_KINDS[3])],
                             ids=["payoff-call", "payoff-collar", "sde-separable"])
    def test_scenario_groups_that_run_every_sample_never_call_the_live_test(
            self, monkeypatch, mode, payoff):
        # a payoff_mixing scenario reads one payoff and one multiply per sample, which do
        # not pay for the gathers; a separable payoff's piecewise lines have no live bound
        def refused(data, energy_only):
            raise AssertionError("the live test ran")

        monkeypatch.setattr(estimators, "_live_samples", refused)
        model = make_model(rho=0.3, f0I=60.0, sigI=0.4, mode=mode)
        variant = weights.mode_variant("dEdI", mode)
        mc_greek(model, payoff, TuningFunction.uniform(1.0), variant,
                 SimConfig(TILE_SIZE + 4, seed=76), scenarios=[-0.5, 0.4])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_samples_the_energy_test_leaves_out_pay_zero_under_every_scenario(self, data):
        # in both modes, at every layout point and under scenarios anywhere in (-1, 1): the
        # energy level reads no rho, and an energy leg of 0.0 zeroes its term
        mode = data.draw(st.sampled_from(MODES))
        rho = data.draw(st.sampled_from([0.0, -0.0]) | st.floats(-0.95, 0.95))
        f0E, f0I = data.draw(st.floats(1.0, 200.0)), data.draw(st.floats(1.0, 200.0))
        kE = sorted(data.draw(st.lists(st.floats(0.0, 200.0), min_size=2, max_size=2)))
        kI = sorted(data.draw(st.lists(st.floats(0.0, 200.0), min_size=2, max_size=2)))
        payoff = data.draw(st.sampled_from([
            ProductCall(kE[0], kI[0]), DigitalProduct(kE[1], kI[1]),
            FourStrikeCollar(kE[1], kI[1], kE[0], kI[0], data.draw(st.floats(0.5, 2.0)))]))
        points = {p for which in data.draw(st.sets(st.sampled_from(estimators.GREEKS)))
                  for p in estimators._bump_points(which)}
        if not points or data.draw(st.booleans()):
            points.add((1.0, 1.0))
        bump = estimators.FD_BUMP
        k = data.draw(st.sampled_from(kE))
        fE = data.draw(st.lists(st.floats(0.0, 400.0) | st.sampled_from(
            [0.0, k, k * (1.0 - bump), k * (1.0 + bump), k / (1.0 - bump), k / (1.0 + bump)])
            | st.floats(-3.0, 3.0).map(lambda u: k * (1.0 + u * bump)), min_size=12, max_size=12))
        normals = st.lists(st.floats(-6.0, 6.0), min_size=12, max_size=12)
        fI, gI, gI_cross = (data.draw(st.lists(st.floats(0.0, 400.0), min_size=12, max_size=12)),
                            data.draw(normals), data.draw(normals))
        draw = SampleDraw(np.array(fE), np.array(fI), None, np.array(gI), None, None, None,
                          np.array(gI_cross))
        model = make_model(f0E=f0E, f0I=f0I, sigI=0.4, rho=rho, mode=mode)
        plan = estimators._build_plan(model, TuningFunction.uniform(1.0), SimScheme.exact())
        tile = estimators._BlockData(draw, plan, model, payoff, estimators._grid_layout(points))
        dead = np.setdiff1d(np.arange(len(fE)), estimators._live_samples(tile, True))
        scenario_rhos = data.draw(st.lists(st.floats(-1.0, 1.0, exclude_min=True,
                                                     exclude_max=True), min_size=1, max_size=4))
        for scenario in scenario_rhos:
            view = tile.at(dataclasses.replace(model, rho=scenario))
            for point in points:
                assert (view.payoff_at(*point)[dead] == 0.0).all(), (scenario, point)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_samples_left_out_pay_zero_at_every_grid_point(self, data):
        # calls, puts and steps on both levels; sample levels at 0.0, at a strike and its
        # bumps, and just around the level or mix where a temperature leg kinks
        mode = data.draw(st.sampled_from(MODES))
        rho = data.draw(st.sampled_from([0.0, -0.0]) | st.floats(-0.95, 0.95))
        f0E, f0I = data.draw(st.floats(1.0, 200.0)), data.draw(st.floats(1.0, 200.0))
        kE = sorted(data.draw(st.lists(st.floats(0.0, 200.0), min_size=2, max_size=2)))
        kI = sorted(data.draw(st.lists(st.floats(0.0, 200.0), min_size=2, max_size=2)))
        payoff = data.draw(st.sampled_from([
            ProductCall(kE[0], kI[0]), DigitalProduct(kE[1], kI[1]),
            FourStrikeCollar(kE[1], kI[1], kE[0], kI[0], data.draw(st.floats(0.5, 2.0)))]))
        points = {p for which in data.draw(st.sets(st.sampled_from(estimators.GREEKS),
                                                   min_size=1))
                  for p in estimators._bump_points(which)}
        if data.draw(st.booleans()):
            points.add((1.0, 1.0))
        mixing = mode is CorrelationMode.PAYOFF_MIXING and rho != 0.0
        bump = estimators.FD_BUMP

        def level(strikes, fE=0.0):
            k = data.draw(st.sampled_from(strikes))
            if mixing and fE:  # the fI whose mix with fE is k
                k = max(0.0, (k - rho * fE) / math.sqrt(1.0 - rho * rho))
            return data.draw(st.floats(0.0, 400.0) | st.sampled_from(
                [0.0, k, k * (1.0 - bump), k * (1.0 + bump), k / (1.0 - bump), k / (1.0 + bump)])
                | st.floats(-3.0, 3.0).map(lambda u: k * (1.0 + u * bump)))

        fE = [level(kE) for _ in range(12)]
        fI = [level(kI, e) for e in fE]
        draw = SampleDraw(np.array(fE), np.array(fI), *[None] * 6)
        model = make_model(f0E=f0E, f0I=f0I, rho=rho, mode=mode)
        tile = estimators._BlockData(draw, None, model, payoff, estimators._grid_layout(points))
        dead = np.setdiff1d(np.arange(len(fE)), estimators._live_samples(tile, False))
        for point in points:
            assert (tile.payoff_at(*point)[dead] == 0.0).all(), point


class TestOracleTriangle:
    @pytest.mark.slow
    @pytest.mark.parametrize("payoff,seed", [(ATM, 61), (DigitalProduct(100.0, 100.0), 62)])
    def test_every_greek_agrees_with_quadrature(self, atm_model, uniform_tuning, payoff, seed):
        variants = [V.CORR_DELTA_E_CONDITIONAL, V.CORR_DELTA_I, V.CORR_CROSS_GAMMA_CONDITIONAL]
        ests = mc_estimates(atm_model, payoff, uniform_tuning, variants,
                            SimConfig(1_000_000, seed=seed))
        for variant, which in zip(variants, ("dE", "dI", "dEdI")):
            est = ests[variant.value]
            oracle = quad_greek(atm_model, payoff, which)
            assert abs(est.value - oracle) < 3.0 * est.stderr, (payoff, which)


def per_rho_rows(model, payoff, tuning, grid, cfg, variant, threads):
    """Residual-risk rows from one pass per correlation: the reference the batch must match."""
    base = mc_greek(dataclasses.replace(model, rho=0.0), payoff, tuning, variant, cfg,
                    threads=threads)
    rows = []
    for rho in grid:
        est = mc_greek(dataclasses.replace(model, rho=rho), payoff, tuning, variant, cfg,
                       threads=threads)
        rows.append({"rho": rho, "delta_corr": est.value, "delta_ind": base.value,
                     "abs_diff": abs(est.value - base.value),
                     "stderr": math.hypot(est.stderr, base.stderr)})
    return rows


def captured_draws(monkeypatch):
    """Each block's draw, as the pass drew it: a copy of each field, None where it holds none."""
    draws = {}
    draw_block = estimators._draw_block

    def captured(plan, cfg, block, out=None):
        draw = draw_block(plan, cfg, block, out)
        draws[block] = plan, {f.name: None if (a := getattr(draw, f.name)) is None else a.copy()
                              for f in dataclasses.fields(draw)}
        return draw

    monkeypatch.setattr(estimators, "_draw_block", captured)
    return draws


def counting_draws(monkeypatch):
    calls = []
    draw_block = estimators._draw_block

    def counted(plan, cfg, block, out=None):
        calls.append(block)
        return draw_block(plan, cfg, block, out)

    monkeypatch.setattr(estimators, "_draw_block", counted)
    return calls


class TestOnePass:
    # ten points and the baseline are 11 jobs: a second group whose rows must reduce
    # into their own jobs' moments
    @pytest.mark.parametrize("grid", [[-0.5, 0.0, 0.25, 0.6],
                                      [-0.9, -0.7, -0.5, -0.3, -0.1, 0.0, 0.2, 0.4, 0.6, 0.8]],
                             ids=["4rho", "10rho"])
    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("mode", MODES)
    def test_sweep_equals_per_rho_passes(self, uniform_tuning, mode, threads, antithetic, grid):
        # the default variant is the mode's cross-gamma weight, baseline included;
        # without pairs each job multiplies straight into its value row
        model = make_model(rho=0.3, sigI=0.3, mode=mode)
        cfg = SimConfig(70_000, seed=56, antithetic=antithetic)
        rows = residual_risk(model, ATM, uniform_tuning, grid, cfg, which="dEdI",
                             threads=threads)
        assert rows == per_rho_rows(model, ATM, uniform_tuning, grid, cfg,
                                    weights.mode_variant("dEdI", mode), threads)

    @pytest.mark.parametrize("mode", MODES)
    def test_rows_hold_payoff_times_weight(self, uniform_tuning, mode):
        # one block without pairs, where each job multiplies into its value row: the
        # base and the scenario are each the mean of a fresh draw's payoff times weight
        model = make_model(rho=0.0, sigI=0.3, rate=0.05, mode=mode)
        cfg = SimConfig(TILE_SIZE + 5, seed=71)
        variant = weights.mode_variant("dEdI", mode)
        ests = mc_greek(model, ATM, uniform_tuning, variant, cfg, scenarios=[0.4])
        for rho, est in zip([0.0, 0.4], ests):
            m = dataclasses.replace(model, rho=rho)
            draw = draw_samples(m, uniform_tuning, cfg)
            data = estimators._BlockData(draw, None, m, ATM,
                                         estimators._grid_layout({(1.0, 1.0)}))
            values = (oracles.per_point_payoff(data, 1.0, 1.0)
                      * weight_for(variant, draw, m, uniform_tuning))
            discount = math.exp(-m.rate * m.horizon)
            assert est.value == float(values.sum()) / cfg.n_samples * discount, rho

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("which,antithetic,grid", [
        (None, False, [1, 1000, 65_536, 65_537, 70_000, 200_001]),
        ("dI", False, [1, 65_536, 65_537, 200_001]),
        ("dEdI", True, [2, 65_536, 65_538, 131_074]),
    ])
    def test_converge_rows_equal_separate_passes(self, mode, which, antithetic, grid):
        # n = 1 and 65_537 (2 and 65_538 antithetic) leave one row in their last
        # block. Zero strikes keep every payoff nonzero, and at seed 64 a last-bit
        # error in that row's weight integrals reaches the one-row estimate.
        variant = which and weights.mode_variant(which, mode)
        model = make_model(rho=0.4, mode=mode)
        payoff = ProductCall(0.0, 0.0)
        tuning = TuningFunction.from_segments([(0.0, 2.0), (0.5, 0.0)], 1.0)
        rows = convergence_table(model, payoff, tuning, variant,
                                 SimConfig(grid[-1], seed=64, antithetic=antithetic,
                                           scheme=SimScheme.log_euler(16)), grid)
        for n, row in zip(grid, rows):
            cfg = SimConfig(n, seed=64, antithetic=antithetic, scheme=SimScheme.log_euler(16))
            est = (mc_price(model, payoff, cfg, tuning) if variant is None
                   else mc_greek(model, payoff, tuning, variant, cfg))
            assert row == {"n": n, "value": est.value, "stderr": est.stderr}

    @pytest.mark.parametrize("mode", MODES)
    def test_fused_finite_differences_equal_fd_greek(self, mode):
        model = make_model(rho=0.3, f0I=60.0, sigI=0.4, mode=mode)
        tuning = TuningFunction.from_segments([(0.0, 2.0), (0.5, 0.0)], 1.0)
        cfg = SimConfig(70_000, seed=58, antithetic=True)
        delta_I = weights.mode_variant("dI", mode)
        fused = mc_estimates(model, COLLAR, tuning, [delta_I], cfg,
                             fd_greeks=["dE", "dI", "dEdI"])
        assert fused[delta_I.value] == dataclasses.replace(
            mc_greek(model, COLLAR, tuning, delta_I, cfg),
            seconds=fused[delta_I.value].seconds)
        for which in ("dE", "dI", "dEdI"):
            single = fd_greek(model, COLLAR, which, cfg, tuning)
            assert fused[f"FD_{which}"] == dataclasses.replace(
                single, seconds=fused[f"FD_{which}"].seconds)

    def test_workers_keep_their_own_block_buffers(self):
        # more workers than cores, switching often: a buffer shared between
        # workers would mix one block's draws or values into another's, and with
        # pairs the scratch row that a tile's live values are scattered into
        model = make_model(rho=0.3, f0I=60.0, sigI=0.4)
        tuning = TuningFunction.from_segments([(0.0, 2.0), (0.5, 0.0)], 1.0)
        for cfg in (SimConfig(6 * BLOCK_SIZE + 3, seed=62),
                    SimConfig(6 * BLOCK_SIZE + 4, seed=62, antithetic=True)):
            args = (model, COLLAR, tuning, [V.CORR_DELTA_I, V.CORR_CROSS_GAMMA_CONDITIONAL], cfg)
            serial = mc_estimates(*args, fd_greeks=["dE"])
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threaded = mc_estimates(*args, threads=6, fd_greeks=["dE"])
            finally:
                sys.setswitchinterval(interval)
            assert ({k: (e.value, e.stderr) for k, e in threaded.items()}
                    == {k: (e.value, e.stderr) for k, e in serial.items()})

    @pytest.mark.parametrize("which", ["dI", "dEdI"])
    def test_sweep_builds_the_rho_free_weight_once_per_tile(self, monkeypatch, uniform_tuning,
                                                            which):
        # the rho = 0 baseline and all four scenarios read one iI (dI) or iE * iI (dEdI)
        # array per tile: only payoff_mixing weights read no rho. Every job calls
        # weight_for, so each view runs its checks, and all get the tile's one array
        weights_returned = []
        weight_for = estimators.weight_for

        def counted(variant, *args):
            weights_returned.append(weight_for(variant, *args))
            return weights_returned[-1]

        monkeypatch.setattr(estimators, "weight_for", counted)
        n = BLOCK_SIZE + 2 * TILE_SIZE + 7
        residual_risk(make_model(rho=0.3), ATM, uniform_tuning,
                      [-0.5, 0.0, 0.25, 0.6], SimConfig(n, seed=63), which=which)
        tiles = sum(len(tile_bounds(min(BLOCK_SIZE, n - start)))
                    for start in range(0, n, BLOCK_SIZE))
        assert tiles == 7 and len(weights_returned) == 5 * tiles
        assert len({id(w) for w in weights_returned}) == tiles

    def test_all_variant_pass_builds_each_kernel_once_per_tile(self, monkeypatch, tmp_path):
        # on an sde_mixing copy of the collar, its three weights and three finite
        # differences form one job group; the delta and the cross-gamma read E_inv,
        # and the cross-gamma's compensator integral is shared by every tile of the pass.
        # The group reads bump points, so each tile runs on its live samples: those
        # where a leg pair can be non-zero at the extreme bumps of both levels
        kernel_calls, integrals = [], []
        build_E_inv = weights._KERNELS["E_inv"]
        integrate = weights.integrate

        def counted_E_inv(draw, model):
            kernel_calls.append(len(draw.iE))
            return build_E_inv(draw, model)

        def counted_integrate(*args):
            integrals.append(args)
            return integrate(*args)

        monkeypatch.setitem(weights._KERNELS, "E_inv", counted_E_inv)
        monkeypatch.setattr(weights, "integrate", counted_integrate)
        weights._cross_integral.cache_clear()
        config = tmp_path / "collar_sde.cfg"
        config.write_text((CONFIGS / "correlated_collar.cfg").read_text().replace(
            "correlation_mode = payoff_mixing", "correlation_mode = sde_mixing"))
        n = BLOCK_SIZE + 2 * TILE_SIZE + 8
        assert cli.main(["greeks", "--config", str(config),
                         "--all-variants", "--oracle", "fd", "--n", str(n),
                         "--out", os.devnull]) == 0
        tiles = sum(len(tile_bounds(min(BLOCK_SIZE, n - start)))
                    for start in range(0, n, BLOCK_SIZE))
        run = build_run(load_config(config))
        draw = draw_samples(run.model, run.tuning, dataclasses.replace(run.sim, n_samples=n))
        p, f0E, f0I = run.payoff, run.model.energy.f0, run.model.temperature.f0
        bump = estimators.FD_BUMP
        fE = [(f0E * scale) * (draw.fE_T / f0E) for scale in (1.0 - bump, 1.0 + bump)]
        fI = [(f0I * scale) * (draw.fI_T / f0I) for scale in (1.0 - bump, 1.0 + bump)]
        live = ((fE[1] > p.kE_high) & (fI[1] > p.kI_high)) | ((fE[0] < p.kE_low)
                                                              & (fI[0] < p.kI_low))
        assert 0 < np.count_nonzero(live) < n // 2
        assert tiles == 7 and len(kernel_calls) == tiles
        assert sum(kernel_calls) == np.count_nonzero(live)
        assert len(integrals) == 1

    @pytest.mark.parametrize("mode", MODES)
    def test_views_share_the_tile_and_build_only_their_rho_arrays(self, uniform_tuning, mode):
        # a sweep's tile is at rho = 0; a view at another rho shares the draw, eE,
        # the rho-free weights and kernels and the unbumped levels by identity. A
        # payoff_mixing weight reads no rho, but an sde_mixing view at rho != 0 refuses it
        model = make_model(rho=0.0, sigI=0.3, mode=mode)
        cfg = SimConfig(TILE_SIZE, seed=69)
        plan = estimators._build_plan(model, uniform_tuning, cfg.scheme)
        draw = estimators._draw_block(plan, cfg, 0)
        tile = estimators._BlockData(draw, plan, model, ATM,
                                     estimators._grid_layout({(1.0, 1.0)}))
        tile.pay_base
        gamma = V.CORR_CROSS_GAMMA_CONDITIONAL
        weight = weight_for(gamma, draw, model, uniform_tuning, tile._kernels)
        view = tile.at(dataclasses.replace(model, rho=0.4))
        view.pay_base
        assert view.draw is draw and view.eE is tile.eE
        if mode is CorrelationMode.SDE_MIXING:
            with pytest.raises(ValueError, match="^CorrCrossGamma_Conditional is a payoff_mixing"):
                weight_for(gamma, draw, view.model, uniform_tuning, view._kernels)
        else:
            assert weight_for(gamma, draw, view.model, uniform_tuning, view._kernels) is weight
        assert view._kernels[0] is tile._kernels[0] and not view._kernels[1]
        shared = ["E"] if mode is CorrelationMode.SDE_MIXING else ["E", "I"]
        assert sorted(tile._levels) == shared
        for leg in shared:
            assert view._level(leg, 1.0) is tile._levels[leg]
        if mode is CorrelationMode.SDE_MIXING:
            level = estimators._temperature_level(plan, 0.4, draw.gI, draw.gI_cross)
            assert view.eI.tobytes() == (level / model.temperature.f0).tobytes()
        else:
            assert view.eI is tile.eI

    @pytest.mark.parametrize("mode", MODES)
    def test_greeks_tile_keeps_no_level(self, uniform_tuning, mode):
        # the layout of greeks --oracle fd: the base and every bump of the three stencils;
        # views read the base alone, so such a tile keeps no level past its grid
        model = make_model(rho=0.3, f0I=60.0, sigI=0.4, mode=mode)
        cfg = SimConfig(TILE_SIZE, seed=70, antithetic=True)
        points = {(1.0, 1.0), *(p for which in estimators.GREEKS
                                for p in estimators._bump_points(which))}
        tile = estimators._BlockData(draw_samples(model, uniform_tuning, cfg),
                                     estimators._build_plan(model, uniform_tuning, cfg.scheme),
                                     model, COLLAR, estimators._grid_layout(points))
        tile.payoff_at(1.0 + estimators.FD_BUMP, 1.0)
        assert tile._payoffs and not tile._levels
        view = tile.at(dataclasses.replace(model, rho=-0.2))
        for point in points:
            assert (view.payoff_at(*point).tobytes()
                    == oracles.per_point_payoff(view, *point).tobytes()), point
        assert not tile._levels

    def test_sweep_draws_each_block_once(self, monkeypatch, uniform_tuning):
        calls = counting_draws(monkeypatch)
        residual_risk(make_model(rho=0.3), ATM, uniform_tuning, [-0.5, 0.25, 0.5],
                      SimConfig(200_001, seed=59), which="dEdI")
        assert sorted(calls) == list(range(block_count(200_001)))

    def test_converge_draws_each_block_of_the_largest_size_once(self, monkeypatch,
                                                                uniform_tuning):
        calls = counting_draws(monkeypatch)
        convergence_table(make_model(), ATM, uniform_tuning, V.CORR_CROSS_GAMMA_CONDITIONAL,
                          SimConfig(200_001, seed=60), [70_000, 131_072, 200_001])
        assert sorted(calls) == list(range(block_count(200_001)))

    def test_scenario_views_do_not_accumulate(self, uniform_tuning):
        # each scenario's arrays die with its job, so a block's peak memory
        # does not grow with the number of correlations swept
        model = make_model(rho=0.3, mode=CorrelationMode.SDE_MIXING)
        cfg = SimConfig(BLOCK_SIZE, seed=61)

        def peak(grid_size):
            grid = [0.8 * k / grid_size - 0.4 for k in range(grid_size)]
            tracemalloc.start()
            try:
                residual_risk(model, ATM, uniform_tuning, grid, cfg, which="dEdI")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8) <= 1.5 * peak(1)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("payoff", [ATM, COLLAR], ids=lambda p: type(p).__name__)
    def test_sweep_tile_evaluates_each_energy_leg_once(self, monkeypatch, uniform_tuning,
                                                       payoff, mode):
        # the baseline and four scenarios read one tile: the energy level reads no rho, so
        # every view shares each term's energy leg at the one energy scale; the ATM call's
        # two legs are equal, so legs are told apart by identity
        energy = [g for g, _ in payoff.terms]
        calls = []
        leg_call = payoffs.Leg.__call__

        def counted(leg, x, out=None):
            calls.extend(k for k, g in enumerate(energy) if g is leg)
            return leg_call(leg, x, out)

        monkeypatch.setattr(payoffs.Leg, "__call__", counted)
        model = make_model(rho=0.3, f0I=60.0, sigI=0.4, mode=mode)
        residual_risk(model, payoff, uniform_tuning, [-0.5, -0.25, 0.25, 0.5],
                      SimConfig(TILE_SIZE, seed=77), which="dEdI")
        assert sorted(calls) == list(range(len(energy)))

    def test_block_memory_stops_growing_at_one_job_group(self, uniform_tuning):
        # a block keeps one value row per job of a group of at most eight, so a
        # 32-point sweep peaks no higher than an 8-point one
        model = make_model(rho=0.3, mode=CorrelationMode.SDE_MIXING)
        cfg = SimConfig(BLOCK_SIZE, seed=61)

        def peak(grid_size):
            grid = [0.8 * k / grid_size - 0.4 for k in range(grid_size)]
            tracemalloc.start()
            try:
                residual_risk(model, ATM, uniform_tuning, grid, cfg, which="dEdI")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(32) <= 1.1 * peak(8)

    def test_sizes_must_end_at_the_pass_size(self, atm_model, uniform_tuning):
        with pytest.raises(ValueError, match="largest sample count"):
            mc_price(atm_model, ATM, SimConfig(1000, seed=0), uniform_tuning, sizes=[10, 500])


def pair_mean_inputs():
    """Wide-range normals and every pair of edge values: ±0, subnormals, ±inf, NaN payloads."""
    rng = np.random.default_rng(67)
    spread = rng.standard_normal(4096) * np.exp(rng.uniform(-700.0, 700.0, 4096))
    payload_nans = np.array([0x7FF0000000000123, 0xFFF8000000000456], np.uint64).view(float)
    edge = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, math.inf, -math.inf,
            math.nan, -math.nan, *payload_nans, 1.0, -3.5]
    pairs = np.array([x for pair in itertools.product(edge, repeat=2) for x in pair])
    return spread, pairs


PAYOFF_WEIGHTS = [v for v in V if weights.WEIGHTS[v].mode is CorrelationMode.PAYOFF_MIXING]


class TestReadSet:
    COLLAR_RUN = build_run(load_config(CONFIGS / "correlated_collar.cfg"))
    # (model under a mode, tuning, scheme, rank of the plan)
    PLANS = {
        "rank-1": (lambda mode: make_model(rho=0.3, sigI=0.3, mode=mode),
                   TuningFunction.uniform(1.0), SimScheme.exact(), 1),
        "collar-rank-2": (lambda mode: dataclasses.replace(TestReadSet.COLLAR_RUN.model,
                                                           correlation_mode=mode),
                          COLLAR_RUN.tuning, SimScheme.exact(), 2),
        "euler:40": (lambda mode: make_model(rho=0.3, sigI=0.3, mode=mode),
                     TuningFunction.uniform(1.0), SimScheme.log_euler(40), 1),
    }
    LEVELS = {"fE_T", "fI_T"}
    DRIVERS = {"gI", "gI_cross"}  # sde_mixing views rebuild the temperature level from these
    # (mode, pass(model, tuning, cfg), the fields the pass draws)
    PASSES = {
        "price": (CorrelationMode.PAYOFF_MIXING,
                  lambda m, a, cfg: mc_price(m, COLLAR, cfg, a), LEVELS),
        "payoff-weights": (CorrelationMode.PAYOFF_MIXING,
                           lambda m, a, cfg: mc_estimates(m, COLLAR, a, PAYOFF_WEIGHTS, cfg,
                                                          fd_greeks=["dEdI"]),
                           LEVELS | {"iE", "iI"}),
        "sde-price": (CorrelationMode.SDE_MIXING,
                      lambda m, a, cfg: mc_price(m, COLLAR, cfg, a), LEVELS | DRIVERS),
        "sde-weights": (CorrelationMode.SDE_MIXING,
                        lambda m, a, cfg: mc_greek(
                            m, COLLAR, a, V.CORR_CROSS_GAMMA_MATRIX_INVERSE, cfg,
                            scenarios=[-0.2]),
                        LEVELS | DRIVERS | {"iE", "iI", "iE_cross"}),
    }

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("plan_id", PLANS)
    @pytest.mark.parametrize("pass_id", PASSES)
    def test_pass_draws_its_fields_with_the_bits_of_sample_block(self, monkeypatch, pass_id,
                                                                 plan_id, antithetic):
        mode, run, held = self.PASSES[pass_id]
        model_at, tuning, scheme, rank = self.PLANS[plan_id]
        model = model_at(mode)
        cfg = SimConfig(BLOCK_SIZE + TILE_SIZE + 6, seed=72, antithetic=antithetic,
                        scheme=scheme)
        draws = captured_draws(monkeypatch)
        run(model, tuning, cfg)
        assert sorted(draws) == [0, 1]
        for block, (plan, drawn) in draws.items():
            assert plan.loadE.shape[1] == rank
            assert {name for name, values in drawn.items() if values is not None} == held
            full = sample_block(model, tuning, cfg, block)
            for name in held:
                assert drawn[name].tobytes() == getattr(full, name).tobytes(), (block, name)

    # (pass(model, tuning, cfg), the fields it draws) of an sde_mixing pass at rho = 0
    ZERO_RHO_PASSES = {
        "price": (lambda m, a, cfg: mc_price(m, COLLAR, cfg, a), LEVELS),
        "scenario": (lambda m, a, cfg: mc_greek(m, COLLAR, a, V.CORR_DELTA_I_MATRIX_INVERSE, cfg,
                                                scenarios=[-0.2]),
                     LEVELS | DRIVERS | {"iI"}),
    }

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("plan_id", PLANS)
    @pytest.mark.parametrize("pass_id", ZERO_RHO_PASSES)
    def test_sde_pass_at_zero_rho_holds_the_drivers_only_for_scenarios(
            self, monkeypatch, pass_id, plan_id, antithetic):
        # at rho = 0 the level is gI plus its drift, summed straight into fI_T; only a
        # scenario view rebuilds it from gI and gI_cross
        run, held = self.ZERO_RHO_PASSES[pass_id]
        model_at, tuning, scheme, _ = self.PLANS[plan_id]
        model = dataclasses.replace(model_at(CorrelationMode.SDE_MIXING), rho=0.0)
        cfg = SimConfig(BLOCK_SIZE + TILE_SIZE + 6, seed=72, antithetic=antithetic,
                        scheme=scheme)
        draws = captured_draws(monkeypatch)
        run(model, tuning, cfg)
        assert sorted(draws) == [0, 1]
        for block, (_, drawn) in draws.items():
            assert {name for name, values in drawn.items() if values is not None} == held
            full = sample_block(model, tuning, cfg, block)
            for name in held:
                assert drawn[name].tobytes() == getattr(full, name).tobytes(), (block, name)


class TestPairMeans:
    def test_equals_mean_of_each_pair_bit_for_bit(self):
        for values in pair_mean_inputs():
            with np.errstate(over="ignore", invalid="ignore"):
                expected = values.reshape(-1, 2).mean(axis=1)
                got = estimators._pair_means(values)
            assert got.tobytes() == expected.tobytes()

    def test_in_place_writer_equals_mean_of_each_pair_bit_for_bit(self):
        # the pass writes pair means into a slice of a job's value row
        for values in pair_mean_inputs():
            rows = np.full((2, len(values) // 2 + 5), 7.0)
            with np.errstate(over="ignore", invalid="ignore"):
                expected = values.reshape(-1, 2).mean(axis=1)
                got = estimators._pair_means(values, out=rows[1, 3:-2])
            assert got.base is rows
            assert got.tobytes() == expected.tobytes()
            assert (rows[0] == 7.0).all() and (rows[1, :3] == 7.0).all() and (
                rows[1, -2:] == 7.0).all()

    def test_antithetic_pass_keeps_its_values(self):
        # frozen from the reshape-and-mean pair reduction at n = 65 538 (two
        # blocks); the stderr values from block M2 values merged in block order. Re-frozen
        # when the draw began summing each accumulator in fixed order.
        model = make_model(rho=0.3, f0I=60.0, sigI=0.4)
        tuning = TuningFunction.from_segments([(0.0, 2.0), (0.5, 0.0)], 1.0)
        cfg = SimConfig(65_538, seed=66, antithetic=True)
        price = mc_price(model, COLLAR, cfg, tuning)
        assert (price.value, price.stderr) == (124.86897289027883, 1.5933037457376678)
        greek = mc_greek(model, COLLAR, tuning, V.CORR_CROSS_GAMMA_CONDITIONAL, cfg)
        assert (greek.value, greek.stderr) == (0.3328884479980064, 0.015264841178394448)


class TestResidualRisk:
    def test_zero_rho_row_vanishes_exactly(self, uniform_tuning):
        m = make_model(rho=0.3)
        rows = residual_risk(m, ATM, uniform_tuning, [0.0], SimConfig(20_000, seed=49))
        assert rows[0]["abs_diff"] == 0.0

    def test_three_row_grid_format(self, uniform_tuning):
        m = make_model(rho=0.3)
        rows = residual_risk(m, ATM, uniform_tuning, [-0.5, 0.0, 0.5],
                             SimConfig(20_000, seed=50))
        assert len(rows) == 3
        assert list(rows[0]) == ["rho", "delta_corr", "delta_ind", "abs_diff", "stderr"]
        assert [r["rho"] for r in rows] == [-0.5, 0.0, 0.5]

    @pytest.mark.parametrize("variant,which", [(V.CORR_CROSS_GAMMA_CONDITIONAL, "dE"),
                                               (V.CORR_DELTA_E_CONDITIONAL, "dI")])
    def test_variant_of_another_greek_rejected(self, monkeypatch, uniform_tuning, variant,
                                               which):
        # unchecked, each row subtracted the rho = 0 estimate of one Greek from another
        calls = counting_draws(monkeypatch)
        with pytest.raises(ValueError, match=f"^{variant.value} estimates d\\w+, not {which}$"):
            residual_risk(make_model(rho=0.3), ATM, uniform_tuning, [0.3],
                          SimConfig(1000, seed=0), variant=variant, which=which)
        assert calls == []

    def test_out_of_range_rho_rejected(self, atm_model, uniform_tuning):
        with pytest.raises(ValueError, match=r"rho must lie in \(-1, 1\), got 1.0"):
            residual_risk(atm_model, ATM, uniform_tuning, [1.0], SimConfig(100, seed=0))


class TestConvergenceTable:
    def test_rows_and_prefix_sharing(self, atm_model, uniform_tuning):
        rows = convergence_table(atm_model, ATM, uniform_tuning, None,
                                 SimConfig(40_000, seed=51), [10_000, 40_000])
        assert len(rows) == 2
        assert rows[1]["stderr"] < rows[0]["stderr"]

    def test_singleton_grid(self, atm_model, uniform_tuning):
        rows = convergence_table(atm_model, ATM, uniform_tuning, V.CORR_DELTA_E_CONDITIONAL,
                                 SimConfig(5_000, seed=52), [5_000])
        assert len(rows) == 1

    def test_quadrupling_samples_halves_stderr(self, atm_model, uniform_tuning):
        rows = convergence_table(atm_model, ATM, uniform_tuning, None,
                                 SimConfig(400_000, seed=55), [100_000, 400_000])
        ratio = rows[1]["stderr"] / rows[0]["stderr"]
        assert 0.4 <= ratio <= 0.6

    def test_monotone_grid_required(self, atm_model, uniform_tuning):
        cfg = SimConfig(100, seed=0)
        with pytest.raises(ValueError):
            convergence_table(atm_model, ATM, uniform_tuning, None, cfg, [100, 100])
        with pytest.raises(ValueError):
            convergence_table(atm_model, ATM, uniform_tuning, None, cfg, [])

    def test_grid_must_end_at_the_pass_size(self, atm_model, uniform_tuning):
        with pytest.raises(ValueError, match="largest sample count"):
            convergence_table(atm_model, ATM, uniform_tuning, None, SimConfig(100, seed=0),
                              [10, 50])


class TestTuningInvariance:
    def test_front_loaded_step_gives_same_delta(self, atm_model):
        uniform = TuningFunction.uniform(1.0)
        step = TuningFunction.from_segments([(0.0, 2.0), (0.5, 0.0)], 1.0)
        delta_E = V.CORR_DELTA_E_CONDITIONAL
        a = mc_greek(atm_model, ATM, uniform, delta_E, SimConfig(400_000, seed=53))
        b = mc_greek(atm_model, ATM, step, delta_E, SimConfig(400_000, seed=54))
        assert abs(a.value - b.value) < 4.0 * math.hypot(a.stderr, b.stderr)
