import dataclasses
import math

import numpy as np
import pytest

from conftest import make_model
from quantogreeks import (SimConfig, TuningFunction, WeightVariant, draw_samples, greek_of,
                          weight_for, weights)
from quantogreeks.model import CorrelationMode
from quantogreeks.simulate import SampleDraw

V = WeightVariant
SDE = CorrelationMode.SDE_MIXING

# each sde_mixing weight and the payoff_mixing weight of the same Greek
SDE_TO_PAYOFF = {
    V.CORR_DELTA_E_MATRIX_INVERSE: V.CORR_DELTA_E_CONDITIONAL,
    V.CORR_DELTA_I_MATRIX_INVERSE: V.CORR_DELTA_I,
    V.CORR_CROSS_GAMMA_MATRIX_INVERSE: V.CORR_CROSS_GAMMA_CONDITIONAL,
}


DELTA_E_VARIANTS = (V.CORR_DELTA_E_MATRIX_INVERSE, V.CORR_DELTA_E_CONDITIONAL)
CROSS_GAMMA_VARIANTS = (V.CORR_CROSS_GAMMA_MATRIX_INVERSE, V.CORR_CROSS_GAMMA_CONDITIONAL)


def manual_draw(**overrides):
    """A single hand-built draw; unspecified fields default to zero/one."""
    fields = {name: np.array([0.0]) for name in
              ("gE", "gI", "iE", "iI", "iE_cross", "gI_cross")}
    fields["fE_T"] = np.array([100.0])
    fields["fI_T"] = np.array([100.0])
    for key, value in overrides.items():
        fields[key] = np.array([float(value)])
    return SampleDraw(**fields)


class TestIndependentWeights:
    def test_delta_E_constant_vol_formula(self, atm_model, uniform_tuning):
        # sigma=0.2, a=1/T, T=1: iE = W(T)/(sigma T) and the weight is W / (f0 sigma T)
        draw = manual_draw(iE=0.5 / (0.2 * 1.0))
        w = weight_for(V.CORR_DELTA_E_CONDITIONAL, draw, atm_model, uniform_tuning)
        assert w[0] == pytest.approx(0.025, rel=1e-12)

    def test_delta_E_zero_driver(self, atm_model, uniform_tuning):
        assert weight_for(V.CORR_DELTA_E_CONDITIONAL, manual_draw(), atm_model,
                          uniform_tuning)[0] == 0.0

    def test_delta_I_formula(self, uniform_tuning):
        m = make_model(f0I=50.0, sigI=0.4)
        draw = manual_draw(iI=-1.0 / 0.4)
        w = weight_for(V.CORR_DELTA_I, draw, m, uniform_tuning)
        assert w[0] == pytest.approx(-0.05, rel=1e-12)

    def test_cross_gamma_is_the_product(self, uniform_tuning):
        m = make_model(f0I=50.0, sigI=0.4)
        draw = manual_draw(iE=2.5, iI=-2.5)
        w = weight_for(V.CORR_CROSS_GAMMA_CONDITIONAL, draw, m, uniform_tuning)
        assert w[0] == pytest.approx(0.025 * -0.05, rel=1e-12)

    def test_sample_means_vanish(self, atm_model, uniform_tuning):
        draw = draw_samples(atm_model, uniform_tuning, SimConfig(1_000_000, seed=21))
        for variant in (V.CORR_DELTA_E_CONDITIONAL, V.CORR_DELTA_I,
                        V.CORR_CROSS_GAMMA_CONDITIONAL):
            w = weight_for(variant, draw, atm_model, uniform_tuning)
            assert abs(w.mean()) < 3.0 * w.std(ddof=1) / math.sqrt(len(w))

    @pytest.mark.parametrize("variant", ["CorrDeltaI", 3, None])
    def test_non_variant_rejected(self, atm_model, uniform_tuning, variant):
        with pytest.raises(ValueError, match=f"^unknown weight variant {variant!r}$"):
            weight_for(variant, manual_draw(), atm_model, uniform_tuning)

    @pytest.mark.parametrize("sde_variant,payoff_variant", SDE_TO_PAYOFF.items())
    def test_other_mode_rejected(self, uniform_tuning, sde_variant, payoff_variant):
        # at rho != 0 a weight runs only under its own correlation mode
        for variant, model_mode in ((payoff_variant, "sde_mixing"), (sde_variant, "payoff_mixing")):
            m = make_model(rho=0.4, mode=CorrelationMode(model_mode))
            message = (rf"^{variant.value} is a \w+ weight \(model has "
                       rf"correlation_mode = {model_mode}, rho=0\.4\)$")
            with pytest.raises(ValueError, match=message):
                weight_for(variant, manual_draw(), m, uniform_tuning)


class TestCorrelatedDeltaE:
    def test_matrix_inverse_two_integral_form(self, uniform_tuning):
        # constant sigma, a = 1/T: weight = [W_E/sig - rho W~_I/(sig sqrt(1-rho^2))] / (f0 T)
        rho, sig = 0.6, 0.2
        m = make_model(rho=rho, mode=SDE)
        wE, wI = 0.5, -0.8
        draw = manual_draw(iE=wE / sig, iE_cross=wI / sig)
        w = weight_for(V.CORR_DELTA_E_MATRIX_INVERSE, draw, m, uniform_tuning)
        expected = (wE / sig - rho * wI / (sig * math.sqrt(1 - rho * rho))) / 100.0
        assert w[0] == pytest.approx(expected, rel=1e-12)

    def test_conditional_keeps_single_integral(self, uniform_tuning):
        m = make_model(rho=0.6)
        w = weight_for(V.CORR_DELTA_E_CONDITIONAL, manual_draw(iE=2.5), m, uniform_tuning)
        assert w[0] == pytest.approx(0.025)


class TestCorrelatedDeltaI:
    def test_scaling_pair(self, uniform_tuning):
        # rho=0.6, f0I=50, sigma_I=0.4, W~(T)=1: weight iI / fI(0) = 0.05, whatever rho
        m = make_model(f0I=50.0, sigI=0.4, rho=0.6)
        draw = manual_draw(iI=1.0 / 0.4)
        w = weight_for(V.CORR_DELTA_I, draw, m, uniform_tuning)
        assert w[0] == pytest.approx(0.05, rel=1e-12)

    def test_matrix_inverse_rescales_by_the_independent_share(self, uniform_tuning):
        # the same draw under sde_mixing: iI / (fI(0) sqrt(1 - rho^2)) = 0.05 / 0.8
        m = make_model(f0I=50.0, sigI=0.4, rho=0.6, mode=SDE)
        w = weight_for(V.CORR_DELTA_I_MATRIX_INVERSE, manual_draw(iI=1.0 / 0.4), m,
                       uniform_tuning)
        assert w[0] == pytest.approx(0.0625, rel=1e-12)


class TestCorrelatedCrossGamma:
    def test_compensator_value(self, uniform_tuning):
        m = make_model(f0E=100.0, f0I=50.0, sigE=0.2, sigI=0.4, rho=0.5, mode=SDE)
        w = weight_for(V.CORR_CROSS_GAMMA_MATRIX_INVERSE, manual_draw(), m, uniform_tuning)
        # zero integrals leave only the deterministic term: rho/(f0E f0I sigE sigI (1-rho^2) T)
        assert w[0] == pytest.approx(0.5 / 300.0, rel=1e-12)

    @pytest.mark.parametrize("sigE", [0.0, -0.2])
    def test_compensator_requires_positive_volatility(self, uniform_tuning, sigE):
        m = make_model(sigE=sigE, rho=0.5, mode=SDE)
        with pytest.raises(ValueError, match="positive volatility"):
            weight_for(V.CORR_CROSS_GAMMA_MATRIX_INVERSE, manual_draw(), m, uniform_tuning)

    def test_conditional_is_plain_product(self, uniform_tuning):
        m = make_model(rho=0.5)
        w = weight_for(V.CORR_CROSS_GAMMA_CONDITIONAL, manual_draw(iE=2.0, iI=3.0), m,
                       uniform_tuning)
        assert w[0] == pytest.approx(0.02 * 0.03)

    def test_mean_matches_gaussian_covariance_algebra(self, uniform_tuning):
        # the two integral factors have covariance -compensator, rho v_aa /
        # ((1-rho^2) f0E f0I), so the full weight (product plus compensator) has
        # expectation zero, like every weight
        m = make_model(rho=0.5, mode=SDE)
        draw = draw_samples(m, uniform_tuning, SimConfig(1_000_000, seed=22))
        w = weight_for(V.CORR_CROSS_GAMMA_MATRIX_INVERSE, draw, m, uniform_tuning)
        se = w.std(ddof=1) / math.sqrt(len(w))
        assert abs(w.mean()) < 3.0 * se


MATRIX_INVERSE = (V.CORR_DELTA_E_MATRIX_INVERSE, V.CORR_DELTA_I_MATRIX_INVERSE,
                  V.CORR_CROSS_GAMMA_MATRIX_INVERSE)


class TestWeightDomain:
    # outside these bounds the kernels divide by zero or are nan
    @pytest.mark.parametrize("variant", MATRIX_INVERSE)
    @pytest.mark.parametrize("rho", [1.0, -1.0])
    def test_unit_rho_rejected(self, uniform_tuning, variant, rho):
        with pytest.raises(ValueError, match=r"-1 < rho < 1"):
            weight_for(variant, manual_draw(iE=1.0, iI=1.0), make_model(rho=rho), uniform_tuning)

    @pytest.mark.parametrize("variant", MATRIX_INVERSE)
    def test_nan_rho_rejected(self, uniform_tuning, variant):
        with pytest.raises(ValueError, match=r"rho=nan"):
            weight_for(variant, manual_draw(iE=1.0, iI=1.0), make_model(rho=math.nan),
                       uniform_tuning)

    @pytest.mark.parametrize("leg", ["f0E", "f0I"])
    @pytest.mark.parametrize("f0", [0.0, -50.0, math.nan])
    def test_nonpositive_initial_level_rejected(self, uniform_tuning, leg, f0):
        model = make_model(rho=0.3, **{leg: f0})
        for variant in (V.CORR_DELTA_E_CONDITIONAL, V.CORR_DELTA_I, *MATRIX_INVERSE):
            with pytest.raises(ValueError, match="positive initial levels"):
                weight_for(variant, manual_draw(iE=1.0, iI=1.0), model, uniform_tuning)


class TestZeroRhoReduction:
    @pytest.mark.parametrize("mode", list(CorrelationMode))
    def test_the_two_modes_agree_bitwise(self, uniform_tuning, mode):
        # at rho = 0: E_inv -> E, I_inv -> I and the compensator -> 0, up to the sign of a zero
        m = make_model(rho=0.0, mode=mode)
        draw = draw_samples(m, uniform_tuning, SimConfig(10_000, seed=23))
        for sde_variant, payoff_variant in SDE_TO_PAYOFF.items():
            w_sde = weight_for(sde_variant, draw, m, uniform_tuning)
            w_payoff = weight_for(payoff_variant, draw, m, uniform_tuning)
            assert np.array_equal(w_sde, w_payoff), sde_variant

    def test_greek_labels(self):
        assert all(greek_of(v) == "dE" for v in DELTA_E_VARIANTS)
        assert greek_of(V.CORR_DELTA_I_MATRIX_INVERSE) == greek_of(V.CORR_DELTA_I) == "dI"
        assert all(greek_of(v) == "dEdI" for v in CROSS_GAMMA_VARIANTS)

    def test_one_weight_per_greek_and_mode(self):
        for mode in CorrelationMode:
            rows = [v for v in V if weights.WEIGHTS[v].mode is mode]
            assert [greek_of(v) for v in rows] == ["dE", "dI", "dEdI"]
            assert [weights.mode_variant(g, mode) for g in ("dE", "dI", "dEdI")] == rows


class TestReadSet:
    # every variant at rho = 0 in both modes; at rho = 0.3 only a mode's own weights run
    CASES = [(v, mode, rho) for v in V for mode in CorrelationMode for rho in (0.0, 0.3)
             if rho == 0.0 or weights.WEIGHTS[v].mode is mode]

    @pytest.mark.parametrize("variant,mode,rho", CASES,
                             ids=[f"{v.value}-{m.value}-{r}" for v, m, r in CASES])
    def test_weight_reads_only_its_declared_fields(self, variant, mode, rho):
        # a pass draws only the fields its weights declare and leaves the others None
        tuning = TuningFunction.from_segments([(0.0, 2.0), (0.5, 0.0)], 1.0)
        model = make_model(rho=rho, f0I=60.0, sigI=0.4, mode=mode)
        draw = draw_samples(model, tuning, SimConfig(1000, seed=24))
        reads = {"fE_T", "fI_T", *weights.WEIGHTS[variant].reads}
        sparse = SampleDraw(*(getattr(draw, f.name) if f.name in reads else None
                              for f in dataclasses.fields(SampleDraw)))
        assert (weight_for(variant, sparse, model, tuning).tobytes()
                == weight_for(variant, draw, model, tuning).tobytes())
