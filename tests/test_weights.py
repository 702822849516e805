import math

import numpy as np
import pytest

from conftest import make_model
from quantogreeks import SimConfig, WeightVariant, draw_samples, greek_of, weight_for
from quantogreeks.simulate import SampleDraw

V = WeightVariant

CORR_TO_INDEP = {
    V.CORR_DELTA_E_MATRIX_INVERSE: V.INDEP_DELTA_E,
    V.CORR_DELTA_E_CONDITIONAL: V.INDEP_DELTA_E,
    V.CORR_DELTA_I: V.INDEP_DELTA_I,
    V.CORR_CROSS_GAMMA_MATRIX_INVERSE: V.INDEP_CROSS_GAMMA,
    V.CORR_CROSS_GAMMA_CONDITIONAL: V.INDEP_CROSS_GAMMA,
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
        w = weight_for(V.INDEP_DELTA_E, draw, atm_model, uniform_tuning)
        assert w[0] == pytest.approx(0.025, rel=1e-12)

    def test_delta_E_zero_driver(self, atm_model, uniform_tuning):
        assert weight_for(V.INDEP_DELTA_E, manual_draw(), atm_model, uniform_tuning)[0] == 0.0

    def test_delta_I_formula(self, uniform_tuning):
        m = make_model(f0I=50.0, sigI=0.4)
        draw = manual_draw(iI=-1.0 / 0.4)
        w = weight_for(V.INDEP_DELTA_I, draw, m, uniform_tuning)
        assert w[0] == pytest.approx(-0.05, rel=1e-12)

    def test_cross_gamma_is_the_product(self, uniform_tuning):
        m = make_model(f0I=50.0, sigI=0.4)
        draw = manual_draw(iE=2.5, iI=-2.5)
        w = weight_for(V.INDEP_CROSS_GAMMA, draw, m, uniform_tuning)
        assert w[0] == pytest.approx(0.025 * -0.05, rel=1e-12)

    def test_sample_means_vanish(self, atm_model, uniform_tuning):
        draw = draw_samples(atm_model, uniform_tuning, SimConfig(1_000_000, seed=21))
        for variant in (V.INDEP_DELTA_E, V.INDEP_DELTA_I, V.INDEP_CROSS_GAMMA):
            w = weight_for(variant, draw, atm_model, uniform_tuning)
            assert abs(w.mean()) < 3.0 * w.std(ddof=1) / math.sqrt(len(w))

    def test_nonzero_rho_rejected(self, uniform_tuning):
        m = make_model(rho=0.4)
        message = r"^IndepDeltaE assumes rho = 0 \(model has rho=0\.4\)$"
        with pytest.raises(ValueError, match=message):
            weight_for(V.INDEP_DELTA_E, manual_draw(), m, uniform_tuning)


class TestCorrelatedDeltaE:
    def test_matrix_inverse_two_integral_form(self, uniform_tuning):
        # constant sigma, a = 1/T: weight = [W_E/sig - rho W~_I/(sig sqrt(1-rho^2))] / (f0 T)
        rho, sig = 0.6, 0.2
        m = make_model(rho=rho)
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


class TestCorrelatedCrossGamma:
    def test_compensator_value(self, uniform_tuning):
        m = make_model(f0E=100.0, f0I=50.0, sigE=0.2, sigI=0.4, rho=0.5)
        w = weight_for(V.CORR_CROSS_GAMMA_MATRIX_INVERSE, manual_draw(), m, uniform_tuning)
        # zero integrals leave only the deterministic term: rho/(f0E f0I sigE sigI (1-rho^2) T)
        assert w[0] == pytest.approx(-0.5 / 300.0, rel=1e-12)

    @pytest.mark.parametrize("sigE", [0.0, -0.2])
    def test_compensator_requires_positive_volatility(self, uniform_tuning, sigE):
        m = make_model(sigE=sigE, rho=0.5)
        with pytest.raises(ValueError, match="positive volatility"):
            weight_for(V.CORR_CROSS_GAMMA_MATRIX_INVERSE, manual_draw(), m, uniform_tuning)

    def test_conditional_is_plain_product(self, uniform_tuning):
        m = make_model(rho=0.5)
        w = weight_for(V.CORR_CROSS_GAMMA_CONDITIONAL, manual_draw(iE=2.0, iI=3.0), m,
                       uniform_tuning)
        assert w[0] == pytest.approx(0.02 * 0.03)

    def test_mean_matches_gaussian_covariance_algebra(self, uniform_tuning):
        # the two integral factors have covariance -compensator, so the full
        # weight (product minus compensator) has expectation -2 * compensator
        m = make_model(rho=0.5)
        draw = draw_samples(m, uniform_tuning, SimConfig(1_000_000, seed=22))
        w = weight_for(V.CORR_CROSS_GAMMA_MATRIX_INVERSE, draw, m, uniform_tuning)
        comp = 0.5 * 25.0 / (0.75 * 1e4)  # rho v_aa / ((1-rho^2) f0E f0I)
        se = w.std(ddof=1) / math.sqrt(len(w))
        assert abs(w.mean() + 2.0 * comp) < 3.0 * se


MATRIX_INVERSE = (V.CORR_DELTA_E_MATRIX_INVERSE, V.CORR_CROSS_GAMMA_MATRIX_INVERSE)


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
    def test_every_correlated_variant_reduces_bitwise(self, uniform_tuning):
        m = make_model(rho=0.0)
        draw = draw_samples(m, uniform_tuning, SimConfig(10_000, seed=23))
        for corr, indep in CORR_TO_INDEP.items():
            w_corr = weight_for(corr, draw, m, uniform_tuning)
            w_ind = weight_for(indep, draw, m, uniform_tuning)
            assert np.array_equal(w_corr, w_ind), corr

    def test_greek_labels(self):
        assert greek_of(V.INDEP_DELTA_E) == "dE"
        assert all(greek_of(v) == "dE" for v in DELTA_E_VARIANTS)
        assert greek_of(V.INDEP_DELTA_I) == greek_of(V.CORR_DELTA_I) == "dI"
        assert greek_of(V.INDEP_CROSS_GAMMA) == "dEdI"
        assert all(greek_of(v) == "dEdI" for v in CROSS_GAMMA_VARIANTS)
