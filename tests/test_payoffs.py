import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_model
from quantogreeks import (
    DigitalProduct,
    FourStrikeCollar,
    PiecewiseLinear,
    ProductCall,
    Separable,
    evaluate,
)
from quantogreeks.model import CorrelationMode
from quantogreeks.payoffs import (
    KinkSolver,
    Leg,
    conditional_mean,
    energy_kink_levels,
    validate_payoff,
)

prices = st.floats(0.01, 500.0)


class TestEvaluate:
    def test_product_call_arithmetic(self):
        assert evaluate(ProductCall(100.0, 80.0), 120.0, 90.0) == 200.0

    def test_collar_put_put_branch(self):
        p = FourStrikeCollar(kE_high=110.0, kI_high=95.0, kE_low=90.0, kI_low=75.0, alpha=1.0)
        assert evaluate(p, 80.0, 70.0) == 50.0

    @pytest.mark.parametrize("alpha", [1.0, 2.5])
    def test_collar_equals_alpha_times_its_two_legs_bit_for_bit(self, alpha):
        # 1.0 * x is x, so the collar may skip that multiply and keep every bit
        rng = np.random.default_rng(5)
        fE = np.concatenate([rng.uniform(60.0, 140.0, 500), [90.0, 110.0, 0.0, -0.0, 1e150]])
        fI = np.concatenate([rng.uniform(40.0, 110.0, 500), [50.0, 70.0, -0.0, 0.0, 1e150]])
        p = FourStrikeCollar(110.0, 70.0, 90.0, 50.0, alpha)
        legs = (np.maximum(fE - 110.0, 0.0) * np.maximum(fI - 70.0, 0.0)
                + np.maximum(90.0 - fE, 0.0) * np.maximum(50.0 - fI, 0.0))
        assert evaluate(p, fE, fI).tobytes() == (alpha * legs).tobytes()

    def test_digital_boundary_is_strict(self):
        p = DigitalProduct(100.0, 80.0)
        assert evaluate(p, 100.0, 90.0) == 0.0
        assert evaluate(p, 100.0 + 1e-9, 90.0) == 1.0

    def test_vectorized_evaluation(self):
        p = ProductCall(100.0, 100.0)
        fE = np.array([90.0, 110.0, 150.0])
        fI = np.array([120.0, 90.0, 110.0])
        assert evaluate(p, fE, fI).tolist() == [0.0, 0.0, 500.0]

    @settings(max_examples=200, deadline=None)
    @given(fE=prices, fI=prices)
    def test_builtin_variants_are_nonnegative(self, fE, fI):
        for p in (
            ProductCall(100.0, 80.0),
            FourStrikeCollar(110.0, 95.0, 90.0, 75.0, 2.0),
            DigitalProduct(100.0, 80.0),
        ):
            assert evaluate(p, fE, fI) >= 0.0

    @settings(max_examples=200, deadline=None)
    @given(fE=prices, fI=prices, bump=st.floats(0.0, 50.0))
    def test_product_call_monotone_in_both_legs(self, fE, fI, bump):
        p = ProductCall(100.0, 80.0)
        base = evaluate(p, fE, fI)
        assert evaluate(p, fE + bump, fI) >= base
        assert evaluate(p, fE, fI + bump) >= base

    @settings(max_examples=200, deadline=None)
    @given(fE=prices, fI=prices)
    def test_collar_decomposes_into_call_call_plus_put_put(self, fE, fI):
        collar = FourStrikeCollar(110.0, 95.0, 90.0, 75.0, 1.0)
        call_call = evaluate(ProductCall(110.0, 95.0), fE, fI)
        put_put = max(90.0 - fE, 0.0) * max(75.0 - fI, 0.0)
        assert evaluate(collar, fE, fI) == pytest.approx(call_call + put_put, rel=1e-12)

    @pytest.mark.parametrize("shapes", [((4096,), (4096,)), ((4096,), (3, 4096)), ((), ())])
    def test_product_payoffs_equal_the_operator_formulas_bit_for_bit(self, shapes):
        # evaluate works in place; the plain expressions are the reference
        rng = np.random.default_rng(69)
        edge = [0.0, -0.0, 5e-324, 90.0, 110.0, math.inf, math.nan]
        fE, fI = (np.where(rng.random(shape) < 0.1, rng.choice(edge, shape),
                           rng.uniform(0.0, 200.0, shape)) for shape in shapes)
        call, collar = ProductCall(100.0, 60.0), FourStrikeCollar(110.0, 70.0, 90.0, 50.0, 1.5)
        digital = DigitalProduct(110.0, 90.0)
        with np.errstate(invalid="ignore"):
            cases = [
                (evaluate(call, fE, fI), np.maximum(fE - 100.0, 0.0) * np.maximum(fI - 60.0, 0.0)),
                (evaluate(collar, fE, fI),
                 1.5 * (np.maximum(fE - 110.0, 0.0) * np.maximum(fI - 70.0, 0.0)
                        + np.maximum(90.0 - fE, 0.0) * np.maximum(50.0 - fI, 0.0))),
                (evaluate(digital, fE, fI), ((fE > 110.0) & (fI > 90.0)).astype(float)),
                (evaluate(SEPARABLE, fE, fI), SEPARABLE.g(fE) * SEPARABLE.h(fI)),
            ]
        for got, expected in cases:
            assert type(got) is type(expected)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    @pytest.mark.parametrize("function", [
        lambda p: evaluate(p, 100.0, 90.0),
        lambda p: conditional_mean(p, 100.0, 0.0, 90.0, 0.2),
        energy_kink_levels,
    ])
    def test_non_payoff_is_an_unknown_payoff_spec(self, function):
        with pytest.raises(TypeError, match="^unknown payoff spec str$"):
            function("product_call")

    @pytest.mark.parametrize("p", [
        ProductCall(100.0, 80.0), FourStrikeCollar(110.0, 70.0, 90.0, 50.0),
        DigitalProduct(100.0, 80.0),
        Separable(PiecewiseLinear((100.0,), (0.0,), 0.0, 1.0), PiecewiseLinear((80.0,), (1.0,))),
    ], ids=lambda p: type(p).__name__)
    def test_terms_are_built_once_and_leave_equality_and_hash_alone(self, p):
        fresh = dataclasses.replace(p)
        assert p.terms is p.terms
        assert p == fresh and hash(p) == hash(fresh) and validate_payoff(p) == []

    def test_leg_is_live_where_it_can_be_non_zero_and_at_a_nan_bound(self):
        lo, hi = np.array([50.0, 90.0, 100.0, 100.0, np.nan]), np.array([90.0, 100.0, 100.0,
                                                                           110.0, np.nan])
        assert Leg("call", 100.0).live(lo, hi).tolist() == [False, False, False, True, True]
        assert Leg("step", 100.0).live(lo, hi).tolist() == [False, False, False, True, True]
        assert Leg("put", 100.0).live(lo, hi).tolist() == [True, True, False, False, True]

    def test_separable_call_ramp_matches_product_call(self):
        g = PiecewiseLinear((100.0,), (0.0,), 0.0, 1.0)
        h = PiecewiseLinear((80.0,), (0.0,), 0.0, 1.0)
        sep = Separable(g, h)
        pc = ProductCall(100.0, 80.0)
        grid = np.linspace(1.0, 300.0, 40)
        for fE in grid[::7]:
            np.testing.assert_allclose(evaluate(sep, fE, grid), evaluate(pc, fE, grid))


class TestPiecewiseLinear:
    def test_interpolation_and_extrapolation(self):
        f = PiecewiseLinear((1.0, 2.0), (10.0, 12.0), left_slope=-1.0, right_slope=3.0)
        assert f(1.5) == 11.0
        assert f(0.0) == 11.0  # 10 + (-1)(0 - 1)
        assert f(3.0) == 15.0  # 12 + 3(3 - 2)
        assert f(np.array([1.0, 2.0])).tolist() == [10.0, 12.0]

    def test_knots_must_increase(self):
        with pytest.raises(ValueError):
            PiecewiseLinear((1.0, 1.0), (0.0, 0.0))


class TestValidatePayoff:
    def test_negative_strike_flagged(self):
        assert validate_payoff(ProductCall(-1.0, 50.0))

    def test_collar_ordering_flagged(self):
        bad = FourStrikeCollar(kE_high=90.0, kI_high=95.0, kE_low=110.0, kI_low=75.0)
        assert any("out of order" in v for v in validate_payoff(bad))

    def test_well_formed_accepted(self):
        assert validate_payoff(FourStrikeCollar(110.0, 95.0, 90.0, 75.0, 0.5)) == []


def dense_conditional_mean(p, fE, shift, forward, vol, n=400_000):
    """Midpoint rule of evaluate(p, fE, shift + X) against X's lognormal law, over |z| <= 12."""
    dz = 24.0 / n
    z = -12.0 + dz * (np.arange(n) + 0.5)
    x = shift + forward * np.exp(vol * z - 0.5 * vol * vol)
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return float(np.dot(evaluate(p, np.full(n, fE), x), pdf)) * dz


COLLAR = FourStrikeCollar(110.0, 95.0, 90.0, 75.0, 1.3)
SEPARABLE = Separable(PiecewiseLinear((100.0,), (0.0,), 0.0, 1.0),
                      PiecewiseLinear((40.0, 60.0, 90.0), (1.0, 3.0, 3.5), -0.5, 0.2))
PAYOFF_MIXING = CorrelationMode.PAYOFF_MIXING
SDE_MIXING = CorrelationMode.SDE_MIXING


def law_at(model, z1):
    solver = KinkSolver(model)
    fE = solver.energy_price(z1)
    return fE, solver.h_law(z1, fE)


class TestConditionalMean:
    # (payoff, mode, rho, z1); fE(z1) = 100 exp(-0.02 + 0.2 z1)
    @pytest.mark.parametrize("p,mode,rho,z1", [
        (ProductCall(100.0, 120.0), PAYOFF_MIXING, 0.0, 0.3),
        (ProductCall(100.0, 100.0), PAYOFF_MIXING, 0.5, 0.5),
        (ProductCall(100.0, 100.0), PAYOFF_MIXING, 0.5, 4.0),  # rho fE > kI: linear
        (ProductCall(100.0, 100.0), PAYOFF_MIXING, -0.5, 5.0),
        (ProductCall(100.0, 100.0), SDE_MIXING, -0.5, 1.5),
        (DigitalProduct(100.0, 90.0), PAYOFF_MIXING, 0.3, 0.7),
        (DigitalProduct(100.0, 90.0), SDE_MIXING, 0.6, 1.0),
        (COLLAR, PAYOFF_MIXING, 0.0, 1.5),  # call-call leg
        (COLLAR, PAYOFF_MIXING, 0.0, -1.5),  # put-put leg
        (COLLAR, PAYOFF_MIXING, 0.4, -1.5),
        (COLLAR, SDE_MIXING, -0.4, -2.0),
        (SEPARABLE, PAYOFF_MIXING, -0.6, 1.0),
        (SEPARABLE, PAYOFF_MIXING, 0.5, 2.0),
        (SEPARABLE, SDE_MIXING, 0.5, 0.5),
    ])
    def test_matches_dense_integral_of_evaluate(self, p, mode, rho, z1):
        fE, law = law_at(make_model(sigI=0.3, rho=rho, mode=mode), z1)
        mean = conditional_mean(p, fE, *law)
        assert mean != 0.0
        rel = 1e-4 if isinstance(p, DigitalProduct) else 1e-8
        assert mean == pytest.approx(dense_conditional_mean(p, fE, *law), rel=rel)

    def test_strike_cleared_by_rho_fE_is_linear(self):
        # the mixed argument spans (rho fE, inf), so it never falls below kI
        p = ProductCall(100.0, 100.0)
        fE, (shift, forward, vol) = law_at(make_model(rho=0.5), 4.0)
        assert shift > p.kI
        expected = (fE - p.kE) * (shift + forward - p.kI)
        assert conditional_mean(p, fE, shift, forward, vol) == pytest.approx(expected, rel=1e-15)
        assert conditional_mean(DigitalProduct(100.0, 100.0), fE, shift, forward, vol) == 1.0

    def test_negative_rho_lowers_the_shift(self):
        fE, (shift, forward, vol) = law_at(make_model(rho=-0.5), 5.0)
        assert shift == -0.5 * fE
        assert forward == pytest.approx(100.0 * math.sqrt(0.75), rel=1e-15)
        assert vol == pytest.approx(0.2, rel=1e-15)

    def test_sde_mixing_law_has_no_shift_and_the_drifted_forward(self):
        # s2^2 = vI - m1^2 and m1 = rho sE for equal constant volatilities
        _, (shift, forward, vol) = law_at(make_model(rho=0.6, mode=SDE_MIXING), 1.0)
        assert shift == 0.0
        assert forward == pytest.approx(100.0 * math.exp(0.12 - 0.5 * 0.0144), rel=1e-14)
        assert vol == pytest.approx(0.2 * math.sqrt(1.0 - 0.36), rel=1e-14)

    def test_collar_has_two_kink_levels(self):
        p = FourStrikeCollar(110.0, 95.0, 90.0, 75.0)
        assert energy_kink_levels(p) == (90.0, 110.0)
