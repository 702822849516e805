import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kernel_moments, make_model
from quantogreeks import TuningFunction, VolatilityCurve, integrate, validate_model


def square(s):
    return s ** 2


class TestValidateModel:
    def test_plain_model_is_valid(self, atm_model, uniform_tuning):
        assert validate_model(atm_model, uniform_tuning) == []

    def test_zero_volatility_segment_flags_ellipticity(self):
        bad = VolatilityCurve.from_segments([(0.0, 0.2), (0.5, 0.0)])
        m = dataclasses.replace(make_model(), energy_vol=bad)
        assert any("uniform ellipticity" in v for v in validate_model(m))

    def test_degenerate_curve_message_names_the_floor(self):
        assert validate_model(make_model(sigE=0.0)) == [
            "energy: volatility 0.0 on segment starting t=0.0 is below the floor eta=1e-06 "
            "(uniform ellipticity condition violated)"]

    def test_tuning_integral_violation_flagged(self, atm_model):
        doubled = TuningFunction((0.0,), (2.0,))  # integrates to 2
        assert any("unit-integral" in v for v in validate_model(atm_model, doubled))

    def test_nan_rate_flagged(self):
        assert validate_model(make_model(rate=float("nan"))) == [
            "risk-free rate must be finite, got nan"]

    def test_volatility_segment_at_the_horizon_flagged(self):
        # the config refuses such a curve, so only the library reaches this
        late = VolatilityCurve.from_segments([(0.0, 0.2), (1.0, 0.3)])
        assert validate_model(dataclasses.replace(make_model(), energy_vol=late)) == [
            "energy: volatility segment starts at t=1.0, at or after the horizon 1.0"]

    def test_tuning_segment_past_the_horizon_flagged(self, atm_model):
        late = TuningFunction.from_segments([(0.0, 1.0), (1.5, 0.0)])  # integrates to 1 on [0, 1)
        assert validate_model(atm_model, late) == [
            "tuning function segment starts at t=1.5, at or after the horizon 1.0"]

    def test_collects_all_violations_without_raising(self):
        bad = validate_model(make_model(f0E=-5.0, rho=1.0))
        assert len(bad) >= 2
        assert any("rho" in v for v in bad)


class TestIntegratedVariance:
    def test_constant_curve(self):
        curve = VolatilityCurve.constant(0.2)
        assert integrate(square, 1.0, curve) == pytest.approx(0.04, abs=1e-15)

    def test_two_segments(self):
        curve = VolatilityCurve.from_segments([(0.0, 0.1), (0.5, 0.3)])
        assert integrate(square, 1.0, curve) == pytest.approx(0.05, abs=1e-15)

    def test_sums_left_to_right_on_every_python(self):
        # from Python 3.12 sum() of floats is compensated: on this curve it reads
        # 0.037375, and the left-to-right sum 0.037375000000000005
        times = (0.0, 0.1, 0.25, 0.4, 0.6, 0.85)
        curve = VolatilityCurve(times, (0.2, 0.1, 0.1, 0.15, 0.3, 0.15))
        edges = [*times, 1.0]
        total = 0.0
        for sigma, a, b in zip(curve.values, edges, edges[1:]):
            total += sigma * sigma * (b - a)
        assert integrate(lambda s: s * s, 1.0, curve) == total == 0.037375000000000005

    @settings(max_examples=50, deadline=None)
    @given(
        sigmas=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5),
        cuts=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=4),
        other=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4),
        a_levels=st.lists(st.floats(0.1, 3.0), min_size=1, max_size=4),
        zero_at=st.integers(0, 4),
    )
    def test_matches_left_point_sum_on_the_union_grid(self, sigmas, cuts, other, a_levels,
                                                      zero_at):
        # products of one, two and three step functions, with a tuning
        # function that is zero on one segment
        rounded = {round(2.0 * c, 6) for c in cuts}
        times = [0.0] + sorted(t for t in rounded if 0.0 < t < 2.0)
        sigmas = (sigmas * len(times))[: len(times)]
        curve = VolatilityCurve(tuple(times), tuple(sigmas))
        other_curve = VolatilityCurve(tuple(2.0 * i / len(other) for i in range(len(other))),
                                      tuple(other))
        levels = list(a_levels)
        zero_at %= len(levels) + 1
        levels.insert(zero_at, 0.0)
        a_times = tuple(2.0 * i / len(levels) for i in range(len(levels)))
        tuning = TuningFunction(a_times, tuple(levels))
        for f, steps in ((square, (curve,)),
                         (lambda x, y: x * y, (curve, other_curve)),
                         (lambda x, y, a: a ** 2 / (x * y), (curve, other_curve, tuning))):
            edges = np.unique(np.concatenate([s.times for s in steps] + [[2.0]]))
            left = edges[:-1]
            ref = np.sum(f(*(s.values_on_grid(left) for s in steps)) * np.diff(edges))
            assert integrate(f, 2.0, *steps) == pytest.approx(ref, rel=1e-12)


class TestWeightKernelMoments:
    def test_constant_curve_uniform_tuning(self, uniform_tuning):
        curve = VolatilityCurve.constant(0.2)
        v_aa, v_as, v_ss = kernel_moments(curve, uniform_tuning)
        assert v_aa == pytest.approx(25.0, rel=1e-12)
        assert v_as == pytest.approx(1.0, abs=1e-15)
        assert v_ss == pytest.approx(0.04, rel=1e-12)

    def test_half_vol_long_horizon(self):
        curve = VolatilityCurve.constant(0.5)
        moments = kernel_moments(curve, TuningFunction.uniform(4.0), 4.0)
        assert moments == pytest.approx((1.0, 1.0, 1.0), rel=1e-12)

    def test_degenerate_curve_rejected(self, uniform_tuning):
        with pytest.raises(ValueError):
            kernel_moments(VolatilityCurve.constant(0.0), uniform_tuning)

    @settings(max_examples=50, deadline=None)
    @given(
        sig_segments=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4),
        a_levels=st.lists(st.floats(0.1, 3.0), min_size=1, max_size=4),
    )
    def test_unit_integral_tuning_always_gives_v_as_one(self, sig_segments, a_levels):
        horizon = 2.0
        n_sig = len(sig_segments)
        sig_times = tuple(horizon * i / n_sig for i in range(n_sig))
        curve = VolatilityCurve(sig_times, tuple(sig_segments))
        n_a = len(a_levels)
        a_times = tuple(horizon * i / n_a for i in range(n_a))
        scale = sum(a_levels) * (horizon / n_a)
        tuning = TuningFunction(a_times, tuple(v / scale for v in a_levels))
        v_aa, v_as, v_ss = kernel_moments(curve, tuning, horizon)
        assert v_as == pytest.approx(1.0, abs=1e-12)
        # Cauchy-Schwarz: (int a)^2 <= int a^2/s^2 * int s^2
        assert v_aa * v_ss >= 1.0 - 1e-12

    def test_cauchy_schwarz_equality_for_proportional_kernel(self, uniform_tuning):
        # constant sigma and constant a: a is proportional to sigma^2
        curve = VolatilityCurve.constant(0.37)
        v_aa, _, v_ss = kernel_moments(curve, uniform_tuning)
        assert v_aa * v_ss == pytest.approx(1.0, rel=1e-12)

    def test_cross_moment_mixed_curves(self):
        e = VolatilityCurve.constant(0.2)
        i = VolatilityCurve.constant(0.4)
        a = TuningFunction.uniform(1.0)
        assert integrate(lambda se, si, av: av ** 2 / (se * si), 1.0, e, i, a) == pytest.approx(
            12.5, rel=1e-12)
        assert integrate(lambda se, si: se * si, 1.0, e, i) == pytest.approx(0.08, rel=1e-12)


class TestModelConstruction:
    @pytest.mark.parametrize("horizon", [0.0, float("inf")])
    def test_horizon_must_be_positive_and_finite(self, horizon):
        # the CLI refuses such a tau2 before it builds a model, so only the library reaches this
        with pytest.raises(ValueError, match="horizon must be positive"):
            make_model(horizon=horizon)

    def test_correlation_mode_must_be_a_correlation_mode(self):
        # a mode given as text priced in some entry points and raised AttributeError in others
        with pytest.raises(ValueError, match="^correlation_mode must be a CorrelationMode"):
            dataclasses.replace(make_model(rho=0.3), correlation_mode="sde_mixing")
        with pytest.raises(ValueError, match="^correlation_mode must be a CorrelationMode"):
            make_model(mode=1)


class TestCurveConstruction:
    def test_segments_must_start_at_zero(self):
        with pytest.raises(ValueError):
            VolatilityCurve((0.5,), (0.2,))

    def test_segments_must_increase(self):
        with pytest.raises(ValueError):
            VolatilityCurve((0.0, 0.4, 0.4), (0.2, 0.2, 0.2))

    @pytest.mark.parametrize("segments", [[(0.0, True)], [(False, 0.2)], [(0.0, np.True_)]])
    def test_segments_refuse_a_bool(self, segments):
        # float() read a bool as 1.0 or 0.0
        with pytest.raises(ValueError, match="expected a number, got"):
            VolatilityCurve.from_segments(segments)

    def test_lookup_is_right_continuous(self):
        curve = VolatilityCurve.from_segments([(0.0, 0.1), (0.5, 0.3)])
        assert curve.values_on_grid(np.array([0.5])).tolist() == [0.3]
        assert curve.values_on_grid(np.array([0.49999])).tolist() == [0.1]
        grid = curve.values_on_grid(np.array([0.0, 0.25, 0.5, 0.75]))
        assert grid.tolist() == [0.1, 0.1, 0.3, 0.3]
