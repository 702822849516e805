"""Market model primitives: futures legs, step volatility curves, weight tuning functions.

Both futures are driftless lognormal diffusions under the pricing measure.
Volatility curves and tuning functions are the same piecewise-constant
``StepFunction``, so every covariance integral the engine needs is one exact
finite sum, ``integrate``, over the union of the functions' grids.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable

import numpy as np

ELLIPTICITY_FLOOR = 1e-6
TUNING_INTEGRAL_TOL = 1e-12


class CorrelationMode(Enum):
    """How the energy-temperature correlation enters the joint law.

    PAYOFF_MIXING: both futures are driven by independent Brownian motions;
    the correlation enters through the payoff, whose temperature argument is
    rho * F_E(T) + sqrt(1 - rho^2) * F_I(T).

    SDE_MIXING: the temperature futures itself is driven by a rho-mix of the
    energy driver and an independent driver, and the payoff reads F_I(T)
    directly.
    """

    PAYOFF_MIXING = "payoff_mixing"
    SDE_MIXING = "sde_mixing"


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous piecewise-constant function on [0, horizon).

    Volatility curves sigma(t) and weight tuning functions a(t) are both step
    functions: ``times`` are the segment start points (first one 0.0) and
    ``values`` the per-segment levels. Value bounds (positive volatility above
    the ellipticity floor, unit-integral tuning) are checked by
    ``validate_model``, not here, so that deliberately degenerate functions can
    be constructed and flagged.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]
    horizon: float

    def __post_init__(self):
        times, values, horizon = self.times, self.values, self.horizon
        if len(times) == 0 or len(times) != len(values):
            raise ValueError("step function: need one value per segment start")
        if not all(math.isfinite(t) for t in times) or not all(math.isfinite(v) for v in values):
            raise ValueError("step function: non-finite entry")
        if times[0] != 0.0:
            raise ValueError("step function: first segment must start at t=0")
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("step function: segment starts must be strictly increasing")
        if not (math.isfinite(horizon) and horizon > 0.0):
            raise ValueError("step function: horizon must be positive")
        if times[-1] >= horizon:
            raise ValueError("step function: last segment starts at or beyond the horizon")

    @classmethod
    def constant(cls, value: float, horizon: float) -> "StepFunction":
        return cls((0.0,), (float(value),), float(horizon))

    @classmethod
    def uniform(cls, horizon: float) -> "StepFunction":
        """The default tuning function a(t) = 1/horizon."""
        return cls.constant(1.0 / float(horizon), horizon)

    @classmethod
    def from_segments(cls, segments, horizon: float) -> "StepFunction":
        """Build from ``[(t_start, value), ...]`` pairs."""
        ts = tuple(float(t) for t, _ in segments)
        vs = tuple(float(v) for _, v in segments)
        return cls(ts, vs, float(horizon))

    def value_at(self, t: float) -> float:
        idx = bisect.bisect_right(self.times, t) - 1
        return self.values[max(idx, 0)]

    def values_on_grid(self, t: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(np.asarray(self.times), t, side="right") - 1
        return np.asarray(self.values)[np.maximum(idx, 0)]

    def integral(self) -> float:
        return integrate(lambda v: v, self)


# A volatility curve and a weight tuning function are the same kind of object.
VolatilityCurve = TuningFunction = StepFunction


def union_grid(lo: float, hi: float, *steps: StepFunction) -> list[float]:
    """``lo``, ``hi`` and every segment start of ``steps`` strictly between them, sorted."""
    pts = {lo, hi}
    for s in steps:
        pts.update(t for t in s.times if lo < t < hi)
    return sorted(pts)


def integrate(f: Callable[..., float], *steps: StepFunction, lo: float = 0.0,
              hi: float | None = None) -> float:
    """Exact integral of ``f(s1(t), s2(t), ...)`` over [lo, hi] (default: the whole horizon).

    Every product of step functions is itself a step function on the union of
    their grids, so the integral is a finite sum. The arithmetic is scalar
    Python on purpose: ``x ** 2`` on a float calls libm ``pow``, which numpy's
    ``x * x`` does not reproduce bit for bit.
    """
    horizon = steps[0].horizon
    if any(s.horizon != horizon for s in steps):
        raise ValueError("step functions must share the horizon")
    hi = horizon if hi is None else hi
    if lo > hi:
        raise ValueError(f"integration bounds reversed: lo={lo} > hi={hi}")
    if lo < 0.0 or hi > horizon:
        raise ValueError(f"[{lo}, {hi}] not inside [0, {horizon}]")
    edges = union_grid(lo, hi, *steps)
    try:
        return float(sum(f(*(s.value_at(a) for s in steps)) * (b - a)
                         for a, b in zip(edges, edges[1:])))
    except ZeroDivisionError:
        raise ValueError("integrand divides by a zero step value "
                         "(strictly positive volatility required)") from None


@dataclass(frozen=True)
class FuturesSpec:
    """Initial futures level plus the delivery window it settles against.

    The delivery window [delivery_start, delivery_end] is carried as contract
    metadata; the dynamics only see the fixing horizon delivery_end.
    """

    f0: float
    delivery_start: float
    delivery_end: float


@dataclass(frozen=True)
class MarketModel:
    """Two-leg futures market: energy and temperature-index legs plus correlation."""

    energy: FuturesSpec
    energy_vol: VolatilityCurve
    temperature: FuturesSpec
    temperature_vol: VolatilityCurve
    rho: float
    rate: float = 0.0
    correlation_mode: CorrelationMode = CorrelationMode.PAYOFF_MIXING

    @property
    def horizon(self) -> float:
        return self.energy.delivery_end

    def with_f0(self, energy: float | None = None, temperature: float | None = None) -> "MarketModel":
        """Copy with bumped initial futures levels (used by finite differences)."""
        m = self
        if energy is not None:
            m = replace(m, energy=replace(m.energy, f0=float(energy)))
        if temperature is not None:
            m = replace(m, temperature=replace(m.temperature, f0=float(temperature)))
        return m


@dataclass
class ValidationReport:
    """Outcome of ``validate_model``: empty violation list means acceptable."""

    violations: list[str] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.violations


def _check_leg(report: ValidationReport, name: str, spec: FuturesSpec, vol: VolatilityCurve,
               horizon: float, eta: float) -> None:
    if not (math.isfinite(spec.f0) and spec.f0 > 0.0):
        report.violations.append(f"{name}: initial futures level must be positive, got {spec.f0}")
    if not (0.0 < spec.delivery_start <= spec.delivery_end):
        report.violations.append(
            f"{name}: delivery window must satisfy 0 < start <= end, got "
            f"[{spec.delivery_start}, {spec.delivery_end}]"
        )
    if spec.delivery_end != horizon:
        report.violations.append(f"{name}: delivery end {spec.delivery_end} differs from model horizon {horizon}")
    if vol.horizon != horizon:
        report.violations.append(f"{name}: volatility curve horizon {vol.horizon} differs from model horizon {horizon}")
    for t0, sig in zip(vol.times, vol.values):
        if sig < eta:
            report.violations.append(
                f"{name}: volatility {sig} on segment starting t={t0} is below the floor "
                f"eta={eta} (uniform ellipticity condition violated)"
            )


def validate_model(model: MarketModel, tuning: TuningFunction | None = None,
                   eta: float = ELLIPTICITY_FLOOR) -> ValidationReport:
    """Check every model invariant and report violations without raising.

    ``eta`` is the uniform ellipticity floor: each volatility segment must sit
    at or above it. Pass ``tuning`` to also check unit-integral membership.
    """
    report = ValidationReport()
    horizon = model.horizon
    _check_leg(report, "energy", model.energy, model.energy_vol, horizon, eta)
    _check_leg(report, "temperature", model.temperature, model.temperature_vol, horizon, eta)
    if not (math.isfinite(model.rho) and abs(model.rho) < 1.0):
        report.violations.append(f"correlation rho must lie in (-1, 1), got {model.rho}")
    if not math.isfinite(model.rate):
        report.violations.append(f"risk-free rate must be finite, got {model.rate}")
    if tuning is not None:
        if tuning.horizon != horizon:
            report.violations.append(
                f"tuning function horizon {tuning.horizon} differs from model horizon {horizon}"
            )
        else:
            integral = tuning.integral()
            if abs(integral - 1.0) > TUNING_INTEGRAL_TOL:
                report.violations.append(
                    f"tuning function integrates to {integral!r}, not 1 "
                    f"(unit-integral weight family violated)"
                )
    return report
