"""Market model primitives: futures legs, step volatility curves, weight tuning functions.

Both futures are driftless lognormal diffusions under the pricing measure.
Volatility curves and tuning functions are the same piecewise-constant
``StepFunction``, so every covariance integral the engine needs is one exact
finite sum, ``integrate``, over the union of the functions' grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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

    def values_on_grid(self, t: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(np.asarray(self.times), t, side="right") - 1
        return np.asarray(self.values)[np.maximum(idx, 0)]

    def integral(self) -> float:
        return integrate(lambda v: v, self)


# A volatility curve and a weight tuning function are the same kind of object.
VolatilityCurve = TuningFunction = StepFunction


def union_grid(horizon: float, *steps: StepFunction) -> list[float]:
    """0, ``horizon`` and every segment start of ``steps`` strictly between them, sorted."""
    pts = {0.0, horizon}
    for s in steps:
        pts.update(t for t in s.times if 0.0 < t < horizon)
    return sorted(pts)


def integrate(f: Callable[..., float], *steps: StepFunction) -> float:
    """Exact integral of ``f(s1(t), s2(t), ...)`` over the whole horizon.

    Every product of step functions is itself a step function on the union of
    their grids, so the integral is a finite sum. The sum is scalar Python on
    purpose: ``x ** 2`` on a float calls libm ``pow``, which numpy's ``x * x``
    does not reproduce bit for bit.
    """
    horizon = steps[0].horizon
    if any(s.horizon != horizon for s in steps):
        raise ValueError("step functions must share the horizon")
    edges = union_grid(horizon, *steps)
    levels = zip(*(s.values_on_grid(np.array(edges[:-1])).tolist() for s in steps))
    try:
        return float(sum(f(*vals) * (b - a) for vals, a, b in zip(levels, edges, edges[1:])))
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

    def with_f0(self, energy: float, temperature: float) -> "MarketModel":
        """Copy with both initial futures levels replaced (the quadrature oracle's bumps)."""
        return replace(self, energy=replace(self.energy, f0=float(energy)),
                       temperature=replace(self.temperature, f0=float(temperature)))


def _check_leg(bad: list[str], name: str, spec: FuturesSpec, vol: VolatilityCurve,
               horizon: float) -> None:
    if not (math.isfinite(spec.f0) and spec.f0 > 0.0):
        bad.append(f"{name}: initial futures level must be positive, got {spec.f0}")
    if not (0.0 < spec.delivery_start <= spec.delivery_end):
        bad.append(
            f"{name}: delivery window must satisfy 0 < start <= end, got "
            f"[{spec.delivery_start}, {spec.delivery_end}]"
        )
    if spec.delivery_end != horizon:
        bad.append(f"{name}: delivery end {spec.delivery_end} differs from model horizon {horizon}")
    if vol.horizon != horizon:
        bad.append(f"{name}: volatility curve horizon {vol.horizon} differs from model horizon {horizon}")
    for t0, sig in zip(vol.times, vol.values):
        if sig < ELLIPTICITY_FLOOR:
            bad.append(
                f"{name}: volatility {sig} on segment starting t={t0} is below the floor "
                f"eta={ELLIPTICITY_FLOOR} (uniform ellipticity condition violated)"
            )


def validate_model(model: MarketModel, tuning: TuningFunction | None = None) -> list[str]:
    """Return every model invariant violation (empty list when acceptable).

    Each volatility segment must sit at or above the uniform ellipticity
    floor ``ELLIPTICITY_FLOOR``. Pass ``tuning`` to also check unit-integral
    membership. The Monte Carlo and quadrature entry points raise ValueError
    on any violation; the CLI exits 3 before reaching them.
    """
    bad: list[str] = []
    horizon = model.horizon
    _check_leg(bad, "energy", model.energy, model.energy_vol, horizon)
    _check_leg(bad, "temperature", model.temperature, model.temperature_vol, horizon)
    if not (math.isfinite(model.rho) and abs(model.rho) < 1.0):
        bad.append(f"correlation rho must lie in (-1, 1), got {model.rho}")
    if not math.isfinite(model.rate):
        bad.append(f"risk-free rate must be finite, got {model.rate}")
    if tuning is not None:
        if tuning.horizon != horizon:
            bad.append(
                f"tuning function horizon {tuning.horizon} differs from model horizon {horizon}"
            )
        else:
            integral = tuning.integral()
            if abs(integral - 1.0) > TUNING_INTEGRAL_TOL:
                bad.append(
                    f"tuning function integrates to {integral!r}, not 1 "
                    f"(unit-integral weight family violated)"
                )
    return bad
