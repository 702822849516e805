"""Market model primitives: the two-leg model, step volatility curves, weight tuning functions.

Both futures are driftless lognormal diffusions under the pricing measure.
Volatility curves and tuning functions are the same piecewise-constant
``StepFunction``, so every covariance integral the engine needs is one exact
finite sum, ``integrate``, over the union of the functions' grids.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

ELLIPTICITY_FLOOR = 1e-6
TUNING_INTEGRAL_TOL = 1e-12


def as_real(value) -> float:
    """``float(value)``, refusing a bool (``float`` reads 0.0 or 1.0) and an int out of range."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"expected a number within float range, got {value!r}") from None


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
    """Right-continuous piecewise-constant function of time from t = 0.

    Volatility curves sigma(t) and weight tuning functions a(t) are both step
    functions: ``times`` are the segment start points (first one 0.0) and
    ``values`` the per-segment levels, read on the model's horizon [0, T).
    ``validate_model``, not this class, checks the rest (every segment starts
    before T, volatility above the ellipticity floor, unit-integral tuning),
    so that deliberately degenerate functions can be constructed and flagged.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        times, values = self.times, self.values
        if len(times) == 0 or len(times) != len(values):
            raise ValueError("step function: need one value per segment start")
        if not all(math.isfinite(t) for t in times) or not all(math.isfinite(v) for v in values):
            raise ValueError("step function: non-finite entry")
        if times[0] != 0.0:
            raise ValueError("step function: first segment must start at t=0")
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("step function: segment starts must be strictly increasing")

    @classmethod
    def constant(cls, value: float) -> "StepFunction":
        return cls((0.0,), (float(value),))

    @classmethod
    def uniform(cls, horizon: float) -> "StepFunction":
        """The default tuning function a(t) = 1/horizon."""
        return cls.constant(1.0 / float(horizon))

    @classmethod
    def from_segments(cls, segments) -> "StepFunction":
        """Build from ``[(t_start, value), ...]`` pairs."""
        ts = tuple(as_real(t) for t, _ in segments)
        vs = tuple(as_real(v) for _, v in segments)
        return cls(ts, vs)

    def values_on_grid(self, t: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(np.asarray(self.times), t, side="right") - 1
        return np.asarray(self.values)[np.maximum(idx, 0)]


# A volatility curve and a weight tuning function are the same kind of object.
VolatilityCurve = TuningFunction = StepFunction


def union_grid(horizon: float, *steps: StepFunction) -> list[float]:
    """0, ``horizon`` and every segment start of ``steps`` strictly between them, sorted."""
    pts = {0.0, horizon}
    for s in steps:
        pts.update(t for t in s.times if 0.0 < t < horizon)
    return sorted(pts)


def integrate(f: Callable[..., float], horizon: float, *steps: StepFunction) -> float:
    """Exact integral of ``f(s1(t), s2(t), ...)`` over [0, ``horizon``).

    Every product of step functions is itself a step function on the union of
    their grids, so the integral is a finite sum. The sum is scalar Python on
    purpose: ``x ** 2`` on a float calls libm ``pow``, which numpy's ``x * x``
    does not reproduce bit for bit. It adds the terms left to right, as
    ``sum()`` does only before Python 3.12, whose ``sum()`` of floats is
    compensated.
    """
    edges = union_grid(horizon, *steps)
    levels = zip(*(s.values_on_grid(np.array(edges[:-1])).tolist() for s in steps))
    try:
        return float(functools.reduce(operator.add, (
            f(*vals) * (b - a) for vals, a, b in zip(levels, edges, edges[1:])), 0.0))
    except ZeroDivisionError:
        raise ValueError("integrand divides by a zero step value "
                         "(strictly positive volatility required)") from None


@dataclass(frozen=True)
class MarketModel:
    """Two-leg futures market: each leg's level and volatility curve on one fixing horizon."""

    energy_f0: float
    energy_vol: VolatilityCurve
    temperature_f0: float
    temperature_vol: VolatilityCurve
    horizon: float
    rho: float
    rate: float = 0.0
    correlation_mode: CorrelationMode = CorrelationMode.PAYOFF_MIXING

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not isinstance(mode := self.correlation_mode, CorrelationMode):
            raise ValueError(f"correlation_mode must be a CorrelationMode, got {mode!r}")


def _check_leg(bad: list[str], name: str, f0: float, vol: VolatilityCurve,
               horizon: float) -> None:
    if not (math.isfinite(f0) and f0 > 0.0):
        bad.append(f"{name}: initial futures level must be positive, got {f0}")
    if vol.times[-1] >= horizon:
        bad.append(f"{name}: volatility segment starts at t={vol.times[-1]}, at or after the "
                   f"horizon {horizon}")
    for t0, sig in zip(vol.times, vol.values):
        if sig < ELLIPTICITY_FLOOR:
            bad.append(
                f"{name}: volatility {sig} on segment starting t={t0} is below the floor "
                f"eta={ELLIPTICITY_FLOOR} (uniform ellipticity condition violated)"
            )


def rho_violation(rho: float) -> str | None:
    """The validation message for a correlation outside (-1, 1), NaN included, or None."""
    return None if abs(rho) < 1.0 else f"correlation rho must lie in (-1, 1), got {rho}"


def validate_model(model: MarketModel, tuning: TuningFunction | None = None) -> list[str]:
    """Return every model invariant violation (empty list when acceptable).

    Each volatility segment must sit at or above the uniform ellipticity
    floor ``ELLIPTICITY_FLOOR``. Pass ``tuning`` to also check unit-integral
    membership. The Monte Carlo and quadrature entry points raise ValueError
    on any violation; the CLI exits 3 before reaching them.
    """
    bad: list[str] = []
    horizon = model.horizon
    _check_leg(bad, "energy", model.energy_f0, model.energy_vol, horizon)
    _check_leg(bad, "temperature", model.temperature_f0, model.temperature_vol, horizon)
    if rho_bad := rho_violation(model.rho):
        bad.append(rho_bad)
    if not math.isfinite(model.rate):
        bad.append(f"risk-free rate must be finite, got {model.rate}")
    if tuning is not None:
        if tuning.times[-1] >= horizon:
            bad.append(f"tuning function segment starts at t={tuning.times[-1]}, at or after "
                       f"the horizon {horizon}")
        integral = integrate(lambda a: a, horizon, tuning)
        if abs(integral - 1.0) > TUNING_INTEGRAL_TOL:
            bad.append(
                f"tuning function integrates to {integral!r}, not 1 "
                f"(unit-integral weight family violated)"
            )
    return bad
