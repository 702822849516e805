"""Bivariate quanto payoffs and their kink geometry.

Every payoff is a pure function of the terminal energy price and an effective
temperature argument. Which quantity feeds the temperature slot (the raw
futures level, or a rho-mix with the energy level) is decided by the caller
through the model's correlation mode, keeping this module mode-agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import CorrelationMode, MarketModel, integrate


@dataclass(frozen=True)
class ProductCall:
    """max(fE - kE, 0) * max(fI - kI, 0)."""

    kE: float
    kI: float


@dataclass(frozen=True)
class FourStrikeCollar:
    """alpha * [call(kE_high)*call(kI_high) + put(kE_low)*put(kI_low)].

    The call-call leg pays on joint upside, the put-put leg on joint downside;
    alpha is the contractual volume adjustment factor.
    """

    kE_high: float
    kI_high: float
    kE_low: float
    kI_low: float
    alpha: float = 1.0


@dataclass(frozen=True)
class DigitalProduct:
    """1 if fE > kE and fI > kI else 0. Strictly-greater at the boundary."""

    kE: float
    kI: float


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function through (xs, ys) knots.

    Outside the knot range it extrapolates with ``left_slope``/``right_slope``;
    a one-sided call ramp is ``PiecewiseLinear((k,), (0.0,), 0.0, 1.0)``.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    left_slope: float = 0.0
    right_slope: float = 0.0

    def __post_init__(self):
        if len(self.xs) == 0 or len(self.xs) != len(self.ys):
            raise ValueError("need one y per knot")
        if any(x1 <= x0 for x0, x1 in zip(self.xs, self.xs[1:])):
            raise ValueError("knots must be strictly increasing")

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.interp(x, self.xs, self.ys)
        y = np.where(x < self.xs[0], self.ys[0] + self.left_slope * (x - self.xs[0]), y)
        y = np.where(x > self.xs[-1], self.ys[-1] + self.right_slope * (x - self.xs[-1]), y)
        return y


@dataclass(frozen=True)
class Separable:
    """General separable payoff g(fE) * h(fI_effective)."""

    g: PiecewiseLinear
    h: PiecewiseLinear


PayoffSpec = Union[ProductCall, FourStrikeCollar, DigitalProduct, Separable]


def validate_payoff(p: PayoffSpec) -> list[str]:
    """Return strike-consistency violations (empty list when acceptable)."""
    bad: list[str] = []
    if isinstance(p, (ProductCall, DigitalProduct)):
        if p.kE < 0.0 or p.kI < 0.0:
            bad.append(f"strikes must be nonnegative, got kE={p.kE}, kI={p.kI}")
    elif isinstance(p, FourStrikeCollar):
        if min(p.kE_high, p.kI_high, p.kE_low, p.kI_low) < 0.0:
            bad.append("collar strikes must be nonnegative")
        if p.kE_low > p.kE_high:
            bad.append(f"energy strikes out of order: kE_low={p.kE_low} > kE_high={p.kE_high}")
        if p.kI_low > p.kI_high:
            bad.append(f"temperature strikes out of order: kI_low={p.kI_low} > kI_high={p.kI_high}")
        if not p.alpha > 0.0:
            bad.append(f"volume adjustment alpha must be positive, got {p.alpha}")
    return bad


def evaluate(p: PayoffSpec, fE, fI_effective) -> np.ndarray:
    """Payoff value; vectorized over equally shaped price arrays."""
    fE = np.asarray(fE, dtype=float)
    fI = np.asarray(fI_effective, dtype=float)
    if isinstance(p, ProductCall):
        return np.maximum(fE - p.kE, 0.0) * np.maximum(fI - p.kI, 0.0)
    if isinstance(p, FourStrikeCollar):
        up = np.maximum(fE - p.kE_high, 0.0) * np.maximum(fI - p.kI_high, 0.0)
        down = np.maximum(p.kE_low - fE, 0.0) * np.maximum(p.kI_low - fI, 0.0)
        return p.alpha * (up + down)
    if isinstance(p, DigitalProduct):
        return ((fE > p.kE) & (fI > p.kI)).astype(float)
    if isinstance(p, Separable):
        return p.g(fE) * p.h(fI)
    raise TypeError(f"unknown payoff spec {type(p).__name__}")


def energy_kink_levels(p: PayoffSpec) -> tuple[float, ...]:
    """Energy-price levels where the payoff's energy leg is non-smooth."""
    if isinstance(p, (ProductCall, DigitalProduct)):
        return (p.kE,)
    if isinstance(p, FourStrikeCollar):
        return (p.kE_low, p.kE_high)
    if isinstance(p, Separable):
        return p.g.xs
    raise TypeError(f"unknown payoff spec {type(p).__name__}")


def h_kink_levels(p: PayoffSpec) -> tuple[float, ...]:
    """Effective-temperature levels where the payoff's second leg is non-smooth."""
    if isinstance(p, (ProductCall, DigitalProduct)):
        return (p.kI,)
    if isinstance(p, FourStrikeCollar):
        return (p.kI_low, p.kI_high)
    if isinstance(p, Separable):
        return p.h.xs
    raise TypeError(f"unknown payoff spec {type(p).__name__}")


class KinkSolver:
    """Closed-form kink locations in standard-normal coordinates.

    z1 parametrizes the energy driver and z2 the independent temperature
    driver; the solver inverts the lognormal maps to find where the payoff's
    second argument crosses each strike level.
    """

    def __init__(self, model: MarketModel):
        horizon = model.horizon
        self.model = model
        self.vE = integrate(lambda s: s ** 2, model.energy_vol, hi=horizon)
        self.vI = integrate(lambda s: s ** 2, model.temperature_vol, hi=horizon)
        if self.vE <= 0.0 or self.vI <= 0.0:
            raise ValueError("kink geometry requires nondegenerate volatility")
        self.sE = math.sqrt(self.vE)
        self.sI = math.sqrt(self.vI)
        rho = model.rho
        self.sq1mr2 = math.sqrt(1.0 - rho * rho)
        if model.correlation_mode is CorrelationMode.SDE_MIXING:
            vEI = integrate(lambda sE, sI: sE * sI, model.energy_vol, model.temperature_vol,
                            hi=horizon)
            self.m1 = rho * vEI / self.sE
            self.s2 = math.sqrt(rho * rho * (self.vI - vEI * vEI / self.vE)
                                + (1.0 - rho * rho) * self.vI)
        else:
            self.m1 = 0.0
            self.s2 = self.sI

    def energy_price(self, z1: float) -> float:
        return self.model.energy.f0 * math.exp(-0.5 * self.vE + self.sE * z1)

    def energy_kink(self, level: float) -> float | None:
        """z1 at which the energy price crosses ``level`` (None when below 0+)."""
        if level <= 0.0:
            return None
        return (math.log(level / self.model.energy.f0) + 0.5 * self.vE) / self.sE

    def h_kinks(self, levels, z1: float) -> list[float]:
        model = self.model
        out: list[float] = []
        if model.correlation_mode is CorrelationMode.SDE_MIXING:
            for level in levels:
                if level > 0.0:
                    out.append((math.log(level / model.temperature.f0) + 0.5 * self.vI
                                - self.m1 * z1) / self.s2)
        else:
            fE = self.energy_price(z1)
            for level in levels:
                resid = level - model.rho * fE
                # The mixed argument spans (rho*fE, inf), so a crossing exists
                # only when the strike sits above rho*fE.
                if resid > 0.0:
                    target = resid / self.sq1mr2
                    out.append((math.log(target / model.temperature.f0) + 0.5 * self.vI) / self.sI)
        return sorted(out)


def kink_lines(p: PayoffSpec, model: MarketModel, z1: float) -> list[float]:
    """z2 locations where the payoff's second argument crosses a strike, given z1.

    Empty when no crossing exists for any strike (for example a positive-rho
    mix that already exceeds the strike at fI -> 0).
    """
    return KinkSolver(model).h_kinks(h_kink_levels(p), z1)
