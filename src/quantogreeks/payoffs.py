"""Bivariate quanto payoffs, their kink geometry and their conditional means.

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


def _numbers(p) -> list[float]:
    """Every number of a payoff or of one of its legs: strikes, alpha, knots and slopes."""
    return [x for v in vars(p).values()
            for x in (_numbers(v) if isinstance(v, PiecewiseLinear) else np.ravel(v))]


def validate_payoff(p: PayoffSpec) -> list[str]:
    """Return non-finite-number and strike-consistency violations (empty list when acceptable)."""
    bad: list[str] = []
    if not np.isfinite(_numbers(p)).all():
        bad.append("payoff strikes, alpha, knots and slopes must be finite, not NaN or infinity")
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


def _times_leg(energy_leg: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """energy_leg * max(diff, 0), in place in ``diff``, a fresh array."""
    np.maximum(diff, 0.0, out=diff)
    return np.multiply(energy_leg, diff, out=diff)


def evaluate(p: PayoffSpec, fE, fI_effective) -> np.ndarray:
    """Payoff value; vectorized over price arrays that broadcast together.

    The product payoffs work in place in fresh arrays of the broadcast shape:
    the same operations on the same operands, so the same bits, with fewer
    temporaries. ``[()]`` turns a 0-d result into a scalar, as operators do.
    """
    fE = np.asarray(fE, dtype=float)
    fI = np.asarray(fI_effective, dtype=float)
    shape = np.broadcast_shapes(fE.shape, fI.shape)
    if isinstance(p, ProductCall):
        return _times_leg(np.maximum(fE - p.kE, 0.0),
                          np.subtract(fI, p.kI, out=np.empty(shape)))[()]
    if isinstance(p, FourStrikeCollar):
        up = _times_leg(np.maximum(fE - p.kE_high, 0.0),
                        np.subtract(fI, p.kI_high, out=np.empty(shape)))
        down = _times_leg(np.maximum(p.kE_low - fE, 0.0),
                          np.subtract(p.kI_low, fI, out=np.empty(shape)))
        np.add(up, down, out=up)
        return np.multiply(p.alpha, up, out=up)[()]
    if isinstance(p, DigitalProduct):
        return ((fE > p.kE) & (fI > p.kI)).astype(float)
    if isinstance(p, Separable):
        return p.g(fE) * p.h(fI)
    raise TypeError(f"unknown payoff spec {type(p).__name__}")


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def conditional_mean(p: PayoffSpec, fE: float, shift: float, forward: float,
                     vol: float) -> float:
    """E[evaluate(p, fE, shift + X)], X lognormal with mean ``forward`` and log-volatility ``vol``.

    Each temperature leg is a Black call (or a put by parity) on its strike
    less ``shift``; a strike at or below ``shift`` is always cleared, so its
    call is linear. ``(shift, forward, vol)`` is a ``KinkSolver.h_law``.
    """
    def call(k: float) -> float:
        k -= shift
        if k <= 0.0:
            return forward - k
        d1 = (math.log(forward / k) + 0.5 * vol * vol) / vol
        return forward * _norm_cdf(d1) - k * _norm_cdf(d1 - vol)

    if isinstance(p, ProductCall):
        return (fE - p.kE) * call(p.kI) if fE > p.kE else 0.0
    if isinstance(p, FourStrikeCollar):
        up = (fE - p.kE_high) * call(p.kI_high) if fE > p.kE_high else 0.0
        # put by parity: E[(k - h)+] = call(k) - (E[h] - k)
        down = ((p.kE_low - fE) * (call(p.kI_low) - (shift + forward - p.kI_low))
                if fE < p.kE_low else 0.0)
        return p.alpha * (up + down)
    if isinstance(p, DigitalProduct):
        if not fE > p.kE:
            return 0.0
        k = p.kI - shift
        return 1.0 if k <= 0.0 else _norm_cdf((math.log(forward / k) - 0.5 * vol * vol) / vol)
    if isinstance(p, Separable):
        h = p.h
        slopes = [h.left_slope]
        slopes += [(y1 - y0) / (x1 - x0) for x0, x1, y0, y1 in zip(h.xs, h.xs[1:], h.ys, h.ys[1:])]
        slopes.append(h.right_slope)
        mean = h.ys[0] + h.left_slope * (shift + forward - h.xs[0])
        mean += sum((s1 - s0) * call(x) for s0, s1, x in zip(slopes, slopes[1:], h.xs))
        return float(p.g(fE)) * mean
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


class KinkSolver:
    """Closed-form geometry of the payoff arguments in standard-normal coordinates.

    z1 parametrizes the energy driver; given z1, the payoff's temperature
    argument is a shifted lognormal variable in the independent temperature
    driver, whose law ``h_law`` returns. The model must pass
    ``validate_model``; ``quad_price`` checks that first.
    """

    def __init__(self, model: MarketModel):
        self.model = model
        rho = model.rho
        self.vE = integrate(lambda s: s ** 2, model.energy_vol)
        self.vI = integrate(lambda s: s ** 2, model.temperature_vol)
        self.sE = math.sqrt(self.vE)
        self.sI = math.sqrt(self.vI)
        self.sq1mr2 = math.sqrt(1.0 - rho * rho)
        if model.correlation_mode is CorrelationMode.SDE_MIXING:
            vEI = integrate(lambda sE, sI: sE * sI, model.energy_vol, model.temperature_vol)
            self.m1 = rho * vEI / self.sE
            self.s2 = math.sqrt(rho * rho * (self.vI - vEI * vEI / self.vE)
                                + (1.0 - rho * rho) * self.vI)

    def energy_price(self, z1: float) -> float:
        return self.model.energy.f0 * math.exp(-0.5 * self.vE + self.sE * z1)

    def energy_kink(self, level: float) -> float | None:
        """z1 at which the energy price crosses ``level`` (None when below 0+)."""
        if level <= 0.0:
            return None
        return (math.log(level / self.model.energy.f0) + 0.5 * self.vE) / self.sE

    def h_law(self, z1: float, fE: float) -> tuple[float, float, float]:
        """Law of the temperature argument given z1, whose energy price is ``fE``.

        Returns (shift, forward, vol): the argument is shift + X with X
        lognormal of mean ``forward`` and log-volatility ``vol``.
        """
        f0I = self.model.temperature.f0
        if self.model.correlation_mode is CorrelationMode.SDE_MIXING:
            return 0.0, f0I * math.exp(self.m1 * z1 + 0.5 * (self.s2 * self.s2 - self.vI)), self.s2
        return self.model.rho * fE, self.sq1mr2 * f0I, self.sI
