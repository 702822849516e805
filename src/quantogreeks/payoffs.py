"""Bivariate quanto payoffs, their kink geometry and their conditional means.

Every payoff is a pure function of the terminal energy price and an effective
temperature argument. Which quantity feeds the temperature slot (the raw
futures level, or a rho-mix with the energy level) is decided by the caller
through the model's correlation mode, keeping this module mode-agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

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
    if not isinstance(p, PayoffSpec):  # before vars(), which a str or an int does not have
        return [f"unknown payoff spec {type(p).__name__}"]
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
        if p.alpha != 1.0:  # 1.0 * x is x, bit for bit
            np.multiply(p.alpha, up, out=up)
        return up[()]
    if isinstance(p, DigitalProduct):
        return ((fE > p.kE) & (fI > p.kI)).astype(float)
    if isinstance(p, Separable):
        return p.g(fE) * p.h(fI)
    raise TypeError(f"unknown payoff spec {type(p).__name__}")


def _elementwise(f: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    """``f`` of Python floats applied element by element, as an array of floats."""
    ufunc = np.frompyfunc(f, 1, 1)
    return lambda x: np.asarray(ufunc(x), dtype=float)


# libm's exp, log and erfc through ``math``, one element at a time: numpy's
# own exp and log may differ from libm in the last bit, and each quadrature
# node keeps the bits of scalar ``math``.
_exp, _log, _erfc = (_elementwise(f) for f in (math.exp, math.log, math.erfc))


def _norm_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * _erfc(-x / math.sqrt(2.0))


def conditional_mean(p: PayoffSpec, fE, shift, forward, vol: float) -> np.ndarray:
    """E[evaluate(p, fE, shift + X)], X lognormal with mean ``forward`` and log-volatility ``vol``.

    Each temperature leg is a Black call (or a put by parity) on its strike
    less ``shift``; a strike at or below ``shift`` is always cleared, so its
    call is linear. ``(shift, forward, vol)`` is a ``KinkSolver.h_law``.

    Vectorized over ``fE``, ``shift`` and ``forward``, which broadcast
    together. Each element has the bits of the scalar formula: every branch
    is a mask, a formula is evaluated only where its branch is taken, and
    exp, log and erfc are libm's through ``math``, element by element.
    """
    fE, shift, forward = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                               for x in (fE, shift, forward)))

    def gated(at, value: Callable) -> np.ndarray:
        """``value(at)`` where the mask ``at`` holds and 0.0 elsewhere."""
        out = np.zeros(fE.shape)
        out[at] = value(at)
        return out

    def call(k: float, at) -> np.ndarray:
        k = k - shift[at]
        fwd = forward[at]
        out = fwd - k
        black = ~(k <= 0.0)
        kb, fb = k[black], fwd[black]
        d1 = (_log(fb / kb) + 0.5 * vol * vol) / vol
        out[black] = fb * _norm_cdf(d1) - kb * _norm_cdf(d1 - vol)
        return out

    if isinstance(p, ProductCall):
        return gated(fE > p.kE, lambda at: (fE[at] - p.kE) * call(p.kI, at))[()]
    if isinstance(p, FourStrikeCollar):
        up = gated(fE > p.kE_high, lambda at: (fE[at] - p.kE_high) * call(p.kI_high, at))
        # put by parity: E[(k - h)+] = call(k) - (E[h] - k)
        down = gated(fE < p.kE_low, lambda at: (p.kE_low - fE[at]) * (
            call(p.kI_low, at) - (shift[at] + forward[at] - p.kI_low)))
        return (p.alpha * (up + down))[()]
    if isinstance(p, DigitalProduct):
        def digital(at):
            k = p.kI - shift[at]
            out = np.ones(k.shape)
            black = ~(k <= 0.0)
            out[black] = _norm_cdf((_log(forward[at][black] / k[black]) - 0.5 * vol * vol) / vol)
            return out

        return gated(fE > p.kE, digital)[()]
    if isinstance(p, Separable):
        h = p.h
        slopes = [h.left_slope]
        slopes += [(y1 - y0) / (x1 - x0) for x0, x1, y0, y1 in zip(h.xs, h.xs[1:], h.ys, h.ys[1:])]
        slopes.append(h.right_slope)
        every = np.full(fE.shape, True)
        mean = h.ys[0] + h.left_slope * (shift + forward - h.xs[0])
        mean += sum((s1 - s0) * call(x, every) for s0, s1, x in zip(slopes, slopes[1:], h.xs))
        return (p.g(fE) * mean)[()]
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

    def energy_price(self, z1):
        """Energy price at the energy driver ``z1``, elementwise over an array."""
        return self.model.energy.f0 * _exp(-0.5 * self.vE + self.sE * z1)

    def energy_kink(self, level: float) -> float | None:
        """z1 at which the energy price crosses ``level`` (None when below 0+)."""
        if level <= 0.0:
            return None
        return (math.log(level / self.model.energy.f0) + 0.5 * self.vE) / self.sE

    def h_law(self, z1, fE) -> tuple:
        """Law of the temperature argument given z1, whose energy price is ``fE``.

        Returns (shift, forward, vol): the argument is shift + X with X
        lognormal of mean ``forward`` and log-volatility ``vol``. ``z1`` and
        ``fE`` may be arrays; then shift or forward is one, and vol a float.
        """
        f0I = self.model.temperature.f0
        if self.model.correlation_mode is CorrelationMode.SDE_MIXING:
            return 0.0, f0I * _exp(self.m1 * z1 + 0.5 * (self.s2 * self.s2 - self.vI)), self.s2
        return self.model.rho * fE, self.sq1mr2 * f0I, self.sI
