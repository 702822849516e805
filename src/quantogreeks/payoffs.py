"""Bivariate quanto payoffs, their kink geometry and their conditional means.

Every payoff is a pure function of the terminal energy price and an effective
temperature argument. The caller picks what feeds that slot (the raw futures
level, or a rho-mix with the energy level) by the model's correlation mode;
only ``KinkSolver``, the quadrature's law of that argument, reads the mode.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable, Union

import numpy as np

from .model import CorrelationMode, MarketModel, integrate


@dataclass(frozen=True)
class Leg:
    """A payoff factor: max(x - k, 0) ("call"), max(k - x, 0) ("put") or 1{x > k} ("step")."""

    kind: str
    k: float
    kinks = property(lambda leg: (leg.k,))

    def __call__(self, x, out=None) -> np.ndarray:
        """The leg at ``x``, into ``out`` if given; a step without ``out`` is boolean."""
        if self.kind == "step":
            return np.greater(x, self.k, out=out)
        a, b = (x, self.k) if self.kind == "call" else (self.k, x)
        return np.maximum(np.subtract(a, b, out=out), 0.0, out=out)

    def mean(self, shift: np.ndarray, forward: np.ndarray, vol: float) -> np.ndarray:
        """E[leg(shift + X)], X lognormal with mean ``forward`` and log-volatility ``vol``.

        A Black call on k - shift, a put by parity or N(d2); a strike at or below
        ``shift`` is always cleared, so its call is linear and its step 1.
        """
        k = self.k - shift
        out = np.ones(k.shape) if self.kind == "step" else forward - k
        black = ~(k <= 0.0)
        kb, fb = k[black], forward[black]
        if self.kind == "step":
            out[black] = _norm_cdf((_log(fb / kb) - 0.5 * vol * vol) / vol)
            return out
        d1 = (_log(fb / kb) + 0.5 * vol * vol) / vol
        out[black] = fb * _norm_cdf(d1) - kb * _norm_cdf(d1 - vol)
        # put by parity: E[(k - h)+] = call(k) - (E[h] - k)
        return out if self.kind == "call" else out - (shift + forward - self.k)


@dataclass(frozen=True)
class ProductCall:
    """max(fE - kE, 0) * max(fI - kI, 0)."""

    kE: float
    kI: float
    terms = functools.cached_property(lambda p: ((Leg("call", p.kE), Leg("call", p.kI)),))


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
    terms = functools.cached_property(lambda p: ((Leg("call", p.kE_high), Leg("call", p.kI_high)),
                                                 (Leg("put", p.kE_low), Leg("put", p.kI_low))))


@dataclass(frozen=True)
class DigitalProduct:
    """1 if fE > kE and fI > kI else 0. Strictly-greater at the boundary."""

    kE: float
    kI: float
    terms = functools.cached_property(lambda p: ((Leg("step", p.kE), Leg("step", p.kI)),))


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
    kinks = property(lambda f: f.xs)

    def __post_init__(self):
        if len(self.xs) == 0 or len(self.xs) != len(self.ys):
            raise ValueError("need one y per knot")
        if any(x1 <= x0 for x0, x1 in zip(self.xs, self.xs[1:])):
            raise ValueError("knots must be strictly increasing")

    def __call__(self, x, out=None) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.interp(x, self.xs, self.ys)
        y = np.where(x < self.xs[0], self.ys[0] + self.left_slope * (x - self.xs[0]), y)
        y = np.where(x > self.xs[-1], self.ys[-1] + self.right_slope * (x - self.xs[-1]), y)
        return y if out is None else np.positive(y, out=out)  # +y is y: a copy into out

    def mean(self, shift: np.ndarray, forward: np.ndarray, vol: float) -> np.ndarray:
        """E[self(shift + X)] as in ``Leg.mean``: the left line plus a call per change of slope."""
        xs, ys = self.xs, self.ys
        slopes = [self.left_slope, *((y1 - y0) / (x1 - x0) for x0, x1, y0, y1
                                     in zip(xs, xs[1:], ys, ys[1:])), self.right_slope]
        mean = ys[0] + self.left_slope * (shift + forward - xs[0])
        mean += sum((s1 - s0) * Leg("call", x).mean(shift, forward, vol)
                    for s0, s1, x in zip(slopes, slopes[1:], xs))
        return mean


@dataclass(frozen=True)
class Separable:
    """General separable payoff g(fE) * h(fI_effective)."""

    g: PiecewiseLinear
    h: PiecewiseLinear
    terms = functools.cached_property(lambda p: ((p.g, p.h),))


PayoffSpec = Union[ProductCall, FourStrikeCollar, DigitalProduct, Separable]


def _numbers(p) -> list[float]:
    """Every number of a payoff or of one of its legs: strikes, alpha, knots and slopes."""
    return [x for v in (getattr(p, f.name) for f in fields(p))
            for x in (_numbers(v) if isinstance(v, PiecewiseLinear) else np.ravel(v))]


def validate_payoff(p: PayoffSpec) -> list[str]:
    """Return non-finite-number and strike-consistency violations (empty list when acceptable)."""
    if not isinstance(p, PayoffSpec):  # before fields(), which a str or an int does not have
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


def _terms(p: PayoffSpec) -> tuple:
    """The (energy leg, temperature leg) terms: a payoff is alpha times the sum of their products."""
    if not isinstance(p, PayoffSpec):
        raise TypeError(f"unknown payoff spec {type(p).__name__}")
    return p.terms


def evaluate(p: PayoffSpec, fE, fI_effective, *, _energy: list | None = None) -> np.ndarray:
    """Payoff value; vectorized over price arrays that broadcast together.

    Each term's temperature leg writes into a fresh array of the broadcast
    shape and its energy leg multiplies into it in place: the operator
    formulas' operations on the same operands in the same order, so the same
    bits, with fewer temporaries. ``[()]`` turns a 0-d result into a scalar.

    ``_energy`` is the engine's: a list of each term's energy leg at ``fE``,
    filled by the first call that gets it empty and read by later calls at
    the same ``fE``, so that a tile evaluates its energy legs once for all
    of its correlation-scenario views.
    """
    fE = np.asarray(fE, dtype=float)
    fI = np.asarray(fI_effective, dtype=float)
    shape = np.broadcast_shapes(fE.shape, fI.shape)
    terms = _terms(p)
    energy = [] if _energy is None else _energy
    if not energy:
        # the energy legs before the first fresh array: in the other order glibc gives the
        # heap back to the kernel after each call, and the next call faults it back in
        energy.extend(g(fE) for g, _ in terms)
    total = None
    for e, (_, h) in zip(energy, terms):
        term = np.multiply(e, t := h(fI, out=np.empty(shape)), out=t)
        total = term if total is None else np.add(total, term, out=total)
    if getattr(p, "alpha", 1.0) != 1.0:  # 1.0 * x is x, bit for bit
        np.multiply(p.alpha, total, out=total)
    return total[()]


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

    Each term is its energy leg times its temperature leg's ``mean``, filled
    only where the energy leg is non-zero. ``(shift, forward, vol)`` is a
    ``KinkSolver.h_law``.

    Vectorized over ``fE``, ``shift`` and ``forward``, which broadcast
    together. Each element has the bits of the scalar formula: every branch
    is a mask, a formula is evaluated only where its branch is taken, and
    exp, log and erfc are libm's through ``math``, element by element.
    """
    fE, shift, forward = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                               for x in (fE, shift, forward)))
    total = None
    for g, h in _terms(p):
        energy = g(fE)
        at = energy != 0.0
        term = np.zeros(fE.shape)
        term[at] = energy[at] * h.mean(shift[at], forward[at], vol)
        total = term if total is None else np.add(total, term, out=total)
    if getattr(p, "alpha", 1.0) != 1.0:
        np.multiply(p.alpha, total, out=total)
    return total[()]


def energy_kink_levels(p: PayoffSpec) -> tuple[float, ...]:
    """Energy-price levels where the payoff's energy leg is non-smooth, in increasing order."""
    return tuple(sorted(x for g, _ in _terms(p) for x in g.kinks))


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
        self.vE = integrate(lambda s: s ** 2, model.horizon, model.energy_vol)
        self.vI = integrate(lambda s: s ** 2, model.horizon, model.temperature_vol)
        self.sE = math.sqrt(self.vE)
        self.sI = math.sqrt(self.vI)
        self.sq1mr2 = math.sqrt(1.0 - rho * rho)
        if model.correlation_mode is CorrelationMode.SDE_MIXING:
            vEI = integrate(lambda sE, sI: sE * sI, model.horizon, model.energy_vol,
                            model.temperature_vol)
            self.m1 = rho * vEI / self.sE
            self.s2 = math.sqrt(rho * rho * (self.vI - vEI * vEI / self.vE)
                                + (1.0 - rho * rho) * self.vI)

    def energy_price(self, z1):
        """Energy price at the energy driver ``z1``, elementwise over an array."""
        return self.model.energy_f0 * _exp(-0.5 * self.vE + self.sE * z1)

    def energy_kink(self, level: float) -> float | None:
        """z1 at which the energy price crosses ``level`` (None when below 0+)."""
        if level <= 0.0:
            return None
        return (math.log(level / self.model.energy_f0) + 0.5 * self.vE) / self.sE

    def h_law(self, z1, fE) -> tuple:
        """Law of the temperature argument given z1, whose energy price is ``fE``.

        Returns (shift, forward, vol): the argument is shift + X with X
        lognormal of mean ``forward`` and log-volatility ``vol``. ``z1`` and
        ``fE`` may be arrays; then shift or forward is one, and vol a float.
        """
        f0I = self.model.temperature_f0
        if self.model.correlation_mode is CorrelationMode.SDE_MIXING:
            return 0.0, f0I * _exp(self.m1 * z1 + 0.5 * (self.s2 * self.s2 - self.vI)), self.s2
        return self.model.rho * fE, self.sq1mr2 * f0I, self.sI
