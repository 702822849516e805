"""Per-draw hedge weights: the stochastic factors multiplying the payoff inside Greek expectations.

For lognormal futures the first-variation process cancels against the state in
the diffusion coefficient, so every weight reduces to a deterministic-kernel
Wiener integral already carried by the draw. Each correlation mode has one
weight per Greek: the weight of the mode's own Malliavin integration by parts.
At rho = 0 the two modes' weights agree.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .model import CorrelationMode, MarketModel, TuningFunction, VolatilityCurve, integrate
from .simulate import SampleDraw


class WeightVariant(Enum):
    """One weight per Greek and correlation mode.

    * ``payoff_mixing``: the legs have independent drivers, so each leg's
      one-driver weight applies to the full payoff (``Conditional``, and
      ``CorrDeltaI``); the cross-gamma is the plain product.
    * ``sde_mixing``: the weights invert the triangular diffusion matrix
      (``MatrixInverse``); the cross-gamma adds a deterministic compensator,
      since delta(F u) = F delta(u) - <DF, u>.
    """

    CORR_DELTA_E_CONDITIONAL = "CorrDeltaE_Conditional"
    CORR_DELTA_I = "CorrDeltaI"
    CORR_CROSS_GAMMA_CONDITIONAL = "CorrCrossGamma_Conditional"
    CORR_DELTA_E_MATRIX_INVERSE = "CorrDeltaE_MatrixInverse"
    CORR_DELTA_I_MATRIX_INVERSE = "CorrDeltaI_MatrixInverse"
    CORR_CROSS_GAMMA_MATRIX_INVERSE = "CorrCrossGamma_MatrixInverse"


def _energy_inverse(d: SampleDraw, m: MarketModel) -> np.ndarray:
    """(iE - rho / sqrt(1 - rho^2) * iE_cross) / fE(0), built in one array."""
    kernel = m.rho / math.sqrt(1.0 - m.rho * m.rho) * d.iE_cross
    np.subtract(d.iE, kernel, out=kernel)
    kernel /= m.energy_f0
    return kernel


_RHO_FREE = ("E", "I")  # the kernels that read no rho
# each kernel's (draw fields it reads, builder); a draw may leave every other weight field None
_KERNELS = {
    # one delta weight per leg: a Wiener integral divided by the initial level
    "E": (("iE",), lambda d, m: d.iE / m.energy_f0),
    "I": (("iI",), lambda d, m: d.iI / m.temperature_f0),
    # inverse of the triangular diffusion matrix: the energy kernel corrected
    # on the independent driver, and the independent-driver kernel rescaled
    "E_inv": (("iE", "iE_cross"), _energy_inverse),
    "I_inv": (("iI",), lambda d, m: d.iI / (m.temperature_f0 * math.sqrt(1.0 - m.rho * m.rho))),
}


class _Weight(NamedTuple):
    """A weight: the Greek it estimates (a key of ``estimators.GREEKS``), a product of
    kernels, the correlation mode it belongs to, and whether it adds the compensator."""

    greek: str
    kernels: tuple[str, ...]
    mode: CorrelationMode
    compensator: bool = False

    @property
    def rho_free(self) -> bool:
        """The weight array reads no rho: only the E and I kernels and no compensator."""
        return not self.compensator and all(k in _RHO_FREE for k in self.kernels)

    @property
    def reads(self) -> tuple[str, ...]:
        """The ``SampleDraw`` fields the weight array reads, in kernel order."""
        return tuple(dict.fromkeys(f for k in self.kernels for f in _KERNELS[k][0]))


_V = WeightVariant
_PAYOFF, _SDE = CorrelationMode.PAYOFF_MIXING, CorrelationMode.SDE_MIXING
WEIGHTS = {
    _V.CORR_DELTA_E_CONDITIONAL: _Weight("dE", ("E",), _PAYOFF),
    _V.CORR_DELTA_I: _Weight("dI", ("I",), _PAYOFF),
    _V.CORR_CROSS_GAMMA_CONDITIONAL: _Weight("dEdI", ("E", "I"), _PAYOFF),
    _V.CORR_DELTA_E_MATRIX_INVERSE: _Weight("dE", ("E_inv",), _SDE),
    _V.CORR_DELTA_I_MATRIX_INVERSE: _Weight("dI", ("I_inv",), _SDE),
    _V.CORR_CROSS_GAMMA_MATRIX_INVERSE: _Weight("dEdI", ("E_inv", "I_inv"), _SDE, compensator=True),
}


def greek_of(variant: WeightVariant) -> str:
    """Which sensitivity a variant estimates: the Greek its ``WEIGHTS`` row names."""
    return WEIGHTS[variant].greek


def mode_variant(which: str, mode: CorrelationMode) -> WeightVariant:
    """The weight of ``mode`` that estimates ``which``."""
    return next(v for v, spec in WEIGHTS.items() if spec.mode is mode and spec.greek == which)


def require_rho_supported(variant: WeightVariant, model: MarketModel) -> None:
    """Raise ValueError unless rho = 0 or ``variant`` belongs to ``model``'s correlation mode."""
    mode = WEIGHTS[variant].mode
    if model.rho != 0.0 and mode is not model.correlation_mode:
        raise ValueError(f"{variant.value} is a {mode.value} weight "
                         f"(model has correlation_mode = {model.correlation_mode.value}, "
                         f"rho={model.rho})")


@functools.lru_cache(maxsize=16)
def _cross_integral(energy_vol: VolatilityCurve, temperature_vol: VolatilityCurve,
                    tuning: TuningFunction, horizon: float) -> float:
    """int a(t)^2 / (sigma_E sigma_I) dt, integrated once per set of curves, not once per tile."""
    if any(v <= 0.0 for curve in (energy_vol, temperature_vol) for v in curve.values):
        raise ValueError("the cross-gamma compensator requires strictly positive volatility")
    return integrate(lambda sE, sI, a: a ** 2 / (sE * sI), horizon, energy_vol, temperature_vol,
                     tuning)


def _compensator(model: MarketModel, tuning: TuningFunction) -> float:
    """rho * int a(t)^2 / (sigma_E sigma_I) dt / ((1 - rho^2) fE(0) fI(0)), in closed form.

    Only the integral is cached: a cache keyed on the whole model would hand
    rho = -0.0 the compensator of rho = 0.0, which compares equal.
    """
    rho = model.rho
    cross = _cross_integral(model.energy_vol, model.temperature_vol, tuning, model.horizon)
    return rho * cross / ((1.0 - rho * rho) * model.energy_f0 * model.temperature_f0)


def _kernel(name: str, draw: SampleDraw, model: MarketModel,
            tables: tuple[dict, dict]) -> np.ndarray:
    """Kernel array ``name``, read from its table of ``tables`` or built and stored there."""
    table = tables[name not in _RHO_FREE]
    if name not in table:
        table[name] = _KERNELS[name][1](draw, model)
    return table[name]


def weight_for(variant: WeightVariant, draw: SampleDraw, model: MarketModel,
               tuning: TuningFunction,
               tables: tuple[dict, dict] | None = None) -> np.ndarray:
    """Per-draw weight array of ``variant``; the rest of ``model`` is not validated.

    Raises ValueError unless -1 < rho < 1 and both initial levels are
    positive, where the kernels are finite, and unless rho = 0 or ``variant``
    belongs to ``model``'s correlation mode. The matrix-inverse cross-gamma
    adds the deterministic compensator to the kernel product.

    ``tables``, when given, holds ``draw``'s arrays in a pair (shared, own):
    what reads no rho, which any rho may share, then what reads ``model``'s
    rho. A missing kernel (keyed by name) or rho-free weight (by its kernels'
    names) is built into its table, so each is built once; every call is checked.
    """
    spec = WEIGHTS.get(variant)
    if spec is None:
        raise ValueError(f"unknown weight variant {variant!r}")
    rho, f0E, f0I = model.rho, model.energy_f0, model.temperature_f0
    if not (-1.0 < rho < 1.0 and f0E > 0.0 and f0I > 0.0):
        raise ValueError(f"weights need -1 < rho < 1 and positive initial levels, "
                         f"got rho={rho}, fE(0)={f0E}, fI(0)={f0I}")
    require_rho_supported(variant, model)
    tables = ({}, {}) if tables is None else tables
    if spec.kernels in tables[0]:  # a rho-free weight built before
        return tables[0][spec.kernels]
    first, *rest = (_kernel(k, draw, model, tables) for k in spec.kernels)
    weight = first * rest[0] if rest else first
    if spec.compensator:  # only a product has one, so this adds into a fresh array
        weight += _compensator(model, tuning)
    elif spec.rho_free:
        tables[0][spec.kernels] = weight
    return weight
