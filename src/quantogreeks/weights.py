"""Per-draw hedge weights: the stochastic factors multiplying the payoff inside Greek expectations.

For lognormal futures the first-variation process cancels against the state in
the diffusion coefficient, so every weight reduces to a deterministic-kernel
Wiener integral already carried by the draw. Two correlated constructions
coexist on purpose; the estimator layer adjudicates them against deterministic
oracles rather than picking one here.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .model import MarketModel, TuningFunction, VolatilityCurve, integrate
from .simulate import SampleDraw


class WeightVariant(Enum):
    """Estimator zoo. Independent variants assume zero correlation.

    The correlated energy delta and cross-gamma come in two constructions:

    * ``MatrixInverse``    two-integral weight from inverting the triangular
                           diffusion matrix (cross-gamma carries a
                           deterministic compensator term)
    * ``Conditional``      weight obtained by conditioning on the other driver
                           and applying the one-driver argument to the full
                           payoff
    """

    INDEP_DELTA_E = "IndepDeltaE"
    INDEP_DELTA_I = "IndepDeltaI"
    INDEP_CROSS_GAMMA = "IndepCrossGamma"
    CORR_DELTA_E_MATRIX_INVERSE = "CorrDeltaE_MatrixInverse"
    CORR_DELTA_E_CONDITIONAL = "CorrDeltaE_Conditional"
    CORR_DELTA_I = "CorrDeltaI"
    CORR_CROSS_GAMMA_MATRIX_INVERSE = "CorrCrossGamma_MatrixInverse"
    CORR_CROSS_GAMMA_CONDITIONAL = "CorrCrossGamma_Conditional"


_RHO_FREE = ("E", "I")  # the kernels that read no rho
_KERNELS = {
    # one delta weight per leg: a Wiener integral divided by the initial level
    "E": lambda d, m: d.iE / m.energy.f0,
    "I": lambda d, m: d.iI / m.temperature.f0,
    # inverse of the triangular diffusion matrix: the energy kernel corrected
    # on the independent driver, and the independent-driver kernel rescaled
    "E_inv": lambda d, m: ((d.iE - m.rho / math.sqrt(1.0 - m.rho * m.rho) * d.iE_cross)
                           / m.energy.f0),
    "I_inv": lambda d, m: d.iI / (m.temperature.f0 * math.sqrt(1.0 - m.rho * m.rho)),
}


class _Weight(NamedTuple):
    """A weight as a product of kernels, with flags.

    ``compensator_sign`` adds (+1) or subtracts (-1) the deterministic
    compensator; ``zero_rho`` marks a construction that assumes independent
    legs.
    """

    kernels: tuple[str, ...]
    compensator_sign: float = 0.0
    zero_rho: bool = False

    @property
    def rho_free(self) -> bool:
        """The weight array reads no rho: only the E and I kernels and no compensator."""
        return not self.compensator_sign and all(k in _RHO_FREE for k in self.kernels)


_V = WeightVariant
WEIGHTS = {
    _V.INDEP_DELTA_E: _Weight(("E",), zero_rho=True),
    _V.INDEP_DELTA_I: _Weight(("I",), zero_rho=True),
    _V.INDEP_CROSS_GAMMA: _Weight(("E", "I"), zero_rho=True),
    _V.CORR_DELTA_E_MATRIX_INVERSE: _Weight(("E_inv",)),
    _V.CORR_DELTA_E_CONDITIONAL: _Weight(("E",)),
    _V.CORR_DELTA_I: _Weight(("I",)),
    _V.CORR_CROSS_GAMMA_MATRIX_INVERSE: _Weight(("E_inv", "I_inv"), compensator_sign=-1.0),
    _V.CORR_CROSS_GAMMA_CONDITIONAL: _Weight(("E", "I")),
}


def greek_of(variant: WeightVariant) -> str:
    """Which sensitivity a variant estimates: 'dE', 'dI' or 'dEdI'.

    A one-kernel weight is that leg's delta; a product of an energy and a
    temperature kernel is the cross-gamma.
    """
    kernels = WEIGHTS[variant].kernels
    return "dEdI" if len(kernels) == 2 else "d" + kernels[0][0]


def require_rho_supported(variant: WeightVariant, model: MarketModel) -> None:
    """Raise ValueError if ``variant`` assumes independent legs and ``model`` has rho != 0."""
    if WEIGHTS[variant].zero_rho and model.rho != 0.0:
        raise ValueError(f"{variant.value} assumes rho = 0 (model has rho={model.rho})")


@functools.lru_cache(maxsize=16)
def _cross_integral(energy_vol: VolatilityCurve, temperature_vol: VolatilityCurve,
                    tuning: TuningFunction) -> float:
    """int a(t)^2 / (sigma_E sigma_I) dt, integrated once per set of curves, not once per tile."""
    if any(v <= 0.0 for curve in (energy_vol, temperature_vol) for v in curve.values):
        raise ValueError("the cross-gamma compensator requires strictly positive volatility")
    return integrate(lambda sE, sI, a: a ** 2 / (sE * sI), energy_vol, temperature_vol, tuning)


def _compensator(model: MarketModel, tuning: TuningFunction) -> float:
    """rho * int a(t)^2 / (sigma_E sigma_I) dt / ((1 - rho^2) fE(0) fI(0)), in closed form.

    Only the integral is cached: a cache keyed on the whole model would hand
    rho = -0.0 the compensator of rho = 0.0, which compares equal.
    """
    rho = model.rho
    cross = _cross_integral(model.energy_vol, model.temperature_vol, tuning)
    return rho * cross / ((1.0 - rho * rho) * model.energy.f0 * model.temperature.f0)


def _kernel(name: str, draw: SampleDraw, model: MarketModel,
            tables: tuple[dict, dict]) -> np.ndarray:
    """Kernel array ``name``, read from its table of ``tables`` or built and stored there."""
    table = tables[name not in _RHO_FREE]
    if name not in table:
        table[name] = _KERNELS[name](draw, model)
    return table[name]


def weight_for(variant: WeightVariant, draw: SampleDraw, model: MarketModel,
               tuning: TuningFunction,
               kernels: tuple[dict, dict] | None = None) -> np.ndarray:
    """Per-draw weight array of ``variant``; the rest of ``model`` is not validated.

    Raises ValueError unless -1 < rho < 1 and both initial levels are
    positive, where the kernels are finite, and for an independent-legs
    variant unless rho = 0. The matrix-inverse cross-gamma subtracts the
    deterministic compensator from the kernel product (``w + (-1.0 * c)`` is
    ``w - c`` exactly).

    ``kernels``, when given, is a pair of tables for the kernel arrays of
    ``draw``: the rho-free ones, which any rho may share, then those of
    ``model``'s rho. A kernel missing from its table is built and stored, so
    a caller forming several weights of one draw builds each kernel once.
    """
    spec = WEIGHTS.get(variant)
    if spec is None:
        raise ValueError(f"unknown weight variant {variant!r}")
    rho, f0E, f0I = model.rho, model.energy.f0, model.temperature.f0
    if not (-1.0 < rho < 1.0 and f0E > 0.0 and f0I > 0.0):
        raise ValueError(f"weights need -1 < rho < 1 and positive initial levels, "
                         f"got rho={rho}, fE(0)={f0E}, fI(0)={f0I}")
    require_rho_supported(variant, model)
    kernels = ({}, {}) if kernels is None else kernels
    first, *rest = (_kernel(k, draw, model, kernels) for k in spec.kernels)
    weight = first * rest[0] if rest else first
    if spec.compensator_sign:
        weight = weight + spec.compensator_sign * _compensator(model, tuning)
    return weight
