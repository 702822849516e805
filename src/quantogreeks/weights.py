"""Per-draw hedge weights: the stochastic factors multiplying the payoff inside Greek expectations.

For lognormal futures the first-variation process cancels against the state in
the diffusion coefficient, so every weight reduces to a deterministic-kernel
Wiener integral already carried by the draw. Several correlated constructions
coexist on purpose; the estimator layer adjudicates them against deterministic
oracles rather than picking one here.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .model import MarketModel, TuningFunction, integrate
from .simulate import SampleDraw


class WeightVariant(Enum):
    """Estimator zoo. Independent variants assume zero correlation.

    The correlated delta and cross-gamma come in several constructions:

    * ``OnePlusRho``       single-driver weight rescaled by (1 + rho)
    * ``MatrixInverse``    two-integral weight from inverting the triangular
                           diffusion matrix (cross-gamma carries a
                           deterministic compensator term)
    * ``ScaledProduct``    product weight rescaled by sqrt(1-rho^2)(1+rho)
    * ``Conditional``      weight obtained by conditioning on the other driver
                           and applying the one-driver argument to the full
                           payoff
    """

    INDEP_DELTA_E = "IndepDeltaE"
    INDEP_DELTA_I = "IndepDeltaI"
    INDEP_CROSS_GAMMA = "IndepCrossGamma"
    CORR_DELTA_E_ONE_PLUS_RHO = "CorrDeltaE_OnePlusRho"
    CORR_DELTA_E_MATRIX_INVERSE = "CorrDeltaE_MatrixInverse"
    CORR_DELTA_E_CONDITIONAL = "CorrDeltaE_Conditional"
    CORR_DELTA_I = "CorrDeltaI"
    CORR_CROSS_GAMMA_SCALED_PRODUCT = "CorrCrossGamma_ScaledProduct"
    CORR_CROSS_GAMMA_MATRIX_INVERSE = "CorrCrossGamma_MatrixInverse"
    CORR_CROSS_GAMMA_CONDITIONAL = "CorrCrossGamma_Conditional"


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
    """A weight as a product of kernels, a scalar multiplier in rho, and flags.

    ``compensator_sign`` adds (+1) or subtracts (-1) the deterministic
    compensator; ``zero_rho`` marks a construction that assumes independent
    legs.
    """

    kernels: tuple[str, ...]
    multiplier: Callable[[float], float]
    compensator_sign: float = 0.0
    zero_rho: bool = False


def _one(rho: float) -> float:
    return 1.0


_V = WeightVariant
WEIGHTS = {
    _V.INDEP_DELTA_E: _Weight(("E",), _one, zero_rho=True),
    _V.INDEP_DELTA_I: _Weight(("I",), _one, zero_rho=True),
    _V.INDEP_CROSS_GAMMA: _Weight(("E", "I"), _one, zero_rho=True),
    _V.CORR_DELTA_E_ONE_PLUS_RHO: _Weight(("E",), lambda rho: 1.0 + rho),
    _V.CORR_DELTA_E_MATRIX_INVERSE: _Weight(("E_inv",), _one),
    _V.CORR_DELTA_E_CONDITIONAL: _Weight(("E",), _one),
    # the sqrt(1-rho^2) multiplier cancels the kernel scaling: net iI / fI(0)
    _V.CORR_DELTA_I: _Weight(("I_inv",), lambda rho: math.sqrt(1.0 - rho * rho)),
    _V.CORR_CROSS_GAMMA_SCALED_PRODUCT: _Weight(
        ("E", "I_inv"), lambda rho: math.sqrt(1.0 - rho * rho) * (1.0 + rho)),
    _V.CORR_CROSS_GAMMA_MATRIX_INVERSE: _Weight(("E_inv", "I_inv"), _one, compensator_sign=-1.0),
    _V.CORR_CROSS_GAMMA_CONDITIONAL: _Weight(("E", "I"), _one),
}


def greek_of(variant: WeightVariant) -> str:
    """Which sensitivity a variant estimates: 'dE', 'dI' or 'dEdI'.

    A one-kernel weight is that leg's delta; a product of an energy and a
    temperature kernel is the cross-gamma.
    """
    kernels = WEIGHTS[variant].kernels
    return "dEdI" if len(kernels) == 2 else "d" + kernels[0][0]


def _compensator(model: MarketModel, tuning: TuningFunction) -> float:
    """rho * int a(t)^2 / (sigma_E sigma_I) dt / ((1 - rho^2) fE(0) fI(0)), in closed form."""
    vols = (model.energy_vol, model.temperature_vol)
    if any(v <= 0.0 for curve in vols for v in curve.values):
        raise ValueError("the cross-gamma compensator requires strictly positive volatility")
    rho = model.rho
    cross = integrate(lambda sE, sI, a: a ** 2 / (sE * sI), *vols, tuning)
    return rho * cross / ((1.0 - rho * rho) * model.energy.f0 * model.temperature.f0)


def weight_for(variant: WeightVariant, draw: SampleDraw, model: MarketModel,
               tuning: TuningFunction) -> tuple[np.ndarray, float]:
    """Per-draw weight array and scalar multiplier of ``variant``; ``model`` is not validated.

    An independent-legs variant rejects rho != 0. The matrix-inverse
    cross-gamma subtracts the deterministic compensator from the kernel
    product (``w + (-1.0 * c)`` is ``w - c`` exactly).
    """
    spec = WEIGHTS.get(variant)
    if spec is None:
        raise ValueError(f"unknown weight variant {variant!r}")
    if spec.zero_rho and model.rho != 0.0:
        raise ValueError(f"{variant.value} assumes rho = 0 (model has rho={model.rho})")
    first, *rest = (_KERNELS[k](draw, model) for k in spec.kernels)
    weight = first * rest[0] if rest else first
    if spec.compensator_sign:
        weight = weight + spec.compensator_sign * _compensator(model, tuning)
    return weight, spec.multiplier(model.rho)
