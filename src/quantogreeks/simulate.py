"""Joint sampling of terminal futures values and the stochastic integrals behind hedge weights.

Draws are generated in fixed-size blocks from a counter-based Philox stream
keyed by the seed, so sample i never depends on how many samples are requested
or on how the blocks are scheduled across threads.

Each of the six Gaussian accumulators is a fixed linear functional of one
driver's increments, so a driver's three accumulators are ``dW @ K`` for a
load matrix K with one column per accumulator. On grids of at most three
segments the per-segment increments are drawn directly. On finer grids
(log-Euler with many steps, or many breakpoints) ``diag(sqrt(dt)) K = Q R`` is
factored once per run and three standard normals per driver are multiplied by
R: ``Q^T z`` is standard normal, so the joint law is exact and the draw cost
and block memory do not depend on the step count (Glasserman, Monte Carlo
Methods in Financial Engineering, 2003, section 2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterator

import numpy as np

from .model import CorrelationMode, MarketModel, TuningFunction, union_grid

BLOCK_SIZE = 1 << 16

_KEY_MASK = (1 << 128) - 1


@dataclass(frozen=True)
class SimScheme:
    """Sampling scheme: exact terminal law, or log-Euler paths on a uniform grid."""

    kind: str  # "exact" | "euler"
    steps: int = 0

    @classmethod
    def exact(cls) -> "SimScheme":
        return cls("exact", 0)

    @classmethod
    def log_euler(cls, steps: int) -> "SimScheme":
        return cls("euler", int(steps))

    @classmethod
    def parse(cls, text: str) -> "SimScheme":
        """Parse ``exact`` or ``euler:STEPS``."""
        if text == "exact":
            return cls.exact()
        if text.startswith("euler:"):
            try:
                return cls.log_euler(int(text.split(":", 1)[1]))
            except ValueError:  # not an integer step count
                pass
        raise ValueError(f"unknown scheme {text!r}; expected 'exact' or 'euler:STEPS'")

    def label(self) -> str:
        return "exact" if self.kind == "exact" else f"euler:{self.steps}"


@dataclass(frozen=True)
class SimConfig:
    n_samples: int
    seed: int
    antithetic: bool = False
    scheme: SimScheme = field(default_factory=SimScheme.exact)


@dataclass(frozen=True)
class SampleDraw:
    """A batch of joint draws, one array entry per sample.

    The six Gaussian fields are the accumulators the weights read: three per
    driver, each an Ito integral of a step function against that driver.

    fE_T, fI_T      terminal futures levels
    gE, gI          log-return drivers: int sigma_E dW_E and int sigma_I dW~_I
    iE, iI          weight integrals: int a/sigma_E dW_E and int a/sigma_I dW~_I
    iE_cross        int a/sigma_E dW~_I (energy weight kernel on the independent driver)
    gI_cross        int sigma_I dW_E (temperature vol on the energy driver)
    """

    fE_T: np.ndarray
    fI_T: np.ndarray
    gE: np.ndarray
    gI: np.ndarray
    iE: np.ndarray
    iI: np.ndarray
    iE_cross: np.ndarray
    gI_cross: np.ndarray


def _check_config(cfg: SimConfig) -> None:
    if cfg.n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {cfg.n_samples}")
    if cfg.scheme.kind not in ("exact", "euler"):
        raise ValueError(f"unknown scheme kind {cfg.scheme.kind!r}")
    if cfg.scheme.kind == "euler" and cfg.scheme.steps < 1:
        raise ValueError(f"log-Euler scheme needs steps >= 1, got {cfg.scheme.steps}")
    if cfg.antithetic and cfg.n_samples % 2 != 0:
        raise ValueError("antithetic sampling pairs draws, so n_samples must be even")


@dataclass(frozen=True)
class _Plan:
    """Per-run constants: normal scales and the accumulator loads on them.

    A block draws ``len(scale)`` normals per driver and scales them by
    ``scale``; each row of a load matrix then gives one accumulator.
    """

    f0E: float
    f0I: float
    rho: float
    mode: CorrelationMode
    scale: np.ndarray
    loadE: np.ndarray  # rows gE, iE, gI_cross on the energy driver
    loadI: np.ndarray  # rows gI, iI, iE_cross on the independent driver
    driftE: float  # -1/2 int sigma_E^2 on this grid
    driftI: float


def _coefficients(model: MarketModel, tuning: TuningFunction, t_left: np.ndarray,
                  dt: np.ndarray) -> _Plan:
    sigE = model.energy_vol.values_on_grid(t_left)
    sigI = model.temperature_vol.values_on_grid(t_left)
    av = tuning.values_on_grid(t_left)
    # Degenerate (zero-vol) segments are flagged by validation; keep the
    # martingale part usable by dropping their weight-kernel contribution.
    kernE = np.where(sigE > 0.0, av / np.where(sigE > 0.0, sigE, 1.0), 0.0)
    kernI = np.where(sigI > 0.0, av / np.where(sigI > 0.0, sigI, 1.0), 0.0)
    loadE = np.stack([sigE, kernE, sigI])
    loadI = np.stack([sigI, kernI, kernE])
    scale = np.sqrt(dt)
    if len(dt) > len(loadE):
        # R^T R = K^T diag(dt) K: the same covariance from three normals per driver.
        loadE, loadI = (np.ascontiguousarray(np.linalg.qr((k * scale).T, mode="r").T)
                        for k in (loadE, loadI))
        scale = np.ones(len(loadE))
    return _Plan(
        f0E=model.energy.f0,
        f0I=model.temperature.f0,
        rho=model.rho,
        mode=model.correlation_mode,
        scale=scale,
        loadE=loadE,
        loadI=loadI,
        driftE=-0.5 * float(np.dot(sigE * sigE, dt)),
        driftI=-0.5 * float(np.dot(sigI * sigI, dt)),
    )


def _build_plan(model: MarketModel, tuning: TuningFunction, scheme: SimScheme) -> _Plan:
    horizon = model.horizon
    if tuning.horizon != horizon:
        raise ValueError("tuning function horizon must match the model horizon")
    if scheme.kind == "exact":
        edges = np.array(union_grid(horizon, model.energy_vol, model.temperature_vol, tuning))
        dt = np.diff(edges)
    else:
        edges = np.linspace(0.0, horizon, scheme.steps + 1)
        dt = np.full(scheme.steps, horizon / scheme.steps)
    return _coefficients(model, tuning, edges[:-1], dt)


def _block_generator(seed: int, block: int) -> np.random.Generator:
    bitgen = np.random.Philox(key=seed & _KEY_MASK, counter=block << 128)
    return np.random.Generator(bitgen)


def block_count(n_samples: int) -> int:
    return (n_samples + BLOCK_SIZE - 1) // BLOCK_SIZE


def _interleave_negated(x: np.ndarray) -> np.ndarray:
    out = np.empty(2 * len(x))
    out[0::2] = x
    out[1::2] = -x
    return out


def _draw_block(plan: _Plan, cfg: SimConfig, block: int) -> SampleDraw:
    start = block * BLOCK_SIZE
    count = min(BLOCK_SIZE, cfg.n_samples - start)
    base = count // 2 if cfg.antithetic else count
    gen = _block_generator(cfg.seed, block)
    z = gen.standard_normal((base, len(plan.scale), 2))
    dwE = z[:, :, 0] * plan.scale
    dwI = z[:, :, 1] * plan.scale
    gE, iE, gI_cross = (dwE @ load for load in plan.loadE)
    gI, iI, iE_cross = (dwI @ load for load in plan.loadI)

    if cfg.antithetic:
        gE, iE, gI_cross, gI, iI, iE_cross = map(
            _interleave_negated, (gE, iE, gI_cross, gI, iI, iE_cross))

    fE = plan.f0E * np.exp(plan.driftE + gE)
    fI = _temperature_level(plan, plan.rho, gI, gI_cross)
    return SampleDraw(fE, fI, gE, gI, iE, iI, iE_cross, gI_cross)


def _temperature_level(plan: _Plan, rho: float, gI: np.ndarray,
                       gI_cross: np.ndarray) -> np.ndarray:
    """Terminal temperature futures at correlation ``rho`` from the drawn accumulators.

    Only sde_mixing mixes the drivers here, so this is the one draw quantity
    that depends on rho; a scenario at another rho recomputes it from the same
    ``gI`` and ``gI_cross``.
    """
    if plan.mode is CorrelationMode.SDE_MIXING:
        stoch_I = rho * gI_cross + float(np.sqrt(1.0 - rho * rho)) * gI
    else:
        stoch_I = gI
    return plan.f0I * np.exp(plan.driftI + stoch_I)


def sample_block(model: MarketModel, tuning: TuningFunction, cfg: SimConfig,
                 block: int) -> SampleDraw:
    """Draw one block of samples; pure in (model, tuning, cfg, block)."""
    _check_config(cfg)
    if not 0 <= block < block_count(cfg.n_samples):
        raise ValueError(f"block {block} out of range")
    return _draw_block(_build_plan(model, tuning, cfg.scheme), cfg, block)


def iter_sample_blocks(model: MarketModel, tuning: TuningFunction,
                       cfg: SimConfig) -> Iterator[SampleDraw]:
    """Stream the sample blocks in index order."""
    _check_config(cfg)
    plan = _build_plan(model, tuning, cfg.scheme)
    for block in range(block_count(cfg.n_samples)):
        yield _draw_block(plan, cfg, block)


def _concatenate(blocks: list[SampleDraw]) -> SampleDraw:
    if len(blocks) == 1:
        return blocks[0]
    fields_cat = [np.concatenate([getattr(b, f.name) for b in blocks]) for f in fields(SampleDraw)]
    return SampleDraw(*fields_cat)


def draw_samples(model: MarketModel, tuning: TuningFunction, cfg: SimConfig) -> SampleDraw:
    """All requested samples as one batch, regardless of scheme."""
    return _concatenate(list(iter_sample_blocks(model, tuning, cfg)))
