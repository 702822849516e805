"""Joint sampling of terminal futures values and the stochastic integrals behind hedge weights.

Draws are generated in fixed-size blocks from a counter-based Philox stream
keyed by the seed, so sample i never depends on how many samples are requested
or on how the blocks are scheduled across threads. A block is drawn in tiles
of ``TILE_SIZE`` samples, into buffers a caller may reuse from block to block;
the tiles continue the block's generator, so the tiling leaves every bit as a
single draw of the block would give it.

Each of the six Gaussian accumulators is a fixed linear functional of one
driver's increments, so a driver's three accumulators are ``dW @ K`` for a
load matrix K with one column per accumulator. On grids of at most three
segments the per-segment increments are drawn directly. On finer grids
(log-Euler with many steps, or many breakpoints) ``diag(sqrt(dt)) K = U S V^T``
is factored once per run and r standard normals per driver are multiplied by
``R = S_r V_r^T``, where r is the larger of the two drivers' ranks: the count
of singular values above ``numpy.linalg.matrix_rank``'s default cut,
``s[0] * len(dt) * eps``. ``U_r^T z`` is standard normal and the dropped
singular values are rounding noise, so the joint law is exact, and the draw
cost and block memory do not depend on the step count (Glasserman, Monte
Carlo Methods in Financial Engineering, 2003, section 2.3). Constant
coefficients draw one normal per driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterator

import numpy as np

from .model import CorrelationMode, MarketModel, TuningFunction, union_grid

BLOCK_SIZE = 1 << 16  # samples per block: the unit of the random stream and of the reductions
TILE_SIZE = 1 << 14  # samples per tile: a block is drawn and evaluated this many at a time

_KEY_MASK = (1 << 128) - 1


def _require_int(value, name: str) -> None:
    if type(value) is not int:  # a bool or a float, even a whole one, is refused
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SimScheme:
    """Sampling scheme: exact terminal law, or log-Euler paths on a uniform grid."""

    kind: str  # "exact" | "euler"
    steps: int = 0

    def __post_init__(self):
        _require_int(self.steps, "scheme steps")

    @classmethod
    def exact(cls) -> "SimScheme":
        return cls("exact", 0)

    @classmethod
    def log_euler(cls, steps: int) -> "SimScheme":
        return cls("euler", steps)

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
    _require_int(cfg.n_samples, "n_samples")
    _require_int(cfg.seed, "seed")
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
        # diag(sqrt(dt)) K = U S V^T, so R = S_r V_r^T gives R^T R = K^T diag(dt) K from
        # r normals per driver, r the larger rank; singular values at or below
        # numpy.linalg.matrix_rank's default cut, s[0] * len(dt) * eps, are rounding noise.
        svds = [np.linalg.svd((k * scale).T, full_matrices=False)[1:] for k in (loadE, loadI)]
        cut = len(dt) * np.finfo(float).eps
        rank = max(1, *(np.count_nonzero(s > s[0] * cut) for s, _ in svds))
        loadE, loadI = (np.ascontiguousarray((s[:rank, None] * vt[:rank]).T) for s, vt in svds)
        scale = np.ones(rank)
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


def tile_bounds(count: int, antithetic: bool) -> list[tuple[int, int]]:
    """Sample ranges [lo, hi) of the tiles of a ``count``-sample block.

    A tail of one draw row (one sample, or one antithetic pair) joins the
    tile before it: numpy multiplies a single row by the loads with a dot
    product rather than gemv, so a lone row would not keep its bits.
    """
    row = 2 if antithetic else 1
    edges = [*range(0, count, TILE_SIZE), count]
    if len(edges) > 2 and count - edges[-2] == row:
        del edges[-2]
    return list(zip(edges, edges[1:]))


def _rows(draw: SampleDraw, lo: int, hi: int) -> SampleDraw:
    """Views of samples [lo, hi) of every field."""
    return SampleDraw(*(getattr(draw, f.name)[lo:hi] for f in fields(SampleDraw)))


def _draw_block(plan: _Plan, cfg: SimConfig, block: int,
                out: SampleDraw | None = None) -> SampleDraw:
    """Draw block ``block`` tile by tile into ``out`` (fresh arrays if None).

    ``out`` holds at least the block's sample count; the result is views of
    its leading entries. The block's generator fills the normals one tile at
    a time, so every sample has the bits of a single draw of the block.
    The normals are scaled one column at a time into C-ordered increments:
    the same products as broadcasting ``plan.scale`` over each row, without
    numpy's length-k inner loop per row. A unit scale is multiplied too, as
    ``np.dot`` would otherwise copy the strided normals once per accumulator.
    """
    count = min(BLOCK_SIZE, cfg.n_samples - block * BLOCK_SIZE)
    if out is None:
        out = SampleDraw(*np.empty((len(fields(SampleDraw)), count)))
    draw = _rows(out, 0, count)
    gen = _block_generator(cfg.seed, block)
    for lo, hi in tile_bounds(count, cfg.antithetic):
        tile = _rows(draw, lo, hi)
        rows = (hi - lo) // 2 if cfg.antithetic else hi - lo
        z = gen.standard_normal((rows, len(plan.scale), 2))
        dwE, dwI = np.empty((2, rows, len(plan.scale)))
        for k, scale in enumerate(plan.scale):
            np.multiply(z[:, k, 0], scale, out=dwE[:, k])
            np.multiply(z[:, k, 1], scale, out=dwI[:, k])
        for dw, loads, dsts in ((dwE, plan.loadE, (tile.gE, tile.iE, tile.gI_cross)),
                                (dwI, plan.loadI, (tile.gI, tile.iI, tile.iE_cross))):
            for load, dst in zip(loads, dsts):
                # np.dot, not matmul: the same bits, but matmul skips BLAS for a
                # one-column dw (a one-segment grid) and runs 5-10x slower
                if cfg.antithetic:
                    dst[0::2] = np.dot(dw, load)
                    np.negative(dst[0::2], out=dst[1::2])
                else:
                    np.dot(dw, load, out=dst)
        np.add(tile.gE, plan.driftE, out=tile.fE_T)
        np.exp(tile.fE_T, out=tile.fE_T)
        np.multiply(tile.fE_T, plan.f0E, out=tile.fE_T)
        _temperature_level(plan, plan.rho, tile.gI, tile.gI_cross, out=tile.fI_T)
    return draw


def _temperature_level(plan: _Plan, rho: float, gI: np.ndarray, gI_cross: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Terminal temperature futures at correlation ``rho`` from the drawn accumulators.

    Only sde_mixing mixes the drivers here, so this is the one draw quantity
    that depends on rho; a scenario at another rho recomputes it from the same
    ``gI`` and ``gI_cross``.
    """
    if plan.mode is CorrelationMode.SDE_MIXING:
        stoch_I = rho * gI_cross + float(np.sqrt(1.0 - rho * rho)) * gI
    else:
        stoch_I = gI
    level = np.add(stoch_I, plan.driftI, out=out)
    np.exp(level, out=level)
    level *= plan.f0I
    return level


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
