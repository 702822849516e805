"""Joint sampling of terminal futures values and the stochastic integrals behind hedge weights.

A ``SimConfig`` refuses an invalid count, seed or step count when it is
built, so every draw takes its settings as checked. Its ``euler_steps`` is
the scheme: 0 draws the exact terminal law, N >= 1 log-Euler on N uniform steps.

Draws are generated in fixed-size blocks from a counter-based Philox stream
keyed by the seed, so sample i never depends on how many samples are requested
or on how the blocks are scheduled across threads. A block is drawn tile by
tile (``tile_bounds``), each tile continuing the block's generator
(``_draw_tile``), so the tiling leaves every bit.

Each of the six Gaussian accumulators is a fixed linear functional of one
driver's increments, so a driver's three accumulators are ``z @ R`` for
standard normals z and a load matrix R with one column per accumulator. On
grids of at most three segments z holds the per-segment normals and
``R = diag(sqrt(dt)) K`` for the kernels K. On finer grids (log-Euler with
many steps, or many breakpoints) ``diag(sqrt(dt)) K = U S V^T`` is factored
once per run and ``R = S_r V_r^T``, where r is the larger of the two drivers'
ranks: the count of singular values above ``numpy.linalg.matrix_rank``'s
default cut, ``s[0] * len(dt) * eps``. ``U_r^T z`` is standard normal and the
dropped singular values are rounding noise, so the joint law is exact, and
the draw cost and block memory do not depend on the step count (Glasserman,
Monte Carlo Methods in Financial Engineering, 2003, section 2.3). Constant
coefficients draw one normal per driver.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from .model import CorrelationMode, MarketModel, TuningFunction, rho_violation, union_grid

BLOCK_SIZE = 1 << 16  # samples per block: the unit of the random stream and of the reductions
TILE_SIZE = 1 << 14  # draws per tile (``tile_bounds``); also a pass's largest part (``_mc_pass``)
MAX_EULER_STEPS = 1 << 20  # the plan holds about 160 bytes per step: 170 MB at this bound


@dataclass(frozen=True)
class SimConfig:
    """Sampling settings, checked when built; ``dataclasses.replace`` checks again.

    A count, seed or step count must be an int: a bool or a float, even a
    whole one, is refused. ``antithetic`` must be a bool. At most
    ``MAX_EULER_STEPS`` steps are drawn.
    """

    n_samples: int
    seed: int
    antithetic: bool = False
    euler_steps: int = 0

    def __post_init__(self):
        for name in ("n_samples", "seed", "euler_steps"):
            if type(value := getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if type(self.antithetic) is not bool:
            raise ValueError(f"antithetic must be a bool, got {self.antithetic!r}")
        if not 0 <= self.seed < 1 << 128:  # the Philox key; a seed outside would alias one inside
            raise ValueError(f"seed must lie in [0, 2**128), got {self.seed}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.n_samples >= 1 << 63:  # numpy indexes samples with int64
            raise ValueError(f"n_samples must be < 2**63, got {self.n_samples}")
        if self.euler_steps < 0:
            raise ValueError(f"euler_steps must be >= 0, got {self.euler_steps}")
        if self.euler_steps > MAX_EULER_STEPS:
            raise ValueError(f"euler_steps must be <= 2**20, got {self.euler_steps}")
        if self.antithetic and self.n_samples % 2 != 0:
            raise ValueError("antithetic sampling pairs draws, so n_samples must be even")


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

    The public draw functions form every field. A Monte Carlo pass's private
    draw may hold None in any field but the two levels, so that a read of a
    field the pass did not draw fails instead of reading stale memory.
    """

    fE_T: np.ndarray
    fI_T: np.ndarray
    gE: np.ndarray
    gI: np.ndarray
    iE: np.ndarray
    iI: np.ndarray
    iE_cross: np.ndarray
    gI_cross: np.ndarray


@dataclass(frozen=True)
class _Plan:
    """Per-run constants: the accumulator loads on each driver's normals.

    A block draws ``loadE.shape[1]`` normals per driver; row j of a load
    matrix gives accumulator j as the sum over k of normal k times ``load[j, k]``.
    """

    loadE: np.ndarray  # rows gE, iE, gI_cross on the energy driver
    loadI: np.ndarray  # rows gI, iI, iE_cross on the independent driver
    driftE: float  # -1/2 int sigma_E^2 on this grid
    driftI: float


def _build_plan(model: MarketModel, tuning: TuningFunction, euler_steps: int) -> _Plan:
    """The run's constants; under sde_mixing a rho outside (-1, 1) is refused.

    Only sde_mixing mixes rho into the draw, through ``sqrt(1 - rho^2)``; the
    public draws do not validate the model otherwise, so that degenerate
    volatilities can still be drawn.
    """
    if model.correlation_mode is CorrelationMode.SDE_MIXING and (bad := rho_violation(model.rho)):
        raise ValueError(bad)
    horizon = model.horizon
    if euler_steps:
        t_left = np.linspace(0.0, horizon, euler_steps + 1)[:-1]
        dt = np.full(euler_steps, horizon / euler_steps)
    else:
        edges = np.array(union_grid(horizon, model.energy_vol, model.temperature_vol, tuning))
        t_left, dt = edges[:-1], np.diff(edges)
    sigE = model.energy_vol.values_on_grid(t_left)
    sigI = model.temperature_vol.values_on_grid(t_left)
    av = tuning.values_on_grid(t_left)
    # Degenerate (zero-vol) segments are flagged by validation; keep the
    # martingale part usable by dropping their weight-kernel contribution.
    kernE = np.where(sigE > 0.0, av / np.where(sigE > 0.0, sigE, 1.0), 0.0)
    kernI = np.where(sigI > 0.0, av / np.where(sigI > 0.0, sigI, 1.0), 0.0)
    loadE, loadI = np.array([[sigE, kernE, sigI], [sigI, kernI, kernE]]) * np.sqrt(dt)
    if len(dt) > len(loadE):
        # diag(sqrt(dt)) K = U S V^T, so R = S_r V_r^T gives R^T R = K^T diag(dt) K from
        # r normals per driver, r the larger rank; singular values at or below
        # numpy.linalg.matrix_rank's default cut, s[0] * len(dt) * eps, are rounding noise.
        svds = [np.linalg.svd(k.T, full_matrices=False)[1:] for k in (loadE, loadI)]
        cut = len(dt) * np.finfo(float).eps
        rank = max(1, *(np.count_nonzero(s > s[0] * cut) for s, _ in svds))
        loadE, loadI = ((s[:rank, None] * vt[:rank]).T for s, vt in svds)
    return _Plan(
        loadE=loadE,
        loadI=loadI,
        driftE=-0.5 * float(np.dot(sigE * sigE, dt)),
        driftI=-0.5 * float(np.dot(sigI * sigI, dt)),
    )


def _block_generator(seed: int, block: int) -> np.random.Generator:
    bitgen = np.random.Philox(key=seed, counter=block << 128)
    return np.random.Generator(bitgen)


def block_count(n_samples: int) -> int:
    return (n_samples + BLOCK_SIZE - 1) // BLOCK_SIZE


def tile_bounds(count: int, antithetic: bool) -> list[tuple[int, int]]:
    """Sample ranges [lo, hi) of the tiles of a ``count``-sample block.

    A tile is counted in draws, ``TILE_SIZE`` rows of normals: ``TILE_SIZE``
    samples, or ``2 * TILE_SIZE`` (``TILE_SIZE`` pairs) when ``antithetic``.
    """
    edges = [*range(0, count, 2 * TILE_SIZE if antithetic else TILE_SIZE), count]
    return list(zip(edges, edges[1:]))


def _rows(draw: SampleDraw, index: slice | np.ndarray) -> SampleDraw:
    """Samples ``index`` of every field, views of a slice or copies at indices; None stays None."""
    return SampleDraw(*(None if (a := getattr(draw, f.name)) is None else a[index]
                        for f in fields(SampleDraw)))


def _draw_tile(plan: _Plan, model: MarketModel, cfg: SimConfig, gen: np.random.Generator,
               tile: SampleDraw) -> None:
    """Draw the next tile of a block into ``tile``, continuing the block's generator ``gen``.

    A tile takes one row of normals per sample or antithetic pair. Drawn in
    block order, a block's tiles take the normals of a single draw of the
    block, so every sample has the same bits. Each accumulator is summed
    column by column, left to right, with elementwise operations only, so a
    sample's bits do not depend on how many samples share the tile.

    An accumulator whose field in ``tile`` is None is not formed. If ``gE``
    or ``gI`` is None, that driver is summed into its level's field and
    turned into the level in place: the same operations in the same order,
    so the same bits. Under sde_mixing at rho != 0 the level mixes ``gI``
    and ``gI_cross``, so ``tile`` must hold both.
    """
    rank = plan.loadE.shape[1]
    rows = len(tile.fE_T) // 2 if cfg.antithetic else len(tile.fE_T)
    z = gen.standard_normal((rows, rank, 2))
    term = np.empty(rows)
    gE = tile.fE_T if tile.gE is None else tile.gE
    gI = tile.fI_T if tile.gI is None else tile.gI
    for d, loads, dsts in ((0, plan.loadE, (gE, tile.iE, tile.gI_cross)),
                           (1, plan.loadI, (gI, tile.iI, tile.iE_cross))):
        for load, dst in zip(loads, dsts):
            if dst is None:
                continue
            acc = dst[0::2] if cfg.antithetic else dst
            np.multiply(z[:, 0, d], load[0], out=acc)
            for k in range(1, rank):
                acc += np.multiply(z[:, k, d], load[k], out=term)
            if cfg.antithetic:
                np.negative(acc, out=dst[1::2])
    np.add(gE, plan.driftE, out=tile.fE_T)
    np.exp(tile.fE_T, out=tile.fE_T)
    np.multiply(tile.fE_T, model.energy_f0, out=tile.fE_T)
    _temperature_level(plan, model, gI, tile.gI_cross, out=tile.fI_T)


def _draw_block(plan: _Plan, model: MarketModel, cfg: SimConfig, block: int) -> SampleDraw:
    """Draw every field of block ``block`` of ``model`` into fresh arrays, tile by tile."""
    count = min(BLOCK_SIZE, cfg.n_samples - block * BLOCK_SIZE)
    draw = SampleDraw(*np.empty((len(fields(SampleDraw)), count)))
    gen = _block_generator(cfg.seed, block)
    for lo, hi in tile_bounds(count, cfg.antithetic):
        _draw_tile(plan, model, cfg, gen, _rows(draw, slice(lo, hi)))
    return draw


def _temperature_level(plan: _Plan, model: MarketModel, gI: np.ndarray, gI_cross: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Terminal temperature futures of ``model`` from the drawn accumulators.

    Only sde_mixing mixes the drivers here, so this is the one draw quantity
    that depends on rho; a scenario at another rho recomputes it from the same
    ``gI`` and ``gI_cross``. At rho = 0, of either sign, the mix is skipped:
    ``sqrt(1 - rho^2)`` is 1.0 and ``rho * gI_cross`` a zero, so the mix is
    ``gI`` up to the sign of a zero, which adding the drift and exp erase.
    """
    if model.correlation_mode is CorrelationMode.SDE_MIXING and model.rho != 0.0:
        level = np.multiply(gI_cross, model.rho, out=out)  # in place: one temporary
        level += float(np.sqrt(1.0 - model.rho * model.rho)) * gI
        level += plan.driftI
    else:
        level = np.add(gI, plan.driftI, out=out)
    np.exp(level, out=level)
    level *= model.temperature_f0
    return level


def sample_block(model: MarketModel, tuning: TuningFunction, cfg: SimConfig,
                 block: int) -> SampleDraw:
    """Draw one block of samples; pure in (model, tuning, cfg, block)."""
    if not 0 <= block < block_count(cfg.n_samples):
        raise ValueError(f"block {block} out of range")
    return _draw_block(_build_plan(model, tuning, cfg.euler_steps), model, cfg, block)


def iter_sample_blocks(model: MarketModel, tuning: TuningFunction,
                       cfg: SimConfig) -> Iterator[SampleDraw]:
    """Stream the sample blocks in index order."""
    plan = _build_plan(model, tuning, cfg.euler_steps)
    for block in range(block_count(cfg.n_samples)):
        yield _draw_block(plan, model, cfg, block)


def draw_samples(model: MarketModel, tuning: TuningFunction, cfg: SimConfig) -> SampleDraw:
    """All requested samples as one batch, regardless of scheme."""
    blocks = list(iter_sample_blocks(model, tuning, cfg))
    return SampleDraw(*(np.concatenate([getattr(b, f.name) for b in blocks])
                        for f in fields(SampleDraw)))
