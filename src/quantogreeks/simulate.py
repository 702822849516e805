"""Joint sampling of terminal futures values and the stochastic integrals behind hedge weights.

Draws are generated in fixed-size blocks from a counter-based Philox stream
keyed by the seed, so sample i never depends on how many samples are requested
or on how the blocks are scheduled across threads. A block is drawn in tiles
of ``TILE_SIZE`` samples, into buffers a caller may reuse from block to block;
the tiles continue the block's generator, so the tiling leaves every bit as a
single draw of the block would give it. A Monte Carlo pass draws into a
private buffer that holds only the fields its jobs read: the others are
None, and are neither summed nor stored.

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
    """Per-run constants: the accumulator loads on each driver's normals.

    A block draws ``loadE.shape[1]`` normals per driver; row j of a load
    matrix gives accumulator j as the sum over k of normal k times ``load[j, k]``.
    """

    f0E: float
    f0I: float
    rho: float
    mode: CorrelationMode
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
        f0E=model.energy.f0,
        f0I=model.temperature.f0,
        rho=model.rho,
        mode=model.correlation_mode,
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


def tile_bounds(count: int) -> list[tuple[int, int]]:
    """Sample ranges [lo, hi) of the tiles of a ``count``-sample block."""
    edges = [*range(0, count, TILE_SIZE), count]
    return list(zip(edges, edges[1:]))


def _rows(draw: SampleDraw, index: slice | np.ndarray) -> SampleDraw:
    """Samples ``index`` of every field, views of a slice or copies at indices; None stays None."""
    return SampleDraw(*(None if (a := getattr(draw, f.name)) is None else a[index]
                        for f in fields(SampleDraw)))


def _draw_block(plan: _Plan, cfg: SimConfig, block: int,
                out: SampleDraw | None = None) -> SampleDraw:
    """Draw block ``block`` tile by tile into ``out`` (fresh arrays if None).

    ``out`` holds at least the block's sample count; the result is views of
    its leading entries. The block's generator fills the normals one tile at
    a time, so every sample has the bits of a single draw of the block.
    Each accumulator is summed column by column, left to right, with
    elementwise operations only, so a sample's bits do not depend on how
    many samples share the tile.

    An accumulator whose field in ``out`` is None is not formed. If ``gE``
    or ``gI`` is None, that driver is summed into its level's field and
    turned into the level in place: the same operations in the same order,
    so the same bits. Under sde_mixing at rho != 0 the level mixes ``gI``
    and ``gI_cross``, so ``out`` must hold both.
    """
    count = min(BLOCK_SIZE, cfg.n_samples - block * BLOCK_SIZE)
    if out is None:
        out = SampleDraw(*np.empty((len(fields(SampleDraw)), count)))
    draw = _rows(out, slice(count))
    gen = _block_generator(cfg.seed, block)
    rank = plan.loadE.shape[1]
    for lo, hi in tile_bounds(count):
        tile = _rows(draw, slice(lo, hi))
        rows = (hi - lo) // 2 if cfg.antithetic else hi - lo
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
        np.multiply(tile.fE_T, plan.f0E, out=tile.fE_T)
        _temperature_level(plan, plan.rho, gI, tile.gI_cross, out=tile.fI_T)
    return draw


def _temperature_level(plan: _Plan, rho: float, gI: np.ndarray, gI_cross: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Terminal temperature futures at correlation ``rho`` from the drawn accumulators.

    Only sde_mixing mixes the drivers here, so this is the one draw quantity
    that depends on rho; a scenario at another rho recomputes it from the same
    ``gI`` and ``gI_cross``. At rho = 0, of either sign, the mix is skipped:
    ``sqrt(1 - rho^2)`` is 1.0 and ``rho * gI_cross`` a zero, so the mix is
    ``gI`` up to the sign of a zero, which adding the drift and exp erase.
    """
    if plan.mode is CorrelationMode.SDE_MIXING and rho != 0.0:  # in place: one temporary
        level = np.multiply(gI_cross, rho, out=out)
        level += float(np.sqrt(1.0 - rho * rho)) * gI
        level += plan.driftI
    else:
        level = np.add(gI, plan.driftI, out=out)
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


def draw_samples(model: MarketModel, tuning: TuningFunction, cfg: SimConfig) -> SampleDraw:
    """All requested samples as one batch, regardless of scheme."""
    blocks = list(iter_sample_blocks(model, tuning, cfg))
    return SampleDraw(*(np.concatenate([getattr(b, f.name) for b in blocks])
                        for f in fields(SampleDraw)))
