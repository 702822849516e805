"""Price and Greek estimators: weighted Monte Carlo, CRN finite differences, deterministic quadrature.

The Monte Carlo engine (``_mc_pass``) evaluates all requested estimators on one
shared draw stream, block by block, merging the blocks' partial moments in
block-index order, so the result is bit-identical for any thread count.
Correlation scenarios and finite-difference bumps are jobs on that stream, and
sample-count prefixes (``sizes``) are reduced per block, so each command draws
once. ``_mc_pass`` holds the tile parts, job groups and live-sample policy,
``_live_test`` the live thresholds and ``_BlockData`` what a tile shares among
its jobs and how it evaluates a payoff point. The quadrature oracle shares no
sampling code with the Monte Carlo path: it integrates a closed-form mean over
the temperature driver against Gauss-Legendre nodes in the energy driver.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import threading
import time
from dataclasses import dataclass, fields, replace
from typing import Callable, Sequence

import numpy as np

from .model import CorrelationMode, MarketModel, TuningFunction, validate_model
from .payoffs import (KinkSolver, Leg, PayoffSpec, conditional_mean, energy_kink_levels,
                      evaluate, validate_payoff)
from .simulate import (
    BLOCK_SIZE,
    SampleDraw,
    TILE_SIZE,
    SimConfig,
    _block_generator,
    _build_plan,
    _draw_tile,
    _Plan,
    _rows,
    _temperature_level,
    block_count,
    tile_bounds,
)
from .weights import WEIGHTS, WeightVariant, mode_variant, require_rho_supported, weight_for

GREEKS = {"dE": "E", "dI": "I", "dEdI": "EI"}  # the initial levels each Greek's FD moves
FD_BUMP = 1e-4  # relative bump on the initial futures level of every finite difference
QUAD_STEP = 1e-5  # relative step of quad_greek's central differences of quad_price


@dataclass(frozen=True)
class GreekEstimate:
    """Point estimate with its Monte Carlo standard error.

    ``variant`` labels the estimator ("Price", a WeightVariant value, "FD_dE",
    "Quad_dEdI", ...). ``seconds`` is the wall time of the estimation pass that
    produced it (shared across estimates computed in one pass).
    """

    value: float
    stderr: float
    n: int
    variant: str
    seconds: float


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------


class _BlockData:
    """One part of a tile (``_mc_pass``) with the derived quantities every job needs.

    ``payoff_at`` evaluates each (scale_E, scale_I) point of the initial
    levels on its first read, so a part evaluates only the points its jobs
    read: (1, 1) for ``pay_base`` and the finite-difference bumps.

    It keeps ``tables = (shared, own)``, the pair ``weight_for`` reads. ``shared``
    holds what reads no rho, and scenario views (``at``) share it: levels by
    ``(leg, scale)``, energy legs by ``("energy", scale)``, kernels by name and
    weights by their kernels' names. ``own`` holds what reads the model's rho:
    payoff points by ``(scale_E, scale_I)`` and rho kernels by name; each view
    starts one empty. The sde_mixing temperature level is kept in neither.
    """

    __slots__ = ("draw", "plan", "eE", "eI", "model", "payoff", "tables")

    def __init__(self, draw: SampleDraw, plan: _Plan, model: MarketModel, payoff: PayoffSpec):
        self.draw = draw
        self.plan = plan
        self.model = model
        self.payoff = payoff
        self.eE = draw.fE_T / model.energy_f0
        self.eI = draw.fI_T / model.temperature_f0
        self.tables: tuple[dict, dict] = ({}, {})

    @property
    def pay_base(self) -> np.ndarray:
        return self.payoff_at(1.0, 1.0)

    def at(self, model: MarketModel) -> "_BlockData":
        """This tile under ``model``: the pass's model with another rho.

        Under sde_mixing the temperature level moves with rho, so the view
        rebuilds ``eI`` from the drawn accumulators; it never reads its
        draw's ``fI_T``. The view shares every other array.
        """
        view = _BlockData.__new__(_BlockData)
        view.draw, view.plan, view.model, view.payoff = self.draw, self.plan, model, self.payoff
        view.eE, view.eI, view.tables = self.eE, self.eI, (self.tables[0], {})
        if model.correlation_mode is CorrelationMode.SDE_MIXING:
            view.eI = _temperature_level(self.plan, model, self.draw.gI, self.draw.gI_cross)
            view.eI /= model.temperature_f0
        return view

    def payoff_at(self, scale_E: float, scale_I: float) -> np.ndarray:
        """Payoff with the initial levels rescaled by (scale_E, scale_I); draws stay fixed.

        The energy level reads no rho in either mode, so each scale's energy
        legs are evaluated once per tile, for the tile and all of its views.
        """
        shared, own = self.tables
        point = scale_E, scale_I
        if point not in own:
            m = self.model
            fE, h = self._level("E", scale_E), self._level("I", scale_I)
            # at rho = 0, of either sign, the mix is fI exactly: 1.0 * fI is fI, and a zero
            # plus a level is the level, none being -0.0
            if m.correlation_mode is CorrelationMode.PAYOFF_MIXING and m.rho != 0.0:
                h = m.rho * fE + math.sqrt(1.0 - m.rho * m.rho) * h
            own[point] = evaluate(self.payoff, fE, h,
                                  _energy=shared.setdefault(("energy", scale_E), []))
        return own[point]

    def _level(self, leg: str, scale: float) -> np.ndarray:
        """(f0 * scale) * e of ``leg``, kept in ``shared`` if it reads no rho."""
        m = self.model
        f0, unit = (m.energy_f0, self.eE) if leg == "E" else (m.temperature_f0, self.eI)
        if leg == "I" and m.correlation_mode is CorrelationMode.SDE_MIXING:
            return (f0 * scale) * unit
        shared = self.tables[0]
        if (leg, scale) not in shared:
            shared[leg, scale] = (f0 * scale) * unit
        return shared[leg, scale]


def _live_test(model: MarketModel, payoff: PayoffSpec, points: set[tuple[float, float]],
               energy_only: bool) -> tuple:
    """``_live_samples``'s thresholds for a pass that reads the payoff at ``points``.

    Per term, one form (a, b, t) per leg: the leg can be non-zero at one of
    the points only where a * fE_T + b * fI_T > t on the drawn levels. A level is
    its scale times its drawn level, the temperature one under payoff_mixing at
    rho != 0 mixed as rho * (energy level) + sqrt(1 - rho^2) * (its own); a put
    is negated into the same upward form. Each coefficient is the largest the
    points' extreme scales give, so the sign of rho picks its energy end, and
    it is widened by 1e-12 relative to cover the levels' rounding; the strike
    moves down by 1e-300 * (1 + f0E + f0I), since a subnormal level rounds in
    absolute steps. So the test never drops a sample that can pay, and those
    it adds pay 0.0. With ``energy_only`` each term keeps its energy leg alone.
    """
    scales_E, scales_I = zip(*points)
    ends_E, ends_I = (min(scales_E), max(scales_E)), (min(scales_I), max(scales_I))
    mixing = model.correlation_mode is CorrelationMode.PAYOFF_MIXING and model.rho != 0.0
    mix = math.sqrt(1.0 - model.rho * model.rho) if mixing else 1.0
    floor = 1e-300 * (1.0 + model.energy_f0 + model.temperature_f0)
    # each leg's candidate coefficients on fE_T and on fI_T
    energy = ends_E, (0.0,)
    temperature = [model.rho * s for s in ends_E] if mixing else (0.0,), [mix * s for s in ends_I]

    def form(leg: Leg, coefs: tuple) -> tuple:
        sign = -1.0 if leg.kind == "put" else 1.0
        a, b = (max(sign * c for c in candidates) for candidates in coefs)
        return a + 1e-12 * abs(a), b + 1e-12 * abs(b), sign * leg.k - floor

    legs = (energy,) if energy_only else (energy, temperature)
    return tuple(tuple(map(form, term, legs)) for term in payoff.terms)


def _live_samples(draw: SampleDraw, test: tuple) -> np.ndarray:
    """Indices of the tile's samples where some term of ``test`` (a ``_live_test``) can be non-zero.

    A term is dead where one of its legs has a * fE_T + b * fI_T <= t; a NaN level is live.
    """
    def dead(a: float, b: float, t: float) -> np.ndarray:
        x = a * draw.fE_T if a else b * draw.fI_T
        if a and b:
            x += b * draw.fI_T
        return x <= t

    return np.flatnonzero(~functools.reduce(operator.and_, (
        functools.reduce(operator.or_, (dead(*form) for form in term)) for term in test)))


_BASE = ((1.0, 1.0),)  # the point of ``pay_base``
# (label, run(data, out), the points whose payoffs it reads, the scenario model it reads or
# None, the draw fields it reads besides the levels)
_Job = tuple[str, Callable[[_BlockData, np.ndarray | None], np.ndarray], tuple,
             MarketModel | None, tuple[str, ...]]


def _require_valid(model: MarketModel, payoff: PayoffSpec,
                   tuning: TuningFunction | None = None) -> None:
    """The engine boundary: raise ValueError listing every model and payoff violation."""
    bad = validate_model(model, tuning) + validate_payoff(payoff)
    if bad:
        raise ValueError("; ".join(bad))


def _pair_means(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Mean of each antithetic pair, into ``out`` if given.

    values.reshape(-1, 2).mean(axis=1) bit for bit, without its slow length-2
    reduce: mean turns a -0.0 pair sum into +0.0, and so does "+ 0.0". x * 0.5
    and x / 2 are the same exact number, so they round alike, and the multiply
    costs about a third of the divide.
    """
    out = np.add(values[0::2], values[1::2], out=out)
    out += 0.0
    out *= 0.5
    return out


_GROUP_JOBS = 8  # jobs a block evaluates together, each into its own row of values


def _mc_pass(model: MarketModel, payoff: PayoffSpec, tuning: TuningFunction,
             cfg: SimConfig, jobs: list[_Job], threads: int = 1,
             sizes: Sequence[int] | None = None) -> list[list[GreekEstimate]]:
    """Run all labelled jobs over one shared stream of ``cfg.n_samples`` draws.

    Each job names the payoff points it reads, its scenario model and the
    draw fields it reads: it runs on each tile's view under that model
    (``_BlockData.at``), or on the tile itself if None. The worker's draw
    buffer holds the two levels, the fields the jobs read and, under
    sde_mixing at rho != 0 or with a scenario job, ``gI`` and ``gI_cross``,
    which the temperature level mixes and from which views rebuild it; every
    other field is None and is not drawn.

    Returns, per job, one estimate of the discounted values per sample count
    n in ``sizes`` (default and largest: ``cfg.n_samples``), over the first n
    draws; a block that n ends inside is also reduced over its prefix.

    The live test is worked out once, for every point the jobs read. If
    every leg is a ``Leg``, each tile runs on its live samples only
    (``_live_samples``): with a scenario job under sde_mixing, where some
    energy leg can be non-zero, a set that holds for every view; with bump
    points and no scenario job, where some term can be non-zero at a point.
    Passes of payoff_mixing scenarios or of the base point alone run every
    sample: on live samples the bench ran them 2-3 % slower (see ROADMAP).

    A block runs its jobs in groups of at most ``_GROUP_JOBS``, which bounds
    the value rows it holds, tile by tile (``tile_bounds``): each tile is
    evaluated once for the whole group (the payoff at each point its jobs
    read, rho-free weights and energy legs) and dropped. The first group
    draws and tests each tile just before it is evaluated; with more than
    one group the buffer holds the block and its live sets for the others.

    A group evaluates at most ``TILE_SIZE`` samples at once, each part on one
    ``_BlockData``: a tile without pairs is one part; an antithetic tile is
    its two halves, or one part of its live samples if at most ``TILE_SIZE``
    are live, else each half's live samples in turn. Every operation on a
    sample is elementwise, so the parts leave every bit. The cap keeps a
    part's 128 KiB temporaries inside glibc's dynamic heap thresholds (one
    part per antithetic tile ran the collar 1.42x slower). Each job writes
    its values, pair means when antithetic, into its own row, 0.0 for a
    sample that is not live: on a tile without pairs that runs every sample
    a job gets its slice of the row as ``out`` and returns it (fresh arrays
    slowed the sweep 3 %), or returns an array that is copied there. Each
    row reduces to its count, sum and sum of squared deviations from its own
    mean (two passes, no BLAS), merged in block-index order (Chan, Golub &
    LeVeque), so every estimate has the bits of a separate pass of n draws
    at any thread count and any BLAS thread count. ``seconds`` is the wall
    time of the whole pass. Nothing is drawn for an invalid input or no job.
    """
    sizes = [cfg.n_samples] if sizes is None else list(sizes)
    if not sizes or max(sizes) != cfg.n_samples:
        raise ValueError(f"the largest sample count must be cfg.n_samples = {cfg.n_samples}, "
                         f"got {sizes}")
    for n in sizes:
        replace(cfg, n_samples=n)  # SimConfig refuses an invalid count
    if type(threads) is not int or threads < 1:  # SimConfig's rule for counts
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    if not isinstance(tuning, TuningFunction):
        raise ValueError(f"tuning must be a TuningFunction, got {tuning!r}")
    _require_valid(model, payoff, tuning)
    for scenario in dict.fromkeys(job[3] for job in jobs if job[3] is not None):
        _require_valid(scenario, payoff)
    if not jobs:
        return []
    t0 = time.perf_counter()
    plan = _build_plan(model, tuning, cfg.euler_steps)
    draws_per_value = 2 if cfg.antithetic else 1
    drawn = {"fE_T", "fI_T", *(name for *_, reads in jobs for name in reads)}
    sde = model.correlation_mode is CorrelationMode.SDE_MIXING
    scenarios = any(job[3] is not None for job in jobs)
    if sde and (model.rho != 0.0 or scenarios):
        drawn |= {"gI", "gI_cross"}
    held = [f.name for f in fields(SampleDraw) if f.name in drawn]
    points = {p for _, _, job_points, *_ in jobs for p in job_points}
    test = None  # a _live_test, or None to run every sample
    if (all(isinstance(leg, Leg) for term in payoff.terms for leg in term)
            and (sde if scenarios else points != set(_BASE))):
        test = _live_test(model, payoff, points, energy_only=scenarios)
    whole_block = len(jobs) > _GROUP_JOBS  # later groups read the block's tiles back
    local = threading.local()  # each worker's buffers, reused for every block it runs

    def run_part(group: list[_Job], part: SampleDraw, live: np.ndarray | None, lo: int) -> None:
        """Write each job's values on ``part``, the block's samples from ``lo``, into its row:
        on ``live``, indices into ``part``, with 0.0 for every other sample, if given. The
        part's arrays die when it returns, before the next tile is drawn."""
        hi = lo + len(part.fE_T)
        data = _BlockData(part if live is None else _rows(part, live), plan, model, payoff)
        for row, (_, run, _, scenario, _) in zip(local.values, group):
            dst = row[lo // draws_per_value:hi // draws_per_value]
            view = data if scenario is None else data.at(scenario)
            values = run(view, None if cfg.antithetic or live is not None else dst)
            if live is not None:  # every other sample's value is 0.0
                whole = local.scratch[:hi - lo] if cfg.antithetic else dst
                whole[:] = 0.0
                whole[live] = values
                values = whole
            if cfg.antithetic:
                _pair_means(values, out=dst)
            elif values is not dst:
                dst[:] = values

    def run_block(block: int) -> list[dict[int, tuple[float, float, int]]]:
        if not hasattr(local, "draw"):
            # One allocation holds the drawn fields, the job value rows and a
            # scratch row, which also takes an antithetic tile's live values.
            # Once it is freed, glibc's dynamic thresholds keep the smaller tile
            # temporaries on the heap instead of returning them to the kernel
            # after each block.
            tile = min(TILE_SIZE * draws_per_value, cfg.n_samples)  # samples per tile
            width = min(BLOCK_SIZE, cfg.n_samples) if whole_block else tile
            n_draw, row = len(held) * width, min(BLOCK_SIZE, cfg.n_samples) // draws_per_value
            n_values = min(len(jobs), _GROUP_JOBS) * row
            buffer = np.empty(n_draw + n_values + max(row, tile))
            local.draw = SampleDraw(**{f.name: None for f in fields(SampleDraw)}
                                    | dict(zip(held, buffer[:n_draw].reshape(-1, width))))
            local.values = buffer[n_draw:n_draw + n_values].reshape(-1, row)
            local.scratch = buffer[n_draw + n_values:]
        start = block * BLOCK_SIZE
        ends = sorted({min(n - start, BLOCK_SIZE) for n in sizes if n > start})
        out: list[dict] = [{} for _ in jobs]
        gen = _block_generator(cfg.seed, block)
        bounds = tile_bounds(min(BLOCK_SIZE, cfg.n_samples - start), cfg.antithetic)
        lives = []  # each tile's live samples, kept for the later groups if there are any
        for first in range(0, len(jobs), _GROUP_JOBS):
            group = jobs[first:first + _GROUP_JOBS]
            for k, (lo, hi) in enumerate(bounds):
                tile = _rows(local.draw, slice(lo, hi) if whole_block else slice(hi - lo))
                if first == 0:  # the first group draws and tests the block's tiles in order
                    _draw_tile(plan, model, cfg, gen, tile)
                    lives.append(None if test is None else _live_samples(tile, test))
                live = lives[k] if whole_block else lives.pop()
                if hi - lo <= TILE_SIZE or (live is not None and len(live) <= TILE_SIZE):
                    run_part(group, tile, live, lo)
                    continue
                # an antithetic tile of more than TILE_SIZE samples, in its two halves
                cut = None if live is None else int(np.searchsorted(live, TILE_SIZE))
                run_part(group, _rows(tile, slice(TILE_SIZE)),
                         None if live is None else live[:cut], lo)
                run_part(group, _rows(tile, slice(TILE_SIZE, None)),
                         None if live is None else live[cut:] - TILE_SIZE, lo + TILE_SIZE)
            for moments, row in zip(out[first:], local.values[:len(group)]):
                for end in ends:
                    head = row[:end // draws_per_value]
                    total = float(head.sum())
                    dev = np.subtract(head, total / len(head), out=local.scratch[:len(head)])
                    np.multiply(dev, dev, out=dev)
                    moments[end] = (total, float(dev.sum()), len(head))
        return out

    blocks = range(block_count(cfg.n_samples))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # pulls in logging: not at import
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(run_block, blocks))
    else:
        partials = [run_block(b) for b in blocks]
    seconds = time.perf_counter() - t0

    discount = math.exp(-model.rate * model.horizon)
    estimates = []
    for j, (label, *_) in enumerate(jobs):
        per_size = []
        for n in sizes:
            total = m2 = 0.0
            count = 0
            for block in range(block_count(n)):
                s1, block_m2, c = partials[block][j][min(n - block * BLOCK_SIZE, BLOCK_SIZE)]
                if count:  # the spread between the two means
                    delta = s1 / c - total / count
                    m2 += delta * delta * count * c / (count + c)
                m2 += block_m2
                total += s1
                count += c
            mean = total / count
            var = m2 / (count - 1) if count > 1 else 0.0
            per_size.append(GreekEstimate(mean * discount, math.sqrt(var / count) * discount,
                                          n, label, seconds))
        estimates.append(per_size)
    return estimates


_PRICE_JOB: _Job = ("Price", lambda data, out: data.pay_base, _BASE, None, ())


def _variant_job(variant: WeightVariant, tuning: TuningFunction,
                 scenario: MarketModel | None = None) -> _Job:
    """Job for ``variant``; with ``scenario``, on each tile's view under that model."""
    def run(data: _BlockData, out: np.ndarray | None) -> np.ndarray:
        weight = weight_for(variant, data.draw, data.model, tuning, data.tables)
        return np.multiply(data.pay_base, weight, out=out)

    return variant.value, run, _BASE, scenario, WEIGHTS[variant].reads


def _require_greek(which: str) -> None:
    known = tuple(GREEKS)  # a tuple refuses an unhashable ``which`` as unknown, too
    if which not in known:
        raise ValueError(f"unknown sensitivity {which!r}; expected one of {known}")


@functools.cache
def _stencil(which: str, step: float = FD_BUMP) -> tuple[tuple[tuple[float, float], float], ...]:
    """Each (scale_E, scale_I) point of ``which``'s central difference with its sign, in order:
    each level it moves reads 1 + step, then 1 - step; a point's sign is their signs' product."""
    stencil = []
    for signs in itertools.product((1.0, -1.0), repeat=len(GREEKS[which])):
        scale = dict(zip(GREEKS[which], (1.0 + sign * step for sign in signs)))
        stencil.append(((scale.get("E", 1.0), scale.get("I", 1.0)), math.prod(signs)))
    return tuple(stencil)


def _central_difference(which: str, price_at: Callable, step: float, f0E: float, f0I: float):
    """``which``'s central difference in a relative ``step`` of f0E and f0I: the signed prices
    ``price_at(scale_E, scale_I)``, arrays or floats, at the ``_stencil`` points summed in order,
    over 2^k * step^k * (each moved level's f0), that product taken left to right."""
    (first, _), *rest = _stencil(which, step)
    total = price_at(*first)
    for point, sign in rest:
        total = total + price_at(*point) if sign > 0.0 else total - price_at(*point)
    moves, f0 = GREEKS[which], {"E": f0E, "I": f0I}
    return total / math.prod([2.0 ** len(moves), *[step] * len(moves), *map(f0.get, moves)])


def _fd_job(which: str) -> _Job:
    _require_greek(which)
    return (f"FD_{which}", lambda data, out: _central_difference(
        which, data.payoff_at, FD_BUMP, data.model.energy_f0, data.model.temperature_f0),
        tuple(point for point, _ in _stencil(which)), None, ())


def mc_price(model: MarketModel, payoff: PayoffSpec, tuning: TuningFunction, cfg: SimConfig,
             threads: int = 1, sizes: Sequence[int] | None = None) -> GreekEstimate | list:
    """Discounted Monte Carlo price with standard error.

    With ``sizes`` (sample counts, the largest ``cfg.n_samples``), returns one
    estimate per count n over the first n draws of this one pass; each equals
    a separate pass of n draws bit for bit.
    """
    [ests] = _mc_pass(model, payoff, tuning, cfg, [_PRICE_JOB], threads, sizes)
    return ests if sizes is not None else ests[0]


def mc_greek(model: MarketModel, payoff: PayoffSpec, tuning: TuningFunction,
             variant: WeightVariant, cfg: SimConfig, threads: int = 1,
             sizes: Sequence[int] | None = None,
             scenarios: Sequence[float] | None = None) -> GreekEstimate | list:
    """Weighted Monte Carlo Greek: mean of discounted payoff * weight.

    ``sizes`` works as in ``mc_price``. ``scenarios`` lists correlations at
    which to estimate ``variant`` on the same draws with the model's rho set
    to each; the result is then a list, the estimate at the model's rho
    first, and each scenario equals a separate pass at its rho bit for bit.
    """
    require_rho_supported(variant, model)
    jobs = [_variant_job(variant, tuning)]
    for rho in scenarios or ():
        scenario = replace(model, rho=float(rho))
        require_rho_supported(variant, scenario)
        jobs.append(_variant_job(variant, tuning, scenario))
    per_job = [ests if sizes is not None else ests[0]
               for ests in _mc_pass(model, payoff, tuning, cfg, jobs, threads, sizes)]
    return per_job if scenarios is not None else per_job[0]


def mc_estimates(model: MarketModel, payoff: PayoffSpec, tuning: TuningFunction,
                 variants: list[WeightVariant], cfg: SimConfig, threads: int = 1,
                 fd_greeks: Sequence[str] = ()) -> dict[str, GreekEstimate]:
    """Estimate several variants on one shared draw stream, keyed by variant value.

    The same pass also gives, for each sensitivity in ``fd_greeks``, the
    finite difference of ``fd_greek`` ("FD_dE", ...). Each estimate equals a
    separate ``mc_greek``/``fd_greek`` pass bit for bit.
    """
    for variant in variants:
        require_rho_supported(variant, model)  # before anything is drawn
    jobs = ([_variant_job(variant, tuning) for variant in dict.fromkeys(variants)]
            + [_fd_job(which) for which in dict.fromkeys(fd_greeks)])
    return {ests[0].variant: ests[0]
            for ests in _mc_pass(model, payoff, tuning, cfg, jobs, threads)}


def fd_greek(model: MarketModel, payoff: PayoffSpec, tuning: TuningFunction, which: str,
             cfg: SimConfig, threads: int = 1) -> GreekEstimate:
    """Central finite difference of the Monte Carlo price under common random numbers.

    Each initial level is bumped by ``FD_BUMP`` relative. The same draw
    stream feeds every bump scenario, so for payoffs linear in the bumped
    coordinate the difference equals price / f0 up to rounding. The cross
    sensitivity uses the symmetric four-point stencil. Digitals whittle the
    difference down to rare boundary crossings; expect a noisy estimate.
    """
    [[est]] = _mc_pass(model, payoff, tuning, cfg, [_fd_job(which)], threads)
    return est


# ---------------------------------------------------------------------------
# Deterministic quadrature oracle
# ---------------------------------------------------------------------------


_NODES = 64  # Gauss-Legendre nodes per outer panel
_HALFWIDTH = 10.0  # the panels cover this many standard deviations either side of 0


@functools.cache
def _legendre() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed on first use, not at import."""
    nodes, weights = np.polynomial.legendre.leggauss(_NODES)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

_COARSE_SPLITS = (-5.0, -2.5, 0.0, 2.5, 5.0)


def _with_coarse(points: list[float], halfwidth: float) -> list[float]:
    pts = {-halfwidth, halfwidth}
    pts.update(p for p in _COARSE_SPLITS if -halfwidth < p < halfwidth)
    pts.update(p for p in points if -halfwidth < p < halfwidth)
    return sorted(pts)


def quad_price(model: MarketModel, payoff: PayoffSpec) -> float:
    """Deterministic price: Gauss-Legendre over the energy driver of a closed-form inner mean.

    Given the energy driver z1, the payoff's temperature argument is a shifted
    lognormal variable (``KinkSolver.h_law``), so the payoff's mean over the
    temperature driver is a closed form (``conditional_mean``), smooth in z1
    even where the shift crosses a temperature strike. The outer coordinate
    is split at the energy-leg kinks, so each panel integrates a smooth
    function and 64 fixed nodes per panel converge far below 1e-8. Shares no
    code with the sampling path.

    The nodes are evaluated together as arrays, and their weighted terms are
    summed left to right. ``conditional_mean`` and ``KinkSolver`` apply
    libm's exp, log and erfc element by element, so the price has the bits
    of a node-by-node loop in scalar ``math``.
    """
    _require_valid(model, payoff)
    solver = KinkSolver(model)
    outer_pts: list[float] = []
    for level in energy_kink_levels(payoff):
        z = solver.energy_kink(level)
        if z is not None:
            outer_pts.append(z)
    nodes, weights = _legendre()
    splits = np.array(_with_coarse(outer_pts, _HALFWIDTH))
    half = 0.5 * (splits[1:] - splits[:-1])[:, None]
    z1 = (half * nodes + 0.5 * (splits[1:] + splits[:-1])[:, None]).ravel()
    w1 = (half * weights).ravel() * _norm_pdf(z1)

    fE = solver.energy_price(z1)
    terms = w1 * conditional_mean(payoff, fE, *solver.h_law(z1, fE))
    total = functools.reduce(operator.add, terms.tolist(), 0.0)  # left to right, node by node
    return total * math.exp(-model.rate * model.horizon)


def quad_greek(model: MarketModel, payoff: PayoffSpec, which: str) -> float:
    """Sensitivity of ``quad_price`` by central differences in the initial levels.

    It is the Monte Carlo bumps' stencil with a relative step of ``QUAD_STEP``. The
    price is deterministic and accurate to rounding, so this resolves the
    derivative to roughly 1e-6 relative accuracy.
    """
    _require_greek(which)
    _require_valid(model, payoff)  # report the model as given, not a bumped copy
    f0E, f0I = model.energy_f0, model.temperature_f0
    return _central_difference(
        which, lambda sE, sI: quad_price(replace(model, energy_f0=f0E * sE,
                                                 temperature_f0=f0I * sI), payoff),
        QUAD_STEP, f0E, f0I)


# ---------------------------------------------------------------------------
# Residual risk and convergence studies
# ---------------------------------------------------------------------------

def residual_risk(model: MarketModel, payoff: PayoffSpec, tuning: TuningFunction, which: str,
                  cfg: SimConfig, rho_grid: list[float],
                  threads: int = 1) -> list[dict[str, float]]:
    """Hedging error from ignoring correlation: |corr Greek - rho=0 Greek| per rho.

    Every row runs the one weight of ``which`` under the model's correlation
    mode (``mode_variant``). The rho = 0 baseline and every grid point are
    jobs on one pass over the draws, so the rho = 0 row vanishes exactly and
    each row equals a separate pass at its rho. Rows carry (rho, delta_corr,
    delta_ind, abs_diff, stderr) with stderr = hypot(se_corr, se_ind), exact
    only for independent estimates; both come from the same draws, and at
    n = 1e6 it read 1.0 to 4.9 times the error of the per-draw difference.
    """
    _require_greek(which)
    variant = mode_variant(which, model.correlation_mode)
    base, *ests = mc_greek(replace(model, rho=0.0), payoff, tuning, variant, cfg,
                           threads=threads, scenarios=rho_grid)
    return [{
        "rho": float(rho),
        "delta_corr": est.value,
        "delta_ind": base.value,
        "abs_diff": abs(est.value - base.value),
        "stderr": math.hypot(est.stderr, base.stderr),
    } for rho, est in zip(rho_grid, ests)]


def convergence_table(model: MarketModel, payoff: PayoffSpec, tuning: TuningFunction,
                      variant: WeightVariant | None, cfg: SimConfig, n_grid: Sequence[int],
                      threads: int = 1) -> list[dict[str, float]]:
    """Estimates along an increasing sample-size grid from one pass of ``cfg``.

    ``cfg.n_samples`` must be the largest count. The first n draws of the
    counter-based stream are those of a run of n, so each row reduces a
    prefix of the pass and equals a separate run of n draws bit for bit.
    """
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError(f"n_grid must be strictly increasing, got {list(n_grid)}")
    if variant is None:
        ests = mc_price(model, payoff, tuning, cfg, threads=threads, sizes=n_grid)
    else:
        ests = mc_greek(model, payoff, tuning, variant, cfg, threads=threads, sizes=n_grid)
    return [{"n": est.n, "value": est.value, "stderr": est.stderr} for est in ests]
