"""Price and Greek estimators: weighted Monte Carlo, CRN finite differences, deterministic quadrature.

The Monte Carlo engine evaluates all requested estimators on one shared draw
stream, block by block, reducing partial moments in fixed block order so the
result is bit-identical for any thread count. Each worker draws the fields
its jobs read of a block into buffers it reuses for the whole pass and runs
the block's jobs tile by tile, up to eight jobs together, each writing its own
row of values. Correlation scenarios, finite-difference bumps and sample-size
prefixes are jobs on that one stream, so each command draws once; the bumped
payoffs of a tile are one grid, evaluated once for all of its finite
differences, and each term's energy leg is evaluated once per tile for all of
its correlation scenarios. A group of bump jobs runs each tile on its live
samples only, those where some payoff term can be non-zero at a point of the
grid; a group of sde_mixing scenarios on those where some energy leg can be
non-zero, a set no scenario moves. Every other sample's value is 0.0. Groups
of payoff_mixing scenarios or of the base point alone run every sample. The
quadrature oracle shares no sampling code with the Monte Carlo path:
it integrates a closed-form mean over the temperature driver against
Gauss-Legendre nodes in the energy driver.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
import time
from concurrent.futures import ThreadPoolExecutor
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
    _build_plan,
    _check_config,
    _draw_block,
    _Plan,
    _rows,
    _temperature_level,
    block_count,
    tile_bounds,
)
from .weights import (WEIGHTS, WeightVariant, greek_of, mode_variant, require_rho_supported,
                      weight_for)

GREEKS = ("dE", "dI", "dEdI")
FD_BUMP = 1e-4  # relative bump on the initial futures level of every finite difference


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
    """One tile of a block's draws with the derived quantities every job needs.

    ``layout`` (a ``_grid_layout``) holds the (scale_E, scale_I) rescalings
    of the initial levels whose payoffs the tile's jobs read: (1, 1) for
    ``pay_base`` and the finite-difference bumps. They are evaluated together
    on the first read, so a tile whose jobs only bump the initial levels
    never computes the base.

    The tile keeps ``weight_for``'s pair of tables: each Wiener-integral kernel
    and rho-free weight is built at most once per tile and rho. Scenario views
    (``at``) share the draw, the rho-free table, unbumped levels and energy legs;
    the table of arrays that read rho starts empty in each view and dies with it.
    """

    __slots__ = ("draw", "plan", "eE", "eI", "model", "payoff", "_layout", "_payoffs",
                 "_kernels", "_levels", "_energy")

    def __init__(self, draw: SampleDraw, plan: _Plan, model: MarketModel, payoff: PayoffSpec,
                 layout: tuple):
        self.draw = draw
        self.plan = plan
        self.model = model
        self.payoff = payoff
        self._layout = layout
        self.eE = draw.fE_T / model.energy.f0
        self.eI = draw.fI_T / model.temperature.f0
        self._payoffs: dict[tuple[float, float], np.ndarray] | None = None
        self._kernels: tuple[dict, dict] = ({}, {})  # weight_for's (rho-free, this rho's) arrays
        self._levels: dict[str, np.ndarray] = {}  # rho-free unbumped levels by leg
        self._energy: dict[float, list] = {}  # each term's energy leg by energy scale

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
        view.eE, view.eI, view._layout, view._payoffs = self.eE, self.eI, self._layout, None
        view._levels, view._energy = self._levels, self._energy
        view._kernels = (self._kernels[0], {})
        if model.correlation_mode is CorrelationMode.SDE_MIXING:
            view.eI = _temperature_level(self.plan, model.rho, self.draw.gI, self.draw.gI_cross)
            view.eI /= model.temperature.f0
        return view

    def payoff_at(self, scale_E: float, scale_I: float) -> np.ndarray:
        """Payoff with the initial levels rescaled to a point of the layout; draws stay fixed."""
        if self._payoffs is None:
            self._payoffs = self._payoff_grid()
        return self._payoffs[scale_E, scale_I]

    def _level(self, leg: str, scale: float | np.ndarray) -> np.ndarray:
        """(f0 * scale) * e of ``leg``, kept for views if it reads no rho on a base-only tile."""
        m = self.model
        f0, unit = (m.energy.f0, self.eE) if leg == "E" else (m.temperature.f0, self.eI)
        if self._layout[1] != _BASE_ROWS or (leg == "I" and
                                             m.correlation_mode is CorrelationMode.SDE_MIXING):
            return (f0 * scale) * unit
        if leg not in self._levels:
            self._levels[leg] = (f0 * scale) * unit
        return self._levels[leg]

    def _payoff_grid(self) -> dict[tuple[float, float], np.ndarray]:
        """The payoff at every point: one ``evaluate`` per energy scale, over its temperature rows.

        Each entry has the bits of evaluating that point alone: the broadcasts
        repeat the same elementwise operations in the same order. The energy
        level reads no rho in either mode, so each scale's energy legs are
        evaluated once per tile, for the tile and all of its views.
        """
        m = self.model
        scales_I, by_energy = self._layout
        # at rho = 0, of either sign, the mix is fI exactly: 1.0 * fI is fI, and a zero
        # plus a level is the level, none being -0.0
        mixing = m.correlation_mode is CorrelationMode.PAYOFF_MIXING and m.rho != 0.0
        fI = self._level("I", scales_I)
        if mixing:
            fI = math.sqrt(1.0 - m.rho * m.rho) * fI
        grid = {}
        for scale_E, rows, keys in by_energy:
            fE = self._level("E", scale_E)
            h_arg = fI[rows]
            if mixing:
                h_arg = m.rho * fE + h_arg
            pay = evaluate(self.payoff, fE, h_arg, _energy=self._energy.setdefault(scale_E, []))
            grid.update(zip(keys, pay.reshape(len(keys), -1)))
        return grid


def _grid_layout(points: set[tuple[float, float]]) -> tuple[float | np.ndarray, list]:
    """How ``_BlockData`` evaluates the payoff at ``points``, worked out once per pass.

    Returns the temperature scales, a column (a float if there is one), and
    per energy scale the index of the temperature rows it is evaluated over
    with the points those rows give. A single row is an int index, so its
    arrays stay 1-D.
    """
    scales_I = sorted({scale_I for _, scale_I in points})
    by_energy = []
    for scale_E in sorted({scale_E for scale_E, _ in points}):
        rows = [k for k, scale_I in enumerate(scales_I) if (scale_E, scale_I) in points]
        index = (slice(None) if len(rows) == len(scales_I) else rows[0] if len(rows) == 1
                 else rows)
        by_energy.append((scale_E, index, [(scale_E, scales_I[k]) for k in rows]))
    return scales_I[0] if len(scales_I) == 1 else np.array(scales_I)[:, None], by_energy


def _live_samples(data: _BlockData, energy_only: bool) -> np.ndarray:
    """Indices of the tile's samples where some payoff term can be non-zero at a layout point.

    Each level is monotone in its scale, rounding included, so the levels at the extreme
    scales bound every point's; under payoff_mixing at rho < 0 the mix's energy corners swap.
    With ``energy_only`` the energy legs alone decide. The energy level reads no rho in
    either mode, so that set holds for every correlation-scenario view of the tile.
    """
    m = data.model
    scales_I, by_energy = data._layout
    fE = [data._level("E", by_energy[k][0]) for k in (0, -1)]
    live = [g.live(*fE) for g, _ in data.payoff.terms]
    if not energy_only:
        fI = [data._level("I", scale) for scale in (np.min(scales_I), np.max(scales_I))]
        if m.correlation_mode is CorrelationMode.PAYOFF_MIXING and m.rho != 0.0:
            mix = math.sqrt(1.0 - m.rho * m.rho)
            fI = [m.rho * e + mix * i for e, i in zip(fE if m.rho > 0.0 else fE[::-1], fI)]
        live = [e & h.live(*fI) for e, (_, h) in zip(live, data.payoff.terms)]
    return np.flatnonzero(functools.reduce(operator.or_, live))


_BASE = ((1.0, 1.0),)  # the point of ``pay_base``
_BASE_ROWS = _grid_layout(set(_BASE))[1]  # the energy rows of the base point alone
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

    A block runs its jobs in groups of at most ``_GROUP_JOBS``, tile by tile:
    each tile is evaluated once for the whole group (its payoffs at every
    point the group reads, its rho-free weights and energy legs) and
    dropped. If every leg is a ``Leg``, a group runs each tile on its live
    samples only (``_live_samples``): with a scenario job under sde_mixing,
    where some energy leg can be non-zero, a set that holds for every view;
    with bump points and no scenario job, where some term can be non-zero at
    a point. Groups of payoff_mixing scenarios or of the base point alone run
    every sample: one payoff and one multiply per sample do not pay for the
    gathers and scatters. Each job writes its values, pair means when
    antithetic, into its own row, 0.0 for a sample that is not live: on a
    whole tile without pairs a job gets its slice of the row as ``out`` and
    returns it, or returns an array that is copied there. Each row then
    reduces to its count, sum and sum of squared deviations from its own mean
    (two passes, no BLAS). These are merged in block-index order (Chan, Golub &
    LeVeque), so every estimate has the bits of a separate pass of n draws
    at any thread count and any BLAS thread count. ``seconds`` is the wall
    time of the whole pass. Nothing is drawn for an invalid input or for no job.
    """
    sizes = [cfg.n_samples] if sizes is None else list(sizes)
    if not sizes or max(sizes) != cfg.n_samples:
        raise ValueError(f"the largest sample count must be cfg.n_samples = {cfg.n_samples}, "
                         f"got {sizes}")
    for n in sizes:
        _check_config(replace(cfg, n_samples=n))
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    _require_valid(model, payoff, tuning)
    for scenario in dict.fromkeys(job[3] for job in jobs if job[3] is not None):
        _require_valid(scenario, payoff)
    if not jobs:
        return []
    t0 = time.perf_counter()
    plan = _build_plan(model, tuning, cfg.scheme)
    draws_per_value = 2 if cfg.antithetic else 1
    drawn = {"fE_T", "fI_T", *(name for *_, reads in jobs for name in reads)}
    sde = model.correlation_mode is CorrelationMode.SDE_MIXING
    if sde and (model.rho != 0.0 or any(job[3] is not None for job in jobs)):
        drawn |= {"gI", "gI_cross"}
    held = [f.name for f in fields(SampleDraw) if f.name in drawn]
    legs = all(isinstance(leg, Leg) for term in payoff.terms for leg in term)
    groups = []
    for first in range(0, len(jobs), _GROUP_JOBS):
        group = jobs[first:first + _GROUP_JOBS]
        points = {p for _, _, job_points, *_ in group for p in job_points}
        scenarios = any(job[3] is not None for job in group)
        energy_only = None  # _live_samples's argument, or None to run every sample
        if legs and scenarios and sde:
            energy_only = True
        elif legs and not scenarios and points != set(_BASE):
            energy_only = False
        groups.append((first, group, _grid_layout(points), energy_only))

    local = threading.local()  # each worker's block buffers, reused for every block it runs

    def run_block(block: int) -> list[dict[int, tuple[float, float, int]]]:
        if not hasattr(local, "draw"):
            # One allocation holds the drawn fields, the job value rows and a
            # scratch row, which also takes an antithetic tile's live values.
            # Once it is freed, glibc's dynamic thresholds keep the smaller tile
            # temporaries on the heap instead of returning them to the kernel
            # after each block.
            width = min(BLOCK_SIZE, cfg.n_samples)
            n_draw, row = len(held) * width, width // draws_per_value
            n_values = min(len(jobs), _GROUP_JOBS) * row
            buffer = np.empty(n_draw + n_values + max(row, min(TILE_SIZE, width)))
            local.draw = SampleDraw(**{f.name: None for f in fields(SampleDraw)}
                                    | dict(zip(held, buffer[:n_draw].reshape(-1, width))))
            local.values = buffer[n_draw:n_draw + n_values].reshape(-1, row)
            local.scratch = buffer[n_draw + n_values:]
        start = block * BLOCK_SIZE
        ends = sorted({min(n - start, BLOCK_SIZE) for n in sizes if n > start})
        out: list[dict] = [{} for _ in jobs]
        draw = _draw_block(plan, cfg, block, local.draw)
        bounds = tile_bounds(len(draw.fE_T))
        for first, group, layout, energy_only in groups:
            for lo, hi in bounds:
                data = _BlockData(_rows(draw, slice(lo, hi)), plan, model, payoff, layout)
                live = None if energy_only is None else _live_samples(data, energy_only)
                if live is not None:
                    data = _BlockData(_rows(data.draw, live), plan, model, payoff, layout)
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
        weight = weight_for(variant, data.draw, data.model, tuning, data._kernels)
        return np.multiply(data.pay_base, weight, out=out)

    return variant.value, run, _BASE, scenario, WEIGHTS[variant].reads


def _require_greek(which: str) -> None:
    if which not in GREEKS:
        raise ValueError(f"unknown sensitivity {which!r}; expected one of {GREEKS}")


def _bump_points(which: str, step: float = FD_BUMP) -> tuple[tuple[float, float], ...]:
    """The (scale_E, scale_I) points where the relative ``step`` stencil of ``which`` reads."""
    up, dn = 1.0 + step, 1.0 - step
    return {"dE": ((up, 1.0), (dn, 1.0)),
            "dI": ((1.0, up), (1.0, dn)),
            "dEdI": ((up, up), (up, dn), (dn, up), (dn, dn))}[which]


def _central_difference(which: str, price_at: Callable, step: float, f0E: float, f0I: float):
    """Central difference in a relative ``step`` of both initial levels f0E and f0I.

    ``price_at(scale_E, scale_I)`` is the price, an array or a float, with both levels
    rescaled; it is read at the ``_bump_points`` in their order.
    """
    prices = [price_at(*point) for point in _bump_points(which, step)]
    if which == "dEdI":
        pp, pm, mp, mm = prices
        return (pp - pm - mp + mm) / (4.0 * step * step * f0E * f0I)
    up, dn = prices
    return (up - dn) / (2.0 * step * (f0E if which == "dE" else f0I))


def _fd_job(which: str) -> _Job:
    _require_greek(which)
    return (f"FD_{which}", lambda data, out: _central_difference(
        which, data.payoff_at, FD_BUMP, data.model.energy.f0, data.model.temperature.f0),
        _bump_points(which), None, ())


def mc_price(model: MarketModel, payoff: PayoffSpec, cfg: SimConfig,
             tuning: TuningFunction | None = None, threads: int = 1,
             sizes: Sequence[int] | None = None) -> GreekEstimate | list[GreekEstimate]:
    """Discounted Monte Carlo price with standard error.

    With ``sizes`` (sample counts, the largest ``cfg.n_samples``), returns one
    estimate per count n over the first n draws of this one pass; each equals
    a separate pass of n draws bit for bit.
    """
    tuning = tuning or TuningFunction.uniform(model.horizon)
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


def fd_greek(model: MarketModel, payoff: PayoffSpec, which: str, cfg: SimConfig,
             tuning: TuningFunction | None = None, threads: int = 1) -> GreekEstimate:
    """Central finite difference of the Monte Carlo price under common random numbers.

    Each initial level is bumped by ``FD_BUMP`` relative. The same draw
    stream feeds every bump scenario, so for payoffs linear in the bumped
    coordinate the difference equals price / f0 up to rounding. The cross
    sensitivity uses the symmetric four-point stencil. Digitals whittle the
    difference down to rare boundary crossings; expect a noisy estimate.
    """
    tuning = tuning or TuningFunction.uniform(model.horizon)
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

    It is the Monte Carlo bumps' stencil with a relative step of 1e-5. The
    price is deterministic and accurate to rounding, so this resolves the
    derivative to roughly 1e-6 relative accuracy.
    """
    _require_greek(which)
    _require_valid(model, payoff)  # report the model as given, not a bumped copy
    f0E, f0I = model.energy.f0, model.temperature.f0
    return _central_difference(
        which, lambda sE, sI: quad_price(model.with_f0(f0E * sE, f0I * sI), payoff),
        1e-5, f0E, f0I)


# ---------------------------------------------------------------------------
# Residual risk and convergence studies
# ---------------------------------------------------------------------------

def _sweep_variant(which: str, variant: WeightVariant | None, model: MarketModel) -> WeightVariant:
    """The variant a sweep of ``which`` runs: ``variant`` or the weight of ``model``'s mode.

    A variant of another Greek is refused: its rows would subtract one Greek
    from another.
    """
    _require_greek(which)
    if variant is None:
        return mode_variant(which, model.correlation_mode)
    if greek_of(variant) != which:
        raise ValueError(f"{variant.value} estimates {greek_of(variant)}, not {which}")
    return variant


def residual_risk(model: MarketModel, payoff: PayoffSpec, tuning: TuningFunction,
                  rho_grid: list[float], cfg: SimConfig,
                  variant: WeightVariant | None = None, which: str = "dE",
                  threads: int = 1) -> list[dict[str, float]]:
    """Hedging error from ignoring correlation: |corr Greek - rho=0 Greek| per rho.

    Every row runs ``variant``, by default the weight of the model's mode. The
    rho = 0 baseline and every grid point are jobs on one pass over the draws,
    so the rho = 0 row vanishes exactly and each row equals a separate pass at
    its rho. Rows carry (rho, delta_corr, delta_ind, abs_diff, stderr) with
    stderr the combined standard error of the difference.
    """
    variant = _sweep_variant(which, variant, model)
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
        ests = mc_price(model, payoff, cfg, tuning, threads=threads, sizes=n_grid)
    else:
        ests = mc_greek(model, payoff, tuning, variant, cfg, threads=threads, sizes=n_grid)
    return [{"n": est.n, "value": est.value, "stderr": est.stderr} for est in ests]
