"""Price and Greek estimators: weighted Monte Carlo, CRN finite differences, deterministic quadrature.

The Monte Carlo engine evaluates all requested estimators on one shared draw
stream, block by block, reducing partial moments in fixed block order so the
result is bit-identical for any thread count. Correlation scenarios,
finite-difference bumps and sample-size prefixes are jobs on that one stream,
so each command draws once. The quadrature oracle shares no sampling code
with the Monte Carlo path: it integrates a closed-form mean over the
temperature driver against Gauss-Legendre nodes in the energy driver.
"""

from __future__ import annotations

import copy
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .model import CorrelationMode, MarketModel, TuningFunction, validate_model
from .payoffs import (KinkSolver, PayoffSpec, conditional_mean, energy_kink_levels, evaluate,
                      validate_payoff)
from .simulate import (
    BLOCK_SIZE,
    SampleDraw,
    SimConfig,
    SimScheme,
    _build_plan,
    _check_config,
    _draw_block,
    _Plan,
    _temperature_level,
    block_count,
)
from .weights import WeightVariant, weight_for

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
    """One block of draws with the derived quantities every job needs.

    ``pay_base`` is evaluated when a job first reads it, so a block whose
    jobs only bump the initial levels never computes it.
    """

    __slots__ = ("draw", "plan", "eE", "eI", "model", "payoff", "_pay_base")

    def __init__(self, draw: SampleDraw, plan: _Plan, model: MarketModel, payoff: PayoffSpec):
        self.draw = draw
        self.plan = plan
        self.model = model
        self.payoff = payoff
        self.eE = draw.fE_T / model.energy.f0
        self.eI = draw.fI_T / model.temperature.f0
        self._pay_base = None

    @property
    def pay_base(self) -> np.ndarray:
        if self._pay_base is None:
            self._pay_base = self.payoff_at(1.0, 1.0)
        return self._pay_base

    def at(self, model: MarketModel) -> "_BlockData":
        """This block under ``model``: the pass's model with another rho.

        Under sde_mixing the temperature level moves with rho and is rebuilt
        from the drawn accumulators; the view shares every other array.
        """
        view = copy.copy(self)
        view.model, view._pay_base = model, None
        if model.correlation_mode is CorrelationMode.SDE_MIXING:
            draw = self.draw
            view.draw = replace(draw, fI_T=_temperature_level(self.plan, model.rho, draw.gI,
                                                              draw.gI_cross))
            view.eI = view.draw.fI_T / model.temperature.f0
        return view

    def payoff_at(self, scale_E: float, scale_I: float) -> np.ndarray:
        """Payoff with the initial futures levels rescaled; draws stay fixed."""
        m = self.model
        fE = (m.energy.f0 * scale_E) * self.eE
        fI = (m.temperature.f0 * scale_I) * self.eI
        if m.correlation_mode is CorrelationMode.PAYOFF_MIXING:
            h_arg = m.rho * fE + math.sqrt(1.0 - m.rho * m.rho) * fI
        else:
            h_arg = fI
        return evaluate(self.payoff, fE, h_arg)


_Job = Callable[[_BlockData], np.ndarray]


def _require_valid(model: MarketModel, payoff: PayoffSpec,
                   tuning: TuningFunction | None = None) -> None:
    """The engine boundary: raise ValueError listing every model and payoff violation."""
    bad = validate_model(model, tuning) + validate_payoff(payoff)
    if bad:
        raise ValueError("; ".join(bad))


def _pair_means(values: np.ndarray) -> np.ndarray:
    # values.reshape(-1, 2).mean(axis=1) bit for bit, without its slow length-2
    # reduce: mean turns a -0.0 pair sum into +0.0, and so does "+ 0.0".
    return (values[0::2] + values[1::2] + 0.0) / 2


def _mc_pass(model: MarketModel, payoff: PayoffSpec, tuning: TuningFunction,
             cfg: SimConfig, jobs: list[tuple[str, _Job]], threads: int = 1,
             sizes: Sequence[int] | None = None) -> list[list[GreekEstimate]]:
    """Run all labelled jobs over one shared stream of ``cfg.n_samples`` draws.

    Returns, per job, one estimate of the discounted values per sample count
    n in ``sizes`` (default and largest: ``cfg.n_samples``), over the first n
    draws; a block that n ends inside is also reduced over its prefix.
    Partial moments are reduced in block-index order, so every estimate has
    the bits of a separate pass of n draws at any thread count. ``seconds``
    is the wall time of the whole pass. Nothing is drawn for an invalid input.
    """
    sizes = [cfg.n_samples] if sizes is None else [int(n) for n in sizes]
    if not sizes or max(sizes) != cfg.n_samples:
        raise ValueError(f"the largest sample count must be cfg.n_samples = {cfg.n_samples}, "
                         f"got {sizes}")
    for n in sizes:
        _check_config(replace(cfg, n_samples=n))
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    _require_valid(model, payoff, tuning)
    t0 = time.perf_counter()
    plan = _build_plan(model, tuning, cfg.scheme)
    draws_per_value = 2 if cfg.antithetic else 1

    def add_moments(out: list[dict], draw: SampleDraw, ends: list[int]) -> None:
        data = _BlockData(draw, plan, model, payoff)
        for moments, (_, job) in zip(out, jobs):
            values = job(data)
            if cfg.antithetic:
                values = _pair_means(values)
            for end in ends:
                head = values[:end // draws_per_value]
                moments[end] = (float(head.sum()), float(np.dot(head, head)), len(head))

    def run_block(block: int) -> list[dict[int, tuple[float, float, int]]]:
        start = block * BLOCK_SIZE
        count = min(BLOCK_SIZE, cfg.n_samples - start)
        ends = sorted({min(n - start, BLOCK_SIZE) for n in sizes if n > start})
        out: list[dict] = [{} for _ in jobs]
        # numpy multiplies a one-row draw by the loads with a dot product, not
        # gemv, so a one-row prefix is drawn on its own to keep its bits.
        if ends[0] == draws_per_value < count:
            lone = _draw_block(plan, replace(cfg, n_samples=start + ends.pop(0)), block)
            add_moments(out, lone, [draws_per_value])
        add_moments(out, _draw_block(plan, cfg, block), ends)
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
    for j, (label, _) in enumerate(jobs):
        per_size = []
        for n in sizes:
            total = sq = 0.0
            count = 0
            for block in range(block_count(n)):
                s1, s2, c = partials[block][j][min(n - block * BLOCK_SIZE, BLOCK_SIZE)]
                total += s1
                sq += s2
                count += c
            mean = total / count
            var = max(sq - total * total / count, 0.0) / (count - 1) if count > 1 else 0.0
            per_size.append(GreekEstimate(mean * discount, math.sqrt(var / count) * discount,
                                          n, label, seconds))
        estimates.append(per_size)
    return estimates


def _price_job(data: _BlockData) -> np.ndarray:
    return data.pay_base


def _variant_job(variant: WeightVariant, tuning: TuningFunction,
                 scenario: MarketModel | None = None) -> _Job:
    """Job for ``variant``; with ``scenario``, on each block's view under that model."""
    def job(data: _BlockData) -> np.ndarray:
        if scenario is not None:
            data = data.at(scenario)
        weight, mult = weight_for(variant, data.draw, data.model, tuning)
        return data.pay_base * weight * mult

    return job


def _fd_job(which: str) -> _Job:
    if which not in GREEKS:
        raise ValueError(f"unknown sensitivity {which!r}; expected one of {GREEKS}")

    def job(data: _BlockData) -> np.ndarray:
        f0E = data.model.energy.f0
        f0I = data.model.temperature.f0
        if which == "dE":
            up = data.payoff_at(1.0 + FD_BUMP, 1.0)
            dn = data.payoff_at(1.0 - FD_BUMP, 1.0)
            return (up - dn) / (2.0 * FD_BUMP * f0E)
        if which == "dI":
            up = data.payoff_at(1.0, 1.0 + FD_BUMP)
            dn = data.payoff_at(1.0, 1.0 - FD_BUMP)
            return (up - dn) / (2.0 * FD_BUMP * f0I)
        pp = data.payoff_at(1.0 + FD_BUMP, 1.0 + FD_BUMP)
        pm = data.payoff_at(1.0 + FD_BUMP, 1.0 - FD_BUMP)
        mp = data.payoff_at(1.0 - FD_BUMP, 1.0 + FD_BUMP)
        mm = data.payoff_at(1.0 - FD_BUMP, 1.0 - FD_BUMP)
        return (pp - pm - mp + mm) / (4.0 * FD_BUMP * FD_BUMP * f0E * f0I)

    return job


def mc_price(model: MarketModel, payoff: PayoffSpec, cfg: SimConfig,
             tuning: TuningFunction | None = None, threads: int = 1,
             sizes: Sequence[int] | None = None) -> GreekEstimate | list[GreekEstimate]:
    """Discounted Monte Carlo price with standard error.

    With ``sizes`` (sample counts, the largest ``cfg.n_samples``), returns one
    estimate per count n over the first n draws of this one pass; each equals
    a separate pass of n draws bit for bit.
    """
    tuning = tuning or TuningFunction.uniform(model.horizon)
    [ests] = _mc_pass(model, payoff, tuning, cfg, [("Price", _price_job)], threads, sizes)
    return ests if sizes is not None else ests[0]


def mc_greek(model: MarketModel, payoff: PayoffSpec, tuning: TuningFunction,
             variant: WeightVariant, cfg: SimConfig, threads: int = 1,
             sizes: Sequence[int] | None = None,
             scenarios: Sequence[tuple[float, WeightVariant]] | None = None
             ) -> GreekEstimate | list:
    """Weighted Monte Carlo Greek: mean of discounted payoff * weight * multiplier.

    ``sizes`` works as in ``mc_price``. ``scenarios`` lists (rho, variant)
    pairs to estimate on the same draws with the model's correlation set to
    rho; the result is then a list, the estimate of ``variant`` first, and
    each scenario equals a separate pass at its rho bit for bit.
    """
    jobs = [(variant.value, _variant_job(variant, tuning))]
    jobs += [(v.value, _variant_job(v, tuning, replace(model, rho=float(rho))))
             for rho, v in scenarios or ()]
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
    jobs = {variant.value: _variant_job(variant, tuning) for variant in variants}
    for which in fd_greeks:
        jobs[f"FD_{which}"] = _fd_job(which)
    return {ests[0].variant: ests[0]
            for ests in _mc_pass(model, payoff, tuning, cfg, list(jobs.items()), threads)}


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
    [[est]] = _mc_pass(model, payoff, tuning, cfg, [(f"FD_{which}", _fd_job(which))], threads)
    return est


# ---------------------------------------------------------------------------
# Deterministic quadrature oracle
# ---------------------------------------------------------------------------


_NODES = 64  # Gauss-Legendre nodes per outer panel
_HALFWIDTH = 10.0  # the panels cover this many standard deviations either side of 0


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
    """
    _require_valid(model, payoff)
    solver = KinkSolver(model)
    outer_pts: list[float] = []
    for level in energy_kink_levels(payoff):
        z = solver.energy_kink(level)
        if z is not None:
            outer_pts.append(z)
    nodes, weights = np.polynomial.legendre.leggauss(_NODES)
    splits = np.array(_with_coarse(outer_pts, _HALFWIDTH))
    half = 0.5 * (splits[1:] - splits[:-1])[:, None]
    z1 = (half * nodes + 0.5 * (splits[1:] + splits[:-1])[:, None]).ravel()
    w1 = (half * weights).ravel() * _norm_pdf(z1)

    total = 0.0
    for z, w in zip(z1.tolist(), w1.tolist()):
        fE = solver.energy_price(z)
        total += w * conditional_mean(payoff, fE, *solver.h_law(z, fE))
    return total * math.exp(-model.rate * model.horizon)


def quad_greek(model: MarketModel, payoff: PayoffSpec, which: str) -> float:
    """Sensitivity of ``quad_price`` by central differences in the initial levels.

    The step is 1e-5 of each initial level. The price is deterministic and
    accurate to rounding, so this resolves the derivative to roughly 1e-6
    relative accuracy.
    """
    if which not in GREEKS:
        raise ValueError(f"unknown sensitivity {which!r}; expected one of {GREEKS}")
    _require_valid(model, payoff)  # report the model as given, not a bumped copy
    f0E = model.energy.f0
    f0I = model.temperature.f0
    hE = 1e-5 * f0E
    hI = 1e-5 * f0I
    if which == "dE":
        up = quad_price(model.with_f0(energy=f0E + hE), payoff)
        dn = quad_price(model.with_f0(energy=f0E - hE), payoff)
        return (up - dn) / (2.0 * hE)
    if which == "dI":
        up = quad_price(model.with_f0(temperature=f0I + hI), payoff)
        dn = quad_price(model.with_f0(temperature=f0I - hI), payoff)
        return (up - dn) / (2.0 * hI)
    pp = quad_price(model.with_f0(energy=f0E + hE, temperature=f0I + hI), payoff)
    pm = quad_price(model.with_f0(energy=f0E + hE, temperature=f0I - hI), payoff)
    mp = quad_price(model.with_f0(energy=f0E - hE, temperature=f0I + hI), payoff)
    mm = quad_price(model.with_f0(energy=f0E - hE, temperature=f0I - hI), payoff)
    return (pp - pm - mp + mm) / (4.0 * hE * hI)


# ---------------------------------------------------------------------------
# Residual risk and convergence studies
# ---------------------------------------------------------------------------

_DEFAULT_CORR_VARIANT = {
    "dE": WeightVariant.CORR_DELTA_E_CONDITIONAL,
    "dI": WeightVariant.CORR_DELTA_I,
    "dEdI": WeightVariant.CORR_CROSS_GAMMA_CONDITIONAL,
}

_INDEP_VARIANT = {
    "dE": WeightVariant.INDEP_DELTA_E,
    "dI": WeightVariant.INDEP_DELTA_I,
    "dEdI": WeightVariant.INDEP_CROSS_GAMMA,
}


def residual_risk(model: MarketModel, payoff: PayoffSpec, tuning: TuningFunction,
                  rho_grid: list[float], cfg: SimConfig,
                  variant: WeightVariant | None = None, which: str = "dE",
                  threads: int = 1) -> list[dict[str, float]]:
    """Hedging error from ignoring correlation: |corr Greek - rho=0 Greek| per rho.

    The rho = 0 baseline and every grid point are jobs on one pass over the
    draws, so the rho = 0 row vanishes exactly and each row equals a separate
    pass at its rho. Rows carry (rho, delta_corr, delta_ind, abs_diff, stderr)
    with stderr the combined standard error of the difference.
    """
    if which not in GREEKS:
        raise ValueError(f"unknown sensitivity {which!r}; expected one of {GREEKS}")
    for rho in rho_grid:
        if not abs(rho) < 1.0:
            raise ValueError(f"rho grid values must lie in (-1, 1), got {rho}")
    corr_variant = variant or _DEFAULT_CORR_VARIANT[which]
    base, *ests = mc_greek(replace(model, rho=0.0), payoff, tuning, _INDEP_VARIANT[which], cfg,
                           threads=threads, scenarios=[(rho, corr_variant) for rho in rho_grid])
    return [{
        "rho": float(rho),
        "delta_corr": est.value,
        "delta_ind": base.value,
        "abs_diff": abs(est.value - base.value),
        "stderr": math.hypot(est.stderr, base.stderr),
    } for rho, est in zip(rho_grid, ests)]


def convergence_table(model: MarketModel, payoff: PayoffSpec, tuning: TuningFunction,
                      variant: WeightVariant | None, n_grid: list[int], seed: int,
                      antithetic: bool = False, scheme=None, threads: int = 1
                      ) -> list[dict[str, float]]:
    """Estimates along an increasing sample-size grid from one pass to max(n_grid).

    The counter-based stream makes the first n draws of a larger run identical
    to a smaller run, so each row reduces a prefix of that pass and equals a
    separate run of n draws bit for bit.
    """
    if not n_grid:
        raise ValueError("n_grid must not be empty")
    sizes = [int(n) for n in n_grid]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"n_grid must be strictly increasing, got {sizes}")
    cfg = SimConfig(sizes[-1], seed, antithetic=antithetic, scheme=scheme or SimScheme.exact())
    if variant is None:
        ests = mc_price(model, payoff, cfg, tuning, threads=threads, sizes=sizes)
    else:
        ests = mc_greek(model, payoff, tuning, variant, cfg, threads=threads, sizes=sizes)
    return [{"n": est.n, "value": est.value, "stderr": est.stderr} for est in ests]
