"""Price and Greek estimators: weighted Monte Carlo, CRN finite differences, deterministic quadrature.

The Monte Carlo engine evaluates all requested estimators on one shared draw
stream, block by block, reducing partial moments in fixed block order so the
result is bit-identical for any thread count. The quadrature oracle shares no
sampling code with the Monte Carlo path.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .model import CorrelationMode, MarketModel, TuningFunction
from .payoffs import KinkSolver, PayoffSpec, energy_kink_levels, evaluate, h_kink_levels
from .simulate import SimConfig, SimScheme, _build_plan, _check_config, _draw_block, block_count
from .weights import WeightVariant, weight_for

GREEKS = ("dE", "dI", "dEdI")


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


@dataclass(frozen=True)
class FdConfig:
    """Central finite differences with common random numbers across bumps."""

    bump: float = 1e-4  # relative bump on the initial futures level

    def __post_init__(self):
        if not 0.0 < self.bump < 1e-1:
            raise ValueError(f"relative bump must lie in (0, 0.1), got {self.bump}")


@dataclass(frozen=True)
class QuadConfig:
    nodes_per_panel: int = 64
    domain_halfwidth: float = 10.0  # integration half-width in standard deviations

    def __post_init__(self):
        if self.nodes_per_panel < 2:
            raise ValueError(f"need at least 2 nodes per panel, got {self.nodes_per_panel}")


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------


class _BlockData:
    """One block of draws with the derived quantities every job needs."""

    __slots__ = ("draw", "eE", "eI", "model", "payoff", "pay_base")

    def __init__(self, draw, model: MarketModel, payoff: PayoffSpec):
        self.draw = draw
        self.model = model
        self.payoff = payoff
        self.eE = draw.fE_T / model.energy.f0
        self.eI = draw.fI_T / model.temperature.f0
        self.pay_base = self.payoff_at(1.0, 1.0)

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


def _pair_means(values: np.ndarray) -> np.ndarray:
    return values.reshape(-1, 2).mean(axis=1)


def _mc_pass(model: MarketModel, payoff: PayoffSpec, tuning: TuningFunction,
             cfg: SimConfig, jobs: dict[str, _Job], threads: int = 1
             ) -> tuple[dict[str, tuple[float, float]], float]:
    """Run all jobs over the shared draw stream.

    Returns per-job (mean, stderr) of the discounted values plus the wall time.
    Partial moments are reduced in block-index order, so results do not depend
    on the thread count.
    """
    _check_config(cfg)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    t0 = time.perf_counter()
    plan = _build_plan(model, tuning, cfg.scheme)
    names = list(jobs)

    def run_block(block: int):
        data = _BlockData(_draw_block(plan, cfg, block), model, payoff)
        out = []
        for name in names:
            values = jobs[name](data)
            if cfg.antithetic:
                values = _pair_means(values)
            out.append((float(values.sum()), float(np.dot(values, values)), len(values)))
        return out

    blocks = range(block_count(cfg.n_samples))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(run_block, blocks))
    else:
        partials = [run_block(b) for b in blocks]

    discount = math.exp(-model.rate * model.horizon)
    results: dict[str, tuple[float, float]] = {}
    for j, name in enumerate(names):
        total = sq = 0.0
        count = 0
        for part in partials:
            s1, s2, c = part[j]
            total += s1
            sq += s2
            count += c
        mean = total / count
        var = max(sq - total * total / count, 0.0) / (count - 1) if count > 1 else 0.0
        results[name] = (mean * discount, math.sqrt(var / count) * discount)
    return results, time.perf_counter() - t0


def _price_job(data: _BlockData) -> np.ndarray:
    return data.pay_base


def _variant_job(variant: WeightVariant, tuning: TuningFunction,
                 allow_rho_mismatch: bool) -> _Job:
    def job(data: _BlockData) -> np.ndarray:
        weight, mult = weight_for(variant, data.draw, data.model, tuning,
                                  allow_rho_mismatch=allow_rho_mismatch)
        return data.pay_base * weight * mult

    return job


def _fd_job(which: str, bump: float) -> _Job:
    if which not in GREEKS:
        raise ValueError(f"unknown sensitivity {which!r}; expected one of {GREEKS}")

    def job(data: _BlockData) -> np.ndarray:
        f0E = data.model.energy.f0
        f0I = data.model.temperature.f0
        if which == "dE":
            up = data.payoff_at(1.0 + bump, 1.0)
            dn = data.payoff_at(1.0 - bump, 1.0)
            return (up - dn) / (2.0 * bump * f0E)
        if which == "dI":
            up = data.payoff_at(1.0, 1.0 + bump)
            dn = data.payoff_at(1.0, 1.0 - bump)
            return (up - dn) / (2.0 * bump * f0I)
        pp = data.payoff_at(1.0 + bump, 1.0 + bump)
        pm = data.payoff_at(1.0 + bump, 1.0 - bump)
        mp = data.payoff_at(1.0 - bump, 1.0 + bump)
        mm = data.payoff_at(1.0 - bump, 1.0 - bump)
        return (pp - pm - mp + mm) / (4.0 * bump * bump * f0E * f0I)

    return job


def mc_price(model: MarketModel, payoff: PayoffSpec, cfg: SimConfig,
             tuning: TuningFunction | None = None, threads: int = 1) -> GreekEstimate:
    """Discounted Monte Carlo price with standard error."""
    tuning = tuning or TuningFunction.uniform(model.horizon)
    results, secs = _mc_pass(model, payoff, tuning, cfg, {"price": _price_job}, threads)
    mean, se = results["price"]
    return GreekEstimate(mean, se, cfg.n_samples, "Price", secs)


def mc_greek(model: MarketModel, payoff: PayoffSpec, tuning: TuningFunction,
             variant: WeightVariant, cfg: SimConfig, threads: int = 1,
             allow_rho_mismatch: bool = False) -> GreekEstimate:
    """Weighted Monte Carlo Greek: mean of discounted payoff * weight * multiplier."""
    job = _variant_job(variant, tuning, allow_rho_mismatch)
    results, secs = _mc_pass(model, payoff, tuning, cfg, {variant.value: job}, threads)
    mean, se = results[variant.value]
    return GreekEstimate(mean, se, cfg.n_samples, variant.value, secs)


def mc_estimates(model: MarketModel, payoff: PayoffSpec, tuning: TuningFunction,
                 variants: list[WeightVariant], cfg: SimConfig, threads: int = 1,
                 include_price: bool = False, allow_rho_mismatch: bool = False
                 ) -> dict[str, GreekEstimate]:
    """Estimate several variants (and optionally the price) on one shared draw stream."""
    jobs: dict[str, _Job] = {}
    if include_price:
        jobs["Price"] = _price_job
    for variant in variants:
        jobs[variant.value] = _variant_job(variant, tuning, allow_rho_mismatch)
    results, secs = _mc_pass(model, payoff, tuning, cfg, jobs, threads)
    return {
        name: GreekEstimate(mean, se, cfg.n_samples, name, secs)
        for name, (mean, se) in results.items()
    }


def fd_greek(model: MarketModel, payoff: PayoffSpec, which: str, fd: FdConfig,
             cfg: SimConfig, tuning: TuningFunction | None = None,
             threads: int = 1) -> GreekEstimate:
    """Central finite difference of the Monte Carlo price under common random numbers.

    The same draw stream feeds every bump scenario, so for payoffs linear in
    the bumped coordinate the difference is exact for any bump size. The
    cross sensitivity uses the symmetric four-point stencil. Digitals whittle
    the difference down to rare boundary crossings; expect a noisy estimate.
    """
    tuning = tuning or TuningFunction.uniform(model.horizon)
    name = f"FD_{which}"
    results, secs = _mc_pass(model, payoff, tuning, cfg, {name: _fd_job(which, fd.bump)}, threads)
    mean, se = results[name]
    return GreekEstimate(mean, se, cfg.n_samples, name, secs)


# ---------------------------------------------------------------------------
# Deterministic quadrature oracle
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    return x, w


def _panel_nodes(splits: list[float], nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights over consecutive panels between splits."""
    xr, wr = _gauss_legendre(nodes)
    xs, ws = [], []
    for lo, hi in zip(splits, splits[1:]):
        half = 0.5 * (hi - lo)
        xs.append(half * xr + 0.5 * (hi + lo))
        ws.append(half * wr)
    return np.concatenate(xs), np.concatenate(ws)


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

_COARSE_SPLITS = (-5.0, -2.5, 0.0, 2.5, 5.0)


def _with_coarse(points: list[float], halfwidth: float) -> list[float]:
    pts = {-halfwidth, halfwidth}
    pts.update(p for p in _COARSE_SPLITS if -halfwidth < p < halfwidth)
    pts.update(p for p in points if -halfwidth < p < halfwidth)
    return sorted(pts)


def quad_price(model: MarketModel, payoff: PayoffSpec, q: QuadConfig = QuadConfig()) -> float:
    """Deterministic price: 2-D Gauss-Legendre against the bivariate standard normal.

    The outer coordinate drives the energy leg and is split at the energy-leg
    kinks (and, under payoff mixing with positive correlation, at the level
    where the strike crossing appears or disappears); the inner coordinate is
    split at the strike crossings returned by the kink geometry. Each panel
    then integrates a smooth function, so fixed-node panels converge far below
    1e-8. Shares no code with the sampling path.
    """
    solver = KinkSolver(model)
    L = q.domain_halfwidth
    h_levels = h_kink_levels(payoff)

    outer_pts: list[float] = []
    for level in energy_kink_levels(payoff):
        z = solver.energy_kink(level)
        if z is not None:
            outer_pts.append(z)
    if model.correlation_mode is CorrelationMode.PAYOFF_MIXING and model.rho > 0.0:
        for level in h_levels:
            z = solver.energy_kink(level / model.rho)
            if z is not None:
                outer_pts.append(z)
    z1, w1 = _panel_nodes(_with_coarse(outer_pts, L), q.nodes_per_panel)

    total = 0.0
    f0I = model.temperature.f0
    rho = model.rho
    for z1_k, w1_k in zip(z1, w1):
        fE = solver.energy_price(z1_k)
        z2, w2 = _panel_nodes(_with_coarse(solver.h_kinks(h_levels, z1_k), L), q.nodes_per_panel)
        if model.correlation_mode is CorrelationMode.SDE_MIXING:
            h_arg = f0I * np.exp(-0.5 * solver.vI + solver.m1 * z1_k + solver.s2 * z2)
        else:
            fI = f0I * np.exp(-0.5 * solver.vI + solver.sI * z2)
            h_arg = rho * fE + solver.sq1mr2 * fI
        inner = float(np.dot(evaluate(payoff, np.full_like(z2, fE), h_arg) * _norm_pdf(z2), w2))
        total += float(w1_k) * _norm_pdf(float(z1_k)) * inner
    return float(total * math.exp(-model.rate * model.horizon))


def quad_greek(model: MarketModel, payoff: PayoffSpec, which: str,
               q: QuadConfig = QuadConfig(), rel_step: float = 1e-5) -> float:
    """Sensitivity of ``quad_price`` by central differences in the initial levels.

    The integrand is deterministic, so a relative step of 1e-5 resolves the
    derivative to roughly 1e-6 relative accuracy.
    """
    if which not in GREEKS:
        raise ValueError(f"unknown sensitivity {which!r}; expected one of {GREEKS}")
    f0E = model.energy.f0
    f0I = model.temperature.f0
    hE = rel_step * f0E
    hI = rel_step * f0I
    if which == "dE":
        up = quad_price(model.with_f0(energy=f0E + hE), payoff, q)
        dn = quad_price(model.with_f0(energy=f0E - hE), payoff, q)
        return (up - dn) / (2.0 * hE)
    if which == "dI":
        up = quad_price(model.with_f0(temperature=f0I + hI), payoff, q)
        dn = quad_price(model.with_f0(temperature=f0I - hI), payoff, q)
        return (up - dn) / (2.0 * hI)
    pp = quad_price(model.with_f0(energy=f0E + hE, temperature=f0I + hI), payoff, q)
    pm = quad_price(model.with_f0(energy=f0E + hE, temperature=f0I - hI), payoff, q)
    mp = quad_price(model.with_f0(energy=f0E - hE, temperature=f0I + hI), payoff, q)
    mm = quad_price(model.with_f0(energy=f0E - hE, temperature=f0I - hI), payoff, q)
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

    Both estimates reuse the same seed, so the rho = 0 row vanishes exactly.
    Rows carry (rho, delta_corr, delta_ind, abs_diff, stderr) with stderr the
    combined standard error of the difference.
    """
    if which not in GREEKS:
        raise ValueError(f"unknown sensitivity {which!r}; expected one of {GREEKS}")
    for rho in rho_grid:
        if not abs(rho) < 1.0:
            raise ValueError(f"rho grid values must lie in (-1, 1), got {rho}")
    corr_variant = variant or _DEFAULT_CORR_VARIANT[which]
    base = mc_greek(replace(model, rho=0.0), payoff, tuning, _INDEP_VARIANT[which], cfg,
                    threads=threads)
    rows = []
    for rho in rho_grid:
        est = mc_greek(replace(model, rho=float(rho)), payoff, tuning, corr_variant, cfg,
                       threads=threads)
        rows.append({
            "rho": float(rho),
            "delta_corr": est.value,
            "delta_ind": base.value,
            "abs_diff": abs(est.value - base.value),
            "stderr": math.hypot(est.stderr, base.stderr),
        })
    return rows


def convergence_table(model: MarketModel, payoff: PayoffSpec, tuning: TuningFunction,
                      variant: WeightVariant | None, n_grid: list[int], seed: int,
                      antithetic: bool = False, scheme=None, threads: int = 1
                      ) -> list[dict[str, float]]:
    """Estimates along an increasing sample-size grid sharing one seed prefix.

    The counter-based stream makes the first n draws of a larger run identical
    to a smaller run, so rows differ only by how much of the stream they use.
    """
    if not n_grid:
        raise ValueError("n_grid must not be empty")
    sizes = [int(n) for n in n_grid]
    if any(n < 1 for n in sizes):
        raise ValueError(f"sample counts must be >= 1, got {sizes}")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"n_grid must be strictly increasing, got {sizes}")
    rows = []
    for n in sizes:
        cfg = SimConfig(n, seed, antithetic=antithetic, scheme=scheme or SimScheme.exact())
        if variant is None:
            est = mc_price(model, payoff, cfg, tuning, threads=threads)
        else:
            est = mc_greek(model, payoff, tuning, variant, cfg, threads=threads)
        rows.append({"n": n, "value": est.value, "stderr": est.stderr})
    return rows
