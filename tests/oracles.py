"""Reference values for the tests.

The closed forms for the independent-legs lognormal model (zero rate) are
independent of the package's estimation code: product payoffs over independent
legs factor into one-dimensional integrals with textbook solutions.
``reference_quad_price`` is a 2-D Gauss-Legendre price, summed node by node,
that integrates the temperature driver numerically between its strike
crossings; the package's ``quad_price`` replaces that inner integral with a
closed form and must agree with it to rounding. ``scalar_quad_price`` is
the package's quadrature evaluated one node at a time in scalar ``math``,
the reference for its array form. ``untiled_block`` draws a
sample block in one piece, the reference for the tiled draw, and
``per_point_payoff`` evaluates one rescaled payoff at a time, the reference
for the engine's payoff grid.
"""

import math
from functools import lru_cache, reduce

import numpy as np
from scipy.stats import norm

from quantogreeks.estimators import (_HALFWIDTH, _NODES, _central_difference, _norm_pdf,
                                     _with_coarse)
from quantogreeks.model import CorrelationMode
from quantogreeks.payoffs import (DigitalProduct, FourStrikeCollar, KinkSolver, ProductCall,
                                  Separable, energy_kink_levels, evaluate)
from quantogreeks.simulate import BLOCK_SIZE, SampleDraw, _block_generator, _build_plan


def _d1(f0, k, sigma, t):
    sd = sigma * np.sqrt(t)
    return (np.log(f0 / k) + 0.5 * sd * sd) / sd


def black_call(f0, k, sigma, t):
    """Undiscounted futures call E[(F_T - k)+] for lognormal F."""
    d1 = _d1(f0, k, sigma, t)
    d2 = d1 - sigma * np.sqrt(t)
    return f0 * norm.cdf(d1) - k * norm.cdf(d2)


def black_call_delta(f0, k, sigma, t):
    return norm.cdf(_d1(f0, k, sigma, t))


def digital_prob(f0, k, sigma, t):
    """P(F_T > k)."""
    d2 = _d1(f0, k, sigma, t) - sigma * np.sqrt(t)
    return norm.cdf(d2)


def digital_delta(f0, k, sigma, t):
    """d/df0 P(F_T > k) = pdf(d2) / (f0 sigma sqrt(t))."""
    d2 = _d1(f0, k, sigma, t) - sigma * np.sqrt(t)
    return norm.pdf(d2) / (f0 * sigma * np.sqrt(t))


def product_call_price(f0E, kE, sE, f0I, kI, sI, t):
    """Independent legs factor: E[(FE-kE)+] * E[(FI-kI)+]."""
    return black_call(f0E, kE, sE, t) * black_call(f0I, kI, sI, t)


def product_call_delta_E(f0E, kE, sE, f0I, kI, sI, t):
    return black_call_delta(f0E, kE, sE, t) * black_call(f0I, kI, sI, t)


def product_call_cross_gamma(f0E, kE, sE, f0I, kI, sI, t):
    return black_call_delta(f0E, kE, sE, t) * black_call_delta(f0I, kI, sI, t)


def digital_product_price(f0E, kE, sE, f0I, kI, sI, t):
    return digital_prob(f0E, kE, sE, t) * digital_prob(f0I, kI, sI, t)


def digital_product_delta_E(f0E, kE, sE, f0I, kI, sI, t):
    return digital_delta(f0E, kE, sE, t) * digital_prob(f0I, kI, sI, t)


@lru_cache(maxsize=None)
def _gauss_legendre(nodes):
    return np.polynomial.legendre.leggauss(nodes)


def _panel_nodes(splits, nodes):
    """Gauss-Legendre nodes/weights over consecutive panels between splits."""
    xr, wr = _gauss_legendre(nodes)
    xs, ws = [], []
    for lo, hi in zip(splits, splits[1:]):
        half = 0.5 * (hi - lo)
        xs.append(half * xr + 0.5 * (hi + lo))
        ws.append(half * wr)
    return np.concatenate(xs), np.concatenate(ws)


def h_kink_levels(p):
    """Effective-temperature levels where the payoff's second leg is non-smooth."""
    if isinstance(p, (ProductCall, DigitalProduct)):
        return (p.kI,)
    if isinstance(p, FourStrikeCollar):
        return (p.kI_low, p.kI_high)
    return p.h.xs


def _h_kinks(solver, levels, z1):
    """Sorted z2 at which the payoff's temperature argument crosses each level, given z1."""
    model = solver.model
    out = []
    if model.correlation_mode is CorrelationMode.SDE_MIXING:
        for level in levels:
            if level > 0.0:
                out.append((math.log(level / model.temperature.f0) + 0.5 * solver.vI
                            - solver.m1 * z1) / solver.s2)
    else:
        fE = solver.energy_price(z1)
        for level in levels:
            resid = level - model.rho * fE
            # The mixed argument spans (rho*fE, inf), so a crossing exists
            # only when the strike sits above rho*fE.
            if resid > 0.0:
                target = resid / solver.sq1mr2
                out.append((math.log(target / model.temperature.f0) + 0.5 * solver.vI)
                           / solver.sI)
    return sorted(out)


def reference_quad_price(model, payoff, nodes=64, halfwidth=10.0):
    """2-D Gauss-Legendre price with one inner integral per outer node.

    Both coordinates are split into panels at the payoff's kinks, with
    ``nodes`` per panel over [-halfwidth, halfwidth] standard deviations.
    """
    solver = KinkSolver(model)
    h_levels = h_kink_levels(payoff)

    outer_pts = []
    for level in energy_kink_levels(payoff):
        z = solver.energy_kink(level)
        if z is not None:
            outer_pts.append(z)
    if model.correlation_mode is CorrelationMode.PAYOFF_MIXING and model.rho > 0.0:
        for level in h_levels:
            z = solver.energy_kink(level / model.rho)
            if z is not None:
                outer_pts.append(z)
    z1, w1 = _panel_nodes(_with_coarse(outer_pts, halfwidth), nodes)

    total = 0.0
    f0I = model.temperature.f0
    rho = model.rho
    for z1_k, w1_k in zip(z1, w1):
        fE = solver.energy_price(z1_k)
        z2, w2 = _panel_nodes(_with_coarse(_h_kinks(solver, h_levels, z1_k), halfwidth), nodes)
        if model.correlation_mode is CorrelationMode.SDE_MIXING:
            h_arg = f0I * np.exp(-0.5 * solver.vI + solver.m1 * z1_k + solver.s2 * z2)
        else:
            fI = f0I * np.exp(-0.5 * solver.vI + solver.sI * z2)
            h_arg = rho * fE + solver.sq1mr2 * fI
        inner = float(np.dot(evaluate(payoff, np.full_like(z2, fE), h_arg) * _norm_pdf(z2), w2))
        total += float(w1_k) * _norm_pdf(float(z1_k)) * inner
    return float(total * math.exp(-model.rate * model.horizon))


def _scalar_norm_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def scalar_conditional_mean(p, fE, shift, forward, vol):
    """``conditional_mean`` at one node: Python floats, ``math`` and one ``if`` per branch."""
    def call(k):
        k -= shift
        if k <= 0.0:
            return forward - k
        d1 = (math.log(forward / k) + 0.5 * vol * vol) / vol
        return forward * _scalar_norm_cdf(d1) - k * _scalar_norm_cdf(d1 - vol)

    if isinstance(p, ProductCall):
        return (fE - p.kE) * call(p.kI) if fE > p.kE else 0.0
    if isinstance(p, FourStrikeCollar):
        up = (fE - p.kE_high) * call(p.kI_high) if fE > p.kE_high else 0.0
        down = ((p.kE_low - fE) * (call(p.kI_low) - (shift + forward - p.kI_low))
                if fE < p.kE_low else 0.0)
        return p.alpha * (up + down)
    if isinstance(p, DigitalProduct):
        if not fE > p.kE:
            return 0.0
        k = p.kI - shift
        return 1.0 if k <= 0.0 else _scalar_norm_cdf((math.log(forward / k) - 0.5 * vol * vol)
                                                     / vol)
    assert isinstance(p, Separable)
    h = p.h
    slopes = [h.left_slope]
    slopes += [(y1 - y0) / (x1 - x0) for x0, x1, y0, y1 in zip(h.xs, h.xs[1:], h.ys, h.ys[1:])]
    slopes.append(h.right_slope)
    mean = h.ys[0] + h.left_slope * (shift + forward - h.xs[0])
    # summed left to right from 0: from Python 3.12, sum() compensates float sums
    mean += reduce(lambda acc, term: acc + term,
                   ((s1 - s0) * call(x) for s0, s1, x in zip(slopes, slopes[1:], h.xs)), 0)
    return float(p.g(fE)) * mean


def scalar_quad_price(model, payoff):
    """``quad_price`` one node at a time: the same nodes, scalar formulas, a running sum."""
    solver = KinkSolver(model)
    outer_pts = [z for z in map(solver.energy_kink, energy_kink_levels(payoff)) if z is not None]
    z1, w1 = _panel_nodes(_with_coarse(outer_pts, _HALFWIDTH), _NODES)
    f0E, f0I = model.energy.f0, model.temperature.f0
    total = 0.0
    for z, w in zip(z1.tolist(), (w1 * _norm_pdf(z1)).tolist()):
        fE = f0E * math.exp(-0.5 * solver.vE + solver.sE * z)
        if model.correlation_mode is CorrelationMode.SDE_MIXING:
            law = (0.0, f0I * math.exp(solver.m1 * z + 0.5 * (solver.s2 * solver.s2 - solver.vI)),
                   solver.s2)
        else:
            law = (model.rho * fE, solver.sq1mr2 * f0I, solver.sI)
        total += w * scalar_conditional_mean(payoff, fE, *law)
    return total * math.exp(-model.rate * model.horizon)


def scalar_quad_greek(model, payoff, which):
    """``quad_greek``'s stencil over ``scalar_quad_price``."""
    f0E, f0I = model.energy.f0, model.temperature.f0
    return _central_difference(
        which, lambda sE, sI: scalar_quad_price(model.with_f0(f0E * sE, f0I * sI), payoff),
        1e-5, f0E, f0I)


def column_sum(z, load):
    """``z @ load`` summed column by column, left to right, as the draw sums it."""
    return reduce(np.add, (z[:, k] * w for k, w in enumerate(load)))


def untiled_block(model, tuning, cfg, block):
    """Block ``block`` from one standard_normal call over all of its rows."""
    plan = _build_plan(model, tuning, cfg.scheme)
    count = min(BLOCK_SIZE, cfg.n_samples - block * BLOCK_SIZE)
    rows = count // 2 if cfg.antithetic else count
    z = _block_generator(cfg.seed, block).standard_normal((rows, plan.loadE.shape[1], 2))
    gE, iE, gI_cross = (column_sum(z[:, :, 0], load) for load in plan.loadE)
    gI, iI, iE_cross = (column_sum(z[:, :, 1], load) for load in plan.loadI)
    if cfg.antithetic:
        gE, iE, gI_cross, gI, iI, iE_cross = (np.stack([x, -x], axis=1).ravel()
                                               for x in (gE, iE, gI_cross, gI, iI, iE_cross))
    fE = plan.f0E * np.exp(plan.driftE + gE)
    if plan.mode is CorrelationMode.SDE_MIXING:
        stoch_I = plan.rho * gI_cross + float(np.sqrt(1.0 - plan.rho * plan.rho)) * gI
    else:
        stoch_I = gI
    fI = plan.f0I * np.exp(plan.driftI + stoch_I)
    return SampleDraw(fE, fI, gE, gI, iE, iI, iE_cross, gI_cross)


def per_point_payoff(data, scale_E, scale_I):
    """A tile's payoff with the initial levels rescaled, evaluated for this one point alone.

    ``data`` is an engine tile (``estimators._BlockData``); the engine
    evaluates all of a tile's points together, one ``evaluate`` per energy scale.
    """
    m = data.model
    fE = (m.energy.f0 * scale_E) * data.eE
    fI = (m.temperature.f0 * scale_I) * data.eI
    if m.correlation_mode is CorrelationMode.PAYOFF_MIXING:
        h_arg = m.rho * fE + math.sqrt(1.0 - m.rho * m.rho) * fI
    else:
        h_arg = fI
    return evaluate(data.payoff, fE, h_arg)
