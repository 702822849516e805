"""Reference values for the tests.

The closed forms for the independent-legs lognormal model (zero rate) are
independent of the package's estimation code: product payoffs over independent
legs factor into one-dimensional integrals with textbook solutions.
``reference_quad_price`` is a 2-D Gauss-Legendre price, summed node by node,
that integrates the temperature driver numerically between its strike
crossings; the package's ``quad_price`` replaces that inner integral with a
closed form and must agree with it to rounding.
"""

import math
from functools import lru_cache

import numpy as np
from scipy.stats import norm

from quantogreeks.estimators import _norm_pdf, _with_coarse
from quantogreeks.model import CorrelationMode
from quantogreeks.payoffs import (DigitalProduct, FourStrikeCollar, KinkSolver, ProductCall,
                                  energy_kink_levels, evaluate)


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
