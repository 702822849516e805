"""Reference values for the tests.

The closed forms for the independent-legs lognormal model (zero rate) are
independent of the package's estimation code: product payoffs over independent
legs factor into one-dimensional integrals with textbook solutions.
``reference_quad_price`` is the quadrature oracle summed node by node, the
loop that the package's batched ``quad_price`` must match bit for bit.
"""

import math

import numpy as np
from scipy.stats import norm

from quantogreeks.estimators import QuadConfig, _gauss_legendre, _norm_pdf, _with_coarse
from quantogreeks.model import CorrelationMode
from quantogreeks.payoffs import KinkSolver, energy_kink_levels, evaluate, h_kink_levels


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


def _panel_nodes(splits, nodes):
    """Gauss-Legendre nodes/weights over consecutive panels between splits."""
    xr, wr = _gauss_legendre(nodes)
    xs, ws = [], []
    for lo, hi in zip(splits, splits[1:]):
        half = 0.5 * (hi - lo)
        xs.append(half * xr + 0.5 * (hi + lo))
        ws.append(half * wr)
    return np.concatenate(xs), np.concatenate(ws)


def reference_quad_price(model, payoff, q=QuadConfig()):
    """2-D Gauss-Legendre price with one inner integral per outer node."""
    solver = KinkSolver(model)
    L = q.domain_halfwidth
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
