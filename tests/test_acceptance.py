"""Acceptance suite: one test per release criterion, each printing a pass/fail line.

Every quantitative target here is recomputed from an independent oracle
(closed forms over independent legs, deterministic quadrature, finite
differences); tolerances are statistical bands at fixed seeds.
"""

import math
import time
from pathlib import Path

import dataclasses

import numpy as np
import pytest

import oracles
from conftest import make_model
from quantogreeks import (
    DigitalProduct,
    FourStrikeCollar,
    PiecewiseLinear,
    ProductCall,
    Separable,
    SimConfig,
    TuningFunction,
    WeightVariant,
    draw_samples,
    fd_greek,
    mc_estimates,
    mc_greek,
    mc_price,
    quad_greek,
    quad_price,
    weight_for,
)
from quantogreeks.cli import main
from quantogreeks.config import build_run, load_config
from quantogreeks.model import CorrelationMode
from quantogreeks.weights import WEIGHTS, greek_of

V = WeightVariant
ATM = ProductCall(100.0, 100.0)
N_BIG = 1_000_000

ROOT = Path(__file__).resolve().parent.parent
REPORT_DIR = ROOT / "build" / "reports"

# each sde_mixing weight and the payoff_mixing weight of the same Greek
SDE_TO_PAYOFF = {
    V.CORR_DELTA_E_MATRIX_INVERSE: V.CORR_DELTA_E_CONDITIONAL,
    V.CORR_DELTA_I_MATRIX_INVERSE: V.CORR_DELTA_I,
    V.CORR_CROSS_GAMMA_MATRIX_INVERSE: V.CORR_CROSS_GAMMA_CONDITIONAL,
}


def mode_weights(mode: CorrelationMode) -> list[WeightVariant]:
    """The weights of ``mode``, one per Greek: what ``greeks --all-variants`` runs."""
    return [v for v in V if WEIGHTS[v].mode is mode]


BASE_CONFIG = """
energy.f0 = 100.0
energy.sigma = [[0.0, 0.2]]
temperature.f0 = 100.0
temperature.sigma = [[0.0, 0.2]]
tau2 = 1.0
rho = {rho}
correlation_mode = {mode}
payoff.variant = product_call
payoff.kE = 100.0
payoff.kI = 100.0
sim.n = {n}
sim.seed = {seed}
"""


def report(criterion: int, text: str) -> None:
    print(f"[criterion {criterion:2d}] PASS  {text}")


def read_rows(path):
    lines = [l for l in Path(path).read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_c01_independent_closed_form_agreement(atm_model, uniform_tuning):
    start = time.monotonic()
    cfg = SimConfig(N_BIG, seed=101)
    price = mc_price(atm_model, ATM, uniform_tuning, cfg)
    delta = mc_estimates(atm_model, ATM, uniform_tuning, [V.CORR_DELTA_E_CONDITIONAL],
                         cfg)["CorrDeltaE_Conditional"]
    elapsed = time.monotonic() - start

    price_ref = oracles.product_call_price(100, 100, 0.2, 100, 100, 0.2, 1.0)
    delta_ref = oracles.product_call_delta_E(100, 100, 0.2, 100, 100, 0.2, 1.0)
    assert abs(price.value - price_ref) <= 3.0 * price.stderr
    assert abs(delta.value - delta_ref) <= 3.0 * delta.stderr
    assert elapsed < 60.0
    report(1, f"price {price.value:.4f}±{price.stderr:.4f} vs {price_ref:.4f}; "
              f"deltaE {delta.value:.4f}±{delta.stderr:.4f} vs {delta_ref:.4f}; "
              f"{elapsed:.1f}s")


def test_c02_quadrature_oracle_accuracy(atm_model):
    price_ref = oracles.product_call_price(100, 100, 0.2, 100, 100, 0.2, 1.0)
    delta_ref = oracles.product_call_delta_E(100, 100, 0.2, 100, 100, 0.2, 1.0)
    qp = quad_price(atm_model, ATM)
    qd = quad_greek(atm_model, ATM, "dE")
    assert abs(qp / price_ref - 1.0) <= 1e-4
    assert abs(qd / delta_ref - 1.0) <= 1e-4
    report(2, f"quad price rel err {abs(qp / price_ref - 1.0):.2e}, "
              f"quad deltaE rel err {abs(qd / delta_ref - 1.0):.2e}")


def test_c03_independent_cross_gamma_vs_quadrature(atm_model, uniform_tuning):
    est = mc_greek(atm_model, ATM, uniform_tuning, V.CORR_CROSS_GAMMA_CONDITIONAL,
                   SimConfig(N_BIG, seed=203))
    oracle = quad_greek(atm_model, ATM, "dEdI")
    assert abs(est.value - oracle) <= 3.0 * est.stderr
    report(3, f"cross-gamma {est.value:.5f}±{est.stderr:.5f} vs quad {oracle:.5f} "
              f"(z = {(est.value - oracle) / est.stderr:+.2f})")


def test_c04_zero_rho_bitwise_reduction(uniform_tuning):
    m = make_model(rho=0.0)
    draw = draw_samples(m, uniform_tuning, SimConfig(10_000, seed=104))
    for sde_variant, payoff_variant in SDE_TO_PAYOFF.items():
        w_sde = weight_for(sde_variant, draw, m, uniform_tuning)
        w_payoff = weight_for(payoff_variant, draw, m, uniform_tuning)
        assert np.array_equal(w_sde, w_payoff), sde_variant.value
    report(4, f"{len(SDE_TO_PAYOFF)} sde_mixing weights bitwise equal to the payoff_mixing "
              f"weights at rho=0 over 10^4 draws")


def test_c05_correlated_delta_I_vs_quadrature(uniform_tuning):
    lines = []
    for rho, seed in ((-0.5, 105), (0.3, 106)):
        m = make_model(rho=rho)
        est = mc_greek(m, ATM, uniform_tuning, V.CORR_DELTA_I, SimConfig(N_BIG, seed=seed))
        oracle = quad_greek(m, ATM, "dI")
        assert abs(est.value - oracle) <= 3.0 * est.stderr
        lines.append(f"rho={rho}: z={(est.value - oracle) / est.stderr:+.2f}")
    report(5, "; ".join(lines))


def test_c06_every_listed_variant_conforms_in_both_modes(tmp_path):
    REPORT_DIR.mkdir(parents=True, exist_ok=True)
    summary = []
    for mode in CorrelationMode:
        for rho, seed in ((-0.5, 107), (0.3, 108)):
            cfg = tmp_path / f"conf_{mode.value}_{seed}.cfg"
            cfg.write_text(BASE_CONFIG.format(rho=rho, mode=mode.value, n=N_BIG, seed=seed))
            out = REPORT_DIR / f"conformance_{mode.value}_rho_{rho}.csv"
            assert main(["greeks", "--config", str(cfg), "--all-variants",
                         "--oracle", "quad", "--out", str(out)]) == 0
            rows = {r["variant"]: r for r in read_rows(out) if r["z_score"] != ""}
            assert list(rows) == [v.value for v in mode_weights(mode)]
            z = {k: float(r["z_score"]) for k, r in rows.items()}
            assert all(v <= 3.0 for v in z.values()), f"{mode.value} rho={rho}: {z}"
            summary.append(f"{mode.value} rho={rho}: max |z| {max(z.values()):.2f}")
    report(6, f"matrix archived in {REPORT_DIR.name}/; " + " | ".join(summary))


def test_c07_weight_zero_mean_and_isometry(atm_model, uniform_tuning):
    draw = draw_samples(atm_model, uniform_tuning, SimConfig(N_BIG, seed=109))
    for variant in mode_weights(CorrelationMode.PAYOFF_MIXING):
        w = weight_for(variant, draw, atm_model, uniform_tuning)
        assert abs(w.mean()) <= 4.0 * w.std(ddof=1) / math.sqrt(len(w))

    w = weight_for(V.CORR_DELTA_E_CONDITIONAL, draw, atm_model, uniform_tuning)
    target = 25.0 / 100.0**2  # v_aa / f0E^2
    sample_var = w.var(ddof=1)
    centered = w - w.mean()
    se_var = math.sqrt((np.mean(centered**4) - sample_var**2) / len(w))
    assert abs(sample_var - target) <= 4.0 * se_var
    report(7, f"weight means zero at 4 stderr; Var(deltaE weight) = {sample_var:.3e} "
              f"vs v_aa/f0^2 = {target:.3e} within {abs(sample_var - target) / se_var:.2f} stderr")


def test_c08_tuning_function_invariance(atm_model):
    uniform = TuningFunction.uniform(1.0)
    step = TuningFunction.from_segments([(0.0, 2.0), (0.5, 0.0)])
    a = mc_greek(atm_model, ATM, uniform, V.CORR_DELTA_E_CONDITIONAL, SimConfig(N_BIG, seed=110))
    b = mc_greek(atm_model, ATM, step, V.CORR_DELTA_E_CONDITIONAL, SimConfig(N_BIG, seed=111))
    gap = abs(a.value - b.value)
    band = 4.0 * math.hypot(a.stderr, b.stderr)
    assert gap <= band
    report(8, f"uniform {a.value:.4f} vs front-loaded step {b.value:.4f}, "
              f"gap {gap:.4f} <= {band:.4f}")


def test_c09_digital_variance_ordering(atm_model, uniform_tuning):
    digital = DigitalProduct(100.0, 100.0)
    cfg = SimConfig(100_000, seed=112)
    mal = mc_greek(atm_model, digital, uniform_tuning, V.CORR_DELTA_E_CONDITIONAL, cfg)
    fd = fd_greek(atm_model, digital, uniform_tuning, "dE", cfg)
    # same sample count, so comparing stderr compares per-draw variance
    assert mal.stderr < fd.stderr
    ref = oracles.digital_product_delta_E(100, 100, 0.2, 100, 100, 0.2, 1.0)
    assert abs(mal.value - ref) <= 3.0 * mal.stderr
    report(9, f"digital deltaE: weighted {mal.value:.5f}±{mal.stderr:.5f} "
              f"(ref {ref:.5f}) vs FD stderr {fd.stderr:.5f} "
              f"(variance ratio {fd.stderr**2 / mal.stderr**2:.1f}x)")


def test_c10_byte_identical_reproducibility(tmp_path):
    cfg = tmp_path / "repro.cfg"
    cfg.write_text(BASE_CONFIG.format(rho=0.3, mode="payoff_mixing", n=140_000, seed=113))
    runs = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert main(["price", "--config", str(cfg), "--out", str(runs[0])]) == 0
    assert main(["price", "--config", str(cfg), "--out", str(runs[1])]) == 0
    assert main(["price", "--config", str(cfg), "--out", str(runs[2]), "--threads", "4"]) == 0
    blobs = [p.read_bytes() for p in runs]
    assert blobs[0] == blobs[1] == blobs[2]

    g1, g4 = tmp_path / "g1.csv", tmp_path / "g4.csv"
    assert main(["greeks", "--config", str(cfg), "--all-variants", "--threads", "1",
                 "--out", str(g1)]) == 0
    assert main(["greeks", "--config", str(cfg), "--all-variants", "--threads", "4",
                 "--out", str(g4)]) == 0
    assert g1.read_bytes() == g4.read_bytes()
    report(10, "price and greeks CSV byte-identical across reruns and 1 vs 4 threads")


# The payoff kinds of criterion 11 on the collar's model: a two-segment energy
# volatility and a front-loaded tuning function, so the draw has rank 2.
CONFORMANCE_PAYOFFS = {
    "product_call": ProductCall(100.0, 60.0),
    "digital": DigitalProduct(100.0, 60.0),
    "separable": Separable(PiecewiseLinear((80.0, 100.0, 120.0), (0.0, 5.0, 20.0), 0.0, 1.0),
                           PiecewiseLinear((40.0, 60.0, 90.0), (1.0, 3.0, 3.5), -0.5, 0.2)),
    "collar": FourStrikeCollar(110.0, 70.0, 90.0, 50.0, 1.0),
}


@pytest.mark.parametrize("rho", [0.3, -0.6])
@pytest.mark.parametrize("mode", list(CorrelationMode), ids=lambda m: m.value)
@pytest.mark.parametrize("kind", list(CONFORMANCE_PAYOFFS))
def test_c11_each_mode_weight_conforms_for_every_payoff_kind(kind, mode, rho):
    run = build_run(load_config(str(ROOT / "configs" / "correlated_collar.cfg")))
    model = dataclasses.replace(run.model, rho=rho, correlation_mode=mode)
    payoff = CONFORMANCE_PAYOFFS[kind]
    variants = mode_weights(mode)
    ests = mc_estimates(model, payoff, run.tuning, variants, SimConfig(N_BIG, seed=5))
    z = {}
    for variant in variants:
        est, oracle = ests[variant.value], quad_greek(model, payoff, greek_of(variant))
        z[variant.value] = abs(est.value - oracle) / est.stderr
    assert all(v <= 3.0 for v in z.values()), z
    report(11, f"{kind} {mode.value} rho={rho}: " + ", ".join(f"{k} |z|={v:.2f}"
                                                            for k, v in z.items()))
