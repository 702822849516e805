"""Acceptance suite: one test per release criterion, each printing a pass/fail line.

Every quantitative target here is recomputed from an independent oracle
(closed forms over independent legs, deterministic quadrature, finite
differences); tolerances are statistical bands at fixed seeds.
"""

import math
import time
from pathlib import Path

import numpy as np

import oracles
from conftest import make_model
from quantogreeks import (
    DigitalProduct,
    ProductCall,
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

V = WeightVariant
ATM = ProductCall(100.0, 100.0)
N_BIG = 1_000_000

REPORT_DIR = Path(__file__).resolve().parent.parent / "build" / "reports"

CORR_TO_INDEP = {
    V.CORR_DELTA_E_ONE_PLUS_RHO: V.INDEP_DELTA_E,
    V.CORR_DELTA_E_MATRIX_INVERSE: V.INDEP_DELTA_E,
    V.CORR_DELTA_E_CONDITIONAL: V.INDEP_DELTA_E,
    V.CORR_DELTA_I: V.INDEP_DELTA_I,
    V.CORR_CROSS_GAMMA_SCALED_PRODUCT: V.INDEP_CROSS_GAMMA,
    V.CORR_CROSS_GAMMA_MATRIX_INVERSE: V.INDEP_CROSS_GAMMA,
    V.CORR_CROSS_GAMMA_CONDITIONAL: V.INDEP_CROSS_GAMMA,
}

# Frozen after the first conformance run: the variants that agree with the
# quadrature oracle at nonzero correlation under payoff mixing.
EXPECTED_CONFORMANT_DELTA_E = {"CorrDeltaE_Conditional"}
EXPECTED_CONFORMANT_CROSS = {"CorrCrossGamma_Conditional"}

BASE_CONFIG = """
energy.f0 = 100.0
energy.sigma = [[0.0, 0.2]]
temperature.f0 = 100.0
temperature.sigma = [[0.0, 0.2]]
tau1 = 1.0
tau2 = 1.0
rho = {rho}
payoff.variant = product_call
payoff.kE = 100.0
payoff.kI = 100.0
sim.n = {n}
sim.seed = {seed}
"""


def report(criterion: int, text: str) -> None:
    print(f"[criterion {criterion:2d}] PASS  {text}")


def read_rows(path):
    lines = [l for l in open(path).read().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_c01_independent_closed_form_agreement(atm_model, uniform_tuning):
    start = time.monotonic()
    cfg = SimConfig(N_BIG, seed=101)
    price = mc_price(atm_model, ATM, cfg, uniform_tuning)
    delta = mc_estimates(atm_model, ATM, uniform_tuning, [V.INDEP_DELTA_E], cfg)["IndepDeltaE"]
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
    est = mc_greek(atm_model, ATM, uniform_tuning, V.INDEP_CROSS_GAMMA,
                   SimConfig(N_BIG, seed=203))
    oracle = quad_greek(atm_model, ATM, "dEdI")
    assert abs(est.value - oracle) <= 3.0 * est.stderr
    report(3, f"cross-gamma {est.value:.5f}±{est.stderr:.5f} vs quad {oracle:.5f} "
              f"(z = {(est.value - oracle) / est.stderr:+.2f})")


def test_c04_zero_rho_bitwise_reduction(uniform_tuning):
    m = make_model(rho=0.0)
    draw = draw_samples(m, uniform_tuning, SimConfig(10_000, seed=104))
    for corr, indep in CORR_TO_INDEP.items():
        w_corr, mult_corr = weight_for(corr, draw, m, uniform_tuning)
        w_ind, mult_ind = weight_for(indep, draw, m, uniform_tuning)
        assert np.array_equal(w_corr * mult_corr, w_ind * mult_ind), corr.value
    report(4, f"{len(CORR_TO_INDEP)} correlated variants bitwise equal at rho=0 "
              f"over 10^4 draws")


def test_c05_correlated_delta_I_vs_quadrature(uniform_tuning):
    lines = []
    for rho, seed in ((-0.5, 105), (0.3, 106)):
        m = make_model(rho=rho)
        est = mc_greek(m, ATM, uniform_tuning, V.CORR_DELTA_I, SimConfig(N_BIG, seed=seed))
        oracle = quad_greek(m, ATM, "dI")
        assert abs(est.value - oracle) <= 3.0 * est.stderr
        lines.append(f"rho={rho}: z={(est.value - oracle) / est.stderr:+.2f}")
    report(5, "; ".join(lines))


def test_c06_conformance_matrix_adjudicates_variants(tmp_path):
    REPORT_DIR.mkdir(parents=True, exist_ok=True)
    summary = []
    for rho, seed in ((-0.5, 107), (0.3, 108)):
        cfg = tmp_path / f"conf_{seed}.cfg"
        cfg.write_text(BASE_CONFIG.format(rho=rho, n=N_BIG, seed=seed))
        out = REPORT_DIR / f"conformance_rho_{rho}.csv"
        assert main(["greeks", "--config", str(cfg), "--all-variants",
                     "--oracle", "quad", "--out", str(out)]) == 0
        rows = {r["variant"]: r for r in read_rows(out)}

        delta_rows = {k: v for k, v in rows.items() if k.startswith("CorrDeltaE")}
        cross_rows = {k: v for k, v in rows.items() if k.startswith("CorrCrossGamma")}
        assert len(delta_rows) == 3 and len(cross_rows) == 3
        assert all(r["z_score"] != "" for r in {**delta_rows, **cross_rows}.values())

        passing_delta = {k for k, r in delta_rows.items() if float(r["z_score"]) <= 3.0}
        passing_cross = {k for k, r in cross_rows.items() if float(r["z_score"]) <= 3.0}
        assert passing_delta, f"no delta_E variant conformant at rho={rho}"
        assert passing_cross, f"no cross-gamma variant conformant at rho={rho}"
        assert EXPECTED_CONFORMANT_DELTA_E <= passing_delta
        assert EXPECTED_CONFORMANT_CROSS <= passing_cross
        summary.append(f"rho={rho}: deltaE {sorted(passing_delta)}, "
                       f"cross {sorted(passing_cross)}")
    report(6, f"matrix archived in {REPORT_DIR.name}/; " + " | ".join(summary))


def test_c07_weight_zero_mean_and_isometry(atm_model, uniform_tuning):
    draw = draw_samples(atm_model, uniform_tuning, SimConfig(N_BIG, seed=109))
    for variant in (V.INDEP_DELTA_E, V.INDEP_DELTA_I, V.INDEP_CROSS_GAMMA):
        w, mult = weight_for(variant, draw, atm_model, uniform_tuning)
        w = w * mult
        assert abs(w.mean()) <= 4.0 * w.std(ddof=1) / math.sqrt(len(w))

    w, _ = weight_for(V.INDEP_DELTA_E, draw, atm_model, uniform_tuning)
    target = 25.0 / 100.0**2  # v_aa / f0E^2
    sample_var = w.var(ddof=1)
    centered = w - w.mean()
    se_var = math.sqrt((np.mean(centered**4) - sample_var**2) / len(w))
    assert abs(sample_var - target) <= 4.0 * se_var
    report(7, f"weight means zero at 4 stderr; Var(deltaE weight) = {sample_var:.3e} "
              f"vs v_aa/f0^2 = {target:.3e} within {abs(sample_var - target) / se_var:.2f} stderr")


def test_c08_tuning_function_invariance(atm_model):
    uniform = TuningFunction.uniform(1.0)
    step = TuningFunction.from_segments([(0.0, 2.0), (0.5, 0.0)], 1.0)
    a = mc_greek(atm_model, ATM, uniform, V.INDEP_DELTA_E, SimConfig(N_BIG, seed=110))
    b = mc_greek(atm_model, ATM, step, V.INDEP_DELTA_E, SimConfig(N_BIG, seed=111))
    gap = abs(a.value - b.value)
    band = 4.0 * math.hypot(a.stderr, b.stderr)
    assert gap <= band
    report(8, f"uniform {a.value:.4f} vs front-loaded step {b.value:.4f}, "
              f"gap {gap:.4f} <= {band:.4f}")


def test_c09_digital_variance_ordering(atm_model, uniform_tuning):
    digital = DigitalProduct(100.0, 100.0)
    cfg = SimConfig(100_000, seed=112)
    mal = mc_greek(atm_model, digital, uniform_tuning, V.INDEP_DELTA_E, cfg)
    fd = fd_greek(atm_model, digital, "dE", cfg, uniform_tuning)
    # same sample count, so comparing stderr compares per-draw variance
    assert mal.stderr < fd.stderr
    ref = oracles.digital_product_delta_E(100, 100, 0.2, 100, 100, 0.2, 1.0)
    assert abs(mal.value - ref) <= 3.0 * mal.stderr
    report(9, f"digital deltaE: weighted {mal.value:.5f}±{mal.stderr:.5f} "
              f"(ref {ref:.5f}) vs FD stderr {fd.stderr:.5f} "
              f"(variance ratio {fd.stderr**2 / mal.stderr**2:.1f}x)")


def test_c10_byte_identical_reproducibility(tmp_path):
    cfg = tmp_path / "repro.cfg"
    cfg.write_text(BASE_CONFIG.format(rho=0.3, n=140_000, seed=113))
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
