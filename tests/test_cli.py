import importlib
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import quantogreeks.cli
from quantogreeks import fd_greek, mc_price, quad_price
from quantogreeks.cli import main
from quantogreeks.config import build_run, load_config, parse_config_text
from quantogreeks.estimators import GREEKS
from quantogreeks.model import CorrelationMode, TuningFunction
from quantogreeks.weights import WEIGHTS
from write_golden import config_paths

BASE_CONFIG = """
# symmetric at-the-money product call
energy.f0 = 100.0
energy.sigma = [[0.0, 0.2]]
temperature.f0 = 100.0
temperature.sigma = [[0.0, 0.2]]
tau2 = 1.0
rho = 0.0
payoff.variant = product_call
payoff.kE = 100.0
payoff.kI = 100.0
sim.n = 20000
sim.seed = 99
"""


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
HUGE = 10 ** 400  # an integer beyond float range
QUAD_ROWS = {
    "atm_independent.cfg": ["Quad_dE,4.300035051720386,0.0,,,,",
                            "Quad_dEdI,0.2914140928567121,0.0,,,,",
                            "Quad_dI,4.300035051716833,0.0,,,,"],
    "correlated_collar.cfg": ["Quad_dE,12.753548965434902,0.0,,,,",
                              "Quad_dEdI,0.37353787026480245,0.0,,,,",
                              "Quad_dI,5.134779508537689,0.0,,,,"],
}

MODE_WEIGHTS = {
    "payoff_mixing": ["CorrDeltaE_Conditional", "CorrDeltaI", "CorrCrossGamma_Conditional"],
    "sde_mixing": ["CorrDeltaE_MatrixInverse", "CorrDeltaI_MatrixInverse",
                   "CorrCrossGamma_MatrixInverse"],
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG)
    return str(path)


def write_config(tmp_path, text, name="alt.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    lines = [l for l in Path(path).read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestPrice:
    def test_valid_config_exits_zero_with_csv_row(self, config_path, tmp_path, capsys):
        out = tmp_path / "price.csv"
        assert main(["price", "--config", config_path, "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 1
        assert rows[0]["variant"] == "Price"
        assert 40.0 < float(rows[0]["value"]) < 90.0
        assert rows[0]["seconds"] == ""  # deterministic CSV by default

    def test_missing_rho_exits_2_naming_the_key(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG.replace("rho = 0.0\n", ""))
        assert main(["price", "--config", path]) == 2
        assert "rho" in capsys.readouterr().err

    def test_subelliptic_volatility_exits_3_citing_condition(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG.replace(
            "energy.sigma = [[0.0, 0.2]]", "energy.sigma = [[0.0, 0.0]]"))
        assert main(["price", "--config", path]) == 3
        assert "uniform ellipticity" in capsys.readouterr().err

    def test_csv_embeds_config_echo_and_seed(self, config_path, tmp_path):
        out = tmp_path / "price.csv"
        main(["price", "--config", config_path, "--out", str(out)])
        text = out.read_text()
        assert "# sim.seed = 99" in text
        assert "# rho = 0.0" in text
        assert "# model_hash = " in text

    def test_json_format_carries_metadata(self, config_path, tmp_path):
        out = tmp_path / "price.json"
        main(["price", "--config", config_path, "--out", str(out), "--format", "json"])
        doc = json.loads(out.read_text())
        assert doc["seed"] == 99
        assert doc["config"]["rho"] == 0.0
        assert doc["results"][0]["variant"] == "Price"
        assert doc["results"][0]["seconds"] is not None

    def test_timing_flag_fills_seconds(self, config_path, tmp_path):
        out = tmp_path / "price.csv"
        main(["price", "--config", config_path, "--out", str(out), "--timing"])
        assert read_rows(out)[0]["seconds"] != ""


class TestGreeks:
    @pytest.mark.parametrize("mode", ["payoff_mixing", "sde_mixing"])
    def test_all_variants_lists_the_mode_weights(self, tmp_path, mode):
        path = write_config(tmp_path, BASE_CONFIG + f"correlation_mode = {mode}\n")
        out = tmp_path / "greeks.csv"
        assert main(["greeks", "--config", path, "--all-variants", "--out", str(out)]) == 0
        assert [r["variant"] for r in read_rows(out)] == MODE_WEIGHTS[mode]

    def test_all_variants_at_zero_rho_match_independent_rows(self, config_path, tmp_path):
        # at rho = 0 either mode's weights may run, and the two agree
        out = tmp_path / "greeks.csv"
        names = MODE_WEIGHTS["payoff_mixing"] + MODE_WEIGHTS["sde_mixing"]
        assert main(["greeks", "--config", config_path, *(f"--variant={v}" for v in names),
                     "--out", str(out)]) == 0
        rows = {r["variant"]: r for r in read_rows(out)}
        for payoff_row, sde_row in zip(*MODE_WEIGHTS.values()):
            assert rows[payoff_row]["value"] == rows[sde_row]["value"]
            assert rows[payoff_row]["stderr"] == rows[sde_row]["stderr"]

    @pytest.mark.parametrize("command,old,new", [
        (["converge", "--n-grid", "1000,4000"], "IndepCrossGamma", "CorrCrossGamma_Conditional"),
    ])
    def test_former_names_run_their_payoff_mixing_weight(self, config_path, tmp_path, command,
                                                         old, new):
        paths = [tmp_path / f"{name}.csv" for name in (old, new)]
        for name, out in zip((old, new), paths):
            assert main([*command, "--config", config_path, "--variant", name,
                         "--out", str(out)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_quad_oracle_adds_rows_and_z_scores(self, config_path, tmp_path):
        out = tmp_path / "greeks.csv"
        assert main(["greeks", "--config", config_path, "--variant", "CorrDeltaE_Conditional",
                     "--oracle", "quad", "--out", str(out)]) == 0
        rows = {r["variant"]: r for r in read_rows(out)}
        assert "Quad_dE" in rows
        assert rows["CorrDeltaE_Conditional"]["oracle_value"] != ""
        assert float(rows["CorrDeltaE_Conditional"]["z_score"]) >= 0.0

    @pytest.mark.parametrize("name", sorted(QUAD_ROWS))
    def test_quad_rows_keep_their_bytes(self, tmp_path, name):
        # the quadrature is deterministic: its rows move only if its arithmetic does
        out = tmp_path / "greeks.csv"
        assert main(["greeks", "--config", str(CONFIGS / name), "--all-variants",
                     "--oracle", "quad", "--n", "2000", "--out", str(out)]) == 0
        assert [line for line in out.read_text().splitlines()
                if line.startswith("Quad_")] == QUAD_ROWS[name]

    def test_fd_oracle_rows(self, config_path, tmp_path):
        out = tmp_path / "greeks.csv"
        assert main(["greeks", "--config", config_path, "--variant",
                     "CorrCrossGamma_Conditional", "--oracle", "fd", "--out", str(out)]) == 0
        assert "FD_dEdI" in {r["variant"] for r in read_rows(out)}

    # the former names of the payoff_mixing deltas are no longer spellings
    @pytest.mark.parametrize("name", ["NoSuchWeight", "IndepDeltaE", "IndepDeltaI"])
    def test_unknown_variant_exits_2(self, config_path, capsys, name):
        assert main(["greeks", "--config", config_path, "--variant", name]) == 2
        assert name in capsys.readouterr().err

    def test_variant_or_all_required(self, config_path, capsys):
        assert main(["greeks", "--config", config_path]) == 2

    def test_all_variants_with_a_variant_exits_2(self, config_path, capsys):
        # the --variant list was dropped without a word
        assert main(["greeks", "--config", config_path, "--all-variants",
                     "--variant", "CorrDeltaE_Conditional"]) == 2
        assert capsys.readouterr().err == ("greeks: pass --variant NAME or --all-variants, "
                                           "not both\n")


class TestSweepRho:
    def test_zero_grid_gives_single_zero_difference_row(self, config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-rho", "--config", config_path, "--grid", "0",
                     "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 1
        assert float(rows[0]["abs_diff"]) == 0.0

    def test_grid_value_on_boundary_exits_2(self, config_path, capsys):
        assert main(["sweep-rho", "--config", config_path, "--grid", "1.0"]) == 2

    def test_three_point_grid(self, config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-rho", "--config", config_path, "--grid=-0.5,0,0.5",
                     "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [r["rho"] for r in rows] == ["-0.5", "0.0", "0.5"]

    def test_non_numeric_grid_exits_2(self, config_path, capsys):
        assert main(["sweep-rho", "--config", config_path, "--grid", "a,b"]) == 2
        assert capsys.readouterr().err.startswith("--grid:")

    def test_greek_choices_are_the_greeks_that_weights_name(self):
        # a Greek is one GREEKS entry plus the WEIGHTS rows that name it, one per mode
        named = Counter((spec.greek, spec.mode) for spec in WEIGHTS.values())
        assert named == Counter(itertools.product(GREEKS, CorrelationMode))
        commands = next(a for a in quantogreeks.cli._build_parser()._actions
                        if a.dest == "command")
        [choices] = [a.choices for a in commands.choices["sweep-rho"]._actions
                     if a.dest == "greek"]
        assert list(choices) == list(GREEKS)

    def test_cross_gamma_sweep(self, config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-rho", "--config", config_path, "--grid", "0.4",
                     "--greek", "dEdI", "--out", str(out)]) == 0
        assert len(read_rows(out)) == 1


class TestConverge:
    def test_shrinking_stderr_over_grid(self, config_path, tmp_path):
        out = tmp_path / "conv.csv"
        assert main(["converge", "--config", config_path, "--n-grid", "1e4,4e4,16e4",
                     "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 3
        errs = [float(r["stderr"]) for r in rows]
        assert errs[0] > errs[1] > errs[2]

    def test_empty_grid_exits_2(self, config_path):
        assert main(["converge", "--config", config_path, "--n-grid", ""]) == 2

    def test_non_numeric_grid_exits_2(self, config_path):
        assert main(["converge", "--config", config_path, "--n-grid", "1e4,x"]) == 2
        assert main(["converge", "--config", config_path, "--n-grid", "1e4,inf"]) == 2

    def test_non_monotone_grid_exits_2(self, config_path):
        assert main(["converge", "--config", config_path, "--n-grid", "1e4,1e4"]) == 2

    def test_echoes_the_largest_count_it_draws(self, config_path, tmp_path):
        # the echo read "# sim.n = 20000", the config's count, and model_hash hashed it
        out = tmp_path / "conv.csv"
        assert main(["converge", "--config", config_path, "--n-grid", "1000,2000",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "# sim.n = 2000\n" in text
        assert "# sim.n = 20000\n" not in text

    @pytest.mark.parametrize("n", ["0", "6"])
    def test_sample_count_flag_exits_2(self, config_path, capsys, n):
        # converge draws its --n-grid counts; --n would only be echoed
        assert main(["converge", "--config", config_path, "--n-grid", "5,6", "--n", n]) == 2
        assert "--n" in capsys.readouterr().err


@pytest.mark.parametrize("second", ["CorrDeltaE_MatrixInverse", "NoSuch"])
def test_single_variant_commands_reject_a_second_variant(config_path, capsys, second):
    argv = ["converge", "--n-grid", "1e3,2e3", "--config", config_path,
            "--variant", "CorrDeltaE_Conditional", "--variant", second]
    assert main(argv) == 2
    assert "variant" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_thread_count_below_one_exits_2(config_path, capsys, threads):
    # rejected while parsing arguments, before any worker thread could start
    assert main(["price", "--config", config_path, "--threads", threads]) == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("usage_error", [
    ["price", "--scheme", "sobol"],
    ["greeks", "--variant", "NoSuchWeight"],
    ["sweep-rho", "--grid", "0.3", "--variant", "NoSuchWeight"],
    ["converge", "--n-grid", "1e4,x"],
    ["price", "--n", "0"],
    ["price", "--n", "3", "--antithetic"],
    ["converge", "--n-grid", "0,5"],
    ["sweep-rho", "--grid", "0.3", "--n", "0"],
    ["converge", "--n-grid", "5,6", "--n", "0"],
    ["sweep-rho", "--grid", "0.3", "--greek", "dE", "--variant", "CorrCrossGamma_Conditional"],
    ["sweep-rho", "--grid", "0.3", "--greek", "dE", "--variant", "CorrDeltaE_MatrixInverse"],
])
def test_usage_error_beats_model_validation(tmp_path, capsys, usage_error):
    path = write_config(tmp_path, BASE_CONFIG.replace(
        "energy.sigma = [[0.0, 0.2]]", "energy.sigma = [[0.0, 0.0]]"))
    assert main(["price", "--config", path]) == 3
    capsys.readouterr()
    assert main([*usage_error, "--config", path]) == 2
    if usage_error[0] == "sweep-rho" and "--variant" in usage_error:  # not a sweep-rho option
        assert (f"unrecognized arguments: --variant {usage_error[-1]}"
                in capsys.readouterr().err)


@pytest.mark.parametrize("usage_error", [
    ["greeks", "--variant", "CorrDeltaE_MatrixInverse"],
    ["converge", "--n-grid", "1000,2000", "--variant", "CorrDeltaE_MatrixInverse"],
])
def test_other_mode_variant_on_a_correlated_model_beats_model_validation(tmp_path, capsys,
                                                                         usage_error):
    path = write_config(tmp_path, BASE_CONFIG.replace("rho = 0.0", "rho = 0.3").replace(
        "energy.sigma = [[0.0, 0.2]]", "energy.sigma = [[0.0, 0.0]]"))
    assert main(["price", "--config", path]) == 3
    capsys.readouterr()
    assert main([*usage_error, "--config", path]) == 2
    assert capsys.readouterr().err == ("CorrDeltaE_MatrixInverse is a sde_mixing weight "
                                       "(model has correlation_mode = payoff_mixing, rho=0.3)\n")


NONFINITE_PAYOFFS = {
    "product_call": BASE_CONFIG.replace("payoff.kE = 100.0", "payoff.kE = NaN"),
    "digital_product": BASE_CONFIG.replace("product_call", "digital_product").replace(
        "payoff.kI = 100.0", "payoff.kI = Infinity"),
    "four_strike_collar": BASE_CONFIG.replace("product_call", "four_strike_collar")
    + "payoff.kE_low = 90.0\npayoff.kI_low = 75.0\npayoff.alpha = Infinity\n",
    "separable": BASE_CONFIG.replace(
        "payoff.variant = product_call\npayoff.kE = 100.0\npayoff.kI = 100.0",
        'payoff.variant = separable\n'
        'payoff.g = {"knots": [[100.0, 0.0], [NaN, 1.0]], "slopes": [0.0, 1.0]}\n'
        'payoff.h = {"knots": [[80.0, 0.0]], "slopes": [0.0, 1.0]}'),
}


@pytest.mark.parametrize("line,message", [
    ("rho = 1.0", "correlation rho must lie in (-1, 1), got 1.0"),
    ("payoff.kE_low = -5.0", "collar strikes must be nonnegative"),
    ("payoff.kI_low = 110.0", "temperature strikes out of order: kI_low=110.0 > kI_high=100.0"),
])
def test_invalid_model_or_collar_exits_3_naming_it(tmp_path, capsys, line, message):
    collar = BASE_CONFIG.replace("product_call", "four_strike_collar") + (
        "payoff.kE_low = 90.0\npayoff.kI_low = 75.0\n")
    assert main(["price", "--config", write_config(tmp_path, collar + line + "\n"),
                 "--n", "2000"]) == 3
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("argv,status,stream,text", [
    (["sweep-rho", "--grid", "0.3", "--greek", "gamma"], 2, "err", "invalid choice: 'gamma'"),
    (["--help"], 0, "out", "usage: quantogreeks"),
])
def test_argument_parser_exit_status_is_returned(config_path, capsys, argv, status, stream,
                                                 text):
    # argparse raises SystemExit; main returns its status instead
    assert main([*argv, "--config", config_path]) == status
    assert text in getattr(capsys.readouterr(), stream)


@pytest.mark.parametrize("kind", sorted(NONFINITE_PAYOFFS))
def test_nonfinite_payoff_number_fails_validation(tmp_path, capsys, kind):
    # NaN and Infinity are JSON numbers to the config parser; they priced as nan or 0.0
    text = NONFINITE_PAYOFFS[kind]
    run = build_run(parse_config_text(text))
    with pytest.raises(ValueError, match="must be finite"):
        mc_price(run.model, run.payoff, run.tuning, run.sim)
    with pytest.raises(ValueError, match="must be finite"):
        quad_price(run.model, run.payoff)
    assert main(["price", "--config", write_config(tmp_path, text)]) == 3
    assert "must be finite" in capsys.readouterr().err


def test_library_passes_give_the_cli_rows_on_a_tuning_off_the_volatility_grid(tmp_path):
    # the tuning's step at t = 0.25 enters every pass's grid, so it moves the price's
    # stream too; mc_price and fd_greek used to read a missing tuning as the uniform one
    text = (CONFIGS / "correlated_collar.cfg").read_text()
    for old, new in [("tuning = [[0.0, 2.0], [0.5, 0.0]]", "tuning = [[0.0, 4.0], [0.25, 0.0]]"),
                     ("sim.n = 500000", "sim.n = 20000")]:
        assert old in text
        text = text.replace(old, new)
    path = write_config(tmp_path, text)
    run = build_run(load_config(path))
    price, greeks = tmp_path / "price.csv", tmp_path / "greeks.csv"
    assert main(["price", "--config", path, "--out", str(price)]) == 0
    assert main(["greeks", "--config", path, "--variant", "CorrDeltaE_Conditional",
                 "--oracle", "fd", "--out", str(greeks)]) == 0
    [row] = read_rows(price)
    est = mc_price(run.model, run.payoff, run.tuning, run.sim)
    assert (float(row["value"]), float(row["stderr"])) == (est.value, est.stderr)
    row = next(r for r in read_rows(greeks) if r["variant"] == "FD_dE")
    est = fd_greek(run.model, run.payoff, run.tuning, "dE", run.sim)
    assert (float(row["value"]), float(row["stderr"])) == (est.value, est.stderr)
    uniform = TuningFunction.uniform(run.model.horizon)
    assert fd_greek(run.model, run.payoff, uniform, "dE", run.sim).value != est.value


class TestReproducibility:
    def test_two_runs_byte_identical(self, config_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["price", "--config", config_path, "--out", str(a)])
        main(["price", "--config", config_path, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_thread_count_does_not_change_bytes(self, config_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["greeks", "--config", config_path, "--all-variants", "--out", str(a),
              "--threads", "1", "--n", "140000"])
        main(["greeks", "--config", config_path, "--all-variants", "--out", str(b),
              "--threads", "4", "--n", "140000"])
        assert a.read_bytes() == b.read_bytes()

    def test_flag_overrides_enter_the_echo(self, config_path, tmp_path):
        out = tmp_path / "a.csv"
        main(["price", "--config", config_path, "--out", str(out), "--seed", "123",
              "--n", "1000"])
        text = out.read_text()
        assert "# sim.seed = 123" in text
        assert "# sim.n = 1000" in text


class TestSchemeAndFlags:
    def test_euler_scheme_flag(self, config_path, tmp_path):
        out = tmp_path / "a.csv"
        assert main(["price", "--config", config_path, "--scheme", "euler:16",
                     "--n", "10000", "--out", str(out)]) == 0
        assert "# sim.scheme = \"euler:16\"" in out.read_text()

    @pytest.mark.parametrize("scheme", ["sobol", "euler:abc", "euler:1.5", "euler:"])
    def test_bad_scheme_exits_2(self, config_path, capsys, scheme):
        assert main(["price", "--config", config_path, "--scheme", scheme]) == 2
        assert capsys.readouterr().err == (f"key sim.scheme: unknown scheme {scheme!r}; "
                                           "expected 'exact' or 'euler:STEPS'\n")

    @pytest.mark.parametrize("scheme,label", [("euler:1e2", "euler:100"), ("euler:1_0", None),
                                              ("euler:+5", None), ("euler:05", None),
                                              ("euler: 5", None)])
    def test_euler_steps_follow_the_sample_count_rule(self, config_path, tmp_path, capsys,
                                                      scheme, label):
        # int() read 1_0, +5, 05 and " 5" as step counts but refused 1e2, which --n reads
        out = tmp_path / "a.csv"
        status = main(["price", "--config", config_path, "--scheme", scheme, "--n", "2000",
                       "--out", str(out)])
        if label is None:
            assert status == 2 and capsys.readouterr().err == (
                f"key sim.scheme: unknown scheme {scheme!r}; expected 'exact' or 'euler:STEPS'\n")
        else:
            assert status == 0 and f'# sim.scheme = "{label}"\n' in out.read_text()

    @pytest.mark.parametrize("flags,line", [
        (["--n", "30000"], "sim.n = 30000"),
        (["--n", "3e4"], "sim.n = 3e4"),
        (["--seed", "5.0"], "sim.seed = 5"),
        (["--antithetic"], "sim.antithetic = true"),
        (["--scheme", "euler:40"], 'sim.scheme = "euler:40"'),
    ])
    def test_flag_gives_the_bytes_of_its_config_key(self, tmp_path, flags, line):
        # argparse read --n and --seed as int, so --n 3e4 and --seed 5.0 exited 2
        key = line.split(" = ")[0]
        base = "".join(l for l in BASE_CONFIG.splitlines(keepends=True) if not l.startswith(key))
        outs = tmp_path / "flag.csv", tmp_path / "key.csv"
        assert main(["price", "--config", write_config(tmp_path, base), *flags,
                     "--out", str(outs[0])]) == 0
        assert main(["price", "--config", write_config(tmp_path, base + line + "\n", "key.cfg"),
                     "--out", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("flags,message", [
        (["--n", "1.5"], "key sim.n: expected an integer, got 1.5"),
        (["--n", "true"], "key sim.n: expected an integer, got True"),
        (["--n", "1_000"], "key sim.n: expected an integer, got '1_000'"),
        (["--seed", "020"], "key sim.seed: expected an integer, got '020'"),
        (["--seed", "+5"], "key sim.seed: expected an integer, got '+5'"),
        (["--scheme", "euler:0"],
         "key sim.scheme: unknown scheme 'euler:0'; expected 'exact' or 'euler:STEPS'"),
        (["--seed", "-1"], "key sim.seed: seed must lie in [0, 2**128), got -1"),
        (["--n", "0"], "key sim.n: n_samples must be >= 1, got 0"),
        # a count numpy cannot index drew block after block until the run was killed
        (["--n", str(2 ** 63)], f"key sim.n: n_samples must be < 2**63, got {2 ** 63}"),
        (["--n", "3", "--antithetic"],
         "key sim.n: antithetic sampling pairs draws, so n_samples must be even"),
        # JSON that Python cannot convert printed its "Exceeds the limit" text alone
        (["--n", "1" + "0" * 5000], "key sim.n: Exceeds the limit"),
        (["--seed", "1" + "0" * 5000], "key sim.seed: Exceeds the limit"),
        (["--scheme", "euler:" + "1" * 5001], "key sim.scheme: unknown scheme 'euler:111"),
        # a plan of about 160 GB crashed the run instead of exiting 2
        (["--scheme", "euler:1000000000"],
         "key sim.scheme: euler_steps must be <= 2**20, got 1000000000"),
    ])
    def test_bad_flag_exits_2_as_its_config_key_does(self, config_path, capsys, flags, message):
        assert main(["price", "--config", config_path, *flags]) == 2
        assert capsys.readouterr().err.startswith(message)

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["price", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_collar_and_separable_configs_parse(self, tmp_path):
        collar = BASE_CONFIG.replace("payoff.variant = product_call", """payoff.variant = four_strike_collar
payoff.kE_low = 90.0
payoff.kI_low = 75.0
payoff.alpha = 1.5""")
        path = write_config(tmp_path, collar, "collar.cfg")
        assert main(["price", "--config", path, "--n", "2000"]) == 0

        sep = BASE_CONFIG.replace(
            "payoff.variant = product_call\npayoff.kE = 100.0\npayoff.kI = 100.0",
            'payoff.variant = separable\n'
            'payoff.g = {"knots": [[100.0, 0.0]], "slopes": [0.0, 1.0]}\n'
            'payoff.h = {"knots": [[80.0, 0.0]], "slopes": [0.0, 1.0]}')
        path = write_config(tmp_path, sep, "sep.cfg")
        assert main(["price", "--config", path, "--n", "2000"]) == 0

    @pytest.mark.parametrize("line,key", [("sim.n = 2.7", "sim.n"), ("sim.n = true", "sim.n"),
                                          ('sim.n = "abc"', "sim.n"),
                                          ("sim.seed = 1.9", "sim.seed")])
    def test_non_integral_count_or_seed_exits_2_naming_the_key(self, tmp_path, capsys, line,
                                                               key):
        # a fraction or a bool used to be truncated: 2.7 samples ran 2, true ran 1
        text = BASE_CONFIG.replace("sim.n = 20000", "sim.n = 2000") + line + "\n"
        assert main(["price", "--config", write_config(tmp_path, text)]) == 2
        assert capsys.readouterr().err.startswith(f"key {key}: expected an integer")

    @pytest.mark.parametrize("line,args", [("sim.seed = 99", ["--seed", "-1"]),
                                           (f"sim.seed = {2 ** 128}", []),
                                           ("sim.seed = 99", ["--seed", "1e40"])])
    def test_seed_outside_the_philox_key_range_exits_2(self, tmp_path, capsys, line, args):
        # the key was the seed modulo 2**128, so -1 ran the stream of 2**128 - 1
        text = BASE_CONFIG.replace("sim.seed = 99", line)
        assert main(["price", "--config", write_config(tmp_path, text), *args]) == 2
        assert capsys.readouterr().err.startswith(
            "key sim.seed: seed must lie in [0, 2**128), got ")

    @pytest.mark.parametrize("line,message", [
        ("rate = [1, 2]", "key rate: expected a number, got [1, 2]"),
        ('rate = "abc"', "key rate: expected a number, got 'abc'"),
        ('payoff.alpha = {"a": 1}', "key payoff.alpha: expected a number, got {'a': 1}"),
        ("energy.f0 = true", "key energy.f0: expected a number, got True"),
        ("temperature.f0 = null", "key temperature.f0: expected a number, got None"),
        ("tau2 = Infinity", "key tau2: expected a positive finite horizon, got inf"),
        ("rho = false", "key rho: expected a number, got False"),
        ("payoff.kE = true", "key payoff.kE: expected a number, got True"),
        ("payoff.kI_low = [50]", "key payoff.kI_low: expected a number, got [50]"),
        ("energy.sigma = true", "key energy.sigma: expected a number or segments, got True"),
        ("energy.sigma = []", "key energy.sigma: bad volatility curve "
         "(step function: need one value per segment start)"),
        ("temperature.sigma = [[0.0, NaN]]", "key temperature.sigma: bad volatility curve "
         "(step function: non-finite entry)"),
        ("tuning = [[0.0, 0.5], [1.0, 1.0]]", "key tuning: bad tuning function "
         "(step function: last segment starts at or beyond the horizon)"),
        ("energy.sigma = [[0.0, 0.2], [1.5, 0.3]]", "key energy.sigma: bad volatility curve "
         "(step function: last segment starts at or beyond the horizon)"),
    ])
    def test_non_number_exits_2_naming_the_key(self, tmp_path, capsys, line, message):
        # a list or null crashed with a TypeError (exit 1), a bool priced as 1.0 or 0.0,
        # and an infinite tau2 was blamed on energy.sigma
        collar = BASE_CONFIG.replace("product_call", "four_strike_collar") + (
            "payoff.kE_low = 90.0\npayoff.kI_low = 75.0\n")
        assert main(["price", "--config", write_config(tmp_path, collar), "--n", "2000"]) == 0
        path = write_config(tmp_path, collar + line + "\n", "bad.cfg")
        assert main(["price", "--config", path, "--n", "2000"]) == 2
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize("line,message", [
        ("energy.sigma = [[0.0, true]]", "key energy.sigma: bad volatility curve"),
        ("temperature.sigma = [[0.0, true]]", "key temperature.sigma: bad volatility curve"),
        ("tuning = [[0.0, true]]", "key tuning: bad tuning function"),
        ('payoff.g = {"knots": [[100.0, true]], "slopes": [0.0, 1.0]}',
         "key payoff.g: bad piecewise-linear spec"),
        ('payoff.h = {"knots": [[80.0, 0.0]], "slopes": [0.0, true]}',
         "key payoff.h: bad piecewise-linear spec"),
    ])
    def test_bool_in_a_list_exits_2_naming_the_key(self, tmp_path, capsys, line, message):
        # float() read the bool as 1.0: energy.sigma = [[0.0, true]] priced at sigma_E = 1.0
        sep = BASE_CONFIG.replace(
            "payoff.variant = product_call\npayoff.kE = 100.0\npayoff.kI = 100.0",
            'payoff.variant = separable\n'
            'payoff.g = {"knots": [[100.0, 0.0]], "slopes": [0.0, 1.0]}\n'
            'payoff.h = {"knots": [[80.0, 0.0]], "slopes": [0.0, 1.0]}')
        assert main(["price", "--config", write_config(tmp_path, sep), "--n", "2000"]) == 0
        path = write_config(tmp_path, sep + line + "\n", "bad.cfg")
        assert main(["price", "--config", path, "--n", "2000"]) == 2
        assert capsys.readouterr().err == message + " (expected a number, got True)\n"

    @pytest.mark.parametrize("line,message", [
        (f"rho = {HUGE}", f"key rho: expected a number, got {HUGE}"),
        (f"energy.f0 = {HUGE}", f"key energy.f0: expected a number, got {HUGE}"),
        (f"tau2 = {HUGE}", f"key tau2: expected a number, got {HUGE}"),
        (f"payoff.kE = {HUGE}", f"key payoff.kE: expected a number, got {HUGE}"),
        (f"payoff.alpha = {HUGE}", f"key payoff.alpha: expected a number, got {HUGE}"),
        (f"energy.sigma = {HUGE}", "key energy.sigma: bad volatility curve "
         f"(expected a number within float range, got {HUGE})"),
        (f"temperature.sigma = [[0.0, {HUGE}]]", "key temperature.sigma: bad volatility curve "
         f"(expected a number within float range, got {HUGE})"),
        (f"tuning = [[0.0, 2.0], [0.5, {HUGE}]]", "key tuning: bad tuning function "
         f"(expected a number within float range, got {HUGE})"),
    ], ids=["rho", "energy.f0", "tau2", "payoff.kE", "payoff.alpha", "energy.sigma",
            "temperature.sigma-segment", "tuning-segment"])
    def test_integer_beyond_float_range_exits_2_naming_the_key(self, tmp_path, capsys, line,
                                                               message):
        # float() raised OverflowError, which ended the run in a traceback (exit 1)
        collar = BASE_CONFIG.replace("product_call", "four_strike_collar") + (
            "payoff.kE_low = 90.0\npayoff.kI_low = 75.0\n")
        path = write_config(tmp_path, collar + line + "\n")
        assert main(["price", "--config", path, "--n", "2000"]) == 2
        assert capsys.readouterr().err == message + "\n"

    def test_value_json_cannot_convert_exits_2_naming_its_line_and_key(self, tmp_path, capsys):
        # json.loads raised a ValueError past the line: the run exited 2 with Python's
        # 4300-digit message alone
        text = BASE_CONFIG + "rho = 1" + "0" * 5000 + "\n"
        assert main(["price", "--config", write_config(tmp_path, text), "--n", "2000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"line {len(text.splitlines())}: key rho: ") and "4300" in err

    @pytest.mark.parametrize("line,key", [("sim.antithetc = true", "sim.antithetc"),
                                          ("payoff.alpha = 3.0", "payoff.alpha"),
                                          ("tau1 = 1.0", "tau1")])
    def test_unread_key_exits_2_naming_the_key(self, tmp_path, capsys, line, key):
        # a misspelt key ran without antithetic pairs; an alpha on a product call was
        # echoed into the header and the model hash but never applied; no dynamics
        # read a delivery window start, so tau1 is not a key
        path = write_config(tmp_path, BASE_CONFIG + line + "\n")
        assert main(["price", "--config", path, "--n", "2000"]) == 2
        assert capsys.readouterr().err == f"unused config key(s): {key}\n"

    def test_exponent_count_is_valid(self, tmp_path):
        out = tmp_path / "a.csv"
        text = BASE_CONFIG.replace("sim.n = 20000", "sim.n = 2e3")
        assert main(["price", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
        assert read_rows(out)[0]["n"] == "2000"

    def test_fractional_grid_count_exits_2_naming_the_flag(self, config_path, capsys):
        assert main(["converge", "--config", config_path, "--n-grid", "1000.7,2000.9"]) == 2
        assert capsys.readouterr().err.startswith("--n-grid")

    @pytest.mark.parametrize("flags,message", [
        (["--n-grid", "0,5"], "--n-grid: n_samples must be >= 1, got 0"),
        (["--antithetic", "--n-grid", "3,5"],
         "--n-grid: antithetic sampling pairs draws, so n_samples must be even"),
    ])
    def test_invalid_grid_count_exits_2_naming_the_flag(self, config_path, capsys, flags,
                                                        message):
        assert main(["converge", "--config", config_path, *flags]) == 2
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize("command", [["price"], ["converge", "--n-grid", "1000,2000"]])
    def test_odd_count_with_pairs_exits_2_for_every_command(self, tmp_path, capsys, command):
        # converge draws its grid's counts, not sim.n, but an invalid sim.* key is
        # refused by every command
        text = BASE_CONFIG.replace("sim.n = 20000", "sim.n = 20001") + "sim.antithetic = true\n"
        assert main([*command, "--config", write_config(tmp_path, text)]) == 2
        assert capsys.readouterr().err == (
            "key sim.n: antithetic sampling pairs draws, so n_samples must be even\n")


    @pytest.mark.parametrize("line,message", [
        ("no equals sign", "line {n}: expected 'key = value', got 'no equals sign'"),
        ("= 5", "line {n}: empty key"),
        ("correlation_mode = both",
         "key correlation_mode: expected one of ['payoff_mixing', 'sde_mixing'], got 'both'"),
        ("payoff.variant = straddle",
         "key payoff.variant: expected one of product_call, four_strike_collar, "
         "digital_product, separable; got 'straddle'"),
        ("sim.scheme = sobol",
         "key sim.scheme: unknown scheme 'sobol'; expected 'exact' or 'euler:STEPS'"),
        ("sim.antithetic = 1", "key sim.antithetic: expected true/false, got 1"),
        ("sim.scheme = euler:1048577",
         "key sim.scheme: euler_steps must be <= 2**20, got 1048577"),
    ])
    def test_bad_line_or_choice_exits_2_naming_it(self, tmp_path, capsys, line, message):
        text = BASE_CONFIG + line + "\n"
        assert main(["price", "--config", write_config(tmp_path, text), "--n", "2000"]) == 2
        n = len(text.splitlines())
        assert capsys.readouterr().err == message.format(n=n) + "\n"

    @pytest.mark.parametrize("value", ["[[100.0, 0.0]]", '{"slopes": [0.0, 1.0]}', "2.0"])
    def test_leg_that_is_not_a_knots_object_exits_2_naming_the_key(self, tmp_path, capsys,
                                                                   value):
        text = BASE_CONFIG.replace(
            "payoff.variant = product_call\npayoff.kE = 100.0\npayoff.kI = 100.0",
            f'payoff.variant = separable\npayoff.g = {value}\n'
            'payoff.h = {"knots": [[80.0, 0.0]], "slopes": [0.0, 1.0]}')
        assert main(["price", "--config", write_config(tmp_path, text), "--n", "2000"]) == 2
        assert capsys.readouterr().err == (
            'key payoff.g: expected an object like {"knots": [[x, y], ...], '
            '"slopes": [left, right]}\n')

    def test_bare_number_volatility_is_a_constant_curve(self, tmp_path):
        # only the echo of the key differs: the hash is of the built curve
        outs = []
        for sigma in ("[[0.0, 0.2]]", "0.2"):
            text = BASE_CONFIG.replace("energy.sigma = [[0.0, 0.2]]", f"energy.sigma = {sigma}")
            outs.append(tmp_path / f"{len(outs)}.csv")
            assert main(["greeks", "--config", write_config(tmp_path, text), "--all-variants",
                         "--oracle", "both", "--n", "2000", "--out", str(outs[-1])]) == 0
        curve, bare = (out.read_text().splitlines() for out in outs)
        assert "# energy.sigma = 0.2" in bare and len(curve) == len(bare)
        echo = "# energy.sigma = "
        assert ([l for l in curve if not l.startswith(echo)]
                == [l for l in bare if not l.startswith(echo)])

    @pytest.mark.parametrize("line,other,same", [
        ("energy.sigma = 0.2", "energy.sigma = [[0.0, 0.2]]", True),
        ("", "rate = 0.0", True),
        ("sim.n = 1e5", "sim.n = 100000", True),
        ("rho = 0.3", "rho = 0.0", False),
        # a literal pins the hash, so renaming a field of a class that holds the run cannot
        # move it
        ("tuning = uniform", "tuning = [[0.0, 1.0]]", "b273bc8e516c7c04"),
    ])
    def test_model_hash_is_of_the_run_not_its_spelling(self, tmp_path, line, other, same):
        # it hashed the echo, so an omitted rate and rate = 0.0 hashed differently
        hashes = []
        for text in (line, other):
            out = tmp_path / "price.json"
            path = write_config(tmp_path, BASE_CONFIG + text + "\n")
            assert main(["price", "--config", path, "--format", "json", "--out", str(out)]) == 0
            hashes.append(json.loads(out.read_text())["model_hash"])
        assert (hashes[0] == hashes[1]) is bool(same)
        if isinstance(same, str):
            assert hashes[0] == same

    def test_canonical_config_builds_the_same_run(self, tmp_path):
        # the model hash is of this form, so it has to hold the whole run
        for name, path in config_paths(tmp_path).items():
            run = build_run(load_config(str(path)))
            canonical = run.canonical()
            assert run.raw.keys() <= canonical.keys(), name
            back = build_run(json.loads(json.dumps(canonical)))
            assert ((back.model, back.payoff, back.tuning, back.sim)
                    == (run.model, run.payoff, run.tuning, run.sim)), name

    def test_empty_knots_exit_2_naming_the_key(self, tmp_path, capsys):
        text = BASE_CONFIG.replace(
            "payoff.variant = product_call\npayoff.kE = 100.0\npayoff.kI = 100.0",
            'payoff.variant = separable\npayoff.g = {"knots": [], "slopes": [0.0, 1.0]}\n'
            'payoff.h = {"knots": [[80.0, 0.0]], "slopes": [0.0, 1.0]}')
        assert main(["price", "--config", write_config(tmp_path, text), "--n", "2000"]) == 2
        assert capsys.readouterr().err == (
            "key payoff.g: bad piecewise-linear spec (need one y per knot)\n")


def test_cli_import_leaves_the_thread_pool_out():
    # concurrent.futures pulls in logging, a cost of every start that one thread never uses
    code = "import sys, quantogreeks.cli; assert 'concurrent.futures' not in sys.modules"
    src = Path(quantogreeks.cli.__file__).parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                   check=True, timeout=60)


@pytest.mark.parametrize("out", ["missing_dir/x.csv", "."])
def test_unwritable_out_exits_2_naming_the_path(config_path, tmp_path, capsys, out):
    path = str(tmp_path / out)
    assert main(["price", "--config", config_path, "--out", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"--out: cannot write {path}: ") and err.count("\n") == 1


def test_an_interrupted_run_leaves_the_out_file_whole(config_path, tmp_path, monkeypatch):
    # the file was opened with "w" before sampling, so a Ctrl-C emptied an earlier report
    out = tmp_path / "report.csv"
    out.write_text("previous report\n" * 1000)

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(quantogreeks.cli, "mc_price", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["price", "--config", config_path, "--out", str(out)])
    assert out.read_text() == "previous report\n" * 1000
    monkeypatch.undo()
    assert main(["price", "--config", config_path, "--out", str(out)]) == 0
    assert out.read_text().startswith("# command = price\n") and "previous" not in out.read_text()


# The module attributes that bench/run.py wraps by name (its TRACED) and those it replays
# each pass through (its REPLAYED). A refactor that routed a command around a traced
# binding would leave its layer reading 0 in the trace instead of failing, so each command,
# at 20,000 samples, must call exactly its own bindings.
_TRACED = ("cli.main", "cli.load_config", "cli.build_run", "cli.validate_model", "cli.mc_price",
           "cli.mc_estimates", "cli.fd_greek", "estimators.mc_price", "estimators.mc_greek",
           "cli.quad_greek", "estimators.quad_price", "cli.residual_risk",
           "cli.convergence_table", "estimators.evaluate", "estimators.weight_for")
_REPLAYED = ("simulate.iter_sample_blocks", "simulate.sample_block")
_CONFIG_CALLS = {"cli.main", "cli.load_config", "cli.build_run", "cli.validate_model"}
_WEIGHTED_PASS = {"estimators.evaluate", "estimators.weight_for"}
_GREEKS_CALLS = {"cli.mc_estimates", "cli.quad_greek", "estimators.quad_price", *_WEIGHTED_PASS}
TRACED_CALLS = {
    ("price", "--n", "20000"): {"cli.mc_price", "estimators.evaluate"},
    ("greeks", "--n", "20000", "--all-variants", "--oracle", "both"): _GREEKS_CALLS,
    ("greeks", "--n", "20000", "--variant", "CorrDeltaI", "--oracle", "both"): _GREEKS_CALLS,
    ("sweep-rho", "--n", "20000", "--grid=-0.5,0.5", "--greek", "dEdI"):
        {"cli.residual_risk", "estimators.mc_greek", *_WEIGHTED_PASS},
    ("converge", "--n-grid", "10000,20000"):
        {"cli.convergence_table", "estimators.mc_price", "estimators.evaluate"},
    ("converge", "--n-grid", "10000,20000", "--variant", "CorrCrossGamma_Conditional"):
        {"cli.convergence_table", "estimators.mc_greek", *_WEIGHTED_PASS},
}


@pytest.mark.parametrize("command", TRACED_CALLS, ids=" ".join)
def test_each_command_calls_the_bindings_the_benchmark_traces(config_path, monkeypatch,
                                                              command):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in _TRACED:
        module, attr = name.split(".")
        module = importlib.import_module(f"quantogreeks.{module}")
        monkeypatch.setattr(module, attr, counted(name, getattr(module, attr)))
    for name in _REPLAYED:
        module, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"quantogreeks.{module}"), attr)), name
    assert quantogreeks.cli.main([*command, "--config", config_path, "--out", os.devnull]) == 0
    # cli.fd_greek is in no command's set: cli imports it only for the trace
    assert set(calls) == _CONFIG_CALLS | TRACED_CALLS[command]
