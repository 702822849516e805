import json
from pathlib import Path

import pytest

from quantogreeks import mc_price, quad_price
from quantogreeks.cli import main
from quantogreeks.config import build_run, parse_config_text

BASE_CONFIG = """
# symmetric at-the-money product call
energy.f0 = 100.0
energy.sigma = [[0.0, 0.2]]
temperature.f0 = 100.0
temperature.sigma = [[0.0, 0.2]]
tau1 = 1.0
tau2 = 1.0
rho = 0.0
payoff.variant = product_call
payoff.kE = 100.0
payoff.kI = 100.0
sim.n = 20000
sim.seed = 99
"""


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
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
    lines = [l for l in open(path).read().splitlines() if l and not l.startswith("#")]
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
        text = open(out).read()
        assert "# sim.seed = 99" in text
        assert "# rho = 0.0" in text
        assert "# model_hash = " in text

    def test_json_format_carries_metadata(self, config_path, tmp_path):
        out = tmp_path / "price.json"
        main(["price", "--config", config_path, "--out", str(out), "--format", "json"])
        doc = json.loads(open(out).read())
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
        (["greeks"], "IndepDeltaE", "CorrDeltaE_Conditional"),
        (["greeks"], "IndepDeltaI", "CorrDeltaI"),
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

    def test_unknown_variant_exits_2(self, config_path, capsys):
        assert main(["greeks", "--config", config_path, "--variant", "NoSuchWeight"]) == 2
        assert "NoSuchWeight" in capsys.readouterr().err

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

    def test_non_numeric_grid_exits_2(self, config_path):
        assert main(["sweep-rho", "--config", config_path, "--grid", "a,b"]) == 2

    @pytest.mark.parametrize("greek,variant", [("dE", "CorrCrossGamma_Conditional"),
                                               ("dI", "CorrDeltaE_Conditional")])
    def test_variant_of_another_greek_exits_2(self, config_path, capsys, greek, variant):
        # its rows would subtract the rho = 0 estimate of one Greek from another
        assert main(["sweep-rho", "--config", config_path, "--grid", "0.3", "--greek", greek,
                     "--variant", variant]) == 2
        assert f"{variant} estimates" in capsys.readouterr().err

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


@pytest.mark.parametrize("command", [["sweep-rho", "--grid", "0.3"],
                                     ["converge", "--n-grid", "1e3,2e3"]])
@pytest.mark.parametrize("second", ["CorrDeltaE_MatrixInverse", "NoSuch"])
def test_single_variant_commands_reject_a_second_variant(config_path, capsys, command, second):
    argv = [*command, "--config", config_path, "--variant", "CorrDeltaE_Conditional",
            "--variant", second]
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
def test_usage_error_beats_model_validation(tmp_path, usage_error):
    path = write_config(tmp_path, BASE_CONFIG.replace(
        "energy.sigma = [[0.0, 0.2]]", "energy.sigma = [[0.0, 0.0]]"))
    assert main(["price", "--config", path]) == 3
    assert main([*usage_error, "--config", path]) == 2


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
    ("tau1 = 0.0", "energy: delivery window must satisfy 0 < start <= end, got [0.0, 1.0]\n"
     "temperature: delivery window must satisfy 0 < start <= end, got [0.0, 1.0]"),
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
        mc_price(run.model, run.payoff, run.sim)
    with pytest.raises(ValueError, match="must be finite"):
        quad_price(run.model, run.payoff)
    assert main(["price", "--config", write_config(tmp_path, text)]) == 3
    assert "must be finite" in capsys.readouterr().err


class TestReproducibility:
    def test_two_runs_byte_identical(self, config_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["price", "--config", config_path, "--out", str(a)])
        main(["price", "--config", config_path, "--out", str(b)])
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_thread_count_does_not_change_bytes(self, config_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["greeks", "--config", config_path, "--all-variants", "--out", str(a),
              "--threads", "1", "--n", "140000"])
        main(["greeks", "--config", config_path, "--all-variants", "--out", str(b),
              "--threads", "4", "--n", "140000"])
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_flag_overrides_enter_the_echo(self, config_path, tmp_path):
        out = tmp_path / "a.csv"
        main(["price", "--config", config_path, "--out", str(out), "--seed", "123",
              "--n", "1000"])
        text = open(out).read()
        assert "# sim.seed = 123" in text
        assert "# sim.n = 1000" in text


class TestSchemeAndFlags:
    def test_euler_scheme_flag(self, config_path, tmp_path):
        out = tmp_path / "a.csv"
        assert main(["price", "--config", config_path, "--scheme", "euler:16",
                     "--n", "10000", "--out", str(out)]) == 0
        assert "# sim.scheme = \"euler:16\"" in open(out).read()

    @pytest.mark.parametrize("scheme", ["sobol", "euler:abc", "euler:1.5", "euler:"])
    def test_bad_scheme_exits_2(self, config_path, capsys, scheme):
        assert main(["price", "--config", config_path, "--scheme", scheme]) == 2
        assert capsys.readouterr().err == (f"unknown scheme {scheme!r}; "
                                           "expected 'exact' or 'euler:STEPS'\n")

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

    @pytest.mark.parametrize("line,message", [
        ("rate = [1, 2]", "key rate: expected a number, got [1, 2]"),
        ('rate = "abc"', "key rate: expected a number, got 'abc'"),
        ('payoff.alpha = {"a": 1}', "key payoff.alpha: expected a number, got {'a': 1}"),
        ("energy.f0 = true", "key energy.f0: expected a number, got True"),
        ("temperature.f0 = null", "key temperature.f0: expected a number, got None"),
        ("tau1 = true", "key tau1: expected a number, got True"),
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

    @pytest.mark.parametrize("line,key", [("sim.antithetc = true", "sim.antithetc"),
                                          ("payoff.alpha = 3.0", "payoff.alpha")])
    def test_unread_key_exits_2_naming_the_key(self, tmp_path, capsys, line, key):
        # a misspelt key ran without antithetic pairs; an alpha on a product call was
        # echoed into the header and the model hash but never applied
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
        curve, bare = (open(out).read().splitlines() for out in outs)
        assert "# energy.sigma = 0.2" in bare and len(curve) == len(bare)
        echo = "# energy.sigma = "
        assert ([l for l in curve if not l.startswith(echo)]
                == [l for l in bare if not l.startswith(echo)])

    @pytest.mark.parametrize("line,other,same", [
        ("energy.sigma = 0.2", "energy.sigma = [[0.0, 0.2]]", True),
        ("", "rate = 0.0", True),
        ("sim.n = 1e5", "sim.n = 100000", True),
        ("rho = 0.3", "rho = 0.0", False),
    ])
    def test_model_hash_is_of_the_run_not_its_spelling(self, tmp_path, line, other, same):
        # it hashed the echo, so an omitted rate and rate = 0.0 hashed differently
        hashes = []
        for text in (line, other):
            out = tmp_path / "price.json"
            path = write_config(tmp_path, BASE_CONFIG + text + "\n")
            assert main(["price", "--config", path, "--format", "json", "--out", str(out)]) == 0
            hashes.append(json.loads(out.read_text())["model_hash"])
        assert (hashes[0] == hashes[1]) is same

    def test_empty_knots_exit_2_naming_the_key(self, tmp_path, capsys):
        text = BASE_CONFIG.replace(
            "payoff.variant = product_call\npayoff.kE = 100.0\npayoff.kI = 100.0",
            'payoff.variant = separable\npayoff.g = {"knots": [], "slopes": [0.0, 1.0]}\n'
            'payoff.h = {"knots": [[80.0, 0.0]], "slopes": [0.0, 1.0]}')
        assert main(["price", "--config", write_config(tmp_path, text), "--n", "2000"]) == 2
        assert capsys.readouterr().err == (
            "key payoff.g: bad piecewise-linear spec (need one y per knot)\n")


@pytest.mark.parametrize("out", ["missing_dir/x.csv", "."])
def test_unwritable_out_exits_2_naming_the_path(config_path, tmp_path, capsys, out):
    path = str(tmp_path / out)
    assert main(["price", "--config", config_path, "--out", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"--out: cannot write {path}: ") and err.count("\n") == 1
