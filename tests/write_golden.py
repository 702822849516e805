"""Write ``tests/golden.json``: the SHA-256 of the output of a fixed matrix of CLI commands.

The matrix runs four commands (``price``, ``greeks --all-variants --oracle
both``, ``sweep-rho`` and ``converge``) on ``atm_independent.cfg``, its
``sde_mixing`` copy and ``correlated_collar.cfg``, each plain, antithetic
and on a 40-step log-Euler grid, at 20,000 samples and seed 3: 36 commands
through ``cli.main`` in-process. Two more run the ``sweep-rho`` command on an
``sde_mixing`` copy of the collar without pairs, plain and antithetic: two
terms, one with a put energy leg, whose scenario views run on the samples
where an energy leg is live.

Seventeen more run over several 65,536-sample blocks, so that a second worker
thread takes blocks of its own: 140,000 samples (three blocks) unless the
command says otherwise. Each pins a code path:

- the factored draw of ``price --scheme euler:250``;
- the two-segment collar's ``CorrDeltaI`` weight, and every collar variant
  with both oracles and pair means;
- the ``sde_mixing`` ``dEdI`` sweep of the ATM call, and the energy-live
  antithetic ``sde_mixing`` sweep of the collar;
- the ``sde_mixing`` price at rho = 0, which holds no driver field;
- block-prefix ``converge`` of the cross-gamma and of the price, whose rows
  end inside a block;
- the block-order merge of the moments: the price at 400,000 samples (seven
  blocks), plain on the ATM call and antithetic on its ``sde_mixing`` copy,
  and the price ``converge`` move if two workers' blocks merge in another
  order, where the three-block prices and the cross-gamma ``converge`` keep
  their bytes;
- the sparse finite-difference grid of the collar's cross-gamma;
- the rho < 0 corner swap of the collar's finite differences
  (``collar_neg.cfg``, rho = -0.4), with and without pairs;
- step legs on live samples (``digital.cfg``, a digital product).
- the rows of a second job group: a ten-point ``dEdI`` sweep, 11 jobs with
  its baseline, on the energy-live ``sde_mixing`` views of the ATM call, and
  antithetic on every sample of ``atm_independent.cfg``;
- job groups that read different payoff points: ``greeks`` with all six
  ``--variant`` weights and ``--oracle fd`` on ``atm_independent.cfg``, 9
  jobs at rho = 0, whose first group reads the base, the ``dE`` bumps and
  the cross-gamma's four corners and whose second the ``dI`` bumps.

Three more run ``greeks --all-variants --oracle both`` at 20,000 samples on
payoff code no other command runs: ``separable.cfg``, a piecewise-linear
separable payoff whose g has a dead region and whose h turns negative;
``collar_alpha.cfg``, the collar with ``payoff.alpha = 2.5``; and
``digital.cfg``, whose step legs then also run under quadrature.

Five more run with ``--format json`` at 20,000 samples: ``price``,
``greeks --all-variants --oracle both``, ``sweep-rho`` and ``converge`` on
``atm_independent.cfg``, and ``greeks --all-variants --oracle both`` on the
collar. A JSON report always carries wall-clock ``seconds``, so each is
hashed with every ``seconds`` value set to null.

``test_golden.py`` re-runs the matrix at one and two worker threads and
names every command whose digest moved.

Each report's ``model_hash`` is of the run written back as config keys, not of
the classes that hold it, so a change that moves no value, such as renaming a
field, must pass ``test_golden.py`` without regenerating this manifest.
Regenerate only with a change that moves report bytes on purpose, and name the
commands that moved and why in its change log entry::

    PYTHONPATH=src python tests/write_golden.py
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import tempfile
from pathlib import Path

from quantogreeks.cli import main
from quantogreeks.weights import WeightVariant

TESTS = Path(__file__).resolve().parent
CONFIGS = TESTS.parent / "configs"
MANIFEST = TESTS / "golden.json"

ATM, COLLAR = "atm_independent.cfg", "correlated_collar.cfg"
SDE_COPY = "atm_sde.cfg"  # atm_independent.cfg under sde_mixing
COLLAR_SDE_COPY = "collar_sde.cfg"  # correlated_collar.cfg under sde_mixing, without pairs

COMMANDS = (
    ("price",),
    ("greeks", "--all-variants", "--oracle", "both"),
    ("sweep-rho", "--greek", "dEdI", "--grid=-0.5,0.25,0.5"),
    ("converge", "--n-grid", "2,65538,100000"),
)
SAMPLING = ((), ("--antithetic",), ("--scheme", "euler:40"))
# ten scenarios and the rho = 0 baseline: 11 jobs, so a block runs two job groups
TEN_RHO = "--grid=-0.9,-0.7,-0.5,-0.3,-0.1,0.1,0.3,0.5,0.7,0.9"
BLOCKS = (
    (ATM, ("price", "--scheme", "euler:250")),
    (COLLAR, ("greeks", "--variant", "CorrDeltaI")),
    (COLLAR, ("greeks", "--all-variants", "--oracle", "both", "--antithetic")),
    (SDE_COPY, COMMANDS[2]),
    (COLLAR_SDE_COPY, (*COMMANDS[2], "--antithetic")),
    (SDE_COPY, ("price", "--antithetic")),
    (ATM, ("converge", "--n-grid", "1,65537,100000,200000",
           "--variant", "CorrCrossGamma_Conditional")),
    (COLLAR, ("greeks", "--variant", "CorrCrossGamma_Conditional", "--oracle", "fd")),
    ("collar_neg.cfg", ("greeks", "--all-variants", "--oracle", "fd")),
    ("collar_neg.cfg", ("greeks", "--all-variants", "--oracle", "fd", "--antithetic")),
    ("digital.cfg", ("greeks", "--all-variants", "--oracle", "fd")),
    (ATM, ("price", "--n", "400000")),
    (SDE_COPY, ("price", "--antithetic", "--n", "400000")),
    (ATM, ("converge", "--n-grid", "1,65537,100000,200000")),
    (SDE_COPY, ("sweep-rho", "--greek", "dEdI", TEN_RHO)),
    (ATM, ("sweep-rho", "--greek", "dEdI", TEN_RHO, "--antithetic")),
    (ATM, ("greeks", *(arg for v in WeightVariant for arg in ("--variant", v.value)),
           "--oracle", "fd")),
)
# payoff code no other command runs: a piecewise-linear separable payoff, a collar whose
# alpha is not 1 and the digital's step legs under quadrature
ORACLES = ("separable.cfg", "collar_alpha.cfg", "digital.cfg")
JSON = (*((ATM, command) for command in COMMANDS), (COLLAR, COMMANDS[1]))
SECONDS = re.compile(rb'"seconds": [^,\n]+')  # a JSON report's wall-clock timings


def _copy(source: str, directory: Path, name: str, *edits: tuple[str, str]) -> Path:
    """Write ``source`` with each (old, new) line edit to ``directory / name``."""
    text = (CONFIGS / source).read_text()
    for old, new in edits:
        if old not in text:
            raise ValueError(f"{source} has no line {old!r} for {name}")
        text = text.replace(old, new)
    (directory / name).write_text(text)
    return directory / name


def config_paths(directory: Path) -> dict[str, Path]:
    """Each configuration by file name, writing the edited copies into ``directory``."""
    unpaired = ("sim.antithetic = true\n", "sim.antithetic = false\n")
    return {
        ATM: CONFIGS / ATM,
        SDE_COPY: _copy(ATM, directory, SDE_COPY,
                        ("rho = 0.0\n", "rho = 0.0\ncorrelation_mode = sde_mixing\n")),
        COLLAR: CONFIGS / COLLAR,
        COLLAR_SDE_COPY: _copy(COLLAR, directory, COLLAR_SDE_COPY,
                               ("= payoff_mixing\n", "= sde_mixing\n"), unpaired),
        "collar_neg.cfg": _copy(COLLAR, directory, "collar_neg.cfg",
                                ("rho = 0.3\n", "rho = -0.4\n"), unpaired),
        "digital.cfg": _copy(ATM, directory, "digital.cfg",
                             ("= product_call\n", "= digital_product\n")),
        # g has a dead region below 100 and h turns negative above 104
        "separable.cfg": _copy(ATM, directory, "separable.cfg", (
            "payoff.variant = product_call\npayoff.kE = 100.0\npayoff.kI = 100.0\n",
            'payoff.variant = separable\n'
            'payoff.g = {"knots": [[100.0, 0.0]], "slopes": [0.0, 1.0]}\n'
            'payoff.h = {"knots": [[90.0, 5.0], [110.0, -2.0]], "slopes": [0.0, -0.5]}\n')),
        "collar_alpha.cfg": _copy(COLLAR, directory, "collar_alpha.cfg",
                                  ("payoff.alpha = 1.0\n", "payoff.alpha = 2.5\n")),
    }


def matrix(directory: Path) -> dict[str, list[str]]:
    """Each command's name (its command line with the configuration's file name) and argv."""
    paths = config_paths(directory)
    runs = [(config, (*command, *sampling), 20000) for config in (ATM, SDE_COPY, COLLAR)
            for command in COMMANDS for sampling in SAMPLING]
    runs += [(COLLAR_SDE_COPY, (*COMMANDS[2], *sampling), 20000) for sampling in SAMPLING[:2]]
    runs += [(config, command, 140000) for config, command in BLOCKS]
    runs += [(config, COMMANDS[1], 20000) for config in ORACLES]
    runs += [(config, (*command, "--format", "json"), 20000) for config, command in JSON]
    commands = {}
    for config, (command, *args), n in runs:
        if command != "converge" and "--n" not in args:  # converge draws its grid's counts
            args += ["--n", str(n)]
        args += ["--seed", "3"]
        commands[" ".join([command, "--config", config, *args])] = [
            command, "--config", str(paths[config]), *args]
    return commands


def digests(directory: Path, threads: int = 1) -> dict[str, str]:
    """SHA-256 of each command's output at ``threads`` workers, or its exit status.

    A JSON report is hashed with every ``seconds`` value set to null.
    """
    result = {}
    out = directory / "out.csv"
    for name, argv in matrix(directory).items():
        status = main([*argv, "--threads", str(threads), "--out", str(out)])
        result[name] = (hashlib.sha256(SECONDS.sub(b'"seconds": null', out.read_bytes()))
                        .hexdigest() if status == 0 else f"exit {status}")
    return result


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        manifest = digests(Path(tmp))
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(manifest)} digests to {MANIFEST}", file=sys.stderr)
