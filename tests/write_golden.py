"""Write ``tests/golden.json``: the SHA-256 of the CSV output of a fixed matrix of CLI commands.

The matrix runs four commands (``price``, ``greeks --all-variants --oracle
both``, ``sweep-rho`` and ``converge``) on ``atm_independent.cfg``, its
``sde_mixing`` copy and ``correlated_collar.cfg``, each plain, antithetic
and on a 40-step log-Euler grid, at 20,000 samples and seed 3: 36 commands
through ``cli.main`` in-process. Two more run the ``sweep-rho`` command on an
``sde_mixing`` copy of the collar without pairs, plain and antithetic: two
terms, one with a put energy leg, whose scenario views run on the samples
where an energy leg is live. ``test_golden.py`` re-runs the matrix and names
every command whose digest moved.

Regenerate only with a change that moves CSV bytes on purpose, and name the
commands that moved and why in its change log entry::

    PYTHONPATH=src python tests/write_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from quantogreeks.cli import main

TESTS = Path(__file__).resolve().parent
CONFIGS = TESTS.parent / "configs"
MANIFEST = TESTS / "golden.json"

COMMANDS = (
    ("price",),
    ("greeks", "--all-variants", "--oracle", "both"),
    ("sweep-rho", "--greek", "dEdI", "--grid=-0.5,0.25,0.5"),
    ("converge", "--n-grid", "2,65538,100000"),  # draws its grid's counts, so takes no --n
)
SAMPLING = ((), ("--antithetic",), ("--scheme", "euler:40"))
SDE_COPY = "atm_sde.cfg"  # atm_independent.cfg under sde_mixing
COLLAR_SDE_COPY = "collar_sde.cfg"  # correlated_collar.cfg under sde_mixing, without pairs


def config_paths(directory: Path) -> list[Path]:
    """The matrix's configurations, writing the ``sde_mixing`` copies into ``directory``.

    The collar's ``sde_mixing`` copy is last; only the sweep runs on it.
    """
    atm, collar = CONFIGS / "atm_independent.cfg", CONFIGS / "correlated_collar.cfg"
    sde, collar_sde = directory / SDE_COPY, directory / COLLAR_SDE_COPY
    sde.write_text(atm.read_text().replace("rho = 0.0\n",
                                           "rho = 0.0\ncorrelation_mode = sde_mixing\n"))
    collar_sde.write_text(collar.read_text()
                          .replace("= payoff_mixing\n", "= sde_mixing\n")
                          .replace("sim.antithetic = true\n", "sim.antithetic = false\n"))
    return [atm, sde, collar, collar_sde]


def matrix(directory: Path) -> dict[str, list[str]]:
    """Each command's name (its command line with the configuration's file name) and argv."""
    commands = {}
    *configs, collar_sde = config_paths(directory)
    runs = [(config, command, sampling) for config in configs for command in COMMANDS
            for sampling in SAMPLING]
    runs += [(collar_sde, COMMANDS[2], sampling) for sampling in SAMPLING[:2]]
    for config, command, sampling in runs:
        n = () if command[0] == "converge" else ("--n", "20000")
        args = [*command[1:], *sampling, *n, "--seed", "3"]
        name = " ".join([command[0], "--config", config.name, *args])
        commands[name] = [command[0], "--config", str(config), *args]
    return commands


def digests(directory: Path) -> dict[str, str]:
    """SHA-256 of each command's CSV output, or its exit status if it fails."""
    result = {}
    out = directory / "out.csv"
    for name, argv in matrix(directory).items():
        status = main([*argv, "--out", str(out)])
        result[name] = (hashlib.sha256(out.read_bytes()).hexdigest() if status == 0
                        else f"exit {status}")
    return result


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        manifest = digests(Path(tmp))
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(manifest)} digests to {MANIFEST}", file=sys.stderr)
