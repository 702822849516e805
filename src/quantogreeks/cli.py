"""Command-line interface: price, greeks, sweep-rho, converge.

Exit codes: 0 success, 2 configuration/usage error, 3 model validation
failure. CSV output embeds the effective configuration and seed as comment
lines; identical configuration and seed produce byte-identical CSV for any
thread count. Wall-clock timings go to the ``seconds`` column of ``price``
and ``greeks`` only with ``--timing`` (and always to their JSON output),
keeping the default CSV deterministic; ``sweep-rho`` and ``converge`` rows
carry no timing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from dataclasses import replace

from .config import ConfigError, RunConfig, as_integer, build_run, load_config, parse_value
from .estimators import (
    GREEKS,
    GreekEstimate,
    convergence_table,
    fd_greek,  # noqa: F401  unused here; bench/run.py traces Monte Carlo passes by cli names
    mc_estimates,
    mc_price,
    quad_greek,
    residual_risk,
)
from .model import validate_model
from .payoffs import validate_payoff
from .weights import WEIGHTS, WeightVariant, greek_of, require_rho_supported

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _report(comment_lines: list[str], rows: list[dict], fmt: str, meta: dict) -> str:
    """The JSON or CSV report; a CSV header is the keys of the rows, in their order."""
    if fmt == "json":
        return json.dumps({**meta, "results": rows}, indent=2, sort_keys=True) + "\n"
    lines = [f"# {line}" for line in comment_lines]
    lines.append(",".join(rows[0]))
    lines += [",".join(_fmt(value) for value in row.values()) for row in rows]
    return "\n".join(lines) + "\n"


def _output(path: str | None):
    """stdout, or ``path`` opened to append; an unwritable path is a usage error.

    Appending checks the path without emptying it: a run stopped before its report
    leaves an earlier report whole.
    """
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "a", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ValueError(f"--out: cannot write {path}: {exc.strerror or exc}") from None


def _estimate_row(est: GreekEstimate, timing: bool, oracle_value: float | None = None) -> dict:
    row = {
        "variant": est.variant,
        "value": float(est.value),
        "stderr": float(est.stderr),
        "n": est.n,
        "seconds": float(est.seconds) if timing else None,
        "oracle_value": None if oracle_value is None else float(oracle_value),
        "z_score": None,
    }
    if oracle_value is not None and est.stderr > 0.0:
        row["z_score"] = abs(float(est.value) - float(oracle_value)) / float(est.stderr)
    return row


def _load_run(args) -> RunConfig:
    """The configured run; each sampling flag given overrides its ``sim.*`` key."""
    if args.command == "converge" and args.n is not None:  # refused before sim.n reads it
        raise ValueError("--n: converge draws the --n-grid sample counts; drop --n")
    raw = load_config(args.config)
    for key, text in (("sim.n", args.n), ("sim.seed", args.seed), ("sim.scheme", args.scheme)):
        if text is not None:
            try:
                raw[key] = parse_value(text)
            except ValueError as exc:  # JSON that Python cannot convert, such as a 5000-digit int
                raise ConfigError(f"key {key}: {exc}") from None
    if args.antithetic:
        raw["sim.antithetic"] = True
    return build_run(raw)


def _meta(run: RunConfig, command: str) -> tuple[list[str], dict]:
    config = run.effective()
    # the run as canonical config keys: not its spelling, nor its classes' field names
    digest = hashlib.sha256(json.dumps(run.canonical(), sort_keys=True).encode()).hexdigest()[:16]
    comments = [f"command = {command}", f"model_hash = {digest}",
                *(f"{key} = {json.dumps(value)}" for key, value in config.items())]
    return comments, {"command": command, "model_hash": digest, "seed": run.sim.seed,
                      "config": config}


# The former name of the payoff_mixing cross-gamma, kept as a spelling while the
# benchmark's converge command passes it; it goes once that command is repointed.
_OLD_NAMES = {"IndepCrossGamma": WeightVariant.CORR_CROSS_GAMMA_CONDITIONAL}


def _parse_variants(names: list[str] | None) -> list[WeightVariant]:
    try:
        return [_OLD_NAMES.get(name) or WeightVariant(name) for name in names or []]
    except ValueError:
        known = ", ".join(v.value for v in WeightVariant)
        raise ValueError(f"unknown variant in {names}; known: {known}") from None


def _parse_grid(text: str, convert, flag: str) -> list:
    try:
        grid = [convert(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag}: expected comma-separated numbers, got {text!r}") from None
    if not grid:
        raise ValueError(f"{flag}: empty grid")
    return grid


# Each command parses its own arguments, including the sample counts it will
# draw (raising ValueError on a usage error), and returns the computation of its
# report rows, run once the model has passed validation, and the run it echoes.


def _price(args, run: RunConfig):
    def compute():
        est = mc_price(run.model, run.payoff, run.tuning, run.sim, threads=args.threads)
        return [_estimate_row(est, args.timing)]

    return compute, run


def _greeks(args, run: RunConfig):
    variants = _parse_variants(args.variant)
    if args.all_variants:
        if variants:
            raise ValueError("greeks: pass --variant NAME or --all-variants, not both")
        variants = [v for v in WeightVariant if WEIGHTS[v].mode is run.model.correlation_mode]
    elif not variants:
        raise ValueError("greeks: pass --variant NAME or --all-variants")
    for variant in variants:
        require_rho_supported(variant, run.model)

    def compute():
        greeks = sorted({greek_of(v) for v in variants})
        fd_greeks = greeks if args.oracle in ("fd", "both") else []
        estimates = mc_estimates(run.model, run.payoff, run.tuning, variants, run.sim,
                                 threads=args.threads, fd_greeks=fd_greeks)
        quad = {which: quad_greek(run.model, run.payoff, which)
                for which in greeks if args.oracle in ("quad", "both")}
        rows = [_estimate_row(estimates[v.value], args.timing, quad.get(greek_of(v)))
                for v in variants]
        rows += [_estimate_row(GreekEstimate(value, 0.0, None, f"Quad_{which}", None),
                               timing=False) for which, value in quad.items()]
        return rows + [_estimate_row(estimates[f"FD_{which}"], args.timing)
                       for which in fd_greeks]

    return compute, run


def _sweep_rho(args, run: RunConfig):
    grid = _parse_grid(args.grid, float, "--grid")
    if any(not abs(r) < 1.0 for r in grid):
        raise ValueError(f"--grid: correlations must lie strictly inside (-1, 1), got {grid}")

    def compute():
        return residual_risk(run.model, run.payoff, run.tuning, args.greek, run.sim, grid,
                             threads=args.threads)

    return compute, run


def _converge(args, run: RunConfig):
    variants = _parse_variants(args.variant)
    sizes = _parse_grid(args.n_grid, lambda tok: as_integer(parse_value(tok), "--n-grid"),
                        "--n-grid")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"--n-grid: must be strictly increasing, got {sizes}")
    try:
        sims = [replace(run.sim, n_samples=n) for n in sizes]
    except ValueError as exc:
        raise ValueError(f"--n-grid: {exc}") from None
    if len(variants) > 1:
        raise ValueError(f"--variant: this command takes one variant, got {len(variants)}")
    variant = variants[0] if variants else None
    if variant is not None:
        require_rho_supported(variant, run.model)
    run = replace(run, sim=sims[-1])  # echo what is drawn

    def compute():
        return convergence_table(run.model, run.payoff, run.tuning, variant, run.sim, sizes,
                                 threads=args.threads)

    return compute, run


def _run_command(args) -> int:
    """Load, parse arguments, validate, run, report: the path every command shares.

    Usage errors raise ValueError (exit 2) before the model is validated
    (exit 3), so a bad invocation never reaches the engine. An unwritable
    ``--out`` is a usage error found after validation and before the run.
    """
    run = _load_run(args)
    if args.threads < 1:
        raise ValueError(f"--threads: must be >= 1, got {args.threads}")
    compute, run = args.handler(args, run)
    bad = validate_model(run.model, run.tuning) + validate_payoff(run.payoff)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return EXIT_VALIDATION
    args.timing = args.timing or args.format == "json"  # JSON always carries timings
    comments, meta = _meta(run, args.command)
    with _output(args.out) as fh:
        report = _report(comments, compute(), args.format, meta)
        if args.out is not None and os.path.isfile(args.out):  # not a device such as /dev/null
            fh.truncate(0)
        fh.write(report)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the key=value run configuration")
    common.add_argument("--n", help="override sim.n, the sample count")
    common.add_argument("--seed", help="override sim.seed, an integer in [0, 2**128)")
    common.add_argument("--antithetic", action="store_true", help="set sim.antithetic = true")
    common.add_argument("--scheme", help="override sim.scheme: exact | euler:STEPS")
    common.add_argument("--threads", type=int, default=1, help="worker threads (results identical)")
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--timing", action="store_true",
                        help="fill the seconds column of price and greeks CSV (breaks "
                             "byte-reproducibility); sweep-rho and converge carry no timing")

    parser = argparse.ArgumentParser(prog="quantogreeks",
                                     description="Quanto option pricing and hedge sensitivities")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", parents=[common], help="Monte Carlo price with standard error")
    p.set_defaults(handler=_price)

    g = sub.add_parser("greeks", parents=[common], help="weighted Monte Carlo Greeks")
    g.add_argument("--variant", action="append", default=None,
                   help="estimator variant (repeatable)")
    g.add_argument("--all-variants", action="store_true", help="run every weight of the model's mode")
    g.add_argument("--oracle", choices=("fd", "quad", "both"), default=None,
                   help="append oracle rows and conformance z-scores")
    g.set_defaults(handler=_greeks)

    s = sub.add_parser("sweep-rho", parents=[common], help="residual-risk table over a rho grid")
    s.add_argument("--grid", required=True, help="comma-separated correlations in (-1, 1)")
    s.add_argument("--greek", choices=GREEKS, default="dE")
    s.set_defaults(handler=_sweep_rho)

    c = sub.add_parser("converge", parents=[common], help="estimates along a sample-size grid")
    c.add_argument("--n-grid", required=True, help="comma-separated increasing sample counts")
    c.add_argument("--variant", action="append", default=None,
                   help="Greek variant (one; default: price)")
    c.set_defaults(handler=_converge)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return _run_command(args)
    except (ConfigError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
