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
import sys
from dataclasses import replace

from .config import ConfigError, RunConfig, as_integer, build_run, load_config
from .estimators import (
    GREEKS,
    GreekEstimate,
    _sweep_variant,
    convergence_table,
    fd_greek,  # noqa: F401  unused here; bench/run.py traces Monte Carlo passes by cli names
    mc_estimates,
    mc_price,
    quad_greek,
    residual_risk,
)
from .model import validate_model
from .payoffs import validate_payoff
from .simulate import SimScheme, _check_config
from .weights import WEIGHTS, WeightVariant, greek_of, require_rho_supported

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3

CSV_HEADER = ("variant", "value", "stderr", "n", "seconds", "oracle_value", "z_score")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _report(comment_lines: list[str], header: tuple[str, ...], rows: list[dict], fmt: str,
            meta: dict) -> str:
    if fmt == "json":
        return json.dumps({**meta, "results": rows}, indent=2, sort_keys=True) + "\n"
    lines = [f"# {line}" for line in comment_lines]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(row.get(col)) for col in header))
    return "\n".join(lines) + "\n"


def _output(path: str | None):
    """stdout, or ``path`` opened for writing; an unwritable path is a usage error."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
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
    raw = load_config(args.config)
    run = build_run(raw)
    sim = run.sim
    if args.n is not None:
        sim = replace(sim, n_samples=args.n)
    if args.seed is not None:
        sim = replace(sim, seed=args.seed)
    if args.antithetic:
        sim = replace(sim, antithetic=True)
    if args.scheme is not None:
        sim = replace(sim, scheme=SimScheme.parse(args.scheme))
    return replace(run, sim=sim)


def _meta(run: RunConfig, command: str) -> tuple[list[str], dict]:
    echo = run.echo_lines()
    # the built run, not its spelling: energy.sigma = 0.2 and [[0.0, 0.2]] hash alike
    built = repr((run.model, run.payoff, run.tuning, run.sim))
    digest = hashlib.sha256(built.encode()).hexdigest()[:16]
    comments = [f"command = {command}", f"model_hash = {digest}", *echo]
    meta = {
        "command": command,
        "model_hash": digest,
        "seed": run.sim.seed,
        "config": {line.split(" = ")[0]: json.loads(line.split(" = ", 1)[1]) for line in echo},
    }
    return comments, meta


# Former names of the payoff_mixing weights, kept as spellings while the benchmark's
# converge command passes IndepCrossGamma; they go once it is repointed.
_OLD_NAMES = {
    "IndepDeltaE": WeightVariant.CORR_DELTA_E_CONDITIONAL,
    "IndepDeltaI": WeightVariant.CORR_DELTA_I,
    "IndepCrossGamma": WeightVariant.CORR_CROSS_GAMMA_CONDITIONAL,
}


def _parse_variants(names: list[str] | None) -> list[WeightVariant]:
    try:
        return [_OLD_NAMES.get(name) or WeightVariant(name) for name in names or []]
    except ValueError:
        known = ", ".join(v.value for v in WeightVariant)
        raise ValueError(f"unknown variant in {names}; known: {known}") from None


def _single_variant(variants: list[WeightVariant]) -> WeightVariant | None:
    if len(variants) > 1:
        raise ValueError(f"--variant: this command takes one variant, got {len(variants)}")
    return variants[0] if variants else None


def _parse_grid(text: str, convert, flag: str, what: str) -> list:
    try:
        grid = [convert(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag}: expected comma-separated {what}, got {text!r}") from None
    if not grid:
        raise ValueError(f"{flag}: empty grid")
    return grid


# Each command parses its own arguments, including the sample counts it will
# draw (raising ValueError on a usage error), and returns its CSV header, the
# computation to run once the model has passed validation, and the run it echoes.


def _price(args, run: RunConfig, variants):
    _check_config(run.sim)

    def compute():
        est = mc_price(run.model, run.payoff, run.sim, run.tuning, threads=args.threads)
        return [_estimate_row(est, args.timing)]

    return CSV_HEADER, compute, run


def _greeks(args, run: RunConfig, variants):
    _check_config(run.sim)
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
        oracle_values: dict[str, float] = {}
        oracle_rows: list[dict] = []
        if args.oracle in ("quad", "both"):
            for which in greeks:
                value = quad_greek(run.model, run.payoff, which)
                oracle_values[which] = value
                oracle_rows.append({
                    "variant": f"Quad_{which}", "value": value, "stderr": 0.0,
                    "n": None, "seconds": None, "oracle_value": None, "z_score": None,
                })
        oracle_rows += [_estimate_row(estimates[f"FD_{which}"], args.timing)
                        for which in fd_greeks]
        rows = [
            _estimate_row(estimates[v.value], args.timing, oracle_values.get(greek_of(v)))
            for v in variants
        ]
        return rows + oracle_rows

    return CSV_HEADER, compute, run


def _sweep_rho(args, run: RunConfig, variants):
    _check_config(run.sim)
    grid = _parse_grid(args.grid, float, "--grid", "floats")
    if any(not abs(r) < 1.0 for r in grid):
        raise ValueError(f"--grid: correlations must lie strictly inside (-1, 1), got {grid}")
    variant = _sweep_variant(args.greek, _single_variant(variants), run.model)
    for rho in grid:
        require_rho_supported(variant, replace(run.model, rho=rho))

    def compute():
        return residual_risk(run.model, run.payoff, run.tuning, grid, run.sim,
                             variant=variant, which=args.greek, threads=args.threads)

    return ("rho", "delta_corr", "delta_ind", "abs_diff", "stderr"), compute, run


def _converge(args, run: RunConfig, variants):
    if args.n is not None:
        raise ValueError("--n: converge draws the --n-grid sample counts; drop --n")
    sizes = _parse_grid(args.n_grid, lambda tok: as_integer(float(tok), "--n-grid"),
                        "--n-grid", "counts")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"--n-grid: must be strictly increasing, got {sizes}")
    for n in sizes:
        _check_config(replace(run.sim, n_samples=n))
    variant = _single_variant(variants)
    if variant is not None:
        require_rho_supported(variant, run.model)
    run = replace(run, sim=replace(run.sim, n_samples=sizes[-1]))  # echo what is drawn

    def compute():
        return convergence_table(run.model, run.payoff, run.tuning, variant, run.sim, sizes,
                                 threads=args.threads)

    return ("n", "value", "stderr"), compute, run


def _run_command(args) -> int:
    """Load, parse arguments, validate, run, report: the path every command shares.

    Usage errors raise ValueError (exit 2) before the model is validated
    (exit 3), so a bad invocation never reaches the engine. An unwritable
    ``--out`` is a usage error found after validation and before the run.
    """
    run = _load_run(args)
    if args.threads < 1:
        raise ValueError(f"--threads: must be >= 1, got {args.threads}")
    variants = _parse_variants(getattr(args, "variant", None))
    header, compute, run = args.handler(args, run, variants)
    bad = validate_model(run.model, run.tuning) + validate_payoff(run.payoff)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return EXIT_VALIDATION
    args.timing = args.timing or args.format == "json"  # JSON always carries timings
    comments, meta = _meta(run, args.command)
    with _output(args.out) as fh:
        fh.write(_report(comments, header, compute(), args.format, meta))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the key=value run configuration")
    common.add_argument("--n", type=int, default=None, help="override sample count")
    common.add_argument("--seed", type=int, default=None, help="override the 64-bit seed")
    common.add_argument("--antithetic", action="store_true", help="enable antithetic pairing")
    common.add_argument("--scheme", default=None, help="sampling scheme: exact | euler:STEPS")
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
    s.add_argument("--variant", action="append", default=None,
                   help="correlated variant for the sweep (one)")
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
