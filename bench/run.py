#!/usr/bin/env python3
"""Benchmark for quantogreeks: three CLI workloads, end-to-end metrics, per-module trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It imports the package from ``src/`` beside
this directory and drives ``quantogreeks.cli.main`` in-process, from one
process, at ``--threads 1``. The workload configs are generated from
``configs/*.cfg`` into ``.bench_build/bench/`` and the seed reaches the CLI as
``--seed``. With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it adds a separate traced pass and reports the per-layer
metrics. Both run the correctness checks. Details go to standard error; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Metric definitions and the
layer-to-end-to-end mapping are in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
import inspect
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
import traceback
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORK = ROOT / ".bench_build" / "bench"

# |estimate - quadrature| <= Z_MAX * stderr. Looser than the tests' 3.0
# because every run checks about twenty rows on two seeds; the known defect
# sits at z >= 7.5, so it still shows.
Z_MAX = 4.0
# The tail timing is the highest percentile with ten timings beyond it;
# 13 timings make it the third fastest rather than the fastest.
MIN_SAMPLES = 13
SETUP_REPEATS = 7
TRACE_REPEATS = 3
# The held-out seed runs the same checks as --seed but is never the seed
# a change is tuned on.
HELDOUT_OFFSET = 1_000_003


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``--config``, ``--seed`` and ``--threads`` are added per run."""

    argv: tuple[str, ...]
    config: str  # generated file under WORK
    greek: str = ""  # sensitivity the sweep and converge rows estimate
    known_defect: str = ""  # oracle failures here are a known program defect


@dataclass(frozen=True)
class Workload:
    commands: tuple[Command, ...]
    headline: tuple[int, str, str, str]  # command index, key column, key, value column


# Generated config name -> (source under configs/, extra lines).
GENERATED = {
    "collar.cfg": ("correlated_collar.cfg", ""),
    "atm.cfg": ("atm_independent.cfg", ""),
    "atm_sde.cfg": ("atm_independent.cfg", "correlation_mode = sde_mixing\n"),
}

SWEEP_GRID = (-0.5, -0.25, 0.25, 0.5)
CONVERGE_GRID = (100_000, 200_000, 400_000, 800_000)


def _sweep(config: str, known_defect: str = "") -> Command:
    grid = ",".join(str(r) for r in SWEEP_GRID)
    return Command(("sweep-rho", f"--grid={grid}", "--greek", "dEdI", "--n", "1000000"),
                   config, "dEdI", known_defect)


WORKLOADS = {
    "greeks_collar": Workload(
        (Command(("greeks", "--all-variants", "--oracle", "both", "--n", "1000000"),
                 "collar.cfg"),),
        (0, "variant", "CorrCrossGamma_Conditional", "value")),
    "euler_price": Workload(
        (Command(("price", "--scheme", "euler:250", "--n", "200000"), "atm.cfg"),),
        (0, "variant", "Price", "value")),
    "scenario_sweep": Workload(
        (_sweep("atm.cfg"),
         _sweep("atm_sde.cfg", known_defect="ROADMAP item 2: dEdI is wrong under sde_mixing"),
         Command(("converge", "--n-grid", ",".join(str(n) for n in CONVERGE_GRID),
                  "--variant", "IndepCrossGamma"), "atm.cfg", "dEdI")),
        (0, "rho", "0.5", "delta_corr")),
}

# Rows of the greeks command that track quadrature under payoff_mixing.
GREEKS_CONFORMANT = (
    ("CorrDeltaE_Conditional", "dE"),
    ("CorrDeltaI", "dI"),
    ("CorrCrossGamma_Conditional", "dEdI"),
    ("FD_dE", "dE"),
    ("FD_dI", "dI"),
    ("FD_dEdI", "dEdI"),
)


def write_configs(workload: Workload) -> None:
    WORK.mkdir(parents=True, exist_ok=True)
    for name in sorted({c.config for c in workload.commands}):
        source, extra = GENERATED[name]
        text = (CONFIGS / source).read_text(encoding="utf-8")
        (WORK / name).write_text(text + "\n" + extra, encoding="utf-8")


# ---------------------------------------------------------------------------
# Running the CLI
# ---------------------------------------------------------------------------


class Runner:
    """Invokes the workload's commands; keeps each distinct output per (command, seed, threads)."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.bad_exit: dict[int, int] = defaultdict(int)
        self.outputs: dict[tuple[int, int, int], list[str]] = defaultdict(list)

    def run(self, workload: Workload, seed: int, threads: int = 1) -> float:
        t0 = time.perf_counter()
        for i, cmd in enumerate(workload.commands):
            argv = [*cmd.argv, "--config", str(WORK / cmd.config),
                    "--seed", str(seed), "--threads", str(threads)]
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = self.cli.main(argv)
            except Exception:  # a crash is a failed operation, not the end of the benchmark
                traceback.print_exc()
                rc = None
            self.attempted += 1
            if rc != 0:
                self.failed += 1
                self.bad_exit[i] += 1
            seen = self.outputs[(i, seed, threads)]
            if buf.getvalue() not in seen:
                seen.append(buf.getvalue())
        return time.perf_counter() - t0

    def text(self, index: int, seed: int) -> str:
        return self.outputs[(index, seed, 1)][0]


# A shared host's speed can drift by tens of percent over minutes, and then
# raw medians of separate runs disagree by more than any useful bound. A fixed
# numpy kernel with the engine's op mix (Philox normals, small matmuls, exp,
# payoff products and sums, plus larger draws for memory traffic) runs between
# consecutive timings. Each timing is divided by the mean kernel time on its
# two sides and multiplied by REF_SECONDS, the kernel's typical time on the
# machine in bench/README.md. Raw timings go to standard error.
REF_SECONDS = 0.2


def reference_kernel() -> float:
    import numpy as np

    t0 = time.perf_counter()
    sig = np.array([0.15, 0.3, 0.2])
    sqrt_dt = np.sqrt(np.array([0.5, 0.25, 0.25]))
    for block in range(16):
        z = np.random.Generator(np.random.Philox(key=7, counter=block << 128)
                                ).standard_normal((32768, 3, 2))
        dw = z[:, :, 0] * sqrt_dt
        fE = 100.0 * np.exp(dw @ sig - 0.03)
        fI = 60.0 * np.exp(z[:, :, 1] @ (sig * sqrt_dt))
        pay = np.maximum(fE - 110.0, 0.0) * np.maximum(fI - 70.0, 0.0)
        for _ in range(6):
            v = pay * (dw @ sig)
            float(v.sum()), float(np.dot(v, v))
    weights = np.full(8, 0.1)
    for block in range(16, 32):  # 2 MB draws: memory traffic below the workloads' peak RSS
        z = np.random.Generator(np.random.Philox(key=7, counter=block << 128)
                                ).standard_normal((2, 16384, 8))
        float((z[0] @ weights).sum() + (z[1] @ weights).sum())
    return time.perf_counter() - t0


def interleaved(measure, done) -> tuple[list[float], list[float]]:
    """Raw timings of ``measure()`` until ``done(raw)``, and the same scaled to REF_SECONDS."""
    raw: list[float] = []
    kernel = [reference_kernel()]
    while not done(raw):
        raw.append(measure())
        kernel.append(reference_kernel())
    log(f"raw timings {[round(t, 4) for t in raw]}, kernel {[round(k, 4) for k in kernel]}")
    scaled = [t * REF_SECONDS / (0.5 * (a + b)) for t, a, b in zip(raw, kernel, kernel[1:])]
    return raw, scaled


def timed_loop(runner: Runner, workload: Workload, seed: int, seconds: float
               ) -> tuple[list[float], list[float]]:
    """Warm runs for ``seconds``, extended up to 3x to reach MIN_SAMPLES timings."""
    start = time.perf_counter()

    def done(raw: list[float]) -> bool:
        elapsed = time.perf_counter() - start
        return elapsed >= seconds and (len(raw) >= MIN_SAMPLES or elapsed >= 3 * seconds)

    return interleaved(lambda: runner.run(workload, seed), done)


SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import quantogreeks.cli
from quantogreeks.config import build_run, load_config
from quantogreeks.model import validate_model
from quantogreeks.payoffs import validate_payoff
for path in sys.argv[2:]:
    run = build_run(load_config(path))
    validate_model(run.model, run.tuning)
    validate_payoff(run.payoff)
print(time.perf_counter() - t0)
"""


def measure_setup(workload: Workload) -> tuple[list[float], list[float]]:
    """Fresh-process seconds to import the package, build and validate the configs."""
    paths = sorted({str(WORK / c.config) for c in workload.commands})
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), *paths]

    def once() -> float:
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120,
                             check=True)
        return float(out.stdout.split()[-1])

    once()  # writes the bytecode cache
    return interleaved(once, lambda raw: len(raw) >= SETUP_REPEATS)


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    label: str
    passed: bool
    known_defect: str = ""
    z: float | None = None


def parse_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(line for line in text.splitlines()
                               if line and not line.startswith("#")))


class Oracle:
    """Quadrature values, memoised; call it only outside timed and traced regions."""

    def __init__(self):
        from quantogreeks.config import build_run, load_config
        from quantogreeks.estimators import quad_greek, quad_price

        self._build = lambda name: build_run(load_config(str(WORK / name)))
        self._quad_price = quad_price
        self._quad_greek = quad_greek
        self._cache: dict[tuple, float] = {}

    def __call__(self, config: str, which: str, rho: float | None = None) -> float:
        key = (config, which, rho)
        if key not in self._cache:
            run = self._build(config)
            model = run.model if rho is None else replace(run.model, rho=rho)
            self._cache[key] = (self._quad_price(model, run.payoff) if which == "price"
                                else self._quad_greek(model, run.payoff, which))
        return self._cache[key]


def oracle_checks(cmd: Command, text: str, oracle: Oracle, tag: str) -> list[Check]:
    rows = parse_rows(text)
    kind = cmd.argv[0]
    checks: list[Check] = []

    def z_check(label: str, row: dict | None, column: str, target: float) -> None:
        label = f"{tag} {kind} {label}"
        if row is None:
            checks.append(Check(label + " (row missing)", False, cmd.known_defect))
            return
        value, se = float(row[column]), float(row["stderr"])
        z = abs(value - target) / se if se > 0.0 else (0.0 if value == target else math.inf)
        checks.append(Check(label, z <= Z_MAX, cmd.known_defect, z))

    if kind in ("price", "greeks"):
        named = {r["variant"]: r for r in rows}
    if kind == "price":
        z_check("Price", named.get("Price"), "value", oracle(cmd.config, "price"))
    elif kind == "greeks":
        for variant, which in GREEKS_CONFORMANT:
            z_check(variant, named.get(variant), "value", oracle(cmd.config, which))
        for which in ("dE", "dI", "dEdI"):
            row = named.get(f"Quad_{which}")
            ok = row is not None and math.isclose(float(row["value"]), oracle(cmd.config, which),
                                                  rel_tol=1e-9, abs_tol=1e-12)
            checks.append(Check(f"{tag} greeks Quad_{which} equals oracle", ok))
    elif kind == "sweep-rho":
        by_rho = {float(r["rho"]): r for r in rows}
        for rho in SWEEP_GRID:
            z_check(f"{cmd.config} rho={rho}", by_rho.get(rho), "delta_corr",
                    oracle(cmd.config, cmd.greek, rho))
    elif kind == "converge":
        by_n = {int(r["n"]): r for r in rows}
        for n in CONVERGE_GRID:
            z_check(f"n={n}", by_n.get(n), "value", oracle(cmd.config, cmd.greek))
    return checks


def all_checks(workload: Workload, runner: Runner, seeds: tuple[int, int]) -> list[Check]:
    seed, heldout = seeds
    oracle = Oracle()
    checks = []
    for i, cmd in enumerate(workload.commands):
        name = f"{cmd.argv[0]}[{cmd.config}]"
        t1 = runner.outputs[(i, seed, 1)]
        checks += [
            Check(f"{name} exits 0", runner.bad_exit[i] == 0),
            Check(f"{name} CSV identical on repeat", len(t1) == 1),
            Check(f"{name} CSV identical at --threads 2", runner.outputs[(i, seed, 2)] == t1),
        ]
        for tag, s in (("seed", seed), ("held-out", heldout)):
            checks += oracle_checks(cmd, runner.text(i, s), oracle, tag)
    return checks


def headline(workload: Workload, runner: Runner, seed: int) -> tuple[float, float]:
    index, key_col, key, value_col = workload.headline
    for row in parse_rows(runner.text(index, seed)):
        if row[key_col] == key:
            return float(row[value_col]), float(row["stderr"])
    raise LookupError(f"headline row {key_col}={key} missing")


def requested_samples(workload: Workload, runner: Runner, seed: int) -> int:
    """Samples the output rows ask for: each row's n (sweep rows: the command's --n)."""
    total = 0
    for i, cmd in enumerate(workload.commands):
        default_n = int(cmd.argv[cmd.argv.index("--n") + 1]) if "--n" in cmd.argv else 0
        for row in parse_rows(runner.text(i, seed)):
            if "n" not in row:
                total += default_n
            elif row["n"]:  # the Quad_* rows leave n empty
                total += int(row["n"])
    return total


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

# Public package functions, named by the module that calls them, with the
# layer group each belongs to. Each call of a "passes" binding is one Monte
# Carlo pass over the draw stream.
PASSES = ("cli.mc_price", "cli.mc_estimates", "cli.fd_greek",
          "estimators.mc_price", "estimators.mc_greek")
TRACED = {
    "cli.main": "cli",
    "cli.load_config": "config",
    "cli.build_run": "config",
    "cli.validate_model": "model",
    **{name: "passes" for name in PASSES},
    "cli.quad_greek": "quad",
    "estimators.quad_price": "quad",
    "cli.residual_risk": "studies",
    "cli.convergence_table": "studies",
    "estimators.evaluate": "payoffs",
    "estimators.weight_for": "weights",
}
# The engine calls no public simulate function, so the draw is timed by
# replaying each observed pass through these.
REPLAYED = {"simulate.iter_sample_blocks": "draw", "simulate.sample_block": "block"}

# Layer groups each per-layer metric needs; a metric whose group is absent
# is not reported.
REQUIRES = {
    "simulate.draw_s": ("passes", "draw"),
    "simulate.block_peak_bytes": ("passes", "block"),
    "simulate.samples_drawn": ("passes",),
    "estimators.passes": ("passes",),
    "estimators.reuse_ratio": ("passes",),
    "estimators.mc_s": ("passes",),
    "estimators.mc_self_s": ("passes", "draw", "payoffs", "weights"),
    "estimators.t2_speedup": ("passes",),
    "estimators.quad_s": ("quad",),
    "estimators.quad_calls": ("quad",),
    "payoffs.eval_s": ("payoffs",),
    "payoffs.calls": ("payoffs",),
    "weights.weight_s": ("weights",),
    "weights.calls": ("weights",),
    "config.load_s": ("config",),
    "model.validate_s": ("model",),
    "cli.self_s": ("cli", "config", "model", "passes", "quad", "studies"),
    "trace.overhead_s": (),
}


def _resolve(binding: str):
    module_name, attr = binding.split(".")
    module = importlib.import_module(f"quantogreeks.{module_name}")
    return module, attr, getattr(module, attr, None)


def absent_bindings() -> list[str]:
    return [b for b in (*TRACED, *REPLAYED) if _resolve(b)[2] is None]


class Span:
    __slots__ = ("name", "parent", "start", "end")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0


class Tracer:
    """Spans around the TRACED bindings, kept in memory while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.passes: list[tuple] = []  # (function, args, kwargs) of each pass
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for binding in TRACED:
            module, attr, fn = _resolve(binding)
            if fn is not None:
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(binding, fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in self._saved:
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        is_pass = name in PASSES

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span(name, stack[-1] if stack else None)
            if is_pass:
                with self._lock:
                    self.passes.append((fn, args, kwargs))
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)

        return traced

    def summary(self) -> dict[str, float]:
        by_name: dict[str, list[Span]] = defaultdict(list)
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            by_name[s.name].append(s)
            if s.parent is not None:
                child_time[id(s.parent)] += s.end - s.start

        def total(*names: str) -> float:
            return math.fsum(s.end - s.start for n in names for s in by_name[n])

        def in_pass(s: Span) -> bool:
            p = s.parent
            while p is not None and p.name not in PASSES:
                p = p.parent
            return p is not None

        def total_in_pass(name: str) -> float:
            return math.fsum(s.end - s.start for s in by_name[name] if in_pass(s))

        return {
            "mc_s": total(*PASSES),
            "passes": sum(len(by_name[n]) for n in PASSES),
            "quad_s": total("estimators.quad_price"),
            "quad_calls": len(by_name["estimators.quad_price"]),
            "eval_s": total("estimators.evaluate"),
            "eval_calls": len(by_name["estimators.evaluate"]),
            "eval_in_mc_s": total_in_pass("estimators.evaluate"),
            "weight_s": total("estimators.weight_for"),
            "weight_calls": len(by_name["estimators.weight_for"]),
            "weight_in_mc_s": total_in_pass("estimators.weight_for"),
            "config_s": total("cli.load_config", "cli.build_run"),
            "validate_s": total("cli.validate_model"),
            "cli_self_s": sum(s.end - s.start - child_time[id(s)] for s in by_name["cli.main"]),
        }


def pass_inputs(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    model, cfg, tuning = a["model"], a["cfg"], a.get("tuning")
    if tuning is None:
        from quantogreeks.model import TuningFunction
        tuning = TuningFunction.uniform(model.horizon)
    return model, tuning, cfg


def replay_draw(passes: list[tuple]) -> float:
    iter_sample_blocks = _resolve("simulate.iter_sample_blocks")[2]
    elapsed = 0.0
    for fn, args, kwargs in passes:
        model, tuning, cfg = pass_inputs(fn, args, kwargs)
        t0 = time.perf_counter()
        for _ in iter_sample_blocks(model, tuning, cfg):
            pass
        elapsed += time.perf_counter() - t0
    return elapsed


def block_peak_bytes(passes: list[tuple]) -> int:
    """Largest tracemalloc peak of one sample_block call over the distinct pass set-ups."""
    sample_block = _resolve("simulate.sample_block")[2]
    peak, seen = 0, set()
    for fn, args, kwargs in passes:
        model, tuning, cfg = pass_inputs(fn, args, kwargs)
        key = (repr(cfg), repr(getattr(model, "correlation_mode", None)))
        if key in seen:
            continue
        seen.add(key)
        tracemalloc.start()
        try:
            sample_block(model, tuning, cfg, 0)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak


def trace_layers(runner: Runner, workload: Workload, seed: int, seconds: float
                 ) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics and traced wall shares from repeated traced runs.

    Each repeat runs the workload untraced and then traced, for at least
    ``seconds`` and TRACE_REPEATS repeats; the pairing keeps machine drift out
    of the tracing overhead.
    """
    absent_groups = {({**TRACED, **REPLAYED})[b] for b in absent_bindings()}
    reps = []
    start = time.perf_counter()
    while len(reps) < TRACE_REPEATS or time.perf_counter() - start < seconds:
        plain = runner.run(workload, seed)
        with Tracer() as tracer:
            wall = runner.run(workload, seed)
        rep = tracer.summary()
        rep["wall_s"] = wall
        rep["overhead_s"] = wall - plain
        rep["draw_s"] = replay_draw(tracer.passes) if "draw" not in absent_groups else math.nan
        rep["mc_self_s"] = rep["mc_s"] - rep["draw_s"] - rep["eval_in_mc_s"] - rep["weight_in_mc_s"]
        reps.append(rep)
        passes = tracer.passes
    with Tracer() as t2:
        runner.run(workload, seed, threads=2)

    def med(key: str) -> float:
        return statistics.median(r[key] for r in reps)

    last = reps[-1]  # counts repeat exactly between repeats
    drawn = sum(pass_inputs(*p)[2].n_samples for p in passes)
    values = {
        "simulate.draw_s": med("draw_s"),
        "simulate.samples_drawn": drawn,
        "estimators.passes": last["passes"],
        "estimators.reuse_ratio": requested_samples(workload, runner, seed) / drawn,
        "estimators.mc_s": med("mc_s"),
        "estimators.mc_self_s": med("mc_self_s"),
        "estimators.t2_speedup": med("mc_s") / t2.summary()["mc_s"],
        "estimators.quad_s": med("quad_s"),
        "estimators.quad_calls": last["quad_calls"],
        "payoffs.eval_s": med("eval_s"),
        "payoffs.calls": last["eval_calls"],
        "weights.weight_s": med("weight_s"),
        "weights.calls": last["weight_calls"],
        "config.load_s": med("config_s"),
        "model.validate_s": med("validate_s"),
        "cli.self_s": med("cli_self_s"),
        "trace.overhead_s": med("overhead_s"),
    }
    if "block" not in absent_groups:
        values["simulate.block_peak_bytes"] = block_peak_bytes(passes)
    layers = {name: v for name, v in values.items()
              if not absent_groups.intersection(REQUIRES[name])}
    traced_wall = med("wall_s")
    shares = {
        "draw": med("draw_s"),
        "payoffs in passes": med("eval_in_mc_s"),
        "weights in passes": med("weight_in_mc_s"),
        "pass self": med("mc_self_s"),
        "quadrature": med("quad_s"),
        "config": med("config_s"),
        "validate": med("validate_s"),
        "cli self": med("cli_self_s"),
    }
    shares = {k: v / traced_wall for k, v in shares.items()}
    return layers, shares


# Workload rationale the traced run must confirm: the named components
# together must exceed every other component's share of traced wall time.
RATIONALE = {
    "greeks_collar": ("quadrature", "payoffs in passes"),
    "euler_price": ("draw",),
    "scenario_sweep": ("draw",),
}


def rationale_line(workload_name: str, shares: dict[str, float]) -> str:
    named = RATIONALE[workload_name]
    combined = sum(shares[k] for k in named)
    rest = max((v, k) for k, v in shares.items() if k not in named)
    verdict = "confirmed" if combined > rest[0] else "MISMATCH"
    return (f"rationale {verdict}: {' + '.join(named)} = {combined:.1%} of traced wall, "
            f"largest other = {rest[1]} {rest[0]:.1%}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def environment() -> dict[str, object]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def log(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quantogreeks" / "__init__.py").is_file() or not CONFIGS.is_dir():
        log(f"bench: {ROOT} has no src/quantogreeks or configs/; run from a full checkout")
        return 2
    # One BLAS thread: the CLI runs at --threads 1, and idle OpenBLAS workers
    # spin on the second core, which only adds noise on a 2-core machine.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import quantogreeks.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        log(f"bench: imported quantogreeks from {cli.__file__}, not from {SRC}")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in (*spec["end_to_end"], *spec["per_layer"])}

    workload = WORKLOADS[args.workload]
    seeds = (args.seed, args.seed + HELDOUT_OFFSET)
    write_configs(workload)
    log(f"bench: {args.workload} seed={seeds[0]} held-out={seeds[1]} "
        f"environment={json.dumps(environment())}")

    values: dict[str, float] = {}
    if not args.trace:
        raw, setup = measure_setup(workload)
        values["setup_s"] = statistics.median(setup)
        log(f"setup_s: median of {len(setup)} fresh processes = {values['setup_s']:.4f} s "
            f"(raw {statistics.median(raw):.4f} s)")

    runner = Runner(cli)
    runner.run(workload, seeds[1])  # untimed warm-up on the held-out seed, checked below
    if args.trace:
        layers, shares = trace_layers(runner, workload, seeds[0], args.seconds)
        values.update(layers)
        absent = absent_bindings()
        if absent:
            log(f"absent layers (not reported): {', '.join(absent)}")
        log("traced wall shares: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
        log(rationale_line(args.workload, shares))
    else:
        raw, samples = timed_loop(runner, workload, seeds[0], args.seconds)
        samples.sort()
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tail_index = max(len(samples) - 11, 0)
        values["wall_s"] = statistics.median(samples)
        values["wall_s_tail"] = samples[tail_index]
        value, stderr = headline(workload, runner, seeds[0])
        values["tta_s"] = values["wall_s"] * (stderr / (1e-3 * abs(value))) ** 2
        log(f"wall_s: median of {len(samples)} warm runs = {values['wall_s']:.4f} s; "
            f"tail = p{100.0 * (tail_index + 1) / len(samples):.0f} "
            f"({len(samples) - tail_index - 1} timings beyond) = {samples[tail_index]:.4f} s; "
            f"raw median {statistics.median(raw):.4f} s; headline row {value!r} +- {stderr!r}")
        runner.run(workload, seeds[0], threads=2)

    checks = all_checks(workload, runner, seeds)
    passed = sum(c.passed for c in checks)
    unexpected = [c for c in checks if not c.passed and not c.known_defect]
    for c in checks:
        if not c.passed:
            z = "" if c.z is None else f" z={c.z:.2f}"
            kind = f"known defect ({c.known_defect})" if c.known_defect else "FAILED"
            log(f"check {kind}: {c.label}{z}")
    log(f"checks: {passed}/{len(checks)} passed, {len(unexpected)} unexpected failures; "
        f"operations: {runner.failed}/{runner.attempted} failed")

    if not args.trace:
        values["pass_ratio"] = passed / len(checks)

    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units if name in values}
    print(json.dumps({
        "correct": runner.failed == 0 and not unexpected,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
