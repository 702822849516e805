"""Dotted key = value run configuration files.

Grammar: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines ignored. Values are parsed as JSON where possible (numbers, booleans,
nested lists, objects); anything else is kept as a bare string. See the README
for the full key schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields

from .model import (
    CorrelationMode,
    MarketModel,
    StepFunction,
    TuningFunction,
    VolatilityCurve,
    as_real,
)
from .payoffs import (
    DigitalProduct,
    FourStrikeCollar,
    PayoffSpec,
    PiecewiseLinear,
    ProductCall,
    Separable,
)
from .simulate import SimConfig


class ConfigError(Exception):
    """Malformed or incomplete run configuration."""


def parse_value(text: str):
    """A config line's or sampling flag's value: JSON where it parses, else the text unquoted."""
    text = text.strip()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text.strip("\"'")


def parse_config_text(text: str) -> dict[str, object]:
    raw: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        try:
            raw[key] = parse_value(value)
        except ValueError as exc:  # JSON that Python cannot convert, such as a 5000-digit int
            raise ConfigError(f"line {lineno}: key {key}: {exc}") from None
    return raw


def load_config(path: str) -> dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _require(raw: dict, key: str):
    if key not in raw:
        raise ConfigError(f"missing key: {key}")
    return raw.pop(key)


def _as_float(raw: dict, key: str, default: float | None = None) -> float:
    """``raw[key]``, popped, as a float; a key without a ``default`` is required.

    A bool, a list, an object or null is refused, as is text that is not a number.
    """
    value = _require(raw, key) if default is None else raw.pop(key, default)
    try:
        return as_real(value)
    except (TypeError, ValueError):
        raise ConfigError(f"key {key}: expected a number, got {value!r}") from None


def as_integer(value, name: str) -> int:
    """``value`` if it is a whole number (``20000``, ``1e4``); a bool or a fraction is refused."""
    if type(value) is int or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name}: expected an integer, got {value!r}")


def _steps(value, key: str, what: str, horizon: float) -> StepFunction:
    """The segments ``value`` as a step function; a segment at or after ``horizon`` is refused."""
    try:
        steps = StepFunction.from_segments(value)
        if steps.times[-1] >= horizon:
            raise ValueError("step function: last segment starts at or beyond the horizon")
        return steps
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"key {key}: bad {what} ({exc})") from exc


def _curve(raw: dict, key: str, horizon: float) -> VolatilityCurve:
    value = _require(raw, key)
    if isinstance(value, bool):
        raise ConfigError(f"key {key}: expected a number or segments, got {value!r}")
    return _steps([(0.0, value)] if isinstance(value, (int, float)) else value, key,
                  "volatility curve", horizon)


def _build_model(raw: dict) -> MarketModel:
    tau2 = _as_float(raw, "tau2")
    if not (math.isfinite(tau2) and tau2 > 0.0):
        raise ConfigError(f"key tau2: expected a positive finite horizon, got {tau2!r}")
    rho = _as_float(raw, "rho")
    rate = _as_float(raw, "rate", 0.0)
    mode_text = raw.pop("correlation_mode", CorrelationMode.PAYOFF_MIXING.value)
    try:
        mode = CorrelationMode(mode_text)
    except ValueError:
        raise ConfigError(
            f"key correlation_mode: expected one of "
            f"{[m.value for m in CorrelationMode]}, got {mode_text!r}"
        ) from None
    return MarketModel(
        energy_f0=_as_float(raw, "energy.f0"),
        energy_vol=_curve(raw, "energy.sigma", tau2),
        temperature_f0=_as_float(raw, "temperature.f0"),
        temperature_vol=_curve(raw, "temperature.sigma", tau2),
        horizon=tau2,
        rho=rho,
        rate=rate,
        correlation_mode=mode,
    )


def _build_tuning(raw: dict, horizon: float) -> TuningFunction:
    value = raw.pop("tuning", "uniform")
    if value == "uniform":
        return TuningFunction.uniform(horizon)
    return _steps(value, "tuning", "tuning function", horizon)


def _piecewise(raw: dict, key: str) -> PiecewiseLinear:
    value = _require(raw, key)
    if not isinstance(value, dict) or "knots" not in value:
        raise ConfigError(f"key {key}: expected an object like "
                          '{"knots": [[x, y], ...], "slopes": [left, right]}')
    knots = value["knots"]
    slopes = value.get("slopes", [0.0, 0.0])
    try:
        return PiecewiseLinear(
            tuple(as_real(x) for x, _ in knots),
            tuple(as_real(y) for _, y in knots),
            as_real(slopes[0]),
            as_real(slopes[1]),
        )
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"key {key}: bad piecewise-linear spec ({exc})") from exc


# Each payoff.variant: its class and the config key of each of its fields, in field order.
PAYOFFS = {
    "product_call": (ProductCall, ("payoff.kE", "payoff.kI")),
    "four_strike_collar": (FourStrikeCollar, ("payoff.kE", "payoff.kI", "payoff.kE_low",
                                              "payoff.kI_low", "payoff.alpha")),
    "digital_product": (DigitalProduct, ("payoff.kE", "payoff.kI")),
    "separable": (Separable, ("payoff.g", "payoff.h")),
}


def _build_payoff(raw: dict) -> PayoffSpec:
    variant = _require(raw, "payoff.variant")
    if not (isinstance(variant, str) and variant in PAYOFFS):
        raise ConfigError(f"key payoff.variant: expected one of {', '.join(PAYOFFS)}; "
                          f"got {variant!r}")
    kind, keys = PAYOFFS[variant]
    if kind is Separable:
        return Separable(*(_piecewise(raw, key) for key in keys))
    return kind(*(_as_float(raw, key, None if f.default is MISSING else f.default)
                  for f, key in zip(fields(kind), keys)))


def _scheme(text: str) -> int:
    """0 for ``exact``; STEPS >= 1 for ``euler:STEPS``, a whole number as ``sim.n`` reads one."""
    if text == "exact":
        return 0
    kind, _, steps = text.partition(":")
    if kind == "euler" and steps == steps.strip():  # parse_value would read " 5" as 5
        try:
            if (count := as_integer(parse_value(steps), "STEPS")) >= 1:
                return count
        except (ConfigError, ValueError):  # ValueError: JSON Python cannot convert
            pass
    raise ConfigError(f"key sim.scheme: unknown scheme {text!r}; expected 'exact' or 'euler:STEPS'")


def _build_sim(raw: dict) -> SimConfig:
    euler_steps = _scheme(str(raw.pop("sim.scheme", "exact")))
    antithetic = raw.pop("sim.antithetic", False)
    if not isinstance(antithetic, bool):
        raise ConfigError(f"key sim.antithetic: expected true/false, got {antithetic!r}")
    n_samples = as_integer(raw.pop("sim.n", 100_000), "key sim.n")
    seed = as_integer(raw.pop("sim.seed", 0), "key sim.seed")
    try:
        return SimConfig(n_samples, seed, antithetic, euler_steps)
    except ValueError as exc:  # with the types read, a seed, a count or the step bound is left
        key = {"seed": "sim.seed", "euler_steps": "sim.scheme"}.get(str(exc).split()[0], "sim.n")
        raise ConfigError(f"key {key}: {exc}") from None


def _written(value):
    """``value`` as a config value: a step function as segments, a leg as its knots object."""
    if isinstance(value, StepFunction):
        return [list(segment) for segment in zip(value.times, value.values)]
    if isinstance(value, PiecewiseLinear):
        return {"knots": [list(knot) for knot in zip(value.xs, value.ys)],
                "slopes": [value.left_slope, value.right_slope]}
    return value


@dataclass(frozen=True)
class RunConfig:
    """Everything one command run needs, plus the raw keys it echoes for provenance."""

    model: MarketModel
    payoff: PayoffSpec
    tuning: TuningFunction
    sim: SimConfig
    raw: dict = field(default_factory=dict)

    def effective(self) -> dict[str, object]:
        """The effective configuration sorted by key: the raw keys, with sampling as run."""
        sampling = {key: v for key, v in self.canonical().items() if key.startswith("sim.")}
        return dict(sorted({**self.raw, **sampling}.items()))

    def canonical(self) -> dict[str, object]:
        """The run as config keys, every default filled in: ``build_run`` reads it back equal."""
        m, p, sim = self.model, self.payoff, self.sim
        [(variant, keys)] = [(v, keys) for v, (kind, keys) in PAYOFFS.items() if type(p) is kind]
        return {key: _written(value) for key, value in [
            ("energy.f0", m.energy_f0), ("energy.sigma", m.energy_vol),
            ("temperature.f0", m.temperature_f0), ("temperature.sigma", m.temperature_vol),
            ("tau2", m.horizon), ("rho", m.rho), ("rate", m.rate),
            ("correlation_mode", m.correlation_mode.value), ("tuning", self.tuning),
            ("payoff.variant", variant), *zip(keys, (getattr(p, f.name) for f in fields(p))),
            ("sim.n", sim.n_samples), ("sim.seed", sim.seed), ("sim.antithetic", sim.antithetic),
            ("sim.scheme", f"euler:{sim.euler_steps}" if sim.euler_steps else "exact")]}


def build_run(raw: dict) -> RunConfig:
    """The run ``raw`` configures; a key the run does not read is refused."""
    unread = dict(raw)  # each builder pops the keys it reads
    model = _build_model(unread)
    run = RunConfig(
        model=model,
        payoff=_build_payoff(unread),
        tuning=_build_tuning(unread, model.horizon),
        sim=_build_sim(unread),
        raw=dict(raw),
    )
    if unread:
        raise ConfigError(f"unused config key(s): {', '.join(sorted(unread))}")
    return run
