"""Dotted key = value run configuration files.

Grammar: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines ignored. Values are parsed as JSON where possible (numbers, booleans,
nested lists, objects); anything else is kept as a bare string. See the README
for the full key schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .model import (
    CorrelationMode,
    FuturesSpec,
    MarketModel,
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
from .simulate import SimConfig, SimScheme


class ConfigError(Exception):
    """Malformed or incomplete run configuration."""


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
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        try:
            raw[key] = json.loads(value)
        except json.JSONDecodeError:
            raw[key] = value.strip("\"'")
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


def _curve(raw: dict, key: str, horizon: float) -> VolatilityCurve:
    value = _require(raw, key)
    if isinstance(value, bool):
        raise ConfigError(f"key {key}: expected a number or segments, got {value!r}")
    try:
        if isinstance(value, (int, float)):
            return VolatilityCurve.constant(float(value), horizon)
        return VolatilityCurve.from_segments(value, horizon)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"key {key}: bad volatility curve ({exc})") from exc


def _build_model(raw: dict) -> MarketModel:
    tau1 = _as_float(raw, "tau1")
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
        energy=FuturesSpec(_as_float(raw, "energy.f0"), tau1, tau2),
        energy_vol=_curve(raw, "energy.sigma", tau2),
        temperature=FuturesSpec(_as_float(raw, "temperature.f0"), tau1, tau2),
        temperature_vol=_curve(raw, "temperature.sigma", tau2),
        rho=rho,
        rate=rate,
        correlation_mode=mode,
    )


def _build_tuning(raw: dict, horizon: float) -> TuningFunction:
    value = raw.pop("tuning", "uniform")
    if value == "uniform":
        return TuningFunction.uniform(horizon)
    try:
        return TuningFunction.from_segments(value, horizon)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"key tuning: bad tuning function ({exc})") from exc


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


def _build_payoff(raw: dict) -> PayoffSpec:
    variant = _require(raw, "payoff.variant")
    if variant == "product_call":
        return ProductCall(_as_float(raw, "payoff.kE"), _as_float(raw, "payoff.kI"))
    if variant == "digital_product":
        return DigitalProduct(_as_float(raw, "payoff.kE"), _as_float(raw, "payoff.kI"))
    if variant == "four_strike_collar":
        return FourStrikeCollar(
            kE_high=_as_float(raw, "payoff.kE"),
            kI_high=_as_float(raw, "payoff.kI"),
            kE_low=_as_float(raw, "payoff.kE_low"),
            kI_low=_as_float(raw, "payoff.kI_low"),
            alpha=_as_float(raw, "payoff.alpha", 1.0),
        )
    if variant == "separable":
        return Separable(_piecewise(raw, "payoff.g"), _piecewise(raw, "payoff.h"))
    raise ConfigError(
        f"key payoff.variant: expected one of product_call, four_strike_collar, "
        f"digital_product, separable; got {variant!r}"
    )


def _build_sim(raw: dict) -> SimConfig:
    scheme_text = raw.pop("sim.scheme", "exact")
    try:
        scheme = SimScheme.parse(str(scheme_text))
    except ValueError as exc:
        raise ConfigError(f"key sim.scheme: {exc}") from exc
    antithetic = raw.pop("sim.antithetic", False)
    if not isinstance(antithetic, bool):
        raise ConfigError(f"key sim.antithetic: expected true/false, got {antithetic!r}")
    return SimConfig(
        n_samples=as_integer(raw.pop("sim.n", 100_000), "key sim.n"),
        seed=as_integer(raw.pop("sim.seed", 0), "key sim.seed"),
        antithetic=antithetic,
        scheme=scheme,
    )


@dataclass(frozen=True)
class RunConfig:
    """Everything one command run needs, plus a canonical echo for provenance."""

    model: MarketModel
    payoff: PayoffSpec
    tuning: TuningFunction
    sim: SimConfig
    raw: dict = field(default_factory=dict)

    def echo_lines(self) -> list[str]:
        """Canonical, sorted re-emission of the effective configuration."""
        effective = dict(self.raw)
        effective["sim.n"] = self.sim.n_samples
        effective["sim.seed"] = self.sim.seed
        effective["sim.antithetic"] = self.sim.antithetic
        effective["sim.scheme"] = self.sim.scheme.label()
        return [f"{k} = {json.dumps(v)}" for k, v in sorted(effective.items())]


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
