"""Run configuration: dotted-key files, typed overrides, validation.

A configuration is a plain text file of ``section.key = value`` lines.
Sections mirror the library surface: vehicle.*, lateral.*,
longitudinal.*, vpc.*, sim.*, and scenario.*.  Every key is checked
against a registry; unknown keys, duplicate keys, and type or range
violations are reported with the file name and line number.  Values not
mentioned keep the published defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

from .lanes import VpcConfig
from .lateral import LateralTuning, VehicleParams
from .longitudinal import LongTuning
from .sim import LeadSpec, NoiseConfig, ScenarioSpec, SimRates
from .sim.scenario import CONTROLLERS

TRACK_PRESETS = ("trackA", "trackB", "straight", "circle100")

KPH = 1.0 / 3.6    # km/h to m/s


class ConfigError(ValueError):
    """Configuration rejected; message carries file and line."""

    def __init__(self, message: str, source: str = "", line: int = 0):
        self.source = source
        self.line = line
        if source and line:
            message = f"{source}:{line}: {message}"
        elif source:
            message = f"{source}: {message}"
        super().__init__(message)


def _as_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _as_int(raw: str) -> int:
    # reject silent truncation of e.g. "3.5"
    if not raw.lstrip("+-").isdigit():
        raise ValueError(f"expected an integer, got {raw!r}")
    return int(raw)


def _as_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _as_str(raw: str) -> str:
    return raw


def _positive(x) -> None:
    if not x > 0:
        raise ValueError("must be strictly positive")


def _nonnegative(x) -> None:
    if x < 0:
        raise ValueError("must be nonnegative")


def _choice(*allowed: str):
    def check(x) -> None:
        if x not in allowed:
            raise ValueError(f"must be one of {', '.join(allowed)}")
    return check


def _no_check(_x) -> None:
    return None


# key -> (cast, range check); the assembly step below consumes every key
_REGISTRY = {
    "scenario.track": (_as_str, _choice(*TRACK_PRESETS)),
    "scenario.duration_s": (_as_float, _positive),
    "scenario.laps": (_as_float, _positive),
    "scenario.cruise_speed_kph": (_as_float, _positive),
    "scenario.start_s": (_as_float, _nonnegative),
    "scenario.start_delta": (_as_float, _no_check),
    "scenario.start_theta": (_as_float, _no_check),
    "scenario.start_speed_kph": (_as_float, _nonnegative),
    "scenario.seed": (_as_int, _nonnegative),
    "scenario.controller": (_as_str, _choice(*CONTROLLERS)),
    "scenario.longitudinal": (_as_bool, _no_check),
    "scenario.name": (_as_str, _no_check),
    "scenario.metrics_t_start": (_as_float, _nonnegative),
    "scenario.metrics_t_end": (_as_float, _positive),
    "scenario.lead": (_as_bool, _no_check),
    "scenario.lead_gap_m": (_as_float, _positive),
    "scenario.lead_speed_kph": (_as_float, _positive),
    "scenario.lead_amplitude_kph": (_as_float, _nonnegative),
    "scenario.lead_period_s": (_as_float, _positive),
    "vehicle.mass": (_as_float, _positive),
    "vehicle.c_alpha_f": (_as_float, _positive),
    "vehicle.c_alpha_r": (_as_float, _positive),
    "vehicle.l_f": (_as_float, _positive),
    "vehicle.l_r": (_as_float, _positive),
    "vehicle.i_z": (_as_float, _positive),
    "lateral.horizon": (_as_int, _positive),
    "lateral.dt": (_as_float, _positive),
    "lateral.q_delta": (_as_float, _nonnegative),
    "lateral.q_delta_rate": (_as_float, _nonnegative),
    "lateral.q_theta": (_as_float, _nonnegative),
    "lateral.q_theta_rate": (_as_float, _nonnegative),
    "lateral.r_steer": (_as_float, _positive),
    "lateral.steer_limit_rad": (_as_float, _positive),
    "lateral.centering_weight": (_as_float, _nonnegative),
    "lateral.centering_rate": (_as_float, _nonnegative),
    "longitudinal.horizon": (_as_int, _positive),
    "longitudinal.dt": (_as_float, _positive),
    "longitudinal.d_ref": (_as_float, _positive),
    "longitudinal.q_d": (_as_float, _nonnegative),
    "longitudinal.q_v": (_as_float, _nonnegative),
    "longitudinal.q_a": (_as_float, _nonnegative),
    "longitudinal.r_jerk": (_as_float, _positive),
    "longitudinal.jerk_limit": (_as_float, _positive),
    "longitudinal.accel_limit": (_as_float, _positive),
    "longitudinal.d_critical": (_as_float, _positive),
    "longitudinal.d_floor": (_as_float, _positive),
    "vpc.lookahead_l": (_as_float, _positive),
    "vpc.k_vpc": (_as_float, _positive),
    "vpc.frame_window": (_as_int, _positive),
    "sim.plant_us": (_as_int, _positive),
    "sim.perception_us": (_as_int, _positive),
    "sim.vpc_us": (_as_int, _positive),
    "sim.planner_us": (_as_int, _positive),
    "sim.perception_latency_us": (_as_int, _nonnegative),
    "sim.actuation_latency_us": (_as_int, _nonnegative),
    "sim.sigma_theta": (_as_float, _nonnegative),
    "sim.sigma_delta": (_as_float, _nonnegative),
    "sim.sigma_lane": (_as_float, _nonnegative),
}


@dataclass
class RunConfig:
    """Everything one scenario run needs, fully validated."""

    spec: ScenarioSpec
    controller: str = "cilqr"
    longitudinal: bool = False
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    lateral: LateralTuning = field(default_factory=LateralTuning)
    long_tuning: LongTuning = field(default_factory=LongTuning)
    vpc: VpcConfig = field(default_factory=VpcConfig)
    source: str = ""

    def differs_only_in_controller(self, other: "RunConfig") -> bool:
        """True when everything but the controller and labels matches."""
        mine, theirs = asdict(self), asdict(other)
        for skip in ("controller", "source"):
            mine.pop(skip)
            theirs.pop(skip)
        mine["spec"].pop("name")
        theirs["spec"].pop("name")
        return mine == theirs


def _typed(key: str, raw: str, prefix: str, source: str, line: int = 0):
    """The value of key read from raw: cast and range-checked.

    A rejected key or value raises ConfigError; its message starts with
    prefix and names the key.
    """
    if key not in _REGISTRY:
        raise ConfigError(f"{prefix}unknown key {key!r}", source, line)
    cast, check = _REGISTRY[key]
    try:
        value = cast(raw)
        check(value)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{key}: {exc}", source, line) from None
    return value


def _parse_lines(text: str, source: str) -> dict[str, tuple[object, int]]:
    """Tokenize, type, and range-check one config text."""
    values: dict[str, tuple[object, int]] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}",
                              source, lineno)
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in values:
            first = values[key][1]
            raise ConfigError(f"duplicate key {key!r} (first set on line "
                              f"{first})", source, lineno)
        values[key] = (_typed(key, raw, "", source, lineno), lineno)
    return values


def _build(values: dict[str, tuple[object, int]], source: str) -> RunConfig:
    def get(key, default=None):
        return values[key][0] if key in values else default

    def given(**fields) -> dict:
        """Keyword arguments for the keys that are set; the dataclass
        defaults stand in for the rest."""
        return {name: get(key) for name, key in fields.items()
                if key in values}

    def given_kph(**fields) -> dict:
        return {name: kph * KPH for name, kph in given(**fields).items()}

    def diag(default: tuple, *keys: str) -> tuple:
        return tuple(get(key, d) for key, d in zip(keys, default))

    def line_of(*keys) -> int:
        for key in keys:
            if key in values:
                return values[key][1]
        return 0

    vehicle = VehicleParams(**given(
        m="vehicle.mass", c_alpha_f="vehicle.c_alpha_f",
        c_alpha_r="vehicle.c_alpha_r", l_f="vehicle.l_f", l_r="vehicle.l_r",
        i_z="vehicle.i_z"))

    lateral = LateralTuning(
        q_diag=diag(LateralTuning.q_diag, "lateral.q_delta",
                    "lateral.q_delta_rate", "lateral.q_theta",
                    "lateral.q_theta_rate"),
        **given(horizon="lateral.horizon", dt="lateral.dt",
                r="lateral.r_steer", steer_limit="lateral.steer_limit_rad",
                centering_weight="lateral.centering_weight",
                centering_rate="lateral.centering_rate"))

    try:
        long_tuning = LongTuning(
            q_diag=diag(LongTuning.q_diag, "longitudinal.q_d",
                        "longitudinal.q_v", "longitudinal.q_a"),
            **given(horizon="longitudinal.horizon", dt="longitudinal.dt",
                    d_ref="longitudinal.d_ref", r="longitudinal.r_jerk",
                    jerk_limit="longitudinal.jerk_limit",
                    accel_limit="longitudinal.accel_limit",
                    d_critical="longitudinal.d_critical",
                    d_floor="longitudinal.d_floor"))
    except ValueError as exc:
        raise ConfigError(
            f"longitudinal.*: {exc}",
            source, line_of("longitudinal.d_critical", "longitudinal.d_floor",
                            "longitudinal.d_ref")) from None

    vpc = VpcConfig(**given(lookahead_L="vpc.lookahead_l", k_vpc="vpc.k_vpc",
                            frame_window="vpc.frame_window"))

    noise = NoiseConfig(**given(sigma_theta="sim.sigma_theta",
                                sigma_delta="sim.sigma_delta",
                                sigma_lane="sim.sigma_lane"))

    try:
        rates = SimRates(**given(
            plant_us="sim.plant_us", perception_us="sim.perception_us",
            vpc_us="sim.vpc_us", planner_us="sim.planner_us",
            perception_latency_us="sim.perception_latency_us",
            actuation_latency_us="sim.actuation_latency_us"))
    except ValueError as exc:
        raise ConfigError(f"sim.*: {exc}", source,
                          line_of("sim.plant_us")) from None

    lead = None
    lead_keys = [k for k in values
                 if k.startswith("scenario.lead_")]
    if get("scenario.lead", False):
        try:
            lead = LeadSpec(
                **given(initial_gap="scenario.lead_gap_m",
                        period_s="scenario.lead_period_s"),
                **given_kph(base_speed="scenario.lead_speed_kph",
                            amplitude="scenario.lead_amplitude_kph"))
        except ValueError as exc:
            raise ConfigError(f"scenario.lead_*: {exc}", source,
                              line_of("scenario.lead_amplitude_kph",
                                      "scenario.lead_speed_kph")) from None
    elif lead_keys:
        raise ConfigError(f"{lead_keys[0]} requires scenario.lead = true",
                          source, values[lead_keys[0]][1])

    metrics_range = None
    has_start = "scenario.metrics_t_start" in values
    has_end = "scenario.metrics_t_end" in values
    if has_start != has_end:
        raise ConfigError(
            "scenario.metrics_t_start and scenario.metrics_t_end must be "
            "given together", source,
            line_of("scenario.metrics_t_start", "scenario.metrics_t_end"))
    if has_start:
        lo = get("scenario.metrics_t_start")
        hi = get("scenario.metrics_t_end")
        if hi <= lo:
            raise ConfigError("scenario.metrics_t_end must exceed "
                              "scenario.metrics_t_start", source,
                              line_of("scenario.metrics_t_end"))
        metrics_range = (lo, hi)

    try:
        spec = ScenarioSpec(
            lead=lead, noise=noise, rates=rates,
            metrics_t_range=metrics_range,
            **given(track="scenario.track", duration_s="scenario.duration_s",
                    laps="scenario.laps", start_s="scenario.start_s",
                    start_delta="scenario.start_delta",
                    start_theta="scenario.start_theta",
                    seed="scenario.seed", name="scenario.name"),
            **given_kph(cruise_speed="scenario.cruise_speed_kph",
                        start_v="scenario.start_speed_kph"))
    except ValueError as exc:
        raise ConfigError(f"scenario.*: {exc}", source,
                          line_of("scenario.duration_s", "scenario.laps",
                                  "scenario.track")) from None

    return RunConfig(
        spec=spec, vehicle=vehicle, lateral=lateral, long_tuning=long_tuning,
        vpc=vpc, source=source,
        **given(controller="scenario.controller",
                longitudinal="scenario.longitudinal"))


def load_run_config(path: str | Path,
                    overrides: tuple[str, ...] = (),
                    seed: int | None = None,
                    controller: str | None = None) -> RunConfig:
    """Read a config file, apply --set/--seed/--controller overrides.

    Overrides are 'dotted.key=value' strings checked against the same
    registry as file keys; they replace file values.  seed and
    controller, when given, win over both.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError("config file not found", str(path))
    values = _parse_lines(path.read_text(), str(path))

    for i, pair in enumerate(overrides, start=1):
        if "=" not in pair:
            raise ConfigError(f"--set #{i}: expected key=value, got {pair!r}",
                              str(path))
        key, _, raw = pair.partition("=")
        key, raw = key.strip(), raw.strip()
        values[key] = (_typed(key, raw, f"--set #{i}: ", str(path)),
                       values.get(key, (None, 0))[1])

    if seed is not None:
        values["scenario.seed"] = (seed, 0)
    if controller is not None:
        if controller not in CONTROLLERS:
            raise ConfigError(f"--controller must be one of "
                              f"{', '.join(CONTROLLERS)}", str(path))
        values["scenario.controller"] = (controller, 0)

    return _build(values, str(path))
