"""Run configuration: dotted-key files, typed overrides, validation.

A configuration is a plain text file of ``section.key = value`` lines.
Sections mirror the library surface: vehicle.*, lateral.*,
longitudinal.*, vpc.*, sim.*, and scenario.*.  Every key is declared
by one registry row and checked against it; unknown keys, duplicate
keys, and type or range violations are reported with the file name and
line number.  Values not mentioned keep the published defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .fields import KINDS
from .lanes import VpcConfig
from .lateral import LateralTuning, VehicleParams
from .longitudinal import LongTuning
from .sim import LeadSpec, NoiseConfig, ScenarioSpec, SimRates
from .sim.scenario import CONTROLLERS
from .sim.track import TRACKS

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


def _choice(*allowed: str):
    def cast(raw: str) -> str:
        if raw not in allowed:
            raise ValueError(f"must be one of {', '.join(allowed)}")
        return raw
    return cast


def _file_name(raw: str) -> str:
    # the run's output files are named after it, inside --out
    if Path(raw).name != raw or raw == ".." or "\0" in raw:
        raise ValueError(f"must be a plain file name, got {raw!r}")
    return raw


# key -> (section, field, cast): the one place a key is declared.  The
# field, a keyword of the section's dataclass or (keyword, index) for one
# entry of a tuple, declares the key's range; a *_kph value is converted
# to m/s.  scenario.lead has no field: it switches the lead section on.
_REGISTRY = {
    "scenario.track": ("spec", "track", _choice(*TRACKS)),
    "scenario.duration_s": ("spec", "duration_s", _as_float),
    "scenario.laps": ("spec", "laps", _as_float),
    "scenario.cruise_speed_kph": ("spec", "cruise_speed", _as_float),
    "scenario.start_s": ("spec", "start_s", _as_float),
    "scenario.start_delta": ("spec", "start_delta", _as_float),
    "scenario.start_theta": ("spec", "start_theta", _as_float),
    "scenario.start_speed_kph": ("spec", "start_v", _as_float),
    "scenario.seed": ("spec", "seed", _as_int),
    "scenario.controller": ("run", "controller", _choice(*CONTROLLERS)),
    "scenario.longitudinal": ("run", "longitudinal", _as_bool),
    "scenario.name": ("spec", "name", _file_name),
    "scenario.metrics_t_start": ("spec", ("metrics_t_range", 0), _as_float),
    "scenario.metrics_t_end": ("spec", ("metrics_t_range", 1), _as_float),
    "scenario.lead": ("lead", None, _as_bool),
    "scenario.lead_gap_m": ("lead", "initial_gap", _as_float),
    "scenario.lead_speed_kph": ("lead", "base_speed", _as_float),
    "scenario.lead_amplitude_kph": ("lead", "amplitude", _as_float),
    "scenario.lead_period_s": ("lead", "period_s", _as_float),
    "vehicle.mass": ("vehicle", "m", _as_float),
    "vehicle.c_alpha_f": ("vehicle", "c_alpha_f", _as_float),
    "vehicle.c_alpha_r": ("vehicle", "c_alpha_r", _as_float),
    "vehicle.l_f": ("vehicle", "l_f", _as_float),
    "vehicle.l_r": ("vehicle", "l_r", _as_float),
    "vehicle.i_z": ("vehicle", "i_z", _as_float),
    "lateral.horizon": ("lateral", "horizon", _as_int),
    "lateral.dt": ("lateral", "dt", _as_float),
    "lateral.q_delta": ("lateral", ("q_diag", 0), _as_float),
    "lateral.q_delta_rate": ("lateral", ("q_diag", 1), _as_float),
    "lateral.q_theta": ("lateral", ("q_diag", 2), _as_float),
    "lateral.q_theta_rate": ("lateral", ("q_diag", 3), _as_float),
    "lateral.r_steer": ("lateral", "r", _as_float),
    "lateral.centering_weight": ("lateral", "centering_weight", _as_float),
    "lateral.centering_rate": ("lateral", "centering_rate", _as_float),
    "longitudinal.horizon": ("long", "horizon", _as_int),
    "longitudinal.dt": ("long", "dt", _as_float),
    "longitudinal.d_ref": ("long", "d_ref", _as_float),
    "longitudinal.q_d": ("long", ("q_diag", 0), _as_float),
    "longitudinal.q_v": ("long", ("q_diag", 1), _as_float),
    "longitudinal.q_a": ("long", ("q_diag", 2), _as_float),
    "longitudinal.r_jerk": ("long", "r", _as_float),
    "longitudinal.jerk_limit": ("long", "jerk_limit", _as_float),
    "longitudinal.accel_limit": ("long", "accel_limit", _as_float),
    "longitudinal.d_critical": ("long", "d_critical", _as_float),
    "longitudinal.d_floor": ("long", "d_floor", _as_float),
    "vpc.lookahead_l": ("vpc", "lookahead_L", _as_float),
    "vpc.k_vpc": ("vpc", "k_vpc", _as_float),
    "vpc.frame_window": ("vpc", "frame_window", _as_int),
    "sim.plant_us": ("rates", "plant_us", _as_int),
    "sim.perception_us": ("rates", "perception_us", _as_int),
    "sim.vpc_us": ("rates", "vpc_us", _as_int),
    "sim.planner_us": ("rates", "planner_us", _as_int),
    "sim.perception_latency_us": ("rates", "perception_latency_us", _as_int),
    "sim.actuation_latency_us": ("rates", "actuation_latency_us", _as_int),
    "sim.sigma_theta": ("noise", "sigma_theta", _as_float),
    "sim.sigma_delta": ("noise", "sigma_delta", _as_float),
    "sim.sigma_lane": ("noise", "sigma_lane", _as_float),
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


# section -> (dataclass, (section, keyword) it is passed to or None for
# the result, prefix of its errors, keys whose line an error cites).
# Sections are built in this order, so errors keep their precedence.
_SECTIONS = {
    "vehicle": (VehicleParams, ("run", "vehicle"), "vehicle.*", ()),
    "lateral": (LateralTuning, ("run", "lateral"), "lateral.*", ()),
    "long": (LongTuning, ("run", "long_tuning"), "longitudinal.*",
             ("longitudinal.d_critical", "longitudinal.d_floor",
              "longitudinal.d_ref")),
    "vpc": (VpcConfig, ("run", "vpc"), "vpc.*", ()),
    "noise": (NoiseConfig, ("spec", "noise"), "sim.*", ()),
    "rates": (SimRates, ("spec", "rates"), "sim.*", ("sim.plant_us",)),
    "lead": (LeadSpec, ("spec", "lead"), "scenario.lead_*",
             ("scenario.lead_amplitude_kph", "scenario.lead_speed_kph")),
    "spec": (ScenarioSpec, ("run", "spec"), "scenario.*",
             ("scenario.duration_s", "scenario.laps", "scenario.track")),
    "run": (RunConfig, None, "scenario.*", ()),
}


def _kind(key: str) -> str | None:
    """The range (fields.KINDS) declared on the field key feeds, or None."""
    section, name = _REGISTRY[key][:2]
    name, index = name if isinstance(name, tuple) else (name, None)
    declared = _SECTIONS[section][0].__dataclass_fields__.get(name)
    kind = declared and declared.metadata.get("kind")
    return kind if index is None else kind[index]


def _typed(key: str, raw: str, prefix: str, source: str, line: int = 0):
    """The value of key read from raw: cast and range-checked.

    A rejected key or value raises ConfigError; its message starts with
    prefix and names the key.
    """
    if key not in _REGISTRY:
        raise ConfigError(f"{prefix}unknown key {key!r}", source, line)
    kind = _kind(key)
    try:
        value = _REGISTRY[key][2](raw)
        if kind is not None and not KINDS[kind][1](value):
            # worded against zero, as the cast already made a count an int
            raise ValueError("must be nonnegative" if KINDS[kind][1](0)
                             else "must be strictly positive")
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
    """Each section's dataclass from its keys, plus the cross-field rules;
    the dataclass defaults stand in for keys that are not set."""
    def line_of(*keys) -> int:
        for key in keys:
            if key in values:
                return values[key][1]
        return 0

    kwargs = {name: {} for name in _SECTIONS}
    for key, (value, _) in values.items():
        section, name = _REGISTRY[key][:2]
        if key.endswith("_kph"):
            value *= KPH
        if isinstance(name, tuple):
            # one entry of a tuple field; a field defaulting to None is a
            # pair (the metrics window)
            name, index = name
            entries = list(kwargs[section].get(name)
                           or getattr(_SECTIONS[section][0], name)
                           or (None, None))
            entries[index] = value
            value = tuple(entries)
        if name is not None:
            kwargs[section][name] = value

    for section, (cls, into, prefix, cited) in _SECTIONS.items():
        if section == "lead" and not values.get("scenario.lead", (False,))[0]:
            lead_keys = [k for k in values if k.startswith("scenario.lead_")]
            if lead_keys:
                raise ConfigError(
                    f"{lead_keys[0]} requires scenario.lead = true",
                    source, values[lead_keys[0]][1])
            continue
        window = kwargs[section].get("metrics_t_range")
        if window and None in window:
            raise ConfigError(
                "scenario.metrics_t_start and scenario.metrics_t_end must be "
                "given together", source,
                line_of("scenario.metrics_t_start", "scenario.metrics_t_end"))
        if window and window[1] <= window[0]:
            raise ConfigError("scenario.metrics_t_end must exceed "
                              "scenario.metrics_t_start", source,
                              line_of("scenario.metrics_t_end"))
        try:
            built = cls(**kwargs[section])
        except ValueError as exc:
            raise ConfigError(f"{prefix}: {exc}", source,
                              line_of(*cited)) from None
        if into is None:
            return built
        kwargs[into[0]][into[1]] = built


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
        values["scenario.seed"] = (_typed("scenario.seed", str(seed),
                                          "--seed: ", str(path)), 0)
    if controller is not None:
        values["scenario.controller"] = (_typed(
            "scenario.controller", controller, "--controller: ", str(path)), 0)

    return _build(values, str(path))
