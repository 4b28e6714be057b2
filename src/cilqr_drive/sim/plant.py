"""Nonlinear single-track plant in road coordinates.

The controllers see linear prediction models; the plant keeps the
nonlinearities they neglect (trig kinematics, slip-angle tires, the
curvature coupling of the road frame), which is exactly the mismatch a
closed-loop check is for.  Integration is fixed-step RK4 in pure float
arithmetic to keep the 1 ms loop cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..lateral import VehicleParams
from .track import TrackGeometry

ACCEL_GAIN = 5.0        # accel_cmd in [-1, 1] maps to +/- 5 m/s^2
BRAKE_GAIN = 8.0        # brake_cmd in [0, 1] adds up to -8 m/s^2
OFF_TRACK_M = 10.0
_V_SLIP_MIN = 0.5       # below this speed slip angles are meaningless


class OffTrackError(RuntimeError):
    """Ego left the drivable corridor (|delta| at or past the limit)."""


@dataclass
class PlantState:
    """Ground-truth vehicle state in road coordinates."""

    s: float = 0.0
    delta: float = 0.0
    theta: float = 0.0
    v: float = 0.0
    yaw_rate: float = 0.0
    v_lat: float = 0.0
    a: float = 0.0

    def __post_init__(self) -> None:
        vals = (self.s, self.delta, self.theta, self.v,
                self.yaw_rate, self.v_lat, self.a)
        if not all(map(math.isfinite, vals)):
            raise ValueError("plant state must be finite")
        if self.v < 0.0:
            raise ValueError("speed must be nonnegative")


def step_plant(state: PlantState, steer_rad: float, accel_cmd: float,
               brake_cmd: float, dt: float, track: TrackGeometry,
               params: VehicleParams | None = None) -> PlantState:
    """Advance the plant one RK4 step of dt seconds.

    steer_rad is the road-wheel angle; accel_cmd and brake_cmd are the
    normalized pedal commands, mapped linearly to accelerations.
    Raises OffTrackError when the lateral offset reaches the corridor
    limit.
    """
    if dt <= 0.0 or dt > 0.002:
        raise ValueError("plant step must be in (0, 2] ms")
    params = params or VehicleParams()
    accel = (ACCEL_GAIN * min(max(accel_cmd, -1.0), 1.0)
             - BRAKE_GAIN * min(max(brake_cmd, 0.0), 1.0))
    curvature, mass, i_z = track.curvature, params.m, params.i_z
    l_f, l_r = params.l_f, params.l_r
    c_f, c_r = 2.0 * params.c_alpha_f, 2.0 * params.c_alpha_r

    def f(s, delta, theta, v, yaw_rate, v_lat):
        kappa = curvature(s)
        if v >= _V_SLIP_MIN:
            fyf = c_f * (steer_rad - math.atan((v_lat + l_f * yaw_rate) / v))
            fyr = c_r * -math.atan((v_lat - l_r * yaw_rate) / v)
            cos_steer = math.cos(steer_rad)     # only here: it raises at inf
            dv_lat = (fyf * cos_steer + fyr) / mass - v * yaw_rate
            dyaw = (l_f * fyf * cos_steer - l_r * fyr) / i_z
        else:
            dv_lat = -v_lat * 10.0   # crawl regime: bleed lateral motion
            dyaw = -yaw_rate * 10.0
        denom = 1.0 - kappa * delta
        if abs(denom) < 1e-6:
            denom = math.copysign(1e-6, denom)
        ct, st = math.cos(theta), math.sin(theta)
        ds = (v * ct - v_lat * st) / denom
        return (ds, v * st + v_lat * ct, yaw_rate - kappa * ds,
                accel if v > 0.0 or accel > 0.0 else 0.0, dyaw, dv_lat)

    # RK4 on six floats; tests pin this order of operations to the bit
    s, d, th, v, r, vl = (state.s, state.delta, state.theta, state.v,
                          state.yaw_rate, state.v_lat)
    h = 0.5 * dt
    k1 = f(s, d, th, v, r, vl)
    k2 = f(s + h * k1[0], d + h * k1[1], th + h * k1[2],
           v + h * k1[3], r + h * k1[4], vl + h * k1[5])
    k3 = f(s + h * k2[0], d + h * k2[1], th + h * k2[2],
           v + h * k2[3], r + h * k2[4], vl + h * k2[5])
    k4 = f(s + dt * k3[0], d + dt * k3[1], th + dt * k3[2],
           v + dt * k3[3], r + dt * k3[4], vl + dt * k3[5])
    h = dt / 6.0
    s += h * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    d += h * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    th += h * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    v += h * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
    r += h * (k1[4] + 2.0 * k2[4] + 2.0 * k3[4] + k4[4])
    vl += h * (k1[5] + 2.0 * k2[5] + 2.0 * k3[5] + k4[5])

    if v < 0.0:
        v = 0.0
    if abs(d) >= OFF_TRACK_M:
        raise OffTrackError(f"lateral offset {d:.2f} m at s = {s:.1f} m")
    return PlantState(s=s, delta=d, theta=th, v=v, yaw_rate=r, v_lat=vl,
                      a=accel)
