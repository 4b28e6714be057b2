"""Deterministic closed-loop driving simulator.

Track geometry in road coordinates, a nonlinear bicycle plant, latency-
aware synthetic sensors, and a multi-rate scenario loop that exercises
the planners exactly as a vehicle stack would.
"""

from .track import TrackGeometry, build_track
from .plant import OffTrackError, PlantState, step_plant
from .sensors import (
    LatencyQueue,
    NoiseConfig,
    PerceptionFrame,
    SimRates,
    perceive,
    radar_measure,
)
from .scenario import (
    LeadSpec,
    ScenarioSpec,
    SimLog,
    compute_metrics,
    preset_straight_smoke,
    preset_trackA_lane_keeping,
    preset_trackB_following,
    run_scenario,
)

__all__ = [
    "LatencyQueue",
    "LeadSpec",
    "NoiseConfig",
    "OffTrackError",
    "PerceptionFrame",
    "PlantState",
    "ScenarioSpec",
    "SimLog",
    "SimRates",
    "TrackGeometry",
    "build_track",
    "compute_metrics",
    "perceive",
    "preset_straight_smoke",
    "preset_trackA_lane_keeping",
    "preset_trackB_following",
    "radar_measure",
    "run_scenario",
    "step_plant",
]
