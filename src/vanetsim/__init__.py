"""Deterministic VANET simulator: 802.11 DCF MAC, two-ray radio, and four
routing protocols (AODV, DYMO, OLSR, ZRP) under random-waypoint mobility."""

from .scenario import ScenarioConfig, ScenarioError, load_scenario, parse_scenario
from .simulation import Simulation
from .metrics import MetricsLedger, compare

__all__ = [
    "ScenarioConfig",
    "ScenarioError",
    "load_scenario",
    "parse_scenario",
    "Simulation",
    "MetricsLedger",
    "compare",
]

__version__ = "1.0.0"
