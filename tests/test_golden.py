"""Pinned sha256 digests of metrics.csv: a refactor keeps every byte.

A deliberate behaviour change re-pins the digests and says in CHANGES.md
which moved and why:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import json
import os
from dataclasses import replace

import pytest

from vanetsim.scenario import ScenarioConfig
from vanetsim.simulation import Simulation

from conftest import PROTOCOLS, csv_digest

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden.json")
GOLDEN_SEEDS = (1, 2)

# table1.cfg hardly exercises route errors (AODV seed 1 processes 8 RERRs
# there against 2227 here), so a denser, shorter variant is pinned as well.
DENSE = {"num_nodes": 40, "terrain_width_m": 600.0,
         "terrain_height_m": 600.0, "sim_time_s": 30.0, "sessions": 10}
# Every other pinned scenario has pause_s = 0, so none of them takes the
# path where a node waits at a waypoint before drawing its next leg.
PAUSED = dict(DENSE, pause_s=2.5)
# The others draw far below capacity; here about a quarter of the radios
# run flat and switch off mid-run.
DRAINED = dict(DENSE, capacity_mah=0.1)
SCENARIOS = {"dense": DENSE, "dense_paused": PAUSED, "dense_drained": DRAINED}


def scenario(name):
    return replace(ScenarioConfig(), **SCENARIOS.get(name, {})).validate()


def digests(name, protocol):
    config = scenario(name)
    return {str(seed): csv_digest(Simulation(config, protocol=protocol,
                                             seed=seed).run())
            for seed in GOLDEN_SEEDS}


def pinned(name):
    with open(GOLDEN) as fh:
        return json.load(fh)[name]


def test_table1_digests(sweep):
    records, _ = sweep
    got = {p: {} for p in PROTOCOLS}
    for r in records:
        if r["seed"] in GOLDEN_SEEDS:
            got[r["protocol"]][str(r["seed"])] = r["digest"]
    assert got == pinned("table1")


# Events scheduled by each table1 seed-1 run. A refactor that keeps the
# bytes but adds work fails here; a deliberate change re-pins the counts
# and says so in CHANGES.md.
TABLE1_SEED1_EVENTS = {"aodv": 81_650, "dymo": 81_650, "olsr": 209_852,
                       "zrp": 161_696}


def test_table1_scheduled_events(sweep):
    records, _ = sweep
    got = {r["protocol"]: r["events"] for r in records if r["seed"] == 1}
    assert got == TABLE1_SEED1_EVENTS


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_digests(name, protocol):
    assert digests(name, protocol) == pinned(name)[protocol]


if __name__ == "__main__":
    table = {name: {p: digests(name, p) for p in PROTOCOLS}
             for name in ("table1", *SCENARIOS)}
    with open(GOLDEN, "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
