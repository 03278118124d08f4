"""Pinned sha256 digests of metrics.csv: a refactor keeps every byte.

Every table1 sweep run (4 protocols x 10 seeds) is pinned, with the number
of events it scheduled; the dense variants are pinned at seeds 1 and 2.

A deliberate behaviour change re-pins the digests and says in CHANGES.md
which moved and why; the re-pin prints each pin it changes as old -> new:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import json
import os
from dataclasses import replace

import pytest

from vanetsim.scenario import ScenarioConfig
from vanetsim.simulation import Simulation

from conftest import PROTOCOLS, csv_digest, run_sweep

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


def sweep_pins(records):
    """The table1 digest and scheduled-event count of every sweep run, as
    they are pinned: protocol -> seed -> value."""
    digest = {p: {} for p in PROTOCOLS}
    events = {p: {} for p in PROTOCOLS}
    for r in records:
        digest[r["protocol"]][str(r["seed"])] = r["digest"]
        events[r["protocol"]][str(r["seed"])] = r["events"]
    return {"table1": digest, "table1_events": events}


def test_table1_digests(sweep):
    records, _ = sweep
    assert sweep_pins(records)["table1"] == pinned("table1")


# A refactor that keeps the bytes but adds work fails here; a deliberate
# change re-pins the counts and says so in CHANGES.md.
def test_table1_scheduled_events(sweep):
    records, _ = sweep
    assert sweep_pins(records)["table1_events"] == pinned("table1_events")


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_digests(name, protocol):
    assert digests(name, protocol) == pinned(name)[protocol]


if __name__ == "__main__":
    table = {name: {p: digests(name, p) for p in PROTOCOLS}
             for name in SCENARIOS}
    table.update(sweep_pins(run_sweep()[0]))
    with open(GOLDEN) as fh:
        old = json.load(fh)
    for name, by_protocol in sorted(table.items()):
        for protocol, by_seed in sorted(by_protocol.items()):
            for seed in sorted(by_seed, key=int):
                was = old.get(name, {}).get(protocol, {}).get(seed)
                if was != by_seed[seed]:
                    print("%s %s seed %s: %s → %s"
                          % (name, protocol, seed, was, by_seed[seed]))
    with open(GOLDEN, "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
