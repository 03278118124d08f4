"""Pinned sha256 digests of metrics.csv: a refactor keeps every byte.

Every table1 sweep run (4 protocols x 10 seeds) is pinned, with the number
of events it scheduled, and at seed 1 with the dispatches of each event
callback; the dense variants and the static grid are pinned at seeds 1 and
2, the grid with its scheduled events too and at seed 1 with its dispatches.
The trace of the table1 AODV seed-1 run is pinned as well.

A deliberate behaviour change re-pins the digests and says in CHANGES.md
which moved and why; the re-pin prints each pin it changes as old -> new:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import importlib.util
import json
import os
from dataclasses import replace

import pytest

import vanetsim
from vanetsim.engine import dispatch_profile
from vanetsim.scenario import ScenarioConfig, parse_scenario
from vanetsim.simulation import Simulation

from conftest import (PROTOCOLS, csv_digest, dispatch_counts, run_sweep,
                      run_traced_baseline, trace_digest)

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
# The others draw far below capacity; here, in every pinned run, 6 to 22 of
# the 40 radios run flat and switch off mid-run.
DRAINED = dict(DENSE, capacity_mah=0.05)
# Only ZRP reads zone_radius. These are the only pinned ZRP runs whose zone
# search goes past level 1, so the only ones a path tie-break can decide.
ZONE3 = dict(DENSE, zone_radius=3)
SCENARIOS = {"dense": DENSE, "dense_paused": PAUSED, "dense_drained": DRAINED,
             "dense_zone3": ZONE3}

# The only static and saturated layout, and the only one with hidden
# terminals under RTS/CTS: 5 x 5 nodes 80 m apart, where rows and columns
# 0, 1, 3 and 4 each carry a four-hop session of 512 B every 20 ms, edge to
# edge, in alternating directions. The benchmark's grid workload, table1's
# radio.
GRID = "\n".join(
    ["terrain_width_m = 400", "terrain_height_m = 400", "sim_time_s = 10",
     "num_nodes = 25", "payload_bytes = 512", "interval_ms = 20"]
    + ["position.%d = %d,%d" % (5 * r + c, 40 + 80 * c, 40 + 80 * r)
       for r in range(5) for c in range(5)]
    + ["session = %d,%d" % (pair if i % 2 == 0 else pair[::-1])
       for i in (0, 1, 3, 4) for pair in ((5 * i, 5 * i + 4), (i, 20 + i))])
PINNED = (*SCENARIOS, "grid")


def scenario(name):
    if name == "grid":
        return parse_scenario(GRID)
    return replace(ScenarioConfig(), **SCENARIOS.get(name, {})).validate()


def runs(name, protocol):
    """seed -> (metrics.csv digest, events scheduled, dispatches) at each
    golden seed; the grid's seed-1 run is profiled, and its dispatches are
    layer -> callback -> count, the others' None."""
    config = scenario(name)
    out = {}
    for seed in GOLDEN_SEEDS:
        simulation = Simulation(config, protocol=protocol, seed=seed)
        profiled = name == "grid" and seed == 1
        if profiled:
            simulation.sim.profile = {}
        digest = csv_digest(simulation.run())
        dispatches = dispatch_counts(dispatch_profile(
            simulation.sim.profile)) if profiled else None
        out[str(seed)] = (digest, simulation.sim._seq, dispatches)
    return out


def scenario_pins(name, protocols=PROTOCOLS):
    """The digests of the scenario's runs, and for the grid the events
    they scheduled and the seed-1 dispatches, as they are pinned:
    name -> protocol -> seed -> value, or for the dispatches
    name -> protocol -> layer -> callback -> count."""
    by_protocol = {p: runs(name, p) for p in protocols}
    pins = {name: {p: {seed: got[seed][0] for seed in got}
                   for p, got in by_protocol.items()}}
    if name == "grid":
        pins["grid_events"] = {
            p: {seed: got[seed][1] for seed in got}
            for p, got in by_protocol.items()}
        pins["grid_dispatches"] = {
            p: got["1"][2] for p, got in by_protocol.items()}
    return pins


def trace_pins():
    """The sha256 of the traced table1 AODV seed-1 run's records, as it is
    pinned: protocol -> seed -> digest."""
    return {"table1_trace": {"aodv": {
        "1": trace_digest(run_traced_baseline().sim.trace)}}}


def pinned(name):
    with open(GOLDEN) as fh:
        return json.load(fh)[name]


def sweep_pins(records):
    """The table1 digest and scheduled-event count of every sweep run, as
    they are pinned: protocol -> seed -> value; and each protocol's seed-1
    dispatches, layer -> callback -> count."""
    digest = {p: {} for p in PROTOCOLS}
    events = {p: {} for p in PROTOCOLS}
    dispatches = {}
    for r in records:
        digest[r["protocol"]][str(r["seed"])] = r["digest"]
        events[r["protocol"]][str(r["seed"])] = r["events"]
        if "dispatches" in r:
            dispatches[r["protocol"]] = r["dispatches"]
    return {"table1": digest, "table1_events": events,
            "table1_dispatches": dispatches}


def test_table1_digests(sweep):
    records, _ = sweep
    assert sweep_pins(records)["table1"] == pinned("table1")


# A refactor that keeps the bytes but adds work fails here; a deliberate
# change re-pins the counts and says so in CHANGES.md.
def test_table1_scheduled_events(sweep):
    records, _ = sweep
    assert sweep_pins(records)["table1_events"] == pinned("table1_events")


# The per-callback counts show which layer a change of the event count is
# in; a change that only moves work between callbacks fails only here.
def test_table1_dispatches(sweep):
    records, _ = sweep
    assert (sweep_pins(records)["table1_dispatches"]
            == pinned("table1_dispatches"))


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("name", PINNED)
def test_scenario_digests(name, protocol):
    for key, by_protocol in scenario_pins(name, (protocol,)).items():
        assert by_protocol[protocol] == pinned(key)[protocol]


def test_benchmark_workloads_are_the_pinned_scenarios():
    # perfbench's table1 and grid runs are the pinned ones, byte for byte
    # (the table1 pins run ScenarioConfig(), which equals the shipped file).
    root = os.path.dirname(os.path.dirname(GOLDEN))
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(root, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert parse_scenario(workloads._grid()) == scenario("grid")
    shipped = os.path.join(os.path.dirname(vanetsim.__file__), "scenarios",
                           "table1.cfg")
    with open(os.path.join(root, workloads.TABLE1_CFG)) as benchmarked, \
            open(shipped) as fh:
        assert benchmarked.read() == fh.read()


def test_zone_radius_moves_only_zrp_pins():
    dense, zone3 = pinned("dense"), pinned("dense_zone3")
    assert {p for p in PROTOCOLS if zone3[p] != dense[p]} == {"zrp"}


def leaves(tree, path=()):
    """path -> value of every non-dict value in a nested dict."""
    out = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            out.update(leaves(value, path + (key,)))
        else:
            out[path + (key,)] = value
    return out


if __name__ == "__main__":
    table = sweep_pins(run_sweep()[0])
    table.update(trace_pins())
    for name in PINNED:
        table.update(scenario_pins(name))
    with open(GOLDEN) as fh:
        old = leaves(json.load(fh))
    new = leaves(table)
    for path in sorted(old.keys() | new.keys()):
        if old.get(path) != new.get(path):
            print("%s: %s → %s" % (" ".join(path), old.get(path),
                                    new.get(path)))
    with open(GOLDEN, "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
