"""Shared builders for unit and integration tests."""

import hashlib
import random
import sys
import time
from collections import Counter
from contextlib import contextmanager
from unittest.mock import patch

import pytest

from vanetsim.engine import Simulator, dispatch_profile
from vanetsim.mac import DcfMac
from vanetsim.metrics import MetricsLedger
from vanetsim.node import Node
from vanetsim.phy import Channel
from vanetsim.routing.base import Agent
from vanetsim.routing.olsr import OlsrAgent
from vanetsim.routing.reactive import ReactiveAgent
from vanetsim.scenario import ScenarioConfig
from vanetsim.simulation import Simulation
from vanetsim.traffic import CbrSource

PROTOCOLS = ("aodv", "dymo", "olsr", "zrp")
SWEEP_SEEDS = tuple(range(1, 11))


class StubUpper:
    """Records MAC upcalls without doing any routing."""

    def __init__(self):
        self.received = []   # (payload, prev_hop)
        self.successes = []  # (dst, packet)
        self.failures = []   # (dst, packet)

    def on_receive(self, payload, prev_hop):
        self.received.append((payload, prev_hop))

    def on_unicast_success(self, dst, packet):
        self.successes.append((dst, packet))

    def on_unicast_failure(self, dst, packet):
        self.failures.append((dst, packet))


class FixedRng:
    """A DcfMac's backoff rng: randrange plays the scripted draws, or draws
    from the wrapped random.Random, and records in `windows` the contention
    window of each draw (every backoff draw is randrange(cw + 1))."""

    def __init__(self, values=(), rng=None):
        self.values = list(values)
        self.rng = rng
        self.windows = []

    def randrange(self, stop):
        self.windows.append(stop - 1)
        if self.rng is not None:
            return self.rng.randrange(stop)
        v = self.values.pop(0)
        assert 0 <= v < stop
        return v


class MacWorld:
    """A static set of nodes with DCF MACs on one channel, no routing."""

    def __init__(self, positions, config=None, seed=7, trace=True):
        self.sim = Simulator(seed)
        if trace:
            self.sim.trace = []
        self.config = config or ScenarioConfig()
        self.ledger = MetricsLedger(node_ids=list(positions), session_ids=[])
        self.nodes = {}
        self.uppers = {}
        rng = random.Random(seed)
        for nid, pos in positions.items():
            node = Node(self.sim, nid, self.config, self.ledger)
            node.pos = pos
            self.nodes[nid] = node
        self.channel = Channel(self.sim, self.config, self.nodes)
        for nid, node in self.nodes.items():
            node.mac = DcfMac(self.sim, node, self.channel, self.config, rng)
            upper = StubUpper()
            node.mac.upper = upper
            self.uppers[nid] = upper

    def send(self, src, dst, payload="x", payload_bytes=512):
        self.nodes[src].mac.enqueue(dst, payload, payload_bytes)

    def run(self, until_us):
        self.sim.run_until(until_us)

    def rx_records(self, node_id=None, kind=None):
        out = []
        for t in self.sim.trace:
            if t[0] != "rx":
                continue
            if node_id is not None and t[2] != node_id:
                continue
            if kind is not None and t[3] != kind:
                continue
            out.append(t)
        return out

    def tx_records(self, node_id=None, kind=None):
        out = []
        for t in self.sim.trace:
            if t[0] != "tx":
                continue
            if node_id is not None and t[2] != node_id:
                continue
            if kind is not None and t[3] != kind:
                continue
            out.append(t)
        return out


def make_static_config(positions, sessions=(), protocol="aodv", seed=1,
                       sim_time_s=30.0, **overrides):
    """Scenario with pinned node positions (static unless waypoints given)."""
    cfg = ScenarioConfig(
        num_nodes=len(positions), protocol=protocol, seed=seed,
        sim_time_s=sim_time_s, sessions=0,
        explicit_sessions=list(sessions),
        positions={i: positions[i] for i in positions},
        **overrides)
    return cfg.validate()


def run_static(positions, sessions=(), protocol="aodv", seed=1,
               sim_time_s=30.0, trace=False, **overrides):
    cfg = make_static_config(positions, sessions, protocol, seed, sim_time_s,
                             **overrides)
    simulation = Simulation(cfg, trace=trace)
    simulation.run()
    return simulation


def line_positions(n, spacing=80.0, y=100.0):
    return {i: (50.0 + i * spacing, y) for i in range(n)}


def refused_sleep(protocol):
    """A patch under which the agent lets no source sleep: OLSR's source
    miss only drops, and a reactive agent never finds its buffer full."""
    if protocol == "olsr":
        return patch.object(OlsrAgent, "on_source_miss",
                            Agent.on_source_miss)
    return patch.object(ReactiveAgent, "_full_buffer",
                        lambda agent, pkt: False)


# The functions that wake a sleeping source: OLSR's link changes (a HELLO,
# a TC), a new route entry (learn_route, ZRP's _install_from_route), a
# flush or drop of the pending buffer, and the end of Simulation.run. A
# sweep or link failure wakes none; they stay listed so that a stray wake
# from a removal is counted at its own site.
WAKE_SITES = ("_process_hello", "_process_tc", "_sweep", "on_link_failure",
              "learn_route", "_install_from_route", "flush_pending",
              "drop_pending", "run")


@contextmanager
def counting_wakes():
    """Yield a Counter that gains 1 at site for each wake of a sleeping
    source that counted ticks, site being the innermost WAKE_SITES
    function it is called in. A TC from an originator whose link set
    was known counts as "_process_tc known". Fails if any settle runs
    inside a CBR tick: settle schedules the tick due now, which only
    holds if that tick has not run."""
    woken = Counter()
    settle = CbrSource.settle
    tick = CbrSource._tick.__code__

    def counted(source):
        frame = sys._getframe(1)
        while frame is not None:
            assert frame.f_code is not tick, "a CBR tick woke a source"
            frame = frame.f_back
        sent = source.counters.app_sent
        settle(source)
        if source.counters.app_sent == sent:
            return
        frame = sys._getframe(1)
        while frame.f_code.co_name not in WAKE_SITES:
            frame = frame.f_back
        site = frame.f_code.co_name
        if site == "_process_tc" and frame.f_locals["current"] is not None:
            site += " known"
        woken[site] += 1

    with patch.object(CbrSource, "settle", counted):
        yield woken


def cbr_deferred(simulation):
    """The ticks a run's sleeping sources counted, over every agent."""
    return sum(node.agent.stats.get("cbr_deferred", 0)
               for node in simulation.nodes.values())


@pytest.fixture
def sim():
    return Simulator(seed=3)


def csv_digest(ledger):
    """sha256 of the run's metrics.csv bytes."""
    return hashlib.sha256(ledger.to_csv().encode()).hexdigest()


def trace_digest(trace):
    """sha256 of a run's trace records, one repr per line."""
    return hashlib.sha256(
        "".join("%r\n" % (record,) for record in trace).encode()).hexdigest()


def run_traced_baseline():
    """The fully traced table1 AODV seed-1 run."""
    simulation = Simulation(ScenarioConfig().validate(), protocol="aodv",
                            seed=1, trace=True)
    simulation.run()
    return simulation


def dispatch_counts(layers):
    """The counts of a profile's layers, as `vanetsim run --profile` writes
    them: layer -> callback qualname -> dispatches."""
    return {layer: {name: callback["dispatches"]
                    for name, callback in entry["callbacks"].items()}
            for layer, entry in layers.items()}


def run_sweep():
    """Run table1 for every protocol and sweep seed.

    Returns the records, one per run, and the wall time taken. A record's
    `events` is the number of events the run scheduled; a seed-1 run is
    profiled, and its record also has the `dispatches` of each callback.
    """
    config = ScenarioConfig().validate()
    records = []
    started = time.perf_counter()
    for proto in PROTOCOLS:
        for seed in SWEEP_SEEDS:
            simulation = Simulation(config, protocol=proto, seed=seed)
            if seed == 1:
                simulation.sim.profile = {}
            ledger = simulation.run()
            records.append({"protocol": proto, "seed": seed,
                            "scenario_id": ledger.scenario_id,
                            "totals": ledger.totals(),
                            "digest": csv_digest(ledger),
                            "events": simulation.sim._seq})
            if seed == 1:
                records[-1]["dispatches"] = dispatch_counts(
                    dispatch_profile(simulation.sim.profile))
    return records, time.perf_counter() - started


@pytest.fixture(scope="session")
def sweep():
    """Full 4-protocol x 10-seed baseline sweep.

    Shared by acceptance criteria 11 and 12 and the table1 golden digests
    and event counts, so these cost no extra runs.
    """
    return run_sweep()
