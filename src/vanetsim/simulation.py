"""Wires a scenario into a runnable simulation."""

import time
from dataclasses import replace

from .engine import Simulator, us
from .mac import DcfMac
from .metrics import MetricsLedger
from .mobility import MobilityManager, RandomWaypoint, Terrain
from .node import Node
from .phy import Channel
from .routing.aodv import AodvAgent
from .routing.dymo import DymoAgent
from .routing.olsr import OlsrAgent
from .routing.zrp import ZrpAgent
from .traffic import Battery, CbrSession, CbrSource

AGENTS = {
    "aodv": AodvAgent,
    "dymo": DymoAgent,
    "olsr": OlsrAgent,
    "zrp": ZrpAgent,
}

SESSION_STAGGER_US = 10_000


def draw_sessions(config, rng):
    """Seed-stable distinct ordered (src, dst) pairs."""
    if config.explicit_sessions:
        return list(config.explicit_sessions)
    pairs = []
    used = set()
    guard = 0
    while len(pairs) < config.sessions:
        src = rng.randrange(config.num_nodes)
        dst = rng.randrange(config.num_nodes)
        guard += 1
        if guard > 10000:
            raise RuntimeError("cannot draw distinct session pairs")
        if src == dst or (src, dst) in used:
            continue
        used.add((src, dst))
        pairs.append((src, dst))
    return pairs


class Simulation:
    def __init__(self, config, protocol=None, seed=None, trace=False):
        if protocol is not None or seed is not None:
            config = replace(
                config,
                protocol=protocol if protocol is not None else config.protocol,
                seed=seed if seed is not None else config.seed)
        config.validate()
        self.config = config
        self.end_us = us(config.sim_time_s)
        self.sim = Simulator(config.seed)
        if trace:
            self.sim.trace = []

        # Sessions start at staggered offsets so equal-interval sources do
        # not tick in lockstep (synchronized ticks make hidden senders
        # collide at every interval).
        sessions = draw_sessions(config, self.sim.rng.stream("topology"))
        self.sessions = [
            CbrSession(session_id=i, src=src, dst=dst,
                       payload_bytes=config.payload_bytes,
                       interval_us=us(config.interval_ms / 1000.0),
                       start_us=i * SESSION_STAGGER_US, stop_us=self.end_us)
            for i, (src, dst) in enumerate(sessions)]

        self.ledger = MetricsLedger(
            node_ids=range(config.num_nodes),
            session_ids=[s.session_id for s in self.sessions],
            protocol=config.protocol, seed=config.seed,
            scenario_id=config.scenario_id())

        self.nodes = {}
        for nid in range(config.num_nodes):
            battery = Battery(capacity_mah=config.capacity_mah,
                              tx_ma=config.tx_ma, rx_ma=config.rx_ma,
                              idle_ma=config.idle_ma)
            self.nodes[nid] = Node(self.sim, nid, battery, self.ledger)

        self.channel = Channel(self.sim, config, self.nodes)
        backoff_rng = self.sim.rng.stream("backoff")
        agent_cls = AGENTS[config.protocol]
        for nid in sorted(self.nodes):
            node = self.nodes[nid]
            node.mac = DcfMac(self.sim, node, self.channel, config,
                              backoff_rng, self.ledger.node[nid])
            node.agent = agent_cls(self.sim, node, self.ledger, config)
            node.mac.upper = node.agent

        terrain = Terrain(config.terrain_width_m, config.terrain_height_m)
        model = RandomWaypoint(terrain, config.speed_min_mps,
                               config.speed_max_mps, config.pause_s,
                               rng=self.sim.rng.stream("mobility"))
        fixed = {}
        for nid, pos in config.positions.items():
            fixed[nid] = {"position": pos, "waypoints": []}
        for nid, wps in config.waypoints.items():
            fixed.setdefault(nid, {"position": None})["waypoints"] = wps
        self.mobility = MobilityManager(
            self.sim, self.nodes, model,
            tick_us=us(config.mobility_tick_ms / 1000.0),
            end_us=self.end_us)
        self._fixed = fixed

        self.sources = [CbrSource(self.sim, s, self.nodes[s.src].agent,
                                  self.ledger)
                        for s in self.sessions]

    def run(self):
        started = time.perf_counter()
        self.mobility.start(self._fixed)
        for nid in sorted(self.nodes):
            self.nodes[nid].agent.start()
        for source in self.sources:
            source.start()
        self.sim.run_until(self.end_us)
        for nid in sorted(self.nodes):
            self.nodes[nid].finalize(self.end_us)
        self.ledger.sim_time_us = self.end_us
        self.ledger.wallclock_s = time.perf_counter() - started
        return self.ledger


def run_scenario(config, protocol=None, seed=None, trace=False):
    simulation = Simulation(config, protocol=protocol, seed=seed, trace=trace)
    return simulation.run()
