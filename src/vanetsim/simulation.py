"""Wires a scenario into a runnable simulation."""

import time
from dataclasses import replace

from .engine import Simulator, us
from .mac import DcfMac
from .metrics import MetricsLedger
from .mobility import Mobility
from .node import Node
from .phy import Channel
from .routing.aodv import AodvAgent
from .routing.dymo import DymoAgent
from .routing.olsr import OlsrAgent
from .routing.zrp import ZrpAgent
from .traffic import Battery, CbrSource

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
    while len(pairs) < config.sessions:
        src = rng.randrange(config.num_nodes)
        dst = rng.randrange(config.num_nodes)
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

        pairs = draw_sessions(config, self.sim.rng.stream("topology"))
        self.ledger = MetricsLedger(
            node_ids=range(config.num_nodes),
            session_ids=range(len(pairs)),
            protocol=config.protocol, seed=config.seed,
            scenario_id=config.scenario_id())

        self.nodes = {nid: Node(self.sim, nid, Battery(config), self.ledger)
                      for nid in range(config.num_nodes)}

        self.channel = Channel(self.sim, config, self.nodes)
        backoff_rng = self.sim.rng.stream("backoff")
        agent_cls = AGENTS[config.protocol]
        for nid in sorted(self.nodes):
            node = self.nodes[nid]
            node.mac = DcfMac(self.sim, node, self.channel, config,
                              backoff_rng, self.ledger.node[nid])
            node.agent = agent_cls(self.sim, node, self.ledger, config)
            node.mac.upper = node.agent

        self.mobility = Mobility(self.sim, self.nodes, config)
        # A frame brings positions up to the last tick; a move there drops
        # the channel's receiver lists.
        self.channel.sync = self.mobility.sync
        self.mobility.on_move = self.channel.moved
        # Sessions start at staggered offsets so equal-interval sources do
        # not tick in lockstep (synchronized ticks make hidden senders
        # collide at every interval).
        self.sessions = [
            CbrSource(self.sim, config, i, src, dst, i * SESSION_STAGGER_US,
                      self.nodes[src].agent, self.ledger)
            for i, (src, dst) in enumerate(pairs)]

    def run(self):
        started = time.perf_counter()
        self.mobility.start()
        for nid in sorted(self.nodes):
            self.nodes[nid].agent.start()
        for source in self.sessions:
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
