"""Invariants of whole runs over small drawn scenarios.

Each example draws a mix of pinned, scripted and random nodes, a pause, a
radio, random sessions, a protocol and a seed, runs it, and checks the
identities every run must keep whatever its numbers are.
"""

import math
from collections import Counter
from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from vanetsim.engine import us
from vanetsim.mobility import position_at
from vanetsim.node import Node
from vanetsim.phy import received_power_dbm
from vanetsim.routing.base import SWEEP_US, LinkStateAgent
from vanetsim.routing.olsr import Hello, OlsrAgent, TcMessage
from vanetsim.routing.reactive import ReactiveAgent
from vanetsim.routing.zrp import ZoneAdvert, ZrpAgent
from vanetsim.scenario import ScenarioConfig
from vanetsim.simulation import AGENTS, SESSION_STAGGER_US, Simulation

from conftest import (PROTOCOLS, cbr_deferred, counting_wakes, csv_digest,
                      refused_sleep)

# (max_range_m, rx_threshold_dbm): the range gate binds; the threshold
# binds in free space (~56 m); it binds in two-ray ground (~299 m).
RADIOS = ((100.0, -75.0), (100.0, -60.0), (300.0, -77.0))


@st.composite
def scenarios(draw, busy=False):
    """A drawn scenario. A busy one has fast nodes and runs 8-12 s with
    as many sessions as it may have, each sending every 20 ms."""
    n = draw(st.integers(2, 8))
    # fast nodes and short HELLO/IARP intervals let neighbours expire
    speed_min, speed_max = (20.0, 40.0) if busy else draw(
        st.sampled_from(((3.0, 20.0), (20.0, 40.0))))
    width = draw(st.sampled_from((100.0, 200.0, 400.0)))
    height = draw(st.sampled_from((100.0, 200.0, 400.0)))
    point = st.tuples(st.floats(0.0, width), st.floats(0.0, height))
    waypoint = st.tuples(st.floats(0.0, width), st.floats(0.0, height),
                         st.none() | st.floats(0.5, 30.0))
    positions, waypoints = {}, {}
    for nid in range(n):
        kind = draw(st.sampled_from(("random", "pinned", "scripted",
                                     "pinned scripted")))
        if "pinned" in kind:
            positions[nid] = draw(point)
        if "scripted" in kind:
            path = draw(st.lists(waypoint, min_size=1, max_size=3))
            if nid not in positions:  # the first waypoint is the start
                path[0] = path[0][:2] + (None,)
            waypoints[nid] = path
    max_range, threshold = draw(st.sampled_from(RADIOS))
    hello_s = draw(st.sampled_from((0.5, 1.0)))
    return ScenarioConfig(
        num_nodes=n, terrain_width_m=width, terrain_height_m=height,
        sim_time_s=draw(st.floats(8.0, 12.0) if busy
                        else st.floats(5.0, 20.0)),
        pause_s=draw(st.sampled_from((0.0, 0.5, 2.5))),
        sessions=min(4, n * (n - 1)) if busy
        else draw(st.integers(0, min(4, n * (n - 1)))),
        # 2.5 s: a packet would wait longer than its 10 s pending lifetime
        # behind five others
        interval_ms=20.0 if busy
        else draw(st.sampled_from((20.0, 250.0, 2500.0))),
        max_range_m=max_range, rx_threshold_dbm=threshold,
        hello_interval_s=hello_s, iarp_interval_s=hello_s,
        # a zone of radius 1 holds only the neighbours, so IERP finds
        # every longer route
        zone_radius=draw(st.sampled_from((1, 2, 3))),
        speed_min_mps=speed_min, speed_max_mps=speed_max,
        protocol=draw(st.sampled_from(PROTOCOLS)),
        seed=draw(st.integers(1, 10 ** 6)),
        # a charge so small that some radios run flat mid-run
        capacity_mah=draw(st.sampled_from((1500.0, 0.02))),
        positions=positions, waypoints=waypoints).validate()


class EagerMobility:
    """Oracle for Mobility: on every tick, before any other event of that
    instant, it draws the legs that have fallen due and moves every node.

    It takes over the legs that Mobility built, so the start points are the
    same, and draws new ones with Mobility.next_leg.
    """

    def __init__(self, simulation):
        self.simulation = simulation
        self.lazy = simulation.mobility
        self.at = 0
        self.samples = [node.pos for node, _ in self.lazy.legs]
        self.moved = False  # since the channel last asked
        simulation.mobility = self
        simulation.channel.sync = self.sync

    def start(self):
        # Called first in Simulation.run, so each tick precedes every other
        # event at its instant.
        lazy = self.lazy
        for t in range(lazy.tick_us, lazy.end_us + 1, lazy.tick_us):
            self.simulation.sim.schedule_at(t, self.tick)

    def tick(self):
        lazy = self.lazy
        now = self.at = self.simulation.sim.now
        for node, leg in lazy.legs:
            while not leg.done and leg.arrive_at + lazy.pause_us <= now:
                lazy.next_leg(leg, leg.arrive_at + lazy.pause_us)
            pos = position_at(leg, now)
            if pos != node.pos:
                node.pos = pos
                self.moved = True
        self.samples += [node.pos for node, _ in lazy.legs]

    def sync(self):
        """Whether a tick moved some node since the channel last asked."""
        moved, self.moved = self.moved, False
        return moved


class OwnSweep:
    """Each agent schedules its own expiry sweep a second after start and
    reschedules it every second, instead of the one shared sweep event."""

    def start(self):
        super().start()
        self.sim.schedule_after(SWEEP_US, self._sweep)

    def _sweep(self):
        super()._sweep()
        self.sim.schedule_after(SWEEP_US, self._sweep)


class EagerOlsr(OwnSweep, OlsrAgent):
    """Oracle for OlsrAgent: computes routes on every change to the link
    sets, as RFC 3626 section 10 words it."""

    def _links_changed(self):
        super()._links_changed()
        self._paths = self._shortest_paths(self._adjacency())


class EagerZrp(OwnSweep, ZrpAgent):
    """Oracle for ZrpAgent: rebuilds the zone on every change to the link
    sets, then ends discovery for each waiting destination it covers."""

    def _links_changed(self):
        LinkStateAgent._links_changed(self)
        self._paths = paths = self._shortest_paths(self._adjacency())
        for dest in sorted(self.pending):
            if dest in paths:
                self.discovery_succeeded(dest)


def brute_force_receivers(simulation, sender):
    """Enabled nodes a frame from `sender` reaches, by hypot and power,
    at positions computed afresh for the oracle's last tick."""
    config = simulation.config
    mobility = simulation.mobility
    pos = {node.id: position_at(leg, mobility.at)
           for node, leg in mobility.lazy.legs}
    if not sender.radio_enabled:
        return []
    out = []
    for nid in sorted(simulation.nodes):
        other = simulation.nodes[nid]
        if other is sender or not other.radio_enabled:
            continue
        d = math.hypot(pos[nid][0] - pos[sender.id][0],
                       pos[nid][1] - pos[sender.id][1])
        if 0.0 < d <= config.max_range_m and \
                received_power_dbm(d, config) >= config.rx_threshold_dbm:
            out.append(nid)
    return out


def run_eager_and_checked(config):
    """A run under EagerMobility and the eager link-state agents, each
    sweeping on its own timer, whose every transmission reaches exactly the
    nodes brute force selects; returns the ledger and the mobility oracle."""
    with patch.dict(AGENTS, olsr=EagerOlsr, zrp=EagerZrp):
        simulation = Simulation(config)
    oracle = EagerMobility(simulation)
    channel = simulation.channel
    transmit, end_air = channel.transmit, channel._end_air
    expected = {}  # sender id -> the receivers of its frame on the air

    def checked_transmit(node, frame):
        expected[node.id] = brute_force_receivers(simulation, node)
        return transmit(node, frame)

    def checked_end_air(node, frame, start, receivers):
        assert [other.id for other in receivers] == expected.pop(node.id)
        end_air(node, frame, start, receivers)

    channel.transmit = checked_transmit
    channel._end_air = checked_end_air
    with patch("vanetsim.simulation.start_sweeps", lambda sim, nodes: None):
        return simulation.run(), oracle


@settings(max_examples=30, derandomize=True, deadline=None)
@given(scenarios())
def test_run_invariants(config):
    simulation = Simulation(config)
    ledger = simulation.run()
    # Legs drawn only when due and positions computed only when a frame is
    # sent, receivers taken from the reach radius, routes and zones built
    # when read, one event sweeping every agent; or every node moved on
    # every tick, receivers found by brute force, routes and zones built on
    # every change, each agent sweeping on its own timer: the same bytes.
    eager, oracle = run_eager_and_checked(config)
    assert csv_digest(eager) == csv_digest(ledger)

    end_us = us(config.sim_time_s)
    capacity = config.capacity_mah
    for nid, c in ledger.node.items():
        assert c.tx_time_us + c.rx_time_us + c.idle_time_us == end_us
        assert simulation.nodes[nid].radio_enabled == \
            (c.residual_battery_mah != 0.0)
        drawn = (config.tx_ma * c.tx_time_us + config.rx_ma * c.rx_time_us
                 + config.idle_ma * c.idle_time_us) / 3.6e9
        assert c.residual_battery_mah == capacity - min(capacity, drawn)
        agent = simulation.nodes[nid].agent
        if isinstance(agent, ReactiveAgent):
            # buffer_packet reads a stored queue's head: none is empty
            assert all(agent.pending.values())
        if isinstance(agent, OlsrAgent):
            # first hops only from symmetric neighbours (RFC 3626 section 10)
            sym = agent._sym_neighbors()
            assert {path[1] for path in agent.paths.values()} <= sym
    interval_us = us(config.interval_ms / 1000.0)
    for sid, c in ledger.session.items():
        schedule = range(sid * SESSION_STAGGER_US, end_us, interval_us)
        assert c.app_sent == len(schedule)
        assert c.app_received <= c.app_sent
    samples = oracle.samples
    assert len(samples) > len(simulation.nodes)  # ticks were sampled
    samples += [leg.dest for _, leg in simulation.mobility.legs]
    for x, y in samples:
        assert 0.0 <= x <= config.terrain_width_m
        assert 0.0 <= y <= config.terrain_height_m


def test_battery_horizon_changes_no_byte():
    # Each node reads its charge only from its depletion horizon on,
    # against at every call: every radio goes flat at the same call, so
    # the same bytes.
    flat = []

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(scenarios().map(lambda config: replace(config, capacity_mah=0.02)))
    def same_run(config):
        simulation = Simulation(config)
        ledger = simulation.run()
        with patch.object(Node, "_next_horizon", lambda node, now, drawn: now):
            every_call = Simulation(config).run()
        assert csv_digest(every_call) == csv_digest(ledger)
        flat.append(not all(node.radio_enabled
                            for node in simulation.nodes.values()))

    same_run()
    assert any(flat)  # some radio went flat mid-run


# Where the drawn runs must wake a sleeping source, for each protocol.
WOKEN_AT = {
    "aodv": {"learn_route", "drop_pending", "run"},
    "dymo": {"learn_route", "drop_pending", "run"},
    "olsr": {"_process_hello", "_process_tc", "_process_tc known", "_sweep",
             "on_link_failure", "run"},
    "zrp": {"_install_from_route", "flush_pending", "drop_pending", "run"},
}


@pytest.mark.parametrize("protocol", ("aodv", "dymo", "olsr", "zrp"))
def test_counting_doomed_packets_changes_no_byte(protocol):
    # A source that sleeps through the packets its agent can only
    # drop (a full pending buffer, or no path), and counts them when the
    # agent wakes it, against one whose every packet reaches the agent: the
    # same bytes, and each counted tick one event fewer.
    woken = Counter()

    # busy runs as well as the full domain, so that every site wakes some
    # source
    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(st.one_of(scenarios(), scenarios(busy=True)))
    def same_run(config):
        config = replace(config, protocol=protocol)
        counting = Simulation(config)
        with counting_wakes() as wakes:
            ledger = counting.run()
        with refused_sleep(protocol):
            eager = Simulation(config)
            eager_ledger = eager.run()
        assert csv_digest(ledger) == csv_digest(eager_ledger)
        assert eager.sim._seq - counting.sim._seq == cbr_deferred(counting)
        woken.update(wakes)

    same_run()
    assert WOKEN_AT[protocol] <= set(woken)


def dropping_after_every_message(agent_cls, skipped):
    """agent_cls's handlers, each calling _neighbors_changed (which drops
    the paths and OLSR's HELLO) after every HELLO, TC or advert; a HELLO,
    or an advert heard for the first time, that left a built map of paths
    in place adds 1 to skipped[0]."""

    def wrap(handler):
        def handle(agent, msg, prev_hop):
            paths = agent._paths
            first = isinstance(msg, Hello) or (
                isinstance(msg, ZoneAdvert) and msg.orig != agent.node.id
                and (msg.orig, msg.seq) not in agent.adv_seen)
            handler(agent, msg, prev_hop)
            skipped[0] += first and paths is not None and agent._paths is paths
            agent._neighbors_changed()
        return handle

    return {kind: wrap(handler) if kind in (Hello, TcMessage, ZoneAdvert)
            else handler for kind, handler in agent_cls.handlers.items()}


@pytest.mark.parametrize("protocol", ("olsr", "zrp"))
def test_dropping_paths_only_on_a_link_change_changes_no_byte(protocol):
    # Paths (and OLSR's HELLO) dropped after every message that carries
    # links, against the paths dropped only when a message changes some
    # link and the HELLO only when it changes a neighbour record: the same
    # bytes and the same events scheduled.
    agent_cls = AGENTS[protocol]
    skips = []

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(scenarios())
    def same_run(config):
        config = replace(config, protocol=protocol)
        changing = Simulation(config)
        ledger = changing.run()
        skipped = [0]
        with patch.object(agent_cls, "handlers",
                          dropping_after_every_message(agent_cls, skipped)):
            dropping = Simulation(config)
            dropping_ledger = dropping.run()
        assert csv_digest(ledger) == csv_digest(dropping_ledger)
        # a dropping run wakes its sleeping sources more often
        assert (changing.sim._seq + cbr_deferred(changing)
                == dropping.sim._seq + cbr_deferred(dropping))
        skips.append(skipped[0])

    same_run()
    assert any(skips)  # some message changed no link and kept the paths


@pytest.mark.parametrize("protocol", ("olsr", "zrp"))
def test_shared_sweep_matches_own_sweeps_where_links_expire(protocol):
    # Fast nodes on a small terrain break links all run long, so the sweeps
    # keep expiring neighbours and link-state entries.
    config = ScenarioConfig(
        num_nodes=12, terrain_width_m=400.0, terrain_height_m=400.0,
        speed_min_mps=10.0, speed_max_mps=30.0, pause_s=0.0,
        sim_time_s=120.0, sessions=3, protocol=protocol, seed=1).validate()
    simulation = Simulation(config)
    expired = []
    sweep = LinkStateAgent._sweep

    def counted(agent):
        before = len(agent.neighbors) + len(agent.link_state)
        sweep(agent)
        expired.append(before - len(agent.neighbors) - len(agent.link_state))

    with patch.object(LinkStateAgent, "_sweep", counted):
        ledger = simulation.run()
    assert sum(expired) > 100
    eager, _ = run_eager_and_checked(config)
    assert csv_digest(eager) == csv_digest(ledger)


# Shifts, mirrors and swaps of a layout keep every distance, and with it
# every run, the same. Coordinates are multiples of 1/16 m below 1024 m,
# so each transformed coordinate and each squared distance is exact in
# binary floating point and not one bit of a distance moves.
RIGID_MOTIONS = {
    "mirror x": lambda x, y: (512.0 - x, y),
    "swap x and y": lambda x, y: (y, x),
    "shift": lambda x, y: (x + 256.0, y + 128.0),
}


@st.composite
def static_layouts(draw):
    n = draw(st.integers(4, 12))
    coord = st.integers(0, 128 * 16).map(lambda k: k / 16)
    positions = {nid: (draw(coord), draw(coord)) for nid in range(n)}
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    sessions = [draw(pair.filter(lambda p: p[0] != p[1])) for _ in range(3)]
    return positions, sessions, draw(st.integers(1, 1000))


@settings(max_examples=12, derandomize=True, deadline=None)
@given(static_layouts())
def test_rigidly_moved_layout_gives_the_same_bytes(layout):
    positions, sessions, seed = layout

    def digest(protocol, move):
        return csv_digest(Simulation(ScenarioConfig(
            num_nodes=len(positions), terrain_width_m=1024.0,
            terrain_height_m=1024.0, sim_time_s=20.0, sessions=0,
            explicit_sessions=sessions, protocol=protocol, seed=seed,
            positions={nid: move(x, y) for nid, (x, y) in positions.items()},
        ).validate()).run())

    for protocol in PROTOCOLS:
        want = digest(protocol, lambda x, y: (x, y))
        for name, move in RIGID_MOTIONS.items():
            assert digest(protocol, move) == want, (protocol, name)
