"""Invariants of whole runs over small drawn scenarios.

Each example draws a mix of pinned, scripted and random nodes, a pause, a
radio, random sessions, a protocol and a seed, runs it, and checks the
identities every run must keep whatever its numbers are.
"""

import math

from hypothesis import given, settings, strategies as st

from vanetsim.engine import us
from vanetsim.mobility import position_at
from vanetsim.phy import received_power_dbm
from vanetsim.scenario import ScenarioConfig
from vanetsim.simulation import SESSION_STAGGER_US, Simulation

from conftest import PROTOCOLS, csv_digest

# (max_range_m, rx_threshold_dbm): the range gate binds; the threshold
# binds in free space (~56 m); it binds in two-ray ground (~299 m).
RADIOS = ((100.0, -75.0), (100.0, -60.0), (300.0, -77.0))


@st.composite
def scenarios(draw):
    n = draw(st.integers(2, 8))
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
            waypoints[nid] = draw(st.lists(waypoint, min_size=1, max_size=3))
    max_range, threshold = draw(st.sampled_from(RADIOS))
    return ScenarioConfig(
        num_nodes=n, terrain_width_m=width, terrain_height_m=height,
        sim_time_s=draw(st.floats(5.0, 20.0)),
        pause_s=draw(st.sampled_from((0.0, 0.5, 2.5))),
        sessions=draw(st.integers(0, min(4, n * (n - 1)))),
        interval_ms=draw(st.sampled_from((20.0, 250.0))),
        max_range_m=max_range, rx_threshold_dbm=threshold,
        protocol=draw(st.sampled_from(PROTOCOLS)),
        seed=draw(st.integers(1, 10 ** 6)),
        positions=positions, waypoints=waypoints).validate()


def brute_force_receivers(simulation, sender):
    """Enabled nodes a frame from `sender` reaches, by hypot and power,
    at positions computed afresh for the last mobility tick."""
    config = simulation.config
    mobility = simulation.mobility
    pos = {node.id: position_at(leg, mobility.sampled_at)
           for node, leg in mobility.legs}
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


def run_checking_receivers(config):
    """A plain run whose every transmission is checked by brute force."""
    simulation = Simulation(config)
    channel = simulation.channel
    transmit, begin = channel.transmit, channel._begin_reception
    reached = []

    def checked_transmit(node, frame):
        expected = brute_force_receivers(simulation, node)
        reached.clear()
        end = transmit(node, frame)
        assert reached == expected
        return end

    def recorded_begin(node, rec):
        reached.append(node.id)
        begin(node, rec)

    channel.transmit = checked_transmit
    channel._begin_reception = recorded_begin
    return simulation.run()


@settings(max_examples=30, derandomize=True, deadline=None)
@given(scenarios())
def test_run_invariants(config):
    simulation = Simulation(config)
    samples = [node.pos for node in simulation.nodes.values()]
    mobility = simulation.mobility
    tick = mobility._tick

    def sampled_tick():
        tick()
        mobility.sync()
        samples.extend(node.pos for node in simulation.nodes.values())

    mobility._tick = sampled_tick
    ledger = simulation.run()
    # Positions computed on every tick or only when a frame is sent, and
    # receivers taken from the reach radius or by brute force: same bytes.
    assert csv_digest(run_checking_receivers(config)) == csv_digest(ledger)

    end_us = us(config.sim_time_s)
    for c in ledger.node.values():
        assert c.tx_time_us + c.rx_time_us + c.idle_time_us == end_us
    interval_us = us(config.interval_ms / 1000.0)
    for sid, c in ledger.session.items():
        schedule = range(sid * SESSION_STAGGER_US, end_us, interval_us)
        assert c.app_sent == len(schedule)
        assert c.app_received <= c.app_sent
    assert len(samples) > len(simulation.nodes)  # ticks were sampled
    samples += [leg.dest for _, leg in simulation.mobility.legs]
    for x, y in samples:
        assert 0.0 <= x <= config.terrain_width_m
        assert 0.0 <= y <= config.terrain_height_m
