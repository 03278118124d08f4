"""Invariants of whole runs over small drawn scenarios.

Each example draws a mix of pinned, scripted and random nodes, a pause,
random sessions, a protocol and a seed, runs it, and checks the identities
every run must keep whatever its numbers are.
"""

from hypothesis import given, settings, strategies as st

from vanetsim.engine import us
from vanetsim.scenario import ScenarioConfig
from vanetsim.simulation import SESSION_STAGGER_US, Simulation

from conftest import PROTOCOLS


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
    return ScenarioConfig(
        num_nodes=n, terrain_width_m=width, terrain_height_m=height,
        sim_time_s=draw(st.floats(5.0, 20.0)),
        pause_s=draw(st.sampled_from((0.0, 0.5, 2.5))),
        sessions=draw(st.integers(0, min(4, n * (n - 1)))),
        interval_ms=draw(st.sampled_from((20.0, 250.0))),
        protocol=draw(st.sampled_from(PROTOCOLS)),
        seed=draw(st.integers(1, 10 ** 6)),
        positions=positions, waypoints=waypoints).validate()


@settings(max_examples=30, derandomize=True, deadline=None)
@given(scenarios())
def test_run_invariants(config):
    simulation = Simulation(config)
    samples = [node.pos for node in simulation.nodes.values()]
    tick = simulation.mobility._tick

    def sampled_tick():
        tick()
        samples.extend(node.pos for node in simulation.nodes.values())

    simulation.mobility._tick = sampled_tick
    ledger = simulation.run()

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
