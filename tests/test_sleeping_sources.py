"""A source whose packets are doomed sleeps, and the agent wakes it at a
notice.

Each case is a small run built so that one notice wakes a source that
slept through some of its ticks; each removal case, one in which a sweep
or a link failure drops a neighbour while a source sleeps. It is compared
with the same run with every sleep refused: the same metrics.csv bytes,
and each counted tick one event fewer.
"""

import pytest

from vanetsim.simulation import Simulation

from conftest import (cbr_deferred, counting_wakes, csv_digest,
                      line_positions, make_static_config, refused_sleep)

FAR = (1400.0, 1400.0)  # out of every other node's range


def leaving(x, y):
    """Waypoints taking a node from (x, y) out of the 100 m range of any
    node it had in range, at 50 m/s."""
    return [(x + 800.0, y, 50.0)]


# node 1 starts 950 m from node 0 and stops 80 m from it after 4.35 s
ARRIVING = dict(positions={0: (50.0, 100.0), 1: (1000.0, 100.0)},
                waypoints={1: [(130.0, 100.0, 200.0)]})


CASES = {
    # 0 -> 1, 80 m apart: node 1's first HELLO, at 10 ms, lists node 0 as
    # heard, so the link turns symmetric and the path appears
    "hello": ("_process_hello", dict(
        protocol="olsr", positions=line_positions(2), sessions=[(0, 1)],
        sim_time_s=1.0, interval_ms=2.0)),
    # 0 -> 3 on a line: only node 2's TC, every 5 s, gives node 0 the last
    # link, to an originator whose empty link set it already holds
    "tc": ("_process_tc known", dict(
        protocol="olsr", positions=line_positions(4), sessions=[(0, 3)],
        sim_time_s=8.0, hello_interval_s=1.0)),
    # 0 <-> 1 while node 1 arrives: the request of one reaches the other
    # while its own round runs, and the reverse route lets it send at once
    "route-aodv": ("learn_route", dict(
        ARRIVING, protocol="aodv", sessions=[(0, 1), (1, 0)],
        sim_time_s=10.0)),
    "route-dymo": ("learn_route", dict(
        ARRIVING, protocol="dymo", sessions=[(0, 1), (1, 0)],
        sim_time_s=10.0)),
    # 0 -> 3 on a line with one-hop zones: the first requests go out
    # before the zones are built, and the reply to a retry installs the
    # route
    "route-zrp": ("_install_from_route", dict(
        protocol="zrp", positions=line_positions(4), sessions=[(0, 3)],
        sim_time_s=2.0, interval_ms=50.0, zone_radius=1)),
    # node 1 enters node 0's zone, which ends the round and flushes
    "flush": ("flush_pending", dict(
        ARRIVING, protocol="zrp", sessions=[(0, 1)], sim_time_s=10.0)),
    # node 1 is out of reach: the round fails at 3.5 s and drops the buffer
    "drop": ("drop_pending", dict(
        protocol="aodv", positions={0: (50.0, 100.0), 1: FAR},
        sessions=[(0, 1)], sim_time_s=5.0)),
    # as above, but the run ends first
    "run-end": ("run", dict(
        protocol="aodv", positions={0: (50.0, 100.0), 1: FAR},
        sessions=[(0, 1)], sim_time_s=3.0)),
}


# A sweep or a link failure only takes links away, which gives no sleeping
# source a path, so neither wakes one.
# node 0 has no path to node 2; node 1 leaves, and the sweep expires it
SWEPT = dict(
    protocol="olsr", positions={0: (50.0, 100.0), 1: (130.0, 100.0), 2: FAR},
    waypoints={1: leaving(130.0, 100.0)}, sessions=[(0, 2)],
    sim_time_s=10.0, hello_interval_s=1.0)
REMOVALS = {
    "sweep": SWEPT,
    # as above, but node 0 also sends to node 1, whose MAC retries run out
    # before the sweep expires it
    "link-failure": dict(SWEPT, sessions=[(0, 2), (0, 1)]),
}


def static_config(scenario):
    scenario = dict(scenario)
    return make_static_config(scenario.pop("positions"),
                              scenario.pop("sessions"), **scenario)


def sleeping_and_refused(config):
    """Run config as it is and with every sleep refused; check the two
    runs agree and return where the first woke its sources."""
    sleeping = Simulation(config)
    with counting_wakes() as woken:
        ledger = sleeping.run()
    with refused_sleep(config.protocol):
        refused = Simulation(config)
        refused_ledger = refused.run()
    assert csv_digest(ledger) == csv_digest(refused_ledger)
    deferred = cbr_deferred(sleeping)
    assert deferred > 0
    assert refused.sim._seq - sleeping.sim._seq == deferred
    return woken


@pytest.mark.parametrize("case", CASES)
def test_a_notice_wakes_the_sleeping_source(case):
    site, scenario = CASES[case]
    assert sleeping_and_refused(static_config(scenario))[site] > 0


@pytest.mark.parametrize("case", REMOVALS)
def test_a_removal_wakes_no_source(case):
    woken = sleeping_and_refused(static_config(REMOVALS[case]))
    assert woken["_sweep"] == woken["on_link_failure"] == 0
