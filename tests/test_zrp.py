"""Zone construction, intrazone routing, and bordercast queries."""

import pytest

from vanetsim.routing.base import DUP_CACHE_CAP
from vanetsim.scenario import ScenarioError
from vanetsim.simulation import Simulation
from conftest import line_positions, make_static_config, run_static


def test_zone_radius_zero_rejected():
    with pytest.raises(ScenarioError):
        make_static_config(line_positions(3), protocol="zrp", zone_radius=0)


@pytest.mark.parametrize("radius, zone0, peripheral0, peripheral2, relayed", [
    (2, {1: (0, 1), 2: (0, 1, 2)}, {2}, {0, 4}, (0, 0)),
    # adverts travel radius - 1 hops, so only radius 3 relays them
    (3, {1: (0, 1), 2: (0, 1, 2), 3: (0, 1, 2, 3)}, {3}, set(), (5, 10)),
], ids=("radius2", "radius3"))
def test_zone_paths_and_peripherals_on_line(radius, zone0, peripheral0,
                                             peripheral2, relayed):
    s = run_static(line_positions(5), protocol="zrp", sim_time_s=15.0,
                   zone_radius=radius)
    a = {nid: n.agent for nid, n in s.nodes.items()}
    assert a[0].paths == zone0
    assert a[0].peripheral_set == peripheral0
    assert set(a[2].paths) == {0, 1, 3, 4}
    assert a[2].peripheral_set == peripheral2
    assert (a[0].stats.get("iarp_forwarded", 0),
            a[2].stats.get("iarp_forwarded", 0)) == relayed


def test_zone_on_star_topology():
    positions = {0: (500.0, 500.0)}
    arms = [(1, (580.0, 500.0)), (2, (660.0, 500.0)),
            (3, (500.0, 580.0)), (4, (500.0, 660.0)),
            (5, (420.0, 500.0)), (6, (340.0, 500.0))]
    positions.update(dict(arms))
    s = run_static(positions, protocol="zrp", sim_time_s=15.0)
    center = s.nodes[0].agent
    assert set(center.paths) == {1, 2, 3, 4, 5, 6}
    assert center.peripheral_set == {2, 4, 6}  # the three arm tips


def test_intrazone_destination_needs_no_query():
    s = run_static(line_positions(5), sessions=[(0, 2)], protocol="zrp",
                   sim_time_s=10.0)
    for node in s.nodes.values():
        assert node.agent.stats.get("ierp_queries_sent", 0) == 0
        assert node.agent.stats.get("ierp_replies_sent", 0) == 0
    assert s.ledger.session[0].app_received > 30


def test_interzone_query_resolves_in_one_bordercast_stage():
    s = run_static(line_positions(5), sessions=[(0, 4)], protocol="zrp",
                   sim_time_s=15.0)
    a = {nid: n.agent for nid, n in s.nodes.items()}
    assert a[0].stats.get("ierp_query_rounds", 0) >= 1
    assert a[2].stats.get("ierp_stage_seen_1", 0) >= 1
    assert a[2].stats.get("ierp_replies_sent", 0) >= 1
    for agent in a.values():
        for key in agent.stats:
            assert not key.startswith("ierp_stage_seen_2")
    assert s.ledger.session[0].app_received > 20
    entry = s.nodes[0].agent.table.entries[4]
    assert tuple(entry.route) == (0, 1, 2, 3, 4)


def test_reply_installs_hop_by_hop_routes():
    s = run_static(line_positions(5), sessions=[(0, 4)], protocol="zrp",
                   sim_time_s=15.0)
    e1 = s.nodes[1].agent.table.entries.get(4)
    assert e1 is not None and e1.next_hop == 2


def test_two_stage_query_on_longer_line():
    # distance 6 needs an endpoint relay: stage 1 reaches node 2,
    # whose zone ends at 4, so a second bordercast reaches the target
    s = run_static(line_positions(7), sessions=[(0, 6)], protocol="zrp",
                   sim_time_s=20.0)
    a = {nid: n.agent for nid, n in s.nodes.items()}
    assert a[2].stats.get("ierp_stage_seen_1", 0) >= 1
    assert a[4].stats.get("ierp_stage_seen_2", 0) >= 1
    assert s.ledger.session[0].app_received > 10


def test_broken_interzone_route_stops_and_reports():
    s = run_static(line_positions(5), sessions=[(0, 4)], protocol="zrp",
                   sim_time_s=30.0,
                   waypoints={4: [(1370.0, 100.0, 20.0)]})
    sess = s.ledger.session[0]
    assert sess.app_received < sess.app_sent
    drops = sum(s.ledger.node[n].route_drops for n in s.nodes)
    assert drops > 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the neighbour's own advert edge keeps a dropped neighbour as the zone "
    "path's first hop; OLSR's symmetric first-hop rule would mend it and "
    "keeps criteria 11 and 12, but costs perfbench dense ZRP about a fifth "
    "more events and host time (ROADMAP item 2)"))
def test_dropped_neighbour_is_no_zone_first_hop():
    s = run_static(line_positions(4), protocol="zrp", sim_time_s=20.0)
    agent = s.nodes[0].agent
    agent.on_link_failure(1)
    assert [path for path in agent.paths.values() if path[1] == 1] == []


def test_advert_only_travels_radius_minus_one_hops():
    s = run_static(line_positions(5), protocol="zrp", sim_time_s=10.0)
    # with radius 2 the adverts are never relayed at all
    for node in s.nodes.values():
        assert node.agent.stats.get("iarp_forwarded", 0) == 0
    # yet full radius-2 zone knowledge exists (checked above); sanity:
    assert set(s.nodes[0].agent.paths) == {1, 2}


def test_advert_cache_stays_bounded_on_a_long_run():
    # A 20-node clique advertising every 0.5 s inserts ~38 keys/s per node,
    # well past the cache cap over 150 s.
    positions = {i: (100.0 + 10.0 * (i % 5), 100.0 + 10.0 * (i // 5))
                 for i in range(20)}
    s = run_static(positions, protocol="zrp", sim_time_s=150.0,
                   iarp_interval_s=0.5)
    for node in s.nodes.values():
        assert len(node.agent.adv_seen) <= DUP_CACHE_CAP + 1


def test_buffered_packets_leave_when_the_destination_enters_the_zone():
    # 2 drives in from out of reach and becomes 1's neighbour; 0 buffers
    # its packets for 2 until 1's advert brings 2 into 0's zone.
    positions = {0: (50.0, 100.0), 1: (130.0, 100.0), 2: (600.0, 100.0)}
    simulation = Simulation(make_static_config(
        positions, sessions=[(0, 2)], protocol="zrp", sim_time_s=30.0,
        waypoints={2: [(210.0, 100.0, 20.0)]}))
    agent = simulation.nodes[0].agent
    links_changed, send = agent._links_changed, agent.send_data_frame
    entered, sent = [], []

    def watched_links_changed():
        was_outside = 2 not in agent.paths
        waiting = 2 in agent.pending
        links_changed()
        if was_outside and 2 in agent.paths:
            entered.append((simulation.sim.now, waiting, 2 in agent.pending))

    def recorded_send(hop, pkt):
        sent.append((simulation.sim.now, pkt.dst))
        send(hop, pkt)

    agent._links_changed = watched_links_changed
    agent.send_data_frame = recorded_send
    simulation.run()
    assert len(entered) == 1
    at, waiting, still_waiting = entered[0]
    assert waiting and not still_waiting
    assert sent[0] == (at, 2)  # 0's first data frame
