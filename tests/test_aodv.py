"""On-demand discovery, duplicate suppression, cache replies, route errors."""

from conftest import line_positions, run_static


def agents(simulation):
    return {nid: n.agent for nid, n in simulation.nodes.items()}


def test_line_discovery_and_delivery():
    s = run_static(line_positions(4), sessions=[(0, 3)], protocol="aodv",
                   sim_time_s=10.0)
    sess = s.ledger.session[0]
    assert sess.app_received > 30  # 40 sent over 10 s, discovery eats a few
    assert sess.mean_delay_us > 0
    entry = s.nodes[0].agent.table.entries[3]
    assert entry.next_hop == 1 and entry.hop_count == 3


def test_originator_learns_only_the_destination():
    s = run_static(line_positions(4), sessions=[(0, 3)], protocol="aodv",
                   sim_time_s=2.0)
    valid = [e for e in s.nodes[0].agent.table.entries.values() if e.valid]
    assert [e.dest for e in valid] == [3]


def test_single_flood_forwards_once_per_node():
    s = run_static(line_positions(4), sessions=[(0, 3)], protocol="aodv",
                   sim_time_s=0.4)
    a = agents(s)
    assert a[0].stats.get("rreq_sent", 0) == 1
    assert a[1].stats.get("rreq_forwarded", 0) == 1
    assert a[2].stats.get("rreq_forwarded", 0) == 1
    assert a[3].stats.get("rreq_forwarded", 0) == 0  # destination replies
    assert a[3].stats.get("rrep_sent", 0) == 1


def test_intermediate_with_cached_route_replies():
    # node 4 can only hear node 1; once 1 holds a route to 3 it answers
    # 4's request itself instead of re-flooding
    positions = line_positions(4)
    positions[4] = (130.0, 20.0)
    s = run_static(positions, sessions=[(0, 3), (4, 3)], protocol="aodv",
                   sim_time_s=10.0)
    a = agents(s)
    non_dest_rreps = sum(a[n].stats.get("rrep_sent", 0) for n in (0, 1, 2, 4))
    assert non_dest_rreps >= 1
    assert s.ledger.session[1].app_received > 0  # 4 -> 3 worked end to end
    assert s.nodes[4].agent.table.entries[3].next_hop == 1


def test_link_failure_sends_route_error_upstream():
    positions = line_positions(4)
    s = run_static(positions, sessions=[(0, 3)], protocol="aodv",
                   sim_time_s=30.0,
                   waypoints={3: [(1290.0, 100.0, 20.0)]})
    a = agents(s)
    assert a[2].stats.get("rerr_sent", 0) >= 1
    entry = s.nodes[0].agent.table.entries.get(3)
    assert entry is None or not entry.valid \
        or entry.expires_at < s.sim.now
    assert s.ledger.session[0].app_received < s.ledger.session[0].app_sent


def test_tables_stay_loop_free_on_line():
    s = run_static(line_positions(5), sessions=[(0, 4), (4, 0)],
                   protocol="aodv", sim_time_s=15.0)
    tables = {nid: n.agent.table for nid, n in s.nodes.items()}
    for start in s.nodes:
        for dest in s.nodes:
            walk, at = set(), start
            while at != dest:
                e = tables[at].lookup(dest, s.sim.now)
                if e is None:
                    break
                assert at not in walk
                walk.add(at)
                at = e.next_hop
