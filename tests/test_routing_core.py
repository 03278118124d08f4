"""Route table freshness rules, packets, control message sizes and
dispatch, the pending-packet buffer and discovery schedule of the
on-demand agents, RERR counting, the duplicate cache, the flood relay, the
shared expiry sweep and the link-state path rule."""

import math
import random
from dataclasses import replace

import pytest

from vanetsim.engine import Simulator, us
from vanetsim.metrics import MetricsLedger, NodeCounters
from vanetsim.routing.aodv import AodvAgent, Rrep, Rreq
from vanetsim.routing.base import (DUP_CACHE_CAP, FORWARD_STAGGER_US,
                                   DupCache, LinkStateAgent, Packet,
                                   RouteEntry, RoutingTable)
from vanetsim.routing.dymo import DymoRrep, DymoRreq
from vanetsim.routing.olsr import TC_TTL, Hello, OlsrAgent, TcMessage
from vanetsim.routing.reactive import PENDING_PER_DEST, ReactiveAgent, Rerr
from vanetsim.routing.zrp import IerpError, IerpQuery, IerpReply, ZoneAdvert
from vanetsim.scenario import ScenarioConfig
from vanetsim.simulation import AGENTS, Simulation
from vanetsim.traffic import CbrSource

from conftest import line_positions, make_static_config, run_static


def entry(dest=5, next_hop=1, seq=1, hops=2, expires=10_000_000, valid=True):
    return RouteEntry(dest=dest, next_hop=next_hop, seq_no=seq,
                      hop_count=hops, expires_at=expires, valid=valid)


def test_lookup_filters_invalid_and_expired():
    t = RoutingTable()
    t.entries[5] = entry(valid=False)
    assert t.lookup(5, 0) is None
    t.entries[5] = entry(expires=100)
    assert t.lookup(5, 101) is None
    assert t.lookup(5, 100) is not None
    assert t.lookup(99, 0) is None


def test_fresher_sequence_number_wins():
    t = RoutingTable()
    t.update_if_fresher(entry(seq=3, hops=2))
    assert not t.update_if_fresher(entry(seq=2, hops=1))  # stale
    assert t.update_if_fresher(entry(seq=4, hops=9))      # fresher
    assert t.entries[5].hop_count == 9


def test_equal_sequence_prefers_fewer_hops():
    t = RoutingTable()
    t.update_if_fresher(entry(seq=3, hops=4))
    assert not t.update_if_fresher(entry(seq=3, hops=4))
    assert t.update_if_fresher(entry(seq=3, hops=2))
    assert not t.update_if_fresher(entry(seq=3, hops=3))


def test_equal_sequence_replaces_invalid_entry():
    t = RoutingTable()
    t.entries[5] = entry(seq=3, hops=1, valid=False)
    assert t.update_if_fresher(entry(seq=3, hops=7))
    assert t.entries[5].valid


def test_invalidate_bumps_sequence_number():
    # a RERR invalidates a route at one past its seq_no, or at a later one
    # reported; an invalid route is neither bumped nor reported again
    agent = miss_agent("aodv")
    agent.learn_route(5, 1, 3, 2)
    agent.learn_route(6, 1, 3, 2)
    agent.on_receive(Rerr(((5, 0), (6, 7), (99, 1))), prev_hop=1)
    assert [(agent.table.entries[d].valid, agent.table.entries[d].seq_no)
            for d in (5, 6)] == [(False, 4), (False, 7)]
    assert agent.node.mac.sent == [Rerr(((5, 4), (6, 7)))]
    agent.on_receive(Rerr(((5, 9),)), prev_hop=1)
    assert agent.table.entries[5].seq_no == 4
    assert agent.node.mac.sent == [Rerr(((5, 4), (6, 7)))]


def test_hop_copy_decrements_ttl_only():
    p = Packet(src=1, dst=2, ttl=10, size_bytes=512, session_id=3, seq=7,
               sent_at=11)
    q = p.hop_copy()
    assert q.ttl == 9 and p.ttl == 10
    assert q == replace(p, ttl=9)  # every other field, whatever they are


def test_control_message_sizes():
    route = (0, 4, 7, 9)
    sizes = [
        (Rreq(1, 0, 1, 9, 0, 0, 35), 24),
        (Rrep(0, 9, 1, 0), 20),
        (Rerr(((1, 2), (3, 4), (5, 6))), 32),
        (DymoRreq(0, 9, ((0, 1, 0), (4, 1, 1), (7, 1, 2)), 1, 35), 52),
        (DymoRrep(0, 9, ((9, 1, 0), (7, 1, 1))), 40),
        (Hello(sender=0, sym=(1, 2), heard=(3,), mprs=(1,)), 28),
        (TcMessage(0, 0, (1, 2, 3), (0, 1), TC_TTL), 24),
        (ZoneAdvert(0, sym=(1, 2), heard=(3,), seq=1, ttl=1), 24),
        (IerpQuery((0, 1), 9, route_so_far=(0, 4, 7), leg=(9,), stage=1), 24),
        (IerpReply(route), 28),
        (IerpError(route), 28),
    ]
    assert [(type(m).__name__, m.size_bytes) for m, _ in sizes] == [
        (type(m).__name__, size) for m, size in sizes]


class Shell:
    id = 0
    mac = None

    def __init__(self):
        self.counters = NodeCounters()


def test_control_message_without_a_handler_fails_loudly():
    agent = AodvAgent(Simulator(seed=1), Shell(), ScenarioConfig())
    with pytest.raises(KeyError):
        agent.on_receive(Hello(sender=5, sym=(), heard=(), mprs=()), 5)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "update_if_fresher treats a valid but expired route as live, so at an "
    "equal sequence number only a shorter route replaces it; RFC 3561 "
    "section 6.7 replaces an inactive one, and the fix moves pinned digests"))
def test_expired_route_gives_way_at_an_equal_sequence_number():
    sim = Simulator(seed=1)
    agent = AodvAgent(sim, Shell(), ScenarioConfig())
    agent.learn_route(9, 4, 3, 2)
    sim.run_until(us(11))  # past the 10 s route lifetime
    agent.learn_route(9, 5, 3, 4)
    assert agent.next_hop(9) == 5


def make_agent():
    sim = Simulator(seed=1)
    agent = ReactiveAgent(sim, Shell())
    return sim, agent.node.counters, agent


def test_pending_buffer_caps_per_destination():
    sim, counters, agent = make_agent()
    for i in range(PENDING_PER_DEST + 2):
        agent.buffer_packet(Packet(src=0, dst=9, seq=i))
    assert len(agent.pending[9]) == PENDING_PER_DEST
    assert counters.route_drops == 2
    # oldest were evicted first
    assert [p.seq for p in agent.pending[9]] == [2, 3, 4, 5, 6]


def test_pending_buffer_expires_stale_packets():
    sim, counters, agent = make_agent()
    agent.buffer_packet(Packet(src=0, dst=9, seq=1))
    sim.run_until(us(11))  # past the 10 s pending lifetime
    agent.buffer_packet(Packet(src=0, dst=9, seq=2, sent_at=sim.now))
    assert [p.seq for p in agent.pending[9]] == [2]
    assert counters.route_drops == 1


def test_drop_pending_counts_everything():
    sim, counters, agent = make_agent()
    for i in range(3):
        agent.buffer_packet(Packet(src=0, dst=9, seq=i))
    agent.drop_pending(9)
    assert 9 not in agent.pending
    assert counters.route_drops == 3


def test_flush_pending_sends_via_fresh_route():
    sim, counters, agent = make_agent()
    sent = []
    agent.send_data_frame = lambda nh, pkt: sent.append((nh, pkt.seq))
    for i in range(2):
        agent.buffer_packet(Packet(src=0, dst=9, seq=i))
    agent.table.update_if_fresher(entry(dest=9, next_hop=4, expires=us(100)))
    agent.flush_pending(9)
    assert sent == [(4, 0), (4, 1)]
    assert 9 not in agent.pending


@pytest.mark.parametrize("protocol", ("aodv", "dymo", "zrp"))
def test_partitioned_destination_discovery_schedule(protocol):
    config = make_static_config({0: (100.0, 100.0), 1: (1400.0, 1400.0)},
                                sessions=[(0, 1)], protocol=protocol,
                                sim_time_s=80.0)
    simulation = Simulation(config)
    agent = simulation.nodes[0].agent
    emitted, emit = [], agent.emit_discovery

    def recording(dest):
        emitted.append(simulation.sim.now / us(1))
        emit(dest)

    agent.emit_discovery = recording
    simulation.run()
    # rounds of 3 attempts 0.5 s and 1 s apart, each failed round holding
    # the next off for 2, 4, 8, then the 16 s cap
    assert emitted == [0, 0.5, 1.5, 5.5, 6.0, 7.0, 13.0, 13.5, 14.5,
                       24.5, 25.0, 26.0, 44.0, 44.5, 45.5, 63.5, 64.0, 65.0]
    assert simulation.ledger.session[0].app_sent == 320
    assert simulation.ledger.session[0].app_received == 0
    assert simulation.ledger.node[0].route_drops == 315


def test_route_found_during_a_holdoff_ends_the_waiting_round():
    sim, counters, agent = make_agent()
    requests, sent = [], []
    agent.emit_discovery = lambda dest: requests.append(sim.now)
    agent.send_data_frame = lambda hop, pkt: sent.append(
        (sim.now, hop, pkt.seq))
    agent.handle_app_packet(Packet(src=0, dst=9, seq=1))
    sim.run_until(us(3.75))  # the round failed at 3.5 s: held off to 5.5 s
    agent.handle_app_packet(Packet(src=0, dst=9, seq=2))
    sim.run_until(us(4))
    agent.table.update_if_fresher(entry(dest=9, next_hop=4, expires=us(100)))
    agent.discovery_succeeded(9)
    sim.run_until(us(10))
    assert requests == [0, us(0.5), us(1.5)]
    assert sent == [(us(4), 4, 2)]
    assert counters.route_drops == 1


def run_sources(case, grant):
    """CBR sessions from a unit agent to node 9, a packet each 100 ms for
    4 s, behind discovery rounds whose requests go nowhere (the first
    fails at 3.5 s).

    gap: a route serves the packets sent at 0.2 and 0.3 s. shared: a
    second session to node 9 starts at 0.45 s, after the first's buffer
    is full. flush: a route appears at 1.25 s and ends the round. long:
    one session, a packet each 2.5 s for 60 s, whose oldest buffered
    packet expires as each new one comes.

    Returns what the run sends, reads and keeps, whether the agent let
    session 0's source sleep on each packet handed to it, and the packets
    the sources counted instead; with grant False no source may sleep.
    """
    sim, counters, agent = make_agent()
    starts = (0, us(0.45)) if case == "shared" else (0,)
    n = len(starts)
    ledger = MetricsLedger(node_ids=[0], session_ids=range(n))
    agent.emit_discovery = lambda dest: None
    sent, doomed, reads = [], [], []
    agent.send_data_frame = lambda hop, pkt: sent.append(
        (pkt.seq, pkt.sent_at))
    for name in ("flush_pending", "drop_pending"):
        def read(dest, empty=getattr(agent, name)):
            # the agent reads a settled buffer: the counters are exact
            empty(dest)
            reads.append((sim.now, counters.route_drops,
                          [ledger.session[i].app_sent for i in range(n)]))
        setattr(agent, name, read)
    handle = agent.handle_app_packet

    def handing(pkt):
        sleeps = handle(pkt)
        if pkt.session_id == 0:
            doomed.append(bool(sleeps))
        return sleeps

    agent.handle_app_packet = handing
    if not grant:
        agent._full_buffer = lambda pkt: False
    route = entry(dest=9, next_hop=4, expires=us(100))
    if case == "gap":
        sim.schedule_at(us(0.15), lambda: agent.table.update_if_fresher(route))
        sim.schedule_at(us(0.35), lambda: setattr(route, "valid", False))
    if case == "flush":
        def found():
            agent.table.update_if_fresher(route)
            agent.discovery_succeeded(9)
        sim.schedule_at(us(1.25), found)
    config = (ScenarioConfig(interval_ms=2500.0, sim_time_s=60.0)
              if case == "long"
              else ScenarioConfig(interval_ms=100.0, sim_time_s=4.0))
    sources = [CbrSource(sim, config, i, 0, 9, start, agent, ledger,
                         alone=n == 1) for i, start in enumerate(starts)]
    for source in sources:
        source.start()
    sim.run_until(us(config.sim_time_s))
    for source in sources:  # as Simulation.run does
        source.settle()
    kept = [(p.seq, p.sent_at) for p in agent.pending.get(9, ())]
    app_sent = [ledger.session[i].app_sent for i in range(n)]
    return ((sent, reads, kept, counters.route_drops, app_sent), doomed,
            agent.stats.get("cbr_deferred", 0))


@pytest.mark.parametrize("case", ("gap", "shared", "flush", "long"))
def test_counted_packets_are_the_packets_handed_over(case):
    eager, _, none = run_sources(case, grant=False)
    counted, doomed, deferred = run_sources(case, grant=True)
    assert counted == eager
    assert none == 0
    sent = eager[0]
    if case == "gap":
        assert sent == [(3, us(0.2)), (4, us(0.3))]
        # the buffer spans 7 and then 6 packets before it holds the last
        # 5; the failed round at 3.5 s drops it, and the next fills by 3.9
        assert doomed == [False] * 8 + [True] + [False] * 4 + [True]
        assert deferred == 26
    if case == "shared":
        # the agent would let session 0 sleep, which a shared pair forbids
        assert doomed[4] and deferred == 0
    if case == "flush":
        # the buffer's last five leave when the route appears, then each
        # packet goes out as it is sent
        assert sent[:6] == [(seq, us(0.1) * (seq - 1))
                            for seq in (9, 10, 11, 12, 13, 14)]
        assert deferred == 8
    if case == "long":
        # five packets 2.5 s apart span the 10 s pending lifetime, so
        # each new packet expires the oldest rather than pushing it out
        assert deferred == 2


def test_shared_pairs_count_nothing():
    positions = {0: (100.0, 100.0), 1: (1400.0, 1400.0)}
    sessions = [(0, 1), (0, 1), (1, 0)]  # a repeated session line is valid
    config = make_static_config(positions, sessions)
    assert [s.defers for s in Simulation(config).sessions] == \
        [False, False, True]


def miss_agent(protocol):
    node = Shell()
    node.mac = RecordingMac()
    return AGENTS[protocol](Simulator(seed=1), node, ScenarioConfig())


def test_olsr_routes_by_its_paths_alone():
    agent = miss_agent("olsr")
    assert not hasattr(agent, "table")
    assert agent.next_hop(9) is None


def test_zrp_takes_the_zone_path_first_and_then_the_route_table():
    # ReactiveAgent precedes LinkStateAgent in ZrpAgent's method order, and
    # its next_hop reads the table alone
    agent = miss_agent("zrp")
    agent.table.update_if_fresher(RouteEntry(
        dest=9, next_hop=4, seq_no=0, hop_count=3, expires_at=us(100),
        route=(0, 4, 7, 9)))
    agent._heard(2, (0,), ())
    agent.neighbors[2].sym_set = frozenset({0, 9})
    agent._links_changed()
    assert agent.paths[9] == (0, 2, 9)
    assert agent.next_hop(9) == 2
    agent.on_link_failure(2)
    assert 9 not in agent.paths
    assert agent.next_hop(9) == 4


@pytest.mark.parametrize("protocol", ("aodv", "dymo", "olsr", "zrp"))
def test_a_source_miss_buffers_or_drops_and_sends_no_rerr(protocol):
    agent = miss_agent(protocol)
    pkt = Packet(src=0, dst=9, seq=1)
    agent.handle_app_packet(pkt)
    assert not any(isinstance(m, Rerr) for m in agent.node.mac.sent)
    assert "rerr_sent" not in agent.stats
    if protocol == "olsr":
        assert agent.node.counters.route_drops == 1
    else:
        assert list(agent.pending[9]) == [pkt]
        assert agent.node.counters.route_drops == 0


@pytest.mark.parametrize("protocol", ("aodv", "dymo", "olsr", "zrp"))
def test_a_relay_miss_drops_once_and_only_distance_vector_reports_it(
        protocol):
    agent = miss_agent(protocol)
    agent.handle_data(Packet(src=1, dst=9, ttl=5), prev_hop=1)
    assert agent.node.counters.route_drops == 1
    assert getattr(agent, "pending", {}) == {}
    if protocol in ("aodv", "dymo"):
        assert agent.stats == {"rerr_sent": 1, "control_sent": 1}
        assert agent.node.mac.sent == [Rerr(((9, 0),))]
    else:
        assert agent.node.mac.sent == []
        assert agent.stats == {}


def test_a_relay_drops_a_packet_that_its_route_would_hand_back():
    # 0 and 1 are symmetric neighbours. Each still holds the other's last
    # HELLO, which lists the lost node 2 as symmetric, so each routes to 2
    # through the other.
    sim = Simulator(seed=1)
    agents = {}
    for me, peer in ((0, 1), (1, 0)):
        node = Shell()
        node.id = me
        node.mac = RecordingMac()
        agents[me] = OlsrAgent(sim, node, ScenarioConfig())
        agents[me]._process_hello(
            Hello(sender=peer, sym=(me, 2), heard=(), mprs=()), peer)
    pkt = Packet(src=1, dst=2)
    agents[1].handle_app_packet(pkt)
    assert agents[1].node.mac.sent == [pkt]
    agents[0].handle_data(pkt, prev_hop=1)
    assert agents[0].node.mac.sent == []
    assert agents[0].node.counters.route_drops == 1
    assert agents[0].stats == {"data_bounced": 1}


# The messages that bring a link set from orig: OLSR's TC and ZRP's advert.
LINK_SETS = {
    "olsr": lambda orig, n, linked: TcMessage(orig, n, linked, (orig, n),
                                              TC_TTL),
    "zrp": lambda orig, n, linked: ZoneAdvert(orig, linked, (), n, 1),
}


@pytest.mark.parametrize("protocol", ("olsr", "zrp"))
def test_only_a_new_or_different_link_set_drops_the_paths(protocol):
    agent = miss_agent(protocol)
    links = LINK_SETS[protocol]
    agent.on_receive(Hello(1, (0,), (), ()) if protocol == "olsr"
                     else links(1, 1, (0,)), 1)
    agent.on_receive(links(5, 1, (1,)), 1)
    paths = agent.paths
    assert paths[5] == (0, 1, 5)
    agent.on_receive(links(5, 2, (1,)), 1)  # a new number, the same links
    assert agent._paths is paths
    agent.on_receive(links(5, 3, ()), 1)
    assert 5 not in agent.paths


def test_a_tc_with_an_older_ansn_is_dropped():
    agent = miss_agent("olsr")
    agent._process_tc(TcMessage(5, 3, (6,), (5, 1), TC_TTL), 1)
    agent._process_tc(TcMessage(5, 2, (7,), (5, 2), TC_TTL), 1)
    assert agent.link_state[5][:2] == (3, frozenset({6}))


def test_a_dymo_rrep_that_lists_this_node_is_dropped():
    agent = miss_agent("dymo")
    agent.learn_route(5, 1, 1, 2)  # a reverse route the reply could take
    agent.on_receive(DymoRrep(orig=5, target=9,
                              addr_list=((9, 1, 0), (0, 3, 1))), 2)
    assert agent.stats == {"loop_drops": 1}
    assert agent.node.mac.sent == []
    assert 9 not in agent.table.entries


def test_data_ttl_exhaustion_drops():
    sim, counters, agent = make_agent()
    agent.handle_data(Packet(src=1, dst=9, ttl=1), prev_hop=1)
    assert counters.route_drops == 1


def test_dup_cache_key_is_a_duplicate_until_its_expiry_passes():
    sim = Simulator(seed=1)
    cache = DupCache(sim, lifetime_us=100)
    cache.add("k")
    sim.run_until(100)
    assert "k" in cache  # expiry == now
    sim.run_until(101)
    assert "k" not in cache
    assert "other" not in cache


def test_dup_cache_admits_a_key_once_until_its_first_expiry_passes():
    sim = Simulator(seed=1)
    cache = DupCache(sim, lifetime_us=100)
    assert cache.add("k")
    sim.run_until(60)
    assert not cache.add("k")  # a duplicate keeps its first expiry, 100
    sim.run_until(101)
    assert "k" not in cache
    assert cache.add("k")
    assert not cache.add("k")


def test_dup_cache_prune_past_cap_drops_only_expired_keys():
    sim = Simulator(seed=1)
    cache = DupCache(sim, lifetime_us=100)
    for i in range(DUP_CACHE_CAP // 2):
        cache.add(("old", i))
    sim.run_until(150)
    for i in range(DUP_CACHE_CAP // 2 + 1):
        cache.add(("new", i))
    assert len(cache) == DUP_CACHE_CAP // 2 + 1
    assert all(("new", i) in cache for i in range(DUP_CACHE_CAP // 2 + 1))
    sim.run_until(250)  # new keys still live: prune cannot drop them
    for i in range(DUP_CACHE_CAP):
        cache.add(("newer", i))
    assert len(cache) == DUP_CACHE_CAP + DUP_CACHE_CAP // 2 + 1
    assert ("new", 0) in cache


def test_dup_cache_of_live_keys_is_rebuilt_only_when_it_doubles():
    sim = Simulator(seed=1)
    cache = DupCache(sim, lifetime_us=100)
    rebuilds = 0
    for i in range(4 * DUP_CACHE_CAP):
        before = cache._expiry
        cache.add(i)
        rebuilds += cache._expiry is not before
    assert len(cache) == 4 * DUP_CACHE_CAP
    assert rebuilds == 2  # at 4097 and 8195 keys, not on every insert


class RecordingMac:
    def __init__(self):
        self.sent = []

    def enqueue(self, dst, packet, payload_bytes):
        self.sent.append(packet)


def test_olsr_suppresses_newest_low_originator_tc_after_8192_others():
    # A sort-ordered trim kept the highest (orig, counter) keys, forgetting
    # the newest TC of a low-id originator and relaying its copy again.
    sim = Simulator(seed=1)
    node = Shell()
    node.mac = RecordingMac()
    agent = OlsrAgent(sim, node, ScenarioConfig())
    hello = Hello(sender=5, sym=(0,), heard=(), mprs=(0,))
    agent.on_receive(hello, prev_hop=5)

    def tc(orig, counter):
        return TcMessage(orig=orig, ansn=0, advertised=(),
                         tc_id=(orig, counter), ttl=TC_TTL)

    for counter in range(8192):
        agent.on_receive(tc(1000, counter), prev_hop=5)
    agent.on_receive(tc(1, 0), prev_hop=5)
    relayed = agent.stats["tc_forwarded"]
    assert relayed == 8193
    agent.on_receive(tc(1, 0), prev_hop=5)
    assert agent.stats["tc_forwarded"] == relayed


@pytest.mark.parametrize("protocol", ("olsr", "zrp"))
@pytest.mark.parametrize("num_nodes", (2, 7))
def test_one_sweep_event_a_second_serves_every_link_state_agent(
        protocol, num_nodes):
    simulation = Simulation(make_static_config(
        line_positions(num_nodes), protocol=protocol, sim_time_s=5))
    sim = simulation.sim
    dispatched = [0]
    swept = {}  # dispatch number -> (time, ids of the agents swept)
    schedule_at = sim.schedule_at

    def counted(fire_at, fn, *args, **kwargs):
        def fire():
            dispatched[0] += 1
            fn()
        return schedule_at(fire_at, fire, *args, **kwargs)

    def recorded(agent, sweep):
        def record():
            swept.setdefault(dispatched[0], (sim.now, []))[1].append(
                agent.node.id)
            sweep()
        return record

    sim.schedule_at = counted
    for node in simulation.nodes.values():
        node.agent._sweep = recorded(node.agent, node.agent._sweep)
    simulation.run()
    assert list(swept.values()) == [
        (us(s), list(range(num_nodes))) for s in range(1, 6)]


def smallest_shortest_paths(adj, me, radius):
    """Brute force: hop counts from relaxing every link until none gets
    shorter, then every shortest path of at most radius hops, and for each
    node it reaches the lexicographically smallest."""
    hops = {me: 0}
    changed = True
    while changed:
        changed = False
        for a, linked in adj.items():
            for b in linked:
                if a in hops and hops[a] + 1 < hops.get(b, math.inf):
                    hops[b] = hops[a] + 1
                    changed = True
    best = {}
    stack = [(me,)]
    while stack:
        path = stack.pop()
        end, n = path[-1], len(path) - 1
        if n and (end not in best or path < best[end]):
            best[end] = path
        if n < radius:
            stack.extend(path + (v,) for v in adj.get(end, ())
                         if hops[v] == n + 1)
    return best


@pytest.mark.parametrize("radius", (1, 2, 3, math.inf))
def test_link_state_paths_are_the_smallest_shortest_paths(radius):
    rng = random.Random(radius)
    agent = LinkStateAgent(Simulator(seed=1), Shell())
    agent.radius = radius
    for _ in range(1000):
        ids = rng.sample(range(100), rng.randint(1, 16))
        density = rng.uniform(0.05, 0.4)
        # directed, as OLSR links this node to its symmetric neighbours only
        adj = {a: {b for b in ids if b != a and rng.random() < density}
               for a in ids}
        agent.node.id = rng.choice(ids)
        assert agent._shortest_paths(adj) == smallest_shortest_paths(
            adj, agent.node.id, radius)


# A hexagon of 80 m sides: 0 and 5 are opposite corners, joined by
# (0, 1, 4, 5) and (0, 2, 3, 5), both 3 hops.
RING = {0: (220.0, 300.0), 1: (260.0, 369.28), 4: (340.0, 369.28),
        5: (380.0, 300.0), 3: (340.0, 230.72), 2: (260.0, 230.72)}


@pytest.mark.parametrize("protocol", ("olsr", "zrp"))
def test_a_tie_between_shortest_paths_goes_to_the_lower_first_hop(protocol):
    # OLSR ignores zone_radius; ZRP's zone reaches 5 only at radius 3
    agent = run_static(RING, protocol=protocol, sim_time_s=15.0,
                       zone_radius=3).nodes[0].agent
    assert agent.paths[5] == (0, 1, 4, 5)
    assert agent.next_hop(5) == 1


def recording_aodv(node_id=0):
    sim = Simulator(seed=1)
    node = Shell()
    node.id = node_id
    node.mac = RecordingMac()
    return sim, node.mac.sent, AodvAgent(sim, node, ScenarioConfig())


def test_relay_at_ttl_one_sends_and_counts_nothing():
    sim, sent, agent = recording_aodv()
    agent.relay_flood(Rreq(1, 5, 1, 9, 0, hop_count=0, ttl=1),
                      "rreq_forwarded", hop_count=1)
    sim.run_until(us(1))
    assert sent == [] and agent.stats == {}


@pytest.mark.parametrize("node_id", [0, 3])
def test_relayed_copy_has_one_less_ttl_and_the_changes(node_id):
    sim, sent, agent = recording_aodv(node_id)
    msg = Rreq(1, 5, 1, 9, 0, hop_count=2, ttl=3)
    agent.relay_flood(msg, "rreq_forwarded", hop_count=3)
    # node 0 sends at once; the others wait their node-id stagger
    assert len(sent) == (node_id == 0)
    sim.run_until(node_id * FORWARD_STAGGER_US)
    assert sent == [replace(msg, hop_count=3, ttl=2)]
    assert (msg.hop_count, msg.ttl) == (2, 3)
    assert agent.stats == {"rreq_forwarded": 1, "control_sent": 1}


def test_relay_route_miss_and_relayed_rerr_count_as_rerr_sent():
    sim, sent, agent = recording_aodv()
    agent.handle_data(Packet(src=1, dst=9, ttl=5), prev_hop=1)
    assert sent == [Rerr(((9, 0),))]
    assert agent.stats["rerr_sent"] == 1

    agent.learn_route(7, 4, 3, 2)
    agent.on_receive(Rerr(((7, 5),)), prev_hop=4)
    assert sent[-1] == Rerr(((7, 5),))
    assert agent.stats["rerr_sent"] == 2


@pytest.mark.parametrize("protocol", ("aodv", "dymo"))
def test_a_link_failure_reports_each_valid_route_through_the_neighbour_once(
        protocol):
    # RFC 3561 section 6.11: a broken next hop acts as a RERR from it for
    # every route through it
    agent = miss_agent(protocol)
    for dest, hop, seq in ((3, 4, 4), (5, 6, 2), (7, 4, 1), (9, 4, 0)):
        agent.learn_route(dest, hop, seq, 2)
    agent.table.entries[7].valid = False
    agent.on_link_failure(4)
    assert agent.node.mac.sent == [Rerr(((3, 5), (9, 1)))]
    assert agent.stats["rerr_sent"] == 1
    assert agent.table.lookup(5, 0).seq_no == 2
    assert agent.table.entries[7].seq_no == 1
    assert not any(agent.table.entries[d].valid for d in (3, 7, 9))
