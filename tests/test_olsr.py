"""MPR selection, TC flooding, and proactive route computation."""

import random
from types import SimpleNamespace

from vanetsim.engine import Simulator
from vanetsim.routing.base import NeighborRecord
from vanetsim.routing.olsr import Hello, OlsrAgent, select_mprs
from vanetsim.scenario import ScenarioConfig
from vanetsim.simulation import Simulation

from conftest import line_positions, make_static_config, run_static


def test_select_mprs_empty_when_no_two_hop_nodes():
    assert select_mprs({1: set(), 2: set()}) == set()
    assert select_mprs({}) == set()


def test_select_mprs_takes_sole_covers_first():
    coverage = {1: {10, 11}, 2: {11}, 3: {12}}
    mprs = select_mprs(coverage)
    assert 3 in mprs          # only cover for 12
    assert 1 in mprs          # only cover for 10
    assert 2 not in mprs      # 11 already covered by 1


def test_select_mprs_greedy_prefers_larger_cover():
    coverage = {1: {10, 11, 12}, 2: {10}, 3: {11}, 4: {12}}
    assert select_mprs(coverage) == {1}


def test_select_mprs_tie_breaks_by_degree_then_id():
    coverage = {1: {10, 11}, 2: {10, 11}}
    assert select_mprs(coverage, degree={1: 2, 2: 5}) == {2}
    assert select_mprs(coverage, degree={1: 3, 2: 3}) == {1}


def test_select_mprs_covers_everything_on_random_inputs():
    rng = random.Random(123)
    for _ in range(50):
        neighbors = list(range(1, rng.randint(2, 6)))
        two_hop = list(range(100, 100 + rng.randint(1, 8)))
        coverage = {n: {t for t in two_hop if rng.random() < 0.6}
                    for n in neighbors}
        reachable = set().union(*coverage.values()) if coverage else set()
        mprs = select_mprs(coverage)
        covered = set().union(*(coverage[m] for m in mprs)) if mprs else set()
        assert covered == reachable
        assert mprs <= set(neighbors)


def test_line_neighbors_and_mprs():
    s = run_static(line_positions(4), protocol="olsr", sim_time_s=15.0)
    a = {nid: n.agent for nid, n in s.nodes.items()}
    assert a[0]._sym_neighbors() == {1}
    assert a[1]._sym_neighbors() == {0, 2}
    assert a[0].mpr_set == {1}           # 1 covers 0's two-hop node 2
    assert a[1].mpr_set == {2}           # 2 covers 1's two-hop node 3
    assert 0 in a[1].mpr_selector_set    # inverse relation
    assert 1 in a[2].mpr_selector_set


def test_proactive_routes_exist_without_any_traffic():
    s = run_static(line_positions(4), protocol="olsr", sim_time_s=20.0)
    agent = s.nodes[0].agent
    assert agent.paths[3] == (0, 1, 2, 3)
    assert agent.next_hop(3) == 1


def test_dropped_neighbour_is_no_first_hop():
    s = run_static(line_positions(4), protocol="olsr", sim_time_s=20.0)
    agent = s.nodes[0].agent
    agent.on_link_failure(1)
    assert [path for path in agent.paths.values() if path[1] == 1] == []


def test_data_flows_with_no_discovery_latency_after_convergence():
    s = run_static(line_positions(4), sessions=[(0, 3)], protocol="olsr",
                   sim_time_s=20.0)
    sess = s.ledger.session[0]
    # 80 sent; only the ones before HELLO/TC convergence (~6 s) are lost
    assert sess.app_received > 50


def test_tc_forwarded_only_by_mpr_path():
    s = run_static(line_positions(4), protocol="olsr", sim_time_s=20.0)
    a = {nid: n.agent for nid, n in s.nodes.items()}
    # 1 and 2 are on the relay spine; the leaves never forward
    assert a[1].stats.get("tc_forwarded", 0) >= 1
    assert a[2].stats.get("tc_forwarded", 0) >= 1
    assert a[0].stats.get("tc_forwarded", 0) == 0
    assert a[3].stats.get("tc_forwarded", 0) == 0


def test_equal_cost_routes_take_lower_id_first_hop():
    # diamond: 0 reaches 3 through 1 or 2 at equal cost
    positions = {0: (100.0, 100.0), 1: (170.0, 30.0),
                 2: (170.0, 170.0), 3: (240.0, 100.0)}
    s = run_static(positions, protocol="olsr", sim_time_s=20.0)
    agent = s.nodes[0].agent
    assert agent.paths[3] == (0, 1, 3)
    assert agent.next_hop(3) == 1


def test_periodic_rates_on_short_run():
    s = run_static(line_positions(3), protocol="olsr", sim_time_s=21.0)
    for nid, node in s.nodes.items():
        hello = node.agent.stats.get("hello_sent", 0)
        tc = node.agent.stats.get("tc_sent", 0)
        assert abs(hello - 21 / 2.0) <= 1.0
        assert abs(tc - 21 / 5.0) <= 1.0


def test_dropped_neighbour_leaves_the_selector_set_without_an_ansn_bump():
    sim = Simulator(seed=1)
    agent = OlsrAgent(sim, SimpleNamespace(id=0), ScenarioConfig())
    for sender in (1, 2):
        agent._process_hello(
            Hello(sender=sender, sym=(0,), heard=(), mprs=(0,)), sender)
    assert (agent.mpr_selector_set, agent.ansn) == ({1, 2}, 2)
    agent.on_link_failure(1)
    assert (agent.mpr_selector_set, agent.ansn) == ({2}, 2)
    sim.run_until(agent.neighbor_hold_us + 1)
    agent._sweep()
    assert (agent.mpr_selector_set, agent.ansn) == (set(), 2)


def test_routes_are_computed_only_when_the_table_is_read():
    simulation = Simulation(make_static_config(
        line_positions(4), protocol="olsr", sim_time_s=20.0))
    calls = {}
    for nid, node in simulation.nodes.items():
        agent = node.agent

        def counted(adj, agent=agent, nid=nid):
            calls[nid] = calls.get(nid, 0) + 1
            return type(agent)._shortest_paths(agent, adj)

        agent._shortest_paths = counted
    simulation.run()
    # HELLOs and TCs changed every link set, and MPRs were selected for
    # every HELLO, but with no traffic nothing looked a route up.
    assert calls == {}
    assert simulation.nodes[0].agent.mpr_set == {1}
    assert simulation.nodes[0].agent.next_hop(3) == 1
    assert simulation.nodes[0].agent.paths[2] == (0, 1, 2)
    assert calls == {0: 1}


def random_neighbour_tables(count, seed=26):
    """OLSR agents with seeded random neighbour records, none at first."""
    rng = random.Random(seed)
    for i in range(count):
        me = rng.randrange(12)
        agent = OlsrAgent(Simulator(seed=1), SimpleNamespace(id=me),
                          ScenarioConfig())
        others = [n for n in range(12) if n != me]
        for n in rng.sample(others, 0 if i == 0 else rng.randint(0, 8)):
            rec = agent.neighbors[n] = NeighborRecord()
            rec.symmetric = rng.random() < 0.6
            rec.sym_set = frozenset(rng.sample(range(12), rng.randint(0, 6)))
        yield agent


def test_link_state_emission_matches_the_set_formulas():
    tables = 0
    for agent in random_neighbour_tables(300):
        me = agent.node.id
        sym = {n for n, r in agent.neighbors.items() if r.symmetric}
        assert agent._sym_and_heard() == (
            tuple(sorted(sym)), tuple(sorted(agent.neighbors.keys() - sym)))
        coverage = {n: {x for x in agent.neighbors[n].sym_set
                        if x != me and x not in sym} for n in sorted(sym)}
        degree = {n: len(agent.neighbors[n].sym_set) for n in sorted(sym)}
        assert agent.mpr_set == select_mprs(coverage, degree)
        tables += bool(sym) and bool(agent.neighbors.keys() - sym)
    assert tables > 100  # most tables hold both kinds of neighbour


def test_every_link_change_shows_in_the_next_hello():
    sim = Simulator(seed=1)
    sent = []
    mac = SimpleNamespace(enqueue=lambda hop, msg, size: sent.append(msg))
    agent = OlsrAgent(sim, SimpleNamespace(id=0, mac=mac), ScenarioConfig())

    def next_hello(*heard):
        for msg in heard:
            agent._process_hello(msg, msg.sender)
        agent._hello_tick()
        return sent[-1]

    empty = next_hello()
    assert (empty.sym, empty.heard, empty.mprs) == ((), (), ())
    # nothing changed: the cached HELLO goes out again
    assert next_hello() is empty
    # a new neighbour that does not hear this node
    heard = next_hello(Hello(sender=1, sym=(), heard=(), mprs=()))
    assert (heard.sym, heard.heard) == ((), (1,))
    # only its expiry refreshed: the same HELLO
    assert next_hello(Hello(sender=1, sym=(), heard=(), mprs=())) is heard
    # it hears this node now: its symmetric flag flips
    flipped = next_hello(Hello(sender=1, sym=(), heard=(0,), mprs=()))
    assert (flipped.sym, flipped.heard, flipped.mprs) == ((1,), (), ())
    # its sym_set gains node 2, which only it covers
    covering = next_hello(Hello(sender=1, sym=(0, 2), heard=(), mprs=()))
    assert (covering.sym, covering.mprs) == ((1,), (1,))
    # it picks this node as an MPR: a new ansn, but the same HELLO
    assert next_hello(Hello(sender=1, sym=(0, 2), heard=(),
                            mprs=(0,))) is covering
    assert agent.ansn == 1
    # a sweep after its hold time expires the record
    sim.run_until(agent.neighbor_hold_us + 1)
    agent._sweep()
    assert next_hello() == empty
