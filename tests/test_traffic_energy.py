"""CBR source scheduling and the node's battery charge accounting."""

import pytest

from vanetsim.engine import SimulationError, Simulator, us
from vanetsim.metrics import MetricsLedger
from vanetsim.node import Node
from vanetsim.scenario import ScenarioConfig
from vanetsim.traffic import CbrSource

CONFIG = ScenarioConfig()


class CollectingAgent:
    def __init__(self):
        self.packets = []

    def handle_app_packet(self, pkt):
        self.packets.append(pkt)


def make_node(config=CONFIG):
    return Node(Simulator(seed=1), 0, config,
                MetricsLedger(node_ids=[0], session_ids=[]))


def make_source(start_s=0.0, stop_s=10.0, interval_s=0.25):
    sim = Simulator(seed=1)
    config = ScenarioConfig(payload_bytes=300, interval_ms=interval_s * 1e3,
                            sim_time_s=stop_s)
    ledger = MetricsLedger(node_ids=[0], session_ids=[0])
    agent = CollectingAgent()
    source = CbrSource(sim, config, 0, 0, 1, us(start_s), agent, ledger)
    return sim, source, agent, ledger


def test_cbr_emits_one_packet_per_interval():
    sim, source, agent, ledger = make_source()
    source.start()
    sim.run_until(us(10))
    assert len(agent.packets) == 40  # 0.0, 0.25, ..., 9.75
    assert ledger.session[0].app_sent == 40
    assert agent.packets[0].sent_at == 0
    assert agent.packets[1].sent_at == us(0.25)
    assert [p.seq for p in agent.packets[:3]] == [1, 2, 3]
    assert {(p.src, p.dst, p.size_bytes, p.session_id)
            for p in agent.packets} == {(0, 1, 300, 0)}


def test_cbr_respects_start_offset_and_stop():
    sim, source, agent, _ = make_source(start_s=1.0, stop_s=2.0)
    source.start()
    sim.run_until(us(10))
    assert [p.sent_at for p in agent.packets] == \
        [us(1.0), us(1.25), us(1.5), us(1.75)]


def test_cbr_source_starting_at_its_stop_sends_nothing():
    sim, source, agent, _ = make_source(start_s=2.0, stop_s=2.0)
    source.start()
    sim.run_until(us(10))
    assert agent.packets == []


def test_battery_idle_oracle():
    node = make_node()
    node.finalize(3_600_000_000)  # one hour idle at 1 mA
    assert abs(node.drawn_mah - 1.0) < 1e-9
    assert abs(node.counters.residual_battery_mah - 1499.0) < 1e-9


def test_battery_mode_currents_differ():
    tx, rx = make_node(), make_node()
    tx.transmitting = True
    rx.receiving = 1
    tx.accrue_power(us(10))
    rx.accrue_power(us(10))
    assert abs(tx.drawn_mah / rx.drawn_mah - 280.0 / 180.0) < 1e-9


def test_battery_never_goes_negative():
    node = make_node(ScenarioConfig(capacity_mah=0.001))
    node.transmitting = True
    node.finalize(3_600_000_000)
    assert node.counters.residual_battery_mah == 0.0
    assert not node.radio_enabled


def test_node_mode_priority():
    node = make_node()
    node.accrue_power(10)  # idle
    node.receiving = 1
    node.accrue_power(30)  # rx
    node.transmitting = True
    node.accrue_power(60)  # tx wins over rx
    c = node.counters
    assert (c.tx_time_us, c.rx_time_us, c.idle_time_us) == (30, 20, 10)


def test_node_mode_times_sum_to_sim_time():
    node = make_node()
    sim = node.sim
    sim.run_until(1_000)
    node.accrue_power(sim.now)
    node.transmitting = True
    sim.run_until(1_500)
    node.accrue_power(sim.now)
    node.transmitting = False
    node.finalize(10_000)
    c = node.counters
    assert c.tx_time_us == 500
    assert c.idle_time_us == 9_500
    assert c.tx_time_us + c.rx_time_us + c.idle_time_us == 10_000


def test_dead_battery_disables_radio():
    node = make_node(ScenarioConfig(capacity_mah=1e-9))
    node.accrue_power(1_000_000)
    assert not node.radio_enabled


def test_power_accounting_rejects_time_reversal():
    node = make_node()
    node.accrue_power(500)
    with pytest.raises(SimulationError, match="moved backwards"):
        node.accrue_power(100)
