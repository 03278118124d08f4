"""Airtime, path-loss model, range gating, and the collision model.

Airtime oracles below are hand-computed for the default radio
(2 Mbps, 192 us PHY overhead):
  546-byte frame: 4368 bits -> 2184 us payload + 192 us = 2376 us
  14-byte frame:   112 bits ->   56 us payload + 192 us =  248 us
  2,000,000 bits -> exactly 1 s payload + 192 us
"""

import math
import os

import pytest

import vanetsim
from vanetsim import phy
from vanetsim.engine import SimulationError
from vanetsim.mac import BROADCAST, DATA, MacFrame
from vanetsim.phy import (airtime_us, crossover_m, reach_m, received,
                          received_power_dbm)
from vanetsim.scenario import ScenarioConfig, load_scenario

from conftest import MacWorld


def test_airtime_frozen_oracles():
    p = ScenarioConfig()
    assert airtime_us(546 * 8, p) == 2376
    assert airtime_us(14 * 8, p) == 248
    assert airtime_us(2_000_000, p) == 1_000_192


def test_airtime_rounds_up_partial_microseconds():
    p = ScenarioConfig()
    # 3 bits at 2 Mbps = 1.5 us -> must become 2 us, never 1
    assert airtime_us(3, p) == phy.PHY_OVERHEAD_US + 2


def test_airtime_rejects_empty_frame():
    with pytest.raises(SimulationError):
        airtime_us(0, ScenarioConfig())


def test_crossover_distance_default_geometry():
    p = ScenarioConfig()
    lam = 299_792_458.0 / 2.4e9
    expected = 4 * math.pi * 1.5 * 1.5 / lam
    assert abs(crossover_m(p) - expected) < 1e-9
    assert 220 < crossover_m(p) < 235  # ~226 m: the 100 m gate binds first


def test_path_loss_continuous_at_crossover():
    p = ScenarioConfig()
    dc = crossover_m(p)
    below = received_power_dbm(dc * 0.999999, p)
    above = received_power_dbm(dc * 1.000001, p)
    assert abs(below - above) < 0.01


def test_two_ray_decays_12dB_per_doubling():
    p = ScenarioConfig()
    d = crossover_m(p) * 1.5
    drop = received_power_dbm(d, p) - received_power_dbm(2 * d, p)
    assert abs(drop - 40 * math.log10(2)) < 1e-9


def test_free_space_decays_6dB_per_doubling():
    p = ScenarioConfig()
    drop = received_power_dbm(20.0, p) - received_power_dbm(40.0, p)
    assert abs(drop - 20 * math.log10(2)) < 1e-9


def test_signal_at_max_range_still_above_threshold():
    p = ScenarioConfig()
    assert received_power_dbm(p.max_range_m, p) >= p.rx_threshold_dbm


def test_pathloss_clamps_below_one_meter():
    p = ScenarioConfig()
    assert received_power_dbm(0.25, p) == received_power_dbm(1.0, p)
    with pytest.raises(SimulationError):
        received_power_dbm(0.0, p)


def bcast(src, payload_bytes=24):
    return MacFrame(DATA, src, BROADCAST, 0, 34, "m", payload_bytes,
                    frame_id=src + 1000)


def test_reception_within_range_and_not_beyond():
    w = MacWorld({0: (0.0, 0.0), 1: (100.0, 0.0), 2: (100.5, 0.0)})
    w.channel.transmit(w.nodes[0], bcast(0))
    w.run(10_000)
    assert w.ledger.node[1].signals_received_without_errors == 1
    assert w.ledger.node[2].signals_received_without_errors == 0
    assert w.ledger.node[2].signals_received_with_errors == 0


def test_hidden_transmitters_collide_at_common_receiver():
    # 0 and 2 are 160 m apart (mutually silent), both within 80 m of 1
    w = MacWorld({0: (0.0, 0.0), 1: (80.0, 0.0), 2: (160.0, 0.0)})
    w.sim.schedule_at(0, lambda: w.channel.transmit(w.nodes[0], bcast(0)))
    w.sim.schedule_at(10, lambda: w.channel.transmit(w.nodes[2], bcast(2)))
    w.run(100_000)
    c = w.ledger.node[1]
    assert c.signals_received_with_errors == 2
    assert c.signals_received_without_errors == 0
    # the transmitters themselves heard nothing at all
    assert w.ledger.node[0].signals_received_with_errors == 0
    assert w.ledger.node[2].signals_received_with_errors == 0


def test_sequential_frames_do_not_collide():
    w = MacWorld({0: (0.0, 0.0), 1: (80.0, 0.0), 2: (160.0, 0.0)})
    w.sim.schedule_at(0, lambda: w.channel.transmit(w.nodes[0], bcast(0)))
    w.sim.schedule_at(5_000, lambda: w.channel.transmit(w.nodes[2], bcast(2)))
    w.run(100_000)
    c = w.ledger.node[1]
    assert c.signals_received_without_errors == 2
    assert c.signals_received_with_errors == 0


def test_own_transmission_corrupts_reception_in_progress():
    w = MacWorld({0: (0.0, 0.0), 1: (50.0, 0.0)})
    w.sim.schedule_at(0, lambda: w.channel.transmit(
        w.nodes[0], bcast(0, payload_bytes=512)))  # 2376 us on air
    w.sim.schedule_at(300, lambda: w.channel.transmit(w.nodes[1], bcast(1)))
    w.run(100_000)
    assert w.ledger.node[1].signals_received_with_errors == 1
    assert w.ledger.node[1].signals_received_without_errors == 0


def test_transmit_while_transmitting_is_an_error():
    w = MacWorld({0: (0.0, 0.0), 1: (50.0, 0.0)})
    w.channel.transmit(w.nodes[0], bcast(0, payload_bytes=512))
    with pytest.raises(SimulationError):
        w.channel.transmit(w.nodes[0], bcast(0))


def test_carrier_sense_follows_channel_activity():
    w = MacWorld({0: (0.0, 0.0), 1: (50.0, 0.0)})
    assert not w.nodes[1].carrier_busy
    w.channel.transmit(w.nodes[0], bcast(0))
    assert w.nodes[1].carrier_busy
    assert w.nodes[0].carrier_busy  # own transmission counts
    w.run(100_000)
    assert not w.nodes[1].carrier_busy


# Radios whose threshold binds before the 100 m range gate: in free space
# (~56 m), and in two-ray ground beyond the ~226 m crossover (~299 m).
THRESHOLD_BINDS = (ScenarioConfig(rx_threshold_dbm=-60.0),
                   ScenarioConfig(max_range_m=300.0, rx_threshold_dbm=-77.0))


def test_table1_reach_is_the_range_gate():
    config = load_scenario(os.path.join(os.path.dirname(vanetsim.__file__),
                                        "scenarios", "table1.cfg"))
    assert reach_m(config) == config.max_range_m


@pytest.mark.parametrize("config", THRESHOLD_BINDS)
def test_reach_decides_pairs_as_received_power_does(config):
    r = reach_m(config)
    inside, outside = r * (1 - 1e-6), r * (1 + 1e-6)
    assert r < config.max_range_m
    assert received_power_dbm(inside, config) \
        > config.rx_threshold_dbm > received_power_dbm(outside, config)
    w = MacWorld({0: (0.0, 0.0), 1: (inside, 0.0), 2: (0.0, outside)},
                 config=config)
    w.channel.transmit(w.nodes[0], bcast(0))
    w.run(10_000)
    assert w.ledger.node[1].signals_received_without_errors == 1
    assert w.ledger.node[2].signals_received_without_errors == 0


def test_reach_is_zero_when_even_one_metre_is_too_far():
    config = ScenarioConfig(rx_threshold_dbm=-20.0)
    assert received_power_dbm(1.0, config) < -20.0
    assert reach_m(config) == 0.0
    w = MacWorld({0: (0.0, 0.0), 1: (0.5, 0.0)}, config=config)
    w.channel.transmit(w.nodes[0], bcast(0))
    w.run(10_000)
    assert w.ledger.node[1].signals_received_without_errors == 0


@pytest.mark.parametrize("config", (ScenarioConfig(),) + THRESHOLD_BINDS)
def test_pair_on_the_reach_boundary_takes_the_exact_test(config,
                                                         monkeypatch):
    r = reach_m(config)
    decided = []

    def spy(d, cfg):
        decided.append(d)
        return received(d, cfg)

    monkeypatch.setattr(phy, "received", spy)
    w = MacWorld({0: (0.0, 0.0), 1: (r / 2, 0.0), 2: (0.0, r)},
                 config=config)
    w.channel.transmit(w.nodes[0], bcast(0))
    w.run(10_000)
    assert decided == [r]  # the pair well inside needs no power test
    assert w.ledger.node[1].signals_received_without_errors == 1
    assert w.ledger.node[2].signals_received_without_errors == \
        int(received(r, config))


def recorded(log, name, nid, fn):
    def record(*args):
        log.append((name, nid))
        return fn(*args)
    return record


def test_one_event_ends_a_frame_and_every_reception_of_it():
    w = MacWorld({0: (0.0, 0.0), 1: (80.0, 0.0), 2: (160.0, 0.0)})
    upcalls = []
    for nid, node in w.nodes.items():
        node.mac.observe_frame = recorded(upcalls, "observe_frame", nid,
                                          node.mac.observe_frame)
        node.mac.on_tx_end = recorded(upcalls, "on_tx_end", nid,
                                      node.mac.on_tx_end)
    scheduled = []
    schedule_at = w.sim.schedule_at

    def counted(fire_at, fn, *args, **kwargs):
        scheduled.append(fire_at)
        return schedule_at(fire_at, fn, *args, **kwargs)

    w.sim.schedule_at = counted
    end = w.channel.transmit(w.nodes[1], bcast(1))
    assert scheduled == [end]
    w.run(end)
    assert [(t[2], t[7]) for t in w.rx_records()] == [(0, end), (2, end)]
    assert upcalls == [("observe_frame", 0), ("observe_frame", 2),
                       ("on_tx_end", 1)]


def test_receiver_whose_radio_is_off_at_the_start_gets_no_reception():
    w = MacWorld({0: (0.0, 0.0), 1: (80.0, 0.0), 2: (160.0, 0.0)})
    w.nodes[2].radio_enabled = False
    end = w.channel.transmit(w.nodes[1], bcast(1))
    assert not w.nodes[2].receiving
    w.nodes[2].radio_enabled = True  # back on before the frame ends
    w.run(end)
    assert [t[2] for t in w.rx_records()] == [0]
    assert w.ledger.node[0].signals_received_without_errors == 1
    assert w.ledger.node[2].signals_received_without_errors == 0
    assert w.ledger.node[2].signals_received_with_errors == 0
