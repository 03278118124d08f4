"""DCF contention, retries, RTS/CTS, NAV, and broadcast discipline."""

from vanetsim.mac import ACK, BROADCAST, CTS, DATA, RTS, MacFrame
from vanetsim.engine import SimulationError

import pytest

from conftest import MacWorld, line_positions, run_static


class FixedRng:
    """randrange stub returning a scripted sequence of backoff draws."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, stop):
        v = self.values.pop(0)
        assert 0 <= v < stop
        return v


def pair_world(**kwargs):
    return MacWorld({0: (0.0, 0.0), 1: (50.0, 0.0)}, **kwargs)


def test_first_packet_on_idle_medium_waits_exactly_difs():
    w = pair_world()
    w.send(0, 1, payload_bytes=100)  # below RTS threshold
    w.run(5_000)
    data = w.tx_records(node_id=0, kind=DATA)
    assert data and data[0][1] == 50  # DIFS = 50 us


def test_small_unicast_skips_rts():
    w = pair_world()
    w.send(0, 1, payload_bytes=100)
    w.run(5_000)
    assert not w.tx_records(kind=RTS)
    assert not w.tx_records(kind=CTS)
    assert len(w.tx_records(node_id=1, kind=ACK)) == 1
    assert w.uppers[0].successes and not w.uppers[0].failures
    assert w.uppers[1].received == [("x", 0)]


def test_large_unicast_uses_full_rts_cts_data_ack():
    w = pair_world()
    w.send(0, 1, payload_bytes=512)
    w.run(10_000)
    kinds = [t[3] for t in w.sim.trace if t[0] == "tx"]
    assert kinds == [RTS, CTS, DATA, ACK]
    assert w.uppers[0].successes
    assert w.uppers[1].received == [("x", 0)]


def test_rts_duration_reserves_whole_exchange():
    # bystander NAV must end exactly when the exchange ends, whether it was
    # set from the RTS or refreshed by the CTS
    w = MacWorld({0: (0.0, 0.0), 1: (50.0, 0.0), 2: (0.0, 50.0)})
    w.send(0, 1, payload_bytes=512)
    w.run(10_000)
    rts_end = w.tx_records(node_id=0, kind=RTS)[0][7]
    ack_end = w.tx_records(node_id=1, kind=ACK)[0][7]
    # duration oracle: 3*SIFS + CTS + DATA + ACK = 30+248+2376+248
    assert w.nodes[2].mac.nav_until == rts_end + 2902
    assert w.nodes[2].mac.nav_until == ack_end


def test_broadcast_has_no_control_frames_and_no_retries():
    w = pair_world()
    w.send(0, BROADCAST, payload_bytes=512)
    w.run(10_000)
    kinds = [t[3] for t in w.sim.trace if t[0] == "tx"]
    assert kinds == [DATA]
    assert w.ledger.node[0].dcf_broadcasts_sent == 1
    assert w.ledger.node[1].dcf_broadcasts_received == 1
    assert w.uppers[1].received == [("x", 0)]


def test_broadcast_always_draws_backoff():
    w = pair_world()
    w.nodes[0].mac.rng = FixedRng([7])
    w.send(0, BROADCAST, payload_bytes=100)
    w.run(5_000)
    data = w.tx_records(node_id=0, kind=DATA)
    assert data[0][1] == 50 + 7 * 20  # DIFS + 7 slots


def test_backoff_freezes_at_slot_granularity_and_resumes():
    w = pair_world()
    mac = w.nodes[1].mac
    mac.rng = FixedRng([5])

    def tx_direct(src, header, payload_bytes):
        payload = "noise" if payload_bytes else None
        frame = MacFrame(DATA, src, BROADCAST, 0, header, payload,
                         payload_bytes, frame_id=9000 + w.sim.now)
        w.channel.transmit(w.nodes[src], frame)

    # medium busy 0..2376, node 1 queues at t=100 and draws 5 slots
    w.sim.schedule_at(0, lambda: tx_direct(0, 34, 512))
    w.sim.schedule_at(100, lambda: w.send(1, 0, payload_bytes=100))
    # idle at 2376 -> DIFS done 2426 -> backoff runs; interrupt at 2470
    # after exactly 2 elapsed slots, 3 remain
    w.sim.schedule_at(2470, lambda: tx_direct(0, 14, 0))  # 248 us burst
    w.run(50_000)
    data = w.tx_records(node_id=1, kind=DATA)
    # burst ends 2718 -> DIFS done 2768 -> 3 slots -> 2828
    assert data[0][1] == 2828


def test_post_transmission_backoff_separates_back_to_back_sends():
    w = pair_world()
    w.nodes[0].mac.rng = FixedRng([4])
    w.send(0, 1, payload_bytes=100)
    w.send(0, 1, payload_bytes=100)
    w.run(20_000)
    data = w.tx_records(node_id=0, kind=DATA)
    assert len(data) == 2
    ack_end = w.tx_records(node_id=1, kind=ACK)[0][7]
    assert data[1][1] == ack_end + 50 + 4 * 20  # DIFS + drawn backoff


def test_queue_overflow_drops_and_counts():
    w = pair_world()
    for _ in range(52):
        w.send(0, 1, payload_bytes=100)
    c = w.ledger.node[0]
    assert c.mac_packets_from_network == 52
    assert c.queue_drops == 1  # 1 in service + 50 queued + 1 rejected


def test_unicast_retry_limit_exactly_eight_attempts():
    w = pair_world()
    w.nodes[1].radio_enabled = False  # forced loss: nothing ever answers
    w.send(0, 1, payload_bytes=512)
    w.run(2_000_000)
    assert len(w.tx_records(node_id=0, kind=RTS)) == 8  # 1 + 7 retries
    assert w.ledger.node[0].mac_unicast_drops == 1
    assert w.uppers[0].failures == [(1, "x")]


def test_cw_ladder_doubles_then_resets_on_success():
    w = pair_world()
    mac = w.nodes[0].mac
    mac.cw_log = []
    mac.rng = FixedRng([0] * 10)  # zero backoff keeps the timeline exact
    assert mac.cw == 31
    w.nodes[1].radio_enabled = False
    w.send(0, 1, payload_bytes=512)
    # attempts at 50, 650, 1250; third timeout at 1800; heal before the
    # fourth RTS (1850) so it succeeds

    def heal():
        w.nodes[1].radio_enabled = True
    w.sim.schedule_at(1_810, heal)
    w.run(2_000_000)
    assert mac.cw_log == [63, 127, 255, 31]  # 3 doublings, reset on success
    assert mac.cw == 31
    assert w.uppers[0].successes


def test_cw_saturates_at_cw_max():
    w = pair_world()
    mac = w.nodes[0].mac
    mac.cw_log = []
    w.nodes[1].radio_enabled = False
    w.send(0, 1, payload_bytes=512)
    w.run(3_000_000)
    assert mac.cw_log == [63, 127, 255, 511, 1023, 1023, 1023, 1023]


def test_errored_data_gets_no_ack():
    # 0 -> 1 DATA while a hidden node (2) corrupts it at the receiver
    w = MacWorld({0: (0.0, 0.0), 1: (80.0, 0.0), 2: (160.0, 0.0)})

    def jam():
        frame = MacFrame(DATA, 2, BROADCAST, 0, 34, "jam", 14, frame_id=77)
        w.channel.transmit(w.nodes[2], frame)

    w.send(0, 1, payload_bytes=100)  # DATA on air 50..778
    w.sim.schedule_at(300, jam)
    w.run(1_100)  # past the ACK timeout, before any retry lands
    assert not w.tx_records(node_id=1, kind=ACK)
    assert w.ledger.node[1].signals_received_with_errors == 2
    assert not w.uppers[1].received
    assert w.nodes[0].mac.retry == 1  # sender noticed the missing ACK


def test_nav_defers_contention():
    w = pair_world()
    w.nodes[0].mac.rng = FixedRng([6])
    w.nodes[0].mac.nav_until = 4_000
    w.send(0, 1, payload_bytes=100)
    w.run(10_000)
    data = w.tx_records(node_id=0, kind=DATA)
    # a busy medium (here: virtually busy) forces a backoff draw
    assert data[0][1] == 4_000 + 50 + 6 * 20  # NAV expiry + DIFS + backoff


def test_node_under_nav_withholds_cts():
    w = MacWorld({0: (0.0, 0.0), 1: (50.0, 0.0)})
    w.nodes[1].mac.nav_until = 1_000_000
    w.send(0, 1, payload_bytes=512)
    w.run(2_000_000)
    assert not w.tx_records(node_id=1, kind=CTS)
    assert w.ledger.node[0].mac_unicast_drops == 1  # retries exhausted


def test_duplicate_data_is_acked_but_delivered_once():
    w = pair_world()
    mac = w.nodes[1].mac
    frame = MacFrame(DATA, 0, 1, 258, 34, "payload", 100, frame_id=42)
    mac.observe_frame(frame, errored=False)
    # retransmission of the same frame, after the first ACK is off the air
    w.sim.schedule_at(500, lambda: mac.observe_frame(frame, errored=False))
    w.run(2_000)
    assert len(w.uppers[1].received) == 1
    assert len(w.tx_records(node_id=1, kind=ACK)) == 2


def test_sender_with_radio_off_ends_each_service_silently():
    # The radio refuses the RTS stage, the DATA stage and a broadcast alike;
    # each ends its service without a drop, a count or an upcall.
    w = pair_world()
    w.nodes[0].radio_enabled = False
    w.send(0, 1, payload_bytes=512)
    w.send(0, 1, payload_bytes=100)
    w.send(0, BROADCAST, payload_bytes=100)
    w.run(100_000)
    assert not w.tx_records()
    c = w.ledger.node[0]
    assert c.mac_unicast_drops == 0 and c.dcf_broadcasts_sent == 0
    assert not w.uppers[0].successes and not w.uppers[0].failures
    mac = w.nodes[0].mac
    assert mac.current is None and not mac.queue


def test_duplicate_memory_holds_the_last_256_ids():
    w = pair_world(trace=False)
    mac = w.nodes[1].mac

    def deliver(frame_id):
        mac.observe_frame(MacFrame(DATA, 0, 1, 258, 34, frame_id, 100,
                                   frame_id=frame_id), errored=False)

    for frame_id in range(1, 258):
        deliver(frame_id)
    deliver(257)  # still remembered
    deliver(2)  # the oldest id remembered
    deliver(1)  # evicted by the 257th id
    assert [p for p, _ in w.uppers[1].received] == list(range(1, 258)) + [1]


def test_frame_invariants():
    with pytest.raises(SimulationError):
        MacFrame(ACK, 0, 1, 0, 14, payload="nope")
    with pytest.raises(SimulationError):
        MacFrame(RTS, 0, BROADCAST, 0, 20)
    with pytest.raises(SimulationError):
        MacFrame(DATA, 0, 1, -5, 34)


def test_trace_does_not_depend_on_an_earlier_run():
    # Frame ids come from the run's own simulator, not a process-wide count.
    traces = [run_static(line_positions(4), sessions=[(0, 3)],
                         sim_time_s=5.0, trace=True).sim.trace
              for _ in range(2)]
    assert traces[0] and traces[0] == traces[1]
