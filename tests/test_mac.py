"""DCF contention, retries, RTS/CTS, NAV, and broadcast discipline."""

import random
from types import SimpleNamespace

from vanetsim.mac import (ACK, BROADCAST, CTS, CW_MIN, DATA, DIFS_US, RTS,
                          SIFS_US, SLOT_US, DcfMac, MacFrame)
from vanetsim.engine import SimulationError, Simulator
from vanetsim.metrics import NodeCounters
from vanetsim.scenario import ScenarioConfig

import pytest

from conftest import FixedRng, MacWorld, line_positions, run_static


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


def burst(w, src, at):
    """Put a 248 us frame from `src` on the air at `at`. Scheduled before the
    MAC's own events, it goes first among those due in the same us."""
    frame = MacFrame(DATA, src, BROADCAST, 0, 14, frame_id=9000 + at)
    w.sim.schedule_at(at, lambda: w.channel.transmit(w.nodes[src], frame))


def test_busy_edge_as_the_difs_ends_owes_a_backoff():
    # The post-busy rule holds up to and including the DIFS's last us.
    w = pair_world()
    w.nodes[0].mac.rng = FixedRng([3])
    burst(w, 1, 50)
    w.send(0, 1, payload_bytes=100)  # idle medium, no backoff owed: due at 50
    w.run(5_000)
    data = w.tx_records(node_id=0, kind=DATA)
    assert data[0][1] == 50 + 248 + 50 + 3 * 20  # burst, DIFS, drawn slots


@pytest.mark.parametrize("slots, fraction", [(0, 7), (2, 1), (4, 19), (5, 0)])
def test_busy_edge_inside_the_countdown_keeps_the_slots_not_counted(
        slots, fraction):
    # A broadcast owes 5 slots, counted from the DIFS's end at 50. A busy
    # edge `slots` whole slots and a fraction later leaves 5 - slots; one in
    # the us the countdown ends leaves none and draws none.
    w = pair_world()
    w.nodes[0].mac.rng = FixedRng([5])  # a second draw would fail
    at = 50 + slots * 20 + fraction
    burst(w, 1, at)
    w.send(0, BROADCAST, payload_bytes=100)
    w.run(5_000)
    data = w.tx_records(node_id=0, kind=DATA)
    assert data[0][1] == at + 248 + 50 + (5 - slots) * 20


def reference_attempt(t, slots, spans, rng):
    """When a countdown begun at t ends, by IEEE 802.11-1999 9.2.5.2: a DIFS
    of idle medium, then `slots` whole idle slots, frozen while one of
    `spans` (sorted, disjoint [start, end) intervals of carrier or NAV)
    holds the medium. slots is None until the medium is busy by the DIFS's
    end, and then drawn as the MAC draws them."""
    for b, e in spans:
        if e <= t:
            continue
        if b > t + DIFS_US + (slots or 0) * SLOT_US:
            break
        if b > t + DIFS_US:
            slots -= (b - t - DIFS_US) // SLOT_US
        elif slots is None:
            slots = rng.randrange(CW_MIN + 1)
        t = e
    return t + DIFS_US + (slots or 0) * SLOT_US


def test_attempts_follow_a_reference_countdown():
    # One DcfMac under random busy and idle edges, some idle edges under a
    # NAV that outlasts them, and 1-3 frames; every edge, NAV end and frame
    # arrival at a distinct us. The channel records each attempt and, by
    # returning None, refuses its frame, so the service ends at once.
    for seed in range(1_000):
        rng = random.Random(seed)
        used = set()

        def fresh(lo, hi):
            while True:
                t = rng.randrange(lo, hi)
                if t not in used:
                    used.add(t)
                    return t

        edges = sorted(fresh(1, 5_000)
                       for _ in range(2 * rng.randrange(1, 16)))
        busy = list(zip(edges[::2], edges[1::2]))
        nav = {e: fresh(e + 1, e + 1_000) for _, e in busy
               if rng.random() < 0.4}
        ready = sorted(fresh(0, 5_000) for _ in range(rng.randrange(1, 4)))

        sim = Simulator(seed)
        node = SimpleNamespace(id=0, counters=NodeCounters(),
                               carrier_busy=False)
        attempts = []
        channel = SimpleNamespace(
            transmit=lambda node, frame: attempts.append(sim.now))
        mac = DcfMac(sim, node, channel, ScenarioConfig(),
                     random.Random(seed))

        def busy_edge():
            node.carrier_busy = True
            mac.on_medium_busy()

        def idle_edge(nav_end):
            node.carrier_busy = False
            mac.nav_until = max(mac.nav_until, nav_end)
            mac.on_medium_idle()

        spans = []
        for b, e in busy:
            sim.schedule_at(b, busy_edge)
            sim.schedule_at(e, lambda n=nav.get(e, 0): idle_edge(n))
            end = max(e, nav.get(e, 0))
            if spans and b < spans[-1][1]:
                spans[-1][1] = max(spans[-1][1], end)
            else:
                spans.append([b, end])
        for r in ready:
            sim.schedule_at(r, lambda: mac.enqueue(1, "x", 100))
        sim.run_until(1_000_000)

        # The first frame owes no backoff until the medium is busy; every
        # later one draws its own when it is served.
        draws = random.Random(seed)
        want = [reference_attempt(ready[0], None, spans, draws)]
        for r in ready[1:]:
            want.append(reference_attempt(
                max(r, want[-1]), draws.randrange(CW_MIN + 1), spans, draws))
        assert attempts == want, "seed %d" % seed


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
    assert mac.rng.windows == [63, 127, 255]  # a draw after each timeout
    assert mac.cw == 31  # reset on success
    assert w.uppers[0].successes


def test_cw_saturates_at_cw_max():
    w = pair_world()
    mac = w.nodes[0].mac
    mac.rng = FixedRng(rng=mac.rng)
    w.nodes[1].radio_enabled = False
    w.send(0, 1, payload_bytes=512)
    w.run(3_000_000)
    # the eighth timeout drops the frame and draws nothing
    assert mac.rng.windows == [63, 127, 255, 511, 1023, 1023, 1023]


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


@pytest.mark.parametrize("at, frame, clear_at", [
    # carrier busy 1000..1248, wholly inside the NAV that ends at 4000
    (1_000, MacFrame(DATA, 2, BROADCAST, 0, 14, frame_id=901), 4_000),
    # carrier busy 3900..4148, across the NAV's end
    (3_900, MacFrame(DATA, 2, BROADCAST, 0, 14, frame_id=901), 4_148),
    # an RTS from 2 to 1 on air 3000..3272 lengthens the NAV to 6000, and
    # node 1's CTS (3282..3530) reserves the medium to 6000 as well
    (3_000, MacFrame(RTS, 2, 1, 6_000 - 3_272, 20, frame_id=901), 6_000),
], ids=["busy_inside_nav", "busy_across_nav_end", "rts_lengthens_nav"])
def test_difs_counts_from_when_carrier_and_nav_are_both_clear(
        at, frame, clear_at):
    # Node 0, under NAV until 4000, holds exactly one backoff draw: a busy
    # edge that drew again would find none.
    w = MacWorld({0: (0.0, 0.0), 1: (50.0, 0.0), 2: (0.0, 50.0)})
    w.nodes[0].mac.rng = FixedRng([6])
    w.nodes[0].mac.nav_until = 4_000
    w.send(0, 1, payload_bytes=100)
    w.sim.schedule_at(at, lambda: w.channel.transmit(w.nodes[2], frame))
    w.run(10_000)
    data = w.tx_records(node_id=0, kind=DATA)
    assert data[0][1] == clear_at + 50 + 6 * 20  # + DIFS + backoff


def test_node_under_nav_withholds_cts():
    w = MacWorld({0: (0.0, 0.0), 1: (50.0, 0.0)})
    w.nodes[1].mac.nav_until = 1_000_000
    w.send(0, 1, payload_bytes=512)
    w.run(2_000_000)
    assert not w.tx_records(node_id=1, kind=CTS)
    assert w.ledger.node[0].mac_unicast_drops == 1  # retries exhausted


def test_node_under_nav_still_acks_data():
    # IEEE 802.11-1999 9.2.8: the ACK goes a SIFS after the DATA whatever
    # the medium's state; only a CTS waits on the NAV. A withheld ACK would
    # make node 0 send the DATA 8 times, drop it and report a link failure
    # for a working link.
    w = pair_world()
    w.nodes[1].mac.nav_until = 1_000_000
    w.send(0, 1, payload_bytes=100)
    w.run(2_000_000)
    assert w.uppers[1].received == [("x", 0)]
    assert len(w.tx_records(node_id=1, kind=ACK)) == 1
    assert w.uppers[0].successes == [(1, "x")] and not w.uppers[0].failures
    assert w.ledger.node[0].mac_unicast_drops == 0


# A static 5 x 5 grid 80 m apart; rows and columns 0, 1, 3 and 4 each carry
# a session from one edge to the other, alternating direction.
GRID = {r * 5 + c: (50.0 + c * 80, 50.0 + r * 80)
        for r in range(5) for c in range(5)}
CROSS_GRID = [(0, 4), (0, 20), (9, 5), (21, 1),
              (15, 19), (3, 23), (24, 20), (24, 4)]


@pytest.mark.parametrize("protocol", ["aodv", "dymo"])
def test_no_sifs_response_goes_missing(protocol):
    # The converse of criterion 4: a clean unicast DATA ending at e is ACKed
    # by its addressee at e + SIFS, and a clean CTS is followed by the DATA,
    # unless the run ends first. The grid's hidden terminals put nodes under
    # NAV while frames reach them.
    s = run_static(GRID, sessions=CROSS_GRID, protocol=protocol,
                   sim_time_s=3.0, trace=True, interval_ms=20)
    sent = {(t[2], t[1], t[3]) for t in s.sim.trace if t[0] == "tx"}
    response = {DATA: ACK, CTS: DATA}
    due = [(t[2], t[7] + SIFS_US, response[t[3]]) for t in s.sim.trace
           if t[0] == "rx" and not t[8] and t[5] == t[2]
           and t[3] in response and t[7] + SIFS_US <= s.end_us]
    assert {kind for _, _, kind in due} == {ACK, DATA}
    assert [d for d in due if d not in sent] == []


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
    # each ends its service without a drop or an upcall, counted only as a
    # refused frame.
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
    assert mac.stats == {"radio_refused": 3}


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
