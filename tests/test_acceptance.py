"""End-to-end acceptance gate.

Thirteen numbered criteria covering determinism, DCF behaviour, routing
correctness, protocol rank ordering, and conservation identities.  Each
test prints one PASS/FAIL line; tolerances are pinned in the assertions.
"""

import json
import math
import os
import random
from dataclasses import replace

import pytest

import vanetsim
from vanetsim.cli import main
from vanetsim.engine import us
from vanetsim.mac import ACK, BROADCAST, CTS, DATA, RTS, SIFS_US
from vanetsim.metrics import RANKED_METRICS, compare
from vanetsim.routing.olsr import TC_INTERVAL_US, select_mprs
from vanetsim.scenario import ScenarioConfig
from vanetsim.simulation import Simulation

from conftest import (PROTOCOLS, SWEEP_SEEDS as SEEDS, FixedRng, MacWorld,
                      run_static, run_traced_baseline, trace_digest)
from test_golden import pinned

BASELINE = os.path.join(os.path.dirname(vanetsim.__file__),
                        "scenarios", "table1.cfg")


def verdict(number, description, ok):
    print("criterion %02d %-52s %s"
          % (number, description, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d failed: %s" % (number, description)


# -- shared expensive runs -------------------------------------------------


@pytest.fixture(scope="module")
def traced_baseline():
    """One fully traced baseline run (shared by 4 and 13 and the trace
    checks)."""
    return run_traced_baseline()


# -- criteria --------------------------------------------------------------


def test_criterion_01_determinism_and_runtime(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", BASELINE, "--seed", "1",
                     "--out", str(out)]) == 0
        outs.append(out)
    identical = ((outs[0] / "metrics.csv").read_bytes()
                 == (outs[1] / "metrics.csv").read_bytes())
    wallclocks = [json.loads((o / "run.json").read_text())["wallclock_s"]
                  for o in outs]
    verdict(1, "byte-identical rerun, each run <= 120 s",
            identical and max(wallclocks) <= 120.0)


def test_criterion_02_retry_bound_exactly_eight_attempts():
    w = MacWorld({0: (0.0, 0.0), 1: (50.0, 0.0)})
    w.nodes[1].radio_enabled = False  # forced loss: nothing ever answers
    w.send(0, 1, payload_bytes=512)
    w.run(5_000_000)
    attempts = len(w.tx_records(node_id=0, kind=RTS))
    dropped = w.ledger.node[0].mac_unicast_drops == 1
    notified = w.uppers[0].failures == [(1, "x")]
    verdict(2, "8 attempts (1 + 7 retries) then drop",
            attempts == 8 and dropped and notified)


def test_criterion_03_contention_window_ladder():
    # saturation under forced loss
    w = MacWorld({0: (0.0, 0.0), 1: (50.0, 0.0)})
    mac = w.nodes[0].mac
    initial = mac.cw
    mac.rng = FixedRng(rng=mac.rng)
    w.nodes[1].radio_enabled = False
    w.send(0, 1, payload_bytes=512)
    w.run(5_000_000)
    # each retry draws its backoff from the CW it uses
    ladder = [initial] + mac.rng.windows
    saturates = ladder == [31, 63, 127, 255, 511, 1023, 1023, 1023]

    # reset on success: heal the receiver before the fourth attempt
    w2 = MacWorld({0: (0.0, 0.0), 1: (50.0, 0.0)})
    mac2 = w2.nodes[0].mac
    mac2.rng = FixedRng([0] * 10)  # zero backoff keeps the timeline exact
    w2.nodes[1].radio_enabled = False
    w2.send(0, 1, payload_bytes=512)
    w2.sim.schedule_at(1_810, lambda: setattr(w2.nodes[1], "radio_enabled",
                                              True))
    w2.run(5_000_000)
    resets = mac2.rng.windows == [63, 127, 255] and mac2.cw == 31
    verdict(3, "CW 31..1023 doubling, reset to 31 on success",
            saturates and resets)


def test_criterion_04_broadcast_has_no_control_frames(traced_baseline):
    trace = traced_baseline.sim.trace
    tx = [t for t in trace if t[0] == "tx"]
    broadcast_ids = {t[6] for t in tx if t[3] == DATA and t[5] == BROADCAST}
    control = [t for t in tx if t[3] in (RTS, CTS, ACK)]

    # no control frame is ever addressed to, or keyed to, a broadcast
    no_bcast_dst = all(t[5] != BROADCAST for t in control)
    no_bcast_rts = all(t[6] not in broadcast_ids
                       for t in tx if t[3] == RTS)

    # every ACK answers a clean unicast DATA that ended one SIFS earlier
    # (rx records: "rx", start, node, kind, src, dst, frame_id, end, errored)
    clean_rx = {}
    for t in trace:
        if t[0] == "rx" and not t[8]:
            clean_rx.setdefault((t[2], t[7]), []).append(t)

    def answers_unicast(resp, req_kind):
        causes = clean_rx.get((resp[2], resp[1] - SIFS_US), [])
        return any(c[3] == req_kind and c[5] == resp[2] for c in causes)

    acks_ok = all(answers_unicast(t, DATA) for t in tx if t[3] == ACK)
    cts_ok = all(answers_unicast(t, RTS) for t in tx if t[3] == CTS)
    verdict(4, "no ACK/RTS/CTS tied to broadcast DATA (full trace)",
            broadcast_ids and no_bcast_dst and no_bcast_rts
            and acks_ok and cts_ok)


def test_criterion_05_rts_cts_prevents_hidden_terminal_data_collisions():
    def data_overlaps_at_middle(rts_threshold):
        w = MacWorld({0: (0.0, 0.0), 1: (80.0, 0.0), 2: (160.0, 0.0)},
                     config=ScenarioConfig(rts_threshold_bytes=rts_threshold))
        for _ in range(20):
            w.send(0, 1, payload_bytes=512)
            w.send(2, 1, payload_bytes=512)
        w.run(3_000_000)
        spans = [(t[1], t[7]) for t in w.rx_records(node_id=1, kind=DATA)]
        overlaps = 0
        for i, (s1, e1) in enumerate(spans):
            for s2, e2 in spans[i + 1:]:
                if s1 < e2 and s2 < e1:
                    overlaps += 1
        return overlaps

    with_rts = data_overlaps_at_middle(rts_threshold=256)
    without_rts = data_overlaps_at_middle(rts_threshold=10 ** 9)
    verdict(5, "hidden terminal: 0 DATA-DATA overlaps with RTS/CTS",
            with_rts == 0 and without_rts > 0)


def test_criterion_06_mpr_cover_on_random_graphs():
    failures = 0
    for seed in range(100):
        rng = random.Random(1000 + seed)
        n = rng.randint(3, 12)
        adj = {i: set() for i in range(n)}
        for v in range(1, n):  # random spanning tree keeps it connected
            u = rng.randrange(v)
            adj[u].add(v)
            adj[v].add(u)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.3:
                    adj[u].add(v)
                    adj[v].add(u)
        root = rng.randrange(n)
        one_hop = adj[root]
        # brute-force two-hop oracle straight from the adjacency
        two_hop = set()
        for u in one_hop:
            two_hop |= adj[u]
        two_hop -= one_hop | {root}
        coverage = {u: adj[u] & two_hop for u in one_hop}
        degree = {u: len(adj[u]) for u in one_hop}
        mprs = select_mprs(coverage, degree=degree)
        covered = set()
        for m in mprs:
            covered |= coverage[m]
        if covered != two_hop or not mprs <= one_hop:
            failures += 1
    verdict(6, "MPR cover on 100 seeded connected graphs", failures == 0)


def test_criterion_07_loop_freedom_on_random_topologies():
    failures = 0
    for seed in range(100):
        rng = random.Random(2000 + seed)
        n = rng.randint(4, 10)
        positions = {i: (rng.uniform(0.0, 450.0), rng.uniform(0.0, 450.0))
                     for i in range(n)}
        sessions = set()
        while len(sessions) < 3:
            src, dst = rng.randrange(n), rng.randrange(n)
            if src != dst:
                sessions.add((src, dst))
        s = run_static(positions, sessions=sorted(sessions), seed=seed,
                       protocol="aodv", sim_time_s=15.0)
        now = s.sim.now
        for nid, node in s.nodes.items():
            for dest in list(node.agent.table.entries):
                if node.agent.table.lookup(dest, now) is None:
                    continue
                visited = {nid}
                here = nid
                while here != dest:
                    entry = s.nodes[here].agent.table.lookup(dest, now)
                    if entry is None:
                        break  # dead end is legal; a revisit is not
                    here = entry.next_hop
                    if here in visited:
                        failures += 1
                        break
                    visited.add(here)
    verdict(7, "next-hop walks on 100 seeded topologies are loop-free",
            failures == 0)


def test_criterion_08_dymo_path_accumulation_vs_aodv():
    positions = {i: (50.0 + i * 80.0, 100.0) for i in range(4)}
    counts = {}
    for proto in ("aodv", "dymo"):
        s = run_static(positions, sessions=[(0, 3)], protocol=proto,
                       sim_time_s=5.0)
        table = s.nodes[0].agent.table
        counts[proto] = sum(1 for d in table.entries
                            if table.lookup(d, s.sim.now) is not None)
    verdict(8, "one discovery on 4-line: DYMO 3 routes, AODV 1",
            counts["dymo"] == 3 and counts["aodv"] == 1)


def test_criterion_09_zrp_query_suppression_and_single_stage():
    positions = {i: (50.0 + i * 80.0, 100.0) for i in range(5)}

    # intrazone destination: zero interzone messages on the air (internal
    # discovery rounds before the zone view converges send nothing)
    s_in = run_static(positions, sessions=[(0, 2)], protocol="zrp",
                      sim_time_s=10.0)
    ierp = sum(a.agent.stats.get(k, 0)
               for a in s_in.nodes.values()
               for k in ("ierp_queries_sent", "ierp_queries_relayed",
                         "ierp_replies_sent", "ierp_errors_sent"))

    # end-to-end query: exactly one bordercast stage answers
    s_out = run_static(positions, sessions=[(0, 4)], protocol="zrp",
                       sim_time_s=15.0)
    stages = set()
    for node in s_out.nodes.values():
        for key in node.agent.stats:
            if key.startswith("ierp_stage_seen_"):
                stages.add(int(key.rsplit("_", 1)[1]))
    route = s_out.nodes[0].agent.table.lookup(4, s_out.sim.now)

    # flood oracle: on a line with zone radius 2 the first peripheral
    # (distance-2) node already covers the destination
    hops = 4
    flood_stages = math.ceil((hops - 2) / 2)  # = 1
    verdict(9, "ZRP: 0 intrazone IERP msgs, 1 bordercast stage",
            ierp == 0 and stages == set(range(1, flood_stages + 1))
            and route is not None)


def test_criterion_10_idle_overhead_contrast():
    config = replace(ScenarioConfig(), sessions=0).validate()
    quiet = True
    for proto in ("aodv", "dymo"):
        totals = Simulation(config, protocol=proto).run().totals()
        quiet = (quiet and totals["dcf_broadcasts_sent"] == 0
                 and totals["mac_packets_from_network"] == 0)

    s = Simulation(config, protocol="olsr")
    s.run()
    elapsed_s = config.sim_time_s
    rates_ok = True
    for node in s.nodes.values():
        hello = node.agent.stats.get("hello_sent", 0)
        tc = node.agent.stats.get("tc_sent", 0)
        rates_ok = (rates_ok
                    and abs(hello - elapsed_s / config.hello_interval_s) <= 1
                    and abs(tc - us(elapsed_s) / TC_INTERVAL_US) <= 1)
    verdict(10, "0 sessions: reactive silent, OLSR at periodic rate",
            quiet and rates_ok)


def test_criterion_11_rank_reproduction(sweep):
    records, elapsed = sweep
    totals = {(r["protocol"], r["seed"]): r["totals"] for r in records}

    def olsr_first(get):
        return all(get("olsr", m) >= max(get(p, m) for p in PROTOCOLS
                                         if p != "olsr")
                   for m in RANKED_METRICS)

    def dymo_last(get):
        # ties count as last: identical sparse-topology runs can make
        # two reactive protocols coincide exactly
        last = sum(1 for m in RANKED_METRICS
                   if get("dymo", m) <= min(get(p, m) for p in PROTOCOLS
                                            if p != "dymo"))
        return last >= 2

    def per_seed(seed):
        return lambda proto, metric: totals[(proto, seed)][metric]

    olsr_seeds = sum(1 for s in SEEDS if olsr_first(per_seed(s)))
    dymo_seeds = sum(1 for s in SEEDS if dymo_last(per_seed(s)))

    means = {(p, m): sum(totals[(p, s)][m] for s in SEEDS) / len(SEEDS)
             for p in PROTOCOLS for m in RANKED_METRICS}
    mean_get = lambda proto, metric: means[(proto, metric)]

    report = compare(records, metrics=RANKED_METRICS)
    olsr_ranked_first = all(report[m][0][0] == "olsr"
                            for m in RANKED_METRICS)

    verdict(11, "OLSR first, DYMO last (>=7/10 seeds and on means)",
            olsr_seeds >= 7 and dymo_seeds >= 7
            and olsr_first(mean_get) and dymo_last(mean_get)
            and olsr_ranked_first and elapsed <= 5400.0)


def test_criterion_12_battery_and_error_flatness(sweep):
    records, _ = sweep
    seed1 = {r["protocol"]: r["totals"] for r in records if r["seed"] == 1}
    config = ScenarioConfig()

    residual = [seed1[p]["residual_battery_mah"] / config.num_nodes
                for p in PROTOCOLS]
    battery_flat = max(residual) - min(residual) \
        < 0.01 * config.capacity_mah

    errors = [seed1[p]["signals_received_with_errors"] for p in PROTOCOLS]
    mean_err = sum(errors) / len(errors)
    if mean_err >= 100:
        errors_flat = (max(errors) - min(errors)) / mean_err < 0.25
    else:
        # relative spread is meaningless near zero; pin an absolute floor
        errors_flat = max(errors) - min(errors) <= 25
    verdict(12, "residual battery < 1% apart, errored signals flat",
            battery_flat and errors_flat)


def test_criterion_13_conservation_identities(traced_baseline):
    sim = traced_baseline
    ledger = sim.ledger
    end_us = sim.end_us

    rx_by_node = {nid: 0 for nid in sim.nodes}
    for t in sim.sim.trace:
        if t[0] == "rx":
            rx_by_node[t[2]] += 1
    signals_ok = all(
        rx_by_node[nid] == (ledger.node[nid].signals_received_with_errors
                            + ledger.node[nid].signals_received_without_errors)
        for nid in sim.nodes)

    sessions_ok = all(s.app_received <= s.app_sent
                      for s in ledger.session.values())
    times_ok = all(
        c.tx_time_us + c.rx_time_us + c.idle_time_us == end_us
        for c in ledger.node.values())
    verdict(13, "signal, delivery, and mode-time conservation",
            signals_ok and sessions_ok and times_ok)


def test_every_rx_record_is_of_a_frame_that_went_on_the_air(traced_baseline):
    # No metric reads a reception's start; only its trace record shows it.
    trace = traced_baseline.sim.trace
    sent = {(t[1], t[2], t[3], t[7]) for t in trace if t[0] == "tx"}
    rx = [t for t in trace if t[0] == "rx"]
    assert rx and all((t[1], t[4], t[3], t[7]) in sent for t in rx)


def test_trace_matches_its_pin(traced_baseline):
    assert (trace_digest(traced_baseline.sim.trace)
            == pinned("table1_trace")["aodv"]["1"])
