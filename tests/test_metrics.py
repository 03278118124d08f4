"""Canonical metric snapshots, aggregation, and cross-run ranking."""

from dataclasses import fields

import pytest

from vanetsim.metrics import (CompareError, MetricsLedger, NodeCounters,
                              compare, ranking_csv, rank_summary)


def make_ledger():
    led = MetricsLedger(node_ids=[1, 0], session_ids=[0], protocol="aodv",
                        seed=3, scenario_id="abc")
    led.node[0].dcf_broadcasts_sent = 7
    led.node[1].signals_received_without_errors = 12
    led.node[0].residual_battery_mah = 1499.123456789
    led.session[0].app_sent = 10
    led.session[0].record_delivery(1000)
    led.session[0].record_delivery(3000)
    return led


def test_snapshot_rows_are_canonically_ordered():
    rows = make_ledger().snapshot()
    order = {"node": 0, "session": 1, "run": 2}
    assert rows == sorted(rows, key=lambda r: (order[r[0]], int(r[1])
                                               if r[1] != "-" else 0, r[2]))
    scopes = [r[0] for r in rows]
    assert scopes.index("session") > scopes.index("node")
    assert scopes[-1] == "run"


def test_snapshot_formats_floats_to_6_places():
    rows = {(r[0], r[1], r[2]): r[3] for r in make_ledger().snapshot()}
    assert rows[("node", "0", "residual_battery_mah")] == "1499.123457"
    assert rows[("session", "0", "mean_delay_us")] == "2000.000000"
    assert rows[("node", "0", "dcf_broadcasts_sent")] == "7"


def test_csv_has_header_and_one_line_per_row():
    led = make_ledger()
    lines = led.to_csv().splitlines()
    assert lines[0] == "scope,id,metric,value"
    assert len(lines) == 1 + len(led.snapshot())
    assert all(line.count(",") == 3 for line in lines)


def test_totals_aggregates_nodes_and_sessions():
    led = make_ledger()
    led.node[1].residual_battery_mah = 0.5
    for nid, (tx, rx, idle) in ((0, (3, 5, 92)), (1, (4, 6, 90))):
        c = led.node[nid]
        c.tx_time_us, c.rx_time_us, c.idle_time_us = tx, rx, idle
    t = led.totals()
    assert t["dcf_broadcasts_sent"] == 7
    assert t["signals_received_without_errors"] == 12
    assert t["residual_battery_mah"] == 1499.123456789 + 0.5
    assert (t["tx_time_us"], t["rx_time_us"], t["idle_time_us"]) == \
        (7, 11, 182)
    # every node counter is summed, then the session totals follow
    assert set(t) == {f.name for f in fields(NodeCounters)} | {
        "app_sent", "app_received", "delivery_ratio"}
    assert t["app_sent"] == 10 and t["app_received"] == 2
    assert t["delivery_ratio"] == 0.2


def test_delivery_ratio_zero_when_nothing_sent():
    led = MetricsLedger(node_ids=[0], session_ids=[])
    assert led.totals()["delivery_ratio"] == 0.0


def rec(proto, seed, value, scenario="s1"):
    return {"protocol": proto, "seed": seed, "scenario_id": scenario,
            "totals": {"m": value}}


def test_compare_ranks_by_mean_descending():
    report = compare([rec("aodv", 1, 10), rec("aodv", 2, 20),
                      rec("olsr", 1, 40), rec("olsr", 2, 50)],
                     metrics=("m",))
    assert report["m"] == [("olsr", 45.0, 1), ("aodv", 15.0, 2)]


def test_compare_is_permutation_invariant():
    records = [rec("aodv", 1, 1), rec("olsr", 1, 9), rec("zrp", 1, 5)]
    a = compare(records, metrics=("m",))
    b = compare(records[::-1], metrics=("m",))
    assert a == b


def test_compare_requires_two_protocols():
    with pytest.raises(CompareError):
        compare([rec("aodv", 1, 1), rec("aodv", 2, 2)], metrics=("m",))


def test_compare_rejects_mixed_scenarios():
    with pytest.raises(CompareError):
        compare([rec("aodv", 1, 1), rec("olsr", 1, 2, scenario="other")],
                metrics=("m",))


def test_ranking_csv_shape():
    report = compare([rec("aodv", 1, 10), rec("olsr", 1, 40)],
                     metrics=("m",))
    lines = ranking_csv(report).splitlines()
    assert lines[0] == "metric,protocol,mean,rank"
    assert lines[1] == "m,olsr,40.000000,1"
    assert lines[2] == "m,aodv,10.000000,2"
    assert "m:" in rank_summary(report)


def test_repeat_snapshot_identical():
    led = make_ledger()
    assert led.to_csv() == led.to_csv()
