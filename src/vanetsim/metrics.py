"""Counter ledger, canonical snapshots, and cross-run ranking."""

from dataclasses import dataclass, fields

RANKED_METRICS = (
    "dcf_broadcasts_received",
    "mac_packets_from_network",
    "signals_received_without_errors",
)


@dataclass
class NodeCounters:
    dcf_broadcasts_sent: int = 0
    dcf_broadcasts_received: int = 0
    mac_packets_from_network: int = 0
    signals_received_without_errors: int = 0
    signals_received_with_errors: int = 0
    mac_unicast_drops: int = 0
    queue_drops: int = 0
    route_drops: int = 0
    residual_battery_mah: float = 0.0
    tx_time_us: int = 0
    rx_time_us: int = 0
    idle_time_us: int = 0


@dataclass
class SessionCounters:
    app_sent: int = 0
    app_received: int = 0
    delay_sum_us: int = 0
    max_delay_us: int = 0

    def record_delivery(self, delay_us):
        self.app_received += 1
        self.delay_sum_us += delay_us
        if delay_us > self.max_delay_us:
            self.max_delay_us = delay_us

    @property
    def mean_delay_us(self):
        if self.app_received == 0:
            return 0.0
        return self.delay_sum_us / self.app_received


def _fmt(value):
    if isinstance(value, bool):
        raise TypeError("boolean metric value")
    if isinstance(value, int):
        return str(value)
    return "%.6f" % value


class MetricsLedger:
    """Single source of truth for every counter a run produces."""

    def __init__(self, node_ids, session_ids, protocol="", seed=0,
                 scenario_id=""):
        self.node = {nid: NodeCounters() for nid in sorted(node_ids)}
        self.session = {sid: SessionCounters() for sid in sorted(session_ids)}
        self.protocol = protocol
        self.seed = seed
        self.scenario_id = scenario_id
        self.sim_time_us = 0
        self.wallclock_s = 0.0

    def snapshot(self):
        """Canonically ordered (scope, id, metric, value-string) rows."""
        rows = []
        for nid in sorted(self.node):
            c = self.node[nid]
            for metric in sorted(f.name for f in fields(c)):
                rows.append(("node", str(nid), metric,
                             _fmt(getattr(c, metric))))
        for sid in sorted(self.session):
            s = self.session[sid]
            values = {f.name: getattr(s, f.name) for f in fields(s)
                      if f.name != "delay_sum_us"}
            values["mean_delay_us"] = s.mean_delay_us
            for metric in sorted(values):
                rows.append(("session", str(sid), metric,
                             _fmt(values[metric])))
        run_fields = {
            "protocol": self.protocol,
            "seed": _fmt(self.seed),
            "sim_time_us": _fmt(self.sim_time_us),
        }
        for metric in sorted(run_fields):
            rows.append(("run", "-", metric, run_fields[metric]))
        return rows

    def to_csv(self):
        lines = ["scope,id,metric,value"]
        lines += [",".join(row) for row in self.snapshot()]
        return "\n".join(lines) + "\n"

    def totals(self):
        """Run-level aggregates used for ranking and acceptance checks: every
        node counter summed over nodes, then the session totals."""
        agg = {f.name: sum(getattr(c, f.name) for c in self.node.values())
               for f in fields(NodeCounters)}
        sent = sum(s.app_sent for s in self.session.values())
        received = sum(s.app_received for s in self.session.values())
        agg["app_sent"] = sent
        agg["app_received"] = received
        agg["delivery_ratio"] = received / sent if sent else 0.0
        return agg


class CompareError(Exception):
    pass


def compare(records, metrics=RANKED_METRICS):
    """Rank protocols by per-metric means over seeds.

    records: iterable of dicts with protocol, seed, scenario_id, totals.
    Returns {metric: [(protocol, mean, rank), ...]} with rank 1 for the
    largest mean. Permutation-invariant in record order.
    """
    records = list(records)
    protocols = sorted({r["protocol"] for r in records})
    if len(protocols) < 2:
        raise CompareError("need at least two protocols to rank")
    scenario_ids = {r["scenario_id"] for r in records}
    if len(scenario_ids) > 1:
        raise CompareError("mismatched scenarios: %s" % sorted(scenario_ids))
    report = {}
    for metric in metrics:
        means = []
        for proto in protocols:
            values = [r["totals"][metric] for r in records
                      if r["protocol"] == proto]
            means.append((proto, sum(values) / len(values)))
        ordered = sorted(means, key=lambda pm: (-pm[1], pm[0]))
        report[metric] = [(proto, mean, rank + 1)
                          for rank, (proto, mean) in enumerate(ordered)]
    return report


def ranking_csv(report):
    lines = ["metric,protocol,mean,rank"]
    for metric in sorted(report):
        for proto, mean, rank in report[metric]:
            lines.append("%s,%s,%s,%d" % (metric, proto, _fmt(float(mean)),
                                          rank))
    return "\n".join(lines) + "\n"


def rank_summary(report):
    out = []
    for metric in sorted(report):
        parts = ["%d.%s(%.1f)" % (rank, proto, mean)
                 for proto, mean, rank in report[metric]]
        out.append("%s: %s" % (metric, "  ".join(parts)))
    return "\n".join(out) + "\n"
