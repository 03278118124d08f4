"""Class-level wrappers that time vanetsim's layers from outside.

install() patches public methods on the simulator's classes and returns a
Tracer; Tracer.uninstall() puts every original back. Each wrapped call is
a span. Spans are folded into per-name totals as they close, kept in
memory: a call count and a self time, which is the span's duration minus
the time its child spans took. Storing every span would cost hundreds of
megabytes on a 3000 s run, so only the totals are kept.

Dispatched events are attributed to a layer by the `__module__` of their
callback, because every MAC and routing timer shares one event kind.
"""

import time
from collections import defaultdict

from vanetsim.engine import Simulator
from vanetsim.mac import DcfMac
from vanetsim.metrics import MetricsLedger
from vanetsim.phy import Channel
from vanetsim.routing.base import Agent
from vanetsim.simulation import Simulation

EVENT_LAYERS = {
    "vanetsim.mac": "mac.timer",
    "vanetsim.mobility": "mobility.tick",
    "vanetsim.traffic": "traffic.tick",
}

# Every span name that stands for one dispatched event.
EVENT_PREFIXES = ("phy.rx_end", "phy.tx_end", "mac.timer", "mobility.tick",
                  "traffic.tick", "routing.timer.", "engine.other")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.protocol = "none"
        self._child_s = [0.0]

    def span(self, name, fn, *args):
        stack = self._child_s
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            self.self_s[name] += elapsed - stack.pop()
            self.calls[name] += 1
            stack[-1] += elapsed

    def event_layer(self, fn, kind):
        module = getattr(fn, "__module__", None) or ""
        if module == "vanetsim.phy":
            return "phy.rx_end" if kind == "frame-arrival" else "phy.tx_end"
        if module.startswith("vanetsim.routing"):
            return "routing.timer." + self.protocol
        return EVENT_LAYERS.get(module, "engine.other")

    def events(self):
        """Dispatched events: the calls of every per-event span."""
        return sum(n for name, n in self.calls.items()
                   if name.startswith(EVENT_PREFIXES))

    def uninstall(self):
        for (cls, name), original in ORIGINALS.items():
            setattr(cls, name, original)


TRACED = ((Simulator, "schedule_at"), (Simulator, "cancel"),
          (Simulator, "run_until"), (Channel, "transmit"),
          (DcfMac, "enqueue"), (DcfMac, "observe_frame"),
          (Agent, "handle_app_packet"), (Agent, "on_receive"),
          (Agent, "on_unicast_success"), (Agent, "on_unicast_failure"),
          (MetricsLedger, "to_csv"), (Simulation, "run"))

ORIGINALS = {(cls, name): cls.__dict__[name] for cls, name in TRACED}


def leftovers():
    """Traced methods that are not their class's own function (want none)."""
    return ["%s.%s" % (cls.__name__, name) for (cls, name), original
            in ORIGINALS.items() if cls.__dict__[name] is not original]


def install():
    """Wrap every traced method; return the Tracer that owns the wrappers."""
    tr = Tracer()
    span = tr.span
    calls = tr.calls
    orig = {name: fn for (_, name), fn in ORIGINALS.items()}

    def schedule_at(sim, fire_at, fn, kind="timer", target="world"):
        name = tr.event_layer(fn, kind)
        return orig["schedule_at"](sim, fire_at, lambda: span(name, fn),
                                   kind, target)

    def cancel(sim, ev):
        if ev is not None:
            calls["engine.cancels"] += 1
        return orig["cancel"](sim, ev)

    def run_until(sim, end):
        return span("engine.dispatch", orig["run_until"], sim, end)

    def transmit(channel, node, frame):
        return span("phy.transmit", orig["transmit"], channel, node, frame)

    def enqueue(mac, dst, packet, payload_bytes):
        return span("mac.enqueue", orig["enqueue"], mac, dst, packet,
                    payload_bytes)

    def observe_frame(mac, frame, errored):
        return span("mac.observe_frame", orig["observe_frame"], mac, frame,
                    errored)

    def handle_app_packet(agent, pkt):
        return span("routing.upcall." + tr.protocol,
                    orig["handle_app_packet"], agent, pkt)

    def on_receive(agent, pkt, prev_hop):
        return span("routing.on_receive." + tr.protocol, orig["on_receive"],
                    agent, pkt, prev_hop)

    def on_unicast_success(agent, dst, packet):
        calls["mac.unicast_success"] += 1
        return span("routing.upcall." + tr.protocol,
                    orig["on_unicast_success"], agent, dst, packet)

    def on_unicast_failure(agent, dst, packet):
        calls["mac.unicast_failure"] += 1
        return span("routing.upcall." + tr.protocol,
                    orig["on_unicast_failure"], agent, dst, packet)

    def to_csv(ledger):
        return span("metrics.to_csv", orig["to_csv"], ledger)

    def run(simulation):
        tr.protocol = simulation.config.protocol
        return orig["run"](simulation)

    wrappers = {"schedule_at": schedule_at, "cancel": cancel,
                "run_until": run_until, "transmit": transmit,
                "enqueue": enqueue, "observe_frame": observe_frame,
                "handle_app_packet": handle_app_packet,
                "on_receive": on_receive,
                "on_unicast_success": on_unicast_success,
                "on_unicast_failure": on_unicast_failure, "to_csv": to_csv,
                "run": run}
    for cls, name in TRACED:
        setattr(cls, name, wrappers[name])
    return tr
