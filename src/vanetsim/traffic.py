"""CBR application traffic: one source per session."""

from .engine import us
from .routing.base import DEFAULT_TTL, Packet


class CbrSource:
    """One CBR session: a payload every interval inside [start, stop)."""

    def __init__(self, sim, config, session_id, src, dst, start_us, agent,
                 ledger):
        self.sim = sim
        self.session_id = session_id
        self.src = src
        self.dst = dst
        self.payload_bytes = config.payload_bytes
        self.interval_us = us(config.interval_ms / 1000.0)
        self.start_us = start_us
        self.stop_us = us(config.sim_time_s)
        self.agent = agent
        self.counters = ledger.session[session_id]

    def start(self):
        if self.stop_us <= self.start_us:
            return
        self.sim.schedule_at(self.start_us, self._tick)

    def _tick(self):
        now = self.sim.now
        self.counters.app_sent += 1  # and numbers the packet
        self.agent.handle_app_packet(Packet(
            self.src, self.dst, DEFAULT_TTL, self.payload_bytes,
            self.session_id, self.counters.app_sent, now))
        nxt = now + self.interval_us
        if nxt < self.stop_us:
            self.sim.schedule_at(nxt, self._tick)
