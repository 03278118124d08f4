"""CBR application traffic: one source per session."""

from .engine import us
from .routing.base import Packet


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
        self.ledger = ledger
        self.seq = 0

    def start(self):
        if self.stop_us <= self.start_us:
            return
        self.sim.schedule_at(self.start_us, self._tick)

    def _tick(self):
        self.seq += 1
        pkt = Packet(src=self.src, dst=self.dst, size_bytes=self.payload_bytes,
                     session_id=self.session_id, seq=self.seq,
                     sent_at=self.sim.now)
        self.ledger.session[self.session_id].app_sent += 1
        self.agent.handle_app_packet(pkt)
        nxt = self.sim.now + self.interval_us
        if nxt < self.stop_us:
            self.sim.schedule_at(nxt, self._tick)
