"""CBR application traffic: one source per session."""

from .engine import us
from .routing.base import DEFAULT_TTL, Packet
from .routing.reactive import PENDING_LIFETIME_US, PENDING_PER_DEST


class CbrSource:
    """One CBR session: a payload every interval inside [start, stop).
    While the token the agent returned for a packet (NoRoute, FullBuffer)
    holds, its packets are counted, not built; so its counters lag until
    it settles."""

    def __init__(self, sim, config, session_id, src, dst, start_us, agent,
                 ledger, alone=True):
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
        # No other session may use the buffer, and no packet expire there.
        self.defers = alone and (PENDING_PER_DEST * self.interval_us
                                 <= PENDING_LIFETIME_US)
        self.token = None
        self.deferred = 0  # packets counted under the token

    def start(self):
        if self.stop_us <= self.start_us:
            return
        self.sim.schedule_at(self.start_us, self._tick)

    def _tick(self):
        now = self.sim.now
        token = self.token
        if token is not None and token.holds():
            self.deferred += 1
        else:
            if token is not None:
                self.settle()
            self.counters.app_sent += 1  # and numbers the packet
            token = self.agent.handle_app_packet(Packet(
                self.src, self.dst, DEFAULT_TTL, self.payload_bytes,
                self.session_id, self.counters.app_sent, now))
            if token is not None and self.defers:
                token.source = self
                self.token = token
        nxt = now + self.interval_us
        if nxt < self.stop_us:
            self.sim.schedule_at(nxt, self._tick)

    def settle(self):
        """Push the packets counted under the token to it: the agent's
        reads, the token's lapse and the run's end call it."""
        token, self.token = self.token, None
        count, self.deferred = self.deferred, 0
        if count:
            self.counters.app_sent += count
            token.push(count)
