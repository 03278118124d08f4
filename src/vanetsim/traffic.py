"""CBR application traffic: one source per session."""

from .engine import us
from .routing.base import DEFAULT_TTL, Packet
from .routing.reactive import PENDING_LIFETIME_US, PENDING_PER_DEST


class CbrSource:
    """One CBR session: a payload every interval inside [start, stop).
    A source that takes the token the agent returned for a packet
    (NoRoute, FullBuffer) sleeps: it schedules no tick until the agent
    settles it, the moment the token stops holding, or the run ends. So
    its counters lag until it settles."""

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
        self.next_us = None  # the first tick not run while it sleeps

    def start(self):
        if self.stop_us <= self.start_us:
            return
        self.sim.schedule_at(self.start_us, self._tick)

    def _tick(self):
        now = self.sim.now
        self.counters.app_sent += 1  # and numbers the packet
        token = self.agent.handle_app_packet(Packet(
            self.src, self.dst, DEFAULT_TTL, self.payload_bytes,
            self.session_id, self.counters.app_sent, now))
        nxt = now + self.interval_us
        if token is not None and self.defers:
            token.source = self
            self.token = token
            self.next_us = nxt
        elif nxt < self.stop_us:
            self.sim.schedule_tick(nxt, self.interval_us, self.session_id,
                                   self._tick)

    def settle(self):
        """Wake, if asleep: count the ticks that fell due under the token,
        push the count to it and schedule the first tick still to come.
        The agent calls it when the token stops holding (NoRoute,
        FullBuffer), and Simulation.run when the run ends."""
        token, self.token = self.token, None
        if token is None:
            return
        sim, step = self.sim, self.interval_us
        nxt = self.next_us
        if nxt < sim.now:
            nxt += -(-(sim.now - nxt) // step) * step
        if sim.ticked(nxt, step, self.session_id):
            nxt += step
        count = len(range(self.next_us, min(nxt, self.stop_us), step))
        if count:
            self.counters.app_sent += count
            token.push(count)
        if nxt < self.stop_us:
            sim.schedule_tick(nxt, step, self.session_id, self._tick)
