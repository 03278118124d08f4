"""CBR application traffic: one source per session."""

from .engine import us
from .routing.base import DEFAULT_TTL, Packet


class CbrSource:
    """One CBR session: a payload every interval inside [start, stop).
    When the agent's on_source_miss says the session's next packets meet
    the same fate until its next notice for the destination, a source
    alone on its (src, dst) pair sleeps in agent.sleepers: it schedules
    no tick until the agent settles it at that notice, or the run ends.
    So its counters lag until it settles."""

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
        self.defers = alone  # no other session may use the buffer
        self.next_us = None  # while it sleeps, the first tick not run

    def start(self):
        if self.stop_us <= self.start_us:
            return
        self.sim.schedule_at(self.start_us, self._tick)

    def _tick(self):
        now = self.sim.now
        self.counters.app_sent += 1  # and numbers the packet
        doomed = self.agent.handle_app_packet(Packet(
            self.src, self.dst, DEFAULT_TTL, self.payload_bytes,
            self.session_id, self.counters.app_sent, now))
        nxt = now + self.interval_us
        if doomed and self.defers:
            self.agent.sleepers[self.dst] = self
            self.next_us = nxt
        elif nxt < self.stop_us:
            self.sim.schedule_tick(nxt, self.session_id, self._tick)

    def settle(self):
        """Wake, if asleep: count the ticks that fell due while it slept,
        hand the count to the agent (count_slept) and schedule the first
        tick still to come, which may be due now: no tick wakes a source,
        and a tick goes last in its microsecond. The agent calls it at its
        notice for the destination, and Simulation.run once the run is
        over, at the stop, where no tick is due."""
        first, self.next_us = self.next_us, None
        if first is None:
            return
        sim, step = self.sim, self.interval_us
        nxt = first + max(0, -((first - sim.now) // step)) * step
        count = len(range(first, min(nxt, self.stop_us), step))
        if count:
            self.counters.app_sent += count
            self.agent.count_slept(self.dst, count, step)
        if nxt < self.stop_us:
            sim.schedule_tick(nxt, self.session_id, self._tick)
