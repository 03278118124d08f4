"""CBR application traffic and the per-node battery model."""

from .engine import us
from .routing.base import Packet

US_PER_HOUR = 3_600_000_000


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


class Battery:
    """Charge bookkeeping: drawn += mode current x duration.

    Charge is counted in mAh, so the supply voltage (`voltage_v`) does not
    enter it.
    """

    MODES = ("tx", "rx", "idle")

    def __init__(self, config):
        self.capacity_mah = config.capacity_mah
        self.currents = {"tx": config.tx_ma, "rx": config.rx_ma,
                         "idle": config.idle_ma}
        self.drawn_mah = 0.0
        self.mode_time_us = {m: 0 for m in self.MODES}

    def account(self, mode, duration_us):
        if duration_us < 0:
            raise ValueError("negative accounting duration")
        if duration_us == 0:
            return
        self.mode_time_us[mode] += duration_us
        self.drawn_mah += self.currents[mode] * duration_us / US_PER_HOUR
        if self.drawn_mah > self.capacity_mah:
            self.drawn_mah = self.capacity_mah

    @property
    def residual_mah(self):
        return self.capacity_mah - self.drawn_mah

    @property
    def dead(self):
        return self.drawn_mah >= self.capacity_mah
