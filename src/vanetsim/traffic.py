"""CBR application traffic and the per-node battery model."""

from dataclasses import dataclass

from .engine import us
from .routing.base import Packet

US_PER_HOUR = 3_600_000_000


@dataclass
class CbrSession:
    session_id: int
    src: int
    dst: int
    payload_bytes: int = 512
    interval_us: int = 250_000
    start_us: int = 0
    stop_us: int = us(3000)

    def __post_init__(self):
        if self.src == self.dst:
            raise ValueError("CBR session src and dst must differ")
        if self.interval_us <= 0:
            raise ValueError("CBR interval must be positive")


class CbrSource:
    """Schedules one payload per interval inside [start, stop)."""

    def __init__(self, sim, session, agent, ledger):
        self.sim = sim
        self.session = session
        self.agent = agent
        self.ledger = ledger
        self.seq = 0

    def start(self):
        if self.session.stop_us <= self.session.start_us:
            return
        self.sim.schedule_at(self.session.start_us, self._tick,
                             kind="app-send", target=self.session.src)

    def _tick(self):
        s = self.session
        if self.sim.now >= s.stop_us:
            return
        self.seq += 1
        pkt = Packet(src=s.src, dst=s.dst, size_bytes=s.payload_bytes,
                     session_id=s.session_id, seq=self.seq,
                     sent_at=self.sim.now)
        self.ledger.session[s.session_id].app_sent += 1
        self.agent.handle_app_packet(pkt)
        nxt = self.sim.now + s.interval_us
        if nxt < s.stop_us:
            self.sim.schedule_at(nxt, self._tick, kind="app-send",
                                 target=s.src)


class Battery:
    """Charge bookkeeping: drawn += mode current x duration.

    Charge is counted in mAh, so the supply voltage does not enter it;
    voltage_v is accepted and not kept.
    """

    MODES = ("tx", "rx", "idle")

    def __init__(self, capacity_mah=1500.0, tx_ma=280.0, rx_ma=180.0,
                 idle_ma=1.0, voltage_v=3.0):
        self.capacity_mah = capacity_mah
        self.currents = {"tx": tx_ma, "rx": rx_ma, "idle": idle_ma}
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
