"""Per-vehicle state: radio flags, MAC, routing agent, ledger row, charge."""

from .engine import SimulationError

US_PER_HOUR = 3_600_000_000


class Node:
    def __init__(self, sim, node_id, config, ledger):
        self.sim = sim
        self.id = node_id
        self.pos = (0.0, 0.0)
        self.ledger = ledger
        self.counters = ledger.node[node_id]
        self.mac = None
        self.agent = None

        # Charge is counted in mAh, so the supply voltage does not enter it.
        self.capacity_mah = config.capacity_mah
        self.currents = (config.tx_ma, config.rx_ma, config.idle_ma)
        self.drawn_mah = 0.0

        self.radio_enabled = True
        self.transmitting = False
        self.receiving = 0  # receptions on the air here
        # While receiving: whether the medium has held one frame alone since
        # it last turned busy here. Any overlap errors every reception on
        # the air, so they all end errored unless this is still True.
        self.rx_clean = False
        self._last_account_us = 0

    @property
    def carrier_busy(self):
        """The medium is busy here while this node transmits or receives."""
        return self.transmitting or self.receiving > 0

    def accrue_power(self, now):
        """Charge the elapsed interval to the mode in force before a change:
        tx while transmitting, else rx while receiving, else idle."""
        elapsed = now - self._last_account_us
        if elapsed > 0:
            counters = self.counters
            if self.transmitting:
                counters.tx_time_us += elapsed
                current = self.currents[0]
            elif self.receiving:
                counters.rx_time_us += elapsed
                current = self.currents[1]
            else:
                counters.idle_time_us += elapsed
                current = self.currents[2]
            self._last_account_us = now
            drawn = self.drawn_mah + current * elapsed / US_PER_HOUR
            if drawn >= self.capacity_mah:
                drawn = self.capacity_mah
                self.radio_enabled = False
            self.drawn_mah = drawn
        elif elapsed < 0:
            raise SimulationError("power accounting moved backwards")

    def finalize(self, end_us):
        self.accrue_power(end_us)
        self.counters.residual_battery_mah = self.capacity_mah - self.drawn_mah

    def on_app_delivery(self, pkt):
        self.ledger.session[pkt.session_id].record_delivery(
            self.sim.now - pkt.sent_at)
