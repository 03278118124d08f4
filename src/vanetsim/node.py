"""Per-vehicle state: radio flags, MAC, routing agent, ledger row, charge."""

import math

from .engine import SimulationError

US_PER_HOUR = 3_600_000_000

# The share of the capacity by which a battery horizon falls short. The
# float charge errs by a few units in the 16th digit at most, so a charge
# below capacity less this share cannot round up to it.
CHARGE_MARGIN = 1e-9


class Node:
    """A vehicle: its radio's state, its MAC and agent, and its battery.

    The charge is read off the integer mode times in the ledger row, so
    it does not depend on how the accrue_power calls split the time. It
    is read only from the depletion horizon on, the first us at which it
    could reach capacity at the largest current; there a charge at
    capacity switches the radio off, and any other sets the next horizon.
    """

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
        self._top_ma = max(self.currents)
        self._horizon_us = self._next_horizon(0, 0.0)

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

    @property
    def drawn_mah(self):
        """The charge of the mode times so far, at most the capacity."""
        c = self.counters
        tx_ma, rx_ma, idle_ma = self.currents
        drawn = (tx_ma * c.tx_time_us + rx_ma * c.rx_time_us
                 + idle_ma * c.idle_time_us) / US_PER_HOUR
        return min(drawn, self.capacity_mah)

    def _next_horizon(self, now, drawn):
        """The first us at which a charge of `drawn` mAh at `now` could
        reach capacity less CHARGE_MARGIN of it, drawn at the largest
        current; never if every current is 0."""
        if self._top_ma == 0:
            return math.inf
        left = self.capacity_mah * (1 - CHARGE_MARGIN) - drawn
        return now + int(left * US_PER_HOUR / self._top_ma)

    def accrue_power(self, now):
        """Add the elapsed interval to the mode in force before a change:
        tx while transmitting, else rx while receiving, else idle. From the
        horizon on, a charge that has reached capacity switches the radio
        off at this call; else the horizon moves on."""
        elapsed = now - self._last_account_us
        if elapsed > 0:
            counters = self.counters
            if self.transmitting:
                counters.tx_time_us += elapsed
            elif self.receiving:
                counters.rx_time_us += elapsed
            else:
                counters.idle_time_us += elapsed
            self._last_account_us = now
            if now >= self._horizon_us:
                drawn = self.drawn_mah
                if drawn < self.capacity_mah:
                    self._horizon_us = self._next_horizon(now, drawn)
                else:
                    self.radio_enabled = False
        elif elapsed < 0:
            raise SimulationError("power accounting moved backwards")

    def finalize(self, end_us):
        self.accrue_power(end_us)
        self.counters.residual_battery_mah = self.capacity_mah - self.drawn_mah

    def on_app_delivery(self, pkt):
        self.ledger.session[pkt.session_id].record_delivery(
            self.sim.now - pkt.sent_at)
