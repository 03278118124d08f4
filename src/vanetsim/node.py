"""Per-vehicle state: radio flags, MAC, routing agent, battery timeline."""


class Node:
    def __init__(self, sim, node_id, battery, ledger):
        self.sim = sim
        self.id = node_id
        self.pos = (0.0, 0.0)
        self.battery = battery
        self.ledger = ledger
        self.mac = None
        self.agent = None

        self.radio_enabled = True
        self.transmitting = False
        self.active_rx = []
        self.busy_count = 0
        self._last_account_us = 0

    def power_mode(self):
        if self.transmitting:
            return "tx"
        if self.active_rx:
            return "rx"
        return "idle"

    def accrue_power(self, now):
        """Charge the elapsed interval to the mode in force before a change."""
        elapsed = now - self._last_account_us
        if elapsed > 0:
            self.battery.account(self.power_mode(), elapsed)
            self._last_account_us = now
            if self.battery.dead and self.radio_enabled:
                self.radio_enabled = False
        elif elapsed < 0:
            raise RuntimeError("power accounting moved backwards")

    def finalize(self, end_us):
        self.accrue_power(end_us)
        counters = self.ledger.node[self.id]
        counters.residual_battery_mah = self.battery.residual_mah
        counters.tx_time_us = self.battery.mode_time_us["tx"]
        counters.rx_time_us = self.battery.mode_time_us["rx"]
        counters.idle_time_us = self.battery.mode_time_us["idle"]

    def on_app_delivery(self, pkt):
        if pkt.session_id is not None:
            session = self.ledger.session.get(pkt.session_id)
            if session is not None:
                session.record_delivery(self.sim.now - pkt.sent_at)
