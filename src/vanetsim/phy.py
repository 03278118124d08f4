"""Radio channel: two-ray path loss, airtime, collisions, carrier sense."""

import math

from .engine import SimulationError

SPEED_OF_LIGHT = 299_792_458.0

# Distances below this are clamped for the path-loss formula only; the
# range gate still uses the true distance.
MIN_PATHLOSS_DISTANCE = 1.0

# Unit (0 dBi) antennas at both ends: 10*log10(1*1) is exactly 0.0.
ANTENNA_GAINS_DB = 0.0


def wavelength_m(config):
    return SPEED_OF_LIGHT / config.frequency_hz


def crossover_m(config):
    """Distance where the two-ray ground model takes over from free space."""
    ht = hr = config.antenna_height_m
    return 4.0 * math.pi * ht * hr / wavelength_m(config)


def airtime_us(frame_bits, config):
    """PHY overhead plus payload time at the configured bitrate, ceil to us."""
    if frame_bits <= 0:
        raise SimulationError("airtime of empty frame")
    return config.phy_overhead_us + math.ceil(
        frame_bits * 1_000_000 / config.bitrate_bps)


def received_power_dbm(d, config):
    """Free-space loss below the crossover distance, two-ray ground beyond."""
    if d <= 0:
        raise SimulationError("received_power at non-positive distance")
    d = max(d, MIN_PATHLOSS_DISTANCE)
    pt = config.tx_power_dbm
    ht = hr = config.antenna_height_m
    if d < crossover_m(config):
        loss = 20 * math.log10(4 * math.pi * d / wavelength_m(config))
        return pt + ANTENNA_GAINS_DB - loss
    return (pt + ANTENNA_GAINS_DB + 20 * math.log10(ht * hr)
            - 40 * math.log10(d))


class Reception:
    __slots__ = ("frame", "sender", "start", "end", "errored")

    def __init__(self, frame, sender, start, end):
        self.frame = frame
        self.sender = sender
        self.start = start
        self.end = end
        self.errored = False


class Channel:
    """Shared medium: schedules receptions, flags overlaps as errors.

    Collision model is overlap => both errored, no capture. A node is
    half-duplex: its own transmission corrupts anything it was receiving,
    and receptions starting mid-transmission arrive errored.
    """

    def __init__(self, sim, config, nodes):
        self.sim = sim
        self.config = config
        self.nodes = nodes  # id -> Node
        self._node_order = None

    def carrier_busy(self, node_id):
        return self.nodes[node_id].busy_count > 0

    def transmit(self, node, frame):
        """Put a frame on the air; returns the transmission end time."""
        if not node.radio_enabled:
            return None
        if node.transmitting:
            raise SimulationError("node %d already transmitting" % node.id)
        now = self.sim.now
        air = airtime_us(frame.bits, self.config)
        end = now + air
        node.accrue_power(now)
        node.transmitting = True
        for rec in node.active_rx:
            rec.errored = True
        self._bump_busy(node, 1)
        if self.sim.trace is not None:
            self.sim.trace.append(
                ("tx", now, node.id, frame.kind, frame.src, frame.dst,
                 frame.frame_id, end))
        if self._node_order is None:
            self._node_order = sorted(self.nodes)
        for nid in self._node_order:
            other = self.nodes[nid]
            if other is node or not other.radio_enabled:
                continue
            dx = other.pos[0] - node.pos[0]
            dy = other.pos[1] - node.pos[1]
            d = math.hypot(dx, dy)
            if d > self.config.max_range_m or d == 0.0:
                continue
            if received_power_dbm(d, self.config) < self.config.rx_threshold_dbm:
                continue
            self._begin_reception(other, Reception(frame, node.id, now, end))
        self.sim.schedule_at(end, lambda: self._end_transmit(node),
                             kind="tx-end", target=node.id)
        return end

    def _begin_reception(self, node, rec):
        node.accrue_power(self.sim.now)
        if node.transmitting:
            rec.errored = True
        if node.active_rx:
            rec.errored = True
            for other in node.active_rx:
                other.errored = True
        node.active_rx.append(rec)
        self._bump_busy(node, 1)
        self.sim.schedule_at(rec.end, lambda: self._end_reception(node, rec),
                             kind="frame-arrival", target=node.id)

    def _end_transmit(self, node):
        node.accrue_power(self.sim.now)
        node.transmitting = False
        self._bump_busy(node, -1)

    def _end_reception(self, node, rec):
        node.accrue_power(self.sim.now)
        node.active_rx.remove(rec)
        if self.sim.trace is not None:
            self.sim.trace.append(
                ("rx", rec.start, node.id, rec.frame.kind, rec.frame.src,
                 rec.frame.dst, rec.frame.frame_id, rec.end, rec.errored))
        if node.radio_enabled:
            node.mac.observe_frame(rec.frame, rec.errored)
        self._bump_busy(node, -1)

    def _bump_busy(self, node, delta):
        before = node.busy_count
        node.busy_count = before + delta
        if node.busy_count < 0:
            raise SimulationError("negative busy count at node %d" % node.id)
        if before == 0 and node.busy_count > 0:
            node.mac.on_medium_busy()
        elif before > 0 and node.busy_count == 0:
            node.mac.on_medium_idle()
