"""Radio channel: two-ray path loss, airtime, collisions, carrier sense."""

import math

from .engine import SimulationError

SPEED_OF_LIGHT = 299_792_458.0

# Distances below this are clamped for the path-loss formula only; the
# range gate still uses the true distance.
MIN_PATHLOSS_DISTANCE = 1.0

# Pairs this close (relative) to the reach radius take the exact range and
# power test, so rounding in the radius can never decide a pair.
REACH_BAND = 1e-9

# Unit (0 dBi) antennas at both ends: 10*log10(1*1) is exactly 0.0.
ANTENNA_GAINS_DB = 0.0

# IEEE 802.11-1999 DSSS long PLCP preamble and header, in us.
PHY_OVERHEAD_US = 192


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
    return PHY_OVERHEAD_US + math.ceil(
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


def received(d, config):
    """The exact reception test for a pair d > 0 metres apart."""
    return (d <= config.max_range_m
            and received_power_dbm(d, config) >= config.rx_threshold_dbm)


def reach_m(config):
    """Radius within which a frame is received: the range gate, or where the
    received power falls to the threshold if that comes first.

    Received power falls monotonically with distance, so both tests reduce
    to this one radius. The threshold distance is the free-space or the
    two-ray formula solved for the threshold, in logs so that no power of
    ten can overflow; 0 if even the clamped power at MIN_PATHLOSS_DISTANCE
    is below the threshold.
    """
    if received_power_dbm(MIN_PATHLOSS_DISTANCE, config) \
            < config.rx_threshold_dbm:
        return 0.0
    margin_db = config.tx_power_dbm + ANTENNA_GAINS_DB \
        - config.rx_threshold_dbm
    log_d = math.log10(wavelength_m(config) / (4 * math.pi)) + margin_db / 20
    if log_d >= math.log10(crossover_m(config)):
        log_d = math.log10(config.antenna_height_m) + margin_db / 40
    if log_d >= math.log10(config.max_range_m):
        return config.max_range_m
    return max(10 ** log_d, MIN_PATHLOSS_DISTANCE)


class Reception:
    __slots__ = ("frame", "start", "errored")

    def __init__(self, frame, start):
        self.frame = frame
        self.start = start
        self.errored = False


class Channel:
    """Shared medium: starts and ends receptions, flags overlaps as errors.

    It tells each node's MAC when the medium turns busy or idle there, and
    when one of the node's own frames leaves the air.

    Collision model is overlap => both errored, no capture. A node is
    half-duplex: its own transmission corrupts anything it was receiving,
    and receptions starting mid-transmission arrive errored.
    """

    def __init__(self, sim, config, nodes):
        self.sim = sim
        self.config = config
        self.nodes = nodes  # id -> Node
        # Brings node.pos up to date before a frame goes on the air; a
        # Simulation sets it to Mobility.sync. By default nobody moves.
        self.sync = lambda: None
        reach = reach_m(config)
        inside, outside = reach * (1 - REACH_BAND), reach * (1 + REACH_BAND)
        self._inside_sq = inside * inside  # inf, not OverflowError
        self._outside_sq = outside * outside
        self._in_reach = {}  # node id -> nodes in reach, in node-id order

    def transmit(self, node, frame):
        """Put a frame on the air; returns the transmission end time."""
        if not node.radio_enabled:
            return None
        if node.transmitting:
            raise SimulationError("node %d already transmitting" % node.id)
        now = self.sim.now
        end = now + airtime_us(frame.bits, self.config)
        node.accrue_power(now)
        node.transmitting = True
        for rec in node.active_rx:
            rec.errored = True
        if not node.active_rx:
            node.mac.on_medium_busy()
        if self.sim.trace is not None:
            self.sim.trace.append(
                ("tx", now, node.id, frame.kind, frame.src, frame.dst,
                 frame.frame_id, end))
        self.sync()
        in_reach = self._in_reach.get(node.id)
        if in_reach is None:
            in_reach = self._in_reach[node.id] = self._reach_of(node)
        receptions = []
        for other in in_reach:
            if other.radio_enabled:
                rec = Reception(frame, now)
                self._begin_reception(other, rec)
                receptions.append((other, rec))
        self.sim.schedule_at(
            end, lambda: self._end_air(node, frame, receptions))
        return end

    def moved(self):
        """Node positions changed: every receiver list is stale."""
        self._in_reach.clear()

    def _reach_of(self, node):
        """Every other node that a frame from `node` reaches, by node id."""
        x, y = node.pos
        out = []
        for nid in sorted(self.nodes):
            other = self.nodes[nid]
            dx = other.pos[0] - x
            dy = other.pos[1] - y
            if dx == 0.0 and dy == 0.0:
                continue  # co-located, the sender itself included
            d_sq = dx * dx + dy * dy
            if d_sq >= self._inside_sq and (
                    d_sq > self._outside_sq
                    or not received(math.hypot(dx, dy), self.config)):
                continue
            out.append(other)
        return out

    def _begin_reception(self, node, rec):
        node.accrue_power(self.sim.now)
        was_busy = node.transmitting or bool(node.active_rx)
        if was_busy:
            rec.errored = True
            for other in node.active_rx:
                other.errored = True
        node.active_rx.append(rec)
        if not was_busy:
            node.mac.on_medium_busy()

    def _end_air(self, node, frame, receptions):
        """End the frame's receptions in the order they began, then its own."""
        for other, rec in receptions:
            self._end_reception(other, rec)
        node.accrue_power(self.sim.now)
        node.transmitting = False
        if not node.active_rx:
            node.mac.on_medium_idle()
        node.mac.on_tx_end(frame)

    def _end_reception(self, node, rec):
        node.accrue_power(self.sim.now)
        if self.sim.trace is not None:
            self.sim.trace.append(
                ("rx", rec.start, node.id, rec.frame.kind, rec.frame.src,
                 rec.frame.dst, rec.frame.frame_id, self.sim.now, rec.errored))
        # The frame still holds the medium while the MAC handles it: whatever
        # the MAC does in this upcall must sense it as busy.
        if node.radio_enabled:
            node.mac.observe_frame(rec.frame, rec.errored)
        node.active_rx.remove(rec)
        if not (node.transmitting or node.active_rx):
            node.mac.on_medium_idle()
