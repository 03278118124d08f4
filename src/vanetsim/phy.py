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
        self.nodes = [nodes[nid] for nid in sorted(nodes)]  # by node id
        # Brings node.pos up to date before a frame goes on the air and says
        # whether some node moved; a Simulation sets it to Mobility.sync when
        # some node can move. By default nobody moves.
        self.sync = lambda: False
        reach = reach_m(config)
        inside, outside = reach * (1 - REACH_BAND), reach * (1 + REACH_BAND)
        self._inside_sq = inside * inside  # inf, not OverflowError
        self._outside_sq = outside * outside
        self._in_reach = {}  # node id -> nodes in reach, in node-id order
        self._airtime = {}   # frame bits -> airtime_us

    def transmit(self, node, frame):
        """Put a frame on the air; returns the transmission end time."""
        if not node.radio_enabled:
            return None
        if node.transmitting:
            raise SimulationError("node %d already transmitting" % node.id)
        now = self.sim.now
        bits = frame.bits
        air = self._airtime.get(bits)
        if air is None:
            air = self._airtime[bits] = airtime_us(bits, self.config)
        end = now + air
        node.accrue_power(now)
        node.transmitting = True
        if node.receiving:
            node.rx_clean = False
        else:
            node.mac.on_medium_busy()
        if self.sim.trace is not None:
            self.sim.trace.append(
                ("tx", now, node.id, frame.kind, frame.src, frame.dst,
                 frame.frame_id, end))
        if self.sync():
            self._in_reach.clear()  # every receiver list is stale
        in_reach = self._in_reach.get(node.id)
        if in_reach is None:
            in_reach = self._in_reach[node.id] = self._reach_of(node)
        receivers = []
        for other in in_reach:
            if other.radio_enabled:
                other.accrue_power(now)
                receivers.append(other)
                if other.receiving or other.transmitting:
                    other.rx_clean = False
                    other.receiving += 1
                else:
                    other.rx_clean = True
                    other.receiving = 1
                    other.mac.on_medium_busy()
        self.sim.schedule_at(
            end, lambda: self._end_air(node, frame, now, receivers))
        return end

    def _reach_of(self, node):
        """Every other node that a frame from `node` reaches, by node id."""
        x, y = node.pos
        inside_sq, outside_sq = self._inside_sq, self._outside_sq
        out = []
        for other in self.nodes:
            ox, oy = other.pos
            dx = ox - x
            dx_sq = dx * dx
            if dx_sq > outside_sq:
                continue  # d_sq >= dx_sq: out of reach on x alone
            dy = oy - y
            if dx == 0.0 and dy == 0.0:
                continue  # co-located, the sender itself included
            d_sq = dx_sq + dy * dy
            if d_sq >= inside_sq and (
                    d_sq > outside_sq
                    or not received(math.hypot(dx, dy), self.config)):
                continue
            out.append(other)
        return out

    def _end_air(self, node, frame, start, receivers):
        """End the frame's receptions in the order they began, then its own."""
        now = self.sim.now
        trace = self.sim.trace
        for other in receivers:
            other.accrue_power(now)
            errored = not other.rx_clean
            if trace is not None:
                trace.append(("rx", start, other.id, frame.kind, frame.src,
                              frame.dst, frame.frame_id, now, errored))
            # The frame still holds the medium while the MAC handles it:
            # whatever the MAC does in this upcall must sense it as busy.
            if other.radio_enabled:
                other.mac.observe_frame(frame, errored)
            other.receiving -= 1
            if not (other.transmitting or other.receiving):
                other.mac.on_medium_idle()
        node.accrue_power(now)
        node.transmitting = False
        if not node.receiving:
            node.mac.on_medium_idle()
        node.mac.on_tx_end(frame)
