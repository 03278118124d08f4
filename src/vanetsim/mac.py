"""IEEE 802.11 DCF: CSMA/CA, binary exponential backoff, RTS/CTS, NAV."""

from collections import deque
from dataclasses import dataclass

from .engine import SimulationError
from .phy import airtime_us

BROADCAST = -1

RTS = "RTS"
CTS = "CTS"
DATA = "DATA"
ACK = "ACK"

# DCF phases
IDLE = "IDLE"
CONTEND = "CONTEND"
WAIT_CTS = "WAIT_CTS"
WAIT_ACK = "WAIT_ACK"

# Frame sizes in bytes (MAC header + FCS for DATA)
DATA_HEADER_BYTES = 34
RTS_BYTES = 20
CTS_BYTES = 14
ACK_BYTES = 14


@dataclass
class MacFrame:
    kind: str
    src: int
    dst: int
    duration_us: int = 0
    header_bytes: int = 0
    payload: object = None
    payload_bytes: int = 0
    frame_id: int = 0

    def __post_init__(self):
        if self.kind in (ACK, CTS) and self.payload is not None:
            raise SimulationError("%s frames carry no payload" % self.kind)
        if self.dst == BROADCAST and self.kind != DATA:
            raise SimulationError("broadcast only legal on DATA frames")
        if self.duration_us < 0:
            raise SimulationError("negative duration field")

    @property
    def bits(self):
        return (self.header_bytes + self.payload_bytes) * 8


class PendingFrame:
    """A network packet waiting for (or undergoing) MAC service."""

    __slots__ = ("dst", "packet", "payload_bytes", "frame_id")

    def __init__(self, dst, packet, payload_bytes, frame_id):
        self.dst = dst
        self.packet = packet
        self.payload_bytes = payload_bytes
        self.frame_id = frame_id


class DcfMac:
    """Per-node DCF state machine.

    Unicast follows RTS-CTS-DATA-ACK (or DATA-ACK below the RTS threshold)
    with a 7-retry limit and contention-window doubling; broadcast is a
    single contention-gated transmission with no control frames.
    """

    def __init__(self, sim, node, channel, config, rng, counters):
        self.sim = sim
        self.node = node
        self.channel = channel
        self.config = config
        self.rng = rng
        self.counters = counters
        self.upper = None  # routing agent, set by the node wiring

        self.queue = deque()
        self.phase = IDLE
        self.cw = config.cw_min
        self.retry = 0
        self.backoff_slots = None
        self.nav_until = 0
        self.current = None

        self._contending = False
        self._difs_timer = None
        self._backoff_timer = None
        self._backoff_started = None
        self._nav_timer = None
        self._timeout_timer = None
        self._post_tx = False
        self._seen_ids = set()
        self._seen_order = deque()
        self.cw_log = None  # populated only when tracing

        self._cts_air = airtime_us(CTS_BYTES * 8, config)
        self._ack_air = airtime_us(ACK_BYTES * 8, config)

    # -- upper interface ---------------------------------------------------

    def enqueue(self, dst, packet, payload_bytes):
        """Admit a network packet for transmission (FIFO, bounded queue)."""
        self.counters.mac_packets_from_network += 1
        if len(self.queue) >= self.config.queue_depth:
            self.counters.queue_drops += 1
            return
        self.queue.append(
            PendingFrame(dst, packet, payload_bytes, self.sim.next_frame_id()))
        self._serve_next()

    # -- medium notifications (from the channel) ---------------------------

    def on_medium_busy(self):
        self._interrupt_contention()

    def on_medium_idle(self):
        if self._contending:
            self._wait_idle()

    def on_tx_end(self, frame):
        """One of this node's frames left the air; a broadcast is done."""
        if frame.dst == BROADCAST:
            self._post_tx = True
            self.phase = IDLE
            self.current = None
            self._serve_next()

    # -- contention --------------------------------------------------------

    def _serve_next(self):
        if self.current is not None or not self.queue:
            return
        self.current = self.queue.popleft()
        self.retry = 0
        force = self._post_tx or self.current.dst == BROADCAST
        self._start_access(force_backoff=force)

    def _start_access(self, force_backoff):
        self._contending = True
        self.phase = CONTEND
        if force_backoff or self._medium_busy():
            self._ensure_backoff_drawn()
        self._wait_idle()

    def _medium_busy(self):
        return (self.channel.carrier_busy(self.node.id)
                or self.sim.now < self.nav_until)

    def _ensure_backoff_drawn(self):
        if self.backoff_slots is None:
            self.backoff_slots = self.rng.randint(0, self.cw)

    def _interrupt_contention(self):
        if self._difs_timer is not None:
            self.sim.cancel(self._difs_timer)
            self._difs_timer = None
            if self._contending:
                self._ensure_backoff_drawn()  # post-busy rule
        if self._backoff_timer is not None:
            elapsed = ((self.sim.now - self._backoff_started)
                       // self.config.slot_us)
            self.backoff_slots -= elapsed
            self.sim.cancel(self._backoff_timer)
            self._backoff_timer = None

    def _wait_idle(self):
        if not self._contending:
            return
        if self.channel.carrier_busy(self.node.id):
            return  # resumed by on_medium_idle
        if self.sim.now < self.nav_until:
            if self._nav_timer is None:
                self._nav_timer = self.sim.schedule_at(
                    self.nav_until, self._nav_expired)
            return
        if self._difs_timer is None and self._backoff_timer is None:
            self._difs_timer = self.sim.schedule_after(
                self.config.difs_us, self._difs_done)

    def _nav_expired(self):
        self._nav_timer = None
        if self._contending:
            self._wait_idle()

    def _nav_changed(self):
        if self._nav_timer is not None:
            self.sim.cancel(self._nav_timer)
            self._nav_timer = None
        if self._contending:
            self._interrupt_contention()
            self._wait_idle()

    def _difs_done(self):
        self._difs_timer = None
        if self.backoff_slots:
            self._backoff_started = self.sim.now
            self._backoff_timer = self.sim.schedule_after(
                self.backoff_slots * self.config.slot_us, self._backoff_done)
        else:
            self._transmit_attempt()

    def _backoff_done(self):
        self._backoff_timer = None
        self.backoff_slots = 0
        self._transmit_attempt()

    # -- transmission ------------------------------------------------------

    def _transmit_attempt(self):
        if self.sim.now < self.nav_until:
            raise SimulationError("transmission attempted under NAV")
        self._contending = False
        self.backoff_slots = None
        cur = self.current
        if cur.dst == BROADCAST:
            frame = MacFrame(DATA, self.node.id, BROADCAST, 0,
                             DATA_HEADER_BYTES, cur.packet,
                             cur.payload_bytes, cur.frame_id)
            end = self.channel.transmit(self.node, frame)
            if end is None:
                self._drop_current(notify=False)
                return
            self.counters.dcf_broadcasts_sent += 1
            return
        data_air = airtime_us(
            (DATA_HEADER_BYTES + cur.payload_bytes) * 8, self.config)
        if cur.payload_bytes >= self.config.rts_threshold_bytes:
            duration = (3 * self.config.sifs_us + self._cts_air + data_air
                        + self._ack_air)
            frame = MacFrame(RTS, self.node.id, cur.dst, duration,
                             RTS_BYTES, None, 0, cur.frame_id)
            end = self.channel.transmit(self.node, frame)
            if end is None:
                self._drop_current(notify=False)
                return
            self.phase = WAIT_CTS
            self._timeout_timer = self.sim.schedule_at(
                end + self.config.sifs_us + self._cts_air
                + self.config.slot_us, self._exchange_timeout)
        else:
            self._send_data_stage()

    def _send_data_stage(self):
        cur = self.current
        if cur is None:
            return
        data_air = airtime_us(
            (DATA_HEADER_BYTES + cur.payload_bytes) * 8, self.config)
        duration = self.config.sifs_us + self._ack_air
        frame = MacFrame(DATA, self.node.id, cur.dst, duration,
                         DATA_HEADER_BYTES, cur.packet,
                         cur.payload_bytes, cur.frame_id)
        end = self.channel.transmit(self.node, frame)
        if end is None:
            self._drop_current(notify=False)
            return
        self.phase = WAIT_ACK
        self._timeout_timer = self.sim.schedule_at(
            end + self.config.sifs_us + self._ack_air + self.config.slot_us,
            self._exchange_timeout)

    def _exchange_timeout(self):
        self._timeout_timer = None
        self.retry += 1
        self.cw = min(2 * (self.cw + 1) - 1, self.config.cw_max)
        if self.cw_log is not None:
            self.cw_log.append(self.cw)
        if self.retry > self.config.retry_limit:
            self.counters.mac_unicast_drops += 1
            self._drop_current(notify=True)
        else:
            self._start_access(force_backoff=True)

    def _drop_current(self, notify):
        failed = self.current
        self.current = None
        self.phase = IDLE
        self.cw = self.config.cw_min
        self.retry = 0
        self._post_tx = True
        if notify and self.upper is not None:
            self.upper.on_unicast_failure(failed.dst, failed.packet)
        self._serve_next()

    def _exchange_success(self):
        if self._timeout_timer is not None:
            self.sim.cancel(self._timeout_timer)
            self._timeout_timer = None
        done = self.current
        self.current = None
        self.phase = IDLE
        self.cw = self.config.cw_min
        if self.cw_log is not None:
            self.cw_log.append(self.cw)
        self.retry = 0
        self._post_tx = True
        if self.upper is not None:
            self.upper.on_unicast_success(done.dst, done.packet)
        self._serve_next()

    # -- reception ---------------------------------------------------------

    def observe_frame(self, frame, errored):
        if errored:
            self.counters.signals_received_with_errors += 1
            return
        self.counters.signals_received_without_errors += 1
        now = self.sim.now
        if frame.dst == BROADCAST:
            if frame.kind == DATA:
                self.counters.dcf_broadcasts_received += 1
                if self.upper is not None:
                    self.upper.on_receive(frame.payload, frame.src)
            return
        if frame.dst != self.node.id:
            if frame.kind in (RTS, CTS):
                until = now + frame.duration_us
                if until > self.nav_until:
                    self.nav_until = until
                    self._nav_changed()
            return
        if frame.kind == RTS:
            if now >= self.nav_until:
                cts = MacFrame(CTS, self.node.id, frame.src,
                               max(frame.duration_us - self.config.sifs_us
                                   - self._cts_air, 0),
                               CTS_BYTES)
                self._schedule_response(cts)
        elif frame.kind == CTS:
            if self.phase == WAIT_CTS and self.current is not None \
                    and frame.src == self.current.dst:
                self.sim.cancel(self._timeout_timer)
                self._timeout_timer = None
                self.sim.schedule_after(self.config.sifs_us,
                                        self._send_data_stage)
        elif frame.kind == DATA:
            ack = MacFrame(ACK, self.node.id, frame.src, 0, ACK_BYTES)
            self._schedule_response(ack)
            if frame.frame_id not in self._seen_ids:
                self._remember(frame.frame_id)
                if self.upper is not None:
                    self.upper.on_receive(frame.payload, frame.src)
        elif frame.kind == ACK:
            if self.phase == WAIT_ACK and self.current is not None \
                    and frame.src == self.current.dst:
                self._exchange_success()

    def _schedule_response(self, frame):
        self.sim.schedule_after(self.config.sifs_us,
                                lambda: self._send_response(frame))

    def _send_response(self, frame):
        # SIFS responses skip contention but still honour NAV and half-duplex
        if self.node.transmitting or self.sim.now < self.nav_until:
            return
        if not self.node.radio_enabled:
            return
        self.channel.transmit(self.node, frame)

    def _remember(self, frame_id):
        self._seen_ids.add(frame_id)
        self._seen_order.append(frame_id)
        if len(self._seen_order) > 256:
            self._seen_ids.discard(self._seen_order.popleft())
