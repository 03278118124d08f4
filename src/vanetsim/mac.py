"""IEEE 802.11 DCF: CSMA/CA with the DIFS and the backoff slots on one timer,
binary exponential backoff, RTS/CTS, and the NAV that RTS and CTS set (a
DATA frame carries no duration)."""

from collections import Counter, deque
from dataclasses import dataclass

from .engine import SimulationError
from .phy import airtime_us

BROADCAST = -1

RTS = "RTS"
CTS = "CTS"
DATA = "DATA"
ACK = "ACK"

# DCF phases, besides the kind of the reply awaited (CTS or ACK)
IDLE = "IDLE"
CONTEND = "CONTEND"

# IEEE 802.11-1999 DSSS timing (us) and contention window bounds
SLOT_US = 20
SIFS_US = 10
DIFS_US = SIFS_US + 2 * SLOT_US
CW_MIN = 31
CW_MAX = 1023

RETRY_LIMIT = 7  # attempts after the first before a unicast is dropped
QUEUE_DEPTH = 50  # frames waiting behind the one in service

# Frame sizes in bytes (MAC header + FCS for DATA)
DATA_HEADER_BYTES = 34
RTS_BYTES = 20
CTS_BYTES = 14
ACK_BYTES = 14


@dataclass(slots=True)
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


class DcfMac:
    """Per-node DCF state machine.

    Unicast follows RTS-CTS-DATA-ACK (or DATA-ACK below the RTS threshold)
    with a 7-retry limit and contention-window doubling; broadcast is a
    single contention-gated transmission with no control frames.
    """

    def __init__(self, sim, node, channel, config, rng):
        self.sim = sim
        self.node = node
        self.channel = channel
        self.config = config
        self.rng = rng
        self.counters = node.counters
        # frames the radio refused, which no metrics.csv column counts
        self.stats = Counter()
        self.upper = None  # routing agent, set before the first event

        self.queue = deque()
        self.phase = IDLE
        self.cw = CW_MIN
        self.retry = 0
        self.backoff_slots = None
        self.nav_until = 0
        self.current = None  # the DATA frame in service

        self._attempt = None  # the pending _transmit_attempt event
        self._rts = None  # the last RTS sent
        self._countdown_from = None  # when its DIFS ends and its slots start
        self._timeout_timer = None
        self._post_tx = False
        self._last_id = {}  # sender -> its last DATA frame id received

        self._cts_air = airtime_us(CTS_BYTES * 8, config)
        self._ack_air = airtime_us(ACK_BYTES * 8, config)

    # -- upper interface ---------------------------------------------------

    def enqueue(self, dst, packet, payload_bytes):
        """Admit a network packet for transmission (FIFO, bounded queue)."""
        self.counters.mac_packets_from_network += 1
        if len(self.queue) >= QUEUE_DEPTH:
            self.counters.queue_drops += 1
            return
        self.queue.append(MacFrame(DATA, self.node.id, dst, 0,
                                   DATA_HEADER_BYTES, packet, payload_bytes,
                                   self.sim.next_frame_id()))
        self._serve_next()

    # -- medium notifications (from the channel) ---------------------------

    def on_medium_busy(self):
        """Carrier sensed: stop the wait. A busy edge by the end of the DIFS
        owes a backoff (the post-busy rule); a later one leaves owed the
        whole slots not yet counted."""
        if self._attempt is None:
            return
        self.sim.cancel(self._attempt)
        self._attempt = None
        now = self.sim.now
        if now <= self._countdown_from:
            self._ensure_backoff_drawn()
        else:
            self.backoff_slots -= (now - self._countdown_from) // SLOT_US

    def on_medium_idle(self):
        """The carrier cleared: contend again on one timer, a DIFS that
        counts from when the NAV no longer holds the medium either, then
        the backoff slots."""
        if self.phase != CONTEND:
            return
        now = self.sim.now
        nav = self.nav_until
        self._countdown_from = (nav if nav > now else now) + DIFS_US
        self._attempt = self.sim.schedule_at(
            self._countdown_from + (self.backoff_slots or 0) * SLOT_US,
            self._transmit_attempt)

    def on_tx_end(self, frame):
        """One of this node's frames left the air; a broadcast is done."""
        if frame.dst == BROADCAST:
            self._end_service()

    # -- contention --------------------------------------------------------

    def _serve_next(self):
        if self.current is not None or not self.queue:
            return
        self.current = self.queue.popleft()
        force = self._post_tx or self.current.dst == BROADCAST
        self._start_access(force_backoff=force)

    def _start_access(self, force_backoff):
        self.phase = CONTEND
        busy = self.node.carrier_busy
        if force_backoff or busy or self.sim.now < self.nav_until:
            self._ensure_backoff_drawn()
        if not busy:  # else the channel calls when the carrier clears
            self.on_medium_idle()

    def _ensure_backoff_drawn(self):
        if self.backoff_slots is None:
            self.backoff_slots = self.rng.randrange(self.cw + 1)

    # -- transmission ------------------------------------------------------

    def _transmit_attempt(self):
        if self.sim.now < self.nav_until:
            raise SimulationError("transmission attempted under NAV")
        self.phase = IDLE
        self.backoff_slots = None
        self._attempt = None
        cur = self.current
        if (cur.dst == BROADCAST
                or cur.payload_bytes < self.config.rts_threshold_bytes):
            self._send(cur, ACK, self._ack_air)
            return
        rts = self._rts
        if rts is None or rts.frame_id != cur.frame_id:  # built once a frame
            duration = (3 * SIFS_US + self._cts_air
                        + airtime_us(cur.bits, self.config) + self._ack_air)
            rts = self._rts = MacFrame(RTS, self.node.id, cur.dst, duration,
                                       RTS_BYTES, None, 0, cur.frame_id)
        self._send(rts, CTS, self._cts_air)

    def _send(self, frame, reply, reply_air):
        """Send a stage of the frame in service and await `reply` (none for
        a broadcast): the phase names it, and its airtime bounds the wait."""
        end = self.channel.transmit(self.node, frame)
        if end is None:
            self.stats["radio_refused"] += 1
            self._end_service()
            return
        if frame.dst == BROADCAST:
            self.counters.dcf_broadcasts_sent += 1
            return  # served when it leaves the air (on_tx_end)
        self.phase = reply
        self._timeout_timer = self.sim.schedule_at(
            end + SIFS_US + reply_air + SLOT_US, self._exchange_timeout)

    def _exchange_timeout(self):
        self.retry += 1
        self.cw = min(2 * (self.cw + 1) - 1, CW_MAX)
        if self.retry > RETRY_LIMIT:
            self.counters.mac_unicast_drops += 1
            self._end_service(delivered=False)
        else:
            self._start_access(force_backoff=True)

    def _end_service(self, delivered=None):
        """Release the frame in service and start on the next one.

        `delivered` is True or False for a unicast that was acknowledged or
        ran out of retries, and tells the agent which; it is None for a
        broadcast and for a frame the radio could not send.
        """
        done = self.current
        self.current = None
        self.phase = IDLE
        self.cw = CW_MIN
        self.retry = 0
        self._post_tx = True
        if delivered is not None:
            if delivered:
                self.upper.on_unicast_success(done.dst, done.payload)
            else:
                self.upper.on_unicast_failure(done.dst, done.payload)
        self._serve_next()

    # -- reception ---------------------------------------------------------

    def observe_frame(self, frame, errored):
        counters = self.counters
        if errored:
            counters.signals_received_with_errors += 1
            return
        counters.signals_received_without_errors += 1
        dst = frame.dst
        if dst != self.node.id:
            if dst == BROADCAST:  # only DATA frames are broadcast
                counters.dcf_broadcasts_received += 1
                self.upper.on_receive(frame.payload, frame.src)
            elif frame.kind in (RTS, CTS):
                # The frame still holds the carrier, so no attempt is pending;
                # the idle edge at its end counts from the new NAV end.
                until = self.sim.now + frame.duration_us
                if until > self.nav_until:
                    self.nav_until = until
            return
        if frame.kind == RTS:
            if self.sim.now >= self.nav_until:
                cts = MacFrame(CTS, self.node.id, frame.src,
                               max(frame.duration_us - SIFS_US
                                   - self._cts_air, 0),
                               CTS_BYTES)
                self._respond(cts)
        elif frame.kind == DATA:
            self._respond(MacFrame(ACK, self.node.id, frame.src, 0, ACK_BYTES))
            # a sender repeats only its frame in service (9.2.9)
            if self._last_id.get(frame.src) != frame.frame_id:
                self._last_id[frame.src] = frame.frame_id
                self.upper.on_receive(frame.payload, frame.src)
        elif self.phase == frame.kind and frame.src == self.current.dst:
            self.sim.cancel(self._timeout_timer)
            if frame.kind == CTS:
                self.sim.schedule_after(SIFS_US, lambda: self._send(
                    self.current, ACK, self._ack_air))
                return
            self._end_service(delivered=True)

    def _respond(self, frame):
        # A SIFS later, whatever the medium (IEEE 802.11-1999 9.2.8); a CTS
        # waited on the NAV when the RTS came. A radio that is off sends none.
        self.sim.schedule_after(
            SIFS_US, lambda: self.channel.transmit(self.node, frame))
