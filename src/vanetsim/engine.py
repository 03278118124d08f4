"""Deterministic discrete-event core: clock, event queue, seeded RNG streams."""

import hashlib
import heapq
import itertools
import random

US_PER_S = 1_000_000
US_PER_MS = 1_000


def us(seconds):
    """Convert seconds (possibly float) to integer microseconds."""
    return int(round(seconds * US_PER_S))


class SimulationError(Exception):
    """Internal invariant violation (contract breach inside the simulator)."""


class RngStreams:
    """Named, independently seeded random substreams.

    Each concern (mobility, backoff, traffic, topology, ...) draws from its
    own stream so adding draws in one concern never perturbs another.
    """

    def __init__(self, seed):
        self.seed = int(seed)
        self._streams = {}

    def stream(self, name):
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(
                ("%d:%s" % (self.seed, name)).encode()
            ).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng


class Simulator:
    """Single-threaded event loop with integer-microsecond clock.

    Ties between events scheduled for the same instant are broken by
    insertion order, which makes dispatch order a pure function of the
    schedule (and therefore of the seed and scenario). An event is its heap
    entry, the list [fire_at, seq, fn]; cancelling it sets fn to None.

    The callback names the event. schedule_at also takes a kind and a
    target, which only perfbench's tracer reads (to tell "frame-arrival"
    from other channel ends); its wrapper passes both by position.
    """

    def __init__(self, seed=0):
        self.now = 0
        self.rng = RngStreams(seed)
        self._heap = []
        self._seq = 0
        self.trace = None  # list of trace records when enabled
        # MAC frame ids: unique within the run, whatever ran before it
        self.next_frame_id = itertools.count(1).__next__

    def schedule_at(self, fire_at, fn, kind="timer", target="world"):
        if fire_at < self.now:
            raise SimulationError(
                "scheduling into the past: t=%d < now=%d (%s)"
                % (fire_at, self.now, fn.__qualname__)
            )
        ev = [fire_at, self._seq, fn]
        self._seq += 1
        heapq.heappush(self._heap, ev)
        return ev

    def schedule_after(self, delay, fn):
        if delay < 0:
            raise SimulationError("negative delay %d" % delay)
        return self.schedule_at(self.now + delay, fn)

    def cancel(self, ev):
        """Cancel a pending event. Cancelling an already-fired one is a no-op."""
        if ev is not None:
            ev[2] = None

    def run_until(self, end):
        """Dispatch all events with fire_at <= end in (fire_at, seq) order."""
        heap = self._heap
        while heap and heap[0][0] <= end:
            fire_at, _, fn = heapq.heappop(heap)
            if fn is None:
                continue
            if fire_at < self.now:
                raise SimulationError("clock went backwards")
            self.now = fire_at
            fn()
        if end > self.now:
            self.now = end
