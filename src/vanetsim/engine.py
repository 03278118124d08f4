"""Deterministic discrete-event core: clock, event queue, seeded RNG streams."""

import hashlib
import itertools
import random
import time
from heapq import heappop, heappush

US_PER_S = 1_000_000
TICK_SEQ = 1 << 62  # above any seq a run reaches


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

    An event is its heap entry, the list [fire_at, seq, fn], and events
    fire in that order; cancelling one sets fn to None. schedule_at's seq
    grows with time, so its ties go in insertion order. schedule_tick
    keys a session's tick at t, after its first, as (t, TICK_SEQ -
    session_id): after every other event due at t, later sessions first,
    however early it was scheduled, so a source that slept can schedule
    it late in the place it would have had. Dispatch order is a pure
    function of the schedule (and therefore of the seed and scenario).

    The callback names the event. No caller in the package passes
    schedule_at's kind or target; perfbench's tracer passes both.

    Setting profile to a dict makes run_until time every dispatch into it;
    see dispatch_profile.
    """

    def __init__(self, seed=0):
        self.now = 0
        self.rng = RngStreams(seed)
        self._heap = []
        self._seq = 0
        self.trace = None  # list of trace records when enabled
        self.profile = None  # (module, qualname) -> [dispatches, seconds]
        # MAC frame ids: unique within the run, whatever ran before it
        self.next_frame_id = itertools.count(1).__next__

    def schedule_at(self, fire_at, fn, kind="timer", target="world"):
        if fire_at < self.now:
            raise SimulationError(
                "scheduling into the past: t=%d < now=%d (%s)"
                % (fire_at, self.now, fn.__qualname__)
            )
        seq = self._seq
        ev = [fire_at, seq, fn]
        self._seq = seq + 1
        heappush(self._heap, ev)
        return ev

    def schedule_after(self, delay, fn):
        return self.schedule_at(self.now + delay, fn)

    def schedule_tick(self, fire_at, session_id, fn):
        """Schedule a session's tick, keyed as the class says. It repeats
        schedule_at's check and push to spare every event a call."""
        if fire_at < self.now:
            raise SimulationError(
                "scheduling into the past: t=%d < now=%d (%s)"
                % (fire_at, self.now, fn.__qualname__)
            )
        self._seq += 1  # _seq counts every event scheduled
        ev = [fire_at, TICK_SEQ - session_id, fn]
        heappush(self._heap, ev)
        return ev

    def cancel(self, ev):
        """Cancel a pending event. Cancelling an already-fired one is a no-op."""
        if ev is not None:
            ev[2] = None

    def run_until(self, end):
        """Dispatch all events with fire_at <= end in heap-entry order.

        With profile set, each callback's dispatches and wall time are
        added to it, and the loop's own entry counts every heap entry it
        pops, cancelled ones included, and the time no callback took."""
        heap = self._heap
        now = self.now
        profile = self.profile
        if profile is not None:
            clock = time.perf_counter
            # each pop lowers len(heap) - _seq by one, each push leaves it
            unpopped = len(heap) - self._seq
            in_callbacks = 0.0
            loop_started = clock()
        while heap and heap[0][0] <= end:
            fire_at, _, fn = heappop(heap)
            if fn is None:
                continue
            if fire_at < now:
                raise SimulationError("clock went backwards")
            self.now = now = fire_at
            if profile is None:
                fn()
                continue
            started = clock()
            fn()
            took = clock() - started
            in_callbacks += took
            key = (fn.__module__, fn.__qualname__)
            entry = profile.get(key)
            if entry is None:
                entry = profile[key] = [0, 0.0]
            entry[0] += 1
            entry[1] += took
        if end > now:
            self.now = end
        if profile is not None:
            entry = profile.setdefault(
                (__name__, "Simulator.run_until"), [0, 0.0])
            entry[0] += unpopped - (len(heap) - self._seq)
            entry[1] += clock() - loop_started - in_callbacks


def dispatch_profile(profile):
    """A Simulator's profile by layer: the vanetsim module a callback is
    defined in names its layer (vanetsim.routing.olsr is routing), and
    any other module is "other". Returns layer -> {"dispatches", "wall_s",
    "callbacks": qualname -> {"dispatches", "wall_s"}}, layers by name."""
    layers = {}
    for (module, qualname), (count, seconds) in sorted(profile.items()):
        package, _, rest = module.partition(".")
        name = rest.partition(".")[0] if package == "vanetsim" else "other"
        layer = layers.setdefault(
            name, {"dispatches": 0, "wall_s": 0.0, "callbacks": {}})
        callback = layer["callbacks"].setdefault(
            qualname, {"dispatches": 0, "wall_s": 0.0})
        for entry in (layer, callback):
            entry["dispatches"] += count
            entry["wall_s"] += seconds
    return dict(sorted(layers.items()))
