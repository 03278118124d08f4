"""Host-speed reference: a fixed stand-in for vanetsim's set-up and inner
loop that shares no code with it.

    python3 perfbench/reference.py SPAWNED_AT

Prints the seconds since SPAWNED_AT, the parent's time.monotonic() just
before it started this interpreter.
"""

import sys
import time

import argparse  # noqa: F401  (the same stdlib imports vanetsim's CLI pays)
import dataclasses
import hashlib  # noqa: F401
import heapq
import json  # noqa: F401
import math
import random


@dataclasses.dataclass
class Station:
    x: float
    y: float
    heard: int = 0


class Event:
    __slots__ = ("fire_at", "fn")

    def __init__(self, fire_at, fn):
        self.fire_at = fire_at
        self.fn = fn


def work(events=20_000):
    rng = random.Random(1)
    stations = [Station(rng.uniform(0, 600), rng.uniform(0, 600))
                for _ in range(16)]
    heap, seq, now = [], 0, 0

    def transmit(src):
        for dst in stations:
            if dst is not src and math.hypot(dst.x - src.x,
                                             dst.y - src.y) < 200:
                dst.heard += 1

    for i in range(events):
        src = stations[i % 16]
        ev = Event(now + rng.randrange(1000), lambda s=src: transmit(s))
        heapq.heappush(heap, (ev.fire_at, seq, ev))
        seq += 1
        if len(heap) > 64:
            now, _, ev = heapq.heappop(heap)
            ev.fn()


if __name__ == "__main__":
    work()
    print(time.monotonic() - float(sys.argv[1]))
