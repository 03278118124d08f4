"""Random waypoint mobility over the scenario's rectangular terrain."""

import math
from dataclasses import dataclass

from .engine import US_PER_S, us

TICK_US = 100_000  # positions are sampled every 100 ms


@dataclass
class Leg:
    start: tuple      # (x, y) at leg start
    dest: tuple       # (x, y) leg destination
    depart_at: int    # us
    arrive_at: int    # us
    waypoints: list   # scripted (x, y, speed|None) not yet taken
    done: bool        # scripted and out of waypoints: holds dest for ever


def position_at(leg, t):
    """Linear interpolation along the leg at time t (us)."""
    if t <= leg.depart_at or leg.arrive_at <= leg.depart_at:
        return leg.start
    if t >= leg.arrive_at:
        return leg.dest
    frac = (t - leg.depart_at) / (leg.arrive_at - leg.depart_at)
    x0, y0 = leg.start
    x1, y1 = leg.dest
    return (x0 + (x1 - x0) * frac, y0 + (y1 - y0) * frac)


class Mobility:
    """Moves every node along waypoint legs, sampled on a fixed tick.

    A node with a `position` or `waypoints` entry is scripted: it starts at
    that position (else at its first waypoint), takes its waypoints in order
    and then holds the last one. Every other node starts at a uniform point
    and goes on drawing a uniform destination, then a uniform speed. Each
    arrival, the start included, is followed by a `pause_s` pause.

    Positions are sampled on a fixed tick: `sync` sets them to their values
    at the last tick at or before now, when a frame needs them. Legs are
    drawn only at ticks where one falls due, all those due in node-id order,
    so the draws come out in (tick, node id) order however rarely positions
    are read. One event waits for the first tick at which a leg falls due;
    there is none while every node holds still for good.
    """

    def __init__(self, sim, nodes, config):
        self.sim = sim
        self.config = config
        self.rng = sim.rng.stream("mobility")
        self.tick_us = TICK_US
        self.pause_us = us(config.pause_s)
        self.end_us = us(config.sim_time_s)
        self.synced_at = 0
        self.legs = []  # (node, leg) in node-id order
        for nid in sorted(nodes):
            pos = config.positions.get(nid)
            waypoints = list(config.waypoints.get(nid, ()))
            if pos is None and waypoints:
                x, y, _ = waypoints.pop(0)
                pos = (x, y)
            scripted = pos is not None
            if not scripted:
                pos = (self.rng.uniform(0, config.terrain_width_m),
                       self.rng.uniform(0, config.terrain_height_m))
            nodes[nid].pos = pos
            self.legs.append((nodes[nid], Leg(
                pos, pos, sim.now, sim.now, waypoints,
                scripted and not waypoints)))
        self.next_due = self._next_due()

    def start(self):
        self._schedule_draw()

    def next_leg(self, leg, now):
        """Start a new leg from the node's current (arrived) position."""
        cfg = self.config
        here = leg.dest
        if leg.waypoints:
            x, y, speed = leg.waypoints.pop(0)
            dest = (x, y)
            if speed is None:
                speed = self.rng.uniform(cfg.speed_min_mps, cfg.speed_max_mps)
            leg.done = not leg.waypoints
        else:
            dest = (self.rng.uniform(0, cfg.terrain_width_m),
                    self.rng.uniform(0, cfg.terrain_height_m))
            speed = self.rng.uniform(cfg.speed_min_mps, cfg.speed_max_mps)
        dist = ((dest[0] - here[0]) ** 2 + (dest[1] - here[1]) ** 2) ** 0.5
        leg.start = here
        leg.dest = dest
        leg.depart_at = now
        leg.arrive_at = now + int(round(dist / speed * US_PER_S)) if dist else now

    def due_at(self, leg):
        """When the pause after the leg's arrival ends: the next leg starts."""
        return math.inf if leg.done else leg.arrive_at + self.pause_us

    def _next_due(self):
        return min((self.due_at(leg) for _, leg in self.legs),
                   default=math.inf)

    def advance(self, leg, now):
        """Bring the leg up to time now; returns the position then."""
        while self.due_at(leg) <= now:
            self.next_leg(leg, leg.arrive_at + self.pause_us)
        return position_at(leg, now)

    def sync(self):
        """Set every node.pos to its sample at the last tick, at most once a
        tick, after drawing the legs due by then; True if some node moved."""
        t = min(self.sim.now, self.end_us) // self.tick_us * self.tick_us
        if t == self.synced_at:
            return False
        self.synced_at = t
        self._draw_due(t)
        moved = False
        for node, leg in self.legs:
            pos = position_at(leg, t)
            if pos != node.pos:
                node.pos = pos
                moved = True
        return moved

    def _draw_due(self, t):
        """Draw, in node-id order, the legs due by tick t > 0."""
        if self.next_due <= t:
            for _, leg in self.legs:
                if self.due_at(leg) <= t:
                    self.advance(leg, t)
            self.next_due = self._next_due()

    def _schedule_draw(self):
        """One event at the first tick k*tick_us (k >= 1) at or after
        next_due, if it falls within the run."""
        if self.next_due == math.inf:
            return
        k = max(-(-self.next_due // self.tick_us), 1)
        if k * self.tick_us <= self.end_us:
            self.sim.schedule_at(k * self.tick_us, self._draw)

    def _draw(self):
        self._draw_due(self.sim.now)
        self._schedule_draw()
