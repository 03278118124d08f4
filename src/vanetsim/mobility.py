"""Random waypoint mobility over the scenario's rectangular terrain."""

import math
from dataclasses import dataclass

from .engine import US_PER_S, us


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

    A tick only notes the sampling time and draws the legs that fall due;
    `sync` computes the positions at that time when a frame needs them.
    Due legs are drawn in node-id order, so the draws come out in (tick,
    node id) order however rarely positions are read.
    """

    def __init__(self, sim, nodes, config):
        self.sim = sim
        self.config = config
        self.rng = sim.rng.stream("mobility")
        self.tick_us = us(config.mobility_tick_ms / 1000.0)
        self.pause_us = us(config.pause_s)
        self.end_us = us(config.sim_time_s)
        self.sampled_at = self.synced_at = sim.now
        self.on_move = lambda: None  # told when a sync moves some node
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
        self._schedule_tick()

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
        """Set every node.pos to the last tick's sample, at most once a tick;
        calls on_move if some node moved."""
        if self.synced_at == self.sampled_at:
            return
        t = self.synced_at = self.sampled_at
        moved = False
        for node, leg in self.legs:
            pos = position_at(leg, t)
            if pos != node.pos:
                node.pos = pos
                moved = True
        if moved:
            self.on_move()

    def _schedule_tick(self):
        at = self.sim.now + self.tick_us
        if at <= self.end_us:
            self.sim.schedule_at(at, self._tick, kind="mobility-update")

    def _tick(self):
        now = self.sampled_at = self.sim.now
        if self.next_due <= now:
            for _, leg in self.legs:
                if self.due_at(leg) <= now:
                    self.advance(leg, now)
            self.next_due = self._next_due()
        self._schedule_tick()
