"""Random waypoint mobility over the scenario's rectangular terrain."""

from dataclasses import dataclass

from .engine import US_PER_S, us


@dataclass
class Leg:
    start: tuple      # (x, y) at leg start
    dest: tuple       # (x, y) leg destination
    depart_at: int    # us
    arrive_at: int    # us
    pause_until: int  # us; 0 until the pause after arrival is set
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
    """Moves every node along waypoint legs and samples it on a fixed tick.

    A node with a `position` or `waypoints` entry is scripted: it starts at
    that position (else at its first waypoint), takes its waypoints in order
    and then holds the last one. Every other node starts at a uniform point
    and goes on drawing a uniform destination, then a uniform speed. Each
    arrival, the start included, is followed by a `pause_s` pause.
    """

    def __init__(self, sim, nodes, config):
        self.sim = sim
        self.config = config
        self.rng = sim.rng.stream("mobility")
        self.tick_us = us(config.mobility_tick_ms / 1000.0)
        self.pause_us = us(config.pause_s)
        self.end_us = us(config.sim_time_s)
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
                pos, pos, sim.now, sim.now, 0, waypoints,
                scripted and not waypoints)))

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

    def advance(self, leg, now):
        """Bring the leg up to time now; returns the position then."""
        while leg.arrive_at <= now and not leg.done:
            if leg.pause_until == 0 and self.pause_us:
                leg.pause_until = leg.arrive_at + self.pause_us
            if leg.pause_until > now:
                return leg.dest
            depart = max(leg.arrive_at, leg.pause_until)
            leg.pause_until = 0
            self.next_leg(leg, depart)
        return position_at(leg, now)

    def _schedule_tick(self):
        if self.sim.now + self.tick_us <= self.end_us:
            self.sim.schedule_after(self.tick_us, self._tick,
                                    kind="mobility-update")

    def _tick(self):
        now = self.sim.now
        for node, leg in self.legs:
            node.pos = self.advance(leg, now)
        self._schedule_tick()
