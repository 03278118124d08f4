"""Scenario files: flat key/value format, validation, resolved echo."""

import hashlib
import math
from dataclasses import dataclass, field, fields as dc_fields

from .engine import US_PER_S, us

PROTOCOLS = ("aodv", "dymo", "olsr", "zrp")


class ScenarioError(Exception):
    """Validation or parse failure; message names the offending key."""


@dataclass
class ScenarioConfig:
    """Every parameter a scenario can set: the one place each setting lives.

    The PHY, MAC, routing agents and simulation read these fields
    directly; validate() holds each field's range rule. Settings that no
    scenario varies are constants in the module that reads them: the
    802.11 DSSS timing (phy.PHY_OVERHEAD_US, mac.SLOT_US and the rest), the
    MAC's retry limit and queue depth, reactive.ROUTE_LIFETIME_US,
    olsr.TC_INTERVAL_US and mobility.TICK_US.
    """

    terrain_width_m: float = 1500.0
    terrain_height_m: float = 1500.0
    sim_time_s: float = 3000.0
    num_nodes: int = 15
    speed_min_mps: float = 3.0
    speed_max_mps: float = 20.0
    pause_s: float = 0.0
    protocol: str = "aodv"
    sessions: int = 5
    payload_bytes: int = 512
    interval_ms: float = 250.0
    seed: int = 1
    tx_power_dbm: float = 15.0
    max_range_m: float = 100.0
    bitrate_bps: int = 2_000_000
    frequency_hz: float = 2.4e9
    antenna_height_m: float = 1.5
    rx_threshold_dbm: float = -75.0
    rts_threshold_bytes: int = 256
    zone_radius: int = 2
    hello_interval_s: float = 2.0
    iarp_interval_s: float = 3.0
    capacity_mah: float = 1500.0
    tx_ma: float = 280.0
    rx_ma: float = 180.0
    idle_ma: float = 1.0
    voltage_v: float = 3.0
    explicit_sessions: list = field(default_factory=list)   # (src, dst)
    positions: dict = field(default_factory=dict)           # id -> (x, y)
    waypoints: dict = field(default_factory=dict)           # id -> [(x,y,v)]

    def validate(self):
        def fail(key, why):
            raise ScenarioError("%s: %s" % (key, why))

        for f in dc_fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                fail(f.name, "must be finite")
        if self.terrain_width_m <= 0 or self.terrain_height_m <= 0:
            fail("terrain_width_m/terrain_height_m", "must be positive")
        if self.sim_time_s < 0:
            fail("sim_time_s", "must be non-negative")
        if self.num_nodes < 1:
            fail("num_nodes", "must be at least 1")
        if not (0 < self.speed_min_mps <= self.speed_max_mps):
            fail("speed_min_mps", "need 0 < speed_min_mps <= speed_max_mps")
        # Mobility.next_leg times legs up to the diagonal in us: keep finite.
        diagonal_m = (self.terrain_width_m * self.terrain_width_m
                      + self.terrain_height_m * self.terrain_height_m) ** 0.5
        if not math.isfinite(diagonal_m):
            fail("terrain_width_m/terrain_height_m", "diagonal too long")
        if not math.isfinite(diagonal_m / self.speed_min_mps * US_PER_S):
            fail("speed_min_mps", "too slow to cross the terrain")
        if self.pause_s < 0:
            fail("pause_s", "must be non-negative")
        if self.protocol not in PROTOCOLS:
            fail("protocol", "must be one of %s" % (PROTOCOLS,))
        if self.sessions < 0:
            fail("sessions", "must be non-negative")
        if self.payload_bytes <= 0:
            fail("payload_bytes", "must be positive")
        # Each of these re-arms itself, so each must come to at least 1 us
        # once converted, or the clock never moves past its first firing.
        periods_s = {
            "interval_ms": self.interval_ms / 1000.0,
            "hello_interval_s": self.hello_interval_s,
            "iarp_interval_s": self.iarp_interval_s,
        }
        for key, seconds in periods_s.items():
            if us(seconds) < 1:
                fail(key, "must be at least 1 us")
        for key in ("bitrate_bps", "max_range_m", "frequency_hz",
                    "antenna_height_m"):
            if getattr(self, key) <= 0:
                fail(key, "must be positive")
        if self.zone_radius < 1:
            fail("zone_radius", "must be at least 1 (zone radius 0 is "
                 "forbidden)")
        if self.capacity_mah <= 0:
            fail("capacity_mah", "must be positive")
        for key in ("tx_ma", "rx_ma", "idle_ma"):
            if getattr(self, key) < 0:
                fail(key, "must be non-negative")
        n_sessions = (len(self.explicit_sessions) if self.explicit_sessions
                      else self.sessions)
        if n_sessions > 0 and self.num_nodes < 2:
            fail("num_nodes", "sessions need at least 2 nodes")
        pairs = self.num_nodes * (self.num_nodes - 1)
        if not self.explicit_sessions and self.sessions > pairs:
            fail("sessions", "more than the %d distinct (src, dst) pairs"
                 % pairs)
        for src, dst in self.explicit_sessions:
            if src == dst:
                fail("session", "src and dst must differ (%d)" % src)
            for end in (src, dst):
                if not 0 <= end < self.num_nodes:
                    fail("session", "node %d out of range" % end)
        for nid in list(self.positions) + list(self.waypoints):
            if not 0 <= nid < self.num_nodes:
                fail("position/waypoints", "node %d out of range" % nid)
        points = [("position.%d" % nid, x, y, None)
                  for nid, (x, y) in self.positions.items()]
        points += [("waypoints.%d" % nid, x, y, v)
                   for nid, wps in self.waypoints.items() for x, y, v in wps]
        for key, x, y, v in points:
            if not (0 <= x <= self.terrain_width_m
                    and 0 <= y <= self.terrain_height_m):
                fail(key, "must be a point inside the terrain")
            if v is not None and not (0 < v < math.inf and math.isfinite(
                    diagonal_m / v * US_PER_S)):
                fail(key, "speed is not finite, positive or fast enough")
        for nid, wps in self.waypoints.items():
            if nid not in self.positions and wps and wps[0][2] is not None:
                fail("waypoints.%d" % nid, "the first waypoint is the start "
                     "point when no position is given and takes no speed")
        return self

    # -- serialization -----------------------------------------------------

    def echo(self):
        """Fully resolved flat text; reproduces the run bit-for-bit."""
        lines = []
        for f in sorted(dc_fields(self), key=lambda f: f.name):
            if f.name in ("explicit_sessions", "positions", "waypoints"):
                continue
            lines.append("%s = %s" % (f.name, getattr(self, f.name)))
        for src, dst in self.explicit_sessions:
            lines.append("session = %d,%d" % (src, dst))
        for nid in sorted(self.positions):
            x, y = self.positions[nid]
            lines.append("position.%d = %s,%s" % (nid, x, y))
        for nid in sorted(self.waypoints):
            parts = []
            for x, y, v in self.waypoints[nid]:
                parts.append("%s,%s" % (x, y) if v is None
                             else "%s,%s,%s" % (x, y, v))
            lines.append("waypoints.%d = %s" % (nid, ";".join(parts)))
        return "\n".join(lines) + "\n"

    def scenario_id(self):
        """Stable digest of everything except protocol and seed."""
        lines = [ln for ln in self.echo().splitlines()
                 if not ln.startswith(("protocol ", "seed "))]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


_FIELD_TYPES = {f.name: f.type for f in dc_fields(ScenarioConfig)
                if f.name not in ("explicit_sessions", "positions",
                                  "waypoints")}


def _parse_value(key, text):
    ftype = _FIELD_TYPES[key]
    try:
        if ftype is int:
            return int(text)
        if ftype is float:
            return float(text)
        return text
    except ValueError:
        raise ScenarioError("%s: cannot parse %r" % (key, text))


def parse_scenario(text):
    cfg = ScenarioConfig()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError("line %d: expected key = value" % lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "session":
            try:
                src, dst = (int(v) for v in value.split(","))
            except ValueError:
                raise ScenarioError("session: expected src,dst at line %d"
                                    % lineno)
            cfg.explicit_sessions.append((src, dst))
        elif key.startswith("position."):
            nid = _node_suffix(key, "position.")
            try:
                x, y = (float(v) for v in value.split(","))
            except ValueError:
                raise ScenarioError("%s: expected x,y" % key)
            cfg.positions[nid] = (x, y)
        elif key.startswith("waypoints."):
            nid = _node_suffix(key, "waypoints.")
            cfg.waypoints[nid] = _parse_waypoints(key, value)
        elif key in _FIELD_TYPES:
            setattr(cfg, key, _parse_value(key, value))
        else:
            raise ScenarioError("unknown key %r at line %d" % (key, lineno))
    return cfg.validate()


def _node_suffix(key, prefix):
    try:
        return int(key[len(prefix):])
    except ValueError:
        raise ScenarioError("%s: node id must be an integer" % key)


def _parse_waypoints(key, value):
    out = []
    for part in value.split(";"):
        bits = [b for b in part.split(",") if b.strip()]
        if len(bits) not in (2, 3):
            raise ScenarioError("%s: expected x,y[,speed] groups" % key)
        try:
            x, y, *v = (float(b) for b in bits)
        except ValueError:
            raise ScenarioError("%s: cannot parse %r" % (key, part))
        out.append((x, y, v[0] if v else None))
    return out


def load_scenario(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError("cannot read scenario %s: %s" % (path, exc))
    return parse_scenario(text)
