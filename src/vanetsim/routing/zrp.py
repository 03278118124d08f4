"""ZRP: proactive link state inside a radius-rho zone, bordercast beyond."""

from dataclasses import dataclass, replace

from ..engine import us
from ..mac import BROADCAST
from .base import (ADDR_BYTES, HOLD_FACTOR, MSG_BASE_BYTES, PHASE_STEP_US,
                   DupCache, LinkStateAgent, RouteEntry)
from .reactive import DUP_CACHE_S, ROUTE_LIFETIME_US, ReactiveAgent

MAX_BORDERCAST_STAGES = 8


@dataclass
class ZoneAdvert:
    orig: int
    sym: tuple
    heard: tuple
    seq: int
    ttl: int

    @property
    def size_bytes(self):
        return MSG_BASE_BYTES + ADDR_BYTES * (len(self.sym) + len(self.heard))


@dataclass
class IerpQuery:
    query_id: tuple    # (orig, counter)
    dest: int
    route_so_far: tuple  # orig first
    leg: tuple         # remaining hops to the bordercast endpoint
    stage: int

    @property
    def size_bytes(self):
        return MSG_BASE_BYTES + ADDR_BYTES * len(self.route_so_far)


@dataclass
class IerpReply:
    route: tuple       # full hop list orig..dest

    @property
    def size_bytes(self):
        return MSG_BASE_BYTES + ADDR_BYTES * len(self.route)


class IerpError(IerpReply):
    """The broken route, orig..dest, sent back the way a reply travels."""


class ZrpAgent(ReactiveAgent, LinkStateAgent):
    """Data goes out along the zone's paths (to nodes at most radius hops
    away) first, then along a route found by IERP."""

    def __init__(self, sim, node, config):
        super().__init__(sim, node)
        self.radius = config.zone_radius
        self.iarp_us = us(config.iarp_interval_s)
        self.neighbor_hold_us = HOLD_FACTOR * self.iarp_us
        self.adv_counter = 0
        self.query_counter = 0
        self.adv_seen = DupCache(sim, us(DUP_CACHE_S))
        self.query_seen = DupCache(sim, us(DUP_CACHE_S))

    def start(self):
        phase = self.node.id * PHASE_STEP_US
        self.sim.schedule_after(phase, self._advert_tick)

    # -- IARP: intrazone link state ---------------------------------------

    def _advert_tick(self):
        sym, heard = self._sym_and_heard()
        self.adv_counter += 1
        # A node at distance rho-1 advertising its links reveals the nodes
        # at distance rho, so adverts only need to travel rho-1 hops.
        msg = ZoneAdvert(self.node.id, sym, heard, self.adv_counter,
                         ttl=max(1, self.radius - 1))
        self.stats["iarp_sent"] += 1
        self.send_control(BROADCAST, msg)
        self.sim.schedule_after(self.iarp_us, self._advert_tick)

    def _process_advert(self, msg, prev_hop):
        if msg.orig == self.node.id:
            return
        changed = False
        if prev_hop == msg.orig:  # not relayed: the originator drops its own
            _, changed = self._heard(msg.orig, msg.sym, msg.heard)
        if not self.adv_seen.add((msg.orig, msg.seq)):
            return
        current = self.link_state.get(msg.orig)
        if current is None or msg.seq >= current[0]:
            linked = frozenset(msg.sym)
            self.link_state[msg.orig] = (msg.seq, linked,
                                         self.sim.now + self.neighbor_hold_us)
            changed = changed or current is None or current[1] != linked
        if changed:
            self._links_changed()
        self.relay_flood(msg, "iarp_forwarded")

    def _links_changed(self):
        """A buffered packet goes out in the instant its destination enters
        the zone, so the zone is rebuilt at once only if packets wait; else
        the next_hop miss that buffers one reads the zone first. So no
        waiting destination is in the current zone, and a message that
        changes no link, or a removal, which can bring none in, skips it."""
        super()._links_changed()
        if self.pending:
            paths = self.paths
            # destinations the zone now covers no longer need a query
            for dest in sorted(self.pending):
                if dest in paths:
                    self.discovery_succeeded(dest)

    def next_hop(self, dest):
        """The zone path's first hop, else the IERP route's. ReactiveAgent
        comes first in the method order, so this must be spelt out."""
        hop = LinkStateAgent.next_hop(self, dest)
        if hop is None:
            hop = ReactiveAgent.next_hop(self, dest)
        return hop

    @property
    def peripheral_set(self):
        return {d for d, p in self.paths.items()
                if len(p) - 1 == self.radius}

    # -- IERP: bordercast query -------------------------------------------

    def emit_discovery(self, dest):
        self.query_counter += 1
        qid = (self.node.id, self.query_counter)
        self.stats["ierp_query_rounds"] += 1
        self._bordercast(qid, dest, (self.node.id,), stage=1)

    def _bordercast(self, qid, dest, route_so_far, stage):
        for p in sorted(self.peripheral_set):
            if p in route_so_far:
                continue
            path = self.paths[p]
            msg = IerpQuery(query_id=qid, dest=dest, route_so_far=route_so_far,
                            leg=tuple(path[1:]), stage=stage)
            self.stats["ierp_queries_sent"] += 1
            self.send_control(path[1], msg)

    def _process_query(self, msg, prev_hop):
        me = self.node.id
        if me in msg.route_so_far:
            self.stats["loop_drops"] += 1
            return
        remaining = msg.leg[1:]  # leg[0] is me: the query was unicast here
        if remaining:
            fwd = replace(msg, route_so_far=msg.route_so_far + (me,),
                          leg=remaining)
            self.stats["ierp_queries_relayed"] += 1
            self.send_control(remaining[0], fwd)
            return
        # bordercast endpoint
        if not self.query_seen.add(msg.query_id):
            return
        here = msg.route_so_far + (me,)
        self.stats["ierp_stage_seen_%d" % msg.stage] += 1
        path = self.paths.get(msg.dest)
        if path is not None:
            full = here + path[1:]
            self._install_from_route(full)
            self.stats["ierp_replies_sent"] += 1
            self._send_back(IerpReply(full))
            return
        if msg.stage < MAX_BORDERCAST_STAGES:
            self._bordercast(msg.query_id, msg.dest, here, msg.stage + 1)

    def _process_reply(self, msg, prev_hop):
        # unicast to this node's predecessor on the route, so it is on it
        self._install_from_route(msg.route)
        if not self._send_back(msg):
            self.discovery_succeeded(msg.route[-1])

    def _send_back(self, msg):
        """Unicast msg to this node's predecessor on msg.route; False,
        sending nothing, when this node is the route's first."""
        idx = msg.route.index(self.node.id)
        if idx == 0:
            return False
        self.send_control(msg.route[idx - 1], msg)
        return True

    def _install_from_route(self, route):
        """Route to route[-1] from this node, which is on it but not last
        (take_route)."""
        idx = route.index(self.node.id)
        self.take_route(RouteEntry(
            dest=route[-1], next_hop=route[idx + 1], seq_no=0,
            hop_count=len(route) - 1 - idx,
            expires_at=self.sim.now + ROUTE_LIFETIME_US, route=route))

    # -- maintenance -------------------------------------------------------

    def on_link_failure(self, neighbor):
        super().on_link_failure(neighbor)
        for dest in sorted(self.table.entries):
            e = self.table.entries[dest]
            if e.valid and e.next_hop == neighbor:
                e.valid = False
                self._send_error_back(e)

    def _send_error_back(self, entry):
        route = entry.route  # every entry comes from a route through here
        if route[0] != self.node.id:
            self.stats["ierp_errors_sent"] += 1
            self._send_back(IerpError(route))

    def _process_error(self, msg, prev_hop):
        e = self.table.entries.get(msg.route[-1])
        if e is None or not e.valid or e.route != msg.route:
            return
        e.valid = False
        self._send_error_back(e)

    handlers = {ZoneAdvert: _process_advert, IerpQuery: _process_query,
                IerpReply: _process_reply, IerpError: _process_error}
