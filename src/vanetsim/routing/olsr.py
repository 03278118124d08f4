"""OLSR: proactive link state with multipoint relays and partial TC floods."""

from dataclasses import dataclass

from ..engine import us
from ..mac import BROADCAST
from .base import (ADDR_BYTES, HOLD_FACTOR, MSG_BASE_BYTES, PHASE_STEP_US,
                   DupCache, LinkStateAgent)

TC_TTL = 255
DUP_HOLD_S = 30.0  # RFC 3626 DUP_HOLD_TIME
TC_INTERVAL_US = us(5.0)  # RFC 3626 TC_INTERVAL
TOPO_HOLD_US = HOLD_FACTOR * TC_INTERVAL_US  # RFC 3626 TOP_HOLD_TIME


@dataclass
class Hello:
    sender: int
    sym: tuple       # symmetric neighbours
    heard: tuple     # heard (asymmetric) neighbours
    mprs: tuple      # sender's multipoint relay set

    @property
    def size_bytes(self):
        return MSG_BASE_BYTES + ADDR_BYTES * (
            len(self.sym) + len(self.heard) + len(self.mprs))


@dataclass
class TcMessage:
    orig: int
    ansn: int
    advertised: tuple  # the originator's MPR selector set
    tc_id: tuple       # (orig, emission counter) for duplicate suppression
    ttl: int

    @property
    def size_bytes(self):
        return MSG_BASE_BYTES + ADDR_BYTES * len(self.advertised)


def select_mprs(coverage, degree=None):
    """Greedy two-hop cover.

    coverage maps each symmetric neighbour to the set of strict two-hop
    nodes reachable through it. Neighbours that are the sole cover for
    some node are taken first; then the neighbour covering the most
    uncovered nodes, ties broken by higher degree then lower id.
    """
    degree = degree or {}
    uncovered = set()
    for covers in coverage.values():
        uncovered |= covers
    mprs = set()
    for target in sorted(uncovered):
        owners = [n for n in coverage if target in coverage[n]]
        if len(owners) == 1:
            mprs.add(owners[0])
    for m in mprs:
        uncovered -= coverage[m]
    while uncovered:
        best = min(
            (n for n in coverage if coverage[n] & uncovered),
            key=lambda n: (-len(coverage[n] & uncovered),
                           -degree.get(n, len(coverage[n])), n))
        mprs.add(best)
        uncovered -= coverage[best]
    return mprs


class OlsrAgent(LinkStateAgent):
    def __init__(self, sim, node, config):
        super().__init__(sim, node)
        self.hello_us = us(config.hello_interval_s)
        self.neighbor_hold_us = HOLD_FACTOR * self.hello_us
        self.ansn = 0
        self.tc_counter = 0
        self.tc_seen = DupCache(sim, us(DUP_HOLD_S))
        self._hello = None  # the HELLO to send; None: stale

    def start(self):
        phase = self.node.id * PHASE_STEP_US
        self.sim.schedule_after(phase, self._hello_tick)
        self.sim.schedule_after(phase + self.hello_us // 2, self._tc_tick)

    # -- periodic emission -------------------------------------------------

    def _hello_tick(self):
        # built again only after a link change; nothing mutates a Hello
        msg = self._hello
        if msg is None:
            sym, heard = self._sym_and_heard()
            msg = self._hello = Hello(self.node.id, sym, heard,
                                      tuple(sorted(self.mpr_set)))
        self.stats["hello_sent"] += 1
        self.send_control(BROADCAST, msg)
        self.sim.schedule_after(self.hello_us, self._hello_tick)

    def _tc_tick(self):
        # Emitted every interval even when the selector set is empty, so the
        # periodic overhead rate is uniform across nodes.
        self.tc_counter += 1
        msg = TcMessage(self.node.id, self.ansn,
                        tuple(sorted(self.mpr_selector_set)),
                        (self.node.id, self.tc_counter), TC_TTL)
        self.stats["tc_sent"] += 1
        self.send_control(BROADCAST, msg)
        self.sim.schedule_after(TC_INTERVAL_US, self._tc_tick)

    # -- control plane -----------------------------------------------------

    def _process_hello(self, msg, prev_hop):
        rec, changed = self._heard(msg.sender, msg.sym, msg.heard)
        sym_set = frozenset(msg.sym)
        if rec.sym_set != sym_set:
            rec.sym_set = sym_set
            changed = True
        selects_me = self.node.id in msg.mprs
        if rec.selects_me != selects_me:
            rec.selects_me = selects_me
            self.ansn += 1
        if changed:
            self._neighbors_changed()

    def _process_tc(self, msg, prev_hop):
        if msg.orig == self.node.id:
            return
        if not self.tc_seen.add(msg.tc_id):
            return
        current = self.link_state.get(msg.orig)
        if current is not None and current[0] > msg.ansn:
            return  # stale advertised-neighbor sequence number
        linked = frozenset(msg.advertised)
        self.link_state[msg.orig] = (msg.ansn, linked,
                                     self.sim.now + TOPO_HOLD_US)
        if current is None or current[1] != linked:
            self._links_changed()
        rec = self.neighbors.get(prev_hop)
        if rec is not None and rec.selects_me:
            self.relay_flood(msg, "tc_forwarded")

    handlers = {Hello: _process_hello, TcMessage: _process_tc}

    def _links_changed(self):
        """Mark the paths stale, and wake every sleeping source."""
        super()._links_changed()
        for dest in list(self.sleepers):
            self._settle(dest)

    def _neighbors_changed(self):
        """A HELLO reads only the neighbour records and the MPRs chosen
        from them, so only their change marks it stale."""
        self._hello = None
        super()._neighbors_changed()

    def on_source_miss(self, pkt):
        """Drop and count; the session's next packets meet the same until
        the paths change."""
        super().on_source_miss(pkt)
        return True

    # -- derived state -----------------------------------------------------

    @property
    def mpr_selector_set(self):
        """Neighbours that picked this node as an MPR."""
        return {n for n, r in self.neighbors.items() if r.selects_me}

    @property
    def mpr_set(self):
        """MPRs selected from the neighbour records, for each HELLO."""
        if not self.neighbors:
            return set()
        me = self.node.id
        sym = self._sym_neighbors()
        coverage = {}
        degree = {}
        for n in sorted(sym):
            rec = self.neighbors[n]
            coverage[n] = {x for x in rec.sym_set if x != me and x not in sym}
            degree[n] = len(rec.sym_set)
        return select_mprs(coverage, degree)

    def _adjacency(self):
        # symmetric first hops only (RFC 3626 section 10)
        adj = super()._adjacency()
        adj[self.node.id] = self._sym_neighbors()
        return adj
