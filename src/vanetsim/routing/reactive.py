"""Shared discovery scheduling for the on-demand agents (AODV, DYMO, ZRP/IERP).

One discovery round is the initial request plus two retries with
binary-exponential waits starting at 500 ms. After a failed round the
buffered packets for the destination are dropped and further rounds for
that destination are held off (exponential, capped) so a persistently
unreachable peer does not turn the source into a flood generator.

AODV and DYMO also share their route maintenance: DistanceVectorAgent.
"""

from ..engine import us
from .base import Agent, DupCache

INITIAL_WAIT_US = us(0.5)
DISCOVERY_RETRIES = 2
HOLDOFF_START_US = us(2.0)
HOLDOFF_CAP_US = us(16.0)

DUP_CACHE_S = 15.0
RREQ_TTL = 35
RERR_BASE_BYTES = 8
RERR_ENTRY_BYTES = 8


class ReactiveDiscoveryMixin:
    def init_discovery(self):
        self._discoveries = {}   # dest -> {"attempt", "timer"}
        self._holdoff = {}       # dest -> (until_us, next_len_us)
        self._holdoff_timers = {}

    def emit_discovery(self, dest, attempt):
        raise NotImplementedError

    def miss_buffer_and_discover(self, pkt):
        self.buffer_packet(pkt)
        self.maybe_start_discovery(pkt.dst)

    def maybe_start_discovery(self, dest):
        if dest in self._discoveries:
            return
        until, _ = self._holdoff.get(dest, (0, 0))
        if self.sim.now < until:
            if dest not in self._holdoff_timers:
                self._holdoff_timers[dest] = self.sim.schedule_at(
                    until, lambda: self._holdoff_elapsed(dest))
            return
        self._begin_round(dest)

    def _holdoff_elapsed(self, dest):
        self._holdoff_timers.pop(dest, None)
        if dest in self.pending and dest not in self._discoveries:
            self._begin_round(dest)

    def _begin_round(self, dest):
        state = {"attempt": 0, "timer": None}
        self._discoveries[dest] = state
        self._attempt(dest, state)

    def _attempt(self, dest, state):
        state["attempt"] += 1
        self.emit_discovery(dest, state["attempt"])
        wait = INITIAL_WAIT_US << (state["attempt"] - 1)
        state["timer"] = self.sim.schedule_after(
            wait, lambda: self._discovery_timeout(dest))

    def _discovery_timeout(self, dest):
        state = self._discoveries.get(dest)
        if state is None:
            return
        if self.table.lookup(dest, self.sim.now) is not None:
            self.discovery_succeeded(dest)
            return
        if state["attempt"] <= DISCOVERY_RETRIES:
            self._attempt(dest, state)
            return
        del self._discoveries[dest]
        self.drop_pending(dest)
        _, nxt = self._holdoff.get(dest, (0, 0))
        nxt = max(HOLDOFF_START_US, min(nxt * 2, HOLDOFF_CAP_US)) \
            if nxt else HOLDOFF_START_US
        self._holdoff[dest] = (self.sim.now + nxt, nxt)

    def discovery_succeeded(self, dest):
        state = self._discoveries.pop(dest, None)
        if state is not None and state["timer"] is not None:
            self.sim.cancel(state["timer"])
        self._holdoff.pop(dest, None)
        timer = self._holdoff_timers.pop(dest, None)
        if timer is not None:
            self.sim.cancel(timer)
        self.flush_pending(dest)


class DistanceVectorAgent(Agent, ReactiveDiscoveryMixin):
    """Sequence-numbered routes, flooded discovery, RERR toward sources.

    A route error carries a tuple of (dest, seq_no) pairs; subclasses name
    its packet kind in rerr_kind and dispatch it to _process_rerr.
    """

    rerr_kind = None

    def __init__(self, sim, node, ledger, config):
        super().__init__(sim, node, ledger)
        self.init_discovery()
        self.own_seq = 0
        self.lifetime_us = us(config.route_lifetime_s)
        self.dup_cache = DupCache(sim, us(DUP_CACHE_S))

    def on_route_used(self, entry):
        entry.expires_at = self.sim.now + self.lifetime_us

    def on_route_miss(self, pkt, prev_hop):
        if prev_hop is None:
            self.miss_buffer_and_discover(pkt)
        else:
            # forwarding miss: report back rather than discovering on behalf
            self.ledger.node[self.node.id].route_drops += 1
            entry = self.table.entries.get(pkt.dst)
            seq = entry.seq_no if entry is not None else 0
            self._broadcast_rerr(((pkt.dst, seq),))

    def _process_rerr(self, unreachable, prev_hop):
        mine = []
        for dest, seq in unreachable:
            e = self.table.entries.get(dest)
            if (e is not None and e.next_hop == prev_hop
                    and self.table.invalidate(dest) is not None):
                e.seq_no = max(e.seq_no, seq)
                mine.append((dest, e.seq_no))
        if mine:
            self._broadcast_rerr(tuple(mine))

    def on_link_failure(self, neighbor):
        broken = []
        for dest, e in sorted(self.table.entries.items()):
            if (e.next_hop == neighbor
                    and self.table.invalidate(dest) is not None):
                broken.append((dest, e.seq_no))
        if broken:
            self.bump("rerr_sent")
            self._broadcast_rerr(tuple(broken))

    def _broadcast_rerr(self, unreachable):
        size = RERR_BASE_BYTES + RERR_ENTRY_BYTES * len(unreachable)
        self.send_control_broadcast(self.rerr_kind, unreachable, size)
