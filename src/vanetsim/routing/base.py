"""Common routing contract: route table, network packets, agent base."""

import math
from collections import Counter
from dataclasses import dataclass, replace

from ..engine import us
from ..mac import BROADCAST

DEFAULT_TTL = 64
FORWARD_STAGGER_US = 2_000
DUP_CACHE_CAP = 4096
SWEEP_US = us(1.0)

# link-state message sizes and hold times (OLSR and ZRP)
MSG_BASE_BYTES = 12
ADDR_BYTES = 4
HOLD_FACTOR = 3

# Deterministic start staggering: nodes do not boot in phase, and phase
# separation keeps periodic frames from colliding by construction.
PHASE_STEP_US = 10_000


@dataclass
class Packet:
    """An application packet. Control messages travel as themselves."""

    src: int
    dst: int
    ttl: int = DEFAULT_TTL
    size_bytes: int = 0
    session_id: object = None
    seq: int = 0
    sent_at: int = 0

    def hop_copy(self):
        return Packet(self.src, self.dst, self.ttl - 1, self.size_bytes,
                      self.session_id, self.seq, self.sent_at)


@dataclass
class RouteEntry:
    dest: int
    next_hop: int
    seq_no: int
    hop_count: int
    expires_at: int
    valid: bool = True
    route: tuple = ()  # full path, ZRP interzone only


class RoutingTable:
    def __init__(self):
        self.entries = {}

    def lookup(self, dest, now):
        """Valid, unexpired entry for dest, or None."""
        e = self.entries.get(dest)
        if e is None or not e.valid or e.expires_at < now:
            return None
        return e

    def update_if_fresher(self, cand):
        """Accept strictly fresher (or shorter at equal freshness) routes."""
        ex = self.entries.get(cand.dest)
        if ex is None:
            self.entries[cand.dest] = cand
            return True
        if cand.seq_no > ex.seq_no:
            self.entries[cand.dest] = cand
            return True
        if cand.seq_no == ex.seq_no:
            if not ex.valid or cand.hop_count < ex.hop_count:
                self.entries[cand.dest] = cand
                return True
        return False


class DupCache:
    """Recently seen flood keys, for duplicate suppression.

    A key is a duplicate while its expiry is at or after the current time
    (RFC 3561 section 6.3, RFC 3626 section 3.4). An insert that takes the
    cache past its prune mark drops the expired keys only, so pruning never
    changes a decision. The next mark is twice the surviving size, never
    below DUP_CACHE_CAP, so a cache of live keys is rebuilt only each time
    it doubles rather than on every insert.
    """

    __slots__ = ("sim", "lifetime_us", "_expiry", "_prune_at")

    def __init__(self, sim, lifetime_us):
        self.sim = sim
        self.lifetime_us = lifetime_us
        self._expiry = {}  # key -> expiry (us)
        self._prune_at = DUP_CACHE_CAP

    def __contains__(self, key):
        expiry = self._expiry.get(key)
        return expiry is not None and expiry >= self.sim.now

    def __len__(self):
        return len(self._expiry)

    def add(self, key):
        """Admit key: False, changing nothing, while it is a duplicate;
        else remember it as seen now and return True."""
        if key in self:
            return False
        now = self.sim.now
        self._expiry[key] = now + self.lifetime_us
        if len(self._expiry) > self._prune_at:
            self._expiry = {k: v for k, v in self._expiry.items()
                            if v >= now}
            self._prune_at = max(DUP_CACHE_CAP, 2 * len(self._expiry))
        return True


class Agent:
    """Base routing agent: local delivery, forwarding, drop on a route miss.

    Agents talk to the world only through the MAC (send/receive) and
    engine timers; there is no topology peeking. A control message states
    its own size_bytes, and handlers maps its class to the method that
    takes it.
    """

    handlers = {}

    def __init__(self, sim, node):
        self.sim = sim
        self.node = node
        self.stats = Counter()
        self.sleepers = {}  # dest -> the CbrSource asleep until a notice

    # -- helpers -----------------------------------------------------------

    def _settle(self, dest):
        """A notice for dest: wake the source sleeping until it, if one
        is (CbrSource.settle)."""
        source = self.sleepers.pop(dest, None)
        if source is not None:
            source.settle()

    def count_slept(self, dest, count, interval_us):
        """count packets of a session to dest came, interval_us apart,
        while its source slept, and each was dropped."""
        self.node.counters.route_drops += count
        self.stats["cbr_deferred"] += count

    def send_control(self, next_hop, msg):
        """Hand msg to the MAC for next_hop, or for all with BROADCAST."""
        self.stats["control_sent"] += 1
        self.node.mac.enqueue(next_hop, msg, msg.size_bytes)

    def relay_flood(self, msg, stat, **changes):
        """Rebroadcast a copy of a flooded message, one hop less of TTL and
        with changes applied, unless its TTL is spent; count it in stat.

        Relays of the same flood hear the trigger frame at the same instant;
        a deterministic node-id stagger keeps their rebroadcasts from
        colliding (the backoff window is shorter than one frame airtime).
        """
        if msg.ttl <= 1:
            return
        self.stats[stat] += 1
        fwd = replace(msg, ttl=msg.ttl - 1, **changes)
        delay = self.node.id * FORWARD_STAGGER_US
        if delay == 0:
            self.send_control(BROADCAST, fwd)
            return
        self.sim.schedule_after(delay,
                                lambda: self.send_control(BROADCAST, fwd))

    def send_data_frame(self, next_hop, pkt):
        self.node.mac.enqueue(next_hop, pkt, pkt.size_bytes)

    # -- data plane --------------------------------------------------------

    def handle_app_packet(self, pkt):
        """A packet from this node's CBR source, never addressed to it.
        Returns what on_source_miss returns for it, if it has no route."""
        return self.route_or_miss(pkt)

    def handle_data(self, pkt, prev_hop):
        if pkt.dst == self.node.id:
            self.node.on_app_delivery(pkt)
            return
        if pkt.ttl <= 1:
            self.node.counters.route_drops += 1
            return
        self.route_or_miss(pkt.hop_copy(), prev_hop=prev_hop)

    def route_or_miss(self, pkt, prev_hop=None):
        """Send pkt on, unless that hands it back to where it came from;
        on a miss at its source, return what on_source_miss returns."""
        hop = self.next_hop(pkt.dst)
        if hop is None:
            if prev_hop is None:
                return self.on_source_miss(pkt)
            self.on_relay_miss(pkt, prev_hop)
        elif hop == prev_hop:
            self.node.counters.route_drops += 1
            self.stats["data_bounced"] += 1
        else:
            self.send_data_frame(hop, pkt)

    def next_hop(self, dest):
        """Next hop toward dest, or None."""
        raise NotImplementedError

    def on_source_miss(self, pkt):
        """Drop and count. A true return says the session's next packets
        meet the same fate until the agent's next notice for pkt.dst, so
        its source may sleep until then: OlsrAgent always says so, and
        ReactiveAgent, which buffers and discovers instead, when pkt only
        pushed the oldest out of a full buffer."""
        self.node.counters.route_drops += 1

    def on_relay_miss(self, pkt, prev_hop):
        """Drop and count. DistanceVectorAgent also sends a RERR."""
        self.node.counters.route_drops += 1

    # -- contract hooks ----------------------------------------------------

    def start(self):
        pass

    def on_link_failure(self, neighbor):
        pass

    def on_unicast_failure(self, dst, packet):
        """MAC retry exhaustion toward dst (7 retries spent)."""
        self.on_link_failure(dst)

    def on_unicast_success(self, dst, packet):
        pass

    def on_receive(self, msg, prev_hop):
        if isinstance(msg, Packet):
            self.handle_data(msg, prev_hop)
        else:
            self.handlers[type(msg)](self, msg, prev_hop)


class NeighborRecord:
    __slots__ = ("symmetric", "expires", "sym_set", "selects_me")

    def __init__(self):
        self.symmetric = False
        self.expires = 0
        self.sym_set = frozenset()  # the neighbour's own symmetric links
        self.selects_me = False     # OLSR: it picked this node as an MPR


class LinkStateAgent(Agent):
    """Neighbour table, link-state store and expiry sweep (OLSR and ZRP).

    Subclasses set neighbor_hold_us and fill link_state from their link
    advertisements. Paths read after a call to _links_changed are searched
    afresh on _adjacency(). A message calls it only when it changes what
    _adjacency reads: a flipped symmetric flag, a symmetric neighbour's
    changed sym_set, or a stored link set that is new or different; a new
    heard-only record, a refreshed expiry, sequence number or selects_me
    changes no path. A sweep or link failure only removes edges, which
    reaches no new node, so it drops the paths and notifies nothing.
    next_hop takes a path's first hop: a symmetric neighbour, for OLSR and
    ZRP alike (RFC 3626 section 10).
    """

    radius = math.inf

    def __init__(self, sim, node):
        super().__init__(sim, node)
        self.neighbors = {}    # id -> NeighborRecord
        self.link_state = {}   # orig -> (seq, linked frozenset, expires)
        self._paths = None     # dest -> node tuple from this node; None: stale

    def _links_changed(self):
        """Mark the paths stale."""
        self._paths = None

    @property
    def paths(self):
        if self._paths is None:
            self._paths = self._shortest_paths(self._adjacency())
        return self._paths

    def next_hop(self, dest):
        """First hop of the path to dest, or None."""
        path = self.paths.get(dest)
        return None if path is None else path[1]

    def _heard(self, sender, sym, heard):
        """Refresh sender's record from its HELLO or advert; return it and
        whether its symmetric flag flipped. A new record starts heard-only."""
        rec = self.neighbors.get(sender)
        if rec is None:
            rec = self.neighbors[sender] = NeighborRecord()
        me = self.node.id
        rec.expires = self.sim.now + self.neighbor_hold_us
        symmetric = me in sym or me in heard
        flipped = rec.symmetric != symmetric
        rec.symmetric = symmetric
        return rec, flipped

    def _sym_neighbors(self):
        return {n for n, r in self.neighbors.items() if r.symmetric}

    def _sym_and_heard(self):
        """Sorted symmetric and heard-only neighbour ids, as advertised."""
        sym, heard = [], []
        for n, rec in sorted(self.neighbors.items()):
            (sym if rec.symmetric else heard).append(n)
        return tuple(sym), tuple(heard)

    def _adjacency(self):
        """Undirected graph: each symmetric neighbour to its own sym_set,
        every link-state entry, and this node to its symmetric neighbours."""
        adj = {}

        def add_edges(a, peers):
            for b in peers:
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)

        sym = self._sym_neighbors()
        for n in sym:
            add_edges(n, self.neighbors[n].sym_set)
        for orig, (_, linked, _) in self.link_state.items():
            add_edges(orig, linked)
        adj[self.node.id] = sym
        return adj

    def _shortest_paths(self, adj):
        """The lexicographically smallest shortest path, as a node tuple,
        to each node at most radius hops away: each level extends the one
        before in its order, neighbours by id, so it is sorted too, and
        the first path to reach a node is the smallest."""
        me = self.node.id
        paths = {me: (me,)}
        level = [paths[me]]
        while level and len(level[0]) <= self.radius:
            nxt = []
            for path in level:
                for v in sorted(adj.get(path[-1], ())):
                    if v not in paths:
                        paths[v] = path + (v,)
                        nxt.append(paths[v])
            level = nxt
        del paths[me]
        return paths

    def _sweep(self):
        """Drop expired records and link sets, and with them the paths."""
        if not (self.neighbors or self.link_state):
            return
        now = self.sim.now
        changed = False
        for nid in sorted(self.neighbors):
            if self.neighbors[nid].expires < now:
                del self.neighbors[nid]
                changed = True
        for orig in sorted(self.link_state):
            if self.link_state[orig][2] < now:
                del self.link_state[orig]
                changed = True
        if changed:
            self._paths = None

    def on_link_failure(self, neighbor):
        if self.neighbors.pop(neighbor, None) is not None:
            self._paths = None


def start_sweeps(sim, nodes):
    """One event a second sweeps every link-state agent, in node-id order.
    A sweep touches only its own agent's tables and schedules nothing."""
    swept = [nodes[nid].agent for nid in sorted(nodes)
             if isinstance(nodes[nid].agent, LinkStateAgent)]

    def sweep():
        for agent in swept:
            agent._sweep()
        sim.schedule_after(SWEEP_US, sweep)

    if swept:
        sim.schedule_after(SWEEP_US, sweep)
