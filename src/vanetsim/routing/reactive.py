"""The on-demand base (AODV, DYMO, ZRP's IERP): what a node does with a
packet it has no route for.

A relay drops it. A source buffers it and starts a discovery round unless
one is running or held off. One round is the initial request plus two
retries with binary-exponential waits starting at 500 ms (RFC 3561
section 6.3). After a failed round the buffered packets for the
destination are dropped and further rounds for that destination are held
off (exponential, capped) so a persistently unreachable peer does not
turn the source into a flood generator.

AODV and DYMO also share how they number and flood requests, learn
routes, relay replies and report broken ones: DistanceVectorAgent.
"""

from collections import deque
from dataclasses import dataclass

from ..engine import us
from ..mac import BROADCAST
from .base import Agent, DupCache, Packet, RouteEntry, RoutingTable

PENDING_PER_DEST = 5
PENDING_LIFETIME_US = us(10.0)

INITIAL_WAIT_US = us(0.5)
DISCOVERY_RETRIES = 2
HOLDOFF_START_US = us(2.0)
HOLDOFF_CAP_US = us(16.0)

ROUTE_LIFETIME_US = us(10.0)  # a learned or used route lives this long

DUP_CACHE_S = 15.0
RREQ_TTL = 35


@dataclass
class Rerr:
    unreachable: tuple  # (dest, seq_no) pairs

    @property
    def size_bytes(self):
        return 8 + 8 * len(self.unreachable)


class ReactiveAgent(Agent):
    """Routes from a route table that discovery fills. Subclasses send one
    request in emit_discovery and call discovery_succeeded once a route to
    the destination appears."""

    def __init__(self, sim, node):
        super().__init__(sim, node)
        self.table = RoutingTable()
        self.pending = {}        # dest -> deque of packets, oldest first
        self._discoveries = {}   # dest -> [requests sent, next timer event]
        self._holdoff = {}       # dest -> (until_us, length_us)

    def emit_discovery(self, dest):
        raise NotImplementedError

    def next_hop(self, dest):
        """Next hop toward dest from the route table, or None."""
        entry = self.table.lookup(dest, self.sim.now)
        if entry is None:
            return None
        self.on_route_used(entry)
        return entry.next_hop

    def on_route_used(self, entry):
        pass

    def on_source_miss(self, pkt):
        """Buffer pkt and discover; true when, a round running, pkt only
        pushed the oldest packet out (_full_buffer)."""
        self.buffer_packet(pkt)
        dest = pkt.dst
        if dest in self._discoveries:
            return self._full_buffer(pkt)
        hold = self._holdoff.get(dest)
        if hold is not None and self.sim.now < hold[0]:
            # a round whose first request goes out when the hold-off ends
            self._discoveries[dest] = [0, self.sim.schedule_at(
                hold[0], lambda: self._attempt(dest))]
            return
        self._attempt(dest)

    # -- discovery rounds --------------------------------------------------

    def _attempt(self, dest):
        """Send the next request of dest's round, starting one if none runs."""
        state = self._discoveries.setdefault(dest, [0, None])
        state[0] += 1
        self.emit_discovery(dest)
        state[1] = self.sim.schedule_after(
            INITIAL_WAIT_US << (state[0] - 1),
            lambda: self._discovery_timeout(dest))

    def _discovery_timeout(self, dest):
        state = self._discoveries[dest]
        if self.table.lookup(dest, self.sim.now) is not None:
            self.discovery_succeeded(dest)
            return
        if state[0] <= DISCOVERY_RETRIES:
            self._attempt(dest)
            return
        del self._discoveries[dest]
        self.drop_pending(dest)
        hold = self._holdoff.get(dest)
        length = (min(2 * hold[1], HOLDOFF_CAP_US) if hold
                  else HOLDOFF_START_US)
        self._holdoff[dest] = (self.sim.now + length, length)

    def discovery_succeeded(self, dest):
        state = self._discoveries.pop(dest, None)
        if state is not None:
            self.sim.cancel(state[1])
        self._holdoff.pop(dest, None)
        self.flush_pending(dest)

    # -- pending-packet buffer ---------------------------------------------

    def _full_buffer(self, pkt):
        """Whether pkt, buffered behind a round, found the buffer full of
        its session's last PENDING_PER_DEST packets (one a route served
        leaves a gap in their numbers). The session's next packets then
        do the same until the agent flushes or drops the buffer or takes
        a new route entry for the destination (an entry that is not live
        never becomes live again)."""
        q = self.pending[pkt.dst]
        return (len(q) >= PENDING_PER_DEST
                and q[0].seq == pkt.seq - (PENDING_PER_DEST - 1))

    def count_slept(self, dest, count, interval_us):
        """Each of the count packets pushed the oldest out of the full
        buffer: build the last of them, as many as the buffer keeps,
        numbered and dated on from the buffer's newest, the packet the
        source fell asleep on."""
        q = self.pending[dest]
        last = q[-1]
        for i in range(max(1, count - PENDING_PER_DEST + 1), count + 1):
            q.popleft()
            q.append(Packet(last.src, last.dst, last.ttl, last.size_bytes,
                            last.session_id, last.seq + i,
                            last.sent_at + i * interval_us))
        super().count_slept(dest, count, interval_us)

    def take_route(self, entry):
        """Store entry if it is fresher; a source sleeping behind the
        buffer for its destination wakes then."""
        if self.table.update_if_fresher(entry):
            self._settle(entry.dest)

    def buffer_packet(self, pkt):
        """Queue pkt; only a source buffers, as it sends, so sent_at dates
        it. A stored queue is never empty, so its head tells if any expired."""
        q = self.pending.get(pkt.dst)
        if q is None:
            q = self.pending[pkt.dst] = deque()
        elif q[0].sent_at < self.sim.now - PENDING_LIFETIME_US:
            self._expire_pending(q)
        if len(q) >= PENDING_PER_DEST:
            q.popleft()
            self.node.counters.route_drops += 1
        q.append(pkt)

    def flush_pending(self, dest):
        self._settle(dest)
        q = self.pending.pop(dest, None)
        if not q:
            return
        self._expire_pending(q)
        for pkt in q:
            hop = self.next_hop(dest)
            if hop is None:
                self.node.counters.route_drops += 1
            else:
                self.send_data_frame(hop, pkt)

    def drop_pending(self, dest):
        self._settle(dest)
        q = self.pending.pop(dest, None)
        if q:
            self.node.counters.route_drops += len(q)

    def _expire_pending(self, q):
        cutoff = self.sim.now - PENDING_LIFETIME_US
        while q and q[0].sent_at < cutoff:
            q.popleft()
            self.node.counters.route_drops += 1


class DistanceVectorAgent(ReactiveAgent):
    """Sequence-numbered routes, flooded discovery, RERR toward sources.
    A subclass builds its request in _request(dest); a request is named by
    its originator and rreq_id (RFC 3561 section 6.3)."""

    def __init__(self, sim, node, config):
        super().__init__(sim, node)
        self.own_seq = 0
        self.rreq_counter = 0
        self.dup_cache = DupCache(sim, us(DUP_CACHE_S))

    def emit_discovery(self, dest):
        self.own_seq += 1
        self.rreq_counter += 1
        msg = self._request(dest)
        self.dup_cache.add((msg.orig, msg.rreq_id))
        self.stats["rreq_sent"] += 1
        self.send_control(BROADCAST, msg)

    def on_route_used(self, entry):
        entry.expires_at = self.sim.now + ROUTE_LIFETIME_US

    def learn_route(self, dest, next_hop, seq_no, hop_count):
        """Take a route heard in a control message (take_route)."""
        self.take_route(RouteEntry(
            dest=dest, next_hop=next_hop, seq_no=seq_no, hop_count=hop_count,
            expires_at=self.sim.now + ROUTE_LIFETIME_US))

    def relay_reply(self, orig, msg):
        """Unicast a route reply on toward orig; without a reverse route
        it is dropped and counted."""
        back = self.table.lookup(orig, self.sim.now)
        if back is None:
            self.stats["rrep_drops"] += 1
            return
        self.send_control(back.next_hop, msg)

    def on_relay_miss(self, pkt, prev_hop):
        # report back rather than discovering on behalf of the source
        super().on_relay_miss(pkt, prev_hop)
        entry = self.table.entries.get(pkt.dst)
        seq = entry.seq_no if entry is not None else 0
        self._send_rerr([(pkt.dst, seq)])

    def _process_rerr(self, msg, prev_hop):
        """Invalidate and report on each valid route via prev_hop that msg
        lists, at the later of its seq_no + 1 and the reported one."""
        mine = []
        for dest, seq in msg.unreachable:
            e = self.table.entries.get(dest)
            if e is not None and e.valid and e.next_hop == prev_hop:
                e.valid = False
                e.seq_no = max(e.seq_no + 1, seq)
                mine.append((dest, e.seq_no))
        self._send_rerr(mine)

    def on_link_failure(self, neighbor):
        # as a RERR from neighbor for every route (RFC 3561 section 6.11)
        dests = sorted(self.table.entries)
        self._process_rerr(Rerr(tuple((d, 0) for d in dests)), neighbor)

    def _send_rerr(self, pairs):
        """Broadcast a RERR for the (dest, seq_no) pairs, if there are any."""
        if pairs:
            self.stats["rerr_sent"] += 1
            self.send_control(BROADCAST, Rerr(tuple(pairs)))
