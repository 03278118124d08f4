"""DYMO: AODV-style discovery with full intermediate-path accumulation."""

from dataclasses import dataclass, replace

from .reactive import RREQ_TTL, DistanceVectorAgent, Rerr


@dataclass
class DymoRrep:
    orig: int            # discovery originator
    target: int          # destination being discovered
    addr_list: tuple     # ordered (node, seq_no, hop_count) accumulated

    @property
    def size_bytes(self):
        return 16 + 12 * len(self.addr_list)


@dataclass
class DymoRreq(DymoRrep):
    rreq_id: int
    ttl: int


class DymoAgent(DistanceVectorAgent):
    """Timers and buffering match AODV so results isolate path accumulation.

    Differences from AODV: control messages carry the whole path walked so
    far, every receiver learns routes to every listed node, and only the
    target answers a request (no cache replies).
    """

    def _request(self, dest):
        me = self.node.id
        return DymoRreq(me, dest, ((me, self.own_seq, 0),),
                        rreq_id=self.rreq_counter, ttl=RREQ_TTL)

    def _learn_path(self, msg, prev_hop):
        """Learn a route through prev_hop to every node msg lists; return
        the list grown by this node, or None, learning nothing, when this
        node is on it already."""
        me = self.node.id
        n = len(msg.addr_list)
        if me in [entry[0] for entry in msg.addr_list]:
            self.stats["loop_drops"] += 1
            return None
        for i, (nid, seq, _hop) in enumerate(msg.addr_list):
            self.learn_route(nid, prev_hop, seq, n - i)
        return msg.addr_list + ((me, self.own_seq, n),)

    def _process_rreq(self, msg, prev_hop):
        grown = self._learn_path(msg, prev_hop)
        if grown is None or not self.dup_cache.add((msg.orig, msg.rreq_id)):
            return
        me = self.node.id
        if msg.target != me:
            self.relay_flood(msg, "rreq_forwarded", addr_list=grown)
            return
        self.own_seq += 1
        back = self.table.lookup(msg.orig, self.sim.now)
        if back is not None:
            self.stats["rrep_sent"] += 1
            self.send_control(back.next_hop, DymoRrep(
                orig=msg.orig, target=me, addr_list=((me, self.own_seq, 0),)))

    def _process_rrep(self, msg, prev_hop):
        grown = self._learn_path(msg, prev_hop)
        if grown is None:
            return
        if msg.orig == self.node.id:
            self.discovery_succeeded(msg.target)
            return
        self.relay_reply(msg.orig, replace(msg, addr_list=grown))

    handlers = {DymoRreq: _process_rreq, DymoRrep: _process_rrep,
                Rerr: DistanceVectorAgent._process_rerr}
