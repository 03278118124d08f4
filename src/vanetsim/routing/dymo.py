"""DYMO: AODV-style discovery with full intermediate-path accumulation."""

from dataclasses import dataclass, replace

from ..mac import BROADCAST
from .reactive import RREQ_TTL, DistanceVectorAgent, Rerr


@dataclass
class DymoRouteMessage:
    kind: str            # "RREQ" or "RREP"
    orig: int            # discovery originator
    target: int          # destination being discovered
    query_id: tuple      # (orig, counter)
    addr_list: tuple     # ordered (node, seq_no, hop_count) accumulated
    ttl: int

    @property
    def size_bytes(self):
        return 16 + 12 * len(self.addr_list)


class DymoAgent(DistanceVectorAgent):
    """Timers and buffering match AODV so results isolate path accumulation.

    Differences from AODV: control messages carry the whole path walked so
    far, every receiver learns routes to every listed node, and only the
    target answers a request (no cache replies).
    """

    def __init__(self, sim, node, config):
        super().__init__(sim, node)
        self.query_counter = 0

    def emit_discovery(self, dest):
        self.own_seq += 1
        self.query_counter += 1
        msg = DymoRouteMessage(
            kind="RREQ", orig=self.node.id, target=dest,
            query_id=(self.node.id, self.query_counter),
            addr_list=((self.node.id, self.own_seq, 0),), ttl=RREQ_TTL)
        self.dup_cache.add(msg.query_id)
        self.bump("rreq_sent")
        self.send_control(BROADCAST, msg)

    def _process(self, msg, prev_hop):
        me = self.node.id
        listed = [entry[0] for entry in msg.addr_list]
        if me in listed:
            self.bump("loop_drops")
            return
        # every listed node becomes reachable through the frame's sender
        n = len(msg.addr_list)
        for i, (nid, seq, _hop) in enumerate(msg.addr_list):
            self.learn_route(nid, prev_hop, seq, n - i)
        if msg.kind == "RREQ":
            if msg.query_id in self.dup_cache:
                return
            self.dup_cache.add(msg.query_id)
            if msg.target == me:
                self.own_seq += 1
                reply = DymoRouteMessage(
                    kind="RREP", orig=msg.orig, target=me,
                    query_id=(me, msg.query_id),
                    addr_list=((me, self.own_seq, 0),), ttl=RREQ_TTL)
                back = self.table.lookup(msg.orig, self.sim.now)
                if back is not None:
                    self.bump("rrep_sent")
                    self.send_control(back.next_hop, reply)
                return
            if msg.ttl > 1:
                fwd = replace(
                    msg, ttl=msg.ttl - 1,
                    addr_list=msg.addr_list + ((me, self.own_seq, n),))
                self.bump("rreq_forwarded")
                self.forward_control_broadcast(fwd)
        else:  # RREP travelling back toward msg.orig
            if msg.orig == me:
                self.discovery_succeeded(msg.target)
                return
            fwd = replace(msg,
                          addr_list=msg.addr_list + ((me, self.own_seq, n),))
            self.relay_reply(msg.orig, fwd)

    handlers = {DymoRouteMessage: _process,
                Rerr: DistanceVectorAgent._process_rerr}
