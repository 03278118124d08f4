"""AODV: on-demand distance-vector routing with flooding discovery."""

from dataclasses import dataclass, replace

from .reactive import RREQ_TTL, DistanceVectorAgent, Rerr


@dataclass
class Rreq:
    rreq_id: int
    orig: int
    orig_seq: int
    dest: int
    dest_seq_known: int
    hop_count: int
    ttl: int

    size_bytes = 24


@dataclass
class Rrep:
    orig: int
    dest: int
    dest_seq: int
    hop_count: int

    size_bytes = 20


class AodvAgent(DistanceVectorAgent):
    # -- discovery ---------------------------------------------------------

    def _request(self, dest):
        entry = self.table.entries.get(dest)
        dest_seq = entry.seq_no if entry is not None else 0
        return Rreq(rreq_id=self.rreq_counter, orig=self.node.id,
                    orig_seq=self.own_seq, dest=dest, dest_seq_known=dest_seq,
                    hop_count=0, ttl=RREQ_TTL)

    # -- control plane -----------------------------------------------------

    def _process_rreq(self, msg, prev_hop):
        if not self.dup_cache.add((msg.orig, msg.rreq_id)):
            return
        if msg.orig == self.node.id:
            return
        self.learn_route(msg.orig, prev_hop, msg.orig_seq, msg.hop_count + 1)
        if msg.dest == self.node.id:
            self.own_seq = max(self.own_seq, msg.dest_seq_known)
            reply = Rrep(orig=msg.orig, dest=msg.dest,
                         dest_seq=self.own_seq, hop_count=0)
        else:
            cached = self.table.lookup(msg.dest, self.sim.now)
            if cached is None or cached.seq_no < msg.dest_seq_known:
                self.relay_flood(msg, "rreq_forwarded",
                                 hop_count=msg.hop_count + 1)
                return
            reply = Rrep(orig=msg.orig, dest=msg.dest,
                         dest_seq=cached.seq_no, hop_count=cached.hop_count)
        self.stats["rrep_sent"] += 1
        self.send_control(prev_hop, reply)

    def _process_rrep(self, msg, prev_hop):
        self.learn_route(msg.dest, prev_hop, msg.dest_seq, msg.hop_count + 1)
        if msg.orig == self.node.id:
            self.discovery_succeeded(msg.dest)
            return
        self.relay_reply(msg.orig, replace(msg, hop_count=msg.hop_count + 1))

    handlers = {Rreq: _process_rreq, Rrep: _process_rrep,
                Rerr: DistanceVectorAgent._process_rerr}
