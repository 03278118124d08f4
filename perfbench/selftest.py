"""The benchmark's own tests (standard library unittest).

    python3 perfbench/selftest.py

Run from the root of a checkout. The file name keeps it out of the
repository's pytest collection: these tests exercise the harness, not the
simulator.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
os.chdir(ROOT)
sys.path.insert(0, HERE)

import child  # noqa: E402  (puts src/ on sys.path)
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from vanetsim.scenario import load_scenario  # noqa: E402
from vanetsim.simulation import Simulation  # noqa: E402


def smoke_simulation(protocol="aodv", seed=1):
    with tempfile.TemporaryDirectory() as tmp:
        path, _, _ = workloads.write_scenario("smoke", seed, tmp)
        config = load_scenario(path)
    return Simulation(config, protocol=protocol, seed=seed)


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class HarnessTest(unittest.TestCase):
    def bench(self, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "smoke", "--seed", "3", "--seconds", "1", "--trace",
             str(trace)], capture_output=True, text=True, timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_smoke_workload_reports_every_declared_metric(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = self.bench(trace)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreater(result["attempted"], 0)
            units = {name: m["unit"]
                     for name, m in result["metrics"].items()}
            self.assertEqual(units, declared(kind))

    def test_refuses_to_run_outside_a_checkout(self):
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 "smoke", "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=tmp, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class GateTest(unittest.TestCase):
    def test_doctored_ledger_counts_as_failure(self):
        simulation = smoke_simulation()
        ledger = simulation.run()
        self.assertEqual(
            child.check_invariants(ledger, simulation.sessions), [])
        session, node = ledger.session[0], ledger.node[2]
        doctors = [
            (session, "app_received", session.app_sent + 1, "app_received"),
            (session, "app_sent", session.app_sent + 1, "schedule implies"),
            (node, "idle_time_us", node.idle_time_us + 1, "tx+rx+idle"),
        ]
        for counters, field, doctored, message in doctors:
            honest = getattr(counters, field)
            setattr(counters, field, doctored)
            broken = child.check_invariants(ledger, simulation.sessions)
            setattr(counters, field, honest)
            self.assertTrue(any(message in b for b in broken), broken)

        bench = run.Bench("smoke", 1, 1, 0)
        bench.record_gate({"valid": True, "num_nodes": 8, "runs": [
            {"protocol": "aodv", "seed": 1, "digest": "x",
             "violations": broken}]})
        self.assertEqual((bench.attempted, bench.failed), (1, 1))

    def test_changed_bytes_count_as_failure(self):
        bench = run.Bench("smoke", 1, 1, 0)
        bench.grid = [("aodv", 1)]
        bench.record_gate({"valid": True, "num_nodes": 8, "runs": [
            {"protocol": "aodv", "seed": 1, "digest": "a",
             "violations": []}]})
        bench.check_sweep("pass 0", {"exit_code": 0, "runs": [
            {"protocol": "aodv", "seed": 1, "digest": "b"}]})
        self.assertEqual((bench.attempted, bench.failed), (2, 1))


class TracerTest(unittest.TestCase):
    def test_wrappers_are_inert_and_removed(self):
        plain = smoke_simulation("olsr").run().to_csv()
        tr = tracer.install()
        try:
            self.assertEqual(len(tracer.leftovers()), len(tracer.TRACED))
            traced = smoke_simulation("olsr").run().to_csv()
        finally:
            tr.uninstall()
        self.assertEqual(tracer.leftovers(), [])
        self.assertEqual(traced, plain)
        self.assertGreater(tr.events(), 0)
        for name in ("engine.dispatch", "phy.transmit", "mac.enqueue",
                     "mac.observe_frame", "mac.timer", "mobility.tick",
                     "traffic.tick", "routing.timer.olsr",
                     "routing.on_receive.olsr", "metrics.to_csv"):
            self.assertGreater(tr.calls[name], 0, name)


if __name__ == "__main__":
    unittest.main()
