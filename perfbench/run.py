"""vanetsim benchmark: host time per protocol run and per sweep, set-up time
and memory, with a separate traced run for the per-layer figures.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it needs nothing but the standard
library and the sources under src/. Load is a closed loop: one simulation at
a time, each pass in a fresh interpreter (see child.py). With --trace 0 it
prints every end-to-end metric, with --trace 1 every per-layer metric; the
last line of standard output is the JSON result. Metric names, units and
the workloads are described in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# A run must end within 180 s; no child is started after this many seconds.
DEADLINE_S = 160
# What perfbench/reference.py takes on the reference host (an Intel Xeon
# vCPU, Python 3.11) at its usual speed. Host times are reported scaled by
# REFERENCE_S / the median reference time of the same run; see README.md.
REFERENCE_S = 0.21
MIN_PASSES = 2
SETUPS_PER_PASS = 2
WORK_DIR = os.path.join(".bench_build", "perfbench")


class ChildFailed(Exception):
    pass


def run_child(mode, args, deadline):
    """Run child.py in a fresh interpreter; return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode] + args
    left = deadline - time.monotonic()
    if left <= 0:
        raise ChildFailed("%s: out of time" % mode)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=left + 15)
    except subprocess.TimeoutExpired:
        raise ChildFailed("%s: timed out" % mode)
    if proc.returncode != 0:
        raise ChildFailed("%s: exit %d: %s" % (
            mode, proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_reference(deadline):
    """Seconds perfbench/reference.py takes, from spawn to its report."""
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "reference.py"),
         repr(spawned_at)], capture_output=True, text=True,
        timeout=max(1.0, deadline - spawned_at) + 15, check=True)
    return float(proc.stdout)


class Bench:
    """Runs one workload and keeps the correctness tally."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.grid = []        # (protocol, seed) of one pass
        self.reference = {}   # (protocol, seed) -> in-process csv digest
        self.passes = []
        self.gate = None
        self.traced = None

    def fail(self, runs, why):
        self.failed += runs
        self.problems.append(why)

    def run(self, work):
        path, protocols, seeds = workloads.write_scenario(
            self.workload, self.seed, work)
        self.grid = [(p, s) for p in protocols for s in seeds]
        args = [path, ",".join(protocols), ",".join(str(s) for s in seeds)]
        self.run_gate(args)
        started = time.monotonic()
        if self.trace:
            self.run_traced(args, os.path.join(work, "traced"))
        durations = []
        while time.monotonic() < self.deadline:
            setups, references = [], []
            for _ in range(SETUPS_PER_PASS):
                spawned_at = time.monotonic()
                setups.append(run_child(
                    "setup", args + [repr(spawned_at)], self.deadline))
                references.append(run_reference(self.deadline))
            t0 = time.monotonic()
            self.run_pass(args, os.path.join(work, "pass%d" % len(durations)),
                          setups, references)
            durations.append(time.monotonic() - t0)
            elapsed = time.monotonic() - started
            if (len(durations) >= MIN_PASSES
                    and elapsed + statistics.median(durations) > self.seconds):
                break
        if not self.passes:
            raise ChildFailed("no timed pass completed: %s"
                              % "; ".join(self.problems))

    def run_gate(self, args):
        self.record_gate(run_child("gate", args, self.deadline))

    def record_gate(self, gate):
        """In-process runs: invariants, and the reference to_csv() digests."""
        self.gate = gate
        self.attempted += len(gate["runs"])
        if not gate["valid"]:
            raise ChildFailed("gate: `vanetsim validate` rejected the "
                              "generated scenario")
        for run in gate["runs"]:
            key = (run["protocol"], run["seed"])
            if run["violations"]:
                self.fail(1, "gate %s seed %d: %s" % (
                    key + ("; ".join(run["violations"]),)))
            self.reference[key] = run.get("digest")

    def check_sweep(self, label, result):
        """A sweep's runs fail when compare failed or bytes differ."""
        self.attempted += len(self.grid)
        if result["exit_code"] != 0:
            self.fail(len(self.grid), "%s: compare exited %d"
                      % (label, result["exit_code"]))
            return
        for run in result["runs"]:
            key = (run["protocol"], run["seed"])
            if run["digest"] != self.reference[key]:
                self.fail(1, "%s %s seed %d: metrics.csv differs from the "
                          "in-process to_csv() bytes" % ((label,) + key))

    def run_pass(self, args, out_dir, setups, references):
        try:
            result = run_child("pass", args + [out_dir], self.deadline)
        except ChildFailed as exc:
            self.attempted += len(self.grid)
            self.fail(len(self.grid), str(exc))
            return
        self.check_sweep("pass %d" % len(self.passes), result)
        result["setups"] = setups
        result["references"] = references
        self.passes.append(result)

    def run_traced(self, args, out_dir):
        self.traced = run_child("traced", args + [out_dir], self.deadline)
        self.check_sweep("traced pass", self.traced)
        if self.traced["leftover_wrappers"]:
            self.fail(0, "wrappers left installed: %s"
                      % ", ".join(self.traced["leftover_wrappers"]))

    # -- metrics -----------------------------------------------------------

    def speed_factor(self):
        """Scale from this run's host speed to the reference host's."""
        return REFERENCE_S / statistics.median(
            t for p in self.passes for t in p["references"])

    def run_s(self, protocol):
        """Median scaled host time of one Simulation.run, and its count."""
        values = [r["run_s"] for p in self.passes for r in p["runs"]
                  if r["protocol"] == protocol]
        return self.speed_factor() * statistics.median(values), len(values)

    def setup_median(self, key):
        values = [s[key] for p in self.passes for s in p["setups"]]
        return self.speed_factor() * statistics.median(values), len(values)

    def end_to_end(self):
        factor = self.speed_factor()
        metrics = {}
        for protocol in workloads.PROTOCOLS:
            value, n = self.run_s(protocol)
            metrics["run_s." + protocol] = (value, "s", n)
        n = len(self.passes)
        metrics["sweep_s"] = (factor * statistics.median(
            p["sweep_s"] for p in self.passes), "s", n)
        value, count = self.setup_median("setup_s")
        metrics["setup_s"] = (value, "s", count)
        metrics["peak_rss_mb"] = (
            statistics.median(p["peak_rss_mb"] for p in self.passes), "MB", n)
        return metrics

    def per_layer(self):
        calls = self.traced["calls"]
        factor = self.speed_factor()
        self_s = {k: factor * v for k, v in self.traced["self_s"].items()}
        gate_runs = self.gate["runs"]

        def total(key, runs=gate_runs):
            return sum(r["totals"][key] for r in runs)

        def ratio(a, b):
            return a / b if b else 0.0

        untraced_s = sum(self.run_s(p)[0] for p in workloads.PROTOCOLS)
        traced_s = factor * sum(r["run_s"] for r in self.traced["runs"])
        events = self.traced["events"]
        transmits = calls.get("phy.transmit", 0)
        receptions = calls.get("phy.rx_end", 0)
        errored = total("signals_received_with_errors")
        clean = total("signals_received_without_errors")
        success = calls.get("mac.unicast_success", 0)
        failure = calls.get("mac.unicast_failure", 0)
        sent, received = total("app_sent"), total("app_received")
        m = {
            "engine.events": (events, "count"),
            "engine.cancels": (calls.get("engine.cancels", 0), "count"),
            "engine.dispatch_self_s": (self_s.get("engine.dispatch", 0.0),
                                       "s"),
            "engine.events_per_s": (ratio(events, untraced_s), "1/s"),
            "phy.transmit.calls": (transmits, "count"),
            "phy.transmit.self_s": (self_s.get("phy.transmit", 0.0), "s"),
            "phy.frame_end.self_s": (self_s.get("phy.rx_end", 0.0)
                                     + self_s.get("phy.tx_end", 0.0), "s"),
            "phy.receptions": (receptions, "count"),
            "phy.rx_error_ratio": (ratio(errored, errored + clean), "ratio"),
            "phy.in_range_ratio": (ratio(
                receptions, transmits * (self.gate["num_nodes"] - 1)),
                "ratio"),
            "mac.enqueue.calls": (calls.get("mac.enqueue", 0), "count"),
            "mac.observe_frame.self_s": (
                self_s.get("mac.observe_frame", 0.0), "s"),
            "mac.timer.events": (calls.get("mac.timer", 0), "count"),
            "mac.timer.self_s": (self_s.get("mac.timer", 0.0), "s"),
            "mac.queue_drops": (total("queue_drops"), "count"),
            "mac.unicast_drops": (total("mac_unicast_drops"), "count"),
            "mac.unicast_success_ratio": (ratio(success, success + failure),
                                          "ratio"),
        }
        for p in workloads.PROTOCOLS:
            runs = [r for r in gate_runs if r["protocol"] == p]
            m["routing.on_receive.self_s." + p] = (
                self_s.get("routing.on_receive." + p, 0.0), "s")
            m["routing.timer.self_s." + p] = (
                self_s.get("routing.timer." + p, 0.0), "s")
            m["routing.upcall.self_s." + p] = (
                self_s.get("routing.upcall." + p, 0.0), "s")
            m["routing.control_sent." + p] = (
                sum(r["control_sent"] for r in runs), "count")
            m["routing.route_drops." + p] = (total("route_drops", runs),
                                             "count")
        attributed = sum(self_s.values())
        traced_wall = factor * self.traced["sweep_s"]
        m.update({
            "traffic.app_sent": (sent, "count"),
            "traffic.app_received": (received, "count"),
            "traffic.delivery_ratio": (ratio(received, sent), "ratio"),
            "traffic.tick.self_s": (self_s.get("traffic.tick", 0.0), "s"),
            "mobility.ticks": (calls.get("mobility.tick", 0), "count"),
            "mobility.tick.self_s": (self_s.get("mobility.tick", 0.0), "s"),
            "metrics.to_csv_s": (self_s.get("metrics.to_csv", 0.0), "s"),
            "cli.compare_overhead_s": (factor * statistics.median(
                p["sweep_s"] - sum(r["run_s"] for r in p["runs"])
                for p in self.passes), "s"),
            "scenario.load_s": (self.setup_median("load_s")[0], "s"),
            "simulation.build_s": (self.setup_median("build_s")[0], "s"),
            "trace.overhead_ratio": (ratio(traced_s, untraced_s), "ratio"),
            "trace.unattributed_ratio": (
                ratio(traced_wall - attributed, traced_wall), "ratio"),
        })
        return {k: (v, u, None) for k, (v, u) in m.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "vanetsim", "__init__.py")):
        print("error: run from the root of a vanetsim checkout "
              "(src/vanetsim not found)", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds, args.trace)
    work = os.path.join(WORK_DIR, "%s-seed%d-%d" % (
        args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    try:
        bench.run(work)
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    except ChildFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    with open(os.path.join(WORK_DIR, "digests-%s-seed%d.json"
                           % (args.workload, args.seed)), "w") as fh:
        json.dump({"%s-seed%d" % key: sha
                   for key, sha in sorted(bench.reference.items())},
                  fh, indent=1, sort_keys=True)
    report(bench, metrics)
    return 0


def report(bench, metrics):
    print("workload %s, seed %d: %d runs per pass, %d timed passes, "
          "%d set-ups%s" % (bench.workload, bench.seed, len(bench.grid),
                            len(bench.passes),
                            bench.setup_median("setup_s")[1],
                            ", traced" if bench.trace else ""))
    print("host speed: reference.py took %.4f s (median of %d) against "
          "%.2f s nominal; times below are scaled by %.4f"
          % (REFERENCE_S / bench.speed_factor(),
             sum(len(p["references"]) for p in bench.passes), REFERENCE_S,
             bench.speed_factor()))
    for (protocol, seed), sha in sorted(bench.reference.items()):
        print("digest %s %s seed %d metrics.csv sha256 %s"
              % (bench.workload, protocol, seed, sha))
    for name, (value, unit, n) in metrics.items():
        print("%-32s %14.6f %-5s%s" % (name, value, unit,
                                       "  (median of %d)" % n if n else ""))
    print("%-32s %14.6f %-5s  (%d failed of %d attempted runs)" % (
        "fail_share", bench.failed / bench.attempted, "ratio",
        bench.failed, bench.attempted))
    for why in bench.problems:
        print("FAIL: %s" % why)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
