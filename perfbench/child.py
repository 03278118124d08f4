"""One benchmark pass, run in a fresh interpreter from the checkout root.

    python3 perfbench/child.py MODE SCENARIO PROTOCOLS SEEDS [ARG]

ARG is the output directory of `pass` and `traced`, and the spawn time of
`setup`.

MODE is one of:
  setup   import vanetsim, load the scenario and build every Simulation of
          the grid, up to the first event; report the time since the
          parent spawned this interpreter.
  gate    run the grid in process, check invariants, digest to_csv() bytes.
  pass    time one `vanetsim compare` over the grid (the timed pass).
  traced  the same compare call with tracer.py's wrappers installed.

The last line of standard output is one JSON object for the parent.
"""

import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

from vanetsim.cli import main  # noqa: E402
from vanetsim.scenario import load_scenario  # noqa: E402
from vanetsim.simulation import Simulation  # noqa: E402


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def expected_app_sent(session):
    """CBR packets a session emits in [start, stop): one per interval."""
    span = session.stop_us - session.start_us
    if span <= 0:
        return 0
    return -(-span // session.interval_us)


def check_invariants(ledger, sessions):
    """Return a list of broken invariants (empty when the run is sound)."""
    broken = []
    for s in sessions:
        c = ledger.session[s.session_id]
        if c.app_received > c.app_sent:
            broken.append("session %d: app_received %d > app_sent %d"
                          % (s.session_id, c.app_received, c.app_sent))
        want = expected_app_sent(s)
        if c.app_sent != want:
            broken.append("session %d: app_sent %d, schedule implies %d"
                          % (s.session_id, c.app_sent, want))
    for nid, c in ledger.node.items():
        total = c.tx_time_us + c.rx_time_us + c.idle_time_us
        if total != ledger.sim_time_us:
            broken.append("node %d: tx+rx+idle %d != sim_time_us %d"
                          % (nid, total, ledger.sim_time_us))
    return broken


def grid(protocols, seeds):
    return [(p, s) for p in protocols for s in seeds]


def mode_setup(path, protocols, seeds, spawned_at):
    """spawned_at is the parent's time.monotonic() just before it started
    this interpreter; CLOCK_MONOTONIC is shared by every process on the
    host, so setup_s covers interpreter start-up and every import."""
    t0 = time.perf_counter()
    config = load_scenario(path)
    t1 = time.perf_counter()
    for protocol, seed in grid(protocols, seeds):
        Simulation(config, protocol=protocol, seed=seed)
    t2 = time.perf_counter()
    return {"setup_s": time.monotonic() - float(spawned_at),
            "load_s": t1 - t0, "build_s": t2 - t1}


def mode_gate(path, protocols, seeds):
    if main(["validate", path]) != 0:
        return {"valid": False, "runs": []}
    config = load_scenario(path)
    runs = []
    for protocol, seed in grid(protocols, seeds):
        run = {"protocol": protocol, "seed": seed}
        simulation = Simulation(config, protocol=protocol, seed=seed)
        try:
            ledger = simulation.run()
        except Exception as exc:  # a raising run is a counted failure
            run["violations"] = ["raised %r" % exc]
            runs.append(run)
            continue
        run["digest"] = digest(ledger.to_csv())
        run["violations"] = check_invariants(ledger, simulation.sessions)
        run["totals"] = ledger.totals()
        run["control_sent"] = sum(node.agent.stats.get("control_sent", 0)
                                  for node in simulation.nodes.values())
        run["run_s"] = ledger.wallclock_s
        runs.append(run)
    return {"valid": True, "num_nodes": config.num_nodes, "runs": runs}


def sweep(path, protocols, seeds, out_dir):
    """One `vanetsim compare` call; read back what it wrote."""
    argv = ["compare", path, "--protocols", ",".join(protocols),
            "--seeds", ",".join(str(s) for s in seeds), "--out", out_dir]
    t0 = time.perf_counter()
    code = main(argv)
    sweep_s = time.perf_counter() - t0
    runs = []
    for protocol, seed in grid(protocols, seeds):
        run_dir = os.path.join(out_dir, "%s-seed%d" % (protocol, seed))
        with open(os.path.join(run_dir, "run.json")) as fh:
            summary = json.load(fh)
        with open(os.path.join(run_dir, "metrics.csv")) as fh:
            csv = fh.read()
        runs.append({"protocol": protocol, "seed": seed,
                     "run_s": summary["wallclock_s"], "digest": digest(csv)})
    return {"exit_code": code, "sweep_s": sweep_s, "runs": runs}


def mode_pass(path, protocols, seeds, out_dir):
    result = sweep(path, protocols, seeds, out_dir)
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    return result


def mode_traced(path, protocols, seeds, out_dir):
    import tracer  # this file's directory is sys.path[0]
    tr = tracer.install()
    try:
        result = sweep(path, protocols, seeds, out_dir)
    finally:
        tr.uninstall()
    result["leftover_wrappers"] = tracer.leftovers()
    result["events"] = tr.events()
    result["calls"] = dict(tr.calls)
    result["self_s"] = dict(tr.self_s)
    return result


MODES = {"setup": mode_setup, "gate": mode_gate, "pass": mode_pass,
         "traced": mode_traced}


def run_child(argv):
    mode, path, protocols, seeds = argv[:4]
    protocols = protocols.split(",")
    seeds = [int(s) for s in seeds.split(",")]
    import vanetsim
    src = os.path.join(ROOT, "src", "")
    if not os.path.abspath(vanetsim.__file__).startswith(src):
        raise SystemExit("vanetsim imported from %s, not %s"
                         % (vanetsim.__file__, src))
    result = MODES[mode](path, protocols, seeds, *argv[4:])
    print(json.dumps(result))


if __name__ == "__main__":
    run_child(sys.argv[1:])
