"""Command-line front end: validate, run, and compare scenarios."""

import argparse
import json
import os
import sys

from .engine import SimulationError, dispatch_profile
from .metrics import compare as compare_runs
from .metrics import ranking_csv, rank_summary
from .scenario import PROTOCOLS, ScenarioError, load_scenario
from .simulation import Simulation

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INTERNAL = 2


def _unique(items, what):
    """The items in first-seen order; each repeat is dropped with a warning."""
    for i, item in enumerate(items):
        if item in items[:i]:
            print("warning: duplicate %s %s ignored" % (what, item),
                  file=sys.stderr)
    return list(dict.fromkeys(items))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            try:
                lo, hi = (int(bound) for bound in part.split("..", 1))
            except ValueError:
                raise ValueError("bad seed range %r" % part) from None
            if lo > hi:
                raise ValueError("seed range %s runs backwards" % part)
            seeds.extend(range(lo, hi + 1))
        elif part:
            seeds.append(int(part))
    if not seeds:
        raise ValueError("empty seed list")
    return _unique(seeds, "seed")


def _write(path, content):
    with open(path, "w") as fh:
        fh.write(content)


def _execute(config, protocol, seed, out_dir, profile_path=None):
    simulation = Simulation(config, protocol=protocol, seed=seed)
    if profile_path:
        simulation.sim.profile = {}
    ledger = simulation.run()
    os.makedirs(out_dir, exist_ok=True)  # the profile may be written there
    if profile_path:
        _write(profile_path, json.dumps({
            "protocol": ledger.protocol,
            "seed": ledger.seed,
            "scenario_id": ledger.scenario_id,
            "scheduled": simulation.sim._seq,
            "layers": dispatch_profile(simulation.sim.profile),
        }, indent=2) + "\n")
    _write(os.path.join(out_dir, "metrics.csv"), ledger.to_csv())
    _write(os.path.join(out_dir, "scenario_resolved.cfg"),
           simulation.config.echo())
    control = {}  # each agent and MAC stats counter, summed over the nodes
    for node in simulation.nodes.values():
        for stats in (node.agent.stats, node.mac.stats):
            for name, n in stats.items():
                control[name] = control.get(name, 0) + n
    summary = {
        "protocol": ledger.protocol,
        "seed": ledger.seed,
        "scenario_id": ledger.scenario_id,
        "sim_time_us": ledger.sim_time_us,
        "wallclock_s": round(ledger.wallclock_s, 3),
        "totals": ledger.totals(),
        "control": control,
    }
    _write(os.path.join(out_dir, "run.json"),
           json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def cmd_validate(args):
    load_scenario(args.scenario)
    print("ok")
    return EXIT_OK


def cmd_run(args):
    config = load_scenario(args.scenario)
    protocol = args.protocol or config.protocol
    seed = args.seed if args.seed is not None else config.seed
    out_dir = args.out or "runs/%s-seed%d" % (protocol, seed)
    summary = _execute(config, protocol, seed, out_dir, args.profile)
    print("run complete: protocol=%s seed=%d out=%s"
          % (summary["protocol"], summary["seed"], out_dir))
    return EXIT_OK


def cmd_compare(args):
    config = load_scenario(args.scenario)
    protocols = _unique([proto.strip() for proto in args.protocols.split(",")
                         if proto.strip()], "protocol")
    for proto in protocols:
        if proto not in PROTOCOLS:
            raise ScenarioError("protocol: unknown protocol %r" % proto)
    if len(protocols) < 2:
        raise ScenarioError("protocols: need at least two to compare")
    seeds = parse_seeds(args.seeds)
    out_dir = args.out or "compare-out"
    records = []
    for proto in protocols:
        for seed in seeds:
            run_dir = os.path.join(out_dir, "%s-seed%d" % (proto, seed))
            records.append(_execute(config, proto, seed, run_dir))
    report = compare_runs(records)
    _write(os.path.join(out_dir, "ranking.csv"), ranking_csv(report))
    summary = rank_summary(report)
    _write(os.path.join(out_dir, "rank_summary.txt"), summary)
    print(summary, end="")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vanetsim",
        description="Deterministic VANET simulator: 802.11 DCF with AODV, "
                    "DYMO, OLSR and ZRP routing.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a scenario file")
    p.add_argument("scenario")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("run", help="execute one simulation")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--protocol", choices=PROTOCOLS, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--profile", metavar="FILE", default=None,
                   help="write each event callback's dispatch count and "
                        "wall time, by layer, to FILE as JSON")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("compare",
                       help="run a protocol x seed sweep and rank results")
    p.add_argument("scenario")
    p.add_argument("--protocols", required=True,
                   help="comma-separated list, e.g. aodv,dymo,olsr,zrp")
    p.add_argument("--seeds", required=True,
                   help="comma list and/or ranges, e.g. 1..10")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_compare)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ScenarioError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except SimulationError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
