"""Benchmark workloads, written as plain scenario files.

Each workload is a scenario file plus the protocol x seed grid that one
timed pass sweeps with `vanetsim compare`. Why each workload exists, and
which layer it loads, is recorded in BENCHMARK.json and perfbench/README.md.
"""

import os
import random

PROTOCOLS = ("aodv", "dymo", "olsr", "zrp")
NAMES = ("table1", "dense", "grid", "smoke")

TABLE1_CFG = os.path.join("src", "vanetsim", "scenarios", "table1.cfg")

# Radio, MAC and battery keys shared with table1.cfg, so `dense` and `grid`
# differ from the paper's baseline only in topology, motion and traffic.
TABLE1_RADIO = """\
frequency_hz = 2.4e9
bitrate_bps = 2000000
tx_power_dbm = 15.0
antenna_height_m = 1.5
rx_threshold_dbm = -75.0
max_range_m = 100
capacity_mah = 1500
tx_ma = 280
rx_ma = 180
idle_ma = 1
voltage_v = 3.0
"""

DENSE_NODES = 40
DENSE_SIDE_M = 600
DENSE_SESSIONS = 10
DENSE_SIM_S = 30

GRID_SIDE = 5
GRID_SPACING_M = 80
GRID_SIM_S = 10


def _moving(name, nodes, side_m, sessions, sim_s):
    """Random-waypoint motion and CBR sessions, drawn once and written out.

    Every node's legs (uniform destination, uniform 3-20 m/s speed, no
    pause) and the session endpoints come from a generator seeded by the
    workload's name alone, so the scenario file is the same for every
    benchmark seed. Left to the simulation seed, the layout alone moves
    the host time of a `dense` run by 30-60 % from seed to seed, which
    would hide the changes this benchmark exists to measure.
    """
    rng = random.Random("perfbench:" + name)
    lines = [
        "# %s: %d random-waypoint nodes on %d x %d m, %d CBR sessions"
        % (name, nodes, side_m, side_m, sessions),
        "terrain_width_m = %d" % side_m,
        "terrain_height_m = %d" % side_m,
        "sim_time_s = %d" % sim_s,
        "num_nodes = %d" % nodes,
        "payload_bytes = 512",
        "interval_ms = 250",
    ]
    for nid in range(nodes):
        x, y = rng.uniform(0, side_m), rng.uniform(0, side_m)
        legs = ["%.1f,%.1f" % (x, y)]
        t = 0.0
        while t < sim_s:
            nx, ny = rng.uniform(0, side_m), rng.uniform(0, side_m)
            speed = rng.uniform(3, 20)
            t += ((nx - x) ** 2 + (ny - y) ** 2) ** 0.5 / speed
            x, y = nx, ny
            legs.append("%.1f,%.1f,%.2f" % (x, y, speed))
        lines.append("waypoints.%d = %s" % (nid, ";".join(legs)))
    pairs = []
    while len(pairs) < sessions:
        pair = tuple(rng.sample(range(nodes), 2))
        if pair not in pairs:
            pairs.append(pair)
    lines += ["session = %d,%d" % p for p in pairs]
    return "\n".join(lines) + "\n" + TABLE1_RADIO


def _grid():
    """Static 5 x 5 grid; 8 fixed sessions cross it edge to edge.

    Rows and columns 0, 1, 3 and 4 each carry one four-hop session from one
    edge to the opposite one, alternating direction.
    """
    n = GRID_SIDE
    margin = GRID_SPACING_M // 2
    side_m = 2 * margin + (n - 1) * GRID_SPACING_M
    lines = [
        "# grid: static %d x %d nodes %d m apart, 8 cross-grid sessions of"
        " 512 B every 20 ms (RTS/CTS)" % (n, n, GRID_SPACING_M),
        "terrain_width_m = %d" % side_m,
        "terrain_height_m = %d" % side_m,
        "sim_time_s = %d" % GRID_SIM_S,
        "num_nodes = %d" % (n * n),
        "payload_bytes = 512",
        "interval_ms = 20",
    ]
    for r in range(n):
        for c in range(n):
            lines.append("position.%d = %d,%d" % (
                r * n + c, margin + c * GRID_SPACING_M,
                margin + r * GRID_SPACING_M))
    for i in (0, 1, 3, 4):
        row = (i * n, i * n + n - 1)
        column = (i, (n - 1) * n + i)
        for src, dst in (row, column):
            lines.append("session = %d,%d" % ((src, dst) if i % 2 == 0
                                              else (dst, src)))
    return "\n".join(lines) + "\n" + TABLE1_RADIO


def write_scenario(name, seed, out_dir):
    """Write the workload's scenario file; return (path, protocols, seeds).

    One timed pass sweeps the four protocols over the returned simulation
    seeds. The benchmark seed is the simulation seed, except on `grid`:
    there OLSR's host time swings by 30 % with the backoff draws alone, as
    its routes flap under saturation, so `grid` always runs seed 1.
    """
    seeds = (seed,)
    if name == "table1":
        with open(TABLE1_CFG) as fh:
            text = fh.read()
    elif name == "dense":
        text = _moving("dense", DENSE_NODES, DENSE_SIDE_M, DENSE_SESSIONS,
                       DENSE_SIM_S)
    elif name == "grid":
        text = _grid()
        seeds = (1,)
    elif name == "smoke":
        text = _moving("smoke", 8, 250, 3, 3)
    else:
        raise ValueError("unknown workload %r (choose from %s)"
                         % (name, ", ".join(NAMES)))
    path = os.path.join(out_dir, "%s.cfg" % name)
    with open(path, "w") as fh:
        fh.write(text)
    return path, PROTOCOLS, seeds
