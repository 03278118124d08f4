"""Scenario parsing/validation and the command-line front end."""

import hashlib
import json
import os
import re
import time
from types import SimpleNamespace

import pytest

import vanetsim
from vanetsim import cli, simulation
from vanetsim.cli import main, parse_seeds
from vanetsim.scenario import (ScenarioConfig, ScenarioError, load_scenario,
                               parse_scenario)
from vanetsim.simulation import Simulation

import test_golden
from conftest import dispatch_counts

BUNDLED = os.path.join(os.path.dirname(vanetsim.__file__),
                       "scenarios", "table1.cfg")


def test_bundled_scenario_loads_with_expected_defaults():
    cfg = load_scenario(BUNDLED)
    assert cfg.terrain_width_m == 1500.0
    assert cfg.terrain_height_m == 1500.0
    assert cfg.sim_time_s == 3000.0
    assert cfg.num_nodes == 15
    assert (cfg.speed_min_mps, cfg.speed_max_mps) == (3.0, 20.0)
    assert cfg.sessions == 5
    assert cfg.payload_bytes == 512
    assert cfg.interval_ms == 250.0
    assert cfg.bitrate_bps == 2_000_000
    assert cfg.frequency_hz == 2.4e9
    assert cfg.max_range_m == 100.0
    assert cfg.capacity_mah == 1500.0


def test_defaults_match_bundled_scenario():
    assert ScenarioConfig().validate().scenario_id() == \
        load_scenario(BUNDLED).scenario_id()


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ScenarioError, match="line 2"):
        parse_scenario("seed = 1\nbogus_key = 7\n")


def test_missing_equals_rejected():
    with pytest.raises(ScenarioError, match="key = value"):
        parse_scenario("just some words\n")


def test_unparseable_value_names_the_key():
    with pytest.raises(ScenarioError, match="num_nodes"):
        parse_scenario("num_nodes = fifteen\n")


@pytest.mark.parametrize("line,key", [
    ("speed_min_mps = 25\nspeed_max_mps = 20", "speed_min_mps"),
    ("zone_radius = 0", "zone_radius"),
    ("difs_us = 60", "difs_us"),
    ("protocol = dsr", "protocol"),
    ("num_nodes = 0", "num_nodes"),
    ("session = 0,99", "session"),
    ("session = 3,3", "session"),
    ("position.0 = 2000,100", "position.0"),
    ("position.99 = 10,10", "position"),
    ("cw_min = 1023", "cw_min"),
    ("sim_time_s = inf", "sim_time_s"),
    ("interval_ms = inf", "interval_ms"),
    ("tx_power_dbm = nan", "tx_power_dbm"),
    ("rx_threshold_dbm = nan", "rx_threshold_dbm"),
    ("mobility_tick_ms = 0", "mobility_tick_ms"),
    ("mobility_tick_ms = -5", "mobility_tick_ms"),
    ("hello_interval_s = 1e-7", "hello_interval_s"),
    ("interval_ms = 1e-4", "interval_ms"),
    ("phy_overhead_us = -500", "phy_overhead_us"),
    ("sifs_us = -10", "sifs_us"),
    ("slot_us = 0\nsifs_us = 0", "slot_us"),
    ("cw_min = -1", "cw_min"),
    ("frequency_hz = 0", "frequency_hz"),
    ("antenna_height_m = 0", "antenna_height_m"),
    ("tx_ma = -280", "tx_ma"),
    ("rx_ma = -180", "rx_ma"),
    ("idle_ma = -1", "idle_ma"),
    ("num_nodes = 2\nsessions = 3", "sessions"),
    ("waypoints.0 = 10,10;nan,20", "waypoints.0"),
    ("waypoints.0 = 10,10;50,10,0", "waypoints.0"),
    ("waypoints.0 = 10,10;50,10,-5", "waypoints.0"),
    ("waypoints.0 = 10,10;50,10,inf", "waypoints.0"),
    ("waypoints.0 = 10,10;5000,20", "waypoints.0"),
    ("waypoints.0 = 10,10;ten,20", "waypoints.0"),
    # with no position.N the first waypoint is the start and has no speed
    ("waypoints.0 = 10,10,5;50,10", "waypoints.0"),
    ("waypoints.3 = 10,10,5", "waypoints.3"),
    ("position.0 = 1,1\nwaypoints.1 = 10,10,5;50,10,2", "waypoints.1"),
    # legs whose length or duration in us would overflow
    ("speed_min_mps = 1e-300\nspeed_max_mps = 1e-300", "speed_min_mps"),
    ("terrain_width_m = 1e160", "terrain_width_m"),
    ("terrain_height_m = 1e160", "terrain_height_m"),
    ("position.0 = 0,0\nwaypoints.0 = 1500,1500,1e-303", "waypoints.0"),
    ("terrain_width_m = 0", "terrain_width_m"),
    ("sim_time_s = -1", "sim_time_s"),
    ("pause_s = -0.5", "pause_s"),
    ("sessions = -1", "sessions"),
    ("payload_bytes = 0", "payload_bytes"),
    ("capacity_mah = 0", "capacity_mah"),
    ("num_nodes = 1\nsessions = 1", "num_nodes"),
    ("session = a,b", "session"),
    ("position.0 = 10", "position.0"),
    ("position.x = 10,10", "position.x"),
    ("waypoints.0 = 10,10;1,2,3,4", "waypoints.0"),
])
def test_validation_failures_name_offending_key(line, key):
    with pytest.raises(ScenarioError, match=key):
        parse_scenario(line + "\n")


# Settings fixed by 802.11 DSSS or by one value in use; they are module
# constants now, so a scenario may not set them, not even to that value.
@pytest.mark.parametrize("key,old_default", [
    ("mobility_tick_ms", "100.0"),
    ("phy_overhead_us", "192"),
    ("slot_us", "20"),
    ("sifs_us", "10"),
    ("cw_min", "31"),
    ("cw_max", "1023"),
    ("retry_limit", "7"),
    ("queue_depth", "50"),
    ("tc_interval_s", "5.0"),
    ("route_lifetime_s", "10.0"),
])
def test_fixed_settings_are_refused_as_unknown_keys(key, old_default):
    with pytest.raises(ScenarioError, match="unknown key '%s'" % key):
        parse_scenario("%s = %s\n" % (key, old_default))


def test_every_distinct_pair_can_be_drawn():
    config = ScenarioConfig(num_nodes=60, sessions=60 * 59, sim_time_s=1.0)
    simulation = Simulation(config)
    pairs = {(s.src, s.dst) for s in simulation.sessions}
    assert len(pairs) == 60 * 59
    assert all(src != dst for src, dst in pairs)


def test_comments_and_blank_lines_ignored():
    cfg = parse_scenario("# header\n\nseed = 9  # trailing\n")
    assert cfg.seed == 9


def test_session_position_and_waypoint_parsing():
    cfg = parse_scenario(
        "num_nodes = 3\n"
        "session = 0,2\n"
        "position.0 = 10,20\n"
        "position.1 = 30.5,40\n"
        "waypoints.2 = 100,200; 300,400,5\n")
    assert cfg.explicit_sessions == [(0, 2)]
    assert cfg.positions[0] == (10.0, 20.0)
    assert cfg.positions[1] == (30.5, 40.0)
    assert cfg.waypoints[2] == [(100.0, 200.0, None), (300.0, 400.0, 5.0)]


def test_echo_round_trips_to_identical_config():
    cfg = parse_scenario(
        "num_nodes = 4\nseed = 7\nprotocol = olsr\n"
        "session = 0,3\nposition.1 = 5,6\nwaypoints.2 = 1,2;3,4,5\n")
    again = parse_scenario(cfg.echo())
    assert again == cfg
    assert again.echo() == cfg.echo()


def test_scenario_id_ignores_protocol_and_seed():
    base = ScenarioConfig().validate()
    other = parse_scenario("protocol = zrp\nseed = 42\n")
    assert base.scenario_id() == other.scenario_id()
    changed = parse_scenario("terrain_width_m = 1000\n")
    assert changed.scenario_id() != base.scenario_id()


def test_load_scenario_missing_file():
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario("/no/such/file.cfg")


def test_parse_seeds_ranges_and_lists():
    assert parse_seeds("1..4") == [1, 2, 3, 4]
    assert parse_seeds("7") == [7]
    assert parse_seeds("1,3..5, 9") == [1, 3, 4, 5, 9]
    assert parse_seeds("1,1..3") == [1, 2, 3]
    assert parse_seeds("4,2,4..5,2") == [4, 2, 5]
    with pytest.raises(ValueError):
        parse_seeds("")
    with pytest.raises(ValueError, match=r"5\.\.1"):
        parse_seeds("5..1")
    for bad in ("5..", "..5", "1..2..3", "a..b"):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            parse_seeds(bad)


def test_parse_seeds_warns_of_each_repeat_in_order_in_linear_time(capsys):
    assert parse_seeds("4,2,4..5,2") == [4, 2, 5]
    assert capsys.readouterr().err == ("warning: duplicate seed 4 ignored\n"
                                       "warning: duplicate seed 2 ignored\n")
    start = time.perf_counter()
    assert parse_seeds("1..100000") == list(range(1, 100_001))
    assert time.perf_counter() - start < 0.5


# -- CLI ------------------------------------------------------------------


def write_cfg(tmp_path, extra=""):
    path = tmp_path / "scenario.cfg"
    path.write_text("num_nodes = 3\nsim_time_s = 2\nsessions = 0\n"
                    "position.0 = 100,100\nposition.1 = 160,100\n"
                    "position.2 = 220,100\nsession = 0,2\n" + extra)
    return str(path)


def test_cli_validate_ok(tmp_path, capsys):
    assert main(["validate", write_cfg(tmp_path)]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_cli_validate_rejects_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("zone_radius = 0\n")
    assert main(["validate", str(path)]) == 1
    assert "zone_radius" in capsys.readouterr().err


def test_cli_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", write_cfg(tmp_path), "--seed", "3",
                 "--protocol", "aodv", "--out", str(out)])
    assert code == 0
    csv_text = (out / "metrics.csv").read_text()
    assert csv_text.startswith("scope,id,metric,value\n")
    resolved = (out / "scenario_resolved.cfg").read_text()
    assert "protocol = aodv" in resolved and "seed = 3" in resolved
    summary = json.loads((out / "run.json").read_text())
    assert summary["protocol"] == "aodv" and summary["seed"] == 3
    assert summary["sim_time_us"] == 2_000_000
    assert summary["totals"]["app_sent"] > 0


def test_cli_run_json_sums_the_agents_control_counters(tmp_path,
                                                      monkeypatch):
    built = []

    class Recorded(Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(cli, "Simulation", Recorded)
    out = tmp_path / "out"
    assert main(["run", write_cfg(tmp_path), "--protocol", "aodv",
                 "--out", str(out)]) == 0
    control = json.loads((out / "run.json").read_text())["control"]
    agents = [node.agent for node in built[0].nodes.values()]
    assert control["rreq_sent"] == sum(a.stats.get("rreq_sent", 0)
                                       for a in agents) > 0
    assert list(control) == sorted(control)


# The frames that flat radios refused on golden dense_drained at seed 1,
# the only pinned runs where radios run flat.
RADIO_REFUSED = {"aodv": 109, "dymo": 104, "olsr": 56, "zrp": 141}


@pytest.mark.parametrize("protocol", sorted(RADIO_REFUSED))
def test_cli_run_json_counts_the_frames_flat_radios_refused(tmp_path,
                                                           protocol):
    path = tmp_path / "drained.cfg"
    path.write_text(test_golden.scenario("dense_drained").echo())
    out = tmp_path / "out"
    assert main(["run", str(path), "--protocol", protocol, "--seed", "1",
                 "--out", str(out)]) == 0
    control = json.loads((out / "run.json").read_text())["control"]
    assert control["radio_refused"] == RADIO_REFUSED[protocol]
    # the count moves no byte of metrics.csv
    digest = hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest()
    assert digest == test_golden.pinned("dense_drained")[protocol]["1"]


def test_cli_run_json_counts_no_refused_frame_while_radios_hold_charge(
        tmp_path):
    out = tmp_path / "out"
    assert main(["run", write_cfg(tmp_path), "--protocol", "aodv",
                 "--out", str(out)]) == 0
    control = json.loads((out / "run.json").read_text())["control"]
    assert "radio_refused" not in control


def test_cli_internal_error_exits_2(tmp_path, capsys, monkeypatch):
    class Breached(Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            # node 0's charge is stamped past the end of the run
            self.nodes[0]._last_account_us = 10 ** 12

    monkeypatch.setattr(cli, "Simulation", Breached)
    code = main(["run", write_cfg(tmp_path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_INTERNAL == 2
    err = capsys.readouterr().err
    assert err == "internal error: power accounting moved backwards\n"


@pytest.mark.parametrize("case", ("out", "profile", "compare"))
def test_cli_unwritable_output_is_one_error_line_and_exits_1(tmp_path, capsys,
                                                            monkeypatch, case):
    ran = []
    run = Simulation.run
    monkeypatch.setattr(Simulation, "run",
                        lambda self: ran.append(self) or run(self))
    cfg = write_cfg(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = {"out": ["run", cfg, "--out", str(taken)],
            "profile": ["run", cfg, "--out", str(tmp_path / "out"),
                        "--profile", str(tmp_path / "nodir" / "p.json")],
            "compare": ["compare", cfg, "--protocols", "aodv,olsr",
                        "--seeds", "1", "--out", str(taken)]}[case]
    assert main(argv) == cli.EXIT_VALIDATION == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    # the run directory is made before the run; the profile is written after
    assert len(ran) == (case == "profile")


def test_cli_run_is_reproducible(tmp_path):
    cfg = write_cfg(tmp_path)
    main(["run", cfg, "--out", str(tmp_path / "a")])
    main(["run", cfg, "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "metrics.csv").read_text() == \
        (tmp_path / "b" / "metrics.csv").read_text()


def test_cli_profile_repeats_and_leaves_the_run_files_alone(tmp_path,
                                                            monkeypatch):
    # wallclock_s is run.json's one timed field: a stopped clock makes the
    # files of two runs comparable byte for byte
    monkeypatch.setattr(simulation, "time",
                        SimpleNamespace(perf_counter=lambda: 0.0))
    cfg = write_cfg(tmp_path, "sim_time_s = 20\n")
    outputs = []
    for name in ("plain", "first", "second"):
        argv = ["run", cfg, "--protocol", "olsr",
                "--out", str(tmp_path / name)]
        if name != "plain":
            argv += ["--profile", str(tmp_path / (name + ".json"))]
        assert main(argv) == 0
        outputs.append([(tmp_path / name / f).read_bytes()
                        for f in ("metrics.csv", "run.json")])
    assert outputs[0] == outputs[1] == outputs[2]
    profiles = [json.loads((tmp_path / name).read_text())
                for name in ("first.json", "second.json")]
    counts = [dispatch_counts(p["layers"]) for p in profiles]
    assert counts[0] == counts[1]
    layers = profiles[0]["layers"]
    assert {"engine", "mac", "phy", "routing", "traffic"} <= set(layers)
    # a HELLO every 2 s at phases of 0, 10 and 20 ms, node 0's also at 20 s
    assert counts[0]["routing"]["OlsrAgent._hello_tick"] == 11 + 10 + 10
    assert (profiles[0]["protocol"], profiles[0]["seed"]) == ("olsr", 1)
    dispatched = sum(e["dispatches"] for layer, e in layers.items()
                     if layer != "engine")
    assert dispatched <= layers["engine"]["dispatches"] \
        <= profiles[0]["scheduled"]


def test_cli_profile_may_go_into_the_run_directory(tmp_path):
    out = tmp_path / "absent"
    cfg = write_cfg(tmp_path, "sim_time_s = 2\n")
    assert main(["run", cfg, "--out", str(out),
                 "--profile", str(out / "profile.json")]) == 0
    assert json.loads((out / "profile.json").read_text())["layers"]
    for name in ("metrics.csv", "scenario_resolved.cfg", "run.json"):
        assert (out / name).exists()


def test_cli_compare_ranks_and_writes_outputs(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(["compare", write_cfg(tmp_path),
                 "--protocols", "aodv,olsr", "--seeds", "1,2",
                 "--out", str(out)])
    assert code == 0
    ranking = (out / "ranking.csv").read_text().splitlines()
    assert ranking[0] == "metric,protocol,mean,rank"
    assert (out / "rank_summary.txt").exists()
    assert (out / "aodv-seed1" / "run.json").exists()
    assert (out / "olsr-seed2" / "metrics.csv").exists()


def test_cli_compare_rejects_unknown_protocol(tmp_path, capsys):
    code = main(["compare", write_cfg(tmp_path),
                 "--protocols", "aodv,dsr", "--seeds", "1"])
    assert code == 1
    assert "dsr" in capsys.readouterr().err


def test_cli_compare_needs_two_distinct_protocols(tmp_path, capsys):
    code = main(["compare", write_cfg(tmp_path),
                 "--protocols", "aodv,aodv", "--seeds", "1",
                 "--out", str(tmp_path / "dup")])
    assert code == 1
    err = capsys.readouterr().err
    assert "duplicate" in err and "at least two" in err


def test_cli_compare_runs_a_repeated_seed_once(tmp_path, capsys,
                                              monkeypatch):
    runs = []
    execute = cli._execute

    def counted(config, protocol, seed, out_dir):
        runs.append((protocol, seed))
        return execute(config, protocol, seed, out_dir)

    monkeypatch.setattr(cli, "_execute", counted)
    code = main(["compare", write_cfg(tmp_path),
                 "--protocols", "aodv,olsr", "--seeds", "1,1",
                 "--out", str(tmp_path / "dup")])
    assert code == 0
    assert runs == [("aodv", 1), ("olsr", 1)]
    assert "duplicate seed 1 ignored" in capsys.readouterr().err


def test_cli_bad_seed_spec_is_validation_error(tmp_path, capsys):
    code = main(["compare", write_cfg(tmp_path),
                 "--protocols", "aodv,olsr", "--seeds", " , "])
    assert code == 1
    code = main(["compare", write_cfg(tmp_path),
                 "--protocols", "aodv,olsr", "--seeds", "5.."])
    assert code == 1
    assert "'5..'" in capsys.readouterr().err
