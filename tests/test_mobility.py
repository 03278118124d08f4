"""Random-waypoint legs, scripted paths, and the position sampler."""

from vanetsim.engine import Simulator, us
from vanetsim.mobility import Leg, Mobility, position_at
from vanetsim.scenario import ScenarioConfig


class Shell:
    pos = None


def make_mobility(seed=5, num_nodes=1, **settings):
    config = ScenarioConfig(num_nodes=num_nodes, sessions=0, seed=seed,
                            **settings).validate()
    sim = Simulator(seed)
    nodes = {i: Shell() for i in range(num_nodes)}
    return sim, nodes, Mobility(sim, nodes, config)


def first_leg(**settings):
    _, _, mobility = make_mobility(**settings)
    return mobility, mobility.legs[0][1]


def test_position_interpolates_linearly():
    leg = Leg(start=(0.0, 0.0), dest=(100.0, 0.0), depart_at=0,
              arrive_at=us(10), waypoints=[], done=True)
    assert position_at(leg, 0) == (0.0, 0.0)
    x, y = position_at(leg, us(5))
    assert abs(x - 50.0) < 1e-9 and y == 0.0
    assert position_at(leg, us(10)) == (100.0, 0.0)
    assert position_at(leg, us(99)) == (100.0, 0.0)  # clamps past arrival


def test_leg_duration_matches_speed_and_distance():
    mobility, leg = first_leg(positions={0: (0.0, 0.0)},
                              waypoints={0: [(300.0, 400.0, 10.0)]})
    mobility.next_leg(leg, 0)  # 500 m at 10 m/s
    assert leg.arrive_at == us(50)


def test_random_draw_order_is_x_y_then_destination_then_speed():
    mobility, leg = first_leg(seed=9, num_nodes=3,
                              positions={1: (5.0, 5.0)})
    rng = Simulator(9).rng.stream("mobility")
    starts = [(rng.uniform(0, 1500.0), rng.uniform(0, 1500.0))
              for _ in (0, 2)]  # node 1 is pinned and draws nothing
    assert [leg.start for _, leg in mobility.legs] == \
        [starts[0], (5.0, 5.0), starts[1]]
    dest = (rng.uniform(0, 1500.0), rng.uniform(0, 1500.0))
    speed = rng.uniform(3.0, 20.0)
    mobility.next_leg(leg, 0)
    dist = ((dest[0] - starts[0][0]) ** 2
            + (dest[1] - starts[0][1]) ** 2) ** 0.5
    assert (leg.start, leg.dest) == (starts[0], dest)
    assert leg.arrive_at == int(round(dist / speed * 1_000_000))


def test_positions_stay_inside_terrain():
    mobility, leg = first_leg(seed=11)
    for t in range(0, us(2000), us(10)):
        x, y = mobility.advance(leg, t)
        assert 0.0 <= x <= 1500.0
        assert 0.0 <= y <= 1500.0


def test_speeds_respect_configured_bounds():
    mobility, leg = first_leg(seed=2, speed_min_mps=3.0, speed_max_mps=20.0)
    seen = []
    for _ in range(50):
        mobility.next_leg(leg, leg.arrive_at)
        (x0, y0), (x1, y1) = leg.start, leg.dest
        dist = ((x1 - x0) ** 2 + (y1 - y0) ** 2) ** 0.5
        duration = leg.arrive_at - leg.depart_at
        # the arrival is rounded to the nearest us
        assert dist / 20.0 * 1e6 - 0.5 <= duration <= dist / 3.0 * 1e6 + 0.5
        seen.append(dist * 1e6 / duration)
    assert max(seen) > 10.0 and min(seen) < 10.0  # both halves exercised


def test_zero_pause_moves_continuously():
    mobility, leg = first_leg(seed=8, pause_s=0.0)
    mobility.advance(leg, us(100))
    # never waiting: the active leg always covers "now"
    assert leg.depart_at <= us(100) <= max(leg.arrive_at, us(100))


def test_every_node_pauses_at_its_start():
    mobility, leg = first_leg(seed=8, pause_s=2.5)
    start = leg.start
    assert mobility.advance(leg, us(2.4)) == start
    assert mobility.advance(leg, us(2.6)) != start
    assert leg.depart_at == us(2.5)


def test_pause_holds_position_at_waypoint():
    mobility, leg = first_leg(
        seed=4, pause_s=5.0, positions={0: (0.0, 0.0)},
        waypoints={0: [(30.0, 40.0, 10.0), (500.0, 500.0, 10.0)]})
    mobility.next_leg(leg, 0)  # arrives at (30, 40) at t=5 s
    arrive = leg.arrive_at
    assert mobility.advance(leg, arrive + us(2)) == (30.0, 40.0)  # paused
    # moving again after the 5 s pause
    assert mobility.advance(leg, arrive + us(6)) != (30.0, 40.0)


def test_scripted_node_becomes_static_after_last_waypoint():
    mobility, leg = first_leg(seed=3, positions={0: (10.0, 10.0)},
                              waypoints={0: [(100.0, 10.0, 10.0)]})
    assert not leg.done
    mobility.advance(leg, us(9))  # leg takes 9 s
    assert leg.done
    assert mobility.advance(leg, us(500)) == (100.0, 10.0)


def test_waypoints_alone_start_at_the_first_one():
    mobility, leg = first_leg(
        seed=3, waypoints={0: [(20.0, 30.0, 99.0), (20.0, 130.0, None)]})
    assert leg.start == (20.0, 30.0)  # its speed is never used
    mobility.next_leg(leg, 0)  # unspeeded: one uniform 3-20 m/s draw
    assert us(100 / 20.0) <= leg.arrive_at <= us(100 / 3.0)
    assert leg.done


def test_pinned_position_without_waypoints_is_static():
    mobility, leg = first_leg(seed=3, positions={0: (7.0, 8.0)})
    assert leg.done
    assert mobility.advance(leg, us(1000)) == (7.0, 8.0)


def test_same_seed_reproduces_trajectories():
    (a, leg_a), (b, leg_b) = first_leg(seed=21), first_leg(seed=21)
    for t in range(0, us(500), us(25)):
        assert a.advance(leg_a, t) == b.advance(leg_b, t)


def test_manager_updates_all_node_positions():
    sim, nodes, mobility = make_mobility(seed=1, num_nodes=4, sim_time_s=10)
    first = {i: nodes[i].pos for i in nodes}
    assert all(pos is not None for pos in first.values())
    mobility.start()
    sim.run_until(us(10))
    mobility.sync()  # positions are computed only when asked for
    assert any(nodes[i].pos != first[i] for i in nodes)  # somebody moved


def test_tick_draws_the_next_leg_only_once_the_pause_ends():
    sim, nodes, mobility = make_mobility(seed=8, pause_s=2.5, sim_time_s=5)
    leg = mobility.legs[0][1]
    start, state = leg.start, mobility.rng.getstate()
    mobility.start()
    sim.run_until(us(2.4))
    assert mobility.rng.getstate() == state  # nothing drawn while paused
    sim.run_until(us(2.5))
    assert leg.depart_at == us(2.5) and leg.dest != start


def test_ticks_draw_legs_in_tick_then_node_id_order():
    sim, nodes, mobility = make_mobility(
        seed=4, num_nodes=4, sim_time_s=60, terrain_width_m=50.0,
        terrain_height_m=50.0, speed_min_mps=10.0, speed_max_mps=20.0)
    ids = {id(leg): nid for nid, (_, leg) in enumerate(mobility.legs)}
    drawn = []
    next_leg = mobility.next_leg

    def recorded(leg, now):
        drawn.append((sim.now, ids[id(leg)]))
        next_leg(leg, now)

    mobility.next_leg = recorded
    mobility.start()
    sim.run_until(us(60))
    assert drawn[:4] == [(us(0.1), nid) for nid in range(4)]
    assert len(drawn) > 100 and drawn == sorted(drawn)


def test_manager_honours_pinned_position():
    sim, nodes, mobility = make_mobility(seed=1, num_nodes=2, sim_time_s=5,
                                         positions={0: (5.0, 6.0)})
    assert nodes[0].pos == (5.0, 6.0)
    mobility.start()
    sim.run_until(us(5))
    assert nodes[0].pos == (5.0, 6.0)
