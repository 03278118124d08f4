"""Event loop ordering, cancellation, and seeded stream behaviour."""

import pytest

from vanetsim.engine import (RngStreams, SimulationError, Simulator,
                             dispatch_profile, us)

from conftest import dispatch_counts


def test_us_conversion():
    assert us(1) == 1_000_000
    assert us(0.25) == 250_000
    assert us(0.0000006) == 1  # rounds, does not truncate
    assert us(3000) == 3_000_000_000


def test_events_fire_in_time_order(sim):
    fired = []
    sim.schedule_at(30, lambda: fired.append("c"))
    sim.schedule_at(10, lambda: fired.append("a"))
    sim.schedule_at(20, lambda: fired.append("b"))
    sim.run_until(100)
    assert fired == ["a", "b", "c"]
    assert sim.now == 100


def test_same_time_ties_fire_in_insertion_order(sim):
    fired = []
    for tag in "abcde":
        sim.schedule_at(50, lambda t=tag: fired.append(t))
    sim.run_until(50)
    assert fired == list("abcde")


def test_events_scheduled_during_dispatch(sim):
    fired = []

    def first():
        fired.append("first")
        sim.schedule_after(0, lambda: fired.append("nested-now"))
        sim.schedule_after(5, lambda: fired.append("nested-later"))

    sim.schedule_at(10, first)
    sim.schedule_at(12, lambda: fired.append("second"))
    sim.run_until(100)
    assert fired == ["first", "nested-now", "second", "nested-later"]


def test_cancelled_event_does_not_fire(sim):
    fired = []
    ev = sim.schedule_at(10, lambda: fired.append("no"))
    sim.schedule_at(10, lambda: fired.append("yes"))
    sim.cancel(ev)
    sim.run_until(20)
    assert fired == ["yes"]


def test_cancel_after_fire_is_noop(sim):
    fired = []
    ev = sim.schedule_at(5, lambda: fired.append("x"))
    sim.run_until(10)
    sim.cancel(ev)  # must not raise
    assert fired == ["x"]


def test_scheduling_into_the_past_raises(sim):
    sim.run_until(100)
    with pytest.raises(SimulationError):
        sim.schedule_at(50, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_after(-1, lambda: None)


def test_scheduling_into_the_past_names_the_callback(sim):
    def expire():
        pass

    sim.run_until(100)
    for schedule in (lambda: sim.schedule_at(50, expire),
                     lambda: sim.schedule_after(-50, expire)):
        with pytest.raises(SimulationError) as raised:
            schedule()
        assert "(%s)" % expire.__qualname__ in str(raised.value)


def test_run_until_is_resumable(sim):
    fired = []
    sim.schedule_at(10, lambda: fired.append("a"))
    sim.schedule_at(30, lambda: fired.append("b"))
    sim.run_until(20)
    assert fired == ["a"] and sim.now == 20
    sim.run_until(40)
    assert fired == ["a", "b"] and sim.now == 40


def test_boundary_event_fires(sim):
    fired = []
    sim.schedule_at(20, lambda: fired.append("edge"))
    sim.run_until(20)
    assert fired == ["edge"]


def test_rng_streams_deterministic_per_seed():
    a = RngStreams(42)
    b = RngStreams(42)
    assert [a.stream("mobility").random() for _ in range(5)] == \
        [b.stream("mobility").random() for _ in range(5)]
    c = RngStreams(43)
    assert a.stream("backoff").random() != c.stream("backoff").random()


def test_rng_streams_independent():
    """Draws on one stream must not perturb another."""
    a = RngStreams(9)
    b = RngStreams(9)
    a.stream("mobility")  # no draws
    for _ in range(100):
        b.stream("mobility").random()  # heavy use
    assert a.stream("traffic").random() == b.stream("traffic").random()


def test_rng_stream_is_memoized():
    s = RngStreams(1)
    assert s.stream("x") is s.stream("x")


def test_simulator_clock_starts_at_zero():
    assert Simulator(seed=0).now == 0


class Ticker:
    def __init__(self, fired):
        self.fired = fired

    def tick(self):
        self.fired.append("tick")


def schedule_mix(sim, fired):
    for at in (10, 20, 30):
        sim.schedule_at(at, Ticker(fired).tick)
    sim.schedule_at(25, lambda: fired.append("lambda"))
    sim.cancel(sim.schedule_at(15, lambda: fired.append("cancelled")))
    sim.schedule_at(500, lambda: fired.append("late"))


def test_profiled_run_dispatches_the_same_events():
    plain, profiled = [], []
    sim, other = Simulator(seed=1), Simulator(seed=1)
    schedule_mix(sim, profiled)
    schedule_mix(other, plain)
    sim.profile = {}
    sim.run_until(100)
    other.run_until(100)
    assert profiled == plain == ["tick", "tick", "lambda", "tick"]
    assert sim.now == other.now == 100
    assert sim._seq == other._seq
    # [fire_at, seq]: the sixth event
    assert ([entry[:2] for entry in sim._heap]
            == [entry[:2] for entry in other._heap] == [[500, 5]])


def test_profile_counts_callbacks_by_layer_and_every_pop():
    sim = Simulator(seed=1)
    schedule_mix(sim, [])
    sim.profile = {}
    sim.run_until(100)
    sim.run_until(200)  # a second call adds to the same profile
    layers = dispatch_profile(sim.profile)
    assert dispatch_counts(layers) == {
        # the loop pops the cancelled entry too; the one at 500 waits
        "engine": {"Simulator.run_until": 5},
        # callbacks outside the vanetsim package
        "other": {"Ticker.tick": 3, "schedule_mix.<locals>.<lambda>": 1}}
    assert layers["other"]["dispatches"] == 4
    assert all(entry["wall_s"] >= 0.0 for entry in layers.values())
    assert sim._heap[0][0] == 500


def test_profile_counts_pops_of_events_scheduled_and_cancelled_in_the_run():
    sim = Simulator(seed=1)
    fired = []
    pending = sim.schedule_at(40, lambda: fired.append("cancelled"))

    def spawn():
        fired.append("spawn")
        sim.schedule_after(10, lambda: fired.append("soon"))
        sim.schedule_at(150, lambda: fired.append("late"))
        sim.cancel(pending)

    sim.schedule_at(20, spawn)
    sim.profile = {}
    loop = ("vanetsim.engine", "Simulator.run_until")
    sim.run_until(100)
    # spawn at 20, soon at 30 and the cancelled entry at 40; late waits
    assert fired == ["spawn", "soon"]
    assert sim.profile[loop][0] == 3
    sim.run_until(200)
    assert fired == ["spawn", "soon", "late"]
    assert sim.profile[loop][0] == 4 == sim._seq - len(sim._heap)
    assert sim.now == 200


def test_profile_layer_is_the_package_module():
    profile = {("vanetsim.routing.olsr", "OlsrAgent._hello_tick"): [2, 0.5],
               ("vanetsim.routing.base", "start_sweeps.<locals>.sweep"):
                   [1, 0.25],
               ("vanetsim.phy", "Channel.transmit.<locals>.<lambda>"):
                   [3, 0.125]}
    layers = dispatch_profile(profile)
    assert list(layers) == ["phy", "routing"]
    assert layers["routing"] == {
        "dispatches": 3, "wall_s": 0.75,
        "callbacks": {"start_sweeps.<locals>.sweep":
                      {"dispatches": 1, "wall_s": 0.25},
                      "OlsrAgent._hello_tick":
                      {"dispatches": 2, "wall_s": 0.5}}}


# Tick order: schedule_tick keys a tick after every other event of its
# microsecond, later sessions first, whenever each was scheduled.

def test_ticks_of_one_instant_go_in_falling_session_id(sim):
    fired = []
    for session_id in (0, 2, 1):
        sim.schedule_tick(100, session_id,
                          lambda s=session_id: fired.append(s))
    # scheduled after the ticks, yet it fires before them
    sim.schedule_at(100, lambda: fired.append("event"))
    sim.run_until(100)
    assert fired == ["event", 2, 1, 0]


def test_an_event_one_interval_ahead_of_a_tick_precedes_the_next_tick(sim):
    fired = []

    def tick():
        fired.append("tick %d" % sim.now)
        if sim.now < 100:
            sim.schedule_tick(sim.now + 50, 0, tick)

    def schedule(at):
        return lambda: sim.schedule_at(100, lambda: fired.append(at))

    sim.schedule_at(49, schedule("from 49"))
    sim.schedule_at(50, tick)
    sim.schedule_at(50, schedule("from 50"))
    # less than one interval ahead: it too precedes the tick at 100
    sim.schedule_at(51, schedule("from 51"))
    sim.run_until(100)
    assert fired == ["tick 50", "from 49", "from 50", "from 51", "tick 100"]


@pytest.mark.parametrize("scheduled_from", (40, 50, 60))
def test_an_event_precedes_the_tick_of_its_instant(sim, scheduled_from):
    # whether scheduled before, in or after the instant one interval
    # ahead of the tick, an event at 100 fires before the tick at 100
    fired = []
    sim.schedule_tick(100, 0, lambda: fired.append("tick"))
    sim.schedule_at(scheduled_from, lambda: sim.schedule_at(
        100, lambda: fired.append("event")))
    sim.run_until(100)
    assert fired == ["event", "tick"]
