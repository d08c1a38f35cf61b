"""Simulator clock semantics, the dispatch loop and the listener list."""

from types import SimpleNamespace

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator, total_events_processed


def test_clock_advances_to_event_times():
    sim = Simulator()
    seen = []
    sim.schedule_at(3.0, lambda: seen.append(sim.now))
    sim.schedule_at(7.0, lambda: seen.append(sim.now))
    sim.run_until(10.0)
    assert seen == [3.0, 7.0]
    assert sim.now == 10.0
    assert sim.events_processed == 2


def test_run_until_leaves_future_events_pending():
    sim = Simulator()
    fired = []
    sim.schedule_at(5.0, lambda: fired.append("early"))
    sim.schedule_at(15.0, lambda: fired.append("late"))
    sim.run_until(10.0)
    assert fired == ["early"]
    assert sim.pending_events == 1
    sim.run_until(20.0)
    assert fired == ["early", "late"]


def test_boundary_event_fires():
    sim = Simulator()
    fired = []
    sim.schedule_at(10.0, lambda: fired.append(1))
    sim.run_until(10.0)
    assert fired == [1]


def test_schedule_in_relative_delay():
    sim = Simulator()
    times = []
    sim.schedule_in(2.0, lambda: times.append(sim.now))
    sim.run_until(5.0)
    assert times == [2.0]


def test_events_scheduled_during_run_fire_in_order():
    sim = Simulator()
    log = []

    def first():
        log.append(("first", sim.now))
        sim.schedule_in(1.0, lambda: log.append(("chained", sim.now)))

    sim.schedule_at(1.0, first)
    sim.run_until(10.0)
    assert log == [("first", 1.0), ("chained", 2.0)]


def test_cannot_schedule_in_past():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(4.0, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule_in(-1.0, lambda: None)


def test_run_until_backwards_rejected():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.run_until(4.0)


def test_reentrant_run_rejected():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run_until(100.0)
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule_at(1.0, reenter)
    sim.run_until(10.0)
    assert len(errors) == 1


def test_run_drains_queue():
    sim = Simulator()
    fired = []
    for t in (1.0, 2.0, 3.0):
        sim.schedule_at(t, lambda t=t: fired.append(t))
    sim.run()
    assert fired == [1.0, 2.0, 3.0]
    assert sim.pending_events == 0


def test_run_max_events():
    sim = Simulator()
    fired = []
    for t in (1.0, 2.0, 3.0):
        sim.schedule_at(t, lambda t=t: fired.append(t))
    sim.run(max_events=2)
    assert fired == [1.0, 2.0]
    assert sim.pending_events == 1


def test_reset_rewinds_everything():
    sim = Simulator()
    sim.schedule_at(1.0, lambda: None)
    sim.run_until(0.5)
    sim.reset()
    assert sim.now == 0.0
    assert sim.pending_events == 0
    assert sim.events_processed == 0


def test_close_releases_events_and_listeners():
    sim = Simulator()
    sim.subscribe(SimpleNamespace(on_event_pre=lambda event: None))
    sim.profile = lambda event, wall_s: None
    pending = sim.schedule_at(2.0, lambda: None)
    sim.run_until(1.0)
    sim.close()
    assert sim.pending_events == 0
    assert pending.action is None
    assert sim.listeners == () and sim.handlers("event_pre") == ()
    assert sim.profile is None
    assert sim.now == 1.0


# -- one dispatch loop behind run / run(max_events) / run_until -----------------


def scripted(sim, log):
    """One schedule: cancelled events at the queue head and mid-queue, and
    actions that schedule (and cancel) more events while the loop runs."""

    def fire(name):
        def action():
            log.append((name, sim.now))
            if name == "a":
                sim.schedule_in(0.5, fire("a-child"))
                late.cancel()
            elif name == "c":
                sim.schedule_in(10.0, fire("c-child"))

        return action

    sim.schedule_at(0.5, fire("cancelled-head")).cancel()
    sim.schedule_at(1.0, fire("cancelled-tie"), priority=-1).cancel()
    sim.schedule_at(1.0, fire("a"))
    sim.schedule_at(2.0, fire("b"))
    late = sim.schedule_at(3.0, fire("cancelled-by-a"))
    sim.schedule_at(4.0, fire("c"))
    sim.schedule_at(4.0, fire("c-tie"), priority=1)


def drive(step):
    sim = Simulator()
    log = []
    scripted(sim, log)
    before = total_events_processed()
    step(sim)
    return log, sim.now, sim.events_processed, total_events_processed() - before


def drain_in_steps(sim, k=2):
    while sim.pending_events:
        sim.run(max_events=k)


def test_run_entry_points_agree_on_one_schedule():
    drained = drive(lambda sim: sim.run())
    log, now, processed, delta = drained
    assert [name for name, _ in log] == ["a", "a-child", "b", "c", "c-tie", "c-child"]
    assert now == 14.0
    assert processed == delta == 6
    assert drive(drain_in_steps) == drained
    assert drive(lambda sim: drain_in_steps(sim, k=1)) == drained
    assert drive(lambda sim: sim.run_until(14.0)) == drained


def test_run_max_events_stops_after_k_and_run_until_at_end_time():
    drained_log = drive(lambda sim: sim.run())[0]
    log, now, processed, delta = drive(lambda sim: sim.run(max_events=3))
    assert log == drained_log[:3]
    assert (now, processed, delta) == (2.0, 3, 3)
    log, now, processed, delta = drive(lambda sim: sim.run_until(3.0))
    assert log == drained_log[:3]
    assert (now, processed, delta) == (3.0, 3, 3)
    assert drive(lambda sim: sim.run(max_events=0)) == ([], 0.0, 0, 0)


# -- listener list ---------------------------------------------------------------


class Recorder:
    def __init__(self, name, calls):
        self.name = name
        self.calls = calls

    def on_event_pre(self, event):
        self.calls.append((self.name, "pre", event.label))

    def on_event_post(self, event):
        self.calls.append((self.name, "post", event.label))

    def on_ping(self, value):
        self.calls.append((self.name, "ping", value))


def test_topics_deliver_in_subscription_order():
    sim = Simulator()
    calls = []
    first, second = Recorder("first", calls), Recorder("second", calls)
    sim.subscribe(first)
    sim.subscribe(second)
    sim.schedule_at(1.0, lambda: calls.append(("action",)), label="e")
    sim.run()
    sim.publish("ping", 7)
    assert calls == [
        ("first", "pre", "e"),
        ("second", "pre", "e"),
        ("action",),
        ("first", "post", "e"),
        ("second", "post", "e"),
        ("first", "ping", 7),
        ("second", "ping", 7),
    ]
    assert sim.listeners == (first, second)


def test_listener_receives_only_the_topics_it_defines():
    sim = Simulator()
    calls = []
    pings = []
    only_ping = SimpleNamespace(on_ping=pings.append)
    sim.subscribe(only_ping)
    sim.subscribe(Recorder("all", calls))
    assert len(sim.handlers("event_pre")) == len(sim.handlers("event_post")) == 1
    sim.schedule_at(1.0, lambda: sim.publish("pong", 1), label="e")
    sim.run()
    sim.publish("ping", 2)
    assert pings == [2]
    assert calls == [("all", "pre", "e"), ("all", "post", "e"), ("all", "ping", 2)]


def test_subscribing_from_an_action_takes_effect_at_the_next_run_call():
    sim = Simulator()
    calls = []
    sim.schedule_at(1.0, lambda: sim.subscribe(Recorder("late", calls)), label="sub")
    sim.schedule_at(2.0, lambda: None, label="same-run")
    sim.run_until(3.0)
    assert calls == []
    sim.schedule_at(4.0, lambda: None, label="next-run")
    sim.run()
    assert calls == [("late", "pre", "next-run"), ("late", "post", "next-run")]


def test_publish_without_listeners_is_a_no_op():
    sim = Simulator()
    sim.publish("nobody", 1, 2)
    assert sim.listeners == ()
    assert sim.handlers("nobody") == ()
