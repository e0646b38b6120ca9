"""The kernel's bare-callback entries and their ordering contract.

Queue entries are ``(when, seq, fn, arg)``; events and
``call_later``/``call_at`` timers draw sequence numbers from one counter, so
everything scheduled for one instant runs in strict scheduling order
whichever form it took.
"""

import pytest

from repro.simnet.kernel import Interrupt, Simulator


def test_call_later_runs_fn_with_arg_at_the_right_time():
    sim = Simulator()
    seen = []
    sim.call_later(2.5, lambda arg: seen.append((sim.now, arg)), "x")
    sim.run()
    assert seen == [(2.5, "x")]


def test_call_later_arg_defaults_to_none():
    sim = Simulator()
    seen = []
    sim.call_later(0.0, seen.append)
    sim.run()
    assert seen == [None]


def test_call_later_and_events_share_one_fifo_per_instant():
    sim = Simulator()
    order = []
    sim.call_later(1.0, order.append, "call-1")
    sim.timeout(1.0).add_callback(lambda _e: order.append("timeout-2"))
    sim.call_later(1.0, order.append, "call-3")
    ev = sim.event()
    sim.call_later(0.5, lambda _: ev.succeed())
    ev.add_callback(lambda _e: order.append("event-at-0.5"))
    sim.timeout(1.0).add_callback(lambda _e: order.append("timeout-4"))
    sim.call_later(1.0, order.append, "call-5")
    sim.run()
    assert order == ["event-at-0.5", "call-1", "timeout-2", "call-3",
                     "timeout-4", "call-5"]


def test_entries_scheduled_while_running_queue_behind_their_instant():
    sim = Simulator()
    order = []

    def first(_):
        order.append("first")
        # same instant, scheduled later: runs after "second"
        sim.call_later(0.0, order.append, "third")

    sim.call_later(0.0, first)
    sim.call_later(0.0, order.append, "second")
    sim.run()
    assert order == ["first", "second", "third"]


def test_negative_call_later_delay_raises():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.call_later(-1e-9, lambda _: None)
    assert sim.peek() == float("inf")


def test_call_at_runs_at_the_exact_time_in_fifo_order():
    sim = Simulator()
    order = []
    when = (0.1 + 0.2) + 0.3  # a chained float sum, not 0.6
    assert when != 0.6
    sim.call_later(0.1, lambda _: sim.call_at(when, order.append, "first"))
    sim.call_later(0.2, lambda _: sim.call_at(when, order.append, "second"))
    sim.run()
    assert order == ["first", "second"] and sim.now == when


def test_call_at_in_the_past_raises():
    sim = Simulator()
    sim.run(until=1.0)
    with pytest.raises(ValueError):
        sim.call_at(0.5, lambda _: None)
    assert sim.peek() == float("inf")


def test_step_runs_exactly_one_entry():
    sim = Simulator()
    order = []
    for tag in "abc":
        sim.call_later(0.0, order.append, tag)
    sim.step()
    assert order == ["a"]
    sim.step()
    sim.step()
    assert order == ["a", "b", "c"]


def test_add_callback_on_processed_event_runs_after_queued_entries():
    sim = Simulator()
    order = []
    done = sim.timeout(1.0)
    sim.run()
    assert done.processed
    # already queued for this instant: these run first
    sim.call_later(0.0, order.append, "queued-call")
    sim.event().succeed().add_callback(lambda _e: order.append("queued-event"))
    done.add_callback(lambda e: order.append(("late", e is done)))
    sim.run()
    assert order == ["queued-call", "queued-event", ("late", True)]
    assert sim.now == 1.0


def test_process_yielding_a_processed_event_resumes():
    sim = Simulator()
    fired = sim.timeout(0.5, value="v")
    sim.run()
    assert fired.processed

    def proc():
        got = yield fired
        return got, sim.now

    assert sim.run(until=sim.process(proc())) == ("v", 0.5)


def test_process_yielding_a_processed_failure_gets_the_exception():
    sim = Simulator()
    failed = sim.event()
    failed.fail(KeyError("gone"))
    failed.defused = True
    sim.run()

    def proc():
        with pytest.raises(KeyError):
            yield failed
        return "handled"

    assert sim.run(until=sim.process(proc())) == "handled"


def test_interrupt_detaches_the_cached_resume_callback():
    sim = Simulator()
    log = []
    slow = sim.timeout(5.0)

    def sleeper():
        try:
            yield slow
            log.append("woke normally")
        except Interrupt as intr:
            log.append(("interrupted", intr.cause, sim.now))

    proc = sim.process(sleeper())
    sim.run(until=1.0)
    assert slow.callbacks == [proc._resume_cb]
    proc.interrupt("stop")
    assert slow.callbacks == []
    sim.run()
    # the timeout still fires at 5.0 but no longer resumes the process
    assert log == [("interrupted", "stop", 1.0)]
    assert sim.now == 5.0


def test_resume_callback_is_built_once_per_process():
    sim = Simulator()
    waits = [sim.timeout(t) for t in (1.0, 2.0)]
    seen = []

    def proc():
        for ev in waits:
            yield ev

    p = sim.process(proc())
    sim.run(until=0.5)
    seen.append(waits[0].callbacks[0])
    sim.run(until=1.5)
    seen.append(waits[1].callbacks[0])
    assert seen[0] is seen[1] is p._resume_cb


def test_interrupt_before_first_resume_still_starts_the_process():
    sim = Simulator()
    log = []

    def proc():
        log.append("started")
        try:
            yield sim.timeout(3.0)
        except Interrupt:
            log.append(("interrupted", sim.now))

    p = sim.process(proc())
    p.interrupt()
    sim.run()
    assert log == ["started", ("interrupted", 0.0)]

