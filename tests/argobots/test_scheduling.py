"""Tests for the two-level ULT / execution-stream scheduler."""

import pytest

from repro.argobots import AbtRuntime, Compute, UltState, YieldNow
from repro.sim import Simulator


def make_runtime(n_es=1, ctx_cost=0.0, **kw):
    sim = Simulator()
    rt = AbtRuntime(sim, ctx_switch_cost=ctx_cost, **kw)
    pool = rt.create_pool("p0")
    for _ in range(n_es):
        rt.create_xstream(pool)
    return sim, rt, pool


def test_single_ult_runs_to_completion():
    sim, rt, pool = make_runtime()
    log = []

    def body():
        log.append(("start", sim.now))
        yield Compute(2.0)
        log.append(("end", sim.now))
        return "ok"

    ult = rt.spawn(body(), pool, name="worker")
    sim.run(until=10.0)
    assert log == [("start", 0.0), ("end", 2.0)]
    assert ult.terminated
    assert ult.result == "ok"
    assert ult.finished_at == 2.0


def test_compute_occupies_es_serially():
    """One ES: ULTs run one after another (no preemption)."""
    sim, rt, pool = make_runtime(n_es=1)
    spans = []

    def body(tag):
        start = sim.now
        yield Compute(1.0)
        spans.append((tag, start, sim.now))

    for tag in range(3):
        rt.spawn(body(tag), pool)
    sim.run(until=10.0)
    assert spans == [(0, 0.0, 1.0), (1, 1.0, 2.0), (2, 2.0, 3.0)]


def test_multiple_es_run_in_parallel():
    sim, rt, pool = make_runtime(n_es=3)
    ends = []

    def body():
        yield Compute(1.0)
        ends.append(sim.now)

    for _ in range(3):
        rt.spawn(body(), pool)
    sim.run(until=10.0)
    assert ends == [1.0, 1.0, 1.0]


def test_queueing_delay_with_insufficient_es():
    """6 unit-length ULTs on 2 ESs finish in 3 time units: queueing delay
    (the paper's 'target handler time') emerges from the pool."""
    sim, rt, pool = make_runtime(n_es=2)

    def body():
        yield Compute(1.0)

    ults = [rt.spawn(body(), pool) for _ in range(6)]
    sim.run(until=10.0)
    assert sim.now >= 3.0
    waits = [u.started_at - u.created_at for u in ults]
    # First two dispatch immediately; later ones wait ~1s and ~2s.
    assert waits[0] == 0.0 and waits[1] == 0.0
    assert waits[4] == pytest.approx(2.0)
    assert waits[5] == pytest.approx(2.0)


def test_yield_now_round_robins():
    sim, rt, pool = make_runtime(n_es=1)
    order = []

    def body(tag):
        for step in range(2):
            order.append((tag, step))
            yield YieldNow()

    rt.spawn(body("a"), pool)
    rt.spawn(body("b"), pool)
    sim.run(until=10.0)
    assert order == [("a", 0), ("b", 0), ("a", 1), ("b", 1)]


def test_context_switch_cost_advances_time():
    sim, rt, pool = make_runtime(n_es=1, ctx_cost=0.1)
    ticks = []

    def body():
        for _ in range(3):
            ticks.append(sim.now)
            yield YieldNow()

    rt.spawn(body(), pool)
    sim.run(until=10.0)
    # Each dispatch costs 0.1, so resumes are strictly spaced.
    assert ticks == pytest.approx([0.1, 0.2, 0.3])


def test_es_busy_time_accounting():
    sim, rt, pool = make_runtime(n_es=1)
    es = rt.xstreams[0]

    def body():
        yield Compute(2.5)

    rt.spawn(body(), pool)
    sim.run(until=10.0)
    assert es.busy_time == pytest.approx(2.5)


def test_ult_error_propagates_by_default():
    sim, rt, pool = make_runtime()

    def bad():
        yield Compute(1.0)
        raise ValueError("broken handler")

    rt.spawn(bad(), pool)
    with pytest.raises(ValueError, match="broken handler"):
        sim.run(until=10.0)


def test_ult_error_swallowed_when_configured():
    sim, rt, pool = make_runtime(swallow_ult_errors=True)

    def bad():
        yield Compute(1.0)
        raise ValueError("broken handler")

    ult = rt.spawn(bad(), pool)
    sim.run(until=10.0)
    assert ult.terminated
    assert isinstance(ult.error, ValueError)


def test_join_returns_result():
    sim, rt, pool = make_runtime(n_es=2)
    out = []

    def child():
        yield Compute(3.0)
        return 42

    def parent():
        c = rt.spawn(child(), pool)
        value = yield from rt.join(c)
        out.append((value, sim.now))

    rt.spawn(parent(), pool)
    sim.run(until=10.0)
    assert out == [(42, 3.0)]


def test_join_already_terminated():
    sim, rt, pool = make_runtime(n_es=1)
    out = []

    def child():
        yield Compute(1.0)
        return "early"

    c = rt.spawn(child(), pool)

    def parent():
        yield Compute(5.0)
        value = yield from rt.join(c)
        out.append((value, sim.now))

    rt.spawn(parent(), pool)
    sim.run(until=20.0)
    assert out == [("early", 6.0)]


def test_join_reraises_child_error():
    sim, rt, pool = make_runtime(n_es=2, swallow_ult_errors=True)
    caught = []

    def child():
        yield Compute(1.0)
        raise RuntimeError("child died")

    def parent():
        c = rt.spawn(child(), pool)
        try:
            yield from rt.join(c)
        except RuntimeError as exc:
            caught.append(str(exc))

    rt.spawn(parent(), pool)
    sim.run(until=10.0)
    assert caught == ["child died"]


def test_join_all_collects_in_order():
    sim, rt, pool = make_runtime(n_es=4)
    out = []

    def child(tag, dur):
        yield Compute(dur)
        return tag

    def parent():
        kids = [rt.spawn(child(t, 3.0 - t), pool) for t in range(3)]
        results = yield from rt.join_all(kids)
        out.append(results)

    rt.spawn(parent(), pool)
    sim.run(until=10.0)
    assert out == [[0, 1, 2]]


def test_spawn_counters():
    sim, rt, pool = make_runtime(n_es=1)

    def body():
        yield Compute(1.0)

    for _ in range(4):
        rt.spawn(body(), pool)
    assert rt.total_spawned == 4
    assert rt.num_active == 4
    sim.run(until=10.0)
    assert rt.total_finished == 4
    assert rt.num_active == 0


def test_pool_high_watermark():
    sim, rt, pool = make_runtime(n_es=1)

    def body():
        yield Compute(1.0)

    for _ in range(5):
        rt.spawn(body(), pool)
    assert pool.high_watermark == 5


def test_shutdown_stops_idle_es():
    sim, rt, pool = make_runtime(n_es=2)

    def body():
        yield Compute(1.0)

    rt.spawn(body(), pool)
    sim.run(until=5.0)
    rt.shutdown()
    sim.run()
    # Every ES has exited; no pending events remain.
    assert sim.pending_events == 0


def test_ult_local_storage():
    sim, rt, pool = make_runtime(n_es=1)
    seen = []

    def body():
        me = rt.self_ult()
        me.local["callpath"] = 0xBEEF
        yield Compute(1.0)
        seen.append(rt.self_ult().local["callpath"])

    rt.spawn(body(), pool)
    sim.run(until=10.0)
    assert seen == [0xBEEF]


def test_self_ult_is_none_outside_execution():
    sim, rt, pool = make_runtime()
    assert rt.self_ult() is None


def test_num_ready_and_blocked_counters():
    sim, rt, pool = make_runtime(n_es=1)
    ev = rt.eventual()
    snap = {}

    def blocker():
        yield from ev.wait()

    def observer():
        yield Compute(1.0)
        snap["blocked"] = rt.num_blocked
        ev.signal("go")
        yield Compute(1.0)
        snap["after"] = rt.num_blocked

    rt.spawn(blocker(), pool)
    rt.spawn(observer(), pool)
    sim.run(until=10.0)
    assert snap["blocked"] == 1
    assert snap["after"] == 0


# -- scheduler-order regression -------------------------------------------------
#
# One run that exercises every path of the execution-stream interpreter on
# two runtimes sharing a simulator: Compute(0) and Compute(d > 0), context
# switches that cost nothing and that cost time, waits on an eventual that
# is already set, unset, timed out and signalled before its timeout,
# YieldNow, a swallowed ULT error, and shutdown while every ES is parked.
# The expected values were recorded before the execution streams became
# callback-driven; any change to when or in which order a slice runs, or to
# how many kernel events a run takes, shows up here.


def _scripted_run():
    from repro.argobots import WaitEventual
    from repro.symbiosys.monitor import SchedRecorder

    sim = Simulator()
    recorder = SchedRecorder()
    log = []
    runtimes = []
    for name, ctx_cost, n_es in (("a", 0.0, 2), ("b", 0.25, 1)):
        rt = AbtRuntime(sim, name, ctx_switch_cost=ctx_cost, swallow_ult_errors=True)
        rt.sched_observer = recorder
        pool = rt.create_pool()
        for _ in range(n_es):
            rt.create_xstream(pool)
        runtimes.append((rt, pool))

    def script(rt, pool):
        tag = rt.name
        ready = rt.eventual("ready")
        ready.signal("r")
        late = rt.eventual("late")
        soon = rt.eventual("soon")
        never = rt.eventual("never")

        def computer():
            yield Compute(0)
            yield Compute(1.5)
            yield Compute(0)
            yield YieldNow()
            yield Compute(0.5)
            log.append((tag, "computer", sim.now))

        def set_waiter():
            v = yield WaitEventual(ready)
            w = yield WaitEventual(ready, 1.0)
            yield Compute(0.25)
            log.append((tag, "set", v, w, sim.now))

        def unset_waiter():
            v = yield WaitEventual(late)
            log.append((tag, "unset", v, sim.now))

        def timeout_waiter():
            v = yield WaitEventual(never, 0.75)
            log.append((tag, "timeout", v, sim.now))

        def early_waiter():
            v = yield WaitEventual(soon, 5.0)
            yield Compute(0.125)
            log.append((tag, "early", v, sim.now))

        def signaller():
            yield Compute(1.0)
            late.signal("L")
            soon.signal("S")
            yield YieldNow()
            yield Compute(0.125)
            log.append((tag, "signaller", sim.now))

        def bad():
            yield Compute(0.375)
            raise ValueError("swallowed")

        def sleeper():
            yield from rt.sleep(0.5)
            log.append((tag, "sleeper", sim.now))

        for body in (computer, set_waiter, unset_waiter, timeout_waiter,
                     early_waiter, signaller, bad, sleeper):
            rt.spawn(body(), pool, name=f"{tag}.{body.__name__}")

    for rt, pool in runtimes:
        script(rt, pool)
    sim.run()
    before_shutdown = (sim.events_processed, sim.now)
    for rt, _ in runtimes:
        rt.shutdown()
    sim.run()
    # A ULT spawned after shutdown finds no parked ES: shutdown withdrew
    # every ES's wait on its pool, so nothing wakes and nothing runs it.
    after = [rt.spawn(iter(()), pool, name=f"{rt.name}.late") for rt, pool in runtimes]
    sim.run()
    log.extend((u.name, u.state.value) for u in after)
    slices = [
        (s.process, s.es, s.ult, s.kind, s.start, s.end, s.reason)
        for s in recorder.slices
    ]
    busy = [es.busy_time for rt, _ in runtimes for es in rt.xstreams]
    return slices, busy, log, before_shutdown, (sim.events_processed, sim.now), sim


_EXPECTED_SLICES = [
    ("a", "a.es1", "a.set_waiter", "run", 0.0, 0.25, "end"),
    ("a", "a.es1", "a.unset_waiter", "run", 0.25, 0.25, "block"),
    ("a", "a.es1", "a.timeout_waiter", "run", 0.25, 0.25, "block"),
    ("a", "a.es1", "a.early_waiter", "run", 0.25, 0.25, "block"),
    ("a", "a.es1", "a.signaller", "run", 0.25, 1.25, "yield"),
    ("a", "a.es0", "a.computer", "run", 0.0, 1.5, "yield"),
    ("a", "a.es0", "a.sleeper", "run", 1.5, 1.5, "block"),
    ("a", "a.es0", "a.timeout_waiter", "block", 0.25, 1.5, ""),
    ("a", "a.es0", "a.timeout_waiter", "run", 1.5, 1.5, "end"),
    ("a", "a.es0", "a.unset_waiter", "block", 0.25, 1.5, ""),
    ("a", "a.es0", "a.unset_waiter", "run", 1.5, 1.5, "end"),
    ("a", "a.es1", "a.bad", "run", 1.25, 1.625, "end"),
    ("a", "a.es0", "a.early_waiter", "block", 0.25, 1.5, ""),
    ("a", "a.es0", "a.early_waiter", "run", 1.5, 1.625, "end"),
    ("b", "b.es0", "b.computer", "run", 0.0, 1.75, "yield"),
    ("a", "a.es1", "a.signaller", "run", 1.625, 1.75, "end"),
    ("a", "a.es1", "a.sleeper", "block", 1.5, 2.0, ""),
    ("a", "a.es1", "a.sleeper", "run", 2.0, 2.0, "end"),
    ("a", "a.es0", "a.computer", "run", 1.625, 2.125, "end"),
    ("b", "b.es0", "b.set_waiter", "run", 1.75, 2.25, "end"),
    ("b", "b.es0", "b.unset_waiter", "run", 2.25, 2.5, "block"),
    ("b", "b.es0", "b.timeout_waiter", "run", 2.5, 2.75, "block"),
    ("b", "b.es0", "b.early_waiter", "run", 2.75, 3.0, "block"),
    ("b", "b.es0", "b.signaller", "run", 3.0, 4.25, "yield"),
    ("b", "b.es0", "b.bad", "run", 4.25, 4.875, "end"),
    ("b", "b.es0", "b.sleeper", "run", 4.875, 5.125, "block"),
    ("b", "b.es0", "b.computer", "run", 5.125, 5.875, "end"),
    ("b", "b.es0", "b.timeout_waiter", "block", 2.75, 5.875, ""),
    ("b", "b.es0", "b.timeout_waiter", "run", 5.875, 6.125, "end"),
    ("b", "b.es0", "b.unset_waiter", "block", 2.5, 6.125, ""),
    ("b", "b.es0", "b.unset_waiter", "run", 6.125, 6.375, "end"),
    ("b", "b.es0", "b.early_waiter", "block", 3.0, 6.375, ""),
    ("b", "b.es0", "b.early_waiter", "run", 6.375, 6.75, "end"),
    ("b", "b.es0", "b.signaller", "run", 6.75, 7.125, "end"),
    ("b", "b.es0", "b.sleeper", "block", 5.125, 7.125, ""),
    ("b", "b.es0", "b.sleeper", "run", 7.125, 7.375, "end"),
]

_EXPECTED_LOG = [
    ("a", "set", "r", (True, "r"), 0.25),
    ("a", "timeout", (False, None), 1.5),
    ("a", "unset", "L", 1.5),
    ("a", "early", (True, "S"), 1.625),
    ("a", "signaller", 1.75),
    ("a", "sleeper", 2.0),
    ("a", "computer", 2.125),
    ("b", "set", "r", (True, "r"), 2.25),
    ("b", "computer", 5.875),
    ("b", "timeout", (False, None), 6.125),
    ("b", "unset", "L", 6.375),
    ("b", "early", (True, "S"), 6.75),
    ("b", "signaller", 7.125),
    ("b", "sleeper", 7.375),
    ("a.late", "ready"),
    ("b.late", "ready"),
]


def test_scheduler_order_is_pinned():
    slices, busy, log, before_shutdown, final, sim = _scripted_run()
    assert slices == _EXPECTED_SLICES
    assert log == _EXPECTED_LOG
    assert busy == [2.125, 1.75, 7.375]
    # 38 events up to the last stale wait timer at t=8; shutdown then
    # fires one callback per park still registered on the shutdown event,
    # and the late spawns add none.
    assert before_shutdown == (38, 8.0)
    assert final == (42, 8.0)
    assert sim.pending_events == 0


def test_ult_error_propagates_out_of_run_and_closes_the_slice():
    from repro.symbiosys.monitor import SchedRecorder

    sim, rt, pool = make_runtime(ctx_cost=0.25)
    recorder = SchedRecorder()
    rt.sched_observer = recorder

    def bad():
        yield Compute(1.0)
        raise ValueError("escapes")

    ult = rt.spawn(bad(), pool, name="bad")
    with pytest.raises(ValueError, match="escapes"):
        sim.run()
    assert ult.terminated and isinstance(ult.error, ValueError)
    assert [(s.ult, s.start, s.end, s.reason) for s in recorder.slices] == [
        ("bad", 0.0, 1.25, "end")
    ]
    assert rt.xstreams[0].current is None
    assert rt.num_running == 0
    assert rt.self_ult() is None


def test_unswallowed_ult_error_stops_its_es_under_swallow_task_errors():
    """With ``Simulator(swallow_task_errors=True)`` an unswallowed ULT
    error stops its execution stream, as it stopped a failed kernel task:
    the run goes on, and the ULT queued behind it never starts."""
    sim = Simulator(swallow_task_errors=True)
    rt = AbtRuntime(sim, ctx_switch_cost=0.0)
    pool = rt.create_pool()
    rt.create_xstream(pool)

    def bad():
        yield Compute(1.0)
        raise ValueError("stops the ES")

    def good():
        yield Compute(1.0)

    b = rt.spawn(bad(), pool)
    g = rt.spawn(good(), pool)
    sim.run()
    assert b.terminated and isinstance(b.error, ValueError)
    assert g.state is UltState.READY and len(pool) == 1
    assert (sim.now, sim.events_processed, rt.num_running) == (1.0, 2, 0)
