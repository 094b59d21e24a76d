"""Tests of the benchmark itself: span arithmetic, failure accounting, smoke runs.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import json
import time
import tracemalloc
from pathlib import Path

import pytest

import run
import speed
import tracing
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_is_duration_minus_children(monkeypatch):
    tracer = Tracer()
    # outer [0, 10] holds inner_a [1, 3] and inner_b [4, 8]; inner_b holds leaf [5, 6]
    monkeypatch.setattr(tracing.time, "perf_counter", FakeClock(0, 1, 3, 4, 5, 6, 8, 10))
    tracer._enter()
    tracer._enter()
    tracer._exit("b", "inner_a")
    tracer._enter()
    tracer._enter()
    tracer._exit("c", "leaf")
    tracer._exit("b", "inner_b")
    tracer._exit("a", "outer")
    by_name = {s[3]: s for s in tracer.spans}
    assert by_name["leaf"][6] == 1
    assert by_name["inner_b"][6] == 3
    assert by_name["inner_a"][6] == 2
    assert by_name["outer"][6] == 10 - 2 - 4
    assert by_name["leaf"][1] == by_name["inner_b"][0]
    assert by_name["outer"][1] is None
    assert tracer.self_by_layer() == {"a": 4, "b": 5, "c": 1}
    # Self times partition the outermost span exactly.
    assert sum(s[6] for s in tracer.spans) == 10


def test_recursive_function_is_wrapped_once_at_the_outermost_call():
    tracer = Tracer()

    def depth(n):
        return 0 if n == 0 else 1 + wrapped(n - 1)

    wrapped = tracer.wrap_call("x", "depth", depth, outermost=True)
    assert wrapped(5) == 5
    assert tracer.calls["depth"] == 1
    assert len(tracer.spans) == 1


def test_generator_spans_time_each_resume():
    tracer = Tracer()

    def gen(n):
        total = 0
        for _ in range(n):
            total += yield "tick"
        return total

    wrapped = tracer.wrap_generator("x", "gen", gen)

    def outer():
        out = yield from wrapped(3)
        return out

    g = outer()
    assert next(g) == "tick"
    assert g.send(1) == "tick"
    assert g.send(2) == "tick"
    with pytest.raises(StopIteration) as stop:
        g.send(3)
    assert stop.value.value == 6
    assert tracer.calls["gen"] == 1
    assert len(tracer.spans) == 4  # first step plus three resumes


def test_generator_wrapper_passes_exceptions_through():
    tracer = Tracer()

    def gen():
        try:
            yield 1
        except KeyError:
            return "caught"

    g = tracer.wrap_generator("x", "gen", gen)()
    next(g)
    with pytest.raises(StopIteration) as stop:
        g.throw(KeyError("k"))
    assert stop.value.value == "caught"
    assert tracer.raised["gen"] == 0


def test_installed_wrappers_are_removed_on_exit():
    from repro.argobots.pool import Pool
    from repro.mercury import core, serialization

    before_push = Pool.push
    before_size = core.estimate_size
    with Tracer().installed():
        assert Pool.push is not before_push
        assert core.estimate_size is not before_size
        assert serialization.estimate_size is before_size
    assert Pool.push is before_push
    assert core.estimate_size is before_size


def test_rescale_uses_the_phase_probes_and_removes_their_time():
    sampler = speed.SpeedSampler()
    # Probes at twice the nominal time inside [10, 20); nominal ones outside.
    # Each probe's warm-up takes as long again as its timed part.
    nominal = speed.NOMINAL_PROBE_S
    sampler.samples = [(t, 2 * nominal, 4 * nominal) for t in range(10, 20)]
    sampler.samples += [(t, nominal, 2 * nominal) for t in (0, 1, 30, 31, 32, 33)]
    scaled, probe_s = sampler.rescale(1.0 + 40 * nominal, 10, 20)
    assert probe_s == pytest.approx(40 * nominal)
    assert scaled == pytest.approx(0.5)
    # A phase with too few probes inside borrows the nearest ones.
    scaled, probe_s = sampler.rescale(1.0, 33.5, 34)
    assert probe_s == 0
    assert scaled == pytest.approx(1.0)  # median of four nominal probes and one slow one


def test_probe_allocates_nothing():
    probe = speed.Probe()
    for _ in range(3):  # let the interpreter specialise the loop first
        probe()
    tracemalloc.start()
    try:
        probe()
        tracemalloc.reset_peak()
        current, _ = tracemalloc.get_traced_memory()
        probe()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A transient object per round would take tens of KiB.
    assert peak - current < 1024


def test_sampler_probes_on_entry_exit_and_timer():
    sampler = speed.SpeedSampler()
    with sampler.running():
        t0 = time.monotonic()
        while time.monotonic() - t0 < 3 * speed.PROBE_INTERVAL_S:
            pass
    assert len(sampler.samples) >= 4
    assert all(0 < timed < whole for _, timed, whole in sampler.samples)


def _ok_result(digest="aaaa"):
    return {"digest": digest, "fingerprint": {"events": 1}, "problems": []}


def test_fingerprint_mismatch_counts_as_failed():
    reference = {"digest": "bbbb", "fingerprint": {"events": 2}}
    results = [_ok_result(), _ok_result()]
    reasons = run.check_iterations(results, reference)
    assert [r["failed"] for r in results] == [True, True]
    assert "events" in reasons[0]


def test_iterations_of_one_seed_must_agree():
    results = [_ok_result("aaaa"), _ok_result("cccc"), {**_ok_result(), "problems": ["bad"]}]
    reasons = run.check_iterations(results, None)
    assert [r["failed"] for r in results] == [False, True, True]
    assert len(reasons) == 2


def _raising(seed, *, smoke=False, workers=1):
    raise ValueError("workload broke")


def _sleeping(seed, *, smoke=False, workers=1):
    time.sleep(30)


def test_raising_workload_counts_as_failed(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "broken", (_raising, "test"))
    result, reasons = run.run_workload("broken", 1, seconds=0, traced=False)
    assert result["correct"] is False
    assert result["attempted"] == run.MIN_ITERATIONS
    assert result["failed"] == result["attempted"]
    assert "workload broke" in reasons[0]


def test_overrunning_iteration_is_killed_and_fails(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "slow", (_sleeping, "test"))
    t0 = time.monotonic()
    res = run.run_iteration("slow", 1, limit_s=0.5)
    assert time.monotonic() - t0 < 10
    assert "limit" in res["error"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run(name):
    result, reasons = run.run_workload(name, 3, seconds=0, traced=False, smoke=True)
    assert reasons == []
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {n for n, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_smoke_run_separates_layers():
    result, reasons = run.run_workload("scale_cell", 3, seconds=0, traced=True, smoke=True)
    assert reasons == [] and result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {name for name, _, _ in tracing.LAYER_METRICS}
    for name in ("shard.lookups", "validate.checks", "sim.parallel.windows",
                 "sim.parallel.self_s", "margo.forwards", "trace.overhead_frac"):
        assert metrics[name] > 0, name


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.LAYER_METRICS
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
