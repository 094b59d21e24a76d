"""Smoke and invariant tests for the experiment harnesses (scaled-down)."""

import hashlib
import json

import pytest

from repro.experiments import (
    TABLE_IV,
    run_hepnos_experiment,
    run_mobject_experiment,
    run_overhead_study,
    run_sonata_experiment,
    time_analysis_scripts,
)
from repro.experiments.overhead import OVERHEAD_STAGES
from repro.symbiosys import Stage
from repro.workloads import IorConfig

SMALL = TABLE_IV["C2"].scaled(
    name="small", total_clients=4, clients_per_node=2, total_servers=2,
    servers_per_node=1, threads=4, databases=8,
)


@pytest.fixture(scope="module")
def small_result():
    return run_hepnos_experiment(SMALL, events_per_client=256)


def test_hepnos_experiment_stores_all_events(small_result):
    assert small_result.events_stored == 4 * 256
    assert small_result.makespan > 0
    assert small_result.throughput > 0


def test_hepnos_experiment_profiles_put_packed(small_result):
    row = small_result.put_packed_row()
    assert row.call_count == small_result.rpcs_issued
    assert row.cumulative_latency > 0


def test_hepnos_target_breakdown_components(small_result):
    breakdown = small_result.target_breakdown()
    assert set(breakdown) == {
        "target_handler_time",
        "target_execution_time",
        "target_completion_callback_time",
    }
    assert all(v >= 0 for v in breakdown.values())
    assert breakdown["target_execution_time"] > 0


def test_hepnos_unaccounted_non_negative(small_result):
    assert 0 <= small_result.unaccounted_time <= small_result.cumulative_origin_time
    assert 0 <= small_result.unaccounted_fraction < 1


def test_hepnos_series_extractors(small_result):
    ofi = small_result.ofi_series()
    assert len(ofi) == small_result.rpcs_issued
    blocked = small_result.blocked_samples()
    assert len(blocked) == small_result.rpcs_issued


def test_hepnos_experiment_deterministic():
    r1 = run_hepnos_experiment(SMALL, events_per_client=128, seed=3)
    r2 = run_hepnos_experiment(SMALL, events_per_client=128, seed=3)
    assert r1.makespan == r2.makespan
    assert r1.cumulative_origin_time == r2.cumulative_origin_time


def test_hepnos_experiment_timeout_errors():
    with pytest.raises(RuntimeError, match="did not finish"):
        run_hepnos_experiment(SMALL, events_per_client=256, time_limit=1e-6)


@pytest.fixture(scope="module")
def mobject_smoke():
    return run_mobject_experiment(
        n_clients=3,
        ior_config=IorConfig(objects_per_client=2, transfer_size=4096,
                             read_iterations=1),
    )


def test_mobject_experiment_smoke(mobject_smoke):
    result = mobject_smoke
    summary = result.summary
    names = {row.name for row in summary.rows}
    assert "mobject_write_op" in names
    assert "mobject_read_op -> sdskv_list_keyvals_rpc" in names
    trace = result.write_op_trace()
    assert trace is not None
    assert len(trace.discrete_calls()) == 12
    spans = result.write_op_zipkin()
    assert len(spans) == 13  # root + 12 children


#: sha256 of the smoke run's Fig 5 Zipkin document (canonical JSON).  Any
#: change to the hooks, the trace buffer or the stitcher that moves a
#: timestamp, a tag or a span of the write_op shows up here.
FIG5_SMOKE_ZIPKIN_SHA256 = (
    "d1c6c1f59fdf380a9fa7cfb001ed13b3d6d2d05ec8dc2563fd260281c8debf8b"
)


def test_mobject_write_op_zipkin_is_pinned(mobject_smoke):
    doc = json.dumps(
        mobject_smoke.write_op_zipkin(), sort_keys=True, separators=(",", ":")
    )
    assert hashlib.sha256(doc.encode()).hexdigest() == FIG5_SMOKE_ZIPKIN_SHA256


def test_sonata_experiment_smoke():
    result = run_sonata_experiment(n_records=1000, batch_size=200)
    breakdown = result.target_execution_breakdown()
    assert breakdown["input_deserialization_time"] > 0
    assert breakdown["document_store_time"] > 0
    assert 0 < result.deserialization_fraction < 1


def test_overhead_study_runs_all_stages():
    study = run_overhead_study(
        config=SMALL, repetitions=1, events_per_client=64
    )
    assert set(study.timings) == set(OVERHEAD_STAGES)
    rows = study.rows()
    assert len(rows) == 4
    # Baseline collects no trace events; full support collects plenty.
    assert study.timings[Stage.OFF].trace_events == 0
    assert study.timings[Stage.FULL].trace_events > 0
    # Simulated makespan must be identical across stages (instrumentation
    # adds no simulated cost).
    makespans = {round(t.mean_makespan, 12) for t in study.timings.values()}
    assert len(makespans) == 1


def test_time_analysis_scripts():
    result = run_hepnos_experiment(SMALL, events_per_client=128)
    timings = time_analysis_scripts(result)
    assert timings.profile_summary_s >= 0
    assert timings.trace_summary_s >= 0
    assert timings.system_summary_s >= 0
    assert timings.trace_events == result.collector.total_trace_events
    assert timings.rows()[0]["trace events"] == timings.trace_events


class _GaugeOracle:
    """Scheduler observer checking the runtime's O(1) gauges against a
    recount of pools and execution streams at every spawn and slice."""

    def __init__(self, rt):
        self.rt = rt
        self.checks = 0

    def _check(self):
        rt = self.rt
        assert rt.num_ready == sum(len(p) for p in rt.pools)
        assert rt.num_running == sum(es.current is not None for es in rt.xstreams)
        self.checks += 1

    def on_spawn(self, ult):
        self._check()

    def on_slice(self, es, ult, start, end):
        self._check()


@pytest.fixture
def gauge_oracles(monkeypatch):
    from repro.argobots import AbtRuntime

    oracles = []
    init = AbtRuntime.__init__

    def observed_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        oracle = _GaugeOracle(self)
        self.add_sched_observer(oracle)
        oracles.append(oracle)

    monkeypatch.setattr(AbtRuntime, "__init__", observed_init)
    return oracles


@pytest.mark.parametrize("harness", ["mobject", "hepnos"])
def test_runtime_gauges_match_recount(gauge_oracles, harness):
    if harness == "mobject":
        run_mobject_experiment(
            n_clients=3,
            ior_config=IorConfig(objects_per_client=2, transfer_size=4096,
                                 read_iterations=1),
        )
    else:
        run_hepnos_experiment(SMALL, events_per_client=128)
    assert len(gauge_oracles) > 1
    assert all(o.checks > 0 for o in gauge_oracles)
