"""Schema round-trip: everything a run records comes back intact."""

import sqlite3

import pytest

from repro.experiments import run_mobject_experiment
from repro.store import PerfStore, StoreWriter, record_bench_suite
from repro.store.archive import ArchivedRun
from repro.store.schema import SCHEMA_VERSION, ensure_schema, schema_version
from repro.symbiosys.analysis import profile_summary, trace_summary
from repro.symbiosys.export import series_to_csv
from repro.workloads import IorConfig

from .conftest import record_echo_run


class TestSchema:
    def test_version_stamped(self, echo_store):
        store, _ = echo_store
        assert schema_version(store.conn) == SCHEMA_VERSION

    def test_ensure_schema_idempotent(self, echo_store):
        store, _ = echo_store
        ensure_schema(store.conn)  # must not raise or duplicate
        assert schema_version(store.conn) == SCHEMA_VERSION

    def test_newer_store_rejected(self, tmp_path):
        db = str(tmp_path / "future.db")
        conn = sqlite3.connect(db)
        ensure_schema(conn)
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 1),),
        )
        conn.commit()
        conn.close()
        with pytest.raises(RuntimeError, match="newer"):
            PerfStore(db)


class TestRunRow:
    def test_identity(self, echo_store):
        store, world = echo_store
        run = store.run(world.cluster.run_id)
        assert run["name"] == "echo-seed0"
        assert run["kind"] == "cluster"
        assert run["seed"] == 0
        assert run["tags"] == {"workload": "echo", "n_calls": "8"}

    def test_resolve_by_name_and_id(self, echo_store):
        store, world = echo_store
        rid = world.cluster.run_id
        assert store.resolve_run(rid) == rid
        assert store.resolve_run(str(rid)) == rid
        assert store.resolve_run("echo-seed0") == rid
        with pytest.raises(KeyError):
            store.resolve_run("no-such-run")


class TestSeriesRoundTrip:
    def test_every_live_series_stored(self, echo_store):
        store, world = echo_store
        monitor = world.cluster.monitor
        rid = world.cluster.run_id
        live = {
            (ts.name, "|".join(f"{k}={v}" for k, v in ts.labels)):
                list(ts.samples())
            for ts in monitor.store.all_series()
        }
        stored = {
            (name, labels): store.samples(rid, name, labels)
            for name, labels in store.series_keys(rid)
        }
        assert stored == live

    def test_sorted_export_order(self, echo_store):
        store, world = echo_store
        rid = world.cluster.run_id
        keys = store.series_keys(rid)
        assert keys == sorted(keys)
        # Same order as the CSV exporter walks.
        csv_keys = []
        for line in series_to_csv(world.cluster.monitor.store).splitlines()[1:]:
            name, labels = line.split(",")[:2]
            if (name, labels) not in csv_keys:
                csv_keys.append((name, labels))
        assert [list(k) for k in keys] == [list(k) for k in csv_keys]

    def test_pvar_view(self, echo_store):
        store, world = echo_store
        rid = world.cluster.run_id
        pvars = store.pvar_samples(rid)
        assert pvars, "monitored run must expose pvar_* series"
        assert all(name.startswith("pvar_") for name, *_ in pvars)


class TestTraceAndProfileRoundTrip:
    def test_events_restore_losslessly(self, echo_store):
        store, world = echo_store
        archived = ArchivedRun(store, world.cluster.run_id)
        assert archived.all_events() == world.cluster.collector.all_events()

    def test_profiles_match_live_summaries(self, echo_store):
        store, world = echo_store
        archived = ArchivedRun(store, world.cluster.run_id)
        live = world.cluster.collector
        assert (
            profile_summary(archived).render()
            == profile_summary(live).render()
        )
        assert (
            trace_summary(archived).render() == trace_summary(live).render()
        )

    def test_stitch_matches_live_span_by_span(self, echo_store):
        store, world = echo_store
        archived = ArchivedRun(store, world.cluster.run_id)
        live = stitched_view(trace_summary(world.cluster.collector))
        assert stitched_view(trace_summary(archived)) == live
        assert len(live["requests"]) == 8

    def test_nested_stitch_matches_live_span_by_span(self, mobject_archive):
        """A Mobject run nests 12 SDSKV/BAKE calls under each write_op, so
        parent/child links, corrected timestamps across processes and the
        per-request ordering all get exercised."""
        archived, collector = mobject_archive
        live = stitched_view(trace_summary(collector))
        assert stitched_view(trace_summary(archived)) == live
        children = [span[7] for _, _, spans in live["requests"] for span in spans]
        assert any(children)

    def test_findings_and_slices(self, echo_store):
        store, world = echo_store
        archived = ArchivedRun(store, world.cluster.run_id)
        monitor = world.cluster.monitor
        assert archived.findings == monitor.findings
        assert archived.sched_slices() == list(monitor.sched.slices)


class TestBenchHistory:
    PAYLOAD = {
        "suite": "kernel",
        "meta": {"calibration_s": 0.05},
        "results": {
            "spawn": {"median_s": 0.01, "runs_s": [0.01], "units": 100,
                      "unit_name": "ops", "rate_per_s": 10000.0},
        },
    }

    def test_rerecord_same_machine_rev_is_idempotent(self, tmp_path):
        db = str(tmp_path / "bench.db")
        record_bench_suite(db, self.PAYLOAD, date="2026-08-01")
        record_bench_suite(db, self.PAYLOAD, date="2026-08-02")
        store = PerfStore(db)
        try:
            history = store.bench_history("kernel")
            assert len(history) == 1
            assert history[0]["date"] == "2026-08-02"  # upsert kept latest
            assert len(store.runs(kind="bench")) == 2  # runs still append
        finally:
            store.close()

    def test_distinct_rev_appends(self, tmp_path):
        db = str(tmp_path / "bench.db")
        store = PerfStore(db)
        try:
            with StoreWriter(store) as w:
                w.record_bench_history(
                    "kernel", {"date": "d1", "results": {}},
                    machine="m1", rev="r1",
                )
                w.record_bench_history(
                    "kernel", {"date": "d2", "results": {}},
                    machine="m1", rev="r2",
                )
            assert len(store.bench_history("kernel")) == 2
        finally:
            store.close()

    def test_bench_baseline_bundle_shape(self, tmp_path):
        db = str(tmp_path / "bench.db")
        record_bench_suite(db, self.PAYLOAD, date="2026-08-01")
        store = PerfStore(db)
        try:
            bundle = store.bench_baseline()
        finally:
            store.close()
        assert set(bundle) == {"kernel"}
        assert bundle["kernel"]["meta"]["calibration_s"] == 0.05
        assert bundle["kernel"]["results"]["spawn"]["median_s"] == 0.01


class TestMultiRun:
    def test_two_seeds_two_runs(self, tmp_path):
        db = tmp_path / "multi.db"
        record_echo_run(db, seed=0)
        record_echo_run(db, seed=1)
        store = PerfStore(str(db))
        try:
            runs = store.runs(kind="cluster")
            assert [r["name"] for r in runs] == ["echo-seed0", "echo-seed1"]
            assert [r["seed"] for r in runs] == [0, 1]
        finally:
            store.close()


def stitched_view(summary):
    """Everything the stitcher decides, in its own order: per request the
    roots and every span's identity, processes, corrected t1/t5/t8/t14,
    parent, children, event count and attributed faults; then the clock
    offsets, event total and annotations."""
    requests = []
    for request_id, req in summary.requests.items():
        spans = [
            (
                span.span_id,
                span.rpc_name,
                span.callpath,
                span.origin_process,
                span.target_process,
                (span.t1, span.t5, span.t8, span.t14),
                span.parent_span_id,
                [child.span_id for child in span.children],
                len(span.events),
                span.faults,
            )
            for span in req.spans.values()
        ]
        requests.append(
            (request_id, [root.span_id for root in req.roots], spans)
        )
    return {
        "requests": requests,
        "clock_offsets": list(summary.clock_offsets.items()),
        "total_events": summary.total_events,
        "annotations": summary.annotations,
    }


@pytest.fixture(scope="module")
def mobject_archive(tmp_path_factory):
    """(ArchivedRun, live collector) of a small ior-over-Mobject run
    recorded through ``StoreWriter.record_collector``."""
    result = run_mobject_experiment(
        n_clients=2,
        ior_config=IorConfig(
            objects_per_client=2, transfer_size=4096, read_iterations=1
        ),
    )
    store = PerfStore(str(tmp_path_factory.mktemp("mobject") / "perf.db"))
    with StoreWriter(store) as writer:
        run_id = writer.begin_run("mobject-smoke", kind="experiment")
        writer.record_collector(run_id, result.collector)
    yield ArchivedRun(store, run_id), result.collector
    store.close()
