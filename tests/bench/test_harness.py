"""Bench harness: timing statistics, JSON trajectory, regression gate."""

import json

from repro.bench.harness import (
    BenchResult,
    SuiteResult,
    check_ratios,
    check_regressions,
    compare_suites,
    history_entry,
    time_bench,
    write_suite,
)


def _suite_dict(median_s: float, calibration_s: float) -> dict:
    return {
        "suite": "kernel",
        "meta": {"calibration_s": calibration_s},
        "results": {
            "bench": {"median_s": median_s, "units": 100, "unit_name": "ops"}
        },
    }


def test_bench_result_median_and_rate():
    r = BenchResult(name="b", runs_s=[0.3, 0.1, 0.2], units=100, unit_name="ops")
    assert r.median_s == 0.2
    assert r.rate == 500.0


def test_bench_result_spread():
    r = BenchResult(name="b", runs_s=[0.5, 0.1, 0.3, 0.2, 0.4], units=100, unit_name="ops")
    assert r.min_s == 0.1
    assert r.iqr_s == 0.4 - 0.2
    d = r.to_dict()
    assert (d["min_s"], d["iqr_s"]) == (0.1, 0.2)
    row = SuiteResult(suite="kernel", results=[r], meta={}).rows()[0]
    assert (row["min"], row["iqr"]) == ("100.0ms", "200.0ms")
    assert BenchResult(name="one", runs_s=[0.7], units=1, unit_name="ops").iqr_s == 0.0


def test_time_bench_runs_fn_repeats_times():
    calls = []

    def fn():
        calls.append(1)
        return 7, "widgets"

    r = time_bench("t", fn, repeats=3)
    assert len(calls) == 3
    assert len(r.runs_s) == 3
    assert (r.units, r.unit_name) == (7, "widgets")


def test_compare_suites_normalizes_by_calibration():
    # Same normalized cost on a machine twice as fast: speedup 1.0.
    old = _suite_dict(median_s=0.2, calibration_s=0.10)
    new = _suite_dict(median_s=0.1, calibration_s=0.05)
    assert compare_suites(old, new)["bench"] == 1.0
    # Twice as fast on the same machine: speedup 2.0.
    new = _suite_dict(median_s=0.1, calibration_s=0.10)
    assert compare_suites(old, new)["bench"] == 2.0


def test_compare_suites_falls_back_to_raw_medians():
    old = _suite_dict(0.2, calibration_s=None)
    old["meta"] = {}
    new = _suite_dict(0.1, calibration_s=0.1)
    assert compare_suites(old, new)["bench"] == 2.0


def test_check_regressions_threshold():
    base = _suite_dict(0.100, 0.1)
    ok = _suite_dict(0.110, 0.1)  # 10% slower: within the 25% budget
    bad = _suite_dict(0.140, 0.1)  # 40% slower: regression
    assert check_regressions(base, ok, threshold=0.25) == []
    failures = check_regressions(base, bad, threshold=0.25)
    assert len(failures) == 1
    assert "bench" in failures[0]


def test_write_suite_embeds_baseline_and_speedups(tmp_path):
    suite = SuiteResult(
        suite="kernel",
        results=[
            BenchResult(name="bench", runs_s=[0.1], units=100, unit_name="ops")
        ],
        meta={"calibration_s": 0.1},
    )
    baseline = _suite_dict(0.2, 0.1)
    path = tmp_path / "BENCH_kernel.json"
    payload = write_suite(suite, str(path), baseline=baseline)
    assert payload["speedup_vs_baseline"]["bench"] == 2.0
    on_disk = json.loads(path.read_text())
    assert on_disk["baseline"]["results"]["bench"]["median_s"] == 0.2
    assert on_disk["results"]["bench"]["median_s"] == 0.1
    assert "history" not in on_disk  # only written when the caller passes one


def _tiny_suite() -> SuiteResult:
    return SuiteResult(
        suite="kernel",
        results=[
            BenchResult(name="bench", runs_s=[0.1], units=100, unit_name="ops")
        ],
        meta={"calibration_s": 0.05},
    )


def test_history_accumulates_instead_of_overwriting(tmp_path):
    path = tmp_path / "BENCH_kernel.json"
    entry1 = history_entry(_tiny_suite(), "2026-08-01")
    write_suite(_tiny_suite(), str(path), history=[entry1])
    prior = json.loads(path.read_text())["history"]
    entry2 = history_entry(_tiny_suite(), "2026-08-06")
    payload = write_suite(_tiny_suite(), str(path), history=prior + [entry2])
    assert [e["date"] for e in payload["history"]] == [
        "2026-08-01",
        "2026-08-06",
    ]
    first = payload["history"][0]
    assert first["date"] == "2026-08-01"
    assert first["calibration_s"] == 0.05
    assert first["results"] == {"bench": 0.1}
    # Entries now carry the dedupe identity (machine + git revision).
    assert first["machine"]
    assert "git_rev" in first


def test_check_ratios_gates_same_run_overhead():
    current = {
        "results": {
            "hepnos": {"median_s": 1.0},
            "hepnos_monitor": {"median_s": 1.1},
        }
    }
    assert check_ratios(current, [("hepnos_monitor", "hepnos", 1.2)]) == []
    failures = check_ratios(current, [("hepnos_monitor", "hepnos", 1.05)])
    assert len(failures) == 1
    assert "1.100" in failures[0] and "1.050" in failures[0]


def test_check_ratios_reports_missing_benchmarks():
    (failure,) = check_ratios(
        {"results": {"hepnos": {"median_s": 1.0}}},
        [("hepnos_monitor", "hepnos", 1.2)],
    )
    assert "missing hepnos_monitor" in failure
