"""Timing harness: median-of-N runs, machine metadata, JSON trajectory.

Wall-clock numbers are only comparable when the machine that produced
them is recorded alongside; every suite therefore embeds
:func:`machine_meta`, including a *calibration constant* -- the time to
run a fixed pure-Python spin loop.  Dividing a benchmark's median by the
calibration gives a dimensionless, machine-normalized cost that the
``--check`` regression gate compares across machines (CI runners
included) without chasing absolute seconds.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = [
    "BenchResult",
    "SuiteResult",
    "calibrate",
    "check_ratios",
    "check_regressions",
    "compare_suites",
    "dedupe_history",
    "history_entry",
    "machine_meta",
    "time_bench",
    "write_suite",
]

#: Iterations of the calibration spin loop (fixed forever -- changing it
#: breaks cross-trajectory normalization).
_CALIBRATION_N = 2_000_000


#: Memoized spin-loop results: a machine constant, so one measurement
#: per process suffices -- and processes forked after the first call
#: (``map_cells`` workers, parallel-kernel LPs) inherit it
#: copy-on-write instead of re-calibrating.
_calibration_cache: dict = {}


def calibrate(n: int = _CALIBRATION_N) -> float:
    """Seconds to run a fixed pure-Python accumulation loop.

    A proxy for single-core interpreter speed on this machine; benchmark
    medians are divided by it to get machine-normalized costs.
    """
    cached = _calibration_cache.get(n)
    if cached is not None:
        return cached
    best = float("inf")
    for _ in range(3):
        acc = 0
        t0 = time.perf_counter()
        for i in range(n):
            acc += i
        best = min(best, time.perf_counter() - t0)
    _calibration_cache[n] = best
    return best


def machine_meta() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "calibration_s": round(calibrate(), 6),
    }


@dataclass
class BenchResult:
    """One benchmark's timings (every repeat, not just the median)."""

    name: str
    runs_s: list[float]
    units: int
    unit_name: str
    extra: dict = field(default_factory=dict)

    @property
    def median_s(self) -> float:
        return statistics.median(self.runs_s)

    @property
    def min_s(self) -> float:
        return min(self.runs_s)

    @property
    def iqr_s(self) -> float:
        """Interquartile range of the runs (0 for a single run)."""
        if len(self.runs_s) < 2:
            return 0.0
        q1, _, q3 = statistics.quantiles(self.runs_s, n=4, method="inclusive")
        return q3 - q1

    @property
    def rate(self) -> float:
        """Work units per wall-clock second at the median."""
        m = self.median_s
        return self.units / m if m > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "median_s": round(self.median_s, 6),
            "min_s": round(self.min_s, 6),
            "iqr_s": round(self.iqr_s, 6),
            "runs_s": [round(r, 6) for r in self.runs_s],
            "units": self.units,
            "unit_name": self.unit_name,
            "rate_per_s": round(self.rate, 1),
            **({"extra": self.extra} if self.extra else {}),
        }


@dataclass
class SuiteResult:
    """All benchmarks of one suite plus the machine that ran them."""

    suite: str
    results: list[BenchResult]
    meta: dict = field(default_factory=machine_meta)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "meta": self.meta,
            "results": {r.name: r.to_dict() for r in self.results},
        }

    def rows(self) -> list[dict]:
        return [
            {
                "benchmark": r.name,
                "median": f"{r.median_s * 1e3:.1f}ms",
                "min": f"{r.min_s * 1e3:.1f}ms",
                "iqr": f"{r.iqr_s * 1e3:.1f}ms",
                "rate": f"{r.rate:,.0f} {r.unit_name}/s",
            }
            for r in self.results
        ]


def time_bench(
    name: str,
    fn: Callable[[], tuple[int, str]],
    repeats: int = 5,
    log: Callable[[str], None] = lambda s: None,
) -> BenchResult:
    """Run ``fn`` ``repeats`` times; it returns ``(units, unit_name)``.

    Each repeat builds its own world (simulator, cluster, ...) so no
    state leaks between runs; the reported number is the median.
    """
    runs: list[float] = []
    units, unit_name = 0, "ops"
    for i in range(repeats):
        t0 = time.perf_counter()
        units, unit_name = fn()
        runs.append(time.perf_counter() - t0)
        log(f"  {name} [{i + 1}/{repeats}] {runs[-1] * 1e3:.1f} ms")
    return BenchResult(name=name, runs_s=runs, units=units, unit_name=unit_name)


def write_suite(
    suite: SuiteResult,
    path: str,
    baseline: Optional[dict] = None,
    history: Optional[list] = None,
) -> dict:
    """Write ``suite`` as JSON; with ``baseline`` (an older suite dict),
    embed it and the per-benchmark speedups for trajectory tracking.

    ``history`` is the dated run trajectory carried in the file: the
    caller passes the previous file's entries plus the new one (see
    :func:`history_entry`), so re-running ``--compare`` accumulates the
    perf trajectory across PRs instead of overwriting it.
    """
    payload = suite.to_dict()
    if baseline is not None:
        payload["baseline"] = {
            "meta": baseline.get("meta", {}),
            "results": baseline.get("results", {}),
        }
        payload["speedup_vs_baseline"] = compare_suites(baseline, payload)
    if history is not None:
        payload["history"] = history
    with open(path, "w", newline="\n") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return payload


def history_entry(suite: SuiteResult, date: str) -> dict:
    """One dated trajectory entry: medians plus the calibration constant
    needed to normalize them later.

    ``machine`` and ``git_rev`` identify where the numbers came from;
    together with the suite they form the dedupe key that keeps
    re-running ``--compare`` on the same checkout from growing the
    trajectory (see :func:`dedupe_history`).
    """
    from ..store.writer import git_rev, normalized_machine

    return {
        "date": date,
        "machine": normalized_machine(),
        "git_rev": git_rev(),
        "calibration_s": suite.meta.get("calibration_s"),
        "results": {r.name: round(r.median_s, 6) for r in suite.results},
    }


def dedupe_history(history: list, entry: dict) -> list:
    """Append ``entry`` to ``history`` idempotently: any prior entry
    from the same machine at the same git revision is replaced instead
    of duplicated.  Entries predating the machine/git_rev fields are
    kept as-is (their key is unknown)."""
    key = (entry.get("machine"), entry.get("git_rev"))
    kept = [
        h for h in history
        if None in key or (h.get("machine"), h.get("git_rev")) != key
    ]
    kept.append(entry)
    return kept


def _normalized(entry: dict, meta: dict) -> Optional[float]:
    cal = meta.get("calibration_s")
    if not cal:
        return None
    return entry["median_s"] / cal


def compare_suites(old: dict, new: dict) -> dict:
    """Per-benchmark ``old/new`` wall-clock ratio (>1 means faster now).

    When both suites carry a calibration constant the ratio is computed
    on machine-normalized costs, so runs from different machines remain
    comparable; otherwise raw medians are used.
    """
    speedups: dict[str, float] = {}
    old_results = old.get("results", {})
    new_results = new.get("results", {})
    for name in sorted(set(old_results) & set(new_results)):
        o = _normalized(old_results[name], old.get("meta", {}))
        n = _normalized(new_results[name], new.get("meta", {}))
        if o is None or n is None:
            o = old_results[name]["median_s"]
            n = new_results[name]["median_s"]
        if n > 0:
            speedups[name] = round(o / n, 3)
    return speedups


def check_ratios(current: dict, ratios: list[tuple[str, str, float]]) -> list[str]:
    """Gate same-run median ratios, e.g. the monitored arm's overhead
    over the unmonitored one: each ``(numerator, denominator, limit)``
    fails when ``median(numerator) / median(denominator) > limit``.
    Both medians come from the same run on the same machine, so no
    calibration normalization is needed (or wanted)."""
    failures = []
    results = current.get("results", {})
    for num, den, limit in ratios:
        num_entry = results.get(num)
        den_entry = results.get(den)
        if num_entry is None or den_entry is None:
            missing = [n for n in (num, den) if n not in results]
            failures.append(f"{num}/{den}: missing {', '.join(missing)}")
            continue
        den_median = den_entry["median_s"]
        if den_median <= 0:
            failures.append(f"{num}/{den}: zero denominator median")
            continue
        ratio = num_entry["median_s"] / den_median
        if ratio > limit:
            failures.append(
                f"{num}/{den}: ratio {ratio:.3f} exceeds limit {limit:.3f}"
            )
    return failures


def check_regressions(
    baseline: dict, current: dict, threshold: float = 0.25
) -> list[str]:
    """Benchmarks whose normalized cost regressed by more than
    ``threshold`` versus ``baseline``; empty means the gate passes."""
    failures = []
    for name, speedup in compare_suites(baseline, current).items():
        # speedup = old/new; a 25% regression is new = 1.25 * old.
        if speedup < 1.0 / (1.0 + threshold):
            failures.append(
                f"{name}: {1.0 / speedup:.2f}x slower than baseline "
                f"(threshold {1.0 + threshold:.2f}x)"
            )
    return failures
