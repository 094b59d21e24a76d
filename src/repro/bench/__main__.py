"""Command-line benchmark runner.

Usage::

    python -m repro.bench                    # full suites, write BENCH_*.json
    python -m repro.bench --smoke            # CI-sized workloads
    python -m repro.bench --suite kernel     # one suite only
    python -m repro.bench --compare OLD.json # embed OLD as the baseline
    python -m repro.bench --check BASE.json  # fail on >25% regression
    python -m repro.bench --max-ratio hepnos_monitor/hepnos=1.20
                                             # gate a same-run overhead ratio
    python -m repro.bench --store perf.db    # also archive into the store
    python -m repro.bench --check perf.db    # gate against store baselines

``--check`` compares machine-normalized costs (median / calibration
constant), so a committed baseline from one machine still gates runs on
another; see ``docs/performance.md``.  The baseline may be BENCH JSON or
a performance-store ``.db`` (recorded with ``--store`` or imported via
``python -m repro.store import-bench``).  ``--compare`` also appends a
dated entry to the ``history`` list carried inside each BENCH JSON --
idempotently: one entry per (machine, git revision), so re-running on
the same checkout updates the trajectory instead of growing it.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

from .harness import (
    check_ratios,
    check_regressions,
    dedupe_history,
    history_entry,
    write_suite,
)
from .kernel import run_kernel_benchmarks
from .macro import run_macro_benchmarks

_SUITES = {
    "kernel": (run_kernel_benchmarks, "BENCH_kernel.json"),
    "macro": (run_macro_benchmarks, "BENCH_macro.json"),
}


def _load(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def _load_baseline(path: str) -> dict:
    """A --compare/--check source: BENCH JSON, or a performance-store
    database (sniffed by the SQLite magic), whose recorded bench runs
    become the baseline bundle."""
    with open(path, "rb") as f:
        magic = f.read(16)
    if not magic.startswith(b"SQLite format 3"):
        return _load(path)
    from ..store import PerfStore

    store = PerfStore(path)
    try:
        return store.bench_baseline()
    finally:
        store.close()


def _baseline_for(compare: dict, suite_name: str) -> dict | None:
    """A --compare/--check file is either one suite dict or a bundle
    keyed by suite name (the committed baseline format)."""
    if compare.get("suite") == suite_name:
        return compare
    entry = compare.get(suite_name)
    return entry if isinstance(entry, dict) else None


def _prior_history(path: str, baseline: dict | None) -> list:
    """The dated trajectory to carry forward: the destination file's
    ``history`` if it exists (the usual overwrite-in-place flow), else
    the baseline's (first ``--compare`` run after the format change)."""
    try:
        prior = _load(path).get("history")
    except (OSError, ValueError):
        prior = None
    if prior is None and baseline is not None:
        prior = baseline.get("history")
    return list(prior) if isinstance(prior, list) else []


def _parse_ratio(spec: str) -> tuple[str, str, float]:
    """Parse a ``NUM/DEN=LIMIT`` gate spec, e.g.
    ``hepnos_monitor/hepnos=1.20``."""
    try:
        pair, limit = spec.rsplit("=", 1)
        num, den = pair.split("/", 1)
        return num.strip(), den.strip(), float(limit)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected NUM/DEN=LIMIT, got {spec!r}"
        ) from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Wall-clock benchmarks for the kernel and harnesses.",
    )
    parser.add_argument(
        "--suite", choices=[*_SUITES, "all"], default="all",
        help="which suite to run (default: all)",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="reduced workloads for CI smoke runs")
    parser.add_argument("--repeats", type=int, default=None,
                        help="repeats per benchmark (median is reported)")
    parser.add_argument("--out", default=".",
                        help="directory for BENCH_*.json (default: cwd)")
    parser.add_argument("--compare", default=None, metavar="OLD.json",
                        help="embed OLD (BENCH json or store .db) as the "
                             "baseline and report speedups")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="exit 1 on >--threshold regression vs BASELINE "
                             "(BENCH json or a performance-store .db)")
    parser.add_argument("--store", default=None, metavar="PERF.db",
                        help="also record the suite (and an idempotent "
                             "history entry) into a performance store")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed relative regression for --check")
    parser.add_argument(
        "--max-ratio", action="append", type=_parse_ratio, default=[],
        metavar="NUM/DEN=LIMIT",
        help="exit 1 when median(NUM)/median(DEN) exceeds LIMIT "
             "(repeatable; e.g. hepnos_monitor/hepnos=1.20)",
    )
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-run progress lines")
    args = parser.parse_args(argv)

    log = (lambda s: None) if args.quiet else print
    compare = _load_baseline(args.compare) if args.compare else None
    check = _load_baseline(args.check) if args.check else None
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    failures: list[str] = []
    all_results: dict[str, dict] = {}
    today = datetime.date.today().isoformat()

    os.makedirs(args.out, exist_ok=True)
    for name in suites:
        run, filename = _SUITES[name]
        kwargs = {"smoke": args.smoke, "log": log}
        if args.repeats is not None:
            kwargs["repeats"] = args.repeats
        suite = run(**kwargs)
        path = os.path.join(args.out, filename)
        baseline = compare and _baseline_for(compare, name)
        history = None
        if compare is not None:
            history = dedupe_history(
                _prior_history(path, baseline), history_entry(suite, today)
            )
        payload = write_suite(suite, path, baseline=baseline, history=history)
        all_results.update(payload.get("results", {}))
        print(f"{name}: wrote {path}")
        if args.store:
            from ..store import record_bench_suite

            run_id = record_bench_suite(args.store, payload, date=today)
            print(f"{name}: recorded run {run_id} into {args.store}")
        for row in suite.rows():
            line = (
                f"  {row['benchmark']:<16} {row['median']:>10}"
                f"  (min {row['min']}, iqr {row['iqr']})  {row['rate']}"
            )
            speedups = payload.get("speedup_vs_baseline", {})
            if row["benchmark"] in speedups:
                line += f"  ({speedups[row['benchmark']]:.2f}x vs baseline)"
            print(line)
        if check is not None:
            base = _baseline_for(check, name)
            if base is None:
                failures.append(f"{name}: no baseline in {args.check}")
            else:
                failures.extend(
                    f"{name}/{msg}"
                    for msg in check_regressions(
                        base, payload, threshold=args.threshold
                    )
                )

    if args.max_ratio:
        ratio_failures = check_ratios({"results": all_results}, args.max_ratio)
        failures.extend(f"ratio/{msg}" for msg in ratio_failures)
        if not ratio_failures:
            gates = ", ".join(f"{a}/{b}<={lim}" for a, b, lim in args.max_ratio)
            print(f"bench --max-ratio passed ({gates})")

    if failures:
        print("bench gate FAILED:")
        for msg in failures:
            print(f"  {msg}")
        return 1
    if check is not None:
        print(f"bench --check passed (threshold {args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
