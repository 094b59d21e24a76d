"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sonata_store --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Every execution of the workload (an *iteration*) runs in a freshly forked
process, so its peak resident memory is its own and a time limit can end
it. Iterations repeat for about ``--seconds`` (at least
``MIN_ITERATIONS``), and each metric is the median over iterations.
Times are CPU seconds of the iteration's process and its kernel workers
(see ``workloads.cpu_seconds``), rescaled to a fixed host speed measured
while the iteration runs (see ``speed.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics (see
``tracing.py`` and ``README.md``). A traced run also writes its spans and
a summary under ``.perfbench/`` in the repository root.

An iteration fails when it raises, overruns ``ITERATION_LIMIT_S``, fails a
semantic check, or produces a fingerprint different from the other
iterations' or, at the default seed, from ``reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedSampler
from tracing import LAYER_METRICS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
OUT_DIR = ROOT / ".perfbench"

MIN_ITERATIONS = 3
ITERATION_LIMIT_S = 60.0
#: No iteration starts once this much of the run has passed, so that a
#: run ends well within its 180-second allowance.
RUN_BUDGET_S = 130.0

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


# -- one iteration, in a forked child ------------------------------------------


def _iteration(workload: str, seed: int, smoke: bool, traced: bool, workers: int,
               spans_path: str | None) -> dict:
    import resource

    from workloads import WORKLOADS, fingerprint_digest

    fn = WORKLOADS[workload][0]
    if traced:
        tracer = Tracer()
        with tracer.installed():
            record = fn(seed, smoke=smoke, workers=workers)
    else:
        sampler = SpeedSampler()
        with sampler.running():
            record = fn(seed, smoke=smoke, workers=workers)
    t0, t1, t2 = record.marks
    # ru_maxrss is in KiB on Linux; children are the kernel's workers.
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out = {
        "setup_cpu_s": record.setup_cpu_s,
        "run_cpu_s": record.run_cpu_s,
        "wall_s": t2 - t1,
        "events": record.events,
        "peak_rss_mb": peak_kib / 1024.0,
        "fingerprint": record.fingerprint,
        "digest": fingerprint_digest(record.fingerprint),
        "problems": record.problems,
        "facts": record.facts,
    }
    if traced:
        out["layers"] = layer_metrics(tracer, record)
        if spans_path:
            tracer.write_spans(spans_path)
    else:
        out["setup_s"], _ = sampler.rescale(record.setup_cpu_s, t0, t1)
        out["run_s"], probe_s = sampler.rescale(record.run_cpu_s, t1, t2)
        out["run_cpu_s"] -= probe_s
        out["probes"] = len(sampler.samples)
    return out


def run_iteration(workload: str, seed: int, *, smoke: bool = False, traced: bool = False,
                  workers: int = 1, spans_path: str | None = None,
                  limit_s: float = ITERATION_LIMIT_S) -> dict:
    """One iteration in a forked child; returns its result or ``{"error": ...}``."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        os.setpgid(0, 0)
        os.dup2(2, 1)  # keep the result line the last thing on stdout
        try:
            payload = _iteration(workload, seed, smoke, traced, workers, spans_path)
        except BaseException:
            payload = {"error": traceback.format_exc()}
        data = json.dumps(payload).encode()
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(data)
        os._exit(0)

    os.close(write_fd)
    try:
        os.setpgid(pid, pid)
    except OSError:
        pass  # the child already did it, or has exited
    chunks = []
    deadline = time.monotonic() + limit_s
    timed_out = False
    with os.fdopen(read_fd, "rb") as fh:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                timed_out = True
                break
            ready, _, _ = select.select([fh], [], [], left)
            if not ready:
                continue
            chunk = os.read(fh.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    if timed_out:
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    _, status = os.waitpid(pid, 0)
    if timed_out:
        return {"error": f"iteration exceeded its {limit_s:.0f} s limit"}
    if not chunks:
        return {"error": f"iteration process ended without a result (status {status})"}
    return json.loads(b"".join(chunks))


# -- a run: iterations until the time is up -------------------------------------


def _reference(workload: str, seed: int, smoke: bool) -> dict | None:
    from workloads import DEFAULT_SEED

    if smoke or seed != DEFAULT_SEED or not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload)


def check_iterations(results: list[dict], reference: dict | None) -> list[str]:
    """Mark each result failed or not (``result["failed"]``); return the
    reasons for every failure."""
    reasons = []
    first_digest = None
    for i, res in enumerate(results):
        why = None
        if "error" in res:
            why = res["error"].strip().splitlines()[-1]
        elif res["problems"]:
            why = "; ".join(res["problems"])
        elif reference is not None and res["digest"] != reference["digest"]:
            diff = sorted(
                k for k in set(reference["fingerprint"]) | set(res["fingerprint"])
                if reference["fingerprint"].get(k) != res["fingerprint"].get(k)
            )
            why = f"fingerprint differs from reference in {diff}"
        elif first_digest is not None and res["digest"] != first_digest:
            why = "fingerprint differs from an earlier iteration of the same seed"
        if why is None and first_digest is None:
            first_digest = res["digest"]
        res["failed"] = why is not None
        if why is not None:
            reasons.append(f"iteration {i}: {why}")
    return reasons


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 smoke: bool = False) -> tuple[dict, list[str]]:
    """All iterations of one run; returns (result object, failure reasons)."""
    # (kind, traced, workers). Traced: plain and traced iterations
    # alternate; scale_cell adds a plain two-worker iteration for the
    # kernel's own window and barrier figures.
    if not traced:
        cycle = [("plain", False, 1)]
    elif workload == "scale_cell":
        cycle = [("parallel", False, 2), ("plain", False, 1), ("traced", True, 1)]
    else:
        cycle = [("plain", False, 1), ("traced", True, 1)]
    min_iterations = len(cycle) if traced else MIN_ITERATIONS
    if traced:
        OUT_DIR.mkdir(exist_ok=True)
    spans_path = str(OUT_DIR / f"{workload}-seed{seed}-spans.csv")

    # No iteration starts that would, at the typical length so far, end
    # after ``seconds``: a run takes about ``seconds`` and no more.
    results = []
    durations = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        n = len(results)
        if n >= min_iterations and (
            elapsed + _median(durations) > seconds or elapsed + max(durations) > RUN_BUDGET_S
        ):
            break
        kind, is_traced, workers = cycle[n % len(cycle)]
        t0 = time.monotonic()
        res = run_iteration(workload, seed, smoke=smoke, traced=is_traced, workers=workers,
                            spans_path=spans_path if is_traced else None)
        durations.append(time.monotonic() - t0)
        res["kind"] = kind
        results.append(res)

    reasons = check_iterations(results, _reference(workload, seed, smoke))
    ok = [r for r in results if not r["failed"]]
    if not traced:
        metrics = {
            "run_s": _median([r["run_s"] for r in ok]),
            "setup_s": _median([r["setup_s"] for r in ok]),
            "events_per_s": _median([r["events"] / r["run_s"] for r in ok]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok]),
        }
        units = dict(END_TO_END)
    else:
        metrics = _layer_summary(ok)
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        _write_trace_summary(workload, seed, results, metrics)
    result = {
        "correct": not reasons and bool(ok),
        "attempted": len(results),
        "failed": len(results) - len(ok),
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()
        },
    }
    return result, reasons


def _layer_summary(ok: list[dict]) -> dict:
    traced = [r for r in ok if r["kind"] == "traced"]
    plain = [r for r in ok if r["kind"] == "plain"]
    parallel = [r for r in ok if r["kind"] == "parallel"]
    metrics = {
        name: _median([r["layers"][name] for r in traced if name in r["layers"]])
        for name, _, _ in LAYER_METRICS
    }
    if parallel:
        windows = _median([r["facts"]["windows"] for r in parallel])
        metrics["sim.parallel.windows"] = windows
        metrics["sim.parallel.boundary_events"] = _median(
            [r["facts"]["boundary_events"] for r in parallel]
        )
        metrics["sim.parallel.events_per_window"] = _median(
            [r["events"] / r["facts"]["windows"] for r in parallel]
        )
        # Mean seconds one worker spent waiting at window barriers.
        metrics["sim.parallel.barrier_wait_s"] = _median(
            [r["facts"]["barrier_wait_frac"] * r["facts"]["kernel_wall_s"] for r in parallel]
        )
    if traced and plain:
        metrics["trace.overhead_frac"] = _median([r["run_cpu_s"] for r in traced]) / _median(
            [r["run_cpu_s"] for r in plain]
        )
    return metrics


# -- machine metadata and output -------------------------------------------------


def machine_meta() -> dict:
    from repro.bench.harness import calibrate

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration_s": calibrate(),
    }


def _write_trace_summary(workload: str, seed: int, results: list[dict], metrics: dict) -> None:
    summary = {
        "workload": workload,
        "seed": seed,
        "meta": machine_meta(),
        "metrics": metrics,
        "iterations": [
            {
                k: r.get(k)
                for k in ("kind", "run_s", "setup_s", "run_cpu_s", "setup_cpu_s", "wall_s",
                          "events", "digest", "error")
            }
            for r in results
        ],
    }
    path = OUT_DIR / f"{workload}-seed{seed}-trace.json"
    path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


def _describe(workload: str, result: dict) -> str:
    parts = [f"{workload}: attempted={result['attempted']} failed={result['failed']}"]
    for name, m in result["metrics"].items():
        parts.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    return "\n".join(parts)


def write_reference() -> None:
    """Record the default seed's fingerprint of every workload."""
    from workloads import DEFAULT_SEED, WORKLOADS

    ref = {}
    for name in WORKLOADS:
        res = run_iteration(name, DEFAULT_SEED)
        if "error" in res or res["problems"]:
            raise SystemExit(f"{name}: {res.get('error') or res['problems']}")
        ref[name] = {"digest": res["digest"], "fingerprint": res["fingerprint"]}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the default seed's fingerprints and exit")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads  # imports repro once, before any fork
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")

    print(json.dumps({"meta": machine_meta()}), flush=True)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, reasons = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for reason in reasons:
            print(f"perfbench: {name}: {reason}", file=sys.stderr)
        print(_describe(name, result), flush=True)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, value in result["metrics"].items():
            combined["metrics"][prefix + metric] = value
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
