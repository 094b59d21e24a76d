"""The four benchmark workloads, each driven through the public experiment APIs.

Every workload is closed loop (each simulated client waits for its reply)
and is a function ``fn(seed, *, smoke=False, workers=1) -> RunRecord``
that measures the CPU seconds and marks the start and end of its two
phases:

* set-up: build the cluster, deploy the services, generate the inputs;
* run: run the simulation and analyse it into the paper result the
  harness exists for (Fig 7 breakdown, Fig 9/11 quantities, Fig 5/6
  profile and trace, the scale cell's digests).

``smoke`` shrinks the inputs for the benchmark's own tests. ``workers``
only affects ``scale_cell``: the number of processes the parallel kernel
runs the partitioned cell on. At the default of one it runs in-process,
so a traced run sees every LP's code; the digests are the same.

The fingerprint a workload returns is a pure function of the simulated
schedule: comparing it across runs and against the recorded reference is
the benchmark's output check.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.cluster import Cluster
from repro.experiments.configs import TABLE_IV
from repro.experiments.hepnos import run_hepnos_experiment
from repro.experiments.mobject import MobjectExperimentResult
from repro.experiments.parallel_scale import (
    ParallelScaleCell,
    ParallelScaleResult,
    build_parallel_scale_plan,
)
from repro.experiments.presets import FAST_TEST, THETA_KNL
from repro.experiments.sonata import SonataExperimentResult
from repro.margo import MargoInstance
from repro.net import Fabric
from repro.services.mobject import MobjectProviderNode
from repro.services.sonata import SonataClient, SonataProvider
from repro.sim import Simulator
from repro.sim.parallel import run_partitioned
from repro.symbiosys import Stage, SymbiosysCollector
from repro.symbiosys.analysis import profile_summary
from repro.symbiosys.monitor import MonitorConfig
from repro.workloads import IorClient, IorConfig, generate_json_records, run_ior_clients

__all__ = ["DEFAULT_SEED", "RunRecord", "WORKLOADS", "fingerprint_digest"]

#: The seed whose fingerprints ``reference.json`` records.
DEFAULT_SEED = 0


@dataclass
class RunRecord:
    """What one execution of a workload did and how long it took."""

    #: CPU seconds (kernel workers included) of set-up, and of the run
    #: from the start of the simulation to the analysed result.
    setup_cpu_s: float
    run_cpu_s: float
    #: ``perf_counter`` at the start of set-up, the start of the run and
    #: the end of the run.
    marks: tuple[float, float, float]
    #: Simulator events executed (all LPs for the partitioned cell).
    events: int
    #: Deterministic facts about the simulated run (see module docstring).
    fingerprint: dict
    #: Failed semantic checks; empty when the run is correct.
    problems: list[str] = field(default_factory=list)
    #: Figures the per-layer report uses (input items, ior error counters,
    #: the parallel kernel's window and timing figures).
    facts: dict = field(default_factory=dict)


def fingerprint_digest(fingerprint: dict) -> str:
    text = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cpu_seconds() -> float:
    """CPU seconds used by this process and its waited-for children.

    The children are the parallel kernel's forked workers, which it joins
    before ``run_partitioned`` returns. CPU time leaves out the time the
    process waited for a core or the host ran another guest, which
    wall-clock time counts.
    """
    import resource

    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _rpc_counts(summary) -> dict[str, int]:
    counts: dict[str, int] = {}
    for row in summary.rows:
        counts[row.name] = counts.get(row.name, 0) + row.call_count
    return dict(sorted(counts.items()))


# -- sonata_store -------------------------------------------------------------

_SONATA_PID = 1


def sonata_store(seed: int, *, smoke: bool = False, workers: int = 1) -> RunRecord:
    """Fig 7's instance: one client stores 50,000 JSON records in batches
    of 5,000 on one server (the deployment of ``run_sonata_experiment``,
    composed here so that set-up is timed on its own)."""
    n_records, batch = (1_000, 200) if smoke else (50_000, 5_000)
    t0, c0 = time.perf_counter(), cpu_seconds()
    cluster = Cluster(stage=Stage.FULL, preset=THETA_KNL)
    server = cluster.process("sonata-svr", "nodeA", n_handler_es=2)
    provider = SonataProvider(server, _SONATA_PID)
    client_mi = cluster.process("sonata-cli", "nodeB")
    client = SonataClient(client_mi)
    records = generate_json_records(n_records, seed=seed)
    done = cluster.sim.event("sonata-done")
    stored_ids: list[int] = []

    def body():
        yield from client.create_database("sonata-svr", _SONATA_PID, "bench")
        ids = yield from client.store_multi(
            "sonata-svr", _SONATA_PID, "bench", records, batch_size=batch
        )
        stored_ids.extend(ids)
        done.succeed(cluster.sim.now)

    client_mi.client_ult(body(), name="sonata-bench")
    t1, c1 = time.perf_counter(), cpu_seconds()
    if not cluster.run_until_event(done, limit=600.0):
        raise RuntimeError("sonata_store did not finish in simulated time")
    result = SonataExperimentResult(
        collector=cluster.collector,
        makespan=done.value,
        n_records=n_records,
        batch_size=batch,
    )
    breakdown = result.target_execution_breakdown()
    summary = profile_summary(cluster.collector)
    t2, c2 = time.perf_counter(), cpu_seconds()

    stored = len(provider.collections["bench"].docs)
    problems = []
    if stored != n_records or len(stored_ids) != n_records:
        problems.append(f"stored {stored} records ({len(stored_ids)} ids), expected {n_records}")
    fingerprint = {
        "makespan": repr(result.makespan),
        "events": cluster.sim.events_processed,
        "rpcs": _rpc_counts(summary),
        "stored": stored,
        "fig7": {k: repr(v) for k, v in sorted(breakdown.items())},
    }
    return RunRecord(
        setup_cpu_s=c1 - c0,
        run_cpu_s=c2 - c1,
        marks=(t0, t1, t2),
        events=cluster.sim.events_processed,
        fingerprint=fingerprint,
        problems=problems,
        facts={"items": n_records},
    )


# -- hepnos_load ---------------------------------------------------------------


@contextmanager
def _simulation_start():
    """Record the host time and simulator of the first event-loop entry.

    ``run_hepnos_experiment`` deploys, generates and runs in one call;
    the first ``Simulator.run_until_event`` is where its set-up ends.
    """
    mark: dict = {}
    original = Simulator.run_until_event

    def run_until_event(sim, event, limit=None):
        if not mark:
            mark["t"], mark["cpu"] = time.perf_counter(), cpu_seconds()
            mark["sim"] = sim
        return original(sim, event, limit)

    Simulator.run_until_event = run_until_event
    try:
        yield mark
    finally:
        Simulator.run_until_event = original


def hepnos_load(seed: int, *, smoke: bool = False, workers: int = 1) -> RunRecord:
    """The HEPnOS data loader on Table IV C1 with the online Monitor
    attached: 1,024 events per client (32 clients, 32,768 events)."""
    events_per_client = 64 if smoke else 1024
    config = TABLE_IV["C1"]
    t0, c0 = time.perf_counter(), cpu_seconds()
    with _simulation_start() as mark:
        result = run_hepnos_experiment(
            config,
            events_per_client=events_per_client,
            monitoring=MonitorConfig(),
            seed=seed,
        )
    # Figs 9-12: target breakdown, unaccounted origin time, blocked-ULT
    # samples and the OFI-events series.
    fig9 = result.target_breakdown()
    fig11 = result.unaccounted_fraction
    fig10 = len(result.blocked_samples())
    fig12 = len(result.ofi_series())
    t2, c2 = time.perf_counter(), cpu_seconds()
    sim = mark["sim"]

    expected = events_per_client * config.total_clients
    problems = []
    if result.events_stored != expected:
        problems.append(f"stored {result.events_stored} events, expected {expected}")
    fingerprint = {
        "makespan": repr(result.makespan),
        "events": sim.events_processed,
        "rpcs": _rpc_counts(result.summary),
        "rpcs_issued": result.rpcs_issued,
        "stored": result.events_stored,
        "fig9": {k: repr(v) for k, v in sorted(fig9.items())},
        "fig10_samples": fig10,
        "fig11": repr(fig11),
        "fig12_samples": fig12,
        "monitor_samples": len(result.monitor.store),
    }
    return RunRecord(
        setup_cpu_s=mark["cpu"] - c0,
        run_cpu_s=c2 - mark["cpu"],
        marks=(t0, mark["t"], t2),
        events=sim.events_processed,
        fingerprint=fingerprint,
        problems=problems,
        facts={"items": expected},
    )


# -- mobject_ior ---------------------------------------------------------------


def mobject_ior(seed: int, *, smoke: bool = False, workers: int = 1) -> RunRecord:
    """ior over Mobject: 8 ranks colocated with the provider, 24 objects
    of 64 KiB each, written then read back twice (the deployment of
    ``run_mobject_experiment``, composed to pass the ior seed)."""
    ranks, objects = (2, 4) if smoke else (8, 24)
    ior = IorConfig(objects_per_client=objects, transfer_size=64 * 1024, read_iterations=2)
    t0, c0 = time.perf_counter(), cpu_seconds()
    sim = Simulator()
    fabric = Fabric(sim, FAST_TEST.fabric)
    collector = SymbiosysCollector(Stage.FULL)
    MobjectProviderNode(
        sim,
        fabric,
        "mobject0",
        "node0",
        n_handler_es=8,
        sdskv_costs=FAST_TEST.map_costs,
        instrumentation=collector.create_instrumentation(),
    )
    clients = []
    for rank in range(ranks):
        mi = MargoInstance(
            sim,
            fabric,
            f"ior{rank}",
            "node0",
            serialization=FAST_TEST.serialization,
            ctx_switch_cost=FAST_TEST.ctx_switch_cost,
            instrumentation=collector.create_instrumentation(),
        )
        clients.append(IorClient(mi, "mobject0", rank, ior, seed=seed))
    t1, c1 = time.perf_counter(), cpu_seconds()
    all_done = run_ior_clients(clients)
    if not sim.run_until_event(all_done, limit=60.0):
        raise RuntimeError("mobject_ior did not finish in simulated time")
    result = MobjectExperimentResult(
        collector=collector,
        makespan=max(c.finished_at for c in clients),
        clients=clients,
    )
    summary = result.summary  # Fig 6: dominant callpaths
    write_op = result.write_op_zipkin()  # Fig 5: one write_op's steps
    t2, c2 = time.perf_counter(), cpu_seconds()

    write_errors = sum(c.write_errors for c in clients)
    read_mismatches = sum(c.read_mismatches for c in clients)
    problems = []
    if write_errors or read_mismatches:
        problems.append(f"{write_errors} write errors, {read_mismatches} read mismatches")
    fingerprint = {
        "makespan": repr(result.makespan),
        "events": sim.events_processed,
        "rpcs": _rpc_counts(summary),
        "objects_written": ranks * objects,
        "write_errors": write_errors,
        "read_mismatches": read_mismatches,
        "fig5_spans": len(write_op),
    }
    return RunRecord(
        setup_cpu_s=c1 - c0,
        run_cpu_s=c2 - c1,
        marks=(t0, t1, t2),
        events=sim.events_processed,
        fingerprint=fingerprint,
        problems=problems,
        facts={
            "write_errors": write_errors,
            "read_mismatches": read_mismatches,
            "items": ranks * objects,
        },
    )


# -- scale_cell -----------------------------------------------------------------


def scale_cell(seed: int, *, smoke: bool = False, workers: int = 1) -> RunRecord:
    """The 32-server sharded KV cell (4 server LPs, 8 clients x 100 keys)
    through the conservative parallel kernel (the steps of
    ``run_parallel_scale``, split so that planning is timed as set-up).

    The timed run is in-process: on a box with two vCPUs, two workers and
    their coordinator measure the host's scheduler more than the kernel.
    Only the traced run's window and barrier figures use two workers.
    """
    cell = ParallelScaleCell(
        n_servers=32, server_lps=4, n_clients=4 if smoke else 8,
        keys_per_client=10 if smoke else 100,
    )
    t0, c0 = time.perf_counter(), cpu_seconds()
    plan = build_parallel_scale_plan(cell, seed=seed, collect=False)
    t1, c1 = time.perf_counter(), cpu_seconds()
    run = ParallelScaleResult(
        cell=cell, seed=seed, workers=workers, result=run_partitioned(plan, workers=workers)
    )
    problems = []
    try:
        run.check_invariants()
    except AssertionError as exc:
        problems.append(str(exc))
    digests = run.result.digests()
    t2, c2 = time.perf_counter(), cpu_seconds()

    res = run.result
    fingerprint = {
        "makespan": repr(res.makespan),
        "events": res.events_processed,
        "windows": res.windows_executed,
        "boundary_events": res.boundary_events,
        "rpcs_ok": sum(r["extra"].get("rpcs_ok", 0) for r in res.lp_reports),
        "digests": fingerprint_digest(digests),
    }
    return RunRecord(
        setup_cpu_s=c1 - c0,
        run_cpu_s=c2 - c1,
        marks=(t0, t1, t2),
        events=res.events_processed,
        fingerprint=fingerprint,
        problems=problems,
        facts={
            "windows": res.windows_executed,
            "boundary_events": res.boundary_events,
            "kernel_wall_s": res.wall_time,
            "barrier_wait_frac": res.barrier_wait_frac,
            "workers_used": res.workers_used,
            "items": cell.n_clients * cell.keys_per_client,
        },
    )


#: name -> (function, why it is in the benchmark)
WORKLOADS = {
    "sonata_store": (
        sonata_store,
        "Fig 7 instance; estimate_size dominates host time, so serialization gains show here",
    ),
    "hepnos_load": (
        hepnos_load,
        "HEPnOS loader on Table IV C1 with the Monitor; cost spread over argobots, sdskv, "
        "mercury and the observer",
    ),
    "mobject_ior": (
        mobject_ior,
        "ior over Mobject; bound by the event loop and scheduler, so a serialization gain "
        "should not show",
    ),
    "scale_cell": (
        scale_cell,
        "32-server sharded cell through the partitioned kernel in one process; the only run "
        "of shard, sim.parallel and validate",
    ),
}
