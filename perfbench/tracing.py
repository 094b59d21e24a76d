"""Span tracing for the benchmark's traced run, installed from outside the program.

A :class:`Tracer` wraps the public entry points of each layer (see
:data:`ENTRY_POINTS`) for the duration of one workload run and keeps every
span in memory. A span is one call -- or, for a generator function, one
resume -- with its layer, name, start, end, parent span and self time. Self
time is the span's duration minus the durations of its child spans, so the
self times of all spans add up to the time the outermost spans cover.

Nothing here is imported by ``repro``: the wrappers are put on the classes
and module attributes at :meth:`Tracer.installed` and taken off again on
exit.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

__all__ = ["ENTRY_POINTS", "LAYER_METRICS", "Tracer", "layer_metrics"]

#: (layer, module, qualified name, outermost-only) of every wrapped entry
#: point. Generator functions are detected and timed per resume.
ENTRY_POINTS = (
    ("sim", "repro.sim.engine", "Simulator.run", False),
    ("sim", "repro.sim.engine", "Simulator.run_until_event", False),
    ("argobots", "repro.argobots.pool", "Pool.push", False),
    ("net", "repro.net.fabric", "Fabric.send", False),
    ("net", "repro.net.fabric", "Fabric.rdma_get", False),
    ("mercury", "repro.mercury.serialization", "estimate_size", True),
    ("mercury", "repro.mercury.core", "HGCore.forward", False),
    ("mercury", "repro.mercury.core", "HGCore.respond", False),
    ("mercury", "repro.mercury.core", "HGCore.get_input", False),
    ("mercury", "repro.mercury.core", "HGCore.bulk_pull", False),
    ("mercury", "repro.mercury.core", "HGCore.progress", False),
    ("mercury", "repro.mercury.core", "HGCore.trigger", False),
    ("margo", "repro.margo.instance", "MargoInstance.forward", False),
    ("margo", "repro.margo.instance", "MargoInstance.respond", False),
    ("margo", "repro.margo.instance", "MargoInstance.bulk_transfer", False),
    ("symbiosys", "repro.symbiosys.collector", "SymbiosysCollector.create_instrumentation", False),
    ("symbiosys", "repro.symbiosys.tracing", "TraceBuffer.append_event", False),
    ("symbiosys", "repro.symbiosys.monitor", "Monitor.sample", False),
    ("symbiosys", "repro.symbiosys.analysis.profile_summary", "profile_summary", True),
    ("symbiosys", "repro.symbiosys.analysis.trace_summary", "trace_summary", True),
    ("workloads", "repro.workloads.json_records", "generate_json_records", False),
    ("workloads", "repro.workloads.synthetic_hdf5", "generate_event_files", False),
    ("workloads", "repro.workloads.ior", "IorClient.body", False),
    ("shard", "repro.shard.ring", "HashRing.node_for", False),
    ("validate", "repro.validate.invariants", "_SchedChecker.on_spawn", False),
    ("validate", "repro.validate.invariants", "_SchedChecker.on_slice", False),
    ("validate", "repro.validate.invariants", "_RpcLifecycleChecker.on_forward", False),
    ("validate", "repro.validate.invariants", "_RpcLifecycleChecker.on_forward_complete", False),
    ("validate", "repro.validate.invariants", "_RpcLifecycleChecker.on_handler_start", False),
    ("validate", "repro.validate.invariants", "_RpcLifecycleChecker.on_respond", False),
    ("validate", "repro.validate.invariants", "_RpcLifecycleChecker.on_handler_end", False),
    ("validate", "repro.validate.invariants", "InvariantMonitor._on_progress", False),
    ("sim.parallel", "repro.sim.parallel.kernel", "run_partitioned", False),
)

#: Span names whose total duration is the post-run analysis time.
_ANALYSIS = ("profile_summary", "trace_summary")

#: Per-layer metrics of the traced run: (name, unit, better).
LAYER_METRICS = (
    ("sim.events", "count", "lower"),
    ("sim.self_s", "s", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("argobots.pool_pushes", "count", "lower"),
    ("argobots.self_s", "s", "lower"),
    ("argobots.handler_wait_sim_s", "sim_s", "lower"),
    ("net.messages", "count", "lower"),
    ("net.bytes", "B", "lower"),
    ("net.rdma_gets", "count", "lower"),
    ("net.self_s", "s", "lower"),
    ("mercury.estimate_size_calls", "count", "lower"),
    ("mercury.estimate_size_s", "s", "lower"),
    ("mercury.self_s", "s", "lower"),
    ("margo.forwards", "count", "lower"),
    ("margo.retries", "count", "lower"),
    ("margo.timeouts", "count", "lower"),
    ("margo.self_s", "s", "lower"),
    ("margo.forward_success_ratio", "ratio", "higher"),
    ("services.handler_calls", "count", "lower"),
    ("services.self_s", "s", "lower"),
    ("services.write_errors", "count", "lower"),
    ("services.read_mismatches", "count", "lower"),
    ("symbiosys.trace_events", "count", "lower"),
    ("symbiosys.monitor_samples", "count", "lower"),
    ("symbiosys.self_s", "s", "lower"),
    ("symbiosys.analysis_s", "s", "lower"),
    ("workloads.gen_s", "s", "lower"),
    ("workloads.items", "count", "higher"),
    ("shard.lookups", "count", "lower"),
    ("shard.self_s", "s", "lower"),
    ("validate.checks", "count", "lower"),
    ("validate.self_s", "s", "lower"),
    ("sim.parallel.windows", "count", "lower"),
    ("sim.parallel.events_per_window", "count", "higher"),
    ("sim.parallel.boundary_events", "count", "lower"),
    ("sim.parallel.barrier_wait_s", "s", "lower"),
    ("sim.parallel.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _resolve(module: str, qualname: str):
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: (span id, parent id or None, layer, name, start, end, self time)
        self.spans: list[tuple] = []
        #: Calls per span name (a generator counts once, not per resume).
        self.calls: Counter = Counter()
        #: Calls per span name that ended by raising.
        self.raised: Counter = Counter()
        #: Bytes handed to the fabric (messages and RDMA reads).
        self.net_bytes = 0
        #: Every MargoInstance that forwarded or responded.
        self.instances: set = set()
        #: Every SymbiosysCollector that instrumented a process.
        self.collectors: set = set()
        self._ids = itertools.count()
        #: Open spans: [span id, start, time covered by children].
        self._stack: list[list] = []

    # -- span bookkeeping ----------------------------------------------------

    def _enter(self) -> None:
        self._stack.append([next(self._ids), time.perf_counter(), 0.0])

    def _exit(self, layer: str, name: str) -> None:
        end = time.perf_counter()
        sid, start, covered = self._stack.pop()
        duration = end - start
        parent = None
        if self._stack:
            top = self._stack[-1]
            top[2] += duration
            parent = top[0]
        self.spans.append((sid, parent, layer, name, start, end, duration - covered))

    # -- wrappers --------------------------------------------------------------

    def wrap_call(
        self, layer: str, name: str, fn: Callable, *, outermost: bool = False,
        observe: Optional[Callable] = None,
    ) -> Callable:
        """One span per call; with ``outermost`` a call made while another
        call of ``fn`` is open is passed straight through."""
        tracer = self
        depth = [0]

        def wrapper(*args, **kwargs):
            if outermost and depth[0]:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            if observe is not None:
                observe(args, kwargs)
            depth[0] += 1
            tracer._enter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.raised[name] += 1
                raise
            finally:
                tracer._exit(layer, name)
                depth[0] -= 1

        return wrapper

    def wrap_generator(
        self, layer: str, name: str, fn: Callable, *, observe: Optional[Callable] = None
    ) -> Callable:
        """One span per resume of the generator ``fn`` returns."""
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            if observe is not None:
                observe(args, kwargs)
            return tracer._drive(layer, name, fn(*args, **kwargs))

        return wrapper

    def _drive(self, layer: str, name: str, gen):
        value = error = None
        while True:
            self._enter()
            try:
                item = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                self._exit(layer, name)
                return stop.value
            except BaseException:
                self._exit(layer, name)
                self.raised[name] += 1
                raise
            self._exit(layer, name)
            try:
                value, error = (yield item), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:
                value, error = None, exc

    # -- installation ------------------------------------------------------------

    def _observers(self) -> dict[str, Callable]:
        def fabric_send(args, kwargs):
            self.net_bytes += args[1].size_bytes

        def fabric_rdma(args, kwargs):
            self.net_bytes += kwargs["size_bytes"] if "size_bytes" in kwargs else args[3]

        def instance(args, kwargs):
            self.instances.add(args[0])

        def collector(args, kwargs):
            self.collectors.add(args[0])

        return {
            "SymbiosysCollector.create_instrumentation": collector,
            "Fabric.send": fabric_send,
            "Fabric.rdma_get": fabric_rdma,
            "MargoInstance.forward": instance,
            "MargoInstance.respond": instance,
        }

    def _wrap(self, layer, name, fn, outermost=False, observe=None):
        if inspect.isgeneratorfunction(fn):
            return self.wrap_generator(layer, name, fn, observe=observe)
        return self.wrap_call(layer, name, fn, outermost=outermost, observe=observe)

    def _wrap_handlers(self, register: Callable) -> Callable:
        """Service handlers are registered callables, not names: wrap each
        one as it is registered."""
        tracer = self

        def wrapper(mi, rpc_name, handler=None, provider_id=0):
            if handler is not None:
                handler = tracer.wrap_generator(
                    "services", f"handler:{rpc_name}", handler
                )
            return register(mi, rpc_name, handler, provider_id)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        undo: list[tuple[object, str, object]] = []

        def put(owner, attr, value):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        observers = self._observers()
        try:
            for layer, module, qualname, outermost in ENTRY_POINTS:
                owner, attr = _resolve(module, qualname)
                original = owner.__dict__[attr]
                wrapped = self._wrap(
                    layer, qualname, original, outermost, observers.get(qualname)
                )
                if inspect.isclass(owner):
                    put(owner, attr, wrapped)
                    continue
                # A module-level function is imported by name elsewhere:
                # replace every module attribute bound to it. The defining
                # module keeps the original, so that a recursive function's
                # inner calls never reach the wrapper.
                for mod in list(sys.modules.values()):
                    mod_dict = getattr(mod, "__dict__", None)
                    if mod is owner or mod_dict is None:
                        continue
                    for key, value in list(mod_dict.items()):
                        if value is original:
                            put(mod, key, wrapped)
            from repro.margo.instance import MargoInstance

            put(MargoInstance, "register", self._wrap_handlers(MargoInstance.register))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------------------

    def self_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span[2]] += span[6]
        return out

    def total_by_name(self) -> dict[str, float]:
        """Summed span duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span[3]] += span[5] - span[4]
        return out

    def write_spans(self, path) -> None:
        """All spans as CSV, in start order."""
        with open(path, "w") as fh:
            fh.write("span,parent,layer,name,start_s,end_s,self_s\n")
            for sid, parent, layer, name, start, end, own in sorted(
                self.spans, key=lambda s: s[4]
            ):
                fh.write(
                    f"{sid},{'' if parent is None else parent},{layer},{name},"
                    f"{start:.9f},{end:.9f},{own:.9f}\n"
                )


def layer_metrics(tracer: Tracer, record) -> dict[str, float]:
    """Per-layer metrics of one traced run of ``record``'s workload.

    ``sim.parallel`` window and barrier figures and ``trace.overhead_frac``
    come from untraced runs and are filled in by the caller.
    """
    self_s = tracer.self_by_layer()
    totals = tracer.total_by_name()
    calls = tracer.calls
    facts = record.facts
    retries = timeouts = 0
    for mi in tracer.instances:
        counters = mi.resilience_counters()
        retries += counters["num_forward_retries"]
        timeouts += counters["num_forward_timeouts"]
    # Simulated time requests waited in handler pools (t4..t5): the
    # target_handler_time of SYMBIOSYS's own breakdown, over all callpaths.
    from repro.symbiosys.analysis import profile_summary

    handler_wait = sum(
        row.breakdown.get("target_handler_time", 0.0)
        for collector in tracer.collectors
        for row in profile_summary(collector).rows
    )
    forwards = calls["MargoInstance.forward"]
    attempted = forwards + retries
    completed = forwards - tracer.raised["MargoInstance.forward"]
    handler_calls = sum(n for name, n in calls.items() if name.startswith("handler:"))
    validate_checks = sum(
        calls[name] for layer, _, name, _ in ENTRY_POINTS if layer == "validate"
    )
    return {
        "sim.events": record.events,
        "sim.self_s": self_s["sim"],
        "sim.ns_per_event": 1e9 * self_s["sim"] / record.events if record.events else 0.0,
        "argobots.pool_pushes": calls["Pool.push"],
        "argobots.self_s": self_s["argobots"],
        "argobots.handler_wait_sim_s": handler_wait,
        "net.messages": calls["Fabric.send"],
        "net.bytes": tracer.net_bytes,
        "net.rdma_gets": calls["Fabric.rdma_get"],
        "net.self_s": self_s["net"],
        "mercury.estimate_size_calls": calls["estimate_size"],
        "mercury.estimate_size_s": totals["estimate_size"],
        "mercury.self_s": self_s["mercury"],
        "margo.forwards": forwards,
        "margo.retries": retries,
        "margo.timeouts": timeouts,
        "margo.self_s": self_s["margo"],
        "margo.forward_success_ratio": completed / attempted if attempted else 0.0,
        "services.handler_calls": handler_calls,
        "services.self_s": self_s["services"],
        "services.write_errors": facts.get("write_errors", 0),
        "services.read_mismatches": facts.get("read_mismatches", 0),
        "symbiosys.trace_events": calls["TraceBuffer.append_event"],
        "symbiosys.monitor_samples": calls["Monitor.sample"],
        "symbiosys.self_s": self_s["symbiosys"],
        "symbiosys.analysis_s": sum(totals[name] for name in _ANALYSIS),
        "workloads.gen_s": sum(
            totals[name] for layer, _, name, _ in ENTRY_POINTS if layer == "workloads"
        ),
        "workloads.items": facts.get("items", 0),
        "shard.lookups": calls["HashRing.node_for"],
        "shard.self_s": self_s["shard"],
        "validate.checks": validate_checks,
        "validate.self_s": self_s["validate"],
        "sim.parallel.self_s": self_s["sim.parallel"],
    }
