"""Tests for in-situ policies (dynamic reconfiguration).

Policies are monitor detectors: the ``test_engine_*`` tests drive the
observe -> decide -> act loop through a :class:`Monitor`'s sampler.
"""

import pytest

import repro.argobots as abt
from repro.margo import MargoConfig, MargoInstance
from repro.net import CQEntry, CQKind, Fabric, FabricConfig
from repro.sim import Simulator
from repro.store import PerfStore, StoreWriter
from repro.store.archive import ArchivedRun
from repro.symbiosys import (
    AnomalyDetector,
    DedicateProgressES,
    GrowHandlerPool,
    Monitor,
    MonitorConfig,
    Policy,
    RaiseOfiMaxEvents,
)


def make_world(**client_cfg):
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig())
    server = MargoInstance(
        sim, fabric, "svr", "n0", config=MargoConfig(n_handler_es=2)
    )
    client = MargoInstance(sim, fabric, "cli", "n1", config=MargoConfig(**client_cfg))
    return sim, server, client


def run_policies(sim, policies, interval):
    """A monitor with no built-in detectors, ticking ``policies``."""
    monitor = Monitor(sim, MonitorConfig(interval=interval, detectors=()))
    monitor.detectors.extend(policies)
    monitor.start()
    return monitor


def flood_completion_queue(client, n=4000):
    """Synthetic pressure: a deep backlog of RDMA completion entries that
    the progress loop drains in capped batches, pegging the OFI reads."""
    for _ in range(n):
        ev = client.rt.eventual()
        client.endpoint.push(
            CQEntry(kind=CQKind.RDMA_COMPLETE, payload=("bulk", ev),
                    enqueued_at=0.0)
        )


# ------------------------------------------------------------ rule units


def test_raise_ofi_condition_requires_pegging():
    _, _, client = make_world()
    p = RaiseOfiMaxEvents(client, window=4, pegged_fraction=0.75)
    description, _ = p.decide([(16, 16)] * 4)
    assert description == "OFI_max_events 16 -> 32"
    assert p.decide([(2, 16)] * 4) is None
    mixed = [(16, 16)] * 2 + [(1, 16)] * 2
    assert p.decide(mixed) is None  # only 50% pegged < 75%


def test_raise_ofi_respects_max_cap():
    _, _, client = make_world()
    p = RaiseOfiMaxEvents(client, max_cap=32)
    assert p.decide([(32, 32)] * 4) is None
    description, _ = p.decide([(16, 16)] * 4)
    assert description == "OFI_max_events 16 -> 32"


def test_raise_ofi_validation():
    _, _, client = make_world()
    with pytest.raises(ValueError):
        RaiseOfiMaxEvents(client, pegged_fraction=0.0)
    with pytest.raises(ValueError):
        RaiseOfiMaxEvents(client, factor=1)


def test_dedicate_progress_condition():
    _, _, client = make_world()
    p = DedicateProgressES(client, window=4, depth_threshold=8)
    assert p.decide([(10, 0)] * 4)
    assert p.decide([(1, 0)] * 4) is None
    # Completion-queue depth counts too.
    assert p.decide([(4, 5)] * 4)
    # Once the progress loop has its own ES the rule stays quiet.
    client.enable_progress_thread()
    assert p.decide([(10, 0)] * 4) is None


def test_grow_handler_condition():
    _, server, _ = make_world()
    p = GrowHandlerPool(server, window=4, backlog_per_es=2.0, max_es=8)
    description, _ = p.decide([(10, 2)] * 4)
    assert description == "handler pool grown to 3 execution streams"
    assert p.decide([(1, 2)] * 4) is None
    assert p.decide([(100, 8)] * 4) is None


def test_policy_cooldown_and_history_gates():
    _, _, client = make_world()
    p = RaiseOfiMaxEvents(client, window=2, cooldown=1.0)
    p.observe = lambda: (16, 16)
    assert p.on_sample(0.0, None) == []  # window not yet full
    assert len(p.on_sample(0.1, None)) == 1
    assert p.on_sample(0.5, None) == []  # cooling down
    assert len(p.on_sample(1.2, None)) == 1


def test_policy_base_class_is_abstract():
    _, _, client = make_world()
    p = Policy(client)
    with pytest.raises(NotImplementedError):
        p.observe()
    with pytest.raises(NotImplementedError):
        p.decide([])


# ------------------------------------------------------------ monitor loop


def test_engine_samples_periodically():
    sim, server, client = make_world()
    policy = RaiseOfiMaxEvents(client, window=64)
    monitor = run_policies(sim, [policy], interval=1e-3)
    sim.run(until=10.5e-3)
    assert monitor.sampler.ticks == 10
    assert len(policy.history) == 10
    assert all(cap == 16 for _, cap in policy.history)


def test_engine_stop():
    sim, server, client = make_world()
    policy = RaiseOfiMaxEvents(client, window=64)
    monitor = run_policies(sim, [policy], interval=1e-3)
    sim.run(until=5e-3)
    n = len(policy.history)
    monitor.stop()  # one final sample, then no more ticks
    sim.run(until=20e-3)
    assert len(policy.history) == n + 1


def test_engine_enables_pvars():
    sim, server, client = make_world()
    assert not client.hg.pvars_enabled
    RaiseOfiMaxEvents(client)
    assert client.hg.pvars_enabled


def test_policy_creates_no_es_pool_or_ult():
    sim, server, client = make_world()

    def counts():
        return [
            (len(mi.rt.xstreams), len(mi.rt.pools), mi.rt.total_spawned)
            for mi in (server, client)
        ]

    before = counts()
    monitor = run_policies(
        sim,
        [RaiseOfiMaxEvents(client), DedicateProgressES(client),
         GrowHandlerPool(server)],
        interval=0.1e-3,
    )
    sim.run(until=5e-3)
    monitor.stop()
    assert monitor.sampler.ticks == 50
    assert not monitor.findings
    assert counts() == before


def test_engine_history_bounded():
    sim, server, client = make_world()
    policy = RaiseOfiMaxEvents(client, window=50)
    monitor = run_policies(sim, [policy], interval=1e-5)
    sim.run(until=5e-3)
    assert monitor.sampler.ticks > 50
    assert len(policy.history) == 50


def test_engine_validation():
    sim, server, client = make_world()
    with pytest.raises(ValueError):
        RaiseOfiMaxEvents(client, window=0)
    with pytest.raises(ValueError):
        MonitorConfig(interval=0)


def test_engine_fires_raise_ofi_under_synthetic_backlog():
    """Flood the client CQ so num_ofi_events_read pegs; the policy must
    raise the cap and report the reconfiguration as a finding."""
    sim, server, client = make_world()
    monitor = run_policies(
        sim,
        [RaiseOfiMaxEvents(client, window=3, cooldown=0.5e-3, max_cap=64)],
        interval=0.2e-3,
    )
    flood_completion_queue(client)
    sim.run(until=30e-3)
    monitor.stop()
    assert monitor.findings, "policy never fired despite pegged reads"
    assert client.hg.ofi_max_events > 16
    first = monitor.findings[0]
    assert (first.detector, first.process) == ("RaiseOfiMaxEvents", "cli")
    assert first.message == "OFI_max_events 16 -> 32"


def test_policy_defers_reconfiguration_to_the_same_time(monkeypatch):
    """The tick is a pure observer: the cap is unchanged when the
    policy's on_sample returns, and raised at that same simulated time."""
    sim, server, client = make_world()
    applied = []
    set_cap = client.set_ofi_max_events
    monkeypatch.setattr(
        client, "set_ofi_max_events",
        lambda n: (applied.append((sim.now, n)), set_cap(n)),
    )
    caps_seen = []

    class CapProbe(AnomalyDetector):
        """Runs right after the policy in the same tick."""

        def on_sample(self, t, monitor):
            caps_seen.append((t, client.hg.ofi_max_events))
            return []

    policy = RaiseOfiMaxEvents(client, window=3, cooldown=10.0, max_cap=64)
    monitor = run_policies(sim, [policy, CapProbe()], interval=0.2e-3)
    flood_completion_queue(client)
    sim.run(until=5e-3)
    monitor.stop()
    [finding] = monitor.findings
    assert (finding.time, 16) in caps_seen
    assert applied == [(finding.time, 32)]
    assert client.hg.ofi_max_events == 32


def test_policy_finding_survives_store_round_trip():
    sim, server, client = make_world()
    monitor = run_policies(
        sim,
        [RaiseOfiMaxEvents(client, window=3, cooldown=0.5e-3, max_cap=64)],
        interval=0.2e-3,
    )
    flood_completion_queue(client)
    sim.run(until=10e-3)
    monitor.stop()
    assert monitor.findings
    store = PerfStore(":memory:")
    try:
        writer = StoreWriter(store)
        run_id = writer.begin_run("policy-roundtrip", kind="test")
        writer.record_monitor(run_id, monitor)
        writer.flush()
        assert ArchivedRun(store, run_id).findings == monitor.findings
    finally:
        store.close()


def test_engine_grows_handler_pool_under_load():
    """Server-side: a burst of slow RPCs piles ULTs into the handler
    pool; the GrowHandlerPool policy adds execution streams on monitor
    ticks up to its cap."""
    sim, server, client = make_world()
    monitor = run_policies(
        sim,
        [GrowHandlerPool(server, window=2, backlog_per_es=1.5, max_es=8,
                         cooldown=0.2e-3)],
        interval=0.2e-3,
    )

    def slow_handler(mi, handle):
        yield from mi.get_input(handle)
        yield abt.Compute(2e-3)
        yield from mi.respond(handle, "ok")

    server.register("slow", slow_handler)
    client.register("slow")
    results = []

    def call():
        out = yield from client.forward("svr", "slow", {})
        results.append(out)

    for _ in range(24):
        client.client_ult(call())
    sim.run_until(lambda: len(results) == 24, limit=0.2)
    monitor.stop()
    assert len(results) == 24
    grown = [f for f in monitor.findings if f.detector == "GrowHandlerPool"]
    assert grown, "handler pool never grew despite backlog"
    assert all(f.process == "svr" for f in grown)
    n_handler_es = sum(
        1 for es in server.rt.xstreams if es.pool is server.handler_pool
    )
    assert n_handler_es == 8
    assert grown[-1].message == "handler pool grown to 8 execution streams"
