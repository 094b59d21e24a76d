"""The autotuning extension, pinned: the tuned C5 run of the autotuner
ablation (``benchmarks/test_ablations.py``) with its exact figures and
policy firings."""

from repro.experiments import TABLE_IV, run_hepnos_experiment
from repro.symbiosys import DedicateProgressES, RaiseOfiMaxEvents


def ablation_policies(mi):
    return [
        RaiseOfiMaxEvents(mi, window=4, cooldown=0.5e-3, max_cap=64),
        DedicateProgressES(mi, window=16, depth_threshold=8, cooldown=2e-3),
    ]


def test_autotuned_c5_is_pinned():
    tuned = run_hepnos_experiment(
        TABLE_IV["C5"],
        events_per_client=2048,
        pipeline_width=64,
        policies=ablation_policies,
    )
    assert tuned.cumulative_origin_time == 0.1426282667750018
    assert tuned.makespan == 0.01764031760000095
    for addr in tuned.client_addrs:
        fired = [
            (f.detector, f.message)
            for f in tuned.monitor.findings
            if f.process == addr
        ]
        assert fired == [
            ("RaiseOfiMaxEvents", "OFI_max_events 16 -> 32"),
            ("DedicateProgressES", "progress loop moved to dedicated ES"),
        ]
    # Server-side processes run no policies and the monitor attaches
    # no process, so the findings are the clients' firings alone.
    assert len(tuned.monitor.findings) == 2 * len(tuned.client_addrs)
