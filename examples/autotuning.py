#!/usr/bin/env python3
"""In-situ autotuning: the paper's future work, running.

Starts the HEPnOS data-loader in the pathological C5 configuration
(batch size 1, shared progress ES, OFI_max_events 16) with two
:class:`~repro.symbiosys.Policy` rules on every client.  The run's
monitor evaluates them each tick against live SYMBIOSYS metrics, and
they apply the paper's §V-C remedies automatically:

* ``RaiseOfiMaxEvents``  -- fires when ``num_ofi_events_read`` pegs at
  the cap (the Figure 12 C5 signature),
* ``DedicateProgressES`` -- fires if the OFI queue stays deep afterwards
  (the Figure 11 C6->C7 step).

Run:  PYTHONPATH=src python examples/autotuning.py        (~6 s)
"""

from repro.experiments import (
    TABLE_IV,
    ascii_table,
    format_seconds,
    run_hepnos_experiment,
)
from repro.symbiosys import DedicateProgressES, RaiseOfiMaxEvents

EVENTS = 2048


def make_policies(mi):
    return [
        RaiseOfiMaxEvents(mi, window=4, cooldown=0.5e-3, max_cap=64),
        DedicateProgressES(mi, window=16, depth_threshold=8, cooldown=2e-3),
    ]


def main() -> None:
    print("running C5 (static, pathological) ...")
    plain = run_hepnos_experiment(
        TABLE_IV["C5"], events_per_client=EVENTS, pipeline_width=64
    )
    print("running C5 + policies (autotuned) ...")
    tuned = run_hepnos_experiment(
        TABLE_IV["C5"],
        events_per_client=EVENTS,
        pipeline_width=64,
        policies=make_policies,
    )
    print("running C7 (hand-tuned reference) ...\n")
    hand = run_hepnos_experiment(
        TABLE_IV["C7"], events_per_client=EVENTS, pipeline_width=64
    )

    rows = [
        {
            "setup": name,
            "cumulative RPC time": format_seconds(r.cumulative_origin_time),
            "unaccounted share": f"{100 * r.unaccounted_fraction:.1f}%",
            "makespan": format_seconds(r.makespan),
        }
        for name, r in (
            ("C5  (static)", plain),
            ("C5 + policies", tuned),
            ("C7  (hand-tuned)", hand),
        )
    ]
    print(ascii_table(rows))

    print("\npolicy findings (first client):")
    for finding in tuned.monitor.findings:
        if finding.process == tuned.client_addrs[0]:
            print(f"  t={finding.time * 1e3:6.2f} ms  {finding.detector}: "
                  f"{finding.message}")

    gap_static = plain.cumulative_origin_time - hand.cumulative_origin_time
    gap_tuned = tuned.cumulative_origin_time - hand.cumulative_origin_time
    print(f"\ngap to the hand-tuned configuration closed: "
          f"{100 * (1 - gap_tuned / gap_static):.1f}%")


if __name__ == "__main__":
    main()
