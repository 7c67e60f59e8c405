#!/usr/bin/env python3
"""Cross-platform monitoring and alerting (paper Sec. 3.4).

Shows the "all-in-one-place visualizer": one dashboard consolidating
Kinesis, Storm and DynamoDB measures, with CloudWatch metric alarms
firing on each layer's own metrics, plus export of the run's traces,
summary and dashboard for external tooling.

Run with:  python examples/monitoring_dashboard.py
"""

import tempfile

from repro import FlowBuilder, LayerKind
from repro.analysis import save_run
from repro.cloud import MetricAlarm
from repro.workload import ConstantRate, FlashCrowdRate

DURATION = 3600
PERIOD = 60


def main() -> None:
    # An under-provisioned flow hit by a flash crowd, so alarms fire.
    workload = ConstantRate(800.0) + FlashCrowdRate(
        peak=1800.0, at=1200, rise_seconds=60, decay_seconds=600
    )
    manager = (
        FlowBuilder("monitored-flow", seed=9)
        .ingestion(shards=1)
        .analytics(vms=1)
        .storage(write_units=150)
        .workload(workload)
        .build()
    )
    result = manager.run(DURATION)

    print(result.dashboard())
    print()

    # One alarm set across all three platforms, instead of one UI per
    # system. Each alarm watches its layer's metric in CloudWatch.
    firings: list[tuple[int, str]] = []
    rules = [
        ("kinesis-hot", "AWS/Kinesis", "WriteUtilization", 90.0, LayerKind.INGESTION),
        ("kinesis-throttling", "AWS/Kinesis", "WriteProvisionedThroughputExceeded", 0.0,
         LayerKind.INGESTION),
        ("storm-cpu-hot", "Custom/Storm", "CPUUtilization", 85.0, LayerKind.ANALYTICS),
        ("storm-backlog", "Custom/Storm", "PendingTuples", 10_000.0, LayerKind.ANALYTICS),
        ("dynamodb-throttling", "AWS/DynamoDB", "WriteThrottleEvents", 0.0, LayerKind.STORAGE),
    ]
    for name, namespace, metric, threshold, kind in rules:
        result.cloudwatch.put_alarm(MetricAlarm(
            name=name,
            namespace=namespace,
            metric_name=metric,
            threshold=threshold,
            statistic="Maximum",
            period=PERIOD,
            dimensions=result.layer_dimensions[kind],
            on_alarm=lambda now, name=name: firings.append((now, name)),
        ))

    # Replay the alarms over the run, once per 1-minute period.
    in_alarm_minutes = 0
    for now in range(PERIOD, DURATION + 1, PERIOD):
        in_alarm_minutes += len(result.cloudwatch.evaluate_alarms(now))
    print("alarm transitions to ALARM (evaluated on each 1-minute period):")
    for now, name in firings[:12]:
        print(f"  t={now:>5}s  {name}")
    if len(firings) > 12:
        print(f"  ... and {len(firings) - 12} more")
    print(f"total transitions: {len(firings)}; alarm-minutes: {in_alarm_minutes}")

    # Export the consolidated data for external tooling.
    out_dir = save_run(result, tempfile.mkdtemp(prefix="flower-monitoring-"))
    print(f"\nexported traces, summary.json and dashboard.txt to {out_dir}")


if __name__ == "__main__":
    main()
