"""Cross-platform monitoring (paper Sec. 3.4).

The "all-in-one-place visualizer": one collector pulls performance
measures from every layer's metric namespace into unified snapshots,
and a text dashboard renders the consolidated view the demo shows in
Fig. 6 — per-layer capacity, utilisation and health side by side,
instead of one UI per system. Alerting is CloudWatch's own
:class:`~repro.cloud.cloudwatch.MetricAlarm`.
"""

from repro.monitoring.collector import FlowSnapshot, MetricCollector, MetricSpec
from repro.monitoring.dashboard import Dashboard, render_table, sparkline
from repro.monitoring.plot import line_chart, stacked_panels, time_series_chart

__all__ = [
    "MetricCollector",
    "MetricSpec",
    "FlowSnapshot",
    "Dashboard",
    "sparkline",
    "render_table",
    "line_chart",
    "time_series_chart",
    "stacked_panels",
]
