"""Evaluation metrics, run summaries, scorecards and report rendering.

These are the yardsticks of the benchmark suite: SLO violation rates,
settling time and overshoot for controller comparisons (E4, E7), and
resource-unit hours. Cost comes from the simulator's own billing
(``ManagerResult.total_cost``), which the cost-saving experiment (E5)
compares against a static-peak run.
"""

from repro.analysis.metrics import (
    integral_absolute_error,
    overshoot,
    resource_unit_hours,
    settling_time,
    slo_violation_rate,
)
from repro.analysis.report import ComparisonReport
from repro.analysis.runner import (
    RunnerError,
    SweepCase,
    derive_scenario_seed,
    run_scenarios,
)
from repro.analysis.scorecard import FleetScorecard, RunScorecard
from repro.analysis.store import load_run_summary, load_run_traces, save_run
from repro.analysis.summary import LayerSummary, RunSummary, summarize_run

__all__ = [
    "slo_violation_rate",
    "settling_time",
    "overshoot",
    "integral_absolute_error",
    "resource_unit_hours",
    "ComparisonReport",
    "SweepCase",
    "RunnerError",
    "run_scenarios",
    "derive_scenario_seed",
    "RunSummary",
    "LayerSummary",
    "summarize_run",
    "save_run",
    "load_run_traces",
    "load_run_summary",
    "RunScorecard",
    "FleetScorecard",
]
