"""The curated catalog under span execution must match the per-tick oracle.

Every catalog smoke scenario — the nine exam scenarios and the three
gate entries, the ``fleet`` one included — runs twice on each workload
model — once as :meth:`Scenario.build_manager` wires it (span execution
through the span executor) and once with the same manager's engine
switched to the per-tick loop — over a horizon covering the scenario's
first fault window. The chaos-heavy catalog is where a standalone flow's
kernel layers switch between their closed forms and their scans, so
this is the oracle check for those switches on single flows: the
wall-clock-free scorecards and every stored CloudWatch datapoint
(compared by ``repr``, per flow for a fleet) must be identical, and the
invariant auditor must stay clean in both modes.
"""

import pytest

from repro.analysis.scorecard import FleetScorecard, RunScorecard
from repro.scenarios.catalog import CATALOG_NAMES, GATE_NAMES, gate_catalog

#: Horizon for scenarios without faults (simulated seconds).
FAULT_FREE_HORIZON = 1800


def _horizon(scenario) -> int:
    """End of the first fault window plus one control period."""
    faults = scenario.chaos.faults if scenario.chaos is not None else ()
    if not faults:
        return FAULT_FREE_HORIZON
    first = min(faults, key=lambda spec: spec.start)
    end = first.start + max(first.duration, scenario.control_period)
    return end + scenario.control_period


def _flows(result):
    """The per-flow results of a run: itself, or a fleet's flows."""
    return getattr(result, "flows", {"flow": result})


def _raw_metrics(result):
    return {
        (flow_id, key): (series.times.tolist(), [repr(v) for v in series.values.tolist()])
        for flow_id, flow in _flows(result).items()
        for key, series in flow.cloudwatch._series.items()
    }


def _run(scenario, *, exact, span):
    manager = scenario.build_manager(exact=exact)
    manager.engine.span_execution = span
    result = manager.run(_horizon(scenario))
    assert manager.engine.last_run_used_spans is span
    score = (
        RunScorecard.from_result if scenario.fleet is None
        else FleetScorecard.from_fleet_result
    )
    card = score(
        scenario.name, result,
        slo_band=scenario.slo.utilization_band, seed=scenario.seed,
    ).without_wall_clock()
    return result, card


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "fast"])
@pytest.mark.parametrize("name", CATALOG_NAMES + GATE_NAMES)
def test_catalog_span_matches_per_tick(name, exact):
    scenario = gate_catalog()[name]
    span_result, span_card = _run(scenario, exact=exact, span=True)
    tick_result, tick_card = _run(scenario, exact=exact, span=False)

    assert span_card == tick_card
    assert _raw_metrics(span_result) == _raw_metrics(tick_result)
    for result in (span_result, tick_result):
        for flow in _flows(result).values():
            assert flow.invariants is not None
            assert flow.invariants.total_violations == 0, flow.invariants.describe()
