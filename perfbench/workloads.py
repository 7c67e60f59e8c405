"""The benchmark's four workloads, built only through the public API.

A workload is a batch job: one *pass* is a fixed list of runs (one
catalog scenario, one fleet run or one share analysis each), built from
the workload seed alone. Each run is set up, executed, reduced to a
wall-clock-free digest and checked; the harness times set-up and
execution separately and never times the digest or the check.

``scale`` shrinks a pass for the benchmark's own smoke tests: simulated
runs stop at ``scale`` of their horizon, the share analysis runs
``scale`` of its generations. The committed-baseline check applies only
at ``scale == 1`` and the catalog seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.analysis.scorecard import FleetScorecard, RunScorecard
from repro.cloud.dynamodb import DynamoDBConfig
from repro.cloud.region import RegionLimits
from repro.cloud.storm import StormConfig
from repro.core.config import LayerControlConfig, make_controller
from repro.core.fleet import FleetFlowSpec, RegionFleetManager
from repro.core.flow import LayerKind, clickstream_flow_spec
from repro.core.manager import ServiceCapacities
from repro.optimization import ResourceShareAnalyzer, ShareConstraint
from repro.scenarios import CATALOG_SEED, CatalogEntry, CatalogMatrix, catalog
from repro.workload.clickstream import ClickStreamConfig

#: The committed catalog scorecard matrix (relative to the repo root).
CATALOG_BASELINE = Path("results") / "SCORECARD_catalog.json"

#: Simulated horizon of every catalog smoke scenario and of the fleet.
HORIZON = 2 * 3600

FLEET_FLOWS = 16
#: Tight enough that, at every seed tried, share clamps and coordinator
#: retargets occur in the fleet run; denials occur at some seeds only.
FLEET_LIMITS = RegionLimits(max_instances=40, max_total_shards=32,
                            max_total_write_units=4800)

SHARE_BUDGETS = (0.75, 1.50, 3.00)
SHARE_POPULATION = 100
SHARE_GENERATIONS = 250


@dataclass
class Run:
    """One built run, ready to execute."""

    label: str
    #: Executes the run; returns the raw result. Timed.
    execute: Callable[[], object]
    #: Units of work one execution completes: flow-ticks or evaluations.
    work: int
    #: Simulated engine ticks one execution advances (0 for share-plan).
    engine_ticks: int
    #: Raw result -> wall-clock-free digest (JSON-able). Not timed.
    digest: Callable[[object], object]
    #: ``(raw result, digest) -> problems``; empty means correct. Not timed.
    check: Callable[[object, object], list[str]]
    #: The simulation engine the run advances (None for share-plan); the
    #: harness schedules its calibration samples on it.
    engine: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: What one unit of ``work`` is.
    unit: str
    definition: str
    #: ``(seed, scale, root) -> [(label, build)]``; ``build()`` -> Run.
    runs: Callable[[int, float, Path], list[tuple[str, Callable[[], Run]]]]


# ----------------------------------------------------------------------
# catalog / catalog-fast
# ----------------------------------------------------------------------
def _catalog_runs(fast: bool):
    def runs(seed: int, scale: float, root: Path):
        horizon = max(1, round(HORIZON * scale))
        baseline = None
        if not fast and seed == CATALOG_SEED and horizon == HORIZON:
            baseline = CatalogMatrix.from_json_file(root / CATALOG_BASELINE)
        return [
            (scenario.name, _scenario_builder(scenario, fast, horizon, baseline))
            for scenario in catalog("smoke", seed=seed).values()
        ]
    return runs


def _scenario_builder(scenario, fast: bool, horizon: int, baseline):
    def build() -> Run:
        manager = scenario.build_manager(exact=False if fast else None)

        def digest(result) -> dict:
            card = RunScorecard.from_result(
                scenario.name, result,
                slo_band=scenario.slo.utilization_band, seed=scenario.seed,
            ).without_wall_clock()
            return card.to_dict()

        def check(result, digested) -> list[str]:
            problems = _invariant_problems(scenario.name, result)
            if baseline is not None:
                card = RunScorecard.from_dict(digested)
                mine = CatalogMatrix(
                    variant=baseline.variant, exact=True,
                    entries={scenario.name: CatalogEntry.from_card(scenario, card)},
                )
                problems += mine.compare(baseline.restrict([scenario.name]), rel_tol=1e-9)
            return problems

        return Run(scenario.name, lambda: manager.run(horizon), horizon, horizon,
                   digest, check, manager.engine)
    return build


def _invariant_problems(label: str, result) -> list[str]:
    report = result.invariants
    if report is None:
        return [f"{label}: no invariant report"]
    if not report.ok:
        return [f"{label}: invariants violated: {dict(report.counts)}"]
    return []


# ----------------------------------------------------------------------
# fleet-16
# ----------------------------------------------------------------------
def _fleet_flows(seed: int) -> list[FleetFlowSpec]:
    """Sixteen flows cycling through the catalog: each takes one
    scenario's pattern, controller style, capacities, key skew and chaos
    schedule, wired with the same service calibration the scenario
    compiler uses."""
    scenarios = list(catalog("smoke", seed=seed).values())
    flows = []
    for index in range(FLEET_FLOWS):
        scenario = scenarios[index % len(scenarios)]
        flows.append(FleetFlowSpec(
            name=f"flow{index:02d}-{scenario.name}",
            # Flows sharing a scenario still draw distinct patterns.
            workload=scenario.workload.build(seed + index, scenario.duration),
            capacities=ServiceCapacities(shards=scenario.shards, vms=scenario.vms,
                                         write_units=scenario.write_units),
            controls={
                kind: LayerControlConfig(
                    controller=make_controller(scenario.controller, kind, scenario.reference),
                    period=scenario.control_period,
                )
                for kind in LayerKind
            },
            chaos=scenario.chaos,
            storm=StormConfig(records_per_vm_per_second=1000),
            dynamodb=DynamoDBConfig(burst_seconds=10),
            manager_kwargs={"clickstream": ClickStreamConfig(zipf_exponent=scenario.key_skew)},
        ))
    return flows


def _fleet_runs(seed: int, scale: float, root: Path):
    horizon = max(1, round(HORIZON * scale))

    def build() -> Run:
        fleet = RegionFleetManager(
            _fleet_flows(seed), limits=FLEET_LIMITS, seed=seed,
            snapshot_period=600, coordinate_period=300, exact=False,
        )

        def digest(result) -> dict:
            card = FleetScorecard.from_fleet_result("fleet-16", result, seed=seed)
            card = dataclasses.replace(
                card, wall_seconds=0.0, flow_wall_seconds={},
                flows={k: c.without_wall_clock() for k, c in card.flows.items()},
            )
            return card.to_dict()

        def check(result, digested) -> list[str]:
            problems = []
            for flow_id, flow_result in result.flows.items():
                problems += _invariant_problems(flow_id, flow_result)
            if horizon == HORIZON:
                if not digested["cap_retargets"]:
                    problems.append("fleet-16: the coordinator never retargeted a cap")
                if not sum(sum(c["clamps"].values()) for c in digested["flows"].values()):
                    problems.append("fleet-16: no share clamp occurred")
            return problems

        return Run("fleet-16", lambda: fleet.run(horizon), FLEET_FLOWS * horizon,
                   horizon, digest, check, fleet.engine)
    return [("fleet-16", build)]


# ----------------------------------------------------------------------
# share-plan
# ----------------------------------------------------------------------
def paper_constraints() -> list[ShareConstraint]:
    """The paper's Fig. 4 dependency constraints."""
    return [
        ShareConstraint.at_least(5, LayerKind.ANALYTICS, LayerKind.INGESTION),
        ShareConstraint.at_most(2, LayerKind.ANALYTICS, LayerKind.INGESTION),
        ShareConstraint.at_most(2, LayerKind.INGESTION, LayerKind.STORAGE),
    ]


def _share_runs(seed: int, scale: float, root: Path):
    generations = max(1, round(SHARE_GENERATIONS * scale))
    return [
        (f"share-${budget:.2f}", _share_builder(budget, generations, seed))
        for budget in SHARE_BUDGETS
    ]


def _share_builder(budget: float, generations: int, seed: int):
    def build() -> Run:
        analyzer = ResourceShareAnalyzer(clickstream_flow_spec(),
                                         constraints=paper_constraints())

        def execute():
            return analyzer.analyze(budget, population_size=SHARE_POPULATION,
                                    generations=generations, seed=seed)

        def digest(result) -> dict:
            return {
                "budget_per_hour": budget,
                "evaluations": result.evaluations,
                "front": [
                    [s.ingestion, s.analytics, s.storage, s.hourly_cost]
                    for s in result.solutions
                ],
            }

        def check(result, digested) -> list[str]:
            label = f"share-plan ${budget:.2f}/h"
            if not result.solutions:
                return [f"{label}: empty Pareto front"]
            problems = []
            if result.evaluations != work:
                problems.append(f"{label}: {result.evaluations} evaluations, expected {work}")
            for s in result.solutions:
                shares = {k: float(v) for k, v in s.shares}
                if s.hourly_cost > budget + 1e-9:
                    problems.append(f"{label}: {s} exceeds the budget")
                problems += [f"{label}: {s} violates {c.describe()}"
                             for c in analyzer.constraints if not c.satisfied(shares)]
            units = [(s.ingestion, s.analytics, s.storage) for s in result.solutions]
            for a in units:
                for b in units:
                    if a != b and all(x >= y for x, y in zip(a, b)):
                        problems.append(f"{label}: {a} dominates {b} on the front")
            return problems

        work = SHARE_POPULATION * (generations + 1)
        return Run(f"share-${budget:.2f}", execute, work, 0, digest, check)
    return build


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "catalog",
            "the standing exam users run; the exact per-record payload draw "
            "dominates, so a workload-model change shows here",
            "flow-tick",
            "the nine catalog smoke scenarios (2 simulated hours each) exactly as "
            "Scenario.build_manager wires them: exact workload model, span "
            "execution, flight recorder on, 60 s control and snapshot periods",
            _catalog_runs(fast=False),
        ),
        Workload(
            "catalog-fast",
            "same scenarios on the block-drawn model: the scalar span recurrence "
            "and CloudWatch writes and reads dominate",
            "flow-tick",
            "the nine catalog smoke scenarios with fast=True (block-drawn workload model)",
            _catalog_runs(fast=True),
        ),
        Workload(
            "fleet-16",
            "the only workload on the fleet executor, the coordinator and the "
            "region; CloudWatch writes heavy, reads light",
            "flow-tick",
            "16 flows in one RegionFleetManager, fast model, batched executor; "
            "flow i takes catalog scenario i mod 9's pattern, controller style, "
            "capacities and chaos; coordinator every 300 s, snapshots every 600 s, "
            "account limits of 40 instances, 32 shards and 4800 write units",
            _fleet_runs,
        ),
        Workload(
            "share-plan",
            "the only workload on the offline NSGA-II share analysis; the "
            "simulated data path does no work here",
            "evaluation",
            "Fig. 4 resource-share analysis: NSGA-II, population 100, 250 "
            "generations, the paper's three constraints, at budgets of $0.75, "
            "$1.50 and $3.00 per hour",
            _share_runs,
        ),
    )
}
