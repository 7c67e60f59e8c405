"""Command-line interface: the demo walk-through without the GUI.

The VLDB demonstration walked attendees through building a flow,
configuring controllers, and watching the dashboards (Sec. 4). This CLI
is the terminal version::

    python -m repro.cli demo       # run the ``steady`` entry, show the dashboard
    python -m repro.cli trace      # run ``steady`` with the flight recorder, summarise / export
    python -m repro.cli fig2       # workload dependency analysis (Fig. 2 / Eq. 2)
    python -m repro.cli pareto     # resource share analysis (Fig. 4)
    python -m repro.cli shootout   # controller comparison (Sec. 3.3)
    python -m repro.cli chaos      # the ``chaos`` entry: faults + invariant audit + MTTR
    python -m repro.cli fleet      # the ``fleet`` entry: flows against one region's limits
    python -m repro.cli scenario   # scenario catalog: list / show / run / gate

Every run command except ``fig2`` compiles its flags into catalog
scenarios (``scenario show NAME`` prints the entry behind it), so the
CLI builds flows through the same compiler as the gate. Every command
prints deterministic output; run commands accept ``--seed``
(``scenario`` carries its seeds inside the specs).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Sequence

from repro import (
    ChaosSchedule,
    FaultKind,
    FaultSpec,
    FlowBuilder,
    FlowerError,
    LayerKind,
    clickstream_flow_spec,
)
from repro.analysis import ComparisonReport, derive_scenario_seed
from repro.chaos import recovery_times
from repro.core.config import CONTROLLER_FACTORIES
from repro.dependency import fit_linear, pearson_r
from repro.monitoring import stacked_panels
from repro.observability import chain_for, to_chrome_trace
from repro.optimization import ResourceShareAnalyzer, ShareConstraint
from repro.scenarios import (
    CATALOG_SEED,
    VARIANT_DURATIONS,
    CatalogMatrix,
    FleetSection,
    Scenario,
    catalog_scenario,
    gate_catalog,
    run_catalog,
    scenario_at,
)
from repro.workload import SinusoidalRate


def _ensure_writable(path: str) -> None:
    """Fail fast on an unwritable trace path — before simulating hours."""
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise SystemExit(f"cannot write trace file {path!r}: {exc}")


def _positive_int(text: str) -> int:
    """argparse type for counts and durations, which must be >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _scenario(entry: str, args: argparse.Namespace, /, **fields) -> Scenario:
    """Catalog ``entry`` at ``--duration`` and ``--seed``, with the run
    flags (``--style``, ``--reference``, ``--fast``) and ``fields``
    overriding the spec; the replaced spec is validated like any other."""
    flags = vars(args)
    template = scenario_at(entry, args.duration, args.seed)
    return dataclasses.replace(template, **{
        "controller": flags.get("style", template.controller),
        "reference": args.reference,
        "exact": not flags.get("fast", False),
        **fields,
    })


def _fast_banner(exact: bool) -> None:
    """The one-line marker every --fast run prints before its output."""
    if not exact:
        print(
            "workload path: APPROXIMATE (--fast / exact=False) — "
            "statistically equivalent, not bit-comparable to exact runs"
        )


def _steady_scenarios(args: argparse.Namespace) -> list[Scenario]:
    """``demo`` and ``trace`` run the ``steady`` entry."""
    return [_scenario("steady", args)]


def cmd_demo(args: argparse.Namespace) -> int:
    (scenario,) = args.scenarios(args)
    if args.trace:
        _ensure_writable(args.trace)
    _fast_banner(not args.fast)
    result = scenario.build_manager().run(scenario.duration)
    print(result.dashboard())
    print()
    for kind in LayerKind:
        capacity = result.capacity_trace(kind)
        label = result.flow.layer(kind).resource_label
        print(f"{kind.name.lower():<10} {label:<7} "
              f"{capacity.minimum():.0f}..{capacity.maximum():.0f}")
    print(f"total cost: ${result.total_cost:.4f}")
    if args.trace:
        recorder = result.recorder
        lines = recorder.to_jsonl(args.trace)
        print(f"trace: {lines} lines ({len(recorder.bus)} events, "
              f"{len(recorder.decisions)} decisions) -> {args.trace}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    if (args.from_tick is not None and args.to_tick is not None
            and args.from_tick > args.to_tick):
        raise SystemExit(
            f"--from-tick {args.from_tick} is after --to-tick {args.to_tick}: "
            "no event can match"
        )
    (scenario,) = args.scenarios(args)
    for path in (args.out, args.chrome):
        if path:
            _ensure_writable(path)
    result = scenario.build_manager(profile=args.profile).run(scenario.duration)
    recorder = result.recorder
    filtering = (
        args.layer or args.kind
        or args.from_tick is not None or args.to_tick is not None
    )
    if args.causal:
        chain = chain_for(result, args.causal)
        if chain is None:
            sample = ", ".join(recorder.bus.traces()[:6]) or "none recorded"
            raise SystemExit(
                f"unknown trace id {args.causal!r} (expected loop@time or "
                f"fault:<kind>@<start>); recorded ids start with: {sample}"
            )
        print(chain.describe(horizon=result.duration_seconds))
    elif filtering:
        events = recorder.bus.events
        matched = [
            e
            for e in events
            if (not args.layer or e.layer == args.layer)
            and (not args.kind or e.kind == args.kind
                 or e.kind.startswith(args.kind + "."))
            and (args.from_tick is None or e.time >= args.from_tick)
            and (args.to_tick is None or e.time <= args.to_tick)
        ]
        for event in matched:
            suffix = f"  <{event.trace}#{event.span}>" if event.trace else ""
            print(event.describe() + suffix)
        print(f"{len(matched)} / {len(events)} events matched")
    else:
        print(recorder.summary())
    if args.out:
        lines = recorder.to_jsonl(args.out)
        print(f"\ntrace: {lines} lines -> {args.out}")
    if args.chrome:
        document = to_chrome_trace(recorder, args.chrome)
        print(
            f"chrome trace: {len(document['traceEvents'])} trace events -> "
            f"{args.chrome} (open in Perfetto / chrome://tracing)"
        )
    return 0


def cmd_fig2(args: argparse.Namespace) -> int:
    # Static run: the workload shape passes straight through to CPU.
    workload = SinusoidalRate(
        mean=500.0, amplitude=300.0, period=args.duration, phase=-args.duration // 4
    )
    manager = (
        FlowBuilder("cli-fig2", seed=args.seed)
        .ingestion(shards=1)
        .analytics(vms=1)
        .storage(write_units=300)
        .workload(workload)
        .build()
    )
    result = manager.run(args.duration)
    records = result.trace("AWS/Kinesis", "IncomingRecords", period=60, statistic="Sum",
                           dimensions=result.layer_dimensions[LayerKind.INGESTION])
    cpu = result.trace("Custom/Storm", "CPUUtilization", period=60,
                       dimensions=result.layer_dimensions[LayerKind.ANALYTICS])
    print(stacked_panels(
        [records, cpu],
        titles=["Ingestion Layer (Kinesis) — records/min", "Analytics Layer (Storm) — CPU %"],
    ))
    model = fit_linear(records.values, cpu.values)
    print()
    print(f"correlation: r = {pearson_r(records.values, cpu.values):+.3f}")
    print(f"dependency:  {model.equation('CPU', 'WriteCapacity')}")
    return 0


def cmd_pareto(args: argparse.Namespace) -> int:
    constraints = [
        ShareConstraint.at_least(5, LayerKind.ANALYTICS, LayerKind.INGESTION),
        ShareConstraint.at_most(2, LayerKind.ANALYTICS, LayerKind.INGESTION),
        ShareConstraint.at_most(2, LayerKind.INGESTION, LayerKind.STORAGE),
    ]
    analyzer = ResourceShareAnalyzer(clickstream_flow_spec(), constraints=constraints)
    front = analyzer.analyze(budget_per_hour=args.budget, population_size=80,
                             generations=args.generations, seed=args.seed)
    print(f"budget ${args.budget:.2f}/h — {len(front)} Pareto-optimal plans")
    if not front.solutions:
        print("no feasible plan found: raise the budget or the generation count")
        return 1
    print(front.table())
    print(f"\npicked ({args.pick}): {front.pick(args.pick, seed=args.seed)}")
    return 0


def _shootout_scenarios(args: argparse.Namespace) -> list[Scenario]:
    """One copy of ``flash-crowd-throttle-storm`` per controller style,
    named by its style and sharing one seed (the same workload draw)."""
    return [
        _scenario("flash-crowd-throttle-storm", args, name=style, controller=style)
        for style in sorted(CONTROLLER_FACTORIES)
    ]


def cmd_shootout(args: argparse.Namespace) -> int:
    scenarios = args.scenarios(args)
    _fast_banner(not args.fast)
    report = ComparisonReport(
        "controller comparison: a flash crowd inside a throttle storm",
        ["violations_%", "storm_mttr_s", "cost_$"],
    )
    matrix = run_catalog(scenarios, jobs=args.jobs)
    for scenario in scenarios:
        card = matrix.entries[scenario.name].card
        # The entry injects one fault, the throttle storm.
        (mttr,) = card.mttr_by_fault.values()
        report.add_row(scenario.name, [
            card.slo_violation_pct["ingestion"], mttr, card.total_cost,
        ])
    print(report.render())
    print(f"\nbest on SLO violations: {report.best_row('violations_%')}")
    return 0


def _parse_fault(text: str) -> FaultSpec:
    """``KIND:START[:DURATION[:INTENSITY]]`` -> :class:`FaultSpec`."""
    parts = text.split(":")
    if not 2 <= len(parts) <= 4:
        raise SystemExit(
            f"bad --fault {text!r}: expected KIND:START[:DURATION[:INTENSITY]]"
        )
    try:
        kind = FaultKind(parts[0])
    except ValueError:
        known = ", ".join(sorted(k.value for k in FaultKind))
        raise SystemExit(f"unknown fault kind {parts[0]!r}; one of: {known}")
    try:
        start = int(parts[1])
        duration = int(parts[2]) if len(parts) > 2 else 0
        intensity = float(parts[3]) if len(parts) > 3 else 0.0
        return FaultSpec(kind=kind, start=start, duration=duration, intensity=intensity)
    except (ValueError, FlowerError) as exc:
        raise SystemExit(f"bad --fault {text!r}: {exc}")


def _chaos_scenarios(args: argparse.Namespace) -> list[Scenario]:
    """The ``chaos`` entry; ``--fault`` or ``--schedule`` replaces its
    schedule, which the scenario then validates against ``--duration``."""
    fields = {}
    if args.schedule:
        try:
            with open(args.schedule) as handle:
                fields["chaos"] = ChaosSchedule.from_json(handle.read())
        except (OSError, ValueError, FlowerError) as exc:
            raise SystemExit(f"cannot load schedule {args.schedule!r}: {exc}")
    elif args.fault:
        fields["chaos"] = ChaosSchedule(
            faults=tuple(_parse_fault(text) for text in args.fault), seed=args.seed
        )
    return [_scenario("chaos", args, **fields)]


def cmd_chaos(args: argparse.Namespace) -> int:
    (scenario,) = args.scenarios(args)
    result = scenario.build_manager().run(scenario.duration)

    print(f"fault timeline ({scenario.chaos.name}, seed {scenario.chaos.seed}):")
    for event in result.chaos_events:
        detail = f"  {event.detail}" if event.detail else ""
        print(f"  t={event.time:>6}  {event.phase:<6} {event.fault:<15} "
              f"[{event.layer}]{detail}")

    print("\nrecovery (utilization back into band and holding):")
    for sample in recovery_times(result):
        status = (
            f"{sample.recovery_seconds:.0f}s" if sample.recovered else "NOT RECOVERED"
        )
        print(f"  {sample.fault:<15} [{sample.layer}] injected t={sample.injected_at}: {status}")

    print()
    print(result.invariants.describe())
    print(f"total cost: ${result.total_cost:.4f}")
    return 0 if result.invariants.ok else 1


def _fleet_scenarios(args: argparse.Namespace) -> list[Scenario]:
    """The ``fleet`` entry with the flow count, account limits and
    coordinator period (0: uncoordinated) overridden; ``--sweep N``
    makes N renamed copies with name-derived seeds."""
    template = _scenario("fleet", args)
    scenario = dataclasses.replace(template, fleet=FleetSection(
        flows=args.flows,
        limits=dataclasses.replace(
            template.fleet.limits,
            max_instances=args.max_instances,
            max_total_shards=args.max_shards,
            max_total_write_units=args.max_write_units,
        ),
        coordinate_period=args.coordinate_period or None,
    ))
    if args.sweep == 1:
        return [scenario]
    return [
        dataclasses.replace(scenario, name=name, seed=derive_scenario_seed(args.seed, name))
        for name in (f"fleet-case{i}" for i in range(args.sweep))
    ]


def cmd_fleet(args: argparse.Namespace) -> int:
    """Run N flows against one region and show the arbitration story."""
    scenarios = args.scenarios(args)
    _fast_banner(not args.fast)
    if args.sweep > 1:
        # Process-parallel policy sweep on the catalog runner.
        matrix = run_catalog(scenarios, jobs=args.jobs)
        for entry in matrix.entries.values():
            print(entry.card.summary())
            print()
        print(f"{len(scenarios)} fleet cases swept with jobs={args.jobs}")
        return 0
    (scenario,) = scenarios
    result = scenario.build_manager().run(scenario.duration)
    print(result.summary())
    if result.coordinator is not None and result.coordinator.records:
        print("\nanalytics cap trajectory (coordinator grants per flow):")
        for spec_name in sorted(result.flows):
            trajectory = result.coordinator.bound_trajectory(
                spec_name, LayerKind.ANALYTICS
            )
            if trajectory:
                caps = " ".join(str(cap) for _t, cap in trajectory[:16])
                more = " ..." if len(trajectory) > 16 else ""
                print(f"  {spec_name}: {caps}{more}")
    denials = result.denials_by_flow()
    if denials:
        print("\nregion admission denials (absorbed by each flow's retry stack):")
        for flow_id, counts in sorted(denials.items()):
            detail = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            print(f"  {flow_id}: {detail}")
    bad = [
        flow_id
        for flow_id, flow_result in result.flows.items()
        if flow_result.invariants is not None and not flow_result.invariants.ok
    ]
    if bad:
        print(f"\nINVARIANT VIOLATIONS in: {', '.join(sorted(bad))}")
        return 1
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    if args.action == "list":
        scenarios = gate_catalog(args.variant)
        print(f"scenario catalog [{args.variant}] — {len(scenarios)} scenarios")
        for name, scenario in scenarios.items():
            faults = len(scenario.chaos.faults) if scenario.chaos else 0
            budget = (
                f"${scenario.budget_usd_per_hour:.2f}/h"
                if scenario.budget_usd_per_hour is not None else "none"
            )
            flows = f"  flows={scenario.fleet.flows}" if scenario.fleet else ""
            print(f"  {name:<28} {scenario.controller:<9} "
                  f"{scenario.duration:>7}s  faults={faults}  budget={budget}{flows}")
            print(f"    {scenario.description}")
        return 0

    if args.action == "show":
        if not args.name:
            raise SystemExit("scenario show: a scenario NAME is required")
        print(catalog_scenario(args.name[0], args.variant).to_json(), end="")
        return 0

    # run
    out_path = Path(args.out) if args.out else None
    baseline_path = Path(args.baseline)
    if args.check and out_path and out_path.resolve() == baseline_path.resolve():
        raise SystemExit(
            f"--out and --baseline both resolve to {baseline_path.resolve()}; "
            "the gate would overwrite the committed baseline with the very "
            "matrix it is checking and compare it against itself. Write "
            "artifacts elsewhere (e.g. --out artifacts/SCORECARD_catalog.json), "
            "or regenerate the baseline deliberately with --out and no --check."
        )
    scenarios = gate_catalog(args.variant)
    if args.name:
        unknown = sorted(set(args.name) - set(scenarios))
        if unknown:
            raise SystemExit(
                f"unknown catalog scenario {unknown[0]!r}; one of: "
                + ", ".join(scenarios)
            )
        scenarios = {name: scenarios[name] for name in args.name}
    _fast_banner(not args.fast)
    matrix = run_catalog(
        scenarios, variant=args.variant, jobs=args.jobs, fast=args.fast
    )
    print(matrix.summary())
    failures: list[str] = []
    # Gate before writing: the baseline is read before --out touches the
    # filesystem, so a matrix can never be compared against itself.
    if args.check:
        if not baseline_path.exists():
            failures.append(f"no committed baseline at {baseline_path}")
            print(f"\ngate: MISSING BASELINE ({baseline_path})")
        else:
            baseline = CatalogMatrix.from_json_file(baseline_path)
            if args.name:
                # A partial run gates against the baseline restricted
                # to the same names, so unrun scenarios are not drift.
                baseline = baseline.restrict(args.name)
            drifts = matrix.compare(baseline)
            if drifts:
                failures.append(f"{len(drifts)} drifted fields")
                print(f"\ngate: DRIFT vs {baseline_path}:")
                for drift in drifts:
                    print(f"  {drift}")
            else:
                print(f"\ngate: ok (matches {baseline_path})")
    if out_path:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(matrix.to_json())
        print(f"written: {out_path}")
    if failures:
        print("catalog gate FAILED: " + "; ".join(failures))
        print(
            "if the change is intentional, regenerate the baseline with: "
            f"python -m repro.cli scenario run --out {args.baseline}"
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Flower: a data analytics flow elasticity manager (VLDB'17 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The run flags every scenario-backed command shares; ``styled``
    # adds --style for the commands that run one controller.
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--duration", type=_positive_int,
                     default=VARIANT_DURATIONS["smoke"], help="simulated seconds")
    run.add_argument("--seed", type=int, default=CATALOG_SEED)
    run.add_argument("--reference", type=float, default=60.0,
                     help="desired utilisation (the wizard's reference value)")
    styled = argparse.ArgumentParser(add_help=False, parents=[run])
    styled.add_argument("--style", choices=sorted(CONTROLLER_FACTORIES),
                        default="adaptive")
    fast = argparse.ArgumentParser(add_help=False)
    fast.add_argument("--fast", action="store_true",
                      help="approximate (exact=False) workload path: statistically "
                           "equivalent, several times faster, not bit-comparable")

    demo = sub.add_parser("demo", parents=[styled, fast],
                          help="run the 'steady' entry and show the dashboard")
    demo.add_argument("--trace", default=None, metavar="PATH",
                      help="record a flight-recorder trace and write it as JSONL")
    demo.set_defaults(func=cmd_demo, scenarios=_steady_scenarios)

    trace = sub.add_parser(
        "trace", parents=[styled],
        help="run the 'steady' entry with the flight recorder and summarise it",
    )
    trace.add_argument("--out", default=None, metavar="PATH",
                       help="also export the trace as JSONL")
    trace.add_argument("--chrome", default=None, metavar="PATH",
                       help="also export a Chrome trace-event JSON file "
                            "(opens in Perfetto / chrome://tracing)")
    trace.add_argument("--profile", action="store_true",
                       help="time each component and task per tick")
    trace.add_argument("--layer", default=None,
                       help="print only events from this layer/loop")
    trace.add_argument("--kind", default=None,
                       help="print only events of this kind (prefix match on dots)")
    trace.add_argument("--from-tick", type=int, default=None, metavar="T",
                       help="print only events at simulated second >= T")
    trace.add_argument("--to-tick", type=int, default=None, metavar="T",
                       help="print only events at simulated second <= T")
    trace.add_argument("--causal", default=None, metavar="TRACE_ID",
                       help="print one reconstructed causal chain "
                            "(loop@time or fault:<kind>@<start>)")
    trace.set_defaults(func=cmd_trace, scenarios=_steady_scenarios)

    fig2 = sub.add_parser("fig2", help="workload dependency analysis on a static run")
    fig2.add_argument("--duration", type=_positive_int, default=3 * 3600)
    fig2.add_argument("--seed", type=int, default=7)
    fig2.set_defaults(func=cmd_fig2)

    pareto = sub.add_parser("pareto", help="resource share analysis (Fig. 4)")
    pareto.add_argument("--budget", type=float, default=1.5, help="dollars per hour")
    pareto.add_argument("--generations", type=_positive_int, default=150)
    pareto.add_argument("--seed", type=int, default=0)
    pareto.add_argument("--pick", default="balanced",
                        help="random | balanced | cheapest | max:<layer>")
    pareto.set_defaults(func=cmd_pareto)

    shootout = sub.add_parser(
        "shootout", parents=[run, fast],
        help="compare the four controller styles on 'flash-crowd-throttle-storm'",
    )
    shootout.add_argument("--jobs", type=_positive_int, default=1,
                          help="worker processes for the style sweep "
                               "(results are identical to a serial run)")
    shootout.set_defaults(func=cmd_shootout, scenarios=_shootout_scenarios)

    chaos = sub.add_parser(
        "chaos", parents=[styled],
        help="run the 'chaos' entry under its faults and audit recovery",
    )
    faults = chaos.add_mutually_exclusive_group()
    faults.add_argument("--fault", action="append", metavar="KIND:START[:DURATION[:INTENSITY]]",
                        help="add one fault (repeatable); kinds: "
                             + ", ".join(sorted(k.value for k in FaultKind)))
    faults.add_argument("--schedule", default=None, metavar="PATH",
                        help="load a ChaosSchedule JSON file; "
                             "default: the entry's one fault per layer")
    chaos.set_defaults(func=cmd_chaos, scenarios=_chaos_scenarios)

    fleet = sub.add_parser(
        "fleet", parents=[run, fast],
        help="run the 'fleet' entry: several flows against one region's limits",
    )
    fleet.add_argument("--flows", type=_positive_int, default=3, help="number of flows")
    fleet.add_argument("--max-instances", type=int, default=10,
                       help="account-wide EC2 instance limit")
    fleet.add_argument("--max-shards", type=int, default=12,
                       help="account-wide Kinesis shard limit")
    fleet.add_argument("--max-write-units", type=int, default=2400,
                       help="account-wide DynamoDB write-unit limit")
    fleet.add_argument("--coordinate-period", type=int, default=300,
                       help="seconds between coordinator arbitration passes; 0 "
                            "disables arbitration (region admission alone "
                            "polices the limits)")
    fleet.add_argument("--sweep", type=_positive_int, default=1, metavar="N",
                       help="run the fleet as N independent scenario cases "
                            "(name-derived seeds) instead of one run")
    fleet.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes for --sweep (byte-identical to jobs=1)")
    fleet.set_defaults(func=cmd_fleet, scenarios=_fleet_scenarios)

    scenario = sub.add_parser(
        "scenario",
        help="list, inspect, or run the declarative scenario catalog "
             "and gate its scorecard matrix",
    )
    scenario.add_argument("action", choices=("list", "show", "run"),
                          help="list the catalog, show one spec as JSON, "
                               "or run scenarios and score them")
    scenario.add_argument("name", nargs="*", metavar="NAME",
                          help="catalog scenario name(s); default for run: all")
    scenario.add_argument("--variant", choices=("smoke", "full"), default="smoke",
                          help="horizon variant (smoke: 2 h, the CI gate; "
                               "full: a day or more)")
    scenario.add_argument("--jobs", type=_positive_int, default=1,
                          help="worker processes for the run "
                               "(matrix is byte-identical at any value)")
    scenario.add_argument("--fast", action="store_true",
                          help="approximate (exact=False) workload path for every "
                               "scenario; the matrix then refuses to gate against "
                               "the exact committed baseline")
    scenario.add_argument("--out", default=None, metavar="PATH",
                          help="write the scorecard matrix JSON here")
    scenario.add_argument("--check", action="store_true",
                          help="fail (exit 1) if any scenario's card drifts from "
                               "the committed baseline matrix")
    scenario.add_argument("--baseline", default="results/SCORECARD_catalog.json",
                          metavar="PATH",
                          help="committed baseline matrix "
                               "(default: results/SCORECARD_catalog.json)")
    scenario.set_defaults(func=cmd_scenario)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FlowerError as exc:
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
