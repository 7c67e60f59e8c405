"""Span execution must be bit-identical to the per-tick reference loop.

Every test here runs the same flow twice — once with span-batched
execution (the default) and once with ``.spans(False)`` forcing the
per-tick loop — and asserts the complete observable state matches
exactly: every raw metric datapoint (compared by ``repr`` so a single
ULP of drift fails), cost-meter accumulators, drop counters, collector
snapshots, and control decisions.

Bus *events* are compared as per-timestamp multisets: the span path may
emit same-timestamp events in a different relative order (e.g. a read
``capacity.applied`` lands before a throttle episode), but the set of
events at each simulated second is identical.

Scenario coverage targets exactly the hazards inside a span: reshard
completions, topology rebalances, EC2 warm-ups, aggregation-window
flushes, and MAX_BACKLOG crossings.
"""

import random

import pytest

from repro.chaos import ChaosSchedule, FaultKind, FaultSpec
from repro.cloud.storm import BoltSpec, TopologyConfig
from repro.core import fleet_exec
from repro.core.builder import FlowBuilder
from repro.core.flow import LayerKind
from repro.core.manager import _FlowPipeline
from repro.workload.generators import ConstantRate, SinusoidalRate, StepRate


def _raw_metrics(result):
    """Every stored datapoint of every series, reprs at full precision."""
    out = {}
    for key, series in result.cloudwatch._series.items():
        out[key] = (
            series.times.tolist(),
            [repr(v) for v in series.values.tolist()],
        )
    return out


def _costs(result):
    return [(name, repr(meter.total_cost)) for name, meter in sorted(result.cost_meters.items())]


def _snapshots(result):
    return [
        (snap.time, sorted((k, repr(v)) for k, v in snap.values.items()))
        for snap in result.collector.snapshots
    ]


def _decisions(result):
    out = []
    if result.recorder is None:
        return out
    for d in result.recorder.decisions:
        out.append(repr(d))
    return out


def _event_multiset(result):
    """Events keyed by timestamp, order-insensitive within a second."""
    if result.recorder is None:
        return []
    rows = [
        (e.time, e.layer, e.kind, tuple(sorted((k, repr(v)) for k, v in e.payload.items())))
        for e in result.recorder.bus
    ]
    return sorted(rows)


def assert_equivalent(reference, spanned, events: bool = False):
    assert spanned.dropped_records == reference.dropped_records
    assert spanned.dropped_writes == reference.dropped_writes
    assert _raw_metrics(spanned) == _raw_metrics(reference)
    assert _costs(spanned) == _costs(reference)
    assert _snapshots(spanned) == _snapshots(reference)
    if events:
        assert _event_multiset(spanned) == _event_multiset(reference)
        assert _decisions(spanned) == _decisions(reference)


def _count_scalar_calls(monkeypatch):
    """Record ``(clock.now, span_end)`` of every scalar-reference entry."""
    calls = []
    original = _FlowPipeline.run_span

    def counting(self, clock, span_end, columns):
        calls.append((clock.now, span_end))
        return original(self, clock, span_end, columns)

    monkeypatch.setattr(_FlowPipeline, "run_span", counting)
    return calls


def _series(result, namespace, metric):
    """``(times, values)`` of the one stored series named ``metric``."""
    (series,) = [
        s for key, s in result.cloudwatch._series.items()
        if key[0] == namespace and key[1] == metric
    ]
    return series.times.tolist(), series.values.tolist()


def _first_tick(result, namespace, metric, above=0):
    times, values = _series(result, namespace, metric)
    return next(t for t, v in zip(times, values) if v > above)


def run_pair(make_builder, horizon, events: bool = False):
    """Build + run the flow with spans off and on; return both results."""
    results = []
    for spans in (False, True):
        builder = make_builder().spans(spans)
        if events:
            builder = builder.observe()
        results.append(builder.build().run(horizon))
    return results


class TestControlledFlowEquivalence:
    def test_adaptive_control_with_scaling_events(self):
        """Reshards, DDB updates, EC2 warm-ups and flushes inside spans."""

        def build():
            return (
                FlowBuilder("span-eq", seed=11)
                .ingestion(shards=2)
                .analytics(vms=2)
                .storage(write_units=300)
                .workload(SinusoidalRate(mean=1500, amplitude=1100, period=600))
                .control_all(style="adaptive", reference=60.0, period=30)
            )

        reference, spanned = run_pair(build, 1200)
        assert_equivalent(reference, spanned)
        # The scenario must actually scale, or it proves nothing about
        # capacity events landing mid-span.
        for kind in (LayerKind.INGESTION, LayerKind.ANALYTICS, LayerKind.STORAGE):
            cap = spanned.capacity_trace(kind, period=60).values
            assert min(cap) < max(cap), f"{kind} never scaled"

    def test_randomized_seeds_and_periods(self):
        """Property-style sweep: random seeds, periods, shapes."""
        rng = random.Random(0xF10E)
        for _ in range(4):
            seed = rng.randrange(10_000)
            period = rng.choice([20, 30, 60])
            mean = rng.randrange(600, 2200)
            amplitude = rng.randrange(200, mean)

            def build():
                return (
                    FlowBuilder("span-eq-rand", seed=seed)
                    .ingestion(shards=2)
                    .analytics(vms=2)
                    .storage(write_units=250)
                    .workload(SinusoidalRate(mean=mean, amplitude=amplitude, period=420))
                    .control_all(style="adaptive", reference=60.0, period=period)
                )

            reference, spanned = run_pair(build, 900)
            assert_equivalent(reference, spanned)

    def test_topology_rebalance_inside_span(self):
        """VM-count changes trigger rebalance windows; spans must clamp."""
        topology = TopologyConfig(
            bolts=(
                BoltSpec("parse", records_per_executor_per_second=500, executors=4),
                BoltSpec("aggregate", records_per_executor_per_second=250, executors=4),
            ),
            executor_slots_per_vm=4,
            rebalance_seconds=25,
        )

        def build():
            return (
                FlowBuilder("span-eq-topo", seed=3)
                .ingestion(shards=3)
                .analytics(vms=2, topology=topology)
                .storage(write_units=300)
                .workload(StepRate(base=700, level=2400, at=240))
                .control_all(style="adaptive", reference=60.0, period=30)
            )

        reference, spanned = run_pair(build, 900, events=True)
        assert_equivalent(reference, spanned, events=True)
        rebalances = spanned.recorder.bus.of_kind("rebalance")
        assert rebalances, "scenario never rebalanced"

    def test_read_workload_and_read_control(self):
        def build():
            return (
                FlowBuilder("span-eq-reads", seed=21)
                .ingestion(shards=2)
                .analytics(vms=2)
                .storage(write_units=280)
                .workload(SinusoidalRate(mean=1200, amplitude=700, period=500))
                .control_all(style="adaptive", reference=60.0, period=30)
                .reads(
                    StepRate(base=40, level=260, at=300),
                    read_units=100,
                    style="adaptive",
                    reference=60.0,
                    period=30,
                )
            )

        reference, spanned = run_pair(build, 900)
        assert_equivalent(reference, spanned)

    def test_max_backlog_crossing_inside_span(self, monkeypatch):
        """Drop accounting when the backlog clamps mid-span."""
        monkeypatch.setattr(_FlowPipeline, "MAX_BACKLOG", 25_000)

        def build():
            # Static under-provisioned flow: no control boundaries, so
            # the clamp must happen inside long spans.
            return (
                FlowBuilder("span-eq-drop", seed=5)
                .ingestion(shards=1)
                .analytics(vms=1)
                .storage(write_units=40)
                .workload(ConstantRate(4000))
            )

        reference, spanned = run_pair(build, 300)
        assert_equivalent(reference, spanned)
        assert spanned.dropped_records > 0, "backlog never crossed the cap"

    def test_coarse_tick_flow(self):
        def build():
            return (
                FlowBuilder("span-eq-tick", seed=9)
                .ingestion(shards=2)
                .analytics(vms=2)
                .storage(write_units=300)
                .workload(SinusoidalRate(mean=1400, amplitude=800, period=600))
                .control_all(style="adaptive", reference=60.0, period=30)
                .tick(5)
            )

        reference, spanned = run_pair(build, 1500)
        assert_equivalent(reference, spanned)


#: One scenario per fault kind, sized so the fault actually bites.
CHAOS_SCENARIOS = {
    "reshard-stall": ChaosSchedule(faults=(
        FaultSpec(kind=FaultKind.RESHARD_STALL, start=120, duration=400, intensity=4),
    ), seed=1),
    "shard-brownout": ChaosSchedule(faults=(
        FaultSpec(kind=FaultKind.SHARD_BROWNOUT, start=200, duration=300, intensity=0.5),
    ), seed=2),
    "worker-crash": ChaosSchedule(faults=(
        FaultSpec(kind=FaultKind.WORKER_CRASH, start=300, intensity=1),
    ), seed=3),
    "rebalance-fail": ChaosSchedule(faults=(
        FaultSpec(kind=FaultKind.REBALANCE_FAIL, start=240, duration=90),
    ), seed=4),
    "throttle-storm": ChaosSchedule(faults=(
        FaultSpec(kind=FaultKind.THROTTLE_STORM, start=180, duration=300, intensity=0.6),
    ), seed=5),
    "update-reject": ChaosSchedule(faults=(
        FaultSpec(kind=FaultKind.UPDATE_REJECT, start=120, duration=300),
    ), seed=6),
    "metric-delay": ChaosSchedule(faults=(
        FaultSpec(kind=FaultKind.METRIC_DELAY, start=180, duration=240, intensity=120),
    ), seed=7),
    "metric-dropout": ChaosSchedule(faults=(
        FaultSpec(kind=FaultKind.METRIC_DROPOUT, start=180, duration=240),
    ), seed=8),
}


class TestChaosEquivalence:
    """Span-vs-tick bit-equivalence under every chaos fault kind.

    The injector bounds spans at each transition's due tick and clamps
    the tick after a worker crash, so fault effects must land at the
    exact same ticks in both modes — including retry/backoff decisions,
    degraded-sensor events, and the invariant checker's audit."""

    @staticmethod
    def _build(schedule):
        def build():
            return (
                FlowBuilder("span-eq-chaos", seed=11)
                .ingestion(shards=2)
                .analytics(vms=2)
                .storage(write_units=300)
                .workload(SinusoidalRate(mean=1400, amplitude=800, period=600))
                .control_all(style="adaptive", reference=60.0, period=30)
                .chaos(schedule)
            )

        return build

    @pytest.mark.parametrize("kind", sorted(CHAOS_SCENARIOS))
    def test_single_fault_scenarios(self, kind):
        schedule = CHAOS_SCENARIOS[kind]
        reference, spanned = run_pair(self._build(schedule), 900, events=True)
        assert_equivalent(reference, spanned, events=True)
        # The fault actually fired, identically in both modes.
        assert reference.chaos_events
        assert spanned.chaos_events == reference.chaos_events
        assert any(e.fault == kind for e in spanned.chaos_events)
        # The always-on checker audited both runs cleanly.
        assert reference.invariants.ok and spanned.invariants.ok

    def test_combined_multi_layer_scenario(self):
        schedule = ChaosSchedule(faults=(
            FaultSpec(kind=FaultKind.SHARD_BROWNOUT, start=150, duration=300, intensity=0.5),
            FaultSpec(kind=FaultKind.RESHARD_STALL, start=500, duration=200, intensity=3),
            FaultSpec(kind=FaultKind.WORKER_CRASH, start=400, intensity=1),
            FaultSpec(kind=FaultKind.REBALANCE_FAIL, start=700, duration=90),
            FaultSpec(kind=FaultKind.THROTTLE_STORM, start=300, duration=240, intensity=0.6),
            FaultSpec(kind=FaultKind.UPDATE_REJECT, start=600, duration=240),
            FaultSpec(kind=FaultKind.METRIC_DELAY, start=100, duration=150, intensity=90),
            FaultSpec(kind=FaultKind.METRIC_DROPOUT, start=850, duration=100),
        ), seed=42)
        reference, spanned = run_pair(self._build(schedule), 1200, events=True)
        assert_equivalent(reference, spanned, events=True)
        assert spanned.chaos_events == reference.chaos_events
        injected = {e.fault for e in spanned.chaos_events if e.phase == "inject"}
        assert injected == {k.value for k in FaultKind}


class TestFleetEquivalence:
    """Span-vs-tick bit-equivalence for a multi-flow region run.

    The multi-flow hazards on top of the single-flow ones: the shared
    EC2 pool's contention factor (a pure function of *all* flows'
    committed instances, hoisted per span), region admission denials
    landing at the exact same control boundaries in both modes, and the
    coordinator's grants being identical — one flow's chaos or scaling
    must perturb its neighbors from exactly the same tick either way.
    """

    @staticmethod
    def _fleet(span_execution, coordinate, chaos=False):
        from repro.chaos import ChaosSchedule as Schedule
        from repro.cloud.region import RegionLimits
        from repro.cloud.storm import StormConfig
        from repro.core.config import LayerControlConfig, default_adaptive_controller
        from repro.core.fleet import FleetFlowSpec, RegionFleetManager

        def controls():
            return {
                kind: LayerControlConfig(
                    controller=default_adaptive_controller(kind), period=30
                )
                for kind in LayerKind
            }

        flows = []
        for i in range(2):
            schedule = None
            if chaos and i == 0:
                schedule = Schedule(
                    faults=(
                        FaultSpec(kind=FaultKind.WORKER_CRASH, start=400, intensity=1),
                        FaultSpec(kind=FaultKind.THROTTLE_STORM, start=600,
                                  duration=200, intensity=0.6),
                    ),
                    seed=13,
                )
            flows.append(
                FleetFlowSpec(
                    name=f"flow{i}",
                    workload=SinusoidalRate(
                        mean=1500 + 500 * i, amplitude=1000, period=900
                    ),
                    controls=controls(),
                    # Overcommitted: both flows believe they may take
                    # nearly the whole account, so one of them hits the
                    # account limit mid-run and is denied.
                    share_bounds={
                        LayerKind.INGESTION: 5,
                        LayerKind.ANALYTICS: 5,
                        LayerKind.STORAGE: 800,
                    },
                    storm=StormConfig(records_per_vm_per_second=700),
                    chaos=schedule,
                )
            )
        return RegionFleetManager(
            flows,
            limits=RegionLimits(
                max_instances=6,
                max_total_shards=7,
                max_total_write_units=1200,
                # A low threshold so the shared pool is contended for
                # most of the run, exercising the span-hoisted factor.
                contention_threshold=0.5,
                contention_slope=0.4,
            ),
            seed=11,
            span_execution=span_execution,
            coordinate_period=300 if coordinate else None,
        )

    def _run_fleet_pair(self, coordinate, chaos=False):
        results = []
        for spans in (False, True):
            fleet = self._fleet(spans, coordinate, chaos)
            results.append((fleet, fleet.run(1200)))
        (ref_fleet, reference), (span_fleet, spanned) = results
        assert not ref_fleet.engine.last_run_used_spans
        assert span_fleet.engine.last_run_used_spans
        return reference, spanned

    @pytest.mark.parametrize("coordinate", [False, True])
    def test_two_flow_region_bit_identical(self, coordinate):
        reference, spanned = self._run_fleet_pair(coordinate)
        assert sorted(reference.flows) == sorted(spanned.flows)
        denied = reference.region.total_denials()
        assert denied > 0, "scenario must actually hit the account limit"
        for flow_id in reference.flows:
            assert_equivalent(reference.flows[flow_id], spanned.flows[flow_id])
            assert reference.flows[flow_id].invariants.ok
            assert spanned.flows[flow_id].invariants.ok
        # Region accounting and denial history identical tick-for-tick.
        assert spanned.region.denial_counts == reference.region.denial_counts
        if coordinate:
            assert spanned.coordinator.records == reference.coordinator.records

    def test_cross_flow_chaos_visibility(self):
        """Flow0's worker crash changes the shared pool, hence flow1's
        contention factor — from exactly the same tick in both modes."""
        reference, spanned = self._run_fleet_pair(coordinate=True, chaos=True)
        assert reference.flows["flow0"].chaos_events
        assert (
            spanned.flows["flow0"].chaos_events
            == reference.flows["flow0"].chaos_events
        )
        for flow_id in reference.flows:
            assert_equivalent(reference.flows[flow_id], spanned.flows[flow_id])


class TestExecutorScalarFallback:
    """The executor's float64-exactness guard on ``payload * records``.

    Above ``_EXACT_PRODUCT_LIMIT`` the closed-form buffer byte split
    would round, so the executor must hand those ticks to the scalar
    reference. Real runs never get near 2**53; lowering the limit into
    the workload's range makes a quiet, well-provisioned flow (which
    otherwise never leaves the vector path) cross it mid-span.
    """

    @staticmethod
    def _build():
        return (
            FlowBuilder("span-eq-limit", seed=3)
            .ingestion(shards=4)
            .analytics(vms=4)
            .storage(write_units=1000)
            .workload(SinusoidalRate(mean=1200, amplitude=600, period=600))
        )

    def test_quiet_flow_stays_on_the_vector_path(self, monkeypatch):
        calls = _count_scalar_calls(monkeypatch)
        self._build().build().run(900)
        assert calls == []

    def test_product_limit_falls_back_to_scalar(self, monkeypatch):
        # Per-tick payload x records spans ~1e8..1.3e9 for this workload.
        monkeypatch.setattr(fleet_exec, "_EXACT_PRODUCT_LIMIT", 700_000_000)
        calls = _count_scalar_calls(monkeypatch)
        reference, spanned = run_pair(self._build, 900)
        assert calls, "the lowered limit never sent a tick to the scalar path"
        # Crossings land inside spans, not only on their first tick.
        assert any(now % 60 for now, _ in calls)
        assert_equivalent(reference, spanned)


class TestQuietPrefixCutPoints:
    """Where the executor's closed-form prefix ends and the scalar
    reference takes over.

    The prefix covers quiet ticks only. A flush whose writes spill into
    a write backlog is its last tick; a tick whose dashboard reads
    exceed the read cap is its first excluded tick. Each case is
    static (no control boundaries), so the cut lands inside a sub-span
    and only the executor's own checks can put it there.
    """

    @staticmethod
    def _flow(name, write_units=300, workload=None):
        return (
            FlowBuilder(name, seed=4)
            .ingestion(shards=4)
            .analytics(vms=4)
            .storage(write_units=write_units)
            .workload(workload or SinusoidalRate(mean=900, amplitude=400, period=600))
        )

    def test_write_spill_ends_the_prefix_on_its_flush(self, monkeypatch):
        def build():
            # Quiet for 300 s, then enough writes per window to drain
            # the burst bucket until one flush overflows into a backlog.
            return self._flow(
                "cut-writes", write_units=38,
                workload=StepRate(base=200, level=1500, at=300),
            )

        calls = _count_scalar_calls(monkeypatch)
        reference, spanned = run_pair(build, 900)
        assert_equivalent(reference, spanned)
        # Kinesis and Storm stay quiet throughout; only storage spills.
        assert not any(_series(reference, "AWS/Kinesis", "WriteProvisionedThroughputExceeded")[1])
        assert not any(_series(reference, "Custom/Storm", "PendingTuples")[1])
        spill = _first_tick(reference, "AWS/DynamoDB", "WriteThrottleEvents")
        assert spill % 60, "the spill must land inside a sub-span"
        # The scalar reference starts on the tick after the flush.
        assert calls[0][0] == spill

    def test_reads_over_the_read_cap_end_the_prefix(self, monkeypatch):
        def build():
            return self._flow("cut-reads").reads(
                StepRate(base=20, level=400, at=330), read_units=100
            )

        calls = _count_scalar_calls(monkeypatch)
        reference, spanned = run_pair(build, 900)
        assert_equivalent(reference, spanned)
        over = _first_tick(reference, "AWS/DynamoDB", "ConsumedReadCapacityUnits", above=100)
        assert over % 60, "the surge must start inside a sub-span"
        # The first over-cap tick is the scalar reference's first tick.
        assert calls[0][0] == over - 1
        # The surge outlasts the read burst bucket, so reads throttle.
        assert any(_series(reference, "AWS/DynamoDB", "ReadThrottleEvents")[1])

    def test_reads_within_the_cap_stay_on_the_vector_path(self, monkeypatch):
        def build():
            return self._flow("quiet-reads").reads(
                SinusoidalRate(mean=30, amplitude=10, period=300), read_units=100
            )

        calls = _count_scalar_calls(monkeypatch)
        reference, spanned = run_pair(build, 900)
        assert_equivalent(reference, spanned)
        assert sum(_series(reference, "AWS/DynamoDB", "ConsumedReadCapacityUnits")[1]) > 0
        assert calls == []
