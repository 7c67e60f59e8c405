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
from repro.cloud import SimCloudWatch
from repro.cloud.dynamodb import DynamoDBConfig
from repro.cloud.kinesis import KinesisConfig
from repro.cloud.storm import BoltSpec, TopologyConfig
from repro.core import fleet_exec
from repro.core.builder import FlowBuilder
from repro.core.fleet import FleetFlowSpec, RegionFleetManager
from repro.core.flow import LayerKind
from repro.core.manager import _FlowPipeline
from repro.observability import FlightRecorder
from repro.observability.export import write_jsonl
from repro.workload.clickstream import ClickStreamConfig
from repro.workload.generators import ConstantRate, FlashCrowdRate, SinusoidalRate, StepRate


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


#: The span kernel's layers that can leave their closed form, each with
#: its scan method on ``_FlowPipeline`` (Storm compute never scans).
SCAN_LAYERS = ("kinesis", "storm_ingress", "dynamodb", "dashboard_reads")


def _log_scans(monkeypatch):
    """Record ``(layer, first scanned tick)`` for every layer scan the span
    kernel starts, in call order; ``("kernel", first tick)`` marks each
    kernel call."""
    log = []
    window = {}
    original_run = _FlowPipeline.run_span

    def run_span(self, clock, span_end, columns):
        window["end"], window["dt"] = span_end, clock.tick_seconds
        log.append(("kernel", clock.now + clock.tick_seconds))
        return original_run(self, clock, span_end, columns)

    monkeypatch.setattr(_FlowPipeline, "run_span", run_span)
    for layer in SCAN_LAYERS:
        name = f"_{layer}_scan"

        def scan(self, column, *args, _original=getattr(_FlowPipeline, name), _layer=layer):
            log.append((_layer, window["end"] - (len(column) - 1) * window["dt"]))
            return _original(self, column, *args)

        monkeypatch.setattr(_FlowPipeline, name, scan)
    return log


def _scans(log):
    """The layer scans of a :func:`_log_scans` log, kernel marks dropped."""
    return [entry for entry in log if entry[0] != "kernel"]


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


class TestQuietFlowClosedForm:
    """A well-provisioned flow never leaves the closed form.

    Its per-tick ``payload * records`` product ranges around 2**53 here:
    the closed forms never multiply bytes by records, and the scans split
    bytes with Python integers, exact at any size — so the span run stays
    bit-identical to the oracle whether the put is quiet or throttled.
    """

    @staticmethod
    def _build():
        return (
            FlowBuilder("span-eq-quiet", seed=3)
            .ingestion(shards=4)
            .analytics(vms=4)
            .storage(write_units=1000)
            .workload(SinusoidalRate(mean=1200, amplitude=600, period=600))
        )

    def test_quiet_flow_never_scans(self, monkeypatch):
        log = _log_scans(monkeypatch)
        self._build().build().run(900)
        assert log, "the kernel never ran"
        assert _scans(log) == []

    @pytest.mark.parametrize("put", ["quiet", "throttled"])
    def test_payload_times_records_near_2_53(self, monkeypatch, put):
        # Two-gigabyte records at 1,500..2,700 records/s: each tick's
        # payload is 3e12..5.4e12 bytes and its payload x records product
        # spans about 4.5e15..1.5e16, across 2**53 ~ 9.0e15. The throttled
        # put caps bytes at 4.6e12 per tick, so the backlog's byte split
        # multiplies far beyond 2**53.
        byte_rate = 2**50 if put == "quiet" else 1_150_000_000_000

        def build():
            return (
                FlowBuilder("span-eq-product", seed=3)
                .ingestion(shards=4, config=KinesisConfig(bytes_per_shard_per_second=byte_rate))
                .analytics(vms=4)
                .storage(write_units=1000)
                .workload(
                    SinusoidalRate(mean=2100, amplitude=600, period=600),
                    ClickStreamConfig(mean_record_bytes=2_000_000_000),
                )
            )

        log = _log_scans(monkeypatch)
        reference, spanned = run_pair(build, 600)
        assert_equivalent(reference, spanned)
        records = _series(reference, "AWS/Kinesis", "IncomingRecords")[1]
        payload = _series(reference, "AWS/Kinesis", "IncomingBytes")[1]
        products = [r * b for r, b in zip(records, payload)]
        assert min(products) < 2**53 < max(products)
        layers = {layer for layer, _ in _scans(log)}
        assert layers == (set() if put == "quiet" else {"kinesis"})


class TestQuietPrefixCutPoints:
    """Where a layer's closed-form prefix of a sub-span ends.

    Each layer of the span kernel takes its closed form over the leading
    ticks of a sub-span and scans from the first tick that form cannot
    take — only that layer: a flush whose writes spill into a write
    backlog is DynamoDB's last closed-form tick; a tick whose dashboard
    reads exceed the read cap is the reads layer's first scanned tick.
    Each case is static (no control boundaries), so the cut lands inside
    a sub-span and only the kernel's own checks can put it there.
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

        log = _log_scans(monkeypatch)
        reference, spanned = run_pair(build, 900)
        assert_equivalent(reference, spanned)
        # Kinesis and Storm stay quiet throughout; only storage spills.
        assert not any(_series(reference, "AWS/Kinesis", "WriteProvisionedThroughputExceeded")[1])
        assert not any(_series(reference, "Custom/Storm", "PendingTuples")[1])
        spill = _first_tick(reference, "AWS/DynamoDB", "WriteThrottleEvents")
        assert spill % 60, "the spill must land inside a sub-span"
        scans = _scans(log)
        assert {layer for layer, _ in scans} == {"dynamodb"}
        # DynamoDB's scan starts on the tick after the flush.
        assert scans[0] == ("dynamodb", spill + 1)

    def test_reads_over_the_read_cap_end_the_prefix(self, monkeypatch):
        def build():
            return self._flow("cut-reads").reads(
                StepRate(base=20, level=400, at=330), read_units=100
            )

        log = _log_scans(monkeypatch)
        reference, spanned = run_pair(build, 900)
        assert_equivalent(reference, spanned)
        over = _first_tick(reference, "AWS/DynamoDB", "ConsumedReadCapacityUnits", above=100)
        assert over % 60, "the surge must start inside a sub-span"
        scans = _scans(log)
        assert {layer for layer, _ in scans} == {"dashboard_reads"}
        # The first over-cap tick is the reads layer's first scanned tick.
        assert scans[0] == ("dashboard_reads", over)
        # The surge outlasts the read burst bucket, so reads throttle.
        assert any(_series(reference, "AWS/DynamoDB", "ReadThrottleEvents")[1])

    def test_reads_within_the_cap_stay_on_the_vector_path(self, monkeypatch):
        def build():
            return self._flow("quiet-reads").reads(
                SinusoidalRate(mean=30, amplitude=10, period=300), read_units=100
            )

        log = _log_scans(monkeypatch)
        reference, spanned = run_pair(build, 900)
        assert_equivalent(reference, spanned)
        assert sum(_series(reference, "AWS/DynamoDB", "ConsumedReadCapacityUnits")[1]) > 0
        assert _scans(log) == []


class TestOneCommitPerSubSpan:
    """The executor runs each flow's sub-span through one kernel call and
    commits it once — one ``commit_span``, one store call per service —
    however many of its layers switch from closed form to scan inside it."""

    @staticmethod
    def _burst_flow():
        # 800 records/s on a 2,000 records/s stream with a short flash
        # crowd over the cap at t=125, then dashboard reads bursting past
        # a 2 s read bucket at t=158: a Kinesis and then a DynamoDB
        # throttle episode open and close inside the sub-span (120, 180].
        return (
            FlowBuilder("burst", seed=4)
            .ingestion(shards=2)
            .analytics(vms=4)
            .storage(write_units=300, config=DynamoDBConfig(burst_seconds=2))
            .workload(ConstantRate(800) + FlashCrowdRate(3000, at=125, rise_seconds=5,
                                                         decay_seconds=8))
            .reads(ConstantRate(20) + FlashCrowdRate(600, at=158, rise_seconds=3,
                                                     decay_seconds=5), read_units=100)
        )

    @staticmethod
    def _log_paths(monkeypatch):
        """Per sub-span start, the kernel's layer scans and ``"commit"``,
        in call order (the :func:`_log_scans` log, with commits)."""
        log = _log_scans(monkeypatch)
        original_commit = _FlowPipeline.commit_span

        def commit_span(self, *args):
            log.append(("commit", None))
            return original_commit(self, *args)

        monkeypatch.setattr(_FlowPipeline, "commit_span", commit_span)
        return log

    def test_alternating_sub_span_commits_once(self, monkeypatch, tmp_path):
        log = self._log_paths(monkeypatch)
        reference, spanned = run_pair(self._burst_flow, 600, events=True)
        assert_equivalent(reference, spanned, events=True)
        paths = {}
        for layer, tick in log:
            if layer == "kernel":
                first = tick
                paths[first] = []
            paths[first].append((layer, tick))
        assert all(
            path[-1][0] == "commit" and [e[0] for e in path].count("commit") == 1
            for path in paths.values()
        )
        # Kinesis scans from the first over-cap tick, and the reads layer
        # from the first tick over the read cap, both inside one sub-span.
        over_reads = _first_tick(reference, "AWS/DynamoDB", "ConsumedReadCapacityUnits",
                                 above=100)
        assert paths[121] == [
            ("kernel", 121), ("kinesis", 127), ("dashboard_reads", over_reads), ("commit", None)
        ]

        # The throttle episodes replayed over the sub-span's concatenated
        # columns equal the per-tick run's, byte for byte once exported
        # (the two episodes do not overlap, so even the bus sequence
        # numbers agree), with builtin ints in every payload.
        span_events = spanned.recorder.bus.events
        assert [(e.time, e.layer, e.kind) for e in span_events] == [
            (127, "ingestion", "throttle"), (151, "ingestion", "throttle.end"),
            (160, "storage", "throttle"), (172, "storage", "throttle.end"),
        ]
        assert all(
            type(value) is int
            for e in span_events for key, value in e.payload.items() if key != "dimension"
        )
        write_jsonl(tmp_path / "span.jsonl", events=span_events)
        write_jsonl(tmp_path / "tick.jsonl", events=reference.recorder.bus.events)
        assert (tmp_path / "span.jsonl").read_bytes() == (tmp_path / "tick.jsonl").read_bytes()

    def test_fleet_store_calls_per_commit(self, monkeypatch):
        """Guard: store writes = 3 x commits, commits = sub-spans, and no
        write bypasses the grouped batch call."""
        counts = dict.fromkeys(
            ("sub", "kernel", "hoist", "commit", "batch", "scalar_put", "scan"), 0
        )

        def count(owner, name, tag):
            original = getattr(owner, name)

            def counted(self, *args, **kwargs):
                counts[tag] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(fleet_exec.FleetSpanExecutor, "_run_sub_span", "sub")
        count(_FlowPipeline, "run_span", "kernel")
        count(_FlowPipeline, "hoist_capacities", "hoist")
        count(_FlowPipeline, "commit_span", "commit")
        for layer in SCAN_LAYERS:
            count(_FlowPipeline, f"_{layer}_scan", "scan")
        count(SimCloudWatch, "put_metric_data_batch", "batch")
        count(SimCloudWatch, "put_metric_data", "scalar_put")
        flows = [
            FleetFlowSpec(
                name=f"flow{i}",
                workload=ConstantRate(900 + 300 * i)
                + FlashCrowdRate(4000, at=200 + 300 * i, rise_seconds=10, decay_seconds=30),
                manager_kwargs={"recorder": FlightRecorder()},
            )
            for i in range(2)
        ]
        fleet = RegionFleetManager(flows, seed=5)
        fleet.run(1200)
        assert fleet.engine.last_run_used_spans
        assert counts["scan"] > 0, "no layer left its closed form"
        assert counts["sub"] >= 2 * 1200 // 60
        assert counts["kernel"] == counts["hoist"] == counts["commit"] == counts["sub"]
        assert counts["batch"] == 3 * counts["commit"]
        assert counts["scalar_put"] == 0
