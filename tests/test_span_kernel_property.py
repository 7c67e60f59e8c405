"""Differential property test: the layer-major span kernel against the
per-tick oracle.

Hypothesis draws small standalone flows whose caps sit below their
rates, so every layer of the kernel leaves its closed form: producer
backlogs, Storm pending tuples, write backlogs and throttled dashboard
reads. ``MAX_BACKLOG`` is lowered (on both runs) so drops fire, chaos
can take every VM or the whole analytics capacity away, ticks are 1, 5
or 60 s, and no horizon is a multiple of its control period. Each drawn
flow runs with span execution and with the per-tick loop, both under a
strict invariant checker, and must match by ``repr``. The draws are
derandomized, so the suite is deterministic; one run checks that the
drawn set reached every hazard.
"""

from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chaos import ChaosSchedule, FaultKind, FaultSpec
from repro.cloud.storm import StormConfig
from repro.core.builder import FlowBuilder
from repro.core.manager import _FlowPipeline
from repro.workload.generators import ConstantRate, FlashCrowdRate, SinusoidalRate
from tests.test_span_equivalence import _series, assert_equivalent


@dataclass(frozen=True)
class DrawnFlow:
    seed: int
    tick: int
    horizon: int
    shards: int
    vms: int
    records_per_vm: int
    write_units: int
    mean_rate: int
    flash_peak: int
    read_rate: int | None
    read_units: int
    max_backlog: int
    period: int | None
    faults: tuple


@st.composite
def drawn_flows(draw):
    tick = draw(st.sampled_from([1, 5, 60]))
    ticks = draw(st.integers(min_value=12, max_value=150 if tick == 1 else 40))
    horizon = tick * ticks
    period = draw(st.one_of(st.none(), st.sampled_from([30, 60, 120])))
    if period is not None:
        period = max(period, 2 * tick)
        if horizon % period == 0:
            horizon += tick
    vms = draw(st.integers(min_value=1, max_value=3))

    def window():
        start = draw(st.integers(min_value=0, max_value=horizon - 1))
        return start, draw(st.integers(min_value=1, max_value=horizon))

    faults = []
    if draw(st.booleans()):
        # Every running VM crashes: the analytics layer runs on none.
        faults.append(FaultSpec(FaultKind.WORKER_CRASH, start=window()[0], intensity=vms))
    if draw(st.booleans()):
        start, duration = window()
        faults.append(FaultSpec(FaultKind.REBALANCE_FAIL, start=start, duration=duration))
    if draw(st.booleans()):
        start, duration = window()
        faults.append(FaultSpec(FaultKind.SHARD_BROWNOUT, start=start, duration=duration,
                                intensity=draw(st.sampled_from([0.3, 0.7]))))
    if draw(st.booleans()):
        start, duration = window()
        faults.append(FaultSpec(FaultKind.THROTTLE_STORM, start=start, duration=duration,
                                intensity=draw(st.sampled_from([0.5, 0.9]))))
    return DrawnFlow(
        seed=draw(st.integers(min_value=0, max_value=999)),
        tick=tick,
        horizon=horizon,
        shards=draw(st.integers(min_value=1, max_value=2)),
        vms=vms,
        records_per_vm=draw(st.sampled_from([300, 800, 2000])),
        write_units=draw(st.integers(min_value=2, max_value=60)),
        mean_rate=draw(st.integers(min_value=100, max_value=3000)),
        flash_peak=draw(st.sampled_from([0, 2000, 6000])),
        read_rate=draw(st.one_of(st.none(), st.integers(min_value=5, max_value=200))),
        read_units=draw(st.integers(min_value=2, max_value=60)),
        max_backlog=draw(st.sampled_from([300, 4000, _FlowPipeline.MAX_BACKLOG])),
        period=period,
        faults=tuple(faults),
    )


def _build(flow: DrawnFlow, spans: bool):
    workload = SinusoidalRate(mean=flow.mean_rate, amplitude=flow.mean_rate // 2,
                              period=flow.horizon)
    if flow.flash_peak:
        workload = workload + FlashCrowdRate(flow.flash_peak, at=flow.horizon // 3,
                                             rise_seconds=flow.tick, decay_seconds=3 * flow.tick)
    builder = (
        FlowBuilder("kernel-prop", seed=flow.seed)
        .ingestion(shards=flow.shards)
        .analytics(vms=flow.vms, storm=StormConfig(records_per_vm_per_second=flow.records_per_vm))
        .storage(write_units=flow.write_units)
        .workload(workload)
        .tick(flow.tick)
        .spans(spans)
        .observe()
    )
    if flow.read_rate is not None:
        builder = builder.reads(ConstantRate(flow.read_rate), read_units=flow.read_units)
    if flow.period is not None:
        builder = builder.control_all(style="adaptive", reference=60.0, period=flow.period)
    if flow.faults:
        builder = builder.chaos(ChaosSchedule(faults=flow.faults, seed=flow.seed))
    manager = builder.build()
    manager.invariant_checker._strict = True
    return manager


def _run_pair(flow: DrawnFlow):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_FlowPipeline, "MAX_BACKLOG", flow.max_backlog)
        return [_build(flow, spans).run(flow.horizon) for spans in (False, True)]


def _hazards(result) -> set[str]:
    """Which recurrence hazards a run went through."""
    def seen(namespace, metric):
        return any(_series(result, namespace, metric)[1])

    hazards = {
        name for name, hit in (
            ("producer backlog", seen("AWS/Kinesis", "WriteProvisionedThroughputExceeded")),
            ("stream buffer", seen("AWS/Kinesis", "BacklogRecords")),
            ("storm pending", seen("Custom/Storm", "PendingTuples")),
            ("write backlog", seen("AWS/DynamoDB", "WriteThrottleEvents")),
            ("read throttle", seen("AWS/DynamoDB", "ReadThrottleEvents")),
            ("record drops", result.dropped_records > 0),
            ("write drops", result.dropped_writes > 0),
            ("no running VMs", min(_series(result, "Custom/Storm", "RunningVMs")[1]) == 0),
        ) if hit
    }
    if any(e.fault == FaultKind.REBALANCE_FAIL.value for e in result.chaos_events):
        hazards.add("no analytics capacity")
    return hazards


def test_span_kernel_matches_the_per_tick_oracle():
    reached: set[str] = set()
    ticks: set[int] = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(drawn_flows())
    def check(flow):
        reference, spanned = _run_pair(flow)
        assert_equivalent(reference, spanned, events=True)
        assert reference.invariants.ok and spanned.invariants.ok
        reached.update(_hazards(reference))
        ticks.add(flow.tick)

    check()
    assert ticks == {1, 5, 60}
    assert reached == {
        "producer backlog", "stream buffer", "storm pending", "write backlog",
        "read throttle", "record drops", "write drops", "no running VMs",
        "no analytics capacity",
    }
