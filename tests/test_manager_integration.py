"""Integration tests: the full managed flow end to end."""

import pytest

from repro import FlowBuilder, LayerKind
from repro.workload import ConstantRate, StepRate


def run_flow(pattern, duration=1800, control=None, seed=3, **builder_kwargs):
    builder = (
        FlowBuilder("integration", seed=seed)
        .ingestion(shards=2)
        .analytics(vms=2)
        .storage(write_units=300)
        .workload(pattern)
    )
    if control:
        builder = builder.control_all(style=control)
    return builder.build().run(duration)


class TestUncontrolledFlow:
    @pytest.fixture(scope="class")
    def result(self):
        return run_flow(ConstantRate(800), duration=900)

    def test_records_flow_through_all_layers(self, result):
        ingested = result.trace(
            "AWS/Kinesis", "IncomingRecords", statistic="Sum",
            dimensions=result.layer_dimensions[LayerKind.INGESTION],
        )
        processed = result.trace(
            "Custom/Storm", "ProcessedRecords", statistic="Sum",
            dimensions=result.layer_dimensions[LayerKind.ANALYTICS],
        )
        consumed = result.trace(
            "AWS/DynamoDB", "ConsumedWriteCapacityUnits", statistic="Sum",
            dimensions=result.layer_dimensions[LayerKind.STORAGE],
        )
        assert sum(ingested.values) > 0.95 * 800 * 900
        assert sum(processed.values) == pytest.approx(sum(ingested.values), rel=0.02)
        assert sum(consumed.values) > 0

    def test_capacities_stay_static_without_controllers(self, result):
        for kind, expected in [
            (LayerKind.INGESTION, 2.0),
            (LayerKind.ANALYTICS, 2.0),
            (LayerKind.STORAGE, 300.0),
        ]:
            trace = result.capacity_trace(kind)
            assert set(trace.values) == {expected}

    def test_cost_accrues_for_every_layer(self, result):
        costs = result.cost_by_layer
        assert set(costs) == {"ingestion", "analytics", "storage", "storage_reads"}
        assert all(v > 0 for v in costs.values())
        assert result.total_cost == pytest.approx(sum(costs.values()))

    def test_snapshots_collected_each_minute(self, result):
        assert len(result.collector.snapshots) == 15

    def test_dashboard_renders(self, result):
        output = result.dashboard()
        assert "ingestion.records" in output
        assert "storage.wcu" in output

    def test_no_data_loss_at_steady_state(self, result):
        assert result.dropped_records == 0
        assert result.dropped_writes == 0


class TestControlledFlow:
    @pytest.fixture(scope="class")
    def result(self):
        # Step from light to heavy load: 600 -> 2600 rec/s at t=1800.
        pattern = StepRate(base=600, level=2600, at=1800)
        return run_flow(pattern, duration=5400, control="adaptive")

    def test_ingestion_scales_up_after_step(self, result):
        shards = result.capacity_trace(LayerKind.INGESTION)
        before = shards.slice(0, 1800).maximum()
        after = shards.slice(3600, 5400).minimum()
        assert after > before

    def test_utilization_driven_back_below_slo(self, result):
        util = result.utilization_trace(LayerKind.INGESTION)
        tail = util.slice(4200, 5400)
        assert tail.mean() < 85.0

    def test_throttling_is_transient(self, result):
        throttles = result.throttle_trace(LayerKind.INGESTION)
        tail = throttles.slice(4200, 5400)
        assert sum(tail.values) == 0.0

    def test_storage_tracks_write_demand(self, result):
        wcu = result.capacity_trace(LayerKind.STORAGE)
        # Storage scales down from the over-provisioned 300 WCU.
        assert wcu.values[-1] < 300.0

    def test_control_records_exist_for_all_layers(self, result):
        for kind in LayerKind:
            assert len(result.loops[kind].records) > 10

    def test_elastic_run_costs_less_than_static_peak(self, result):
        peak = {kind: int(result.capacity_trace(kind).maximum()) for kind in LayerKind}
        static = (
            FlowBuilder("integration", seed=3)
            .ingestion(shards=peak[LayerKind.INGESTION])
            .analytics(vms=peak[LayerKind.ANALYTICS])
            .storage(write_units=peak[LayerKind.STORAGE])
            .workload(StepRate(base=600, level=2600, at=1800))
            .build()
            .run(5400)
        )
        assert result.total_cost < static.total_cost


class TestDeterminism:
    def test_same_seed_same_run(self):
        a = run_flow(ConstantRate(900), duration=600, control="adaptive", seed=11)
        b = run_flow(ConstantRate(900), duration=600, control="adaptive", seed=11)
        assert a.total_cost == b.total_cost
        assert a.capacity_trace(LayerKind.INGESTION).values == b.capacity_trace(
            LayerKind.INGESTION
        ).values

    def test_different_seed_differs(self):
        a = run_flow(ConstantRate(900), duration=600, seed=11)
        b = run_flow(ConstantRate(900), duration=600, seed=12)
        ta = a.trace("AWS/Kinesis", "IncomingRecords", statistic="Sum",
                     dimensions=a.layer_dimensions[LayerKind.INGESTION])
        tb = b.trace("AWS/Kinesis", "IncomingRecords", statistic="Sum",
                     dimensions=b.layer_dimensions[LayerKind.INGESTION])
        assert ta.values != tb.values


class TestBackpressure:
    def test_underprovisioned_analytics_backs_up_the_stream(self):
        """Cross-layer coupling: slow analytics shows up upstream."""
        from repro.cloud.storm import StormConfig
        from repro.workload import ConstantRate

        builder = (
            FlowBuilder("backpressure", seed=5)
            .ingestion(shards=4)
            .analytics(vms=1, storm=StormConfig(records_per_vm_per_second=500))
            .storage(write_units=300)
            .workload(ConstantRate(2000))
        )
        result = builder.build().run(600)
        backlog = result.trace(
            "AWS/Kinesis", "BacklogRecords",
            dimensions=result.layer_dimensions[LayerKind.INGESTION],
        )
        assert backlog.values[-1] > backlog.values[0]
        pending_or_backlog = backlog.values[-1]
        assert pending_or_backlog > 100_000
