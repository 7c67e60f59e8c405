"""Failure-injection tests: controllers must survive infrastructure loss.

VM failures are the chaos harness's ``worker-crash`` fault; these tests
cover the EC2 failure primitive it uses and a managed flow recovering
from crashed analytics VMs, in both execution modes.
"""

from repro import ChaosSchedule, FaultKind, FaultSpec, FlowBuilder, LayerKind
from repro.cloud import SimEC2Fleet
from repro.workload import ConstantRate


def crashes(*times):
    """One single-VM ``worker-crash`` per entry of ``times``."""
    return ChaosSchedule(
        faults=tuple(FaultSpec(FaultKind.WORKER_CRASH, start=t, intensity=1) for t in times),
        seed=17,
        name="vm-crashes",
    )


class TestFailInstance:
    def test_failed_instance_stops_serving_and_billing(self):
        fleet = SimEC2Fleet(initial_instances=3)
        victim = fleet.instances(0)[0].instance_id
        assert fleet.fail_instance(victim, now=100)
        assert fleet.running_count(100) == 2
        assert fleet.billable_count(100) == 2

    def test_unknown_or_dead_instance_returns_false(self):
        fleet = SimEC2Fleet(initial_instances=1)
        assert not fleet.fail_instance("i-999999", now=0)
        victim = fleet.instances(0)[0].instance_id
        assert fleet.fail_instance(victim, now=10)
        assert not fleet.fail_instance(victim, now=20)


class TestControllerRecovery:
    def test_adaptive_controller_replaces_failed_vms(self):
        """Kill two analytics VMs mid-run; the CPU controller must
        scale the fleet back and the flow must end healthy."""
        from repro.cloud.storm import StormConfig

        manager = (
            FlowBuilder("faulty", seed=17)
            .ingestion(shards=4)
            .analytics(vms=5, storm=StormConfig(records_per_vm_per_second=1000))
            .storage(write_units=300)
            .workload(ConstantRate(2800))  # wants ~4-5 VMs at 60% CPU
            .control(LayerKind.ANALYTICS, style="adaptive", reference=60.0)
            .chaos(crashes(1800, 1801))
            .build()
        )
        result = manager.run(5400)

        assert [e.time for e in result.chaos_events] == [1800, 1801]
        vms = result.trace(
            "Custom/Storm", "RunningVMs",
            dimensions=result.layer_dimensions[LayerKind.ANALYTICS],
        )
        steady_before = vms.slice(1200, 1800).mean()
        # Capacity dipped right after the failures...
        assert vms.slice(1810, 2100).minimum() <= steady_before - 1.9
        # ...and was restored by the controller before the end.
        assert vms.slice(4200, 5400).mean() >= steady_before - 1.0
        # The flow ends healthy: no persistent tuple backlog and CPU
        # back near the reference.
        pending = result.trace(
            "Custom/Storm", "PendingTuples",
            dimensions=result.layer_dimensions[LayerKind.ANALYTICS],
        )
        assert pending.values[-1] == 0.0
        cpu_tail = result.utilization_trace(LayerKind.ANALYTICS).slice(4200, 5400)
        assert cpu_tail.mean() < 85.0


class TestFaultSpanEquivalence:
    """VM crashes must not disable span execution, and span runs must
    stay bit-identical to per-tick runs."""

    @staticmethod
    def _managed(spans, schedule):
        manager = (
            FlowBuilder("faults-span", seed=17)
            .ingestion(shards=3)
            .analytics(vms=4)
            .storage(write_units=300)
            .workload(ConstantRate(2200))
            .control(LayerKind.ANALYTICS, style="adaptive", reference=60.0, period=30)
            .spans(spans)
            .chaos(schedule)
            .build()
        )
        result = manager.run(1800)
        return manager, result

    def test_scheduled_faults_span_equivalence(self):
        from tests.test_span_equivalence import _costs, _raw_metrics, _snapshots

        m_tick, r_tick = self._managed(False, crashes(400, 401, 900))
        m_span, r_span = self._managed(True, crashes(400, 401, 900))
        assert m_tick.engine.last_run_used_spans is False
        assert m_span.engine.last_run_used_spans is True
        assert len(r_span.chaos_events) == 3
        assert r_span.chaos_events == r_tick.chaos_events
        assert _raw_metrics(r_span) == _raw_metrics(r_tick)
        assert _costs(r_span) == _costs(r_tick)
        assert _snapshots(r_span) == _snapshots(r_tick)
