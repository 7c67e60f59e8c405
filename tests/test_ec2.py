"""Unit tests for the simulated EC2 fleet."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud import EC2Config, SimEC2Fleet
from repro.cloud.ec2 import InstanceState
from repro.core.errors import CapacityError, ConfigurationError, SimulationError


class TestEC2Config:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            EC2Config(min_instances=5, max_instances=2)
        with pytest.raises(ConfigurationError):
            EC2Config(min_instances=0)

    def test_rejects_negative_boot(self):
        with pytest.raises(ConfigurationError):
            EC2Config(boot_seconds=-1)


class TestSimEC2Fleet:
    def test_initial_instances_ready_immediately(self):
        fleet = SimEC2Fleet(initial_instances=3)
        assert fleet.running_count(0) == 3
        assert fleet.provisioned_count(0) == 3

    def test_initial_count_respects_limits(self):
        with pytest.raises(CapacityError):
            SimEC2Fleet(config=EC2Config(max_instances=2), initial_instances=3)

    def test_scale_up_has_boot_latency(self):
        fleet = SimEC2Fleet(config=EC2Config(boot_seconds=90), initial_instances=1)
        fleet.set_desired(3, now=100)
        assert fleet.provisioned_count(100) == 3
        assert fleet.running_count(100) == 1
        assert fleet.running_count(189) == 1
        assert fleet.running_count(190) == 3

    def test_scale_down_is_immediate(self):
        fleet = SimEC2Fleet(initial_instances=4)
        fleet.set_desired(2, now=50)
        assert fleet.running_count(50) == 2
        assert fleet.provisioned_count(50) == 2

    def test_scale_down_terminates_newest_first(self):
        fleet = SimEC2Fleet(config=EC2Config(boot_seconds=0), initial_instances=1)
        fleet.set_desired(2, now=100)  # newer instance launched at t=100
        fleet.set_desired(1, now=200)
        survivors = fleet.instances(200)
        assert len(survivors) == 1
        assert survivors[0].launched_at == 0

    def test_desired_clamped_to_limits(self):
        fleet = SimEC2Fleet(config=EC2Config(min_instances=1, max_instances=4), initial_instances=2)
        assert fleet.set_desired(100, now=0) == 4
        assert fleet.set_desired(0, now=10) == 1

    def test_billing_stops_at_termination(self):
        fleet = SimEC2Fleet(initial_instances=2)
        assert fleet.billable_count(10) == 2
        fleet.set_desired(1, now=20)
        assert fleet.billable_count(20) == 1

    def test_billing_starts_at_launch_not_before(self):
        """Regression: an instance launched at t=100 must not be
        billable at earlier times — a cost meter integrating backwards
        (or a span hoist reading ``billable_count`` at an earlier tick)
        would overcharge."""
        fleet = SimEC2Fleet(initial_instances=1)
        fleet.set_desired(2, now=100)
        late = fleet.instances(100)[-1]
        assert late.launched_at == 100
        assert not late.billable(50)
        assert late.billable(100)
        assert fleet.billable_count(50) == 1
        assert fleet.billable_count(100) == 2

    def test_pending_instances_listed_by_state(self):
        fleet = SimEC2Fleet(config=EC2Config(boot_seconds=60), initial_instances=1)
        fleet.set_desired(2, now=10)
        assert len(fleet.instances(10, InstanceState.PENDING)) == 1
        assert len(fleet.instances(10, InstanceState.RUNNING)) == 1

    def test_instance_ids_are_unique(self):
        fleet = SimEC2Fleet(initial_instances=2)
        fleet.set_desired(5, now=0)
        ids = [i.instance_id for i in fleet.instances(0)]
        assert len(set(ids)) == 5


def _brute_force(instances, now):
    """The counts as a scan over every instance ever launched."""
    states = [i.state(now) for i in instances]
    future = [
        t for i in instances for t in (i.ready_at, i.terminated_at)
        if t is not None and t > now and i.state(now) != InstanceState.TERMINATED
    ]
    return {
        "running": states.count(InstanceState.RUNNING),
        "pending": states.count(InstanceState.PENDING),
        "provisioned": len(states) - states.count(InstanceState.TERMINATED),
        "billable": sum(i.billable(now) for i in instances),
        "next_event": min(future, default=None),
    }


#: One step: (time advance, action, argument).
_STEPS = st.lists(
    st.tuples(
        st.integers(0, 120),
        st.sampled_from(["scale", "fail", "query"]),
        st.integers(0, 9),
    ),
    max_size=40,
)


class TestLiveInstanceCounts:
    """The fleet keeps only live instances; its counts must equal a scan
    over every instance it ever launched."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(boot=st.sampled_from([0, 30, 90]), initial=st.integers(1, 4), steps=_STEPS)
    def test_counts_match_a_scan_over_all_instances(self, boot, initial, steps):
        fleet = SimEC2Fleet(
            config=EC2Config(boot_seconds=boot, max_instances=8), initial_instances=initial
        )
        launched = list(fleet.instances(0))
        now = 0
        for advance, action, arg in steps:
            now += advance
            if action == "scale":
                fleet.set_desired(arg, now)
                known = {i.instance_id for i in launched}
                launched += [i for i in fleet.instances(now) if i.instance_id not in known]
            elif action == "fail":
                live = fleet.instances(now)
                victim = live[arg % len(live)].instance_id if live else "i-unknown"
                assert fleet.fail_instance(victim, now) == bool(live)
                assert not fleet.fail_instance(victim, now)
            expected = _brute_force(launched, now)
            assert fleet.running_count(now) == expected["running"]
            assert len(fleet.instances(now, InstanceState.PENDING)) == expected["pending"]
            assert fleet.provisioned_count(now) == expected["provisioned"]
            assert fleet.billable_count(now) == expected["billable"]
            assert fleet.next_capacity_event(now) == expected["next_event"]

    def test_query_before_the_latest_termination_is_refused(self):
        fleet = SimEC2Fleet(initial_instances=3)
        fleet.set_desired(2, now=100)
        assert fleet.provisioned_count(100) == 2
        with pytest.raises(SimulationError):
            fleet.running_count(99)
        victim = fleet.instances(150)[0].instance_id
        assert fleet.fail_instance(victim, now=150)
        with pytest.raises(SimulationError):
            fleet.billable_count(120)
        assert fleet.billable_count(150) == 1
