"""Simulated EC2 fleet.

Storm's analytics layer runs on EC2 instances. The behaviour that
matters to an elasticity controller is *actuation latency*: a launched
VM does not serve load until it has booted and joined the cluster, and
a terminating VM stops serving immediately but is still billed until
terminated. This module models exactly that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

from repro.core.errors import CapacityError, ConfigurationError, SimulationError


class InstanceState(Enum):
    PENDING = "pending"
    RUNNING = "running"
    TERMINATED = "terminated"


@dataclass
class Instance:
    """One EC2 instance with its lifecycle timestamps."""

    instance_id: str
    launched_at: int
    ready_at: int
    terminated_at: int | None = None

    def state(self, now: int) -> InstanceState:
        if self.terminated_at is not None and now >= self.terminated_at:
            return InstanceState.TERMINATED
        if now >= self.ready_at:
            return InstanceState.RUNNING
        return InstanceState.PENDING

    def billable(self, now: int) -> bool:
        """Billing starts at launch and stops at termination."""
        if now < self.launched_at:
            return False
        return self.terminated_at is None or now < self.terminated_at


@dataclass(frozen=True)
class EC2Config:
    """Fleet-level configuration.

    Attributes
    ----------
    instance_type:
        Price-book resource key, e.g. ``"ec2.m4.large"``.
    boot_seconds:
        Launch-to-serving latency (boot + joining the Storm cluster).
    min_instances / max_instances:
        Service limits the actuator must respect.
    """

    instance_type: str = "ec2.m4.large"
    boot_seconds: int = 90
    min_instances: int = 1
    max_instances: int = 128

    def __post_init__(self) -> None:
        if self.boot_seconds < 0:
            raise ConfigurationError("boot_seconds must be non-negative")
        if not 1 <= self.min_instances <= self.max_instances:
            raise ConfigurationError(
                f"need 1 <= min_instances <= max_instances, got "
                f"{self.min_instances}..{self.max_instances}"
            )


@dataclass
class SimEC2Fleet:
    """A scalable group of identical instances."""

    config: EC2Config = field(default_factory=EC2Config)
    initial_instances: int = 1
    #: Causal trace of whatever last changed the fleet (a controller's
    #: actuation or an injected crash). The fleet has no event bus of
    #: its own; the Storm cluster reads this when the running VM count
    #: shift surfaces as a rebalance, pinning the rebalance event onto
    #: the decision (or fault) that caused it.
    last_change_trace: str | None = field(default=None, init=False)
    #: Live instances only: a termination always happens at the
    #: caller's current time, and the instance leaves this list then.
    _instances: list[Instance] = field(default_factory=list, init=False)
    #: The latest termination; queries about earlier times are refused,
    #: since the instances terminated since then are gone.
    _terminated_until: int = field(default=0, init=False)
    _ids: "itertools.count[int]" = field(default_factory=itertools.count, init=False)
    # Region-level accounting (multi-flow runs only; see cloud/region.py).
    _region: object | None = field(default=None, init=False)
    _region_flow_id: str | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if not self.config.min_instances <= self.initial_instances <= self.config.max_instances:
            raise CapacityError(
                f"initial_instances={self.initial_instances} outside "
                f"[{self.config.min_instances}, {self.config.max_instances}]"
            )
        for _ in range(self.initial_instances):
            # Initial instances are ready immediately: the flow starts
            # from an already-provisioned steady state.
            self._instances.append(self._new_instance(launched_at=0, ready_at=0))

    def _new_instance(self, launched_at: int, ready_at: int) -> Instance:
        return Instance(f"i-{next(self._ids):06d}", launched_at, ready_at)

    def attach_region(self, region, flow_id: str) -> None:
        """Draw this fleet's instances from a shared region pool.

        Scale-ups then require account headroom: :meth:`set_desired`
        raises :class:`~repro.core.errors.RegionCapacityError` when the
        launch would exceed the region's instance limit. Scale-downs
        are never gated.
        """
        region.register_fleet(flow_id, self)
        self._region = region
        self._region_flow_id = flow_id

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _live(self, now: int) -> list[Instance]:
        """Instances not terminated at ``now`` (the list itself)."""
        if now < self._terminated_until:
            raise SimulationError(
                f"fleet queried at t={now}, before its latest termination at "
                f"t={self._terminated_until}"
            )
        return self._instances

    def instances(self, now: int, state: InstanceState | None = None) -> list[Instance]:
        live = self._live(now)
        if state is None:
            return list(live)
        return [i for i in live if i.state(now) == state]

    def running_count(self, now: int) -> int:
        """Instances actually serving load at ``now``."""
        return len([i for i in self._live(now) if now >= i.ready_at])

    def provisioned_count(self, now: int) -> int:
        """Instances launched or booting (the actuator's set-point view)."""
        return len(self._live(now))

    def billable_count(self, now: int) -> int:
        return len([i for i in self._live(now) if now >= i.launched_at])

    def next_capacity_event(self, now: int) -> int | None:
        """Earliest future time the running-instance count will change:
        the next boot completing (``ready_at``), the span scheduler's
        horizon. Terminations happen at the caller's current time, so
        none lies in the future. ``None`` when the fleet is stable past
        ``now``."""
        return min((i.ready_at for i in self._live(now) if i.ready_at > now), default=None)

    # ------------------------------------------------------------------
    # Scaling
    # ------------------------------------------------------------------
    def fail_instance(self, instance_id: str, now: int) -> bool:
        """Kill one instance (hardware failure): it stops serving *and*
        being billed immediately, without a controller's involvement.

        Returns False if the instance is unknown or already terminated.
        """
        for instance in self._live(now):
            if instance.instance_id == instance_id:
                self._terminate([instance], now)
                return True
        return False

    def _terminate(self, victims: list[Instance], now: int) -> None:
        for victim in victims:
            victim.terminated_at = now
            self._instances.remove(victim)
        self._terminated_until = now
        if self._region is not None:
            self._region.note_capacity_change()

    def set_desired(self, desired: int, now: int) -> int:
        """Scale the fleet toward ``desired`` instances.

        Launches boot after ``config.boot_seconds``; terminations pick
        the newest instances first (they are least likely to hold warm
        state) and take effect immediately. Returns the clamped desired
        count actually applied.
        """
        desired = max(self.config.min_instances, min(self.config.max_instances, int(desired)))
        current = self.provisioned_count(now)
        if desired > current:
            if self._region is not None:
                # All-or-nothing admission: raises RegionCapacityError
                # (and launches nothing) without account headroom.
                self._region.admit_instances(self._region_flow_id, self, desired, now)
            for _ in range(desired - current):
                self._instances.append(
                    self._new_instance(launched_at=now, ready_at=now + self.config.boot_seconds)
                )
            if self._region is not None:
                self._region.note_capacity_change()
        elif desired < current:
            victims = sorted(
                self.instances(now), key=lambda i: i.launched_at, reverse=True
            )[: current - desired]
            self._terminate(victims, now)
        return desired
