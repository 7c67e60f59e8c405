"""The flow elasticity manager: Flower's run loop.

Wires everything together the way Fig. 3 describes: the workload
generator feeds the ingestion layer, the analytics layer pulls from it
and emits aggregates to the storage layer; every service pushes its
measurements to the simulated CloudWatch; per-layer control loops read
their sensor through a monitoring window and command their actuator;
the cross-platform collector snapshots the whole flow; cost meters
integrate spend per resource.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import NamedTuple

import numpy as np

from repro.chaos.injector import ChaosEvent, ChaosInjector
from repro.chaos.invariants import InvariantChecker, InvariantReport
from repro.chaos.schedule import ChaosSchedule
from repro.cloud.cloudwatch import SimCloudWatch
from repro.cloud.dynamodb import DynamoDBConfig, SimDynamoDBTable
from repro.cloud.dynamodb import NAMESPACE as DDB_NS
from repro.cloud.ec2 import EC2Config, SimEC2Fleet
from repro.cloud.kinesis import KinesisConfig, SimKinesisStream
from repro.cloud.kinesis import NAMESPACE as KINESIS_NS
from repro.cloud.pricing import CostMeter, PriceBook
from repro.cloud.storm import NAMESPACE as STORM_NS
from repro.cloud.storm import SimStormCluster, StormConfig, TopologyConfig
from repro.control.actuators import (
    DynamoDBReadActuator,
    DynamoDBWriteActuator,
    KinesisShardActuator,
    RetryingActuator,
    StormVMActuator,
)
from repro.control.base import ControlLoop
from repro.control.bounded import BoundedActuator
from repro.control.sensors import CloudWatchSensor
from repro.core.config import LayerControlConfig
from repro.core.errors import ConfigurationError
from repro.core.fleet_exec import FleetSpanExecutor
from repro.core.flow import FlowSpec, LayerKind, clickstream_flow_spec
from repro.monitoring.collector import MetricCollector
from repro.monitoring.dashboard import Dashboard
from repro.observability.recorder import FlightRecorder
from repro.observability.telemetry import Telemetry
from repro.simulation.clock import SimClock
from repro.simulation.engine import SimulationEngine
from repro.simulation.rng import derive_rng
from repro.workload.clickstream import (
    ClickStreamConfig,
    ClickStreamGenerator,
    FastClickStreamGenerator,
)
from repro.workload.generators import RateGrid, RatePattern
from repro.workload.traces import Trace

#: Per-layer controlled variable: (namespace, metric).
LAYER_SENSE: dict[LayerKind, tuple[str, str]] = {
    LayerKind.INGESTION: (KINESIS_NS, "WriteUtilization"),
    LayerKind.ANALYTICS: (STORM_NS, "CPUUtilization"),
    LayerKind.STORAGE: (DDB_NS, "WriteUtilization"),
}

#: Per-layer capacity metric: (namespace, metric).
LAYER_CAPACITY: dict[LayerKind, tuple[str, str]] = {
    LayerKind.INGESTION: (KINESIS_NS, "ShardCount"),
    LayerKind.ANALYTICS: (STORM_NS, "ProvisionedVMs"),
    LayerKind.STORAGE: (DDB_NS, "ProvisionedWriteCapacityUnits"),
}

#: Per-layer overload signal: (namespace, metric) — summed per period.
LAYER_THROTTLE: dict[LayerKind, tuple[str, str]] = {
    LayerKind.INGESTION: (KINESIS_NS, "WriteProvisionedThroughputExceeded"),
    LayerKind.ANALYTICS: (STORM_NS, "PendingTuples"),
    LayerKind.STORAGE: (DDB_NS, "WriteThrottleEvents"),
}


@dataclass(frozen=True)
class ServiceCapacities:
    """Initial provisioning of the three layers."""

    shards: int = 2
    vms: int = 2
    write_units: int = 300
    read_units: int = 100

    def __post_init__(self) -> None:
        if self.shards < 1 or self.vms < 1 or self.write_units < 1 or self.read_units < 1:
            raise ConfigurationError("all initial capacities must be >= 1")


class _SpanCapacities(NamedTuple):
    """Every capacity a span's recurrence reads, constant across the span.

    Per-tick caps (``*_cap``, ``poll_limit``) are already multiplied by
    the tick length. Provisioned DynamoDB units drive metrics, burst-
    bucket sizing and cost; the *effective* units (provisioned minus any
    injected throttle storm) drive ``write_cap``/``read_cap``, what the
    table actually accepts per tick.
    """

    record_cap: int
    byte_cap: int
    shards: int
    stream_read_cap: int
    vms: int
    analytics_cap: int
    poll_limit: int
    provisioned_vms: int
    billable_vms: int
    write_units: int
    read_units: int
    write_cap: int
    read_cap: int
    write_bucket_cap: int
    read_bucket_cap: int


class _FlowPipeline:
    """The per-tick data path: generator → Kinesis → Storm → DynamoDB.

    Driven by a :class:`~repro.core.fleet_exec.FleetSpanExecutor`, never
    registered on the engine itself; :meth:`on_tick` is the oracle.
    """

    #: Bound on producer/write retry backlogs; beyond it data is dropped
    #: (a real producer's buffer is finite too) and counted.
    MAX_BACKLOG = 5_000_000

    def __init__(
        self,
        generator: ClickStreamGenerator,
        stream: SimKinesisStream,
        cluster: SimStormCluster,
        table: SimDynamoDBTable,
        cloudwatch: SimCloudWatch,
        cost_meters: dict[str, CostMeter],
        read_workload: RatePattern | None = None,
        read_rng=None,
    ) -> None:
        self.generator = generator
        self.stream = stream
        self.cluster = cluster
        self.table = table
        self.cloudwatch = cloudwatch
        self.cost_meters = cost_meters
        self.read_workload = read_workload
        self._read_grid: RateGrid | None = None
        self._read_rng = read_rng
        self._producer_backlog_records = 0
        self._producer_backlog_bytes = 0
        self._write_backlog = 0
        self.dropped_records = 0
        self.dropped_writes = 0

    def on_tick(self, clock: SimClock) -> None:
        now = clock.now
        # 1. Generate this tick's clicks; retry what was throttled
        #    before. Retries are paced like a real producer library's
        #    bounded buffer: at most two capacity-windows of backlog are
        #    re-offered per tick, so the throttle metric counts paced
        #    attempts rather than the whole outstanding buffer.
        batch = self.generator.generate(clock)
        capacity = self.stream.write_capacity_records(now) * clock.tick_seconds
        retry_records = min(self._producer_backlog_records, 2 * capacity)
        if self._producer_backlog_records:
            retry_bytes = int(
                self._producer_backlog_bytes * retry_records / self._producer_backlog_records
            )
        else:
            retry_bytes = 0
        result = self.stream.put_records(
            batch.records + retry_records, batch.payload_bytes + retry_bytes, clock
        )
        backlog_records = self._producer_backlog_records - retry_records + result.throttled_records
        backlog_bytes = self._producer_backlog_bytes - retry_bytes + result.throttled_bytes
        if backlog_records > self.MAX_BACKLOG:
            self.dropped_records += backlog_records - self.MAX_BACKLOG
            backlog_bytes = int(backlog_bytes * self.MAX_BACKLOG / backlog_records)
            backlog_records = self.MAX_BACKLOG
        self._producer_backlog_records = backlog_records
        self._producer_backlog_bytes = backlog_bytes

        # 2. Analytics pulls, processes, emits windowed aggregates.
        writes = self.cluster.pull_and_process(self.stream, batch.distinct_keys, clock)

        # 3. Storage absorbs the writes; throttled writes are retried,
        #    paced the same way as producer retries. Pacing follows the
        #    *effective* capacity so a throttle storm slows retries too.
        write_capacity = self.table.effective_write_capacity(now) * clock.tick_seconds
        retry_writes = min(self._write_backlog, 2 * write_capacity)
        write_result = self.table.write(writes + retry_writes, clock)
        backlog = self._write_backlog - retry_writes + write_result.throttled_units
        if backlog > self.MAX_BACKLOG:
            self.dropped_writes += backlog - self.MAX_BACKLOG
            backlog = self.MAX_BACKLOG
        self._write_backlog = backlog

        # 3b. Dashboard readers query the aggregates (read units); the
        #     demo's reference architecture is a "real-time sliding-
        #     window dashboard over streaming data". Reads that throttle
        #     are lost page views, not retried.
        if self.read_workload is not None:
            # Batched like the click generator: read rates come from a
            # chunked grid, not a rate() call per tick (bit-identical by
            # the values() contract).
            grid = self._read_grid
            if grid is None or grid.step != clock.tick_seconds:
                grid = self._read_grid = RateGrid(self.read_workload, clock.tick_seconds)
            expected = grid.rate_at(now) * clock.tick_seconds
            read_units = int(self._read_rng.poisson(expected)) if expected > 0 else 0
            self.table.read(read_units, clock)

        # 4. Every service reports to CloudWatch.
        self.stream.emit_metrics(self.cloudwatch, clock)
        self.cluster.emit_metrics(self.cloudwatch, clock)
        self.table.emit_metrics(self.cloudwatch, clock)

        # 5. Meter this tick's spend. Kinesis has two cost dimensions
        #    (Eq. 4's c_d): shard-hours and PUT payload units (one unit
        #    per click record at the configured record sizes).
        dt = clock.tick_seconds
        self.cost_meters["ingestion"].accrue(self.stream.shard_count(now), dt)
        self.cost_meters["ingestion"].record_usage(result.accepted_records)
        self.cost_meters["analytics"].accrue(self.cluster.fleet.billable_count(now), dt)
        self.cost_meters["storage"].accrue(self.table.write_capacity(now), dt)
        self.cost_meters["storage_reads"].accrue(self.table.read_capacity(now), dt)

    # ------------------------------------------------------------------
    # Span execution (see DESIGN.md "Span execution contract")
    # ------------------------------------------------------------------
    def span_horizon(self, now: int, limit: int, tick_seconds: int) -> int:
        """Latest sub-span end the data path can accept, at most ``limit``.

        Two kinds of internal events bound a span (aggregation-window
        flushes do *not*: :meth:`run_span` draws its CPU-noise normals
        in flush-bounded segments, so a flush's Poisson draw lands at
        exactly the bitstream position the per-tick loop gives it):

        * a pending reshard / capacity update / rebalance completing —
          the span must end on the last tick before the first affected
          tick, unless that first affected tick is the very next one
          (then :meth:`run_span`'s capacity hoist applies it);
        * the running VM count changing (a boot completing or a future
          termination) — the affected tick always runs as its own
          single-tick span, because the change can *trigger* a topology
          rebalance whose end time is unknowable before it happens.
        """
        first_tick = now + tick_seconds
        horizon = limit
        for event in (
            self.stream.next_capacity_event(now),
            self.table.next_capacity_event(now),
            self.cluster.next_capacity_event(now),
        ):
            if event is None or event <= first_tick:
                continue
            affected = now + tick_seconds * (-(-(event - now) // tick_seconds))
            if affected - tick_seconds < horizon:
                horizon = affected - tick_seconds
        fleet_event = self.cluster.fleet.next_capacity_event(now)
        if fleet_event is not None:
            affected = now + tick_seconds * (-(-(fleet_event - now) // tick_seconds))
            bound = affected - tick_seconds if affected > first_tick else first_tick
            if bound < horizon:
                horizon = bound
        return horizon

    def hoist_capacities(self, first_tick: int, dt: int) -> _SpanCapacities:
        """Look up every capacity a span starting at ``first_tick`` reads.

        The span kernel starts here. The lookups run in the per-tick
        loop's call order, so a pending change ripe at the first tick
        applies — and publishes its bus event — exactly where
        :meth:`on_tick` would apply it. Repeating the hoist within a
        tick is harmless: ripening clears the pending target, and the
        rebalance trigger fires only on a VM-count change.
        """
        stream = self.stream
        cluster = self.cluster
        table = self.table
        record_cap = stream.write_capacity_records(first_tick) * dt
        byte_cap = stream.write_capacity_bytes(first_tick) * dt
        shards = stream.shard_count(first_tick)
        stream_read_cap = shards * stream.config.read_records_per_shard_per_second * dt
        fleet = cluster.fleet
        vms = fleet.running_count(first_tick)
        analytics_cap = cluster._capacity_this_tick(vms, first_tick) * dt
        poll_limit = int(analytics_cap * cluster.config.poll_factor)
        provisioned_vms = fleet.provisioned_count(first_tick)
        billable_vms = fleet.billable_count(first_tick)
        write_units = table.write_capacity(first_tick)
        write_cap = table.effective_write_capacity(first_tick) * dt
        read_units = table.read_capacity(first_tick)
        read_cap = table.effective_read_capacity(first_tick) * dt
        burst_seconds = table.config.burst_seconds
        return _SpanCapacities(
            record_cap, byte_cap, shards, stream_read_cap, vms, analytics_cap,
            poll_limit, provisioned_vms, billable_vms, write_units, read_units,
            write_cap, read_cap, burst_seconds * write_units, burst_seconds * read_units,
        )

    def commit_span(
        self,
        caps: _SpanCapacities,
        times,
        kinesis: tuple,
        storm: tuple,
        storage: tuple,
        span_accepted: int,
        span_seconds: int,
    ) -> None:
        """Emit a sub-span's metric columns and meter its spend.

        Called once per sub-span with the columns of every part the
        executor ran in it, concatenated. ``kinesis``, ``storm`` and
        ``storage`` are each service's per-tick columns in its
        ``emit_metrics_span`` order; the values and the append order are
        what per-tick ``emit_metrics`` calls would produce. Every accrued
        quantity is an integer constant across the sub-span, so one
        accrue over all of it sums exactly (integer-valued float adds
        below 2**53 are exact); usage volumes are ints and sum exactly.
        """
        cloudwatch = self.cloudwatch
        self.stream.emit_metrics_span(cloudwatch, times, *kinesis, caps.shards)
        self.cluster.emit_metrics_span(
            cloudwatch, times, *storm, caps.vms, caps.provisioned_vms
        )
        self.table.emit_metrics_span(
            cloudwatch, times, *storage, caps.write_units, caps.read_units
        )
        meters = self.cost_meters
        meters["ingestion"].accrue(caps.shards, span_seconds)
        meters["ingestion"].record_usage(span_accepted)
        meters["analytics"].accrue(caps.billable_vms, span_seconds)
        meters["storage"].accrue(caps.write_units, span_seconds)
        meters["storage_reads"].accrue(caps.read_units, span_seconds)

    def run_span(self, clock: SimClock, span_end: int, columns) -> tuple:
        """Execute the ticks ``(clock.now, span_end]`` one layer at a time.

        The span kernel, bit-identical to calling :meth:`on_tick` once per
        tick. The flow is a one-way chain — within a tick no layer reads
        state from a layer downstream of it — so each layer runs over the
        whole sub-span before the next one starts: Kinesis put → Storm
        ingress → Storm compute → DynamoDB writes → dashboard reads.
        Each layer takes its closed form while its own state is empty and
        its input clears its caps, and otherwise runs a scalar scan over
        its own state only, with ``on_tick``'s arithmetic verbatim. The
        capacities are hoisted once (constant across the sub-span, which
        is what :meth:`span_horizon` guarantees); the cluster stream is
        the only RNG drawn here, by Storm compute alone. Returns the
        leading arguments of :meth:`commit_span`, ``(caps, times,
        kinesis, storm, storage, span_accepted)``; the executor commits
        each sub-span once.

        ``columns`` are the ``(records, payload, distinct, reads)`` lists
        the executor drew for these ticks: the first three exactly what
        ``generate_span`` returns, the last the dashboard read units per
        tick (``None`` without a read workload). Neither draw touches
        service state, so both can lead the span as they lead each tick
        of the per-tick loop.
        """
        dt = clock.tick_seconds
        now = clock.now
        records, payload, distinct, reads = columns
        caps = self.hoist_capacities(now + dt, dt)
        accepted, accepted_bytes, throttled = self._kinesis_put(records, payload, caps)
        handed, buffered, lag, processed, pending = self._storm_ingress(
            accepted, accepted_bytes, caps, dt
        )
        cpu, flushes = self._storm_compute(processed, pending, distinct, caps, dt)
        count = len(records)
        consumed, write_throttled, burst = self._dynamodb_writes(flushes, count, caps)
        read_consumed, read_throttled = self._dashboard_reads(reads, count, caps)
        writes = [0] * count
        for i, units in flushes.items():
            writes[i] = units

        span_accepted = sum(accepted)
        stream = self.stream
        stream.total_accepted_records += span_accepted
        stream.total_read_records += sum(handed)
        self.cluster.total_processed += sum(processed)
        self.cluster.total_writes_emitted += sum(flushes.values())
        self.table.total_write_accepted += sum(consumed)

        # Float64 columns for the store: closed forms hand the same list
        # on (records are accepted, handed and processed alike), so each
        # list converts once, and all-zero columns share one array.
        zeros = np.zeros(count)
        arrays: dict[int, np.ndarray] = {}

        def f64(column: list) -> np.ndarray:
            array = arrays.get(id(column))
            if array is None:
                array = np.asarray(column, dtype=np.float64) if any(column) else zeros
                arrays[id(column)] = array
            return array

        def utilization(column: list, cap: int) -> np.ndarray:
            array = f64(column)
            return (100.0 * array) / cap if cap and array is not zeros else zeros

        times = np.arange(now + dt, span_end + dt, dt, dtype=np.int64)
        return (
            caps, times,
            (f64(accepted), f64(accepted_bytes), f64(throttled), f64(handed),
             utilization(accepted, caps.record_cap), f64(buffered), f64(lag)),
            (cpu, f64(processed), f64(pending), f64(writes)),
            (f64(consumed), f64(write_throttled), utilization(consumed, caps.write_cap),
             f64(burst), f64(read_consumed), f64(read_throttled),
             utilization(read_consumed, caps.read_cap)),
            span_accepted,
        )

    # ------------------------------------------------------------------
    # The kernel's layers. Each takes its closed form over the sub-span's
    # leading ticks while its own state is empty and its input clears its
    # caps, and hands the rest to its scan: ``on_tick``'s arithmetic for
    # that layer, verbatim, over that layer's state only.
    # ------------------------------------------------------------------
    def _kinesis_put(self, records: list, payload: list, caps: _SpanCapacities) -> tuple:
        """Layer 1: producer retries and the Kinesis put (``on_tick`` step 1).

        Closed form while the producer backlog is empty and a tick's
        draws clear both write caps: the put accepts everything (a tick
        without records offers no bytes). Returns the accepted,
        accepted-bytes and throttled columns.
        """
        count = len(records)
        start = 0
        if not (self._producer_backlog_records or self._producer_backlog_bytes):
            start = min(_first_over(records, caps.record_cap), _first_over(payload, caps.byte_cap))
        quiet = records if start == count else records[:start]
        quiet_bytes = payload if start == count else payload[:start]
        if 0 in quiet:
            quiet_bytes = [b if r else 0 for r, b in zip(quiet, quiet_bytes)]
        columns = (quiet, quiet_bytes, [0] * start)
        if start < count:
            columns = _concat(columns, self._kinesis_scan(records[start:], payload[start:], caps))
        return columns

    def _kinesis_scan(self, records: list, payload: list, caps: _SpanCapacities) -> tuple:
        record_cap = caps.record_cap
        byte_cap = caps.byte_cap
        two_record_cap = 2 * record_cap
        max_backlog = self.MAX_BACKLOG
        backlog_records = self._producer_backlog_records
        backlog_bytes = self._producer_backlog_bytes
        dropped_records = self.dropped_records
        accepted_col: list[int] = []
        bytes_col: list[int] = []
        throttled_col: list[int] = []
        for tick_records, tick_bytes in zip(records, payload):
            retry_records = min(backlog_records, two_record_cap)
            if backlog_records:
                retry_bytes = int(backlog_bytes * retry_records / backlog_records)
            else:
                retry_bytes = 0
            offered = tick_records + retry_records
            offered_bytes = tick_bytes + retry_bytes
            if offered == 0:
                accepted = 0
                accepted_bytes = 0
                throttled = 0
                throttled_bytes = 0
            else:
                record_fraction = min(1.0, record_cap / offered)
                byte_fraction = min(1.0, byte_cap / offered_bytes) if offered_bytes else 1.0
                fraction = min(record_fraction, byte_fraction)
                accepted = int(offered * fraction)
                accepted_bytes = int(offered_bytes * fraction)
                throttled = offered - accepted
                throttled_bytes = offered_bytes - accepted_bytes
            backlog_records = backlog_records - retry_records + throttled
            backlog_bytes = backlog_bytes - retry_bytes + throttled_bytes
            if backlog_records > max_backlog:
                dropped_records += backlog_records - max_backlog
                backlog_bytes = int(backlog_bytes * max_backlog / backlog_records)
                backlog_records = max_backlog
            accepted_col.append(accepted)
            bytes_col.append(accepted_bytes)
            throttled_col.append(throttled)
        self._producer_backlog_records = backlog_records
        self._producer_backlog_bytes = backlog_bytes
        self.dropped_records = dropped_records
        return accepted_col, bytes_col, throttled_col

    def _storm_ingress(
        self, accepted: list, accepted_bytes: list, caps: _SpanCapacities, dt: int
    ) -> tuple:
        """Layer 2: the stream buffer and Storm's pull (``pull_and_process``).

        Closed form while nothing is buffered or pending and a tick's
        accepted records fit the poll limit, the stream read cap and the
        cluster capacity: all of them are handed and processed in the
        same tick. Buffered *bytes* never feed back into a record count,
        so bytes a throttled put accepted without records may linger in
        the closed form; the byte split is exact while the per-tick byte
        cap is below 2**53. The smoothed arrival rate is a float
        recurrence and runs per tick in both forms. Returns the handed,
        buffered, lag, processed and pending columns.
        """
        stream = self.stream
        count = len(accepted)
        start = 0
        if not (stream._buffer_records or self.cluster._pending_records):
            start = _first_over(
                accepted, min(caps.poll_limit, caps.stream_read_cap, caps.analytics_cap)
            )
        quiet = accepted if start == count else accepted[:start]
        alpha = min(1.0, dt / 60.0)
        smoothed_rate = stream._smoothed_rate
        buffer_bytes = stream._buffer_bytes
        for records, nbytes in zip(quiet, accepted_bytes):
            smoothed_rate += alpha * (records / dt - smoothed_rate)
            buffer_bytes = buffer_bytes + nbytes if not records else 0
        stream._smoothed_rate = smoothed_rate
        stream._buffer_bytes = buffer_bytes
        zeros = [0] * start
        columns = (quiet, zeros, [0.0] * start, quiet, zeros)
        if start < count:
            columns = _concat(
                columns,
                self._storm_ingress_scan(accepted[start:], accepted_bytes[start:], caps, dt),
            )
        return columns

    def _storm_ingress_scan(
        self, accepted: list, accepted_bytes: list, caps: _SpanCapacities, dt: int
    ) -> tuple:
        stream = self.stream
        cluster = self.cluster
        poll_limit = caps.poll_limit
        stream_read_cap = caps.stream_read_cap
        analytics_cap = caps.analytics_cap
        alpha = min(1.0, dt / 60.0)
        buffer_records = stream._buffer_records
        buffer_bytes = stream._buffer_bytes
        smoothed_rate = stream._smoothed_rate
        pending = cluster._pending_records
        handed_col: list[int] = []
        buffered_col: list[int] = []
        lag_col: list[float] = []
        processed_col: list[int] = []
        pending_col: list[int] = []
        for tick_accepted, tick_bytes in zip(accepted, accepted_bytes):
            buffer_records += tick_accepted
            buffer_bytes += tick_bytes
            wanted = poll_limit - pending
            if wanted < 0:
                wanted = 0
            handed = min(wanted, buffer_records, stream_read_cap)
            if buffer_records:
                buffer_bytes -= int(buffer_bytes * handed / buffer_records)
            buffer_records -= handed
            pending += handed
            processed = min(pending, analytics_cap)
            pending -= processed
            tick_rate = tick_accepted / dt
            smoothed_rate += alpha * (tick_rate - smoothed_rate)
            handed_col.append(handed)
            buffered_col.append(buffer_records)
            if buffer_records == 0:
                lag_col.append(0.0)
            else:
                lag_col.append(1000.0 * buffer_records / max(smoothed_rate, 1e-9))
            processed_col.append(processed)
            pending_col.append(pending)
        stream._buffer_records = buffer_records
        stream._buffer_bytes = buffer_bytes
        stream._smoothed_rate = smoothed_rate
        cluster._pending_records = pending
        return handed_col, buffered_col, lag_col, processed_col, pending_col

    def _storm_compute(
        self, processed: list, pending: list, distinct: list, caps: _SpanCapacities, dt: int
    ) -> tuple[np.ndarray, dict[int, int]]:
        """Layer 3: CPU, its noise, and the aggregation-window walk.

        Per tick this layer is stateless but for the window, so it is
        always in closed form. Flush boundaries partition the sub-span
        into the segments the per-tick loop draws its CPU-noise normals
        in, each window's flush Poisson interleaved at the same bitstream
        position — this layer alone draws on the cluster stream. Window
        sums are integer-valued below 2**53, so summing a segment at once
        is exact. Returns the CPU column and ``{tick index: writes}`` for
        every flush that emitted writes, in tick order.
        """
        cluster = self.cluster
        config = cluster.config
        count = len(processed)
        window_seconds = config.window_seconds
        distinct_estimator = cluster._distinct_estimator
        noise_std = config.cpu_noise_std
        rng = cluster._rng
        window_keys = cluster._window_keys
        window_records = cluster._window_records
        window_elapsed = cluster._window_elapsed
        noise: list[np.ndarray] = []
        flushes: dict[int, int] = {}
        i = 0
        while i < count:
            seg = -(-(window_seconds - window_elapsed) // dt)
            if seg < 1:
                seg = 1
            stop = i + seg if seg <= count - i else count
            if noise_std:
                noise.append(rng.normal(0.0, noise_std, size=stop - i))
            window_keys += sum(distinct[i:stop])
            window_records += sum(processed[i:stop])
            window_elapsed += (stop - i) * dt
            if stop - i < seg:
                break
            i = stop
            if distinct_estimator is not None:
                expected = distinct_estimator(window_records)
                writes = int(rng.poisson(expected)) if expected > 0 else 0
            else:
                ticks_in_window = max(1, window_elapsed // dt)
                writes = int(round(window_keys / ticks_in_window))
            window_keys = 0.0
            window_records = 0
            window_elapsed = 0
            if writes:
                flushes[i - 1] = writes
        cluster._window_keys = window_keys
        cluster._window_records = window_records
        cluster._window_elapsed = window_elapsed

        analytics_cap = caps.analytics_cap
        if caps.vms > 0:
            idle = config.cpu_idle_percent
            if analytics_cap > 0:
                cpu = idle + (100.0 - idle) * (np.asarray(processed, dtype=np.float64) / analytics_cap)
            else:
                cpu = np.full(count, float(idle))
            if max(pending) > 0:
                cpu[np.asarray(pending) > 0] = 100.0
        else:
            cpu = np.zeros(count)
        if noise_std:
            cpu = cpu + np.concatenate(noise)
        cpu = np.minimum(100.0, np.maximum(0.0, cpu))
        cluster._tick_cpu = float(cpu[-1])
        cluster._tick_processed = processed[-1]
        cluster._tick_writes_emitted = flushes.get(count - 1, 0)
        return cpu, flushes

    def _dynamodb_writes(self, flushes: dict, count: int, caps: _SpanCapacities) -> tuple:
        """Layer 4: the write burst bucket and the write backlog (step 3).

        Writes arrive only on flush ticks. Closed form while the write
        backlog is empty: the bucket refills up to each flush, which
        replays ``on_tick``'s accept/burst arithmetic; a flush that
        spills into the backlog is the last closed-form tick. Returns the
        consumed, throttled and burst-balance columns.
        """
        write_cap = caps.write_cap
        bucket_cap = caps.write_bucket_cap
        table = self.table
        burst = table._burst_bucket
        consumed = [0] * count
        throttled = [0] * count
        burst_col: list = []
        start = 0
        if not self._write_backlog:
            start = count
            for i, writes in flushes.items():
                if i > len(burst_col):
                    burst_col += _refill(burst, write_cap, bucket_cap, i - len(burst_col))
                    burst = burst_col[-1]
                accepted = min(writes, write_cap)
                excess = writes - accepted
                if excess > 0 and burst > 0:
                    from_burst = int(min(excess, burst))
                    accepted += from_burst
                    excess -= from_burst
                    burst -= from_burst
                burst = min(bucket_cap, burst + max(0, write_cap - writes))
                burst_col.append(burst)
                consumed[i] = accepted
                throttled[i] = excess
                if excess > 0:
                    if excess > self.MAX_BACKLOG:
                        self.dropped_writes += excess - self.MAX_BACKLOG
                        excess = self.MAX_BACKLOG
                    self._write_backlog = excess
                    start = i + 1
                    break
            if start > len(burst_col):
                burst_col += _refill(burst, write_cap, bucket_cap, start - len(burst_col))
                burst = burst_col[-1]
            table._burst_bucket = burst
        columns = (consumed[:start], throttled[:start], burst_col)
        if start < count:
            writes = [flushes.get(i, 0) for i in range(start, count)]
            columns = _concat(columns, self._dynamodb_scan(writes, caps))
        return columns

    def _dynamodb_scan(self, writes: list, caps: _SpanCapacities) -> tuple:
        table = self.table
        write_cap = caps.write_cap
        write_bucket_cap = caps.write_bucket_cap
        two_write_cap = 2 * write_cap
        max_backlog = self.MAX_BACKLOG
        burst = table._burst_bucket
        write_backlog = self._write_backlog
        dropped_writes = self.dropped_writes
        consumed: list[int] = []
        throttled: list[int] = []
        burst_col: list = []
        for tick_writes in writes:
            retry_writes = min(write_backlog, two_write_cap)
            units = tick_writes + retry_writes
            write_accepted = min(units, write_cap)
            excess = units - write_accepted
            if excess > 0 and burst > 0:
                from_burst = int(min(excess, burst))
                write_accepted += from_burst
                excess -= from_burst
                burst -= from_burst
            unused = max(0, write_cap - units)
            burst = min(write_bucket_cap, burst + unused)
            write_backlog = write_backlog - retry_writes + excess
            if write_backlog > max_backlog:
                dropped_writes += write_backlog - max_backlog
                write_backlog = max_backlog
            consumed.append(write_accepted)
            throttled.append(excess)
            burst_col.append(burst)
        table._burst_bucket = burst
        self._write_backlog = write_backlog
        self.dropped_writes = dropped_writes
        return consumed, throttled, burst_col

    def _dashboard_reads(self, reads: list | None, count: int, caps: _SpanCapacities) -> tuple:
        """Layer 5: dashboard reads against the read burst bucket (step 3b).

        Closed form while every tick reads within the read cap: it
        consumes what it reads and the bucket only refills. The bucket is
        state, not a metric, and ``min(cap, b + u)`` over non-negative
        ``u`` telescopes to one ``min``. Returns the consumed and
        throttled columns.
        """
        if reads is None:
            zeros = [0] * count
            return zeros, zeros
        read_cap = caps.read_cap
        start = _first_over(reads, read_cap)
        quiet = reads if start == count else reads[:start]
        if start:
            table = self.table
            table._read_burst_bucket = min(
                caps.read_bucket_cap,
                table._read_burst_bucket + (start * read_cap - sum(quiet)),
            )
        columns = (quiet, [0] * start)
        if start < count:
            columns = _concat(columns, self._dashboard_reads_scan(reads[start:], caps))
        return columns

    def _dashboard_reads_scan(self, reads: list, caps: _SpanCapacities) -> tuple:
        table = self.table
        read_cap = caps.read_cap
        read_bucket_cap = caps.read_bucket_cap
        read_burst = table._read_burst_bucket
        consumed: list[int] = []
        throttled: list[int] = []
        for read_units in reads:
            read_accepted = min(read_units, read_cap)
            read_excess = read_units - read_accepted
            if read_excess > 0 and read_burst > 0:
                from_burst = int(min(read_excess, read_burst))
                read_accepted += from_burst
                read_excess -= from_burst
                read_burst -= from_burst
            read_unused = max(0, read_cap - read_units)
            read_burst = min(read_bucket_cap, read_burst + read_unused)
            consumed.append(read_accepted)
            throttled.append(read_excess)
        table._read_burst_bucket = read_burst
        return consumed, throttled


def _first_over(column: list, cap) -> int:
    """Index of the first value in ``column`` above ``cap``, else its length."""
    if max(column) <= cap:
        return len(column)
    return next(i for i, value in enumerate(column) if value > cap)


def _concat(head: tuple, tail: tuple) -> tuple:
    """A layer's closed-form columns followed by its scan's."""
    return tuple(h + t for h, t in zip(head, tail))


def _refill(level, step: int, cap: int, ticks: int) -> list:
    """``ticks`` steps of the bucket recurrence ``level = min(cap, level +
    step)``, ``step >= 0``, in closed form: ``level + j * step`` while it
    stays below ``cap``, then ``cap``. Buckets hold integer-valued floats
    below 2**53, so every add is exact in any grouping and the crossing
    tick is an exact integer division."""
    if level >= cap:
        return [cap] * ticks
    if step <= 0:
        return [level] * ticks
    rising = min(ticks, int((cap - level - 1) // step))
    return [level + j * step for j in range(1, rising + 1)] + [cap] * (ticks - rising)


@dataclass
class FlowRunResult:
    """Everything a finished run exposes for analysis and reporting."""

    duration_seconds: int
    flow: FlowSpec
    cloudwatch: SimCloudWatch
    collector: MetricCollector
    loops: dict[LayerKind, ControlLoop]
    cost_meters: dict[str, CostMeter]
    dropped_records: int
    dropped_writes: int
    sample_period: int = 60
    layer_dimensions: dict[LayerKind, dict[str, str]] = field(default_factory=dict)
    read_loop: ControlLoop | None = None
    recorder: FlightRecorder | None = None
    chaos_events: list[ChaosEvent] = field(default_factory=list)
    invariants: InvariantReport | None = None
    #: Always-on counters/gauges/histograms (None only when disabled).
    telemetry: Telemetry | None = None
    #: Wall-clock seconds the engine run took (real time, not simulated).
    wall_seconds: float = 0.0
    #: Whether the run used the bit-exact workload path. ``False`` marks
    #: the block-vectorized approximate (fast) path — statistically
    #: equivalent, never bit-comparable to exact runs.
    exact: bool = True

    # ------------------------------------------------------------------
    # Traces
    # ------------------------------------------------------------------
    def trace(
        self,
        namespace: str,
        metric: str,
        period: int | None = None,
        statistic: str = "Average",
        dimensions: dict[str, str] | None = None,
    ) -> Trace:
        """A metric aggregated to ``period`` (default: the sample period)."""
        period = period or self.sample_period
        datapoints = self.cloudwatch.get_metric_statistics(
            namespace, metric, 0, self.duration_seconds, period, statistic, dimensions
        )
        name = f"{namespace}/{metric}"
        return Trace.from_series(name, *zip(*datapoints)) if datapoints else Trace(name)

    def utilization_trace(self, kind: LayerKind, period: int | None = None) -> Trace:
        namespace, metric = LAYER_SENSE[kind]
        return self.trace(namespace, metric, period, dimensions=self.layer_dimensions.get(kind))

    def capacity_trace(self, kind: LayerKind, period: int | None = None) -> Trace:
        namespace, metric = LAYER_CAPACITY[kind]
        return self.trace(namespace, metric, period, dimensions=self.layer_dimensions.get(kind))

    def throttle_trace(self, kind: LayerKind, period: int | None = None) -> Trace:
        namespace, metric = LAYER_THROTTLE[kind]
        statistic = "Average" if kind == LayerKind.ANALYTICS else "Sum"
        return self.trace(namespace, metric, period, statistic, self.layer_dimensions.get(kind))

    # ------------------------------------------------------------------
    # Cost
    # ------------------------------------------------------------------
    @property
    def cost_by_layer(self) -> dict[str, float]:
        return {name: meter.total_cost for name, meter in self.cost_meters.items()}

    @property
    def total_cost(self) -> float:
        return sum(self.cost_by_layer.values())

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def dashboard(self) -> str:
        """Render the all-in-one-place view of the finished run."""
        return Dashboard(
            self.collector,
            title=f"Flower — {self.flow.name}",
            recorder=self.recorder,
            telemetry=self.telemetry,
        ).render()


class FlowElasticityManager:
    """Builds and runs one managed data analytics flow."""

    def __init__(
        self,
        workload: RatePattern,
        capacities: ServiceCapacities | None = None,
        controls: dict[LayerKind, LayerControlConfig] | None = None,
        flow: FlowSpec | None = None,
        price_book: PriceBook | None = None,
        seed: int = 0,
        tick_seconds: int = 1,
        snapshot_period: int = 60,
        share_bounds: dict[LayerKind, int] | None = None,
        share_schedule=None,
        read_workload: RatePattern | None = None,
        read_control: LayerControlConfig | None = None,
        clickstream: ClickStreamConfig | None = None,
        kinesis: KinesisConfig | None = None,
        storm: StormConfig | None = None,
        topology: "TopologyConfig | None" = None,
        ec2: EC2Config | None = None,
        dynamodb: DynamoDBConfig | None = None,
        recorder: FlightRecorder | None = None,
        span_execution: bool = True,
        chaos: ChaosSchedule | None = None,
        invariants: bool = True,
        telemetry: bool = True,
        engine: SimulationEngine | None = None,
        region=None,
        flow_id: str | None = None,
        coordinated: bool = False,
        exact: bool = True,
    ) -> None:
        self.flow = flow or clickstream_flow_spec()
        #: Identifies this flow inside a multi-flow region run; None for
        #: standalone flows. Scopes service names (and through them the
        #: metric dimensions) and engine task names.
        self.flow_id = flow_id
        self.region = region
        self.capacities = capacities or ServiceCapacities()
        self.controls = dict(controls or {})
        self.share_bounds = dict(share_bounds or {})
        for kind, bound in self.share_bounds.items():
            if bound < 1:
                raise ConfigurationError(
                    f"share bound for {kind.name} must be >= 1, got {bound}"
                )
        self.share_schedule = share_schedule
        if share_schedule is not None and self.share_bounds:
            raise ConfigurationError(
                "pass either static share_bounds or a share_schedule, not both"
            )
        if share_schedule is not None:
            # The schedule's first window seeds the static bounds; a
            # periodic task keeps them tracking the active window.
            self.share_bounds = dict(share_schedule.bounds_at(0))
        self.price_book = price_book or PriceBook()
        self.seed = seed
        self.snapshot_period = snapshot_period
        # Always-on telemetry (unlike the opt-in recorder): written only
        # at control boundaries, so it stays inside the <2% budget.
        self.telemetry: Telemetry | None = Telemetry() if telemetry else None

        self.cloudwatch = SimCloudWatch()
        # Flow-scoped service names carry the flow id into every metric
        # dimension, event and scorecard of a multi-flow region run.
        prefix = f"{flow_id}-" if flow_id else ""
        self.stream = SimKinesisStream(
            name=f"{prefix}clickstream", shards=self.capacities.shards, config=kinesis
        )
        self.fleet = SimEC2Fleet(
            config=ec2 or EC2Config(instance_type=self.flow.analytics.resource),
            initial_instances=self.capacities.vms,
        )
        self.table = SimDynamoDBTable(
            name=f"{prefix}page-aggregates",
            write_units=self.capacities.write_units,
            read_units=self.capacities.read_units,
            config=dynamodb,
        )
        #: Workload-path exactness. ``exact=True`` (the default) is the
        #: bit-exact reference; ``exact=False`` swaps in the
        #: block-vectorized approximate generator (see the approximation
        #: contract in DESIGN.md). The flag rides through the run result
        #: and scorecards so approximate numbers can never masquerade as
        #: exact ones.
        self.exact = bool(exact)
        generator_cls = ClickStreamGenerator if self.exact else FastClickStreamGenerator
        self.generator = generator_cls(
            workload, rng=derive_rng(seed, "clickstream"), config=clickstream
        )
        self.cluster = SimStormCluster(
            self.fleet,
            config=storm,
            rng=derive_rng(seed, "storm.cpu"),
            name=f"{prefix}clickstream-topology",
            distinct_estimator=self.generator.expected_distinct,
            topology=topology,
        )
        if region is not None:
            if flow_id is None:
                raise ConfigurationError("a region-attached flow needs a flow_id")
            self.fleet.attach_region(region, flow_id)
            self.stream.attach_region(region, flow_id)
            self.table.attach_region(region, flow_id)
            self.cluster.attach_region(region)

        self.cost_meters = {
            "ingestion": CostMeter(self.price_book, self.flow.ingestion.resource),
            "analytics": CostMeter(self.price_book, self.flow.analytics.resource),
            "storage": CostMeter(self.price_book, self.flow.storage.resource),
            "storage_reads": CostMeter(self.price_book, "dynamodb.rcu"),
        }

        # Service names are fixed at construction, so the per-layer
        # metric dimension dicts are too; sensors, the collector and the
        # run result all share these instead of rebuilding them.
        self._layer_dims: dict[LayerKind, dict[str, str]] = {
            LayerKind.INGESTION: {"StreamName": self.stream.name},
            LayerKind.ANALYTICS: {"Topology": self.cluster.name},
            LayerKind.STORAGE: {"TableName": self.table.name},
        }

        # Flight recorder: everything downstream is opt-in — services
        # publish to the bus, loops feed the decision audit log, and the
        # engine runs its profiled loop — only when a recorder is given.
        self.recorder = recorder
        if recorder is not None:
            self.stream.attach_bus(recorder.bus, "ingestion")
            self.cluster.attach_bus(recorder.bus, "analytics")
            self.table.attach_bus(recorder.bus, "storage")

        if engine is not None:
            # Shared engine (multi-flow region run): the caller owns the
            # clock, span mode, run loop and the span executor over every
            # flow's pipeline; this manager registers only its auditor,
            # injector and tasks on it.
            self.engine = engine
            self._owns_engine = False
        else:
            self.engine = SimulationEngine(
                clock=SimClock(tick_seconds=tick_seconds), span_execution=span_execution
            )
            self._owns_engine = True
        if recorder is not None and self._owns_engine:
            self.engine.profiler = recorder.profiler
        self._pipeline = _FlowPipeline(
            self.generator,
            self.stream,
            self.cluster,
            self.table,
            self.cloudwatch,
            self.cost_meters,
            read_workload=read_workload,
            read_rng=derive_rng(seed, "dashboard.reads"),
        )

        self.read_loop: ControlLoop | None = None
        if read_control is not None:
            if read_workload is None:
                raise ConfigurationError(
                    "read_control requires a read_workload to control against"
                )
            read_actuator = RetryingActuator(DynamoDBReadActuator(self.table))
            if self.recorder is not None:
                read_actuator.instrument(self.recorder.bus, "storage")
            read_sensor = CloudWatchSensor(
                self.cloudwatch,
                DDB_NS,
                "ReadUtilization",
                window=read_control.window,
                statistic=read_control.statistic,
                dimensions=self._dimensions_for(LayerKind.STORAGE),
                hold_last_for=3 * read_control.window,
            )
            if self.recorder is not None:
                read_sensor.instrument(self.recorder.bus, "storage")
            self.read_loop = ControlLoop(
                name="storage-reads",
                sensor=read_sensor,
                controller=read_control.controller,
                actuator=read_actuator,
                period=read_control.period,
                decision_log=self.recorder.decisions if self.recorder else None,
                event_bus=self.recorder.bus if self.recorder else None,
                telemetry=self.telemetry,
            )
            self.engine.every(
                self.read_loop.period, self.read_loop.step, name=f"{prefix}control.reads"
            )

        self.loops = self._build_loops()
        for kind, loop in self.loops.items():
            self.engine.every(
                loop.period, loop.step, name=f"{prefix}control.{kind.name.lower()}"
            )
        if self.share_schedule is not None and self.loops:
            self.engine.every(
                snapshot_period, self._apply_scheduled_bounds, name=f"{prefix}share-schedule"
            )

        self.collector = self._build_collector()
        # Keep the task name the tests and profiler reports know; the
        # wrapper adds the telemetry gauge sample at the same boundary.
        self.engine.every(snapshot_period, self._snapshot, name=f"{prefix}snapshots")

        # Component order matters: span executor → invariant checker →
        # chaos injector. The checker audits each boundary's
        # *pre-injection* state (so its cost integration sees the same
        # capacities the pipeline accrued), and faults applied at tick T
        # take effect from T+1 in both per-tick and span execution.
        self.invariant_checker: InvariantChecker | None = None
        if invariants:
            self.invariant_checker = InvariantChecker(
                pipeline=self._pipeline,
                generator=self.generator,
                stream=self.stream,
                cluster=self.cluster,
                fleet=self.fleet,
                table=self.table,
                cost_meters=self.cost_meters,
                loops=self.loops,
                # Runtime-retargeted bounds (a share schedule or a fleet
                # coordinator) make the static bound check meaningless.
                check_controller_bounds=self.share_schedule is None and not coordinated,
                bus=recorder.bus if recorder is not None else None,
            )
        if self._owns_engine:
            # A standalone flow is a fleet of one.
            name = flow_id or self.flow.name
            self.engine.add_component(FleetSpanExecutor(
                [(name, self._pipeline)], self.engine, {name: self.invariant_checker}
            ))
        if self.invariant_checker is not None:
            self.engine.add_component(self.invariant_checker)
        self.chaos_injector: ChaosInjector | None = None
        if chaos:
            self.chaos_injector = ChaosInjector(
                schedule=chaos,
                stream=self.stream,
                cluster=self.cluster,
                fleet=self.fleet,
                table=self.table,
                cloudwatch=self.cloudwatch,
                bus=recorder.bus if recorder is not None else None,
            )
            self.engine.add_component(self.chaos_injector)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _build_loops(self) -> dict[LayerKind, ControlLoop]:
        actuators = {
            LayerKind.INGESTION: lambda: KinesisShardActuator(self.stream),
            LayerKind.ANALYTICS: lambda: StormVMActuator(self.fleet),
            LayerKind.STORAGE: lambda: DynamoDBWriteActuator(self.table),
        }
        loops: dict[LayerKind, ControlLoop] = {}
        for kind, config in self.controls.items():
            namespace, metric = LAYER_SENSE[kind]
            sensor = CloudWatchSensor(
                self.cloudwatch,
                namespace,
                metric,
                window=config.window,
                statistic=config.statistic,
                dimensions=self._dimensions_for(kind),
                # Degrade gracefully on missing datapoints: hold the
                # last reading for up to three monitoring windows.
                hold_last_for=3 * config.window,
            )
            # Retry sits innermost so transient API faults are absorbed
            # before (and invisibly to) the share bound.
            actuator = RetryingActuator(actuators[kind]())
            if kind in self.share_bounds:
                # Sec. 2: controllers act freely *within* the layer's
                # resource share from the share analyzer, never beyond.
                actuator = BoundedActuator(actuator, cap=self.share_bounds[kind])
            if self.recorder is not None:
                actuator.instrument(self.recorder.bus, kind.name.lower())
                sensor.instrument(self.recorder.bus, kind.name.lower())
            loops[kind] = ControlLoop(
                name=kind.name.lower(),
                sensor=sensor,
                controller=config.controller,
                actuator=actuator,
                period=config.period,
                decision_log=self.recorder.decisions if self.recorder else None,
                event_bus=self.recorder.bus if self.recorder else None,
                telemetry=self.telemetry,
            )
        return loops

    def _apply_scheduled_bounds(self, now: int) -> None:
        """Track the share schedule: retarget every bounded actuator to
        the window in force at ``now`` (Sec. 2's arbitrary-time-window
        resource shares)."""
        bounds = self.share_schedule.bounds_at(now)
        for kind, loop in self.loops.items():
            actuator = loop.actuator
            if isinstance(actuator, BoundedActuator) and kind in bounds:
                actuator.cap = float(bounds[kind])

    def _snapshot(self, now: int) -> None:
        """Snapshot-boundary work: collect metrics, sample telemetry."""
        self.collector.collect(now)
        if self.telemetry is not None:
            self._sample_telemetry(now)

    def _sample_telemetry(self, now: int) -> None:
        """Refresh the telemetry gauges from live state.

        Strictly read-only: every source here is a plain attribute or a
        pure query, so sampling can never perturb the simulation — the
        bit-exactness contract is untouched and span/per-tick runs stay
        identical with telemetry on or off.
        """
        telemetry = self.telemetry
        pipeline = self._pipeline
        telemetry.set_gauge("pipeline.producer_backlog", pipeline._producer_backlog_records)
        telemetry.set_gauge("pipeline.write_backlog", pipeline._write_backlog)
        telemetry.set_gauge("pipeline.dropped_records", pipeline.dropped_records)
        telemetry.set_gauge("pipeline.dropped_writes", pipeline.dropped_writes)
        for name, meter in self.cost_meters.items():
            telemetry.set_gauge(f"cost.{name}", meter.total_cost)
        loops = list(self.loops.values())
        if self.read_loop is not None:
            loops.append(self.read_loop)
        for loop in loops:
            actuator = loop.actuator
            if isinstance(actuator, BoundedActuator):
                telemetry.set_gauge(
                    f"actuator.{loop.name}.share_clamps", actuator.clamped_requests
                )
                actuator = actuator.inner
            if isinstance(actuator, RetryingActuator):
                telemetry.set_gauge(
                    f"actuator.{loop.name}.failed_attempts", actuator.failed_attempts
                )
                telemetry.set_gauge(
                    f"actuator.{loop.name}.breaker_openings", actuator.total_openings
                )
                telemetry.set_gauge(
                    f"actuator.{loop.name}.circuit_open",
                    1.0 if now < actuator.circuit_open_until else 0.0,
                )
            telemetry.set_gauge(
                f"sensor.{loop.name}.stale",
                1.0 if getattr(loop.sensor, "last_stale", False) else 0.0,
            )

    def _dimensions_for(self, kind: LayerKind) -> dict[str, str]:
        return self._layer_dims[kind]

    def _build_collector(self) -> MetricCollector:
        collector = MetricCollector(self.cloudwatch, window=self.snapshot_period)
        # Registered explicitly rather than via a loop over opaque tuples,
        # so the dashboard labels read like the demo's consolidated view.
        collector.add_metric(
            "ingestion.records", KINESIS_NS, "IncomingRecords", "Sum",
            self._dimensions_for(LayerKind.INGESTION),
        )
        collector.add_metric(
            "ingestion.shards", KINESIS_NS, "ShardCount", "Average",
            self._dimensions_for(LayerKind.INGESTION),
        )
        collector.add_metric(
            "ingestion.util%", KINESIS_NS, "WriteUtilization", "Average",
            self._dimensions_for(LayerKind.INGESTION),
        )
        collector.add_metric(
            "ingestion.throttled", KINESIS_NS, "WriteProvisionedThroughputExceeded", "Sum",
            self._dimensions_for(LayerKind.INGESTION),
        )
        collector.add_metric(
            "ingestion.lag_ms", KINESIS_NS, "MillisBehindLatest", "Maximum",
            self._dimensions_for(LayerKind.INGESTION),
        )
        collector.add_metric(
            "analytics.cpu%", STORM_NS, "CPUUtilization", "Average",
            self._dimensions_for(LayerKind.ANALYTICS),
        )
        collector.add_metric(
            "analytics.vms", STORM_NS, "ProvisionedVMs", "Average",
            self._dimensions_for(LayerKind.ANALYTICS),
        )
        collector.add_metric(
            "analytics.pending", STORM_NS, "PendingTuples", "Average",
            self._dimensions_for(LayerKind.ANALYTICS),
        )
        collector.add_metric(
            "storage.wcu", DDB_NS, "ProvisionedWriteCapacityUnits", "Average",
            self._dimensions_for(LayerKind.STORAGE),
        )
        collector.add_metric(
            "storage.util%", DDB_NS, "WriteUtilization", "Average",
            self._dimensions_for(LayerKind.STORAGE),
        )
        collector.add_metric(
            "storage.throttled", DDB_NS, "WriteThrottleEvents", "Sum",
            self._dimensions_for(LayerKind.STORAGE),
        )
        return collector

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, duration_seconds: int) -> FlowRunResult:
        """Advance the simulation and return the analysed result."""
        started = perf_counter()
        self.engine.run(duration_seconds)
        return self._build_result(perf_counter() - started)

    def _build_result(self, wall_seconds: float = 0.0) -> FlowRunResult:
        """Assemble the run result from current state.

        Split out of :meth:`run` so a region fleet manager can run the
        *shared* engine once and then collect each flow's result.
        """
        self.cloudwatch.flush_pending()
        return FlowRunResult(
            duration_seconds=self.engine.clock.now,
            flow=self.flow,
            cloudwatch=self.cloudwatch,
            collector=self.collector,
            loops=self.loops,
            cost_meters=self.cost_meters,
            dropped_records=self._pipeline.dropped_records,
            dropped_writes=self._pipeline.dropped_writes,
            sample_period=self.snapshot_period,
            layer_dimensions={kind: self._dimensions_for(kind) for kind in LayerKind},
            read_loop=self.read_loop,
            recorder=self.recorder,
            chaos_events=list(self.chaos_injector.events) if self.chaos_injector else [],
            invariants=(
                self.invariant_checker.report() if self.invariant_checker else None
            ),
            telemetry=self.telemetry,
            wall_seconds=wall_seconds,
            exact=self.exact,
        )
