"""The span executor: every flow's data path as one engine component.

Every span-mode run goes through one :class:`FleetSpanExecutor`: a
region fleet registers one over its N flows' pipelines, and a
standalone flow is a fleet of one. The engine's ``span_execution``
alone chooses between the per-tick loop — where the executor delegates
to each ``_FlowPipeline.on_tick``, the oracle every span run must match
bit for bit — and spans. In a span run the executor

* absorbs per-flow capacity events internally — its ``span_horizon``
  accepts the whole global span (task firings, chaos faults and the
  run end still bound it), and each flow is split into **sub-spans at
  that flow's own events** by the pipeline's existing ``span_horizon``
  contract, so quiet flows stop fragmenting at busy flows' events;
* runs each viable sub-span **time-vectorized**: when a flow enters a
  sub-span with empty backlogs/buffers and the workload draws fit
  every hoisted capacity, the whole recurrence degenerates to
  closed-form numpy columns (accepted = handed = processed = records,
  burst buckets refill monotonically, throttles are zero) — anything
  else falls back, sub-span by sub-span, to the bit-exact scalar
  reference in ``_FlowPipeline.run_span``.

The equivalence argument (the *span* and *fleet execution contracts*,
DESIGN.md):

* splitting a flow's span at another flow's boundary never changes its
  results — the recurrence coefficients are identical on both halves,
  batched RNG draws are bit-identical elementwise however they are
  segmented, and window/burst accumulators are integer-valued floats
  below 2**53, so their partial sums associate exactly;
* region contention is constant inside any span (committed instance
  counts change only at control/chaos boundaries, which always bound
  the global span), so absorbing per-flow events cannot leak one
  flow's mid-span capacity change into another flow's coefficients;
* per-flow RNG streams are disjoint and flows execute in component
  (spec) order, so cross-flow batching never reorders any stream's
  draws.

Metrics land through the cloudwatch store's deferred batch path
(flushed on first read, so controllers and snapshots observe exactly
what per-tick puts would have stored), and the workload draws always
happen *before* the viability decision — a fallback sub-span hands the
drawn columns to the scalar reference, consuming every RNG stream
identically on both paths.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from repro.workload.generators import RateGrid

if TYPE_CHECKING:
    from repro.core.manager import _FlowPipeline

#: Products (payload x records) must stay below this for the buffer
#: byte split ``int(bytes * handed / records)`` to be float64-exact.
_EXACT_PRODUCT_LIMIT = 2**53


class _SpanClock:
    """Minimal clock view handed to the scalar fallback.

    ``_FlowPipeline.run_span`` reads only ``now`` and ``tick_seconds``;
    the executor walks per-flow sub-spans inside one engine span, so
    the real clock (which the engine advances once per *global* span)
    cannot be used directly.
    """

    __slots__ = ("now", "tick_seconds")

    def __init__(self, now: int, tick_seconds: int) -> None:
        self.now = now
        self.tick_seconds = tick_seconds


class FleetSpanExecutor:
    """One span component executing every flow's data path in batch.

    ``flows`` is the ordered list of ``(flow_name, _FlowPipeline)``
    pairs; the executor runs them in that order on both paths, so
    per-flow results are bit-identical to the per-tick loop (each
    flow's RNG streams, cloudwatch store and event bus are private to
    the flow). ``flow_name`` also labels the flow's profiler time.
    """

    def __init__(
        self,
        flows: list[tuple[str, _FlowPipeline]],
        engine,
        checkers: dict | None = None,
    ) -> None:
        self._flows = list(flows)
        self._engine = engine
        # Per-flow invariant checkers (``None`` entries skipped): their
        # cost integration assumes every capacity change lands on a
        # check boundary, and the executor moves those changes off the
        # global span — so it audits each flow at its own sub-span
        # boundaries instead.
        self._checkers = {
            name: checker for name, checker in (checkers or {}).items() if checker is not None
        }
        # Same-class, same-distinct-law generators pool their
        # expected-distinct memos: the fill values are pure functions
        # of the record count, so whichever flow computes one first
        # saves every other flow the occupancy sum.
        for i, (_, pipeline) in enumerate(self._flows):
            for _, other in self._flows[:i]:
                if pipeline.generator.adopt_distinct_cache(other.generator):
                    break
        # Shared all-zero columns per sub-span length: every flow's
        # viable sub-span emits several identically-zero series
        # (throttles, backlogs, lag), and the store never mutates
        # emitted columns, so one array per length serves them all.
        self._zeros: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _zero_columns(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        cached = self._zeros.get(count)
        if cached is None:
            cached = (
                np.zeros(count, dtype=np.int64),
                np.zeros(count, dtype=np.float64),
            )
            self._zeros[count] = cached
        return cached

    # ------------------------------------------------------------------
    # Engine component protocol
    # ------------------------------------------------------------------
    def on_tick(self, clock) -> None:
        """Per-tick reference: delegate to each pipeline in order."""
        for _, pipeline in self._flows:
            pipeline.on_tick(clock)

    def span_horizon(self, now: int, limit: int, tick_seconds: int) -> int:
        """Accept the whole global span.

        Per-flow capacity events do not bound the *shared* span any
        more — :meth:`run_span` splits each flow at its own events
        internally. Only cross-flow state changes must stay on global
        boundaries, and those (task firings, chaos faults, run end)
        are already boundaries of their own.
        """
        return limit

    def run_span(self, clock, span_end: int) -> None:
        profiler = self._engine.profiler
        now = clock.now
        dt = clock.tick_seconds
        for name, pipeline in self._flows:
            started = perf_counter() if profiler is not None else 0.0
            checker = self._checkers.get(name)
            t = now
            shim = _SpanClock(t, dt)
            while t < span_end:
                horizon = pipeline.span_horizon(t, span_end, dt)
                if horizon < t + dt:
                    horizon = t + dt
                shim.now = t
                self._run_sub_span(pipeline, shim, horizon)
                t = horizon
                # The flow's capacities change exactly at its sub-span
                # boundaries; audit here so the checker's piecewise
                # cost integration stays exact. The final boundary is
                # the global span end, where the checker's own engine
                # slot audits (after every flow has finished).
                if checker is not None and t < span_end:
                    checker.audit(t)
            if profiler is not None:
                profiler.record_flow(name, perf_counter() - started)

    # ------------------------------------------------------------------
    # One flow, one sub-span
    # ------------------------------------------------------------------

    #: Initial scalar-chunk length (ticks). A violating tick sends the
    #: flow to the scalar reference only for a chunk at a time; the
    #: executor re-checks the recurrence state between chunks and
    #: resumes the closed-form columns as soon as the backlogs drain,
    #: instead of finishing the whole sub-span scalar. Chunks double
    #: while the state stays live, so a chronically congested flow
    #: converges to long scalar stretches with negligible re-check
    #: overhead. Splitting the scalar reference is exact: its per-tick
    #: recurrence carries all state in the services, and segmented RNG
    #: draws are elementwise-identical however they are chunked.
    _SCALAR_CHUNK = 16

    def _run_sub_span(self, p: _FlowPipeline, clock: _SpanClock, span_end: int) -> None:
        """Run ``(clock.now, span_end]`` for one flow.

        The workload columns for the whole sub-span are always drawn
        *first* (identical RNG consumption on both paths); execution
        then alternates between closed-form vector prefixes (while the
        recurrence state is empty and the draws clear every hoisted
        cap) and bounded scalar chunks fed the same pre-drawn columns.
        The capacity hoists are idempotent within a tick (ripening
        clears the pending target; the rebalance trigger fires only on
        a VM-count change), so re-hoisting on vector resumption is safe
        — capacities are constant across the sub-span by construction
        (the sub-span is bounded by the flow's own next capacity
        event).
        """
        dt = clock.tick_seconds
        t = clock.now
        total = (span_end - t) // dt
        records_all, payload_all, distinct_all = p.generator.generate_span(
            t + dt, total, dt
        )
        stream = p.stream
        cluster = p.cluster
        offset = 0
        chunk = self._SCALAR_CHUNK
        shim = _SpanClock(t, dt)
        while t < span_end:
            remaining = (span_end - t) // dt
            if not (
                p._producer_backlog_records
                or p._producer_backlog_bytes
                or p._write_backlog
                or stream._buffer_records
                or stream._buffer_bytes
                or cluster._pending_records
            ):
                consumed = self._vector_prefix(
                    p, t, dt, remaining,
                    records_all[offset : offset + remaining],
                    payload_all[offset : offset + remaining],
                    distinct_all[offset : offset + remaining],
                )
                if consumed:
                    t += consumed * dt
                    offset += consumed
                    chunk = self._SCALAR_CHUNK
                    continue
            step = chunk if chunk < remaining else remaining
            shim.now = t
            p.run_span(
                shim, t + step * dt,
                (
                    records_all[offset : offset + step],
                    payload_all[offset : offset + step],
                    distinct_all[offset : offset + step],
                ),
            )
            t += step * dt
            offset += step
            chunk *= 2

    def _vector_prefix(
        self,
        p: _FlowPipeline,
        now: int,
        dt: int,
        count: int,
        records_col: list,
        payload_col: list,
        distinct_col: list,
    ) -> int:
        """Run the longest viable closed-form prefix of ``count`` ticks.

        Returns the number of ticks consumed: 0 when the very first
        tick violates a hoisted cap (the caller falls back to a scalar
        chunk), otherwise the prefix length up to (excluding) the first
        violating tick. Assumes the recurrence state is empty on entry.
        """
        first_tick = now + dt
        stream = p.stream
        cluster = p.cluster
        table = p.table
        span_end = now + count * dt

        # Capacity hoist — same call order as the scalar reference, so
        # pending changes ripening at the first tick apply (and publish
        # their bus events) at exactly the same point.
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
        eff_write_units = table.effective_write_capacity(first_tick)
        read_units_cap = table.read_capacity(first_tick)
        eff_read_units = table.effective_read_capacity(first_tick)
        write_cap = eff_write_units * dt
        read_cap = eff_read_units * dt
        write_bucket_cap = table.config.burst_seconds * write_units
        read_bucket_cap = table.config.burst_seconds * read_units_cap

        # Viability, part 2: a tick's draws must clear every hoisted
        # cap, or that tick throttles / buffers somewhere in the chain
        # and the recurrence state goes live. The closed-form columns
        # run up to the *first* violating tick; the caller continues
        # from there (violating tick included) on the scalar reference
        # with the remaining pre-drawn columns.
        records = np.asarray(records_col, dtype=np.int64)
        payload = np.asarray(payload_col, dtype=np.int64)
        record_limit = min(record_cap, stream_read_cap, poll_limit, analytics_cap)
        violating = (
            (records > record_limit)
            | (payload > byte_cap)
            | (payload * records >= _EXACT_PRODUCT_LIMIT)
        )
        viable = int(np.argmax(violating)) if violating.any() else count
        if viable == 0:
            return 0
        if viable < count:
            count = viable
            span_end = now + viable * dt
            records = records[:viable]
            payload = payload[:viable]
            records_col = records_col[:viable]
            payload_col = payload_col[:viable]
            distinct_col = distinct_col[:viable]

        # --- Closed-form columns -------------------------------------
        times = np.arange(first_tick, span_end + dt, dt, dtype=np.int64)
        zeros_i, zeros_f = self._zero_columns(count)

        # Analytics: window walk. Flush boundaries partition the span
        # into the exact segments the scalar loop draws its CPU-noise
        # normals in, with each window's flush Poisson interleaved at
        # the same bitstream position.
        window_seconds = cluster.config.window_seconds
        distinct_estimator = cluster._distinct_estimator
        storm_poisson = cluster._rng.poisson
        noise_std = cluster.config.cpu_noise_std
        storm_normal = cluster._rng.normal
        wk = cluster._window_keys
        wr = cluster._window_records
        we = cluster._window_elapsed
        noise_parts: list[np.ndarray] = []
        flush_writes: dict[int, int] = {}
        i = 0
        while i < count:
            seg = -(-(window_seconds - we) // dt)
            if seg < 1:
                seg = 1
            trunc = seg if seg <= count - i else count - i
            if noise_std:
                noise_parts.append(storm_normal(0.0, noise_std, size=trunc))
            wk += sum(distinct_col[i : i + trunc])
            wr += sum(records_col[i : i + trunc])
            we += trunc * dt
            if trunc == seg:
                if distinct_estimator is not None:
                    expected = distinct_estimator(wr)
                    writes = int(storm_poisson(expected)) if expected > 0 else 0
                else:
                    ticks_in_window = max(1, we // dt)
                    writes = int(round(wk / ticks_in_window))
                if writes:
                    flush_writes[i + seg - 1] = writes
                wk = 0.0
                wr = 0
                we = 0
            i += trunc

        if vms > 0:
            if analytics_cap > 0:
                s_cpu = cluster.config.cpu_idle_percent + (
                    100.0 - cluster.config.cpu_idle_percent
                ) * (records / analytics_cap)
            else:
                s_cpu = np.full(count, float(cluster.config.cpu_idle_percent))
        else:
            s_cpu = zeros_f
        if noise_std:
            s_cpu = s_cpu + np.concatenate(noise_parts)
        s_cpu = np.minimum(100.0, np.maximum(0.0, s_cpu))
        s_writes = zeros_i.copy() if flush_writes else zeros_i
        for fi, writes in flush_writes.items():
            s_writes[fi] = writes

        # Kinesis: all draws clear every cap, so accepted == handed ==
        # processed == records, nothing buffers and nothing throttles.
        if record_cap:
            k_util = (100.0 * records) / record_cap
        else:
            k_util = zeros_f
        smoothed_rate = stream._smoothed_rate
        alpha = min(1.0, dt / 60.0)
        for r in records_col:
            smoothed_rate += alpha * (r / dt - smoothed_rate)

        # Storage writes: non-zero only at flush ticks, so the burst
        # bucket refills monotonically between them — min(cap, b0 + k *
        # write_cap) is exactly the per-tick recurrence (integer-valued
        # float adds below 2**53) — and each flush tick replays the
        # scalar accept/burst/refill arithmetic verbatim. If a flush
        # overflows into a write backlog, the rest of the span's write
        # side continues with the full scalar recurrence.
        d_consumed = np.zeros(count, dtype=np.int64)
        d_throttled = np.zeros(count, dtype=np.int64)
        d_burst = np.empty(count, dtype=np.float64)
        b = table._burst_bucket
        write_backlog = 0
        dropped_writes = 0
        two_write_cap = 2 * write_cap
        max_backlog = p.MAX_BACKLOG
        scalar_from = None
        prev = -1
        for fi in sorted(flush_writes):
            units = flush_writes[fi]
            gap = fi - prev - 1
            if gap:
                d_burst[prev + 1 : fi] = np.minimum(
                    write_bucket_cap,
                    b + write_cap * np.arange(1, gap + 1, dtype=np.float64),
                )
                b = float(d_burst[fi - 1])
            write_accepted = min(units, write_cap)
            excess = units - write_accepted
            if excess > 0 and b > 0:
                from_burst = int(min(excess, b))
                write_accepted += from_burst
                excess -= from_burst
                b -= from_burst
            unused = max(0, write_cap - units)
            b = min(write_bucket_cap, b + unused)
            d_consumed[fi] = write_accepted
            d_throttled[fi] = excess
            d_burst[fi] = b
            prev = fi
            if excess > 0:
                write_backlog = excess
                if write_backlog > max_backlog:
                    dropped_writes += write_backlog - max_backlog
                    write_backlog = max_backlog
                scalar_from = fi + 1
                break
        if scalar_from is None:
            gap = count - 1 - prev
            if gap:
                d_burst[prev + 1 : count] = np.minimum(
                    write_bucket_cap,
                    b + write_cap * np.arange(1, gap + 1, dtype=np.float64),
                )
                b = float(d_burst[count - 1])
        else:
            for j in range(scalar_from, count):
                retry_writes = min(write_backlog, two_write_cap)
                units = flush_writes.get(j, 0) + retry_writes
                write_accepted = min(units, write_cap)
                excess = units - write_accepted
                if excess > 0 and b > 0:
                    from_burst = int(min(excess, b))
                    write_accepted += from_burst
                    excess -= from_burst
                    b -= from_burst
                unused = max(0, write_cap - units)
                b = min(write_bucket_cap, b + unused)
                write_backlog = write_backlog - retry_writes + excess
                if write_backlog > max_backlog:
                    dropped_writes += write_backlog - max_backlog
                    write_backlog = max_backlog
                d_consumed[j] = write_accepted
                d_throttled[j] = excess
                d_burst[j] = b
        if write_cap:
            d_util = (100.0 * d_consumed) / write_cap
        else:
            d_util = zeros_f

        # Dashboard reads: the whole span's Poissons in one draw
        # (elementwise bit-identical to the scalar sequence; zero-rate
        # ticks consume no bits, matching the scalar guard), then a
        # monotone bucket refill while no tick dips into burst.
        read_burst = table._read_burst_bucket
        if p.read_workload is not None:
            read_grid = p._read_grid
            if read_grid is None or read_grid.step != dt:
                read_grid = p._read_grid = RateGrid(p.read_workload, dt)
            lam = np.asarray(read_grid.rates_span(first_tick, count), dtype=np.float64) * dt
            if count and (lam <= 0.0).any():
                lam = np.clip(lam, 0.0, None)
            read_units = p._read_rng.poisson(lam).astype(np.int64, copy=False)
            max_read = int(read_units.max()) if count else 0
            if max_read <= read_cap:
                d_read_consumed = read_units
                d_read_throttled = zeros_i
                refill = np.cumsum(read_cap - read_units, dtype=np.float64)
                read_burst_col = np.minimum(read_bucket_cap, read_burst + refill)
                if count:
                    read_burst = float(read_burst_col[count - 1])
            else:
                d_read_consumed = np.empty(count, dtype=np.int64)
                d_read_throttled = np.empty(count, dtype=np.int64)
                rb = read_burst
                for idx, units in enumerate(read_units.tolist()):
                    read_accepted = min(units, read_cap)
                    read_excess = units - read_accepted
                    if read_excess > 0 and rb > 0:
                        from_burst = int(min(read_excess, rb))
                        read_accepted += from_burst
                        read_excess -= from_burst
                        rb -= from_burst
                    read_unused = max(0, read_cap - units)
                    rb = min(read_bucket_cap, rb + read_unused)
                    d_read_consumed[idx] = read_accepted
                    d_read_throttled[idx] = read_excess
                read_burst = rb
            if read_cap:
                d_read_util = (100.0 * d_read_consumed) / read_cap
            else:
                d_read_util = zeros_f
        else:
            d_read_consumed = zeros_i
            d_read_throttled = zeros_i
            d_read_util = zeros_f

        # --- State write-back (mirrors the scalar reference) ---------
        span_accepted = sum(records_col)
        span_writes = sum(flush_writes.values())
        p._write_backlog = write_backlog
        if dropped_writes:
            p.dropped_writes += dropped_writes
        stream._smoothed_rate = smoothed_rate
        stream.total_accepted_records += span_accepted
        stream.total_read_records += span_accepted
        cluster.total_processed += span_accepted
        cluster.total_writes_emitted += span_writes
        table.total_write_accepted += int(d_consumed.sum())
        cluster._window_keys = wk
        cluster._window_records = wr
        cluster._window_elapsed = we
        cluster._tick_cpu = float(s_cpu[count - 1])
        cluster._tick_processed = records_col[count - 1]
        cluster._tick_writes_emitted = flush_writes.get(count - 1, 0)
        table._burst_bucket = float(b)
        table._read_burst_bucket = float(read_burst)

        # --- Columnar emission + costs (same order, same values) -----
        cloudwatch = p.cloudwatch
        stream.emit_metrics_span(
            cloudwatch, times, records, payload, zeros_i, records,
            k_util, zeros_i, zeros_f, shards,
        )
        cluster.emit_metrics_span(
            cloudwatch, times, s_cpu, records, zeros_i, s_writes,
            vms, provisioned_vms,
        )
        table.emit_metrics_span(
            cloudwatch, times, d_consumed, d_throttled, d_util, d_burst,
            d_read_consumed, d_read_throttled, d_read_util,
            write_units, read_units_cap,
        )

        span_seconds = count * dt
        meters = p.cost_meters
        meters["ingestion"].accrue(shards, span_seconds)
        meters["ingestion"].record_usage(span_accepted)
        meters["analytics"].accrue(billable_vms, span_seconds)
        meters["storage"].accrue(write_units, span_seconds)
        meters["storage_reads"].accrue(read_units_cap, span_seconds)
        return count
