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
* runs **quiet ticks time-vectorized**: when a flow enters a sub-span
  with empty backlogs/buffers, every tick whose draws fit every
  hoisted capacity degenerates to closed-form numpy columns (accepted
  = handed = processed = records, nothing buffers, burst buckets
  refill monotonically between flushes). The vector prefix ends before
  the first tick whose records, bytes, ``payload * records`` product
  or dashboard read units exceed a cap, and on (including) the first
  flush whose writes spill into a write backlog, so the cluster RNG
  stops exactly at that flush's Poisson. Every other tick runs on the
  bit-exact scalar reference, ``_FlowPipeline.run_span``.

Both paths start from ``_FlowPipeline.hoist_capacities`` (the one
place that owns the capacity call order, hence where pending changes
ripen and publish their bus events) and return their metric columns;
the executor concatenates a sub-span's parts and calls
``_FlowPipeline.commit_span`` (metric emission and costs) once per
sub-span, one store call per service.

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
(a service's group of series lands on the first read of any of them,
so controllers and snapshots observe exactly what per-tick puts would
have stored). A sub-span's columns are always
drawn *before* the viability decision: the workload columns from
``generate_span`` and, as a fourth column, the dashboard read units
(one batched Poisson draw on the flow's read stream, ``None`` without
a read workload). Ticks the vector path leaves get the same drawn
columns in the scalar reference, so every RNG stream is consumed
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

        The sub-span's columns are always drawn *first* — the workload
        and the dashboard reads, each on its own RNG stream — so both
        paths consume every stream identically. Execution then
        alternates between closed-form vector prefixes over quiet ticks
        and bounded scalar chunks fed the same pre-drawn columns. Each
        path hoists the capacities itself; they are constant across the
        sub-span by construction (it is bounded by the flow's own next
        capacity event), so the parts' columns concatenate into one
        commit that meters and emits exactly what per-part commits would.
        """
        dt = clock.tick_seconds
        t = clock.now
        total = (span_end - t) // dt
        columns = (
            *p.generator.generate_span(t + dt, total, dt),
            self._draw_reads(p, t + dt, total, dt),
        )
        stream = p.stream
        cluster = p.cluster
        offset = 0
        chunk = self._SCALAR_CHUNK
        shim = _SpanClock(t, dt)
        parts = []
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
                part = self._vector_prefix(
                    p, t, dt, _slice(columns, offset, offset + remaining)
                )
                if part is not None:
                    consumed = len(part[1])
                    parts.append(part)
                    t += consumed * dt
                    offset += consumed
                    chunk = self._SCALAR_CHUNK
                    continue
            step = chunk if chunk < remaining else remaining
            shim.now = t
            parts.append(
                p.run_span(shim, t + step * dt, _slice(columns, offset, offset + step))
            )
            t += step * dt
            offset += step
            chunk *= 2
        p.commit_span(*_join(parts), total * dt)

    @staticmethod
    def _draw_reads(p: _FlowPipeline, first_tick: int, count: int, dt: int) -> list | None:
        """The sub-span's dashboard read units, ``None`` without reads.

        One batched Poisson draw is elementwise bit-identical to the
        per-tick loop's scalar draws, and zero-rate ticks consume no
        bits, matching its ``expected > 0`` guard.
        """
        if p.read_workload is None:
            return None
        grid = p._read_grid
        if grid is None or grid.step != dt:
            grid = p._read_grid = RateGrid(p.read_workload, dt)
        lam = np.asarray(grid.rates_array(first_tick, count), dtype=np.float64) * dt
        if (lam <= 0.0).any():
            lam = np.clip(lam, 0.0, None)
        return p._read_rng.poisson(lam).tolist()

    def _vector_prefix(
        self, p: _FlowPipeline, now: int, dt: int, columns: tuple
    ) -> tuple | None:
        """Run the longest closed-form prefix of quiet ticks.

        A tick is *quiet* when its draws clear every hoisted cap:
        nothing throttles or buffers in Kinesis or Storm, and no read
        dips into the read burst bucket. Storage writes land only at
        flush ticks, whose accept/burst arithmetic the window walk
        replays exactly. The prefix ends

        * before the first tick whose records exceed the Kinesis write
          or read cap, the Storm poll limit or its capacity, whose bytes
          exceed the byte cap, whose ``payload * records`` reaches
          ``_EXACT_PRODUCT_LIMIT``, or whose read units exceed the read
          cap;
        * on the first flush whose writes spill into a write backlog —
          that tick included, so the cluster RNG stops exactly at its
          flush Poisson.

        Returns the prefix's commit part (see ``_FlowPipeline.run_span``),
        ``None`` when the very first tick is not quiet (the caller then
        runs a scalar chunk). Assumes the recurrence state is empty on
        entry.
        """
        records_col, payload_col, distinct_col, reads_col = columns
        n = count = len(records_col)
        first_tick = now + dt
        stream = p.stream
        cluster = p.cluster
        table = p.table
        caps = p.hoist_capacities(first_tick, dt)
        record_cap = caps.record_cap
        analytics_cap = caps.analytics_cap
        write_cap = caps.write_cap
        read_cap = caps.read_cap

        records = np.asarray(records_col, dtype=np.int64)
        payload = np.asarray(payload_col, dtype=np.int64)
        record_limit = min(record_cap, caps.stream_read_cap, caps.poll_limit, analytics_cap)
        violating = (
            (records > record_limit)
            | (payload > caps.byte_cap)
            | (payload * records >= _EXACT_PRODUCT_LIMIT)
        )
        if reads_col is not None:
            reads = np.asarray(reads_col, dtype=np.int64)
            violating |= reads > read_cap
        if violating.any():
            count = int(np.argmax(violating))
            if count == 0:
                return None

        # Analytics window walk. Flush boundaries partition the span
        # into the exact segments the scalar loop draws its CPU-noise
        # normals in, with each window's flush Poisson interleaved at
        # the same bitstream position. Storage writes land only at
        # flush ticks, so between them the write burst bucket refills
        # monotonically — min(cap, b0 + k * write_cap) is exactly the
        # per-tick recurrence (integer-valued float adds below 2**53) —
        # and each writing flush replays the scalar accept/burst/refill
        # arithmetic verbatim.
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
        write_bucket_cap = caps.write_bucket_cap
        b = table._burst_bucket
        d_consumed = np.zeros(n, dtype=np.int64)
        d_throttled = np.zeros(n, dtype=np.int64)
        d_burst = np.empty(n, dtype=np.float64)
        write_backlog = 0
        dropped_writes = 0
        prev = -1  # the last flush tick that wrote
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
            i += trunc
            if trunc < seg:
                break
            if distinct_estimator is not None:
                expected = distinct_estimator(wr)
                writes = int(storm_poisson(expected)) if expected > 0 else 0
            else:
                ticks_in_window = max(1, we // dt)
                writes = int(round(wk / ticks_in_window))
            wk = 0.0
            wr = 0
            we = 0
            if not writes:
                continue
            fi = i - 1
            flush_writes[fi] = writes
            if fi > prev + 1:
                d_burst[prev + 1 : fi] = np.minimum(
                    write_bucket_cap,
                    b + write_cap * np.arange(1, fi - prev, dtype=np.float64),
                )
                b = float(d_burst[fi - 1])
            write_accepted = min(writes, write_cap)
            excess = writes - write_accepted
            if excess > 0 and b > 0:
                from_burst = int(min(excess, b))
                write_accepted += from_burst
                excess -= from_burst
                b -= from_burst
            b = min(write_bucket_cap, b + max(0, write_cap - writes))
            d_consumed[fi] = write_accepted
            d_throttled[fi] = excess
            d_burst[fi] = b
            prev = fi
            if excess > 0:
                # The flush spills into a write backlog: the prefix
                # ends here and the scalar reference retries it.
                write_backlog = min(excess, p.MAX_BACKLOG)
                dropped_writes = excess - write_backlog
                count = i
                break
        if count - 1 > prev:
            d_burst[prev + 1 : count] = np.minimum(
                write_bucket_cap,
                b + write_cap * np.arange(1, count - prev, dtype=np.float64),
            )
            b = float(d_burst[count - 1])
        if count < n:
            records = records[:count]
            payload = payload[:count]
            records_col = records_col[:count]
            d_consumed = d_consumed[:count]
            d_throttled = d_throttled[:count]
            d_burst = d_burst[:count]
            if reads_col is not None:
                reads = reads[:count]

        # --- Closed-form columns -------------------------------------
        times = np.arange(first_tick, now + count * dt + dt, dt, dtype=np.int64)
        zeros_i = np.zeros(count, dtype=np.int64)
        zeros_f = np.zeros(count)
        if caps.vms > 0:
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
        if write_cap:
            d_util = (100.0 * d_consumed) / write_cap
        else:
            d_util = zeros_f

        # Dashboard reads: every tick within the read cap, so the read
        # burst bucket only refills, monotonically.
        if reads_col is None:
            d_read_consumed = zeros_i
            d_read_util = zeros_f
        else:
            d_read_consumed = reads
            refill = np.cumsum(read_cap - reads, dtype=np.float64)
            read_burst = np.minimum(caps.read_bucket_cap, table._read_burst_bucket + refill)
            table._read_burst_bucket = float(read_burst[count - 1])
            d_read_util = (100.0 * reads) / read_cap if read_cap else zeros_f

        # --- State write-back (mirrors the scalar reference) ---------
        span_accepted = sum(records_col)
        p._write_backlog = write_backlog
        if dropped_writes:
            p.dropped_writes += dropped_writes
        stream._smoothed_rate = smoothed_rate
        stream.total_accepted_records += span_accepted
        stream.total_read_records += span_accepted
        cluster.total_processed += span_accepted
        cluster.total_writes_emitted += sum(flush_writes.values())
        table.total_write_accepted += int(d_consumed.sum())
        cluster._window_keys = wk
        cluster._window_records = wr
        cluster._window_elapsed = we
        cluster._tick_cpu = float(s_cpu[count - 1])
        cluster._tick_processed = records_col[count - 1]
        cluster._tick_writes_emitted = flush_writes.get(count - 1, 0)
        table._burst_bucket = float(b)

        return (
            caps, times,
            (records, payload, zeros_i, records, k_util, zeros_i, zeros_f),
            (s_cpu, records, zeros_i, s_writes),
            (d_consumed, d_throttled, d_util, d_burst,
             d_read_consumed, zeros_i, d_read_util),
            span_accepted,
        )


def _join(parts: list[tuple]) -> tuple:
    """One commit from a sub-span's parts, columns concatenated in order.

    Each service's columns join as one float64 ``(columns, ticks)``
    block, the dtype the store keeps them in; counts are integers below
    2**53, so the throttle replay reads them back exactly. Every part
    hoisted the same capacities; a lone part passes through untouched.
    """
    if len(parts) == 1:
        return parts[0]
    services = [
        np.concatenate([np.array(part[i], dtype=np.float64) for part in parts], axis=1)
        for i in (2, 3, 4)
    ]
    times = np.concatenate([part[1] for part in parts])
    return (parts[0][0], times, *services, sum(part[5] for part in parts))


def _slice(columns: tuple, start: int, stop: int) -> tuple:
    """``columns[start:stop]`` per column, keeping an absent column ``None``."""
    return tuple(None if col is None else col[start:stop] for col in columns)
