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
* runs each sub-span through **one call of the layer-major kernel**,
  ``_FlowPipeline.run_span``: the flow is a one-way chain, so the
  kernel computes Kinesis put → Storm ingress → Storm compute →
  DynamoDB writes → dashboard reads one layer at a time over the whole
  sub-span, each in closed form while its own state is empty and its
  input clears its caps, and otherwise as a scan of that layer's
  per-tick arithmetic (DESIGN.md, "Layer-major kernel").

The kernel hoists the capacities once, through
``_FlowPipeline.hoist_capacities`` (the one place that owns the
capacity call order, hence where pending changes ripen and publish
their bus events), and returns the sub-span's metric columns; the
executor calls ``_FlowPipeline.commit_span`` (metric emission and
costs) once per sub-span, one store call per service.

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
have stored). A sub-span's columns are drawn *before* the kernel runs:
the workload columns from ``generate_span`` and, as a fourth column,
the dashboard read units (one batched Poisson draw on the flow's read
stream, ``None`` without a read workload), so every RNG stream is
consumed as the per-tick loop consumes it.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from repro.workload.generators import RateGrid

if TYPE_CHECKING:
    from repro.core.manager import _FlowPipeline

class _SpanClock:
    """Minimal clock view handed to the span kernel.

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
    def _run_sub_span(self, p: _FlowPipeline, clock: _SpanClock, span_end: int) -> None:
        """Run ``(clock.now, span_end]`` for one flow: draw, kernel, commit.

        The sub-span's columns are drawn *first* — the workload and the
        dashboard reads, each on its own RNG stream, exactly as each
        leads its tick in the per-tick loop. One call of the layer-major
        kernel ``_FlowPipeline.run_span`` computes every metric column
        (and hoists the capacities once), and one ``commit_span`` lands
        them.
        """
        dt = clock.tick_seconds
        t = clock.now
        total = (span_end - t) // dt
        columns = (
            *p.generator.generate_span(t + dt, total, dt),
            self._draw_reads(p, t + dt, total, dt),
        )
        p.commit_span(*p.run_span(clock, span_end, columns), total * dt)

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
