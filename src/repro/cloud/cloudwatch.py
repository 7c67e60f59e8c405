"""Simulated CloudWatch: a namespaced time-series metric store.

Flower's sensor module "periodically collects live data from multiple
sources such as CloudWatch" (Sec. 3.3). In this reproduction every
simulated service pushes its per-tick measurements here, and sensors
read them back aggregated over a monitoring window — the same indirect
path a real deployment uses, so monitoring delay and aggregation
effects are part of the control loop.

Complexity contract (see DESIGN.md "Metric-store complexity contract"):
appends are O(1) amortized, window reads are O(log n + window) via
bisect over the strictly time-ordered series, and period aggregation is
a single left-to-right pass over the located slice. Aggregation order
is pinned left-to-right (append order), so the switch from per-period
re-scans to the single pass does not move ``Average``/``Sum`` results
by a ULP. Reads are additionally memoized per series version: co-located
alarms, sensors and collectors asking for the same (window, statistic)
within one control period aggregate once.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.errors import MonitoringError

#: Named statistics supported by :meth:`SimCloudWatch.get_metric_statistics`.
#: Percentile statistics (``p0`` .. ``p100``, e.g. ``p50``, ``p99``,
#: ``p99.9``) are also supported; use :func:`validate_statistic` to
#: check an arbitrary statistic string.
SUPPORTED_STATISTICS = ("Average", "Sum", "Maximum", "Minimum", "SampleCount")

#: Strict percentile shape: ``p`` then plain decimal digits with an
#: optional fractional part. ``float()`` is too permissive here — it
#: accepts whitespace, underscores, signs, exponents and ``nan``, so
#: ``"p 50"`` and ``"p1_0"`` would silently parse as p50/p10.
_PERCENTILE_RE = re.compile(r"p(\d{1,3})(?:\.(\d+))?\Z")


def validate_statistic(statistic: str) -> str:
    """Validate a statistic name; returns it unchanged if supported.

    Accepts the named statistics in :data:`SUPPORTED_STATISTICS` plus
    CloudWatch-style percentiles ``pXX[.X]`` with the value in [0, 100]
    (e.g. ``p99``, ``p99.9``). The percentile digits must be literal —
    no whitespace, signs, underscores or exponents. Raises
    :class:`MonitoringError` otherwise — at construction time for
    sensors and alarms, so a typo fails fast instead of on the first
    control period.
    """
    if statistic in SUPPORTED_STATISTICS:
        return statistic
    if statistic.startswith("p"):
        match = _PERCENTILE_RE.match(statistic)
        if match is not None and float(statistic[1:]) <= 100.0:
            return statistic
        raise MonitoringError(
            f"bad percentile statistic {statistic!r}: want pXX[.X] with "
            f"the value in [0, 100]"
        )
    raise MonitoringError(
        f"unsupported statistic {statistic!r}; supported: "
        f"{', '.join(SUPPORTED_STATISTICS)} or pXX percentiles"
    )


#: Memo sentinel for "the window held no datapoints" — distinct from any
#: float so a legitimate NaN aggregate is never confused with emptiness.
_EMPTY_WINDOW = object()


def _dimension_key(
    dimensions: dict[str, str] | tuple[tuple[str, str], ...] | None,
) -> tuple[tuple[str, str], ...]:
    """Canonical series key for a dimensions mapping.

    Accepts an already-canonical key tuple unchanged, so hot emitters
    (the services' per-tick and span paths) can compute their key once
    at construction instead of re-sorting the same one-entry dict on
    every datapoint.
    """
    if not dimensions:
        return ()
    if type(dimensions) is tuple:
        return dimensions
    return tuple(sorted(dimensions.items()))


def _aggregate(values: list[float], statistic: str) -> float:
    if statistic == "Average":
        return sum(values) / len(values)
    if statistic == "Sum":
        return float(sum(values))
    if statistic == "Maximum":
        return float(max(values))
    if statistic == "Minimum":
        return float(min(values))
    if statistic == "SampleCount":
        return float(len(values))
    if statistic.startswith("p"):
        return _percentile(values, float(statistic[1:]))
    raise MonitoringError(f"unsupported statistic {statistic!r}")


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    if not 0.0 <= q <= 100.0:
        raise MonitoringError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    # One-product form: monotone in floating point (never escapes the
    # bracketing values).
    return ordered[low] + weight * (ordered[high] - ordered[low])


class _Series:
    """A single metric stream: time-ordered (t, value) pairs, columnar.

    Storage is a pair of growable numpy arrays (``int64`` times,
    ``float64`` values) so whole spans of datapoints land in one
    :meth:`extend` — the columnar write path the span scheduler uses —
    while :meth:`append` keeps the scalar per-tick path. The
    time-ordered invariant (checked by :meth:`append` and, for
    batches, by :meth:`SimCloudWatch.put_metric_data_batch`) is what makes
    O(log n) window location sound: both ends of a right-closed window
    ``(start, end]`` are found by binary search, and the located slice
    is already in append order, so aggregating it left-to-right matches
    the old full-scan filter bit for bit. Everything handed back out
    (windows, raw series, aggregation inputs) is converted to builtin
    ``int``/``float`` so numpy scalar types never leak into results.
    """

    __slots__ = ("_times", "_values", "_len", "version")

    def __init__(self) -> None:
        self._times = np.empty(16, dtype=np.int64)
        self._values = np.empty(16, dtype=np.float64)
        self._len = 0
        #: Bumped on every append/extend; read memos key on it, so a
        #: stale cached aggregate can never be served after new data
        #: lands.
        self.version = 0

    def __len__(self) -> int:
        return self._len

    @property
    def times(self) -> np.ndarray:
        """View of the recorded timestamps (do not mutate)."""
        return self._times[: self._len]

    @property
    def values(self) -> np.ndarray:
        """View of the recorded values (do not mutate)."""
        return self._values[: self._len]

    def _reserve(self, extra: int) -> None:
        need = self._len + extra
        capacity = self._times.shape[0]
        if need <= capacity:
            return
        while capacity < need:
            capacity *= 2
        times = np.empty(capacity, dtype=np.int64)
        values = np.empty(capacity, dtype=np.float64)
        times[: self._len] = self._times[: self._len]
        values[: self._len] = self._values[: self._len]
        self._times = times
        self._values = values

    def append(self, t: int, value: float) -> None:
        n = self._len
        if n and t < self._times[n - 1]:
            raise MonitoringError(
                f"metric datapoints must be time-ordered: "
                f"got t={t} after t={int(self._times[n - 1])}"
            )
        self._reserve(1)
        self._times[n] = t
        self._values[n] = value
        self._len = n + 1
        self.version += 1

    def extend(self, times: np.ndarray, values: np.ndarray) -> None:
        """Append a whole batch; one version bump.

        The caller (:meth:`SimCloudWatch._land`) hands in
        columns :meth:`SimCloudWatch.put_metric_data_batch` already
        validated as flat, equal-length and time-ordered after this
        series' tail, so they are written straight into the reserved
        tail.
        """
        n = self._len
        end = n + len(times)
        if end > self._times.shape[0]:
            self._reserve(end - n)
        self._times[n:end] = times
        self._values[n:end] = values
        self._len = end
        self.version += 1

    def locate(self, start: int, end: int) -> tuple[int, int]:
        """Index range ``[lo, hi)`` of datapoints with start < t <= end."""
        t = self._times[: self._len]
        return (
            int(np.searchsorted(t, start, side="right")),
            int(np.searchsorted(t, end, side="right")),
        )

    def window(self, start: int, end: int) -> list[float]:
        """Values with start < t <= end (CloudWatch-style right-closed)."""
        lo, hi = self.locate(start, end)
        return self._values[lo:hi].tolist()


class SimCloudWatch:
    """Namespaced metric store with period aggregation and alarms."""

    def __init__(self) -> None:
        self._series: dict[tuple[str, str, tuple[tuple[str, str], ...]], _Series] = defaultdict(
            _Series
        )
        self._alarms: list[MetricAlarm] = []
        # Per-series read memo: series key -> [version, {request: result}].
        # Entries are discarded wholesale when the series version moves,
        # so the memo holds at most one control period's worth of
        # distinct read shapes per series.
        self._read_memo: dict[tuple, list] = {}
        #: Deferred batch writes per series group (one service's span
        #: metrics): an open group is ``[series, blocks, tail]``, its
        #: members, its validated ``(times, block)`` pairs not landed
        #: yet and their newest time. A read lands the group of the
        #: series it reads, so readers see exactly what an eager store
        #: would hold; any other write to a member closes the group, so
        #: an open group's tail is each member's own. ``_group_of`` maps
        #: a series key to the group that last opened it.
        self._groups: dict[tuple, list] = {}
        self._group_of: dict[tuple, tuple] = {}
        self._times_source: object = None
        self._times_checked: np.ndarray | None = None
        # Monitoring-layer fault injection (chaos harness). A metric
        # delay makes sensors query a window ending ``delay`` seconds in
        # the past; a dropout makes sensor reads return no data at all.
        # Both affect only sensor *reads* — datapoints keep landing, so
        # recovery is instant when the fault clears.
        self.sensor_delay_seconds = 0
        self.sensor_dropout = False

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def put_metric_data(
        self,
        namespace: str,
        metric_name: str,
        value: float,
        timestamp: int,
        dimensions: dict[str, str] | None = None,
    ) -> None:
        """Record one datapoint. Timestamps must be non-decreasing per series."""
        key = (namespace, metric_name, _dimension_key(dimensions))
        if self._groups:
            self._close(self._group_of.get(key))
        self._series[key].append(timestamp, value)

    def put_metric_data_batch(
        self,
        namespace: str,
        metric_names: tuple[str, ...],
        times: Sequence[int],
        rows: Sequence[Sequence[float]],
        dimensions: dict[str, str] | None = None,
    ) -> None:
        """Record a span of datapoints for a group of series in one call.

        This is the columnar write path for span execution: one service's
        per-tick measurements over a span, one row per name in
        ``metric_names``, all over the shared ``times`` column. The batch
        is validated here (so a bad batch fails at the call that made
        it, and leaves every series as it was) and buffered as one
        ``(names, ticks)`` block until any series of the group is next
        read, when the whole group lands. Batch order is append order —
        identical to issuing the scalar puts one at a time — so reads and
        memo semantics are unchanged. The store keeps the times column
        it is handed: callers must not mutate it afterwards.
        """
        metric_names = tuple(metric_names)
        count = len(times)
        try:
            lengths = [len(row) for row in rows]
            if len(lengths) != len(metric_names) or lengths.count(count) != len(lengths):
                raise MonitoringError(
                    f"batch needs one row of {count} datapoints per metric name, got "
                    f"{len(metric_names)} names and rows of lengths {lengths}"
                )
            times = self._times_column(times)
            block = np.asarray(rows, dtype=np.float64)
            if block.ndim != 2:
                raise ValueError(f"rows have shape {block.shape}")
        except (ValueError, TypeError) as exc:
            raise MonitoringError(
                f"batch times/rows must be flat numeric columns: {exc}"
            ) from None
        group = (namespace, metric_names, _dimension_key(dimensions))
        entry = self._groups.get(group)
        if entry is None:
            entry = self._open(group, times[0] if count else None)
        if not count:
            return
        tail = entry[2]
        if tail is not None and times[0] < tail:
            raise MonitoringError(
                f"metric datapoints must be time-ordered: "
                f"got t={int(times[0])} after t={int(tail)}"
            )
        entry[1].append((times, block))
        entry[2] = times[-1]

    def _open(self, group: tuple, first) -> list:
        """Open ``group``, closing any other group holding one of its
        series; ``first`` (``None`` for an empty batch) is checked
        against each member's own tail before any series is created."""
        namespace, metric_names, dims = group
        if len(set(metric_names)) != len(metric_names):
            raise MonitoringError(f"batch metric names must be distinct, got {metric_names}")
        keys = [(namespace, name, dims) for name in metric_names]
        tail = None
        for key in keys:
            self._close(self._group_of.get(key))
            series = self._series.get(key)
            if series is not None and series._len:
                last = series._times[series._len - 1]
                if first is not None and first < last:
                    raise MonitoringError(
                        f"metric datapoints must be time-ordered: got "
                        f"t={int(first)} after t={int(last)} in {key[0]}/{key[1]}"
                    )
                if tail is None or last > tail:
                    tail = last
        # Touching the defaultdict creates the (empty) series eagerly,
        # so existence checks and list_metrics behave as if the batch
        # had landed.
        entry = self._groups[group] = [[self._series[key] for key in keys], [], tail]
        for key in keys:
            self._group_of[key] = group
        return entry

    def _close(self, group: tuple | None) -> None:
        """Land ``group``'s blocks and close it (no-op if not open)."""
        entry = self._groups.pop(group, None)
        if entry is not None:
            self._land(entry)

    def _times_column(self, times: Sequence[int]) -> np.ndarray:
        """``times`` as a flat, time-ordered ``int64`` column.

        A flow writes every service's block of one span over the same
        times column, so the last column checked is memoized by identity
        and the conversion and ordering check run once per commit, not
        once per service.
        """
        if times is self._times_source:
            return self._times_checked
        column = np.asarray(times, dtype=np.int64)
        if column.ndim != 1:
            raise ValueError(f"times have shape {column.shape}")
        if len(column) > 1:
            disordered = column[1:] < column[:-1]
            if disordered.any():
                i = int(np.nonzero(disordered)[0][0])
                raise MonitoringError(
                    f"metric datapoints must be time-ordered: "
                    f"got t={int(column[i + 1])} after t={int(column[i])}"
                )
        self._times_source = times
        self._times_checked = column
        return column

    def flush_pending(self, key: tuple | None = None) -> None:
        """Land deferred batch writes (no-op when nothing is pending).

        With ``key``, only the group holding that series lands — the
        read paths use this so a sensor polling one service's metric
        does not land every other group mid-run.
        """
        if key is None:
            for entry in self._groups.values():
                self._land(entry)
            return
        entry = self._groups.get(self._group_of.get(key))
        if entry is not None:
            self._land(entry)

    @staticmethod
    def _land(entry: list) -> None:
        """Append an open group's blocks to its series, in put order,
        one :meth:`_Series.extend` per series, and drop the blocks."""
        members, parts = entry[0], entry[1]
        if not parts:
            return
        entry[1] = []
        if len(parts) == 1:
            times, block = parts[0]
        else:
            times = np.concatenate([part[0] for part in parts])
            block = np.concatenate([part[1] for part in parts], axis=1)
        for series, row in zip(members, block):
            series.extend(times, row)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def list_metrics(self, namespace: str | None = None) -> list[tuple[str, str]]:
        """Return (namespace, metric_name) pairs, optionally filtered."""
        seen: dict[tuple[str, str], None] = {}
        for ns, name, _dims in self._series:
            if namespace is not None and ns != namespace:
                continue
            seen[(ns, name)] = None
        return list(seen)

    def get_metric_statistics(
        self,
        namespace: str,
        metric_name: str,
        start: int,
        end: int,
        period: int,
        statistic: str = "Average",
        dimensions: dict[str, str] | None = None,
    ) -> list[tuple[int, float]]:
        """Aggregate a metric into fixed periods.

        Returns ``(period_end, value)`` pairs for every period in
        ``(start, end]`` that contains at least one datapoint. Periods
        are right-aligned on ``end``: the latest period covers
        ``(end - period, end]``.

        Cost is one O(log n) window location plus a single left-to-right
        pass over the located slice, regardless of how many periods the
        range spans.
        """
        if period <= 0:
            raise MonitoringError(f"period must be positive, got {period}")
        if end <= start:
            raise MonitoringError(f"end ({end}) must be after start ({start})")
        validate_statistic(statistic)
        key = (namespace, metric_name, _dimension_key(dimensions))
        series = self._get_series_by_key(key, namespace, metric_name, dimensions)
        memo = self._memo_for(key, series)
        request = (start, end, period, statistic)
        cached = memo.get(request)
        if cached is not None:
            return list(cached)
        results: list[tuple[int, float]] = []
        lo, hi = series.locate(start, end)
        # Materialize the located slice as builtin ints/floats once:
        # aggregation then never sees numpy scalars.
        times = series.times[lo:hi].tolist()
        values = series.values[lo:hi].tolist()
        i, n = 0, hi - lo
        while i < n:
            # Right-aligned period containing times[i]: boundaries sit
            # at end - k*period, and the bucket is right-closed.
            period_end = end - (end - times[i]) // period * period
            j = bisect_right(times, period_end, i, n)
            results.append((period_end, _aggregate(values[i:j], statistic)))
            i = j
        memo[request] = results
        return list(results)

    def get_metric_value(
        self,
        namespace: str,
        metric_name: str,
        now: int,
        window: int,
        statistic: str = "Average",
        dimensions: dict[str, str] | None = None,
        default: float | None = None,
    ) -> float:
        """Single aggregated value over the trailing ``window`` seconds.

        This is what Flower's sensor module calls: one statistic over
        the monitoring window ending at ``now``. Raises if the window is
        empty and no ``default`` is given.
        """
        validate_statistic(statistic)
        key = (namespace, metric_name, _dimension_key(dimensions))
        if self._groups:
            self.flush_pending(key)
        if key not in self._series:
            if default is None:
                self._raise_unknown(namespace, metric_name, dimensions)
            return default
        series = self._series[key]
        memo = self._memo_for(key, series)
        request = (now - window, now, None, statistic)
        cached = memo.get(request)
        if cached is None:
            values = series.window(now - window, now)
            cached = _aggregate(values, statistic) if values else _EMPTY_WINDOW
            memo[request] = cached
        if cached is _EMPTY_WINDOW:
            if default is None:
                raise MonitoringError(
                    f"no datapoints for {namespace}/{metric_name} in ({now - window}, {now}]"
                )
            return default
        return cached

    def get_series(
        self,
        namespace: str,
        metric_name: str,
        dimensions: dict[str, str] | None = None,
    ) -> tuple[list[int], list[float]]:
        """Raw (times, values) of a metric series (copies)."""
        series = self._get_series(namespace, metric_name, dimensions)
        return series.times.tolist(), series.values.tolist()

    def _memo_for(self, key: tuple, series: _Series) -> dict:
        """The read memo for ``key``, reset whenever the series grows."""
        entry = self._read_memo.get(key)
        if entry is None or entry[0] != series.version:
            entry = [series.version, {}]
            self._read_memo[key] = entry
        return entry[1]

    def _get_series(
        self,
        namespace: str,
        metric_name: str,
        dimensions: dict[str, str] | None,
        allow_missing: bool = False,
    ) -> _Series | None:
        key = (namespace, metric_name, _dimension_key(dimensions))
        if self._groups:
            self.flush_pending(key)
        if key not in self._series:
            if allow_missing:
                return None
            self._raise_unknown(namespace, metric_name, dimensions)
        return self._series[key]

    def _get_series_by_key(
        self,
        key: tuple,
        namespace: str,
        metric_name: str,
        dimensions: dict[str, str] | None,
    ) -> _Series:
        if self._groups:
            self.flush_pending(key)
        if key not in self._series:
            self._raise_unknown(namespace, metric_name, dimensions)
        return self._series[key]

    def _raise_unknown(
        self, namespace: str, metric_name: str, dimensions: dict[str, str] | None
    ) -> None:
        known = ", ".join(f"{ns}/{name}" for ns, name in self.list_metrics()) or "<none>"
        raise MonitoringError(
            f"unknown metric {namespace}/{metric_name} "
            f"(dimensions={dict(_dimension_key(dimensions))}); known metrics: {known}"
        )

    # ------------------------------------------------------------------
    # Alarms
    # ------------------------------------------------------------------
    def put_alarm(self, alarm: "MetricAlarm") -> None:
        """Register an alarm; it is evaluated by :meth:`evaluate_alarms`."""
        self._alarms.append(alarm)

    @property
    def alarms(self) -> list["MetricAlarm"]:
        return list(self._alarms)

    def evaluate_alarms(self, now: int) -> list["MetricAlarm"]:
        """Evaluate all alarms at ``now``; return those in ALARM state."""
        return [alarm for alarm in self._alarms if alarm.evaluate(self, now) == "ALARM"]


_COMPARATORS: dict[str, Callable[[float, float], bool]] = {
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
}


@dataclass
class MetricAlarm:
    """Threshold alarm over an aggregated metric, CloudWatch-style.

    The alarm goes to ALARM only when the statistic breaches the
    threshold for ``evaluation_periods`` consecutive periods, which is
    exactly the "rule-based techniques that quickly trigger in response
    to predefined threshold violations" the paper contrasts Flower with.

    Co-located alarms — several alarms (or an alarm plus a sensor) over
    the same series, window and statistic — aggregate once per control
    period: the store memoizes reads per series version, so evaluation
    cost does not multiply with the number of watchers.
    """

    name: str
    namespace: str
    metric_name: str
    threshold: float
    comparison: str = ">"
    statistic: str = "Average"
    period: int = 60
    evaluation_periods: int = 1
    dimensions: dict[str, str] | None = None
    on_alarm: Callable[[int], None] | None = None
    on_ok: Callable[[int], None] | None = None
    state: str = field(default="INSUFFICIENT_DATA", init=False)

    def __post_init__(self) -> None:
        if self.comparison not in _COMPARATORS:
            raise MonitoringError(
                f"alarm {self.name!r}: comparison must be one of {sorted(_COMPARATORS)}"
            )
        if self.evaluation_periods <= 0:
            raise MonitoringError(f"alarm {self.name!r}: evaluation_periods must be positive")
        validate_statistic(self.statistic)

    def evaluate(self, cloudwatch: SimCloudWatch, now: int) -> str:
        """Re-evaluate state at ``now`` and fire transition callbacks."""
        window = self.period * self.evaluation_periods
        try:
            datapoints = cloudwatch.get_metric_statistics(
                self.namespace, self.metric_name, now - window, now,
                self.period, self.statistic, self.dimensions,
            )
        except MonitoringError:
            # The metric has never been written: insufficient data, not
            # an error — services may emit their first datapoint after
            # the alarm is created, as in real CloudWatch.
            datapoints = []
        previous = self.state
        if len(datapoints) < self.evaluation_periods:
            self.state = "INSUFFICIENT_DATA"
        else:
            compare = _COMPARATORS[self.comparison]
            breached = all(compare(value, self.threshold) for _t, value in datapoints)
            self.state = "ALARM" if breached else "OK"
        if self.state != previous:
            if self.state == "ALARM" and self.on_alarm is not None:
                self.on_alarm(now)
            elif self.state == "OK" and self.on_ok is not None:
                self.on_ok(now)
        return self.state
