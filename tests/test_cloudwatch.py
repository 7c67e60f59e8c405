"""Unit tests for the simulated CloudWatch metric store and alarms."""

import numpy as np
import pytest

from repro.cloud import SUPPORTED_STATISTICS, MetricAlarm, SimCloudWatch, validate_statistic
from repro.cloud.cloudwatch import _aggregate
from repro.core.errors import MonitoringError


@pytest.fixture
def cw():
    return SimCloudWatch()


def _fill(cw, values, namespace="NS", metric="M", start=1, step=1, dims=None):
    for i, v in enumerate(values):
        cw.put_metric_data(namespace, metric, v, start + i * step, dims)


class TestPutAndGet:
    def test_raw_series_roundtrip(self, cw):
        _fill(cw, [1.0, 2.0, 3.0])
        times, values = cw.get_series("NS", "M")
        assert times == [1, 2, 3]
        assert values == [1.0, 2.0, 3.0]

    def test_rejects_time_regression(self, cw):
        cw.put_metric_data("NS", "M", 1.0, 10)
        with pytest.raises(MonitoringError):
            cw.put_metric_data("NS", "M", 2.0, 5)

    def test_same_timestamp_allowed(self, cw):
        cw.put_metric_data("NS", "M", 1.0, 10)
        cw.put_metric_data("NS", "M", 2.0, 10)
        assert cw.get_series("NS", "M")[1] == [1.0, 2.0]

    def test_dimensions_separate_series(self, cw):
        cw.put_metric_data("NS", "M", 1.0, 1, {"Stream": "a"})
        cw.put_metric_data("NS", "M", 9.0, 1, {"Stream": "b"})
        assert cw.get_series("NS", "M", {"Stream": "a"})[1] == [1.0]
        assert cw.get_series("NS", "M", {"Stream": "b"})[1] == [9.0]

    def test_unknown_metric_raises_with_known_list(self, cw):
        cw.put_metric_data("NS", "M", 1.0, 1)
        with pytest.raises(MonitoringError, match="NS/M"):
            cw.get_series("NS", "Nope")

    def test_list_metrics_filters_by_namespace(self, cw):
        cw.put_metric_data("A", "x", 1.0, 1)
        cw.put_metric_data("B", "y", 1.0, 1)
        assert cw.list_metrics("A") == [("A", "x")]
        assert set(cw.list_metrics()) == {("A", "x"), ("B", "y")}


class TestStatistics:
    def test_average_per_period(self, cw):
        _fill(cw, [10.0, 20.0, 30.0, 40.0])  # t=1..4
        stats = cw.get_metric_statistics("NS", "M", 0, 4, period=2)
        assert stats == [(2, 15.0), (4, 35.0)]

    def test_sum_max_min_count(self, cw):
        _fill(cw, [1.0, 2.0, 3.0])
        assert cw.get_metric_statistics("NS", "M", 0, 3, 3, "Sum") == [(3, 6.0)]
        assert cw.get_metric_statistics("NS", "M", 0, 3, 3, "Maximum") == [(3, 3.0)]
        assert cw.get_metric_statistics("NS", "M", 0, 3, 3, "Minimum") == [(3, 1.0)]
        assert cw.get_metric_statistics("NS", "M", 0, 3, 3, "SampleCount") == [(3, 3.0)]

    def test_percentile_statistic(self, cw):
        _fill(cw, [float(v) for v in range(1, 101)])
        stats = cw.get_metric_statistics("NS", "M", 0, 100, 100, "p50")
        assert stats[0][1] == pytest.approx(50.5)

    def test_windows_are_right_closed(self, cw):
        _fill(cw, [1.0, 2.0])  # t=1, t=2
        # Period (0, 1] contains t=1 only.
        stats = cw.get_metric_statistics("NS", "M", 0, 2, period=1)
        assert stats == [(1, 1.0), (2, 2.0)]

    def test_empty_periods_are_omitted(self, cw):
        cw.put_metric_data("NS", "M", 5.0, 10)
        stats = cw.get_metric_statistics("NS", "M", 0, 30, period=10)
        assert stats == [(10, 5.0)]

    def test_rejects_bad_period_and_range(self, cw):
        _fill(cw, [1.0])
        with pytest.raises(MonitoringError):
            cw.get_metric_statistics("NS", "M", 0, 10, period=0)
        with pytest.raises(MonitoringError):
            cw.get_metric_statistics("NS", "M", 10, 10, period=1)

    def test_get_metric_value_with_default(self, cw):
        assert cw.get_metric_value("NS", "Missing", now=10, window=10, default=7.0) == 7.0

    def test_get_metric_value_without_default_raises(self, cw):
        with pytest.raises(MonitoringError):
            cw.get_metric_value("NS", "Missing", now=10, window=10)

    def test_get_metric_value_window(self, cw):
        _fill(cw, [1.0, 2.0, 3.0, 4.0])  # t=1..4
        # Window (2, 4] -> values 3, 4.
        assert cw.get_metric_value("NS", "M", now=4, window=2) == 3.5


def _brute_window(times, values, start, end):
    """The seed implementation's full-scan filter: start < t <= end."""
    return [v for t, v in zip(times, values) if start < t <= end]


def _brute_statistics(times, values, start, end, period, statistic):
    """The seed implementation: one full re-scan per candidate period."""
    results = []
    period_end = end
    while period_end > start:
        period_start = max(period_end - period, start)
        window = _brute_window(times, values, period_start, period_end)
        if window:
            results.append((period_end, _aggregate(window, statistic)))
        period_end -= period
    results.reverse()
    return results


class TestWindowBoundaries:
    """Right-closed ``(start, end]`` semantics at exact tick boundaries."""

    def test_start_boundary_excluded_end_included(self, cw):
        _fill(cw, [1.0, 2.0, 3.0, 4.0])  # t=1..4
        # (1, 3]: t=1 is on the start boundary and must be excluded;
        # t=3 is on the end boundary and must be included.
        assert cw.get_metric_value("NS", "M", now=3, window=2) == pytest.approx(2.5)
        assert cw.get_metric_statistics("NS", "M", 1, 3, 2) == [(3, 2.5)]

    def test_duplicate_timestamps_on_boundary(self, cw):
        for v in (1.0, 2.0, 3.0):
            cw.put_metric_data("NS", "M", v, 10)
        cw.put_metric_data("NS", "M", 9.0, 11)
        # All three t=10 points sit on the end boundary of (0, 10].
        assert cw.get_metric_value("NS", "M", now=10, window=10, statistic="Sum") == 6.0
        # ...and on the (excluded) start boundary of (10, 11].
        assert cw.get_metric_value("NS", "M", now=11, window=1, statistic="Sum") == 9.0

    def test_empty_window_default_with_existing_series(self, cw):
        _fill(cw, [1.0, 2.0])  # t=1, t=2
        # The series exists but the window (5, 10] is empty.
        assert cw.get_metric_value("NS", "M", now=10, window=5, default=-1.0) == -1.0
        with pytest.raises(MonitoringError, match=r"\(5, 10\]"):
            cw.get_metric_value("NS", "M", now=10, window=5)

    def test_single_datapoint_percentile(self, cw):
        cw.put_metric_data("NS", "M", 42.0, 1)
        for stat in ("p0", "p50", "p99", "p100"):
            assert cw.get_metric_value("NS", "M", now=1, window=1, statistic=stat) == 42.0
        assert cw.get_metric_statistics("NS", "M", 0, 1, 1, "p99") == [(1, 42.0)]


class TestBisectAgainstBruteForce:
    """The O(log n) fast path must equal the seed full-scan bit for bit."""

    def test_randomized_windows(self, cw):
        rng = np.random.default_rng(1234)
        steps = rng.integers(0, 3, size=400)  # duplicates and gaps
        times = np.cumsum(steps).tolist()
        values = rng.normal(50.0, 20.0, size=400).tolist()
        for t, v in zip(times, values):
            cw.put_metric_data("NS", "M", v, int(t))
        horizon = int(times[-1])
        for _ in range(200):
            a, b = sorted(rng.integers(-5, horizon + 5, size=2))
            if a == b:
                b += 1
            got = cw.get_series("NS", "M")
            window = cw._series[("NS", "M", ())].window(int(a), int(b))
            assert window == _brute_window(got[0], got[1], a, b)

    @pytest.mark.parametrize("statistic", ["Average", "Sum", "Maximum", "Minimum",
                                           "SampleCount", "p50", "p99"])
    def test_randomized_period_aggregation(self, statistic):
        rng = np.random.default_rng(987)
        cw = SimCloudWatch()
        times = np.cumsum(rng.integers(0, 4, size=300)).tolist()
        values = rng.uniform(0.0, 100.0, size=300).tolist()
        for t, v in zip(times, values):
            cw.put_metric_data("NS", "M", v, int(t))
        horizon = int(times[-1])
        for _ in range(60):
            a, b = sorted(int(x) for x in rng.integers(-3, horizon + 3, size=2))
            if a == b:
                b += 1
            period = int(rng.integers(1, 50))
            got = cw.get_metric_statistics("NS", "M", a, b, period, statistic)
            want = _brute_statistics(times, values, a, b, period, statistic)
            assert got == want  # bit-exact, not approx


class TestReadMemo:
    def test_memo_never_serves_stale_data(self, cw):
        _fill(cw, [10.0, 20.0])  # t=1, t=2
        assert cw.get_metric_value("NS", "M", now=2, window=2) == 15.0
        cw.put_metric_data("NS", "M", 90.0, 2)  # same timestamp, new data
        assert cw.get_metric_value("NS", "M", now=2, window=2) == 40.0
        assert cw.get_metric_statistics("NS", "M", 0, 2, 2) == [(2, 40.0)]
        cw.put_metric_data("NS", "M", 100.0, 3)
        assert cw.get_metric_statistics("NS", "M", 0, 3, 3) == [(3, 55.0)]

    def test_memoized_statistics_are_copies(self, cw):
        _fill(cw, [1.0, 2.0])
        first = cw.get_metric_statistics("NS", "M", 0, 2, 1)
        first.append((99, 99.0))  # a caller mutating its result...
        second = cw.get_metric_statistics("NS", "M", 0, 2, 1)
        assert second == [(1, 1.0), (2, 2.0)]  # ...must not poison the memo

    def test_empty_window_is_memoized_per_version(self, cw):
        _fill(cw, [1.0], start=1)
        assert cw.get_metric_value("NS", "M", now=10, window=2, default=0.0) == 0.0
        cw.put_metric_data("NS", "M", 7.0, 9)
        assert cw.get_metric_value("NS", "M", now=10, window=2, default=0.0) == 7.0


class TestStatisticValidation:
    def test_named_statistics_accepted(self):
        for stat in SUPPORTED_STATISTICS:
            assert validate_statistic(stat) == stat

    def test_percentiles_accepted(self):
        for stat in ("p0", "p50", "p99", "p99.9", "p100"):
            assert validate_statistic(stat) == stat

    def test_bad_statistics_rejected(self):
        for stat in ("Mean", "avg", "p101", "p-1", "pfoo", ""):
            with pytest.raises(MonitoringError):
                validate_statistic(stat)

    def test_malformed_percentiles_rejected(self):
        """Regression: ``float()`` accepts far more than CloudWatch's
        ``pNN[.N]`` grammar — whitespace, signs, underscores, exponents
        and ``nan`` must all be rejected, not parsed."""
        for stat in (
            "p 50", "p50 ", "p+50", "p-0", "p1_0", "p1e1", "pnan", "pinf",
            "p0x10", "p50.", "p.5", "p50.5.5", "p1234", "p100.1",
        ):
            with pytest.raises(MonitoringError):
                validate_statistic(stat)

    def test_percentile_boundaries_accepted(self):
        for stat in ("p0", "p0.0", "p100", "p100.0", "p99.999"):
            assert validate_statistic(stat) == stat

    def test_get_metric_statistics_rejects_unknown_statistic(self, cw):
        _fill(cw, [1.0])
        with pytest.raises(MonitoringError, match="unsupported statistic"):
            cw.get_metric_statistics("NS", "M", 0, 1, 1, "Median")

    def test_alarm_rejects_bad_statistic_at_construction(self):
        with pytest.raises(MonitoringError, match="percentile"):
            MetricAlarm("a", "NS", "M", threshold=1.0, statistic="p200")

    def test_alarm_accepts_percentile_statistic(self, cw):
        alarm = MetricAlarm("tail", "NS", "M", threshold=90.0, statistic="p99", period=10)
        cw.put_alarm(alarm)
        _fill(cw, [95.0] * 10)  # t=1..10
        assert alarm.evaluate(cw, 10) == "ALARM"


class TestAlarms:
    def test_alarm_fires_after_evaluation_periods(self, cw):
        fired = []
        alarm = MetricAlarm(
            name="high", namespace="NS", metric_name="M", threshold=50.0,
            comparison=">", period=1, evaluation_periods=2, on_alarm=fired.append,
        )
        cw.put_alarm(alarm)
        _fill(cw, [60.0, 40.0, 70.0, 80.0])  # t=1..4
        assert alarm.evaluate(cw, 2) == "OK"  # 60, 40 -> not all above
        assert alarm.evaluate(cw, 4) == "ALARM"  # 70, 80
        assert fired == [4]

    def test_insufficient_data_state(self, cw):
        alarm = MetricAlarm("a", "NS", "M", threshold=1.0, period=1, evaluation_periods=3)
        cw.put_metric_data("NS", "M", 5.0, 1)
        assert alarm.evaluate(cw, 1) == "INSUFFICIENT_DATA"

    def test_alarm_with_no_data_yet_is_insufficient(self, cw):
        # The metric was never written: no data, not an error.
        alarm = MetricAlarm("empty", "NS", "Ghost", threshold=1.0, period=60)
        assert alarm.evaluate(cw, 60) == "INSUFFICIENT_DATA"

    def test_ok_callback_on_recovery(self, cw):
        recovered = []
        alarm = MetricAlarm(
            "a", "NS", "M", threshold=50.0, comparison=">",
            period=1, evaluation_periods=1, on_ok=recovered.append,
        )
        _fill(cw, [60.0, 10.0])
        assert alarm.evaluate(cw, 1) == "ALARM"
        assert alarm.evaluate(cw, 2) == "OK"
        assert recovered == [2]

    def test_evaluate_alarms_returns_breaching(self, cw):
        a1 = MetricAlarm("hot", "NS", "M", threshold=5.0, comparison=">", period=1)
        a2 = MetricAlarm("cold", "NS", "M", threshold=100.0, comparison=">", period=1)
        cw.put_alarm(a1)
        cw.put_alarm(a2)
        cw.put_metric_data("NS", "M", 50.0, 1)
        breaching = cw.evaluate_alarms(1)
        assert breaching == [a1]

    def test_rejects_bad_comparison(self):
        with pytest.raises(MonitoringError):
            MetricAlarm("a", "NS", "M", threshold=1.0, comparison="!=")

    def test_rejects_bad_evaluation_periods(self):
        with pytest.raises(MonitoringError):
            MetricAlarm("a", "NS", "M", threshold=1.0, evaluation_periods=0)


class TestGroupedBatchWrites:
    """``put_metric_data_batch`` writes a group of series in one call:
    one shared times column, one row per metric name."""

    NAMES = ("A", "B")

    def test_names_rows_count_mismatch_rejected(self, cw):
        with pytest.raises(MonitoringError, match=r"2 names and rows of lengths \[2\]"):
            cw.put_metric_data_batch("NS", self.NAMES, [1, 2], ([1.0, 2.0],))

    def test_row_length_mismatch_rejected(self, cw):
        with pytest.raises(
            MonitoringError, match=r"one row of 2 datapoints .* rows of lengths \[2, 3\]"
        ):
            cw.put_metric_data_batch("NS", self.NAMES, [1, 2], ([1.0, 2.0], [1.0, 2.0, 3.0]))

    def test_non_flat_rows_rejected(self, cw):
        with pytest.raises(MonitoringError, match=r"flat numeric columns: rows have shape \(2, 2, 1\)"):
            cw.put_metric_data_batch("NS", self.NAMES, [1, 2], ([[1.0], [2.0]], [[3.0], [4.0]]))
        with pytest.raises(MonitoringError, match="flat numeric columns"):
            cw.put_metric_data_batch("NS", self.NAMES, [1], (1.0, 2.0))
        assert cw.list_metrics() == []

    def test_duplicate_names_rejected(self, cw):
        with pytest.raises(MonitoringError, match="distinct"):
            cw.put_metric_data_batch("NS", ("A", "A"), [1], ([1.0], [2.0]))

    def test_order_checked_after_an_earlier_group_write(self, cw):
        cw.put_metric_data_batch("NS", self.NAMES, [1, 3], ([1.0, 2.0], [3.0, 4.0]))
        cw.put_metric_data_batch("NS", self.NAMES, [3, 4], ([5.0, 6.0], [7.0, 8.0]))
        with pytest.raises(MonitoringError, match="got t=2 after t=4"):
            cw.put_metric_data_batch("NS", self.NAMES, [2], ([0.0], [0.0]))

    def test_order_checked_after_a_scalar_put(self, cw):
        cw.put_metric_data_batch("NS", self.NAMES, [1, 2], ([1.0, 2.0], [3.0, 4.0]))
        cw.put_metric_data("NS", "B", 9.0, 5)
        with pytest.raises(MonitoringError, match="got t=4 after t=5 in NS/B"):
            cw.put_metric_data_batch("NS", self.NAMES, [4], ([0.0], [0.0]))
        # The scalar put is checked against the group's datapoints too.
        with pytest.raises(MonitoringError, match="got t=1 after t=2"):
            cw.put_metric_data("NS", "A", 0.0, 1)
        cw.put_metric_data_batch("NS", self.NAMES, [5], ([0.5], [9.5]))
        assert cw.get_series("NS", "B") == ([1, 2, 5, 5], [3.0, 4.0, 9.0, 9.5])

    def test_order_checked_after_a_flush(self, cw):
        cw.put_metric_data_batch("NS", self.NAMES, [1, 2], ([1.0, 2.0], [3.0, 4.0]))
        assert cw.get_metric_value("NS", "A", now=2, window=2) == 1.5
        with pytest.raises(MonitoringError, match="got t=1 after t=2"):
            cw.put_metric_data_batch("NS", self.NAMES, [1], ([0.0], [0.0]))
        cw.flush_pending()
        with pytest.raises(MonitoringError, match="got t=0 after t=2"):
            cw.put_metric_data_batch("NS", self.NAMES, [0], ([0.0], [0.0]))

    def test_order_checked_across_overlapping_groups(self, cw):
        cw.put_metric_data_batch("NS", ("A", "B"), [1, 5], ([1.0, 2.0], [3.0, 4.0]))
        with pytest.raises(MonitoringError, match="got t=3 after t=5 in NS/B"):
            cw.put_metric_data_batch("NS", ("B", "C"), [3], ([0.0], [0.0]))
        assert ("NS", "C") not in cw.list_metrics()
        cw.put_metric_data_batch("NS", ("B", "C"), [6], ([7.0], [8.0]))
        assert cw.get_series("NS", "B") == ([1, 5, 6], [3.0, 4.0, 7.0])
        assert cw.get_series("NS", "A") == ([1, 5], [1.0, 2.0])

    def test_rejected_batch_leaves_every_series_intact(self, cw):
        cw.put_metric_data_batch("NS", self.NAMES, [1, 2], ([1.0, 2.0], [3.0, 4.0]))
        cw.put_metric_data_batch("NS", self.NAMES, [3], ([5.0], [6.0]))
        for bad in (
            ([2], ([0.0], [0.0])),            # before the group's tail
            ([4, 3], ([0.0, 0.0], [0.0, 0.0])),  # disordered
            ([4], ([0.0],)),                  # a row short
            ([4], ([0.0], ["x"])),            # not numeric
        ):
            with pytest.raises(MonitoringError):
                cw.put_metric_data_batch("NS", self.NAMES, *bad)
        assert cw.get_series("NS", "A") == ([1, 2, 3], [1.0, 2.0, 5.0])
        assert cw.get_series("NS", "B") == ([1, 2, 3], [3.0, 4.0, 6.0])

    def test_read_of_one_member_lands_the_whole_group(self, cw):
        cw.put_metric_data_batch("NS", ("A", "B", "C"), [1, 2], ([1.0, 2.0],) * 3)
        cw.put_metric_data_batch("NS", ("A", "B", "C"), [3], ([3.0],) * 3)
        cw.put_metric_data_batch("NS", ("D",), [1], ([4.0],))
        stored = {name: len(cw._series[("NS", name, ())]) for name in "ABCD"}
        assert stored == {"A": 0, "B": 0, "C": 0, "D": 0}
        assert cw.get_metric_value("NS", "B", now=3, window=3, statistic="Sum") == 6.0
        stored = {name: len(cw._series[("NS", name, ())]) for name in "ABCD"}
        assert stored == {"A": 3, "B": 3, "C": 3, "D": 0}
        # No block outlives its landing.
        assert cw._groups[("NS", ("A", "B", "C"), ())][1] == []

    def test_randomized_interleaving_matches_an_eager_store(self):
        """Group writes, scalar puts and reads in random order read back
        value for value what a store of eager scalar appends holds."""
        rng = np.random.default_rng(2024)
        cw = SimCloudWatch()
        groups = [("A", "B", "C"), ("C", "D"), ("D",), ("E", "A")]
        names = sorted({name for group in groups for name in group})
        eager = {name: ([], []) for name in names}
        t = 0
        for _ in range(600):
            op = rng.integers(0, 4)
            if op == 0:
                group = groups[rng.integers(0, len(groups))]
                count = int(rng.integers(0, 6))
                times = (t + np.cumsum(rng.integers(0, 2, size=count))).tolist()
                rows = [rng.normal(0.0, 10.0, size=count).tolist() for _ in group]
                tails = [eager[name][0][-1] for name in group if eager[name][0]]
                if count and tails and rng.random() < 0.1:
                    # Before some member's tail: rejected, nothing moves.
                    late = [max(tails) - 1] + times[1:]
                    with pytest.raises(MonitoringError, match="time-ordered"):
                        cw.put_metric_data_batch("NS", group, late, rows)
                    continue
                cw.put_metric_data_batch("NS", group, times, rows)
                for name, row in zip(group, rows):
                    eager[name][0].extend(times)
                    eager[name][1].extend(row)
                if count:
                    t = times[-1]
            elif op == 1:
                name = names[rng.integers(0, len(names))]
                t += int(rng.integers(0, 2))
                value = float(rng.normal())
                cw.put_metric_data("NS", name, value, t)
                eager[name][0].append(t)
                eager[name][1].append(value)
            else:
                name = names[rng.integers(0, len(names))]
                times, values = eager[name]
                if not times:
                    continue
                if op == 2:
                    assert cw.get_series("NS", name) == (times, values)
                else:
                    start = int(rng.integers(-2, t + 1))
                    end = start + int(rng.integers(1, 12))
                    period = int(rng.integers(1, 5))
                    got = cw.get_metric_statistics("NS", name, start, end, period, "Sum")
                    assert got == _brute_statistics(times, values, start, end, period, "Sum")
                    window = _brute_window(times, values, end - period, end)
                    want = _aggregate(window, "Average") if window else -1.0
                    assert cw.get_metric_value(
                        "NS", name, now=end, window=period, default=-1.0
                    ) == want
            t += int(rng.integers(0, 2))
        cw.flush_pending()
        for name in names:
            assert cw.get_series("NS", name) == eager[name]
