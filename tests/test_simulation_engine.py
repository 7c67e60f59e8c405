"""Unit tests for the simulation engine and periodic tasks."""

import pytest

from repro.core.errors import SimulationError
from repro.simulation import PeriodicTask, SimClock, SimulationEngine


class _Recorder:
    """A component that records the ticks it saw."""

    def __init__(self):
        self.times = []

    def on_tick(self, clock):
        self.times.append(clock.now)


class TestPeriodicTask:
    def test_due_on_interval(self):
        task = PeriodicTask(interval=60, callback=lambda t: None)
        assert task.due(60)
        assert task.due(120)
        assert not task.due(61)

    def test_phase_offsets_first_firing(self):
        task = PeriodicTask(interval=60, callback=lambda t: None, phase=30)
        assert not task.due(0)
        assert not task.due(60)
        assert task.due(30)
        assert task.due(90)

    def test_not_due_before_phase(self):
        task = PeriodicTask(interval=10, callback=lambda t: None, phase=50)
        assert not task.due(40)
        assert task.due(50)

    def test_rejects_bad_parameters(self):
        with pytest.raises(SimulationError):
            PeriodicTask(interval=0, callback=lambda t: None)
        with pytest.raises(SimulationError):
            PeriodicTask(interval=10, callback=lambda t: None, phase=-1)


class TestSimulationEngine:
    def test_components_run_every_tick(self):
        engine = SimulationEngine()
        recorder = _Recorder()
        engine.add_component(recorder)
        engine.run(5)
        assert recorder.times == [1, 2, 3, 4, 5]

    def test_components_run_in_registration_order(self):
        engine = SimulationEngine()
        order = []

        class Named:
            def __init__(self, name):
                self.name = name

            def on_tick(self, clock):
                order.append(self.name)

        engine.add_component(Named("first"))
        engine.add_component(Named("second"))
        engine.run(1)
        assert order == ["first", "second"]

    def test_periodic_tasks_fire_on_schedule(self):
        engine = SimulationEngine(clock=SimClock(tick_seconds=10))
        fired = []
        engine.every(30, fired.append, name="thirty")
        engine.run(100)
        assert fired == [30, 60, 90]

    def test_task_interval_must_align_with_tick(self):
        engine = SimulationEngine(clock=SimClock(tick_seconds=7))
        with pytest.raises(SimulationError):
            engine.every(10, lambda t: None)

    def test_task_phase_must_align_with_tick(self):
        # Regression: a task with phase=30 on a 60 s tick satisfies
        # (now - phase) % interval == 0 at t=30, 90, ... — times the
        # engine never visits — so it used to register fine and then
        # silently never fire (a staggered controller was simply dead).
        engine = SimulationEngine(clock=SimClock(tick_seconds=60))
        with pytest.raises(SimulationError, match="phase"):
            engine.every(60, lambda t: None, phase=30)

    def test_aligned_phase_staggers_firings(self):
        engine = SimulationEngine(clock=SimClock(tick_seconds=30))
        fired = []
        engine.every(60, fired.append, phase=30, name="staggered")
        engine.run(240)
        assert fired == [30, 90, 150, 210]

    def test_stop_ends_run_early(self):
        engine = SimulationEngine()
        engine.every(3, lambda t: engine.stop(), name="stopper")
        end = engine.run(100)
        assert end == 3

    def test_run_resumes_from_current_time(self):
        engine = SimulationEngine()
        engine.run(10)
        end = engine.run(5)
        assert end == 15

    def test_rejects_bad_durations(self):
        engine = SimulationEngine(clock=SimClock(tick_seconds=10))
        with pytest.raises(SimulationError):
            engine.run(0)
        with pytest.raises(SimulationError):
            engine.run(15)  # not a multiple of the tick

    def test_tasks_see_completed_tick_time(self):
        engine = SimulationEngine()
        recorder = _Recorder()
        engine.add_component(recorder)
        seen = {}
        engine.every(2, lambda t: seen.setdefault(t, list(recorder.times)), name="check")
        engine.run(4)
        # When the t=2 task fired, ticks 1 and 2 had already run.
        assert seen[2] == [1, 2]
