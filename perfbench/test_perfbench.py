"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import import_program  # noqa: E402

import_program()

import harness  # noqa: E402
import reference  # noqa: E402
from tracer import Tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Run, Workload  # noqa: E402

#: Smoke-run scales: 144 simulated seconds, or 25 NSGA-II generations
#: (fewer leave the share analysis with no feasible plan at some seeds).
TINY = {"catalog": 0.02, "catalog-fast": 0.02, "fleet-16": 0.02, "share-plan": 0.1}


# ----------------------------------------------------------------------
# Tiny-horizon smoke runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_is_correct_and_traced_run_matches(name):
    workload = WORKLOADS[name]
    measured = harness.measure(workload, seed=7, seconds=0, root=ROOT, scale=TINY[name])
    assert measured.failed == 0, measured.problems
    assert measured.attempted == 2 * measured.passes[0].runs
    assert measured.throughput > 0
    assert measured.setup_seconds > 0

    traced = harness.traced_pass(workload, seed=7, scale=TINY[name], root=ROOT)
    assert traced.restored
    assert not traced.result.failures
    assert harness.digest_sha256(traced.result.digests) == measured.outputs_sha256
    layers = harness.layer_metrics(workload, traced, measured.pass_calibrated_seconds)
    if workload.unit == "flow-tick":
        assert harness.MIN_COVERAGE <= traced.coverage <= 1.0 + 1e-9
        assert layers["workload.draw_us"][0] > 0
        assert layers["simulation.spans"][0] > 0
        assert layers["optimization.evaluations"][0] == 0
    else:
        assert layers["optimization.evaluations"][0] == traced.result.work
        assert layers["workload.draw_us"][0] == 0


def test_fleet_uses_the_fleet_layers():
    workload = WORKLOADS["fleet-16"]
    traced = harness.traced_pass(workload, seed=7, scale=TINY["fleet-16"], root=ROOT)
    layers = harness.layer_metrics(workload, traced, traced.result.calibrated_seconds)
    assert layers["core.fleet_exec_us"][0] > 0
    assert layers["fleet.coordinate_us"][0] >= 0
    assert 0 <= layers["core.scalar_tick_share"][0] <= 1


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
class _Inner:
    def work(self, clock, cost):
        clock.now += cost


class _Outer:
    def work(self, clock):
        clock.now += 1.0
        _Inner().work(clock, 2.0)
        clock.now += 0.5
        _Inner().work(clock, 3.0)
        self.again(clock)

    def again(self, clock):
        clock.now += 0.25


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_wrapped_calls():
    clock = _FakeClock()
    original_outer, original_inner = _Outer.work, _Inner.work
    with Tracer(clock=clock) as tracer:
        tracer.wrap(_Outer, "work", "outer")
        tracer.wrap(_Outer, "again", "outer")
        tracer.wrap(_Inner, "work", "inner")
        _Outer().work(clock)
    assert tracer.self_seconds == {"outer": 1.75, "inner": 5.0}
    # The outer layer re-entering itself (``again``) is not a new call.
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.attributed_seconds() == clock.now
    assert _Outer.work is original_outer and _Inner.work is original_inner


def test_disabled_tracer_records_nothing_and_wrapper_survives_exceptions():
    clock = _FakeClock()

    class Boom:
        def go(self):
            clock.now += 1.0
            raise ValueError("planted")

    with Tracer(clock=clock) as tracer:
        tracer.wrap(Boom, "go", "boom")
        with pytest.raises(ValueError):
            Boom().go()
        tracer.enabled = False
        with pytest.raises(ValueError):
            Boom().go()
    assert tracer.self_seconds == {"boom": 1.0}
    assert "go" in Boom.__dict__ and not hasattr(Boom.__dict__["go"], "__wrapped__")


def test_calibrated_time_scales_each_stretch_by_its_neighbouring_samples():
    calibration = reference.Calibration()
    k = reference.REFERENCE_SECONDS
    # Kernel samples at [0, 1], [3, 4] (machine at half speed) and [6, 7];
    # the middle one fell inside the run and is left out of its time.
    calibration._samples = [(0.0, 1.0, k), (3.0, 4.0, 2 * k), (6.0, 7.0, k)]
    wall, calibrated = calibration.between(1.5, 5.5)
    assert wall == pytest.approx(3.0)
    assert calibrated == pytest.approx(1.5 * 2 / 3 * 2)


# ----------------------------------------------------------------------
# Failures are counted, never raised
# ----------------------------------------------------------------------
def _planted_workload() -> Workload:
    state = {"draws": 0}

    def ok():
        return Run("ok", lambda: 1, 10, 0, lambda raw: {"v": raw}, lambda raw, d: [])

    def raises():
        def execute():
            raise RuntimeError("planted failure")
        return Run("raises", execute, 10, 0, lambda raw: raw, lambda raw, d: [])

    def bad_check():
        return Run("bad-check", lambda: 2, 10, 0, lambda raw: raw,
                   lambda raw, d: ["planted check failure"])

    def drifts():
        def digest(raw):
            state["draws"] += 1
            return state["draws"]
        return Run("drifts", lambda: 3, 10, 0, digest, lambda raw, d: [])

    def build_fails():
        raise RuntimeError("planted set-up failure")

    def runs(seed, scale, root):
        return [("ok", ok), ("raises", raises), ("bad-check", bad_check),
                ("drifts", drifts), ("build-fails", build_fails)]

    return Workload("planted", "test only", "flow-tick", "test only", runs)


def test_planted_failures_are_counted_not_raised():
    measured = harness.measure(_planted_workload(), seed=1, seconds=0, root=ROOT)
    assert len(measured.passes) == 2
    assert measured.attempted == 10
    first, second = measured.passes
    assert set(first.failures) == {"raises", "bad-check", "build-fails"}
    # The drifting run differs from pass 1 only from pass 2 on.
    assert set(second.failures) == {"raises", "bad-check", "build-fails", "drifts"}
    assert measured.failed == 7
    assert first.work == 30  # the raising run completed no work


# ----------------------------------------------------------------------
# The command
# ----------------------------------------------------------------------
def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "catalog",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    result = harness.PassResult([1.0], 1.0, 1.0, 1.0, 1, 1, {}, {}, 1)
    measured = harness.Measurement(passes=[result], attempted=1)
    end_to_end = harness.end_to_end_metrics(measured)
    layers = harness.layer_metrics(
        WORKLOADS["catalog"], harness.TracedPass(result, Tracer(), restored=True), 1.0)
    for section, reported in (("end_to_end", end_to_end), ("per_layer", layers)):
        assert {m["name"]: m["unit"] for m in spec[section]} == {
            name: unit for name, (_value, unit) in reported.items()}


def test_catalog_baseline_check_catches_drift(tmp_path):
    baseline = json.loads((ROOT / workloads.CATALOG_BASELINE).read_text())
    name = next(iter(baseline["scenarios"]))
    baseline["scenarios"][name]["card"]["total_cost"] *= 1 + 1e-6
    (tmp_path / "results").mkdir()
    (tmp_path / workloads.CATALOG_BASELINE).write_text(json.dumps(baseline))
    for root, drifted in ((ROOT, False), (tmp_path, True)):
        specs = dict(WORKLOADS["catalog"].runs(7, 1.0, root))
        run = specs[name]()
        raw = run.execute()
        problems = run.check(raw, run.digest(raw))
        assert bool(problems) == drifted, problems
