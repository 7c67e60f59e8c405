"""Measuring a workload: timed passes, the traced pass and the report.

A measured run repeats whole passes of the workload until ``seconds``
of execution have been timed, and at least two, so every run compares
its passes for determinism. Each pass is set up several times (the
median is ``setup_s``), executed with tracing off, digested and
checked. Throughput is the median of the passes' work per second.
Times are calibrated against the reference kernel timed next to them
(see :mod:`reference`); the raw wall-clock figures go in the record.

The traced run adds one more pass with every layer wrapped (see
:mod:`tracer`): its per-layer self times, divided by the pass's
flow-ticks (or evaluations), are the per-layer metrics.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from reference import Calibration
from tracer import Tracer
from workloads import Workload

#: A pass is set up at least this many times, and until this much set-up
#: time has been timed, so that ``setup_s`` is a median of many samples.
SETUP_REPEATS = 5
SETUP_SECONDS = 0.05
#: Cap on set-up repeats for workloads whose set-up takes microseconds.
SETUP_MAX_REPEATS = 500
#: Tiny pass run untimed first, so lazy imports and first-call caches
#: are warm before anything is timed.
WARMUP_SCALE = 0.02
#: The traced pass must attribute at least this share of its wall time.
MIN_COVERAGE = 0.95
#: Headroom kept free in the capacity table (as in a capacity model).
HEADROOM = 0.30
#: Simulated period of the in-run calibration task: a multiple of every
#: control, snapshot and coordinator period, so it adds no span boundary.
CALIBRATION_PERIOD = 600


@dataclass
class PassResult:
    #: Wall seconds of each set-up repetition.
    raw_setup_seconds: list[float]
    #: Calibrated / wall seconds while the pass was set up.
    setup_scale: float
    wall_seconds: float
    calibrated_seconds: float
    work: int
    engine_ticks: int
    digests: dict[str, object]
    failures: dict[str, list[str]]
    runs: int
    #: Raw run results, kept only for the traced pass's counters.
    raws: list = field(default_factory=list)

    @property
    def setup_seconds(self) -> list[float]:
        return [s * self.setup_scale for s in self.raw_setup_seconds]

    @property
    def throughput(self) -> float:
        return self.work / self.calibrated_seconds if self.calibrated_seconds > 0 else 0.0

    @property
    def raw_throughput(self) -> float:
        return self.work / self.wall_seconds if self.wall_seconds > 0 else 0.0


@dataclass
class Measurement:
    passes: list[PassResult] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        return statistics.median(p.throughput for p in self.passes)

    @property
    def setup_seconds(self) -> float:
        return statistics.median(s for p in self.passes for s in p.setup_seconds)

    @property
    def raw_throughput(self) -> float:
        return statistics.median(p.raw_throughput for p in self.passes)

    @property
    def raw_setup_seconds(self) -> float:
        return statistics.median(s for p in self.passes for s in p.raw_setup_seconds)

    @property
    def pass_calibrated_seconds(self) -> float:
        return statistics.median(p.calibrated_seconds for p in self.passes)

    @property
    def outputs_sha256(self) -> str:
        return digest_sha256(self.passes[0].digests)


def digest_sha256(digests: dict[str, object]) -> str:
    """Hash of a pass's wall-clock-free outputs, in run order."""
    canonical = json.dumps(list(digests.items()), sort_keys=True, allow_nan=False)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _build_all(specs) -> tuple[list, dict[str, str]]:
    built, errors = [], {}
    for label, build in specs:
        try:
            built.append(build())
        except Exception:
            errors[label] = traceback.format_exc()
    return built, errors


def run_pass(workload: Workload, seed: int, scale: float, root: Path,
             setup_repeats: bool = True, tracer: Tracer | None = None) -> PassResult:
    """Set up (repeatedly) and execute one pass; digest and check it.

    A run that raises, in set-up or execution, or fails its check is
    recorded in ``failures`` and the pass goes on with the next run.
    With a ``tracer``, it records only while runs execute, and the raw
    results are kept for the traced pass's counters.
    """
    specs = workload.runs(seed, scale, root)
    samples: list[float] = []
    calibration = Calibration()
    calibration.sample()
    while True:
        started = perf_counter()
        runs, build_errors = _build_all(specs)
        samples.append(perf_counter() - started)
        if (not setup_repeats or len(samples) >= SETUP_MAX_REPEATS
                or (len(samples) >= SETUP_REPEATS and sum(samples) >= SETUP_SECONDS)):
            break
    calibration.sample()
    setup_scale = calibration.scale()
    failures = {label: [f"set-up raised:\n{tb}"] for label, tb in build_errors.items()}
    gc.collect()
    calibration.sample()
    wall = calibrated = 0.0
    work = ticks = 0
    digests: dict[str, object] = {}
    raws = []
    for run in runs:
        try:
            if tracer is not None:
                tracer.enabled = True
            elif run.engine is not None:
                run.engine.every(CALIBRATION_PERIOD, calibration.sample_if_due,
                                 name="perfbench.calibration")
            started = perf_counter()
            try:
                raw = run.execute()
            finally:
                ended = perf_counter()
                if tracer is not None:
                    tracer.enabled = False
                calibration.sample()
            run_wall, run_calibrated = calibration.between(started, ended)
            wall += run_wall
            calibrated += run_calibrated
            work += run.work
            ticks += run.engine_ticks
            digests[run.label] = run.digest(raw)
            if tracer is not None:
                raws.append(raw)
            problems = run.check(raw, digests[run.label])
        except Exception:
            problems = [f"raised:\n{traceback.format_exc()}"]
        if problems:
            failures[run.label] = problems
    return PassResult(samples, setup_scale, wall, calibrated, work, ticks, digests,
                      failures, len(specs), raws)


def measure(workload: Workload, seed: int, seconds: float, root: Path,
            scale: float = 1.0) -> Measurement:
    """Repeat passes until ``seconds`` of execution are timed, and at
    least two; count every failed run, never raise for one."""
    run_pass(workload, seed, WARMUP_SCALE * scale, root, setup_repeats=False)
    result = Measurement()
    while True:
        current = run_pass(workload, seed, scale, root)
        first = result.passes[0] if result.passes else current
        for label, digested in current.digests.items():
            if label in first.digests and digested != first.digests[label]:
                current.failures.setdefault(label, []).append(
                    f"{label}: output differs from pass 1 at the same seed")
        result.passes.append(current)
        result.attempted += current.runs
        result.failed += len(current.failures)
        for label, problems in current.failures.items():
            result.problems += [f"pass {len(result.passes)} {label}: {p}" for p in problems]
        timed = sum(p.wall_seconds for p in result.passes)
        if len(result.passes) >= 2 and timed >= seconds:
            return result


def end_to_end_metrics(measured: Measurement) -> dict:
    """The end-to-end metrics of a measured run, as ``name -> (value, unit)``.

    ``throughput_per_s`` counts the workload's own unit of work:
    flow-ticks on the simulated workloads, NSGA-II evaluations on
    share-plan. Peak memory is this process's peak resident set (Linux
    reports KiB).
    """
    return {
        "throughput_per_s": (measured.throughput, "1/s"),
        "setup_s": (measured.setup_seconds, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# ----------------------------------------------------------------------
# The traced pass
# ----------------------------------------------------------------------
#: Per-layer metric -> the tracer layer whose self time it reports.
TIME_LAYERS = {
    "workload.draw_us": "workload.draw",
    "core.recurrence_us": "core.recurrence",
    "core.fleet_exec_us": "core.fleet_exec",
    "cloud.emit_us": "cloud.emit",
    "cloudwatch.write_us": "cloudwatch.write",
    "cloudwatch.read_us": "cloudwatch.read",
    "control.step_us": "control.step",
    "monitoring.collect_us": "monitoring.collect",
    "chaos.audit_us": "chaos.audit",
    "chaos.inject_us": "chaos.inject",
    "fleet.coordinate_us": "fleet.coordinate",
    "observability.publish_us": "observability.publish",
    "simulation.other_us": "simulation",
}
OPTIMIZATION_LAYERS = {
    "optimization.evaluate_us": "optimization.evaluate",
    "optimization.search_us": "optimization.search",
    "optimization.analyze_us": "optimization.analyze",
}


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (see the module docstring
    of :mod:`tracer` for why this must precede set-up)."""
    from repro.chaos.injector import ChaosInjector
    from repro.chaos.invariants import InvariantChecker
    from repro.cloud.cloudwatch import SimCloudWatch
    from repro.cloud.dynamodb import SimDynamoDBTable
    from repro.cloud.kinesis import SimKinesisStream
    from repro.cloud.storm import SimStormCluster
    from repro.control.base import ControlLoop
    from repro.core.fleet import FleetCoordinator, RegionFleetManager
    from repro.core.fleet_exec import FleetSpanExecutor
    from repro.core.manager import FlowElasticityManager, _FlowPipeline
    from repro.monitoring.collector import MetricCollector
    from repro.observability.events import EventBus
    from repro.optimization.nsga2 import NSGA2
    from repro.optimization.problem import Problem
    from repro.optimization.share_analyzer import ResourceShareAnalyzer, _ShareProblem
    from repro.simulation.clock import SimClock
    from repro.workload.clickstream import ClickStreamGenerator, FastClickStreamGenerator

    def records(t, parent, args, result):
        if parent != "workload.draw":
            t.counts["records"] += sum(result[0]) if isinstance(result, tuple) else result.records

    def scalar_ticks(t, parent, args, result):
        if parent == "core.fleet_exec":
            clock, span_end = args[1], args[2]
            t.counts["scalar_ticks"] += (span_end - clock.now) // clock.tick_seconds

    def span(t, parent, args, result):
        t.counts["spans"] += 1

    def evaluations(t, parent, args, result):
        if parent != "optimization.evaluate":
            t.counts["evaluations"] += len(args[1])

    table = [
        (ClickStreamGenerator, ("generate", "generate_span"), "workload.draw", records),
        (FastClickStreamGenerator, ("generate", "generate_span"), "workload.draw", records),
        (_FlowPipeline, ("on_tick",), "core.recurrence", None),
        (_FlowPipeline, ("run_span",), "core.recurrence", scalar_ticks),
        (FleetSpanExecutor, ("on_tick", "run_span"), "core.fleet_exec", None),
        (SimKinesisStream, ("emit_metrics", "emit_metrics_span"), "cloud.emit", None),
        (SimStormCluster, ("emit_metrics", "emit_metrics_span"), "cloud.emit", None),
        (SimDynamoDBTable, ("emit_metrics", "emit_metrics_span"), "cloud.emit", None),
        (SimCloudWatch, ("put_metric_data", "put_metric_data_batch", "flush_pending"),
         "cloudwatch.write", None),
        (SimCloudWatch, ("get_metric_value", "get_metric_statistics", "evaluate_alarms"),
         "cloudwatch.read", None),
        (ControlLoop, ("step",), "control.step", None),
        (MetricCollector, ("collect",), "monitoring.collect", None),
        (InvariantChecker, ("on_tick", "run_span", "audit"), "chaos.audit", None),
        (ChaosInjector, ("on_tick", "run_span"), "chaos.inject", None),
        (FleetCoordinator, ("coordinate",), "fleet.coordinate", None),
        (EventBus, ("publish",), "observability.publish", None),
        (FlowElasticityManager, ("run",), "simulation", None),
        (RegionFleetManager, ("run",), "simulation", None),
        (SimClock, ("advance_to",), "simulation", span),
        (Problem, ("evaluate_batch",), "optimization.evaluate", evaluations),
        (_ShareProblem, ("evaluate_batch",), "optimization.evaluate", evaluations),
        (NSGA2, ("run",), "optimization.search", None),
        (ResourceShareAnalyzer, ("analyze",), "optimization.analyze", None),
    ]
    for owner, attrs, layer, count in table:
        for attr in attrs:
            tracer.wrap(owner, attr, layer, count)


@dataclass
class TracedPass:
    result: PassResult
    tracer: Tracer
    restored: bool

    @property
    def coverage(self) -> float:
        wall = self.result.wall_seconds
        return self.tracer.attributed_seconds() / wall if wall > 0 else 0.0


def traced_pass(workload: Workload, seed: int, scale: float, root: Path) -> TracedPass:
    """One pass with every layer wrapped; the wrappers are always removed."""
    tracer = Tracer()
    tracer.enabled = False
    with tracer:
        install_layers(tracer)
        patched = tracer.patches
        result = run_pass(workload, seed, scale, root, setup_repeats=False, tracer=tracer)
    restored = all(owner.__dict__[attr] is original for owner, attr, original in patched)
    return TracedPass(result, tracer, restored)


def _control_counts(raws) -> tuple[int, int, int]:
    """Actuator retries, share clamps and region denials of a pass."""
    from repro.control.actuators import RetryingActuator
    from repro.control.bounded import BoundedActuator

    retries = clamps = denials = 0
    for raw in raws:
        flows = getattr(raw, "flows", None)
        if flows is not None:
            denials += raw.region.total_denials()
            flows = list(flows.values())
        elif hasattr(raw, "loops"):
            flows = [raw]
        for flow in flows or ():
            loops = list(flow.loops.values())
            if flow.read_loop is not None:
                loops.append(flow.read_loop)
            for loop in loops:
                actuator = loop.actuator
                if isinstance(actuator, BoundedActuator):
                    clamps += actuator.clamped_requests
                    actuator = actuator.inner
                if isinstance(actuator, RetryingActuator):
                    retries += actuator.failed_attempts
    return retries, clamps, denials


def layer_metrics(workload: Workload, traced: TracedPass,
                  untraced_calibrated: float) -> dict:
    """Every per-layer metric, zero where the layer did not run.

    ``untraced_calibrated`` is an untraced pass's calibrated seconds,
    the base of the tracing overhead."""
    tr = traced.tracer
    res = traced.result
    # Self times are wall seconds; report them calibrated, like every
    # end-to-end time, with the traced pass's own calibration.
    scale = res.calibrated_seconds / res.wall_seconds if res.wall_seconds else 1.0
    seconds = {layer: value * scale for layer, value in tr.self_seconds.items()}
    ticks = res.work if workload.unit == "flow-tick" else 0
    evals = tr.counts["evaluations"]

    def per_tick(layer):
        return 1e6 * seconds.get(layer, 0.0) / ticks if ticks else 0.0

    def per_kilotick(count):
        return 1000.0 * count / ticks if ticks else 0.0

    retries, clamps, denials = _control_counts(res.raws)
    metrics = {name: (per_tick(layer), "us/tick") for name, layer in TIME_LAYERS.items()}
    metrics.update({
        "workload.records": (tr.counts["records"] / ticks if ticks else 0.0, "records/tick"),
        "core.scalar_tick_share": (
            tr.counts["scalar_ticks"] / ticks
            if ticks and seconds.get("core.fleet_exec") else 0.0, "ratio"),
        "cloudwatch.write_calls": (per_kilotick(tr.calls["cloudwatch.write"]), "1/ktick"),
        "cloudwatch.reads": (per_kilotick(tr.calls["cloudwatch.read"]), "1/ktick"),
        "control.steps": (tr.calls["control.step"], "count"),
        "control.retries": (retries, "count"),
        "control.clamps": (clamps, "count"),
        "region.denials": (denials, "count"),
        "simulation.spans": (per_kilotick(tr.counts["spans"]), "1/ktick"),
        "simulation.ticks_per_span": (
            res.engine_ticks / tr.counts["spans"] if tr.counts["spans"] else 0.0, "ticks"),
        "observability.events": (per_kilotick(tr.calls["observability.publish"]), "1/ktick"),
    })
    for name, layer in OPTIMIZATION_LAYERS.items():
        metrics[name] = (1e6 * seconds.get(layer, 0.0) / evals if evals else 0.0, "us/eval")
    metrics["optimization.evaluations"] = (evals, "count")
    metrics["trace.overhead"] = (
        res.calibrated_seconds / untraced_calibrated if untraced_calibrated > 0 else 0.0, "x")
    metrics["trace.coverage"] = (traced.coverage, "ratio")
    return metrics


def capacity_table(metrics: dict, flow_ticks_per_s: float) -> list[str]:
    """Flows one core keeps at real time (1 tick = 1 simulated second),
    per layer and in total, in the Little's-law form of a capacity
    model: one flow offers one tick per second, so a layer costing
    ``s`` µs per flow-tick saturates a core at ``1e6 / s`` flows."""
    rows = [(name[:-3], value) for name, (value, unit) in metrics.items()
            if unit == "us/tick" and value > 0]
    total = sum(value for _name, value in rows)
    lines = [
        f"capacity at real time, {HEADROOM:.0%} headroom, calibrated "
        "(traced µs; the untraced row is the measured throughput)",
        f"  {'layer':<24} {'µs/flow-tick':>13} {'share':>7} "
        f"{'flows/core':>11} {'w/ headroom':>12}",
    ]
    for name, value in sorted(rows, key=lambda r: -r[1]):
        lines.append(f"  {name:<24} {value:>13.3f} {value / total:>7.1%} "
                     f"{1e6 / value:>11.0f} {(1 - HEADROOM) * 1e6 / value:>12.0f}")
    if total:
        lines.append(f"  {'all layers (traced)':<24} {total:>13.3f} {1:>7.0%} "
                     f"{1e6 / total:>11.0f} {(1 - HEADROOM) * 1e6 / total:>12.0f}")
    if flow_ticks_per_s:
        lines.append(f"  {'all layers (untraced)':<24} {1e6 / flow_ticks_per_s:>13.3f} "
                     f"{'':>7} {flow_ticks_per_s:>11.0f} "
                     f"{(1 - HEADROOM) * flow_ticks_per_s:>12.0f}")
    return lines


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def provenance(root: Path, workload: Workload, seed: int, seconds: float) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "cpu": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(root),
        "seed": seed,
        "seconds": seconds,
        "workload": {
            "name": workload.name,
            "why": workload.why,
            "definition": workload.definition,
            "unit": workload.unit,
        },
        "argv": sys.argv[1:],
    }


def git_revision(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git;
    "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
