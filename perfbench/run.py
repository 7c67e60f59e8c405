"""The repository's benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload catalog --seed 7 --seconds 15 --trace 0

It prints a report, a ``record`` line with the machine, provenance and
per-run details, and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` measures the same way,
then runs one more pass with every layer wrapped and reports the
per-layer metrics instead. A run that raises or fails its check is
counted in ``failed``; the command itself exits non-zero only when it
cannot run at all, for example outside a checkout with ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One process, one thread: numpy's BLAS pool would otherwise start a
# thread per core at import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and make sure the
    ``repro`` package is imported from it, not from anywhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def main(argv: list[str] | None = None) -> int:
    import_program()
    import harness
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    measured = harness.measure(workload, args.seed, args.seconds, ROOT)
    end_to_end = harness.end_to_end_metrics(measured)
    throughput = measured.throughput
    record = {
        "provenance": harness.provenance(ROOT, workload, args.seed, args.seconds),
        "passes": len(measured.passes),
        "runs_per_pass": measured.passes[0].runs,
        "pass_wall_s": [p.wall_seconds for p in measured.passes],
        "pass_calibrated_s": [p.calibrated_seconds for p in measured.passes],
        "raw_throughput_per_s": measured.raw_throughput,
        "raw_setup_s": measured.raw_setup_seconds,
        "outputs_sha256": measured.outputs_sha256,
        "end_to_end": end_to_end,
        "problems": measured.problems,
    }
    correct = measured.failed == 0
    capacity: list[str] = []
    if args.trace:
        traced = harness.traced_pass(workload, args.seed, 1.0, ROOT)
        reported = harness.layer_metrics(workload, traced, measured.pass_calibrated_seconds)
        traced_sha = harness.digest_sha256(traced.result.digests)
        checks = {
            "wrappers_restored": traced.restored,
            "outputs_sha256_equal": traced_sha == measured.outputs_sha256,
        }
        if workload.unit == "flow-tick":
            checks["coverage_within_5pct"] = (
                harness.MIN_COVERAGE <= traced.coverage <= 2 - harness.MIN_COVERAGE)
            capacity = harness.capacity_table(reported, throughput)
        correct = correct and not traced.result.failures and all(checks.values())
        measured.attempted += traced.result.runs
        measured.failed += len(traced.result.failures)
        record["trace"] = {
            "checks": checks,
            "traced_outputs_sha256": traced_sha,
            "traced_wall_s": traced.result.wall_seconds,
            "attributed_s": traced.tracer.attributed_seconds(),
            "self_seconds": dict(traced.tracer.self_seconds),
            "failures": traced.result.failures,
        }
        record["capacity"] = capacity
    else:
        reported = end_to_end
    record["failed_run_pct"] = 100.0 * measured.failed / measured.attempted
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()}

    print(f"perfbench {workload.name} seed={args.seed}: {measured.attempted} runs in "
          f"{len(measured.passes)} passes, {measured.failed} failed "
          f"({record['failed_run_pct']:.1f}%)")
    throughput_name = "flow_ticks_per_s" if workload.unit == "flow-tick" else "evals_per_s"
    print(f"  {throughput_name} = {throughput:.1f} ({workload.unit}s per second, median pass)")
    print(f"  outputs_sha256 = {measured.outputs_sha256}")
    for problem in measured.problems:
        print(f"  FAILED {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for line in capacity:
        print(line)
    print("record " + json.dumps(record, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
