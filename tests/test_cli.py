"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.duration == 7200
        assert args.style == "adaptive"

    def test_unknown_style_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--style", "pid"])

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.out is None
        assert args.profile is False

    @pytest.mark.parametrize("argv", [
        ["demo", "--duration", "0"],
        ["trace", "--duration", "-60"],
        ["fleet", "--flows", "0"],
        ["fleet", "--sweep", "0"],
        ["fleet", "--jobs", "0"],
        ["shootout", "--jobs", "-1"],
        ["scenario", "run", "--jobs", "0"],
        ["pareto", "--generations", "0"],
    ])
    def test_non_positive_counts_rejected_naming_the_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        flag = next(a for a in argv if a.startswith("--"))
        assert f"argument {flag}: must be positive" in capsys.readouterr().err

    def test_non_integer_count_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--duration", "soon"])
        assert "invalid int value: 'soon'" in capsys.readouterr().err


def compiled(argv):
    """The scenarios a command's flags compile to, without running them."""
    args = build_parser().parse_args(argv)
    return args.scenarios(args)


class TestScenarios:
    """Every run command except fig2 is a catalog entry with its flags
    applied; at default flags it is exactly the gated entry."""

    @pytest.mark.parametrize("command, entry", [
        ("demo", "steady"), ("trace", "steady"), ("chaos", "chaos"),
    ])
    def test_defaults_are_the_gated_entry(self, command, entry):
        from repro.scenarios import scenario_at

        assert compiled([command]) == [scenario_at(entry, 7200)]

    def test_shootout_defaults_are_style_copies_of_the_gated_entry(self):
        import dataclasses

        from repro.scenarios import scenario_at

        entry = scenario_at("flash-crowd-throttle-storm", 7200)
        assert compiled(["shootout"]) == [
            dataclasses.replace(entry, name=style, controller=style)
            for style in ("adaptive", "fixed", "quasi", "rule")
        ]

    def test_flags_override_fields(self):
        (scenario,) = compiled(["demo", "--duration", "1800", "--seed", "3",
                                "--style", "rule", "--reference", "50", "--fast"])
        assert (scenario.duration, scenario.seed, scenario.controller,
                scenario.reference, scenario.exact) == (1800, 3, "rule", 50.0, False)

    def test_fault_replaces_the_chaos_schedule(self):
        (scenario,) = compiled(["chaos", "--fault", "worker-crash:900:0:1"])
        assert [(f.kind.value, f.start) for f in scenario.chaos.faults] == [
            ("worker-crash", 900)]

    def test_coordinate_period_zero_runs_uncoordinated(self):
        (scenario,) = compiled(["fleet", "--coordinate-period", "0"])
        assert scenario.fleet.coordinate_period is None


class TestErrors:
    """A library error ends the command with one line, not a traceback."""

    def test_configuration_error_becomes_exit_message(self):
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--coordinate-period", "-1", "--duration", "600"])
        assert exc.value.code == (
            "error: scenario spec: scenario.fleet.coordinate_period "
            "must be >= 1, got -1"
        )

    def test_fault_that_never_fires_exits_naming_the_field(self):
        # A crash after the run ends used to be accepted and never fire.
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--fault", "worker-crash:9999:0:1", "--duration", "3600"])
        message = exc.value.code
        assert "\n" not in message
        assert message.startswith("error: scenario spec: scenario.chaos ")
        assert "worker-crash@9999" in message

    def test_fault_and_schedule_are_mutually_exclusive(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([
                "chaos", "--fault", "worker-crash:60",
                "--schedule", str(tmp_path / "schedule.json"),
            ])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_trace_tick_window_must_not_be_inverted(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--from-tick", "600", "--to-tick", "300",
                  "--out", str(out)])
        message = exc.value.code
        assert "\n" not in message
        assert "--from-tick 600" in message and "--to-tick 300" in message
        assert not out.exists()

    def test_bad_flag_leaves_no_trace_file(self, tmp_path):
        # The scenario is compiled (and rejected) before any output
        # path is touched.
        out = tmp_path / "trace.jsonl"
        with pytest.raises(SystemExit, match="scenario.reference"):
            main(["demo", "--reference", "0", "--trace", str(out)])
        assert not out.exists()

    def test_optimization_error_becomes_exit_message(self):
        with pytest.raises(SystemExit) as exc:
            main(["pareto", "--budget", "-1", "--generations", "2"])
        assert exc.value.code == "error: budget must be positive, got -1.0"


class TestCommands:
    def test_demo_prints_dashboard_and_cost(self, capsys):
        assert main(["demo", "--duration", "1800", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "ingestion.records" in out
        assert "total cost: $" in out

    def test_demo_trace_writes_jsonl(self, capsys, tmp_path):
        from repro.observability import read_jsonl

        path = tmp_path / "flow.jsonl"
        assert main(["demo", "--duration", "1800", "--seed", "1",
                     "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"-> {path}" in out
        data = read_jsonl(path)
        assert data["decisions"], "trace should contain control decisions"
        loops = {d.loop for d in data["decisions"] if d.acted}
        assert {"ingestion", "storage"} <= loops

    def test_trace_summarises_and_exports(self, capsys, tmp_path):
        from repro.observability import read_jsonl

        path = tmp_path / "trace.jsonl"
        assert main(["trace", "--duration", "1800", "--seed", "1",
                     "--profile", "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "flight recorder:" in out
        assert "tick profile:" in out
        assert read_jsonl(path)["profile"]["ticks"] == 1800

    def test_trace_filters_events(self, capsys):
        assert main(["trace", "--duration", "1200", "--seed", "1",
                     "--layer", "storage", "--kind", "capacity"]) == 0
        out = capsys.readouterr().out
        assert "events matched" in out
        # kind filtering is prefix-aware: capacity matches
        # capacity.update and capacity.applied, nothing else.
        assert "capacity.update" in out
        assert "throttle" not in out

    def test_trace_causal_prints_chain(self, capsys):
        # ``steady`` starts in its trough: ingestion first acts at 360 s.
        assert main(["trace", "--duration", "1200", "--seed", "1",
                     "--causal", "ingestion@360"]) == 0
        out = capsys.readouterr().out
        assert "ingestion@360" in out

    def test_trace_causal_unknown_id_exits(self, capsys):
        with pytest.raises(SystemExit, match="unknown trace id"):
            main(["trace", "--duration", "1200", "--seed", "1",
                  "--causal", "no-such@999"])

    def test_trace_chrome_export(self, capsys, tmp_path):
        import json

        path = tmp_path / "chrome.json"
        assert main(["trace", "--duration", "1200", "--seed", "1",
                     "--chrome", str(path)]) == 0
        assert "open in Perfetto" in capsys.readouterr().out
        assert json.loads(path.read_text())["traceEvents"]

    def test_scenario_list_prints_catalog(self, capsys):
        from repro.scenarios import CATALOG_NAMES, GATE_NAMES

        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in CATALOG_NAMES + GATE_NAMES:
            assert name in out
        assert "flows=3" in out

    def test_fleet_over_account_limits_exits_naming_the_resource(self):
        # Six default flows hold 12 VMs; the default account has 10.
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--flows", "6", "--duration", "600"])
        assert "initial instances sum to 12 across 6 flows, limit 10" in exc.value.code

    def test_fleet_runs_the_region_story(self, capsys):
        assert main(["fleet", "--duration", "1200"]) == 0
        out = capsys.readouterr().out
        assert "region fleet: 3 flows, 1200s simulated" in out
        assert "coordinator: 4 passes" in out

    def test_fleet_sweep_jobs_output_identical_to_serial(self, capsys):
        argv = ["fleet", "--duration", "900", "--sweep", "2"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert "fleet scorecard fleet-case1" in serial
        assert parallel.replace("jobs=2", "jobs=1") == serial

    def test_scenario_show_emits_loadable_json(self, capsys):
        from repro.scenarios import Scenario, catalog_scenario

        assert main(["scenario", "show", "seasonal-drift"]) == 0
        out = capsys.readouterr().out
        assert Scenario.from_json(out) == catalog_scenario("seasonal-drift")

    def test_scenario_show_requires_a_name(self):
        with pytest.raises(SystemExit, match="NAME is required"):
            main(["scenario", "show"])

    def test_scenario_run_unknown_name_exits(self):
        with pytest.raises(SystemExit, match="unknown catalog scenario"):
            main(["scenario", "run", "no-such-scenario"])

    def test_scenario_run_writes_matrix_identically_at_any_jobs(
            self, capsys, tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert main(["scenario", "run", "step-surge-worker-crash",
                     "--out", str(serial)]) == 0
        assert main(["scenario", "run", "step-surge-worker-crash",
                     "--jobs", "2", "--out", str(parallel)]) == 0
        out = capsys.readouterr().out
        assert "step-surge-worker-crash" in out
        assert serial.read_text() == parallel.read_text()

    def test_scenario_check_refuses_out_into_baseline(self, tmp_path):
        # Mirrors the scorecard gate: writing the fresh matrix over the
        # baseline while gating would compare it against itself.
        baseline = tmp_path / "SCORECARD_catalog.json"
        with pytest.raises(SystemExit, match="overwrite the committed baseline"):
            main(["scenario", "run", "--check",
                  "--out", str(baseline), "--baseline", str(baseline)])

    def test_scenario_check_fails_without_baseline(self, capsys, tmp_path):
        assert main(["scenario", "run", "step-surge-worker-crash", "--check",
                     "--baseline", str(tmp_path / "missing.json")]) == 1
        out = capsys.readouterr().out
        assert "MISSING BASELINE" in out
        assert "catalog gate FAILED" in out

    def test_scenario_check_reports_drift_and_keeps_baseline(
            self, capsys, tmp_path):
        import json

        baseline = tmp_path / "baseline.json"
        fresh = tmp_path / "artifacts" / "matrix.json"
        assert main(["scenario", "run", "step-surge-worker-crash",
                     "--out", str(baseline)]) == 0
        capsys.readouterr()
        # Corrupt one deterministic field; the gate must name it, fail,
        # and leave the committed baseline untouched while the fresh
        # matrix lands in artifacts/.
        data = json.loads(baseline.read_text())
        data["scenarios"]["step-surge-worker-crash"]["card"]["total_cost"] *= 2
        baseline.write_text(json.dumps(data))
        committed = baseline.read_text()
        assert main(["scenario", "run", "step-surge-worker-crash", "--check",
                     "--out", str(fresh), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "DRIFT" in out
        assert "total_cost" in out
        assert "regenerate the baseline" in out
        assert baseline.read_text() == committed
        assert fresh.exists()

    def test_scenario_check_passes_against_committed_baseline(self, capsys):
        # The real CI gate at test scale: one scenario against the
        # committed matrix must match byte-for-byte.
        assert main(["scenario", "run", "step-surge-worker-crash",
                     "--check"]) == 0
        assert "gate: ok" in capsys.readouterr().out

    def test_scenario_fast_refuses_exact_baseline(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        assert main(["scenario", "run", "step-surge-worker-crash",
                     "--out", str(baseline)]) == 0
        with pytest.raises(SystemExit, match="error: cannot compare scorecard"):
            main(["scenario", "run", "step-surge-worker-crash", "--fast",
                  "--check", "--baseline", str(baseline)])

    def test_fig2_prints_panels_and_model(self, capsys):
        assert main(["fig2", "--duration", "3600", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Ingestion Layer (Kinesis)" in out
        assert "correlation: r = +" in out
        assert "CPU ~" in out

    def test_pareto_prints_front(self, capsys):
        assert main(["pareto", "--budget", "1.0", "--generations", "30"]) == 0
        out = capsys.readouterr().out
        assert "Pareto-optimal plans" in out
        assert "Shards" in out
        assert "picked (balanced)" in out

    def test_pareto_pick_strategy_flag(self, capsys):
        assert main(["pareto", "--budget", "1.0", "--generations", "60",
                     "--pick", "cheapest"]) == 0
        assert "picked (cheapest)" in capsys.readouterr().out

    def test_pareto_reports_infeasible_gracefully(self, capsys):
        # A hopeless budget: even the minimum allocation costs more.
        assert main(["pareto", "--budget", "0.0001", "--generations", "5"]) == 1
        assert "no feasible plan" in capsys.readouterr().out

    def test_shootout_compares_all_styles(self, capsys):
        assert main(["shootout", "--duration", "1800"]) == 0
        out = capsys.readouterr().out
        for style in ("adaptive", "fixed", "quasi", "rule"):
            assert style in out
        assert "best on SLO violations" in out

    def test_shootout_jobs_output_identical_to_serial(self, capsys):
        assert main(["shootout", "--duration", "1200"]) == 0
        serial = capsys.readouterr().out
        assert main(["shootout", "--duration", "1200", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial
