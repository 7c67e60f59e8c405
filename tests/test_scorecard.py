"""Run scorecards: field extraction, serialisation round-trips, strict
loading, and the regression-gate comparison semantics (tight,
bidirectional, wall-clock exempt)."""

import copy
import dataclasses
import json

import pytest

from repro.analysis.scorecard import WALL_CLOCK_FIELDS, FleetScorecard, RunScorecard
from repro.core.errors import ConfigurationError
from repro.scenarios import (
    CATALOG_NAMES,
    GATE_NAMES,
    CatalogEntry,
    CatalogMatrix,
    run_scenario,
    scenario_at,
)

#: Short horizon for the in-test gate-entry runs; the committed matrix
#: in ``results/`` runs them at the smoke horizon and gates the real
#: numbers.
DURATION = 1800

BASELINE = "results/SCORECARD_catalog.json"


@pytest.fixture(scope="module")
def steady():
    return run_scenario(scenario_at("steady", DURATION))


@pytest.fixture(scope="module")
def chaos():
    return run_scenario(scenario_at("chaos", DURATION))


# ----------------------------------------------------------------------
# from_result field extraction on the gate entries
# ----------------------------------------------------------------------
class TestSmokeScenarios:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown catalog scenario"):
            scenario_at("nope", DURATION)

    def test_steady_fields_populated(self, steady):
        assert steady.name == "steady"
        assert steady.duration_seconds == DURATION
        assert set(steady.slo_violation_pct) == {"ingestion", "analytics", "storage"}
        assert set(steady.cost_by_layer) >= {"ingestion", "analytics", "storage"}
        assert steady.total_cost == pytest.approx(
            sum(steady.cost_by_layer.values()), rel=1e-6
        )
        assert steady.total_cost > 0
        # Every layer loop decides every control period.
        assert set(steady.decisions) == {"ingestion", "analytics", "storage"}
        assert all(n == DURATION // 60 for n in steady.decisions.values())
        assert all(
            steady.actuations[k] <= steady.decisions[k] for k in steady.actuations
        )
        assert steady.mttr_by_fault == {}
        assert steady.invariants_ok

    def test_steady_chains_all_close(self, steady):
        assert steady.causal_chains > 0
        assert steady.causal_chains_closed == steady.causal_chains

    def test_chaos_scores_every_fault(self, chaos):
        # One MTTR entry per injected fault, keyed kind@start.
        assert len(chaos.mttr_by_fault) == 3
        assert all("@" in key for key in chaos.mttr_by_fault)
        assert chaos.causal_chains > steady_chains_lower_bound(chaos)

    def test_scenario_registry_matches_baselines(self):
        assert GATE_NAMES == ("steady", "chaos", "fleet")
        committed = CatalogMatrix.from_json_file(BASELINE)
        assert sorted(committed.entries) == sorted(CATALOG_NAMES + GATE_NAMES)


def steady_chains_lower_bound(chaos: RunScorecard) -> int:
    # At minimum one chain per decision that acted, plus the faults.
    return sum(chaos.actuations.values())


# ----------------------------------------------------------------------
# Serialisation
# ----------------------------------------------------------------------
class TestSerialisation:
    def test_json_round_trip_is_lossless(self, steady):
        clone = RunScorecard.from_dict(json.loads(steady.to_json()))
        assert clone == steady

    def test_from_json_file(self, steady, tmp_path):
        path = tmp_path / "card.json"
        path.write_text(steady.to_json())
        assert RunScorecard.from_json_file(path) == steady

    def test_to_dict_covers_every_field(self, steady):
        d = steady.to_dict()
        assert set(d) == {f.name for f in dataclasses.fields(RunScorecard)}

    def test_summary_renders_key_numbers(self, chaos):
        text = chaos.summary()
        assert f"{chaos.total_cost:.4f}" in text
        assert "causal chains" in text
        assert "mttr per fault" in text


# ----------------------------------------------------------------------
# The regression gate
# ----------------------------------------------------------------------
class TestCompare:
    def test_identical_scorecards_pass(self, steady):
        assert steady.compare(steady) == []

    def test_scalar_drift_is_named(self, steady):
        drifted = dataclasses.replace(steady, total_cost=steady.total_cost * 1.01)
        messages = steady.compare(drifted)
        assert any(m.startswith("total_cost:") for m in messages)

    def test_improvement_fails_too(self, steady):
        """A cheaper run without a regenerated baseline is drift."""
        drifted = dataclasses.replace(steady, total_cost=steady.total_cost * 0.5)
        assert steady.compare(drifted)

    def test_dict_drift_names_the_key(self, steady):
        costs = dict(steady.cost_by_layer)
        costs["storage"] = costs["storage"] + 1.0
        drifted = dataclasses.replace(steady, cost_by_layer=costs)
        messages = steady.compare(drifted)
        assert any(m.startswith("cost_by_layer.storage:") for m in messages)

    def test_missing_dict_key_is_drift(self, steady):
        costs = dict(steady.cost_by_layer)
        costs.pop("storage")
        drifted = dataclasses.replace(steady, cost_by_layer=costs)
        assert any(
            "cost_by_layer.storage" in m for m in drifted.compare(steady)
        )

    def test_field_absent_from_baseline_is_drift(self, steady):
        """A field the current card has but the baseline lacks (future
        schema additions, hand-edited baselines) must surface as drift,
        not be silently skipped."""

        class LegacyCard(RunScorecard):
            def to_dict(self):
                trimmed = super().to_dict()
                del trimmed["breaker_openings"]
                del trimmed["clamps"]
                return trimmed

        fields = {f.name: getattr(steady, f.name) for f in dataclasses.fields(steady)}
        legacy = LegacyCard(**fields)
        messages = steady.compare(legacy)
        assert any(m.startswith("breaker_openings:") for m in messages)
        # Dict-valued fields drift per sub-key.
        assert any(m.startswith("clamps.") for m in messages)

    def test_wall_clock_fields_exempt(self, steady):
        drifted = dataclasses.replace(
            steady, wall_seconds=steady.wall_seconds + 100.0, ticks_per_second=1.0
        )
        assert steady.compare(drifted) == []
        assert WALL_CLOCK_FIELDS == {
            "wall_seconds", "ticks_per_second", "flow_wall_seconds"
        }

    def test_mttr_none_vs_number_is_drift(self, chaos):
        mttr = dict(chaos.mttr_by_fault)
        key = next(iter(mttr))
        mttr[key] = None
        drifted = dataclasses.replace(chaos, mttr_by_fault=mttr)
        assert any(key in m for m in chaos.compare(drifted))


# ----------------------------------------------------------------------
# Fleet scorecards
# ----------------------------------------------------------------------
class TestFleetScorecard:
    @pytest.fixture(scope="class")
    def fleet(self):
        return run_scenario(scenario_at("fleet", DURATION))

    def test_fields_populated(self, fleet):
        assert fleet.name == "fleet"
        assert fleet.duration_seconds == DURATION
        assert sorted(fleet.flows) == ["flow0", "flow1", "flow2"]
        assert fleet.coordinator_passes == DURATION // 300
        assert fleet.total_cost == pytest.approx(
            sum(card.total_cost for card in fleet.flows.values()), rel=1e-6
        )
        for card in fleet.flows.values():
            assert card.invariants_ok

    def test_json_round_trip_is_lossless(self, fleet):
        clone = FleetScorecard.from_dict(json.loads(fleet.to_json()))
        assert clone == fleet

    def test_from_json_file(self, fleet, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(fleet.to_json())
        assert FleetScorecard.from_json_file(path) == fleet

    def test_identical_cards_pass(self, fleet):
        assert fleet.compare(fleet) == []

    def test_fleet_level_drift_is_named(self, fleet):
        drifted = dataclasses.replace(fleet, cap_retargets=fleet.cap_retargets + 1)
        messages = drifted.compare(fleet)
        assert any("cap_retargets" in m for m in messages)

    def test_per_flow_drift_is_prefixed(self, fleet):
        flows = dict(fleet.flows)
        flows["flow1"] = dataclasses.replace(
            flows["flow1"], retry_attempts=flows["flow1"].retry_attempts + 5
        )
        drifted = dataclasses.replace(fleet, flows=flows)
        messages = drifted.compare(fleet)
        assert any(m.startswith("flow1.retry_attempts") for m in messages)

    def test_missing_flow_is_drift(self, fleet):
        flows = dict(fleet.flows)
        flows.pop("flow2")
        drifted = dataclasses.replace(fleet, flows=flows)
        messages = drifted.compare(fleet)
        assert any("flows.flow2" in m for m in messages)

    def test_denial_drift_is_named(self, fleet):
        denials = {**fleet.denials, "flow0": {"instances": 999}}
        drifted = dataclasses.replace(fleet, denials=denials)
        messages = drifted.compare(fleet)
        assert any(m.startswith("denials.flow0.instances") for m in messages)

    def test_wall_clock_exempt(self, fleet):
        drifted = dataclasses.replace(fleet, wall_seconds=fleet.wall_seconds + 100)
        assert drifted.compare(fleet) == []

    def test_without_wall_clock_zeroes_every_flow(self, fleet):
        noisy = dataclasses.replace(
            fleet,
            wall_seconds=3.0,
            flow_wall_seconds={"flow0": 1.0},
            flows={k: dataclasses.replace(c, wall_seconds=1.0, ticks_per_second=9.0)
                   for k, c in fleet.flows.items()},
        )
        assert noisy.without_wall_clock() == fleet

    def test_committed_baseline_loads_and_has_expected_shape(self):
        """The gate's fleet entry still exercises every mechanism the
        retired fleet card gated: admission denials, cap retargets,
        share clamps in every flow, and clean invariants."""
        card = CatalogMatrix.from_json_file(BASELINE).entries["fleet"].card
        assert isinstance(card, FleetScorecard)
        assert card.name == "fleet"
        assert sorted(card.flows) == ["flow0", "flow1", "flow2"]
        assert card.coordinator_passes > 0
        assert card.cap_retargets > 0
        assert sum(sum(counts.values()) for counts in card.denials.values()) > 0
        for flow in card.flows.values():
            assert sum(flow.clamps.values()) > 0
            assert flow.invariants_ok


# ----------------------------------------------------------------------
# Strict loading: a baseline missing a field (or carrying an unknown
# one) is refused by name, never filled with a default.
# ----------------------------------------------------------------------
def _committed():
    with open(BASELINE) as handle:
        return json.load(handle)


_COMMITTED = _committed()
_RUN_KEYS = list(_COMMITTED["scenarios"]["steady"]["card"])
_FLEET_KEYS = list(_COMMITTED["scenarios"]["fleet"]["card"])
_ENTRY_KEYS = list(_COMMITTED["scenarios"]["steady"])
_MATRIX_KEYS = list(_COMMITTED)


def _loaders():
    """(label, key, loader, payload) per droppable field."""
    data = _COMMITTED
    run_card = data["scenarios"]["steady"]["card"]
    fleet_card = data["scenarios"]["fleet"]["card"]
    cases = [("run", key, RunScorecard.from_dict, run_card) for key in _RUN_KEYS]
    cases += [("fleet", key, FleetScorecard.from_dict, fleet_card) for key in _FLEET_KEYS]
    cases += [("entry", key, CatalogEntry.from_dict, data["scenarios"]["fleet"])
              for key in _ENTRY_KEYS]
    cases += [("matrix", key, CatalogMatrix.from_dict, data)
              for key in _MATRIX_KEYS if key != "kind"]
    return cases


class TestStrictLoading:
    def test_committed_cards_declare_every_field(self):
        assert set(_RUN_KEYS) == {f.name for f in dataclasses.fields(RunScorecard)}
        assert set(_FLEET_KEYS) == {"kind"} | {
            f.name for f in dataclasses.fields(FleetScorecard)
        }

    @pytest.mark.parametrize(
        "label,key,loader,payload", _loaders(),
        ids=[f"{label}-{key}" for label, key, _loader, _payload in _loaders()],
    )
    def test_missing_field_is_named(self, label, key, loader, payload):
        trimmed = copy.deepcopy(payload)
        del trimmed[key]
        with pytest.raises(ConfigurationError, match=f"missing field '{key}'"):
            loader(trimmed)

    @pytest.mark.parametrize("loader,payload", [
        (RunScorecard.from_dict, _COMMITTED["scenarios"]["steady"]["card"]),
        (FleetScorecard.from_dict, _COMMITTED["scenarios"]["fleet"]["card"]),
        (CatalogEntry.from_dict, _COMMITTED["scenarios"]["steady"]),
        (CatalogMatrix.from_dict, _COMMITTED),
    ], ids=["run", "fleet", "entry", "matrix"])
    def test_unknown_field_is_named(self, loader, payload):
        extended = {**copy.deepcopy(payload), "mystery_field": 1}
        with pytest.raises(ConfigurationError, match="unknown field 'mystery_field'"):
            loader(extended)

    def test_nested_flow_card_is_strict_too(self):
        fleet = copy.deepcopy(_COMMITTED["scenarios"]["fleet"]["card"])
        del fleet["flows"]["flow1"]["dropped_writes"]
        with pytest.raises(ConfigurationError, match="missing field 'dropped_writes'"):
            FleetScorecard.from_dict(fleet)

    def test_committed_matrix_loads(self):
        matrix = CatalogMatrix.from_dict(copy.deepcopy(_COMMITTED))
        assert json.loads(matrix.to_json()) == _COMMITTED


# ----------------------------------------------------------------------
# Scenario-catalog guardrails: the fast path runs clean, and the
# exactness firewall extends to catalog cards and matrices.
# ----------------------------------------------------------------------
class TestCatalogExactness:
    @pytest.fixture(scope="class")
    def fast_matrix(self):
        from repro.scenarios import catalog, run_catalog

        return run_catalog(catalog("smoke"), variant="smoke", jobs=1, fast=True)

    def test_every_catalog_scenario_runs_clean_under_fast(self, fast_matrix):
        from repro.scenarios import CATALOG_NAMES

        assert sorted(fast_matrix.entries) == sorted(CATALOG_NAMES)
        assert fast_matrix.exact is False
        for name, entry in fast_matrix.entries.items():
            assert entry.card.exact is False, name
            assert entry.card.invariants_ok, name
            assert entry.card.total_cost > 0, name

    def test_fast_card_refuses_exact_baseline(self, fast_matrix):
        from repro.scenarios import catalog_scenario, run_scenario

        exact_card = run_scenario(catalog_scenario("flash-crowd-throttle-storm"))
        fast_card = fast_matrix.entries["flash-crowd-throttle-storm"].card
        with pytest.raises(ConfigurationError, match="exact=False.*exact=True"):
            fast_card.compare(exact_card)
        with pytest.raises(ConfigurationError, match="exact=True.*exact=False"):
            exact_card.compare(fast_card)

    def test_fast_matrix_refuses_exact_baseline(self, fast_matrix):
        from repro.scenarios import CatalogMatrix

        baseline = CatalogMatrix.from_json_file("results/SCORECARD_catalog.json")
        with pytest.raises(ConfigurationError, match="not bit-comparable"):
            fast_matrix.compare(baseline)
        with pytest.raises(ConfigurationError, match="not bit-comparable"):
            baseline.compare(fast_matrix)
