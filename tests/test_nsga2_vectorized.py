"""Matrix-vs-loop NSGA-II equivalence suite.

The optimizer draws every generation's random numbers up front (the
pinned call pattern in ``nsga2.py``'s module docstring) and then applies
the operators as numpy matrix expressions. ``tests/nsga2_reference.py``
applies them as per-individual Python loops over the same draws. These
tests pin the contract: **same seed, same Pareto front, bit for bit**,
on a continuous known-optimum problem, a constrained problem, and the
paper's Fig. 4 share problem.
"""

import numpy as np
import pytest

from repro.core.flow import LayerKind, clickstream_flow_spec
from repro.optimization import (
    NSGA2,
    NSGA2Config,
    FunctionalProblem,
    ResourceShareAnalyzer,
    ShareConstraint,
    share_analyzer,
)
from repro.optimization.nsga2 import Individual, dominance_matrix

from tests.nsga2_reference import ScalarNSGA2, constrained_dominates


def schaffer():
    """SCH: f1=x^2, f2=(x-2)^2; the Pareto set is x in [0, 2]."""
    return FunctionalProblem(
        objectives=[lambda x: float(x[0] ** 2), lambda x: float((x[0] - 2) ** 2)],
        lower=[-1000.0],
        upper=[1000.0],
    )


def constrained():
    """Maximize x and y under x + y <= 10."""
    return FunctionalProblem(
        objectives=[lambda x: -float(x[0]), lambda x: -float(x[1])],
        lower=[0.0, 0.0],
        upper=[20.0, 20.0],
        constraints=[lambda x: float(x[0] + x[1]) - 10.0],
    )


def run_both(problem_factory, config, seed):
    vec = NSGA2(problem_factory(), config, seed=seed).run()
    ref = ScalarNSGA2(problem_factory(), config, seed=seed).run()
    return vec, ref


class TestScalarVectorizedEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_schaffer_front_identical(self, seed):
        config = NSGA2Config(population_size=24, generations=40)
        vec, ref = run_both(schaffer, config, seed)
        assert np.array_equal(vec.pareto_f, ref.pareto_f)
        assert np.array_equal(vec.pareto_x, ref.pareto_x)

    def test_schaffer_converges_to_known_optimum_both_paths(self):
        config = NSGA2Config(population_size=60, generations=100)
        vec, ref = run_both(schaffer, config, seed=1)
        for result in (vec, ref):
            xs = result.pareto_x.ravel()
            assert len(xs) >= 20
            assert np.all(xs >= -0.05)
            assert np.all(xs <= 2.05)

    def test_constrained_front_identical(self):
        config = NSGA2Config(population_size=20, generations=40)
        vec, ref = run_both(constrained, config, seed=2)
        assert np.array_equal(vec.pareto_f, ref.pareto_f)
        assert np.array_equal(vec.pareto_x, ref.pareto_x)

    def test_whole_final_population_identical(self):
        config = NSGA2Config(population_size=20, generations=15)
        vec, ref = run_both(constrained, config, seed=9)
        assert len(vec.population) == len(ref.population)
        for a, b in zip(vec.population, ref.population):
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.f, b.f)
            assert a.violation == b.violation
            assert a.rank == b.rank
            assert a.crowding == b.crowding

    def test_evaluation_counts_match(self):
        config = NSGA2Config(population_size=16, generations=12)
        vec, ref = run_both(schaffer, config, seed=4)
        assert vec.evaluations == ref.evaluations == 16 + 16 * 12


class TestFig4Equivalence:
    def paper_analyzer(self):
        constraints = [
            ShareConstraint.at_least(5, LayerKind.ANALYTICS, LayerKind.INGESTION),
            ShareConstraint.at_most(2, LayerKind.ANALYTICS, LayerKind.INGESTION),
            ShareConstraint.at_most(2, LayerKind.INGESTION, LayerKind.STORAGE),
        ]
        return ResourceShareAnalyzer(clickstream_flow_spec(), constraints=constraints)

    def test_share_analysis_identical_across_paths(self, monkeypatch):
        analyzer = self.paper_analyzer()
        kwargs = dict(budget_per_hour=1.5, population_size=40, generations=40, seed=0)
        vec = analyzer.analyze(**kwargs)
        monkeypatch.setattr(share_analyzer, "NSGA2", ScalarNSGA2)
        ref = analyzer.analyze(**kwargs)
        assert [s.shares for s in vec.solutions] == [s.shares for s in ref.solutions]
        assert [s.hourly_cost for s in vec.solutions] == [s.hourly_cost for s in ref.solutions]
        assert vec.evaluations == ref.evaluations

    def test_share_problem_batch_matches_rowwise(self):
        from repro.cloud.pricing import PriceBook
        from repro.optimization.share_analyzer import _ShareProblem

        analyzer = self.paper_analyzer()
        problem = _ShareProblem(analyzer.flow, PriceBook(), 1.5, analyzer.constraints)
        rng = np.random.default_rng(0)
        X = problem.repair(rng.uniform(problem.lower, problem.upper, size=(50, 3)))
        F_batch, V_batch = problem.evaluate_batch(X)
        for i, x in enumerate(X):
            f, v = problem.evaluate(x)
            assert np.array_equal(F_batch[i], f)
            assert np.array_equal(V_batch[i], v)


class TestTournamentDraws:
    def test_entrants_are_always_distinct(self):
        """Deb's binary tournament: an individual never competes with itself."""
        optimizer = NSGA2(schaffer(), NSGA2Config(population_size=100, generations=1), seed=0)
        for _ in range(50):
            draws = optimizer._draw_generation(100)
            assert np.all(draws.entrant_a != draws.entrant_b)
            assert np.all((draws.entrant_b >= 0) & (draws.entrant_b < 100))

    def test_draw_pattern_is_pinned(self):
        """The documented RNG call order: replaying it by hand must match."""
        config = NSGA2Config(population_size=8, generations=1)
        optimizer = NSGA2(schaffer(), config, seed=123)
        optimizer._initial_samples()  # consume the initialization draws
        draws = optimizer._draw_generation(8)

        rng = np.random.default_rng(123)
        for _d in range(1):  # n_var columns of the stratified start
            rng.uniform(0, 1, 8)
            rng.shuffle(np.empty(8))
        a = rng.integers(0, 8, size=8)
        b = rng.integers(0, 7, size=8)
        b = b + (b >= a)
        assert np.array_equal(draws.entrant_a, a)
        assert np.array_equal(draws.entrant_b, b)
        assert np.array_equal(draws.tie, rng.random(8))
        assert np.array_equal(draws.sbx_gate, rng.random(4))
        assert np.array_equal(draws.sbx_apply, rng.random((4, 1)))
        assert np.array_equal(draws.sbx_u, rng.random((4, 1)))
        assert np.array_equal(draws.mut_apply, rng.random((8, 1)))
        assert np.array_equal(draws.mut_u, rng.random((8, 1)))


class TestDominanceMatrix:
    def test_agrees_with_pairwise_constrained_dominance(self):
        rng = np.random.default_rng(3)
        F = rng.normal(size=(30, 3)).round(1)  # rounding forces some ties
        V = np.where(rng.random(30) < 0.4, rng.random(30), 0.0)
        population = [
            Individual(x=np.zeros(1), f=F[i], violation=float(V[i])) for i in range(30)
        ]
        D = dominance_matrix(F, V)
        for i in range(30):
            for j in range(30):
                expected = i != j and constrained_dominates(population[i], population[j])
                assert D[i, j] == expected, (i, j)
