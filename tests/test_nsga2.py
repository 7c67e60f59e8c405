"""Unit tests for the NSGA-II implementation.

Validated against problems with known Pareto fronts (Schaffer's SCH,
a constrained variant of Binh-Korn) and against the algorithm's own
structural invariants (sorting correctness, crowding behaviour,
determinism).
"""

import numpy as np
import pytest

from repro.core.errors import OptimizationError
from repro.optimization import NSGA2, NSGA2Config, FunctionalProblem
from repro.optimization.nsga2 import Individual

from tests.nsga2_reference import (
    constrained_dominates,
    crowding_distance,
    fast_non_dominated_sort,
)


def individual(f, violation=0.0):
    return Individual(x=np.zeros(1), f=np.asarray(f, dtype=float), violation=violation)


class TestConstrainedDominance:
    def test_feasible_beats_infeasible(self):
        assert constrained_dominates(individual([9, 9]), individual([1, 1], violation=0.1))

    def test_infeasibles_compare_by_violation(self):
        assert constrained_dominates(
            individual([9, 9], violation=0.1), individual([1, 1], violation=0.5)
        )

    def test_feasibles_compare_by_pareto(self):
        assert constrained_dominates(individual([1, 1]), individual([2, 2]))
        assert not constrained_dominates(individual([1, 3]), individual([3, 1]))


class TestFastNonDominatedSort:
    def test_ranks_layered_fronts(self):
        population = [
            individual([1, 1]),  # rank 0
            individual([2, 2]),  # rank 1
            individual([3, 3]),  # rank 2
            individual([0, 4]),  # rank 0 (trade-off with [1,1])
        ]
        fronts = fast_non_dominated_sort(population)
        assert sorted(fronts[0]) == [0, 3]
        assert fronts[1] == [1]
        assert fronts[2] == [2]
        assert [p.rank for p in population] == [0, 1, 2, 0]

    def test_single_front(self):
        population = [individual([1, 3]), individual([2, 2]), individual([3, 1])]
        fronts = fast_non_dominated_sort(population)
        assert len(fronts) == 1

    def test_infeasible_ranked_below_feasible(self):
        population = [individual([5, 5]), individual([0, 0], violation=1.0)]
        fronts = fast_non_dominated_sort(population)
        assert fronts[0] == [0]
        assert fronts[1] == [1]


class TestCrowdingDistance:
    def test_extremes_are_infinite(self):
        population = [individual([1, 3]), individual([2, 2]), individual([3, 1])]
        crowding_distance(population, [0, 1, 2])
        assert population[0].crowding == np.inf
        assert population[2].crowding == np.inf
        assert np.isfinite(population[1].crowding)

    def test_sparser_point_has_larger_distance(self):
        population = [
            individual([0, 10]),
            individual([1, 9]),     # crowded near the left extreme
            individual([5, 5]),     # isolated middle
            individual([10, 0]),
        ]
        crowding_distance(population, [0, 1, 2, 3])
        assert population[2].crowding > population[1].crowding

    def test_small_fronts_all_infinite(self):
        population = [individual([1, 1]), individual([2, 0])]
        crowding_distance(population, [0, 1])
        assert population[0].crowding == np.inf
        assert population[1].crowding == np.inf


class TestNSGA2OnKnownProblems:
    def test_schaffer_front(self):
        """SCH: f1=x^2, f2=(x-2)^2; Pareto set is x in [0, 2]."""
        problem = FunctionalProblem(
            objectives=[lambda x: float(x[0] ** 2), lambda x: float((x[0] - 2) ** 2)],
            lower=[-1000.0],
            upper=[1000.0],
        )
        result = NSGA2(problem, NSGA2Config(population_size=60, generations=100), seed=1).run()
        xs = result.pareto_x.ravel()
        assert len(xs) >= 20
        assert np.all(xs >= -0.05)
        assert np.all(xs <= 2.05)

    def test_constrained_problem_respects_constraints(self):
        """Maximize x and y (minimize negatives) under x + y <= 10."""
        problem = FunctionalProblem(
            objectives=[lambda x: -float(x[0]), lambda x: -float(x[1])],
            lower=[0.0, 0.0],
            upper=[20.0, 20.0],
            constraints=[lambda x: float(x[0] + x[1]) - 10.0],
        )
        result = NSGA2(problem, NSGA2Config(population_size=60, generations=80), seed=2).run()
        X = result.pareto_x
        assert len(X) > 5
        sums = X.sum(axis=1)
        assert np.all(sums <= 10.0 + 1e-9)
        # The budget should be binding on the front (within one unit).
        assert sums.max() > 9.0

    def test_integer_problem_yields_integer_solutions(self):
        problem = FunctionalProblem(
            objectives=[lambda x: -float(x[0]), lambda x: -float(x[1])],
            lower=[1.0, 1.0],
            upper=[10.0, 10.0],
            constraints=[lambda x: float(x[0] + x[1]) - 8.0],
            integer=True,
        )
        result = NSGA2(problem, NSGA2Config(population_size=40, generations=60), seed=3).run()
        X = result.pareto_x
        assert np.allclose(X, np.round(X))
        assert np.all(X.sum(axis=1) <= 8.0)


class TestNSGA2Mechanics:
    def _problem(self):
        return FunctionalProblem(
            objectives=[lambda x: float(x[0] ** 2), lambda x: float((x[0] - 2) ** 2)],
            lower=[-10.0],
            upper=[10.0],
        )

    def test_deterministic_given_seed(self):
        r1 = NSGA2(self._problem(), NSGA2Config(population_size=20, generations=10), seed=5).run()
        r2 = NSGA2(self._problem(), NSGA2Config(population_size=20, generations=10), seed=5).run()
        assert np.array_equal(r1.pareto_f, r2.pareto_f)

    def test_different_seeds_differ(self):
        r1 = NSGA2(self._problem(), NSGA2Config(population_size=20, generations=10), seed=5).run()
        r2 = NSGA2(self._problem(), NSGA2Config(population_size=20, generations=10), seed=6).run()
        assert not np.array_equal(r1.pareto_f, r2.pareto_f)

    def test_evaluation_count(self):
        config = NSGA2Config(population_size=20, generations=10)
        result = NSGA2(self._problem(), config, seed=0).run()
        assert result.evaluations == 20 + 20 * 10

    def test_population_size_is_maintained(self):
        config = NSGA2Config(population_size=30, generations=5)
        result = NSGA2(self._problem(), config, seed=0).run()
        assert len(result.population) == 30

    def test_front_deduplicates_objectives(self):
        result = NSGA2(self._problem(), NSGA2Config(population_size=20, generations=30), seed=0).run()
        keys = [tuple(np.round(ind.f, 12)) for ind in result.front]
        assert len(keys) == len(set(keys))

    def test_solutions_within_bounds(self):
        result = NSGA2(self._problem(), NSGA2Config(population_size=20, generations=20), seed=0).run()
        for ind in result.population:
            assert -10.0 <= ind.x[0] <= 10.0

    def test_config_validation(self):
        with pytest.raises(OptimizationError):
            NSGA2Config(population_size=3)
        with pytest.raises(OptimizationError):
            NSGA2Config(population_size=21)  # odd
        with pytest.raises(OptimizationError):
            NSGA2Config(generations=0)
        with pytest.raises(OptimizationError):
            NSGA2Config(crossover_probability=1.5)
        with pytest.raises(OptimizationError):
            NSGA2Config(mutation_eta=0)

    def test_convergence_improves_with_generations(self):
        from repro.optimization import hypervolume

        short = NSGA2(self._problem(), NSGA2Config(population_size=24, generations=2), seed=7).run()
        long = NSGA2(self._problem(), NSGA2Config(population_size=24, generations=60), seed=7).run()
        ref = [30.0, 30.0]
        assert hypervolume(long.pareto_f, ref) >= hypervolume(short.pareto_f, ref) - 1e-6
