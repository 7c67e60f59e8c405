"""Loop-based NSGA-II reference implementations (not collected by pytest).

``repro.optimization.nsga2`` ships only the matrix path. This module
keeps two independent references the equivalence tests check it
against:

* the textbook list-based trio from Deb et al. — ``constrained_dominates``,
  ``fast_non_dominated_sort`` and ``crowding_distance`` over
  :class:`~repro.optimization.nsga2.Individual` lists;
* :class:`ScalarNSGA2`, an ``NSGA2`` whose sort, crowding, tournament,
  variation and truncation steps are per-individual Python loops over
  the *same* pre-drawn numbers. Same seed, same Pareto front, bit for
  bit.

Tests that need the reference through the share analyzer swap it in
with ``monkeypatch.setattr(share_analyzer, "NSGA2", ScalarNSGA2)``.
"""

from __future__ import annotations

import numpy as np

from repro.optimization.nsga2 import NSGA2, Individual, _GenerationDraws


def constrained_dominates(a: Individual, b: Individual) -> bool:
    """Deb's constrained-dominance relation."""
    if a.feasible and not b.feasible:
        return True
    if not a.feasible and b.feasible:
        return False
    if not a.feasible and not b.feasible:
        return a.violation < b.violation
    return bool(np.all(a.f <= b.f) and np.any(a.f < b.f))


def fast_non_dominated_sort(population: list[Individual]) -> list[list[int]]:
    """Assign ranks in place; return the fronts as index lists."""
    n = len(population)
    dominated_by: list[list[int]] = [[] for _ in range(n)]
    domination_count = [0] * n
    fronts: list[list[int]] = [[]]
    for i in range(n):
        for j in range(i + 1, n):
            if constrained_dominates(population[i], population[j]):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif constrained_dominates(population[j], population[i]):
                dominated_by[j].append(i)
                domination_count[i] += 1
        if domination_count[i] == 0:
            population[i].rank = 0
            fronts[0].append(i)
    current = 0
    while fronts[current]:
        next_front: list[int] = []
        for i in fronts[current]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    population[j].rank = current + 1
                    next_front.append(j)
        current += 1
        fronts.append(next_front)
    fronts.pop()  # trailing empty front
    return fronts


def crowding_distance(population: list[Individual], front: list[int]) -> None:
    """Assign crowding distances in place for one front."""
    size = len(front)
    for i in front:
        population[i].crowding = 0.0
    if size <= 2:
        for i in front:
            population[i].crowding = np.inf
        return
    n_obj = len(population[front[0]].f)
    for m in range(n_obj):
        ordered = sorted(front, key=lambda i: population[i].f[m])
        low = population[ordered[0]].f[m]
        high = population[ordered[-1]].f[m]
        population[ordered[0]].crowding = np.inf
        population[ordered[-1]].crowding = np.inf
        span = high - low
        if span == 0:
            continue
        for k in range(1, size - 1):
            gap = population[ordered[k + 1]].f[m] - population[ordered[k - 1]].f[m]
            population[ordered[k]].crowding += gap / span


class ScalarNSGA2(NSGA2):
    """``NSGA2`` with every batched step replaced by a Python loop."""

    @staticmethod
    def _dominates(fi: np.ndarray, vi: float, fj: np.ndarray, vj: float) -> bool:
        if vi == 0.0 and vj != 0.0:
            return True
        if vi != 0.0 and vj == 0.0:
            return False
        if vi != 0.0:
            return vi < vj
        return bool(np.all(fi <= fj) and np.any(fi < fj))

    def _fronts(self, F: np.ndarray, V: np.ndarray) -> list[np.ndarray]:
        n = len(F)
        dominated_by: list[list[int]] = [[] for _ in range(n)]
        remaining = [0] * n
        for i in range(n):
            for j in range(n):
                if i != j and self._dominates(F[i], V[i], F[j], V[j]):
                    dominated_by[i].append(j)
                    remaining[j] += 1
        assigned = [False] * n
        fronts: list[np.ndarray] = []
        while not all(assigned):
            front = [i for i in range(n) if not assigned[i] and remaining[i] == 0]
            for i in front:
                assigned[i] = True
            for i in front:
                for j in dominated_by[i]:
                    remaining[j] -= 1
            fronts.append(np.array(front, dtype=int))
        return fronts

    def _crowding(self, F: np.ndarray, front: np.ndarray) -> np.ndarray:
        size = len(front)
        if size <= 2:
            return np.full(size, np.inf)
        crowd = np.zeros(size)
        for m in range(self.problem.n_obj):
            order = sorted(range(size), key=lambda k: F[front[k], m])
            vals = [F[front[k], m] for k in order]
            crowd[order[0]] = np.inf
            crowd[order[-1]] = np.inf
            span = vals[-1] - vals[0]
            if span == 0:
                continue
            for k in range(1, size - 1):
                crowd[order[k]] += (vals[k + 1] - vals[k - 1]) / span
        return crowd

    def _select_parents(
        self, rank: np.ndarray, crowd: np.ndarray, draws: _GenerationDraws
    ) -> np.ndarray:
        a, b = draws.entrant_a, draws.entrant_b
        winners = np.empty(len(a), dtype=int)
        for k in range(len(a)):
            i, j = int(a[k]), int(b[k])
            if rank[i] != rank[j]:
                winners[k] = i if rank[i] < rank[j] else j
            elif crowd[i] != crowd[j]:
                winners[k] = i if crowd[i] > crowd[j] else j
            else:
                winners[k] = i if draws.tie[k] < 0.5 else j
        return winners

    def _variation(self, parents: np.ndarray, draws: _GenerationDraws) -> np.ndarray:
        beta, delta = self._operator_tables(draws)
        pop, n_var = parents.shape
        children = parents.copy()
        for p in range(pop // 2):
            x1, x2 = parents[2 * p], parents[2 * p + 1]
            if draws.sbx_gate[p] > self.config.crossover_probability:
                continue
            for d in range(n_var):
                if draws.sbx_apply[p, d] > 0.5 or abs(x1[d] - x2[d]) < 1e-14:
                    continue
                y1, y2 = np.minimum(x1[d], x2[d]), np.maximum(x1[d], x2[d])
                b = beta[p, d]
                children[2 * p, d] = 0.5 * ((y1 + y2) - b * (y2 - y1))
                children[2 * p + 1, d] = 0.5 * ((y1 + y2) + b * (y2 - y1))
        span = self.problem.upper - self.problem.lower
        for i in range(pop):
            for d in range(n_var):
                if draws.mut_apply[i, d] > self._mutation_p or span[d] <= 0:
                    continue
                children[i, d] = children[i, d] + delta[i, d] * span[d]
        return children

    @staticmethod
    def _truncate(crowd: np.ndarray, keep: int) -> np.ndarray:
        order = sorted(range(len(crowd)), key=lambda k: crowd[k], reverse=True)[:keep]
        return np.asarray(order, dtype=int)
