"""Resource share analysis (paper Sec. 3.2, Eq. 3–5).

Given a budget and the dependency constraints learned by the workload
dependency analyzer, "what would be the maximum share of resources for
each layer in a data analytics flow?" The analyzer casts the question
as the paper's multi-objective problem

    max (r_I, r_A, r_S)
    s.t. sum_d r_I*c_d + sum_d r_A*c_d + sum_d r_S*c_d <= Bud   (Eq. 4)
         dependency constraints between layers                  (Eq. 5)

and searches the provisioning-plan space with NSGA-II, returning the
Pareto-optimal resource shares (Fig. 4). One solution is then picked
"either manually by the user or randomly by the system" — plus a few
practical strategies (balanced, cheapest, layer-max).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cloud.pricing import PriceBook
from repro.core.errors import OptimizationError
from repro.core.flow import FlowSpec, LayerKind
from repro.dependency.analyzer import DependencyModel
from repro.optimization.nsga2 import NSGA2, NSGA2Config
from repro.optimization.problem import Problem

#: Decision-vector order used throughout: r_I, r_A, r_S.
LAYER_ORDER = (LayerKind.INGESTION, LayerKind.ANALYTICS, LayerKind.STORAGE)


@dataclass(frozen=True)
class ShareConstraint:
    """A linear constraint over layer resource amounts.

    Encodes ``sum_k coefficients[k] * r_k + constant <= 0``. The named
    constructors cover the forms the paper uses.
    """

    coefficients: tuple[tuple[LayerKind, float], ...]
    constant: float = 0.0
    label: str = ""

    @classmethod
    def at_least(cls, factor: float, a: LayerKind, b: LayerKind) -> "ShareConstraint":
        """``factor * r_a >= r_b`` (e.g. the paper's ``5*r_A >= r_I``)."""
        return cls(
            coefficients=((b, 1.0), (a, -float(factor))),
            label=f"{factor:g}*r_{a.code} >= r_{b.code}",
        )

    @classmethod
    def at_most(cls, factor: float, a: LayerKind, b: LayerKind) -> "ShareConstraint":
        """``factor * r_a <= r_b`` (e.g. the paper's ``2*r_I <= r_S``)."""
        return cls(
            coefficients=((a, float(factor)), (b, -1.0)),
            label=f"{factor:g}*r_{a.code} <= r_{b.code}",
        )

    @classmethod
    def dependency_band(
        cls,
        target: LayerKind,
        slope: float,
        intercept: float,
        source: LayerKind,
        tolerance: float,
    ) -> tuple["ShareConstraint", "ShareConstraint"]:
        """Eq. 5 as a band: ``|r_target - (slope*r_source + intercept)| <= tol``.

        A regression dependency is an equality with error; enforcing it
        as an exact equality would leave NSGA-II no feasible volume, so
        it becomes two inequalities ``tolerance`` wide.
        """
        if tolerance < 0:
            raise OptimizationError("tolerance must be non-negative")
        upper = cls(
            coefficients=((target, 1.0), (source, -slope)),
            constant=-intercept - tolerance,
            label=f"r_{target.code} <= {slope:g}*r_{source.code} + {intercept:g} + {tolerance:g}",
        )
        lower = cls(
            coefficients=((target, -1.0), (source, slope)),
            constant=intercept - tolerance,
            label=f"r_{target.code} >= {slope:g}*r_{source.code} + {intercept:g} - {tolerance:g}",
        )
        return lower, upper

    @classmethod
    def from_dependency(
        cls,
        model: DependencyModel,
        target: LayerKind,
        source: LayerKind,
        tolerance_sigmas: float = 2.0,
    ) -> tuple["ShareConstraint", "ShareConstraint"]:
        """Build Eq. 5 from a fitted :class:`DependencyModel`.

        The band width defaults to two residual standard deviations —
        the regression's own estimate of how tightly the layers track.
        """
        result = model.result
        tolerance = max(1e-9, tolerance_sigmas * result.residual_std)
        return cls.dependency_band(target, result.slope, result.intercept, source, tolerance)

    def g(self, shares: dict[LayerKind, float]) -> float:
        """``g(x)``; feasible iff ``g(x) <= 0``."""
        return sum(c * shares[k] for k, c in self.coefficients) + self.constant

    def coefficient_vector(self, order: tuple[LayerKind, ...] = LAYER_ORDER) -> np.ndarray:
        """The constraint as a dense coefficient row over ``order``."""
        row = np.zeros(len(order))
        index = {kind: d for d, kind in enumerate(order)}
        for kind, coefficient in self.coefficients:
            row[index[kind]] += coefficient
        return row

    def satisfied(self, shares: dict[LayerKind, float], slack: float = 1e-9) -> bool:
        return self.g(shares) <= slack

    def describe(self) -> str:
        if self.label:
            return self.label
        terms = " + ".join(f"{c:g}*r_{k.code}" for k, c in self.coefficients)
        return f"{terms} + {self.constant:g} <= 0"


@dataclass(frozen=True)
class ResourceShare:
    """One Pareto-optimal allocation: units per layer plus its cost."""

    shares: tuple[tuple[LayerKind, int], ...]
    hourly_cost: float

    def __getitem__(self, kind: LayerKind) -> int:
        for k, units in self.shares:
            if k == kind:
                return units
        raise OptimizationError(f"no share for layer {kind.name}")

    @property
    def ingestion(self) -> int:
        return self[LayerKind.INGESTION]

    @property
    def analytics(self) -> int:
        return self[LayerKind.ANALYTICS]

    @property
    def storage(self) -> int:
        return self[LayerKind.STORAGE]

    def as_dict(self) -> dict[LayerKind, int]:
        return dict(self.shares)

    def __str__(self) -> str:
        return (
            f"I={self.ingestion}, A={self.analytics}, S={self.storage} "
            f"(${self.hourly_cost:.3f}/h)"
        )


@dataclass
class ShareAnalysisResult:
    """The Pareto set of resource shares for one budget window."""

    solutions: list[ResourceShare]
    budget_per_hour: float
    flow: FlowSpec
    evaluations: int = 0
    _rng_seed: int = field(default=0, repr=False)

    def __len__(self) -> int:
        return len(self.solutions)

    def table(self) -> str:
        """Render the front the way the demo's Fig. 4 view lists it."""
        ingestion = self.flow.ingestion.resource_label
        analytics = self.flow.analytics.resource_label
        storage = self.flow.storage.resource_label
        header = f"{'#':>3}  {ingestion:>8}  {analytics:>8}  {storage:>8}  {'$/hour':>8}"
        lines = [header, "-" * len(header)]
        for index, sol in enumerate(self.solutions, start=1):
            lines.append(
                f"{index:>3}  {sol.ingestion:>8d}  {sol.analytics:>8d}  "
                f"{sol.storage:>8d}  {sol.hourly_cost:>8.3f}"
            )
        return "\n".join(lines)

    def pick(self, strategy: str = "random", seed: int | None = None) -> ResourceShare:
        """Select one solution from the front.

        Strategies: ``random`` (the paper's default when the user does
        not choose), ``balanced`` (maximize the worst normalized layer
        share), ``cheapest``, ``max:ingestion`` / ``max:analytics`` /
        ``max:storage``.
        """
        if not self.solutions:
            raise OptimizationError("no feasible solutions to pick from")
        if strategy == "random":
            rng = np.random.default_rng(self._rng_seed if seed is None else seed)
            return self.solutions[int(rng.integers(0, len(self.solutions)))]
        if strategy == "cheapest":
            return min(self.solutions, key=lambda s: s.hourly_cost)
        if strategy == "balanced":
            maxima = {
                kind: max(s[kind] for s in self.solutions) or 1 for kind in LAYER_ORDER
            }
            return max(
                self.solutions,
                key=lambda s: min(s[kind] / maxima[kind] for kind in LAYER_ORDER),
            )
        if strategy.startswith("max:"):
            kind = {k.name.lower(): k for k in LAYER_ORDER}.get(strategy[4:])
            if kind is None:
                raise OptimizationError(f"unknown layer in strategy {strategy!r}")
            return max(self.solutions, key=lambda s: s[kind])
        raise OptimizationError(f"unknown strategy {strategy!r}")


class _ShareProblem(Problem):
    """Eq. 3–5 as an NSGA-II problem (objectives normalized to [-1, 0])."""

    def __init__(
        self,
        flow: FlowSpec,
        book: PriceBook,
        budget_per_hour: float,
        constraints: list[ShareConstraint],
    ) -> None:
        layers = [flow.layer(kind) for kind in LAYER_ORDER]
        super().__init__(
            n_var=3,
            n_obj=3,
            lower=[layer.min_units for layer in layers],
            upper=[layer.max_units for layer in layers],
            integer=True,
        )
        self._rates = np.array(
            [book.price(layer.resource).hourly for layer in layers]
        )
        self._scales = np.array([float(layer.max_units) for layer in layers])
        self._budget = budget_per_hour
        self._constraints = constraints
        # Dense linear-constraint form (A x + b <= 0) for batch evaluation:
        # row 0 is the Eq. 4 budget, the rest the Eq. 5 dependency bands.
        self._A = np.vstack(
            [self._rates] + [c.coefficient_vector(LAYER_ORDER) for c in constraints]
        )
        self._b = np.array([-budget_per_hour] + [c.constant for c in constraints])

    def evaluate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Route through the batch path so a single evaluation and a batch
        # row agree bit-for-bit (the loop-reference equivalence contract).
        objectives, violations = self.evaluate_batch(np.asarray(x, dtype=float)[None, :])
        return objectives[0], violations[0]

    def evaluate_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eq. 3–5 for a whole population in two matrix expressions.

        The constraint rows use an explicit broadcast-and-sum rather than
        ``X @ A.T``: BLAS picks different kernels by batch size, and their
        last-ULP drift would break evaluate(x) == evaluate_batch([x])[0].
        """
        X = np.asarray(X, dtype=float)
        objectives = -X / self._scales
        violations = np.maximum(0.0, (X[:, None, :] * self._A).sum(axis=2) + self._b)
        return objectives, violations


class ResourceShareAnalyzer:
    """Builds and solves the Eq. 3–5 problem for a flow."""

    def __init__(
        self,
        flow: FlowSpec,
        price_book: PriceBook | None = None,
        constraints: list[ShareConstraint] | None = None,
    ) -> None:
        self.flow = flow
        self.price_book = price_book or PriceBook()
        self.constraints = list(constraints or [])

    def add_constraint(self, constraint: ShareConstraint) -> None:
        self.constraints.append(constraint)

    def hourly_cost(self, shares: dict[LayerKind, float]) -> float:
        """Eq. 4's left-hand side for one allocation."""
        total = 0.0
        for kind in LAYER_ORDER:
            layer = self.flow.layer(kind)
            total += self.price_book.hourly_rate(layer.resource, shares[kind])
        return total

    def analyze(
        self,
        budget_per_hour: float,
        population_size: int = 100,
        generations: int = 250,
        seed: int = 0,
    ) -> ShareAnalysisResult:
        """Search the provisioning-plan space; return the Pareto front.

        Solutions are de-duplicated on their integer allocation and
        sorted by ingestion share for stable presentation.
        """
        if budget_per_hour <= 0:
            raise OptimizationError(f"budget must be positive, got {budget_per_hour}")
        problem = _ShareProblem(self.flow, self.price_book, budget_per_hour, self.constraints)
        optimizer = NSGA2(
            problem,
            NSGA2Config(population_size=population_size, generations=generations),
            seed=seed,
        )
        outcome = optimizer.run()
        unique: dict[tuple[int, int, int], ResourceShare] = {}
        for individual in outcome.front:
            units = tuple(int(round(v)) for v in individual.x)
            shares = dict(zip(LAYER_ORDER, (float(u) for u in units)))
            unique[units] = ResourceShare(
                shares=tuple(zip(LAYER_ORDER, units)),
                hourly_cost=self.hourly_cost(shares),
            )
        solutions = sorted(unique.values(), key=lambda s: (s.ingestion, s.analytics, s.storage))
        return ShareAnalysisResult(
            solutions=solutions,
            budget_per_hour=budget_per_hour,
            flow=self.flow,
            evaluations=outcome.evaluations,
            _rng_seed=seed,
        )
