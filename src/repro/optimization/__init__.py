"""Multi-objective optimisation (paper Sec. 3.2).

Implements NSGA-II (Deb et al., TEVC 2002 — the paper's reference [8])
from scratch: fast non-dominated sorting, crowding distance, binary
tournament selection under Deb's constrained-dominance rule, simulated
binary crossover and polynomial mutation — plus the
:class:`~repro.optimization.share_analyzer.ResourceShareAnalyzer` that
casts Eq. 3–5 (maximize per-layer resource shares under a budget and
the learned dependency constraints) as an NSGA-II problem.
"""

from repro.optimization.nsga2 import NSGA2, NSGA2Config, NSGA2Result
from repro.optimization.pareto import dominates, hypervolume, pareto_filter
from repro.optimization.problem import FunctionalProblem, Problem
from repro.optimization.schedule import (
    BudgetWindow,
    ScheduledShare,
    ShareSchedule,
    analyze_windows,
)
from repro.optimization.share_analyzer import (
    ResourceShare,
    ResourceShareAnalyzer,
    ShareAnalysisResult,
    ShareConstraint,
)
from repro.optimization.slo import FlowSLO, slo_floor_constraints

__all__ = [
    "Problem",
    "FunctionalProblem",
    "NSGA2",
    "NSGA2Config",
    "NSGA2Result",
    "dominates",
    "pareto_filter",
    "hypervolume",
    "ResourceShareAnalyzer",
    "ShareAnalysisResult",
    "ResourceShare",
    "ShareConstraint",
    "BudgetWindow",
    "ShareSchedule",
    "ScheduledShare",
    "analyze_windows",
    "FlowSLO",
    "slo_floor_constraints",
]
