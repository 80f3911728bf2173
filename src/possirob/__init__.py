"""Robust optimization under possibilistic (fuzzy-interval) uncertainty.

The toolkit models uncertain linear constraint coefficients as symmetric
fuzzy intervals, limits how many of them may deviate at once through
per-row protection budgets, and offers five ways to pick a solution:

* a worst-case protected model over the coefficient supports,
* its slack-minimizing (lightly robust) relaxation under a cost budget,
* maximization of the degree to which a solution is certainly protected,
* the soft variant that also grades right-hand sides and the cost goal,
* the soft variant extended to an uncertain objective vector.

The degree-maximizing models bisect over the confidence level, checking one
linear feasibility system per probe; a combinatorial fast path handles 0/1
problems with uncertain costs through deterministic oracles (shortest path,
spanning tree, or any user-supplied solver).  A Monte Carlo lab generates
random instances and scores solutions on possibility-guided scenario samples.
"""

from .fuzzy import FuzzyGoal, FuzzyInterval, SoftBound
from .linsys import LinearSystem
from .simplex import (IterationLimitError, LpBackend, LpResult, LpStatus,
                      ScipyBackend, SimplexBackend, SolverConfig, SolverError,
                      check_feasible, solve)
from .models import (Box, FeasibleSet, Polyhedron, UncertainInstance,
                     UncertainObjective, UncertainRow, build_light_robust,
                     build_nec, build_nominal, build_robust, build_soft_nec,
                     build_soft_nec_obj, dualize_budgeted_row, top_sum,
                     worst_case_lhs)
from .solver import (AssumptionViolation, ModelInfeasible, OptimumOutcome,
                    SolveOutcome, bisect, bisect_feasibility, necessity_degree,
                    nominal_optimum, solve_light_robust, solve_nec, solve_robust,
                    solve_soft_nec, solve_soft_nec_obj)
from .combinatorial import (CombinatorialOracle, EdgeListGraph,
                            ExplicitSetOracle, ShortestPathOracle,
                            SpanningTreeOracle, brute_force_minmax, load_graph,
                            minmax_budgeted, parse_graph,
                            solve_soft_nec_combinatorial, worst_budgeted_cost)
from .experiment import (DESK_P_GRID, DESK_SCALE, FULL_P_GRID, FULL_SCALE,
                         GeneratorSpec, InstanceMetrics, PointSummary,
                         SimulationReport, generate_instance, run_experiment,
                         sample_scenario, sample_scenarios, stream, violation,
                         violation_metrics)
from .instance_io import (InstanceFormatError, load_instance, parse_instance,
                          serialize_instance)

__version__ = "0.1.0"

__all__ = [
    "FuzzyInterval", "SoftBound", "FuzzyGoal",
    "LinearSystem",
    "LpStatus", "LpResult", "SolverConfig", "SolverError", "IterationLimitError",
    "LpBackend", "SimplexBackend", "ScipyBackend", "solve", "check_feasible",
    "UncertainRow", "UncertainObjective", "Box", "Polyhedron", "FeasibleSet",
    "UncertainInstance", "top_sum", "worst_case_lhs", "necessity_degree",
    "dualize_budgeted_row", "build_nominal", "build_robust",
    "build_light_robust", "build_nec", "build_soft_nec", "build_soft_nec_obj",
    "AssumptionViolation", "ModelInfeasible", "SolveOutcome", "OptimumOutcome",
    "nominal_optimum", "bisect", "bisect_feasibility", "solve_robust",
    "solve_light_robust", "solve_nec", "solve_soft_nec", "solve_soft_nec_obj",
    "CombinatorialOracle", "ExplicitSetOracle",
    "ShortestPathOracle", "SpanningTreeOracle", "EdgeListGraph",
    "parse_graph", "load_graph", "worst_budgeted_cost", "minmax_budgeted",
    "brute_force_minmax", "solve_soft_nec_combinatorial",
    "GeneratorSpec", "InstanceMetrics", "PointSummary", "SimulationReport",
    "DESK_P_GRID", "FULL_P_GRID", "DESK_SCALE", "FULL_SCALE",
    "stream", "generate_instance", "sample_scenario", "sample_scenarios",
    "violation", "violation_metrics", "run_experiment",
    "InstanceFormatError", "parse_instance", "serialize_instance",
    "load_instance",
]
