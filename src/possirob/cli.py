"""Command-line front end.

Every command prints a deterministic key/value result document to stdout
(degrees and vectors with six decimals) and, with ``--out``, writes the same
data as JSON.  Wall time goes to stderr so identical invocations produce
identical stdout bytes.  Exit codes: 0 on success, 1 on input errors, 2 when
a model is infeasible or the instance breaks the nominal-solvability
assumption, 3 when the LP engine stops without a conclusive status.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from typing import Any

import numpy as np

from .combinatorial import (ShortestPathOracle, SpanningTreeOracle, load_graph,
                            solve_soft_nec_combinatorial)
from .experiment import (DESK_SCALE, FULL_SCALE, GeneratorSpec, _price,
                         run_experiment, sample_scenarios, stream,
                         violation_metrics)
from .fuzzy import FuzzyGoal
from .instance_io import InstanceFormatError, load_instance, serialize_instance
from .models import UncertainInstance
from .simplex import ScipyBackend, SimplexBackend, SolverError
from .solver import (AssumptionViolation, ModelInfeasible, SolveOutcome,
                    nominal_optimum, solve_light_robust, solve_nec, solve_robust,
                    solve_soft_nec, solve_soft_nec_obj)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_SOLVER = 3


class _Parser(argparse.ArgumentParser):
    # Flag and usage mistakes are input errors: exit 1, not argparse's 2.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _fmt(value: float) -> str:
    return f"{value + 0.0:.6f}"


def _emit(doc: dict[str, Any], out_path: str | None) -> None:
    for key, value in doc.items():
        if isinstance(value, float):
            line = _fmt(value)
            if key == "epsilon" and value and float(line) == 0.0:
                line = repr(value)  # six decimals would print the accuracy as zero
        elif isinstance(value, (list, tuple, np.ndarray)):
            items = list(value)
            if all(isinstance(v, (int, np.integer)) for v in items):
                line = "[" + ", ".join(str(int(v)) for v in items) + "]"
            else:
                line = "[" + ", ".join(_fmt(float(v)) for v in items) + "]"
        else:
            line = str(value)
        print(f"{key}: {line}")
    if out_path:
        payload = {k: (list(map(float, v)) if isinstance(v, (list, tuple, np.ndarray))
                       else v)
                   for k, v in doc.items()}
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")


def _backend(args: argparse.Namespace):
    if args.backend != "scipy":
        return SimplexBackend()
    try:
        return ScipyBackend()
    except ImportError:
        raise ValueError("--backend scipy needs scipy; install the 'scipy' extra: "
                         "pip install 'possirob[scipy]'") from None


def _degree_doc(model: str, out: SolveOutcome, eps: float,
                costs: np.ndarray) -> dict[str, Any]:
    cost = float(np.dot(costs, out.solution))
    doc: dict[str, Any] = {
        "model": model,
        "status": "optimal",
        "degree": out.degree,
        "lambda_bar": out.lambda_bar,
        "epsilon": eps,
        "iterations": out.iterations,
        "nominal_value": out.nominal_value,
        "objective": cost,
        "d": _price(cost, out.nominal_value),
        "solution": out.solution,
    }
    if out.effectively_zero:
        doc["note"] = "degree-below-accuracy"
    return doc


# -- the LP models: (args, instance, backend) -> result document ----------


def _nominal(args: argparse.Namespace, inst: UncertainInstance, backend) -> dict:
    c_hat, x_hat = nominal_optimum(inst, backend=backend)
    return {"model": "nominal", "status": "optimal", "objective": c_hat,
            "nominal_value": c_hat, "d": 0.0, "solution": x_hat}


def _robust(args: argparse.Namespace, inst: UncertainInstance, backend) -> dict:
    out = solve_robust(inst, args.lam, backend=backend)
    return {"model": "robust", "status": "optimal", "objective": out.value,
            "nominal_value": out.nominal_value,
            "d": _price(out.value, out.nominal_value), "solution": out.solution}


def _light(args: argparse.Namespace, inst: UncertainInstance, backend) -> dict:
    out = solve_light_robust(inst, args.rho0, args.norm, backend=backend)
    cost = float(np.dot(inst.cost_nominal(), out.solution))
    return {"model": "light", "status": "optimal", "objective": out.value,
            "norm": args.norm, "nominal_value": out.nominal_value,
            "cost": cost, "d": _price(cost, out.nominal_value),
            "solution": out.solution}


def _nec(args: argparse.Namespace, inst: UncertainInstance, backend) -> dict:
    out = solve_nec(inst, args.rho0, args.epsilon, backend=backend)
    return _degree_doc("nec", out, args.epsilon, inst.cost_nominal())


def _soft_nec(args: argparse.Namespace, inst: UncertainInstance, backend) -> dict:
    out = solve_soft_nec(inst, args.rho0, args.z, args.nominal_feasible,
                         args.epsilon, backend=backend)
    return _degree_doc("soft-nec", out, args.epsilon, inst.cost_nominal())


def _soft_nec_obj(args: argparse.Namespace, inst: UncertainInstance, backend) -> dict:
    if not inst.has_uncertain_objective:
        raise ValueError("soft-nec-obj: the instance must define an uncertain "
                         "objective (object form of 'c')")
    obj = inst.objective
    shape = args.z if args.z is not None else obj.goal.shape
    inst = replace(inst, objective=replace(obj, goal=FuzzyGoal(None, args.rho0, shape)))
    out = solve_soft_nec_obj(inst, args.epsilon, args.nominal_feasible,
                             backend=backend)
    return _degree_doc("soft-nec-obj", out, args.epsilon, inst.cost_nominal())


_MODELS = {"nominal": _nominal, "robust": _robust, "light": _light, "nec": _nec,
           "soft-nec": _soft_nec, "soft-nec-obj": _soft_nec_obj}


# -- command handlers ----------------------------------------------------


def _cmd_model(args: argparse.Namespace) -> int:
    """Solve one model of ``_MODELS``; ``simulate`` then scores its solution."""
    simulate = args.command == "simulate"
    name = args.model if simulate else args.command
    inst = load_instance(args.instance)
    # Scenarios are drawn before the solve, so a bad count costs no solve.
    scen = sample_scenarios(inst, stream(args.seed, 1, 0), args.scenarios) if simulate else None
    try:
        doc = _MODELS[name](args, inst, _backend(args))
    except ModelInfeasible as exc:
        head = {"model": "simulate", "solved": name} if simulate else {"model": name}
        _emit({**head, "status": exc.status.value}, args.out)
        return EXIT_INFEASIBLE
    _emit(_score(args, inst, doc, scen) if simulate else doc, args.out)
    return EXIT_OK


def _score(args: argparse.Namespace, inst: UncertainInstance,
           solved: dict[str, Any], scen: np.ndarray) -> dict[str, Any]:
    x, c_hat = solved["solution"], solved["nominal_value"]
    infeas, aviol = violation_metrics(x, scen, inst)
    cost = float(np.dot(inst.cost_nominal(), x))
    return {
        "model": "simulate",
        "solved": args.model,
        "status": "ok",
        "scenarios": args.scenarios,
        "seed": args.seed,
        "nominal_value": c_hat,
        "cost": cost,
        "d": _price(cost, c_hat),
        "infeas": infeas,
        "aviol": aviol,
        "solution": x,
    }


def _cmd_combi(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    oracle = (ShortestPathOracle(graph) if args.oracle == "sp"
              else SpanningTreeOracle(graph))
    row = graph.cost_row(args.gamma0, args.rho0, args.b0_bar, args.z)
    out = solve_soft_nec_combinatorial(row, oracle, args.epsilon)
    doc = _degree_doc("combi", out, args.epsilon, row.nominal())
    doc["oracle"] = args.oracle
    doc["edges"] = [int(e) for e in np.flatnonzero(out.solution > 0.5)]
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    scale = FULL_SCALE if args.full else DESK_SCALE
    n = args.n if args.n else scale["n"]
    gamma = args.gamma if args.gamma is not None else min(30, n)
    spec = GeneratorSpec(n=n, m=args.m, gamma=gamma, seed=args.seed)
    report = run_experiment(
        spec,
        p_grid=scale["p_grid"],
        instances_per_p=args.instances if args.instances else scale["instances_per_p"],
        scenarios=args.scenarios if args.scenarios else scale["scenarios"],
        eps=args.epsilon,
        backend=_backend(args),
        progress=(lambda msg: print(msg, file=sys.stderr)) if args.verbose else None,
    )
    csv = report.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    doc = serialize_instance(inst)
    print(json.dumps(doc, sort_keys=True, indent=2))
    return EXIT_OK


# -- parser wiring ---------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, *, instance: bool = True,
                epsilon: bool = True, backend: bool = True) -> None:
    if instance:
        sub.add_argument("--instance", required=True, help="instance JSON file")
    if epsilon:
        sub.add_argument("--epsilon", type=float, default=1e-4,
                         help="bisection accuracy (default 1e-4)")
    sub.add_argument("--out", help="also write the result as JSON to this file")
    if backend:
        sub.add_argument("--backend", choices=("reference", "scipy"),
                         default="reference", help="LP backend (default reference)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="possirob",
                     description="Robust optimization under fuzzy-interval uncertainty")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("nominal", parents=[], help="solve the nominal counterpart")
    _add_common(p, epsilon=False)
    p.set_defaults(func=_cmd_model)

    p = commands.add_parser("robust", help="budget-protected worst-case model")
    _add_common(p, epsilon=False)
    p.add_argument("--lam", type=float, default=0.0,
                   help="confidence level of the cuts (default 0: full supports)")
    p.set_defaults(func=_cmd_model)

    p = commands.add_parser("light", help="slack-minimizing model under a cost budget")
    _add_common(p, epsilon=False)
    p.add_argument("--rho0", type=float, default=0.0, help="cost budget above nominal")
    p.add_argument("--norm", choices=("max", "sum"), default="max")
    p.set_defaults(func=_cmd_model)

    p = commands.add_parser("nec", help="maximize the strict protection degree")
    _add_common(p)
    p.add_argument("--rho0", type=float, default=0.0)
    p.set_defaults(func=_cmd_model)

    p = commands.add_parser("soft-nec", help="maximize the soft protection degree")
    _add_common(p)
    p.add_argument("--rho0", type=float, default=0.0)
    p.add_argument("--z", type=float, default=1.0, help="goal shape (default 1)")
    p.add_argument("--nominal-feasible", action="store_true",
                   help="additionally require feasibility under nominal data")
    p.set_defaults(func=_cmd_model)

    p = commands.add_parser("soft-nec-obj",
                            help="soft degree with an uncertain objective")
    _add_common(p)
    p.add_argument("--rho0", type=float, default=0.0)
    p.add_argument("--z", type=float, default=None,
                   help="goal shape (default: the objective's document shape)")
    p.add_argument("--nominal-feasible", action="store_true")
    p.set_defaults(func=_cmd_model)

    p = commands.add_parser("combi", help="budgeted min-max cost over a graph")
    _add_common(p, instance=False, backend=False)
    p.add_argument("--graph", required=True, help="edge-list graph file")
    p.add_argument("--oracle", choices=("sp", "mst"), required=True)
    p.add_argument("--gamma0", type=int, default=1, help="protection level")
    p.add_argument("--rho0", type=float, default=0.0)
    p.add_argument("--b0-bar", type=float, default=0.0,
                   help="allowed violation slack on the cost row")
    p.add_argument("--z", type=float, default=1.0)
    p.set_defaults(func=_cmd_combi)

    p = commands.add_parser("simulate",
                            help="solve one model, then score it on sampled scenarios")
    _add_common(p)
    p.add_argument("--model", choices=[m for m in _MODELS if m != "soft-nec-obj"],
                   default="soft-nec")
    p.add_argument("--rho0", type=float, default=0.0)
    p.add_argument("--z", type=float, default=1.0)
    p.add_argument("--norm", choices=("max", "sum"), default="max")
    p.add_argument("--nominal-feasible", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scenarios", type=int, default=1000)
    p.set_defaults(func=_cmd_model, lam=0.0)

    p = commands.add_parser("experiment", help="budget sweep over random instances")
    _add_common(p, instance=False)
    p.add_argument("--full", action="store_true",
                   help="full scale: n=100, 100 instances, 1000 scenarios "
                        "(default: desk scale, n=40, 20 instances, 200 scenarios)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=0, help="override the variable count")
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--gamma", type=int, default=None,
                   help="per-row protection level (default: 30, clamped to n)")
    p.add_argument("--instances", type=int, default=0,
                   help="override instances per budget value")
    p.add_argument("--scenarios", type=int, default=0,
                   help="override scenarios per instance")
    p.add_argument("--verbose", action="store_true", help="progress on stderr")
    p.set_defaults(func=_cmd_experiment)

    p = commands.add_parser("validate",
                            help="parse an instance and echo its normal form")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        code = args.func(args)
    except InstanceFormatError as exc:
        print(f"instance error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssumptionViolation as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        elapsed = time.perf_counter() - started
        print(f"wall_time_s: {elapsed:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
