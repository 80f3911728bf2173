"""Cross-backend check and baseline re-measurement, outside the timed runs.

    python3 perfbench/crosscheck.py

1. On the first few ``sweep-desk-ref`` points at seed 0, the soft-nec solve
   on the reference simplex and on HiGHS must give ``lambda_bar`` values
   within the solve's epsilon of each other.
2. Re-measures the baseline solve: desk shape (n=40, m=5, gamma=30), seed 0,
   instance 0, p=0.1, on both backends (median of three runs each).

Writes the result to ``crosscheck.json`` beside this file, prints it, and
exits 1 if the backends disagree.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import run

POINTS = 4
REPEATS = 3


def _soft(S, inst, p, backend):
    c_hat, _ = S.nominal_optimum(inst, None, backend)
    started = time.perf_counter()
    out = S.solve_soft_nec(inst, p * abs(c_hat), 1.0, False, 1e-4, None, backend)
    return out, time.perf_counter() - started


def main() -> int:
    W = run._import_program()
    from possirob import experiment as E
    from possirob import solver as S
    from possirob.simplex import ScipyBackend, SimplexBackend

    backends = {"reference": SimplexBackend(), "scipy": ScipyBackend()}
    sweep = W.WORKLOADS["sweep-desk-ref"]
    points, agree = [], True
    for spec, p in sweep.inputs(run.DEFAULT_SEED)[:POINTS]:
        inst = E.generate_instance(spec, 0)
        lam = {name: _soft(S, inst, p, b)[0].lambda_bar for name, b in backends.items()}
        ok = abs(lam["reference"] - lam["scipy"]) <= W.EPS
        agree &= ok
        points.append({"spec_seed": spec.seed, "p": p, "lambda_bar": lam, "agree": ok})

    inst = E.generate_instance(E.GeneratorSpec(n=40, m=5, gamma=30, seed=0), 0)
    baseline = {}
    for name, backend in backends.items():
        runs = [_soft(S, inst, 0.1, backend) for _ in range(REPEATS)]
        baseline[name] = {"solve_s": statistics.median(t for _, t in runs),
                          "feasibility_checks": runs[0][0].iterations,
                          "lambda_bar": runs[0][0].lambda_bar}

    result = {"environment": run.environment(), "epsilon": W.EPS,
              "cross_backend": {"points": points, "agree": agree},
              "baseline_desk_soft_nec": baseline,
              "roadmap_baseline": {"reference_s": 1.59, "scipy_s": 0.11,
                                   "feasibility_checks": 15}}
    text = json.dumps(result, indent=1)
    (run.HERE / "crosscheck.json").write_text(text + "\n")
    print(text)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
