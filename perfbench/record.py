"""Record the default seed's ``lambda_bar`` values that ``run.py`` checks against.

    python3 perfbench/record.py [workload ...]

Runs the first ``recorded_ops`` inputs of each named workload (all of them by
default) at seed 0, checks every output, and rewrites ``recorded_seed0.json``.
Re-record only when a change is meant to alter the degrees.
"""

from __future__ import annotations

import json
import sys

import run


def main(names: list[str]) -> int:
    W = run._import_program()
    recorded = json.loads(run.RECORDED.read_text()) if run.RECORDED.exists() else {}
    for name in names or list(W.WORKLOADS):
        w = W.WORKLOADS[name]
        backend = None
        if w.uses_scipy:
            from possirob.simplex import ScipyBackend
            backend = ScipyBackend()
        rt = W.Runtime(backend=backend)
        values = []
        for inp in w.inputs(run.DEFAULT_SEED)[:w.recorded_ops]:
            out = w.run(inp, rt)
            problems = w.check(inp, out)
            if problems:
                print(f"{name}: {problems}", file=sys.stderr)
                return 1
            values.append(w.lambdas(out))
        recorded[name] = values
        print(f"{name}: {len(values)} ops recorded", file=sys.stderr)
    blocks = (f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(v)}" for v in values)
              + "\n ]" for name, values in recorded.items())
    run.RECORDED.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
