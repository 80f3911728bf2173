"""Every builder's arrays, bit for bit, against recorded digests.

Each case builds one system and hashes the bytes of ``dense()``,
``bounds()`` and ``objective_vector()`` together with their shapes, so a
reordered column, a dropped zero or a ``-0.0`` where ``0.0`` stood all count
as changes.  The digests in ``tests/golden/system_digests.json`` pin the
layout that pivots, witnesses and recorded degrees depend on.  Re-record
them, only when the layout is meant to change, with

    PYTHONPATH=src python tests/test_system_digest.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from possirob import (FuzzyGoal, GeneratorSpec, Polyhedron, UncertainInstance,
                      build_light_robust, build_nec, build_nominal, build_robust,
                      build_soft_nec, build_soft_nec_obj, generate_instance,
                      load_instance)

HERE = Path(__file__).resolve().parent
INSTANCE_DIR = HERE.parent / "instances"
DIGESTS = HERE / "golden" / "system_digests.json"
LEVELS = (0.0, 0.5, 1.0)


def _instances() -> dict[str, tuple[UncertainInstance, float]]:
    """Named instances, each with a fixed budget anchor; only right-hand
    sides read the anchor, so it need not be the true nominal optimum."""
    toy4 = load_instance(str(INSTANCE_DIR / "toy4.json"))
    # One negative entry and one ``-0.0`` that must be dropped like ``0.0``.
    poly = Polyhedron(4, rows=((1.0, 1.0, 0.0, 0.0), (0.0, -0.0, 1.0, 1.0),
                               (2.0, -1.0, 1.0, 0.5)),
                      rhs=(1.5, 1.0, 2.0))
    return {
        "toy4": (toy4, -6.5),
        "toy4_soft": (load_instance(str(INSTANCE_DIR / "toy4_soft.json")), -6.5),
        "toy4_uncertain_obj": (
            load_instance(str(INSTANCE_DIR / "toy4_uncertain_obj.json")), -6.5),
        "toy4_polyhedron": (UncertainInstance(objective=toy4.objective, rows=toy4.rows,
                                              feasible_set=poly), -5.0),
        "generated": (generate_instance(GeneratorSpec(n=40, m=5, gamma=30, seed=0)),
                      -900.0),
    }


def _systems():
    """``(case name, system)`` for every builder that applies to each instance."""
    for name, (inst, c_hat) in _instances().items():
        yield f"{name}/nominal", build_nominal(inst)
        if inst.has_uncertain_objective:
            for lam in LEVELS:
                for nominal in (False, True):
                    yield (f"{name}/soft_nec_obj/{lam}/{nominal}",
                           build_soft_nec_obj(inst, lam, c_hat, nominal))
            continue
        goal = FuzzyGoal(c_hat, 2.0, 0.5)
        for norm in ("max", "sum"):
            yield f"{name}/light_robust/{norm}", build_light_robust(inst, c_hat, 1.5, norm)
        for lam in LEVELS:
            yield f"{name}/robust/{lam}", build_robust(inst, lam)
            yield f"{name}/nec/{lam}", build_nec(inst, lam, goal)
            for nominal in (False, True):
                yield (f"{name}/soft_nec/{lam}/{nominal}",
                       build_soft_nec(inst, lam, goal, nominal))


def _digest(system) -> str:
    h = hashlib.sha256()
    for array in (*system.dense(), *system.bounds(), system.objective_vector()):
        h.update(f"{array.dtype}{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def digests() -> dict[str, str]:
    return {name: _digest(system) for name, system in _systems()}


def test_every_system_matches_its_recorded_bytes():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    current = digests()
    assert sorted(current) == sorted(recorded)
    changed = [name for name in current if current[name] != recorded[name]]
    assert changed == []


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
