"""Every reference LP result, bit for bit, against recorded digests.

The LPs are the systems of ``test_system_digest`` and every LP that one
``solve_soft_nec`` and one ``solve_light_robust`` solve on its ``generated``
instance, captured in call order.  Each one pins the status, the pivot
count, the final basis and sha256 digests of the point, the value and the
reduced costs (plus ``0.0``, so a ``-0.0`` reads as ``0.0``).  A change to
pricing, the ratio test or the pivot arithmetic shows here before it shows in
a degree.  The digests in ``tests/golden/lp_results.json`` were recorded from
the full-tableau engine.  Re-record them, only when the pivots or the numbers
are meant to change, with

    PYTHONPATH=src python tests/test_lp_results.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from possirob import SimplexBackend, solve_light_robust, solve_soft_nec
from test_system_digest import _instances, _systems

RESULTS = Path(__file__).resolve().parent / "golden" / "lp_results.json"
# A budget near 10% of the generated instance's nominal cost (about -1064).
RHO0 = 100.0


class _Recording:
    """The reference engine, keeping every result it returns."""

    def __init__(self) -> None:
        self.engine = SimplexBackend()
        self.results = []

    def solve(self, system, config):
        res = self.engine.solve(system, config)
        self.results.append(res)
        return res


def _sha(array) -> str | None:
    return None if array is None else hashlib.sha256(np.asarray(array).tobytes()).hexdigest()


def _entry(res) -> dict:
    return {
        "status": res.status.value,
        "pivots": res.pivots,
        "basis": _sha(None if res.basis is None else res.basis.astype(np.int64)),
        "point": _sha(res.point),
        "value": _sha(None if res.value is None else np.float64(res.value)),
        "reduced_costs": _sha(None if res.reduced_costs is None else res.reduced_costs + 0.0),
    }


def results() -> dict[str, dict]:
    engine = SimplexBackend()
    out = {name: _entry(engine.solve(system)) for name, system in _systems()}
    instance, _ = _instances()["generated"]
    for label, run in (("soft_nec", lambda b: solve_soft_nec(instance, RHO0, backend=b)),
                       ("light_robust", lambda b: solve_light_robust(instance, RHO0,
                                                                     backend=b))):
        backend = _Recording()
        run(backend)
        for i, res in enumerate(backend.results):
            out[f"generated/{label}/{i:03d}"] = _entry(res)
    return out


def test_every_lp_result_matches_its_recorded_bytes():
    recorded = json.loads(RESULTS.read_text(encoding="utf-8"))
    current = results()
    assert sorted(current) == sorted(recorded)
    changed = [name for name in current if current[name] != recorded[name]]
    assert changed == []


if __name__ == "__main__":
    RESULTS.write_text(json.dumps(results(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
