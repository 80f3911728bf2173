"""Byte-for-byte stdout of the command line against recorded documents.

Each case runs one command in process on the bundled instances (reference
backend) and compares its stdout with ``tests/golden/<name>.txt``.  The
``z05`` and ``zmix`` cases rewrite the four-variable example with a
sublinear shape and with two rows of different shapes, so the cut
arithmetic for shapes other than 1 is pinned too.
"""

import json
from pathlib import Path

import pytest

from conftest import INSTANCE_DIR
from possirob.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

TOY4 = str(INSTANCE_DIR / "toy4.json")
TOY4_SOFT = str(INSTANCE_DIR / "toy4_soft.json")
TOY4_OBJ = str(INSTANCE_DIR / "toy4_uncertain_obj.json")
TWO_PATH = str(INSTANCE_DIR / "two_path.graph")

CASES = {
    "nominal": ("nominal", "--instance", TOY4),
    "robust": ("robust", "--instance", TOY4),
    "robust_lam": ("robust", "--instance", TOY4_SOFT, "--lam", "0.3"),
    "light_max": ("light", "--instance", TOY4, "--rho0", "3"),
    "light_sum": ("light", "--instance", TOY4_SOFT, "--rho0", "2", "--norm", "sum"),
    "nec": ("nec", "--instance", TOY4, "--rho0", "3"),
    "soft_nec": ("soft-nec", "--instance", TOY4_SOFT, "--rho0", "3"),
    "soft_nec_nominal": ("soft-nec", "--instance", TOY4_SOFT, "--rho0", "3",
                         "--z", "2", "--nominal-feasible"),
    "soft_nec_obj": ("soft-nec-obj", "--instance", TOY4_OBJ, "--rho0", "3"),
    "soft_nec_obj_z": ("soft-nec-obj", "--instance", TOY4_OBJ, "--rho0", "2",
                       "--z", "0.5", "--nominal-feasible"),
    "simulate_soft": ("simulate", "--instance", TOY4_SOFT, "--model", "soft-nec",
                      "--rho0", "3", "--scenarios", "200", "--seed", "5"),
    "simulate_light": ("simulate", "--instance", TOY4, "--model", "light",
                       "--rho0", "1", "--scenarios", "300", "--seed", "2"),
    "simulate_robust": ("simulate", "--instance", TOY4, "--model", "robust",
                        "--scenarios", "100", "--seed", "1"),
    "simulate_nominal": ("simulate", "--instance", TOY4, "--model", "nominal"),
    "simulate_nec": ("simulate", "--instance", TOY4, "--model", "nec", "--rho0", "3"),
    "combi_sp": ("combi", "--graph", TWO_PATH, "--oracle", "sp",
                 "--gamma0", "1", "--rho0", "1"),
    "combi_mst": ("combi", "--graph", TWO_PATH, "--oracle", "mst",
                  "--gamma0", "1", "--rho0", "1", "--b0-bar", "0.5", "--z", "2"),
    "validate_toy4": ("validate", "--instance", TOY4),
    "validate_obj": ("validate", "--instance", TOY4_OBJ),
    "experiment": ("experiment", "--n", "6", "--m", "2", "--instances", "2",
                   "--scenarios", "20", "--seed", "3"),
    "nec_z05": ("nec", "--instance", "{z05}", "--rho0", "3"),
    "soft_nec_z05": ("soft-nec", "--instance", "{z05}", "--rho0", "3"),
    "nec_zmix": ("nec", "--instance", "{zmix}", "--rho0", "3"),
    "soft_nec_zmix": ("soft-nec", "--instance", "{zmix}", "--rho0", "3"),
    "validate_zmix": ("validate", "--instance", "{zmix}"),
}


def shaped_toy4(tmp_path) -> dict[str, str]:
    """The soft four-variable example with z = 0.5, and a two-row variant
    whose rows carry z = 0.5 and z = 2."""
    doc = json.loads((INSTANCE_DIR / "toy4_soft.json").read_text())
    doc["z"] = 0.5
    z05 = tmp_path / "toy4_z05.json"
    z05.write_text(json.dumps(doc))
    second = dict(doc["rows"][0], a_hat=[3, 2, 1, 0], a_bar=[1, 2, 3, 4],
                  b=5.0, b_bar=1.0, gamma=3, z=2.0)
    doc["rows"] = [dict(doc["rows"][0], z=0.5), second]
    doc["m"] = 2
    zmix = tmp_path / "toy4_zmix.json"
    zmix.write_text(json.dumps(doc))
    return {"z05": str(z05), "zmix": str(zmix)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_the_recorded_bytes(name, tmp_path, capsys):
    paths = shaped_toy4(tmp_path)
    assert main([arg.format(**paths) for arg in CASES[name]]) == 0
    expected = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("name", ["light_max", "light_sum", "simulate_light"])
def test_light_stdout_matches_on_highs(name, capsys):
    # Unique optima, so HiGHS prints the reference engine's bytes.
    pytest.importorskip("scipy")
    assert main([*CASES[name], "--backend", "scipy"]) == 0
    expected = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
