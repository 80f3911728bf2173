"""Command-line behaviour: result documents, exit codes, reproducible bytes."""

import json
import subprocess
import sys

import pytest

from conftest import INSTANCE_DIR, REPO_ROOT
from possirob import SolverError, cli

TOY4 = str(INSTANCE_DIR / "toy4.json")
TOY4_SOFT = str(INSTANCE_DIR / "toy4_soft.json")
TWO_PATH = str(INSTANCE_DIR / "two_path.graph")


def run_cli(*args: str, timeout: float | None = None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "possirob", *args],
                          capture_output=True, text=True, cwd=REPO_ROOT,
                          timeout=timeout)


def parse_doc(stdout: str) -> dict:
    doc = {}
    for line in stdout.strip().split("\n"):
        key, _, value = line.partition(": ")
        doc[key] = value
    return doc


class TestCommands:
    def test_nominal(self):
        res = run_cli("nominal", "--instance", TOY4)
        assert res.returncode == 0
        doc = parse_doc(res.stdout)
        assert doc["objective"] == "-10.000000"
        assert doc["solution"] == "[1.000000, 1.000000, 1.000000, 1.000000]"

    def test_robust(self):
        res = run_cli("robust", "--instance", TOY4)
        assert res.returncode == 0
        doc = parse_doc(res.stdout)
        assert abs(float(doc["objective"]) + 3.71) <= 0.01

    def test_nec_degree_band(self):
        res = run_cli("nec", "--instance", TOY4, "--rho0", "3")
        assert res.returncode == 0
        doc = parse_doc(res.stdout)
        assert 0.42 <= float(doc["degree"]) <= 0.45
        assert doc["epsilon"] == "0.000100"

    def test_nec_accuracy_below_the_float_spacing_returns(self):
        # The bisection stops at adjacent floats; the timeout turns a search
        # that never ends into a failure.
        res = run_cli("nec", "--instance", TOY4, "--rho0", "3",
                      "--epsilon", "1e-300", timeout=30)
        assert res.returncode == 0
        assert 0.42 <= float(parse_doc(res.stdout)["degree"]) <= 0.45

    def test_accuracy_below_six_decimals_reads_back(self, tmp_path):
        out = tmp_path / "nec.json"
        res = run_cli("nec", "--instance", TOY4, "--rho0", "3",
                      "--epsilon", "1e-9", "--out", str(out))
        assert res.returncode == 0
        assert float(parse_doc(res.stdout)["epsilon"]) == 1e-9
        assert json.loads(out.read_text())["epsilon"] == 1e-9

    def test_soft_nec_with_nominal_rows(self):
        res = run_cli("soft-nec", "--instance", TOY4_SOFT, "--rho0", "3",
                      "--nominal-feasible")
        assert res.returncode == 0
        doc = parse_doc(res.stdout)
        assert 0.0 <= float(doc["degree"]) <= 1.0

    def test_soft_nec_obj(self):
        res = run_cli("soft-nec-obj", "--instance",
                      str(INSTANCE_DIR / "toy4_uncertain_obj.json"), "--rho0", "3")
        assert res.returncode == 0
        doc = parse_doc(res.stdout)
        assert 0.0 <= float(doc["degree"]) <= 1.0

    def test_soft_nec_obj_requires_uncertain_objective(self):
        res = run_cli("soft-nec-obj", "--instance", TOY4, "--rho0", "3")
        assert res.returncode == 1
        assert "input error: soft-nec-obj" in res.stderr

    def test_combi_shortest_path(self):
        res = run_cli("combi", "--graph", TWO_PATH, "--oracle", "sp",
                      "--gamma0", "1", "--rho0", "1")
        assert res.returncode == 0
        doc = parse_doc(res.stdout)
        assert abs(float(doc["degree"]) - 0.2) <= 1e-3
        assert doc["edges"] == "[0]"

    def test_combi_out_keeps_integer_lists(self, tmp_path):
        out = tmp_path / "combi.json"
        res = run_cli("combi", "--graph", TWO_PATH, "--oracle", "sp",
                      "--gamma0", "1", "--rho0", "1", "--out", str(out))
        assert res.returncode == 0
        assert parse_doc(res.stdout)["edges"] == "[0]"
        edges = json.loads(out.read_text())["edges"]
        assert edges == [0] and all(type(e) is int for e in edges)

    def test_combi_spanning_tree(self):
        res = run_cli("combi", "--graph", TWO_PATH, "--oracle", "mst",
                      "--gamma0", "1", "--rho0", "1")
        assert res.returncode == 0

    def test_simulate(self):
        res = run_cli("simulate", "--instance", TOY4_SOFT, "--model", "soft-nec",
                      "--rho0", "3", "--scenarios", "200", "--seed", "5")
        assert res.returncode == 0
        doc = parse_doc(res.stdout)
        assert 0.0 <= float(doc["infeas"]) <= 1.0
        assert float(doc["aviol"]) >= 0.0

    @pytest.mark.parametrize("model", ["nominal", "robust", "light", "nec", "soft-nec"])
    def test_simulate_without_rows(self, model, tmp_path):
        doc = {"n": 2, "m": 0, "c": [-1, -2], "rows": [],
               "x_set": {"box": {"lb": 0, "ub": 1}}}
        path = tmp_path / "no_rows.json"
        path.write_text(json.dumps(doc))
        res = run_cli("simulate", "--instance", str(path), "--model", model)
        assert res.returncode == 0, res.stderr
        doc = parse_doc(res.stdout)
        assert doc["infeas"] == doc["aviol"] == "0.000000"
        assert doc["solution"] == "[1.000000, 1.000000]"

    def test_validate_echoes_normal_form(self):
        res = run_cli("validate", "--instance", TOY4)
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["n"] == 4 and doc["m"] == 1

    def test_experiment_micro(self, tmp_path):
        out = tmp_path / "report.csv"
        res = run_cli("experiment", "--n", "6", "--m", "2", "--instances", "2",
                      "--scenarios", "20", "--seed", "3", "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text().strip().split("\n")
        assert lines[1].startswith("p,d_L,d_S")
        assert len(lines) == 13  # comment + header + 11 grid points


class TestExitCodes:
    def test_schema_error_exits_one_with_field_path(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "m": 1, "c": [1.0], '
                       '"rows": [{"a_hat": [1, 1], "a_bar": [0, 0], "b": 1, '
                       '"gamma": 0}], "x_set": {"box": {"lb": 0, "ub": 1}}}')
        res = run_cli("nominal", "--instance", str(bad))
        assert res.returncode == 1
        assert "c" in res.stderr

    def test_unknown_flag_exits_one(self):
        res = run_cli("nominal", "--instance", TOY4, "--frobnicate")
        assert res.returncode == 1

    @pytest.mark.parametrize("argv", [
        ("nominal", "--instance", TOY4, "--epsilon", "1e-3"),
        ("robust", "--instance", TOY4, "--epsilon", "1e-3"),
        ("light", "--instance", TOY4, "--epsilon", "1e-3"),
        ("combi", "--graph", TWO_PATH, "--oracle", "sp", "--backend", "scipy"),
    ])
    def test_flag_the_command_does_not_read_exits_one(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            cli.build_parser().parse_args(argv)
        assert info.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_file_exits_one(self):
        res = run_cli("nominal", "--instance", "no_such_file.json")
        assert res.returncode == 1

    @pytest.mark.parametrize("argv", [
        ("nominal", "--instance", "DIR"),
        ("combi", "--graph", "DIR", "--oracle", "sp"),
        ("nominal", "--instance", TOY4, "--out", "DIR"),
        ("experiment", "--n", "3", "--gamma", "1", "--instances", "1",
         "--scenarios", "1", "--out", "DIR"),
    ], ids=["instance", "graph", "out", "experiment-out"])
    def test_directory_for_a_file_exits_one(self, argv, tmp_path, capsys):
        code = cli.main([str(tmp_path) if a == "DIR" else a for a in argv])
        err = capsys.readouterr().err
        assert code == 1
        assert "file error:" in err
        assert "Traceback" not in err

    def test_an_unwritable_out_path_fails_before_the_solve(self, tmp_path, capsys):
        code = cli.main(["nominal", "--instance", TOY4, "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""

    def test_an_unwritable_out_path_fails_before_the_sweep(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: calls.append(a))
        code = cli.main(["experiment", "--n", "3", "--gamma", "1", "--instances", "1",
                         "--scenarios", "1", "--out", str(tmp_path)])
        assert code == 1
        assert calls == []

    def test_scipy_backend_without_scipy_exits_one(self, monkeypatch, capsys):
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)
        code = cli.main(["nominal", "--instance", TOY4, "--backend", "scipy"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "install the 'scipy' extra" in captured.err
        assert "Traceback" not in captured.err

    @staticmethod
    def tight_instance(tmp_path) -> str:
        # full protection cannot fit under the bound: 2x with x in [1, 1]
        doc = {"n": 1, "m": 1, "c": [-1.0],
               "rows": [{"a_hat": [2.0], "a_bar": [3.0], "b": 2.0, "gamma": 1}],
               "x_set": {"box": {"lb": 1, "ub": 1}}}
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_infeasible_robust_exits_two(self, tmp_path):
        res = run_cli("robust", "--instance", self.tight_instance(tmp_path))
        assert res.returncode == 2
        assert parse_doc(res.stdout)["status"] == "infeasible"

    def test_simulate_infeasible_robust_exits_two(self, tmp_path):
        res = run_cli("simulate", "--instance", self.tight_instance(tmp_path),
                      "--model", "robust")
        assert res.returncode == 2
        assert res.stdout == "model: simulate\nsolved: robust\nstatus: infeasible\n"

    def test_assumption_violation_exits_two(self, tmp_path):
        doc = {"n": 1, "m": 1, "c": [-1.0],
               "rows": [{"a_hat": [1.0], "a_bar": [0.0], "b": -1.0, "gamma": 0}],
               "x_set": {"box": {"lb": 0, "ub": 1}}}
        path = tmp_path / "hopeless.json"
        path.write_text(json.dumps(doc))
        res = run_cli("nec", "--instance", str(path), "--rho0", "1")
        assert res.returncode == 2
        assert "assumption" in res.stderr.lower()


    @pytest.mark.parametrize("args", [
        ("nec", "--rho0", "nan"), ("nec", "--rho0", "inf"),
        ("light", "--rho0", "nan"), ("light", "--rho0", "inf"),
        ("soft-nec", "--rho0", "nan"), ("soft-nec", "--rho0", "inf"),
        ("soft-nec", "--rho0", "3", "--epsilon", "nan"),
        ("soft-nec", "--rho0", "3", "--z", "nan"),
    ])
    def test_non_finite_numbers_exit_one(self, args):
        res = run_cli(args[0], "--instance", TOY4, *args[1:])
        assert res.returncode == 1
        assert "input error:" in res.stderr

    @pytest.mark.parametrize("field, edit", [
        ("c[0]", lambda doc: doc["c"].__setitem__(0, float("nan"))),
        ("x_set.box.ub", lambda doc: doc["x_set"]["box"].__setitem__("ub", float("nan"))),
        ("x_set.polyhedron.D[0][2]", lambda doc: doc.__setitem__(
            "x_set", {"polyhedron": {"D": [[1, 1, float("inf"), 0]], "d": [2]}})),
    ])
    def test_non_finite_document_numbers_exit_one(self, field, edit, tmp_path):
        doc = json.loads((INSTANCE_DIR / "toy4.json").read_text())
        edit(doc)
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(doc))  # writes the NaN and Infinity literals
        res = run_cli("nominal", "--instance", str(path))
        assert res.returncode == 1
        assert f"instance error: {field}: expected a finite number" in res.stderr
        assert res.stdout == ""

    def test_simulate_zero_bound_exits_one(self, tmp_path):
        doc = json.loads((INSTANCE_DIR / "toy4.json").read_text())
        doc["rows"][0]["b"] = 0.0
        path = tmp_path / "zero_bound.json"
        path.write_text(json.dumps(doc))
        res = run_cli("simulate", "--instance", str(path), "--model", "nominal")
        assert res.returncode == 1
        assert "input error:" in res.stderr
        assert "aviol" not in res.stdout

    def test_simulate_without_scenarios_exits_one(self):
        res = run_cli("simulate", "--instance", TOY4_SOFT, "--scenarios", "0")
        assert res.returncode == 1
        assert "input error: need at least one scenario" in res.stderr
        assert res.stdout == ""

    def test_simulate_rejects_the_count_before_solving(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setitem(cli._MODELS, "soft-nec", lambda *args: calls.append(args))
        code = cli.main(["simulate", "--instance", TOY4_SOFT, "--model", "soft-nec",
                         "--rho0", "2", "--scenarios", "-5"])
        captured = capsys.readouterr()
        assert code == 1
        assert calls == []
        assert captured.out == ""
        assert "input error: need at least one scenario" in captured.err

    def test_experiment_without_instances_exits_one(self):
        res = run_cli("experiment", "--n", "5", "--gamma", "2", "--instances", "-1")
        assert res.returncode == 1
        assert "input error: need at least one instance" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("flag, message", [
        ("--n", "need at least one variable and one row"),
        ("--instances", "need at least one instance per budget value"),
        ("--scenarios", "need at least one scenario"),
    ])
    def test_experiment_with_a_zero_size_exits_one(self, capsys, flag, message):
        sizes = {"--n": "3", "--instances": "1", "--scenarios": "1", flag: "0"}
        code = cli.main(["experiment", "--gamma", "1",
                         *[word for pair in sizes.items() for word in pair]])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"input error: {message}" in captured.err

    def test_solver_error_exits_three(self, monkeypatch, capsys):
        class Exhausted:
            def solve(self, system, config):
                raise SolverError("simplex exceeded the 1-pivot budget")

        monkeypatch.setattr(cli, "SimplexBackend", Exhausted)
        assert cli.main(["nec", "--instance", TOY4, "--rho0", "3"]) == 3
        captured = capsys.readouterr()
        assert "solver error: simplex exceeded" in captured.err
        assert captured.out == ""


class TestReproducibility:
    def test_stdout_bytes_identical_across_runs(self):
        first = run_cli("nec", "--instance", TOY4, "--rho0", "3")
        second = run_cli("nec", "--instance", TOY4, "--rho0", "3")
        assert first.stdout == second.stdout

    def test_out_files_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("soft-nec", "--instance", TOY4_SOFT, "--rho0", "2",
                "--out", str(a))
        run_cli("soft-nec", "--instance", TOY4_SOFT, "--rho0", "2",
                "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_reproducible_with_seed(self):
        args = ("simulate", "--instance", TOY4_SOFT, "--rho0", "1",
                "--scenarios", "100", "--seed", "21")
        assert run_cli(*args).stdout == run_cli(*args).stdout
