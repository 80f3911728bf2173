"""Schema validation with field paths and the parse/serialize round trip."""

import json

import pytest

from possirob import (Box, InstanceFormatError, Polyhedron, UncertainObjective,
                      parse_instance, serialize_instance)
from conftest import INSTANCE_DIR


def base_doc():
    return {
        "n": 2,
        "m": 1,
        "c": [-1.0, -2.0],
        "rows": [{"a_hat": [1.0, 2.0], "a_bar": [0.5, 0.0], "b": 2.0,
                  "b_bar": 0.5, "gamma": 1, "z": 2.0}],
        "x_set": {"box": {"lb": 0, "ub": 1}},
    }


class TestParse:
    def test_crisp_document(self):
        inst = parse_instance(base_doc())
        assert inst.n == 2 and inst.m == 1
        assert inst.objective == (-1.0, -2.0)
        assert inst.rows[0].protection == 1
        assert inst.rows[0].shape[0] == 2.0
        assert isinstance(inst.feasible_set, Box)

    def test_uncertain_objective_document(self):
        doc = base_doc()
        doc["c"] = {"c_hat": [-1.0, -2.0], "c_bar": [0.3, 0.0], "gamma0": 1,
                    "b0_bar": 0.2}
        inst = parse_instance(doc)
        assert isinstance(inst.objective, UncertainObjective)
        assert inst.objective.slack.slack == 0.2

    def test_polyhedron_document(self):
        doc = base_doc()
        doc["x_set"] = {"polyhedron": {"D": [[1.0, 1.0]], "d": [1.5]}}
        inst = parse_instance(doc)
        assert isinstance(inst.feasible_set, Polyhedron)
        assert inst.feasible_set.rows == ((1.0, 1.0),)

    def test_scalar_bounds_broadcast(self):
        inst = parse_instance(base_doc())
        assert inst.feasible_set.lower == (0.0, 0.0)
        assert inst.feasible_set.upper == (1.0, 1.0)

    def test_default_shape_applies_when_row_omits_it(self):
        doc = base_doc()
        doc["z"] = 3.0
        del doc["rows"][0]["z"]
        inst = parse_instance(doc)
        assert inst.rows[0].shape[0] == 3.0

    @pytest.mark.parametrize("mutate,path", [
        (lambda d: d.pop("n"), "n"),
        (lambda d: d.update(n="two"), "n"),
        (lambda d: d["rows"][0].pop("a_hat"), "rows[0].a_hat"),
        (lambda d: d["rows"][0].update(a_hat=[1.0]), "rows[0].a_hat"),
        (lambda d: d["rows"][0].update(a_bar=[0.5, -1.0]), "rows[0].a_bar[1]"),
        (lambda d: d["rows"][0].update(gamma=7), "rows[0].gamma"),
        (lambda d: d["rows"][0].update(gamma=0.5), "rows[0].gamma"),
        (lambda d: d.update(c=[1.0]), "c"),
        (lambda d: d.update(c="cheap"), "c"),
        (lambda d: d.update(x_set={}), "x_set"),
        (lambda d: d.update(x_set={"ball": {}}), "x_set"),
        (lambda d: d.update(x_set={"box": {"lb": -1, "ub": 1}}), "x_set.box"),
        (lambda d: d.update(z=0.0), "z"),
    ])
    def test_errors_carry_field_paths(self, mutate, path):
        doc = base_doc()
        mutate(doc)
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(doc)
        assert str(err.value).startswith(path)


class TestRoundTrip:
    def test_crisp_round_trip(self):
        inst = parse_instance(base_doc())
        assert parse_instance(serialize_instance(inst)) == inst

    def test_uncertain_objective_round_trip(self):
        doc = base_doc()
        doc["c"] = {"c_hat": [-1.0, -2.0], "c_bar": [0.3, 0.0], "gamma0": 1,
                    "b0_bar": 0.2, "z": 0.5}
        inst = parse_instance(doc)
        assert parse_instance(serialize_instance(inst)) == inst

    def test_polyhedron_round_trip(self):
        doc = base_doc()
        doc["x_set"] = {"polyhedron": {"D": [[1.0, 1.0], [0.5, -0.5]],
                                       "d": [1.5, 0.25]}}
        inst = parse_instance(doc)
        assert parse_instance(serialize_instance(inst)) == inst

    def test_round_trip_survives_json_text(self):
        inst = parse_instance(base_doc())
        text = json.dumps(serialize_instance(inst))
        assert parse_instance(json.loads(text)) == inst


class TestBundledInstances:
    def test_worked_example_file_matches_the_fixture(self, toy4):
        with open(INSTANCE_DIR / "toy4.json", "r", encoding="utf-8") as fh:
            assert parse_instance(json.load(fh)) == toy4

    def test_soft_variant_file(self, toy4_soft):
        with open(INSTANCE_DIR / "toy4_soft.json", "r", encoding="utf-8") as fh:
            assert parse_instance(json.load(fh)) == toy4_soft

    def test_uncertain_objective_file_round_trips(self):
        with open(INSTANCE_DIR / "toy4_uncertain_obj.json", "r",
                  encoding="utf-8") as fh:
            inst = parse_instance(json.load(fh))
        assert isinstance(inst.objective, UncertainObjective)
        assert inst.objective.protection == 1
        assert parse_instance(serialize_instance(inst)) == inst
