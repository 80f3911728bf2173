"""Textual instance documents: parsing, validation, and serialization.

One JSON schema serves both the linear and the combinatorial solve paths:

    {
      "n": 4, "m": 1, "z": 1.0,
      "c": [-4, -3, -2, -1],
      "rows": [{"a_hat": [...], "a_bar": [...], "b": 6.0,
                "b_bar": 2.0, "gamma": 2, "z": 1.0}],
      "x_set": {"box": {"lb": 0, "ub": 1}}
    }

``c`` may instead be an object ``{"c_hat", "c_bar", "gamma0", "b0_bar", "z"}``
describing a fuzzy objective, and ``x_set`` may carry a polyhedron
``{"polyhedron": {"D": [[...]], "d": [...]}}`` over nonnegative variables.
Validation failures name the offending field path.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from .fuzzy import FuzzyGoal
from .models import (Box, Polyhedron, UncertainInstance, UncertainObjective,
                     UncertainRow)

__all__ = [
    "InstanceFormatError",
    "parse_instance",
    "serialize_instance",
    "load_instance",
]


class InstanceFormatError(ValueError):
    """An instance document violates the schema; the message names the field."""


def _fail(path: str, message: str) -> None:
    raise InstanceFormatError(f"{path}: {message}")


def _require(doc: dict, key: str, path: str) -> Any:
    if key not in doc:
        _fail(f"{path}.{key}" if path else key, "missing required field")
    return doc[key]


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, ints beyond float
        _fail(path, "expected a finite number")
    return float(value)

def _integer(value: Any, path: str, lo: int | None = None,
             hi: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {type(value).__name__}")
    if lo is not None and value < lo:
        _fail(path, f"must be at least {lo}, got {value}")
    if hi is not None and value > hi:
        _fail(path, f"must be at most {hi}, got {value}")
    return value


def _number_list(value: Any, path: str, length: int) -> list[float]:
    if not isinstance(value, list):
        _fail(path, f"expected an array, got {type(value).__name__}")
    if len(value) != length:
        _fail(path, f"expected length {length}, got {len(value)}")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _shape(value: Any, path: str) -> float:
    z = _number(value, path)
    if z <= 0:
        _fail(path, f"shape must be positive, got {z}")
    return z


def _broadcast(value: Any, path: str, n: int) -> list[float]:
    if isinstance(value, list):
        return _number_list(value, path, n)
    return [_number(value, path)] * n


def parse_instance(doc: Any) -> UncertainInstance:
    if not isinstance(doc, dict):
        _fail("$", f"expected an object, got {type(doc).__name__}")
    n = _integer(_require(doc, "n", ""), "n", lo=1)
    m = _integer(_require(doc, "m", ""), "m", lo=0)
    z_default = _shape(doc.get("z", 1.0), "z")

    rows_doc = _require(doc, "rows", "")
    if not isinstance(rows_doc, list):
        _fail("rows", f"expected an array, got {type(rows_doc).__name__}")
    if len(rows_doc) != m:
        _fail("rows", f"expected {m} rows per the 'm' field, got {len(rows_doc)}")
    rows = []
    for i, row_doc in enumerate(rows_doc):
        path = f"rows[{i}]"
        if not isinstance(row_doc, dict):
            _fail(path, "expected an object")
        a_hat = _number_list(_require(row_doc, "a_hat", path), f"{path}.a_hat", n)
        a_bar = _number_list(_require(row_doc, "a_bar", path), f"{path}.a_bar", n)
        for j, d in enumerate(a_bar):
            if d < 0:
                _fail(f"{path}.a_bar[{j}]", f"deviation must be nonnegative, got {d}")
        b = _number(_require(row_doc, "b", path), f"{path}.b")
        b_bar = _number(row_doc.get("b_bar", 0.0), f"{path}.b_bar")
        if b_bar < 0:
            _fail(f"{path}.b_bar", f"slack must be nonnegative, got {b_bar}")
        gamma = _integer(_require(row_doc, "gamma", path), f"{path}.gamma", lo=0, hi=n)
        z = _shape(row_doc.get("z", z_default), f"{path}.z")
        rows.append(UncertainRow.from_arrays(a_hat, a_bar, b, gamma, b_bar, z))

    c_doc = _require(doc, "c", "")
    objective: tuple[float, ...] | UncertainObjective
    if isinstance(c_doc, list):
        objective = tuple(_number_list(c_doc, "c", n))
    elif isinstance(c_doc, dict):
        c_hat = _number_list(_require(c_doc, "c_hat", "c"), "c.c_hat", n)
        c_bar = _number_list(_require(c_doc, "c_bar", "c"), "c.c_bar", n)
        for j, d in enumerate(c_bar):
            if d < 0:
                _fail(f"c.c_bar[{j}]", f"deviation must be nonnegative, got {d}")
        gamma0 = _integer(_require(c_doc, "gamma0", "c"), "c.gamma0", lo=0, hi=n)
        b0_bar = _number(c_doc.get("b0_bar", 0.0), "c.b0_bar")
        if b0_bar < 0:
            _fail("c.b0_bar", f"slack must be nonnegative, got {b0_bar}")
        z = _shape(c_doc.get("z", z_default), "c.z")
        objective = UncertainObjective.from_arrays(
            c_hat, c_bar, gamma0, b0_bar, FuzzyGoal(None, 0.0, z), z)
    else:
        _fail("c", "expected an array or an object with c_hat/c_bar")

    x_doc = _require(doc, "x_set", "")
    if not isinstance(x_doc, dict) or len(x_doc) != 1:
        _fail("x_set", "expected an object with exactly one of 'box' or 'polyhedron'")
    kind, body = next(iter(x_doc.items()))
    if kind == "box":
        if not isinstance(body, dict):
            _fail("x_set.box", "expected an object")
        lb = _broadcast(_require(body, "lb", "x_set.box"), "x_set.box.lb", n)
        ub = _broadcast(_require(body, "ub", "x_set.box"), "x_set.box.ub", n)
        try:
            feasible_set: Box | Polyhedron = Box(tuple(lb), tuple(ub))
        except ValueError as exc:
            _fail("x_set.box", str(exc))
    elif kind == "polyhedron":
        if not isinstance(body, dict):
            _fail("x_set.polyhedron", "expected an object")
        d_doc = _require(body, "D", "x_set.polyhedron")
        rhs_doc = _require(body, "d", "x_set.polyhedron")
        if not isinstance(d_doc, list):
            _fail("x_set.polyhedron.D", "expected an array of rows")
        if not isinstance(rhs_doc, list):
            _fail("x_set.polyhedron.d", "expected an array")
        if len(d_doc) != len(rhs_doc):
            _fail("x_set.polyhedron", "'D' and 'd' differ in length")
        mat = tuple(
            tuple(_number_list(r, f"x_set.polyhedron.D[{i}]", n))
            for i, r in enumerate(d_doc))
        rhs = tuple(_number(v, f"x_set.polyhedron.d[{i}]")
                    for i, v in enumerate(rhs_doc))
        feasible_set = Polyhedron(n, mat, rhs)
    else:
        _fail("x_set", f"unknown feasible-set kind {kind!r}")

    return UncertainInstance(objective=objective, rows=tuple(rows),
                             feasible_set=feasible_set)


def _uniform_shape(row: UncertainRow | UncertainObjective, what: str) -> float:
    shapes = set(row.shape)
    if len(shapes) != 1:
        raise ValueError(f"{what} mixes per-coefficient shapes; "
                         "the document schema carries one shape per row")
    return shapes.pop()


def serialize_instance(instance: UncertainInstance) -> dict:
    """Inverse of :func:`parse_instance`; parse(serialize(x)) == x."""
    n, m = instance.n, instance.m
    rows = []
    for i, row in enumerate(instance.rows):
        z = _uniform_shape(row, f"row {i}")
        if row.rhs.slack > 0 and row.rhs.shape != z:
            raise ValueError(f"row {i} uses a bound shape different from its "
                             "coefficient shape; the document schema carries one")
        rows.append({
            "a_hat": list(row.a_hat),
            "a_bar": list(row.a_bar),
            "b": row.rhs.base,
            "b_bar": row.rhs.slack,
            "gamma": row.protection,
            "z": z,
        })
    obj = instance.objective
    if isinstance(obj, UncertainObjective):
        c: Any = {
            "c_hat": list(obj.a_hat),
            "c_bar": list(obj.a_bar),
            "gamma0": obj.protection,
            "b0_bar": obj.slack.slack,
            "z": _uniform_shape(obj, "objective"),
        }
    else:
        c = list(obj)
    fs = instance.feasible_set
    if isinstance(fs, Box):
        x_set: dict = {"box": {"lb": list(fs.lower), "ub": list(fs.upper)}}
    else:
        x_set = {"polyhedron": {"D": [list(r) for r in fs.rows], "d": list(fs.rhs)}}
    return {"n": n, "m": m, "c": c, "rows": rows, "x_set": x_set}


def load_instance(path: str) -> UncertainInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"{path}: not valid JSON ({exc})") from exc
    return parse_instance(doc)
