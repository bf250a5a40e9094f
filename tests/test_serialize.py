"""JSON schemas: differentials and module operators round-trip, and every
schema the package writes is the one docs/output_schema.md documents."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qscontrol.ito import (
    HpLabel,
    ModuleOperator,
    SwnLabel,
    SymbolicDifferential,
    differential_from_json,
    differential_to_json,
    module_operator_from_json,
    module_operator_to_json,
)


def test_hp_differential_roundtrip():
    diff = SymbolicDifferential(
        {HpLabel.TIME: 1.5 - 0.5j, HpLabel.ANN: 2.0j, HpLabel.CONS: -1.0}
    )
    blob = json.dumps(differential_to_json(diff), sort_keys=True)
    back = differential_from_json(json.loads(blob))
    assert back == diff


def test_swn_differential_roundtrip():
    diff = SymbolicDifferential(
        {
            SwnLabel.time(): 0.25,
            SwnLabel.ann(3): 1.0 + 1.0j,
            SwnLabel.cre(0): -2.0,
            SwnLabel.cons(1, 2, 0): 0.5j,
        }
    )
    back = differential_from_json(differential_to_json(diff))
    assert back == diff


def test_differential_schema_shape():
    diff = SymbolicDifferential({SwnLabel.cons(1, 0, 2): 2.0})
    doc = differential_to_json(diff)
    assert doc["schema"] == "symbolic-differential/1"
    assert doc["family"] == "swn"
    assert doc["terms"] == [
        {"label": {"kind": "cons", "n": 1, "k": 0, "l": 2}, "coeff": [2.0, 0.0]}
    ]


def test_module_operator_roundtrip():
    op = (
        ModuleOperator.from_ann({0: np.array([[1.0, 2.0j], [0.0, -1.0]]), 2: np.eye(2)})
        + ModuleOperator.from_cre({2: 0.5j * np.eye(2)})
        + ModuleOperator.from_cons({(1, 0, 1): np.array([[0.0, 1.0], [1.0, 0.0]])})
        + ModuleOperator.from_time(np.diag([0.25, -1.0]))
    )
    doc = module_operator_to_json(op)
    assert doc["schema"] == "module-operator/2"
    assert [t["label"]["kind"] for t in doc["terms"]] == ["cre", "ann", "ann", "cons", "time"]
    back = module_operator_from_json(json.loads(json.dumps(doc)))
    assert back.approx_eq(op, 0.0)


_swn_labels = st.one_of(
    st.just(SwnLabel.time()),
    st.integers(0, 5).map(SwnLabel.ann),
    st.integers(0, 5).map(SwnLabel.cre),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)).map(
        lambda t: SwnLabel.cons(*t)
    ),
)
_coeffs = st.complex_numbers(
    min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False, allow_infinity=False
)


@given(st.dictionaries(_swn_labels, _coeffs, max_size=8))
def test_differential_roundtrip_property(terms):
    diff = SymbolicDifferential(terms)
    assert differential_from_json(differential_to_json(diff)) == diff


def test_rejects_unknown_schema():
    with pytest.raises(ValueError):
        differential_from_json({"schema": "nope/9", "family": "hp", "terms": []})
    with pytest.raises(ValueError):
        module_operator_from_json({"schema": "nope/9", "dim": 1, "terms": []})


def test_schema_names_in_code_match_the_documented_ones():
    root = Path(__file__).resolve().parents[1]
    in_code = {
        name
        for path in (root / "src" / "qscontrol").rglob("*.py")
        for name in re.findall(r'"schema":\s*"([\w-]+/\d+)"', path.read_text())
    }
    documented = set(
        re.findall(r"^## `([\w-]+/\d+)`", (root / "docs" / "output_schema.md").read_text(),
                   flags=re.MULTILINE)
    )
    assert in_code == documented
