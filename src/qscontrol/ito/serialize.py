"""JSON round-tripping for symbolic differentials and module operators.

Schemas, see docs/output_schema.md:

* label: tagged object
    {"kind": "time"} | {"kind": "ann", "m": int} | {"kind": "cre", "m": int}
    | {"kind": "cons", "n": int, "k": int, "l": int}
  HP labels use the same tags with no indices ("ann"/"cre"/"cons"/"time").
* complex scalar: two-element array [re, im]
* matrix: row-major nested array of complex scalars
* SymbolicDifferential:
    {"schema": "symbolic-differential/1", "family": "hp"|"swn",
     "terms": [{"label": ..., "coeff": [re, im]}, ...]}
* ModuleOperator (SWN labels):
    {"schema": "module-operator/2", "dim": int,
     "terms": [{"label": ..., "matrix": ...}, ...]}
"""

from __future__ import annotations

import numpy as np

from .differential import SymbolicDifferential
from .labels import HpLabel, SwnLabel
from .module_ops import ModuleOperator

_HP_TO_KIND = {
    HpLabel.TIME: "time",
    HpLabel.ANN: "ann",
    HpLabel.CRE: "cre",
    HpLabel.CONS: "cons",
}
_KIND_TO_HP = {v: k for k, v in _HP_TO_KIND.items()}


def _complex_out(z):
    z = complex(z)
    return [z.real, z.imag]


def _complex_in(pair):
    return complex(pair[0], pair[1])


def _label_out(label):
    if isinstance(label, HpLabel):
        return {"kind": _HP_TO_KIND[label]}
    if isinstance(label, SwnLabel):
        if label.kind == "time":
            return {"kind": "time"}
        if label.kind in ("ann", "cre"):
            return {"kind": label.kind, "m": label.idx[0]}
        n, k, l = label.idx
        return {"kind": "cons", "n": n, "k": k, "l": l}
    raise TypeError(f"unknown label type {type(label)!r}")


def _label_in(obj, family):
    kind = obj["kind"]
    if family == "hp":
        return _KIND_TO_HP[kind]
    if kind == "time":
        return SwnLabel.time()
    if kind == "ann":
        return SwnLabel.ann(obj["m"])
    if kind == "cre":
        return SwnLabel.cre(obj["m"])
    return SwnLabel.cons(obj["n"], obj["k"], obj["l"])


def _matrix_out(mat):
    return [[_complex_out(z) for z in row] for row in np.asarray(mat, dtype=complex)]


def _matrix_in(rows):
    return np.array([[_complex_in(z) for z in row] for row in rows], dtype=complex)


def differential_to_json(diff):
    family = "hp"
    for label in diff.terms:
        family = "hp" if isinstance(label, HpLabel) else "swn"
        break
    terms = [
        {"label": _label_out(label), "coeff": _complex_out(coeff)}
        for label, coeff in sorted(diff.terms.items(), key=lambda kv: str(kv[0]))
    ]
    return {"schema": "symbolic-differential/1", "family": family, "terms": terms}


def differential_from_json(obj):
    if obj.get("schema") != "symbolic-differential/1":
        raise ValueError(f"unsupported schema {obj.get('schema')!r}")
    family = obj["family"]
    return SymbolicDifferential(
        {_label_in(t["label"], family): _complex_in(t["coeff"]) for t in obj["terms"]}
    )


def module_operator_to_json(op):
    terms = [
        {"label": _label_out(label), "matrix": _matrix_out(op.terms[label])}
        for label in sorted(op.terms, key=str)
    ]
    return {"schema": "module-operator/2", "dim": op.dim, "terms": terms}


def module_operator_from_json(obj):
    if obj.get("schema") != "module-operator/2":
        raise ValueError(f"unsupported schema {obj.get('schema')!r}")
    return ModuleOperator(
        {_label_in(t["label"], "swn"): _matrix_in(t["matrix"]) for t in obj["terms"]},
        dim=obj["dim"],
    )
