"""JSON round-tripping for symbolic differentials and module operators.

Schemas, see docs/output_schema.md.  Every label is a ``SwnLabel``, so a
first-order differential is written on its K = 1 labels (dA_0, ...):

* label: tagged object
    {"kind": "time"} | {"kind": "ann", "m": int} | {"kind": "cre", "m": int}
    | {"kind": "cons", "n": int, "k": int, "l": int}
* complex scalar: two-element array [re, im]
* matrix: row-major nested array of complex scalars
* SymbolicDifferential:
    {"schema": "symbolic-differential/2",
     "terms": [{"label": ..., "coeff": [re, im]}, ...]}
* ModuleOperator:
    {"schema": "module-operator/2", "dim": int,
     "terms": [{"label": ..., "matrix": ...}, ...]}
"""

from __future__ import annotations

import numpy as np

from .differential import SymbolicDifferential
from .labels import SwnLabel
from .module_ops import ModuleOperator


def _complex_out(z):
    z = complex(z)
    return [z.real, z.imag]


def _complex_in(pair):
    return complex(pair[0], pair[1])


def _label_out(label):
    if label.kind == "time":
        return {"kind": "time"}
    if label.kind in ("ann", "cre"):
        return {"kind": label.kind, "m": label.idx[0]}
    n, k, l = label.idx
    return {"kind": "cons", "n": n, "k": k, "l": l}


def _label_in(obj):
    kind = obj["kind"]
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
    terms = [
        {"label": _label_out(label), "coeff": _complex_out(coeff)}
        for label, coeff in sorted(diff.terms.items(), key=lambda kv: str(kv[0]))
    ]
    return {"schema": "symbolic-differential/2", "terms": terms}


def differential_from_json(obj):
    if obj.get("schema") != "symbolic-differential/2":
        raise ValueError(f"unsupported schema {obj.get('schema')!r}")
    return SymbolicDifferential(
        {_label_in(t["label"]): _complex_in(t["coeff"]) for t in obj["terms"]}
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
        {_label_in(t["label"]): _matrix_in(t["matrix"]) for t in obj["terms"]},
        dim=obj["dim"],
    )
