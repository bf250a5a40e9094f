"""Basis labels for quantum noise differentials.

``SwnLabel`` keys every differential of the package: dt, dA_m, dA†_m and
the conservation differentials dΛ_{n,k,l} indexed by three naturals.  The
first-order differentials dt, dA, dA†, dΛ are the multiplicity K = 1
labels ``FIRST_ORDER`` = (dt, dA_0, dA†_0, dΛ_{0,0,0}), on which the
square-of-white-noise table is the first-order table.

Adjoints act on labels only (coefficient conjugation lives in
``SymbolicDifferential``): dA_m ↔ dA†_m, dΛ_{n,k,l} ↔ dΛ_{l,k,n}, dt
fixed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class SwnLabel:
    kind: str           # "time" | "ann" | "cre" | "cons"
    idx: tuple = ()     # () | (m,) | (m,) | (n, k, l)

    _KINDS = ("time", "ann", "cre", "cons")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown SWN label kind {self.kind!r}")
        want = {"time": 0, "ann": 1, "cre": 1, "cons": 3}[self.kind]
        if len(self.idx) != want:
            raise ValueError(f"{self.kind} label needs {want} indices, got {self.idx}")
        if any((not isinstance(i, int)) or i < 0 for i in self.idx):
            raise ValueError(f"label indices must be naturals, got {self.idx}")

    @classmethod
    def time(cls):
        return cls("time")

    @classmethod
    def ann(cls, m):
        return cls("ann", (m,))

    @classmethod
    def cre(cls, m):
        return cls("cre", (m,))

    @classmethod
    def cons(cls, n, k, l):
        return cls("cons", (n, k, l))

    def adjoint(self):
        if self.kind == "ann":
            return SwnLabel.cre(self.idx[0])
        if self.kind == "cre":
            return SwnLabel.ann(self.idx[0])
        if self.kind == "cons":
            n, k, l = self.idx
            return SwnLabel.cons(l, k, n)
        return self

    def __str__(self):
        if self.kind == "time":
            return "dt"
        if self.kind == "ann":
            return f"dA_{self.idx[0]}"
        if self.kind == "cre":
            return f"dA+_{self.idx[0]}"
        n, k, l = self.idx
        return f"dL({n},{k},{l})"


FIRST_ORDER = (SwnLabel.time(), SwnLabel.ann(0), SwnLabel.cre(0), SwnLabel.cons(0, 0, 0))
