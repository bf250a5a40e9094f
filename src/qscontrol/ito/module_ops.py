"""SWN differentials with system-matrix coefficients.

A ``ModuleOperator`` is a finite sum of terms ``S (x) label`` where S is a
complex system matrix and the label an ``SwnLabel``: dt, dA_m, dA+_m or
dL(n, k, l).  It multiplies through the one SWN Ito table,
``swn.swn_basis_product``, exactly as scalar differentials do:
``module_ito_mul`` is the one product loop,
``differential.bilinear_extension``, with ``np.matmul`` as the
coefficient product, so the coefficient of ``la lb`` is
``(S_a @ S_b) * weight`` in the order of the factors.

The named operations are the slots of the table, each a check that its
arguments carry the labels of the slot, then ``module_ito_mul``:

    circ(D1, E1)      dL(D1) dL(E1) = dL(circ(D1, E1))
    r_map(D1, Dp)     dL(D1) dA+(Dp) = dA+(r_map(D1, Dp))
    l_map(E1, Dm)     dA(Dm) dL(E1) = dA(l_map(E1, Dm))
    pairing(Dm, Dp)   dA(Dm) dA+(Dp) = pairing(Dm, Dp) dt   (sum_n Dm_n Dp_n)

``inner(A, B) = sum_n A_n* B_n`` is the (.|.) pairing of two creation-slot
operators, ``pairing(A.adjoint(), B)``.  r_map is a homomorphism and l_map
an antihomomorphism with respect to circ, and adjoints swap them:
(r_map(D1, Dp)).adjoint() equals l_map(D1.adjoint(), Dp.adjoint()).
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..linalg import as_matrix, fro
from .differential import bilinear_extension
from .labels import SwnLabel
from .sl2 import rho_plus_matrix
from .swn import swn_basis_product


class ModuleOperator:
    """Finite sum of (system matrix (x) SwnLabel) terms, one shared dimension."""

    __slots__ = ("terms", "dim")

    def __init__(self, terms, dim=None):
        self.terms = {}
        self.dim = dim
        for key, mat in terms.items():
            try:
                mat = as_matrix(mat, self.dim)
            except ShapeError:
                # name the coefficient only on failure: formatting the label
                # for every term costs more than the coercion
                as_matrix(mat, self.dim, name=f"coefficient of {key}")
            if self.dim is None:
                self.dim = mat.shape[0]
            if np.any(mat):
                self.terms[key] = mat.copy()
        if self.dim is None:
            raise ShapeError("ModuleOperator needs an explicit dim when empty")

    @classmethod
    def zero(cls, dim):
        return cls({}, dim=dim)

    @classmethod
    def from_time(cls, mat, dim=None):
        """Build T (x) dt."""
        return cls({SwnLabel.time(): mat}, dim=dim)

    @classmethod
    def from_ann(cls, mode_terms, dim=None):
        """Build sum_m S_m (x) dA_m from a dict {m: matrix}."""
        return cls({SwnLabel.ann(int(m)): mat for m, mat in mode_terms.items()}, dim=dim)

    @classmethod
    def from_cre(cls, mode_terms, dim=None):
        """Build sum_m S_m (x) dA+_m from a dict {m: matrix}."""
        return cls({SwnLabel.cre(int(m)): mat for m, mat in mode_terms.items()}, dim=dim)

    @classmethod
    def from_cons(cls, cons_terms, dim=None):
        """Build sum S_{nkl} (x) dL(n,k,l) from a dict {(n,k,l): matrix}."""
        return cls(
            {SwnLabel.cons(*(int(x) for x in nkl)): mat for nkl, mat in cons_terms.items()},
            dim=dim,
        )

    @classmethod
    def identity_cons(cls, dim):
        """The circ-product unit: identity matrix on the (0,0,0) label."""
        return cls.from_cons({(0, 0, 0): np.eye(dim)})

    @property
    def time(self):
        """The dt coefficient (a zero matrix when there is none)."""
        return self.terms.get(SwnLabel.time(), np.zeros((self.dim, self.dim), dtype=complex))

    def slot(self, kind):
        """The terms whose labels have kind ``kind``, as an operator."""
        return ModuleOperator(
            {key: mat for key, mat in self.terms.items() if key.kind == kind}, dim=self.dim
        )

    def cons_terms(self):
        return {key.idx: mat for key, mat in self.terms.items() if key.kind == "cons"}

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v
        return ModuleOperator(out, dim=self.dim)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        s = complex(scalar)
        return ModuleOperator({k: s * v for k, v in self.terms.items()}, dim=self.dim)

    __rmul__ = __mul__

    def left_mul(self, mat):
        """Multiply every coefficient by ``mat`` from the left."""
        mat = as_matrix(mat, self.dim)
        return ModuleOperator({k: mat @ v for k, v in self.terms.items()}, dim=self.dim)

    def right_mul(self, mat):
        mat = as_matrix(mat, self.dim)
        return ModuleOperator({k: v @ mat for k, v in self.terms.items()}, dim=self.dim)

    def adjoint(self):
        """Label adjoint (dA <-> dA+, (n,k,l) -> (l,k,n)) and matrix adjoint."""
        return ModuleOperator(
            {k.adjoint(): v.conj().T for k, v in self.terms.items()}, dim=self.dim
        )

    def norm(self):
        """sqrt of the sum of squared Frobenius norms of all coefficients."""
        return float(np.sqrt(sum(fro(m) ** 2 for m in self.terms.values())))

    def is_zero(self, tol=0.0):
        return all(np.max(np.abs(m)) <= tol for m in self.terms.values())

    def approx_eq(self, other, tol=1e-12):
        return (self - other).norm() <= tol

    def to_matrix(self, N):
        """Dense (dim*N) x (dim*N) realization S (x) rho+(label) of a
        conservation operator; circ corresponds to the matrix product."""
        require_slot(self, "cons", "to_matrix")
        total = np.zeros((self.dim * N, self.dim * N), dtype=complex)
        for nkl, mat in self.cons_terms().items():
            total += np.kron(mat, rho_plus_matrix(*nkl, N))
        return total

    def __repr__(self):
        bits = ", ".join(f"{k}" for k in sorted(self.terms, key=str))
        return f"ModuleOperator(dim={self.dim}, terms=[{bits}])"

    def _check(self, other):
        if not isinstance(other, ModuleOperator):
            raise TypeError("expected a ModuleOperator")
        if other.dim != self.dim:
            raise ShapeError(
                f"system dimensions differ: {self.dim} vs {other.dim}"
            )


def require_slot(op, kind, name):
    """Raise ShapeError naming ``name`` unless every label of ``op`` has
    kind ``kind`` ("time", "ann", "cre" or "cons")."""
    stray = sorted(str(key) for key in op.terms if key.kind != kind)
    if stray:
        raise ShapeError(f"{name} expects {kind} labels, got {stray}")


_matrix_mul = bilinear_extension(swn_basis_product, np.matmul, dict)


def module_ito_mul(x, y):
    """Ito product of two SWN differentials with matrix coefficients."""
    x._check(y)
    return ModuleOperator(_matrix_mul(x, y), dim=x.dim)


def circ(d1, e1):
    """Conservation-conservation product: dL(D1) dL(E1) = dL(circ(D1, E1))."""
    require_slot(d1, "cons", "circ's left argument")
    require_slot(e1, "cons", "circ's right argument")
    return module_ito_mul(d1, e1)


def pairing(dminus, dplus):
    """Bilinear mode pairing sum_n Dm_n Dp_n as a system matrix."""
    require_slot(dminus, "ann", "pairing's dminus")
    require_slot(dplus, "cre", "pairing's dplus")
    return module_ito_mul(dminus, dplus).time


def inner(a, b):
    """The (.|.) pairing sum_n A_n* B_n of two creation-slot operators
    (conjugate-linear in ``a``)."""
    return pairing(a.adjoint(), b)


def r_map(d1, dplus):
    """Left action of a conservation operator on a creation-slot operator."""
    require_slot(d1, "cons", "r_map's d1")
    require_slot(dplus, "cre", "r_map's dplus")
    return module_ito_mul(d1, dplus)


def l_map(e1, dminus):
    """Right action of a conservation operator on an annihilation-slot operator."""
    require_slot(e1, "cons", "l_map's e1")
    require_slot(dminus, "ann", "l_map's dminus")
    return module_ito_mul(dminus, e1)
