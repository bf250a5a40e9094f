"""Operators with system-matrix coefficients over the SWN module.

A ``ModuleOperator`` is a finite sum of terms ``S (x) label`` where S is a
complex system matrix and the label is either a mode vector e_m (used in
annihilation/creation slots) or a conservation triple (n, k, l).  The four
basic operations on these sums are

    circ(D1, E1)      conservation-conservation product, same structure
                      constants as the symbolic table
    pairing(Dm, Dp)   sum_n Dm_n Dp_n  (bilinear, system matrix)
    inner(A, B)       sum_n A_n* B_n   (the (.|.) pairing; conjugate-linear
                      in the first slot, so inner(Dm.adjoint(), Dp) equals
                      pairing(Dm, Dp))
    r_map(D1, Dp)     sum D1_{abg} theta(a,b,g, n-a+g) Dp_{n-a+g} (x) e_n
    l_map(E1, Dm)     sum Dm_{n+a-g} theta(g,b,a, n+a-g) E1_{abg} (x) e_n

r_map is a homomorphism and l_map an antihomomorphism with respect to
circ, and adjoints swap them: (r_map(D1, Dp)).adjoint() equals
l_map(D1.adjoint(), Dp.adjoint()).

``ModuleDifferential`` packages the four slots of an SWN evolution
differential (dt, dA, dA+, dL slots with module-operator arguments) and
``module_ito_mul`` multiplies two of them with the concise table

    dA(Dm) dA+(Dp) = pairing(Dm, Dp) dt      dL(D1) dL(E1) = dL(circ(D1,E1))
    dL(D1) dA+(Dp) = dA+(r_map(D1, Dp))      dA(Dm) dL(E1) = dA(l_map(E1, Dm))

with every other slot combination equal to zero.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..linalg import as_matrix, fro
from .sl2 import rho_plus_matrix, swn_structure_constants, theta

MODE = "mode"
CONS = "cons"


def _mode_key(m):
    return (MODE, int(m))


def _cons_key(nkl):
    n, k, l = (int(x) for x in nkl)
    return (CONS, (n, k, l))


class ModuleOperator:
    """Finite sum of (system matrix (x) label) terms, one shared dimension."""

    __slots__ = ("terms", "dim")

    def __init__(self, terms, dim=None):
        self.terms = {}
        self.dim = dim
        for key, mat in terms.items():
            mat = as_matrix(mat, self.dim, name=f"coefficient of {key}")
            if self.dim is None:
                self.dim = mat.shape[0]
            if np.any(mat):
                if key in self.terms:
                    self.terms[key] = self.terms[key] + mat
                else:
                    self.terms[key] = mat.copy()
        self.terms = {k: v for k, v in self.terms.items() if np.any(v)}
        if self.dim is None:
            raise ShapeError("ModuleOperator needs an explicit dim when empty")

    @classmethod
    def zero(cls, dim):
        return cls({}, dim=dim)

    @classmethod
    def from_modes(cls, mode_terms, dim=None):
        """Build sum_m S_m (x) e_m from a dict {m: matrix}."""
        return cls({_mode_key(m): mat for m, mat in mode_terms.items()}, dim=dim)

    @classmethod
    def from_cons(cls, cons_terms, dim=None):
        """Build sum S_{nkl} (x) dL-label from a dict {(n,k,l): matrix}."""
        return cls({_cons_key(nkl): mat for nkl, mat in cons_terms.items()}, dim=dim)

    @classmethod
    def identity_cons(cls, dim):
        """The circ-product unit: identity matrix on the (0,0,0) label."""
        return cls.from_cons({(0, 0, 0): np.eye(dim)})

    def kinds(self):
        return {key[0] for key in self.terms}

    def is_mode(self):
        return self.kinds() <= {MODE}

    def is_cons(self):
        return self.kinds() <= {CONS}

    def mode_terms(self):
        return {key[1]: mat for key, mat in self.terms.items() if key[0] == MODE}

    def cons_terms(self):
        return {key[1]: mat for key, mat in self.terms.items() if key[0] == CONS}

    def max_index(self):
        """Largest mode index / conservation index appearing in any term."""
        worst = 0
        for key in self.terms:
            if key[0] == MODE:
                worst = max(worst, key[1])
            else:
                worst = max(worst, *key[1])
        return worst

    def __add__(self, other):
        self._check(other)
        out = {k: v.copy() for k, v in self.terms.items()}
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
        """Componentwise matrix adjoint; conservation labels flip (n,l)."""
        out = {}
        for key, mat in self.terms.items():
            if key[0] == CONS:
                n, k, l = key[1]
                out[_cons_key((l, k, n))] = mat.conj().T
            else:
                out[key] = mat.conj().T
        return ModuleOperator(out, dim=self.dim)

    def norm(self):
        """sqrt of the sum of squared Frobenius norms of all coefficients."""
        return float(np.sqrt(sum(fro(m) ** 2 for m in self.terms.values())))

    def is_zero(self, tol=0.0):
        return all(np.max(np.abs(m)) <= tol for m in self.terms.values())

    def approx_eq(self, other, tol=1e-12):
        return (self - other).norm() <= tol

    def to_matrix(self, N):
        """Dense (dim*N) x (dim*N) realization, conservation terms via rho+.

        Mode term S (x) e_m is realized as S (x) |m><m| only for testing
        convenience; the main use is conservation operators, where the
        realization is S (x) rho+(label) and circ corresponds to the
        matrix product.
        """
        total = np.zeros((self.dim * N, self.dim * N), dtype=complex)
        for key, mat in self.terms.items():
            if key[0] == CONS:
                total += np.kron(mat, rho_plus_matrix(*key[1], N))
            else:
                proj = np.zeros((N, N))
                if key[1] < N:
                    proj[key[1], key[1]] = 1.0
                total += np.kron(mat, proj)
        return total

    def __repr__(self):
        bits = ", ".join(f"{k}" for k in sorted(self.terms, key=str))
        return f"ModuleOperator(dim={self.dim}, terms=[{bits}])"

    def _check(self, other, kinds=None):
        if not isinstance(other, ModuleOperator):
            raise TypeError("expected a ModuleOperator")
        if other.dim != self.dim:
            raise ShapeError(
                f"system dimensions differ: {self.dim} vs {other.dim}"
            )


def _require(op, pred, what):
    if not pred():
        raise ShapeError(f"{what}: got labels {sorted(op.terms)}")


def circ(d1, e1):
    """Conservation-conservation product of Eq-level structure constants."""
    d1._check(e1)
    _require(d1, d1.is_cons, "circ expects conservation labels on the left")
    _require(e1, e1.is_cons, "circ expects conservation labels on the right")
    out = {}
    for (alpha, beta, gamma), smat in d1.cons_terms().items():
        for (a, b, c), tmat in e1.cons_terms().items():
            prod = smat @ tmat
            for label, coeff in swn_structure_constants(alpha, beta, gamma, a, b, c).items():
                key = _cons_key(label)
                add = coeff * prod
                out[key] = out[key] + add if key in out else add
    return ModuleOperator(out, dim=d1.dim)


def pairing(dminus, dplus):
    """Bilinear mode pairing sum_n Dm_n Dp_n as a system matrix."""
    dminus._check(dplus)
    _require(dminus, dminus.is_mode, "pairing expects mode labels")
    _require(dplus, dplus.is_mode, "pairing expects mode labels")
    total = np.zeros((dminus.dim, dminus.dim), dtype=complex)
    right = dplus.mode_terms()
    for m, mat in dminus.mode_terms().items():
        if m in right:
            total += mat @ right[m]
    return total


def inner(a, b):
    """The (.|.) pairing sum_n A_n* B_n (conjugate-linear in ``a``)."""
    return pairing(a.adjoint(), b)


def r_map(d1, dplus):
    """Left action of a conservation operator on a creation-slot operator."""
    d1._check(dplus)
    _require(d1, d1.is_cons, "r_map expects conservation labels in d1")
    _require(dplus, dplus.is_mode, "r_map expects mode labels in dplus")
    out = {}
    for (alpha, beta, gamma), smat in d1.cons_terms().items():
        for j, tmat in dplus.mode_terms().items():
            n = alpha + j - gamma
            if n < 0:
                continue
            weight = theta(alpha, beta, gamma, j)
            if weight == 0.0:
                continue
            key = _mode_key(n)
            add = weight * (smat @ tmat)
            out[key] = out[key] + add if key in out else add
    return ModuleOperator(out, dim=d1.dim)


def l_map(e1, dminus):
    """Right action of a conservation operator on an annihilation-slot operator:
    the mirror of ``r_map`` under the adjoint, l_map(E1, Dm) = r_map(E1*, Dm*)*."""
    return r_map(e1.adjoint(), dminus.adjoint()).adjoint()


class ModuleDifferential:
    """Formal sum  T dt + dA(Dm) + dA+(Dp) + dL(D1) with matrix T."""

    __slots__ = ("time", "ann", "cre", "cons", "dim")

    def __init__(self, dim, time=None, ann=None, cre=None, cons=None):
        self.dim = dim
        self.time = as_matrix(time, dim) if time is not None else np.zeros((dim, dim), dtype=complex)
        self.ann = ann if ann is not None else ModuleOperator.zero(dim)
        self.cre = cre if cre is not None else ModuleOperator.zero(dim)
        self.cons = cons if cons is not None else ModuleOperator.zero(dim)
        for part, want in ((self.ann, "mode"), (self.cre, "mode"), (self.cons, "cons")):
            if part.dim != dim:
                raise ShapeError("module differential slots must share the system dimension")
            if want == "mode":
                _require(part, part.is_mode, "dA/dA+ slots expect mode labels")
            else:
                _require(part, part.is_cons, "dL slot expects conservation labels")

    def __add__(self, other):
        return ModuleDifferential(
            self.dim,
            time=self.time + other.time,
            ann=self.ann + other.ann,
            cre=self.cre + other.cre,
            cons=self.cons + other.cons,
        )

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        s = complex(scalar)
        return ModuleDifferential(
            self.dim, time=s * self.time, ann=s * self.ann, cre=s * self.cre, cons=s * self.cons
        )

    __rmul__ = __mul__

    def left_mul(self, mat):
        mat = as_matrix(mat, self.dim)
        return ModuleDifferential(
            self.dim,
            time=mat @ self.time,
            ann=self.ann.left_mul(mat),
            cre=self.cre.left_mul(mat),
            cons=self.cons.left_mul(mat),
        )

    def right_mul(self, mat):
        mat = as_matrix(mat, self.dim)
        return ModuleDifferential(
            self.dim,
            time=self.time @ mat,
            ann=self.ann.right_mul(mat),
            cre=self.cre.right_mul(mat),
            cons=self.cons.right_mul(mat),
        )

    def adjoint(self):
        return ModuleDifferential(
            self.dim,
            time=self.time.conj().T,
            ann=self.cre.adjoint(),
            cre=self.ann.adjoint(),
            cons=self.cons.adjoint(),
        )

    def norm(self):
        return float(
            np.sqrt(fro(self.time) ** 2 + self.ann.norm() ** 2 + self.cre.norm() ** 2 + self.cons.norm() ** 2)
        )

    def approx_eq(self, other, tol=1e-12):
        return (self - other).norm() <= tol


def module_ito_mul(x, y):
    """Ito product of two module differentials (concise SWN table)."""
    if x.dim != y.dim:
        raise ShapeError(f"system dimensions differ: {x.dim} vs {y.dim}")
    dim = x.dim
    return ModuleDifferential(
        dim,
        time=pairing(x.ann, y.cre),
        ann=l_map(y.cons, x.ann),
        cre=r_map(x.cons, y.cre),
        cons=circ(x.cons, y.cons),
    )
