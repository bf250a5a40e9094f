"""Finite linear combinations of noise-differential basis labels, and the
one Ito product loop.

``SymbolicDifferential`` is the common container for every label family:
the sparse ``Terms`` of ``qscontrol.freealg`` keyed by label.
``bilinear_extension`` lifts a table given as data, the nonzero
``(label, weight)`` pairs of each basis pair, to a product of
differentials: with ``*`` on scalar and polynomial coefficients
(``swn.swn_mul``, ``rf_symbolic``) and with ``np.matmul`` on system
matrices (``module_ops.module_ito_mul``).
Coefficients are complex scalars or, for derivations in the free
*-algebra, ``FreePoly`` polynomials; products keep their order, so a
polynomial coefficient never commutes past another.  Structure constants
of the tables are computed in exact integer arithmetic before they ever
touch a coefficient; the square roots coming from the sl(2)
representation weights are the one irrational ingredient, so approximate
comparisons default to 1e-12.
"""

from __future__ import annotations

import operator

from ..freealg import Terms

COMPARISON_TOL = 1e-12


class SymbolicDifferential(Terms):
    """Immutable-by-convention map ``label -> coefficient`` with no zero terms."""

    __slots__ = ()

    _order = _name = str

    @classmethod
    def basis(cls, label, coeff=1.0):
        return cls({label: coeff})

    def __mul__(self, other):
        """Right multiple: ``other`` multiplies each coefficient from the right."""
        if isinstance(other, SymbolicDifferential):
            return NotImplemented
        return SymbolicDifferential({l: c * other for l, c in self.terms.items()})

    def adjoint(self):
        return SymbolicDifferential(
            {label.adjoint(): coeff.conjugate() for label, coeff in self.terms.items()}
        )

    def coeff(self, label):
        return self.terms.get(label, 0j)

    def approx_eq(self, other, tol=COMPARISON_TOL):
        labels = self.terms.keys() | other.terms.keys()
        return all(abs(self.coeff(l) - other.coeff(l)) <= tol for l in labels)


def bilinear_extension(basis_product, coeff_product=operator.mul,
                       container=SymbolicDifferential):
    """Lift a basis-pair product rule to a bilinear map on differentials.

    ``basis_product(la, lb)`` returns the nonzero ``(label, weight)``
    pairs of ``la lb``, ``()`` when it vanishes.  The coefficient of
    ``la lb`` is ``coeff_product(ca, cb) * weight``, the factors in their
    order: ``*`` for scalar and polynomial coefficients, ``np.matmul`` for
    matrices.  The map collects the ``{label: coefficient}`` sums into
    ``container``.
    """

    def mul(a, b):
        out = {}
        for la, ca in a.terms.items():
            for lb, cb in b.terms.items():
                pairs = basis_product(la, lb)
                if not pairs:
                    continue
                prod = coeff_product(ca, cb)
                for label, weight in pairs:
                    add = prod * weight
                    out[label] = out[label] + add if label in out else add
        return container(out)

    return mul
