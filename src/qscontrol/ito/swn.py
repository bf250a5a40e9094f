"""Square-of-white-noise Ito multiplication table.

Nonzero basis products over ``SwnLabel``:

    dL_{a,b,g} dL_{a',b',c'} = sum of conservation labels with the exact
                               integer structure constants of ``sl2``
    dL_{a,b,g} dA+_n         = theta(a,b,g,n) dA+_{a+n-g}
    dA_m dL_{a',b',c'}       = theta(c',b',a',m) dA_{c'+m-a'}   (adjoint of the row above)
    dA_m dA+_n               = delta_{mn} dt

All other products of differentials vanish.  ``swn_basis_product`` is
the table as data: the nonzero (label, weight) pairs of a basis pair, with
real weights.  ``swn_mul`` is ``differential.bilinear_extension`` of it,
and ``module_ops.module_ito_mul`` runs the same table on matrix
coefficients.

The sl(2) generators enter through their conservation realizations

    dBminus = dL(0,0,1) + dA_0,   dBplus = dL(1,0,0) + dA+_0,
    dM      = dL(0,1,0) + dt,

whose Ito bracket dBminus dBplus - dBplus dBminus recovers dM.
"""

from __future__ import annotations

from .differential import SymbolicDifferential, bilinear_extension
from .labels import SwnLabel
from .sl2 import swn_structure_constants, theta


def swn_basis_product(la, lb):
    """The nonzero ``(label, weight)`` pairs of ``la lb``, ``()`` when it vanishes."""
    kinds = la.kind, lb.kind
    if kinds == ("cons", "cons"):
        consts = swn_structure_constants(*la.idx, *lb.idx)
        return tuple((SwnLabel.cons(*label), coeff) for label, coeff in consts.items())
    if kinds == ("cons", "cre"):
        (alpha, beta, gamma), (n,) = la.idx, lb.idx
        weight = theta(alpha, beta, gamma, n)
        return ((SwnLabel.cre(alpha + n - gamma), weight),) if weight else ()
    if kinds == ("ann", "cons"):
        # the mirror of (cons, cre): dA_m dL = ((dL)* dA+_m)*, with real weights
        mirror = swn_basis_product(lb.adjoint(), la.adjoint())
        return tuple((label.adjoint(), weight) for label, weight in mirror)
    if kinds == ("ann", "cre") and la.idx == lb.idx:
        return ((SwnLabel.time(), 1.0),)
    return ()


swn_mul = bilinear_extension(swn_basis_product)


def d_bminus():
    return SymbolicDifferential(
        {SwnLabel.cons(0, 0, 1): 1.0, SwnLabel.ann(0): 1.0}
    )


def d_bplus():
    return SymbolicDifferential(
        {SwnLabel.cons(1, 0, 0): 1.0, SwnLabel.cre(0): 1.0}
    )


def d_m():
    return SymbolicDifferential({SwnLabel.cons(0, 1, 0): 1.0, SwnLabel.time(): 1.0})
