"""Square-of-white-noise Ito multiplication table.

Nonzero basis products over ``SwnLabel``:

    dL_{a,b,g} dL_{a',b',c'} = sum of conservation labels with the exact
                               integer structure constants of ``sl2``
    dL_{a,b,g} dA+_n         = theta(a,b,g,n) dA+_{a+n-g}
    dA_m dL_{a',b',c'}       = theta(c',b',a',m) dA_{c'+m-a'}   (adjoint of the row above)
    dA_m dA+_n               = delta_{mn} dt

All other products of differentials vanish.  The sl(2) generators enter
through their conservation realizations

    dBminus = dL(0,0,1) + dA_0,   dBplus = dL(1,0,0) + dA+_0,
    dM      = dL(0,1,0) + dt,

whose Ito bracket dBminus dBplus - dBplus dBminus recovers dM.
"""

from __future__ import annotations

from .differential import SymbolicDifferential, bilinear_extension
from .labels import SwnLabel
from .sl2 import swn_structure_constants, theta


def swn_basis_product(la, lb):
    ka, kb = la.kind, lb.kind
    if ka == "cons" and kb == "cons":
        consts = swn_structure_constants(*la.idx, *lb.idx)
        return SymbolicDifferential(
            {SwnLabel.cons(*label): coeff for label, coeff in consts.items()}
        )
    if ka == "cons" and kb == "cre":
        (n,) = lb.idx
        alpha, beta, gamma = la.idx
        weight = theta(alpha, beta, gamma, n)
        if weight == 0.0:
            return None
        return SymbolicDifferential.basis(SwnLabel.cre(alpha + n - gamma), weight)
    if ka == "ann" and kb == "cons":
        # the mirror of (cons, cre): dA_m dL = ((dL)* dA+_m)*
        mirror = swn_basis_product(lb.adjoint(), la.adjoint())
        return None if mirror is None else mirror.adjoint()
    if ka == "ann" and kb == "cre":
        if la.idx == lb.idx:
            return SymbolicDifferential.basis(SwnLabel.time())
        return None
    return None


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
