"""First-order quantum Ito multiplication table.

Nonzero basis products (row = left factor, column = right factor):

    dA  * dA+ = dt        dA  * dL  = dA
    dL  * dA+ = dA+       dL  * dL  = dL

Every other product of the four differentials vanishes; in particular
dt annihilates everything and dA+ annihilates from the left.
"""

from __future__ import annotations

from .differential import SymbolicDifferential, bilinear_extension
from .labels import HpLabel

DT = SymbolicDifferential.basis(HpLabel.TIME)
DA = SymbolicDifferential.basis(HpLabel.ANN)
DAD = SymbolicDifferential.basis(HpLabel.CRE)
DL = SymbolicDifferential.basis(HpLabel.CONS)

HP_TABLE = {
    (HpLabel.ANN, HpLabel.CRE): HpLabel.TIME,
    (HpLabel.ANN, HpLabel.CONS): HpLabel.ANN,
    (HpLabel.CONS, HpLabel.CRE): HpLabel.CRE,
    (HpLabel.CONS, HpLabel.CONS): HpLabel.CONS,
}


def hp_basis_product(la, lb):
    out = HP_TABLE.get((la, lb))
    if out is None:
        return None
    return SymbolicDifferential.basis(out)


hp_mul = bilinear_extension(hp_basis_product)
