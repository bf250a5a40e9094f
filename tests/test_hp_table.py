"""First-order Ito table: the SWN table on the multiplicity K = 1 labels
dt, dA_0, dA+_0, dL(0,0,0) gives the 16 first-order basis products and
keeps the algebraic laws."""

import itertools

import pytest
from hypothesis import given, strategies as st

from qscontrol.freealg import FreePoly
from qscontrol.ito import FIRST_ORDER, SymbolicDifferential, swn_mul

TIME, ANN, CRE, CONS = FIRST_ORDER
DT, DA, DAD, DL = (SymbolicDifferential.basis(label) for label in FIRST_ORDER)
BASIS = dict(zip(FIRST_ORDER, (DT, DA, DAD, DL)))

# Row label * column label -> expected product (None = zero).
EXPECTED = {
    (ANN, CRE): DT,
    (ANN, CONS): DA,
    (CONS, CRE): DAD,
    (CONS, CONS): DL,
}


# ids are the first-order names of the K = 1 labels
NAMES = ("dt", "dA", "dA+", "dL")


@pytest.mark.parametrize("left", FIRST_ORDER, ids=NAMES)
@pytest.mark.parametrize("right", FIRST_ORDER, ids=NAMES)
def test_all_sixteen_products(left, right):
    got = swn_mul(BASIS[left], BASIS[right])
    want = EXPECTED.get((left, right), SymbolicDifferential.zero())
    assert got == want


def test_bilinearity_example():
    assert swn_mul(DA + DL, DAD) == DT + DAD


def test_adjoint_antihomomorphism_on_basis_pairs():
    for la, lb in itertools.product(FIRST_ORDER, repeat=2):
        a, b = BASIS[la], BASIS[lb]
        assert swn_mul(a, b).adjoint() == swn_mul(b.adjoint(), a.adjoint())


def test_associativity_on_all_basis_triples():
    for la, lb, lc in itertools.product(FIRST_ORDER, repeat=3):
        a, b, c = BASIS[la], BASIS[lb], BASIS[lc]
        assert swn_mul(swn_mul(a, b), c) == swn_mul(a, swn_mul(b, c))


coeffs = st.complex_numbers(
    min_magnitude=0, max_magnitude=4, allow_nan=False, allow_infinity=False
)


def combo(cs):
    return SymbolicDifferential(dict(zip(FIRST_ORDER, cs)))


@given(st.lists(coeffs, min_size=4, max_size=4), st.lists(coeffs, min_size=4, max_size=4))
def test_adjoint_antihomomorphism_random(cs1, cs2):
    a, b = combo(cs1), combo(cs2)
    lhs = swn_mul(a, b).adjoint()
    rhs = swn_mul(b.adjoint(), a.adjoint())
    assert lhs.max_coeff_diff(rhs) <= 1e-12 * (1 + sum(abs(c) for c in cs1 + cs2)) ** 2


@given(st.lists(coeffs, min_size=4, max_size=4))
def test_adjoint_is_involution(cs):
    a = combo(cs)
    assert a.adjoint().adjoint() == a


def test_polynomial_coefficients_keep_their_order():
    # noncommuting coefficients: dA(L) dA+(W) = dt(L W), never dt(W L)
    L, Ls, W, Ws = (FreePoly.sym(name) for name in ("L", "L*", "W", "W*"))
    ann_l = SymbolicDifferential.basis(ANN, L)
    got = swn_mul(ann_l, SymbolicDifferential.basis(CRE, W))
    assert got == SymbolicDifferential.basis(TIME, L * W)
    assert got != SymbolicDifferential.basis(TIME, W * L)
    # polynomials multiply a differential's coefficients on their own side
    assert W * ann_l * L == SymbolicDifferential.basis(ANN, W * L * L)
    # the adjoint stars each coefficient and swaps dA and dA+
    d = SymbolicDifferential({ANN: L * W, CONS: 2j * W})
    assert d.adjoint() == SymbolicDifferential({CRE: Ws * Ls, CONS: -2j * Ws})
    # a polynomial coefficient dumps as its own canonical string
    assert repr(d) == "SymbolicDifferential([(+1+0j)*L.W]*dA_0 + [(+0+2j)*W]*dL(0,0,0))"
