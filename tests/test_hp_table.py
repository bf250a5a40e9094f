"""First-order Ito table: the 16 basis products and algebraic laws."""

import itertools

import pytest
from hypothesis import given, strategies as st

from qscontrol.freealg import FreePoly
from qscontrol.ito import DA, DAD, DL, DT, HpLabel, SymbolicDifferential, hp_mul

BASIS = {
    HpLabel.TIME: DT,
    HpLabel.ANN: DA,
    HpLabel.CRE: DAD,
    HpLabel.CONS: DL,
}

# Row label * column label -> expected product (None = zero).
EXPECTED = {
    (HpLabel.ANN, HpLabel.CRE): DT,
    (HpLabel.ANN, HpLabel.CONS): DA,
    (HpLabel.CONS, HpLabel.CRE): DAD,
    (HpLabel.CONS, HpLabel.CONS): DL,
}


@pytest.mark.parametrize("left", list(HpLabel))
@pytest.mark.parametrize("right", list(HpLabel))
def test_all_sixteen_products(left, right):
    got = hp_mul(BASIS[left], BASIS[right])
    want = EXPECTED.get((left, right), SymbolicDifferential.zero())
    assert got == want


def test_bilinearity_example():
    assert hp_mul(DA + DL, DAD) == DT + DAD


def test_adjoint_antihomomorphism_on_basis_pairs():
    for la, lb in itertools.product(HpLabel, repeat=2):
        a, b = BASIS[la], BASIS[lb]
        assert hp_mul(a, b).adjoint() == hp_mul(b.adjoint(), a.adjoint())


def test_associativity_on_all_basis_triples():
    for la, lb, lc in itertools.product(HpLabel, repeat=3):
        a, b, c = BASIS[la], BASIS[lb], BASIS[lc]
        assert hp_mul(hp_mul(a, b), c) == hp_mul(a, hp_mul(b, c))


coeffs = st.complex_numbers(
    min_magnitude=0, max_magnitude=4, allow_nan=False, allow_infinity=False
)


def combo(cs):
    return SymbolicDifferential(dict(zip(HpLabel, cs)))


@given(st.lists(coeffs, min_size=4, max_size=4), st.lists(coeffs, min_size=4, max_size=4))
def test_adjoint_antihomomorphism_random(cs1, cs2):
    a, b = combo(cs1), combo(cs2)
    lhs = hp_mul(a, b).adjoint()
    rhs = hp_mul(b.adjoint(), a.adjoint())
    assert lhs.max_coeff_diff(rhs) <= 1e-12 * (1 + sum(abs(c) for c in cs1 + cs2)) ** 2


@given(st.lists(coeffs, min_size=4, max_size=4))
def test_adjoint_is_involution(cs):
    a = combo(cs)
    assert a.adjoint().adjoint() == a


def test_polynomial_coefficients_keep_their_order():
    # noncommuting coefficients: dA(L) dA+(W) = dt(L W), never dt(W L)
    L, Ls, W, Ws = (FreePoly.sym(name) for name in ("L", "L*", "W", "W*"))
    ann_l = SymbolicDifferential.basis(HpLabel.ANN, L)
    got = hp_mul(ann_l, SymbolicDifferential.basis(HpLabel.CRE, W))
    assert got == SymbolicDifferential.basis(HpLabel.TIME, L * W)
    assert got != SymbolicDifferential.basis(HpLabel.TIME, W * L)
    # polynomials multiply a differential's coefficients on their own side
    assert W * ann_l * L == SymbolicDifferential.basis(HpLabel.ANN, W * L * L)
    # the adjoint stars each coefficient and swaps dA and dA+
    d = SymbolicDifferential({HpLabel.ANN: L * W, HpLabel.CONS: 2j * W})
    assert d.adjoint() == SymbolicDifferential({HpLabel.CRE: Ws * Ls, HpLabel.CONS: -2j * Ws})
    # a polynomial coefficient dumps as its own canonical string
    assert repr(d) == "SymbolicDifferential([(+1+0j)*L.W]*dA + [(+0+2j)*W]*dL)"
