"""Module operations: circ, pairings, r/l maps, and the concise Ito table."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qscontrol.errors import ShapeError
from qscontrol.ito import (
    ModuleOperator,
    SwnLabel,
    SymbolicDifferential,
    circ,
    inner,
    l_map,
    module_ito_mul,
    pairing,
    r_map,
    rho_plus_matrix,
    swn_basis_product,
    swn_mul,
)


def _rand(rng, dim=2):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


# ------------------------------------------------------------------- circ


def test_circ_identity_is_unit():
    rng = np.random.default_rng(7)
    ident = ModuleOperator.identity_cons(2)
    t_op = ModuleOperator.from_cons({(1, 2, 0): _rand(rng), (0, 1, 1): _rand(rng)})
    assert circ(ident, t_op).approx_eq(t_op, 1e-12)
    assert circ(t_op, ident).approx_eq(t_op, 1e-12)


def test_circ_number_operator_squares_to_4m_plus_1_sq():
    number = ModuleOperator.from_cons({(0, 1, 0): np.eye(1)})
    sq = circ(number, number)
    N = 8
    image = sq.to_matrix(N)
    assert np.allclose(image, np.diag([4.0 * (m + 1) ** 2 for m in range(N)]))


def test_circ_matches_representation_composition():
    rng = np.random.default_rng(11)
    N, margin = 24, 9
    # kron layout: column j*N + c pairs system index j with mode index c,
    # so the safe window keeps mode columns c <= N - 1 - margin only.
    safe_cols = [j * N + c for j in range(2) for c in range(N - margin)]
    labels = list(itertools.product(range(3), repeat=3))
    for _ in range(6):
        pick = rng.choice(len(labels), size=2, replace=False)
        d1 = ModuleOperator.from_cons({labels[pick[0]]: _rand(rng)})
        e1 = ModuleOperator.from_cons({labels[pick[1]]: _rand(rng)})
        lhs = circ(d1, e1).to_matrix(N)[:, safe_cols]
        rhs = (d1.to_matrix(N) @ e1.to_matrix(N))[:, safe_cols]
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-8 * scale


def test_circ_rejects_dimension_mismatch():
    a = ModuleOperator.from_cons({(0, 0, 0): np.eye(2)})
    b = ModuleOperator.from_cons({(0, 0, 0): np.eye(3)})
    with pytest.raises(ShapeError):
        circ(a, b)


def test_misshaped_coefficient_is_named_by_its_label():
    with pytest.raises(ShapeError, match=r"^coefficient of dA_1 has dimension 3, expected 2$"):
        ModuleOperator.from_ann({0: np.eye(2), 1: np.eye(3)})
    with pytest.raises(ShapeError, match=r"^coefficient of dA_0 must be square"):
        ModuleOperator.from_ann({0: np.ones((2, 3))})


# ---------------------------------------------------------------- pairing


def test_pairing_single_matching_index():
    rng = np.random.default_rng(3)
    s_mat, t_mat = _rand(rng), _rand(rng)
    a = ModuleOperator.from_ann({0: s_mat})
    b = ModuleOperator.from_cre({0: t_mat})
    assert np.allclose(pairing(a, b), s_mat @ t_mat)


def test_pairing_disjoint_supports_is_zero():
    rng = np.random.default_rng(4)
    a = ModuleOperator.from_ann({0: _rand(rng)})
    b = ModuleOperator.from_cre({1: _rand(rng)})
    assert np.allclose(pairing(a, b), 0.0)


def test_pairing_sums_over_matching_indices():
    rng = np.random.default_rng(5)
    s0, s1, t0, t1 = (_rand(rng) for _ in range(4))
    a = ModuleOperator.from_ann({0: s0, 1: s1})
    b = ModuleOperator.from_cre({0: t0, 1: t1})
    assert np.allclose(pairing(a, b), s0 @ t0 + s1 @ t1)


def test_inner_is_pairing_of_adjoint():
    rng = np.random.default_rng(6)
    a = ModuleOperator.from_cre({0: _rand(rng), 2: _rand(rng)})
    b = ModuleOperator.from_cre({0: _rand(rng), 2: _rand(rng)})
    assert np.allclose(inner(a, b), pairing(a.adjoint(), b))


# ------------------------------------------------------------- r/l maps


def test_r_map_identity_acts_trivially():
    rng = np.random.default_rng(8)
    ident = ModuleOperator.identity_cons(2)
    dplus = ModuleOperator.from_cre({0: _rand(rng), 3: _rand(rng)})
    assert r_map(ident, dplus).approx_eq(dplus, 1e-12)


def test_r_map_raising_label_shifts_and_weights():
    t_mat = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    d1 = ModuleOperator.from_cons({(1, 0, 0): np.eye(2)})
    dplus = ModuleOperator.from_cre({0: t_mat})
    got = r_map(d1, dplus)
    want = ModuleOperator.from_cre({1: math.sqrt(2) * t_mat})
    assert got.approx_eq(want, 1e-12)


def test_l_map_identity_and_lowering_label():
    rng = np.random.default_rng(9)
    ident = ModuleOperator.identity_cons(2)
    dminus = ModuleOperator.from_ann({0: _rand(rng), 1: _rand(rng)})
    assert l_map(ident, dminus).approx_eq(dminus, 1e-12)

    t_mat = _rand(rng)
    e1 = ModuleOperator.from_cons({(0, 0, 1): np.eye(2)})
    got = l_map(e1, ModuleOperator.from_ann({0: t_mat}))
    want = ModuleOperator.from_ann({1: math.sqrt(2) * t_mat})
    assert got.approx_eq(want, 1e-12)


def _single_mode_image(mode_op):
    return {key.idx[0]: complex(mat[0, 0]) for key, mat in mode_op.terms.items()}


def test_r_map_consistent_with_symbolic_table():
    # dL(x) dA+_j = dA+(r(x) e_j) for scalar coefficients, indices <= 2:
    # the coefficient at mode n is the rho+ matrix element <e_n, rho+(x) e_j>
    N = 12
    for x in itertools.product(range(3), repeat=3):
        image = rho_plus_matrix(*x, N)
        for j in range(3):
            got = _single_mode_image(r_map(
                ModuleOperator.from_cons({x: np.eye(1)}),
                ModuleOperator.from_cre({j: np.eye(1)}, dim=1),
            ))
            want = {n: image[n, j] for n in range(N) if image[n, j] != 0.0}
            assert set(got) == set(want)
            for m in got:
                assert abs(got[m] - want[m]) <= 1e-12 * max(1.0, abs(want[m]))


def test_l_map_consistent_with_symbolic_table():
    # dA_j dL(x) = dA(l(x) e_j) for scalar coefficients, indices <= 2:
    # the coefficient at mode n is the rho+ matrix element <e_j, rho+(x) e_n>
    N = 12
    for x in itertools.product(range(3), repeat=3):
        image = rho_plus_matrix(*x, N)
        for j in range(3):
            got = _single_mode_image(l_map(
                ModuleOperator.from_cons({x: np.eye(1)}),
                ModuleOperator.from_ann({j: np.eye(1)}, dim=1),
            ))
            want = {n: image[j, n] for n in range(N) if image[j, n] != 0.0}
            assert set(got) == set(want)
            for m in got:
                assert abs(got[m] - want[m]) <= 1e-12 * max(1.0, abs(want[m]))


def test_r_map_rejects_an_annihilation_argument():
    rng = np.random.default_rng(18)
    ident = ModuleOperator.identity_cons(2)
    with pytest.raises(ShapeError, match="dplus"):
        r_map(ident, ModuleOperator.from_ann({0: _rand(rng)}))


def test_adjoint_swaps_r_and_l():
    rng = np.random.default_rng(10)
    d1 = ModuleOperator.from_cons({(1, 1, 0): _rand(rng), (0, 0, 2): _rand(rng)})
    dplus = ModuleOperator.from_cre({0: _rand(rng), 2: _rand(rng)})
    lhs = r_map(d1, dplus).adjoint()
    rhs = l_map(d1.adjoint(), dplus.adjoint())
    assert lhs.approx_eq(rhs, 1e-10)


# ----------------------------------------------------------- module table


def test_module_table_ann_cre_gives_pairing_dt():
    rng = np.random.default_rng(12)
    s0, s1, t0, t1 = (_rand(rng) for _ in range(4))
    dm = ModuleOperator.from_ann({0: s0, 1: s1})
    dp = ModuleOperator.from_cre({0: t0, 1: t1})
    prod = module_ito_mul(dm, dp)
    assert np.allclose(prod.time, s0 @ t0 + s1 @ t1)
    assert set(prod.terms) == {SwnLabel.time()}


def test_module_table_reverse_order_vanishes():
    rng = np.random.default_rng(13)
    dm = ModuleOperator.from_ann({0: _rand(rng)})
    dp = ModuleOperator.from_cre({0: _rand(rng)})
    prod = module_ito_mul(dp, dm)
    assert prod.norm() == 0.0


def test_module_table_cons_acts_by_r_and_l():
    rng = np.random.default_rng(14)
    ident = ModuleOperator.identity_cons(2)
    dp = ModuleOperator.from_cre({1: _rand(rng)})
    assert module_ito_mul(ident, dp).approx_eq(dp, 1e-12)
    dm = ModuleOperator.from_ann({1: _rand(rng)})
    assert module_ito_mul(dm, ident).approx_eq(dm, 1e-12)


def _rand_diff(rng, ann, cre, cons):
    """A random differential: a dt term and the given labels in the other slots."""
    return (
        ModuleOperator.from_time(_rand(rng))
        + ModuleOperator.from_ann({m: _rand(rng) for m in ann})
        + ModuleOperator.from_cre({m: _rand(rng) for m in cre})
        + ModuleOperator.from_cons({x: _rand(rng) for x in cons})
    )


def test_module_table_time_is_absorbing():
    rng = np.random.default_rng(15)
    x = ModuleOperator.from_time(_rand(rng))
    y = _rand_diff(rng, ann=(0,), cre=(0,), cons=((1, 1, 1),))
    assert module_ito_mul(x, y).norm() == 0.0
    assert module_ito_mul(y, x).norm() == 0.0


def test_module_ito_mul_associative():
    rng = np.random.default_rng(17)

    def rand_diff():
        return _rand_diff(rng, ann=(0, 1), cre=(0, 1), cons=((1, 0, 0), (0, 1, 1)))

    x, y, z = rand_diff(), rand_diff(), rand_diff()
    lhs = module_ito_mul(module_ito_mul(x, y), z)
    rhs = module_ito_mul(x, module_ito_mul(y, z))
    assert lhs.approx_eq(rhs, 1e-8 * max(1.0, lhs.norm()))


def test_module_differential_adjoint_is_antihomomorphism():
    rng = np.random.default_rng(16)
    x = _rand_diff(rng, ann=(0,), cre=(1,), cons=((1, 0, 1),))
    y = _rand_diff(rng, ann=(1,), cre=(0,), cons=((0, 1, 1),))
    lhs = module_ito_mul(x, y).adjoint()
    rhs = module_ito_mul(y.adjoint(), x.adjoint())
    assert lhs.approx_eq(rhs, 1e-9)


# ----------------------------------------------------- one product loop

_labels = st.one_of(
    st.just(SwnLabel.time()),
    st.integers(0, 2).map(SwnLabel.ann),
    st.integers(0, 2).map(SwnLabel.cre),
    st.tuples(*[st.integers(0, 2)] * 3).map(lambda nkl: SwnLabel.cons(*nkl)),
)
_scalar_terms = st.dictionaries(_labels, st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(_scalar_terms, _scalar_terms)
def test_module_ito_mul_on_1x1_coefficients_is_swn_mul(a, b):
    scalar = swn_mul(SymbolicDifferential(a), SymbolicDifferential(b))
    x, y = (ModuleOperator({label: [[c]] for label, c in terms.items()}, dim=1)
            for terms in (a, b))
    module = module_ito_mul(x, y)
    # the matrix product may round differently from the scalar one (BLAS)
    scale = sum(abs(ca * cb * weight) for la, ca in a.items() for lb, cb in b.items()
                for _, weight in swn_basis_product(la, lb))
    for label in module.terms.keys() | scalar.terms.keys():
        got = module.terms[label][0, 0] if label in module.terms else 0.0
        assert abs(got - scalar.coeff(label)) <= 1e-14 * scale, label
