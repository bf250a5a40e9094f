"""sl(2) representation coefficients: Stirling numbers, factorial powers,
theta weights and the rho+ matrices.  The ladder commutation relations and
the full theta table against an exact-rational evaluation are acceptance
criterion 3."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qscontrol.ito import rho_plus_matrix, stirling1, theta
from qscontrol.ito.sl2 import falling, rho_plus_int_entries, theta_int


# ---------------------------------------------------------------- stirling


def test_stirling_base_cases():
    assert stirling1(0, 0) == 1
    for n in range(11):
        assert stirling1(n, n) == 1


def test_stirling_4_2_from_falling_factorial():
    # x(x-1)(x-2)(x-3) = x^4 - 6x^3 + 11x^2 - 6x
    assert stirling1(4, 2) == 11


def test_stirling_out_of_range_is_zero():
    assert stirling1(3, 5) == 0
    assert stirling1(5, -1) == 0


def test_stirling_levels_vanish_at_k0():
    # s(j, 0) = 0 for j >= 1; the composition oracle in test_swn_table
    # confirms this is the convention the table needs.
    for j in range(1, 8):
        assert stirling1(j, 0) == 0


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=-3, max_value=3))
def test_stirling_generates_falling_factorial(n, x):
    fall = math.prod(x - j for j in range(n))
    assert fall == sum(stirling1(n, k) * x**k for k in range(n + 1))


# ------------------------------------------------------- factorial powers


@pytest.mark.parametrize(
    "x,n,expected",
    [(5, 0, (1, 1)), (5, 2, (20, 30)), (0, 2, (0, 0))],
)
def test_factorial_power_examples(x, n, expected):
    # the rising factorial is the reflected falling one, (-1)^n falling(-x, n)
    assert (falling(x, n), (-1) ** n * falling(-x, n)) == expected


@given(st.integers(min_value=-6, max_value=6), st.integers(min_value=0, max_value=8))
def test_factorial_powers_products(x, n):
    # on the naturals both are math.perm values, the form theta_int takes them in
    fall, rise = falling(x, n), (-1) ** n * falling(-x, n)
    assert fall == math.prod(x - j for j in range(n))
    assert rise == math.prod(x + j for j in range(n))
    if x >= 0:
        assert fall == math.perm(x, n)
    if x >= 1:
        assert rise == math.perm(x + n - 1, n)


# ------------------------------------------------------------------ theta


def test_theta_spec_values():
    assert theta(0, 0, 1, 0) == 0.0
    for m in range(12):
        assert theta(0, 0, 0, m) == 1.0
    assert abs(theta(1, 0, 0, 0) - math.sqrt(2)) <= 1e-15


@given(
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=10),
)
def test_theta_nonnegative_with_heaviside_support(n, k, l, m):
    val = theta(n, k, l, m)
    assert val >= 0.0
    if n + m - l < 0:
        assert val == 0.0


def test_theta_int_factorization():
    for n in range(5):
        for k in range(4):
            for l in range(5):
                for m in range(8):
                    whole = theta(n, k, l, m)
                    part = theta_int(n, k, l, m)
                    if n + m - l < 0:
                        assert part == 0
                        continue
                    rebuilt = part * math.sqrt((n + m - l + 1) / (m + 1))
                    assert abs(whole - rebuilt) <= 1e-12 * max(1.0, abs(whole))


# --------------------------------------------------------------- rho plus


def test_rho_plus_identity_label():
    assert np.array_equal(rho_plus_matrix(0, 0, 0, 7), np.eye(7))


def test_rho_plus_number_label_diagonal():
    assert np.allclose(rho_plus_matrix(0, 1, 0, 4), np.diag([2.0, 4.0, 6.0, 8.0]))


def test_rho_plus_int_entries_agree_with_matrix():
    for label in [(1, 0, 0), (0, 0, 1), (2, 1, 1), (1, 2, 0)]:
        N = 9
        mat = rho_plus_matrix(*label, N)
        entries = rho_plus_int_entries(*label, N)
        for (r, c), ival in entries.items():
            assert abs(mat[r, c] - ival * math.sqrt((r + 1) / (c + 1))) <= 1e-12 * max(
                1.0, abs(mat[r, c])
            )


def test_rho_plus_int_entries_are_theta_int_by_ascending_column():
    for n, k, l in itertools.product(range(5), repeat=3):
        for N in (1, 3, 8, 13):
            want = {(n + m - l, m): theta_int(n, k, l, m) for m in range(N)
                    if 0 <= n + m - l < N and theta_int(n, k, l, m)}
            assert list(rho_plus_int_entries(n, k, l, N).items()) == list(want.items())


def test_rho_plus_int_entries_reject_indices_that_are_not_natural():
    with pytest.raises(ValueError, match=r"\(-1, 0, 0\)"):
        rho_plus_int_entries(-1, 0, 0, 5)
