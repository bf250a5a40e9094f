"""SWN Ito table against the number-space representation oracle.

The oracle (O1, ``sl2.composition_mismatch``): conservation differentials
multiply like their rho+ images compose, so for every pair of labels the
table's output combination must reproduce the matrix product of the
truncated images.  Both sides of an entry carry the common factor
sqrt((row+1)/(col+1)); stripping it makes the comparison exact integer
arithmetic, so the check runs at zero tolerance (well inside the 1e-8
budget) on the safe window.

The comparison is also what froze the sign convention of the Stirling
numbers: the signed convention passes on every index pair <= 2 while the
unsigned one fails (witness pair below), so the signed convention is the
one wired into the table.
"""

import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest

from qscontrol.ito import (
    SwnLabel,
    SymbolicDifferential,
    d_bminus,
    d_bplus,
    d_m,
    rho_plus_matrix,
    swn_basis_product,
    swn_mul,
    swn_structure_constants,
    theta,
)
from qscontrol.ito import sl2
from qscontrol.ito.sl2 import (
    composition_mismatch,
    falling,
    stirling1,
    stirling1_unsigned,
    theta_int,
)

N_ORACLE = 30
MARGIN = 5  # >= max total raising index for index pairs <= 2

ALL_CONS_PAIRS = list(
    itertools.product(itertools.product(range(3), repeat=3), repeat=2)
)


def test_oracle_o1_exact_on_all_cons_pairs_up_to_2():
    assert composition_mismatch(ALL_CONS_PAIRS, N_ORACLE, MARGIN) == 0


def test_unsigned_stirling_convention_is_rejected_by_oracle():
    # Witness: the (0,0,2)*(2,0,0) product needs s(2,1) = -1, not +1.
    pair = [((0, 0, 2), (2, 0, 0))]
    assert composition_mismatch(pair, N_ORACLE, MARGIN) == 0
    assert composition_mismatch(pair, N_ORACLE, MARGIN, stirling=stirling1_unsigned) > 0


@pytest.mark.parametrize("stirling", [stirling1, stirling1_unsigned])
def test_oracle_sweep_is_max_of_single_pair_calls(stirling):
    singles = [composition_mismatch([pair], N_ORACLE, MARGIN, stirling=stirling)
               for pair in ALL_CONS_PAIRS]
    swept = composition_mismatch(ALL_CONS_PAIRS, N_ORACLE, MARGIN, stirling=stirling)
    assert swept == max(singles)
    # the order of the pairs does not matter
    assert composition_mismatch(reversed(ALL_CONS_PAIRS), N_ORACLE, MARGIN,
                                stirling=stirling) == swept
    # the unsigned convention keeps the equality from holding only as 0 == 0
    assert (swept > 0) == (stirling is stirling1_unsigned)


def test_oracle_sweep_builds_each_label_image_once(monkeypatch):
    calls = Counter()
    build = sl2.rho_plus_int_entries

    def counted(n, k, l, N):
        calls[(n, k, l)] += 1
        return build(n, k, l, N)

    monkeypatch.setattr(sl2, "rho_plus_int_entries", counted)
    labels = {label for x, y in ALL_CONS_PAIRS
              for label in (x, y, *swn_structure_constants(*x, *y))}
    for sweep in (1, 2):
        # the second sweep builds every image again: no cache outlives a call
        composition_mismatch(ALL_CONS_PAIRS, N_ORACLE, MARGIN)
        assert set(calls) == labels
        assert set(calls.values()) == {sweep}


def test_oracle_compares_a_label_with_a_foreign_shift_at_its_own_rows(monkeypatch):
    # a wrong table that answers dL_(0,0,0)^2 with rho+(1,0,0), whose entry
    # m + 1 sits one row below the identity's 1 in column m: every position
    # is a mismatch of its own, the largest col + 1 = 25 in the window
    monkeypatch.setattr(sl2, "swn_structure_constants", lambda *labels, stirling: {(1, 0, 0): 1})
    assert composition_mismatch([((0, 0, 0), (0, 0, 0))], N_ORACLE, MARGIN) == N_ORACLE - MARGIN


def test_oracle_window_excludes_truncated_columns():
    # at N = 30 the truncation cuts column 28 for some pair <= 2 and no
    # column below it: margin 1 still compares column 28, margin 2 does not
    assert composition_mismatch(ALL_CONS_PAIRS, N_ORACLE, 1) > 0
    assert composition_mismatch(ALL_CONS_PAIRS, N_ORACLE, 2) == 0


@pytest.mark.parametrize("margin", [-1, N_ORACLE])
def test_oracle_rejects_an_empty_or_negative_window(margin):
    # margin N compares no column, so even the unsigned convention would pass
    with pytest.raises(ValueError, match="margin"):
        composition_mismatch([((0, 0, 2), (2, 0, 0))], N_ORACLE, margin,
                             stirling=stirling1_unsigned)
    # the nearest margin inside [0, N) leaves a window, and the witness fails
    inside = 0 if margin < 0 else N_ORACLE - 1
    assert composition_mismatch([((0, 0, 2), (2, 0, 0))], N_ORACLE, inside,
                                stirling=stirling1_unsigned) > 0


def test_oracle_rejects_no_pairs():
    with pytest.raises(ValueError, match="pair"):
        composition_mismatch(iter(()), N_ORACLE, MARGIN)


# ------------------------------------------------- references, written out


def _reference_constants(alpha, beta, gamma, a, b, c, stirling):
    """The docstring's five-fold sum, one term at a time, in loop order
    (each loop multiplies in its own factors and skips a zero product)."""
    out = {}
    for lam in range(gamma + 1):
        for rho in range(gamma - lam + 1):
            for sig in range(gamma - lam - rho + 1):
                f_sig = (math.comb(gamma, lam) * math.comb(gamma - lam, rho)
                         * stirling(gamma - lam - rho, sig)
                         * falling(a, gamma - lam) * falling(a + lam - 1, rho))
                if not f_sig:
                    continue
                for omg in range(beta + 1):
                    f_omg = f_sig * math.comb(beta, omg) * (2 * (a - gamma + lam)) ** (beta - omg)
                    if not f_omg:
                        continue
                    for eps in range(b + 1):
                        coeff = f_omg * math.comb(b, eps) * (2 * lam) ** (b - eps)
                        if coeff:
                            label = (a + alpha - gamma + lam, omg + sig + eps, lam + c)
                            out[label] = out.get(label, 0) + coeff
    return {label: coeff for label, coeff in out.items() if coeff}


def _reference_mismatch(pairs, N, margin, stirling=stirling1):
    """The oracle column by column: images from ``theta_int``, the table from
    ``sl2.swn_structure_constants``, one difference list per row shift."""
    n_cols = N - margin

    def image(label):
        n, k, l = label
        return [theta_int(n, k, l, col) if 0 <= n + col - l < N else 0 for col in range(N)]

    worst = 0
    for x, y in pairs:
        left, right = image(x), image(y)
        raise_y = y[0] - y[2]
        groups = {x[0] - x[2] + raise_y: [left[col + raise_y] * val if val else 0
                                          for col, val in enumerate(right[:n_cols])]}
        for label, coeff in sl2.swn_structure_constants(*x, *y, stirling=stirling).items():
            diffs = groups.setdefault(label[0] - label[2], [0] * n_cols)
            for col, val in enumerate(image(label)[:n_cols]):
                diffs[col] -= coeff * val
        worst = max(worst, *(abs(d) for diffs in groups.values() for d in diffs))
    return worst


def test_table_matches_the_five_fold_sum_term_by_term():
    # same values and the same insertion order on every index 6-tuple <= 4
    for idx in itertools.product(range(5), repeat=6):
        for stirling in (stirling1, stirling1_unsigned):
            want = _reference_constants(*idx, stirling)
            assert list(swn_structure_constants(*idx, stirling=stirling).items()) == list(
                want.items()), (idx, stirling)


@pytest.mark.parametrize("margin", [0, 1, 2, 5, N_ORACLE - 1])
def test_packed_oracle_equals_the_column_oracle_on_a_wrong_convention(margin):
    for stirling in (stirling1, stirling1_unsigned):
        assert composition_mismatch(ALL_CONS_PAIRS, N_ORACLE, margin, stirling=stirling) == (
            _reference_mismatch(ALL_CONS_PAIRS, N_ORACLE, margin, stirling=stirling))


WRONG_TABLES = [
    {(1, 0, 0): 1},  # a foreign shift: compared at its own rows
    {(1, 0, 0): 3, (0, 0, 0): 1, (0, 0, 1): -2, (2, 1, 0): 5},
    {(0, 1, 0): 1 + 2**300, (0, 0, 0): -(2**301)},  # aliases in any slot of <= 300 bits
    {(0, 0, 0): 2**300, (1, 0, 0): -(2**300), (2, 2, 1): 7},
]


@pytest.mark.parametrize("table", WRONG_TABLES)
def test_packed_oracle_equals_the_column_oracle_on_wrong_tables(monkeypatch, table):
    monkeypatch.setattr(sl2, "swn_structure_constants", lambda *labels, stirling: table)
    pairs = [((0, 0, 0), (0, 0, 0)), ((0, 1, 0), (0, 0, 0)), ((1, 0, 2), (2, 1, 0)),
             ((2, 2, 2), (0, 0, 1))]
    for margin in (0, MARGIN):
        got = composition_mismatch(pairs, N_ORACLE, margin)
        assert got > 0 and got == _reference_mismatch(pairs, N_ORACLE, margin)


def test_oracle_sweep_asks_for_each_table_once(monkeypatch):
    calls = Counter()
    build = sl2.swn_structure_constants

    def counted(*labels, stirling):
        calls[labels] += 1
        return build(*labels, stirling=stirling)

    monkeypatch.setattr(sl2, "swn_structure_constants", counted)
    for sweep in (1, 2):
        # the second sweep asks again: no table outlives a call
        composition_mismatch(ALL_CONS_PAIRS, N_ORACLE, MARGIN)
        assert set(calls) == {(*x, *y) for x, y in ALL_CONS_PAIRS}
        assert set(calls.values()) == {sweep}


def test_table_rejects_indices_that_are_not_natural():
    for idx in [(0, 0, 0, -1, 0, 0), (0, 0, -1, 0, 0, 0), (0, -2, 0, 0, 0, 0)]:
        with pytest.raises(ValueError, match=re.escape(f"{idx[:3]} * {idx[3:]}")):
            swn_structure_constants(*idx)


def test_oracle_rejects_pairs_that_are_not_labels():
    for pair in [((0, 0, 0), (-1, 0, 0)), ((0, -1, 0), (0, 0, 0))]:
        with pytest.raises(ValueError, match=re.escape(f"{pair[0]} * {pair[1]}")):
            composition_mismatch([((0, 0, 0), (0, 0, 0)), pair], 10, 2)


def test_oracle_o1_float_route_within_scaled_tolerance():
    # Same comparison in double precision; entries reach ~1e8 at N = 30 so
    # the tolerance is relative to the window magnitude.
    rng_labels = [(0, 0, 0), (1, 0, 0), (0, 1, 2), (2, 2, 1), (2, 0, 2)]
    cache = {}

    def rho(label):
        if label not in cache:
            cache[label] = rho_plus_matrix(*label, N_ORACLE)
        return cache[label]

    for x in rng_labels:
        for y in rng_labels:
            direct = rho(x) @ rho(y)
            table = np.zeros_like(direct)
            for label, coeff in swn_structure_constants(*x, *y).items():
                table += coeff * rho(label)
            win = np.s_[:, : N_ORACLE - MARGIN]
            scale = max(1.0, np.max(np.abs(direct[win])))
            assert np.max(np.abs((direct - table)[win])) <= 1e-8 * scale


# ----------------------------------------------------------- basis products


def test_ann_cre_gives_delta_dt():
    for m in range(3):
        for n in range(3):
            got = swn_mul(
                SymbolicDifferential.basis(SwnLabel.ann(m)),
                SymbolicDifferential.basis(SwnLabel.cre(n)),
            )
            if m == n:
                assert got == SymbolicDifferential.basis(SwnLabel.time())
            else:
                assert got.is_zero()


def test_cons_cre_shifts_mode_with_theta_weight():
    for alpha, beta, gamma in itertools.product(range(3), repeat=3):
        for n in range(3):
            got = swn_mul(
                SymbolicDifferential.basis(SwnLabel.cons(alpha, beta, gamma)),
                SymbolicDifferential.basis(SwnLabel.cre(n)),
            )
            weight = theta(alpha, beta, gamma, n)
            if weight == 0.0:
                assert got.is_zero()
            else:
                want = SymbolicDifferential.basis(
                    SwnLabel.cre(alpha + n - gamma), weight
                )
                assert got == want


def test_ann_cons_lowers_mode_with_theta_weight():
    for a, b, c in itertools.product(range(3), repeat=3):
        for m in range(3):
            got = swn_mul(
                SymbolicDifferential.basis(SwnLabel.ann(m)),
                SymbolicDifferential.basis(SwnLabel.cons(a, b, c)),
            )
            weight = theta(c, b, a, m)
            if weight == 0.0:
                assert got.is_zero()
            else:
                assert got == SymbolicDifferential.basis(SwnLabel.ann(c + m - a), weight)


def test_cre_annihilates_from_left_and_time_from_both_sides():
    labels = [SwnLabel.time(), SwnLabel.ann(0), SwnLabel.cre(1), SwnLabel.cons(1, 0, 1)]
    for lab in labels:
        d = SymbolicDifferential.basis(lab)
        assert swn_mul(SymbolicDifferential.basis(SwnLabel.cre(0)), d).is_zero()
        assert swn_mul(SymbolicDifferential.basis(SwnLabel.time()), d).is_zero()
        assert swn_mul(d, SymbolicDifferential.basis(SwnLabel.time())).is_zero()


def test_ito_bracket_of_sl2_differentials_is_dm():
    bracket = swn_mul(d_bminus(), d_bplus()) - swn_mul(d_bplus(), d_bminus())
    assert bracket == d_m()


# -------------------------------------------------------------- *-algebra


def _basis_labels(max_idx):
    labels = [SwnLabel.time()]
    labels += [SwnLabel.ann(m) for m in range(max_idx + 1)]
    labels += [SwnLabel.cre(m) for m in range(max_idx + 1)]
    labels += [
        SwnLabel.cons(n, k, l)
        for n, k, l in itertools.product(range(max_idx + 1), repeat=3)
    ]
    return labels


def test_adjoint_antihomomorphism_on_pairs_up_to_2():
    labels = _basis_labels(2)
    for la, lb in itertools.product(labels, repeat=2):
        a = SymbolicDifferential.basis(la, 0.3 + 0.7j)
        b = SymbolicDifferential.basis(lb, -1.1 + 0.2j)
        lhs = swn_mul(a, b).adjoint()
        rhs = swn_mul(b.adjoint(), a.adjoint())
        assert lhs.max_coeff_diff(rhs) <= 1e-12 * _scale(lhs, rhs)


def test_associativity_on_triples_up_to_1():
    labels = _basis_labels(1)
    for la, lb, lc in itertools.product(labels, repeat=3):
        a = SymbolicDifferential.basis(la)
        b = SymbolicDifferential.basis(lb)
        c = SymbolicDifferential.basis(lc)
        lhs = swn_mul(swn_mul(a, b), c)
        rhs = swn_mul(a, swn_mul(b, c))
        assert lhs.max_coeff_diff(rhs) <= 1e-12 * _scale(lhs, rhs)


def _scale(*diffs):
    mags = [abs(c) for d in diffs for c in d.terms.values()]
    return max(1.0, max(mags, default=0.0))


# every label kind, modes <= 2 and conservation indices <= 2
SMALL_LABELS = [SwnLabel.time(), *map(SwnLabel.ann, range(3)), *map(SwnLabel.cre, range(3)),
                *(SwnLabel.cons(*nkl) for nkl in itertools.product(range(3), repeat=3))]


def test_swn_basis_product_is_empty_exactly_where_the_table_vanishes():
    # nonzero read off the number-space representation: dL(x) dA+_n acts as
    # rho+(x) on e_n, dA_m dL(y) as the mirror rho+(y*) on e_m, and
    # dL(x) dL(y) as rho+(x) rho+(y) on the columns no truncation cuts
    n_rep, margin = 16, 4
    image = {x.idx: rho_plus_matrix(*x.idx, n_rep) for x in SMALL_LABELS if x.kind == "cons"}
    for la, lb in itertools.product(SMALL_LABELS, repeat=2):
        kinds = la.kind, lb.kind
        if kinds == ("ann", "cre"):
            nonzero = la.idx == lb.idx
        elif kinds == ("cons", "cre"):
            nonzero = np.any(image[la.idx][:, lb.idx[0]])
        elif kinds == ("ann", "cons"):
            nonzero = np.any(image[lb.adjoint().idx][:, la.idx[0]])
        elif kinds == ("cons", "cons"):
            nonzero = np.any((image[la.idx] @ image[lb.idx])[:, :n_rep - margin])
        else:
            nonzero = False
        pairs = swn_basis_product(la, lb)
        assert isinstance(pairs, tuple) and (pairs != ()) == nonzero, (la, lb)
        assert len({label for label, _ in pairs}) == len(pairs)
        assert all(isinstance(w, (int, float)) and w != 0 for _, w in pairs), (la, lb)
