"""sl(2) ladder representation and the combinatorics behind the SWN table.

The number-space representation acts on the basis e_0, e_1, ... of l2(N) by

    rho+(Bplus^n M^k Bminus^l) e_m = theta(n, k, l, m) e_{n+m-l}

with weight

    theta(n,k,l,m) = H(m-l) * sqrt((m-l+n+1)/(m+1))
                     * (2r)^k * perm(r+n-1, n) * perm(m+1, l),   r = m-l+1

(H the Heaviside step, H(x)=1 for x>=0; perm(x, j) = x!/(x-j)! is the
falling factorial ``falling(x, j)``, and perm(r+n-1, n) the rising one
r(r+1)...(r+n-1)).  For m < l the weight vanishes: e_m has no l-th
lowering.  Everything except the square root is exact integer
arithmetic; the square root is evaluated once per weight, in double
precision.

The conservation-differential products close with integer structure
constants built from binomials, signed Stirling numbers of the first kind
and factorial powers; ``swn_structure_constants`` returns them exactly.
The sign convention of the Stirling numbers was frozen after checking
both candidates against the representation-composition oracle
(``composition_mismatch``: matrix products of rho+ images); the signed
convention is the one that reproduces compositions, see
tests/test_swn_table.py.  The oracle takes a batch of label pairs, builds
each label's image once per call, and rejects a window with no column.
It compares packed integers, not columns: each image's integer parts on the
window columns are packed into one Python int, W bits per column, so one
table term is one big-integer multiply-add.  W is derived from the
magnitudes in the call (largest entries of the images, sum of |coeff| of
each table) so that every column of a difference lies strictly inside
(-2^(W-1), 2^(W-1)); signed base-2^W digits are unique there, so a zero
packed difference means every window column matches, and only a nonzero
one is unpacked, for its exact largest |column|.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import repeat

import numpy as np


@lru_cache(maxsize=None)
def stirling1(n, k):
    """Signed Stirling number of the first kind s(n, k).

    Defined by falling(x, n) = sum_k s(n, k) x^k, equivalently by the
    recurrence s(n+1, k) = s(n, k-1) - n*s(n, k) with s(0, 0) = 1.
    Out-of-range k (k < 0 or k > n) gives 0.
    """
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1
    return stirling1(n - 1, k - 1) - (n - 1) * stirling1(n - 1, k)


@lru_cache(maxsize=None)
def stirling1_unsigned(n, k):
    """|s(n, k)|; the rejected candidate for the table (kept for tests)."""
    return abs(stirling1(n, k))


def falling(x, n):
    """x(x-1)...(x-n+1), 1 for n = 0.  Exact for integer x."""
    out = 1
    for j in range(n):
        out *= x - j
    return out


def theta(n, k, l, m):
    """Representation weight theta_{n,k,l,m}; 0 for m < l."""
    if min(n, k, l, m) < 0:
        raise ValueError("theta indices must be naturals")
    integer_part = theta_int(n, k, l, m)
    if integer_part == 0:
        return 0.0
    return float(integer_part) * math.sqrt((m - l + n + 1) / (m + 1))


def theta_int(n, k, l, m):
    """Exact integer factor of theta: theta = theta_int * sqrt((n+m-l+1)/(m+1)).

    Splitting off the square root makes representation-composition checks
    exact: the entry of any rho+ image (or product of images) at position
    (row, col) carries the common factor sqrt((row+1)/(col+1)), so two such
    matrices are equal iff their integer parts agree.
    """
    if m < l:
        return 0
    r = m - l + 1
    return (2 * r) ** k * falling(r + n - 1, n) * falling(m + 1, l)


def rho_plus_int_entries(n, k, l, N):
    """Sparse {(row, col): integer part} of the N-truncated rho+ image, by
    ascending column: ``theta_int`` at each column m >= l (where it is
    nonzero) whose row n + m - l lies below N."""
    if min(n, k, l) < 0:
        raise ValueError(f"rho+ needs natural indices, got {(n, k, l)}")
    return {(n + m - l, m): theta_int(n, k, l, m) for m in range(l, min(N, N + l - n))}


def rho_plus_matrix(n, k, l, N):
    """N x N truncation of rho+(Bplus^n M^k Bminus^l) on e_0..e_{N-1}: the
    integer parts of ``rho_plus_int_entries`` times sqrt((row+1)/(col+1)),
    as ``theta`` evaluates them."""
    if min(n, k, l) < 0 or N < 1:
        raise ValueError(f"rho+ needs natural indices and N >= 1, got {(n, k, l)}, N = {N}")
    mat = np.zeros((N, N))
    for (row, col), val in rho_plus_int_entries(n, k, l, N).items():
        mat[row, col] = val * math.sqrt((row + 1) / (col + 1))
    return mat


def swn_structure_constants(alpha, beta, gamma, a, b, c, stirling=stirling1):
    """Exact structure constants of dL_{alpha,beta,gamma} * dL_{a,b,c}.

    Returns a dict mapping output labels (n', k', l') to integer
    coefficients:

        dL_{alpha,beta,gamma} dL_{a,b,c}
            = sum  coeff * dL_{a+alpha-gamma+lam, omg+sig+eps, lam+c}

    where the five-fold sum runs over lam <= gamma, rho <= gamma-lam,
    sig <= gamma-lam-rho, omg <= beta, eps <= b and

        coeff = C(gamma,lam) C(gamma-lam,rho) C(beta,omg) C(b,eps)
                * 2^(beta+b-omg-eps) * S(gamma-lam-rho, sig)
                * falling(a, gamma-lam) * falling(a+lam-1, rho)
                * (a-gamma+lam)^(beta-omg) * lam^(b-eps).

    The (omg, eps) sum depends on lam alone, so it is summed once per lam
    into the tail[j], j = omg + eps: the coefficients of
    (x + 2(a-gamma+lam))^beta (x + 2 lam)^b.  Each (rho, sig) term then
    adds its factor times tail[j] at k' = sig + j.  Labels keep the order
    in which the five-fold loop first reaches them with a nonzero term, and
    labels whose sum cancels are dropped.  ``stirling`` is injectable so
    the sign-convention check can evaluate the rejected unsigned
    candidate.  Raises ValueError on an index that is not a natural number.
    """
    if min(alpha, beta, gamma, a, b, c) < 0:
        raise ValueError("structure constants need natural indices, got "
                         f"{(alpha, beta, gamma)} * {(a, b, c)}")
    out = {}
    for lam in range(gamma + 1):
        top = gamma - lam
        outer = math.comb(gamma, lam) * math.perm(a, top)  # perm(a, top) = falling(a, top)
        if outer == 0:
            continue
        u2, lam2 = 2 * (a - gamma + lam), 2 * lam
        # the (omg, eps) terms vanish for omg < o0 (u = 0) and eps < e0
        # (lam = 0), so each (rho, sig) reaches every j >= j0 = o0 + e0, in
        # increasing order; tail is kept from j0 on
        o0 = beta if u2 == 0 else 0
        e0 = b if lam == 0 else 0
        right = [math.comb(b, eps) * lam2 ** (b - eps) for eps in range(e0, b + 1)]
        tail = [0] * (beta + b + 1 - o0 - e0)
        for omg in range(o0, beta + 1):
            p = math.comb(beta, omg) * u2 ** (beta - omg)
            for j, q in enumerate(right, omg - o0):
                tail[j] += p * q
        ks = {}
        fall_rho = 1  # falling(a + lam - 1, rho)
        for rho in range(top + 1):
            if rho:
                fall_rho *= a + lam - rho
            mid = outer * math.comb(top, rho) * fall_rho
            if mid == 0:
                continue
            for sig in range(top - rho + 1):
                s_factor = stirling(top - rho, sig)
                if s_factor == 0:
                    continue
                base = mid * s_factor
                for k, t in enumerate(tail, sig + o0 + e0):
                    ks[k] = ks.get(k, 0) + base * t
        n_out, l_out = a + alpha - gamma + lam, lam + c
        for k, coeff in ks.items():
            if coeff:
                out[n_out, k, l_out] = coeff
    return out


def composition_mismatch(pairs, N, margin, stirling=stirling1):
    """Composition oracle for the table entries dL_x dL_y, one sweep over
    the label ``pairs`` (an iterable of (x, y)): the largest |difference|
    between rho+(x) rho+(y) and sum coeff rho+(label) over the table's
    output, as exact integer parts (``theta_int``) of the N-truncations on
    the columns col <= N - 1 - margin, which the truncation does not cut
    when ``margin`` is at least a pair's total raising index.  0 when every
    entry reproduces its composition; ``stirling`` is passed to
    ``swn_structure_constants``, once per pair.

    Each label's image is built once per call and its window columns are
    packed into one integer, W bits per column, lowest column lowest
    (Kronecker packing), so that a table term costs one big-integer
    multiply-add, not one per column.  W bounds every column of a pair's
    difference: the product of the largest entries of rho+(x) and rho+(y)
    plus the sum over the table of |coeff| times the largest entry of
    rho+(label), with a sign and a guard bit, in whole 64-bit words; the
    images are packed again whenever a pair needs more words than the
    pairs before it.  Each column then lies strictly inside
    (-2^(W-1), 2^(W-1)), where the signed base-2^W digits of an integer
    are unique: a zero packed difference means every window column
    matches, and a nonzero one is unpacked digit by digit for its exact
    largest |column|.  Nothing is kept between calls.  Raises ValueError
    when the window is empty (margin outside [0, N)) or no pair is given,
    where the oracle would compare nothing, and (through the table) when a
    pair has an index that is not a natural number.
    """
    if not 0 <= margin < N:
        raise ValueError(f"margin must lie in [0, N) = [0, {N}), got {margin}")
    n_cols = N - margin
    images, tops, packed = {}, {}, {}
    width = 0  # bits per packed column, a multiple of 64
    worst = 0
    n_pairs = 0
    for n_pairs, (x, y) in enumerate(pairs, 1):
        # raises on a pair with an index that is not a natural number
        table = swn_structure_constants(*x, *y, stirling=stirling)
        for label in {x, y}.union(table).difference(images):
            # a rho+ image has at most one entry per column, at
            # row = col + n - l, so it is kept as its values by column
            images[label] = values = [0] * N
            for (_, col), val in rho_plus_int_entries(*label, N).items():
                values[col] = val
            tops[label] = max(values)
        bound = tops[x] * tops[y] + sum(map(operator.mul, map(abs, table.values()),
                                            map(tops.__getitem__, table)))
        if bound.bit_length() + 2 > width:
            width = -(-(bound.bit_length() + 2) // 64) * 64
            packed.clear()
        for label in set(table).difference(packed):
            packed[label] = _pack(images[label][:n_cols], width)
        # a nonzero entry of rho+(y) in column col sits in row col + y0 - y2,
        # which is inside [0, N), so rho+(y) has none in the columns below
        # lo and the product none in the columns from N - raise_y on
        raise_y = y[0] - y[2]
        lo = max(0, -raise_y)
        direct = _pack(map(operator.mul, images[x][lo + raise_y:],
                           images[y][lo:n_cols]), width) << (width * lo)
        # an entry at (row, col) is grouped by row - col = n - l; every output
        # label keeps the pair's n - l, so there is one group unless the
        # table is wrong, and no entry is then compared at a foreign row
        own = x[0] - x[2] + raise_y
        diffs = {own: direct}
        for label, coeff in table.items():
            shift = label[0] - label[2]
            diffs[shift] = diffs.get(shift, 0) - coeff * packed[label]
        for diff in diffs.values():
            if diff:
                worst = max(worst, _largest_digit(diff, width))
    if not n_pairs:
        raise ValueError("composition_mismatch needs at least one label pair")
    return worst


def _pack(values, width):
    """The nonnegative ``values`` as base-2^width digits, first digit lowest."""
    return int.from_bytes(b"".join(map(int.to_bytes, values, repeat(width // 8),
                                       repeat("little"))), "little")


def _largest_digit(value, width):
    """Largest |digit| of ``value`` in signed base 2^width (digits in
    [-2^(width-1), 2^(width-1)))."""
    mask, half = (1 << width) - 1, 1 << (width - 1)
    worst = 0
    while value:
        digit = value & mask
        if digit >= half:
            digit -= 1 << width
        worst = max(worst, abs(digit))
        value = (value - digit) >> width
    return worst
