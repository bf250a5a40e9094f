"""sl(2) ladder representation and the combinatorics behind the SWN table.

The number-space representation acts on the basis e_0, e_1, ... of l2(N) by

    rho+(Bplus^n M^k Bminus^l) e_m = theta(n, k, l, m) e_{n+m-l}

with weight

    theta(n,k,l,m) = H(n+m-l) * sqrt((m-l+n+1)/(m+1)) * 2^k
                     * rising(m-l+1, n) * falling(m+1, l) * (m-l+1)^k

(H the Heaviside step, H(x)=1 for x>=0).  Everything except the square
root is exact integer arithmetic; the square root is evaluated once per
weight, in double precision.

The conservation-differential products close with integer structure
constants built from binomials, signed Stirling numbers of the first kind
and factorial powers; ``swn_structure_constants`` returns them exactly.
The sign convention of the Stirling numbers was frozen after checking
both candidates against the representation-composition oracle
(``composition_mismatch``: matrix products of rho+ images); the signed
convention is the one that reproduces compositions, see
tests/test_swn_table.py.  The oracle takes a batch of label pairs, builds
each label's image once per call, and rejects a window with no column.
"""

from __future__ import annotations

import math
from functools import lru_cache

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


def rising(x, n):
    """x(x+1)...(x+n-1), 1 for n = 0."""
    out = 1
    for j in range(n):
        out *= x + j
    return out


def factorial_powers(x, n):
    """Pair (falling, rising) factorial powers of x of order n."""
    if n < 0:
        raise ValueError("factorial power order must be a natural number")
    return falling(x, n), rising(x, n)


def theta(n, k, l, m):
    """Representation weight theta_{n,k,l,m}; 0 outside the Heaviside support."""
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
    if n + m - l < 0:
        return 0
    return (2**k) * rising(m - l + 1, n) * falling(m + 1, l) * (m - l + 1) ** k


def rho_plus_int_entries(n, k, l, N):
    """Sparse {(row, col): integer part} of the N-truncated rho+ image."""
    out = {}
    for m in range(N):
        row = n + m - l
        if 0 <= row < N:
            val = theta_int(n, k, l, m)
            if val:
                out[(row, m)] = val
    return out


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

    ``stirling`` is injectable so the sign-convention check can evaluate
    the rejected unsigned candidate.
    """
    out = {}
    for lam in range(gamma + 1):
        for rho in range(gamma - lam + 1):
            for sig in range(gamma - lam - rho + 1):
                s_factor = stirling(gamma - lam - rho, sig)
                if s_factor == 0:
                    continue
                base = (
                    math.comb(gamma, lam)
                    * math.comb(gamma - lam, rho)
                    * s_factor
                    * falling(a, gamma - lam)
                    * falling(a + lam - 1, rho)
                )
                if base == 0:
                    continue
                for omg in range(beta + 1):
                    mid = (
                        base
                        * math.comb(beta, omg)
                        * 2 ** (beta - omg)
                        * (a - gamma + lam) ** (beta - omg)
                    )
                    if mid == 0:
                        continue
                    for eps in range(b + 1):
                        coeff = (
                            mid
                            * math.comb(b, eps)
                            * 2 ** (b - eps)
                            * lam ** (b - eps)
                        )
                        if coeff == 0:
                            continue
                        label = (a + alpha - gamma + lam, omg + sig + eps, lam + c)
                        out[label] = out.get(label, 0) + coeff
    return {label: coeff for label, coeff in out.items() if coeff != 0}


def composition_mismatch(pairs, N, margin, stirling=stirling1):
    """Composition oracle for the table entries dL_x dL_y, one sweep over
    the label ``pairs`` (an iterable of (x, y)): the largest |difference|
    between rho+(x) rho+(y) and sum coeff rho+(label) over the table's
    output, as exact integer parts (``theta_int``) of the N-truncations on
    the columns col <= N - 1 - margin, which the truncation does not cut
    when ``margin`` is at least a pair's total raising index.  0 when every
    entry reproduces its composition; ``stirling`` is passed to
    ``swn_structure_constants``.  Each label's image is built once per call.
    Raises ValueError when the window is empty (margin outside [0, N)) or
    no pair is given, where the oracle would compare nothing.
    """
    if not 0 <= margin < N:
        raise ValueError(f"margin must lie in [0, N) = [0, {N}), got {margin}")
    n_cols = N - margin
    images = {}

    def image(label):
        # a rho+ image has at most one entry per column, at row = col + n - l,
        # so it is kept as its values by column (0 where it has none)
        if label not in images:
            values = [0] * N
            for (_, col), val in rho_plus_int_entries(*label, N).items():
                values[col] = val
            images[label] = values
        return images[label]

    worst = 0
    n_pairs = 0
    for n_pairs, (x, y) in enumerate(pairs, 1):
        left, right = image(x), image(y)
        # a nonzero entry of rho+(y) in column col sits in row col + y0 - y2,
        # which is inside [0, N)
        raise_y = y[0] - y[2]
        direct = [left[col + raise_y] * val if val else 0
                  for col, val in enumerate(right[:n_cols])]
        # an entry at (row, col) is grouped by row - col = n - l; every output
        # label keeps the pair's n - l, so there is one group unless the
        # table is wrong, and no entry is then compared at a foreign row
        groups = {x[0] - x[2] + raise_y: (direct, [])}
        for label, coeff in swn_structure_constants(*x, *y, stirling=stirling).items():
            groups.setdefault(label[0] - label[2], ([0] * n_cols, []))[1].append(
                (coeff, image(label)))
        for diffs, terms in groups.values():
            for coeff, img in terms:
                diffs = [diff - coeff * val for diff, val in zip(diffs, img)]
            worst = max(worst, *map(abs, diffs))
    if not n_pairs:
        raise ValueError("composition_mismatch needs at least one label pair")
    return worst
