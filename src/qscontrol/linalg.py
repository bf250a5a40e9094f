"""Small dense-matrix helpers used throughout the package.

Everything works on complex numpy arrays.  Predicates take an explicit
tolerance so that callers can enforce the tolerance their contract states.
``require_hermitian`` and ``require_psd`` are the package's one admission
rule for input matrices, and ``require_budget`` its one size check before
an allocation.  ``_affine_sweep`` is the package's one driver of an
affine step recursion: every stepped recursion of ``rf`` and ``classical``
runs on it.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ResourceLimitError, ShapeError

# entries in any one array whose size a run's config sets: an RK4 state
# stack, a Riccati solution, held gains and step maps, path noise,
# surrogate increments, an rf store, a sweep store or block; each is
# admitted where it is allocated
STACK_BUDGET = 1 << 24


def as_matrix(value, dim=None, name="matrix"):
    """Coerce to a square complex array, checking the dimension if given."""
    mat = np.atleast_2d(np.asarray(value, dtype=complex))
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {mat.shape}")
    if dim is not None and mat.shape[0] != dim:
        raise ShapeError(f"{name} has dimension {mat.shape[0]}, expected {dim}")
    return mat


def herm(mat):
    """Hermitian part (M + M*)/2."""
    return 0.5 * (mat + mat.conj().T)


def fro(mat):
    return float(np.linalg.norm(mat, "fro"))


def is_unitary(mat, tol=1e-10):
    eye = np.eye(mat.shape[0])
    return bool(
        np.max(np.abs(mat @ mat.conj().T - eye)) <= tol
        and np.max(np.abs(mat.conj().T @ mat - eye)) <= tol
    )


def require_hermitian(mat, name, tol):
    """Admit ``mat`` as Hermitian: no entry of M - M* above ``tol`` (a NaN
    entry fails), else ShapeError naming it.  With ``require_psd`` this is
    the one admission rule for input matrices."""
    defect = float(np.max(np.abs(mat - mat.conj().T)))
    if not defect <= tol:
        raise ShapeError(f"{name} must be Hermitian (largest |M - M*| entry {defect:.6g})")


def require_psd(mat, name, tol):
    """Admit ``mat`` as Hermitian PSD within ``tol``; returns the smallest
    eigenvalue of its Hermitian part, which must be at least -``tol``."""
    require_hermitian(mat, name, tol)
    low = float(np.linalg.eigvalsh(herm(mat))[0])
    if low < -tol:
        raise ShapeError(f"{name} must be PSD (minimum eigenvalue {low:.6g})")
    return low


def require_budget(required, budget, what):
    """Raise ResourceLimitError before anything is allocated when ``what``
    needs more than ``budget`` entries.  ``required`` may be a float
    (a step ratio checked before it is rounded, possibly infinite) or an int
    beyond the float range: the error carries it capped at the largest
    float, so a report's value stays finite."""
    if required > budget:
        shown = min(required, sys.float_info.max)
        raise ResourceLimitError(f"{what} needs {shown:.6g} entries, budget {budget}",
                                 required=shown, budget=budget)


def psd_sqrt(mat, tol=1e-10):
    """Principal square root of a PSD matrix (eigenvalues clipped at 0)."""
    require_psd(mat, "psd_sqrt input", tol)
    vals, vecs = np.linalg.eigh(herm(mat))
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def commutator(a, b):
    return a @ b - b @ a


def parse_law(law, dim):
    """(scale, offset) of a feedback law, applied as scale * optimal + offset:
    None is the optimal law, ("scale", c) c times it, ("offset", M) it plus
    M, a dim x dim matrix.  A law without an offset returns the scalar 0.0."""
    kind, val = law if law is not None else ("scale", 1.0)
    if kind not in ("scale", "offset"):
        raise ShapeError(f"unknown perturbation kind {kind!r}")
    if kind == "offset" and np.shape(val) != (dim, dim):
        raise ShapeError(f"offset must be a {dim}x{dim} matrix")
    if kind == "scale":
        return float(val), 0.0
    return 1.0, np.asarray(val)


# Pade coefficients b_0..b_m of exp and the 1-norm up to which degree m
# is accurate to double precision (Higham 2005, Table 2.3 and (2.11))
_PADE = (
    (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0,
                            56.0, 1.0)),
    (2.097847961257068e0, (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0,
                           30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
    (5.371920351148152e0, (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
                           1187353796428800.0, 129060195264000.0, 10559470521600.0,
                           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
                           960960.0, 16380.0, 182.0, 1.0)),
)


def _pade_exp(mats, coeffs):
    """The Pade approximant (V - U)^-1 (V + U) of exp with coefficients
    b_0..b_m: U = A sum b_odd A^(2j), V = sum b_even A^(2j)."""
    powers = [np.eye(mats.shape[-1], dtype=mats.dtype), mats @ mats]
    while len(powers) < len(coeffs) // 2:
        powers.append(powers[-1] @ powers[1])
    odd = mats @ sum(c * p for c, p in zip(coeffs[1::2], powers))
    even = sum(c * p for c, p in zip(coeffs[::2], powers))
    return np.linalg.solve(even - odd, even + odd)


def expm_stack(mats):
    """exp of every matrix in a stack (..., m, m), by Pade scaling and
    squaring (Higham 2005, SIAM J. Matrix Anal. Appl. 26:1179).

    Each matrix gets the degree (3, 5, 7, 9 or 13) and the scaling 2^-s
    its own 1-norm asks for, so its exponential does not depend on the
    rest of the stack; the matrices of one degree go through one batched
    evaluation, and each squaring is one batched product over the matrices
    that still need it.  A matrix with a non-finite entry returns NaN.
    ``scipy.linalg.expm`` instead loops in Python over the stack for m > 1.
    """
    mats = np.asarray(mats)
    size = mats.shape[-1]
    flat = mats.reshape(-1, size, size)
    norms = np.max(np.sum(np.abs(flat), axis=-2), axis=-1)
    thetas = np.array([theta for theta, _ in _PADE])
    finite = np.isfinite(norms)
    degrees = np.minimum(np.searchsorted(thetas, norms), len(thetas) - 1)
    scaled = finite & (norms > thetas[-1])
    squarings = np.zeros(len(flat), dtype=int)
    squarings[scaled] = np.ceil(np.log2(norms[scaled] / thetas[-1]))
    result = np.full(flat.shape, np.nan, dtype=np.result_type(flat, 1.0))
    for degree, (_, coeffs) in enumerate(_PADE):
        chosen = finite & (degrees == degree)
        if chosen.any():
            result[chosen] = _pade_exp(flat[chosen] / 2.0 ** squarings[chosen, None, None], coeffs)
    for done in range(int(np.max(squarings, initial=0))):
        chosen = squarings > done
        result[chosen] = result[chosen] @ result[chosen]
    return result.reshape(mats.shape)


def rk4_increment(deriv, t0, h, y):
    """One classical RK4 increment y(t0 + h) - y(t0) of y' = deriv(t, y).

    The one definition of the RK4 step: ``rk4`` adds it to the state, and
    ``rk4_linear`` applies it to a basis stack to get the step map.  The
    Riccati equations do not use it: ``classical`` solves them by their
    exact flow map.
    """
    k1 = deriv(t0, y)
    k2 = deriv(t0 + 0.5 * h, y + 0.5 * h * k1)
    k3 = deriv(t0 + 0.5 * h, y + 0.5 * h * k2)
    k4 = deriv(t0 + h, y + h * k3)
    return (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4(deriv, y0, grid):
    """Classical RK4 for y' = deriv(t, y) along ``grid`` (which may decrease):
    ``rk4_linear``'s state-by-state fallback.

    Returns the states at every grid point, shape (len(grid), *y0.shape),
    in y0's dtype: ``deriv`` must not promote it.
    """
    y = np.asarray(y0)
    states = np.empty((len(grid), *y.shape), dtype=y.dtype)
    states[0] = y
    for k, (t0, t1) in enumerate(zip(grid, grid[1:]), start=1):
        y = y + rk4_increment(deriv, t0, t1 - t0, y)
        states[k] = y
    return states


def rk4_linear(apply, y0, edges, dt):
    """Classical RK4 for the linear ODE y' = apply(t, y) on the segments
    between consecutive increasing ``edges``, each in equal steps of at
    most ``dt``; returns (grid, states).

    This is the package's one fixed-step grid rule.  A segment of length h
    takes ceil(h / dt - 1e-12 max(1, h / dt)) steps, at least 1: the slack
    keeps the whole count of a ratio that division left just above it, and
    it grows with the ratio above 1, so it stays at least 4500 ulps of it
    at every size (an absolute 1e-12 fell below one ulp above 8192).  The
    state stack is admitted against ``STACK_BUDGET`` from the float ratios
    h / dt, which may be infinite, before any of them is rounded: each
    rounds up by less than one step.
    The grid is a + (b - a) j / steps on each segment (a, b), and on each
    the generator is constant: ``apply(t, y)`` is evaluated at the
    segment's midpoint only, so a generator that switches at an edge keeps
    the fourth order.  It maps a state, or a stack of states along a
    leading axis.  One ``rk4_increment`` of it on the basis stack is the
    segment's increment map E = S - 1 of the RK4 step map S.
    States are propagated in blocks of b steps as y + E_j y with the
    increments of the powers, E_j = S^j - 1 = E + E_{j-1} + E E_{j-1},
    which keep the small part that forming S^j itself would round away.
    Building the b powers takes b - 1 products of n x n matrices
    (n = y0.size), about b n^3 flops, no more than the steps n^2 flops of
    stepping one state at a time while b <= steps / n; b <= sqrt(steps)
    balances the b calls that build the powers against the steps / b
    calls that use them.

    The map is used only where it costs no more than stepping: forming it
    applies the generator to n basis states against 4 states per step, so
    n <= steps; and each of its steps is one n x n product against 4
    generator applications of about 4 products with the state's trailing
    dimension m each (the package's generators are a few such products),
    so n <= 16 m.  Any other segment steps state by state (``rk4``, with
    the same midpoint generator).

    The states are the start and the state after every step, shape
    (len(grid), *y0.shape), in y0's dtype: ``apply`` must not promote it.
    """
    y = np.asarray(y0)
    size = y.size
    trailing = y.shape[-1] if y.ndim else 1
    spans = list(zip(edges, edges[1:]))
    ratios = [(t1 - t0) / dt for t0, t1 in spans]
    require_budget((sum(ratios) + len(ratios) + 1) * size, STACK_BUDGET, "RK4 state stack")
    counts = [max(1, math.ceil(ratio - 1e-12 * max(1.0, ratio))) for ratio in ratios]
    grid = np.concatenate([np.asarray(edges[:1], dtype=float)] + [
        t0 + (t1 - t0) * np.arange(1, steps + 1) / steps for (t0, t1), steps in zip(spans, counts)])
    states = np.empty((len(grid), size), dtype=y.dtype)
    states[0] = y.reshape(size)
    k = 0
    for (t0, t1), steps in zip(spans, counts):
        mid = 0.5 * (t0 + t1)

        def frozen(_t, state, mid=mid):
            return apply(mid, state)

        if size > min(steps, 16 * trailing):
            run = rk4(frozen, states[k].reshape(y.shape), np.linspace(t0, t1, steps + 1))
            states[k + 1 : k + 1 + steps] = run[1:].reshape(steps, size)
            k += steps
            continue
        basis = np.eye(size, dtype=y.dtype).reshape(size, *y.shape)
        inc = rk4_increment(frozen, t0, (t1 - t0) / steps, basis).reshape(size, size).T
        block = max(1, min(math.isqrt(steps), steps // size))
        powers = np.empty((block, size, size), dtype=y.dtype)
        powers[0] = inc
        for j in range(1, block):
            powers[j] = inc + powers[j - 1] + inc @ powers[j - 1]
        for start in range(0, steps, block):
            count = min(block, steps - start)
            state = states[k]
            states[k + 1 : k + 1 + count] = state + powers[:count] @ state
            k += count
    return grid, states.reshape(len(grid), *y.shape)


# Largest stacked step, in entries, that the sweeps run in blocks.
# Blocking costs 2.5 (congruence) to 3 (left product) times the flops of
# plain stepping, so it pays only while a step's interpreter overhead is
# most of its time.  Measured on rf's 2x2 sweeps over 1000 steps against
# streamed plain stepping (2-vCPU Xeon, one BLAS thread, medians of 11-15
# interleaved pairs), blocked runs the Picard iteration, the closed loop
# and the r sweep 1.43x, 1.28x and 1.00x as fast as plain at 16 paths,
# 1.19x, 1.11x and 0.65x at 32 (128 entries), 0.96x, 0.93x and 0.59x at
# 40, 0.74x, 0.72x and 0.51x at 64, and 0.69x, 0.70x and 0.50x at 128.
# 128 is the largest size where the Picard iteration and the closed loop,
# most of every rf run, still gain.
_BLOCK_ENTRIES = 128

# Entries of one time block of a stack: plain stepping builds, sweeps and
# drops its step maps one such block at a time, and every other
# full-length pass over a store (reductions, rf's feedback law and cost)
# works through blocks of this size, so their temporaries stay in cache
# and only the stores a function returns are full size.  2^14 entries is
# 256 KB per complex stack: 64 steps at 64 paths of 2x2, 8 at 500.  Over
# 16 rotating rf-dominance passes (64 paths x 1000 steps, same host)
# blocks of 2^12, 2^13, 2^15 and 2^16 entries took 1.16, 1.06, 1.02 and
# 1.09 times as long as 2^14 (median ratios).
_STREAM_ENTRIES = 2**14


def _block_len(shape):
    """Points (or steps) of one time block of a store of ``shape`` (T+1, ...)."""
    return max(1, _STREAM_ENTRIES // math.prod(shape[1:]))


def _time_blocks(store):
    """Consecutive slices of the time axis of ``store``, one block each."""
    size = _block_len(store.shape)
    return [slice(lo, min(lo + size, len(store))) for lo in range(0, len(store), size)]


def _affine_sweep(build, start, shape, act, compose, emit=None, backward=False, keep=True,
                  width=None):
    """Run Y[k+1] = act(A_k, Y[k] + lead_k) + b_k from Y[0] = ``start``;
    returns the store of all points, an array of ``shape`` (T+1, ...) in
    ``start``'s dtype, with Y[k] at index k (index T - k when ``backward``,
    rf's q0 state sweep).

    ``act(A, Y, out=None)`` is linear in Y and broadcasts over leading
    axes: rf's left product A Y and congruence A Y A*, classical's row
    product Y A and congruence A* Y A.  ``compose(A2, A1)`` is the map of
    act(A2, act(A1, .)): A2 A1 for rf's two, A1 A2 for classical's.
    ``build(lo, hi)`` returns (maps, offsets, lead): A_k, b_k and lead_k of
    the steps lo to hi, stacks along a leading step axis in stepping order
    that broadcast against the points, with offsets None for a linear
    recursion and lead None for one without a lead; the blocked scan
    overwrites ``maps``, so they must be fresh.  ``emit(rows, points)``, if
    given, is called with slices of the time axis, in stepping order, that
    cover each point once, and the points there, each as soon as they are
    final: runs of at most ``_block_len`` points, one more where a run
    takes the end point, so every run holds a point a step starts from.

    The time axis runs as chunks of steps: each chunk's maps are built
    (the first chunk's before the points are allocated, so they take
    memory the build's temporaries freed, not fresh pages), swept and
    dropped, and its points emitted.  A sweep that returns its store
    (``keep``) admits it against ``STACK_BUDGET`` before anything is built.
    Without ``keep`` the sweep returns None and holds one chunk of points
    (one time block's entries per recursion) and the point carried into
    it, not a store; it admits the chunk's new points, never more than
    the step maps or stores its caller admitted for the same steps.

    Where one recursion's stack is small (``width``, by default the
    entries of a point, at most ``_BLOCK_ENTRIES``) a chunk is all T steps
    with ``keep`` and ``_STREAM_ENTRIES // width`` steps without, and its
    first nb b steps, b = isqrt(steps), nb = steps // b, run as a
    two-level scan in about 2 sqrt(steps) Python steps instead of one each.
    The nb blocks first step side by side from zero, which leaves each
    block's particular part in the points and, in ``maps`` (overwritten),
    the compositions Phi of its step maps up to each of its points.  One
    loop over the blocks then adds act(Phi, Y_first) to all b points of
    each block in one call, once the block's first point Y_first, the
    previous block's last, is known; a linear recursion has no particular
    part and skips the first pass's steps.  Blocks are cut in stepping
    order.  The trailing steps step one at a time.  A caller that stacks
    independent recursions side by side passes one recursion's entries as
    ``width``, so that each runs the same arithmetic however many run with
    it.

    Larger stacks step one at a time through chunks of ``_block_len``
    steps, each swept and emitted while it is in cache.
    """
    steps = shape[0] - 1
    point = math.prod(shape[1:])
    recursion = point if width is None else width
    blocked = recursion <= _BLOCK_ENTRIES
    per = _block_len(shape)
    if keep:
        span = steps if blocked else min(steps, per)
        require_budget(math.prod(shape), STACK_BUDGET, "sweep store")
    else:
        span = min(steps, _block_len((0, recursion)) if blocked else per)
        require_budget(span * point, STACK_BUDGET, "sweep block")
    chunk = build(0, span)
    out = np.empty(shape if keep else (span + 1, *shape[1:]), dtype=np.asarray(start).dtype)
    y_k = out[::-1] if backward else out
    y_k[0] = start

    def step(a_k, y_now, lead_k, b_k, y_next):
        act(a_k, y_now if lead_k is None else y_now + lead_k, out=y_next)
        if b_k is not None:
            y_next += b_k

    def run(points, maps, offsets, lead):  # plain steps from points[0] on
        leads = [None] * len(maps) if lead is None else lead
        b_ks = [None] * len(maps) if offsets is None else offsets
        for a_k, lead_k, b_k, y_now, y_next in zip(maps, leads, b_ks, points, points[1:]):
            step(a_k, y_now, lead_k, b_k, y_next)

    def scan(points, maps, offsets, lead):  # the blocked scan, then the trailing steps
        size = math.isqrt(len(maps))
        n_blocks = len(maps) // size
        whole = n_blocks * size

        def blocks(arr):  # the first nb b rows as (nb, b, ...) views
            return arr[:whole].reshape(n_blocks, size, *arr.shape[1:])

        phi, parts = blocks(maps), blocks(points[1:])
        linear = offsets is None and lead is None
        if linear:
            for j in range(1, size):
                phi[:, j] = compose(phi[:, j], phi[:, j - 1])
        else:
            b_j = [None] * size if offsets is None else blocks(offsets).swapaxes(0, 1)
            lead_j = [None] * size if lead is None else blocks(lead).swapaxes(0, 1)
            previous = np.zeros_like(parts[:, 0])
            for j in range(size):
                step(phi[:, j], previous, lead_j[j], b_j[j], parts[:, j])
                if j:
                    phi[:, j] = compose(phi[:, j], phi[:, j - 1])
                previous = parts[:, j]
        for first, block_phi, block in zip(points[:whole:size], phi, parts):
            if linear:
                act(block_phi, first, out=block)
            else:
                block += act(block_phi, first)
        run(points[whole:], *(None if arr is None else arr[whole:] for arr in (maps, offsets, lead)))

    for lo in range(0, steps, span):
        hi = min(lo + span, steps)
        if lo:
            chunk = build(lo, hi)
            if not keep:
                out[0] = out[-1]  # the previous chunk's last point
        (scan if blocked else run)(y_k[lo:hi + 1] if keep else out[:hi - lo + 1], *chunk)
        chunk = None  # the step maps are freed before the caller's reductions
        if emit is None:
            continue
        for first in range(lo, hi, per):  # points lo to hi, the end point in the last run
            last = hi + (hi == steps) if first + per >= hi else first + per
            if not keep:
                emit(slice(first, last), out[first - lo:last - lo])
            else:
                rows = slice(steps + 1 - last, steps + 1 - first) if backward else slice(first, last)
                emit(rows, out[rows])
    return out if keep else None
