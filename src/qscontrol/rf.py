"""Representation-free feedback control at desk scale.

The abstract machinery (W*-algebra filtrations, rho-commuting integrators)
is realized here by a concrete two-noise Levy pair surrogate:

* ``PlanarBrownian``: dM1 = (dB1 + i dB2)/sqrt(2) with independent real
  Brownian increments, dM2 = conj(dM1) pathwise; Ito table sigma = id.
* ``TruncatedFockVacuum``: increments carried by a fresh two-level mode
  per step (dM1 = sqrt(dt) a+, dM2 = sqrt(dt) a); table sigma =
  [[1, 0], [0, 0]].  Vacuum expectations of the increments vanish, so the
  scalar driving realization is the zero path with the exact table.

Everything downstream is pathwise: states, costs, the stochastic Riccati
equation, its monotone Picard iteration, and the optimality check of the
feedback law u = -R^{-1}(G*(Pi X + r) + eta*).

Directions.  ``direction="q0"`` is the branch whose Riccati equation runs
forward from Pi(0) = Q0 (the branch the Picard iteration is stated for);
its state runs backward from X(T) = C and its cost carries initial-state
terms.  ``direction="qt"`` is the mirror image (Riccati backward from
Pi(T) = QT, state forward from X(0) = C, terminal cost terms); boundary
names are used because the state and the Riccati equation run in
opposite time directions.  A qt problem runs as the q0 problem of its
time reverse (``time_reverse``: s = T - t, the increments reversed, the
Ito table sigma~ = -sigma).  Every kernel is q0-only: it steps the
Riccati-side recursions forward from index 0 and the state backward from
the last index of stores held in the problem's Riccati stepping order,
time order on q0 and reversed on qt, and it reads the increments and the
table through ``_noise``, which takes them from the reversed path on qt.
Only the layout helpers ``_time_major`` and ``_public`` turn the stores'
time axis, so the reversal convention lives in ``time_reverse`` alone, and
the feedback law is built on the same noise as the state it steers.

Layout and kernels.  Every stacked rf array is stored time-major, as a
C-contiguous (T+1, d, d, P) array with the path axis last, so each
step's arithmetic runs along the long, contiguous path axis instead of
over trailing 2x2 axes.  Functions return the view of the store with the
public (P, T+1, d, d) shape and time-order indexing (``_public``); such a
view passed back in is read without a copy, and any other input (a
C-ordered (P, T+1, d, d) array, say) is copied into the store layout once
(``_time_major``).  The surrogate keeps its increments time-major behind
their (P, T) shape.
Every product of stacked small matrices goes through ``_mm``, d broadcast
rank-1 updates accumulated in place along the path axis; the Cayley
factor of the Picard step has a closed-form inverse for d <= 2
(``_cayley``).  Every recursion is affine in its state, so each runs on
the one driver ``_affine_sweep``, Y[k+1] = act(A_k, Y[k] + lead_k) + b_k,
which asks its caller for the step maps of a range of steps at a time,
vectorized over those (step, path) pairs.  For the Euler state and the
r-process, act is the left product A Y; for the Duhamel sweep of the
Picard iteration it is the congruence A Y A*.  The Euler state runs only
as ``closed_loop_state``, which folds the gain -R^{-1} G* Pi, the affine
part and the perturbation of its law into its maps; the open loop is the
law ("scale", 0.0).  Where one step's stack is small (P d^2 <=
``_BLOCK_ENTRIES``, the few-path runs) the driver asks for all steps at
once and runs a two-level blocked scan, about 2 sqrt(T) Python steps
instead of T: blocks of isqrt(T) steps side by side from zero, then one
call per block that adds the propagated first point to all of its
points.  Larger stacks, where a step's arithmetic outweighs its
interpreter overhead, step one at a time through time blocks of
``_STREAM_ENTRIES`` entries: each block's maps are built, swept and
dropped while in cache, and the driver hands each finished block of
points to its caller, which reduces it (the Picard step and margin, the
fixed-point defect) or evaluates the feedback law on it.  The feedback
law and the cost run through the same time blocks, so only the stores a
function returns (Pi, r, x, u) are full size.

Discretization of the Picard step.  The iterate recursion is the discrete
Duhamel form of the propagator representation,

    Pi_{n+1}(t_{j+1}) = M_j [Pi_{n+1}(t_j) + dt/2 Q'_n(t_j)] M_j*
                        + dt/2 Q'_n(t_{j+1}),
    M_j = cay(dt D_j*) (1 + dM1 C1 + dM2 C2)*,
    D_j = F + S - G R^{-1} G* (Pi_n(t_j) + Pi_n(t_{j+1}))/2,
    Q'_n = Q + Pi_n G R^{-1} G* Pi_n,

with cay the Cayley approximant of the exponential and C_a = F_a w.  Every
step is a congruence plus a PSD increment, so the iterates stay PSD
pathwise exactly (positivity is never projected in, per the no-projection
rule).  Hermiticity is not enforced either: each congruence is Hermitian
up to rounding, and ``herm_residual`` measures max |Pi - Pi*| of the
returned iterate.  Quadratic-variation terms enter through the realized
increment products, which converge to the sigma-weighted drift.  In the noise-free
limit the scheme is second order, which is what lets the deterministic
degeneration meet a 1e-6 comparison against the classical Riccati ODE at
dt = 1e-3.

Optimality check.  ``verify_feedback_optimality`` runs an ensemble in
chunks of ``_CHUNK_PATHS`` = 500 paths, so each 2x2 store of 1001 points
is 32 MB; a chunk holds at most four at once (Pi, r and one closed loop's
x and u, or Pi and its successor during the iteration), plus block-sized
temporaries.  It pools the paired cost differences of all chunks.
Picard stops on the chunk's sup-norm, so the chunk size shapes the report
and is fixed, not an option.  The cross term K of the completion of
squares is the polarization of the cost (``_cost_form``) between the
optimal closed loop and a perturbed one's deviation from it, read straight
off the (state, control) stores the closed loops return: the optimal pair
and the difference pair (X_pert - X_opt, U_pert - U_opt).  The cost form
takes such store pairs and forms each time block's xi-columns itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import NotConvergedError, ShapeError
from .linalg import STACK_BUDGET, as_matrix, parse_law, require_budget, require_psd
from .seeding import spawn_rngs, standard_error

# --------------------------------------------------------------- surrogate

PLANAR_BROWNIAN = "planar-brownian"
FOCK_VACUUM = "truncated-fock-vacuum"


@dataclass
class LevyPairSurrogate:
    """Discretized realization of an adjoint pair of scalar integrators.

    ``dm1`` has shape (n_paths, n_steps); ``dm2`` is derived from it as
    conj(dm1), so the pair is adjoint pathwise by construction.  ``sigma``
    is the 2x2 Ito table dM_b* dM_a = sigma[b,a] dt; only Boson-type pairs
    (rho = id) are realized.  For the Fock kind the
    scalar driving increments are the vacuum expectations (zero); the
    operator increments behind the table are exposed by
    ``fock_increment_matrices``.
    """

    kind: str
    dt: float
    dm1: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        # stored time-major behind the (n_paths, n_steps) shape, so the rf
        # kernels read each step's increments along the contiguous path axis
        self.dm1 = np.ascontiguousarray(np.atleast_2d(np.asarray(self.dm1, dtype=complex)).T).T
        if self.n_steps < 1:
            raise ShapeError("path must carry at least one step")
        if self.n_paths < 1:
            raise ShapeError("ensemble must carry at least one path")
        self.sigma = np.asarray(self.sigma, dtype=complex).reshape(2, 2)

    @property
    def dm2(self):
        return self.dm1.conj()

    @property
    def n_paths(self):
        return self.dm1.shape[0]

    @property
    def n_steps(self):
        return self.dm1.shape[1]

    def fock_increment_matrices(self):
        if self.kind != FOCK_VACUUM:
            raise ShapeError("operator increments exist only for the Fock kind")
        a_op = np.array([[0.0, 1.0], [0.0, 0.0]])
        root = math.sqrt(self.dt)
        return root * a_op.T, root * a_op  # (dM1, dM2) = sqrt(dt) (a+, a)

    def pick(self, indices):
        """Sub-ensemble with the given path indices."""
        idx = np.atleast_1d(indices)
        if idx.size == 0:  # [] and range(0) come out float; let them reach ShapeError
            idx = idx.astype(np.intp)
        return replace(self, dm1=self.dm1[idx])


def sigma_positivity(sigma, f_value):
    """Definition-8 quadratic form (conj(f), conj(f)) sigma (f, f)^t."""
    f_value = complex(f_value)
    row = np.array([f_value.conjugate(), f_value.conjugate()])
    col = np.array([f_value, f_value])
    return complex(row @ np.asarray(sigma) @ col)


def build_levy_surrogate(kind, n_steps, dt, seed, n_paths=1):
    """Construct a surrogate ensemble; per-path seeds follow the shared
    splitting rule (``qscontrol.seeding``).  Its n_steps x n_paths
    increments are admitted before any stream is spawned."""
    if n_steps < 1:
        raise ShapeError("n_steps must be >= 1")
    if dt <= 0:
        raise ShapeError("dt must be positive")
    require_budget(n_steps * n_paths, STACK_BUDGET, "surrogate increments")
    # (n_paths, n_steps) views of time-major arrays, which the surrogate
    # keeps without a copy
    if kind == PLANAR_BROWNIAN:
        dm1 = np.empty((n_steps, n_paths), dtype=complex).T
        for idx, rng in enumerate(spawn_rngs(seed, n_paths)):
            db = rng.normal(size=(2, n_steps)) * math.sqrt(dt)
            dm1[idx] = (db[0] + 1j * db[1]) / math.sqrt(2.0)
        sigma = np.eye(2, dtype=complex)
        return LevyPairSurrogate(kind, dt, dm1, sigma)
    if kind == FOCK_VACUUM:
        zeros = np.zeros((n_steps, n_paths), dtype=complex).T
        sigma = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        return LevyPairSurrogate(kind, dt, zeros, sigma)
    raise ShapeError(f"unknown surrogate kind {kind!r}")


def verify_fock_vacuum_table(surrogate):
    """Exact vacuum Ito table of the operator increments: sigma[b,a] =
    <vac, dM_b* dM_a vac>/dt."""
    m1, m2 = surrogate.fock_increment_matrices()
    vac = np.array([1.0, 0.0])
    table = np.empty((2, 2), dtype=complex)
    for b, mb in enumerate((m1, m2)):
        for a, ma in enumerate((m1, m2)):
            table[b, a] = vac @ mb.conj().T @ ma @ vac / surrogate.dt
    return table


# ----------------------------------------------------------------- problem

Q0 = "q0"
QT = "qt"


@dataclass
class RfProblem:
    """Constant-coefficient two-noise control problem.

    State (q0 branch):  dX = -[dt (F X + G u + L) + sum_a dM_a F_a (w X + z)],
    X(T) = C; cost has initial-state weights (boundary_gain = Q0 matrix,
    boundary_linear = m0).  The qt branch flips the time orientation and
    runs as the q0 problem of its time reverse (``time_reverse``).
    The Hermiticity pairing F2 = F1* with real w keeps Riccati paths
    Hermitian pathwise and is asserted at construction.
    """

    F: np.ndarray
    G: np.ndarray
    L: np.ndarray
    w: np.ndarray
    z: np.ndarray
    F1: np.ndarray
    F2: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    m: np.ndarray
    eta: np.ndarray
    boundary_gain: np.ndarray
    boundary_linear: np.ndarray
    C: np.ndarray
    direction: str = Q0

    def __post_init__(self):
        self.F = as_matrix(self.F, name="F")
        dim = self.F.shape[0]
        for name in ("G", "L", "w", "z", "F1", "F2", "Q", "R", "m", "eta",
                     "boundary_gain", "boundary_linear", "C"):
            setattr(self, name, as_matrix(getattr(self, name), dim, name=name))
        if self.direction not in (Q0, QT):
            raise ShapeError("direction must be 'q0' or 'qt'")
        require_psd(self.Q, "Q", 1e-12)
        require_psd(self.boundary_gain, "boundary_gain", 1e-12)
        if require_psd(self.R, "R", 1e-12) <= 1e-12:
            raise ShapeError("R must be positive definite (invertible)")
        if np.max(np.abs(self.F2 - self.F1.conj().T)) > 1e-12:
            raise ShapeError("Hermiticity pairing requires F2 = F1*")
        if np.max(np.abs(self.w.imag)) > 1e-12:
            raise ShapeError("Hermiticity pairing requires real w")

    @property
    def dim(self):
        return self.F.shape[0]

    def gain_quad(self):
        """G R^{-1} G*."""
        return self.G @ np.linalg.inv(self.R) @ self.G.conj().T

    def noise_couplings(self):
        """C1 = F1 w, C2 = F2 w."""
        return self.F1 @ self.w, self.F2 @ self.w

    def drift_quadratic(self, sigma):
        """S = s11 C2 C1 + s12 C2 C2 + s22 C1 C2 + s21 C1 C1 (rho = id)."""
        c1, c2 = self.noise_couplings()
        return (
            sigma[0, 0] * c2 @ c1
            + sigma[0, 1] * c2 @ c2
            + sigma[1, 1] * c1 @ c2
            + sigma[1, 0] * c1 @ c1
        )


def classical_reduction_problem(a_mat, q_mat, pi_term, x0, xi):
    """Noise-free q0 problem equivalent (after time reversal) to the
    classical LQR problem with dynamics A, state weight Q, terminal weight
    Pi_T and initial state x0.

    The matrix state applied to the reference vector xi is the classical
    state read in reversed time: X(T - s) xi = x_classical(s), so the
    terminal matrix is C = x0 xi* / ||xi||^2 (then C xi = x0).
    """
    a_mat = as_matrix(a_mat)
    dim = a_mat.shape[0]
    zero = np.zeros((dim, dim))
    x0 = np.asarray(x0, dtype=complex).reshape(dim)
    xi = np.asarray(xi, dtype=complex).reshape(dim)
    c_mat = np.outer(x0, xi.conj()) / float(np.linalg.norm(xi) ** 2)
    return RfProblem(
        F=a_mat,
        G=np.eye(dim),
        L=zero,
        w=zero,
        z=np.eye(dim),
        F1=zero,
        F2=zero,
        Q=q_mat,
        R=np.eye(dim),
        m=zero,
        eta=zero,
        boundary_gain=pi_term,
        boundary_linear=zero,
        C=c_mat,
        direction=Q0,
    )


def stochastic_2x2_problem():
    """The 2x2 two-noise q0 problem of the rf-riccati run and acceptance
    criteria 11 and 12: affine terms on, Hermiticity pairing F2 = F1*."""
    f1 = 0.3 * np.array([[0.4, 0.2], [0.1, -0.3]])
    return RfProblem(
        F=[[0.1, 0.3], [-0.2, -0.4]], G=np.eye(2), L=0.1 * np.eye(2),
        w=0.4 * np.eye(2), z=np.eye(2), F1=f1, F2=f1.conj().T,
        Q=np.diag([0.8, 0.5]), R=np.eye(2), m=0.05 * np.eye(2), eta=0.02 * np.eye(2),
        boundary_gain=np.diag([1.0, 0.6]), boundary_linear=0.05 * np.eye(2),
        C=np.eye(2), direction=Q0,
    )


def noise_free_scalar_problem():
    """Scalar noise-free q0 problem F = 0.3, Q = 0.8, Pi(0) = 1.2: the
    deterministic degeneration compared with the classical Riccati ODE
    (A = 0.3, Q = 0.8, Pi_T = 1.2) after time reversal."""
    return classical_reduction_problem([[0.3]], [[0.8]], [[1.2]], [1.0], [1.0])


# ------------------------------------------------------------------ layout


def _time_major(arr, problem=None):
    """A public (P, T+1, d, d) stack (paths first) as the C-contiguous
    (T+1, d, d, P) store the kernels run on, its time axis in ``problem``'s
    Riccati stepping order: time order on q0, reversed on qt (as given
    without a problem, for pointwise use).  A view the package returned
    comes back as its store without a copy; any other input is copied once,
    so every kernel sees the same memory layout."""
    arr = np.asarray(arr)
    if arr.ndim < 3:
        raise ShapeError("expected a stacked array (paths first, matrix axes last)")
    store = np.moveaxis(arr, 0, -1)
    return np.ascontiguousarray(store[::-1] if problem and problem.direction == QT else store)


def _public(store, problem=None):
    """The (P, T+1, d, d) time-order view of a store ``_time_major`` made."""
    return np.moveaxis(store[::-1] if problem and problem.direction == QT else store, -1, 0)


def _const(mat):
    """A constant (d, d) matrix (or (d, 1) column) broadcast over paths."""
    return np.asarray(mat)[..., None]


def _adj(arr):
    return arr.conj().swapaxes(-3, -2)


def _noise(problem, path):
    """The increments dM1, a time-major (T, 1, 1, P) view in the Riccati
    stepping order, and the Ito table that the q0 kernels read: those of
    ``path`` on q0, of ``time_reverse``'s path on qt.  Callers take
    dM2 = conj(dM1) block by block."""
    if problem.direction == QT:
        _, path = time_reverse(problem, path)
    return path.dm1.T[:, None, None], path.sigma


# ----------------------------------------------------------------- kernels


def _mm(a, b, out=None):
    """``a @ b`` for stacks of small matrices with the path axis last.

    Operands are (..., d, d, P) stacks or constants (d, d, 1); the product
    contracts axes -3 and -2 and broadcasts over the rest.  It is summed as
    d broadcast rank-1 updates a[..., :, k, :] b[..., k, :, :], accumulated
    in place, so every ufunc call runs along the long, contiguous path axis.
    A vector operand enters as a one-column matrix (d, 1, P).  ``out``
    (aliasing neither operand) receives the product.
    """
    out = np.multiply(a[..., :, 0, None, :], b[..., 0, None, :, :], out=out)
    for k in range(1, a.shape[-2]):
        out += a[..., :, k, None, :] * b[..., k, None, :, :]
    return out


def _cayley(half):
    """Cayley factor (1 - H)^{-1} (1 + H) = 2 (1 - H)^{-1} - 1 of stacked
    (..., d, d, P) matrices H.

    Evaluated as 1 + 2 (1 - H)^{-1} H, so the O(H) part keeps its own
    relative precision, with the inverse in closed form for d <= 2 (the
    adjugate over the determinant; for d = 2 the products simplify because
    h00 + (1 - h00) = 1).  This replaces a batched solve; other dimensions
    keep ``np.linalg.solve``.
    """
    d = half.shape[-2]
    if d == 1:
        return 1.0 + 2.0 * half / (1.0 - half)
    if d > 2:
        eye = np.eye(d)
        pub = np.moveaxis(half, -1, 0)
        return np.ascontiguousarray(np.moveaxis(np.linalg.solve(eye - pub, eye + pub), 0, -1))
    h00, h01, h10, h11 = (half[..., i, j, :] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    a, e = 1.0 - h00, 1.0 - h11
    cross = h01 * h10
    two_over_det = 2.0 / (a * e - cross)
    cay = np.empty(half.shape, dtype=complex)
    cay[..., 0, 0, :] = 1.0 + two_over_det * (e * h00 + cross)
    cay[..., 1, 1, :] = 1.0 + two_over_det * (a * h11 + cross)
    cay[..., 0, 1, :] = h01 * two_over_det
    cay[..., 1, 0, :] = h10 * two_over_det
    return cay


def _congruence(m, x, out=None):
    """``m x m*`` for stacks of small matrices (see ``_mm``)."""
    return _mm(_mm(m, x), _adj(m), out=out)


# Largest stacked step, P d^2 entries, that the sweeps run in blocks.
# Blocking costs 2.5 (congruence) to 3 (left product) times the flops of
# plain stepping, so it pays only while a step's interpreter overhead is
# most of its time.  Measured at d = 2 over 1000 steps against streamed
# plain stepping (2-vCPU Xeon, one BLAS thread, medians of 11-15
# interleaved pairs), blocked runs the Picard iteration, the closed loop
# and the r sweep 1.43x, 1.28x and 1.00x as fast as plain at 16 paths,
# 1.19x, 1.11x and 0.65x at 32 (128 entries), 0.96x, 0.93x and 0.59x at
# 40, 0.74x, 0.72x and 0.51x at 64, and 0.69x, 0.70x and 0.50x at 128.
# 128 is the largest size where the Picard iteration and the closed loop,
# most of every rf run, still gain.
_BLOCK_ENTRIES = 128

# Entries of one time block of a stack, P d^2 per point: plain stepping
# builds, sweeps and drops its step maps one such block at a time, and
# every other full-length pass over a store (reductions, the feedback law,
# the cost) works through blocks of this size, so their temporaries stay
# in cache and only the stores a function returns are full size.  2^14
# entries is 256 KB per complex stack: 64 steps at 64 paths of 2x2, 8 at
# 500.  Over 16 rotating rf-dominance passes (64 paths x 1000 steps, same
# host) blocks of 2^12, 2^13, 2^15 and 2^16 entries took 1.16, 1.06, 1.02
# and 1.09 times as long as 2^14 (median ratios).
_STREAM_ENTRIES = 2**14


def _block_len(store):
    """Points (or steps) of one time block of a (T+1, d, d, P) store."""
    return max(1, _STREAM_ENTRIES // store[0].size)


def _time_blocks(store):
    """Consecutive slices of the time axis of ``store``, one block each."""
    size = _block_len(store)
    return [slice(lo, min(lo + size, len(store))) for lo in range(0, len(store), size)]


def _affine_sweep(build, start, shape, act=_mm, emit=None, backward=False):
    """Run Y[k+1] = act(A_k, Y[k] + lead_k) + b_k from Y[0] = ``start``;
    returns the store of all points, a complex array of ``shape``
    (T+1, d, d, P), with Y[k] at index k (index T - k when ``backward``,
    the q0 state sweep).

    ``act`` is linear in its second argument: the left product A Y, or the
    congruence A Y A* of the Duhamel sweep.  ``build(lo, hi)`` returns
    (maps, offsets, lead): A_k, b_k and lead_k of the steps lo to hi as
    fresh (hi - lo, d, d, P) stacks in stepping order, with lead None for a
    recursion without one.  The store is admitted against ``STACK_BUDGET``
    before anything is built.  ``emit(rows, points)``, if given, is called
    with slices of the time axis that cover each point once and the store's
    points there, each as soon as they are final.

    Where one step's stack is small (P d^2 <= ``_BLOCK_ENTRIES``) the
    driver asks for all T steps in one call, before it allocates the store
    (which then takes memory the call's temporaries freed, not fresh
    pages), and the first nb b steps, b = isqrt(T), nb = T // b, run as a
    two-level scan in about 2 sqrt(T) Python steps instead of T.  The nb
    blocks first step side by side from zero, which leaves each block's
    particular part in the store and, in ``maps`` (overwritten), the
    products Phi of its step maps up to each of its points (act composes by
    left products of A).  One loop over the blocks then adds
    act(Phi, Y_first) to all b points of each block in one call, once the
    block's first point Y_first, the previous block's last, is known.
    Blocks are cut in stepping order.  The trailing T - nb b steps step one
    at a time.

    Larger stacks step one at a time through blocks of ``_block_len``
    steps: each block's maps are built, swept and dropped, and its points
    emitted, while they are in cache.
    """
    require_budget(math.prod(shape), STACK_BUDGET, "rf store")
    steps = shape[0] - 1
    blocked = math.prod(shape[1:]) <= _BLOCK_ENTRIES
    all_steps = build(0, steps) if blocked else None
    out = np.empty(shape, dtype=complex)
    y_k = out[::-1] if backward else out
    y_k[0] = _const(start)

    def step(a_k, y_now, lead_k, b_k, y_next):
        act(a_k, y_now if lead_k is None else y_now + lead_k, out=y_next)
        y_next += b_k

    def run(lo, maps, offsets, lead):  # plain steps from step lo on
        leads = [None] * len(maps) if lead is None else lead
        for a_k, lead_k, b_k, y_now, y_next in zip(maps, leads, offsets, y_k[lo:], y_k[lo + 1:]):
            step(a_k, y_now, lead_k, b_k, y_next)

    def scan(maps, offsets, lead):  # the blocked scan, then the trailing steps
        size = math.isqrt(steps)
        n_blocks = steps // size
        whole = n_blocks * size

        def blocks(arr):  # the first nb b rows as (nb, b, ...) views
            return arr[:whole].reshape(n_blocks, size, *arr.shape[1:])

        phi, parts, b_j = blocks(maps), blocks(y_k[1:]), blocks(offsets)
        lead_j = [None] * size if lead is None else blocks(lead).swapaxes(0, 1)
        previous = np.zeros_like(parts[:, 0])
        for j in range(size):
            step(phi[:, j], previous, lead_j[j], b_j[:, j], parts[:, j])
            if j:
                phi[:, j] = _mm(phi[:, j], phi[:, j - 1])
            previous = parts[:, j]
        for first, block_phi, block in zip(y_k[:whole:size], phi, parts):
            block += act(block_phi, first)
        run(whole, maps[whole:], offsets[whole:], None if lead is None else lead[whole:])

    if blocked:
        scan(*all_steps)
        del all_steps  # the step maps are freed before the caller's reductions
        if emit is not None:
            for rows in _time_blocks(out):
                emit(rows, out[rows])
        return out
    block = _block_len(out)
    for lo in range(0, steps, block):
        hi = min(lo + block, steps)
        run(lo, *build(lo, hi))
        if emit is not None:  # points lo to hi, the last block's end point too
            hi += hi == steps
            rows = slice(steps + 1 - hi, steps + 1 - lo) if backward else slice(lo, hi)
            emit(rows, out[rows])
    return out


def min_eig_batch(arr):
    """Smallest eigenvalue of stacked Hermitian matrices.

    Only one triangle is read, so a matrix that is Hermitian up to rounding
    needs no symmetrizing first: the upper triangle and the real part of
    the diagonal for d = 2, ``eigvalsh``'s lower triangle otherwise.
    """
    d = arr.shape[-1]
    if d == 2:
        a = arr[..., 0, 0].real
        c = arr[..., 1, 1].real
        b = arr[..., 0, 1]
        half = 0.5 * (a + c)
        rad = np.sqrt(np.maximum(0.25 * (a - c) ** 2 + np.abs(b) ** 2, 0.0))
        return half - rad
    return np.linalg.eigvalsh(arr)[..., 0]


def _sup_frobenius(store):
    """sup over all points of the Frobenius norm of a (T+1, d, d, P) store."""
    return float(np.max(np.sqrt(np.sum(np.abs(store) ** 2, axis=(1, 2)))))


# ---------------------------------------------------------------- Riccati


@dataclass
class RiccatiIteration:
    times: np.ndarray
    final: np.ndarray  # (n_paths, n_steps + 1, dim, dim)
    n_iterations: int
    converged: bool
    sup_diffs: list
    monotone_margins: list
    herm_residual: float


def _step_factors(problem, path, gain):
    """Per-step left multipliers M_j for the closed-loop recursion.

    ``gain`` is the store (T+1, d, d, P) of the previous iterate, which
    supplies the midpoint gain samples.  Returns the function (lo, hi) ->
    the (hi - lo, d, d, P) factors of the steps lo to hi, from index lo of
    the store on, with the drift quadratic S of ``_noise``'s table.
    """
    dt = path.dt
    neg_gq = _const(-problem.gain_quad())
    c1, c2 = problem.noise_couplings()
    increments, sigma = _noise(problem, path)
    drift_const = _const(problem.F + problem.drift_quadratic(sigma))
    # (1 + dM1 C1 + dM2 C2)* = 1 + dM2 C1* + dM1 C2*, formed directly
    # (conjugation is exact, so this equals the adjoint bit for bit)
    c1_adj, c2_adj = _const(c1.conj().T), _const(c2.conj().T)
    eye = _const(np.eye(problem.dim))

    def factors(lo, hi):
        # each stack is freed as soon as it is used: in the blocked scan,
        # which asks for all steps at once, this sets the Picard peak
        drift = _mm(neg_gq, 0.5 * (gain[lo:hi] + gain[lo + 1:hi + 1]))
        drift += drift_const
        half_star = 0.5 * dt * _adj(drift)
        del drift
        cay = _cayley(half_star)
        del half_star
        dm1 = increments[lo:hi]
        mart_adj = dm1.conj() * c1_adj
        mart_adj += eye
        mart_adj += dm1 * c2_adj
        return _mm(cay, mart_adj)

    return factors


def _duhamel_sweep(problem, path, gain, half_w, source, emit=None):
    """Run Pi(j+1) = M_j [Pi(j) + dt/2 W(j)] M_j* + dt/2 W(j+1) away from the
    boundary gain, with M_j the step factors of the store ``gain`` and
    dt/2 W = ``half_w(rows)`` on rows of the store ``source``, from the
    store's index 0: Pi(0) on q0, Pi(T) on qt.

    Each step is affine in Pi, with the congruence Pi -> M_j Pi M_j* as its
    linear part, so it runs on ``_affine_sweep``; each block of steps builds
    its factors and its inhomogeneity (at both ends of each step) from the
    rows of ``gain`` and ``source`` it spans.  Nothing is symmetrized: for
    Hermitian W every step is Hermitian up to rounding, and
    ``iterate_riccati`` measures the defect on its result.  ``emit`` is
    passed to the driver.  Returns the store.
    """
    factors = _step_factors(problem, path, gain)

    def build(lo, hi):
        w_k = half_w(source[lo:hi + 1])
        return factors(lo, hi), w_k[1:], w_k[:-1]

    return _affine_sweep(build, problem.boundary_gain, gain.shape, act=_congruence, emit=emit)


def iterate_riccati(problem, path, n_max=30, tol=1e-6, initial=None):
    """Monotone Picard iteration for the stochastic Riccati equation.

    Pi_1 is the boundary gain held constant; each successor solves the
    linear closed-loop equation with inhomogeneity Q + Pi_n G R^{-1} G* Pi_n
    along the given noise path(s).  Stops when sup_t ||Pi_{n+1} - Pi_n||_F
    drops below ``tol``; a hit on ``n_max`` returns with ``converged``
    False rather than raising.  Positivity of every iterate is structural
    (congruences of PSD boundaries plus PSD increments); monotone decrease
    is measured and reported, never enforced.  The step and the margin are
    reduced block by block as the sweep finishes each block of points.  The
    start's store is admitted before anything is allocated.
    """
    require_budget(math.prod(_store_shape(problem, path)), STACK_BUDGET, "rf store")
    n_steps, dim = path.n_steps, problem.dim
    gq = _const(problem.gain_quad())

    def half_w(pi_rows):
        return 0.5 * path.dt * (_const(problem.Q) + _mm(_mm(pi_rows, gq), pi_rows))

    def measure(rows, points, old, gaps):
        diff = old[rows] - points  # monotone decrease means diff is PSD
        gaps.append((_sup_frobenius(diff), float(np.min(min_eig_batch(_public(diff))))))

    times = np.linspace(0.0, n_steps * path.dt, n_steps + 1)
    start = np.asarray(
        initial if initial is not None else problem.boundary_gain, dtype=complex
    )
    current = _time_major(np.broadcast_to(start, (path.n_paths, n_steps + 1, dim, dim)), problem)

    sup_diffs, margins = [], []
    for _ in range(2, n_max + 1):
        gaps = []
        nxt = _duhamel_sweep(problem, path, current, half_w, current,
                             emit=partial(measure, old=current, gaps=gaps))
        sup_diffs.append(max(sup for sup, _ in gaps))
        margins.append(min(margin for _, margin in gaps))
        current = nxt
        if sup_diffs[-1] <= tol:
            break
    return RiccatiIteration(
        times=times,
        final=_public(current, problem),
        n_iterations=len(sup_diffs) + 1,
        converged=bool(sup_diffs) and sup_diffs[-1] <= tol,
        sup_diffs=sup_diffs,
        monotone_margins=margins,
        herm_residual=max(float(np.max(np.abs(current[rows] - _adj(current[rows]))))
                          for rows in _time_blocks(current)),
    )


def residual_integral(problem, pi_path, path):
    """Defect of the propagator fixed-point identity for a Riccati path.

    Rebuilds Phi(t,0) Q0 Phi(t,0)* + int_0^t Phi(t,s)(Q - Pi Gq Pi)(s)
    Phi(t,s)* ds through the open-loop recursion (same stepping as the
    iteration) and returns sup_t of the Frobenius defect against
    ``pi_path``, reduced block by block.  On qt, t runs from T (see
    ``time_reverse``).
    """
    pi = _time_major(pi_path, problem)
    gq = _const(problem.gain_quad())
    defects = []

    def half_w(pi_rows):
        return 0.5 * path.dt * (_const(problem.Q) - _mm(_mm(pi_rows, gq), pi_rows))

    def measure(rows, rebuilt):
        defects.append(_sup_frobenius(rebuilt - pi[rows]))

    open_loop = np.broadcast_to(np.zeros((), dtype=pi.dtype), pi.shape)
    _duhamel_sweep(problem, path, open_loop, half_w, pi, emit=measure)
    return max(defects)


# ------------------------------------------------------------------ states


def _store_shape(problem, path):
    """The (T+1, d, d, P) shape of a state store."""
    return path.n_steps + 1, problem.dim, problem.dim, path.n_paths


def _pair(a_col, weight, b_col):
    """<a, W b> at every point of stacked columns (..., d, 1, P)."""
    return _mm(_adj(a_col), _mm(_const(weight), b_col))[..., 0, 0, :]


def _linear(a_col, weight, xi_col):
    """<a, W* xi> at every point of stacked columns (..., d, 1, P); ``xi_col``
    is a constant (d, 1) column."""
    return _mm(_adj(a_col), _const(weight.conj().T @ xi_col))[..., 0, 0, :]


def _cost_form(problem, a, b, xi, dt, linear):
    """B(a, b) + linear L(a) per path, for the (state, control) store pairs
    ``a`` and ``b``, (T+1, d, d, P) in stepping order over the same points.

    With the columns a_x = X_a xi, a_u = U_a xi (and b_x, b_u alike),
    B(a, b) = int <a_x, Q b_x> + <a_u, R b_u> dt + <a_x, Q0 b_x>|_edge and
    L(a) = int <a_x, m* xi> + <a_u, eta* xi> dt + <a_x, m0* xi>|_edge, by
    trapezoid in time, summed block by block in stepping order, with the
    edge the boundary cost weighs at the first point: t = 0 on q0, t = T on
    qt.  Each time block's columns are formed from the stores' rows there,
    once for both sides when ``b`` is ``a``.  The cost is Re B(x, x) + 2 L(x).
    """
    col = np.asarray(xi, dtype=complex).reshape(problem.dim, 1)
    blocks = _time_blocks(a[0])
    total = 0.0
    for idx, rows in enumerate(blocks):
        a_x, a_u = (_mm(store[rows], _const(col)) for store in a)
        b_x, b_u = (a_x, a_u) if b is a else (_mm(store[rows], _const(col)) for store in b)
        running = _pair(a_x, problem.Q, b_x) + _pair(a_u, problem.R, b_u)
        running += linear * (_linear(a_x, problem.m, col) + _linear(a_u, problem.eta, col))
        weights = np.full(len(running), dt)
        if idx == 0:
            weights[0] *= 0.5
        if idx == len(blocks) - 1:
            weights[-1] *= 0.5
        total = total + weights @ running
        if idx == 0:
            total = (total + _pair(a_x[0], problem.boundary_gain, b_x[0])
                     + linear * _linear(a_x[0], problem.boundary_linear, col))
    return total


def cost_tilde(problem, u_path, xi, x_path, dt):
    """Per-path quadratic cost (trapezoid in time) and ensemble stats.

    Returns (mean, stderr, per-path array).  The boundary terms weigh the
    initial state on q0 and the terminal state on qt; the trapezoid sums in
    the Riccati stepping order, from that edge.
    """
    if np.linalg.norm(xi) == 0:
        raise ShapeError("xi must be nonzero")
    stores = _time_major(x_path, problem), _time_major(u_path, problem)
    costs = _cost_form(problem, stores, stores, xi, dt, 2.0).real
    return float(np.mean(costs)), standard_error(costs), costs


# ---------------------------------------------------------------- r-path


def solve_r(problem, pi_path, path):
    """Pathwise linear process feeding the affine part of the feedback.

    Forward Euler (q0: from r(0) = boundary_linear*) of the coefficient-
    matched reduction of the r-equation with rho = id and two noises:

        dr = C dt + D1 dM1 + D2 dM2,
        D1 = w*F2* r + Pi F1 z,     D2 = w*F1* r + Pi F2 z,
        C  = F* r - Pi Gq r + Pi L + m* - Pi G R^{-1} eta*
             + B1 (s21 F1 z + s22 F2 z) + B2 (s11 F1 z + s12 F2 z)
             + w*F1* (s11 D1' + s12 D2') + w*F2* (s21 D1' + s22 D2'),

    with D_a' = D_a - Pi F_a z = (noise coefficient acting on r alone) and
    B_a = C_a'* Pi + Pi C_a (a' the other index) the martingale
    coefficients of the Riccati path.  Each Euler step is affine in r,
    r(k+1) = A_k r(k) + b_k, with Pi taken at the step's start:

        A_k = 1 + dt (F* - Pi Gq + C1* (s11 C2* + s12 C1*)
                      + C2* (s21 C2* + s22 C1*)) + dM1 C2* + dM2 C1*,
        b_k = Pi [dt (L - G R^{-1} eta* + C1 V1 + C2 V2) + dM1 F1 z + dM2 F2 z]
              + dt (C2* Pi V1 + C1* Pi V2 + m*),
        V1 = s21 F1 z + s22 F2 z,   V2 = s11 F1 z + s12 F2 z.

    The qt branch is the same sweep on its time reverse, from r(T) =
    boundary_linear* with the table sigma~ = -sigma (``_noise``).  The step
    maps are built block by block.
    """
    dt = path.dt
    increments, sig = _noise(problem, path)

    c1, c2 = problem.noise_couplings()
    c1s, c2s = c1.conj().T, c2.conj().T
    f1z = problem.F1 @ problem.z
    f2z = problem.F2 @ problem.z
    eta_pull = problem.G @ np.linalg.inv(problem.R) @ problem.eta.conj().T
    v1 = sig[1, 0] * f1z + sig[1, 1] * f2z
    v2 = sig[0, 0] * f1z + sig[0, 1] * f2z
    r_drift = (problem.F.conj().T + c1s @ (sig[0, 0] * c2s + sig[0, 1] * c1s)
               + c2s @ (sig[1, 0] * c2s + sig[1, 1] * c1s))
    drift = _const(np.eye(problem.dim) + dt * r_drift)
    dt_gq = _const(dt * problem.gain_quad())
    shift = _const(dt * (problem.L - eta_pull + c1 @ v1 + c2 @ v2))
    dt_v1, dt_v2, dt_m = _const(dt * v1), _const(dt * v2), _const(dt * problem.m.conj().T)
    c1s, c2s, f1z, f2z = (_const(mat) for mat in (c1s, c2s, f1z, f2z))

    pi = _time_major(pi_path, problem)

    def build(lo, hi):
        pi_k, dm1 = pi[lo:hi], increments[lo:hi]
        dm2 = dm1.conj()
        maps = dm1 * c2s
        maps += dm2 * c1s
        maps += drift
        maps -= _mm(pi_k, dt_gq)
        weight = dm1 * f1z
        weight += dm2 * f2z
        weight += shift
        offsets = _mm(pi_k, weight)
        offsets += _mm(c2s, _mm(pi_k, dt_v1))
        offsets += _mm(c1s, _mm(pi_k, dt_v2))
        offsets += dt_m
        return maps, offsets, None

    return _public(_affine_sweep(build, problem.boundary_linear.conj().T, pi.shape), problem)


def _feedback(problem):
    """The feedback law as a function (pi, r, x, out) of time-major blocks
    that writes u = -R^{-1} (G* (Pi X + r) + eta*) into ``out``."""
    rinv = np.linalg.inv(problem.R)
    gain = _const(-rinv @ problem.G.conj().T)
    shift = _const(rinv @ problem.eta.conj().T)

    def law(pi, r_vals, x, out):
        inner = _mm(pi, x)
        inner += r_vals
        _mm(gain, inner, out=out)
        out -= shift
        return out

    return law


def feedback_control(pi_values, r_values, x_values, problem):
    """u = -R^{-1} (G* (Pi X + r) + eta*) on stacked arrays (paths first,
    matrix axes last), evaluated block by block in time; a pointwise
    (P, d, d) stack, without a time axis, is one block."""
    law = _feedback(problem)
    pi, r_vals, x = (_time_major(arr) for arr in (pi_values, r_values, x_values))
    u_values = np.empty(np.broadcast_shapes(pi.shape, x.shape), dtype=complex)
    for rows in _time_blocks(u_values) if u_values.ndim > 3 else [...]:
        law(pi[rows], r_vals[rows], x[rows], u_values[rows])
    return _public(u_values)


def closed_loop_state(problem, pi_values, r_values, path, law=None):
    """State path under the feedback law (or a perturbation of it).

    ``law`` is None for the optimal u, ("scale", c), or ("offset", M)
    with M a (d, d) matrix; any other offset shape raises ShapeError.
    Returns (x_path, u_path); the open loop is the law ("scale", 0.0).
    The control applied at a step's anchor point (j+1 on q0, j on qt),
    u = c (-R^{-1} G* Pi X - R^{-1} (G* r + eta*)) + M, is folded into the
    step maps of the Euler recursion X(k+1) = A_k X(k) + b_k, built block
    by block in the state's stepping order,

        A_k = dt c G (-R^{-1} G* Pi) + dM1 C1 + dM2 C2 + (1 + dt F),
        b_k = dt c G (-R^{-1} G* r) + dt G (M - c R^{-1} eta*)
              + dM1 F1 z + dM2 F2 z + dt L,

    summed in place in this order, and the sweep runs backward through the
    store from C at its last index (X(T) on q0, X(0) on qt).  The feedback
    is evaluated once per state point, on each block of the result as soon
    as the sweep has finished it.
    """
    scale, offset = parse_law(law, problem.dim)
    rinv = np.linalg.inv(problem.R)
    gain = _const(-path.dt * scale * (problem.G @ rinv @ problem.G.conj().T))
    shift = _const(path.dt * (problem.G @ (offset - scale * rinv @ problem.eta.conj().T)))
    c1, c2 = (_const(c) for c in problem.noise_couplings())
    f1z, f2z = _const(problem.F1 @ problem.z), _const(problem.F2 @ problem.z)
    drift = _const(np.eye(problem.dim) + path.dt * problem.F)
    dt_l = _const(path.dt * problem.L)
    optimal = _feedback(problem)
    pi, r_vals = _time_major(pi_values, problem), _time_major(r_values, problem)
    # the state's stepping order
    pi_steps, r_steps, increments = pi[::-1], r_vals[::-1], _noise(problem, path)[0][::-1]
    u_store = np.empty(_store_shape(problem, path), dtype=complex)

    def build(lo, hi):
        dm1 = increments[lo:hi]
        dm2 = dm1.conj()
        maps = _mm(gain, pi_steps[lo:hi])
        maps += dm1 * c1
        maps += dm2 * c2
        maps += drift
        offsets = _mm(gain, r_steps[lo:hi])
        offsets += shift
        offsets += dm1 * f1z
        offsets += dm2 * f2z
        offsets += dt_l
        return maps, offsets, None

    def feedback(rows, x_rows):
        u_block = optimal(pi[rows], r_vals[rows], x_rows, u_store[rows])
        if scale != 1.0:
            u_block *= scale
        if np.any(offset):
            u_block += _const(offset)

    x_store = _affine_sweep(build, problem.C, u_store.shape, emit=feedback, backward=True)
    return _public(x_store, problem), _public(u_store, problem)


# ----------------------------------------------------------- time reversal


def time_reverse(problem, path):
    """Map between the qt and q0 forms by s = T - t.

    Constant coefficients are unchanged (hatting is the identity on
    constants); the boundary data swap roles; the noise path reverses and
    the Ito table flips sign: N_a(s) = M_a(T-s), sigma~ = -sigma.  This is
    the one place the reversal convention is written: a qt problem runs as
    the q0 problem of its time reverse, with the increments and the table
    of the path returned here (``_noise``).  Applying the map twice
    restores both objects bit-exactly.
    """
    flipped = replace(problem, direction=Q0 if problem.direction == QT else QT)
    reversed_path = replace(path, dm1=path.dm1[:, ::-1], sigma=-path.sigma)
    return flipped, reversed_path


# ------------------------------------------------------------ optimality


_CHUNK_PATHS = 500  # paths per optimality chunk, see the module docstring
_K_IDENTITY_PATHS = 3  # leading paths the K identity is evaluated on


def verify_feedback_optimality(problem, xi, path, perturbations, n_max, tol):
    """Feedback-law optimality report on a path ensemble.

    Per chunk of ``_CHUNK_PATHS`` paths: the Picard iteration
    (``NotConvergedError`` if it does not converge within ``n_max``), the
    r-process, and the closed loop under the optimal law and under each
    law of ``perturbations`` (as in ``closed_loop_state``) with common
    noise.  The paired cost differences of all chunks are concatenated
    before their mean, standard error, minimum and 2 sigma verdict are
    taken; the cross-term (K) identity defect is taken on the first
    ``_K_IDENTITY_PATHS`` paths.
    """
    if not perturbations:
        raise ShapeError("need at least one perturbation")
    base_chunks = []
    diff_chunks = [[] for _ in perturbations]
    k_defects = []
    for start in range(0, path.n_paths, _CHUNK_PATHS):
        # one chunk is the ensemble itself, not a copy of it
        chunk = path if path.n_paths <= _CHUNK_PATHS else path.pick(
            range(start, min(start + _CHUNK_PATHS, path.n_paths)))
        iteration = iterate_riccati(problem, chunk, n_max=n_max, tol=tol)
        if not iteration.converged:
            raise NotConvergedError(
                f"Riccati iteration did not converge on the chunk at path {start}")
        pi_values = iteration.final
        r_values = solve_r(problem, pi_values, chunk)
        x_opt, u_opt = closed_loop_state(problem, pi_values, r_values, chunk)
        _, _, base_costs = cost_tilde(problem, u_opt, xi, x_opt, chunk.dt)
        base_chunks.append(base_costs)
        # copies, so the full stacks are freed for the loop below
        opt_k = x_opt[:_K_IDENTITY_PATHS].copy(), u_opt[:_K_IDENTITY_PATHS].copy()
        del x_opt, u_opt
        for law, diffs in zip(perturbations, diff_chunks):
            x_pert, u_pert = closed_loop_state(problem, pi_values, r_values, chunk, law=law)
            _, _, pert_costs = cost_tilde(problem, u_pert, xi, x_pert, chunk.dt)
            diffs.append(pert_costs - base_costs)
            if start == 0:
                k_defects.append(_k_identity_defect(
                    problem, xi, *opt_k, x_pert[:_K_IDENTITY_PATHS],
                    u_pert[:_K_IDENTITY_PATHS], chunk.dt))

    comparisons = []
    for law, diffs in zip(perturbations, diff_chunks):
        diff = np.concatenate(diffs)
        stderr = standard_error(diff)
        comparisons.append({
            "perturbation": (law[0], np.asarray(law[1]).tolist()),
            "mean_excess": float(np.mean(diff)),
            "stderr": stderr,
            "dominates_2sigma": bool(np.mean(diff) > 2.0 * stderr),
            "min_excess": float(np.min(diff)),
        })
    return {
        "base_cost_mean": float(np.mean(np.concatenate(base_chunks))),
        "comparisons": comparisons,
        "k_identity_max_defect": float(np.max(k_defects)),
    }


def _k_identity_defect(problem, xi, x_opt, u_opt, x_pert, u_pert, dt):
    """Cross term of the completion-of-squares decomposition.

    The closed loops evaluate the feedback law on their own states, so with
    Lambda = -R^{-1}G*Pi, lam = -R^{-1}(G*r + eta*) and Xh = X_pert - Y
    (Y = X_opt), the optimal control is Lambda Y + lam = U_opt and the
    perturbation's is Lambda Xh + mu = U_pert - U_opt.  The proof's cross
    term

        K = int <xi, [Xh* Q Y + (Lambda Xh + mu)* R (Lambda Y + lam)
                      + Xh* m* + (Lambda Xh + mu)* eta*] xi> dt
            + <xi, [Xh(0)* m0* + Xh(0)* Q0 Y(0)] xi>

    is therefore the polarization B(Xh, Y) + L(Xh) of the cost
    (``_cost_form`` of the deviation stores and the optimal ones; on qt the
    boundary terms sit at t = T).  It vanishes in the continuum; its
    largest magnitude over the given paths, by trapezoid quadrature, is the
    returned defect.
    """
    opt = _time_major(x_opt, problem), _time_major(u_opt, problem)
    hat = tuple(_time_major(p, problem) - o for p, o in zip((x_pert, u_pert), opt))
    return float(np.max(np.abs(_cost_form(problem, hat, opt, xi, dt, 1.0))))
