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
opposite time directions.  Each recursion is one loop stepping away from
its boundary; one that runs backward in time runs that loop on
time-reversed views (``_along``), so both branches share every line of
arithmetic.  On qt the Riccati and r recursions (``_step_factors``,
``solve_r``) negate the Ito table (a reversed-time table carries -sigma);
every recursion uses the noise increments unchanged on both branches, so
the feedback law is built on the same noise as the state it steers.

Layout and kernels.  Every stacked rf array is stored time-major, as a
C-contiguous (T+1, d, d, P) array with the path axis last, so each
step's arithmetic runs along the long, contiguous path axis instead of
over trailing 2x2 axes.  Functions return the ``np.moveaxis`` view with
the public (P, T+1, d, d) shape and indexing; such a view passed back in
is read without a copy, and any other input (a C-ordered (P, T+1, d, d)
array, say) is copied into the store layout once (``_time_major``).  The
surrogate keeps its increments time-major behind their (P, T) shape.
Every product of stacked small matrices goes through ``_mm``, d broadcast
rank-1 updates accumulated in place along the path axis; the Cayley
factor of the Picard step has a closed-form inverse for d <= 2
(``_cayley``).  The Euler state recursion, its closed loop under the
feedback law, and the r-process are affine in their state, so each is one
``_affine_sweep`` Y[k+1] = A_k Y[k] + b_k whose step maps A_k, b_k are
built once per call, vectorized over all (step, path) pairs.  The closed
loop folds the gain -R^{-1} G* Pi, the affine part and the perturbation
into those maps and evaluates the feedback law once, on all T+1 state
points of the result.  Only the Duhamel sweep of the Picard iteration, a
congruence, keeps its own per-step loop.

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
rule); quadratic-variation terms enter through the realized increment
products, which converge to the sigma-weighted drift.  In the noise-free
limit the scheme is second order, which is what lets the deterministic
degeneration meet a 1e-6 comparison against the classical Riccati ODE at
dt = 1e-3.

Optimality check.  ``verify_feedback_optimality`` runs an ensemble in
chunks of ``_CHUNK_PATHS`` = 500 paths, so a 2x2 stack of 1001 points
stays at 32 MB, and pools the paired cost differences of all chunks.
Picard stops on the chunk's sup-norm, so the chunk size shapes the report
and is fixed, not an option.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NotConvergedError, ShapeError
from .linalg import as_matrix, herm, is_hermitian
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
        return replace(self, dm1=self.dm1[idx])


def sigma_positivity(sigma, f_value):
    """Definition-8 quadratic form (conj(f), conj(f)) sigma (f, f)^t."""
    f_value = complex(f_value)
    row = np.array([f_value.conjugate(), f_value.conjugate()])
    col = np.array([f_value, f_value])
    return complex(row @ np.asarray(sigma) @ col)


def build_levy_surrogate(kind, n_steps, dt, seed, n_paths=1):
    """Construct a surrogate ensemble; per-path seeds follow the shared
    splitting rule (``qscontrol.seeding``)."""
    if n_steps < 1:
        raise ShapeError("n_steps must be >= 1")
    if dt <= 0:
        raise ShapeError("dt must be positive")
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
    boundary_linear = m0).  The qt branch flips the time orientation.
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
        for name, mat in (("Q", self.Q), ("boundary_gain", self.boundary_gain)):
            if not is_hermitian(mat, 1e-12) or np.linalg.eigvalsh(herm(mat))[0] < -1e-12:
                raise ShapeError(f"{name} must be Hermitian PSD")
        if not is_hermitian(self.R, 1e-12):
            raise ShapeError("R must be Hermitian")
        if np.linalg.eigvalsh(herm(self.R))[0] <= 1e-12:
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


def _time_major(arr):
    """A public (P, T+1, d, d) stack (paths first) as the C-contiguous
    (T+1, d, d, P) store the kernels run on.  A view the package returned
    comes back as its store without a copy; any other input is copied once,
    so every kernel sees the same memory layout."""
    arr = np.asarray(arr)
    if arr.ndim < 3:
        raise ShapeError("expected a stacked array (paths first, matrix axes last)")
    return np.ascontiguousarray(np.moveaxis(arr, 0, -1))


def _public(store):
    """The (P, T+1, d, d) view of a (T+1, d, d, P) store."""
    return np.moveaxis(store, -1, 0)


def _const(mat):
    """A constant (d, d) matrix (or (d, 1) column) broadcast over paths."""
    return np.asarray(mat)[..., None]


def _along(arr, forward):
    """A time-major ``arr`` in stepping order: as it is for a recursion that
    runs forward in time, time-reversed view otherwise."""
    return arr if forward else arr[::-1]


def _adj(arr):
    return arr.conj().swapaxes(-3, -2)


def _increments(path, forward=True):
    """dM1, dM2 = conj(dM1) as time-major (T, 1, 1, P) arrays in stepping
    order (dM1 a view)."""
    dm1 = _along(path.dm1.T, forward)[:, None, None]
    return dm1, dm1.conj()


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


def _affine_sweep(maps, offsets, start, out, forward):
    """Run Y[k+1] = A_k Y[k] + b_k from Y[0] = ``start`` into ``out``.

    ``maps`` and ``offsets`` (T, d, d, P) hold A_k and b_k in stepping
    order; the store ``out`` (T+1, d, d, P) is written through its
    ``_along`` view, so a recursion that runs backward in time fills it
    from the end.  Callers allocate ``out`` before the maps, so the block
    the maps free is reused by what follows instead of growing the heap
    (glibc keeps freed blocks resident: two optimality passes at 64 paths
    x 1000 steps, 11 laws each, peak at 72 MB RSS this way and at 80 MB
    when the closed loop allocates its state after its maps).
    """
    y_k = _along(out, forward)
    y_k[0] = _const(start)
    for a_k, b_k, y_now, y_next in zip(maps, offsets, y_k[:-1], y_k[1:]):
        _mm(a_k, y_now, out=y_next)
        y_next += b_k
    return out


def min_eig_batch(arr):
    """Smallest eigenvalue of stacked Hermitian matrices."""
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

    ``gain`` is the time-major store (T+1, d, d, P) of the previous iterate,
    which supplies the midpoint gain samples; returns (T, d, d, P) in time
    order.  The qt branch negates the drift quadratic (the reversed table
    carries -sigma); the increments are the same on both branches.
    """
    dt = path.dt
    gq = problem.gain_quad()
    c1, c2 = problem.noise_couplings()
    sign = 1.0 if problem.direction == Q0 else -1.0
    s_mat = sign * problem.drift_quadratic(path.sigma)

    # each full stack is freed as soon as it is used: this call sets the
    # peak memory of the Picard iteration
    drift = _mm(_const(-gq), 0.5 * (gain[:-1] + gain[1:]))
    drift += _const(problem.F + s_mat)
    half_star = 0.5 * dt * _adj(drift)
    del drift
    cay = _cayley(half_star)
    del half_star

    # (1 + dM1 C1 + dM2 C2)* = 1 + dM2 C1* + dM1 C2*, formed directly
    # (conjugation is exact, so this equals the adjoint bit for bit)
    dm1, dm2 = _increments(path)
    mart_adj = dm2 * _const(c1.conj().T)
    mart_adj += _const(np.eye(problem.dim))
    mart_adj += dm1 * _const(c2.conj().T)
    return _mm(cay, mart_adj)


def _duhamel_sweep(problem, path, gain, half_w):
    """Run Pi(j+1) = M_j [Pi(j) + dt/2 W(j)] M_j* + dt/2 W(j+1) away from the
    boundary gain, with M_j the step factors of the store ``gain`` and
    ``half_w`` = dt/2 W, W the time-major PSD inhomogeneity.  q0 steps
    forward from Pi(0); qt runs the same loop on time-reversed views, from
    Pi(T).

    Each step symmetrizes the congruence output; the largest
    pre-symmetrization defect is kept elementwise per (entry, path) and
    reduced once.  Returns (store, defect).
    """
    forward = problem.direction == Q0
    factors = _step_factors(problem, path, gain)
    out = np.empty(gain.shape, dtype=complex)
    pi_k, m_k, m_adj_k, w_k = (_along(arr, forward)
                               for arr in (out, factors, _adj(factors), half_w))
    worst = np.zeros(out.shape[1:])
    pi_k[0] = _const(problem.boundary_gain)
    for m, m_adj, w_now, w_next, pi_now, pi_next in zip(
            m_k, m_adj_k, w_k[:-1], w_k[1:], pi_k[:-1], pi_k[1:]):
        nxt = _mm(_mm(m, pi_now + w_now), m_adj)
        nxt += w_next
        nxt_adj = _adj(nxt)
        np.maximum(worst, np.abs(nxt - nxt_adj), out=worst)
        np.add(nxt, nxt_adj, out=pi_next)
        pi_next *= 0.5
    return out, float(np.max(worst))


def iterate_riccati(problem, path, n_max=30, tol=1e-6, initial=None):
    """Monotone Picard iteration for the stochastic Riccati equation.

    Pi_1 is the boundary gain held constant; each successor solves the
    linear closed-loop equation with inhomogeneity Q + Pi_n G R^{-1} G* Pi_n
    along the given noise path(s).  Stops when sup_t ||Pi_{n+1} - Pi_n||_F
    drops below ``tol``; a hit on ``n_max`` returns with ``converged``
    False rather than raising.  Positivity of every iterate is structural
    (congruences of PSD boundaries plus PSD increments); monotone decrease
    is measured and reported, never enforced.
    """
    n_steps, dim = path.n_steps, problem.dim
    gq = _const(problem.gain_quad())

    times = np.linspace(0.0, n_steps * path.dt, n_steps + 1)
    start = np.asarray(
        initial if initial is not None else problem.boundary_gain, dtype=complex
    )
    current = _time_major(np.broadcast_to(start, (path.n_paths, n_steps + 1, dim, dim)))

    sup_diffs, margins = [], []
    herm_res = 0.0
    for _ in range(2, n_max + 1):
        half_w = 0.5 * path.dt * (_const(problem.Q) + _mm(_mm(current, gq), current))
        nxt, step_defect = _duhamel_sweep(problem, path, current, half_w)
        del half_w
        herm_res = max(herm_res, step_defect)
        diff = current - nxt  # monotone decrease means diff is PSD
        sup_diffs.append(_sup_frobenius(diff))
        diff_herm = diff + _adj(diff)
        diff_herm *= 0.5
        margins.append(float(np.min(min_eig_batch(_public(diff_herm)))))
        del diff, diff_herm
        current = nxt
        if sup_diffs[-1] <= tol:
            break
    return RiccatiIteration(
        times=times,
        final=_public(current),
        n_iterations=len(sup_diffs) + 1,
        converged=bool(sup_diffs) and sup_diffs[-1] <= tol,
        sup_diffs=sup_diffs,
        monotone_margins=margins,
        herm_residual=herm_res,
    )


def residual_integral(problem, pi_path, path):
    """Defect of the propagator fixed-point identity for a Riccati path.

    Rebuilds Phi(t,0) Q0 Phi(t,0)* + int_0^t Phi(t,s)(Q - Pi Gq Pi)(s)
    Phi(t,s)* ds through the open-loop recursion (same stepping as the
    iteration) and returns sup_t of the Frobenius defect against
    ``pi_path``.  The q0/qt mirror follows the problem direction.
    """
    pi = _time_major(pi_path)
    gq = _const(problem.gain_quad())
    half_w = 0.5 * path.dt * (_const(problem.Q) - _mm(_mm(pi, gq), pi))
    rebuilt, _ = _duhamel_sweep(problem, path, np.zeros_like(pi), half_w)
    return _sup_frobenius(rebuilt - pi)


# ------------------------------------------------------------------ states


def _state_sweep(problem, path, maps, offsets, out):
    """Euler state store into ``out`` (T+1, d, d, P), with the control
    terms already in ``maps``/``offsets`` (T, d, d, P), in stepping order.

    Adds the uncontrolled step maps in place,

        A_k += 1 + dt F + dM1 C1 + dM2 C2,   b_k += dt L + dM1 F1 z + dM2 F2 z,

    and sweeps from C: backward from X(T) on q0, forward from X(0) on qt,
    with the increments unchanged on both branches.
    """
    forward = problem.direction == QT
    dm1, dm2 = _increments(path, forward)
    c1, c2 = problem.noise_couplings()
    maps += dm1 * _const(c1)
    maps += dm2 * _const(c2)
    maps += _const(np.eye(problem.dim) + path.dt * problem.F)
    offsets += dm1 * _const(problem.F1 @ problem.z)
    offsets += dm2 * _const(problem.F2 @ problem.z)
    offsets += _const(path.dt * problem.L)
    return _affine_sweep(maps, offsets, problem.C, out, forward)


def _new_store(problem, path):
    """An empty (T+1, d, d, P) state store."""
    return np.empty((path.n_steps + 1, problem.dim, problem.dim, path.n_paths), dtype=complex)


def simulate_state(problem, u, path):
    """Euler state path under a control; returns (P, T+1, d, d).

    ``u`` is None (zero control) or a stacked array (P, T+1, d, d), applied
    at each step's anchor point (the known endpoint: j+1 backward, j
    forward).  The q0 state runs backward from X(T) = C, the qt state
    forward from X(0) = C; both use the increments unchanged.
    """
    out = _new_store(problem, path)
    maps = np.zeros_like(out[1:])
    if u is None:
        offsets = np.zeros_like(maps)
    else:
        u_steps = _along(_time_major(u), problem.direction == QT)[:-1]
        offsets = _mm(_const(path.dt * problem.G), u_steps)
    return _public(_state_sweep(problem, path, maps, offsets, out))


def _pair(a_col, weight, b_col):
    """<a, W b> at every point of stacked columns (..., d, 1, P)."""
    return _mm(_adj(a_col), _mm(_const(weight), b_col))[..., 0, 0, :]


def _linear(a_col, weight, xi_col):
    """<a, W* xi> at every point of stacked columns (..., d, 1, P); ``xi_col``
    is a constant (d, 1) column."""
    return _mm(_adj(a_col), _const(weight.conj().T @ xi_col))[..., 0, 0, :]


def _trapezoid(integrand, dt):
    """Trapezoid rule along the time axis of (T+1, P) samples."""
    weights = np.full(integrand.shape[0], dt)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return weights @ integrand


def _edge_terms(problem, a_col, b_col, xi_col):
    """<a, Q0 b> and <a, m0* xi> on stacked column stores (T+1, d, 1, P) at
    the edge the boundary cost weighs: t = 0 for q0, t = T for qt."""
    edge = 0 if problem.direction == Q0 else -1
    return (_pair(a_col[edge], problem.boundary_gain, b_col[edge]),
            _linear(a_col[edge], problem.boundary_linear, xi_col))


def cost_tilde(problem, u_path, xi, x_path, dt):
    """Per-path quadratic cost (trapezoid in time) and ensemble stats.

    Returns (mean, stderr, per-path array).  The boundary terms follow the
    problem direction: initial-state weights for q0, terminal for qt.
    """
    xi = np.asarray(xi, dtype=complex).reshape(problem.dim)
    if np.linalg.norm(xi) == 0:
        raise ShapeError("xi must be nonzero")

    col = xi[:, None]
    x_col = _mm(_time_major(x_path), _const(col))
    u_col = _mm(_time_major(u_path), _const(col))
    running = (
        _pair(x_col, problem.Q, x_col).real
        + _pair(u_col, problem.R, u_col).real
        + 2.0 * _linear(x_col, problem.m, col).real
        + 2.0 * _linear(u_col, problem.eta, col).real
    )
    quad, lin = _edge_terms(problem, x_col, x_col, col)
    costs = _trapezoid(running, dt) + quad.real
    costs = costs + 2.0 * lin.real
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

    The qt branch runs the same sweep on time-reversed views from
    r(T) = boundary_linear*, with negated table and the increments
    unchanged.
    """
    dt = path.dt
    forward = problem.direction == Q0
    sig = path.sigma if forward else -path.sigma

    c1, c2 = problem.noise_couplings()
    c1s, c2s = c1.conj().T, c2.conj().T
    f1z = problem.F1 @ problem.z
    f2z = problem.F2 @ problem.z
    eta_pull = problem.G @ np.linalg.inv(problem.R) @ problem.eta.conj().T
    v1 = sig[1, 0] * f1z + sig[1, 1] * f2z
    v2 = sig[0, 0] * f1z + sig[0, 1] * f2z
    r_drift = (problem.F.conj().T + c1s @ (sig[0, 0] * c2s + sig[0, 1] * c1s)
               + c2s @ (sig[1, 0] * c2s + sig[1, 1] * c1s))

    pi = _time_major(pi_path)
    out = np.empty_like(pi, dtype=complex)
    pi_k = _along(pi, forward)[:-1]
    dm1, dm2 = _increments(path, forward)
    maps = dm1 * _const(c2s)
    maps += dm2 * _const(c1s)
    maps += _const(np.eye(problem.dim) + dt * r_drift)
    maps -= _mm(pi_k, _const(dt * problem.gain_quad()))
    weight = dm1 * _const(f1z)
    weight += dm2 * _const(f2z)
    weight += _const(dt * (problem.L - eta_pull + c1 @ v1 + c2 @ v2))
    offsets = _mm(pi_k, weight)
    del weight
    offsets += _mm(_const(c2s), _mm(pi_k, _const(dt * v1)))
    offsets += _mm(_const(c1s), _mm(pi_k, _const(dt * v2)))
    offsets += _const(dt * problem.m.conj().T)
    return _public(_affine_sweep(maps, offsets, problem.boundary_linear.conj().T, out, forward))


def feedback_control(pi_values, r_values, x_values, problem):
    """u = -R^{-1} (G* (Pi X + r) + eta*) on stacked arrays (paths first,
    matrix axes last)."""
    rinv = np.linalg.inv(problem.R)
    inner = _mm(_time_major(pi_values), _time_major(x_values))
    inner += _time_major(r_values)
    u_values = _mm(_const(-rinv @ problem.G.conj().T), inner)
    u_values -= _const(rinv @ problem.eta.conj().T)
    return _public(u_values)


def closed_loop_state(problem, pi_values, r_values, path, law=None):
    """State path under the feedback law (or a perturbation of it).

    ``law`` is None for the optimal u, ("scale", c), or ("offset", M)
    with M a (d, d) matrix; any other offset shape raises ShapeError.
    Returns (x_path, u_path).  The control applied at a step's anchor
    point, u = c (-R^{-1} G* Pi X - R^{-1} (G* r + eta*)) + M, is folded
    into the step maps of the state recursion: A_k gains dt c G (-R^{-1}
    G* Pi) and b_k gains dt G (c (-R^{-1} (G* r + eta*)) + M).  The
    feedback is evaluated once, on all T+1 state points of the result.
    """
    kind, val = law if law is not None else (None, None)
    if kind not in (None, "scale", "offset"):
        raise ShapeError(f"unknown perturbation kind {kind!r}")
    if kind == "offset" and np.shape(val) != (problem.dim, problem.dim):
        raise ShapeError(f"offset must be a {problem.dim}x{problem.dim} matrix")
    forward = problem.direction == QT
    scale = float(val) if kind == "scale" else 1.0
    offset = np.asarray(val, dtype=complex) if kind == "offset" else 0.0
    rinv = np.linalg.inv(problem.R)
    gain = _const(-path.dt * scale * (problem.G @ rinv @ problem.G.conj().T))
    pi, r_vals = _time_major(pi_values), _time_major(r_values)

    x_store = _new_store(problem, path)
    maps = _mm(gain, _along(pi, forward)[:-1])
    offsets = _mm(gain, _along(r_vals, forward)[:-1])
    offsets += _const(path.dt * (problem.G @ (offset - scale * rinv @ problem.eta.conj().T)))
    _state_sweep(problem, path, maps, offsets, x_store)
    del maps, offsets

    u_path = feedback_control(_public(pi), _public(r_vals), _public(x_store), problem)
    if kind == "scale":
        u_path *= scale
    elif kind == "offset":
        u_path += offset
    return _public(x_store), u_path


# ----------------------------------------------------------- time reversal


def time_reverse(problem, path):
    """Map between the qt and q0 forms by s = T - t.

    Constant coefficients are unchanged (hatting is the identity on
    constants); the boundary data swap roles; the noise path reverses and
    the Ito table flips sign, following the reversal convention
    N_a(s) = M_a(T-s), sigma~ = -sigma, the one every recursion uses.
    Applying the map twice restores both objects bit-exactly.
    """
    flipped = replace(problem, direction=Q0 if problem.direction == QT else QT)
    reversed_path = replace(path, dm1=path.dm1[:, ::-1].copy(), sigma=-path.sigma)
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
    base_chunks = []
    diff_chunks = [[] for _ in perturbations]
    k_defects = []
    for start in range(0, path.n_paths, _CHUNK_PATHS):
        chunk = path.pick(range(start, min(start + _CHUNK_PATHS, path.n_paths)))
        iteration = iterate_riccati(problem, chunk, n_max=n_max, tol=tol)
        if not iteration.converged:
            raise NotConvergedError(
                f"Riccati iteration did not converge on the chunk at path {start}")
        pi_values = iteration.final
        r_values = solve_r(problem, pi_values, chunk)
        x_opt, u_opt = closed_loop_state(problem, pi_values, r_values, chunk)
        _, _, base_costs = cost_tilde(problem, u_opt, xi, x_opt, chunk.dt)
        del u_opt  # only x_opt enters the K identity; free it for the loop below
        base_chunks.append(base_costs)
        for law, diffs in zip(perturbations, diff_chunks):
            x_pert, u_pert = closed_loop_state(problem, pi_values, r_values, chunk, law=law)
            _, _, pert_costs = cost_tilde(problem, u_pert, xi, x_pert, chunk.dt)
            diffs.append(pert_costs - base_costs)
            if start == 0:
                k_defects.append(_k_identity_defect(
                    problem, xi, pi_values, r_values, x_opt, x_pert, u_pert, chunk.dt))

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


def _k_identity_defect(problem, xi, pi_values, r_values, x_opt, x_pert, u_pert, dt):
    """Cross term of the completion-of-squares decomposition.

    With Lambda = -R^{-1}G*Pi and lam = -R^{-1}(G*r + eta*), the proof's
    cross term

        K = int <xi, [Xh* Q Y + (Lambda Xh + mu)* R (Lambda Y + lam)
                      + Xh* m* + (Lambda Xh + mu)* eta*] xi> dt
            + <xi, [Xh(0)* m0* + Xh(0)* Q0 Y(0)] xi>

    vanishes in the continuum; here it is evaluated by trapezoid quadrature
    on the first ``_K_IDENTITY_PATHS`` paths and its magnitude is the
    returned defect (boundary terms mirror for qt).
    """
    xi = np.asarray(xi, dtype=complex).reshape(problem.dim)
    rinv = _const(np.linalg.inv(problem.R))
    gs = _const(problem.G.conj().T)
    pi, r_vals, y, x_p, u_p = (_time_major(arr[:_K_IDENTITY_PATHS])
                               for arr in (pi_values, r_values, x_opt, x_pert, u_pert))
    x_hat = x_p - y
    lam_gain = -_mm(rinv, _mm(gs, pi))
    lam_aff = -_mm(rinv, _mm(gs, r_vals) + _const(problem.eta.conj().T))
    mu = u_p - _mm(lam_gain, x_p) - lam_aff

    lam_y = _mm(lam_gain, y) + lam_aff
    lam_xh_mu = _mm(lam_gain, x_hat) + mu

    col = xi[:, None]
    xi_col = _const(col)
    xh_col, y_col = _mm(x_hat, xi_col), _mm(y, xi_col)
    lxh_col, ly_col = _mm(lam_xh_mu, xi_col), _mm(lam_y, xi_col)
    integrand = (
        _pair(xh_col, problem.Q, y_col)
        + _pair(lxh_col, problem.R, ly_col)
        + _linear(xh_col, problem.m, col)
        + _linear(lxh_col, problem.eta, col)
    )
    quad, lin = _edge_terms(problem, xh_col, y_col, col)
    k_val = _trapezoid(integrand, dt) + lin + quad
    return float(np.max(np.abs(k_val)))
