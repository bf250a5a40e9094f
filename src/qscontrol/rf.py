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
``solve_r``) negate the Ito table and the noise increments; the state
recursion uses the increments unchanged on both branches.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NotConvergedError, ShapeError
from .linalg import as_matrix, herm, is_hermitian
from .seeding import spawn_rngs

# --------------------------------------------------------------- surrogate

PLANAR_BROWNIAN = "planar-brownian"
FOCK_VACUUM = "truncated-fock-vacuum"


@dataclass
class LevyPairSurrogate:
    """Discretized realization of an adjoint pair of scalar integrators.

    ``dm1``/``dm2`` have shape (n_paths, n_steps); dm2 = conj(dm1) holds
    pathwise.  ``sigma`` is the 2x2 Ito table dM_b* dM_a = sigma[b,a] dt;
    only Boson-type pairs (rho = id) are realized.  For the Fock kind the
    scalar driving increments are the vacuum expectations (zero); the
    operator increments behind the table are exposed by
    ``fock_increment_matrices``.
    """

    kind: str
    dt: float
    dm1: np.ndarray
    dm2: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        self.dm1 = np.atleast_2d(np.asarray(self.dm1, dtype=complex))
        self.dm2 = np.atleast_2d(np.asarray(self.dm2, dtype=complex))
        if self.dm1.shape != self.dm2.shape:
            raise ShapeError("dm1 and dm2 must share a shape")
        if self.n_steps < 1:
            raise ShapeError("path must carry at least one step")
        if np.max(np.abs(self.dm2 - self.dm1.conj())) > 1e-12:
            raise ShapeError("dm2 must be the pathwise conjugate of dm1")
        self.sigma = np.asarray(self.sigma, dtype=complex).reshape(2, 2)

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
        return replace(self, dm1=self.dm1[idx], dm2=self.dm2[idx])


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
    if kind == PLANAR_BROWNIAN:
        dm1 = np.empty((n_paths, n_steps), dtype=complex)
        for idx, rng in enumerate(spawn_rngs(seed, n_paths)):
            db = rng.normal(size=(2, n_steps)) * math.sqrt(dt)
            dm1[idx] = (db[0] + 1j * db[1]) / math.sqrt(2.0)
        sigma = np.eye(2, dtype=complex)
        return LevyPairSurrogate(kind, dt, dm1, dm1.conj(), sigma)
    if kind == FOCK_VACUUM:
        zeros = np.zeros((n_paths, n_steps), dtype=complex)
        sigma = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        return LevyPairSurrogate(kind, dt, zeros, zeros, sigma)
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
    zero = np.zeros((1, 1))
    return RfProblem(
        F=[[0.3]], G=np.eye(1), L=zero, w=zero, z=np.eye(1), F1=zero, F2=zero,
        Q=[[0.8]], R=np.eye(1), m=zero, eta=zero,
        boundary_gain=[[1.2]], boundary_linear=zero, C=np.eye(1), direction=Q0,
    )


# -------------------------------------------------------------- time grid


def _along(arr, forward):
    """``arr`` (paths first, time second) in stepping order: as it is for a
    recursion that runs forward in time, time-reversed view otherwise."""
    return arr if forward else arr[:, ::-1]


def _adj(arr):
    return arr.conj().swapaxes(-1, -2)


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


def _step_factors(problem, path, pi_path):
    """Per-step left multipliers M_j for the closed-loop recursion.

    pi_path has shape (P, T+1, d, d) and supplies the gain samples of the
    previous iterate; returns (P, T, d, d).  The qt branch mirrors the
    construction: negated drift quadratic (the reversed table carries
    -sigma) and negated increments.
    """
    dt = path.dt
    eye = np.eye(problem.dim)
    gq = problem.gain_quad()
    c1, c2 = problem.noise_couplings()
    sign = 1.0 if problem.direction == Q0 else -1.0
    s_mat = sign * problem.drift_quadratic(path.sigma)

    pi_mid = 0.5 * (pi_path[:, :-1] + pi_path[:, 1:])
    drift = problem.F + s_mat - np.matmul(gq, pi_mid)
    drift_star = _adj(drift)
    cay = np.linalg.solve(eye - 0.5 * dt * drift_star, eye + 0.5 * dt * drift_star)

    dm1 = sign * path.dm1[..., None, None]
    dm2 = sign * path.dm2[..., None, None]
    mart = eye + dm1 * c1 + dm2 * c2
    return np.matmul(cay, _adj(mart))


def _duhamel_sweep(problem, path, gain_path, inhom):
    """Run Pi(j+1) = M_j [Pi(j) + dt/2 W(j)] M_j* + dt/2 W(j+1) away from the
    boundary gain, with M_j the step factors of ``gain_path`` and W the
    stacked PSD inhomogeneity ``inhom``.  q0 steps forward from Pi(0); qt
    runs the same loop on time-reversed views, from Pi(T).

    Each step symmetrizes the congruence output and records the largest
    pre-symmetrization defect; returns (path, defect).
    """
    dt, n_steps, dim = path.dt, path.n_steps, problem.dim
    forward = problem.direction == Q0
    factors = _step_factors(problem, path, gain_path)
    out = np.empty((gain_path.shape[0], n_steps + 1, dim, dim), dtype=complex)
    pi_k, m_k, w_k = (_along(arr, forward) for arr in (out, factors, inhom))
    defect = 0.0
    pi_k[:, 0] = problem.boundary_gain
    for k in range(n_steps):
        m = m_k[:, k]
        stage = pi_k[:, k] + 0.5 * dt * w_k[:, k]
        nxt = np.matmul(np.matmul(m, stage), _adj(m)) + 0.5 * dt * w_k[:, k + 1]
        defect = max(defect, float(np.max(np.abs(nxt - _adj(nxt)))))
        pi_k[:, k + 1] = 0.5 * (nxt + _adj(nxt))
    return out, defect


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
    gq = problem.gain_quad()

    times = np.linspace(0.0, n_steps * path.dt, n_steps + 1)
    start = np.asarray(
        initial if initial is not None else problem.boundary_gain, dtype=complex
    )
    current = np.broadcast_to(start, (path.n_paths, n_steps + 1, dim, dim)).copy()

    sup_diffs, margins = [], []
    herm_res = 0.0
    for _ in range(2, n_max + 1):
        inhom = problem.Q + np.matmul(np.matmul(current, gq), current)
        nxt, step_defect = _duhamel_sweep(problem, path, current, inhom)
        herm_res = max(herm_res, step_defect)
        diff = current - nxt  # monotone decrease means diff is PSD
        sup_diffs.append(float(np.max(np.sqrt(np.sum(np.abs(diff) ** 2, axis=(-2, -1))))))
        margins.append(float(np.min(min_eig_batch(0.5 * (diff + _adj(diff))))))
        current = nxt
        if sup_diffs[-1] <= tol:
            break
    return RiccatiIteration(
        times=times,
        final=current,
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
    gq = problem.gain_quad()
    inhom = problem.Q - np.matmul(np.matmul(pi_path, gq), pi_path)
    rebuilt, _ = _duhamel_sweep(problem, path, np.zeros_like(pi_path), inhom)
    defect = np.sqrt(np.sum(np.abs(rebuilt - pi_path) ** 2, axis=(-2, -1)))
    return float(np.max(defect))


# ------------------------------------------------------------------ states


def simulate_state(problem, u, path):
    """Euler state path under a control; returns (P, T+1, d, d).

    ``u`` is None (zero control), a stacked array (P, T+1, d, d), or a
    callable ``u(j, X_j) -> control matrix batch`` evaluated at the step's
    anchor point (the known endpoint: j+1 backward, j forward).  The q0
    state runs backward from X(T) = C, the qt state forward from X(0) = C;
    both use the increments unchanged.
    """
    n_steps, dt, dim = path.n_steps, path.dt, problem.dim
    forward = problem.direction == QT
    out = np.empty((path.n_paths, n_steps + 1, dim, dim), dtype=complex)
    x_k = _along(out, forward)
    dm1_k = _along(path.dm1, forward)[..., None, None]
    dm2_k = _along(path.dm2, forward)[..., None, None]
    anchors = range(n_steps + 1) if forward else range(n_steps, -1, -1)

    def control_at(j, x_now):
        if u is None:
            return np.zeros_like(x_now)
        if callable(u):
            return u(j, x_now)
        return u[:, j]

    x_k[:, 0] = problem.C
    for k in range(n_steps):
        x_now = x_k[:, k]
        u_now = control_at(anchors[k], x_now)
        drift = np.matmul(problem.F, x_now) + np.matmul(problem.G, u_now) + problem.L
        coupling = np.matmul(problem.w, x_now) + problem.z
        noise = (dm1_k[:, k] * np.matmul(problem.F1, coupling)
                 + dm2_k[:, k] * np.matmul(problem.F2, coupling))
        x_k[:, k + 1] = x_now + dt * drift + noise
    return out


def _pair(a_path, weight, b_path, xi):
    """<a xi, W b xi> at every (path, time) point of stacked paths."""
    av = np.matmul(a_path, xi)
    bv = np.matmul(b_path, xi)
    return np.einsum("ptd,de,pte->pt", av.conj(), weight, bv)


def _linear(a_path, weight, xi):
    """<a xi, W* xi> at every (path, time) point of a stacked path."""
    av = np.matmul(a_path, xi)
    return np.einsum("ptd,d->pt", av.conj(), weight.conj().T @ xi)


def _trapezoid(integrand, dt):
    """Trapezoid rule along the time axis of (P, T+1) samples."""
    weights = np.full(integrand.shape[1], dt)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return integrand @ weights


def _edge_terms(problem, a_path, b_path, xi):
    """<a xi, Q0 b xi> and <a xi, m0* xi> at the edge the boundary cost
    weighs: t = 0 for q0, t = T for qt."""
    edge = 0 if problem.direction == Q0 else -1
    av = np.matmul(a_path[:, edge], xi)
    bv = np.matmul(b_path[:, edge], xi)
    quad = np.einsum("pd,de,pe->p", av.conj(), problem.boundary_gain, bv)
    lin = np.einsum("pd,d->p", av.conj(), problem.boundary_linear.conj().T @ xi)
    return quad, lin


def _stderr(samples):
    """Standard error of the mean (0 for a single sample)."""
    return float(np.std(samples, ddof=1) / math.sqrt(len(samples))) if len(samples) > 1 else 0.0


def cost_tilde(problem, u_path, xi, x_path, dt):
    """Per-path quadratic cost (trapezoid in time) and ensemble stats.

    Returns (mean, stderr, per-path array).  The boundary terms follow the
    problem direction: initial-state weights for q0, terminal for qt.
    """
    xi = np.asarray(xi, dtype=complex).reshape(problem.dim)
    if np.linalg.norm(xi) == 0:
        raise ShapeError("xi must be nonzero")

    running = (
        _pair(x_path, problem.Q, x_path, xi).real
        + _pair(u_path, problem.R, u_path, xi).real
        + 2.0 * _linear(x_path, problem.m, xi).real
        + 2.0 * _linear(u_path, problem.eta, xi).real
    )
    quad, lin = _edge_terms(problem, x_path, x_path, xi)
    costs = _trapezoid(running, dt) + quad.real
    costs = costs + 2.0 * lin.real
    return float(np.mean(costs)), _stderr(costs), costs


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
    B_a the martingale coefficients of the Riccati path.  The qt branch
    runs the same loop on time-reversed views from r(T) = boundary_linear*,
    with negated table and increments.
    """
    n_steps, dt, dim = path.n_steps, path.dt, problem.dim
    forward = problem.direction == Q0
    sign = 1.0 if forward else -1.0
    sig = sign * path.sigma

    gq = problem.gain_quad()
    c1, c2 = problem.noise_couplings()
    c1s, c2s = c1.conj().T, c2.conj().T
    f1z = problem.F1 @ problem.z
    f2z = problem.F2 @ problem.z
    m_star = problem.m.conj().T
    eta_pull = problem.G @ np.linalg.inv(problem.R) @ problem.eta.conj().T

    out = np.empty((pi_path.shape[0], n_steps + 1, dim, dim), dtype=complex)
    r_k, pi_k = _along(out, forward), _along(pi_path, forward)
    dm1_k = sign * _along(path.dm1, forward)[..., None, None]
    dm2_k = sign * _along(path.dm2, forward)[..., None, None]
    r_k[:, 0] = problem.boundary_linear.conj().T

    for k in range(n_steps):
        r_now = r_k[:, k]
        pi_now = pi_k[:, k]
        b1 = np.matmul(c2s, pi_now) + np.matmul(pi_now, c1)
        b2 = np.matmul(c1s, pi_now) + np.matmul(pi_now, c2)
        d1_r = np.matmul(c2s, r_now)
        d2_r = np.matmul(c1s, r_now)
        d1 = d1_r + np.matmul(pi_now, f1z)
        d2 = d2_r + np.matmul(pi_now, f2z)
        drift = (
            np.matmul(problem.F.conj().T, r_now)
            - np.matmul(np.matmul(pi_now, gq), r_now)
            + np.matmul(pi_now, problem.L)
            + m_star
            - np.matmul(pi_now, eta_pull)
            + np.matmul(b1, sig[1, 0] * f1z + sig[1, 1] * f2z)
            + np.matmul(b2, sig[0, 0] * f1z + sig[0, 1] * f2z)
            + np.matmul(c1s, sig[0, 0] * d1_r + sig[0, 1] * d2_r)
            + np.matmul(c2s, sig[1, 0] * d1_r + sig[1, 1] * d2_r)
        )
        # bracketed so the increment is summed before it meets r
        r_k[:, k + 1] = r_now + (dt * drift + dm1_k[:, k] * d1 + dm2_k[:, k] * d2)
    return out


def feedback_control(pi_values, r_values, x_values, problem):
    """u = -R^{-1} (G* (Pi X + r) + eta*) on stacked arrays."""
    rinv = np.linalg.inv(problem.R)
    gs = problem.G.conj().T
    inner = np.matmul(pi_values, x_values) + r_values
    return -np.matmul(rinv, np.matmul(gs, inner) + problem.eta.conj().T)


def closed_loop_state(problem, pi_values, r_values, path, law=None):
    """State path under the feedback law (or a perturbation of it).

    ``law`` is None for the optimal u, ("scale", c), or ("offset", M).
    Returns (x_path, u_path).  The feedback is evaluated once per state
    point: each control is recorded as the simulation applies it, and the
    endpoint no step is anchored at (0 for q0, T for qt) is filled last.
    """
    kind, val = law if law is not None else (None, None)
    if kind not in (None, "scale", "offset"):
        raise ShapeError(f"unknown perturbation kind {kind!r}")
    u_path = np.empty((path.n_paths, path.n_steps + 1, problem.dim, problem.dim), dtype=complex)

    def controller(j, x_now):
        u_now = feedback_control(pi_values[:, j], r_values[:, j], x_now, problem)
        if kind == "scale":
            u_now = float(val) * u_now
        elif kind == "offset":
            u_now = u_now + np.asarray(val, dtype=complex)
        u_path[:, j] = u_now
        return u_now

    x_path = simulate_state(problem, controller, path)
    edge = 0 if problem.direction == Q0 else path.n_steps
    controller(edge, x_path[:, edge])
    return x_path, u_path


# ----------------------------------------------------------- time reversal


def time_reverse(problem, path=None):
    """Map between the qt and q0 forms by s = T - t.

    Constant coefficients are unchanged (hatting is the identity on
    constants); the boundary data swap roles; the noise path reverses and
    negates, and the Ito table flips sign, following the stated reversal
    convention N_a(s) = -M_a(T-s), sigma~ = -sigma.  Applying the map
    twice restores both objects bit-exactly.
    """
    flipped = replace(problem, direction=Q0 if problem.direction == QT else QT)
    if path is None:
        return flipped, None
    reversed_path = replace(
        path,
        dm1=-path.dm1[:, ::-1].copy(),
        dm2=-path.dm2[:, ::-1].copy(),
        sigma=-path.sigma,
    )
    return flipped, reversed_path


# ------------------------------------------------------------ optimality


def verify_feedback_optimality(problem, xi, path, perturbations=None, n_max=40, tol=1e-8,
                     k_identity_paths=3):
    """Feedback-law optimality report on a path ensemble.

    Runs the Picard iteration and the r-process, simulates the closed loop
    under the optimal law and under each perturbation with common noise,
    and reports paired cost dominance plus the cross-term (K) identity
    defect on sample paths.
    """
    perturbations = perturbations if perturbations is not None else [
        ("scale", 0.5), ("scale", 0.8), ("scale", 1.2), ("scale", 1.5),
        ("offset", 0.1), ("offset", -0.2),
    ]
    iteration = iterate_riccati(problem, path, n_max=n_max, tol=tol)
    if not iteration.converged:
        raise NotConvergedError("Riccati iteration did not converge; enlarge n_max")
    pi_values = iteration.final
    r_values = solve_r(problem, pi_values, path)
    dt = path.dt

    x_opt, u_opt = closed_loop_state(problem, pi_values, r_values, path)
    _, _, base_costs = cost_tilde(problem, u_opt, xi, x_opt, dt)

    comparisons = []
    k_defects = []
    for law in perturbations:
        if law[0] == "offset" and np.ndim(law[1]) == 0:
            law = ("offset", float(law[1]) * np.eye(problem.dim))
        x_pert, u_pert = closed_loop_state(problem, pi_values, r_values, path, law=law)
        _, _, pert_costs = cost_tilde(problem, u_pert, xi, x_pert, dt)
        diff = pert_costs - base_costs
        stderr = _stderr(diff)
        comparisons.append(
            {
                "perturbation": (law[0], np.asarray(law[1]).tolist()),
                "mean_excess": float(np.mean(diff)),
                "stderr": stderr,
                "dominates_2sigma": bool(np.mean(diff) > 2.0 * stderr),
                "min_excess": float(np.min(diff)),
            }
        )
        k_defects.append(
            _k_identity_defect(
                problem, xi, pi_values, r_values, x_opt, x_pert, u_pert, dt,
                n_sample=k_identity_paths,
            )
        )
    return {
        "iteration": iteration,
        "base_cost_mean": float(np.mean(base_costs)),
        "base_costs": base_costs,
        "comparisons": comparisons,
        "k_identity_max_defect": float(np.max(k_defects)) if k_defects else 0.0,
    }


def _k_identity_defect(problem, xi, pi_values, r_values, x_opt, x_pert, u_pert, dt,
                       n_sample=3):
    """Cross term of the completion-of-squares decomposition.

    With Lambda = -R^{-1}G*Pi and lam = -R^{-1}(G*r + eta*), the proof's
    cross term

        K = int <xi, [Xh* Q Y + (Lambda Xh + mu)* R (Lambda Y + lam)
                      + Xh* m* + (Lambda Xh + mu)* eta*] xi> dt
            + <xi, [Xh(0)* m0* + Xh(0)* Q0 Y(0)] xi>

    vanishes in the continuum; here it is evaluated by trapezoid quadrature
    on sample paths and its magnitude is the returned defect (boundary
    terms mirror for qt).
    """
    xi = np.asarray(xi, dtype=complex).reshape(problem.dim)
    rinv = np.linalg.inv(problem.R)
    gs = problem.G.conj().T
    take = min(n_sample, x_opt.shape[0])
    x_hat = x_pert[:take] - x_opt[:take]
    lam_gain = -np.matmul(rinv, np.matmul(gs, pi_values[:take]))
    lam_aff = -np.matmul(rinv, np.matmul(gs, r_values[:take]) + problem.eta.conj().T)
    mu = u_pert[:take] - np.matmul(lam_gain, x_pert[:take]) - lam_aff

    lam_y = np.matmul(lam_gain, x_opt[:take]) + lam_aff
    lam_xh_mu = np.matmul(lam_gain, x_hat) + mu

    integrand = (
        _pair(x_hat, problem.Q, x_opt[:take], xi)
        + _pair(lam_xh_mu, problem.R, lam_y, xi)
        + _linear(x_hat, problem.m, xi)
        + _linear(lam_xh_mu, problem.eta, xi)
    )
    quad, lin = _edge_terms(problem, x_hat, x_opt[:take], xi)
    k_val = _trapezoid(integrand, dt) + lin + quad
    return float(np.max(np.abs(k_val)))
