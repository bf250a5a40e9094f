"""Classical quadratic control: LQR, LQG with Kalman-Bucy filtering,
differential and algebraic Riccati solvers.

Conventions (real matrices throughout):

* state        dx = (A x + u) dt + C dB,   x(0) = x0
* observation  dy = H x dt + sqrt(obs_noise) dW
* cost         J(u) = E[ int_0^T (<x,Qx> + <u,u>) dt + <x_T, Pi_T x_T> ]
* backward Riccati   Pi' = Pi^2 - A* Pi - Pi A - Q,  Pi(T) = Pi_T
* algebraic Riccati  A* Pi + Pi A + Q - Pi^2 = 0 (stabilizing PSD root)
* filter (standard Kalman-Bucy completion)
      dxh = (A xh + u) dt + P H* (dy - H xh dt),
      P'  = A P + P A* + C C* - P H* H P,  P(0) = 0.

The control weight is fixed to the identity; the general weight R lives in
the representation-free module.

Time stepping: the Riccati equation is solved first on a uniform grid with
fixed-step RK4; state integrations share that grid, freeze the gain per
step, and propagate the drift exactly (matrix exponential of the frozen
closed loop), adding Euler-Maruyama noise increments.  The zero-noise LQG
run therefore reproduces the deterministic LQR trajectory to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov

from .errors import BlowUpError, NotConvergedError, ShapeError
from .linalg import as_matrix, fro, herm, is_hermitian
from .seeding import spawn_rngs

BLOWUP_NORM = 1e12


# ------------------------------------------------------------------- types


@dataclass
class LqProblem:
    """Linear-quadratic problem data (deterministic when C is absent)."""

    A: np.ndarray
    Q: np.ndarray
    Pi_T: np.ndarray
    horizon: float
    C: np.ndarray | None = None
    H_obs: np.ndarray | None = None
    obs_noise: float = 1.0
    x0: np.ndarray | None = None

    def __post_init__(self):
        self.A = np.real(as_matrix(self.A, name="A")).astype(float)
        n = self.A.shape[0]
        self.Q = np.real(as_matrix(self.Q, n, name="Q")).astype(float)
        self.Pi_T = np.real(as_matrix(self.Pi_T, n, name="Pi_T")).astype(float)
        for name, mat in (("Q", self.Q), ("Pi_T", self.Pi_T)):
            if not is_hermitian(mat, 1e-12) or np.linalg.eigvalsh(mat)[0] < -1e-12:
                raise ShapeError(f"{name} must be symmetric PSD")
        if self.C is not None:
            self.C = np.real(as_matrix(self.C, n, name="C")).astype(float)
        if self.H_obs is not None:
            self.H_obs = np.real(as_matrix(self.H_obs, n, name="H_obs")).astype(float)
        if self.horizon <= 0:
            raise ShapeError("horizon must be positive")
        if self.obs_noise < 0:
            raise ShapeError("observation noise intensity must be >= 0")
        if self.x0 is not None:
            self.x0 = np.asarray(self.x0, dtype=float).reshape(n)

    @property
    def dim(self):
        return self.A.shape[0]


@dataclass
class RiccatiSolution:
    """Backward Riccati solution sampled on an increasing grid."""

    times: np.ndarray
    gains: np.ndarray  # shape (len(times), n, n), gains[k] = Pi(times[k])

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.gains = np.asarray(self.gains, dtype=float)

    def initial(self):
        return self.gains[0]

    def symmetry_defect(self):
        return max(fro(g - g.T) for g in self.gains)


# ------------------------------------------------------------ Riccati ODEs


def solve_riccati_ode(problem, steps=400):
    """Integrate Pi' = Pi^2 - A*Pi - Pi A - Q backward from Pi(T) = Pi_T.

    Fixed-step RK4 in reversed time with per-step symmetrization; raises
    ``BlowUpError`` with the escape time if the solution leaves the
    ||Pi|| <= 1e12 ball (finite-time blow-up travels backward from T).
    """
    if steps < 10:
        raise ShapeError("need at least 10 steps")
    a_mat, q_mat = problem.A, problem.Q
    horizon = problem.horizon
    dt = horizon / steps

    def rhs(sig):
        # reversed time s = T - t: d(Sig)/ds = A* Sig + Sig A + Q - Sig^2
        return a_mat.T @ sig + sig @ a_mat + q_mat - sig @ sig

    gains = np.empty((steps + 1, problem.dim, problem.dim))
    sig = problem.Pi_T.copy()
    gains[steps] = sig
    for k in range(steps):
        s0 = k * dt
        k1 = rhs(sig)
        k2 = rhs(sig + 0.5 * dt * k1)
        k3 = rhs(sig + 0.5 * dt * k2)
        k4 = rhs(sig + dt * k3)
        sig = sig + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        sig = 0.5 * (sig + sig.T)
        if not np.all(np.isfinite(sig)) or fro(sig) > BLOWUP_NORM:
            raise BlowUpError(
                f"Riccati solution escaped at t = {horizon - (s0 + dt):.6g}",
                escape_time=horizon - (s0 + dt),
            )
        gains[steps - 1 - k] = sig
    times = np.linspace(0.0, horizon, steps + 1)
    return RiccatiSolution(times, gains)


def solve_are(a_mat, q_mat):
    """Stabilizing PSD solution of A*Pi + Pi A + Q - Pi^2 = 0.

    Newton iteration on Lyapunov equations (Kleinman scheme with B = R = I):
    starting from a stabilizing shift Pi_0 = alpha I, each step solves

        (A - Pi_k)* Pi_{k+1} + Pi_{k+1} (A - Pi_k) = -Q - Pi_k Pi_k.

    Raises ``NotConvergedError`` when no stabilizing start exists or the
    Frobenius residual does not reach 1e-10 within 60 steps.
    """
    a_mat = np.real(as_matrix(a_mat, name="A")).astype(float)
    q_mat = np.real(as_matrix(q_mat, a_mat.shape[0], name="Q")).astype(float)
    n = a_mat.shape[0]
    max_re = float(np.max(np.real(np.linalg.eigvals(a_mat))))
    pi = np.zeros((n, n)) if max_re < -1e-9 else (max_re + 1.0) * np.eye(n)
    if np.max(np.real(np.linalg.eigvals(a_mat - pi))) >= 0:
        raise NotConvergedError("no stabilizing initial gain found")
    for _ in range(60):
        closed = a_mat - pi
        nxt = solve_continuous_lyapunov(closed.T, -(q_mat + pi @ pi))
        nxt = 0.5 * (nxt + nxt.T)
        residual = are_residual(a_mat, q_mat, nxt)
        pi = nxt
        if residual <= 1e-10:
            break
    else:
        raise NotConvergedError(f"Newton iteration stalled at residual {residual:.3e}")
    if np.linalg.eigvalsh(pi)[0] < -1e-9:
        raise NotConvergedError("Newton iteration left the PSD cone")
    if np.max(np.real(np.linalg.eigvals(a_mat - pi))) >= 0:
        raise NotConvergedError("returned gain does not stabilize A - Pi")
    return pi


def are_residual(a_mat, q_mat, pi):
    return fro(a_mat.T @ pi + pi @ a_mat + q_mat - pi @ pi)


# ------------------------------------------------------------- simulation


def _gain_schedule(riccati, perturbation):
    """Per-step feedback gains; ``perturbation`` is None, ('offset', D) or
    ('scale', c)."""
    gains = riccati.gains
    if perturbation is None:
        return gains
    kind, val = perturbation
    if kind == "offset":
        return gains + np.asarray(val, dtype=float)
    if kind == "scale":
        return float(val) * gains
    raise ShapeError(f"unknown perturbation kind {kind!r}")


def lqr_simulate(problem, control=None, steps=400, riccati=None):
    """Deterministic closed-loop run; returns (times, states, cost).

    ``control`` is None for the optimal feedback u = -Pi_t x, or a
    ('offset', D) / ('scale', c) perturbation of the gain.  The gain is
    frozen per step (zero-order hold) and the closed loop propagated by
    matrix exponentials; the running cost uses per-step Simpson quadrature.
    """
    if problem.C is not None:
        raise ShapeError("lqr_simulate expects a deterministic problem (C absent)")
    if problem.x0 is None:
        raise ShapeError("problem must carry x0")
    riccati = riccati if riccati is not None else solve_riccati_ode(problem, steps)
    steps = len(riccati.times) - 1
    dt = problem.horizon / steps
    gains = _gain_schedule(riccati, control)
    halves = expm((problem.A - gains[:steps]) * (dt / 2.0))
    x = problem.x0

    cost = 0.0
    states = np.empty((steps + 1, problem.dim))
    states[0] = x
    for k in range(steps):
        gain = gains[k]
        half = halves[k]
        x_mid = half @ x
        x_new = half @ x_mid
        weight = problem.Q + gain.T @ gain
        cost += (dt / 6.0) * (
            x @ weight @ x + 4.0 * (x_mid @ weight @ x_mid) + x_new @ weight @ x_new
        )
        x = x_new
        states[k + 1] = x
    cost += x @ problem.Pi_T @ x
    return riccati.times, states, float(cost)


def filter_covariance(problem, steps=400):
    """Kalman-Bucy error covariance P on the shared grid, P(0) = 0."""
    if problem.H_obs is None:
        raise ShapeError("filter covariance needs an observation matrix")
    n = problem.dim
    c_mat = problem.C if problem.C is not None else np.zeros((n, n))
    cc = c_mat @ c_mat.T
    h_mat = problem.H_obs
    # dy = H x dt + sqrt(r) dW has innovation intensity r; the information
    # form scales H* H by 1/r.  r = 0 degenerates to a noiseless observer.
    inv_r = 0.0 if problem.obs_noise == 0 else 1.0 / problem.obs_noise
    dt = problem.horizon / steps

    def rhs(p):
        drift = problem.A @ p + p @ problem.A.T + cc
        if inv_r:
            drift = drift - p @ h_mat.T @ h_mat @ p * inv_r
        return drift

    out = np.empty((steps + 1, n, n))
    p = np.zeros((n, n))
    out[0] = p
    for k in range(steps):
        k1 = rhs(p)
        k2 = rhs(p + 0.5 * dt * k1)
        k3 = rhs(p + 0.5 * dt * k2)
        k4 = rhs(p + dt * k3)
        p = herm(p + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)).real
        out[k + 1] = p
    return out


def lqg_simulate(problem, seed, n_paths, steps=400, perturbation=None, riccati=None):
    """Monte Carlo LQG run with the standard Kalman-Bucy filter.

    Returns a dict with the cost mean, its standard error, per-path costs,
    and filter-error statistics.  Path k draws its noise from the seed
    splitting rule in ``qscontrol.seeding``; using the same seed with a
    perturbed gain therefore yields paired (common random numbers) runs.
    """
    if problem.H_obs is None:
        raise ShapeError("lqg_simulate needs an observation matrix")
    if problem.x0 is None:
        raise ShapeError("problem must carry x0")
    if n_paths < 1:
        raise ShapeError("n_paths must be >= 1")
    riccati = riccati if riccati is not None else solve_riccati_ode(problem, steps)
    steps = len(riccati.times) - 1
    dt = problem.horizon / steps
    n = problem.dim
    gains = _gain_schedule(riccati, perturbation)
    p_path = filter_covariance(problem, steps)
    c_mat = problem.C if problem.C is not None else np.zeros((n, n))
    h_mat = problem.H_obs
    sqrt_r = np.sqrt(problem.obs_noise)
    inv_r = 0.0 if problem.obs_noise == 0 else 1.0 / problem.obs_noise

    # Per-step half-step joint propagators for the frozen-gain closed loop:
    # z = (x, xh),  dz = M_k z dt + noise,  filter gain K_k = P_k H*/r.
    # The running cost uses the same per-step Simpson rule as lqr_simulate,
    # so the zero-noise run reproduces the deterministic cost to rounding.
    held = gains[:steps]
    k_filters = p_path[:steps] @ h_mat.T * inv_r
    k_h = k_filters @ h_mat
    generators = np.empty((steps, 2 * n, 2 * n))
    generators[:, :n, :n] = problem.A
    generators[:, :n, n:] = -held
    generators[:, n:, :n] = k_h
    generators[:, n:, n:] = problem.A - held - k_h
    halves = expm(generators * (dt / 2.0))

    # Pre-draw all increments path by path (seed-splitting contract), then
    # run the time loop vectorized over the whole ensemble.
    rngs = spawn_rngs(seed, n_paths)
    db = np.empty((n_paths, steps, n))
    dw = np.empty((n_paths, steps, n))
    for idx, rng in enumerate(rngs):
        db[idx] = rng.normal(size=(steps, n)) * np.sqrt(dt)
        dw[idx] = rng.normal(size=(steps, n)) * np.sqrt(dt)

    def running(z, gain):
        x_part, xh_part = z[:, :n], z[:, n:]
        u_part = xh_part @ gain.T
        return np.einsum("pi,ij,pj->p", x_part, problem.Q, x_part) + np.sum(
            u_part * u_part, axis=1
        )

    z = np.tile(np.concatenate([problem.x0, problem.x0]), (n_paths, 1))
    costs = np.zeros(n_paths)
    sq_err = 0.0
    for k in range(steps):
        gain = gains[k]
        z_mid = z @ halves[k].T
        z_end = z_mid @ halves[k].T
        costs += (dt / 6.0) * (
            running(z, gain) + 4.0 * running(z_mid, gain) + running(z_end, gain)
        )
        z = z_end.copy()
        z[:, :n] += db[:, k] @ c_mat.T
        z[:, n:] += (sqrt_r * dw[:, k]) @ k_filters[k].T
        sq_err += float(np.sum((z[:, :n] - z[:, n:]) ** 2))
    costs += np.einsum("pi,ij,pj->p", z[:, :n], problem.Pi_T, z[:, :n])
    mean = float(np.mean(costs))
    stderr = float(np.std(costs, ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    return {
        "cost_mean": mean,
        "cost_stderr": stderr,
        "costs": costs,
        "mean_sq_filter_error": sq_err / (n_paths * steps),
        "filter_covariance_final": p_path[-1],
    }
