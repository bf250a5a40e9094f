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

Time stepping: ``linalg.rk4`` solves both Riccati equations on a uniform
grid, unsymmetrized, and one scan afterwards finds a blow-up.  State
integrations share that grid, freeze the gain per step, and propagate the
drift exactly (matrix exponential of the frozen closed loop); all laws of
a run share one batch axis of one sweep, and lqg adds Euler-Maruyama
increments drawn once for every law.  The zero-noise LQG run therefore
reproduces the deterministic LQR trajectory to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag, expm, solve_continuous_lyapunov

from .errors import BlowUpError, NotConvergedError, ShapeError
from .linalg import as_matrix, fro, is_hermitian, rk4
from .seeding import spawn_rngs, standard_error

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


def _riccati(m_mat, n_mat, k_mat, start, grid):
    """RK4 states of X' = M X + X M* + N - X K X on ``grid``, X(grid[0]) = start.

    No step symmetrizes X (``symmetry_defect`` measures the result).  The
    first grid point where ||X||_F is not <= 1e12, inf and NaN included,
    raises ``BlowUpError`` with that time.
    """
    m_adj = m_mat.T

    def deriv(_t, x):
        return m_mat @ x + x @ m_adj + n_mat - x @ k_mat @ x

    # past an escape the states overflow to inf and NaN; the scan reports it
    with np.errstate(over="ignore", invalid="ignore"):
        states = rk4(deriv, start, grid)
        norms = np.linalg.norm(states, axis=(1, 2))
    escaped = np.flatnonzero(~(norms <= BLOWUP_NORM))
    if escaped.size:
        t_esc = float(grid[escaped[0]])
        raise BlowUpError(f"Riccati solution escaped at t = {t_esc:.6g}", escape_time=t_esc)
    return states


def solve_riccati_ode(problem, steps=400):
    """Integrate Pi' = Pi^2 - A*Pi - Pi A - Q backward from Pi(T) = Pi_T.

    The RK4 kernel on the decreasing grid with (M, N, K) = (-A*, -Q, -I);
    raises ``BlowUpError`` with the escape time if the solution leaves the
    ||Pi|| <= 1e12 ball (finite-time blow-up travels backward from T).
    """
    if steps < 10:
        raise ShapeError("need at least 10 steps")
    times = np.linspace(0.0, problem.horizon, steps + 1)
    gains = _riccati(-problem.A.T, -problem.Q, -np.eye(problem.dim), problem.Pi_T, times[::-1])
    return RiccatiSolution(times, gains[::-1])


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


def _held_gains(riccati, laws):
    """Each law's gain held over each step, shape (steps, laws, n, n).

    A law is None for the optimal gain Pi_k, ("scale", c) for c Pi_k or
    ("offset", D) for Pi_k + D with D an n x n matrix.
    """
    gains = riccati.gains[:-1]
    n = gains.shape[-1]
    if not laws:
        raise ShapeError("need at least one law")
    held = np.empty((len(gains), len(laws), n, n))
    for idx, law in enumerate(laws):
        kind, val = law if law is not None else ("scale", 1.0)
        if kind not in ("scale", "offset"):
            raise ShapeError(f"unknown perturbation kind {kind!r}")
        if kind == "offset" and np.shape(val) != (n, n):
            raise ShapeError(f"offset must be a {n}x{n} matrix")
        held[:, idx] = float(val) * gains if kind == "scale" else gains + np.asarray(val, float)
    return held


def _quad(z, weight):
    """<z, W z> over the last axis of a batch of (symmetric) weights."""
    return np.sum((z @ weight) * z, axis=-1)


def _sweep(generators, weights, terminal, z, dt, kicks=None):
    """The zero-order-hold closed loop of every law, stepped at once.

    ``generators``/``weights`` (steps, laws, m, m) are each law's frozen
    drift and running-cost weight, ``z`` (laws, paths, m) the start.  Each
    step propagates exactly over two half steps, adds the Simpson cost of
    <z, W z> and, given ``kicks`` = (db, C, dw, K) for the joint state
    z = (x, xh), the noise shared by every law: db[:, k] C* on x and
    dw[:, k] K_k* on xh.  Returns the costs (laws, paths) with the terminal
    <z, terminal z>, and the squared filter error |x - xh|^2 summed over
    paths and steps; it does not depend on the law, so the first law's is
    taken.
    """
    halves = np.swapaxes(expm(generators * (dt / 2.0)), -1, -2)
    costs = np.zeros(z.shape[:-1])
    n = z.shape[-1] // 2
    sq_err = 0.0
    for k, (half, weight) in enumerate(zip(halves, weights)):
        z_mid = z @ half
        z_end = z_mid @ half
        costs += (dt / 6.0) * (
            _quad(z, weight) + 4.0 * _quad(z_mid, weight) + _quad(z_end, weight)
        )
        z = z_end
        if kicks is not None:
            db, c_mat, dw, k_filters = kicks
            z[..., :n] += db[:, k] @ c_mat.T
            z[..., n:] += dw[:, k] @ k_filters[k].T
            sq_err += float(np.sum((z[0, :, :n] - z[0, :, n:]) ** 2))
    return costs + _quad(z, terminal), sq_err


def lqr_simulate(problem, laws=(None,), steps=400, riccati=None):
    """Deterministic closed-loop cost of each law, shape (len(laws),).

    A law is None for the optimal feedback u = -Pi_t x, or a ("scale", c) /
    ("offset", D) perturbation of the gain.  The gain is frozen per step
    (zero-order hold) and the closed loop propagated by matrix exponentials;
    the running cost uses per-step Simpson quadrature with weight Q + K*K.
    """
    if problem.C is not None:
        raise ShapeError("lqr_simulate expects a deterministic problem (C absent)")
    if problem.x0 is None:
        raise ShapeError("problem must carry x0")
    riccati = riccati if riccati is not None else solve_riccati_ode(problem, steps)
    dt = problem.horizon / (len(riccati.times) - 1)
    held = _held_gains(riccati, laws)
    start = np.broadcast_to(problem.x0, (len(laws), 1, problem.dim))
    costs, _ = _sweep(problem.A - held, problem.Q + np.swapaxes(held, -1, -2) @ held,
                      problem.Pi_T, start, dt)
    return costs[:, 0]


def filter_covariance(problem, steps=400):
    """Kalman-Bucy error covariance P on the shared grid, P(0) = 0: the
    RK4 kernel with (M, N, K) = (A, C C*, H* H / r)."""
    if problem.H_obs is None:
        raise ShapeError("filter covariance needs an observation matrix")
    zero = np.zeros_like(problem.A)
    cc = problem.C @ problem.C.T if problem.C is not None else zero
    # dy = H x dt + sqrt(r) dW has innovation intensity r; the information
    # form scales H* H by 1/r.  r = 0 degenerates to a noiseless observer.
    inv_r = 0.0 if problem.obs_noise == 0 else 1.0 / problem.obs_noise
    return _riccati(problem.A, cc, problem.H_obs.T @ problem.H_obs * inv_r, zero,
                    np.linspace(0.0, problem.horizon, steps + 1))


def lqg_simulate(problem, seed, n_paths, laws=(None,), steps=400, riccati=None):
    """Monte Carlo LQG run of each law with the standard Kalman-Bucy filter.

    Returns a dict with the per-path costs (laws, n_paths), their mean and
    standard error per law, and the mean squared filter error.  Path k
    draws its noise from the seed splitting rule in ``qscontrol.seeding``,
    once for all laws, so the laws are paired (common random numbers).
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
    held = _held_gains(riccati, laws)
    p_path = filter_covariance(problem, steps)
    inv_r = 0.0 if problem.obs_noise == 0 else 1.0 / problem.obs_noise

    # Joint state z = (x, xh), dz = M_k z dt + noise with filter gain
    # K_k = P_k H*/r; the running cost weighs z with blockdiag(Q, G* G)
    # for the held gain G, so the zero-noise run reproduces lqr_simulate.
    k_filters = p_path[:steps] @ problem.H_obs.T * inv_r
    k_h = (k_filters @ problem.H_obs)[:, None]
    generators = np.empty((steps, len(laws), 2 * n, 2 * n))
    generators[..., :n, :n] = problem.A
    generators[..., :n, n:] = -held
    generators[..., n:, :n] = k_h
    generators[..., n:, n:] = problem.A - held - k_h
    weights = np.zeros_like(generators)
    weights[..., :n, :n] = problem.Q
    weights[..., n:, n:] = np.swapaxes(held, -1, -2) @ held

    # Path k draws db then dw (seed-splitting contract), once for all laws;
    # the observation increment is stored already scaled by sqrt(r).
    db = np.empty((n_paths, steps, n))
    dw = np.empty((n_paths, steps, n))
    sqrt_r = np.sqrt(problem.obs_noise)
    for idx, rng in enumerate(spawn_rngs(seed, n_paths)):
        db[idx] = rng.normal(size=(steps, n)) * np.sqrt(dt)
        dw[idx] = sqrt_r * (rng.normal(size=(steps, n)) * np.sqrt(dt))
    c_mat = problem.C if problem.C is not None else np.zeros((n, n))

    start = np.broadcast_to(np.tile(problem.x0, 2), (len(laws), n_paths, 2 * n))
    terminal = block_diag(problem.Pi_T, np.zeros((n, n)))
    costs, sq_err = _sweep(generators, weights, terminal, start, dt, (db, c_mat, dw, k_filters))
    return {
        "costs": costs,
        "cost_mean": np.mean(costs, axis=-1),
        "cost_stderr": np.array([standard_error(row) for row in costs]),
        "mean_sq_filter_error": sq_err / (n_paths * steps),
    }
