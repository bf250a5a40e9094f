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

Time stepping: both Riccati equations are solved on a uniform grid by
their exact flow map (``_riccati``: the linear-fractional map of one
matrix exponential of the Hamiltonian, so no step error), unsymmetrized,
and an escape is read off the map's denominator.  State integrations
share that grid, freeze the gain per step, and propagate the drift
exactly (matrix exponential of the frozen closed loop); the running cost
is Simpson's rule over each step.  All laws of a run share one batch axis
of one sweep (``_sweep``), which builds each step's propagator and its
Simpson cost folded into one quadratic form for every step and law at
once, from one batched exponential (``linalg.expm_stack``), so a step is
one product and one form.  lqg adds Euler-Maruyama increments drawn once
for every law.  The zero-noise LQG run therefore reproduces the
deterministic LQR trajectory to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag, expm, solve_continuous_lyapunov

from .errors import BlowUpError, NotConvergedError, ShapeError
from .linalg import (STACK_BUDGET, as_matrix, expm_stack, fro, parse_law, require_budget,
                     require_psd)
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
        require_psd(self.Q, "Q", 1e-12)
        require_psd(self.Pi_T, "Pi_T", 1e-12)
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
        skew = self.gains - np.swapaxes(self.gains, 1, 2)
        return float(np.max(np.linalg.norm(skew, axis=(1, 2))))


# ------------------------------------------------------------ Riccati ODEs


def _riccati(m_mat, n_mat, k_mat, start, grid):
    """States of X' = M X + X M* + N - X K X on the uniform ``grid``,
    X(grid[0]) = start, by the exact flow map.

    X = Y Z^-1 for the linear Hamiltonian system [Z; Y]' = H [Z; Y],
    H = [[-M*, K], [N, M]], from Z = 1, Y = X (Radon's lemma).  With
    Phi = expm(H h), the state j steps after X0 is
    (Phi^j_21 + Phi^j_22 X0)(Phi^j_11 + Phi^j_12 X0)^-1.  Each block of b
    steps is one batched product and solve from the block's first state,
    with the powers Phi^j, j <= b, formed once.  b <= sqrt(steps) balances
    the powers against the blocks; b <= 1 / (||H||_F |h|) bounds each
    block's growth by e (||H||_F >= ||H||_2 and needs no SVD).  Restarting
    from each block's state keeps the map stable; the unrestarted method
    is not (Kenney & Leipnik 1985).

    No step symmetrizes X (``symmetry_defect`` measures the result).  The
    map passes a finite escape and returns finite, so the first grid point
    where the block's det Z is not > 0, or where ||X||_F is not <= 1e12
    (inf and NaN included), raises ``BlowUpError`` with that time.  A pole
    of even multiplicity inside one step leaves det Z positive and shows
    only through the norm.
    """
    n = m_mat.shape[0]
    steps = len(grid) - 1
    h = (grid[-1] - grid[0]) / steps
    ham = np.block([[-m_mat.T, k_mat], [n_mat, m_mat]])
    states = np.empty((steps + 1, n, n))
    states[0] = start
    # near a pole the solve overflows to inf; past one, NaN marks the states;
    # a Hamiltonian too large for its norm overflows the same way
    with np.errstate(over="ignore", invalid="ignore"):
        reach = np.linalg.norm(ham) * abs(h)
        block = max(1, min(math.isqrt(steps), math.floor(1.0 / reach) if reach > 0 else steps))
        powers = np.empty((block, 2 * n, 2 * n))
        powers[0] = expm(ham * h)
        for j in range(1, block):
            powers[j] = powers[0] @ powers[j - 1]
        for first in range(0, steps, block):
            count = min(block, steps - first)
            z = powers[:count, :n, :n] + powers[:count, :n, n:] @ states[first]
            y = powers[:count, n:, :n] + powers[:count, n:, n:] @ states[first]
            poles = np.flatnonzero(~(np.linalg.det(z) > 0))
            fine = poles[0] if poles.size else count
            x = np.linalg.solve(np.swapaxes(z[:fine], 1, 2), np.swapaxes(y[:fine], 1, 2))
            states[first + 1 : first + 1 + fine] = np.swapaxes(x, 1, 2)
            if poles.size:
                states[first + 1 + fine :] = np.nan
                break
        norms = np.linalg.norm(states, axis=(1, 2))
    escaped = np.flatnonzero(~(norms <= BLOWUP_NORM))
    if escaped.size:
        t_esc = float(grid[escaped[0]])
        raise BlowUpError(f"Riccati solution escaped at t = {t_esc:.6g}", escape_time=t_esc)
    return states


def solve_riccati_ode(problem, steps=400):
    """Integrate Pi' = Pi^2 - A*Pi - Pi A - Q backward from Pi(T) = Pi_T.

    The flow-map kernel on the decreasing grid with (M, N, K) = (-A*, -Q, -I),
    its (steps + 1) n^2 gains admitted before anything is allocated; raises
    ``BlowUpError`` with the escape time if the solution leaves the
    ||Pi|| <= 1e12 ball (finite-time blow-up travels backward from T).
    """
    if steps < 10:
        raise ShapeError("need at least 10 steps")
    require_budget((steps + 1) * problem.dim**2, STACK_BUDGET, "Riccati solution")
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
    ("offset", D) for Pi_k + D with D an n x n matrix (see ``parse_law``).
    """
    gains = riccati.gains[:-1]
    n = gains.shape[-1]
    if not laws:
        raise ShapeError("need at least one law")
    require_budget(gains.size * len(laws), STACK_BUDGET, "held gains")
    held = np.empty((len(gains), len(laws), n, n))
    for idx, law in enumerate(laws):
        scale, offset = parse_law(law, n)
        held[:, idx] = scale * gains + offset
    return held


def _sweep(generators, weights, terminal, z, dt, kicks=None):
    """The zero-order-hold closed loop of every law, stepped at once.

    ``generators``/``weights`` (steps, laws, m, m) are each law's frozen
    drift and running-cost weight, ``z`` (laws, paths, m) the start.  In
    the row-vector convention z -> z H_k, H_k = expm(G_k dt/2)*, a step
    propagates exactly by F_k = H_k H_k and adds the Simpson cost of
    <z, W_k z> over its start, middle and end, which folds into one form
    <z, S_k z> with S_k = dt/6 (W_k + 4 H_k W_k H_k* + F_k W_k F_k*); F and S
    are built for every step and law before the loop.  Given ``kicks`` =
    (db, C, dw, K) for the joint state z = (x, xh), each step then adds the
    noise shared by every law: db[:, k] C* on x and dw[:, k] K_k* on xh.
    Returns the costs (laws, paths) with the terminal <z, terminal z>, and
    the squared filter error |x - xh|^2 summed over paths and steps; it
    does not depend on the law, so the first law's is taken.
    """

    def congruence(mats):
        return mats @ weights @ np.swapaxes(mats, -1, -2)

    halves = np.swapaxes(expm_stack(generators * (dt / 2.0)), -1, -2)
    props = halves @ halves
    simpson = (dt / 6.0) * (weights + 4.0 * congruence(halves) + congruence(props))
    # the forms' terms summed per component and reduced once at the end:
    # a reduction over m entries per step costs more than the step's products
    terms = np.zeros(z.shape)
    n = z.shape[-1] // 2
    sq_err = 0.0
    for k, (prop, form) in enumerate(zip(props, simpson)):
        terms += (z @ form) * z
        z = z @ prop
        if kicks is not None:
            db, c_mat, dw, k_filters = kicks
            z[..., :n] += db[:, k] @ c_mat.T
            z[..., n:] += dw[:, k] @ k_filters[k].T
            sq_err += float(np.sum((z[0, :, :n] - z[0, :, n:]) ** 2))
    return np.sum(terms, axis=-1) + np.sum((z @ terminal) * z, axis=-1), sq_err


def lqr_simulate(problem, riccati, laws=(None,)):
    """Deterministic closed-loop cost of each law, shape (len(laws),).

    ``riccati`` is the ``solve_riccati_ode`` solution the laws steer with;
    its grid is the simulation grid.  A law is None for the optimal feedback
    u = -Pi_t x, or a ("scale", c) / ("offset", D) perturbation of the gain.
    The gain is frozen per step (zero-order hold) and the closed loop
    propagated by matrix exponentials; the running cost uses per-step
    Simpson quadrature with weight Q + K*K.
    """
    if problem.C is not None:
        raise ShapeError("lqr_simulate expects a deterministic problem (C absent)")
    if problem.x0 is None:
        raise ShapeError("problem must carry x0")
    dt = problem.horizon / (len(riccati.times) - 1)
    held = _held_gains(riccati, laws)
    start = np.broadcast_to(problem.x0, (len(laws), 1, problem.dim))
    costs, _ = _sweep(problem.A - held, problem.Q + np.swapaxes(held, -1, -2) @ held,
                      problem.Pi_T, start, dt)
    return costs[:, 0]


def filter_covariance(problem, steps=400):
    """Kalman-Bucy error covariance P on the shared grid, P(0) = 0: the
    flow-map kernel with (M, N, K) = (A, C C*, H* H / r)."""
    if problem.H_obs is None:
        raise ShapeError("filter covariance needs an observation matrix")
    zero = np.zeros_like(problem.A)
    cc = problem.C @ problem.C.T if problem.C is not None else zero
    # dy = H x dt + sqrt(r) dW has innovation intensity r; the information
    # form scales H* H by 1/r.  r = 0 degenerates to a noiseless observer.
    inv_r = 0.0 if problem.obs_noise == 0 else 1.0 / problem.obs_noise
    return _riccati(problem.A, cc, problem.H_obs.T @ problem.H_obs * inv_r, zero,
                    np.linspace(0.0, problem.horizon, steps + 1))


def _path_noise(seed, n_paths, steps, n, dt, obs_noise):
    """The increments (db, dw), each (n_paths, steps, n), of every path.

    Path k draws db then dw from its own stream (the seed-splitting
    contract), in one call: the (2, steps, n) draw is the two successive
    (steps, n) draws bit for bit.  The observation increment is stored
    already scaled by sqrt(r).  The noise is admitted before any stream is
    spawned.
    """
    require_budget(n_paths * 2 * steps * n, STACK_BUDGET, "path noise")
    noise = np.empty((n_paths, 2, steps, n))
    for idx, rng in enumerate(spawn_rngs(seed, n_paths)):
        np.multiply(rng.normal(size=(2, steps, n)), np.sqrt(dt), out=noise[idx])
    db, dw = noise[:, 0], noise[:, 1]
    dw *= np.sqrt(obs_noise)
    return db, dw


def lqg_simulate(problem, riccati, seed, n_paths, laws=(None,)):
    """Monte Carlo LQG run of each law with the standard Kalman-Bucy filter.

    ``riccati`` is the ``solve_riccati_ode`` solution the laws steer with;
    its grid is the simulation grid, which the filter covariance shares.
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
    require_budget(steps * len(laws) * (2 * n) ** 2, STACK_BUDGET, "lqg step maps")
    generators = np.empty((steps, len(laws), 2 * n, 2 * n))
    generators[..., :n, :n] = problem.A
    generators[..., :n, n:] = -held
    generators[..., n:, :n] = k_h
    generators[..., n:, n:] = problem.A - held - k_h
    weights = np.zeros_like(generators)
    weights[..., :n, :n] = problem.Q
    weights[..., n:, n:] = np.swapaxes(held, -1, -2) @ held

    db, dw = _path_noise(seed, n_paths, steps, n, dt, problem.obs_noise)
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
