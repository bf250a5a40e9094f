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
is Simpson's rule over each step.  ``_step_maps`` builds each step's
propagator and its Simpson cost folded into one quadratic form, for every
step and law at once, from one batched exponential (``linalg.expm_stack``);
all laws of a run then share one batch axis of the path loop (``_sweep``),
so a step is one product and the forms are summed once per time block.
lqg adds Euler-Maruyama increments drawn once for every law.  The
zero-noise LQG run therefore reproduces the deterministic LQR trajectory
to rounding.

The lqg loop is linear in z = (x, xh) and its kicks are Gaussian and
independent of z, so ``_moments`` runs the second moment E[z* z] through
the same maps and returns each law's exact expected cost of the scheme
the paths run; ``_filter_gap`` runs E|x - xh|^2 the same way and
compares it with the Kalman-Bucy tr P_k, with a first-order bound.
``lqg_simulate`` returns both; ``lqg_paths`` runs the paths alone.

Every step recursion here (the path loop, the second moments, the error
moments) runs on the package's one step-recursion driver,
``linalg._affine_sweep``, in the row convention z -> z F_k, whose maps
compose as F_j F_{j+1}: a few-path run (at most 128 entries per law and
step) as its two-level blocked scan, about 2 sqrt(T) Python steps for
T steps, over chunks of at most 2^14 entries per law, a larger one step
by step through cache-sized time blocks.  Each reduces its points block
by block as the driver hands them over and keeps no store of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag, expm, solve_continuous_lyapunov

from .errors import BlowUpError, NotConvergedError, ShapeError
from .linalg import (STACK_BUDGET, _affine_sweep, as_matrix, expm_stack, fro, parse_law,
                     require_budget, require_psd)
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


def _step_maps(generators, weights, dt):
    """Each step's propagator and folded Simpson form, for every law.

    ``generators``/``weights`` (steps, laws, m, m) are each law's frozen
    drift and running-cost weight.  In the row-vector convention
    z -> z H_k, H_k = expm(G_k dt/2)*, a step propagates exactly by
    F_k = H_k H_k, and the Simpson cost of <z, W_k z> over its start,
    middle and end folds into one form <z, S_k z> with
    S_k = dt/6 (W_k + 4 H_k W_k H_k* + F_k W_k F_k*).  Returns (F, S), both
    from one batched exponential (``linalg.expm_stack``).
    """

    def congruence(mats):
        return mats @ weights @ np.swapaxes(mats, -1, -2)

    halves = np.swapaxes(expm_stack(generators * (dt / 2.0)), -1, -2)
    props = halves @ halves
    return props, (dt / 6.0) * (weights + 4.0 * congruence(halves) + congruence(props))


def _row_product(maps, z, out=None):
    """z A for row vectors z (..., paths, m) and maps A (..., m, m): one
    step of the loop in the row convention."""
    return np.matmul(z, maps, out=out)


def _row_congruence(maps, second, out=None):
    """A* Sigma A: the second moment Sigma = E[z* z] carried by z -> z A."""
    return np.matmul(np.swapaxes(maps, -1, -2) @ second, maps, out=out)


def _row_compose(later, earlier):
    """The map of two row steps, ``earlier`` first: z -> z A1 A2."""
    return earlier @ later


def _accumulate(total, terms):
    """Add the rows of ``terms`` (time along the leading axis; overwritten)
    to ``total`` one at a time, in order, so a sum over time does not
    depend on how the driver cuts time into blocks.  Long blocks of few
    entries take one running sum along the time axis, others a loop over
    their rows: the same additions in the same order.  (A running sum over
    a block of 1 to 13 rows of 1200 to 12 000 entries, lqg's streamed
    blocks, takes 3 to 10 times as long as the loop; the loop over 250 to
    780 rows of 12 to 21 entries, scanned chunks, 7 to 12 times as long
    as the running sum.)"""
    if len(terms) <= total.size:
        for row in terms:
            total += row
        return
    terms[0] += total
    np.cumsum(terms, axis=0, out=terms)
    total[...] = terms[-1]


def _kicks(noise, mats, out):
    """The row vectors noise_k M_k* into ``out``, for ``noise`` (steps,
    paths, n) and ``mats`` (steps or none, n, n): a matrix product, or at
    n = 1 the elementwise one, which skips the matrix product's per-call
    cost (the default lqg sweep at 2000 paths, one step per time block,
    took 37.0 ms with elementwise kicks against 47.1 ms with matrix
    products, medians of 41 interleaved calls)."""
    product = np.multiply if noise.shape[-1] == 1 else np.matmul
    product(noise, np.swapaxes(mats, -1, -2), out=out)


def _sweep(props, simpson, terminal, z, kicks=None):
    """The zero-order-hold closed loop of every law, stepped at once.

    ``props``/``simpson`` (steps, laws, m, m) are ``_step_maps``' F and S,
    ``z`` (laws, paths, m) the start; a step adds <z, S_k z> and moves z to
    z F_k.  Given ``kicks`` = (db, C, dw, K) for the joint state
    z = (x, xh), each step then adds the noise shared by every law:
    db[:, k] C* on x and dw[:, k] K_k* on xh.  Returns the costs
    (laws, paths) with the terminal <z, terminal z>, and the squared filter
    error |x - xh|^2 summed over paths and steps; it does not depend on the
    law, so the first law's is taken.

    The loop runs on the step driver ``linalg._affine_sweep`` with the
    kicks as its offsets, and each time block of points is reduced as the
    driver hands it over: the forms' terms are summed per component in
    step order (``_accumulate``) and over the components once at the end,
    as a reduction over m entries per step costs more than the step.  The
    driver weighs one law's stack for its blocking rule, so a law's
    arithmetic does not depend on the laws run with it.
    """
    steps = len(props)
    n = z.shape[-1] // 2
    terms = np.zeros(z.shape)
    ends = []
    sq_err = 0.0

    def build(lo, hi):
        if kicks is None:
            return props[lo:hi].copy(), None, None
        db, c_mat, dw, k_filters = kicks
        offsets = np.empty((hi - lo, 1, *z.shape[1:]))
        _kicks(np.swapaxes(db[:, lo:hi], 0, 1), c_mat, offsets[:, 0, :, :n])
        _kicks(np.swapaxes(dw[:, lo:hi], 0, 1), k_filters[lo:hi], offsets[:, 0, :, n:])
        return props[lo:hi].copy(), offsets, None

    def reduce(rows, points):
        nonlocal sq_err
        forms = simpson[rows]
        stepped = points[:len(forms)]
        _accumulate(terms, (stepped @ forms) * stepped)
        if rows.stop == steps + 1:
            ends.append(points[-1].copy())
        if kicks is not None:  # after each step, so from point 1 on
            kicked = points[rows.start == 0:, 0]
            for err in np.sum((kicked[..., :n] - kicked[..., n:]) ** 2, axis=(1, 2)).tolist():
                sq_err += err

    _affine_sweep(build, z, (steps + 1, *z.shape), _row_product, _row_compose, emit=reduce,
                  keep=False, width=math.prod(z.shape[1:]))
    (end,) = ends
    return np.sum(terms, axis=-1) + np.sum((end @ terminal) * end, axis=-1), sq_err


def _moments(props, simpson, terminal, second, kick_covs):
    """The exact expected costs (laws,) of ``_sweep``'s kicked loop.

    The loop is linear in z and its kicks are independent of z, so the
    second moment Sigma_k = E[z_k* z_k] (``second`` at the start) follows
    Sigma <- F_k* Sigma F_k + kick_covs[k], with ``kick_covs`` (steps, m, m)
    the covariance of step k's kick, shared by every law; the expected cost
    is sum_k tr(S_k Sigma_k) + tr(terminal Sigma_T).  The recursion runs on
    the step driver, its traces reduced block by block.
    """
    steps, laws, m = props.shape[:3]
    terms = np.zeros((laws, m, m))
    ends = []

    def reduce(rows, sigmas):
        forms = simpson[rows]
        _accumulate(terms, forms * np.swapaxes(sigmas[:len(forms)], -1, -2))
        if rows.stop == steps + 1:
            ends.append(np.swapaxes(sigmas[-1], -1, -2).copy())

    _affine_sweep(lambda lo, hi: (props[lo:hi].copy(), kick_covs[lo:hi, None], None), second,
                  (steps + 1, laws, m, m), _row_congruence, _row_compose, emit=reduce,
                  keep=False, width=m * m)
    (end,) = ends
    return np.sum(terms, axis=(-2, -1)) + np.sum(terminal * end, axis=(-2, -1))


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
    maps = _step_maps(problem.A - held, problem.Q + np.swapaxes(held, -1, -2) @ held, dt)
    costs, _ = _sweep(*maps, problem.Pi_T, start)
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


def _lqg_loop(problem, riccati, laws, n_paths):
    """The joint closed loop z = (x, xh) of every law, which the paths and
    the exact moments share: (maps, terminal, k_filters, p_path), with
    ``_step_maps``' (F, S), the terminal form, the filter gains K_k and the
    Kalman-Bucy covariance on the grid of ``riccati``.  The run's
    arguments are checked first."""
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
    terminal = block_diag(problem.Pi_T, np.zeros((n, n)))
    return _step_maps(generators, weights, dt), terminal, k_filters, p_path


def _noise_coupling(problem):
    """C, or the zero matrix for a problem without state noise."""
    return problem.C if problem.C is not None else np.zeros_like(problem.A)


def lqg_paths(problem, riccati, seed, n_paths, laws=(None,)):
    """Monte Carlo LQG run of each law with the standard Kalman-Bucy filter.

    ``riccati`` is the ``solve_riccati_ode`` solution the laws steer with;
    its grid is the simulation grid, which the filter covariance shares.
    Returns a dict with the per-path costs (laws, n_paths), their mean and
    standard error per law, and the mean squared filter error.  Path k
    draws its noise from the seed splitting rule in ``qscontrol.seeding``,
    once for all laws, so the laws are paired (common random numbers).
    """
    return _lqg_paths(problem, _lqg_loop(problem, riccati, laws, n_paths), seed, n_paths)


def _lqg_paths(problem, loop, seed, n_paths):
    maps, terminal, k_filters, _ = loop
    steps, laws = maps[0].shape[:2]
    n = problem.dim
    db, dw = _path_noise(seed, n_paths, steps, n, problem.horizon / steps, problem.obs_noise)
    start = np.broadcast_to(np.tile(problem.x0, 2), (laws, n_paths, 2 * n))
    kicks = (db, _noise_coupling(problem), dw, k_filters)
    costs, sq_err = _sweep(*maps, terminal, start, kicks)
    return {
        "costs": costs,
        "cost_mean": np.mean(costs, axis=-1),
        "cost_stderr": np.array([standard_error(row) for row in costs]),
        "mean_sq_filter_error": sq_err / (n_paths * steps),
    }


def lqg_simulate(problem, riccati, seed, n_paths, laws=(None,)):
    """``lqg_paths``' Monte Carlo run, and the exact moments of the same
    scheme: the expected cost per law (``exact_cost``), the mean gap
    between E|x - xh|^2 and tr P_k (``filter_gap``) and its first-order
    bound (``filter_gap_bound``), all from one build of the step maps."""
    loop = _lqg_loop(problem, riccati, laws, n_paths)
    maps, terminal, k_filters, p_path = loop
    steps = len(k_filters)
    dt = problem.horizon / steps
    n = problem.dim
    result = _lqg_paths(problem, loop, seed, n_paths)
    # the kicks db C* on x and dw K_k* on xh, of covariances dt C C* and
    # dt r K_k K_k*; x - xh takes their sum
    c_mat = _noise_coupling(problem)
    kick_covs = np.zeros((steps, 2 * n, 2 * n))
    kick_covs[:, :n, :n] = dt * c_mat @ c_mat.T
    kick_covs[:, n:, n:] = (dt * problem.obs_noise) * k_filters @ np.swapaxes(k_filters, -1, -2)
    z0 = np.tile(problem.x0, 2)
    gap, bound = _filter_gap(maps[0][:, 0], kick_covs[:, :n, :n] + kick_covs[:, n:, n:], p_path,
                             problem.A - k_filters @ problem.H_obs, dt)
    return {
        **result,
        "exact_cost": _moments(*maps, terminal, np.outer(z0, z0), kick_covs),
        "filter_gap": gap,
        "filter_gap_bound": bound,
    }


def _filter_gap(props, covs, p_path, drifts, dt):
    """mean_k (E|x_k - xh_k|^2 - tr P_k) over k = 1..steps, and a bound on
    it to first order in dt.

    The filter error e = x - xh steps on its own: with ``props`` (steps,
    m, m) one law's F_k, z F_k [1; -1] = [1; -1] R_k, R_k = (F_k)_11 -
    (F_k)_12 (= expm(M_k dt)*, M_k = A - K_k H, the ``drifts``), so
    E[e* e] <- R_k* E[e* e] R_k + V_k from 0, V_k (``covs``) the kick's
    covariance; with no kicks it stays 0, as P does.  P follows its exact
    flow (``p_path``, (steps + 1, n, n)).  From E = P one step leaves
    E - P = -(dt/2)(M_k V_k + V_k M_k*) + O(dt^3), and the congruence grows
    a 2-norm by at most exp(2 mu(M_k) dt), mu the logarithmic 2-norm; so n
    times the mean of the accumulated norms bounds the gap up to O(dt^2).
    """
    n = covs.shape[-1]
    defects = (dt / 2.0) * np.linalg.norm(drifts @ covs + covs @ np.swapaxes(drifts, -1, -2), 2,
                                          axis=(-2, -1))
    growth = np.exp(dt * np.linalg.eigvalsh(drifts + np.swapaxes(drifts, -1, -2))[:, -1])
    error_props = props[:, :n, :n] - props[:, :n, n:]
    gaps = []

    def reduce(rows, seconds):  # k = 1..steps
        first = rows.start == 0
        gaps.append(float(np.sum(np.trace(seconds[first:] - p_path[rows][first:], axis1=-2,
                                          axis2=-1))))

    _affine_sweep(lambda lo, hi: (error_props[lo:hi], covs[lo:hi], None), np.zeros((n, n)),
                  (len(covs) + 1, n, n), _row_congruence, _row_compose, emit=reduce, keep=False)
    gap = sum(gaps) / len(covs)
    accumulated = bound = 0.0
    for grow, defect in zip(growth.tolist(), defects.tolist()):
        accumulated = grow * accumulated + defect
        bound += accumulated
    return float(gap), n * bound / len(covs)
