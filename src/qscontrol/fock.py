"""Truncated-Fock numerics for first-order and SWN quantum noise.

Two computational routes coexist on purpose:

* the production route reduces exponential-vector matrix elements of a
  quantum stochastic evolution to a system-space linear ODE (the
  fundamental-theorem reduction) and integrates it with the package's
  fixed-step RK4 (``linalg.rk4``) -- no discretization of the noise at all;
* the oracle route (``step_tensor_evolution``, O2) discretizes time,
  attaches a fresh d-level truncated mode to every step, applies the
  Euler-Ito one-step update and contracts consumed modes against the
  vacuum.  Its final state has dim d^steps entries, exponential in the
  number of steps; it exists to validate the reduction, never to replace
  it.  Modes not yet consumed are exactly vacuum (identity for the
  propagator of ``unitarity_defect``), so both carry only the modes
  consumed so far and grow by one mode per step: the work is about twice
  the final state, not ``steps`` times it, and the budgets still bound
  the final full-space size.

Each route is written once and shared by both calculi.  The Euler-Ito
one-step operator (``_euler_ito_step``) drives the tensor oracle and the
unitarity defect; the matrix-element reduction (``_matrix_element_series``)
serves the first-order and the SWN evolutions; and vacuum expectations of
Heisenberg flows close on the system space as the master equation
rho' = D rho + rho D* + sum_J J rho J* (``_master_generator``), which
``flow_expectation``, ``swn_simulate`` and the quadratic costs of
``qcontrol`` integrate.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexEscapeError, ResourceLimitError, ShapeError
from .ito import SymbolicDifferential, hp_mul
from .ito.labels import HpLabel
from .ito.module_ops import inner, r_map
from .ito.sl2 import rho_plus_matrix, theta
from .linalg import as_matrix, is_hermitian, is_unitary, rk4

DEFAULT_TENSOR_BUDGET = 1 << 22  # complex entries in a state vector
DEFAULT_MATRIX_BUDGET = 1 << 24  # complex entries in a full propagator


# --------------------------------------------------------------- containers


@dataclass(frozen=True)
class TruncationConfig:
    """Discretization and truncation knobs for the Fock-side numerics."""

    levels_per_mode: int = 2
    dt: float = 1e-3
    horizon: float = 1.0
    swn_modes: int = 1
    tensor_budget: int = DEFAULT_TENSOR_BUDGET

    def __post_init__(self):
        if self.levels_per_mode < 2:
            raise ShapeError("levels_per_mode must be >= 2")
        if self.dt <= 0 or self.horizon <= 0:
            raise ShapeError("dt and horizon must be positive")
        steps = round(self.horizon / self.dt)
        if abs(steps * self.dt - self.horizon) > 1e-12:
            raise ShapeError("horizon must be an integer number of steps")
        if self.swn_modes < 1:
            raise ShapeError("swn_modes must be >= 1")

    @property
    def n_steps(self):
        return round(self.horizon / self.dt)


@dataclass
class ExpectationSeries:
    """Complex expectation values on an increasing time grid from 0."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.times.shape != self.values.shape:
            raise ShapeError("times and values must have equal length")
        if self.times.size == 0 or abs(self.times[0]) > 1e-15:
            raise ShapeError("time grid must start at 0")
        if np.any(np.diff(self.times) <= 0):
            raise ShapeError("time grid must be strictly increasing")

    @property
    def final(self):
        return complex(self.values[-1])

    def at(self, t):
        idx = int(np.argmin(np.abs(self.times - t)))
        return complex(self.values[idx])

    def to_csv(self, path):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t", "re", "im"])
            for t, v in zip(self.times, self.values):
                writer.writerow([repr(float(t)), repr(v.real), repr(v.imag)])

    def to_json_dict(self):
        return {
            "schema": "expectation-series/1",
            "times": [float(t) for t in self.times],
            "values": [[v.real, v.imag] for v in self.values],
        }

    def to_json(self, path):
        with open(path, "w") as handle:
            json.dump(self.to_json_dict(), handle, sort_keys=True)


class PiecewiseConstant:
    """Piecewise-constant test function on [0, T] (vector-valued allowed).

    ``breaks`` are the interior breakpoints; segment i takes ``values[i]``
    on [breaks[i-1], breaks[i]).  Zero outside [0, T].
    """

    def __init__(self, breaks, values):
        self.breaks = [float(b) for b in breaks]
        self.values = [np.atleast_1d(np.asarray(v, dtype=complex)) for v in values]
        if len(self.breaks) != len(self.values):
            raise ShapeError("need one value per segment (breaks are right edges)")
        if any(b2 <= b1 for b1, b2 in zip(self.breaks, self.breaks[1:])):
            raise ShapeError("breakpoints must increase")

    @classmethod
    def zero(cls, horizon, modes=1):
        return cls([horizon], [np.zeros(modes, dtype=complex)])

    def value(self, t):
        last = len(self.breaks) - 1
        for idx, (edge, val) in enumerate(zip(self.breaks, self.values)):
            # segments are right-open except the final one, so the right
            # endpoint of the domain carries the last segment's value (RK4
            # stages evaluate there)
            if t < edge or (idx == last and t <= edge):
                return val
        return np.zeros_like(self.values[0])

    def segment_edges(self, horizon):
        edges = [0.0] + [b for b in self.breaks if b < horizon] + [horizon]
        return sorted(set(edges))

    def overlap(self, other, horizon):
        """Exact integral of conj(self) . other over [0, horizon]."""
        edges = sorted(set(self.segment_edges(horizon) + other.segment_edges(horizon)))
        total = 0.0 + 0.0j
        for a, b in zip(edges, edges[1:]):
            mid = 0.5 * (a + b)
            total += (b - a) * np.vdot(self.value(mid), other.value(mid))
        return total


# --------------------------------------------------------------------- specs


@dataclass
class HpEvolutionSpec:
    """Unitary evolution data (H, L, W): the drift is -(iH + L*L/2)."""

    H: np.ndarray
    L: np.ndarray
    W: np.ndarray | None = None

    def __post_init__(self):
        self.H = as_matrix(self.H, name="H")
        dim = self.H.shape[0]
        self.L = as_matrix(self.L, dim, name="L")
        self.W = as_matrix(self.W if self.W is not None else np.eye(dim), dim, name="W")
        if not is_hermitian(self.H):
            raise ShapeError("H must be Hermitian")
        if not is_unitary(self.W):
            raise ShapeError("W must be unitary")

    @property
    def dim(self):
        return self.H.shape[0]

    def qsde_coefficients(self):
        """(E, F, G, H0) = (dL, dA, dA+, dt) coefficients of dU = (...)U."""
        eye = np.eye(self.dim)
        drift = -(1j * self.H + 0.5 * self.L.conj().T @ self.L)
        return (
            self.W - eye,
            -self.L.conj().T @ self.W,
            self.L.copy(),
            drift,
        )


@dataclass
class GenericQsdeSpec:
    """dU = ((F - Pi) dt + Psi dA + Phi dA+ + Z dL) U, feedback optional."""

    F: np.ndarray
    Psi: np.ndarray
    Phi: np.ndarray
    Z: np.ndarray
    feedback: np.ndarray | None = None

    def __post_init__(self):
        self.F = as_matrix(self.F, name="F")
        dim = self.F.shape[0]
        self.Psi = as_matrix(self.Psi, dim, name="Psi")
        self.Phi = as_matrix(self.Phi, dim, name="Phi")
        self.Z = as_matrix(self.Z, dim, name="Z")
        if self.feedback is not None:
            self.feedback = as_matrix(self.feedback, dim, name="feedback")
            if not is_hermitian(self.feedback):
                raise ShapeError("feedback gain must be Hermitian")
            if np.linalg.eigvalsh(0.5 * (self.feedback + self.feedback.conj().T))[0] < -1e-10:
                raise ShapeError("feedback gain must be PSD")

    @property
    def dim(self):
        return self.F.shape[0]

    def qsde_coefficients(self):
        drift = self.F if self.feedback is None else self.F - self.feedback
        return self.Z.copy(), self.Psi.copy(), self.Phi.copy(), drift


def _coefficients(spec):
    if isinstance(spec, (HpEvolutionSpec, GenericQsdeSpec)):
        return spec.qsde_coefficients()
    raise TypeError(f"unsupported spec type {type(spec)!r}")


# ------------------------------------------------------------- time grid


def _grid_with_breaks(horizon, dt, breaks=()):
    """Uniform-dt grid refined so every breakpoint is a grid node."""
    edges = sorted({0.0, float(horizon)} | {float(b) for b in breaks if 0 < b < horizon})
    grid = [0.0]
    for a, b in zip(edges, edges[1:]):
        steps = max(1, math.ceil((b - a) / dt - 1e-12))
        grid.extend(a + (b - a) * (j + 1) / steps for j in range(steps))
    return np.array(grid)


# ------------------------------------------------- matrix-element evolution


def matrix_element_evolution(spec, f, g, u, v, horizon, dt=1e-3):
    """<u (x) psi(f), U_t v (x) psi(g)> on a time grid.

    f, g are ``PiecewiseConstant`` scalar test functions (None = vacuum).
    The reduction: the matrix element equals <u, V_t v> with

        V' = (conj(f) g E + g F + conj(f) G + H0) V,
        V_0 = exp(<f, g>) * identity,

    integrated by fixed-step RK4 on a grid aligned with the segment
    breakpoints of f and g.
    """
    e_mat, f_mat, g_mat, h_mat = _coefficients(spec)
    f = f if f is not None else PiecewiseConstant.zero(horizon)
    g = g if g is not None else PiecewiseConstant.zero(horizon)

    def gen(t):
        fv = complex(f.value(t)[0].conjugate())
        gv = complex(g.value(t)[0])
        return fv * gv * e_mat + gv * f_mat + fv * g_mat + h_mat

    return _matrix_element_series(gen, e_mat.shape[0], f, g, u, v, horizon, dt)


def _matrix_element_series(gen, dim, f, g, u, v, horizon, dt):
    """<u, V_t v> for V' = gen(t) V, V_0 = exp(<f, g>) id on C^dim: RK4 on
    a grid aligned with the segment breakpoints of f and g."""
    u = np.asarray(u, dtype=complex).reshape(dim)
    v = np.asarray(v, dtype=complex).reshape(dim)
    grid = _grid_with_breaks(horizon, dt, f.segment_edges(horizon) + g.segment_edges(horizon))
    v0 = np.exp(f.overlap(g, horizon)) * np.eye(dim, dtype=complex)
    states = rk4(lambda t, V: gen(t) @ V, v0, grid)
    values = (states @ v) @ u.conj()
    return ExpectationSeries(grid, values)


# --------------------------------------------------------- tensor oracle O2


def _euler_ito_step(spec, d, dt):
    """Euler-Ito one-step operator on system (x) one fresh d-level mode,

        1 + dt H0 + sqrt(dt) (F a + G a+) + E a+ a,

    with (E, F, G, H0) the (dL, dA, dA+, dt) coefficients of ``spec``."""
    e_mat, f_mat, g_mat, h_mat = _coefficients(spec)
    dim = e_mat.shape[0]
    a_op = np.diag(np.sqrt(np.arange(1, d, dtype=float)), 1)
    adag_op = a_op.conj().T
    return (
        np.kron(np.eye(dim), np.eye(d))
        + dt * np.kron(h_mat, np.eye(d))
        + math.sqrt(dt) * np.kron(f_mat, a_op)
        + math.sqrt(dt) * np.kron(g_mat, adag_op)
        + np.kron(e_mat, adag_op @ a_op)
    )


def step_tensor_evolution(spec, config, *, u=None, v=None, observable=None):
    """Oracle O2: direct Euler-Ito evolution on system (x) (C^d)^steps.

    One fresh d-level mode per step carries the increments dA = sqrt(dt) a,
    dA+ = sqrt(dt) a+, dL = a+ a.  With ``observable`` None the returned
    series holds vacuum matrix elements <u (x) vac, U_k v (x) vac>;
    with a Hermitian system ``observable`` X it holds <psi_k, (X (x) 1) psi_k>
    for psi_k = U_k (v (x) vac).

    Modes not yet consumed are exactly vacuum, so the state carries only
    the k modes consumed so far, laid out (system, j_k, ..., j_1): mode k
    enters in vacuum and step k is one product with the vacuum columns of
    the one-step operator.  The work is about twice the final state of
    dim d^steps entries, the size ``config.tensor_budget`` bounds.
    """
    d = config.levels_per_mode
    dt = config.dt
    step_op = _euler_ito_step(spec, d, dt)
    dim = step_op.shape[0] // d
    steps = config.n_steps
    required = dim * d**steps
    if required > config.tensor_budget:
        raise ResourceLimitError(
            f"tensor state needs {required} complex entries, budget is {config.tensor_budget}",
            required=required,
            budget=config.tensor_budget,
        )
    u = np.asarray(u if u is not None else _basis0(dim), dtype=complex).reshape(dim)
    v = np.asarray(v if v is not None else _basis0(dim), dtype=complex).reshape(dim)
    x_mat = None if observable is None else as_matrix(observable, dim)
    enter_vacuum = step_op[:, ::d]  # columns (system, fresh mode in vacuum)

    psi = v.reshape(dim, 1)
    times = [0.0]
    values = [_readout(psi, u, x_mat)]
    for k in range(steps):
        psi = (enter_vacuum @ psi).reshape(dim, -1)
        times.append((k + 1) * dt)
        values.append(_readout(psi, u, x_mat))
    return ExpectationSeries(np.array(times), np.array(values))


def _basis0(dim):
    vec = np.zeros(dim, dtype=complex)
    vec[0] = 1.0
    return vec


def _readout(psi, u, x_mat):
    """<u (x) vac, psi>, or sum_ab X_ab <psi_a, psi_b> over the system rows
    psi_a of the state when an observable X is given."""
    if x_mat is None:
        return complex(u.conj() @ psi[:, 0])
    gram = np.array([[np.vdot(row_a, row_b) for row_b in psi] for row_a in psi])
    return complex(np.sum(x_mat * gram))


def unitarity_defect(spec, config, matrix_budget=DEFAULT_MATRIX_BUDGET):
    """max_k || U_k* U_k - 1 ||_2 for the full Euler-Ito tensor propagator.

    U_k acts as the identity on the modes after step k, U_k = V_k (x) 1, so
    the defect is that of V_k on system (x) modes 1..k, grown one mode per
    step as V_k = S_k (V_{k-1} (x) 1_d) with S_k the one-step operator.  The
    work is about twice the final propagator; ``matrix_budget`` still
    bounds the full (dim d^steps)^2 propagator.
    """
    d = config.levels_per_mode
    step_op = _euler_ito_step(spec, d, config.dt)
    dim = step_op.shape[0] // d
    steps = config.n_steps
    total = dim * d**steps
    if total * total > matrix_budget:
        raise ResourceLimitError(
            f"full propagator needs {total * total} complex entries, budget {matrix_budget}",
            required=total * total,
            budget=matrix_budget,
        )
    # S[s', j', s, j]; rows of V are laid out (system, j_k, ..., j_1) and
    # columns (j_k, earlier columns): permuting columns keeps ||V* V - 1||_2
    s_op = step_op.reshape(dim, d, dim, d)
    props = np.eye(dim, dtype=complex)
    worst = 0.0
    for _ in range(steps):
        rows = props.shape[0]
        grown = np.tensordot(s_op, props.reshape(dim, rows // dim, rows), axes=(2, 0))
        props = grown.transpose(0, 1, 3, 2, 4).reshape(rows * d, rows * d)
        gram = props.conj().T @ props - np.eye(rows * d)
        worst = max(worst, float(np.max(np.abs(np.linalg.eigvalsh(gram)))))
    return worst


# --------------------------------------------- Weyl operators / functionals


def weyl_increment(lam, z, k):
    """Differential of exp(i E_t), E_t = lam t + z A_t + conj(z) A+_t + k L_t.

    Closed form of the exponential series of i dE under the first-order
    table: for k != 0 the bracket is

        (i lam + |z|^2 M / k^2) dt + (i z + z M / k) dA
        + (i conj(z) + conj(z) M / k) dA+ + (i k + M) dL,
        M = exp(ik) - 1 - ik,

    and for k = 0 the series terminates at second order:

        (i lam - |z|^2 / 2) dt + i z dA + i conj(z) dA+.
    """
    z = complex(z)
    z_sq = (z * z.conjugate()).real  # |z|^2 via the same product the series forms
    if k != 0:
        m_val = np.exp(1j * k) - 1.0 - 1j * k
        return SymbolicDifferential(
            {
                HpLabel.TIME: 1j * lam + (z_sq / k**2) * m_val,
                HpLabel.ANN: 1j * z + (z / k) * m_val,
                HpLabel.CRE: 1j * z.conjugate() + (z.conjugate() / k) * m_val,
                HpLabel.CONS: 1j * k + m_val,
            }
        )
    return SymbolicDifferential(
        {
            HpLabel.TIME: 1j * lam - 0.5 * z_sq,
            HpLabel.ANN: 1j * z,
            HpLabel.CRE: 1j * z.conjugate(),
        }
    )


def weyl_series(lam, z, k, n_terms=40):
    """Partial sum of sum_{n>=1} (i dE)^n / n! under hp_mul (test oracle)."""
    de = SymbolicDifferential(
        {
            HpLabel.TIME: complex(lam),
            HpLabel.ANN: complex(z),
            HpLabel.CRE: complex(z).conjugate(),
            HpLabel.CONS: complex(k),
        }
    )
    ide = 1j * de
    total = SymbolicDifferential.zero()
    power = None
    factorial = 1.0
    for n in range(1, n_terms + 1):
        power = ide if power is None else hp_mul(power, ide)
        factorial *= n
        total = total + (1.0 / factorial) * power
        if power.is_zero():
            break
    return total


def characteristic_functional(kind, s, lam, t, dt=1e-4):
    """Vacuum characteristic functional of Brownian / Poisson realizations.

    Simulates f' = c f with the dt coefficient c of the Weyl differential
    (RK4 over max(1, round(t / dt)) equal steps) and returns (simulated,
    closed_form): exp(-s^2 t / 2) for Brownian, exp(lam (e^{is} - 1) t) for
    Poisson.
    """
    if kind not in ("brownian", "poisson"):
        raise ValueError("kind must be 'brownian' or 'poisson'")
    if dt <= 0:
        raise ShapeError("dt must be positive")
    if kind == "brownian":
        bracket = weyl_increment(0.0, s, 0.0)
        closed = np.exp(-0.5 * s**2 * t)
    else:
        if lam <= 0:
            raise ShapeError("Poisson intensity must be positive")
        bracket = weyl_increment(s * lam, s * math.sqrt(lam), s)
        closed = np.exp(lam * (np.exp(1j * s) - 1.0) * t)
    c_val = bracket.coeff(HpLabel.TIME)
    if t == 0.0:
        return 1.0 + 0.0j, complex(closed)
    steps = max(1, round(t / dt))
    grid = np.linspace(0.0, t, steps + 1)
    states = rk4(lambda _t, y: c_val * y, 1.0 + 0.0j, grid)
    return complex(states[-1]), complex(closed)


# ------------------------------------------------------- Heisenberg flows


def _master_generator(drift, jumps):
    """Vacuum master equation rho -> D rho + rho D* + sum_J J rho J*."""
    drift_star = drift.conj().T

    def gen(rho):
        out = drift @ rho + rho @ drift_star
        for jump in jumps:
            out += jump @ rho @ jump.conj().T
        return out

    return gen


def _master_expectation(drift, jumps, x_mat, state, horizon, dt):
    """t -> tr(rho_t X) along the master equation from the pure state."""
    state = np.asarray(state, dtype=complex).reshape(x_mat.shape[0])
    rho0 = np.outer(state, state.conj())
    gen = _master_generator(drift, jumps)
    grid = _grid_with_breaks(horizon, dt)
    states = rk4(lambda _t, rho: gen(rho), rho0, grid)
    values = np.einsum("kij,ji->k", states, x_mat)
    return ExpectationSeries(grid, values)


def flow_expectation(spec, observable, state, horizon, dt=1e-3):
    """Vacuum expectation of the Heisenberg flow of a Hermitian observable.

    Integrates the master equation with D = -(iH + L*L/2) and the single
    jump L for the conditional state and returns t -> tr(rho_t X) with
    rho_0 the pure system state.
    """
    x_mat = as_matrix(observable, spec.dim)
    if not is_hermitian(x_mat):
        raise ShapeError("observable must be Hermitian")
    _, _, jump, drift = spec.qsde_coefficients()
    return _master_expectation(drift, [jump], x_mat, state, horizon, dt)


# -------------------------------------------------------------- SWN route


def _rho_plus_window(label, K):
    """K x K rho+ image; rejects labels whose action escapes the window."""
    n, k, l = label
    for m in range(K):
        if theta(n, k, l, m) != 0.0 and n + m - l >= K:
            raise IndexEscapeError(
                f"conservation label {label} raises mode {m} to {n + m - l}, "
                f"outside multiplicity truncation K={K}",
                needed=n + m - l + 1,
                limit=K,
            )
    return rho_plus_matrix(n, k, l, K)


def _swn_checked_coefficients(h_mat, d_minus, w_op, k_modes):
    """(F0, Phi, rho+ images of the conservation labels) at multiplicity
    truncation K: the drift F0 = -(Dm*|Dm*)/2 + iH and the creation-slot
    coefficient Phi = -r(W) Dm* of the SWN evolution, after rejecting a
    non-Hermitian H, annihilation or creation indices >= K, and
    conservation labels whose action escapes the K-window (clipping would
    corrupt the table).  This is the whole admission rule of both SWN
    routes."""
    h_mat = as_matrix(h_mat, d_minus.dim, name="H")
    if not is_hermitian(h_mat):
        raise ShapeError("H must be Hermitian")
    if d_minus.max_index() >= k_modes:
        raise IndexEscapeError(
            f"annihilation coefficient indices exceed K={k_modes}",
            needed=d_minus.max_index() + 1, limit=k_modes,
        )
    images = {label: _rho_plus_window(label, k_modes) for label in w_op.cons_terms()}
    dm_star = d_minus.adjoint()
    f0 = -0.5 * inner(dm_star, dm_star) + 1j * h_mat
    phi = -1.0 * r_map(w_op, dm_star)
    if phi.max_index() >= k_modes:
        raise IndexEscapeError(
            f"creation coefficient escapes K={k_modes}",
            needed=phi.max_index() + 1, limit=k_modes,
        )
    return f0, phi, images


def swn_matrix_element_evolution(h_mat, d_minus, w_op, u, v, config, f=None, g=None):
    """<u (x) psi(f), U_t v (x) psi(g)> for the SWN evolution, K modes.

    The SWN unitary maps to a multiplicity-K first-order evolution: the
    conservation coefficient W - I acts through the K-truncated rho+
    images, the annihilation slot carries D-, the creation slot
    -r(W) Dm*.  For piecewise-constant C^K-valued test functions f, g the
    matrix element reduces to the system ODE

        V' = ( sum_labels <f, rho+_K(label) g> (W - I)_label
               + sum_m g_m D_{-,m} + sum_n conj(f_n) Phi_n + F0 ) V,
        V(0) = exp(<f, g>) id,

    with F0 = -(Dm*|Dm*)/2 + iH and Phi = -r(W) Dm*.  Conservation labels
    whose action escapes the K-window reject (clipping would corrupt the
    table).
    """
    k_modes = config.swn_modes
    dim = d_minus.dim
    horizon = config.horizon
    f = f if f is not None else PiecewiseConstant.zero(horizon, k_modes)
    g = g if g is not None else PiecewiseConstant.zero(horizon, k_modes)
    for name, func in (("f", f), ("g", g)):
        if func.values[0].shape != (k_modes,):
            raise ShapeError(f"{name} must take values in C^{k_modes}")
    f0, phi, cons_images = _swn_checked_coefficients(h_mat, d_minus, w_op, k_modes)
    cons = w_op.cons_terms()
    modes_minus = d_minus.mode_terms()
    modes_phi = phi.mode_terms()

    def gen(t):
        f_val = f.value(t)
        g_val = g.value(t)
        total = f0.copy()
        for label, sys_mat in cons.items():
            image = cons_images[label]
            weight = complex(f_val.conj() @ image @ g_val)
            total = total + weight * sys_mat
        # the conservation slot carries W - I; the -I part contracts to
        # <f, g> times the system identity
        total = total - complex(f_val.conj() @ g_val) * np.eye(dim)
        for m, mat in modes_minus.items():
            total = total + complex(g_val[m]) * mat
        for n, mat in modes_phi.items():
            total = total + complex(f_val[n].conjugate()) * mat
        return total

    return _matrix_element_series(gen, dim, f, g, u, v, horizon, config.dt)


def swn_simulate(h_mat, d_minus, w_op, observable, state, config):
    """Vacuum expectation of the SWN Heisenberg flow of ``observable``.

    Maps the SWN evolution to a multiplicity-K first-order evolution
    (conservation coefficients through their rho+ images, mode vectors as
    K-mode annihilators/creators) and integrates the induced master
    equation rho' = F0 rho + rho F0* + sum_n Phi_n rho Phi_n*.  It admits
    exactly the coefficients the matrix-element route admits.
    """
    f0, phi, _ = _swn_checked_coefficients(h_mat, d_minus, w_op, config.swn_modes)
    x_mat = as_matrix(observable, d_minus.dim)
    return _master_expectation(
        f0, list(phi.mode_terms().values()), x_mat, state, config.horizon, config.dt
    )
