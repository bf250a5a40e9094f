"""Truncated-Fock numerics for first-order and SWN quantum noise.

Every evolution is read in one format, its generator: a ``ModuleOperator``
G with dU = G U on the labels dt, dA_m, dA+_m and dL(n, k, l).  A
first-order evolution is the multiplicity K = 1 case:
``HpEvolutionSpec.generator`` and ``GenericQsdeSpec.generator`` fill the
K = 1 labels ``ito.labels.FIRST_ORDER`` (dt, dA_0, dA+_0, dL(0,0,0)), and
the Weyl differentials multiply on them with the SWN table.
``swn_generator`` is the one builder of the SWN evolution
(-(Dm*|Dm*)/2 + iH) dt + dA(D-) + dA+(-r(W) Dm*) + dL(W - I), for both SWN
routes here and for ``qcontrol``; ``_admitted_images`` is the one check of
a generator at K.

Two computational routes coexist on purpose:

* the production route reduces exponential-vector matrix elements of a
  quantum stochastic evolution to a system-space linear ODE (the
  fundamental-theorem reduction) and integrates it with the package's
  fixed-step RK4 -- no discretization of the noise at all;
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

Each route is written once and reads only the generator.  The Euler-Ito
one-step operator (``_euler_ito_step``) reads the four K = 1 slots and
drives the tensor oracle and the unitarity defect; one matrix-element
kernel (``_matrix_element_series``) serves both calculi at any K, the
conservation slot entering through its rho+_K images; and vacuum
expectations of Heisenberg flows close on the system space as the master
equation rho' = D rho + rho D* + sum_J J rho J*, D the dt slot and J the
creation slot (``_master_generator``), which ``flow_expectation``,
``swn_simulate`` and the quadratic costs of ``qcontrol`` integrate.

Every ODE here is linear with a generator that is constant on each run of
equal steps: the matrix-element reduction between the breakpoints of the
test functions, the master equations and the characteristic functionals
throughout.  They all go through ``linalg.rk4_linear``, which runs them
as RK4 step maps, one matrix per run instead of four generator calls per
step, wherever the map costs no more than stepping (no more state
entries than steps, nor than sixteen times the state's trailing
dimension); only the nonlinear Riccati equations of ``classical`` always
step with ``linalg.rk4``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexEscapeError, ResourceLimitError, ShapeError
from .ito import SymbolicDifferential, swn_mul
from .ito.labels import FIRST_ORDER
from .ito.module_ops import ModuleOperator, inner, r_map, require_slot
from .ito.sl2 import rho_plus_matrix, theta
from .linalg import as_matrix, is_hermitian, is_unitary, rk4_linear

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
                writer.writerow([repr(float(t)), repr(float(v.real)), repr(float(v.imag))])

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
        if not self.values:
            raise ShapeError("need at least one segment")
        if any(b2 <= b1 for b1, b2 in zip(self.breaks, self.breaks[1:])):
            raise ShapeError("breakpoints must increase")
        if any(val.shape != self.values[0].shape for val in self.values):
            raise ShapeError("every segment must take values of one shape")

    @classmethod
    def zero(cls, horizon, modes=1):
        return cls([horizon], [np.zeros(modes, dtype=complex)])

    def value(self, t):
        last = len(self.breaks) - 1
        for idx, (edge, val) in enumerate(zip(self.breaks, self.values)):
            # segments are right-open except the final one, so the right
            # endpoint of the domain carries the last segment's value; the
            # ODE routes never evaluate at a breakpoint (each segment runs
            # with its generator at the segment midpoint)
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

    def generator(self):
        """dU = G U: -(iH + L*L/2) dt - L*W dA_0 + L dA+_0 + (W - 1) dL(0,0,0)."""
        return _first_order_generator(
            -(1j * self.H + 0.5 * self.L.conj().T @ self.L),
            -self.L.conj().T @ self.W,
            self.L,
            self.W - np.eye(self.dim),
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

    def generator(self):
        """dU = G U: (F - Pi) dt + Psi dA_0 + Phi dA+_0 + Z dL(0,0,0)."""
        drift = self.F if self.feedback is None else self.F - self.feedback
        return _first_order_generator(drift, self.Psi, self.Phi, self.Z)


def _first_order_generator(*slots):
    """The K = 1 generator with these dt, dA_0, dA+_0 and dL(0,0,0) slots."""
    return ModuleOperator(dict(zip(FIRST_ORDER, slots)))


# ------------------------------------------------------------- time grid


def _grid_with_breaks(horizon, dt, breaks=()):
    """Uniform-dt grid refined so every breakpoint is a grid node.

    Returns (grid, runs): the segment between two consecutive breakpoints
    is one run (a, b, steps) of equal steps of at most dt, the form
    ``rk4_linear`` takes.
    """
    edges = sorted({0.0, float(horizon)} | {float(b) for b in breaks if 0 < b < horizon})
    grid = [0.0]
    runs = []
    for a, b in zip(edges, edges[1:]):
        steps = max(1, math.ceil((b - a) / dt - 1e-12))
        grid.extend(a + (b - a) * (j + 1) / steps for j in range(steps))
        runs.append((a, b, steps))
    return np.array(grid), runs


# ------------------------------------------------- matrix-element evolution


def matrix_element_evolution(spec, f, g, u, v, horizon, dt=1e-3):
    """<u (x) psi(f), U_t v (x) psi(g)> on a time grid.

    f, g are ``PiecewiseConstant`` scalar test functions (None = vacuum).
    This is the K = 1 call of the matrix-element kernel on
    ``spec.generator()``: with (Z, Psi, Phi, D) the (dL, dA, dA+, dt)
    slots the matrix element equals <u, V_t v> with

        V' = (conj(f) g Z + g Psi + conj(f) Phi + D) V,
        V_0 = exp(<f, g>) * identity,

    integrated as the RK4 step map of each segment between the
    breakpoints of f and g (fourth order across the breakpoints).
    """
    return _matrix_element_series(spec.generator(), 1, f, g, u, v, horizon, dt)


def _matrix_element_series(op, K, f, g, u, v, horizon, dt):
    """<u (x) psi(f), U_t v (x) psi(g)> for dU = op U at multiplicity K.

    f, g are C^K-valued ``PiecewiseConstant`` test functions (None =
    vacuum).  The matrix element is <u, V_t v> for

        V' = ( T + sum_m g_m A_m + sum_n conj(f_n) C_n
               + sum_labels <f, rho+_K(label) g> Z_label ) V,
        V_0 = exp(<f, g>) id,

    with T, A_m, C_n and Z_label the dt, dA_m, dA+_n and dL(label)
    coefficients of ``op``; rho+_K(0,0,0) is the identity, so the -I of a
    conservation slot W - I carries the -<f, g> term.  The grid is aligned
    with the segment breakpoints of f and g, and each segment is one run
    of ``rk4_linear`` with its own generator, evaluated at the segment's
    midpoint: the segments are right-open, so a stage at the breakpoint
    would see the next segment's generator and cost the fourth order.
    """
    f = f if f is not None else PiecewiseConstant.zero(horizon, K)
    g = g if g is not None else PiecewiseConstant.zero(horizon, K)
    for name, func in (("f", f), ("g", g)):
        if any(val.shape != (K,) for val in func.values):
            raise ShapeError(f"{name} must take values in C^{K}")
    images = _admitted_images(op, K)
    u = np.asarray(u, dtype=complex).reshape(op.dim)
    v = np.asarray(v, dtype=complex).reshape(op.dim)

    def gen(t):
        conj_f, g_val = f.value(t).conj(), g.value(t)
        total = np.zeros((op.dim, op.dim), dtype=complex)
        for key, mat in op.terms.items():
            if key.kind == "time":
                weight = 1.0
            elif key.kind == "ann":
                weight = g_val[key.idx[0]]
            elif key.kind == "cre":
                weight = conj_f[key.idx[0]]
            else:
                weight = conj_f @ images[key.idx] @ g_val
            total += complex(weight) * mat
        return total

    grid, runs = _grid_with_breaks(
        horizon, dt, f.segment_edges(horizon) + g.segment_edges(horizon)
    )
    x0 = np.exp(f.overlap(g, horizon)) * v
    states = rk4_linear(lambda t, x: x @ gen(t).T, x0, runs)
    return ExpectationSeries(grid, states @ u.conj())


# --------------------------------------------------------- tensor oracle O2


def _euler_ito_step(spec, d, dt):
    """Euler-Ito one-step operator on system (x) one fresh d-level mode,

        1 + dt D + sqrt(dt) (Psi a + Phi a+) + Z a+ a,

    with (D, Psi, Phi, Z) the (dt, dA_0, dA+_0, dL(0,0,0)) slots of the
    K = 1 generator of ``spec``: each slot's label becomes its increment
    on the fresh mode."""
    op = spec.generator()
    a_op = np.diag(np.sqrt(np.arange(1, d, dtype=float)), 1)
    increments = dict(zip(FIRST_ORDER, (
        dt * np.eye(d), math.sqrt(dt) * a_op, math.sqrt(dt) * a_op.T, a_op.T @ a_op)))
    step_op = np.kron(np.eye(op.dim), np.eye(d))
    for label, mat in op.terms.items():
        step_op = step_op + np.kron(mat, increments[label])
    return step_op


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
    table (the SWN table on the K = 1 labels): for k != 0 the bracket is

        (i lam + |z|^2 M / k^2) dt + (i z + z M / k) dA_0
        + (i conj(z) + conj(z) M / k) dA+_0 + (i k + M) dL(0,0,0),
        M = exp(ik) - 1 - ik,

    and for k = 0 the series terminates at second order:

        (i lam - |z|^2 / 2) dt + i z dA_0 + i conj(z) dA+_0.
    """
    z = complex(z)
    z_sq = (z * z.conjugate()).real  # |z|^2 via the same product the series forms
    if k != 0:
        m_val = np.exp(1j * k) - 1.0 - 1j * k
        coeffs = (1j * lam + (z_sq / k**2) * m_val, 1j * z + (z / k) * m_val,
                  1j * z.conjugate() + (z.conjugate() / k) * m_val, 1j * k + m_val)
    else:
        coeffs = (1j * lam - 0.5 * z_sq, 1j * z, 1j * z.conjugate(), 0.0)
    return SymbolicDifferential(dict(zip(FIRST_ORDER, coeffs)))


def weyl_series(lam, z, k, n_terms=40):
    """Partial sum of sum_{n>=1} (i dE)^n / n! under the SWN table on the
    K = 1 labels (test oracle)."""
    de = SymbolicDifferential(dict(zip(FIRST_ORDER, (complex(lam), complex(z),
                                                     complex(z).conjugate(), complex(k)))))
    ide = 1j * de
    total = SymbolicDifferential.zero()
    power = None
    factorial = 1.0
    for n in range(1, n_terms + 1):
        power = ide if power is None else swn_mul(power, ide)
        factorial *= n
        total = total + (1.0 / factorial) * power
        if power.is_zero():
            break
    return total


def characteristic_functional(kind, s, lam, t, dt=1e-4):
    """Vacuum characteristic functional of Brownian / Poisson realizations.

    Simulates f' = c f with the dt coefficient c of the Weyl differential
    (the RK4 step map over max(1, round(t / dt)) equal steps) and returns
    (simulated, closed_form): exp(-s^2 t / 2) for Brownian,
    exp(lam (e^{is} - 1) t) for Poisson.
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
    c_val = bracket.coeff(FIRST_ORDER[0])
    states = rk4_linear(lambda _t, y: c_val * y, 1.0 + 0.0j, [(0.0, t, max(1, round(t / dt)))])
    return complex(states[-1]), complex(closed)


# ------------------------------------------------------- Heisenberg flows


def _master_generator(op):
    """Vacuum master equation rho -> D rho + rho D* + sum_J J rho J* of
    dU = op U: D is the dt slot and the jumps J the creation slot."""
    drift = op.time
    drift_star = drift.conj().T
    jumps = list(op.slot("cre").terms.values())

    def gen(rho):
        out = drift @ rho + rho @ drift_star
        for jump in jumps:
            out += jump @ rho @ jump.conj().T
        return out

    return gen


def _master_expectation(op, observable, state, horizon, dt):
    """t -> tr(rho_t X) along the master equation of ``op`` from the pure
    state, for a Hermitian observable X."""
    x_mat = as_matrix(observable, op.dim)
    if not is_hermitian(x_mat):
        raise ShapeError("observable must be Hermitian")
    state = np.asarray(state, dtype=complex).reshape(op.dim)
    rho0 = np.outer(state, state.conj())
    gen = _master_generator(op)
    grid, runs = _grid_with_breaks(horizon, dt)
    states = rk4_linear(lambda _t, rho: gen(rho), rho0, runs)
    values = np.einsum("kij,ji->k", states, x_mat)
    return ExpectationSeries(grid, values)


def flow_expectation(spec, observable, state, horizon, dt=1e-3):
    """Vacuum expectation of the Heisenberg flow of a Hermitian observable.

    Integrates the master equation with D = -(iH + L*L/2) and the single
    jump L for the conditional state and returns t -> tr(rho_t X) with
    rho_0 the pure system state.
    """
    return _master_expectation(spec.generator(), observable, state, horizon, dt)


# -------------------------------------------------------------- SWN route


def _admitted_images(op, K):
    """K x K rho+ images of the conservation labels of the generator
    ``op``, after admitting it at multiplicity truncation K: rejects
    conservation labels whose action raises a mode of the K-window out of
    it (clipping would corrupt the table), then mode indices >= K.  A
    first-order generator passes by construction.  This is the whole
    multiplicity rule of both SWN routes."""
    images = {}
    for n, k, l in op.cons_terms():
        for m in range(K):
            if theta(n, k, l, m) != 0.0 and n + m - l >= K:
                raise IndexEscapeError(
                    f"conservation label {(n, k, l)} raises mode {m} to {n + m - l}, "
                    f"outside multiplicity truncation K={K}",
                    needed=n + m - l + 1,
                    limit=K,
                )
        images[n, k, l] = rho_plus_matrix(n, k, l, K)
    for key in op.terms:
        if key.kind in ("ann", "cre") and key.idx[0] >= K:
            raise IndexEscapeError(
                f"{key} has a mode index outside multiplicity truncation K={K}",
                needed=key.idx[0] + 1,
                limit=K,
            )
    return images


def swn_generator(h_mat, d_minus, w_op):
    """The SWN evolution dU = G U with

        G = (-(Dm*|Dm*)/2 + iH) dt + dA(D-) + dA+(-r(W) Dm*) + dL(W - I),

    after rejecting a non-Hermitian H, a D- with other than annihilation
    labels and a W with other than conservation labels."""
    require_slot(d_minus, "ann", "d_minus")
    require_slot(w_op, "cons", "w_op")
    dim = d_minus.dim
    h_mat = as_matrix(h_mat, dim, name="H")
    if not is_hermitian(h_mat):
        raise ShapeError("H must be Hermitian")
    dm_star = d_minus.adjoint()
    return (
        ModuleOperator.from_time(-0.5 * inner(dm_star, dm_star) + 1j * h_mat)
        + d_minus
        - r_map(w_op, dm_star)
        + (w_op - ModuleOperator.identity_cons(dim))
    )


def swn_matrix_element_evolution(h_mat, d_minus, w_op, u, v, config, f=None, g=None):
    """<u (x) psi(f), U_t v (x) psi(g)> for the SWN evolution, K modes.

    The matrix-element kernel on ``swn_generator`` at K =
    ``config.swn_modes``: the SWN unitary acts as a multiplicity-K
    first-order evolution whose conservation slot W - I enters through
    the K-truncated rho+ images, for piecewise-constant C^K-valued test
    functions f, g.  Conservation labels whose action escapes the
    K-window reject (clipping would corrupt the table).
    """
    return _matrix_element_series(
        swn_generator(h_mat, d_minus, w_op), config.swn_modes, f, g, u, v,
        config.horizon, config.dt,
    )


def swn_simulate(h_mat, d_minus, w_op, observable, state, config):
    """Vacuum expectation of the SWN Heisenberg flow of ``observable``.

    Integrates the master equation of ``swn_generator``,
    rho' = F0 rho + rho F0* + sum_n Phi_n rho Phi_n* with F0 its dt slot
    and Phi its creation slot -r(W) Dm*.  It admits exactly the
    coefficients the SWN matrix-element route admits and the observables
    ``flow_expectation`` admits.
    """
    op = swn_generator(h_mat, d_minus, w_op)
    _admitted_images(op, config.swn_modes)
    return _master_expectation(op, observable, state, config.horizon, config.dt)
