"""Quantum quadratic control: operator Riccati conditions, feedback
synthesis, cost evaluation, and symbolic flow derivations.

The three condition residuals of the first-order feedback problem are

    r1 = || Pi F + F* Pi + Phi* Pi Phi - Pi^2 + X^2 ||_F
    r2 = || Pi Psi + Phi* Pi + Phi* Pi Z ||_F
    r3 = || Pi Z + Z* Pi + Z* Pi Z ||_F

and when all three vanish the quadratic cost of the feedback u = -Pi U is
exactly <xi, Pi xi>, independent of the horizon.  Synthesis in the unitary
case takes L = sqrt(2) Pi^(1/2) W1 (polar form) and W = W2 with W1, W2
unitary and commuting with Pi; this forces L*L = 2 Pi, [L, Pi] = 0 and L
normal.

In finite dimensions the reduced Riccati equation i[H,Pi] + Pi^2 + X^2 = 0
has no nontrivial exact solution: the commutator is traceless, so

     || i[H,Pi] + Pi^2 + X^2 ||_F >= tr(X^2)/sqrt(n)

for every Hermitian Pi.  ``reduced_riccati_obstruction`` reports that bound next
to a numerically minimized residual; acceptance therefore certifies
residual-controlled statements instead of pretending an exact solution
exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .errors import ShapeError
from .fock import GenericQsdeSpec, HpEvolutionSpec, _master_generator, swn_generator
from .freealg import FreePoly
from .ito.differential import SymbolicDifferential
from .ito.labels import FIRST_ORDER
from .ito.module_ops import ModuleOperator, circ, inner, l_map, module_ito_mul, r_map, require_slot
from .ito.swn import swn_mul
from .linalg import (as_matrix, commutator, fro, is_unitary, psd_sqrt, require_hermitian,
                     rk4_linear)


# ----------------------------------------------------------- problem data


@dataclass
class HpControlProblem:
    """Quadratic-cost data for the first-order Langevin flow."""

    H: np.ndarray
    X: np.ndarray
    xi: np.ndarray
    horizon: float

    def __post_init__(self):
        self.H = as_matrix(self.H, name="H")
        dim = self.H.shape[0]
        self.X = as_matrix(self.X, dim, name="X")
        require_hermitian(self.H, "H", 1e-10)
        require_hermitian(self.X, "X", 1e-10)
        self.xi = np.asarray(self.xi, dtype=complex).reshape(dim)
        if np.linalg.norm(self.xi) == 0:
            raise ShapeError("xi must be nonzero")
        if self.horizon <= 0:
            raise ShapeError("horizon must be positive")

    @property
    def dim(self):
        return self.H.shape[0]


# ------------------------------------------------------ Riccati residuals


def check_hp_riccati_system(pi_mat, f_mat, psi_mat, phi_mat, z_mat, x_mat):
    """Frobenius residuals (r1, r2, r3) of the three condition equations:
    the K = 1 case of the SWN system, with Psi on dA_0, Phi on dA+_0 and Z
    on dL(0,0,0)."""
    dim = as_matrix(pi_mat).shape[0]
    return check_swn_riccati_system(
        pi_mat,
        f_mat,
        ModuleOperator.from_ann({0: psi_mat}, dim=dim),
        ModuleOperator.from_cre({0: phi_mat}, dim=dim),
        ModuleOperator.from_cons({(0, 0, 0): z_mat}, dim=dim),
        x_mat,
    )


def check_swn_riccati_system(pi_mat, f_mat, psi_op, phi_op, z_op, x_mat):
    """Residuals of the SWN condition system (module-operator version).

    r1 uses the (Phi | Pi Phi) pairing, r2 the annihilation-slot equation
    Pi Psi + Phi* Pi + l(Pi Z) Phi*, r3 the conservation-slot equation
    Pi Z + Z* Pi + (Z* Pi) circ Z.  Psi carries annihilation labels, Phi
    creation labels and Z conservation labels.
    """
    require_slot(psi_op, "ann", "psi_op")
    require_slot(phi_op, "cre", "phi_op")
    require_slot(z_op, "cons", "z_op")
    pi_mat, f_mat, x_mat = as_matrix(pi_mat), as_matrix(f_mat), as_matrix(x_mat)
    r1 = fro(
        pi_mat @ f_mat
        + f_mat.conj().T @ pi_mat
        + inner(phi_op, phi_op.left_mul(pi_mat))
        - pi_mat @ pi_mat
        + x_mat @ x_mat
    )
    phi_star = phi_op.adjoint()
    r2_op = psi_op.left_mul(pi_mat) + phi_star.right_mul(pi_mat) + l_map(
        z_op.left_mul(pi_mat), phi_star
    )
    r2 = r2_op.norm()
    z_star = z_op.adjoint()
    r3_op = z_op.left_mul(pi_mat) + z_star.right_mul(pi_mat) + circ(
        z_star.right_mul(pi_mat), z_op
    )
    r3 = r3_op.norm()
    return r1, r2, r3


# --------------------------------------------------------------- synthesis


_SYNTHESIS_TOL = 1e-10  # unitarity of W1, W2 and their commutation with Pi


def synthesize_hp(pi_mat, w1=None, w2=None):
    """Optimal (L, W) from a PSD gain: L = sqrt(2) Pi^(1/2) W1, W = W2."""
    pi_mat = as_matrix(pi_mat)
    dim = pi_mat.shape[0]
    w1 = as_matrix(w1 if w1 is not None else np.eye(dim), dim, name="W1")
    w2 = as_matrix(w2 if w2 is not None else np.eye(dim), dim, name="W2")
    for name, mat in (("W1", w1), ("W2", w2)):
        if not is_unitary(mat, _SYNTHESIS_TOL):
            raise ShapeError(f"{name} must be unitary")
        defect = fro(commutator(mat, pi_mat))
        if defect > _SYNTHESIS_TOL:
            raise ShapeError(f"[{name}, Pi] does not vanish (norm {defect:.3e})")
    l_mat = math.sqrt(2.0) * psd_sqrt(pi_mat) @ w1
    return l_mat, w2


def synthesis_residuals(pi_mat, l_mat, w_mat):
    """Diagnostics for a synthesized pair: the two condition equations
    of the unitary case, L*L - 2 Pi, and the commutators/normality."""
    l_dag, w_dag = l_mat.conj().T, w_mat.conj().T
    eye = np.eye(pi_mat.shape[0])
    cond_a = l_dag @ pi_mat - pi_mat @ l_dag @ w_mat + l_dag @ pi_mat @ (w_mat - eye)
    cond_b = (
        (w_dag - eye) @ pi_mat
        + pi_mat @ (w_mat - eye)
        + (w_dag - eye) @ pi_mat @ (w_mat - eye)
    )
    return {
        "annihilation_condition": fro(cond_a),
        "conservation_condition": fro(cond_b),
        "gain_identity": fro(l_dag @ l_mat - 2.0 * pi_mat),
        "commutator_L_Pi": fro(commutator(l_mat, pi_mat)),
        "commutator_W_Pi": fro(commutator(w_mat, pi_mat)),
        "normality": fro(commutator(l_mat, l_dag)),
    }


# -------------------------------------------------- finite-dim obstruction


def _herm_unpack(vec, n):
    """The Hermitian n x n matrix of the real vector: its diagonal, then the
    real and imaginary parts of each upper entry, row by row."""
    rows, cols = np.triu_indices(n, 1)
    upper = vec[n::2] + 1j * vec[n + 1::2]
    mat = np.diag(vec[:n].astype(complex))
    mat[rows, cols] = upper
    mat[cols, rows] = upper.conj()
    return mat


def reduced_riccati_obstruction(h_mat, x_mat):
    """Trace obstruction for i[H,Pi] + Pi^2 + X^2 = 0 in finite dimensions.

    Returns the lower bound tr(X^2)/sqrt(n), valid for every Hermitian Pi
    (the commutator is traceless; Cauchy-Schwarz against the identity),
    together with a numerically minimized residual over Hermitian Pi: the
    best of three L-BFGS-B runs, from 0 and from two fixed random starts.
    With X = 0 the bound is 0 and Pi = 0 attains it.
    """
    h_mat, x_mat = as_matrix(h_mat), as_matrix(x_mat)
    n = h_mat.shape[0]
    x_sq = x_mat @ x_mat
    bound = float(np.trace(x_sq).real) / math.sqrt(n)
    rows, cols = np.triu_indices(n, 1)

    def objective(vec):
        pi_mat = _herm_unpack(vec, n)
        res = 1j * commutator(h_mat, pi_mat) + pi_mat @ pi_mat + x_sq
        grad_mat = 1j * commutator(res, h_mat) + pi_mat @ res + res @ pi_mat
        # 2 Re tr(E G) for each basis matrix E of _herm_unpack: e_ii, then
        # e_ij + e_ji and i e_ij - i e_ji for each upper pair
        lower, upper = grad_mat[cols, rows], grad_mat[rows, cols]
        grad = np.empty_like(vec)
        grad[:n] = 2.0 * grad_mat.diagonal().real
        grad[n::2] = 2.0 * (lower + upper).real
        grad[n + 1::2] = 2.0 * (1j * lower - 1j * upper).real
        return fro(res) ** 2, grad

    rng = np.random.default_rng(0)
    best_val, best_pi = np.inf, np.zeros((n, n), dtype=complex)
    starts = [np.zeros(n * n)] + [0.3 * rng.normal(size=n * n) for _ in range(2)]
    for start in starts:
        result = optimize.minimize(objective, start, jac=True, method="L-BFGS-B")
        if result.fun < best_val:
            best_val = result.fun
            best_pi = _herm_unpack(result.x, n)
    return {
        "bound": bound,
        "minimized_residual": math.sqrt(max(best_val, 0.0)),
        "minimizer": best_pi,
    }


# ------------------------------------------------------------------ costs


def _density_cost(op, xi, horizon, weight_fn, terminal_fn):
    """Integrate the vacuum master equation of dU = op U together with the
    running cost dJ = weight_fn(rho) dt.

    Both are one linear ODE with a constant generator on the stacked state
    (rho; J), run as the RK4 step map of ``rk4_linear`` in equal steps of
    at most min(0.01, horizon / 50); ``weight_fn`` must map a
    stack of densities (leading axis) to a stack of values.
    """
    dim = op.dim
    gen = _master_generator(op)
    y0 = np.zeros((dim + 1, dim), dtype=complex)
    y0[:dim] = np.outer(xi, xi.conj())

    def deriv(_t, y):
        rho = y[..., :dim, :]
        out = np.zeros_like(y)
        out[..., :dim, :] = gen(rho)
        out[..., dim, 0] = weight_fn(rho)
        return out

    # a horizon whose fiftieth underflows to 0 takes one step
    _, states = rk4_linear(deriv, y0, (0.0, horizon), min(0.01, horizon / 50) or horizon)
    rho_final = states[-1][:dim]
    return float((states[-1][dim, 0] + terminal_fn(rho_final)).real)


def cost_Q(spec, x_mat, xi, horizon):
    """Quadratic cost of the feedback u = -Pi U for a generic QSDE spec.

    Evaluates int_0^T (<U xi, X^2 U xi> + <Pi U xi, Pi U xi>) dt plus the
    terminal term <Pi U_T xi, U_T xi> through the vacuum density ODE
    rho' = (F - Pi) rho + rho (F - Pi)* + Phi rho Phi*.  When the three
    condition residuals vanish the value is <xi, Pi xi> and every other
    PSD feedback costs more.
    """
    if not isinstance(spec, GenericQsdeSpec):
        raise TypeError("expected a GenericQsdeSpec")
    x_mat = as_matrix(x_mat, spec.dim)
    pi_mat = spec.feedback if spec.feedback is not None else np.zeros((spec.dim, spec.dim))
    xi = np.asarray(xi, dtype=complex).reshape(spec.dim)
    x_sq = x_mat @ x_mat
    pi_sq = pi_mat @ pi_mat
    return _density_cost(
        spec.generator(),
        xi,
        horizon,
        weight_fn=lambda rho: np.trace(rho @ (x_sq + pi_sq), axis1=-2, axis2=-1),
        terminal_fn=lambda rho: np.trace(rho @ pi_mat),
    )


def cost_J_hp(problem, l_mat, w_mat):
    """Langevin-flow cost: int (||j_t(X) xi||^2 + ||j_t(L*L) xi||^2/4) dt
    plus the terminal ||j_T(L) xi||^2 / 2.

    All three pieces are vacuum expectations of Hermitian squares, so they
    ride the same Lindblad density ODE; the terminal term is evaluated as
    <j_T(L*L)>/2, which equals ||j_T(L) xi||^2/2 by unitarity.
    """
    l_mat = as_matrix(l_mat, problem.dim, name="L")
    w_mat = as_matrix(w_mat, problem.dim, name="W")
    spec = HpEvolutionSpec(H=problem.H, L=l_mat, W=w_mat)  # validates W unitary
    ll = l_mat.conj().T @ l_mat
    x_sq = problem.X @ problem.X
    ll_sq = ll @ ll
    return _density_cost(
        spec.generator(),
        problem.xi,
        problem.horizon,
        weight_fn=lambda rho: np.trace(rho @ (x_sq + 0.25 * ll_sq), axis1=-2, axis2=-1),
        terminal_fn=lambda rho: 0.5 * np.trace(rho @ ll),
    )


def exact_condition_instance(rng, dim=2):
    """A coefficient set whose condition residuals vanish to rounding.

    Built diagonally (commuting core) and conjugated by a random unitary:
    F = -iH - A, Psi = -Phi*, Z = 0, X^2 = Pi^2 + Pi A + A Pi - Phi* Pi Phi
    with every piece diagonal and X^2 positive by construction.
    """
    p_diag = rng.uniform(0.5, 1.5, size=dim)
    a_diag = rng.uniform(0.5, 1.0, size=dim)
    h_diag = rng.uniform(-1.0, 1.0, size=dim)
    l_diag = np.sqrt(p_diag / 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=dim))
    x_sq_diag = p_diag**2 + 2 * a_diag * p_diag - np.abs(l_diag) ** 2 * p_diag
    assert np.all(x_sq_diag > 0)

    gauss = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    v_mat, _ = np.linalg.qr(gauss)

    def lift(diag):
        return v_mat @ np.diag(diag.astype(complex)) @ v_mat.conj().T

    pi_mat = lift(p_diag)
    f_mat = lift(-1j * h_diag - a_diag)
    phi_mat = lift(l_diag)
    psi_mat = -phi_mat.conj().T
    x_mat = lift(np.sqrt(x_sq_diag))
    spec = GenericQsdeSpec(
        F=f_mat, Psi=psi_mat, Phi=phi_mat, Z=np.zeros((dim, dim)), feedback=pi_mat
    )
    return spec, pi_mat, x_mat


def swn_commuting_instance():
    """The commuting SWN control instance: Pi = diag(0.5, 1.25), D- =
    sqrt(2) Pi^(1/2) on mode 0, W = diag(e^{0.4i}, e^{-1.1i}) on
    dL(0,0,0), H = diag(0.2, 0.9) and X = diag(1, 0.7).

    Everything commutes with Pi, so the annihilation and conservation
    conditions cancel exactly.  Returns (pi_mat, d_minus, w_op, h_mat, x_mat).
    """
    pi_mat = np.diag([0.5, 1.25]).astype(complex)
    d0 = math.sqrt(2.0) * np.diag(np.sqrt(np.diag(pi_mat).real))
    d_minus = ModuleOperator.from_ann({0: d0}, dim=2)
    w_op = ModuleOperator.from_cons({(0, 0, 0): np.diag(np.exp(1j * np.array([0.4, -1.1])))})
    h_mat = np.diag([0.2, 0.9]).astype(complex)
    x_mat = np.diag([1.0, 0.7]).astype(complex)
    return pi_mat, d_minus, w_op, h_mat, x_mat


# ------------------------------------------------- symbolic flow derivation


@dataclass
class FlowDerivationReport:
    computed: dict
    expected: dict
    matches: bool

    def mismatch_dump(self):
        lines = []
        for key, comp in self.computed.items():
            lines.append(f"[{key}] computed: {comp.canonical_str()}")
            lines.append(f"[{key}] expected: {self.expected[key].canonical_str()}")
        return "\n".join(lines)


def derive_flow_hp(x=None, l=None, w=None):
    """Expand dj(X) = dU* X U + U* X dU + dU* X dU in the free *-algebra.

    Uses the unitary-evolution coefficients on the K = 1 labels (dt, dA_0,
    dA+_0, dL(0,0,0) slots), multiplied with the SWN table:

        dU  = -((iH + L*L/2) dt + L*W dA - L dA+ + (1 - W) dL) U
        dU* = -U* ((-iH + L*L/2) dt - L* dA + W*L dA+ + (1 - W*) dL)

    and asserts the flow coefficients against the stated quadruple

        dt:  i[H,X] - (L*LX + XL*L - 2 L*XL)/2
        dA:  [L*,X] W          dA+: W* [X,L]          dL:  W*XW - X.

    ``x``, ``l``, ``w`` default to free symbols; passing ``FreePoly``
    values specializes the derivation (x = 1 gives the unitality check,
    l = 0 with w = 1 the pure Heisenberg case).
    """
    i = 1j
    h_sym = FreePoly.sym("H")
    l_sym = l if l is not None else FreePoly.sym("L")
    ls_sym = l_sym.adjoint()
    w_sym = w if w is not None else FreePoly.sym("W")
    ws_sym = w_sym.adjoint()
    x_sym = x if x is not None else FreePoly.sym("X")
    one = FreePoly.one()

    dt, da, dad, dl = FIRST_ORDER
    right = SymbolicDifferential({
        dt: -(i * h_sym + 0.5 * ls_sym * l_sym),
        da: -(ls_sym * w_sym),
        dad: l_sym,
        dl: w_sym - one,
    })
    # the adjoint stars the coefficients AND swaps dA/dA+, since (dA)* = dA+
    left = right.adjoint()
    flow = left * x_sym + x_sym * right + swn_mul(left * x_sym, right)
    computed = {label: flow.terms.get(label, FreePoly.zero()) for label in FIRST_ORDER}

    expected = {
        dt: i * (h_sym * x_sym - x_sym * h_sym)
        - 0.5 * (ls_sym * l_sym * x_sym + x_sym * ls_sym * l_sym - 2.0 * ls_sym * x_sym * l_sym),
        da: (ls_sym * x_sym - x_sym * ls_sym) * w_sym,
        dad: ws_sym * (x_sym * l_sym - l_sym * x_sym),
        dl: ws_sym * x_sym * w_sym - x_sym,
    }
    matches = all(computed[k] == expected[k] for k in FIRST_ORDER)
    return FlowDerivationReport(
        computed=computed,
        expected=expected,
        matches=matches,
    )


def derive_flow_swn(h_mat, d_minus, w_op, x_mat):
    """Expand the SWN flow differential and compare both printed forms.

    The evolution pair is ``fock.swn_generator``'s

        dU  = ((-(Dm*|Dm*)/2 + iH) dt + dA(Dm) + dA+(-r(W)Dm*) + dL(W - I)) U
        dU* = U* ((-(Dm*|Dm*)/2 - iH) dt + dA+(Dm*) + dA(-l(W*)Dm) + dL(W* - I))

    and the expansion of dU* X U + U* X dU + dU* X dU is compared against

    * the proposition form: dA+ slot Dm*X - r(W*X) r(W) Dm*,
                            dA  slot X Dm - l(XW) l(W*) Dm;
    * the composed-argument form: dA+ slot Dm*X - r((W*X) circ W) Dm*,
                            dA  slot X Dm - l(W* circ (XW)) Dm.

    Both agree whenever r is a circ-homomorphism and l a circ-
    antihomomorphism, which the associativity of the table guarantees;
    the report records each comparison separately.  The time slot carries
    i[X,H] (note the orientation: the SWN evolution has +iH drift where
    the first-order one has -iH).  The builder rejects a non-Hermitian H.
    """
    right = swn_generator(h_mat, d_minus, w_op)
    left = right.adjoint()
    h_mat = as_matrix(h_mat)
    x_mat = as_matrix(x_mat, right.dim, name="X")
    dm_star = d_minus.adjoint()
    w_star = w_op.adjoint()
    quad = inner(dm_star, dm_star)
    r_w_dm = r_map(w_op, dm_star)

    computed = left.right_mul(x_mat) + right.left_mul(x_mat) + module_ito_mul(
        left.right_mul(x_mat), right
    )

    time_expected = ModuleOperator.from_time(
        1j * (x_mat @ h_mat - h_mat @ x_mat)
        - 0.5 * (quad @ x_mat + x_mat @ quad)
        + inner(r_w_dm, r_w_dm.left_mul(x_mat))
    )
    wx_op = w_star.right_mul(x_mat)  # components (W*)_{abg} X
    cons_expected = circ(wx_op, w_op) - ModuleOperator.from_cons({(0, 0, 0): x_mat})

    prop_form = (
        time_expected
        + dm_star.right_mul(x_mat) - r_map(wx_op, r_w_dm)
        + d_minus.left_mul(x_mat) - l_map(w_op.left_mul(x_mat), l_map(w_star, d_minus))
        + cons_expected
    )
    composed_form = (
        time_expected
        + dm_star.right_mul(x_mat) - r_map(circ(wx_op, w_op), dm_star)
        + d_minus.left_mul(x_mat) - l_map(circ(w_star, w_op.left_mul(x_mat)), d_minus)
        + cons_expected
    )

    diff_prop = (computed - prop_form).norm()
    diff_composed = (computed - composed_form).norm()
    scale = max(1.0, computed.norm())
    return {
        "computed": computed,
        "matches_proposition_form": diff_prop <= 1e-9 * scale,
        "matches_composed_form": diff_composed <= 1e-9 * scale,
        "diff_proposition_form": diff_prop,
        "diff_composed_form": diff_composed,
    }
