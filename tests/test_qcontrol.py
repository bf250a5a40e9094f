"""Quantum quadratic control: condition residuals, cost identities,
synthesis, the finite-dimensional obstruction, and flow derivations."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from qscontrol.errors import ShapeError
from qscontrol.fock import GenericQsdeSpec, TruncationConfig, swn_simulate
from qscontrol.ito.module_ops import ModuleOperator, r_map
from qscontrol.linalg import commutator, fro, psd_sqrt
from qscontrol.qcontrol import (
    HpControlProblem,
    check_hp_riccati_system,
    check_swn_riccati_system,
    cost_J_hp,
    cost_Q,
    derive_flow_hp,
    derive_flow_swn,
    exact_condition_instance,
    reduced_riccati_obstruction,
    swn_commuting_instance,
    synthesize_hp,
    synthesis_residuals,
)

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


# ---------------------------------------------------------- HP residuals


def test_trivial_residuals_vanish():
    zero = np.zeros((2, 2))
    rng = np.random.default_rng(1)
    f = rng.normal(size=(2, 2))
    assert check_hp_riccati_system(zero, f, zero, zero, zero, zero) == (0.0, 0.0, 0.0)


def test_pure_drift_instance():
    eye = np.eye(2)
    zero = np.zeros((2, 2))
    r1, r2, r3 = check_hp_riccati_system(eye, zero, zero, zero, zero, eye)
    assert (r1, r2, r3) == (0.0, 0.0, 0.0)


def test_unitary_case_residual_reduces_to_commutator_form():
    # F = -iH, Phi = L = sqrt(2) Pi^(1/2), Psi = -L*, Z = 0 with [L, Pi] = 0:
    # r1 collapses to || i[H,Pi] + Pi^2 + X^2 ||_F, r2 = r3 = 0.
    rng = np.random.default_rng(2)
    pi_mat = np.diag([0.5, 1.5]).astype(complex)
    l_mat = math.sqrt(2.0) * np.diag(np.sqrt(np.diag(pi_mat)))
    h_mat = rng.normal(size=(2, 2))
    h_mat = h_mat + h_mat.T
    x_mat = np.diag([1.0, 2.0]).astype(complex)
    r1, r2, r3 = check_hp_riccati_system(
        pi_mat, -1j * h_mat, -l_mat.conj().T, l_mat, np.zeros((2, 2)), x_mat
    )
    want = fro(1j * commutator(h_mat, pi_mat) + pi_mat @ pi_mat + x_mat @ x_mat)
    assert abs(r1 - want) <= 1e-12
    assert r2 <= 1e-14 and r3 <= 1e-14


# -------------------------------------------------------------- cost of Q


def test_simple_identity_instance_cost_one():
    spec = GenericQsdeSpec(
        F=np.zeros((2, 2)),
        Psi=np.zeros((2, 2)),
        Phi=np.zeros((2, 2)),
        Z=np.zeros((2, 2)),
        feedback=np.eye(2),
    )
    xi = np.array([1.0, 0.0])
    # the cost identity <xi, Pi xi> = 1 holds to rounding (1.1e-16 measured)
    assert abs(cost_Q(spec, np.eye(2), xi, horizon=1.0) - 1.0) <= 1e-12


def test_cost_identity_holds_at_every_step_bound():
    # the cost ODE steps by at most min(0.01, horizon / 50), and a horizon
    # whose fiftieth underflows to 0 takes one step; RK4 keeps the linear
    # invariant tr(rho Pi) + J = 1 of the identity instance at each
    spec = GenericQsdeSpec(F=np.zeros((2, 2)), Psi=np.zeros((2, 2)), Phi=np.zeros((2, 2)),
                           Z=np.zeros((2, 2)), feedback=np.eye(2))
    for horizon in (5e-324, 1e-3, 0.7, 2.344):
        assert abs(cost_Q(spec, np.eye(2), [1.0, 0.0], horizon=horizon) - 1.0) <= 1e-12


def test_null_control_zero_cost():
    spec = GenericQsdeSpec(
        F=np.zeros((2, 2)), Psi=np.zeros((2, 2)), Phi=np.zeros((2, 2)), Z=np.zeros((2, 2))
    )
    assert cost_Q(spec, np.zeros((2, 2)), [1.0, 0.0], horizon=1.0) == 0.0


def test_feedback_perturbations_increase_cost():
    rng = np.random.default_rng(4)
    spec, pi_mat, x_mat = exact_condition_instance(rng, dim=2)
    xi = np.array([0.8, 0.6], dtype=complex)
    base = cost_Q(spec, x_mat, xi, horizon=1.0)
    for _ in range(10):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        bump = 0.1 * (g @ g.conj().T)
        pert = GenericQsdeSpec(
            F=spec.F, Psi=spec.Psi, Phi=spec.Phi, Z=spec.Z, feedback=pi_mat + bump
        )
        assert cost_Q(pert, x_mat, xi, horizon=1.0) > base + 1e-6


def test_cost_q_rk4_is_fourth_order_forward():
    # cost_Q steps by 0.01 on horizons of at least 0.5.  Doubling the
    # generator of (rho; J) (F' - Pi = 2 (F - Pi), Phi' = sqrt(2) Phi,
    # X'^2 = 2 X^2 + Pi^2) on half the horizon keeps the exact cost, the
    # expm of the stacked (vec rho; J) generator, and doubles the step:
    # the error grows by 2^4 (measured 16.66) for a non-optimal feedback
    rng = np.random.default_rng(3)
    spec, pi_mat, x_mat = exact_condition_instance(rng, dim=2)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    gain = pi_mat + 0.5 * (g @ g.conj().T)
    pert = GenericQsdeSpec(F=spec.F, Psi=spec.Psi, Phi=spec.Phi, Z=spec.Z, feedback=gain)
    doubled = GenericQsdeSpec(F=2 * spec.F - gain, Psi=spec.Psi, Phi=math.sqrt(2) * spec.Phi,
                              Z=spec.Z, feedback=gain)
    x_doubled = psd_sqrt(2 * x_mat @ x_mat + gain @ gain)
    xi = np.array([0.6, 0.8j])
    drift, eye = spec.F - gain, np.eye(2)
    # column-major vec: vec(A rho B) = (B^T kron A) vec(rho)
    stacked = np.zeros((5, 5), dtype=complex)
    stacked[:4, :4] = (np.kron(eye, drift) + np.kron(drift.conj(), eye)
                       + np.kron(spec.Phi.conj(), spec.Phi))
    stacked[4, :4] = (x_mat @ x_mat + gain @ gain).reshape(-1)  # vec(W^T), column-major
    final = expm(2.0 * stacked) @ np.append(np.outer(xi, xi.conj()).reshape(-1, order="F"), 0)
    exact = (final[4] + np.trace(final[:4].reshape(2, 2, order="F") @ gain)).real
    errors = [abs(cost_Q(doubled, x_doubled, xi, horizon=1.0) - exact),
              abs(cost_Q(pert, x_mat, xi, horizon=2.0) - exact)]
    assert 15.5 <= errors[0] / errors[1] <= 17.5


# ---------------------------------------------------------------- cost_J


def test_cost_j_trivial_zero():
    problem = HpControlProblem(H=SZ, X=np.zeros((2, 2)), xi=[1.0, 0.0], horizon=1.0)
    assert cost_J_hp(problem, np.zeros((2, 2)), np.eye(2)) == 0.0


def test_cost_j_constant_flow_scales_with_horizon():
    # L = 0, W = 1, [H, X] = 0: j_t(X) is constant, so the cost is
    # T ||X xi||^2.
    x_mat = np.diag([2.0, -1.0]).astype(complex)
    for horizon in (0.5, 1.0, 2.0):
        problem = HpControlProblem(H=SZ, X=x_mat, xi=[0.6, 0.8], horizon=horizon)
        got = cost_J_hp(problem, np.zeros((2, 2)), np.eye(2))
        want = horizon * float(np.linalg.norm(x_mat @ problem.xi) ** 2)
        assert abs(got - want) <= 1e-8


def test_cost_j_optimum_value_independent_of_horizon_x_zero_sector():
    # With X = 0 the reduced Riccati equation has the exact solution
    # Pi = 0; the synthesized optimum L = 0 gives cost <xi, Pi xi> = 0
    # for every horizon.
    for horizon in (0.3, 1.0, 3.0):
        problem = HpControlProblem(H=SX, X=np.zeros((2, 2)), xi=[1.0, 1.0j], horizon=horizon)
        l_mat, w_mat = synthesize_hp(np.zeros((2, 2)))
        assert cost_J_hp(problem, l_mat, w_mat) <= 1e-12


def test_cost_j_equals_cost_q_under_the_dictionary():
    # (7.1) read as (7.7): F = -iH, Psi = -L*W, Phi = L, Z = W - 1,
    # feedback Pi = L*L/2.
    rng = np.random.default_rng(5)
    pi_diag = np.diag([0.4, 1.1]).astype(complex)
    l_mat = math.sqrt(2.0) * np.diag(np.sqrt(np.diag(pi_diag).real))
    h_mat = np.diag([0.7, -0.2]).astype(complex)
    x_mat = np.diag([1.0, 0.5]).astype(complex)
    xi = rng.normal(size=2) + 1j * rng.normal(size=2)
    problem = HpControlProblem(H=h_mat, X=x_mat, xi=xi, horizon=0.8)
    direct = cost_J_hp(problem, l_mat, np.eye(2))
    spec = GenericQsdeSpec(
        F=-1j * h_mat,
        Psi=-l_mat.conj().T,
        Phi=l_mat,
        Z=np.zeros((2, 2)),
        feedback=pi_diag,
    )
    via_q = cost_Q(spec, x_mat, xi, horizon=0.8)
    # one density ODE under both readings: 8.9e-16 measured
    assert abs(direct - via_q) <= 1e-12


# -------------------------------------------------------------- synthesis


def test_synthesize_identity_case():
    l_mat, w_mat = synthesize_hp(np.eye(2))
    assert np.allclose(l_mat, math.sqrt(2) * np.eye(2))
    assert np.allclose(w_mat, np.eye(2))


def test_synthesize_diagonal_case_with_signs():
    pi_mat = np.diag([1.0, 4.0])
    w1 = np.diag([1.0, -1.0])
    l_mat, _ = synthesize_hp(pi_mat, w1=w1)
    assert np.allclose(l_mat, np.diag([math.sqrt(2), -2 * math.sqrt(2)]))
    assert np.allclose(l_mat.conj().T @ l_mat, 2 * pi_mat)


def test_synthesis_residuals_and_normality():
    rng = np.random.default_rng(6)
    gauss = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    v_mat, _ = np.linalg.qr(gauss)
    pi_mat = v_mat @ np.diag([0.2, 1.0, 2.5]) @ v_mat.conj().T
    w1 = v_mat @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 3))) @ v_mat.conj().T
    w2 = v_mat @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 3))) @ v_mat.conj().T
    l_mat, w_mat = synthesize_hp(pi_mat, w1=w1, w2=w2)
    res = synthesis_residuals(pi_mat, l_mat, w_mat)
    assert all(v <= 1e-9 for v in res.values())


def test_synthesize_rejects_noncommuting_unitary():
    pi_mat = np.diag([1.0, 2.0])
    with pytest.raises(ShapeError):
        synthesize_hp(pi_mat, w1=np.array([[0.0, 1.0], [1.0, 0.0]]))


# ------------------------------------------------------------ obstruction


def test_obstruction_zero_x_attained():
    report = reduced_riccati_obstruction(SX, np.zeros((2, 2)))
    assert report["bound"] == 0.0
    assert report["minimized_residual"] <= 1e-6


def test_obstruction_identity_x():
    report = reduced_riccati_obstruction(np.zeros((2, 2)), np.eye(2))
    assert abs(report["bound"] - math.sqrt(2)) <= 1e-12
    assert report["minimized_residual"] >= report["bound"] - 1e-7


def test_obstruction_sigma_pair():
    report = reduced_riccati_obstruction(SX, SZ)
    assert abs(report["bound"] - math.sqrt(2)) <= 1e-12
    assert report["minimized_residual"] >= report["bound"] - 1e-7


def test_obstruction_holds_for_random_hermitian_gains():
    rng = np.random.default_rng(7)
    h_mat, x_mat = SX, SZ
    bound = np.trace(x_mat @ x_mat).real / math.sqrt(2)
    for _ in range(50):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        pi_mat = 0.5 * (g + g.conj().T)
        res = fro(1j * commutator(h_mat, pi_mat) + pi_mat @ pi_mat + x_mat @ x_mat)
        assert res >= bound - 1e-12


# ----------------------------------------------------------- derivations


def test_derive_flow_hp_identity():
    report = derive_flow_hp()
    assert report.matches, report.mismatch_dump()


def test_derive_flow_hp_unitality():
    from qscontrol.freealg import FreePoly

    report = derive_flow_hp(x=FreePoly.one())
    assert all(poly.is_zero() for poly in report.computed.values())


def test_derive_flow_hp_heisenberg_case():
    from qscontrol.freealg import FreePoly
    from qscontrol.ito.labels import FIRST_ORDER

    report = derive_flow_hp(l=FreePoly.zero(), w=FreePoly.one())
    h_sym, x_sym = FreePoly.sym("H"), FreePoly.sym("X")
    dt, *noise = FIRST_ORDER
    assert report.computed[dt] == 1j * (h_sym * x_sym - x_sym * h_sym)
    for label in noise:
        assert report.computed[label].is_zero()


def test_derive_flow_swn_no_noise_reduces_to_heisenberg():
    dim = 2
    zero_modes = ModuleOperator.zero(dim)
    w_ident = ModuleOperator.identity_cons(dim)
    h_mat = SX
    report = derive_flow_swn(h_mat, zero_modes, w_ident, SZ)
    comp = report["computed"]
    want = 1j * (SZ @ h_mat - h_mat @ SZ)
    assert np.max(np.abs(comp.time - want)) <= 1e-14
    assert comp.slot("ann").is_zero() and comp.slot("cre").is_zero()
    assert comp.slot("cons").norm() <= 1e-14


def test_derive_flow_swn_nontrivial_w():
    # W = u (x) identity-label with u unitary is circ-unitary; the two
    # printed forms still agree with the expansion.
    dim = 2
    rng = np.random.default_rng(9)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=dim))
    u_mat = np.diag(phases)
    w_op = ModuleOperator.from_cons({(0, 0, 0): u_mat})
    d_mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    d_minus = ModuleOperator.from_ann({0: d_mat, 1: 0.5 * d_mat}, dim=dim)
    report = derive_flow_swn(SZ, d_minus, w_op, SX)
    assert report["matches_proposition_form"]
    assert report["matches_composed_form"]


def test_derive_flow_swn_x_identity_gives_zero_generator():
    dim = 2
    d_minus = ModuleOperator.from_ann({0: SX}, dim=dim)
    w_ident = ModuleOperator.identity_cons(dim)
    w_phase = ModuleOperator.from_cons({(0, 0, 0): np.diag([1.0, 1.0j])})
    for w_op in (w_ident, w_phase):
        report = derive_flow_swn(SZ, d_minus, w_op, np.eye(dim))
        comp = report["computed"]
        assert np.max(np.abs(comp.time)) <= 1e-12
        assert comp.slot("ann").is_zero(1e-12) and comp.slot("cre").is_zero(1e-12)
        # conservation slot: W* circ W - I = 0 for unitary W
        assert comp.slot("cons").norm() <= 1e-12


def test_swn_coefficients_in_the_wrong_slot_are_rejected():
    dim = 2
    d_cre = ModuleOperator.from_cre({0: SX}, dim=dim)
    d_ann = ModuleOperator.from_ann({0: SX}, dim=dim)
    w_ident = ModuleOperator.identity_cons(dim)
    config = TruncationConfig(dt=1e-2, horizon=0.1, swn_modes=1)
    with pytest.raises(ShapeError, match="d_minus"):
        derive_flow_swn(SZ, d_cre, w_ident, SZ)
    with pytest.raises(ShapeError, match="d_minus"):
        swn_simulate(SZ, d_cre, w_ident, SZ, [1.0, 0.0], config)
    with pytest.raises(ShapeError, match="w_op"):
        swn_simulate(SZ, d_ann, d_ann, SZ, [1.0, 0.0], config)
    zero = np.zeros((dim, dim))
    with pytest.raises(ShapeError, match="phi_op"):
        check_swn_riccati_system(zero, zero, d_ann, d_ann, w_ident, zero)


# ------------------------------------------------------- SWN residual set


def test_swn_riccati_trivial_zeroes():
    dim = 2
    zero = np.zeros((dim, dim))
    none_modes = ModuleOperator.zero(dim)
    r1, r2, r3 = check_swn_riccati_system(zero, zero, none_modes, none_modes, none_modes, zero)
    assert (r1, r2, r3) == (0.0, 0.0, 0.0)


def test_swn_riccati_synthesis_cancellation():
    # Commuting family: diagonal Pi, D-, H; W = u (x) identity label.
    dim = 2
    pi_mat, d_minus, w_op, h_mat, x_mat = swn_commuting_instance()

    dm_star = d_minus.adjoint()
    psi_op = d_minus
    phi_op = -1.0 * r_map(w_op, dm_star)
    z_op = w_op - ModuleOperator.identity_cons(dim)
    r1, r2, r3 = check_swn_riccati_system(pi_mat, 1j * h_mat, psi_op, phi_op, z_op, x_mat)
    assert r2 <= 1e-9 and r3 <= 1e-9
    # r1 carries the finite-dimensional obstruction Pi^2 + X^2 (H commutes)
    want = fro(pi_mat @ pi_mat + x_mat @ x_mat)
    assert abs(r1 - want) <= 1e-9


# ------------------------------------------------ mutual oracle with fock


def test_swn_flow_ode_matches_simulation():
    # Vacuum expectation of j_t(X): integrate X' = (time slot of the flow
    # differential, as a function of X) and compare with the density-route
    # simulation.
    dim = 2
    rng = np.random.default_rng(10)
    d_mat = 0.8 * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    d_minus = ModuleOperator.from_ann({0: d_mat}, dim=dim)
    u_mat = np.diag(np.exp(1j * np.array([0.3, 1.7])))
    w_op = ModuleOperator.from_cons({(0, 0, 0): u_mat})
    h_mat = SX
    x_mat = SZ
    state = np.array([1.0, 0.0], dtype=complex)
    config = TruncationConfig(dt=1e-3, horizon=1.0, swn_modes=1)

    sim = swn_simulate(h_mat, d_minus, w_op, x_mat, state, config)

    def generator(x_now):
        rep = derive_flow_swn(h_mat, d_minus, w_op, x_now)
        return rep["computed"].time

    from qscontrol.linalg import rk4

    grid = sim.times
    xs = rk4(lambda _t, x_now: generator(x_now), x_mat.astype(complex), grid[:: 50])
    for x_now, t in zip(xs, grid[::50]):
        idx = int(round(t / (grid[1] - grid[0])))
        want = state.conj() @ x_now @ state
        assert abs(sim.values[idx] - want) <= 5e-3
