"""Fock-side numerics: matrix-element ODE reduction vs the tensor oracle,
Weyl differentials, characteristic functionals, flows, unitarity defects."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from qscontrol.errors import IndexEscapeError, ResourceLimitError, ShapeError
from qscontrol.fock import (
    ExpectationSeries,
    GenericQsdeSpec,
    HpEvolutionSpec,
    PiecewiseConstant,
    TruncationConfig,
    characteristic_functional,
    flow_expectation,
    matrix_element_evolution,
    step_tensor_evolution,
    swn_matrix_element_evolution,
    swn_generator,
    swn_simulate,
    unitarity_defect,
    weyl_increment,
    weyl_series,
)
from qscontrol.ito import ModuleOperator
from qscontrol.ito.labels import FIRST_ORDER, SwnLabel

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SMINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # maps e=(1,0) to g=(0,1)
EXCITED = np.array([1.0, 0.0], dtype=complex)
W_DENSE = np.array([[0.6, 0.8j], [0.8j, 0.6]])  # unitary, W != I


def _first_order_slots(spec):
    """(E, F, G, H0): the dL(0,0,0), dA_0, dA+_0 and dt slots of the K = 1
    generator of ``spec``."""
    op = spec.generator()
    zero = np.zeros((spec.dim, spec.dim), dtype=complex)
    return tuple(op.terms.get(label, zero) for label in (
        SwnLabel.cons(0, 0, 0), SwnLabel.ann(0), SwnLabel.cre(0), SwnLabel.time()))


# ------------------------------------------------- matrix element evolution


def test_trivial_evolution_is_constant_overlap():
    spec = HpEvolutionSpec(H=np.zeros((2, 2)), L=np.zeros((2, 2)))
    u = np.array([1.0, 2.0]) / math.sqrt(5)
    v = np.array([0.5, -1.0j])
    series = matrix_element_evolution(spec, None, None, u, v, horizon=0.5, dt=1e-2)
    assert np.allclose(series.values, np.vdot(u, v))


def test_pure_schroedinger_matrix_element():
    spec = HpEvolutionSpec(H=SZ, L=np.zeros((2, 2)))
    u = np.array([1.0, 1.0]) / math.sqrt(2)
    v = np.array([1.0, -1.0j]) / math.sqrt(2)
    series = matrix_element_evolution(spec, None, None, u, v, horizon=1.0, dt=1e-3)
    for t, val in zip(series.times, series.values):
        want = np.vdot(u, np.diag([np.exp(-1j * t), np.exp(1j * t)]) @ v)
        assert abs(val - want) <= 1e-9


def test_matrix_element_agrees_with_tensor_oracle():
    spec = HpEvolutionSpec(H=SZ, L=SMINUS)
    config = TruncationConfig(levels_per_mode=2, dt=1e-3, horizon=12e-3)
    u = np.array([0.6, 0.8], dtype=complex)
    v = np.array([1.0, 0.5j], dtype=complex)
    tensor = step_tensor_evolution(spec, config, u=u, v=v)
    ode = matrix_element_evolution(spec, None, None, u, v, horizon=12e-3, dt=1e-3)
    assert np.max(np.abs(tensor.values - ode.values)) <= 5e-3


def test_exponential_vector_prefactor():
    # With zero coefficients the matrix element is <u,v> exp(<f,g>).
    spec = HpEvolutionSpec(H=np.zeros((1, 1)), L=np.zeros((1, 1)))
    f = PiecewiseConstant([0.25, 1.0], [0.5, 1.0 + 0.5j])
    g = PiecewiseConstant([1.0], [0.75j])
    series = matrix_element_evolution(spec, f, g, [1.0], [1.0], horizon=1.0, dt=1e-2)
    overlap = 0.25 * (0.5 * 0.75j) + 0.75 * ((1.0 - 0.5j) * 0.75j)
    assert abs(series.values[-1] - np.exp(overlap)) <= 1e-12
    # breakpoints must be grid nodes
    assert any(abs(series.times - 0.25) < 1e-15)


def test_matrix_element_is_fourth_order_across_breakpoints():
    # f breaks at 0.37 and g at 0.61; every segment is stepped with its own
    # generator, so halving dt (which halves every segment's step here)
    # divides the error by 2^4 (measured 16.09).  A stage at a right-open
    # breakpoint seeing the next segment made the route first order.
    spec = HpEvolutionSpec(H=np.array([[0.5, 0.2], [0.2, -0.3]]), L=0.6 * SMINUS)
    f = PiecewiseConstant([0.37, 1.0], [0.8 - 0.3j, -0.5 + 0.4j])
    g = PiecewiseConstant([0.61, 1.0], [0.6 + 0.2j, 1.1 - 0.7j])
    u = np.array([0.6, 0.8j])
    v = np.array([1.0, 0.5 - 0.5j])
    e_mat, f_mat, g_mat, h_mat = _first_order_slots(spec)
    exact = np.exp(f.overlap(g, 1.0)) * v
    for a, b in zip([0.0, 0.37, 0.61], [0.37, 0.61, 1.0]):
        fv, gv = np.conj(f.value(0.5 * (a + b))[0]), g.value(0.5 * (a + b))[0]
        exact = expm((b - a) * (fv * gv * e_mat + gv * f_mat + fv * g_mat + h_mat)) @ exact
    errors = [abs(matrix_element_evolution(spec, f, g, u, v, 1.0, dt).final - np.vdot(u, exact))
              for dt in (0.025, 0.0125)]
    assert 15.5 <= errors[0] / errors[1] <= 17.5


def test_first_order_matrix_element_rejects_vector_valued_test_functions():
    # the route is the K = 1 kernel: a C^2-valued f used to scale the result
    # by exp(|f_1|^2) (e^0.49 for f_1 = 0.7), its generator reading only
    # component 0 and the prefactor exp(<f, g>) every component
    spec = HpEvolutionSpec(H=SZ, L=SMINUS)
    wide = PiecewiseConstant([1.0], [[0.3, 0.7]])
    for f, g in ((wide, wide), (wide, None), (None, wide)):
        with pytest.raises(ShapeError, match=r"C\^1"):
            matrix_element_evolution(spec, f, g, EXCITED, EXCITED, horizon=1.0, dt=1e-2)


def test_first_order_spec_is_the_swn_evolution_at_k1():
    # HpEvolutionSpec(H, L, W) is the SWN evolution (-H, D- = -L*W, W) at
    # K = 1: -(Dm*|Dm*)/2 - iH = -(iH + L*L/2) and -r(W) Dm* = L.  The two
    # differ by the roundoff of (L*W)(W*L) against L*L; the routes agreed
    # to 5.6e-17 in matrix elements and in the flow
    spec = HpEvolutionSpec(H=0.3 * SX + 0.2 * SZ, L=SMINUS + 0.1 * SZ, W=W_DENSE)
    d_minus = ModuleOperator.from_ann({0: -spec.L.conj().T @ spec.W}, dim=2)
    w_op = ModuleOperator.from_cons({(0, 0, 0): spec.W})
    config = TruncationConfig(dt=1e-3, horizon=1.0, swn_modes=1)
    assert spec.generator().approx_eq(swn_generator(-spec.H, d_minus, w_op), 1e-15)

    f = PiecewiseConstant([0.37, 1.0], [0.8 - 0.3j, -0.5 + 0.4j])
    g = PiecewiseConstant([0.61, 1.0], [0.6 + 0.2j, 1.1 - 0.7j])
    u = np.array([0.6, 0.8j])
    v = np.array([1.0, 0.5 - 0.5j])
    first = matrix_element_evolution(spec, f, g, u, v, 1.0, dt=1e-3)
    swn = swn_matrix_element_evolution(-spec.H, d_minus, w_op, u, v, config, f=f, g=g)
    assert np.max(np.abs(first.values - first.values[0])) > 0.1  # the element moves
    assert np.max(np.abs(first.values - swn.values)) <= 1e-14

    x_mat = SZ + 0.4 * SX
    flow = flow_expectation(spec, x_mat, u, 1.0, dt=1e-3)
    sim = swn_simulate(-spec.H, d_minus, w_op, x_mat, u, config)
    assert np.max(np.abs(flow.values - flow.values[0])) > 0.1
    assert np.max(np.abs(flow.values - sim.values)) <= 1e-14


def test_nonunitary_w_rejected_at_construction():
    with pytest.raises(ShapeError):
        HpEvolutionSpec(H=SZ, L=SMINUS, W=np.array([[1.0, 1.0], [0.0, 1.0]]))


# ------------------------------------------------------------ tensor oracle


def test_tensor_zero_coefficients_identity():
    spec = GenericQsdeSpec(
        F=np.zeros((2, 2)), Psi=np.zeros((2, 2)), Phi=np.zeros((2, 2)), Z=np.zeros((2, 2))
    )
    config = TruncationConfig(levels_per_mode=2, dt=1e-2, horizon=0.08)
    series = step_tensor_evolution(spec, config, u=[1, 0], v=[1, 0])
    assert np.allclose(series.values, 1.0)


def test_tensor_creation_alone_keeps_vacuum_element():
    c = 0.7 - 0.2j
    spec = GenericQsdeSpec(
        F=np.zeros((1, 1)), Psi=np.zeros((1, 1)), Phi=c * np.eye(1), Z=np.zeros((1, 1))
    )
    config = TruncationConfig(levels_per_mode=2, dt=1e-2, horizon=1e-2)
    series = step_tensor_evolution(spec, config, u=[1.0], v=[1.0])
    assert abs(series.values[-1] - 1.0) <= 1e-14


def test_tensor_budget_rejection():
    spec = HpEvolutionSpec(H=SZ, L=SMINUS)
    config = TruncationConfig(levels_per_mode=2, dt=1e-3, horizon=0.1, tensor_budget=512)
    with pytest.raises(ResourceLimitError) as err:
        step_tensor_evolution(spec, config)
    assert err.value.required > err.value.budget


def test_ccr_of_truncated_increments():
    for d in (2, 3, 5):
        a = np.diag(np.sqrt(np.arange(1, d, dtype=float)), 1)
        dt = 1e-3
        da, dad = math.sqrt(dt) * a, math.sqrt(dt) * a.conj().T
        comm = da @ dad - dad @ da
        p_top = np.zeros((d, d))
        p_top[d - 1, d - 1] = 1.0
        assert np.allclose(comm, dt * (np.eye(d) - d * p_top))
        vac = np.zeros(d)
        vac[0] = 1.0
        assert abs(vac @ comm @ vac - dt) <= 1e-18


# --------------------------------------------------------------------- Weyl

DT, DA, DAD, DL = FIRST_ORDER


def test_weyl_scalar_branch():
    got = weyl_increment(2.5, 0.0, 0.0)
    assert got.terms == {DT: 2.5j}


def test_weyl_k0_branch_spec_values():
    got = weyl_increment(0.0, 1.0, 0.0)
    assert got.coeff(DT) == -0.5
    assert got.coeff(DA) == 1j
    assert got.coeff(DAD) == 1j
    assert got.coeff(DL) == 0.0


def test_weyl_k_two_pi_kills_conservation_term():
    got = weyl_increment(0.0, 0.0, 2 * math.pi)
    # M = exp(2 pi i) - 1 - 2 pi i = -2 pi i, so ik + M = 0 (up to rounding).
    assert abs(got.coeff(DL)) <= 1e-12
    assert abs(got.coeff(DT)) <= 1e-12


@pytest.mark.parametrize(
    "lam,z,k",
    [
        (0.0, 1.0, 0.0),
        (1.5, 0.3 - 0.4j, 0.0),
        (0.0, 0.0, 2 * math.pi),
        (0.7, 0.5 + 0.25j, 1.3),
        (0.0, 1.0, -0.8),
        (2.0, 0.9j, math.pi),
    ],
)
def test_weyl_series_reproduces_closed_form(lam, z, k):
    closed = weyl_increment(lam, z, k)
    series = weyl_series(lam, z, k, n_terms=40)
    assert closed.max_coeff_diff(series) <= 1e-12


def test_weyl_series_k0_terminates_exactly():
    closed = weyl_increment(0.3, 0.7 - 0.1j, 0.0)
    series = weyl_series(0.3, 0.7 - 0.1j, 0.0, n_terms=40)
    assert closed.max_coeff_diff(series) == 0.0


# --------------------------------------------------- characteristic function


def test_brownian_characteristic_functional():
    sim, closed = characteristic_functional("brownian", 1.0, 1.0, 1.0)
    assert abs(closed - math.exp(-0.5)) <= 1e-15
    assert abs(sim - closed) <= 1e-9


def test_poisson_characteristic_functional_at_pi():
    sim, closed = characteristic_functional("poisson", math.pi, 1.0, 1.0)
    assert abs(closed - math.exp(-2.0)) <= 1e-12
    assert abs(sim - closed) <= 1e-9


def test_characteristic_functional_at_s_zero():
    for kind in ("brownian", "poisson"):
        sim, closed = characteristic_functional(kind, 0.0, 1.0, 1.0)
        assert sim == 1.0 and closed == 1.0


def test_characteristic_functional_rk4_is_fourth_order_forward():
    # halving dt divides the error by 2^4 (measured 16.48)
    errors = [abs(np.subtract(*characteristic_functional("poisson", 2.0, 1.0, 1.0, dt)))
              for dt in (0.05, 0.025)]
    assert 15.5 <= errors[0] / errors[1] <= 17.5


def test_characteristic_functionals_one_percent_grid():
    for s in (0.5, 1.0, 2.0):
        sim, closed = characteristic_functional("brownian", s, 1.0, 1.0, dt=1e-4)
        assert abs(sim - closed) <= 0.01 * abs(closed)
        for lam in (0.5, 1.0):
            sim, closed = characteristic_functional("poisson", s, lam, 1.0, dt=1e-4)
            assert abs(sim - closed) <= 0.01 * abs(closed)


# -------------------------------------------------------------------- flows


def test_flow_of_identity_is_norm_squared():
    spec = HpEvolutionSpec(H=SZ, L=SMINUS)
    state = np.array([0.6, 0.8j])
    series = flow_expectation(spec, np.eye(2), state, horizon=1.0, dt=1e-3)
    assert np.max(np.abs(series.values - 1.0)) <= 1e-9


def test_flow_reduces_to_heisenberg_without_noise():
    spec = HpEvolutionSpec(H=SX, L=np.zeros((2, 2)))
    state = EXCITED
    series = flow_expectation(spec, SZ, state, horizon=1.0, dt=1e-3)
    for t, val in zip(series.times, series.values):
        # <e| e^{iHt} sz e^{-iHt} |e> = cos(2t) for H = sx
        assert abs(val - math.cos(2 * t)) <= 1e-8


def test_two_level_decay_closed_form():
    spec = HpEvolutionSpec(H=np.zeros((2, 2)), L=SMINUS)
    series = flow_expectation(spec, SZ, EXCITED, horizon=1.0, dt=1e-3)
    for t, val in zip(series.times, series.values):
        assert abs(val - (2 * math.exp(-t) - 1.0)) <= 1e-8


def test_flow_expectation_rk4_is_fourth_order_forward():
    # halving dt divides the two-level decay error by 2^4 (measured 16.34)
    spec = HpEvolutionSpec(H=np.zeros((2, 2)), L=SMINUS)
    errors = [abs(flow_expectation(spec, SZ, EXCITED, horizon=1.0, dt=dt).final
                  - (2 * math.exp(-1.0) - 1.0)) for dt in (0.05, 0.025)]
    assert 15.5 <= errors[0] / errors[1] <= 17.5


def test_flow_rejects_non_hermitian_observable():
    # both flow routes share the master-equation readout and its admission
    # (swn_simulate used to accept a non-Hermitian one)
    spec = HpEvolutionSpec(H=np.zeros((2, 2)), L=SMINUS)
    with pytest.raises(ShapeError, match="Hermitian"):
        flow_expectation(spec, SMINUS, EXCITED, horizon=0.1)
    config = TruncationConfig(dt=1e-2, horizon=0.1, swn_modes=1)
    with pytest.raises(ShapeError, match="Hermitian"):
        swn_simulate(np.zeros((2, 2)), ModuleOperator.zero(2), ModuleOperator.identity_cons(2),
                     SMINUS.T, EXCITED, config)


def test_flow_agrees_with_tensor_observable_route():
    spec = HpEvolutionSpec(H=SZ, L=SMINUS)
    config = TruncationConfig(levels_per_mode=2, dt=1e-3, horizon=10e-3)
    tensor = step_tensor_evolution(spec, config, v=EXCITED, observable=SZ)
    ode = flow_expectation(spec, SZ, EXCITED, horizon=10e-3, dt=1e-3)
    assert np.max(np.abs(tensor.values - ode.values)) <= 5e-3


# -------------------------------------------------------------- unitarity


def test_unitarity_defect_zero_coefficients():
    spec = GenericQsdeSpec(
        F=np.zeros((2, 2)), Psi=np.zeros((2, 2)), Phi=np.zeros((2, 2)), Z=np.zeros((2, 2))
    )
    config = TruncationConfig(levels_per_mode=2, dt=1e-2, horizon=0.06)
    assert unitarity_defect(spec, config) == 0.0


def test_unitarity_defect_halves_with_dt():
    spec = HpEvolutionSpec(H=SZ, L=SMINUS)
    coarse = TruncationConfig(levels_per_mode=2, dt=2e-3, horizon=6 * 2e-3)
    fine = TruncationConfig(levels_per_mode=2, dt=1e-3, horizon=6 * 1e-3)
    ratio = unitarity_defect(spec, coarse) / unitarity_defect(spec, fine)
    assert 1.5 <= ratio <= 2.5


def test_unitarity_defect_hamiltonian_taylor_bound():
    spec = HpEvolutionSpec(H=2.0 * SX, L=np.zeros((2, 2)))
    config = TruncationConfig(levels_per_mode=2, dt=1e-3, horizon=6e-3)
    defect = unitarity_defect(spec, config)
    h_norm = np.linalg.norm(spec.H, 2)
    assert defect <= 2.0 * config.n_steps * config.dt**2 * h_norm**2 + 1e-12


def _dense_kronecker_steps(spec, d, steps, dt):
    """Every Euler-Ito step lifted to a dense operator on system (x) modes."""
    e_mat, f_mat, g_mat, h_mat = _first_order_slots(spec)
    a_op = np.diag(np.sqrt(np.arange(1, d, dtype=float)), 1)
    total = spec.dim * d**steps

    def lift(sys_mat, mode_mat, k):
        ops = [sys_mat] + [np.eye(d)] * steps
        ops[1 + k] = mode_mat
        out = ops[0]
        for op in ops[1:]:
            out = np.kron(out, op)
        return out

    return [
        np.eye(total)
        + dt * lift(h_mat, np.eye(d), k)
        + math.sqrt(dt) * lift(f_mat, a_op, k)
        + math.sqrt(dt) * lift(g_mat, a_op.T, k)
        + lift(e_mat, a_op.T @ a_op, k)
        for k in range(steps)
    ]


def test_unitarity_defect_matches_dense_kronecker_propagator():
    # reference: every step lifted to a dense operator on system (x) 3 modes
    spec = HpEvolutionSpec(H=0.3 * SX + 0.2 * SZ, L=SMINUS + 0.1 * SZ, W=W_DENSE)
    d, steps, dt = 3, 3, 1e-2
    config = TruncationConfig(levels_per_mode=d, dt=dt, horizon=steps * dt)
    total = spec.dim * d**steps
    u_full = np.eye(total, dtype=complex)
    want = 0.0
    for step in _dense_kronecker_steps(spec, d, steps, dt):
        u_full = step @ u_full
        want = max(want, np.linalg.norm(u_full.conj().T @ u_full - np.eye(total), 2))
    got = unitarity_defect(spec, config)
    assert want > 1e-3  # W != I and the truncation make the defect visible
    assert abs(got - want) <= 1e-12 * want


def test_step_tensor_matches_dense_kronecker_evolution():
    # reference: v (x) vac evolved by every step lifted to system (x) 3 modes
    spec = HpEvolutionSpec(H=0.3 * SX + 0.2 * SZ, L=SMINUS + 0.1 * SZ, W=W_DENSE)
    d, steps, dt = 3, 3, 1e-2
    config = TruncationConfig(levels_per_mode=d, dt=dt, horizon=steps * dt)
    u = np.array([0.6, 0.8j])
    v = np.array([1.0, 0.5 - 0.2j])
    x_mat = SZ + 0.4 * SX
    vac = np.zeros(d**steps)
    vac[0] = 1.0
    psi = np.kron(v, vac).astype(complex)
    elements, observed = [np.vdot(u, v)], [np.vdot(v, x_mat @ v)]
    for step in _dense_kronecker_steps(spec, d, steps, dt):
        psi = step @ psi
        elements.append(np.vdot(np.kron(u, vac), psi))
        observed.append(np.vdot(psi, np.kron(x_mat, np.eye(d**steps)) @ psi))
    for got, want in (
        (step_tensor_evolution(spec, config, u=u, v=v).values, np.array(elements)),
        (step_tensor_evolution(spec, config, v=v, observable=x_mat).values, np.array(observed)),
    ):
        assert np.max(np.abs(want - want[0])) > 1e-2  # the steps move the readout
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_unitarity_defect_budget_rejection():
    spec = HpEvolutionSpec(H=SZ, L=SMINUS)
    config = TruncationConfig(levels_per_mode=2, dt=1e-3, horizon=8e-3)
    with pytest.raises(ResourceLimitError):
        unitarity_defect(spec, config, matrix_budget=100)


def test_oracle_budgets_bound_the_final_full_size():
    # 3 steps on a qubit: dim d^steps = 16 state entries, 16^2 propagator entries
    spec = HpEvolutionSpec(H=SZ, L=SMINUS)
    config = TruncationConfig(levels_per_mode=2, dt=1e-3, horizon=3e-3, tensor_budget=16)
    assert len(step_tensor_evolution(spec, config).values) == 4
    with pytest.raises(ResourceLimitError) as err:
        step_tensor_evolution(spec, replace(config, tensor_budget=15))
    assert (err.value.required, err.value.budget) == (16, 15)
    assert unitarity_defect(spec, config, matrix_budget=256) > 0.0
    with pytest.raises(ResourceLimitError) as err:
        unitarity_defect(spec, config, matrix_budget=255)
    assert (err.value.required, err.value.budget) == (256, 255)


# -------------------------------------------------------------------- SWN


def test_swn_identity_and_schroedinger_limits():
    dim = 2
    zero_modes = ModuleOperator.zero(dim)
    w_ident = ModuleOperator.identity_cons(dim)
    config = TruncationConfig(dt=1e-3, horizon=1.0, swn_modes=2)

    flat = swn_simulate(np.zeros((2, 2)), zero_modes, w_ident, SZ, EXCITED, config)
    assert np.max(np.abs(flat.values - 1.0)) <= 1e-12

    rotated = swn_simulate(SX, zero_modes, w_ident, SZ, EXCITED, config)
    for t, val in zip(rotated.times, rotated.values):
        assert abs(val - math.cos(2 * t)) <= 1e-8


def test_swn_single_mode_damping_matches_first_order_flow():
    # D- on mode 0 with W = I reduces to a first-order damping with
    # jump operator D-*, since -r(I) Dm* = -Dm* enters only through
    # Phi rho Phi* and (Dm*|Dm*) = Dm Dm*.
    dim = 2
    d_minus = ModuleOperator.from_ann({0: SMINUS.conj().T}, dim=dim)
    w_ident = ModuleOperator.identity_cons(dim)
    config = TruncationConfig(dt=1e-3, horizon=1.0, swn_modes=1)
    swn = swn_simulate(np.zeros((2, 2)), d_minus, w_ident, SZ, EXCITED, config)
    hp = flow_expectation(
        HpEvolutionSpec(H=np.zeros((2, 2)), L=SMINUS), SZ, EXCITED, horizon=1.0, dt=1e-3
    )
    assert np.max(np.abs(swn.values - hp.values)) <= 1e-9


def test_swn_two_mode_damping_rates_add():
    # D- carried by two modes gives two jump channels; rates add:
    # <sz>(t) = 2 exp(-(1 + 1/4) t) - 1.
    dim = 2
    d_minus = ModuleOperator.from_ann(
        {0: SMINUS.conj().T, 1: 0.5 * SMINUS.conj().T}, dim=dim
    )
    w_ident = ModuleOperator.identity_cons(dim)
    config = TruncationConfig(dt=1e-3, horizon=1.0, swn_modes=2)
    series = swn_simulate(np.zeros((2, 2)), d_minus, w_ident, SZ, EXCITED, config)
    closed = 2.0 * np.exp(-1.25 * series.times) - 1.0
    assert np.max(np.abs(series.values - closed)) <= 1e-8


def test_swn_matrix_element_vacuum_equals_first_order_route():
    # D- on mode 0 with W = I is the first-order evolution with L = D-*,
    # so the vacuum matrix elements of both routes coincide.
    dim = 2
    d_minus = ModuleOperator.from_ann({0: SMINUS.conj().T}, dim=dim)
    w_ident = ModuleOperator.identity_cons(dim)
    config = TruncationConfig(dt=1e-3, horizon=1.0, swn_modes=1)
    u = np.array([1.0, 0.0])
    v = np.array([0.6, 0.8], dtype=complex)
    swn = swn_matrix_element_evolution(np.zeros((2, 2)), d_minus, w_ident, u, v, config)
    hp = matrix_element_evolution(
        HpEvolutionSpec(H=np.zeros((2, 2)), L=SMINUS), None, None, u, v, 1.0, dt=1e-3
    )
    assert np.max(np.abs(swn.values - hp.values)) == 0.0


def test_swn_matrix_element_conservation_only_second_quantization():
    # dU = dL(E1) U with constant coherent inputs: the matrix element is
    # exp(<f, g>) expm(t <f, rho+ g> S), the second-quantization closed
    # form, independent of the ODE reduction.
    from qscontrol.ito.sl2 import rho_plus_matrix

    dim, k_modes = 2, 2
    config = TruncationConfig(dt=1e-3, horizon=1.0, swn_modes=k_modes)
    s_mat = np.array([[0.2, 0.1], [0.05, -0.3]], dtype=complex)
    label = (0, 1, 0)
    w_op = ModuleOperator.from_cons({label: s_mat}) + ModuleOperator.identity_cons(dim)
    fvals = np.array([0.3 - 0.2j, 0.5])
    gvals = np.array([0.1 + 0.4j, -0.2j])
    f = PiecewiseConstant([1.0], [fvals])
    g = PiecewiseConstant([1.0], [gvals])
    u = np.array([1.0, 0.0])
    v = np.array([0.5, -1.0j])
    series = swn_matrix_element_evolution(
        np.zeros((2, 2)), ModuleOperator.zero(dim), w_op, u, v, config, f=f, g=g
    )
    image = rho_plus_matrix(*label, k_modes)
    weight = np.vdot(fvals, image @ gvals)
    for t in (0.25, 0.5, 1.0):
        closed = np.exp(np.vdot(fvals, gvals)) * expm(t * weight * s_mat)
        assert abs(series.at(t) - u.conj() @ closed @ v) <= 1e-12


def test_swn_matrix_element_rejects_wrong_mode_dimension():
    dim = 2
    config = TruncationConfig(dt=1e-2, horizon=0.1, swn_modes=2)
    bad_f = PiecewiseConstant([0.1], [np.array([1.0])])  # one mode, K = 2
    with pytest.raises(ShapeError):
        swn_matrix_element_evolution(
            np.zeros((2, 2)), ModuleOperator.zero(dim),
            ModuleOperator.identity_cons(dim),
            [1.0, 0.0], [1.0, 0.0], config, f=bad_f,
        )


def test_piecewise_constant_right_endpoint_carries_last_segment():
    func = PiecewiseConstant([0.5, 1.0], [2.0, 3.0])
    assert func.value(0.49)[0] == 2.0
    assert func.value(0.5)[0] == 3.0
    assert func.value(1.0)[0] == 3.0  # closed right endpoint of the domain
    assert func.value(1.1)[0] == 0.0


def test_piecewise_constant_rejects_segments_of_different_shapes():
    # the SWN route checked only the first segment and later failed with a
    # bare ValueError from a reshape
    with pytest.raises(ShapeError, match="one shape"):
        PiecewiseConstant([0.5, 1.0], [[1.0, 0.0], [2.0]])


def test_piecewise_constant_rejects_no_segments():
    # an empty function used to construct and then fail with a bare
    # IndexError inside the matrix-element route
    with pytest.raises(ShapeError, match="at least one segment"):
        PiecewiseConstant([], [])


def test_swn_rejects_escaping_indices():
    dim = 2
    d_minus = ModuleOperator.from_ann({3: SMINUS}, dim=dim)
    w_ident = ModuleOperator.identity_cons(dim)
    config = TruncationConfig(dt=1e-3, horizon=0.1, swn_modes=2)
    with pytest.raises(IndexEscapeError):
        swn_simulate(np.zeros((2, 2)), d_minus, w_ident, SZ, EXCITED, config)

    raising = ModuleOperator.from_cons({(1, 0, 0): np.eye(dim)})
    with pytest.raises(IndexEscapeError):
        swn_simulate(
            np.zeros((2, 2)),
            ModuleOperator.from_ann({0: SMINUS}, dim=dim),
            raising,
            SZ,
            EXCITED,
            TruncationConfig(dt=1e-3, horizon=0.1, swn_modes=1),
        )

    # with D- = 0 there is no creation slot to escape: the window check
    # alone rejects the raising label, which truncation would clip
    config = TruncationConfig(dt=1e-2, horizon=0.1, swn_modes=1)
    zero = ModuleOperator.zero(dim)
    with pytest.raises(IndexEscapeError, match="conservation label"):
        swn_simulate(np.zeros((2, 2)), zero, raising, SZ, EXCITED, config)
    with pytest.raises(IndexEscapeError, match="conservation label"):
        swn_matrix_element_evolution(np.zeros((2, 2)), zero, raising, EXCITED, EXCITED, config)


def test_swn_routes_admit_the_same_conservation_labels():
    # dL(0,3,0) has index 3 > K = 2 but acts inside the K-window, so both
    # routes accept it; with D- = 0 and H = 0 nothing moves
    dim = 2
    w_op = ModuleOperator.identity_cons(dim) + ModuleOperator.from_cons(
        {(0, 3, 0): 0.1 * np.eye(dim)}
    )
    config = TruncationConfig(dt=1e-2, horizon=0.1, swn_modes=2)
    zero = ModuleOperator.zero(dim)
    flat = swn_simulate(np.zeros((2, 2)), zero, w_op, SZ, EXCITED, config)
    assert np.max(np.abs(flat.values - 1.0)) <= 1e-12
    u = np.array([1.0, 0.0])
    v = np.array([0.6, 0.8], dtype=complex)
    series = swn_matrix_element_evolution(np.zeros((2, 2)), zero, w_op, u, v, config)
    assert np.max(np.abs(series.values - 0.6)) <= 1e-12


# ------------------------------------------------------------------ series


def test_series_export_roundtrip(tmp_path):
    series = ExpectationSeries(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.5j, -1.0]))
    csv_path = tmp_path / "series.csv"
    series.to_csv(csv_path)
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "t,re,im"
    assert len(rows) == 4
    # plain floats, not numpy scalar reprs such as np.float64(0.5)
    parsed = [[float(cell) for cell in row.split(",")] for row in rows[1:]]
    assert parsed == [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [1.0, -1.0, 0.0]]
    json_path = tmp_path / "series.json"
    series.to_json(json_path)
    import json as _json

    data = _json.loads(json_path.read_text())
    assert data["schema"] == "expectation-series/1"
    assert data["values"][1] == [0.0, 0.5]
