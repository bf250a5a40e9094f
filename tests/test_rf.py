"""Representation-free surrogate: Levy pairs, state/cost machinery, the
monotone Picard iteration, the affine feedback, and time reversal."""

import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qscontrol.classical import LqProblem, solve_riccati_ode
from qscontrol.errors import ShapeError
from qscontrol.linalg import herm
from qscontrol.rf import (
    FOCK_VACUUM,
    PLANAR_BROWNIAN,
    RfProblem,
    _cayley,
    _duhamel_sweep,
    _mm,
    _public,
    _time_major,
    build_levy_surrogate,
    classical_reduction_problem,
    closed_loop_state,
    cost_tilde,
    feedback_control,
    iterate_riccati,
    min_eig_batch,
    noise_free_scalar_problem,
    residual_integral,
    sigma_positivity,
    simulate_state,
    solve_r,
    stochastic_2x2_problem,
    time_reverse,
    verify_fock_vacuum_table,
    verify_feedback_optimality,
)
from qscontrol import rf_symbolic
from qscontrol.freealg import _CENTRAL, _STAR, FreePoly
from qscontrol.rf_symbolic import (
    extract_riccati_coefficients,
    prop2_specialization_check,
    printed_coefficients,
    syms,
)

ZERO1 = np.zeros((1, 1))


def scalar_problem(**overrides):
    """The shared noise-free scalar instance with fields overridden."""
    return replace(noise_free_scalar_problem(), **overrides)


def random_problem(dim, seed, direction="q0"):
    """A random two-noise instance: complex F, F1 (F2 = F1*), real w, and
    exactly Hermitian PSD weights Q, Pi boundary and positive R."""
    rng = np.random.default_rng(seed)

    def draw(scale):
        return scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))

    def psd(scale, floor=0.0):
        root = draw(1.0)
        return herm(scale * root @ root.conj().T / dim + floor * np.eye(dim))

    f1 = draw(0.15)
    return RfProblem(
        F=draw(0.3), G=np.eye(dim) + draw(0.1), L=draw(0.05),
        w=0.4 * np.eye(dim) + 0.1 * rng.normal(size=(dim, dim)), z=np.eye(dim),
        F1=f1, F2=f1.conj().T, Q=psd(0.5), R=psd(0.3, floor=0.5),
        m=draw(0.05), eta=draw(0.02), boundary_gain=psd(0.8), boundary_linear=draw(0.05),
        C=np.eye(dim) + draw(0.1), direction=direction,
    )


# ---------------------------------------------------------------- surrogate


def test_planar_brownian_ito_table_sample_means():
    path = build_levy_surrogate(PLANAR_BROWNIAN, 100, 1e-2, seed=11, n_paths=10_000)
    qv = np.sum(path.dm2 * path.dm1, axis=1).real  # sum dM2 dM1 ~ sigma11 T = 1
    mean, se = float(np.mean(qv)), float(np.std(qv, ddof=1) / math.sqrt(len(qv)))
    assert abs(mean - 1.0) <= 3.0 * se

    sq = np.sum(path.dm1**2, axis=1)  # sum (dM1)^2 ~ sigma21 T = 0
    for comp in (sq.real, sq.imag):
        mean, se = float(np.mean(comp)), float(np.std(comp, ddof=1) / math.sqrt(len(comp)))
        assert abs(mean) <= 3.0 * se


def test_sigma_positivity_identity_table():
    path = build_levy_surrogate(PLANAR_BROWNIAN, 4, 0.25, seed=1)
    for f_val in (1.0, 0.3 - 0.8j, 2.0j):
        form = sigma_positivity(path.sigma, f_val)
        assert abs(form - 2.0 * abs(f_val) ** 2) <= 1e-12
        assert form.real >= 0.0


def test_fock_vacuum_table_and_scalar_realization():
    path = build_levy_surrogate(FOCK_VACUUM, 8, 0.125, seed=2)
    assert np.allclose(verify_fock_vacuum_table(path), path.sigma)
    assert np.all(path.dm1 == 0) and np.all(path.dm2 == 0)


@pytest.mark.parametrize("kind", [PLANAR_BROWNIAN, FOCK_VACUUM])
def test_empty_path_ensemble_is_rejected(kind):
    # an empty ensemble would only fail later, inside the Picard sweep
    with pytest.raises(ShapeError):
        build_levy_surrogate(kind, 8, 0.125, seed=2, n_paths=0)
    with pytest.raises(ShapeError):
        build_levy_surrogate(kind, 8, 0.125, seed=2, n_paths=3).pick(np.arange(0))


# -------------------------------------------------------------------- state


def test_state_deterministic_linear_flow():
    problem = scalar_problem(Q=[[0.0]], boundary_gain=[[0.0]], C=[[2.0]])
    path = build_levy_surrogate(FOCK_VACUUM, 2000, 5e-4, seed=4)
    x_path = simulate_state(problem, None, path)
    times = np.linspace(0.0, 1.0, 2001)
    # backward equation dX = -F X dt from X(T) = C: X(t) = e^{F(T-t)} C
    want = 2.0 * np.exp(0.3 * (1.0 - times))
    assert np.max(np.abs(x_path[0, :, 0, 0] - want)) <= 2e-4


def test_state_constant_when_everything_vanishes():
    problem = scalar_problem(F=[[0.0]], Q=[[0.0]], C=[[1.5]], z=ZERO1)
    path = build_levy_surrogate(PLANAR_BROWNIAN, 100, 1e-2, seed=5)
    x_path = simulate_state(problem, None, path)
    assert np.max(np.abs(x_path - 1.5)) == 0.0


def test_state_matches_hand_rolled_euler_maruyama():
    # w = 0, z = id, F1 = F2 = c/sqrt(2): the noise term is c dB1 (real
    # Brownian); the qt (forward) branch is the classical SDE orientation.
    c_noise = 0.5
    problem = scalar_problem(
        direction="qt",
        F=[[0.3]],
        F1=[[c_noise / math.sqrt(2.0)]],
        F2=[[c_noise / math.sqrt(2.0)]],
        C=[[1.0]],
    )
    path = build_levy_surrogate(PLANAR_BROWNIAN, 500, 2e-3, seed=6)
    x_path = simulate_state(problem, None, path)

    db1 = (path.dm1[0] + path.dm2[0]).real / math.sqrt(2.0)
    x = 1.0
    for j in range(500):
        got = x_path[0, j + 1, 0, 0]
        x = x + 2e-3 * 0.3 * x + c_noise * db1[j]
        # coupling acts on (w X + z) = id, so the noise is additive
        assert abs(got - x) <= 1e-12


# --------------------------------------------------------------------- cost


def test_cost_zero_on_null_data():
    problem = scalar_problem(Q=[[0.0]], boundary_gain=[[0.0]], C=ZERO1, L=ZERO1, z=ZERO1)
    path = build_levy_surrogate(PLANAR_BROWNIAN, 50, 2e-2, seed=7)
    x_path = simulate_state(problem, None, path)
    u_path = np.zeros_like(x_path)
    mean, _, costs = cost_tilde(problem, u_path, [1.0], x_path, path.dt)
    assert mean == 0.0 and np.all(costs == 0.0)


def test_cost_matches_hand_quadrature_on_classical_instance():
    problem = scalar_problem(Q=[[0.9]], boundary_gain=[[0.4]], m=[[0.2]], C=[[1.0]])
    path = build_levy_surrogate(FOCK_VACUUM, 200, 5e-3, seed=8)
    x_path = simulate_state(problem, None, path)
    u_path = np.zeros_like(x_path)
    xi = np.array([1.0])
    mean, _, _ = cost_tilde(problem, u_path, xi, x_path, path.dt)

    xs = x_path[0, :, 0, 0]
    integrand = 0.9 * np.abs(xs) ** 2 + 2.0 * (xs.conj() * 0.2).real
    hand = np.trapezoid(integrand, dx=path.dt) + 0.4 * abs(xs[0]) ** 2
    assert abs(mean - hand) <= 1e-10


# ------------------------------------------------------------------ Picard


def test_iteration_zero_fixed_point():
    problem = scalar_problem(Q=[[0.0]], boundary_gain=[[0.0]])
    path = build_levy_surrogate(PLANAR_BROWNIAN, 200, 5e-3, seed=9)
    result = iterate_riccati(problem, path, n_max=10, tol=1e-12)
    assert result.converged and result.n_iterations == 2
    assert np.max(np.abs(result.final)) == 0.0


def test_iteration_uniqueness_probe():
    problem = stochastic_2x2_problem()
    path = build_levy_surrogate(PLANAR_BROWNIAN, 500, 2e-3, seed=13, n_paths=2)
    tol = 1e-8
    base = iterate_riccati(problem, path, n_max=60, tol=tol)
    shifted = iterate_riccati(
        problem, path, n_max=60, tol=tol,
        initial=problem.boundary_gain + np.eye(2),
    )
    assert base.converged and shifted.converged
    gap = np.max(np.abs(base.final - shifted.final))
    assert gap <= 10.0 * tol


def test_residual_integral_zero_data_and_fixed_point():
    # the zero instance and the fixed-point defect itself are rf-riccati
    # checks; here a path bumped off the fixed point must show a defect
    problem = stochastic_2x2_problem()
    path = build_levy_surrogate(PLANAR_BROWNIAN, 1000, 1e-3, seed=42, n_paths=2)
    result = iterate_riccati(problem, path, n_max=30, tol=1e-6)
    bumped = result.final + 0.1 * np.eye(2)
    assert residual_integral(problem, bumped, path) >= 0.05


# ---------------------------------------------------------------- r-process


def test_r_zero_on_homogeneous_data():
    problem = scalar_problem(m=ZERO1, boundary_linear=ZERO1, L=ZERO1)
    path = build_levy_surrogate(PLANAR_BROWNIAN, 200, 5e-3, seed=15)
    pi_path = iterate_riccati(problem, path, n_max=40, tol=1e-9).final
    r_path = solve_r(problem, pi_path, path)
    assert np.max(np.abs(r_path)) == 0.0


def test_r_variation_of_constants_closed_form():
    f_val, m_val, m0 = 0.25, 0.4, 0.15
    problem = scalar_problem(
        F=[[f_val]], Q=[[0.0]], boundary_gain=[[0.0]],
        m=[[m_val]], boundary_linear=[[m0]],
    )
    path = build_levy_surrogate(FOCK_VACUUM, 1000, 1e-3, seed=16)
    pi_zero = np.zeros((1, 1001, 1, 1), dtype=complex)
    r_path = solve_r(problem, pi_zero, path)
    t = np.linspace(0.0, 1.0, 1001)
    closed = np.exp(f_val * t) * (m0 + m_val * (1.0 - np.exp(-f_val * t)) / f_val)
    assert np.max(np.abs(r_path[0, :, 0, 0] - closed)) <= 5e-4


def test_r_richardson_halving():
    # Additive-noise instance (w = 0): pathwise Euler is first order, so
    # the defect against a refined reference halves with dt.
    problem = scalar_problem(
        F=[[0.3]], m=[[0.2]], boundary_linear=[[0.1]], L=[[0.15]],
        F1=[[0.4]], F2=[[0.4]],
    )
    fine = build_levy_surrogate(PLANAR_BROWNIAN, 2000, 5e-4, seed=17)

    def coarsen(path, factor):
        dm1 = path.dm1.reshape(path.n_paths, -1, factor).sum(axis=2)
        return replace(path, dm1=dm1, dt=path.dt * factor)

    mid = coarsen(fine, 2)
    coarse = coarsen(fine, 4)
    results = {}
    for tag, path in (("fine", fine), ("mid", mid), ("coarse", coarse)):
        pi_path = iterate_riccati(problem, path, n_max=40, tol=1e-10).final
        results[tag] = solve_r(problem, pi_path, path)
    gap_coarse = np.max(np.abs(results["coarse"][0, :, 0, 0] - results["fine"][0, ::4, 0, 0]))
    gap_mid = np.max(np.abs(results["mid"][0, :, 0, 0] - results["fine"][0, ::2, 0, 0]))
    ratio = gap_coarse / gap_mid
    assert 1.4 <= ratio <= 3.2



def test_noise_free_degeneration_is_second_order():
    # the vacuum Picard limit against the classical RK4 Riccati on the same
    # grid at T = 1: 3.858e-6, 9.645e-7, 2.411e-7, 6.028e-8 at 250 to 2000
    # steps, each halving ratio 4.0000
    problem = noise_free_scalar_problem()
    classical_lq = LqProblem(A=problem.F, Q=problem.Q, Pi_T=problem.boundary_gain, horizon=1.0)
    errors = []
    for steps in (500, 1000):
        path = build_levy_surrogate(FOCK_VACUUM, steps, 1.0 / steps, seed=1)
        det = iterate_riccati(problem, path, n_max=40, tol=1e-10)
        classical = solve_riccati_ode(classical_lq, steps=steps)
        errors.append(np.max(np.abs(det.final[0, :, 0, 0] - classical.gains[::-1, 0, 0])))
    assert 3.8 <= errors[0] / errors[1] <= 4.2

# ---------------------------------------------------------------- feedback


def test_feedback_zero_data_gives_zero_control():
    problem = scalar_problem()
    x = np.ones((1, 1, 1), dtype=complex).reshape(1, 1, 1)
    u = feedback_control(
        np.zeros((1, 1, 1)), np.zeros((1, 1, 1)), np.ones((1, 1, 1)), problem
    )
    assert np.max(np.abs(u)) == 0.0


def test_feedback_scalar_reduction_shape():
    problem = scalar_problem()
    pi_v = np.full((1, 1, 1), 0.7, dtype=complex)
    x_v = np.full((1, 1, 1), 2.0, dtype=complex)
    u = feedback_control(pi_v, np.zeros_like(pi_v), x_v, problem)
    assert abs(u[0, 0, 0] + 0.7 * 2.0) <= 1e-14


def test_feedback_matches_classical_gain_path():
    a, q, piT, x0 = 0.4, 1.0, 0.7, 1.3
    xi = np.array([1.0])
    problem = classical_reduction_problem([[a]], [[q]], [[piT]], [x0], xi)
    path = build_levy_surrogate(FOCK_VACUUM, 1000, 1e-3, seed=18)
    result = iterate_riccati(problem, path, n_max=40, tol=1e-10)
    classical = solve_riccati_ode(
        LqProblem(A=[[a]], Q=[[q]], Pi_T=[[piT]], horizon=1.0), steps=1000
    )
    # u(t) = -Pi(t) X(t), and Pi(t) = Pi_classical(T - t)
    gain_err = np.max(np.abs(result.final[0, :, 0, 0] - classical.gains[::-1, 0, 0]))
    assert gain_err <= 1e-6


@pytest.mark.parametrize("direction", ["q0", "qt"])
def test_closed_loop_evaluates_feedback_once_per_state_point(direction, monkeypatch):
    from qscontrol import rf

    problem = replace(stochastic_2x2_problem(), direction=direction)
    path = build_levy_surrogate(PLANAR_BROWNIAN, 50, 2e-2, seed=23, n_paths=3)
    pi_values = iterate_riccati(problem, path, n_max=30, tol=1e-8).final
    r_values = solve_r(problem, pi_values, path)
    original = rf.feedback_control
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(rf, "feedback_control", counting)
    offset = 0.1 * np.eye(2)
    laws = [(None, lambda u: u), (("scale", 0.7), lambda u: 0.7 * u),
            (("offset", offset), lambda u: u + offset)]
    for law, apply in laws:
        calls.clear()
        x_path, u_path = closed_loop_state(problem, pi_values, r_values, path, law=law)
        # one evaluation, on all T+1 state points of the result
        assert len(calls) == 1
        assert calls[0][2].shape == (path.n_paths, path.n_steps + 1, 2, 2)
        for j in range(path.n_steps + 1):
            want = apply(original(pi_values[:, j], r_values[:, j], x_path[:, j], problem))
            assert np.array_equal(u_path[:, j], want), (law, j)


# -------------------------------------------- per-step reference loops
#
# The state, closed-loop and r recursions run as affine sweeps on step
# maps built in one vectorized pass, and the Picard iteration on step
# factors with a closed-form Cayley inverse, all on time-major stores.
# These are the per-step loops they replace, written in the public layout
# with np.matmul and np.linalg.solve; the kernels must reproduce them to
# rounding.


def _ref_grid(problem, path, state):
    """Time indices in stepping order and the increment index of each step.

    The state runs backward on q0 and forward on qt; the Riccati-side
    recursions (r) run the other way round.
    """
    forward = (problem.direction == "qt") == state
    order = list(range(path.n_steps + 1))
    order = order if forward else order[::-1]
    return [(order[k], order[k + 1], min(order[k], order[k + 1]))
            for k in range(path.n_steps)], order[0]


def _ref_feedback(problem, pi_now, r_now, x_now):
    rinv = np.linalg.inv(problem.R)
    inner = np.matmul(pi_now, x_now) + r_now
    return -np.matmul(rinv, np.matmul(problem.G.conj().T, inner) + problem.eta.conj().T)


def _ref_state(problem, path, control):
    """Euler state loop; ``control(j, X_j)`` at each step's anchor point."""
    steps, start = _ref_grid(problem, path, state=True)
    dim = problem.dim
    x = np.empty((path.n_paths, path.n_steps + 1, dim, dim), dtype=complex)
    x[:, start] = problem.C
    for j, nxt, inc in steps:
        x_now = x[:, j]
        drift = np.matmul(problem.F, x_now) + np.matmul(problem.G, control(j, x_now)) + problem.L
        coupling = np.matmul(problem.w, x_now) + problem.z
        noise = (path.dm1[:, inc, None, None] * np.matmul(problem.F1, coupling)
                 + path.dm2[:, inc, None, None] * np.matmul(problem.F2, coupling))
        x[:, nxt] = x_now + path.dt * drift + noise
    return x


def _ref_r(problem, pi, path):
    """Euler step of the r-equation (see ``solve_r``), one step at a time."""
    steps, start = _ref_grid(problem, path, state=False)
    sig = path.sigma if problem.direction == "q0" else -path.sigma
    gq = problem.gain_quad()
    c1, c2 = problem.noise_couplings()
    c1s, c2s = c1.conj().T, c2.conj().T
    f1z, f2z = problem.F1 @ problem.z, problem.F2 @ problem.z
    eta_pull = problem.G @ np.linalg.inv(problem.R) @ problem.eta.conj().T
    r = np.empty_like(pi)
    r[:, start] = problem.boundary_linear.conj().T
    for j, nxt, inc in steps:
        r_now, pi_now = r[:, j], pi[:, j]
        b1 = np.matmul(c2s, pi_now) + np.matmul(pi_now, c1)
        b2 = np.matmul(c1s, pi_now) + np.matmul(pi_now, c2)
        d1_r, d2_r = np.matmul(c2s, r_now), np.matmul(c1s, r_now)
        d1 = d1_r + np.matmul(pi_now, f1z)
        d2 = d2_r + np.matmul(pi_now, f2z)
        drift = (
            np.matmul(problem.F.conj().T, r_now) - np.matmul(np.matmul(pi_now, gq), r_now)
            + np.matmul(pi_now, problem.L) + problem.m.conj().T - np.matmul(pi_now, eta_pull)
            + np.matmul(b1, sig[1, 0] * f1z + sig[1, 1] * f2z)
            + np.matmul(b2, sig[0, 0] * f1z + sig[0, 1] * f2z)
            + np.matmul(c1s, sig[0, 0] * d1_r + sig[0, 1] * d2_r)
            + np.matmul(c2s, sig[1, 0] * d1_r + sig[1, 1] * d2_r)
        )
        r[:, nxt] = r_now + (path.dt * drift + path.dm1[:, inc, None, None] * d1
                             + path.dm2[:, inc, None, None] * d2)
    return r


def _relative_gap(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _adjoint(arr):
    return arr.conj().swapaxes(-1, -2)


def _ref_duhamel(problem, path, gain, half_w):
    """Duhamel sweep one step at a time (see ``_duhamel_sweep``): the Cayley
    factor by ``np.linalg.solve``, every product by ``np.matmul``; returns
    the path and the largest pre-symmetrization defect."""
    steps, start = _ref_grid(problem, path, state=False)
    eye = np.eye(problem.dim)
    gq = problem.gain_quad()
    c1, c2 = problem.noise_couplings()
    sign = 1.0 if problem.direction == "q0" else -1.0
    drift_const = problem.F + sign * problem.drift_quadratic(path.sigma)
    out = np.empty(gain.shape, dtype=complex)
    out[:, start] = problem.boundary_gain
    defect = 0.0
    for j, after, inc in steps:
        mid_gain = 0.5 * (gain[:, inc] + gain[:, inc + 1])
        half = 0.5 * path.dt * _adjoint(np.matmul(-gq, mid_gain) + drift_const)
        mart = eye + path.dm1[:, inc, None, None] * c1 + path.dm2[:, inc, None, None] * c2
        m = np.matmul(np.linalg.solve(eye - half, eye + half), _adjoint(mart))
        y = np.matmul(np.matmul(m, out[:, j] + half_w[:, j]), _adjoint(m)) + half_w[:, after]
        defect = max(defect, float(np.max(np.abs(y - _adjoint(y)))))
        out[:, after] = 0.5 * (y + _adjoint(y))
    return out, defect


def _ref_picard(problem, path, n_max, tol):
    """Picard iteration on ``_ref_duhamel`` (see ``iterate_riccati``)."""
    dim = problem.dim
    gq = problem.gain_quad()
    current = np.broadcast_to(problem.boundary_gain, (path.n_paths, path.n_steps + 1, dim, dim))
    sup_diffs, margins = [], []
    for _ in range(2, n_max + 1):
        half_w = 0.5 * path.dt * (problem.Q + np.matmul(np.matmul(current, gq), current))
        nxt, _ = _ref_duhamel(problem, path, current, half_w)
        diff = current - nxt
        sup_diffs.append(float(np.max(np.linalg.norm(diff, axis=(-2, -1)))))
        margins.append(float(np.min(np.linalg.eigvalsh(0.5 * (diff + _adjoint(diff)))[..., 0])))
        current = nxt
        if sup_diffs[-1] <= tol:
            break
    return current, sup_diffs, margins


@pytest.mark.parametrize("direction", ["q0", "qt"])
def test_duhamel_sweep_reports_the_largest_symmetrization_defect(direction):
    # an inhomogeneity with an anti-Hermitian part makes every congruence
    # output non-Hermitian by O(1), so the defect the sweep reduces once
    # after its loop is held to the per-step reference at 1e-12
    problem = replace(stochastic_2x2_problem(), direction=direction)
    path = build_levy_surrogate(PLANAR_BROWNIAN, 20, 5e-2, seed=26, n_paths=3)
    rng = np.random.default_rng(26)
    shape = (3, 21, 2, 2)
    gain = np.broadcast_to(problem.boundary_gain, shape) + 0.1 * rng.normal(size=shape)
    half_w = 0.1 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    out, defect = _duhamel_sweep(problem, path, _time_major(gain), _time_major(half_w))
    want_out, want_defect = _ref_duhamel(problem, path, gain, half_w)
    assert want_defect > 0.1
    assert abs(defect - want_defect) <= 1e-12 * want_defect
    assert _relative_gap(_public(out), want_out) <= 1e-12


def _check_against_reference_loops(problem, seed):
    path = build_levy_surrogate(PLANAR_BROWNIAN, 50, 2e-2, seed=seed, n_paths=3)
    result = iterate_riccati(problem, path, n_max=30, tol=1e-8)
    pi_ref, sup_ref, margins_ref = _ref_picard(problem, path, n_max=30, tol=1e-8)
    pi = result.final
    assert result.converged and len(result.sup_diffs) == len(sup_ref)
    assert _relative_gap(pi, pi_ref) <= 1e-12
    # the late steps and margins sit at rounding level, so they are held to
    # the iterates' scale rather than to their own size
    scale = float(np.max(np.abs(pi_ref)))
    assert np.max(np.abs(np.subtract(result.sup_diffs, sup_ref))) <= 1e-12 * scale
    assert np.max(np.abs(np.subtract(result.monotone_margins, margins_ref))) <= 1e-12 * scale

    r_ref = _ref_r(problem, pi, path)
    assert _relative_gap(solve_r(problem, pi, path), r_ref) <= 1e-12

    u_given = 0.3 * np.sin(np.arange(pi.size)).reshape(pi.shape)
    for u in (None, u_given):
        want = _ref_state(problem, path,
                          lambda j, x: np.zeros_like(x) if u is None else u[:, j])
        assert _relative_gap(simulate_state(problem, u, path), want) <= 1e-12, u is None

    offset = 0.1 * np.fliplr(np.eye(problem.dim))
    laws = [(None, lambda u: u), (("scale", 0.7), lambda u: 0.7 * u),
            (("offset", offset), lambda u: u + offset)]
    for law, apply in laws:
        u_ref = np.empty_like(pi)

        def control(j, x_now):
            u_ref[:, j] = apply(_ref_feedback(problem, pi[:, j], r_ref[:, j], x_now))
            return u_ref[:, j]

        x_ref = _ref_state(problem, path, control)
        edge = 0 if problem.direction == "q0" else path.n_steps
        control(edge, x_ref[:, edge])
        x_path, u_path = closed_loop_state(problem, pi, r_ref, path, law=law)
        assert _relative_gap(x_path, x_ref) <= 1e-12, law
        assert _relative_gap(u_path, u_ref) <= 1e-12, law


@pytest.mark.parametrize("direction", ["q0", "qt"])
def test_affine_sweeps_match_per_step_reference_loops(direction):
    # d = 1, 2, 3: the closed-form Cayley inverse (d <= 2), the batched
    # solve (d = 3), and the d rank-1 updates of the stacked-product kernel
    for problem, seed in ((random_problem(1, 31), 31), (stochastic_2x2_problem(), 24),
                          (random_problem(3, 33), 33)):
        _check_against_reference_loops(replace(problem, direction=direction), seed)


def _matrix_last(arr):
    """A (..., d, d, P) stack (path axis last) as (..., P, d, d)."""
    return np.moveaxis(arr, -1, -3)


@settings(max_examples=80, deadline=None)
@given(
    dim=st.integers(1, 3),
    lead=st.lists(st.integers(1, 4), min_size=0, max_size=2),
    n_paths=st.integers(1, 5),
    operands=st.sampled_from(["stacked", "constant left", "broadcast", "vector"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_product_kernel_matches_matmul(dim, lead, n_paths, operands, seed):
    rng = np.random.default_rng(seed)

    def draw(*shape):
        scale = 10.0 ** rng.uniform(-3, 3)
        return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))

    # operands carry the path axis last: stacks (*lead, d, d, P), constants
    # (d, d, 1)
    lead = tuple(lead)
    if operands == "constant left":
        a = draw(dim, dim, 1)
    else:
        a = draw(*lead, dim, dim, n_paths)
    if operands == "vector":  # a constant vector enters as a one-column matrix
        v = draw(dim)
        got = _mm(a, v[:, None, None])[..., 0, :]
        want = np.moveaxis(np.matmul(_matrix_last(a), v), -2, -1)
        scale = np.moveaxis(np.matmul(np.abs(_matrix_last(a)), np.abs(v)), -2, -1)
    else:
        # "broadcast" stacks a left operand whose leading axes are all 1
        if operands == "broadcast":
            a = draw(*(1,) * len(lead), dim, dim, n_paths)
        b = draw(*lead, dim, dim, n_paths)
        got = _mm(a, b)
        want = np.moveaxis(np.matmul(_matrix_last(a), _matrix_last(b)), -3, -1)
        scale = np.moveaxis(np.matmul(np.abs(_matrix_last(a)), np.abs(_matrix_last(b))), -3, -1)
        out = np.empty(want.shape, dtype=complex)
        assert _mm(a, b, out=out) is out and np.array_equal(out, got)
    assert got.shape == want.shape
    # relative to the size of the summed terms, so cancellation cannot
    # turn rounding into a large relative error
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 2), norm=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
def test_closed_form_cayley_matches_solve(dim, norm, seed):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(64, dim, dim)) + 1j * rng.normal(size=(64, dim, dim))
    # spectral norms up to ``norm``, down to 1e-6 of it (dt-sized steps)
    target = norm * rng.uniform(size=64) * 10.0 ** rng.uniform(-6, 0, size=64)
    h *= (target / np.linalg.norm(h, 2, axis=(-2, -1)))[:, None, None]
    eye = np.eye(dim)
    want = np.linalg.solve(eye - h, eye + h)
    got = np.moveaxis(_cayley(np.moveaxis(h, 0, -1)), -1, 0)
    # measured: at most 4.3 eps (9.5e-16) over 200 000 draws per d with
    # ||H|| <= 0.5, where no entry exceeds 3; 4e-15 keeps 4x headroom
    assert np.max(np.abs(got - want)) <= 4e-15


def test_public_outputs_are_views_of_time_major_stores():
    problem = stochastic_2x2_problem()
    path = build_levy_surrogate(PLANAR_BROWNIAN, 40, 2.5e-2, seed=25, n_paths=3)
    xi = np.array([0.8, 0.6])
    final = iterate_riccati(problem, path, n_max=30, tol=1e-8).final
    r_vals = solve_r(problem, final, path)
    x_path, u_path = closed_loop_state(problem, final, r_vals, path)
    for out in (final, r_vals, simulate_state(problem, None, path), x_path, u_path):
        assert out.shape == (3, 41, 2, 2)
        assert np.moveaxis(out, 0, -1).flags.c_contiguous

    # C-ordered public-layout inputs are taken in and give the same bits
    bumped = final + 0.1 * np.eye(2)
    for pi in (final, bumped):
        copy = np.ascontiguousarray(pi)
        assert not np.moveaxis(copy, 0, -1).flags.c_contiguous
        assert residual_integral(problem, copy, path) == residual_integral(problem, pi, path)
        r_view = solve_r(problem, pi, path)
        assert np.array_equal(solve_r(problem, copy, path), r_view)
        r_copy = np.ascontiguousarray(r_view)
        for law in (None, ("scale", 0.7)):
            x_view, u_view = closed_loop_state(problem, pi, r_view, path, law=law)
            x_copy, u_copy = closed_loop_state(problem, copy, r_copy, path, law=law)
            assert np.array_equal(x_copy, x_view) and np.array_equal(u_copy, u_view)
            assert np.array_equal(
                cost_tilde(problem, np.ascontiguousarray(u_view), xi, np.ascontiguousarray(x_view),
                           path.dt)[2],
                cost_tilde(problem, u_view, xi, x_view, path.dt)[2])
        assert np.array_equal(simulate_state(problem, copy, path),
                              simulate_state(problem, pi, path))
    # a single matrix has no path axis to move: rejected, never transposed
    with pytest.raises(ShapeError):
        feedback_control(final[0, 0], r_vals[0, 0], x_path[0, 0], problem)


# ------------------------------------------------------------- optimality


def test_feedback_optimality_classical_value_identity():
    a, q, piT, x0 = 0.2, 1.0, 0.5, 1.0
    xi = np.array([1.0])
    problem = classical_reduction_problem([[a]], [[q]], [[piT]], [x0], xi)
    path = build_levy_surrogate(FOCK_VACUUM, 10_000, 1e-4, seed=19)
    report = verify_feedback_optimality(
        problem, xi, path,
        perturbations=[("scale", 1.0), ("scale", 1.3), ("offset", 0.2 * np.eye(1))],
        n_max=40, tol=1e-10,
    )
    classical = solve_riccati_ode(
        LqProblem(A=[[a]], Q=[[q]], Pi_T=[[piT]], horizon=1.0), steps=2000
    )
    value = classical.initial()[0, 0] * x0**2
    assert abs(report["base_cost_mean"] - value) <= 1e-4

    null, scale13, offset = report["comparisons"]
    assert abs(null["mean_excess"]) <= 1e-12  # null perturbation: equal costs
    assert scale13["min_excess"] > 0 and offset["min_excess"] > 0
    assert report["k_identity_max_defect"] <= 1e-4


@pytest.mark.parametrize("direction", ["q0", "qt"])
def test_feedback_optimality_stochastic_dominance(direction):
    # at seed 20 and 200 x 400: q0 min_excess >= 0.016, K defect 0.0017;
    # qt min_excess >= 0.0104, K defect 0.0041 (the qt Riccati and r
    # recursions use the increments the qt state uses)
    problem = replace(stochastic_2x2_problem(), direction=direction)
    path = build_levy_surrogate(PLANAR_BROWNIAN, 400, 2.5e-3, seed=20, n_paths=200)
    xi = np.array([0.8, 0.6])
    report = verify_feedback_optimality(
        problem, xi, path,
        perturbations=[("scale", 0.7), ("scale", 1.3), ("offset", 0.15 * np.eye(2))],
        n_max=40, tol=1e-7,
    )
    for comp in report["comparisons"]:
        assert comp["dominates_2sigma"], comp
        assert comp["min_excess"] > 0, comp
    assert report["k_identity_max_defect"] <= 1e-2


def test_feedback_optimality_qt_branch_full_chain():
    # The qt branch is classical LQR read directly: forward state from C,
    # terminal quadratic cost, Riccati backward from the terminal gain.
    a, q, pi_term, x0 = 0.2, 1.0, 0.5, 1.0
    xi = np.array([1.0])
    problem = scalar_problem(
        direction="qt", F=[[a]], Q=[[q]], boundary_gain=[[pi_term]], C=[[x0]],
    )
    path = build_levy_surrogate(FOCK_VACUUM, 10_000, 1e-4, seed=7)
    iteration = iterate_riccati(problem, path, n_max=40, tol=1e-10)
    classical = solve_riccati_ode(
        LqProblem(A=[[a]], Q=[[q]], Pi_T=[[pi_term]], horizon=1.0), steps=10_000
    )
    assert np.max(np.abs(iteration.final[0, :, 0, 0] - classical.gains[:, 0, 0])) <= 1e-8
    r_vals = solve_r(problem, iteration.final, path)
    assert np.max(np.abs(r_vals)) == 0.0
    x_path, u_path = closed_loop_state(problem, iteration.final, r_vals, path)
    _, _, costs = cost_tilde(problem, u_path, xi, x_path, path.dt)
    assert abs(costs[0] - classical.initial()[0, 0] * x0**2) <= 1e-4

    # affine terms switch the r-process on; the feedback law still wins
    # pathwise and the completion-of-squares cross term stays small
    affine = scalar_problem(
        direction="qt", F=[[a]], Q=[[q]], boundary_gain=[[pi_term]], C=[[x0]],
        L=[[0.1]], m=[[0.2]], eta=[[0.05]], boundary_linear=[[0.1]],
    )
    report = verify_feedback_optimality(
        affine, xi, path,
        perturbations=[("scale", 1.0), ("scale", 1.4), ("offset", 0.3 * np.eye(1))],
        n_max=60, tol=1e-10,
    )
    assert abs(report["comparisons"][0]["mean_excess"]) <= 1e-12
    assert report["comparisons"][1]["min_excess"] > 0
    assert report["comparisons"][2]["min_excess"] > 0
    assert report["k_identity_max_defect"] <= 1e-4


def test_feedback_optimality_pools_chunks(monkeypatch):
    # chunks of 4, 4 and 2 paths, each with its own Picard iteration (at
    # this seed and tol the last stops after 5 iterates, all 10 paths after
    # 6); the paired differences are pooled before any statistic
    from qscontrol import rf

    monkeypatch.setattr(rf, "_CHUNK_PATHS", 4)
    problem, xi = stochastic_2x2_problem(), np.array([0.8, 0.6])
    path = build_levy_surrogate(PLANAR_BROWNIAN, 20, 5e-2, seed=25, n_paths=10)
    laws = [("scale", 0.7), ("offset", 0.1 * np.eye(2)), ("offset", np.fliplr(0.1 * np.eye(2)))]
    report = verify_feedback_optimality(problem, xi, path, laws, n_max=40, tol=1e-7)

    costs = [[] for _ in range(len(laws) + 1)]  # the optimal law first
    for paths in (range(0, 4), range(4, 8), range(8, 10)):
        chunk = path.pick(paths)
        pi_values = iterate_riccati(problem, chunk, n_max=40, tol=1e-7).final
        r_values = solve_r(problem, pi_values, chunk)
        runs = [closed_loop_state(problem, pi_values, r_values, chunk, law=law)
                for law in (None, *laws)]
        for law_costs, (x_path, u_path) in zip(costs, runs):
            law_costs.append(cost_tilde(problem, u_path, xi, x_path, path.dt)[2])
        if paths.start == 0:  # the K identity reads the first 3 paths
            k_defects = [rf._k_identity_defect(problem, xi, pi_values[:3], r_values[:3],
                                               runs[0][0][:3], x_p[:3], u_p[:3], path.dt)
                         for x_p, u_p in runs[1:]]
    base = np.concatenate(costs[0])
    assert report["base_cost_mean"] == float(np.mean(base))
    assert report["k_identity_max_defect"] == max(k_defects)
    for law, law_costs, comp in zip(laws, costs[1:], report["comparisons"]):
        diff = np.concatenate(law_costs) - base
        stderr = float(np.std(diff, ddof=1) / math.sqrt(len(diff)))
        assert comp == {"perturbation": (law[0], np.asarray(law[1]).tolist()),
                        "mean_excess": float(np.mean(diff)), "stderr": stderr,
                        "dominates_2sigma": bool(np.mean(diff) > 2.0 * stderr),
                        "min_excess": float(np.min(diff))}


def test_scalar_offset_is_rejected():
    # ("offset", M) takes a (d, d) matrix; a scalar meant c I in one place
    # and c on every entry in another, so neither reading is guessed
    problem = stochastic_2x2_problem()
    path = build_levy_surrogate(PLANAR_BROWNIAN, 10, 1e-1, seed=26, n_paths=2)
    pi_values = iterate_riccati(problem, path, n_max=30, tol=1e-8).final
    r_values = solve_r(problem, pi_values, path)
    for offset in (0.1, np.full(2, 0.1), np.eye(3)):
        with pytest.raises(ShapeError):
            closed_loop_state(problem, pi_values, r_values, path, law=("offset", offset))
        with pytest.raises(ShapeError):
            verify_feedback_optimality(problem, np.array([0.8, 0.6]), path,
                                       [("offset", offset)], n_max=30, tol=1e-8)


# ------------------------------------------------------------ time reversal


def test_time_reverse_transforms_and_involution():
    problem = stochastic_2x2_problem()
    path = build_levy_surrogate(PLANAR_BROWNIAN, 64, 1e-2, seed=21, n_paths=3)
    flipped, rev = time_reverse(problem, path)
    assert flipped.direction == "qt"
    assert np.array_equal(flipped.F, problem.F)  # constants are unchanged
    assert np.array_equal(rev.dm1, path.dm1[:, ::-1])
    assert np.array_equal(rev.sigma, -path.sigma)

    back, orig = time_reverse(flipped, rev)
    assert back.direction == problem.direction
    assert np.array_equal(orig.dm1, path.dm1)
    assert np.array_equal(orig.sigma, path.sigma)


def test_time_reverse_consistent_with_native_backward_iteration():
    problem = scalar_problem(direction="qt")
    path = build_levy_surrogate(FOCK_VACUUM, 800, 1.25e-3, seed=22)
    native = iterate_riccati(problem, path, n_max=40, tol=1e-10)
    flipped, rev = time_reverse(problem, path)
    assert flipped.direction == "q0"
    reversed_run = iterate_riccati(flipped, rev, n_max=40, tol=1e-10)
    err = np.max(np.abs(native.final[0, :, 0, 0] - reversed_run.final[0, ::-1, 0, 0]))
    assert err <= 1e-8


def test_time_reverse_consistent_with_noise():
    # the two code branches realize the same arithmetic on reversed data,
    # so the agreement extends to noisy paths
    problem = replace(stochastic_2x2_problem(), direction="qt")
    path = build_levy_surrogate(PLANAR_BROWNIAN, 800, 1.25e-3, seed=6)
    native = iterate_riccati(problem, path, n_max=50, tol=1e-10)
    flipped, rev = time_reverse(problem, path)
    roundtrip = iterate_riccati(flipped, rev, n_max=50, tol=1e-10)
    assert native.converged and roundtrip.converged
    assert np.max(np.abs(native.final[0] - roundtrip.final[0, ::-1])) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       direction=st.sampled_from(["q0", "qt"]))
def test_picard_iterates_stay_psd_and_hermitian(dim, seed, direction):
    problem = random_problem(dim, seed, direction)
    path = build_levy_surrogate(PLANAR_BROWNIAN, 40, 2.5e-2, seed=seed, n_paths=2)
    for n_max in (2, 3, 4):  # the second, third and fourth iterates
        final = iterate_riccati(problem, path, n_max=n_max, tol=0.0).final
        # each step stores (Y + Y*)/2, which is Hermitian bit for bit
        assert np.array_equal(final, final.conj().swapaxes(-1, -2))
        # congruences of PSD matrices plus PSD increments: PSD to rounding
        assert np.min(min_eig_batch(final)) >= -1e-12 * np.max(np.abs(final))


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       direction=st.sampled_from(["q0", "qt"]),
       kind=st.sampled_from([PLANAR_BROWNIAN, FOCK_VACUUM]))
def test_time_reverse_is_an_involution(dim, seed, direction, kind):
    problem = random_problem(dim, seed, direction)
    path = build_levy_surrogate(kind, 30, 1e-2, seed=seed, n_paths=2)
    back, orig = time_reverse(*time_reverse(problem, path))
    for field in fields(problem):
        assert np.array_equal(getattr(back, field.name), getattr(problem, field.name)), field.name
    assert (orig.kind, orig.dt) == (path.kind, path.dt)
    for name in ("dm1", "sigma"):
        assert np.array_equal(getattr(orig, name), getattr(path, name)), name


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from([PLANAR_BROWNIAN, FOCK_VACUUM]))
def test_q0_run_equals_reversed_qt_run(dim, seed, kind):
    # the q0 branch on the time-reversed data does the qt branch's
    # arithmetic in mirrored order, so the runs agree bit for bit
    problem = random_problem(dim, seed, "qt")
    path = build_levy_surrogate(kind, 40, 2.5e-2, seed=seed, n_paths=2)
    flipped, rev = time_reverse(problem, path)
    native = iterate_riccati(problem, path, n_max=6, tol=0.0)
    mirrored = iterate_riccati(flipped, rev, n_max=6, tol=0.0)
    assert np.array_equal(native.final, mirrored.final[:, ::-1])
    assert native.sup_diffs == mirrored.sup_diffs
    assert native.monotone_margins == mirrored.monotone_margins
    r_native = solve_r(problem, native.final, path)
    r_mirrored = solve_r(flipped, mirrored.final, rev)
    assert np.array_equal(r_native, r_mirrored[:, ::-1])
    for law in (None, ("scale", 0.7)):
        x_native, u_native = closed_loop_state(problem, native.final, r_native, path, law=law)
        x_mirrored, u_mirrored = closed_loop_state(flipped, mirrored.final, r_mirrored, rev,
                                                   law=law)
        assert np.array_equal(x_native, x_mirrored[:, ::-1])
        assert np.array_equal(u_native, u_mirrored[:, ::-1])


def test_iteration_pathwise_refinement_converges():
    # refine the same Brownian path and re-run the Picard limit: the gaps
    # between consecutive resolutions shrink (strong pathwise convergence)
    problem = stochastic_2x2_problem()
    fine = build_levy_surrogate(PLANAR_BROWNIAN, 4000, 2.5e-4, seed=5)

    def coarsen(path, k):
        dm1 = path.dm1.reshape(path.n_paths, -1, k).sum(axis=2)
        return replace(path, dm1=dm1, dt=path.dt * k)

    finals = {
        tag: iterate_riccati(problem, p, n_max=50, tol=1e-10).final
        for tag, p in (("f", fine), ("m", coarsen(fine, 2)), ("c", coarsen(fine, 4)))
    }
    gap_cm = np.max(np.abs(finals["c"][0] - finals["m"][0, ::2]))
    gap_mf = np.max(np.abs(finals["m"][0] - finals["f"][0, ::2]))
    assert gap_mf < gap_cm < 5e-4


# ----------------------------------------------------------------- symbolic


def test_prop2_coefficients_match_both_branches():
    for direction in ("q0", "qt"):
        report = prop2_specialization_check(direction)
        assert report["matches"], report


def test_prop2_check_catches_a_swapped_table(monkeypatch):
    # swapping s12 and s21 in the printed A (the adjoint's job) must show
    # up as a mismatch in A alone
    def swapped(sign):
        printed = printed_coefficients(sign)
        swap = {"s12": "s21", "s21": "s12"}
        printed["A"] = FreePoly({tuple(swap.get(x, x) for x in word): c
                                 for word, c in printed["A"].terms.items()})
        return printed

    monkeypatch.setattr(rf_symbolic, "printed_coefficients", swapped)
    for direction in ("q0", "qt"):
        report = prop2_specialization_check(direction)
        assert not report["matches"]
        assert report["per_slot"] == {"A": False, "B1": True, "B2": True}
        assert report["differences"]["A"] != "0"


def test_freepoly_central_letters_and_set_zero():
    for name in _CENTRAL:
        s = FreePoly.sym(name)
        for gen in _STAR:
            g = FreePoly.sym(gen)
            assert s * g == g * s, (name, gen)
    s11, s12, s21, W, Ws = syms("s11 s12 s21 W W*")
    assert W * s11 * Ws == s11
    F, Fs, w, F1, F1s, Pi = syms("F F* w F1 F1* Pi")
    assert (s12 * F).adjoint() == s21 * Fs
    poly = F * w + 2.0 * w * F1 + Pi + s11 * F1s * Pi + 3.0 * s12 * Fs
    assert poly.set_zero("F1", "F1*") == F * w + Pi + 3.0 * s12 * Fs
    assert poly.set_zero("s12") == poly - 3.0 * s12 * Fs
    with pytest.raises(ValueError):
        poly.set_zero("F3")


def test_package_runs_without_sympy():
    code = (
        "import sys\n"
        "sys.modules['sympy'] = None\n"
        "from qscontrol import cli, classical, fock, qcontrol, rf, rf_symbolic\n"
        "for direction in ('q0', 'qt'):\n"
        "    assert rf_symbolic.prop2_specialization_check(direction)['matches']\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def _evaluate_nc(poly, mats):
    """Numeric value of a FreePoly whose letters are looked up in ``mats``:
    matrices for operators, scalars for the table letters (np.dot scales)."""
    dim = mats["Pi"].shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    for word, coeff in poly.terms.items():
        value = coeff * np.eye(dim, dtype=complex)
        for letter in word:
            value = np.dot(value, mats[letter])
        total += value
    return total


def _coefficient_mats(problem):
    """The problem's matrices, keyed by the generators they stand for."""
    mats = {"Pi": problem.boundary_gain, "F": problem.F, "Q": problem.Q,
            "Gq": problem.gain_quad(), "w": problem.w, "F1": problem.F1, "F2": problem.F2}
    mats.update({name + "*": mats[name].conj().T for name in ("F", "w", "F1", "F2")})
    return mats


@pytest.mark.parametrize("direction,sign", [("q0", -1), ("qt", +1)])
def test_duhamel_step_martingale_coefficients_match_symbolic(direction, sign):
    # One Duhamel step over dt = 1e-14 (drift negligible) on two one-step
    # paths with dM1 = eps and dM1 = i eps: the step's dM1/dM2 coefficients
    # are the B1/B2 the symbolic extraction gives for the branch, evaluated
    # on the problem's matrices at the boundary gain the step starts from.
    problem = replace(stochastic_2x2_problem(), direction=direction)
    eps = 1e-7
    dm1 = np.array([[eps], [1j * eps]])
    path = replace(build_levy_surrogate(PLANAR_BROWNIAN, 1, 1e-14, seed=0, n_paths=2), dm1=dm1)
    final = iterate_riccati(problem, path, n_max=2, tol=0.0).final
    d_real, d_imag = (final[:, 1] - final[:, 0]) / np.array([eps, 1j * eps])[:, None, None]
    numeric = {"B1": 0.5 * (d_real + d_imag), "B2": 0.5 * (d_real - d_imag)}

    mats = _coefficient_mats(problem)
    symbolic = extract_riccati_coefficients(sign)
    for slot in ("B1", "B2"):
        want = _evaluate_nc(symbolic[slot], mats)
        mismatch = np.max(np.abs(numeric[slot] - want)) / np.max(np.abs(want))
        assert mismatch <= 1e-5, (slot, mismatch)


@pytest.mark.parametrize("direction,sign", [
    ("q0", -1),
    # the qt step realizes the quadratic variation C_a* Pi C_b through the
    # increments with +sigma but puts -sigma into the drift quadratic S, so
    # its drift is the extracted A minus 2 sum sigma_ba C_a* Pi C_b (2.9%
    # of A here, independent of dt)
    pytest.param("qt", +1, marks=pytest.mark.xfail(
        strict=True, reason="qt drift carries -2 sum sigma C* Pi C against the extraction")),
])
def test_duhamel_step_drift_matches_symbolic(direction, sign):
    # One Duhamel step over dt = 1e-6 on four one-step paths dM1 = sqrt(dt)
    # (1, -1, i, -i): their mean and second moments are the planar-Brownian
    # table's (E dM1 = 0, E |dM1|^2 = dt, E dM1^2 = 0), so the mean step
    # divided by dt is the drift A the symbolic extraction gives for the
    # branch, up to O(dt).  Measured mismatch 1.16 dt on q0 (1.2e-4, 1.2e-5,
    # 1.2e-6 at dt = 1e-4, 1e-5, 1e-6); 1e-5 keeps 8x headroom.
    problem = replace(stochastic_2x2_problem(), direction=direction)
    dt = 1e-6
    dm1 = math.sqrt(dt) * np.array([[1.0], [-1.0], [1j], [-1j]])
    path = replace(build_levy_surrogate(PLANAR_BROWNIAN, 1, dt, seed=0, n_paths=4), dm1=dm1)
    final = iterate_riccati(problem, path, n_max=2, tol=0.0).final
    numeric = np.mean(final[:, 1] - final[:, 0], axis=0) / dt

    mats = _coefficient_mats(problem)
    sigma = path.sigma
    mats.update(s11=sigma[0, 0], s12=sigma[0, 1], s21=sigma[1, 0], s22=sigma[1, 1])
    want = _evaluate_nc(extract_riccati_coefficients(sign)["A"], mats)
    mismatch = np.max(np.abs(numeric - want)) / np.max(np.abs(want))
    assert mismatch <= 1e-5, mismatch


NOISE_COUPLINGS = ("F1", "F1*", "F2", "F2*")


def test_prop2_no_noise_drift_shape():
    printed = printed_coefficients(+1)  # qt branch: classical backward shape
    F, Fs, Pi, Q, Gq = syms("F F* Pi Q Gq")
    assert printed["A"].set_zero(*NOISE_COUPLINGS) == -(Fs * Pi + Pi * F + Q - Pi * Gq * Pi)
    assert printed["B1"].set_zero(*NOISE_COUPLINGS).is_zero()
    assert printed["B2"].set_zero(*NOISE_COUPLINGS).is_zero()


def test_prop2_w_zero_kills_noise_couplings():
    printed = printed_coefficients(-1)  # q0 branch
    F, Fs, Pi, Q, Gq = syms("F F* Pi Q Gq")
    assert printed["A"].set_zero("w", "w*") == Fs * Pi + Pi * F + Q - Pi * Gq * Pi
    assert printed["B1"].set_zero("w", "w*").is_zero()


# ---------------------------------------------------------------- validation


def test_problem_validation():
    with pytest.raises(ShapeError):
        scalar_problem(R=[[0.0]])  # singular R rejected at construction
    with pytest.raises(ShapeError):
        scalar_problem(Q=[[-1.0]])
    with pytest.raises(ShapeError):
        scalar_problem(F1=[[0.3]], F2=[[0.7]])  # pairing broken
    with pytest.raises(ShapeError):
        scalar_problem(direction="sideways")
