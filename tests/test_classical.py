"""Classical LQR/LQG reference implementation against closed forms."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_continuous_are

from qscontrol.classical import (
    LqProblem,
    are_residual,
    filter_covariance,
    lqg_simulate,
    lqr_simulate,
    solve_are,
    solve_riccati_ode,
)
from qscontrol.errors import ShapeError
from qscontrol.seeding import single_rng


def scalar_problem(a=0.0, q=0.0, pi_T=1.0, horizon=1.0, **kw):
    return LqProblem(
        A=[[a]], Q=[[q]], Pi_T=[[pi_T]], horizon=horizon, x0=kw.pop("x0", [1.0]), **kw
    )


# ------------------------------------------------------------ Riccati ODE


def test_scalar_riccati_closed_form():
    # a = 0, q = 0: Pi(t) = p / (1 + p (T - t))
    p_term = 2.0
    problem = scalar_problem(pi_T=p_term, horizon=1.5)
    sol = solve_riccati_ode(problem, steps=1500)
    for t, g in zip(sol.times, sol.gains):
        want = p_term / (1.0 + p_term * (problem.horizon - t))
        assert abs(g[0, 0] - want) <= 1e-8


def test_stationary_terminal_value_stays_constant():
    a_mat = np.array([[-1.0, 0.3], [0.0, -0.5]])
    q_mat = np.eye(2)
    pi_star = solve_are(a_mat, q_mat)
    problem = LqProblem(A=a_mat, Q=q_mat, Pi_T=pi_star, horizon=1.0)
    sol = solve_riccati_ode(problem, steps=200)
    assert max(np.max(np.abs(g - pi_star)) for g in sol.gains) <= 1e-9


def test_riccati_richardson_self_consistency():
    rng = single_rng(21)
    a_mat = rng.normal(size=(2, 2))
    a_mat -= (np.max(np.real(np.linalg.eigvals(a_mat))) + 0.5) * np.eye(2)
    problem = LqProblem(A=a_mat, Q=np.eye(2), Pi_T=0.5 * np.eye(2), horizon=1.0)
    coarse = solve_riccati_ode(problem, steps=400)
    fine = solve_riccati_ode(problem, steps=800)
    assert np.max(np.abs(coarse.gains - fine.gains[::2])) <= 1e-8


def test_riccati_blowup_reports_escape_time():
    from qscontrol.errors import BlowUpError

    # PSD data never blows up, so force the branch with a post-construction
    # sign flip: Pi_T = -2 gives the reversed-time solution -2/(1 - 2s),
    # escaping at s = 1/2, i.e. t = T - 1/2.
    problem = scalar_problem(pi_T=1.0, horizon=1.0)
    problem.Pi_T = np.array([[-2.0]])
    with pytest.raises(BlowUpError) as err:
        solve_riccati_ode(problem, steps=4000)
    assert err.value.escape_time == pytest.approx(0.5, abs=0.01)


def test_riccati_solution_symmetric():
    problem = LqProblem(
        A=[[0.0, 1.0], [-1.0, 0.0]], Q=np.eye(2), Pi_T=np.diag([1.0, 2.0]), horizon=1.0
    )
    sol = solve_riccati_ode(problem, steps=300)
    assert sol.symmetry_defect() <= 1e-12


# -------------------------------------------------------------------- ARE


@pytest.mark.parametrize("a,q,want", [(0.0, 1.0, 1.0), (1.0, 3.0, 3.0), (-1.0, 3.0, 1.0)])
def test_scalar_are_closed_forms(a, q, want):
    pi = solve_are([[a]], [[q]])
    assert abs(pi[0, 0] - want) <= 1e-10
    assert abs(pi[0, 0] - (a + math.sqrt(a * a + q))) <= 1e-10


def test_are_random_4x4_instances():
    rng = single_rng(22)
    for _ in range(5):
        a_mat = rng.normal(size=(4, 4))
        base = rng.normal(size=(4, 4))
        q_mat = base @ base.T + 0.1 * np.eye(4)
        pi = solve_are(a_mat, q_mat)
        assert are_residual(a_mat, q_mat, pi) <= 1e-10
        assert np.linalg.eigvalsh(pi)[0] >= -1e-9
        assert np.max(np.real(np.linalg.eigvals(a_mat - pi))) < 0
        reference = solve_continuous_are(a_mat, np.eye(4), q_mat, np.eye(4))
        assert np.max(np.abs(pi - reference)) <= 1e-8 * max(1.0, np.max(np.abs(reference)))


# -------------------------------------------------------------------- LQR


def test_lqr_cost_zero_from_origin():
    problem = scalar_problem(q=1.0, pi_T=1.0, x0=[0.0])
    _, states, cost = lqr_simulate(problem)
    assert abs(cost) <= 1e-14
    assert np.max(np.abs(states)) <= 1e-14


def test_lqr_value_identity_scalar_closed_form():
    # a = 0, q = 0, Pi_T = 1, x0 = 1: J* = Pi(0) x0^2 = 1/(1+T)
    problem = scalar_problem(pi_T=1.0, horizon=1.0)
    _, _, cost = lqr_simulate(problem, steps=2000)
    assert abs(cost - 0.5) <= 1e-6


def test_lqr_value_identity_matrix_case():
    problem = LqProblem(
        A=[[0.2, 0.5], [-0.3, -0.1]],
        Q=np.diag([1.0, 0.5]),
        Pi_T=np.diag([0.3, 0.7]),
        horizon=1.0,
        x0=[1.0, -0.5],
    )
    riccati = solve_riccati_ode(problem, steps=2000)
    _, _, cost = lqr_simulate(problem, riccati=riccati)
    want = problem.x0 @ riccati.initial() @ problem.x0
    assert abs(cost - want) <= 1e-6


def test_lqr_optimal_dominates_perturbations():
    problem = scalar_problem(q=1.0, pi_T=1.0, horizon=1.0)
    riccati = solve_riccati_ode(problem, steps=800)
    _, _, best = lqr_simulate(problem, riccati=riccati)
    rng = single_rng(23)
    for _ in range(20):
        kind = "offset" if rng.random() < 0.5 else "scale"
        if kind == "offset":
            pert = ("offset", [[float(rng.normal() * 0.4)]])
        else:
            pert = ("scale", float(1.0 + rng.normal() * 0.3))
        _, _, cost = lqr_simulate(problem, control=pert, riccati=riccati)
        assert cost >= best - 1e-9


@pytest.mark.xfail(strict=True, reason="with the continuous-Riccati gain the zero-order-hold "
                   "loop undercuts the optimum near the optimal gain (by 2.9e-9 at 2000 steps, "
                   "4.3e-10 at 8000): a discretization effect, larger than the 1e-9 slack")
def test_lqr_near_optimal_scale_does_not_undercut():
    # the lqr kind's default problem and a gain scale within 3e-5 of the optimum
    problem = scalar_problem(a=0.2, q=1.0, pi_T=0.5, horizon=1.0)
    riccati = solve_riccati_ode(problem, steps=2000)
    _, _, best = lqr_simulate(problem, riccati=riccati)
    _, _, cost = lqr_simulate(problem, control=("scale", 0.99997), riccati=riccati)
    assert cost >= best - 1e-9


def test_lqr_rejects_stochastic_problem():
    problem = scalar_problem(C=[[1.0]])
    with pytest.raises(ShapeError):
        lqr_simulate(problem)


# -------------------------------------------------------------------- LQG


def test_filter_covariance_stationary_scalar():
    # a = 0, h = 1, unit noises: P' = 1 - P^2 -> P(inf) = 1.
    problem = scalar_problem(C=[[1.0]], H_obs=[[1.0]], horizon=12.0)
    p_path = filter_covariance(problem, steps=2400)
    assert abs(p_path[-1][0, 0] - 1.0) <= 1e-6


def test_lqg_optimal_beats_gain_perturbations():
    problem = LqProblem(
        A=[[0.0]],
        Q=[[1.0]],
        Pi_T=[[1.0]],
        horizon=1.0,
        C=[[0.6]],
        H_obs=[[1.0]],
        obs_noise=1.0,
        x0=[1.0],
    )
    riccati = solve_riccati_ode(problem, steps=250)
    base = lqg_simulate(problem, seed=77, n_paths=600, steps=250, riccati=riccati)
    for scale in (0.8, 1.2):
        pert = lqg_simulate(
            problem,
            seed=77,
            n_paths=600,
            steps=250,
            perturbation=("scale", scale),
            riccati=riccati,
        )
        diff = pert["costs"] - base["costs"]
        se = float(np.std(diff, ddof=1) / math.sqrt(len(diff)))
        assert float(np.mean(diff)) > 2.0 * se


def test_lqg_determinism_same_seed():
    problem = scalar_problem(C=[[0.5]], H_obs=[[1.0]], q=1.0)
    a = lqg_simulate(problem, seed=5, n_paths=8, steps=50)
    b = lqg_simulate(problem, seed=5, n_paths=8, steps=50)
    assert np.array_equal(a["costs"], b["costs"])
