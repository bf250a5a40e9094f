"""Classical LQR/LQG reference implementation against closed forms."""

import math
from dataclasses import replace

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


def test_riccati_rk4_is_fourth_order_backward():
    # a = 0, q = 0, Pi_T = 2 on [0, 1]: Pi(t) = 2 / (1 + 2 (1 - t)); halving
    # the step divides the largest error by 2^4 (measured 15.64)
    problem = scalar_problem(pi_T=2.0, horizon=1.0)
    errors = []
    for steps in (20, 40):
        sol = solve_riccati_ode(problem, steps=steps)
        errors.append(np.max(np.abs(sol.gains[:, 0, 0] - 2.0 / (3.0 - 2.0 * sol.times))))
    assert 15.0 <= errors[0] / errors[1] <= 16.5


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
    (cost,) = lqr_simulate(problem)
    assert abs(cost) <= 1e-14


def test_lqr_value_identity_scalar_closed_form():
    # a = 0, q = 0, Pi_T = 1, x0 = 1: J* = Pi(0) x0^2 = 1/(1+T)
    problem = scalar_problem(pi_T=1.0, horizon=1.0)
    (cost,) = lqr_simulate(problem, steps=2000)
    assert abs(cost - 0.5) <= 1e-6


def matrix_problem():
    return LqProblem(
        A=[[0.2, 0.5], [-0.3, -0.1]],
        Q=np.diag([1.0, 0.5]),
        Pi_T=np.diag([0.3, 0.7]),
        horizon=1.0,
        x0=[1.0, -0.5],
    )


def test_lqr_value_identity_matrix_case():
    problem = matrix_problem()
    riccati = solve_riccati_ode(problem, steps=2000)
    (cost,) = lqr_simulate(problem, riccati=riccati)
    want = problem.x0 @ riccati.initial() @ problem.x0
    assert abs(cost - want) <= 1e-6


def test_lqr_optimal_dominates_perturbations():
    problem = scalar_problem(q=1.0, pi_T=1.0, horizon=1.0)
    riccati = solve_riccati_ode(problem, steps=800)
    rng = single_rng(23)
    laws = [None]
    for _ in range(20):
        kind = "offset" if rng.random() < 0.5 else "scale"
        if kind == "offset":
            laws.append(("offset", [[float(rng.normal() * 0.4)]]))
        else:
            laws.append(("scale", float(1.0 + rng.normal() * 0.3)))
    best, *costs = lqr_simulate(problem, laws, riccati=riccati)
    assert min(costs) >= best - 1e-9


@pytest.mark.xfail(strict=True, reason="with the continuous-Riccati gain the zero-order-hold "
                   "loop undercuts the optimum near the optimal gain (by 2.9e-9 at 2000 steps, "
                   "4.3e-10 at 8000): a discretization effect, larger than the 1e-9 slack")
def test_lqr_near_optimal_scale_does_not_undercut():
    # the lqr kind's default problem and a gain scale within 3e-5 of the optimum
    problem = scalar_problem(a=0.2, q=1.0, pi_T=0.5, horizon=1.0)
    riccati = solve_riccati_ode(problem, steps=2000)
    best, cost = lqr_simulate(problem, [None, ("scale", 0.99997)], riccati=riccati)
    assert cost >= best - 1e-9


def test_lqr_rejects_stochastic_problem():
    problem = scalar_problem(C=[[1.0]])
    with pytest.raises(ShapeError):
        lqr_simulate(problem)


def test_laws_reject_a_misshaped_offset():
    # a length-2 vector would broadcast row-wise over the 2x2 gain
    with pytest.raises(ShapeError, match="2x2"):
        lqr_simulate(matrix_problem(), [("offset", [0.3, -0.1])], steps=50)
    noisy = replace(matrix_problem(), C=0.5 * np.eye(2), H_obs=np.eye(2))
    with pytest.raises(ShapeError, match="2x2"):
        lqg_simulate(noisy, seed=5, n_paths=2, laws=[None, ("offset", [[0.1]])], steps=50)


@pytest.mark.parametrize("problem", [scalar_problem(a=0.2, q=1.0, pi_T=0.5), matrix_problem()],
                         ids=["n=1", "n=2"])
def test_lqr_law_cost_in_a_batch_equals_its_cost_alone(problem):
    dim = problem.dim
    riccati = solve_riccati_ode(problem, steps=200)
    laws = [None, ("scale", 0.7), ("offset", 0.2 * np.eye(dim)), ("scale", 1.3)]
    batch = lqr_simulate(problem, laws, riccati=riccati)
    alone = [lqr_simulate(problem, [law], riccati=riccati)[0] for law in laws]
    assert np.array_equal(batch, alone)


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
    result = lqg_simulate(problem, seed=77, n_paths=600, steps=250,
                          laws=[None, ("scale", 0.8), ("scale", 1.2)])
    base, *perturbed = result["costs"]
    for costs in perturbed:
        diff = costs - base
        se = float(np.std(diff, ddof=1) / math.sqrt(len(diff)))
        assert float(np.mean(diff)) > 2.0 * se


def test_lqg_determinism_same_seed():
    problem = scalar_problem(C=[[0.5]], H_obs=[[1.0]], q=1.0)
    a = lqg_simulate(problem, seed=5, n_paths=8, steps=50)
    b = lqg_simulate(problem, seed=5, n_paths=8, steps=50)
    assert np.array_equal(a["costs"], b["costs"])


def test_lqg_laws_share_the_noise_and_match_their_runs_alone():
    problem = replace(matrix_problem(), C=[[0.5, 0.0], [0.1, 0.3]], H_obs=[[1.0, 0.2], [0.0, 1.0]],
                      obs_noise=0.5)
    riccati = solve_riccati_ode(problem, steps=60)
    laws = [None, ("scale", 1.0), ("scale", 0.8), ("offset", 0.1 * np.eye(2))]
    batch = lqg_simulate(problem, seed=9, n_paths=16, laws=laws, riccati=riccati)
    # common random numbers: the null perturbation reproduces every path
    assert np.array_equal(batch["costs"][1], batch["costs"][0])
    for law, costs in zip(laws, batch["costs"]):
        alone = lqg_simulate(problem, seed=9, n_paths=16, laws=[law], riccati=riccati)
        assert np.array_equal(alone["costs"][0], costs)


def test_lqg_path_k_draws_state_noise_first_from_its_spawned_stream():
    # without control, Q = 0 and A = 0 the state is x0 + C sum(db), so the
    # cost of path k is Pi_T x_T^2 with db the first draw of stream k
    seed, n_paths, steps, c_val, x0 = 31, 3, 40, 0.7, 0.4
    problem = scalar_problem(q=0.0, pi_T=1.0, C=[[c_val]], H_obs=[[1.0]], x0=[x0])
    result = lqg_simulate(problem, seed, n_paths, laws=[("scale", 0.0)], steps=steps)
    dt = problem.horizon / steps
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(n_paths)):
        db = np.random.default_rng(child).normal(size=(steps, 1)) * np.sqrt(dt)
        x_end = x0
        for increment in db[:, 0]:
            x_end += increment * c_val
        assert result["costs"][0, k] == pytest.approx(x_end * x_end, rel=1e-14)
