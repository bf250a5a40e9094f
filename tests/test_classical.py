"""Classical LQR/LQG reference implementation against closed forms."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm, solve_continuous_are

from qscontrol.classical import (
    LqProblem,
    _path_noise,
    _sweep,
    are_residual,
    filter_covariance,
    lqg_simulate,
    lqr_simulate,
    solve_are,
    solve_riccati_ode,
)
from qscontrol.errors import ShapeError
from qscontrol.linalg import rk4


def scalar_problem(a=0.0, q=0.0, pi_T=1.0, horizon=1.0, **kw):
    return LqProblem(
        A=[[a]], Q=[[q]], Pi_T=[[pi_T]], horizon=horizon, x0=kw.pop("x0", [1.0]), **kw
    )


# ------------------------------------------------------------ Riccati ODE


def closed_scalar(times, horizon=1.0, pi_T=2.0):
    # a = 0, q = 0: Pi(t) = Pi_T / (1 + Pi_T (T - t)), 2 / (3 - 2t) on [0, 1]
    return pi_T / (1.0 + pi_T * (horizon - times))


def test_scalar_riccati_closed_form():
    sol = solve_riccati_ode(scalar_problem(pi_T=2.0, horizon=1.5), steps=1500)
    assert np.max(np.abs(sol.gains[:, 0, 0] - closed_scalar(sol.times, horizon=1.5))) <= 1e-12


@pytest.mark.parametrize("steps", [20, 40, 10_000])
def test_riccati_flow_map_is_exact_on_coarse_grids(steps):
    # the flow map has no step error, only roundoff: 8.9e-16 at 20 and 40
    # steps, where RK4 read 8.8e-7 and 5.6e-8, and 1.3e-15 at the
    # classical reduction's 10 000
    sol = solve_riccati_ode(scalar_problem(pi_T=2.0, horizon=1.0), steps=steps)
    assert np.max(np.abs(sol.gains[:, 0, 0] - closed_scalar(sol.times))) <= 1e-13


def test_riccati_rk4_is_fourth_order_backward():
    # linalg.rk4 on Pi' = Pi^2 from Pi(1) = 2 backward to 0: halving the
    # step divides the largest error by 2^4 (measured 15.64)
    errors = []
    for steps in (20, 40):
        grid = np.linspace(1.0, 0.0, steps + 1)
        states = rk4(lambda _t, pi: pi @ pi, np.array([[2.0]]), grid)
        errors.append(np.max(np.abs(states[:, 0, 0] - closed_scalar(grid))))
    assert 15.0 <= errors[0] / errors[1] <= 16.5


def grid_problems():
    # (problem, steps): the 2x2 and a seeded 4x4 over T = 10, where RK4
    # read 5.3e-9 and 7.7e-7 against the finer grid, and a stiff 2x2 (an
    # eigenvalue 200 in A) at 100 steps, where blocks of sqrt(steps)
    # without the cap would grow by e^20 and lose 2.3e-8
    rng = np.random.default_rng(23)
    a_mat = rng.normal(size=(4, 4))
    base = rng.normal(size=(4, 4))
    return {
        "2x2": (replace(matrix_problem(), horizon=10.0), 400),
        "4x4": (LqProblem(A=a_mat, Q=base @ base.T + 0.1 * np.eye(4), Pi_T=np.eye(4),
                          horizon=10.0), 400),
        "stiff-2x2": (LqProblem(A=[[200.0, 50.0], [0.0, -1.0]], Q=np.diag([1.0, 2.0]),
                                Pi_T=np.diag([1.0, 0.5]), horizon=1.0), 100),
    }


@pytest.mark.parametrize("name", ["2x2", "4x4", "stiff-2x2"])
def test_riccati_flow_map_is_grid_independent(name):
    # against the map on an 8x finer grid: measured 1.8e-14, 3.9e-15 and
    # 7.5e-16 relative
    problem, steps = grid_problems()[name]
    coarse = solve_riccati_ode(problem, steps=steps)
    fine = solve_riccati_ode(problem, steps=8 * steps)
    gap = np.max(np.abs(coarse.gains - fine.gains[::8]))
    assert gap <= 1e-12 * np.max(np.abs(fine.gains))


def test_riccati_flow_map_stiff_scalar_closed_form():
    # a = -200, q = 1, Pi_T = 1 on 400 steps, ||H|| |h| = 0.5, so the block
    # cap, not sqrt(steps), sets the block length.  Pi' = (Pi - p+)(Pi - p-)
    # with p+- = a +- s, s = sqrt(a^2 + q), so w = (Pi - p+)/(Pi - p-) decays
    # backward as e^{-2 s (T - t)}; p+ = q / (s - a) avoids the cancellation
    a, q, pi_T = -200.0, 1.0, 1.0
    sol = solve_riccati_ode(scalar_problem(a=a, q=q, pi_T=pi_T), steps=400)
    s = math.hypot(a, math.sqrt(q))
    p_plus, p_minus = q / (s - a), a - s
    w = (pi_T - p_plus) / (pi_T - p_minus) * np.exp(-2.0 * s * (1.0 - sol.times))
    want = (p_plus - p_minus * w) / (1.0 - w)
    assert np.max(np.abs(sol.gains[:, 0, 0] - want) / want) <= 1e-12


def test_stationary_terminal_value_stays_constant():
    a_mat = np.array([[-1.0, 0.3], [0.0, -0.5]])
    q_mat = np.eye(2)
    pi_star = solve_are(a_mat, q_mat)
    problem = LqProblem(A=a_mat, Q=q_mat, Pi_T=pi_star, horizon=1.0)
    sol = solve_riccati_ode(problem, steps=200)
    assert max(np.max(np.abs(g - pi_star)) for g in sol.gains) <= 1e-9


def test_riccati_richardson_self_consistency():
    rng = np.random.default_rng(21)
    a_mat = rng.normal(size=(2, 2))
    a_mat -= (np.max(np.real(np.linalg.eigvals(a_mat))) + 0.5) * np.eye(2)
    problem = LqProblem(A=a_mat, Q=np.eye(2), Pi_T=0.5 * np.eye(2), horizon=1.0)
    coarse = solve_riccati_ode(problem, steps=400)
    fine = solve_riccati_ode(problem, steps=800)
    assert np.max(np.abs(coarse.gains - fine.gains[::2])) <= 1e-12


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


@pytest.mark.parametrize("pi_T,steps,want", [
    ([[-2.0]], 11, 5 / 11),
    (np.diag([-2.0, 1.0]), 301, 150 / 301),
], ids=["scalar", "2x2"])
def test_riccati_blowup_between_grid_points(pi_T, steps, want):
    from qscontrol.errors import BlowUpError

    # the pole at t = 1/2 falls between grid points, where the map returns
    # finite: the escape is the first grid time past it
    pi_T = np.asarray(pi_T)
    problem = LqProblem(A=np.zeros_like(pi_T), Q=np.zeros_like(pi_T), Pi_T=np.eye(len(pi_T)),
                        horizon=1.0)
    problem.Pi_T = pi_T
    with pytest.raises(BlowUpError) as err:
        solve_riccati_ode(problem, steps=steps)
    assert err.value.escape_time == pytest.approx(want, abs=1e-12)


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
    rng = np.random.default_rng(22)
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
    (cost,) = lqr_simulate(problem, solve_riccati_ode(problem))
    assert abs(cost) <= 1e-14


def test_lqr_value_identity_scalar_closed_form():
    # a = 0, q = 0, Pi_T = 1, x0 = 1: J* = Pi(0) x0^2 = 1/(1+T)
    problem = scalar_problem(pi_T=1.0, horizon=1.0)
    (cost,) = lqr_simulate(problem, solve_riccati_ode(problem, steps=2000))
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
    (cost,) = lqr_simulate(problem, riccati)
    want = problem.x0 @ riccati.initial() @ problem.x0
    assert abs(cost - want) <= 1e-6


def test_lqr_optimal_dominates_perturbations():
    problem = scalar_problem(q=1.0, pi_T=1.0, horizon=1.0)
    riccati = solve_riccati_ode(problem, steps=800)
    rng = np.random.default_rng(23)
    laws = [None]
    for _ in range(20):
        kind = "offset" if rng.random() < 0.5 else "scale"
        if kind == "offset":
            laws.append(("offset", [[float(rng.normal() * 0.4)]]))
        else:
            laws.append(("scale", float(1.0 + rng.normal() * 0.3)))
    best, *costs = lqr_simulate(problem, riccati, laws)
    assert min(costs) >= best - 1e-9


@pytest.mark.xfail(strict=True, reason="with the continuous-Riccati gain the zero-order-hold "
                   "loop undercuts the optimum near the optimal gain (by 2.9e-9 at 2000 steps, "
                   "4.3e-10 at 8000): a discretization effect, larger than the 1e-9 slack")
def test_lqr_near_optimal_scale_does_not_undercut():
    # the lqr kind's default problem and a gain scale within 3e-5 of the optimum
    problem = scalar_problem(a=0.2, q=1.0, pi_T=0.5, horizon=1.0)
    riccati = solve_riccati_ode(problem, steps=2000)
    best, cost = lqr_simulate(problem, riccati, [None, ("scale", 0.99997)])
    assert cost >= best - 1e-9


def test_lqr_rejects_stochastic_problem():
    problem = scalar_problem(C=[[1.0]])
    with pytest.raises(ShapeError):
        lqr_simulate(problem, solve_riccati_ode(problem))


def test_laws_reject_a_misshaped_offset():
    # a length-2 vector would broadcast row-wise over the 2x2 gain
    riccati = solve_riccati_ode(matrix_problem(), steps=50)
    with pytest.raises(ShapeError, match="2x2"):
        lqr_simulate(matrix_problem(), riccati, [("offset", [0.3, -0.1])])
    noisy = replace(matrix_problem(), C=0.5 * np.eye(2), H_obs=np.eye(2))
    with pytest.raises(ShapeError, match="2x2"):
        lqg_simulate(noisy, riccati, seed=5, n_paths=2, laws=[None, ("offset", [[0.1]])])


@pytest.mark.parametrize("problem", [scalar_problem(a=0.2, q=1.0, pi_T=0.5), matrix_problem()],
                         ids=["n=1", "n=2"])
def test_lqr_law_cost_in_a_batch_equals_its_cost_alone(problem):
    dim = problem.dim
    riccati = solve_riccati_ode(problem, steps=200)
    laws = [None, ("scale", 0.7), ("offset", 0.2 * np.eye(dim)), ("scale", 1.3)]
    batch = lqr_simulate(problem, riccati, laws)
    alone = [lqr_simulate(problem, riccati, [law])[0] for law in laws]
    assert np.array_equal(batch, alone)


def _sweep_reference(generators, weights, terminal, z, dt, kicks=None):
    """The zero-order-hold step law by law: two half steps through scipy's
    expm of each matrix and the three-point Simpson sum of <z, W z>."""
    z = np.array(z, dtype=float)
    costs = np.zeros(z.shape[:-1])
    n = z.shape[-1] // 2
    sq_err = 0.0
    for k in range(len(generators)):
        for law, (gen, weight) in enumerate(zip(generators[k], weights[k])):
            half = expm(gen * (dt / 2.0)).T
            start = z[law]
            mid = start @ half
            end = mid @ half
            forms = [np.einsum("pi,ij,pj->p", x, weight, x) for x in (start, mid, end)]
            costs[law] += (dt / 6.0) * (forms[0] + 4.0 * forms[1] + forms[2])
            z[law] = end
        if kicks is not None:
            db, c_mat, dw, k_filters = kicks
            z[..., :n] += db[:, k] @ c_mat.T
            z[..., n:] += dw[:, k] @ k_filters[k].T
            sq_err += float(np.sum((z[0, :, :n] - z[0, :, n:]) ** 2))
    return costs + np.einsum("lpi,ij,lpj->lp", z, terminal, z), sq_err


@pytest.mark.parametrize("laws, paths, dim, kicked", [(21, 1, 1, False), (21, 1, 2, False),
                                                      (3, 50, 4, True)],
                         ids=["lqr-n=1", "lqr-n=2", "lqg-m=4"])
def test_folded_sweep_matches_the_per_step_scheme(laws, paths, dim, kicked):
    # the folded step (one propagator and one Simpson form per step, the
    # exponentials batched) against two half steps and three forms per
    # step.  Largest relative differences on this seed: 3.8e-15 (lqr n=1),
    # 2.7e-15 (n=2), 2.3e-15 on the costs and 4.3e-16 on sq_err (lqg m=4);
    # over seeds 0-99 at most 7.3e-15, so 4e-14 leaves 5x
    rng = np.random.default_rng(41)
    steps = 60
    dt = 1.0 / steps
    generators = rng.normal(size=(steps, laws, dim, dim))
    half_w = rng.normal(size=(steps, laws, dim, dim))
    weights = half_w @ np.swapaxes(half_w, -1, -2)
    terminal = np.diag(rng.uniform(0.2, 1.0, size=dim))
    start = np.broadcast_to(rng.normal(size=dim), (laws, paths, dim))
    kicks = None
    if kicked:
        n = dim // 2
        kicks = (rng.normal(size=(paths, steps, n)) * math.sqrt(dt), rng.normal(size=(n, n)),
                 rng.normal(size=(paths, steps, n)) * math.sqrt(dt),
                 rng.normal(size=(steps, n, n)))
    costs, sq_err = _sweep(generators, weights, terminal, start, dt, kicks)
    want_costs, want_sq_err = _sweep_reference(generators, weights, terminal, start, dt, kicks)
    assert costs.shape == (laws, paths)
    assert np.max(np.abs(costs - want_costs)) <= 4e-14 * np.max(np.abs(want_costs))
    assert abs(sq_err - want_sq_err) <= 4e-14 * want_sq_err


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
    result = lqg_simulate(problem, solve_riccati_ode(problem, steps=250), seed=77, n_paths=600,
                          laws=[None, ("scale", 0.8), ("scale", 1.2)])
    base, *perturbed = result["costs"]
    for costs in perturbed:
        diff = costs - base
        se = float(np.std(diff, ddof=1) / math.sqrt(len(diff)))
        assert float(np.mean(diff)) > 2.0 * se


def test_lqg_determinism_same_seed():
    problem = scalar_problem(C=[[0.5]], H_obs=[[1.0]], q=1.0)
    riccati = solve_riccati_ode(problem, steps=50)
    a = lqg_simulate(problem, riccati, seed=5, n_paths=8)
    b = lqg_simulate(problem, riccati, seed=5, n_paths=8)
    assert np.array_equal(a["costs"], b["costs"])


def test_lqg_laws_share_the_noise_and_match_their_runs_alone():
    problem = replace(matrix_problem(), C=[[0.5, 0.0], [0.1, 0.3]], H_obs=[[1.0, 0.2], [0.0, 1.0]],
                      obs_noise=0.5)
    riccati = solve_riccati_ode(problem, steps=60)
    laws = [None, ("scale", 1.0), ("scale", 0.8), ("offset", 0.1 * np.eye(2))]
    batch = lqg_simulate(problem, riccati, seed=9, n_paths=16, laws=laws)
    # common random numbers: the null perturbation reproduces every path
    assert np.array_equal(batch["costs"][1], batch["costs"][0])
    for law, costs in zip(laws, batch["costs"]):
        alone = lqg_simulate(problem, riccati, seed=9, n_paths=16, laws=[law])
        assert np.array_equal(alone["costs"][0], costs)


def test_path_noise_is_the_two_successive_draws_bit_for_bit():
    # one (2, steps, n) draw per path against the db-then-dw (steps, n)
    # draws of the seed-splitting contract
    seed, n_paths, steps, n, dt, obs_noise = 12, 4, 30, 2, 0.02, 0.35
    db, dw = _path_noise(seed, n_paths, steps, n, dt, obs_noise)
    assert db.shape == dw.shape == (n_paths, steps, n)
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(n_paths)):
        rng = np.random.default_rng(child)
        want_db = rng.normal(size=(steps, n)) * np.sqrt(dt)
        want_dw = np.sqrt(obs_noise) * (rng.normal(size=(steps, n)) * np.sqrt(dt))
        assert db[k].tobytes() == want_db.tobytes() and dw[k].tobytes() == want_dw.tobytes()


def test_lqg_path_k_draws_state_noise_first_from_its_spawned_stream():
    # without control, Q = 0 and A = 0 the state is x0 + C sum(db), so the
    # cost of path k is Pi_T x_T^2 with db the first draw of stream k
    seed, n_paths, steps, c_val, x0 = 31, 3, 40, 0.7, 0.4
    problem = scalar_problem(q=0.0, pi_T=1.0, C=[[c_val]], H_obs=[[1.0]], x0=[x0])
    result = lqg_simulate(problem, solve_riccati_ode(problem, steps), seed, n_paths,
                          laws=[("scale", 0.0)])
    dt = problem.horizon / steps
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(n_paths)):
        db = np.random.default_rng(child).normal(size=(steps, 1)) * np.sqrt(dt)
        x_end = x0
        for increment in db[:, 0]:
            x_end += increment * c_val
        assert result["costs"][0, k] == pytest.approx(x_end * x_end, rel=1e-14)
