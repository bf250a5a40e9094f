"""The RK4 kernels: the linear-ODE step map against the stepwise RK4; the
batched matrix exponential against scipy's, matrix by matrix; the one
Hermitian/PSD admission rule at every site and the size budget."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from qscontrol.classical import LqProblem
from qscontrol.cli import parse_config
from qscontrol.errors import ConfigError, ResourceLimitError, ShapeError
from qscontrol.fock import (GenericQsdeSpec, HpEvolutionSpec, _master_generator,
                            flow_expectation, swn_generator)
from qscontrol.ito import ModuleOperator
from qscontrol.ito.labels import SwnLabel
from qscontrol.linalg import (_PADE, STACK_BUDGET, expm_stack, psd_sqrt, require_budget, rk4,
                              rk4_linear)
from qscontrol.qcontrol import HpControlProblem
from qscontrol.rf import stochastic_2x2_problem


def _rand(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _scalar_case(rng):
    c_val = complex(-0.7 + 1.3j)
    return (lambda _t, y: c_val * y), np.complex128(0.4 - 0.2j)


def _master_op(rng, dim):
    """A generator with a random dt slot and a random dA+_0 jump."""
    return ModuleOperator({
        SwnLabel.time(): 0.3 * _rand(rng, dim, dim), SwnLabel.cre(0): 0.4 * _rand(rng, dim, dim)
    })


def _master_case(rng):
    dim = 3
    gen = _master_generator(_master_op(rng, dim))
    psi = _rand(rng, dim)
    return (lambda _t, rho: gen(rho)), np.outer(psi, psi.conj())


def _density_cost_case(rng):
    # the stacked (rho; J) state of qcontrol's quadratic costs
    dim = 2
    gen = _master_generator(_master_op(rng, dim))
    weight = _rand(rng, dim, dim)

    def deriv(_t, y):
        rho = y[..., :dim, :]
        out = np.zeros_like(y)
        out[..., :dim, :] = gen(rho)
        out[..., dim, 0] = np.trace(rho @ weight, axis1=-2, axis2=-1)
        return out

    psi = _rand(rng, dim)
    y0 = np.zeros((dim + 1, dim), dtype=complex)
    y0[:dim] = np.outer(psi, psi.conj())
    return deriv, y0


CASES = [_scalar_case, _master_case, _density_cost_case]


@pytest.mark.parametrize("case", CASES, ids=["scalar", "master", "density-cost"])
def test_rk4_linear_matches_rk4_on_a_linspace_grid(case):
    deriv, y0 = case(np.random.default_rng(11))
    steps = 173
    want = rk4(deriv, y0, np.linspace(0.0, 1.3, steps + 1))
    _, got = rk4_linear(deriv, y0, (0.0, 1.3), 1.3 / steps)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("case", CASES, ids=["scalar", "master", "density-cost"])
def test_rk4_linear_matches_rk4_on_a_grid_with_breaks(case):
    deriv, y0 = case(np.random.default_rng(12))
    grid, got = rk4_linear(deriv, y0, (0.0, 0.21, 0.5, 0.83, 1.0), 0.03)
    assert len(grid) == 1 + 7 + 10 + 11 + 6
    want = rk4(deriv, y0, grid)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_rk4_linear_takes_each_run_generator_at_its_midpoint():
    # a generator that switches at the segment edges: stepwise RK4 per
    # segment, of 9, 7 and 7 steps of at most 0.045
    rng = np.random.default_rng(13)
    gens = [0.5 * _rand(rng, 3, 3) for _ in range(3)]
    runs = [(0.0, 0.4, 9), (0.4, 0.7, 7), (0.7, 1.0, 7)]
    y0 = _rand(rng, 3)
    want = [y0[None]]
    for gen, (t0, t1, steps) in zip(gens, runs):
        seg = rk4(lambda _t, y, gen=gen: gen @ y, want[-1][-1], np.linspace(t0, t1, steps + 1))
        want.append(seg[1:])
    want = np.concatenate(want)

    def apply(t, stack):
        return stack @ gens[int(t // 0.35)].T  # midpoints 0.2, 0.55, 0.85

    _, got = rk4_linear(apply, y0, (0.0, 0.4, 0.7, 1.0), 0.045)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_rk4_linear_keeps_the_stepwise_roundoff_over_1e5_steps():
    # stepwise RK4 reaches 2.1e-15, 1.3e-14 and 1.0e-14 here; powers of the
    # step map S = 1 + E in the same blocks reach 5.8e-13, 2.4e-12 and
    # 1.1e-12, the increment form E_j = S^j - 1 keeps the stepwise level
    for c_val in (-1.0, -1.0 + 2.0j, -3.0):
        _, states = rk4_linear(lambda _t, y, c=c_val: c * y, 1.0 + 0.0j, (0.0, 1.0), 1e-5)
        assert states.shape == (10**5 + 1,)
        assert abs(states[-1] - np.exp(c_val)) <= 5e-14 * abs(np.exp(c_val))


@pytest.mark.parametrize(
    "shape, steps, stepped",
    [((3, 3), 9, False), ((3, 3), 8, True), ((17, 1), 40, True), ((16, 1), 40, False)],
)
def test_rk4_linear_steps_state_by_state_where_the_map_costs_more(shape, steps, stepped):
    # the map applies the generator to y0.size basis states and costs a
    # y0.size^2 product per step: it is used only for size <= steps and
    # size <= 16 x the trailing dimension; either way the result is RK4's
    rng = np.random.default_rng(14)
    gen = 0.5 * _rand(rng, shape[0], shape[0])
    calls = []

    def apply(_t, y):
        calls.append(y.shape)
        return gen @ y

    y0 = _rand(rng, *shape)
    _, got = rk4_linear(apply, y0, (0.0, 0.6), 0.6 / steps)
    assert calls == ([shape] * 4 * steps if stepped else [(y0.size, *shape)] * 4)
    want = rk4(lambda _t, y: gen @ y, y0, np.linspace(0.0, 0.6, steps + 1))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# 1-norms just below each Pade degree's theta (degrees 3, 5, 7, 9 without
# scaling, 13 at s = 0), then the scaling branch at s = 1 and s = 8; at 1e3
# the matrices are skew-dominated (exp of a general one leaves double
# range), so m = 1, whose skew part is 0, stops at 10
_EXPM_NORMS = [theta * (1 - 1e-6) for theta, _ in _PADE] + [10.0]
_EXPM_CASES = ([(norm, m) for norm in _EXPM_NORMS for m in (1, 2, 3, 4)]
               + [(1e3, m) for m in (2, 3, 4)])


@pytest.mark.parametrize("lead", [(5,), (2, 3)], ids=["one-axis", "two-axes"])
@pytest.mark.parametrize("norm, m", _EXPM_CASES, ids=lambda x: f"{x:.4g}")
def test_expm_stack_matches_scipy_matrix_by_matrix(norm, m, lead):
    # matrices of random size in (0.1, 1] of the stack's largest 1-norm.
    # Error relative to max|exp|: on seed 0 at most 4.7e-16 up to theta_9
    # and 2.3e-14 |A|_1 beyond; over seeds 0-199 1.7e-15 and 1.6e-13 |A|_1
    # (the exponential's conditioning, in scipy's result too)
    rng = np.random.default_rng(0)
    base = rng.normal(size=(*lead, m, m)) * rng.uniform(0.1, 1.0, size=(*lead, 1, 1))
    if norm > 100:
        base = base - np.swapaxes(base, -1, -2) + 1e-2 * base
    mats = base * (norm / np.max(np.sum(np.abs(base), axis=-2)))
    got = expm_stack(mats)
    assert got.shape == mats.shape
    bound = 4e-15 if norm < _PADE[-2][0] else 2e-13 * norm
    for mat, exp_mat in zip(mats.reshape(-1, m, m), got.reshape(-1, m, m)):
        want = expm(mat)
        assert np.max(np.abs(exp_mat - want)) <= bound * np.max(np.abs(want))


def test_expm_stack_gives_each_matrix_its_own_degree_and_scaling():
    # a stack across every degree and the scaling branch: each matrix's
    # exponential is the one it gets alone, bit for bit, so a law's cost
    # does not depend on the laws batched with it
    rng = np.random.default_rng(3)
    norms = [0.5 * _PADE[0][0]] + [theta * (1 - 1e-6) for theta, _ in _PADE] + [10.0, 40.0]
    base = rng.normal(size=(len(norms), 3, 3))
    mats = base * (np.array(norms) / np.max(np.sum(np.abs(base), axis=-2), axis=-1))[:, None, None]
    stack = expm_stack(mats)
    for mat, exp_mat in zip(mats, stack):
        assert exp_mat.tobytes() == expm_stack(mat[None])[0].tobytes()


def test_expm_stack_of_a_non_finite_matrix_is_nan():
    for bad in (np.inf, np.nan):
        mats = np.zeros((3, 2, 2))
        mats[1, 0, 1] = bad
        got = expm_stack(mats)
        assert np.isnan(got[1]).all()
        assert np.array_equal(got[[0, 2]], np.broadcast_to(np.eye(2), (2, 2, 2)))


# ------------------------------------------------------------- admission


_ZERO, _EYE = np.zeros((2, 2)), np.eye(2)
_RF = stochastic_2x2_problem()
_NO_NOISE = ModuleOperator.from_ann({0: _ZERO}, dim=2)

# (build from one 2x2 matrix, tolerance, whether PSD is required) for every
# input matrix the package admits through require_hermitian or require_psd
_ADMISSION_SITES = {
    "rf-Q": (lambda m: replace(_RF, Q=m), 1e-12, True),
    "rf-boundary_gain": (lambda m: replace(_RF, boundary_gain=m), 1e-12, True),
    "lq-Q": (lambda m: LqProblem(A=_ZERO, Q=m, Pi_T=_EYE, horizon=1.0), 1e-12, True),
    "lq-Pi_T": (lambda m: LqProblem(A=_ZERO, Q=_EYE, Pi_T=m, horizon=1.0), 1e-12, True),
    "cli-psd_matrix": (lambda m: parse_config({"kind": "lqr", "Q": m.tolist()}), 1e-12, True),
    "feedback": (lambda m: GenericQsdeSpec(F=_ZERO, Psi=_ZERO, Phi=_ZERO, Z=_ZERO, feedback=m),
                 1e-10, True),
    "psd_sqrt": (psd_sqrt, 1e-10, True),
    "hp-H": (lambda m: HpEvolutionSpec(H=m, L=_ZERO), 1e-10, False),
    "swn-H": (lambda m: swn_generator(m, _NO_NOISE, ModuleOperator.identity_cons(2)),
              1e-10, False),
    "observable": (lambda m: flow_expectation(HpEvolutionSpec(H=_ZERO, L=_ZERO), m, [1.0, 0.0],
                                              horizon=0.1, dt=0.1), 1e-10, False),
    "control-H": (lambda m: HpControlProblem(H=m, X=_EYE, xi=[1.0, 0.0], horizon=1.0),
                  1e-10, False),
    "control-X": (lambda m: HpControlProblem(H=_EYE, X=m, xi=[1.0, 0.0], horizon=1.0),
                  1e-10, False),
}


@pytest.mark.parametrize("site", sorted(_ADMISSION_SITES))
def test_each_admission_site_rejects_at_its_own_tolerance(site):
    # an asymmetry, and for PSD sites a negative eigenvalue, at 0.5x the
    # site's tolerance is admitted and at 2x rejected
    build, tol, psd = _ADMISSION_SITES[site]
    cases = [lambda x: np.array([[1.0, x], [0.0, 1.0]])]
    if psd:
        cases.append(lambda x: np.diag([1.0, -x]))
    for matrix in cases:
        build(matrix(0.5 * tol))
        with pytest.raises((ShapeError, ConfigError)):
            build(matrix(2.0 * tol))


def test_rf_control_weight_must_be_definite():
    # R admits through require_psd and must have its smallest eigenvalue above 1e-12
    replace(_RF, R=np.diag([1.0, 2e-12]))
    for low in (1e-12, 0.0, -0.5e-12):
        with pytest.raises(ShapeError, match="R must be positive definite"):
            replace(_RF, R=np.diag([1.0, low]))


def test_require_budget_reports_a_finite_count_before_allocating():
    require_budget(16, 16, "stack")
    for required in (17, 17.5, 10**400, float("inf")):
        with pytest.raises(ResourceLimitError) as err:
            require_budget(required, 16, "stack")
        assert err.value.budget == 16
        assert 16 < err.value.required <= sys.float_info.max
        assert str(err.value).startswith("stack needs ")
    # rk4_linear admits its stack from the step ratios, each rounded up by
    # less than one step, before allocating it: 2^22 steps of a 4-entry state
    with pytest.raises(ResourceLimitError) as err:
        rk4_linear(lambda _t, y: y, np.zeros(4, dtype=complex), (0.0, 1.0), 4 / STACK_BUDGET)
    assert err.value.required == (STACK_BUDGET // 4 + 2) * 4


def test_grid_is_admitted_from_its_step_ratios_before_rounding():
    edges = (0.0, 0.21, 0.5, 0.83, 1.0)
    grid, _ = rk4_linear(lambda _t, y: -y, 1.0 + 0.0j, edges, 0.03)
    want = [0.0]
    for a, b in zip(edges, edges[1:]):
        steps = max(1, math.ceil((b - a) / 0.03 - 1e-12 * max(1.0, (b - a) / 0.03)))
        want += [a + (b - a) * (j + 1) / steps for j in range(steps)]
    assert grid.tolist() == want  # the numpy grid is the per-point formula, bit for bit
    for horizon, dt in ((1e7, 1e-3), (1e300, 1e-10)):  # a finite and an infinite ratio
        with pytest.raises(ResourceLimitError):
            rk4_linear(lambda _t, y: -y, 1.0 + 0.0j, (0.0, horizon), dt)


def test_grid_keeps_the_whole_count_of_a_ratio_left_just_above_it():
    # 32.005 / 1e-3 divides to 32005.000000000004, one ulp above its whole
    # count, where an absolute slack of 1e-12 is below one ulp; the default
    # counts and a ratio just above a half keep theirs
    for horizon, dt, steps in ((32.005, 1e-3, 32005), (10.0, 1e-3, 10000), (1.0, 1e-2, 100),
                               (2.344, 1e-2, 235), (2.345, 1e-2, 235), (1.0, 0.4, 3)):
        grid, _ = rk4_linear(lambda _t, y: -y, 1.0 + 0.0j, (0.0, horizon), dt)
        assert len(grid) == steps + 1, horizon


def _lqg_at(n_paths):
    from qscontrol.classical import lqg_simulate, solve_riccati_ode

    problem = LqProblem(A=[[0.0]], Q=[[1.0]], Pi_T=[[1.0]], horizon=1.0, C=[[0.6]],
                        H_obs=[[1.0]], x0=[1.0])
    riccati = solve_riccati_ode(problem, steps=10)
    return lambda: lqg_simulate(problem, riccati, seed=0, n_paths=n_paths)


def _rf_store_over_budget(route):
    # a 4x4 problem on 2^16 steps x 16 paths: the surrogate's 2^20
    # increments are admitted, its (2^16 + 1) x 16 x 16 store is not
    from qscontrol.rf import (PLANAR_BROWNIAN, build_levy_surrogate, classical_reduction_problem,
                              iterate_riccati, verify_feedback_optimality)

    problem = classical_reduction_problem(0.1 * np.eye(4), np.eye(4), np.eye(4), np.ones(4),
                                          np.ones(4))
    path = build_levy_surrogate(PLANAR_BROWNIAN, 2**16, 1e-5, seed=0, n_paths=16)
    if route == "iterate":
        return lambda: iterate_riccati(problem, path, n_max=5, tol=1e-6)
    return lambda: verify_feedback_optimality(problem, np.ones(4), path, [("scale", 1.1)],
                                              n_max=5, tol=1e-6)


def _riccati_at(steps):
    from qscontrol.classical import solve_riccati_ode

    problem = LqProblem(A=[[0.0]], Q=[[1.0]], Pi_T=[[1.0]], horizon=1.0)
    return lambda: solve_riccati_ode(problem, steps=steps)


def _surrogate_at(n_steps):
    from qscontrol.rf import PLANAR_BROWNIAN, build_levy_surrogate

    return lambda: build_levy_surrogate(PLANAR_BROWNIAN, n_steps, 1e-3, seed=0)


# each call's largest array over the 2^24-entry budget, built (with all it
# needs first) by a function of no argument
_OVER_BUDGET = {
    "solve_riccati_ode": lambda: _riccati_at(10**9),
    "lqg_simulate": lambda: _lqg_at(10**7),
    "build_levy_surrogate": lambda: _surrogate_at(10**8),
    "iterate_riccati": lambda: _rf_store_over_budget("iterate"),
    "verify_feedback_optimality": lambda: _rf_store_over_budget("verify"),
}


@pytest.mark.parametrize("site", sorted(_OVER_BUDGET))
def test_library_calls_admit_their_arrays_before_allocating(site):
    # the function that allocates an array admits it, so a library call is
    # rejected as a CLI run is: before its array, or lqg's 10^7 noise
    # streams, take memory (a traced peak under 1 MB)
    import tracemalloc

    call = _OVER_BUDGET[site]()
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as err:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.budget == STACK_BUDGET < err.value.required
    assert peak < 2**20
