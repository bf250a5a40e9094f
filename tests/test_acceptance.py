"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion runs at its stated tolerance and within its stated runtime
budget; run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines as they complete.
"""

import itertools
import math
import sys
import time

import numpy as np
import pytest

from qscontrol.seeding import single_rng

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class Criterion:
    """Collects named sub-checks and prints one summary line on close."""

    def __init__(self, number, title, budget_s):
        self.number = number
        self.title = title
        self.budget_s = budget_s
        self.failures = []
        self.worst = []
        self.start = time.perf_counter()

    def check(self, name, value, tolerance):
        value = float(value)
        ok = value <= tolerance
        if not ok:
            self.failures.append(f"{name}: {value:.3e} > {tolerance:.3e}")
        self.worst.append((value, tolerance, name))
        return ok

    def require(self, name, condition):
        if not condition:
            self.failures.append(name)

    def close(self):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if not self.failures and elapsed < self.budget_s else "FAIL"
        hardest = max(
            ((v / t if t else (0.0 if v == 0 else math.inf)), n, v, t) for v, t, n in self.worst
        ) if self.worst else (0, "-", 0, 0)
        print(
            f"[criterion {self.number:02d}] {self.title:58s} {status} "
            f"({elapsed:6.2f}s < {self.budget_s:g}s; tightest: {hardest[1]} "
            f"= {hardest[2]:.3e} vs {hardest[3]:.3e})",
            file=sys.stderr,
        )
        if elapsed >= self.budget_s:
            self.failures.append(f"runtime {elapsed:.2f}s exceeded {self.budget_s}s")
        assert not self.failures, "; ".join(self.failures)


def test_criterion_01_hp_ito_table():
    crit = Criterion(1, "first-order Ito table, all 16 products symbolically", 1.0)
    from qscontrol.ito import DA, DAD, DL, DT, HpLabel, SymbolicDifferential, hp_mul

    basis = {HpLabel.TIME: DT, HpLabel.ANN: DA, HpLabel.CRE: DAD, HpLabel.CONS: DL}
    expected = {
        (HpLabel.ANN, HpLabel.CRE): DT,
        (HpLabel.ANN, HpLabel.CONS): DA,
        (HpLabel.CONS, HpLabel.CRE): DAD,
        (HpLabel.CONS, HpLabel.CONS): DL,
    }
    for la, lb in itertools.product(HpLabel, repeat=2):
        got = hp_mul(basis[la], basis[lb])
        want = expected.get((la, lb), SymbolicDifferential.zero())
        crit.require(f"{la} * {lb} symbolic equality", got == want)
        crit.check(f"{la} * {lb}", got.max_coeff_diff(want), 0.0)
    crit.close()


def test_criterion_02_characteristic_functionals():
    crit = Criterion(2, "vacuum characteristic functionals within 1%", 10.0)
    from qscontrol.fock import TruncationConfig, characteristic_functional

    config = TruncationConfig(dt=1e-4, horizon=1.0)
    for s in (0.5, 1.0, 2.0):
        sim, closed = characteristic_functional("brownian", s, 1.0, 1.0, config)
        crit.check(f"brownian s={s}", abs(sim - closed) / abs(closed), 0.01)
        for lam in (0.5, 1.0):
            sim, closed = characteristic_functional("poisson", s, lam, 1.0, config)
            crit.check(f"poisson s={s} lam={lam}", abs(sim - closed) / abs(closed), 0.01)
    crit.close()


def test_criterion_03_sl2_representation():
    crit = Criterion(3, "sl(2) commutators at N=30 and exact theta table", 1.0)
    from qscontrol.ito import rho_plus_matrix, theta
    from qscontrol.ito.sl2 import theta_int

    N = 30
    bminus = rho_plus_matrix(0, 0, 1, N)
    bplus = rho_plus_matrix(1, 0, 0, N)
    m_op = rho_plus_matrix(0, 1, 0, N)
    window = np.s_[: N - 1, : N - 1]
    crit.check(
        "[B-, B+] = M", np.max(np.abs((bminus @ bplus - bplus @ bminus - m_op)[window])), 1e-10
    )
    crit.check(
        "[M, B+] = 2 B+", np.max(np.abs((m_op @ bplus - bplus @ m_op - 2 * bplus)[window])), 1e-10
    )
    crit.check(
        "[M, B-] = -2 B-", np.max(np.abs((m_op @ bminus - bminus @ m_op + 2 * bminus)[window])), 1e-10
    )

    # theta table vs direct evaluation: integer factor exactly, the single
    # square root to declared 1e-12 accuracy.
    worst = 0.0
    for n in range(11):
        for k in range(11):
            for l in range(11):
                for m in range(11):
                    got = theta(n, k, l, m)
                    if n + m - l < 0:
                        crit.require("Heaviside support", got == 0.0)
                        continue
                    ipart = theta_int(n, k, l, m)
                    direct = ipart * math.sqrt((n + m - l + 1) / (m + 1))
                    scale = max(1.0, abs(direct))
                    worst = max(worst, abs(got - direct) / scale)
                    crit.require("nonnegative", got >= 0.0)
    crit.check("theta vs direct evaluation (relative)", worst, 1e-12)
    crit.close()


def test_criterion_04_swn_table_vs_oracle():
    crit = Criterion(4, "SWN table vs composition oracle, bracket = dM", 30.0)
    from qscontrol.ito import swn_mul, swn_structure_constants
    from qscontrol.ito.sl2 import rho_plus_int_entries
    from qscontrol.ito.swn import d_bminus, d_bplus, d_m

    N, margin = 30, 5
    cache = {}

    def entries(label):
        if label not in cache:
            cache[label] = rho_plus_int_entries(*label, N)
        return cache[label]

    worst = 0
    for x in itertools.product(range(3), repeat=3):
        for y in itertools.product(range(3), repeat=3):
            direct = {}
            left, right = entries(x), entries(y)
            for (j, c), vr in right.items():
                for (r, j2), vl in left.items():
                    if j2 == j:
                        direct[(r, c)] = direct.get((r, c), 0) + vl * vr
            table = {}
            for label, coeff in swn_structure_constants(*x, *y).items():
                for pos, val in entries(label).items():
                    table[pos] = table.get(pos, 0) + coeff * val
            for pos in set(direct) | set(table):
                if pos[1] <= N - 1 - margin:
                    worst = max(worst, abs(direct.get(pos, 0) - table.get(pos, 0)))
    crit.check("composition oracle on safe window (exact-integer route)", worst, 1e-8)

    bracket = swn_mul(d_bminus(), d_bplus()) - swn_mul(d_bplus(), d_bminus())
    crit.require("Ito bracket reproduces dM symbolically", bracket == d_m())
    crit.close()


def test_criterion_05_weyl_series():
    crit = Criterion(5, "Weyl differential series through n = 40", 5.0)
    from qscontrol.fock import weyl_increment, weyl_series

    for lam, z, k in [
        (0.7, 0.5 + 0.25j, 1.3),
        (0.0, 1.0, -0.8),
        (2.0, 0.9j, math.pi),
        (0.0, 0.0, 2 * math.pi),
    ]:
        closed = weyl_increment(lam, z, k)
        series = weyl_series(lam, z, k, n_terms=40)
        crit.check(f"series vs closed (lam={lam}, z={z}, k={k})", closed.max_coeff_diff(series), 1e-12)

    closed = weyl_increment(0.3, 0.7 - 0.1j, 0.0)
    series = weyl_series(0.3, 0.7 - 0.1j, 0.0, n_terms=40)
    crit.check("k = 0 branch exact", closed.max_coeff_diff(series), 0.0)
    crit.close()


def test_criterion_06_classical_riccati_lqr():
    crit = Criterion(6, "classical Riccati / ARE / LQR optimality", 10.0)
    from qscontrol.classical import (
        LqProblem, are_residual, lqr_simulate, solve_are, solve_riccati_ode,
    )

    for a, q in ((0.0, 1.0), (1.0, 3.0), (-1.0, 3.0), (0.4, 2.0)):
        pi = solve_are([[a]], [[q]])[0, 0]
        crit.check(f"scalar ARE a={a} q={q}", abs(pi - (a + math.sqrt(a * a + q))), 1e-8)

    p_term = 2.0
    problem = LqProblem(A=[[0.0]], Q=[[0.0]], Pi_T=[[p_term]], horizon=1.0, x0=[1.0])
    sol = solve_riccati_ode(problem, steps=1500)
    closed = p_term / (1.0 + p_term * (1.0 - sol.times))
    crit.check("scalar Riccati closed form", np.max(np.abs(sol.gains[:, 0, 0] - closed)), 1e-8)

    rng = single_rng(601)
    for trial in range(3):
        a_mat = rng.normal(size=(4, 4))
        base = rng.normal(size=(4, 4))
        q_mat = base @ base.T + 0.1 * np.eye(4)
        pi = solve_are(a_mat, q_mat)
        crit.check(f"4x4 ARE residual #{trial}", are_residual(a_mat, q_mat, pi), 1e-10)
        crit.require(f"4x4 stabilizing #{trial}", np.max(np.real(np.linalg.eigvals(a_mat - pi))) < 0)

    lq = LqProblem(A=[[0.2]], Q=[[1.0]], Pi_T=[[0.5]], horizon=1.0, x0=[1.0])
    riccati = solve_riccati_ode(lq, steps=2000)
    _, _, best = lqr_simulate(lq, riccati=riccati)
    crit.check("value identity", abs(best - riccati.initial()[0, 0]), 1e-6)
    for trial in range(20):
        kind = "offset" if rng.random() < 0.5 else "scale"
        pert = ("offset", [[float(0.4 * rng.normal())]]) if kind == "offset" else (
            "scale", float(1.0 + 0.4 * rng.normal())
        )
        _, _, cost = lqr_simulate(lq, control=pert, riccati=riccati)
        crit.require(f"dominance #{trial}", cost >= best - 1e-9)
    crit.close()


def test_criterion_07_lqg():
    crit = Criterion(7, "LQG optimality at 2 sigma and noise-free limit", 60.0)
    from qscontrol.classical import LqProblem, lqg_simulate, lqr_simulate, solve_riccati_ode

    problem = LqProblem(
        A=[[0.0]], Q=[[1.0]], Pi_T=[[1.0]], horizon=1.0,
        C=[[0.6]], H_obs=[[1.0]], obs_noise=1.0, x0=[1.0],
    )
    riccati = solve_riccati_ode(problem, steps=250)
    base = lqg_simulate(problem, seed=70, n_paths=2000, steps=250, riccati=riccati)
    for scale in (0.8, 1.2):
        pert = lqg_simulate(
            problem, seed=70, n_paths=2000, steps=250,
            perturbation=("scale", scale), riccati=riccati,
        )
        diff = pert["costs"] - base["costs"]
        se = float(np.std(diff, ddof=1) / math.sqrt(len(diff)))
        crit.require(
            f"{scale:+.0%} gain beaten at 2 sigma", float(np.mean(diff)) > 2.0 * se
        )

    noise_free = LqProblem(
        A=[[0.1, 0.4], [-0.2, -0.3]], Q=np.eye(2), Pi_T=0.5 * np.eye(2), horizon=1.0,
        C=np.zeros((2, 2)), H_obs=np.eye(2), obs_noise=0.0, x0=[1.0, 0.5],
    )
    det = LqProblem(
        A=noise_free.A, Q=noise_free.Q, Pi_T=noise_free.Pi_T, horizon=1.0, x0=noise_free.x0
    )
    _, _, lqr_cost = lqr_simulate(det, steps=400)
    report = lqg_simulate(noise_free, seed=71, n_paths=2, steps=400)
    crit.check("noise-free degeneration equals LQR", abs(report["cost_mean"] - lqr_cost), 1e-6)
    crit.close()


def test_criterion_08_cost_value_identity():
    crit = Criterion(8, "quadratic cost equals <xi, Pi xi>, perturbations up", 60.0)
    from qscontrol.fock import GenericQsdeSpec
    from qscontrol.qcontrol import check_hp_riccati_system, cost_Q, exact_condition_instance

    rng = single_rng(801)
    for trial in range(3):
        dim = 2 if trial < 2 else 3
        spec, pi_mat, x_mat = exact_condition_instance(rng, dim=dim)
        residuals = check_hp_riccati_system(pi_mat, spec.F, spec.Psi, spec.Phi, spec.Z, x_mat)
        crit.check(f"condition residuals #{trial}", max(residuals), 1e-9)
        xi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        xi /= np.linalg.norm(xi)
        value = cost_Q(spec, x_mat, xi, horizon=1.0)
        want = float((xi.conj() @ pi_mat @ xi).real)
        crit.check(f"cost identity #{trial}", abs(value - want), 1e-3)
    spec, pi_mat, x_mat = exact_condition_instance(rng, dim=2)
    xi = np.array([0.8, 0.6], dtype=complex)
    base = cost_Q(spec, x_mat, xi, horizon=1.0)
    for trial in range(10):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        pert = GenericQsdeSpec(
            F=spec.F, Psi=spec.Psi, Phi=spec.Phi, Z=spec.Z,
            feedback=pi_mat + 0.1 * (g @ g.conj().T),
        )
        crit.require(
            f"perturbation #{trial} increases cost",
            cost_Q(pert, x_mat, xi, horizon=1.0) > base,
        )
    crit.close()


def test_criterion_09_synthesis_and_obstruction():
    crit = Criterion(9, "synthesis residuals and trace obstruction", 5.0)
    from qscontrol.linalg import commutator, fro
    from qscontrol.qcontrol import synthesize_hp, synthesis_residuals

    rng = single_rng(901)
    for trial in range(3):
        dim = 2 + trial % 2
        gauss = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        v_mat, _ = np.linalg.qr(gauss)
        pi_mat = v_mat @ np.diag(rng.uniform(0.1, 2.0, dim)) @ v_mat.conj().T
        w1 = v_mat @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, dim))) @ v_mat.conj().T
        w2 = v_mat @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, dim))) @ v_mat.conj().T
        l_mat, w_mat = synthesize_hp(pi_mat, w1=w1, w2=w2)
        res = synthesis_residuals(pi_mat, l_mat, w_mat)
        crit.check(f"synthesis residuals #{trial}", max(res.values()), 1e-9)

    h_mat, x_mat = SX, SZ
    bound = float(np.trace(x_mat @ x_mat).real) / math.sqrt(2)
    for trial in range(50):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        pi_mat = 0.5 * (g + g.conj().T)
        res = fro(1j * commutator(h_mat, pi_mat) + pi_mat @ pi_mat + x_mat @ x_mat)
        crit.require(f"obstruction bound holds #{trial}", res >= bound - 1e-12)
    crit.close()


def test_criterion_10_flow_derivations():
    crit = Criterion(10, "flow derivations: free-algebra and SWN forms", 10.0)
    from qscontrol.ito.module_ops import ModuleOperator, inner
    from qscontrol.qcontrol import derive_flow_hp, derive_flow_swn

    hp_report = derive_flow_hp()
    crit.require("first-order flow is a free-algebra identity", hp_report.matches)

    dim = 2
    rng = single_rng(1001)
    d_mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    d_minus = ModuleOperator.from_modes({0: d_mat}, dim=dim)
    w_ident = ModuleOperator.identity_cons(dim)
    report = derive_flow_swn(np.diag([0.4, -0.1]), d_minus, w_ident, SZ)
    crit.require("single-mode W = I matches the proposition form",
                 report["matches_proposition_form"])
    # hand form of the time slot for W = I
    dm_star = d_minus.adjoint()
    quad = inner(dm_star, dm_star)
    h_mat = np.diag([0.4, -0.1]).astype(complex)
    want_time = (
        1j * (SZ @ h_mat - h_mat @ SZ)
        - 0.5 * (quad @ SZ + SZ @ quad)
        + inner(dm_star, dm_star.left_mul(SZ))
    )
    crit.check("time slot vs hand expansion", np.max(np.abs(report["computed"].time - want_time)), 1e-10)

    # comparison report between the two printed coefficient forms, on a
    # nontrivial circ-unitary W
    u_mat = np.diag(np.exp(1j * np.array([0.9, -0.4])))
    w_op = ModuleOperator.from_cons({(0, 0, 0): u_mat})
    both = derive_flow_swn(SX, d_minus, w_op, SZ)
    crit.check("proposition-form defect", both["diff_proposition_form"], 1e-9)
    crit.check("composed-form defect", both["diff_composed_form"], 1e-9)
    crit.require("comparison report generated", "notes" in both)
    crit.close()


def test_criterion_11_picard_iteration():
    crit = Criterion(11, "monotone Picard iteration for stochastic Riccati", 120.0)
    from qscontrol.classical import LqProblem, solve_riccati_ode
    from qscontrol.rf import (
        FOCK_VACUUM, PLANAR_BROWNIAN, build_levy_surrogate, iterate_riccati,
        min_eig_batch, noise_free_scalar_problem, residual_integral,
        stochastic_2x2_problem,
    )

    problem = stochastic_2x2_problem()
    tol = 1e-6
    for seed in (1101, 1102, 1103):
        path = build_levy_surrogate(PLANAR_BROWNIAN, 1000, 1e-3, seed=seed, n_paths=4)
        result = iterate_riccati(problem, path, n_max=30, tol=tol)
        crit.require(f"converged within 30 iterations (seed {seed})", result.converged)
        # monotone decrease holds from the second difference on; the first
        # iterate is the constant boundary path, which the ordering claim
        # does not cover
        margin = min(result.monotone_margins[1:])
        crit.check(f"monotone PSD margin (seed {seed})", -margin, 1e-8)
        crit.check(f"pathwise positivity (seed {seed})",
                   -float(np.min(min_eig_batch(result.final))), 1e-10)
        defect = residual_integral(problem, result.final, path)
        crit.check(f"fixed-point defect (seed {seed})", defect, 10.0 * tol + 50.0 * 1e-3)

    det_problem = noise_free_scalar_problem()
    det_path = build_levy_surrogate(FOCK_VACUUM, 1000, 1e-3, seed=1)
    det = iterate_riccati(det_problem, det_path, n_max=40, tol=1e-10)
    classical = solve_riccati_ode(
        LqProblem(A=[[0.3]], Q=[[0.8]], Pi_T=[[1.2]], horizon=1.0), steps=1000
    )
    err = np.max(np.abs(det.final[0, :, 0, 0] - classical.gains[::-1, 0, 0]))
    crit.check("noise-free degeneration vs classical Riccati", err, 1e-6)
    crit.close()


def test_criterion_12_feedback_optimality():
    crit = Criterion(12, "feedback law: classical reduction and dominance", 180.0)
    from qscontrol.classical import LqProblem, solve_riccati_ode
    from qscontrol.rf import (
        FOCK_VACUUM, PLANAR_BROWNIAN, build_levy_surrogate,
        classical_reduction_problem, closed_loop_state, cost_tilde,
        iterate_riccati, solve_r, stochastic_2x2_problem,
    )

    # classical reduction: the synthesized gain path reproduces the LQR
    # gain, and the realized cost meets the value identity
    a, q, pi_term, x0 = 0.2, 1.0, 0.5, 1.0
    xi = np.array([1.0])
    problem = classical_reduction_problem([[a]], [[q]], [[pi_term]], [x0], xi)
    path = build_levy_surrogate(FOCK_VACUUM, 10_000, 1e-4, seed=1201)
    iteration = iterate_riccati(problem, path, n_max=40, tol=1e-10)
    classical = solve_riccati_ode(
        LqProblem(A=[[a]], Q=[[q]], Pi_T=[[pi_term]], horizon=1.0, x0=[x0]), steps=10_000
    )
    gain_err = np.max(np.abs(iteration.final[0, :, 0, 0] - classical.gains[::-1, 0, 0]))
    crit.check("feedback gain path vs LQR", gain_err, 1e-6)

    r_values = solve_r(problem, iteration.final, path)
    x_opt, u_opt = closed_loop_state(problem, iteration.final, r_values, path)
    _, _, costs = cost_tilde(problem, u_opt, xi, x_opt, path.dt)
    value = classical.initial()[0, 0] * x0**2
    crit.check("value identity on the classical reduction", abs(costs[0] - value), 1e-4)

    # stochastic dominance: 2000 paths, 10 perturbations, paired comparison
    sproblem = stochastic_2x2_problem()
    xi2 = np.array([0.8, 0.6])
    perturbations = [("scale", c) for c in (0.5, 0.7, 0.8, 0.9, 1.1, 1.2, 1.5)] + [
        ("offset", 0.1 * np.eye(2)), ("offset", -0.15 * np.eye(2)),
        ("offset", np.array([[0.0, 0.1], [0.1, 0.0]])),
    ]
    n_paths, chunk = 2000, 500
    ensemble = build_levy_surrogate(PLANAR_BROWNIAN, 1000, 1e-3, seed=1202, n_paths=n_paths)
    base_all = []
    pert_all = [[] for _ in perturbations]
    for start in range(0, n_paths, chunk):
        path_chunk = ensemble.pick(range(start, start + chunk))
        iteration = iterate_riccati(sproblem, path_chunk, n_max=30, tol=1e-6)
        crit.require(f"chunk {start} converged", iteration.converged)
        r_chunk = solve_r(sproblem, iteration.final, path_chunk)
        x_base, u_base = closed_loop_state(sproblem, iteration.final, r_chunk, path_chunk)
        _, _, base_costs = cost_tilde(sproblem, u_base, xi2, x_base, path_chunk.dt)
        base_all.append(base_costs)
        for idx, law in enumerate(perturbations):
            x_p, u_p = closed_loop_state(
                sproblem, iteration.final, r_chunk, path_chunk, law=law
            )
            _, _, p_costs = cost_tilde(sproblem, u_p, xi2, x_p, path_chunk.dt)
            pert_all[idx].append(p_costs)
    base_costs = np.concatenate(base_all)
    for idx, law in enumerate(perturbations):
        diff = np.concatenate(pert_all[idx]) - base_costs
        se = float(np.std(diff, ddof=1) / math.sqrt(len(diff)))
        crit.require(
            f"dominates perturbation #{idx} at 2 sigma",
            float(np.mean(diff)) > 2.0 * se and float(np.mean(diff)) > 0,
        )
    crit.close()
