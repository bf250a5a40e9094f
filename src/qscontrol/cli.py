"""Experiment runner: JSON configs in, machine-readable reports out.

Subcommands:

    qscontrol run <config.json> [--seed N] [--out-dir DIR] [--paths N]
                  [--dt X] [--format {json,csv}]
    qscontrol list [--verbose] [--machine]

Every run writes ``report.json`` (schema run-report/1, see
docs/output_schema.md): the config echo, a version tag, wall time, and one
entry per check carrying the measured value, its tolerance and pass/fail.
Reports are byte-identical across runs with the same config and seed,
except for the wall-time field.  Exit codes: 0 all checks pass, 1 check
failure, 2 config error, 3 resource rejection.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, QscError, ResourceLimitError
from .seeding import DEFAULT_SEED

# ------------------------------------------------------------------ schema

EXPERIMENTS = {
    "ito-table": "all 16 first-order Ito basis products against the table",
    "swn-table": "SWN conservation products against the composition oracle",
    "characteristic": "vacuum characteristic functionals vs closed forms",
    "weyl": "exponential-series check of the Weyl differential brackets",
    "flow": "Heisenberg flow expectations vs closed forms and tensor oracle",
    "lqr": "deterministic Riccati/LQR closed forms and optimality",
    "lqg": "Kalman-Bucy LQG Monte Carlo optimality and degeneration",
    "hp-control": "first-order quadratic control: residuals, cost identity",
    "swn-control": "SWN control: condition cancellations, flow derivation",
    "rf-riccati": "stochastic Riccati Picard iteration and feedback check",
}

VERBOSE_NOTES = {
    "ito-table": "Checks every product of {dt, dA, dA+, dL} symbolically; "
    "the only nonzero entries are dA dA+ = dt, dA dL = dA, dL dA+ = dA+, dL dL = dL.",
    "swn-table": "Multiplies conservation differentials with exact integer "
    "structure constants and compares against matrix products of the "
    "number-space representation on a safe truncation window; also checks "
    "the sl(2) Ito bracket dB- dB+ - dB+ dB- = dM.",
    "characteristic": "Integrates the scalar reduction ODE for exp(isB_t) "
    "and exp(isP_t) and compares with exp(-s^2 t/2) and exp(lam(e^{is}-1)t).",
    "weyl": "Sums (i dE)^n/n! under the Ito table through n = 40 and "
    "compares with the closed-form differential of exp(iE_t).",
    "flow": "Runs the vacuum master equation for j_t(X) (two-level decay "
    "closed form) and cross-checks a short horizon against the one-fresh-"
    "mode-per-step tensor discretization.",
    "lqr": "Solves the backward matrix Riccati ODE, checks scalar closed "
    "forms, the algebraic Riccati solver, the value identity "
    "J* = x0' Pi(0) x0, and gain-perturbation dominance.",
    "lqg": "Monte Carlo paths with the standard Kalman-Bucy filter; paired "
    "comparison against gain perturbations at 2 sigma; the zero-noise run "
    "must reproduce the deterministic cost.",
    "hp-control": "Builds coefficient sets whose three condition residuals "
    "vanish, simulates the quadratic cost, and checks it equals the "
    "quadratic form of the gain; includes synthesis residuals and the "
    "finite-dimensional trace obstruction.",
    "swn-control": "Checks the SWN condition-system cancellations on a "
    "commuting family, the flow-differential derivation against both "
    "printed coefficient forms, and the simulation cross-check.",
    "rf-riccati": "Runs the monotone Picard iteration pathwise on a Levy-"
    "pair surrogate: positivity, monotone decrease, convergence, the "
    "propagator fixed-point defect, and the noise-free degeneration to "
    "the classical Riccati ODE.",
}

_COMMON_KEYS = {"kind": "str", "seed": "int", "out_prefix": "str"}

KIND_KEYS = {
    "ito-table": {},
    "swn-table": {"max_index": "int", "truncation": "int"},
    "characteristic": {"s_values": "numbers", "intensities": "numbers", "t": "number", "ode_dt": "number"},
    "weyl": {"lam": "number", "z": "complex", "k": "number", "n_terms": "int"},
    "flow": {"horizon": "number", "dt": "number"},
    "lqr": {"A": "matrix", "Q": "psd_matrix", "Pi_T": "psd_matrix", "x0": "vector",
            "horizon": "number", "steps": "int", "n_perturbations": "int"},
    "lqg": {"A": "matrix", "Q": "psd_matrix", "Pi_T": "psd_matrix", "C": "matrix",
            "H_obs": "matrix", "x0": "vector", "horizon": "number", "steps": "int",
            "n_paths": "int", "write_paths": "bool"},
    "hp-control": {"dim": "int", "horizon": "number", "n_perturbations": "int"},
    "swn-control": {"horizon": "number", "dt": "number"},
    "rf-riccati": {"n_steps": "int", "dt": "number", "n_max": "int", "tol": "number",
                   "n_paths": "int", "write_traces": "bool"},
}


def _parse_complex(value, path, errors):
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(
        isinstance(v, (int, float)) for v in value
    ):
        return complex(value[0], value[1])
    errors.append(f"{path}: expected a number or [re, im] pair, got {value!r}")
    return 0j


def _parse_matrix(value, path, errors):
    if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
        errors.append(f"{path}: expected a nested array (row-major matrix)")
        return None
    rows = len(value)
    if any(len(r) != rows for r in value):
        errors.append(f"{path}: matrix must be square, got row lengths {[len(r) for r in value]}")
        return None
    return np.array(
        [[_parse_complex(v, f"{path}[{i}][{j}]", errors) for j, v in enumerate(row)]
         for i, row in enumerate(value)]
    )


def _validate_value(key, kind_of, raw, errors):
    if kind_of == "int":
        if not isinstance(raw, int) or isinstance(raw, bool):
            errors.append(f"{key}: expected an integer, got {raw!r}")
            return None
        return raw
    if kind_of == "number":
        if not isinstance(raw, (int, float)) or isinstance(raw, bool):
            errors.append(f"{key}: expected a number, got {raw!r}")
            return None
        return float(raw)
    if kind_of == "numbers":
        if not isinstance(raw, list) or not all(isinstance(v, (int, float)) for v in raw):
            errors.append(f"{key}: expected a list of numbers")
            return None
        return [float(v) for v in raw]
    if kind_of == "complex":
        return _parse_complex(raw, key, errors)
    if kind_of == "vector":
        if not isinstance(raw, list) or not all(isinstance(v, (int, float)) for v in raw):
            errors.append(f"{key}: expected a list of numbers")
            return None
        return np.array(raw, dtype=float)
    if kind_of in ("matrix", "psd_matrix"):
        mat = _parse_matrix(raw, key, errors)
        if mat is not None and kind_of == "psd_matrix":
            herm = 0.5 * (mat + mat.conj().T)
            if np.max(np.abs(mat - mat.conj().T)) > 1e-10:
                errors.append(f"{key}: matrix must be Hermitian")
            else:
                low = float(np.linalg.eigvalsh(herm)[0])
                if low < -1e-10:
                    errors.append(f"{key}: matrix must be PSD (minimum eigenvalue {low:.6g})")
        return mat
    if kind_of == "str":
        if not isinstance(raw, str):
            errors.append(f"{key}: expected a string")
            return None
        return raw
    if kind_of == "bool":
        if not isinstance(raw, bool):
            errors.append(f"{key}: expected true or false")
            return None
        return raw
    raise AssertionError(f"unknown schema type {kind_of}")


class ExperimentConfig:
    """Validated experiment description."""

    def __init__(self, kind, seed, params, raw, out_prefix=None):
        self.kind = kind
        self.seed = seed
        self.params = params
        self.raw = raw
        self.out_prefix = out_prefix or kind


def parse_config(path_or_dict):
    """Load and validate a config; raises ConfigError with ALL problems."""
    errors = []
    if isinstance(path_or_dict, dict):
        raw = path_or_dict
    else:
        try:
            raw = json.loads(Path(path_or_dict).read_text())
        except FileNotFoundError:
            raise ConfigError([f"config file not found: {path_or_dict}"])
        except json.JSONDecodeError as err:
            raise ConfigError([f"config is not valid JSON: {err}"])
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])

    kind = raw.get("kind")
    if kind not in EXPERIMENTS:
        raise ConfigError(
            [f"kind: unknown experiment {kind!r}; allowed kinds: {sorted(EXPERIMENTS)}"]
        )
    seed = raw.get("seed", DEFAULT_SEED)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        errors.append(f"seed: expected a nonnegative integer, got {seed!r}")
        seed = DEFAULT_SEED
    out_prefix = raw.get("out_prefix")
    if out_prefix is not None and not isinstance(out_prefix, str):
        errors.append(f"out_prefix: expected a string, got {out_prefix!r}")
        out_prefix = None

    allowed = set(KIND_KEYS[kind]) | set(_COMMON_KEYS)
    params = {}
    for key, raw_val in raw.items():
        if key in _COMMON_KEYS:
            continue
        if key not in KIND_KEYS[kind]:
            errors.append(f"{key}: unknown key for kind {kind!r}; allowed: {sorted(allowed)}")
            continue
        val = _validate_value(key, KIND_KEYS[kind][key], raw_val, errors)
        if val is not None:
            params[key] = val
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(kind, seed, params, raw, out_prefix=out_prefix)


# -------------------------------------------------------------- the checks


def _check(name, value, tolerance, passed=None):
    value = float(value)
    passed = bool(value <= tolerance) if passed is None else bool(passed)
    return {"name": name, "value": value, "tolerance": float(tolerance), "passed": passed}


def _run_ito_table(config, outputs, out_dir):
    from .ito import DA, DAD, DL, DT, HpLabel, SymbolicDifferential, hp_mul

    basis = {HpLabel.TIME: DT, HpLabel.ANN: DA, HpLabel.CRE: DAD, HpLabel.CONS: DL}
    expected = {
        (HpLabel.ANN, HpLabel.CRE): DT,
        (HpLabel.ANN, HpLabel.CONS): DA,
        (HpLabel.CONS, HpLabel.CRE): DAD,
        (HpLabel.CONS, HpLabel.CONS): DL,
    }
    checks = []
    for la, lb in itertools.product(HpLabel, repeat=2):
        want = expected.get((la, lb), SymbolicDifferential.zero())
        got = hp_mul(basis[la], basis[lb])
        checks.append(_check(f"product {la} * {lb}", got.max_coeff_diff(want), 0.0))
    return checks


def _run_swn_table(config, outputs, out_dir):
    from .ito.sl2 import rho_plus_int_entries, swn_structure_constants
    from .ito.swn import d_bminus, d_bplus, d_m
    from .ito import swn_mul

    max_index = config.params.get("max_index", 2)
    trunc = config.params.get("truncation", 30)
    margin = 2 * max_index + 1
    worst = 0
    for x in itertools.product(range(max_index + 1), repeat=3):
        for y in itertools.product(range(max_index + 1), repeat=3):
            left = rho_plus_int_entries(*x, trunc)
            right = rho_plus_int_entries(*y, trunc)
            direct = {}
            for (j, c), vr in right.items():
                for (r, j2), vl in left.items():
                    if j2 == j:
                        direct[(r, c)] = direct.get((r, c), 0) + vl * vr
            table = {}
            for label, coeff in swn_structure_constants(*x, *y).items():
                for pos, val in rho_plus_int_entries(*label, trunc).items():
                    table[pos] = table.get(pos, 0) + coeff * val
            for pos in set(direct) | set(table):
                if pos[1] <= trunc - 1 - margin:
                    worst = max(worst, abs(direct.get(pos, 0) - table.get(pos, 0)))
    checks = [_check(f"composition oracle, indices <= {max_index}", worst, 1e-8)]
    bracket = swn_mul(d_bminus(), d_bplus()) - swn_mul(d_bplus(), d_bminus())
    checks.append(_check("sl(2) bracket reproduces dM", bracket.max_coeff_diff(d_m()), 0.0))
    return checks


def _run_characteristic(config, outputs, out_dir):
    from .fock import TruncationConfig, characteristic_functional

    s_values = config.params.get("s_values", [0.5, 1.0, 2.0])
    intensities = config.params.get("intensities", [0.5, 1.0])
    t_val = config.params.get("t", 1.0)
    ode_dt = config.params.get("ode_dt", 1e-4)
    fock_config = TruncationConfig(dt=ode_dt, horizon=max(t_val, ode_dt))
    checks = []
    for s in s_values:
        sim, closed = characteristic_functional("brownian", s, 1.0, t_val, fock_config)
        checks.append(
            _check(f"brownian s={s}", abs(sim - closed) / abs(closed), 0.01)
        )
        for lam in intensities:
            sim, closed = characteristic_functional("poisson", s, lam, t_val, fock_config)
            checks.append(
                _check(f"poisson s={s} lam={lam}", abs(sim - closed) / abs(closed), 0.01)
            )
    return checks


def _run_weyl(config, outputs, out_dir):
    from .fock import weyl_increment, weyl_series

    lam = config.params.get("lam", 0.7)
    z_val = config.params.get("z", 0.5 + 0.25j)
    k_val = config.params.get("k", 1.3)
    n_terms = config.params.get("n_terms", 40)
    cases = [(lam, z_val, k_val), (0.0, 1.0, 0.0), (0.0, 0.0, 2 * math.pi)]
    checks = []
    for case_lam, case_z, case_k in cases:
        closed = weyl_increment(case_lam, case_z, case_k)
        series = weyl_series(case_lam, case_z, case_k, n_terms=n_terms)
        checks.append(
            _check(
                f"series vs closed form (lam={case_lam}, z={case_z}, k={case_k})",
                closed.max_coeff_diff(series),
                1e-12,
            )
        )
    return checks


def _run_flow(config, outputs, out_dir):
    from .fock import HpEvolutionSpec, TruncationConfig, flow_expectation, step_tensor_evolution

    horizon = config.params.get("horizon", 1.0)
    dt = config.params.get("dt", 1e-3)
    sz = np.diag([1.0, -1.0])
    sminus = np.array([[0.0, 0.0], [1.0, 0.0]])
    spec = HpEvolutionSpec(H=np.zeros((2, 2)), L=sminus)
    series = flow_expectation(spec, sz, [1.0, 0.0], horizon=horizon, dt=dt)
    closed = 2.0 * np.exp(-series.times) - 1.0
    err = float(np.max(np.abs(series.values - closed)))
    checks = [_check("two-level decay vs closed form", err, 1e-7)]

    tensor_cfg = TruncationConfig(levels_per_mode=2, dt=dt, horizon=10 * dt)
    tensor = step_tensor_evolution(spec, tensor_cfg, v=[1.0, 0.0], observable=sz)
    ode = flow_expectation(spec, sz, [1.0, 0.0], horizon=10 * dt, dt=dt)
    gap = float(np.max(np.abs(tensor.values - ode.values)))
    checks.append(_check("tensor oracle agreement (short horizon)", gap, 5e-3))

    path = Path(out_dir) / f"{config.out_prefix}_series.csv"
    series.to_csv(path)
    outputs.append(str(path))
    return checks


def _run_lqr(config, outputs, out_dir):
    from .classical import LqProblem, are_residual, lqr_simulate, solve_are, solve_riccati_ode

    rng = np.random.default_rng(config.seed)
    checks = []
    for a, q in ((0.0, 1.0), (1.0, 3.0), (-1.0, 3.0)):
        pi = solve_are([[a]], [[q]])[0, 0]
        want = a + math.sqrt(a * a + q)
        checks.append(_check(f"scalar ARE a={a} q={q}", abs(pi - want), 1e-8))

    p_term = 2.0
    problem = LqProblem(A=[[0.0]], Q=[[0.0]], Pi_T=[[p_term]], horizon=1.0, x0=[1.0])
    sol = solve_riccati_ode(problem, steps=config.params.get("steps", 1000))
    closed = p_term / (1.0 + p_term * (1.0 - sol.times))
    checks.append(
        _check("scalar Riccati closed form", float(np.max(np.abs(sol.gains[:, 0, 0] - closed))), 1e-8)
    )

    a_mat = rng.normal(size=(4, 4))
    base = rng.normal(size=(4, 4))
    q_mat = base @ base.T + 0.1 * np.eye(4)
    pi = solve_are(a_mat, q_mat)
    checks.append(_check("4x4 ARE residual", are_residual(a_mat, q_mat, pi), 1e-10))

    # value identity and dominance on the configured problem (defaults to
    # a scalar instance when no matrices are supplied)
    params = config.params
    if "A" in params:
        dim = np.asarray(params["A"]).shape[0]
        lq = LqProblem(
            A=np.real(params["A"]),
            Q=np.real(params.get("Q", np.eye(dim))),
            Pi_T=np.real(params.get("Pi_T", np.eye(dim))),
            horizon=params.get("horizon", 1.0),
            x0=params.get("x0", np.ones(dim)),
        )
    else:
        lq = LqProblem(A=[[0.2]], Q=[[1.0]], Pi_T=[[0.5]], horizon=1.0, x0=[1.0])
    riccati = solve_riccati_ode(lq, steps=config.params.get("steps", 2000))
    _, _, best = lqr_simulate(lq, riccati=riccati)
    value = float(lq.x0 @ riccati.initial() @ lq.x0)
    checks.append(_check("value identity J* = x0 Pi(0) x0", abs(best - value), 1e-6))
    dominated = True
    dim = lq.dim
    for _ in range(config.params.get("n_perturbations", 20)):
        if rng.random() < 0.5:
            pert = ("scale", float(1.0 + 0.4 * rng.normal()))
        else:
            bump = rng.normal(size=(dim, dim))
            pert = ("offset", 0.2 * (bump + bump.T))
        _, _, cost = lqr_simulate(lq, control=pert, riccati=riccati)
        dominated = dominated and cost >= best - 1e-9
    checks.append(_check("optimal gain dominates perturbations", 0.0, 0.0, passed=dominated))
    return checks


def _run_lqg(config, outputs, out_dir):
    from .classical import LqProblem, lqg_simulate, lqr_simulate

    n_paths = config.params.get("n_paths", 2000)
    steps = config.params.get("steps", 250)
    params = config.params
    if "A" in params:
        dim = np.asarray(params["A"]).shape[0]
        problem = LqProblem(
            A=np.real(params["A"]),
            Q=np.real(params.get("Q", np.eye(dim))),
            Pi_T=np.real(params.get("Pi_T", np.eye(dim))),
            horizon=params.get("horizon", 1.0),
            C=np.real(params.get("C", 0.5 * np.eye(dim))),
            H_obs=np.real(params.get("H_obs", np.eye(dim))),
            obs_noise=1.0,
            x0=params.get("x0", np.ones(dim)),
        )
    else:
        problem = LqProblem(
            A=[[0.0]], Q=[[1.0]], Pi_T=[[1.0]], horizon=1.0,
            C=[[0.6]], H_obs=[[1.0]], obs_noise=1.0, x0=[1.0],
        )
    base = lqg_simulate(problem, seed=config.seed, n_paths=n_paths, steps=steps)
    checks = []
    for scale in (0.8, 1.2):
        pert = lqg_simulate(
            problem, seed=config.seed, n_paths=n_paths, steps=steps,
            perturbation=("scale", scale),
        )
        diff = pert["costs"] - base["costs"]
        se = float(np.std(diff, ddof=1) / math.sqrt(len(diff)))
        margin = float(np.mean(diff)) - 2.0 * se
        checks.append(
            _check(f"optimal beats {scale - 1.0:+.0%} gain perturbation at 2 sigma",
                   -margin, 0.0, passed=margin > 0.0)
        )

    noise_free = LqProblem(
        A=[[0.1]], Q=[[1.0]], Pi_T=[[0.5]], horizon=1.0,
        C=[[0.0]], H_obs=[[1.0]], obs_noise=0.0, x0=[1.0],
    )
    det = LqProblem(A=[[0.1]], Q=[[1.0]], Pi_T=[[0.5]], horizon=1.0, x0=[1.0])
    _, _, lqr_cost = lqr_simulate(det, steps=steps)
    report = lqg_simulate(noise_free, seed=config.seed, n_paths=2, steps=steps)
    checks.append(_check("noise-free degeneration equals deterministic cost",
                         abs(report["cost_mean"] - lqr_cost), 1e-6))

    from .classical import solve_riccati_ode

    riccati = solve_riccati_ode(problem, steps=steps)
    summary_path = Path(out_dir) / f"{config.out_prefix}_summary.json"
    summary_path.write_text(json.dumps({
        "schema": "lqg-summary/1",
        "cost_mean": base["cost_mean"],
        "cost_stderr": base["cost_stderr"],
        "n_paths": n_paths,
        "mean_sq_filter_error": base["mean_sq_filter_error"],
        "riccati_symmetry_defect": riccati.symmetry_defect(),
    }, sort_keys=True, indent=1) + "\n")
    outputs.append(str(summary_path))
    if config.params.get("write_paths", False):
        paths_csv = Path(out_dir) / f"{config.out_prefix}_paths.csv"
        with open(paths_csv, "w") as handle:
            handle.write("path,cost\n")
            for idx, cost in enumerate(base["costs"]):
                handle.write(f"{idx},{cost!r}\n")
        outputs.append(str(paths_csv))
    return checks


def _run_hp_control(config, outputs, out_dir):
    from .fock import GenericQsdeSpec
    from .qcontrol import (
        check_hp_riccati_system,
        cost_Q,
        exact_condition_instance,
        reduced_riccati_obstruction,
        synthesize_hp,
        synthesis_residuals,
    )

    rng = np.random.default_rng(config.seed)
    dim = config.params.get("dim", 2)
    horizon = config.params.get("horizon", 1.0)
    spec, pi_mat, x_mat = exact_condition_instance(rng, dim=dim)
    r1, r2, r3 = check_hp_riccati_system(pi_mat, spec.F, spec.Psi, spec.Phi, spec.Z, x_mat)
    checks = [_check("condition residuals", max(r1, r2, r3), 1e-9)]

    xi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    xi /= np.linalg.norm(xi)
    value = cost_Q(spec, x_mat, xi, horizon=horizon)
    want = float((xi.conj() @ pi_mat @ xi).real)
    checks.append(_check("cost identity <xi, Pi xi>", abs(value - want), 1e-3))

    increased = True
    for _ in range(config.params.get("n_perturbations", 10)):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        pert = GenericQsdeSpec(F=spec.F, Psi=spec.Psi, Phi=spec.Phi, Z=spec.Z,
                               feedback=pi_mat + 0.1 * (g @ g.conj().T))
        increased = increased and cost_Q(pert, x_mat, xi, horizon=horizon) > value
    checks.append(_check("feedback perturbations increase cost", 0.0, 0.0, passed=increased))

    gauss = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    v_mat, _ = np.linalg.qr(gauss)
    pi_psd = v_mat @ np.diag(rng.uniform(0.2, 2.0, dim)) @ v_mat.conj().T
    w1 = v_mat @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, dim))) @ v_mat.conj().T
    l_mat, w_mat = synthesize_hp(pi_psd, w1=w1)
    res = synthesis_residuals(pi_psd, l_mat, w_mat)
    checks.append(_check("synthesis residuals", max(res.values()), 1e-9))

    h_mat = np.array([[0.0, 1.0], [1.0, 0.0]])
    x_sz = np.diag([1.0, -1.0])
    report = reduced_riccati_obstruction(h_mat, x_sz)
    checks.append(
        _check("trace obstruction bound holds",
               report["bound"] - report["minimized_residual"], 1e-7)
    )
    return checks


def _run_swn_control(config, outputs, out_dir):
    from .fock import TruncationConfig, swn_simulate
    from .ito.module_ops import ModuleOperator, r_map
    from .qcontrol import check_swn_riccati_system, derive_flow_swn

    dim = 2
    pi_mat = np.diag([0.5, 1.25]).astype(complex)
    d0 = math.sqrt(2.0) * np.diag(np.sqrt(np.diag(pi_mat).real))
    d_minus = ModuleOperator.from_modes({0: d0}, dim=dim)
    u_mat = np.diag(np.exp(1j * np.array([0.4, -1.1])))
    w_op = ModuleOperator.from_cons({(0, 0, 0): u_mat})
    h_mat = np.diag([0.2, 0.9]).astype(complex)
    x_mat = np.diag([1.0, 0.7]).astype(complex)

    dm_star = d_minus.adjoint()
    phi_op = -1.0 * r_map(w_op, dm_star)
    z_op = w_op - ModuleOperator.identity_cons(dim)
    r1, r2, r3 = check_swn_riccati_system(pi_mat, 1j * h_mat, d_minus, phi_op, z_op, x_mat)
    checks = [_check("annihilation-slot cancellation", r2, 1e-9),
              _check("conservation-slot cancellation", r3, 1e-9)]

    report = derive_flow_swn(h_mat, d_minus, w_op, x_mat)
    checks.append(_check("flow matches proposition form", report["diff_proposition_form"], 1e-9))
    checks.append(_check("flow matches composed form", report["diff_composed_form"], 1e-9))

    # Simulation closed form needs a lowering jump: D- on mode 0 with
    # component sigma+ gives the two-level decay <sz>(t) = 2 e^{-t} - 1
    # regardless of the diagonal unitary in W.
    horizon = config.params.get("horizon", 1.0)
    dt = config.params.get("dt", 1e-3)
    fock_config = TruncationConfig(dt=dt, horizon=horizon, swn_modes=1)
    sz = np.diag([1.0, -1.0])
    splus = np.array([[0.0, 1.0], [0.0, 0.0]])
    damping = ModuleOperator.from_modes({0: splus}, dim=dim)
    sim = swn_simulate(np.zeros((2, 2)), damping, w_op, sz, [1.0, 0.0], fock_config)
    closed = 2.0 * np.exp(-sim.times) - 1.0
    checks.append(
        _check("single-mode damping closed form", float(np.max(np.abs(sim.values - closed))), 1e-6)
    )
    return checks


def _run_rf_riccati(config, outputs, out_dir):
    from .classical import LqProblem, solve_riccati_ode
    from .rf import (
        PLANAR_BROWNIAN,
        FOCK_VACUUM,
        build_levy_surrogate,
        iterate_riccati,
        min_eig_batch,
        noise_free_scalar_problem,
        residual_integral,
        stochastic_2x2_problem,
    )

    n_steps = config.params.get("n_steps", 1000)
    dt = config.params.get("dt", 1e-3)
    n_max = config.params.get("n_max", 30)
    tol = config.params.get("tol", 1e-6)
    n_paths = config.params.get("n_paths", 4)
    zero1 = np.zeros((1, 1))

    # zero instance: all residuals vanish identically
    zero_problem = replace(noise_free_scalar_problem(), F=zero1, Q=zero1, boundary_gain=zero1)
    zpath = build_levy_surrogate(PLANAR_BROWNIAN, 100, 1e-2, seed=config.seed)
    zres = iterate_riccati(zero_problem, zpath, n_max=5, tol=1e-14)
    checks = [_check("zero instance residual", float(np.max(np.abs(zres.final))), 0.0)]
    checks.append(_check("zero instance fixed-point defect",
                         residual_integral(zero_problem, zres.final, zpath), 0.0))

    problem = stochastic_2x2_problem()
    path = build_levy_surrogate(PLANAR_BROWNIAN, n_steps, dt, seed=config.seed, n_paths=n_paths)
    result = iterate_riccati(problem, path, n_max=n_max, tol=tol)
    checks.append(_check("iteration converged", 0.0, 0.0, passed=result.converged))
    checks.append(_check("iterations within cap", result.n_iterations, n_max))
    # tolerances are pinned at dt = 1e-3; the discrete-monotonicity
    # fluctuation scales ~linearly and the deterministic limit
    # quadratically with the step
    dt_scale = dt / 1e-3
    margin = min(result.monotone_margins[1:]) if len(result.monotone_margins) > 1 else 0.0
    checks.append(_check("monotone PSD decrease margin", -margin, 1e-8 * max(1.0, dt_scale)))
    checks.append(_check("pathwise positivity", -float(np.min(min_eig_batch(result.final))), 1e-10))
    checks.append(_check("Hermitian symmetrization residual", result.herm_residual, 1e-12))
    defect = residual_integral(problem, result.final, path)
    checks.append(_check("propagator fixed-point defect", defect, 10.0 * tol + 50.0 * dt))

    det_problem = noise_free_scalar_problem()
    det_path = build_levy_surrogate(FOCK_VACUUM, n_steps, dt, seed=config.seed)
    det = iterate_riccati(det_problem, det_path, n_max=40, tol=1e-10)
    classical = solve_riccati_ode(
        LqProblem(A=[[0.3]], Q=[[0.8]], Pi_T=[[1.2]], horizon=n_steps * dt), steps=n_steps
    )
    err = float(np.max(np.abs(det.final[0, :, 0, 0] - classical.gains[::-1, 0, 0])))
    checks.append(
        _check("noise-free degeneration vs classical Riccati", err,
               1e-6 * max(1.0, dt_scale**2))
    )

    summary_path = Path(out_dir) / f"{config.out_prefix}_summary.json"
    summary_path.write_text(json.dumps({
        "schema": "rf-ensemble/1",
        "n_paths": n_paths,
        "iterations": result.n_iterations,
        "converged": result.converged,
        "sup_differences": result.sup_diffs,
        "monotonicity_margins": result.monotone_margins,
        "hermitian_residual": result.herm_residual,
        "fixed_point_defect": defect,
    }, sort_keys=True, indent=1) + "\n")
    outputs.append(str(summary_path))
    if config.params.get("write_traces", False):
        trace_csv = Path(out_dir) / f"{config.out_prefix}_trace.csv"
        times = result.times
        trace = result.final[0]
        with open(trace_csv, "w") as handle:
            dim = trace.shape[-1]
            header = ["t"] + [f"re_{i}{j}" for i in range(dim) for j in range(dim)]
            handle.write(",".join(header) + "\n")
            for t_val, mat in zip(times, trace):
                row = [repr(float(t_val))] + [repr(float(mat[i, j].real))
                                              for i in range(dim) for j in range(dim)]
                handle.write(",".join(row) + "\n")
        outputs.append(str(trace_csv))
    return checks


RUNNERS = {
    "ito-table": _run_ito_table,
    "swn-table": _run_swn_table,
    "characteristic": _run_characteristic,
    "weyl": _run_weyl,
    "flow": _run_flow,
    "lqr": _run_lqr,
    "lqg": _run_lqg,
    "hp-control": _run_hp_control,
    "swn-control": _run_swn_control,
    "rf-riccati": _run_rf_riccati,
}


# ----------------------------------------------------------------- reports


def run(config, out_dir="."):
    """Execute a validated config; returns (report_dict, exit_code)."""
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    outputs = []
    start = time.perf_counter()
    try:
        checks = RUNNERS[config.kind](config, outputs, out_path)
        code = 0 if all(c["passed"] for c in checks) else 1
    except ResourceLimitError as err:
        checks = [
            {"name": "resource budget", "value": float(err.required or -1),
             "tolerance": float(err.budget or -1), "passed": False,
             "error": str(err)}
        ]
        code = 3
    wall = time.perf_counter() - start
    report = {
        "schema": "run-report/1",
        "kind": config.kind,
        "seed": config.seed,
        "config": config.raw,
        "version": __version__,
        "wall_time_s": wall,
        "checks": checks,
        "passed": code == 0,
        "outputs": sorted(outputs),
    }
    report_path = out_path / f"{config.out_prefix}_report.json"
    report_path.write_text(json.dumps(report, sort_keys=True, indent=1) + "\n")
    return report, code


def list_experiments(verbose=False, machine=False):
    if machine:
        listing = [
            {"kind": kind, "description": desc, "keys": sorted(KIND_KEYS[kind])}
            for kind, desc in sorted(EXPERIMENTS.items())
        ]
        return json.dumps(listing, sort_keys=True, indent=1)
    lines = []
    for kind, desc in sorted(EXPERIMENTS.items()):
        keys = ", ".join(sorted(KIND_KEYS[kind])) or "(no keys)"
        lines.append(f"{kind:15s} {desc}")
        lines.append(f"{'':15s} keys: {keys}")
        if verbose:
            lines.append(f"{'':15s} {VERBOSE_NOTES[kind]}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qscontrol", description="quantum stochastic control experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run an experiment config")
    run_parser.add_argument("config", help="path to a JSON config")
    run_parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_parser.add_argument("--out-dir", default=".", help="directory for reports and series")
    run_parser.add_argument("--paths", type=int, default=None, help="override ensemble size")
    run_parser.add_argument("--dt", type=float, default=None, help="override the time step")
    run_parser.add_argument("--format", choices=("json", "csv"), default="json",
                            help="print the report as JSON or a CSV check table")

    list_parser = sub.add_parser("list", help="list experiment kinds")
    list_parser.add_argument("--verbose", action="store_true")
    list_parser.add_argument("--machine", action="store_true", help="emit JSON")

    args = parser.parse_args(argv)
    if args.command == "list":
        print(list_experiments(verbose=args.verbose, machine=args.machine))
        return 0

    try:
        config = parse_config(args.config)
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.paths is not None:
            overrides["n_paths"] = args.paths
        if args.dt is not None:
            overrides["dt"] = args.dt
        if overrides:
            raw = dict(config.raw)
            raw.update(overrides)
            config = parse_config(raw)
    except ConfigError as err:
        for line in err.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 2

    try:
        report, code = run(config, out_dir=args.out_dir)
    except QscError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    if args.format == "json":
        print(json.dumps(report, sort_keys=True, indent=1))
    else:
        print("name,value,tolerance,passed")
        for check in report["checks"]:
            print(f"{check['name']},{check['value']!r},{check['tolerance']!r},{check['passed']}")
    return code


if __name__ == "__main__":
    sys.exit(main())
