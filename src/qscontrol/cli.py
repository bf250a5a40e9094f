"""Experiment runner: JSON configs in, machine-readable reports out.

Subcommands:

    qscontrol run <config.json> [--seed N] [--out-dir DIR] [--paths N]
                  [--dt X] [--format {json,csv}]
    qscontrol list [--verbose] [--machine]

Each experiment kind is one entry of ``EXPERIMENTS``: its runner, its
description, its verbose note and its keys with their types, defaults and
integer minimums.  ``parse_config`` validates a config against that entry
and fills every missing key with its default, so a runner reads each key
from ``config.params`` directly.  Matrix and vector keys share one
dimension; their defaults are a scalar times the identity (ones for a
vector) at that dimension.

``--paths`` and ``--dt`` override the config keys ``n_paths`` and ``dt``:
``--paths`` applies to lqg and rf-riccati, ``--dt`` to flow, swn-control
and rf-riccati; other kinds reject them as unknown keys (exit code 2).
On rf-riccati ``--dt`` keeps the horizon at 1 unless ``n_steps`` is set.

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
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import ConfigError, QscError, ResourceLimitError
from .seeding import DEFAULT_SEED

# ------------------------------------------------------------------ schema

_COMMON_KEYS = ("kind", "seed", "out_prefix")
_SIZED = ("vector", "matrix", "psd_matrix")


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_complex(value, path, errors):
    if _is_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(_is_number(v) for v in value):
        return complex(value[0], value[1])
    errors.append(f"{path}: expected a number or [re, im] pair, got {value!r}")
    return None


def _parse_matrix(value, path, errors):
    if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
        errors.append(f"{path}: expected a nested array (row-major matrix)")
        return None
    rows = len(value)
    if any(len(r) != rows for r in value):
        errors.append(f"{path}: matrix must be square, got row lengths {[len(r) for r in value]}")
        return None
    if not all(_is_number(v) for row in value for v in row):
        errors.append(f"{path}: matrix entries must be real numbers")
        return None
    return np.array(value, dtype=float)


def _validate_value(key, kind_of, raw, errors):
    """The parsed value of one key, or None after appending the problem."""
    if kind_of == "int":
        if isinstance(raw, int) and not isinstance(raw, bool):
            return raw
        errors.append(f"{key}: expected an integer, got {raw!r}")
    elif kind_of in ("number", "positive"):
        if _is_number(raw) and (kind_of == "number" or raw > 0):
            return float(raw)
        what = "a positive number" if kind_of == "positive" else "a number"
        errors.append(f"{key}: expected {what}, got {raw!r}")
    elif kind_of in ("numbers", "positives", "vector"):
        if isinstance(raw, list) and raw and all(
            _is_number(v) and (kind_of != "positives" or v > 0) for v in raw
        ):
            return tuple(map(float, raw)) if kind_of != "vector" else np.array(raw, dtype=float)
        what = "positive numbers" if kind_of == "positives" else "numbers"
        errors.append(f"{key}: expected a nonempty list of {what}, got {raw!r}")
    elif kind_of == "complex":
        return _parse_complex(raw, key, errors)
    elif kind_of in ("matrix", "psd_matrix"):
        mat = _parse_matrix(raw, key, errors)
        if mat is None or kind_of == "matrix":
            return mat
        if np.max(np.abs(mat - mat.T)) > 1e-10:
            errors.append(f"{key}: matrix must be symmetric")
            return None
        low = float(np.linalg.eigvalsh(mat)[0])
        if low < -1e-10:
            errors.append(f"{key}: matrix must be PSD (minimum eigenvalue {low:.6g})")
            return None
        return mat
    elif kind_of == "bool":
        if isinstance(raw, bool):
            return raw
        errors.append(f"{key}: expected true or false")
    else:
        raise AssertionError(f"unknown schema type {kind_of}")
    return None


def _shared_dim(keys, params, errors):
    """The one dimension of the given matrix and vector keys (1 if none)."""
    sized = [(key, len(params[key])) for key in keys if keys[key][0] in _SIZED and key in params]
    if not sized:
        return 1
    first, dim = sized[0]
    for key, size in sized[1:]:
        if size != dim:
            errors.append(f"{key}: dimension {size} differs from {first}'s dimension {dim}")
    return dim


def _default(kind_of, default, params, dim):
    if callable(default):
        return default(params)
    if kind_of == "vector":
        return np.full(dim, float(default))
    if kind_of in _SIZED:
        return default * np.eye(dim)
    return default


class ExperimentConfig:
    """Validated experiment description; ``params`` holds every key."""

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

    keys = EXPERIMENTS[kind].keys
    params = {}
    for key, raw_val in raw.items():
        if key in _COMMON_KEYS:
            continue
        if key not in keys:
            allowed = sorted([*keys, *_COMMON_KEYS])
            errors.append(f"{key}: unknown key for kind {kind!r}; allowed: {allowed}")
            continue
        val = _validate_value(key, keys[key][0], raw_val, errors)
        if val is not None:
            params[key] = val
    dim = _shared_dim(keys, params, errors)
    # table order: a computed default sees every key listed before it
    for key, (kind_of, default, *_) in keys.items():
        if key not in params:
            params[key] = _default(kind_of, default, params, dim)
    for key, (kind_of, _, *minimum) in keys.items():
        if minimum:
            low = minimum[0](params) if callable(minimum[0]) else minimum[0]
            if params[key] < low:
                errors.append(f"{key}: expected an integer >= {low}, got {params[key]}")
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(kind, seed, params, raw, out_prefix=out_prefix)


# -------------------------------------------------------------- the checks


def _check(name, value, tolerance, passed=None):
    value = float(value)
    passed = bool(value <= tolerance) if passed is None else bool(passed)
    return {"name": name, "value": value, "tolerance": float(tolerance), "passed": passed}


def _output(config, outputs, out_dir, suffix):
    """Path of the output file ``<prefix>_<suffix>``, listed in the report."""
    path = Path(out_dir) / f"{config.out_prefix}_{suffix}"
    outputs.append(str(path))
    return path


def _write_json(path, data):
    path.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")


def _run_ito_table(config, outputs, out_dir):
    from .ito import FIRST_ORDER, SymbolicDifferential, swn_mul

    basis = SymbolicDifferential.basis
    dt, da, dad, dl = FIRST_ORDER
    expected = {(da, dad): basis(dt), (da, dl): basis(da), (dl, dad): basis(dad),
                (dl, dl): basis(dl)}
    checks = []
    for la, lb in itertools.product(FIRST_ORDER, repeat=2):
        want = expected.get((la, lb), SymbolicDifferential.zero())
        got = swn_mul(basis(la), basis(lb))
        checks.append(_check(f"product {la} * {lb}", got.max_coeff_diff(want), 0.0))
    return checks


def _run_swn_table(config, outputs, out_dir):
    from .ito.sl2 import composition_mismatch
    from .ito.swn import d_bminus, d_bplus, d_m
    from .ito import swn_mul

    max_index = config.params["max_index"]
    trunc = config.params["truncation"]
    labels = list(itertools.product(range(max_index + 1), repeat=3))
    worst = composition_mismatch(itertools.product(labels, repeat=2), trunc, 2 * max_index + 1)
    checks = [_check(f"composition oracle, indices <= {max_index}", worst, 1e-8)]
    bracket = swn_mul(d_bminus(), d_bplus()) - swn_mul(d_bplus(), d_bminus())
    checks.append(_check("sl(2) bracket reproduces dM", bracket.max_coeff_diff(d_m()), 0.0))
    return checks


def _run_characteristic(config, outputs, out_dir):
    from .fock import characteristic_functional

    t_val = config.params["t"]
    ode_dt = config.params["ode_dt"]
    checks = []
    for s in config.params["s_values"]:
        sim, closed = characteristic_functional("brownian", s, 1.0, t_val, ode_dt)
        checks.append(_check(f"brownian s={s}", abs(sim - closed) / abs(closed), 0.01))
        for lam in config.params["intensities"]:
            sim, closed = characteristic_functional("poisson", s, lam, t_val, ode_dt)
            checks.append(
                _check(f"poisson s={s} lam={lam}", abs(sim - closed) / abs(closed), 0.01)
            )
    return checks


def _run_weyl(config, outputs, out_dir):
    from .fock import weyl_increment, weyl_series

    params = config.params
    # (lam, z, k, tolerance): the configured case, fixed cases at 1e-12 and
    # the k = 0 branch, where the series terminates and must be exact
    cases = [(params["lam"], params["z"], params["k"], 1e-12),
             (0.0, 1.0, -0.8, 1e-12), (2.0, 0.9j, math.pi, 1e-12),
             (0.0, 0.0, 2 * math.pi, 1e-12),
             (0.0, 1.0, 0.0, 0.0), (0.3, 0.7 - 0.1j, 0.0, 0.0)]
    checks = []
    for case_lam, case_z, case_k, tolerance in cases:
        closed = weyl_increment(case_lam, case_z, case_k)
        series = weyl_series(case_lam, case_z, case_k, n_terms=params["n_terms"])
        checks.append(_check(f"series vs closed form (lam={case_lam}, z={case_z}, k={case_k})",
                             closed.max_coeff_diff(series), tolerance))
    return checks


def _run_flow(config, outputs, out_dir):
    from .fock import HpEvolutionSpec, TruncationConfig, flow_expectation, step_tensor_evolution
    from .qcontrol import derive_flow_hp

    horizon = config.params["horizon"]
    dt = config.params["dt"]
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
    checks.append(_check("first-order flow is a free-algebra identity", 0.0, 0.0,
                         passed=derive_flow_hp().matches))

    series.to_csv(_output(config, outputs, out_dir, "series.csv"))
    return checks


def _lq_problem(params):
    """The configured LQ problem; lqg's C and H_obs make it stochastic."""
    from .classical import LqProblem

    fields = ("A", "Q", "Pi_T", "horizon", "C", "H_obs", "x0")
    return LqProblem(**{field: params[field] for field in fields if field in params})


def _run_lqr(config, outputs, out_dir):
    from scipy.linalg import solve_continuous_are

    from .classical import LqProblem, lqr_simulate, solve_are, solve_riccati_ode

    rng = np.random.default_rng(config.seed)
    checks = []
    for a, q in ((0.0, 1.0), (1.0, 3.0), (-1.0, 3.0), (0.4, 2.0)):
        pi = solve_are([[a]], [[q]])[0, 0]
        want = a + math.sqrt(a * a + q)
        checks.append(_check(f"scalar ARE a={a} q={q}", abs(pi - want), 1e-8))

    # fixed closed-form instances, independent of the configured problem
    p_term = 2.0
    problem = LqProblem(A=[[0.0]], Q=[[0.0]], Pi_T=[[p_term]], horizon=1.0, x0=[1.0])
    sol = solve_riccati_ode(problem, steps=1500)
    closed = p_term / (1.0 + p_term * (1.0 - sol.times))
    checks.append(_check("scalar Riccati closed form",
                         float(np.max(np.abs(sol.gains[:, 0, 0] - closed))), 1e-8))

    for trial in range(3):
        a_mat = rng.normal(size=(4, 4))
        base = rng.normal(size=(4, 4))
        q_mat = base @ base.T + 0.1 * np.eye(4)
        reference = solve_continuous_are(a_mat, np.eye(4), q_mat, np.eye(4))
        gap = float(np.max(np.abs(solve_are(a_mat, q_mat) - reference)))
        checks.append(_check(f"4x4 ARE vs scipy #{trial}", gap,
                             1e-8 * max(1.0, float(np.max(np.abs(reference))))))

    # value identity and dominance on the configured problem, one batch of laws
    lq = _lq_problem(config.params)
    riccati = solve_riccati_ode(lq, steps=config.params["steps"])
    laws = [None]
    for _ in range(config.params["n_perturbations"]):
        if rng.random() < 0.5:
            bump = rng.normal(size=(lq.dim, lq.dim))
            laws.append(("offset", 0.2 * (bump + bump.T)))
        else:
            laws.append(("scale", float(1.0 + 0.4 * rng.normal())))
    best, *costs = lqr_simulate(lq, laws, riccati=riccati)
    value = float(lq.x0 @ riccati.initial() @ lq.x0)
    # the zero-order-hold loop costs more than x0 Pi(0) x0 by a second-order
    # term, |J - J*| / (dt^2 |J*| max(1, max_t ||Pi(t)||)^2) <= 0.04 measured
    # at 10 to 2000 steps on stiff and mild problems, so 0.25 leaves 6x
    dt = lq.horizon / config.params["steps"]
    scale = max(1.0, float(np.max(np.abs(np.linalg.eigvalsh(riccati.gains)))))
    checks.append(_check("value identity J* = x0 Pi(0) x0", abs(best - value),
                         0.25 * dt**2 * abs(best) * scale**2))
    # the most any perturbed gain undercuts the optimum
    checks.append(_check("optimal gain dominates perturbations",
                         np.max(best - np.array(costs)), 1e-9))
    return checks


def _run_lqg(config, outputs, out_dir):
    from .classical import LqProblem, lqg_simulate, lqr_simulate, solve_riccati_ode
    from .seeding import standard_error

    n_paths = config.params["n_paths"]
    steps = config.params["steps"]
    scales = (0.8, 1.2)
    problem = _lq_problem(config.params)
    riccati = solve_riccati_ode(problem, steps=steps)
    result = lqg_simulate(problem, config.seed, n_paths,
                          [None, *(("scale", c) for c in scales)], riccati=riccati)
    checks = []
    for scale, costs in zip(scales, result["costs"][1:]):
        diff = costs - result["costs"][0]
        margin = float(np.mean(diff)) - 2.0 * standard_error(diff)
        checks.append(
            _check(f"optimal beats {scale - 1.0:+.0%} gain perturbation at 2 sigma",
                   -margin, 0.0, passed=margin > 0.0)
        )

    # a fixed 2x2 instance, independent of the configured problem: without
    # noise every path follows the deterministic closed loop
    det = LqProblem(A=[[0.1, 0.4], [-0.2, -0.3]], Q=np.eye(2), Pi_T=0.5 * np.eye(2),
                    horizon=1.0, x0=[1.0, 0.5])
    noise_free = replace(det, C=np.zeros((2, 2)), H_obs=np.eye(2), obs_noise=0.0)
    # noise_free differs from det only in C, H_obs and obs_noise, which the
    # control Riccati equation does not read: one solution serves both
    det_riccati = solve_riccati_ode(det, steps=steps)
    (lqr_cost,) = lqr_simulate(det, riccati=det_riccati)
    report = lqg_simulate(noise_free, seed=config.seed, n_paths=2, riccati=det_riccati)
    checks.append(_check("noise-free degeneration equals deterministic cost",
                         abs(report["cost_mean"][0] - lqr_cost), 1e-6))
    checks.append(_check("noise-free paths agree (cost standard error)",
                         report["cost_stderr"][0], 1e-12))

    _write_json(_output(config, outputs, out_dir, "summary.json"), {
        "schema": "lqg-summary/1",
        "cost_mean": float(result["cost_mean"][0]),
        "cost_stderr": float(result["cost_stderr"][0]),
        "n_paths": n_paths,
        "mean_sq_filter_error": result["mean_sq_filter_error"],
        "riccati_symmetry_defect": riccati.symmetry_defect(),
    })
    if config.params["write_paths"]:
        rows = [f"{idx},{float(cost)!r}\n" for idx, cost in enumerate(result["costs"][0])]
        _output(config, outputs, out_dir, "paths.csv").write_text("".join(["path,cost\n", *rows]))
    return checks


def _run_hp_control(config, outputs, out_dir):
    from .fock import GenericQsdeSpec
    from .qcontrol import (check_hp_riccati_system, cost_Q, exact_condition_instance,
                           reduced_riccati_obstruction, synthesis_residuals, synthesize_hp)

    rng = np.random.default_rng(config.seed)
    dim = config.params["dim"]
    horizon = config.params["horizon"]
    spec, pi_mat, x_mat = exact_condition_instance(rng, dim=dim)
    r1, r2, r3 = check_hp_riccati_system(pi_mat, spec.F, spec.Psi, spec.Phi, spec.Z, x_mat)
    checks = [_check("condition residuals", max(r1, r2, r3), 1e-9)]

    xi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    xi /= np.linalg.norm(xi)
    value = cost_Q(spec, x_mat, xi, horizon=horizon)
    want = float((xi.conj() @ pi_mat @ xi).real)
    # RK4 keeps the linear invariant tr(rho Pi) + J exactly, and so does its
    # step map, so the identity holds to rounding (at most 1.3e-15 over
    # dims 1-4, 60 seeds and horizons 0.5-3)
    checks.append(_check("cost identity <xi, Pi xi>", abs(value - want), 1e-12))

    costs = []
    for _ in range(config.params["n_perturbations"]):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        pert = GenericQsdeSpec(F=spec.F, Psi=spec.Psi, Phi=spec.Phi, Z=spec.Z,
                               feedback=pi_mat + 0.1 * (g @ g.conj().T))
        costs.append(cost_Q(pert, x_mat, xi, horizon=horizon))
    # the smallest cost increase over the perturbations must be positive
    excess = float(np.min(np.array(costs) - value))
    checks.append(_check("feedback perturbations increase cost", -excess, 0.0,
                         passed=excess > 0.0))

    gauss = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    v_mat, _ = np.linalg.qr(gauss)
    pi_psd = v_mat @ np.diag(rng.uniform(0.2, 2.0, dim)) @ v_mat.conj().T
    w1, w2 = (v_mat @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, dim))) @ v_mat.conj().T
              for _ in range(2))
    l_mat, w_mat = synthesize_hp(pi_psd, w1=w1, w2=w2)
    res = synthesis_residuals(pi_psd, l_mat, w_mat)
    # one maximum would let the W-independent gain identity mask the W side;
    # over seeds 1-200 and dims 1-4 the sides reach 1.6e-14 and 4.7e-15
    checks.append(_check("synthesis residuals, L side (L*L = 2 Pi, [L, Pi], normality)", max(
        res["gain_identity"], res["commutator_L_Pi"], res["normality"]), 1e-12))
    checks.append(_check("synthesis residuals, W side (both conditions, [W, Pi])", max(
        res["annihilation_condition"], res["conservation_condition"], res["commutator_W_Pi"]),
        1e-12))

    h_mat = np.array([[0.0, 1.0], [1.0, 0.0]])
    x_sz = np.diag([1.0, -1.0])
    report = reduced_riccati_obstruction(h_mat, x_sz)
    checks.append(_check("trace obstruction bound holds",
                         report["bound"] - report["minimized_residual"], 1e-7))
    return checks


def _run_swn_control(config, outputs, out_dir):
    from .fock import TruncationConfig, swn_generator, swn_simulate
    from .ito.module_ops import ModuleOperator, inner
    from .qcontrol import check_swn_riccati_system, derive_flow_swn, swn_commuting_instance

    dim = 2
    sz = np.diag([1.0, -1.0])
    pi_mat, d_minus, w_op, h_mat, x_mat = swn_commuting_instance()

    evolution = swn_generator(h_mat, d_minus, w_op)
    r1, r2, r3 = check_swn_riccati_system(pi_mat, 1j * h_mat, evolution.slot("ann"),
                                          evolution.slot("cre"), evolution.slot("cons"), x_mat)
    checks = [_check("annihilation-slot cancellation", r2, 1e-9),
              _check("conservation-slot cancellation", r3, 1e-9)]

    report = derive_flow_swn(h_mat, d_minus, w_op, x_mat)
    checks.append(_check("flow matches proposition form", report["diff_proposition_form"], 1e-9))
    checks.append(_check("flow matches composed form", report["diff_composed_form"], 1e-9))

    # W = I with a seeded D-: the time slot has the hand form
    # i[X,H] - {(Dm*|Dm*), X}/2 + (Dm*|X Dm*)
    rng = np.random.default_rng(config.seed)
    d_mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    d_seeded = ModuleOperator.from_ann({0: d_mat}, dim=dim)
    h_seeded = np.diag([0.4, -0.1])
    w_ident = derive_flow_swn(h_seeded, d_seeded, ModuleOperator.identity_cons(dim), sz)
    checks.append(_check("W = I flow matches proposition form",
                         w_ident["diff_proposition_form"], 1e-9))
    checks.append(_check("W = I flow matches composed form", w_ident["diff_composed_form"], 1e-9))
    dm_star = d_seeded.adjoint()
    quad = inner(dm_star, dm_star)
    want_time = (1j * (sz @ h_seeded - h_seeded @ sz) - 0.5 * (quad @ sz + sz @ quad)
                 + inner(dm_star, dm_star.left_mul(sz)))
    checks.append(_check("W = I time slot vs hand expansion",
                         float(np.max(np.abs(w_ident["computed"].time - want_time))), 1e-10))

    # Simulation closed form needs a lowering jump: D- on mode 0 with
    # component sigma+ gives the two-level decay <sz>(t) = 2 e^{-t} - 1
    # regardless of the diagonal unitary in W.
    fock_config = TruncationConfig(dt=config.params["dt"], horizon=config.params["horizon"],
                                   swn_modes=1)
    splus = np.array([[0.0, 1.0], [0.0, 0.0]])
    damping = ModuleOperator.from_ann({0: splus}, dim=dim)
    sim = swn_simulate(np.zeros((2, 2)), damping, w_op, sz, [1.0, 0.0], fock_config)
    closed = 2.0 * np.exp(-sim.times) - 1.0
    checks.append(_check("single-mode damping closed form",
                         float(np.max(np.abs(sim.values - closed))), 1e-6))
    return checks


def _run_rf_riccati(config, outputs, out_dir):
    from .classical import LqProblem, solve_riccati_ode
    from .rf import (FOCK_VACUUM, PLANAR_BROWNIAN, build_levy_surrogate, iterate_riccati,
                     min_eig_batch, noise_free_scalar_problem, residual_integral,
                     stochastic_2x2_problem)

    dt = config.params["dt"]
    n_steps = config.params["n_steps"]
    n_max = config.params["n_max"]
    tol = config.params["tol"]
    n_paths = config.params["n_paths"]
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
    # tolerances are pinned at dt = 1e-3 and scale linearly (monotone
    # margin) and quadratically (deterministic limit) with a coarser step;
    # docs/config_schema.md gives the measured margins
    dt_scale = dt / 1e-3
    margin = min(result.monotone_margins[1:]) if len(result.monotone_margins) > 1 else 0.0
    checks.append(_check("monotone PSD decrease margin", -margin, 1e-8 * max(1.0, dt_scale)))
    checks.append(_check("pathwise positivity", -float(np.min(min_eig_batch(result.final))), 1e-10))
    checks.append(_check("Hermitian defect of the Riccati iterate", result.herm_residual, 1e-12))
    defect = residual_integral(problem, result.final, path)
    # first order in dt at a fixed horizon: 5.9e-6, 1.45e-5, 2.6e-5 at
    # dt = 1e-3, 2e-3, 4e-3 over T = 1 (worst of seeds 100-119, 4 paths),
    # so 0.05 dt leaves at least 8x headroom
    checks.append(_check("propagator fixed-point defect", defect, 10.0 * tol + 0.05 * dt))

    det_problem = noise_free_scalar_problem()
    det_path = build_levy_surrogate(FOCK_VACUUM, n_steps, dt, seed=config.seed)
    det = iterate_riccati(det_problem, det_path, n_max=40, tol=1e-10)
    classical = solve_riccati_ode(
        LqProblem(A=det_problem.F, Q=det_problem.Q, Pi_T=det_problem.boundary_gain,
                  horizon=n_steps * dt), steps=n_steps
    )
    err = float(np.max(np.abs(det.final[0, :, 0, 0] - classical.gains[::-1, 0, 0])))
    checks.append(_check("noise-free degeneration vs classical Riccati", err,
                         1e-6 * max(1.0, dt_scale**2)))

    _write_json(_output(config, outputs, out_dir, "summary.json"), {
        "schema": "rf-ensemble/1",
        "n_paths": n_paths,
        "iterations": result.n_iterations,
        "converged": result.converged,
        "sup_differences": result.sup_diffs,
        "monotonicity_margins": result.monotone_margins,
        "hermitian_residual": result.herm_residual,
        "fixed_point_defect": defect,
    })
    if config.params["write_traces"]:
        dim = problem.dim
        rows = [["t", *(f"re_{i}{j}" for i in range(dim) for j in range(dim))]]
        rows += [[repr(float(v)) for v in (t_val, *mat.real.ravel())]
                 for t_val, mat in zip(result.times, result.final[0])]
        _output(config, outputs, out_dir, "trace.csv").write_text(
            "".join(",".join(row) + "\n" for row in rows))
    return checks


# ----------------------------------------------------------- the kinds


class _Experiment(NamedTuple):
    runner: Callable
    description: str
    note: str
    # key -> (type, default) or ("int", default, minimum); a callable
    # default sees the keys listed before it, a callable minimum all keys
    keys: dict


EXPERIMENTS = {
    "ito-table": _Experiment(
        _run_ito_table, "all 16 first-order Ito basis products against the table",
        "Checks every product of {dt, dA, dA+, dL} symbolically; the only nonzero "
        "entries are dA dA+ = dt, dA dL = dA, dL dA+ = dA+, dL dL = dL.",
        {},
    ),
    "swn-table": _Experiment(
        _run_swn_table, "SWN conservation products against the composition oracle",
        "Multiplies conservation differentials with exact integer structure "
        "constants and compares against matrix products of the number-space "
        "representation on a safe truncation window; also checks the sl(2) Ito "
        "bracket dB- dB+ - dB+ dB- = dM.",
        # the safe window (columns <= truncation - 2 max_index - 2) is nonempty
        {"max_index": ("int", 2, 0),
         "truncation": ("int", 30, lambda p: 2 * p["max_index"] + 2)},
    ),
    "characteristic": _Experiment(
        _run_characteristic, "vacuum characteristic functionals vs closed forms",
        "Integrates the scalar reduction ODE for exp(isB_t) and exp(isP_t) and "
        "compares with exp(-s^2 t/2) and exp(lam(e^{is}-1)t).",
        {"s_values": ("numbers", (0.5, 1.0, 2.0)), "intensities": ("positives", (0.5, 1.0)),
         "t": ("positive", 1.0), "ode_dt": ("positive", 1e-4)},
    ),
    "weyl": _Experiment(
        _run_weyl, "exponential-series check of the Weyl differential brackets",
        "Sums (i dE)^n/n! under the Ito table through n = 40 and compares with "
        "the closed-form differential of exp(iE_t): the configured case and "
        "three fixed ones at 1e-12, and the k = 0 branch exactly at two cases.",
        {"lam": ("number", 0.7), "z": ("complex", 0.5 + 0.25j), "k": ("number", 1.3),
         "n_terms": ("int", 40, 1)},
    ),
    "flow": _Experiment(
        _run_flow, "Heisenberg flow expectations vs closed forms and tensor oracle",
        "Runs the vacuum master equation for j_t(X) (two-level decay closed form) "
        "and cross-checks a short horizon against the one-fresh-mode-per-step "
        "tensor discretization; derives the first-order flow differential in the "
        "free *-algebra.",
        {"horizon": ("positive", 1.0), "dt": ("positive", 1e-3)},
    ),
    "lqr": _Experiment(
        _run_lqr, "deterministic Riccati/LQR closed forms and optimality",
        "Solves the backward matrix Riccati ODE, checks four scalar ARE cases, the "
        "scalar closed form on a 1500-step grid, three seeded 4x4 ARE instances "
        "against scipy's solve_continuous_are, the value identity J* = x0' Pi(0) x0 "
        "at a tolerance second order in dt, and gain-perturbation dominance.",
        {"A": ("matrix", 0.2), "Q": ("psd_matrix", 1.0), "Pi_T": ("psd_matrix", 0.5),
         "x0": ("vector", 1.0), "horizon": ("positive", 1.0),
         "steps": ("int", 2000, 10), "n_perturbations": ("int", 20, 1)},
    ),
    "lqg": _Experiment(
        _run_lqg, "Kalman-Bucy LQG Monte Carlo optimality and degeneration",
        "Monte Carlo paths with the standard Kalman-Bucy filter; paired comparison "
        "against gain perturbations at 2 sigma; a zero-noise run on a fixed 2x2 "
        "problem must reproduce the deterministic cost on every path.",
        {"A": ("matrix", 0.0), "Q": ("psd_matrix", 1.0), "Pi_T": ("psd_matrix", 1.0),
         "C": ("matrix", 0.6), "H_obs": ("matrix", 1.0), "x0": ("vector", 1.0),
         "horizon": ("positive", 1.0), "steps": ("int", 250, 10), "n_paths": ("int", 2000, 2),
         "write_paths": ("bool", False)},
    ),
    "hp-control": _Experiment(
        _run_hp_control, "first-order quadratic control: residuals, cost identity",
        "Builds coefficient sets whose three condition residuals vanish, simulates "
        "the quadratic cost, and checks it equals the quadratic form of the gain; "
        "includes the synthesis residuals of its L side and of its W side (W1, W2 "
        "drawn from the seed) and the finite-dimensional trace obstruction.",
        {"dim": ("int", 2, 1), "horizon": ("positive", 1.0),
         "n_perturbations": ("int", 10, 1)},
    ),
    "swn-control": _Experiment(
        _run_swn_control, "SWN control: condition cancellations, flow derivation",
        "Checks the SWN condition-system cancellations on a commuting family, the "
        "flow-differential derivation against both printed coefficient forms (also "
        "for W = I with D- drawn from the seed, and its time slot by hand), and "
        "the simulation cross-check.",
        {"horizon": ("positive", 1.0), "dt": ("positive", 1e-3)},
    ),
    "rf-riccati": _Experiment(
        _run_rf_riccati, "stochastic Riccati Picard iteration and its fixed point",
        "Runs the monotone Picard iteration pathwise on a Levy-pair surrogate: "
        "positivity, monotone decrease, convergence, the propagator fixed-point "
        "defect, and the noise-free degeneration to the classical Riccati ODE.",
        # without n_steps the horizon stays T = 1 when dt changes
        {"dt": ("positive", 1e-3),
         "n_steps": ("int", lambda p: max(1, round(1.0 / p["dt"])), 1),
         "n_max": ("int", 30, 1), "tol": ("positive", 1e-6), "n_paths": ("int", 4, 1),
         "write_traces": ("bool", False)},
    ),
}


# ----------------------------------------------------------------- reports


def run(config, out_dir="."):
    """Execute a validated config; returns (report_dict, exit_code)."""
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    outputs = []
    start = time.perf_counter()
    try:
        checks = EXPERIMENTS[config.kind].runner(config, outputs, out_path)
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
    _write_json(out_path / f"{config.out_prefix}_report.json", report)
    return report, code


def list_experiments(verbose=False, machine=False):
    kinds = sorted(EXPERIMENTS.items())
    if machine:
        listing = [
            {"kind": kind, "description": exp.description, "keys": sorted(exp.keys)}
            for kind, exp in kinds
        ]
        return json.dumps(listing, sort_keys=True, indent=1)
    lines = []
    for kind, exp in kinds:
        lines.append(f"{kind:15s} {exp.description}")
        lines.append(f"{'':15s} keys: {', '.join(sorted(exp.keys)) or '(no keys)'}")
        if verbose:
            lines.append(f"{'':15s} {exp.note}")
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
    run_parser.add_argument("--paths", type=int, default=None,
                            help="override n_paths (kinds lqg, rf-riccati only)")
    run_parser.add_argument("--dt", type=float, default=None,
                            help="override dt (kinds flow, swn-control, rf-riccati only; "
                                 "rf-riccati keeps the horizon 1 unless n_steps is set)")
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
        overrides = {key: value for key, value in
                     (("seed", args.seed), ("n_paths", args.paths), ("dt", args.dt))
                     if value is not None}
        if overrides:
            config = parse_config({**config.raw, **overrides})
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
