"""Write tests/golden/rf_stores.json: sha256 digests of the rf stores of
few-path runs, whose sweeps run as the blocked two-level scan, and of one
many-path run, whose sweeps step through several streamed time blocks.

    PYTHONPATH=src python tests/golden/make_rf_stores.py

Each case runs the Picard iteration, the r-process, the closed loop under
the optimal law, a perturbation and the open-loop law ("scale", 0.0) on
zero Pi and r, the feedback law, the cost and the fixed-point defect, and
records every returned array as the digest of its bytes and every
returned number by ``repr``, so a change in any bit of the arithmetic
shows.  ``tests/test_rf.py`` compares a fresh
``collect()`` with the file.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from qscontrol import rf

GOLDEN = Path(__file__).with_name("rf_stores.json")

# (name, problem, surrogate kind, steps, dt, seed, paths): 50 steps make
# seven blocks of seven and one trailing step; the scalar run of 100 steps
# is ten blocks of ten; the streamed run (64 paths of 2x2, 256 entries per
# step) steps through time blocks of 64, 64 and 22 steps
CASES = (
    ("2x2 q0", rf.stochastic_2x2_problem(), rf.PLANAR_BROWNIAN, 50, 2e-2, 41, 3),
    ("2x2 qt", replace(rf.stochastic_2x2_problem(), direction="qt"), rf.PLANAR_BROWNIAN,
     50, 2e-2, 42, 3),
    ("scalar q0", rf.noise_free_scalar_problem(), rf.FOCK_VACUUM, 100, 1e-2, 43, 1),
    ("2x2 q0 streamed", rf.stochastic_2x2_problem(), rf.PLANAR_BROWNIAN, 150, 1e-2, 44, 64),
)


def _digest(arr):
    arr = np.ascontiguousarray(arr)
    return f"{arr.shape} {hashlib.sha256(arr.tobytes()).hexdigest()}"


def run_case(problem, kind, n_steps, dt, seed, n_paths):
    path = rf.build_levy_surrogate(kind, n_steps, dt, seed=seed, n_paths=n_paths)
    xi = np.ones(problem.dim) / np.sqrt(problem.dim)
    iteration = rf.iterate_riccati(problem, path, n_max=40, tol=1e-10)
    pi = iteration.final
    r = rf.solve_r(problem, pi, path)
    x_opt, u_opt = rf.closed_loop_state(problem, pi, r, path)
    x_pert, u_pert = rf.closed_loop_state(problem, pi, r, path,
                                          law=("offset", 0.1 * np.eye(problem.dim)))
    zero = np.zeros_like(pi)
    x_open, _ = rf.closed_loop_state(problem, zero, zero, path, law=("scale", 0.0))
    return {
        "pi": _digest(pi),
        "sup_diffs": [repr(v) for v in iteration.sup_diffs],
        "monotone_margins": [repr(v) for v in iteration.monotone_margins],
        "herm_residual": repr(iteration.herm_residual),
        "residual_integral": repr(rf.residual_integral(problem, pi, path)),
        "r": _digest(r),
        "x_open": _digest(x_open),
        "x_opt": _digest(x_opt),
        "u_opt": _digest(u_opt),
        "x_pert": _digest(x_pert),
        "u_pert": _digest(u_pert),
        "feedback": _digest(rf.feedback_control(pi, r, x_pert, problem)),
        "costs": _digest(rf.cost_tilde(problem, u_pert, xi, x_pert, dt)[2]),
    }


def collect():
    return {name: run_case(*args) for name, *args in CASES}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
