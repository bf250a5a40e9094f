"""Experiment runner: config validation, dispatch, reports, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qscontrol.cli import (
    EXPERIMENTS,
    list_experiments,
    main,
    parse_config,
    run,
)
from qscontrol.errors import ConfigError, ShapeError


def test_minimal_config_fills_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "ito-table"}))
    config = parse_config(cfg)
    assert config.kind == "ito-table"
    assert config.seed > 0
    assert config.params == {}


def test_defaults_filled_once_at_parse_time():
    params = parse_config({"kind": "rf-riccati", "dt": 4e-3}).params
    assert params["n_steps"] == 250 and params["n_paths"] == 4 and params["tol"] == 1e-6
    assert parse_config({"kind": "lqr"}).params["steps"] == 2000


def test_matrix_defaults_are_scalar_instance_times_identity():
    lqr = parse_config({"kind": "lqr", "Q": [[2.0, 0.0], [0.0, 1.0]]}).params
    assert np.array_equal(lqr["A"], 0.2 * np.eye(2))
    assert np.array_equal(lqr["Pi_T"], 0.5 * np.eye(2))
    assert np.array_equal(lqr["x0"], np.ones(2))
    lqg = parse_config({"kind": "lqg", "x0": [1.0, 2.0, 3.0]}).params
    for key, scalar in (("A", 0.0), ("Q", 1.0), ("Pi_T", 1.0), ("C", 0.6), ("H_obs", 1.0)):
        assert np.array_equal(lqg[key], scalar * np.eye(3)), key


def test_non_psd_matrix_named_with_eigenvalue():
    with pytest.raises(ConfigError) as err:
        parse_config({"kind": "lqr", "Q": [[-2.0]]})
    joined = "\n".join(err.value.errors)
    assert "Q" in joined and "eigenvalue" in joined and "-2" in joined


def test_unknown_kind_lists_allowed():
    with pytest.raises(ConfigError) as err:
        parse_config({"kind": "nonsense"})
    assert "allowed kinds" in err.value.errors[0]
    for kind in EXPERIMENTS:
        assert kind in err.value.errors[0]


def test_all_validation_errors_reported_not_just_first():
    with pytest.raises(ConfigError) as err:
        parse_config({"kind": "lqr", "Q": [[-1.0]], "steps": "many", "bogus": 1})
    assert len(err.value.errors) >= 3


def test_rf_riccati_dt_too_small_for_the_default_step_count(tmp_path, capsys):
    # 1/dt overflows below about 5.6e-309, so n_steps = round(1/dt) has no
    # value: a config error naming dt, reported with the other problems
    with pytest.raises(ConfigError) as err:
        parse_config({"kind": "rf-riccati", "dt": 1e-320, "n_paths": 0})
    assert [e.split(":")[0] for e in err.value.errors] == ["dt", "n_paths"]
    # with n_steps given, no default is computed from dt
    config = parse_config({"kind": "rf-riccati", "dt": 1e-320, "n_steps": 10})
    assert config.params["n_steps"] == 10
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "rf-riccati", "dt": 1e-320}))
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "dt: 1e-320 is too small" in capsys.readouterr().err
    assert not (tmp_path / "rf-riccati_report.json").exists()


def test_list_experiments_text_and_machine():
    text = list_experiments()
    assert len([l for l in text.splitlines() if not l.startswith(" ")]) == 10
    verbose = list_experiments(verbose=True)
    assert len(verbose) > len(text)
    machine = json.loads(list_experiments(machine=True))
    assert sorted(entry["kind"] for entry in machine) == sorted(EXPERIMENTS)


def test_run_ito_table_report(tmp_path):
    config = parse_config({"kind": "ito-table"})
    report, code = run(config, out_dir=tmp_path)
    assert code == 0 and report["passed"]
    assert len(report["checks"]) == 16
    for check in report["checks"]:
        assert {"name", "value", "tolerance", "passed"} <= set(check)
    written = json.loads((tmp_path / "ito-table_report.json").read_text())
    assert written["kind"] == "ito-table"


def test_run_characteristic_contains_closed_form_comparison(tmp_path):
    config = parse_config(
        {"kind": "characteristic", "s_values": [1.0], "intensities": [1.0], "ode_dt": 1e-3}
    )
    report, code = run(config, out_dir=tmp_path)
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert any("brownian" in n for n in names) and any("poisson" in n for n in names)


def test_characteristic_t_off_the_ode_grid_passes(tmp_path):
    # t = 0.5 is no whole number of ode_dt = 0.3 steps: the ODE takes
    # round(t / ode_dt) = 2 equal steps to t
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "characteristic", "t": 0.5, "ode_dt": 0.3}))
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "characteristic_report.json").read_text())
    assert len(report["checks"]) == 9 and report["passed"]


def test_run_swn_table_at_the_benchmark_size(tmp_path):
    config = parse_config({"kind": "swn-table", "max_index": 3, "truncation": 40})
    report, code = run(config, out_dir=tmp_path)
    assert code == 0
    assert report["checks"][0]["name"] == "composition oracle, indices <= 3"
    assert report["checks"][0]["value"] == 0


def test_run_flow_writes_series(tmp_path):
    config = parse_config({"kind": "flow", "horizon": 0.2, "dt": 1e-3})
    report, code = run(config, out_dir=tmp_path)
    assert code == 0
    assert report["outputs"] and report["outputs"][0].endswith("flow_series.csv")
    header = (tmp_path / "flow_series.csv").read_text().splitlines()[0]
    assert header == "t,re,im"


def test_report_determinism_excluding_wall_time(tmp_path):
    config = parse_config({"kind": "rf-riccati", "n_steps": 100, "dt": 1e-2, "n_paths": 2})
    rep_a, _ = run(config, out_dir=tmp_path / "a")
    rep_b, _ = run(config, out_dir=tmp_path / "b")
    for rep in (rep_a, rep_b):
        rep.pop("wall_time_s")
        rep["outputs"] = [p.split("/")[-1] for p in rep["outputs"]]
    assert json.dumps(rep_a, sort_keys=True) == json.dumps(rep_b, sort_keys=True)


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"kind": "weyl"}))
    assert main(["run", str(good), "--out-dir", str(tmp_path)]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "lqr", "Q": [[-1.0]]}))
    assert main(["run", str(bad), "--out-dir", str(tmp_path)]) == 2

    missing = tmp_path / "missing.json"
    assert main(["run", str(missing)]) == 2

    assert main(["list", "--machine"]) == 0
    out = capsys.readouterr().out
    assert "weyl" in out


def test_main_seed_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "lqr", "seed": 1}))
    assert main(["run", str(cfg), "--seed", "7", "--out-dir", str(tmp_path), "--format", "csv"]) == 0
    report = json.loads((tmp_path / "lqr_report.json").read_text())
    assert report["seed"] == 7


def test_main_paths_override_rejected_where_kind_has_no_n_paths(tmp_path, capsys):
    # --paths sets the n_paths key, which only lqg and rf-riccati accept
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "lqr"}))
    assert main(["run", str(cfg), "--paths", "8", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "n_paths: unknown key for kind 'lqr'" in err
    assert not (tmp_path / "lqr_report.json").exists()


@pytest.mark.parametrize("dt", ["4e-3", "8e-3"])
def test_main_rf_riccati_dt_override_keeps_horizon_and_passes(tmp_path, dt):
    # without n_steps the horizon stays 1, so every check holds at its
    # dt-scaled tolerance (monotone margin 1.58e-8 vs 4e-8 at dt 4e-3,
    # 5.11e-8 vs 8e-8 at dt 8e-3)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "rf-riccati", "write_traces": True}))
    assert main(["run", str(cfg), "--dt", dt, "--out-dir", str(tmp_path)]) == 0
    last_row = (tmp_path / "rf-riccati_trace.csv").read_text().splitlines()[-1]
    assert float(last_row.split(",")[0]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("steps", [10, 100, 2000])
@pytest.mark.parametrize("q_mat", [[[1.0]], [[2.0, 0.0], [0.0, 1.0]]], ids=["scalar", "2x2"])
def test_lqr_value_identity_holds_at_every_admitted_step_count(tmp_path, steps, q_mat):
    # the zero-order-hold excess is second order in dt (4.97e-6 at 100 steps
    # on the scalar problem), so no fixed tolerance serves every step count
    report, code = run(parse_config({"kind": "lqr", "steps": steps, "Q": q_mat}), out_dir=tmp_path)
    assert code == 0, [c for c in report["checks"] if not c["passed"]]


@pytest.mark.parametrize("config", [{"kind": "lqr", "steps": 780}, {"kind": "lqg", "steps": 1365}],
                         ids=["lqr-780", "lqg-1365"])
def test_lq_run_whose_steps_fill_whole_runs_of_points_passes(tmp_path, config):
    # 780 steps of lqr's 21 one-entry laws and 1365 steps of lqg's three
    # 2x2 second moments are each one run of _STREAM_ENTRIES entries, so
    # the end point is the only point past them
    report, code = run(parse_config(config), out_dir=tmp_path)
    assert code == 0, [c for c in report["checks"] if not c["passed"]]


@pytest.mark.parametrize("kind", sorted(EXPERIMENTS))
def test_default_config_runs_passes_and_repeats(tmp_path, kind):
    runs = []
    for sub in ("a", "b"):
        report, code = run(parse_config({"kind": kind}), out_dir=tmp_path / sub)
        assert code == 0 and report["checks"]
        report.pop("wall_time_s")
        outputs = {Path(p).name: Path(p).read_bytes() for p in report.pop("outputs")}
        runs.append((json.dumps(report, sort_keys=True), outputs))
    assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "config, key",
    [
        ({"kind": "lqr", "n_perturbations": 0}, "n_perturbations"),
        ({"kind": "hp-control", "n_perturbations": 0}, "n_perturbations"),
        ({"kind": "characteristic", "s_values": []}, "s_values"),
        ({"kind": "characteristic", "intensities": []}, "intensities"),
        ({"kind": "swn-table", "max_index": 1, "truncation": 3}, "truncation"),
        ({"kind": "swn-table", "truncation": 5}, "truncation"),
        ({"kind": "hp-control", "dim": 0}, "dim"),
        ({"kind": "rf-riccati", "n_paths": 0}, "n_paths"),
        ({"kind": "rf-riccati", "n_steps": 0}, "n_steps"),
        ({"kind": "rf-riccati", "n_max": 0}, "n_max"),
        ({"kind": "weyl", "n_terms": 0}, "n_terms"),
        ({"kind": "lqg", "n_paths": 1}, "n_paths"),
        ({"kind": "lqr", "A": [[0.2, 0.0], [0.0, 0.2]], "x0": [1.0]}, "x0"),
        ({"kind": "lqg", "C": [[0.5, 0.0], [0.0, 0.5]], "H_obs": [[1.0]]}, "H_obs"),
        ({"kind": "lqr", "horizon": -1}, "horizon"),
        ({"kind": "hp-control", "horizon": 0.0}, "horizon"),
    ],
    ids=lambda value: value if isinstance(value, str) else value["kind"],
)
def test_malformed_or_vacuous_config_exits_2_naming_the_key(tmp_path, capsys, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert f"config error: {key}:" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_report.json"))


_NAN, _INF = float("nan"), float("inf")


# one key of every value type that holds numbers, and each encoding of a
# complex value; json.dumps writes NaN and Infinity, which json.loads reads
@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("weyl", "lam", _NAN),  # number
        ("weyl", "k", -_INF),
        ("characteristic", "t", _INF),  # positive
        ("flow", "dt", _INF),
        ("swn-control", "horizon", _INF),
        ("rf-riccati", "tol", _NAN),
        ("characteristic", "s_values", [0.5, _NAN]),  # numbers
        ("characteristic", "intensities", [1.0, _INF]),  # positives
        ("weyl", "z", _NAN),  # complex, a real number
        ("weyl", "z", [0.5, _INF]),  # complex, an [re, im] pair
        ("lqr", "x0", [_NAN]),  # vector
        ("lqr", "x0", [10**400]),  # an int beyond the float range
        ("lqr", "A", [[_NAN]]),  # matrix
        ("lqg", "C", [[-_INF]]),
        ("lqr", "Q", [[_INF]]),  # psd_matrix
    ],
)
def test_non_finite_config_number_exits_2_naming_its_key(tmp_path, capsys, kind, key, value):
    with pytest.raises(ConfigError) as err:
        parse_config({"kind": kind, key: value})
    assert [e.split(":")[0] for e in err.value.errors] == [key]
    assert "finite" in err.value.errors[0]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": kind, key: value}))
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert f"config error: {key}:" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_report.json"))


@pytest.mark.parametrize("dt", ["nan", "inf"])
def test_non_finite_dt_override_exits_2_naming_dt(tmp_path, capsys, dt):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "flow"}))
    assert main(["run", str(cfg), "--dt", dt, "--out-dir", str(tmp_path)]) == 2
    assert "config error: dt:" in capsys.readouterr().err


@pytest.mark.parametrize("config", [{"dt": 0.5}, {"n_steps": 9}], ids=["dt-0.5", "n_steps-9"])
def test_rf_riccati_under_ten_steps_exits_2_naming_n_steps(tmp_path, capsys, config):
    # the noise-free degeneration runs the classical Riccati solver on
    # n_steps steps, and that solver needs at least 10
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "rf-riccati", **config}))
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "config error: n_steps: expected an integer >= 10" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_report.json"))


@pytest.mark.parametrize(
    "config, code, key",
    [
        # a psd_matrix within 1e-10 but not within LqProblem's 1e-12
        ({"kind": "lqr", "Q": [[1, 1e-11], [0, 1]]}, 2, "Q"),
        ({"kind": "lqg", "Pi_T": [[1, 0], [0, -1e-11]]}, 2, "Pi_T"),
        # a fixed-grid ODE over budget, its step ratio finite or infinite
        ({"kind": "hp-control", "horizon": 1e300}, 3, None),
        ({"kind": "hp-control", "horizon": 1e308}, 3, None),
        ({"kind": "flow", "horizon": 1e7}, 3, None),
        ({"kind": "swn-control", "horizon": 1e7}, 3, None),
        ({"kind": "flow", "horizon": 1e300, "dt": 1e-10}, 3, None),
        ({"kind": "characteristic", "ode_dt": 1e-8}, 3, None),
        # a characteristic closed form that underflows to 0
        ({"kind": "characteristic", "t": 400}, 2, "t"),
        ({"kind": "characteristic", "s_values": [40]}, 2, "s_values"),
        ({"kind": "characteristic", "intensities": [6000]}, 2, "intensities"),
        ({"kind": "characteristic", "intensities": [1e6]}, 2, "intensities"),
        ({"kind": "characteristic", "t": 1e300}, 2, "t"),
        # the largest array of a run over budget, rejected before it is built
        ({"kind": "rf-riccati", "n_steps": 10**8}, 3, None),
        ({"kind": "lqr", "steps": 10**9}, 3, None),
        ({"kind": "lqg", "n_paths": 10**7}, 3, None),
        # a Riccati solution that escapes ends the run in a report
        ({"kind": "lqr", "A": [[1e200]]}, 1, "BlowUpError"),
        # a weyl series or closed form that would overflow
        ({"kind": "weyl", "k": 1e300}, 2, "k"),
        ({"kind": "weyl", "k": 1e300, "n_terms": 1}, 2, "k"),
        ({"kind": "weyl", "z": [0.0, 1e200]}, 2, "z"),
    ],
)
def test_admitted_config_ends_in_a_config_or_resource_error(tmp_path, capsys, config, code, key):
    # exit 2 names the key and writes no report; exit 3 writes a report
    # whose budget check is a finite number; exit 1 writes a report whose
    # one check names the runner's error and carries its message
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == code
    err = capsys.readouterr().err
    reports = list(tmp_path.glob("*_report.json"))
    if code == 2:
        lines = err.splitlines()
        assert lines and all(line.startswith("config error: ") for line in lines)
        assert all(key in line.split(": ")[1].split(", ") for line in lines)
        assert not reports
        return
    assert not err
    (report,) = reports
    (check,) = json.loads(report.read_text())["checks"]
    assert not check["passed"] and check["error"]
    assert check["tolerance"] < check["value"] <= sys.float_info.max
    if code == 3:
        assert check["name"] == "resource budget"
    else:
        assert check["name"] == f"runner error: {key}"


@pytest.mark.parametrize("k, code", [(1e-3, 0), (1e-8, 0), (1e-155, 0), (1e-170, 0), (1e7, 1)])
def test_weyl_configured_case_is_finite_at_every_admitted_scale_of_k(tmp_path, k, code):
    # below |k| = 1/2 the closed form takes M / k^2 from its Taylor series:
    # exp(ik) - 1 - ik lost 2.4e-12 at k = 1e-3, every digit at 1e-8, and
    # k^2 underflowed to a division by zero at 1e-170; at k = 1e7, forty
    # terms of the series are far from its sum, a finite failure
    report, got = run(parse_config({"kind": "weyl", "k": k}), out_dir=tmp_path)
    first = report["checks"][0]
    assert got == code and first["passed"] == (code == 0)
    assert math.isfinite(first["value"])


@pytest.mark.parametrize("matrix, admit", [
    ([[1.0, 0.5e-12], [0.0, 1.0]], True), ([[1.0, 2e-12], [0.0, 1.0]], False),
    ([[1.0, 0.0], [0.0, -0.5e-12]], True), ([[1.0, 0.0], [0.0, -2e-12]], False),
], ids=["asymmetry-0.5tol", "asymmetry-2tol", "eigenvalue-0.5tol", "eigenvalue-2tol"])
def test_psd_matrix_schema_admits_what_lq_problem_accepts(matrix, admit):
    # an asymmetry and a smallest eigenvalue at 0.5x and 2x LqProblem's 1e-12
    from qscontrol.classical import LqProblem

    def admitted(build):
        try:
            build()
            return True
        except (ConfigError, ShapeError):
            return False

    by_schema = admitted(lambda: parse_config({"kind": "lqr", "Q": matrix}))
    by_problem = admitted(lambda: LqProblem(A=np.zeros((2, 2)), Q=matrix, Pi_T=np.eye(2),
                                            horizon=1.0))
    assert by_schema == by_problem == admit


@pytest.mark.parametrize("via", ["config", "flag"])
def test_swn_control_dt_off_the_horizon_grid_writes_a_report(tmp_path, capsys, via):
    # horizon 1 is no whole number of dt = 0.3 steps: the master equation
    # takes 4 equal steps of 0.25, too coarse for the damping check alone
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "swn-control", **({"dt": 0.3} if via == "config" else {})}))
    flag = ["--dt", "0.3"] if via == "flag" else []
    assert main(["run", str(cfg), "--out-dir", str(tmp_path), *flag]) == 1
    assert "error" not in capsys.readouterr().err
    report = json.loads((tmp_path / "swn-control_report.json").read_text())
    assert [c["name"] for c in report["checks"] if not c["passed"]] == [
        "single-mode damping closed form"]


@pytest.mark.parametrize("kind", ["lqr", "lqg"])
def test_lq_kinds_build_their_problem_from_every_matrix_key(monkeypatch, tmp_path, kind):
    import qscontrol.classical as classical

    built = []

    class Recording(classical.LqProblem):
        def __post_init__(self):
            super().__post_init__()
            built.append(self)

    monkeypatch.setattr(classical, "LqProblem", Recording)
    # no A: the other keys still set the problem, and A defaults to the
    # scalar instance's value times the identity
    given = {"Q": [[2.0, 0.0], [0.0, 1.0]], "Pi_T": [[0.3, 0.1], [0.1, 0.7]],
             "x0": [1.0, -2.0], "horizon": 0.5, "steps": 50}
    if kind == "lqg":
        given.update(C=[[0.4, 0.0], [0.1, 0.2]], H_obs=[[1.0, 0.5], [0.0, 1.0]], n_paths=4)
    else:
        given.update(n_perturbations=1)
    run(parse_config({"kind": kind, **given}), out_dir=tmp_path)
    want = {key: value for key, value in given.items() if isinstance(value, list)}
    want["A"] = (0.2 if kind == "lqr" else 0.0) * np.eye(2)
    assert any(
        problem.horizon == 0.5
        and all(np.array_equal(getattr(problem, key), value) for key, value in want.items())
        for problem in built
    )


@pytest.mark.parametrize("given, header", [
    ({"kind": "flow", "horizon": 0.2, "dt": 1e-3}, "t,re,im"),
    ({"kind": "lqg", "n_paths": 3, "steps": 20, "write_paths": True}, "path,cost"),
    ({"kind": "rf-riccati", "n_steps": 50, "dt": 2e-2, "n_paths": 2, "write_traces": True},
     "t,re_00,re_01,re_10,re_11"),
], ids=["flow", "lqg", "rf-riccati"])
def test_every_csv_a_run_writes_is_numeric(tmp_path, given, header):
    report, _ = run(parse_config(given), out_dir=tmp_path)
    (csv_path,) = [Path(name) for name in report["outputs"] if name.endswith(".csv")]
    rows = csv_path.read_text().splitlines()
    assert rows[0] == header and len(rows) > 1
    for row in rows[1:]:
        cells = row.split(",")
        assert len(cells) == len(header.split(","))
        for cell in cells:
            float(cell)  # raises on anything but a plain number


def test_lqg_paths_csv_holds_plain_numbers(tmp_path):
    config = parse_config({"kind": "lqg", "n_paths": 3, "steps": 20, "write_paths": True})
    run(config, out_dir=tmp_path)
    rows = (tmp_path / "lqg_paths.csv").read_text().splitlines()
    assert rows[0] == "path,cost" and len(rows) == 4
    for idx, row in enumerate(rows[1:]):
        path, cost = row.split(",")
        assert int(path) == idx and np.isfinite(float(cost))



def _exact_excess_checks(report):
    return [check for check in report["checks"] if "exact expected excess" in check["name"]]


def test_lqg_dominance_verdict_is_exact_at_every_seed_and_ensemble(tmp_path):
    # the exact expected excess of each perturbed law reads the same at any
    # seed and any n_paths: 0.0202644511 and 0.0153892501 at the default
    # config
    reports = [run(parse_config({"kind": "lqg", "seed": seed, "n_paths": n_paths}),
                   out_dir=tmp_path)[0]
               for seed, n_paths in ((0, 200), (1, 200), (0, 2))]
    first = _exact_excess_checks(reports[0])
    assert [check["name"] for check in first] == [
        "optimal beats -20% gain perturbation (exact expected excess)",
        "optimal beats +20% gain perturbation (exact expected excess)"]
    assert [-check["value"] for check in first] == pytest.approx(
        [0.020264451093505, 0.015389250059799], rel=1e-9)
    for report in reports[1:]:
        assert _exact_excess_checks(report) == first


def test_lqg_without_state_noise_passes_on_the_rounding_floor(tmp_path):
    # C = 0: no kick, every path the deterministic loop, so the standard
    # errors and the filter gap are 0, and the Monte Carlo meets the exact
    # moments within 10 steps eps max|E J| (measured 1.6e-15 against 5.7e-13)
    report, code = run(parse_config({"kind": "lqg", "C": [[0.0]]}), out_dir=tmp_path)
    assert code == 0
    simulator = [check for check in report["checks"] if " vs exact" in check["name"]]
    assert len(simulator) == 3
    for check in simulator:
        assert 0.0 < check["tolerance"] < 1e-12 and check["value"] <= check["tolerance"]


def test_default_lqg_run_does_not_import_scipy_stats(tmp_path):
    code = (
        "import sys\n"
        "from qscontrol.cli import parse_config, run\n"
        f"run(parse_config({{'kind': 'lqg'}}), out_dir={str(tmp_path)!r})\n"
        "assert 'scipy.stats' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def _documented_keys():
    """{kind: {key: (type, minimum cell or None)}} from the key tables of
    docs/config_schema.md, one section per kind."""
    text = (Path(__file__).resolve().parents[1] / "docs" / "config_schema.md").read_text()
    tables = {}
    for section in text.split("\n### ")[1:]:
        kind = section.split("\n", 1)[0].strip("`")
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in section.splitlines() if line.startswith("|")]
        table = tables[kind] = {}
        if not rows:
            continue
        header = rows[0]
        for row in rows[2:]:  # below the header and its rule
            cells = dict(zip(header, row))
            for key in cells["key"].split(","):
                table[key.strip().strip("`")] = (cells["type"], cells.get("minimum"))
    return tables


def test_config_schema_doc_lists_every_key_with_its_type_and_minimum():
    documented = _documented_keys()
    assert documented.keys() == EXPERIMENTS.keys()
    for kind, experiment in EXPERIMENTS.items():
        doc = documented[kind]
        assert doc.keys() == experiment.keys.keys(), kind
        for key, (kind_of, _, *minimum) in experiment.keys.items():
            doc_type, doc_min = doc[key]
            assert doc_type == kind_of, (kind, key)
            if minimum and not callable(minimum[0]):
                assert doc_min == str(minimum[0]), (kind, key)
            elif not minimum:
                assert not doc_min, (kind, key)
