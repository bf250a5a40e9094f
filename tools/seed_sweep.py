"""Sweep every run kind over config seeds and a few off-default configs,
and write every failing check to tests/golden/failing_seeds.json.

    PYTHONPATH=src python tools/seed_sweep.py

Each kind runs at its default config for config seeds 0-130, and each
config of ``OFF_DEFAULT`` runs at the default seed.  An entry of the file
is one failing check of one run: the kind, the run (``seed=N``, or the
off-default keys as JSON), the check's name, its value and its tolerance.
The file records failures; it does not excuse them.
``tests/test_failing_seeds.py`` reruns a slice of it and asserts the same
failing set, so a new failure and a mended one both show until the file
is rewritten on purpose.  The whole sweep takes about 22 s on one core
of a 2-vCPU Xeon, lqr 4.9 s and lqg 4.3 s of it (lqg took 13 s when it
ran 2000 paths per seed).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from qscontrol.cli import EXPERIMENTS, parse_config, run

SEEDS = range(131)
# off-default configs that failed a check when the sweep was written, each
# at a key its check did not scale with or at a smaller ensemble than the
# default; one that is mended stays as a guard against its return
OFF_DEFAULT = (
    {"kind": "rf-riccati", "n_paths": 32},
    {"kind": "lqg", "n_paths": 100},
    {"kind": "lqg", "n_paths": 2, "steps": 10},
    {"kind": "characteristic", "ode_dt": 0.5},
    {"kind": "weyl", "n_terms": 1},
    {"kind": "flow", "dt": 0.3},
    {"kind": "swn-control", "dt": 0.3},
    {"kind": "lqr", "horizon": 1e-12, "steps": 10},
)
FILE = Path(__file__).resolve().parent.parent / "tests" / "golden" / "failing_seeds.json"


def run_name(config):
    keys = {key: value for key, value in config.items() if key != "kind"}
    if list(keys) == ["seed"]:
        return f"seed={keys['seed']}"
    return json.dumps(keys, sort_keys=True)


def failures(configs):
    """The failing checks of every config, sorted, one dict each."""
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        for config in configs:
            report, _ = run(parse_config(config), out_dir=tmp)
            found.extend(
                {"kind": config["kind"], "run": run_name(config), "check": check["name"],
                 "value": check["value"], "tolerance": check["tolerance"]}
                for check in report["checks"] if not check["passed"]
            )
    return sorted(found, key=lambda entry: (entry["kind"], entry["run"], entry["check"]))


def main():
    seeded = [{"kind": kind, "seed": seed} for kind in sorted(EXPERIMENTS) for seed in SEEDS]
    FILE.write_text(json.dumps(failures(seeded + list(OFF_DEFAULT)), indent=1) + "\n")
    print(f"wrote {FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
