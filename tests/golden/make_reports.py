"""Rewrite tests/golden/reports.json: every run kind at its default config.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_reports.py

For each kind, at the default seed and at seed 7, the file holds the exit
code, every check (name, value, tolerance and verdict), the names of the
output files and the contents of each ``summary.json`` the run writes.
``tests/test_golden_reports.py`` reruns every kind and compares against
it.  A change that moves a report on purpose rewrites the file with this
script and lists the moved entries in CHANGES.md.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from qscontrol.cli import EXPERIMENTS, parse_config, run
from qscontrol.seeding import DEFAULT_SEED

SEEDS = (DEFAULT_SEED, 7)
GOLDEN = Path(__file__).with_name("reports.json")


def collect():
    """{"<kind> seed=<seed>": entry} for every kind and seed in SEEDS."""
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind in sorted(EXPERIMENTS):
            for seed in SEEDS:
                out_dir = Path(tmp) / f"{kind}-{seed}"
                report, code = run(parse_config({"kind": kind, "seed": seed}), out_dir=out_dir)
                outputs = [Path(path) for path in report["outputs"]]
                entries[f"{kind} seed={seed}"] = {
                    "exit_code": code,
                    "checks": report["checks"],
                    "outputs": [path.name for path in outputs],
                    "summaries": {path.name: json.loads(path.read_text())
                                  for path in outputs if path.name.endswith("summary.json")},
                }
    return entries


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(collect(), sort_keys=True, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
