"""The pinned failing-seed set: a slice of tools/seed_sweep.py, rerun.

rf-riccati at config seeds 0-40, lqr at seeds 30-40 and every off-default
config must fail exactly the checks tests/golden/failing_seeds.json lists
for them, at the same values and tolerances.  A new failure and a mended
one both fail here until ``tools/seed_sweep.py`` rewrites the file.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "seed_sweep.py"
_spec = importlib.util.spec_from_file_location("seed_sweep", _SCRIPT)
seed_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seed_sweep)

SLICE = ([{"kind": "rf-riccati", "seed": seed} for seed in range(41)]
         + [{"kind": "lqr", "seed": seed} for seed in range(30, 41)]
         + list(seed_sweep.OFF_DEFAULT))


def _key(entry):
    return entry["kind"], entry["run"], entry["check"]


def test_slice_fails_exactly_the_pinned_checks():
    runs = {(config["kind"], seed_sweep.run_name(config)) for config in SLICE}
    pinned = {_key(entry): entry for entry in json.loads(seed_sweep.FILE.read_text())
              if (entry["kind"], entry["run"]) in runs}
    found = {_key(entry): entry for entry in seed_sweep.failures(SLICE)}
    assert sorted(found) == sorted(pinned)
    for key, entry in found.items():
        assert entry["tolerance"] == pinned[key]["tolerance"], key
        assert entry["value"] == pytest.approx(pinned[key]["value"], rel=1e-9), key

