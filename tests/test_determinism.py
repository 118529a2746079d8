"""Same-seed determinism of the simulator, pinned by golden snapshots.

The hot-path overhaul (tuple-heap engine, FIFO run queue, broadcast
fan-out, ring precomputation) must not change *what* the simulator
computes — only how fast.  Two layers of protection:

* **replay identity** — running the same spec twice in one process
  yields byte-identical JSON for every deterministic field;
* **golden snapshots** — committed files pin the exact metric snapshots
  for small scenarios.  Any future change to scheduling order, RNG
  consumption, or accounting shows up as a golden diff and must be a
  conscious decision (regenerate with
  ``python -m tests.regen_golden`` — see that module's docstring).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.runner import BenchRunner
from repro.bench.specs import BenchSpec

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"

#: Scenarios pinned by committed golden files.  Kept small: goldens must
#: stay cheap enough for tier-1.
GOLDEN_SPECS = {
    "bootstrap_rapid_n8_s1": BenchSpec("bootstrap", "rapid", 8, seed=1),
    "crash_rapid_n8_s5": BenchSpec("crash", "rapid", 8, seed=5, params={"failures": 2}),
    "bootstrap_rapidc_n8_s1": BenchSpec("bootstrap", "rapid-c", 8, seed=1),
    "crash_rapidc_n8_s5": BenchSpec("crash", "rapid-c", 8, seed=5, params={"failures": 2}),
}


def run_case(spec: BenchSpec) -> dict:
    return BenchRunner(log=None).run_case(spec).to_json()


class TestReplayIdentity:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
    def test_same_seed_twice_is_byte_identical(self, name):
        spec = GOLDEN_SPECS[name]
        first = json.dumps(run_case(spec), sort_keys=True)
        second = json.dumps(run_case(spec), sort_keys=True)
        assert first == second

    def test_different_seed_differs(self):
        base = GOLDEN_SPECS["bootstrap_rapid_n8_s1"]
        other = BenchSpec(base.scenario, base.system, base.n, seed=base.seed + 1)
        assert run_case(base) != run_case(other)


#: Prints a digest of a partition-and-heal run's install records.
_RECORD_DIGEST = """
import hashlib
from repro.experiments.scenarios import partition_heal_experiment
result = partition_heal_experiment("rapid", 24, partition_for=30.0, seed=1)
records = [(r.time, str(r.endpoint), r.config_id)
           for r in result["harness"].trace.records]
print(hashlib.sha256(repr(records).encode()).hexdigest())
"""


class TestHashSeedIndependence:
    def test_partition_heal_replays_under_any_hash_seed(self):
        """String hashing is salted per interpreter; a scenario that
        iterates a set of endpoints while scheduling work replays only
        under one ``PYTHONHASHSEED``."""
        digests = {
            subprocess.run(
                [sys.executable, "-c", _RECORD_DIGEST],
                env={**os.environ, "PYTHONPATH": str(SRC_DIR), "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("1", "2", "3")
        }
        assert len(digests) == 1, digests


class TestGoldenSnapshots:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
    def test_matches_committed_golden(self, name):
        golden_path = GOLDEN_DIR / f"{name}.json"
        assert golden_path.exists(), (
            f"missing golden file {golden_path}; generate it with "
            f"PYTHONPATH=src python -m tests.regen_golden"
        )
        golden = json.loads(golden_path.read_text())
        actual = run_case(GOLDEN_SPECS[name])
        assert actual == golden, (
            f"deterministic snapshot for {name} drifted from the committed "
            f"golden; if the trajectory change is intentional, regenerate "
            f"with PYTHONPATH=src python -m tests.regen_golden"
        )
