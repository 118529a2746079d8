"""Regenerate the committed golden files: simulator snapshots, wire vectors.

Usage::

    PYTHONPATH=src python -m tests.regen_golden

Only do this when a simulator change *intentionally* alters same-seed
trajectories (different RNG consumption, scheduling order, or
accounting), or when a codec change intentionally alters the wire format
(then bump ``codec.WIRE_VERSION`` too); review the resulting diff like
any other behavior change.
"""

import json

from tests.test_codec import WIRE_VECTORS, wire_vectors
from tests.test_determinism import GOLDEN_DIR, GOLDEN_SPECS, run_case


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, spec in sorted(GOLDEN_SPECS.items()):
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(run_case(spec), indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    WIRE_VECTORS.write_text(json.dumps(wire_vectors(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {WIRE_VECTORS}")


if __name__ == "__main__":
    main()
