"""Set-up probe: import logq and decode a workload's job configs.

run.py starts this in a fresh interpreter and times it, so ``setup_s``
covers interpreter start, ``import logq`` and decoding every job into logq
objects:

    python3 bench/probe.py .bench_out/<run>/jobs.json
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def decode(config):
    """The logq objects a library job runs on."""
    from logq.indexcalc import FixedPointTerm
    from logq.polyhedra import Polyhedron
    from logq.toricmodel import ToricLogData

    if config["kind"] == "delzant":
        return Polyhedron.from_jsonable(config["payload"]), None
    return (ToricLogData.from_jsonable(config["payload"]),
            [FixedPointTerm.from_jsonable(t) for t in config["fixed_terms"]])


def main(path: str) -> int:
    sys.path.insert(0, str(SRC))
    import logq  # noqa: F401  (the import is part of what is timed)

    with open(path) as fh:
        configs = json.load(fh)
    decoded = [decode(c) for c in configs]
    print(len(decoded))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
