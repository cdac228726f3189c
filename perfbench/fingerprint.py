#!/usr/bin/env python3
"""Check that the offline workloads' work counts are deterministic.

Runs one pass of each offline workload in fresh processes under two fixed
``PYTHONHASHSEED`` values and a random one, twice with the first value,
and requires the counters ``bdd.misses_total``, ``bdd.peak_nodes`` and
``fixedpoint.iterations`` to be identical in all of them.  The recorded
values are in ``fingerprint.json`` beside this file; a change that moves
them on purpose re-records them with ``--write``.

Run from the repository root::

    python3 perfbench/fingerprint.py            # compare with the record
    python3 perfbench/fingerprint.py --write    # re-record

Exit status 1 when the counters differ between processes, or (without
``--write``) from the record.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORD = HERE / "fingerprint.json"
HASH_SEEDS = ("0", "0", "1", "random")
COUNTERS = {
    "bdd.misses_total": "misses_total",
    "bdd.peak_nodes": "peak_nodes",
    "fixedpoint.iterations": "iterations",
}


def one(workload: str) -> dict:
    """Counters of one pass of ``workload`` in this process."""
    sys.path.insert(0, str(HERE.parent / "src"))
    import run

    prepared = run.prepare(workload, 1, 0.0)
    counts = run.one_pass(prepared["queries"])["counts"]
    return {name: counts[key] for name, key in COUNTERS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="re-record fingerprint.json")
    parser.add_argument("--one", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(one(args.one)))
        return 0
    sys.path.insert(0, str(HERE))
    from run import OFFLINE

    measured = {}
    status = 0
    for workload in OFFLINE:
        seen = []
        for hash_seed in HASH_SEEDS:
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            out = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--one", workload],
                env=env, capture_output=True, text=True, check=True, timeout=600,
            )
            seen.append(json.loads(out.stdout.strip().splitlines()[-1]))
        same = all(counts == seen[0] for counts in seen)
        print(f"{workload}: {seen[0]}  identical across PYTHONHASHSEED "
              f"{'/'.join(HASH_SEEDS)}: {same}")
        if not same:
            print(f"{workload}: differing counters {seen}", file=sys.stderr)
            status = 1
        measured[workload] = seen[0]
    if args.write:
        RECORD.write_text(json.dumps(measured, indent=2, sort_keys=True) + "\n")
        print(f"recorded {RECORD.name}")
    else:
        recorded = json.loads(RECORD.read_text())
        if recorded != measured:
            print(f"counters differ from {RECORD.name}: recorded {recorded}", file=sys.stderr)
            status = 1
        else:
            print(f"counters match {RECORD.name}")
    return status


if __name__ == "__main__":
    sys.exit(main())
