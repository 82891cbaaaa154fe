"""Record the per-cell correctness references of every workload.

    python3 perfbench/references.py --seeds 0-20,1009

Run from the root of a checkout.  For each workload and seed it runs the
workload's sweep once (BLAS pinned to one thread, as in a measured run)
and stores each cell's ``final_regret`` and ``projection_count`` in
``perfbench/references.json``, merged into what is already there.  A
measured run whose seed is recorded checks every cell against it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import PIN

# Pinned before numpy loads, as in a measured run.
os.environ.update(PIN)
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from corectron import harness  # noqa: E402

import measure  # noqa: E402
import workloads  # noqa: E402


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=_seeds, required=True, help="e.g. 0-19,1000")
    args = ap.parse_args(argv)

    recorded = {}
    for name in workloads.NAMES:
        for seed in args.seeds:
            rows = harness.sweep(workloads.config_for(name, seed), jobs=1)
            problems = workloads.cell_failures(rows, None)
            if problems:
                print(f"{name} seed {seed}: not recorded, {problems}", file=sys.stderr)
                return 1
            recorded.setdefault(name, {})[str(seed)] = {
                workloads.cell_key(r): [r.final_regret, r.projection_count] for r in rows
            }
            print(f"{name} seed {seed}: {len(rows)} cells", flush=True)

    data = {"workloads": {}}
    if os.path.exists(workloads.REFERENCES_PATH):
        with open(workloads.REFERENCES_PATH) as fh:
            data = json.load(fh)
    for name, seeds in recorded.items():
        data["workloads"].setdefault(name, {}).update(seeds)
    data["recorded_at"] = {"git_commit": measure._git_commit(), "source_digest": measure._source_digest()}
    with open(workloads.REFERENCES_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
