"""Derive reference answers and store them in ``references.json``.

    python3 perfbench/references.py --workload mol_h2o --seeds 0-19

Each reference is solved untimed with ``poisson_tol=1e-13`` (see
``workloads.py``).  ``run.py`` reads the stored ones and derives any other
seed once, caching it under ``perfbench/.refcache/``.
"""

from __future__ import annotations

import argparse
import json

import run


def seed_range(text: str) -> list[int]:
    """``"3"``, ``"1-10"``, or ``""`` for none."""
    if not text:
        return []
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=[0])
    args = ap.parse_args()
    path = run.HERE / "references.json"
    for seed in args.seeds:
        ref = run.reference(args.workload, seed)
        stored = json.loads(path.read_text())
        stored.setdefault(args.workload, {})[str(seed)] = ref
        path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        print(args.workload, seed, json.dumps(ref), flush=True)


if __name__ == "__main__":
    main()
