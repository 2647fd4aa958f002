"""Self-test of the benchmark: metric tables, checks, and a failing run.

    python3 perfbench/selftest.py [--workload alloy_kpts]

1. ``BENCHMARK.json`` names the metrics of ``metrics.py`` with the same
   units and directions.
2. ``checks.check`` passes every stored seed-0 reference against itself and
   fails it once the reference is perturbed.
3. A real run with ``--perturb-reference`` reports every operation failed
   (``correct`` false, ``failed == attempted``) and still exits 0; the same
   run against the true reference is correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import checks
import metrics
import run


def check_tables() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", metrics.END_TO_END),
                       ("per_layer", metrics.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
        want = {k: v[:2] for k, v in table.items()}
        if listed != want:
            raise SystemExit(f"BENCHMARK.json {key} differs from metrics.py")


def synthetic_outcome(workload: str, ref: dict) -> dict:
    """An outcome that matches ``ref`` exactly."""
    base = {"converged": True, "n_electrons": 2, "energy_tol": 1e-8}
    if workload == "screen_dimers":
        members = [{"name": k, "energy": v, "converged": True,
                    "iterations": 1, "source": "cold"}
                   for k, v in ref["energies"].items()]
        return {**base, "energy_tol": 1e-14, "members": members,
                "electrons": [2.0] * len(members)}
    if workload == "invdft_h2":
        return {**base, "e_fci": ref["e_fci"], "misfit": 1e-6, "target": 1e-5,
                "electrons_qmb": 2.0, "electrons_ks": 2.0}
    return {**base, "energy": ref["energy"], "electrons": 2.0}


def check_checks() -> None:
    stored = json.loads((run.HERE / "references.json").read_text())
    for workload, refs in stored.items():
        ref = refs["0"]
        outcome = synthetic_outcome(workload, ref)
        ops, problems = checks.check(workload, outcome, ref)
        if problems:
            raise SystemExit(f"{workload}: exact reference fails: {problems}")
        ops, problems = checks.check(workload, outcome, checks.perturb(ref))
        if len(problems) != ops:
            raise SystemExit(f"{workload}: perturbed reference passes")
        print(f"checks {workload}: exact passes, perturbed fails {ops}/{ops}")


def run_once(workload: str, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seconds", "0", *extra],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="alloy_kpts")
    args = ap.parse_args()
    check_tables()
    check_checks()
    bad = run_once(args.workload, "--perturb-reference")
    if bad["correct"] or bad["failed"] != bad["attempted"]:
        raise SystemExit(f"perturbed reference not counted as failed: {bad}")
    print(f"run {args.workload} perturbed: failed {bad['failed']}"
          f"/{bad['attempted']}")
    good = run_once(args.workload)
    if not good["correct"]:
        raise SystemExit(f"true reference fails: {good}")
    print(f"run {args.workload} true reference: correct")
    print("selftest passed")


if __name__ == "__main__":
    main()
