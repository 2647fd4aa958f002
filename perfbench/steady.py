"""Steadiness check: spreads over seeds, and counts that must repeat exactly.

    python3 perfbench/steady.py --workloads mol_h2o,alloy_kpts --seeds 1-10
    python3 perfbench/steady.py --trace-repeats 2 --compare out/steady-a.json

For every workload it runs ``run.py`` once per seed (untraced) and reports,
per end-to-end metric, the inter-quartile range of the values as a share
of their median -- as ``statistics.quantiles(values, n=4)`` gives them --
next to the metric's bound from ``BENCHMARK.json``.  It then runs the
traced run ``--trace-repeats`` times on seed 0 and requires every
count in ``metrics.DETERMINISTIC`` to repeat exactly, within this set and
against the set saved in ``--compare``.  The summary is written to
``--save`` (default ``perfbench/out/steady.json``).  Exit status 1 means a
spread above its bound, a failed check or a count that did not repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import metrics
import references
import run


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           + proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith(("solve ", "trace ")):
            print(f"    {workload} {seed} {line}", flush=True)
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=references.seed_range, default="1-10")
    ap.add_argument("--trace-repeats", type=int, default=0)
    ap.add_argument("--compare", help="an earlier summary to match counts with")
    ap.add_argument("--save", default=str(run.OUT / "steady.json"))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    before = json.loads(open(args.compare).read()) if args.compare else {}
    summary: dict = {}
    ok = True
    for workload in args.workloads.split(","):
        row: dict = {"runs": [], "spread": {}, "median": {}, "counts": []}
        for seed in args.seeds:
            res = one_run(workload, seed, bench["run_seconds"], 0)
            ok &= res["correct"]
            row["runs"].append({"seed": seed, **res})
            print(workload, seed, res["correct"], json.dumps(
                {k: round(v["value"], 4) for k, v in res["metrics"].items()}),
                flush=True)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in row["runs"]]
            if len(values) > 1:
                s = spread(values)
                row["spread"][name] = s
                row["median"][name] = statistics.median(values)
                flag = "ok" if s < bound / 3 else ("WIDE" if s < bound else "OVER")
                ok &= name == "setup_s" or s < bound
                print(f"  {workload} {name}: median {statistics.median(values):.4f}"
                      f" spread {s:.4f} (bound {bound}) {flag}", flush=True)
        for _ in range(args.trace_repeats):
            res = one_run(workload, 0, bench["run_seconds"], 1)
            ok &= res["correct"]
            row["counts"].append({k: res["metrics"][k]["value"]
                                  for k in metrics.DETERMINISTIC})
        earlier = before.get(workload, {}).get("counts", [])
        distinct = {json.dumps(c, sort_keys=True) for c in row["counts"] + earlier}
        if len(distinct) > 1:
            ok = False
            print(f"  {workload} counts differ: {sorted(distinct)}", flush=True)
        elif distinct:
            print(f"  {workload} counts repeat: {distinct.pop()}", flush=True)
        summary[workload] = row
    run.OUT.mkdir(exist_ok=True)
    with open(args.save, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
