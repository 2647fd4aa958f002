"""End-to-end SCF benchmark of the ``repro`` package.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mol_h2o --seed 0 --seconds 15 --trace 0

Each solve runs in a fresh ``worker.py`` process, one at a time (a closed
loop with one client), until ``--seconds`` have passed.  Every solve is
checked against a reference (``checks.py``); a solve that fails a check or
raises counts as failed.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1`` (see ``metrics.py`` for both lists).

The run refuses to time anything (exit 3) while a ``REPRO_*`` variable is
set or a tuned host profile exists, because either changes the program's
schedule on one side of a comparison.  It fails (exit 2) where the
program's sources are missing.  Spans, the environment record and the
Table-3 comparison are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import metrics  # noqa: E402

#: jobs one solve completes (members of the screening campaign)
JOBS = {"screen_dimers": 8}
#: set-up samples per run (set-up-only processes top up the solves' own)
SETUP_SAMPLES = 3
#: wall-clock cap of one worker process
WORKER_TIMEOUT = 150.0
#: trace-vs-reproscope agreement: relative, or absolute seconds for tiny totals
CROSSCHECK_REL, CROSSCHECK_ABS = 0.05, 0.01


class WorkerFailed(RuntimeError):
    pass


def worker(mode: str, workload: str, seed: int) -> dict:
    """Run one worker process to completion and return its JSON record."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed),
         repr(spawned_at), str(OUT)],
        env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT,
    )
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-8:])
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{tail}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    if "env" in rec:
        preflight(rec["env"])
    return rec


def reference(workload: str, seed: int) -> dict:
    """Stored reference of this seed, else derived once (untimed) and cached."""
    stored = json.loads((HERE / "references.json").read_text())
    if str(seed) in stored.get(workload, {}):
        return stored[workload][str(seed)]
    cache = HERE / ".refcache" / f"{workload}-seed{seed}.json"
    if cache.is_file():
        return json.loads(cache.read_text())
    ref = worker("reference", workload, seed)
    if not ref["converged"]:
        raise WorkerFailed(f"the reference solve of {workload} seed {seed} "
                           "did not converge")
    cache.parent.mkdir(exist_ok=True)
    cache.write_text(json.dumps(ref))
    return ref


def _refuse(reason: str) -> None:
    print(f"refusing to time runs: {reason}", file=sys.stderr)
    raise SystemExit(3)


def preflight(env: dict) -> None:
    """Refuse a host with a tuned profile; save the environment record."""
    if env["tune_profile"]:
        _refuse(f"tuned host profile {env['tune_profile']} exists")
    OUT.mkdir(exist_ok=True)
    (OUT / "env.json").write_text(json.dumps(env, indent=1))


class Tally:
    """Operations attempted and failed over one run."""

    def __init__(self, workload: str, ref: dict) -> None:
        self.workload, self.ref = workload, ref
        self.attempted = self.failed = 0

    def solve(self, mode: str, seed: int, jobs: int) -> dict | None:
        """One checked solve; None when the worker itself failed."""
        try:
            rec = worker(mode, self.workload, seed)
        except (WorkerFailed, subprocess.TimeoutExpired) as err:
            print(f"FAILED {mode}: {err}", file=sys.stderr)
            self.attempted += jobs
            self.failed += jobs
            return None
        outcome = rec["outcome"]
        iterations = outcome.get("total_iterations", outcome.get("iterations"))
        print(f"{mode} solve_s {rec['solve_s']:.4f} setup_s {rec['setup_s']:.4f}"
              f" iterations {iterations}")
        ops, problems = checks.check(self.workload, outcome, self.ref)
        self.attempted += ops
        self.failed += len(problems)
        for p in problems:
            print(f"FAILED check: {p}", file=sys.stderr)
        return rec

    def fail(self, message: str) -> None:
        """Fail one more of the operations already attempted."""
        print(f"FAILED check: {message}", file=sys.stderr)
        self.failed = min(self.failed + 1, self.attempted)


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def end_to_end(records: list[dict], setups: list[float]) -> dict:
    return {
        "setup_s": _median(setups),
        "solve_s": _median([r["solve_s"] for r in records]),
        "jobs_per_hour": _median([3600.0 * r["jobs"] / r["solve_s"]
                                  for r in records]),
        "peak_rss_mb": _median([r["rss_mb"] for r in records]),
    }


def per_layer(tally: Tally, plain: list[dict], traced: list[dict]) -> dict:
    layers = {k: _median([r["layers"][k] for r in traced])
              for k in traced[0]["layers"]}
    solve_plain = _median([r["solve_s"] for r in plain])
    solve_traced = _median([r["solve_s"] for r in traced])
    layers["obs.trace_overhead_frac"] = solve_traced / solve_plain - 1.0
    layers["repro.import_s"] = _median([r["import_s"] for r in plain + traced])
    for kernel, layer in (("EP", "core.ep.s"), ("CF", "core.cf.s")):
        ours = _median([r["layers"][layer] for r in traced])
        theirs = _median([r["reproscope"][kernel] for r in traced])
        rel = abs(ours - theirs) / theirs if theirs else 0.0
        layers[f"obs.crosscheck.{kernel.lower()}_rel"] = rel
        if rel > CROSSCHECK_REL and abs(ours - theirs) > CROSSCHECK_ABS:
            tally.fail(f"{layer} = {ours:.4f} s but reproscope {kernel} = "
                       f"{theirs:.4f} s: a call site is not wrapped")
    return layers


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(
        "mol_h2o", "alloy_kpts", "screen_dimers", "invdft_h2"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb-reference", action="store_true",
                    help="self-test: shift the reference so every check fails")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    knobs = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if knobs:
        _refuse(f"{', '.join(knobs)} set")
    ref = reference(args.workload, args.seed)
    if args.perturb_reference:
        ref = checks.perturb(ref)
    tally = Tally(args.workload, ref)

    setups: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    jobs = JOBS.get(args.workload, 1)
    start = time.monotonic()
    while True:
        rec = tally.solve("solve", args.seed, jobs)
        if rec is not None:
            plain.append(rec)
            setups.append(rec["setup_s"])
        if args.trace:
            rec = tally.solve("trace", args.seed, jobs)
            if rec is not None:
                traced.append(rec)
                for row in rec.get("table3", {}).get("rows", []):
                    print(f"table3 {args.workload} {json.dumps(row)}")
        if time.monotonic() - start >= args.seconds:
            break
    if not args.trace:
        while len(setups) < SETUP_SAMPLES:
            setups.append(worker("setup", args.workload, args.seed)["setup_s"])
    if not plain or (args.trace and not traced):
        print("no solve completed; nothing to report", file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer(tally, plain, traced)
        table = metrics.PER_LAYER
    else:
        values = end_to_end(plain, setups)
        table = metrics.END_TO_END
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": table[k][0]} for k in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
