"""One benchmark process: set up, solve or trace one workload at one seed.

``run.py`` starts a fresh worker for every solve, so every solve starts
with cold caches inside the program::

    python3 perfbench/worker.py MODE WORKLOAD SEED SPAWNED_AT [OUT_DIR]

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it started
this process (the clock is shared by all processes), so set-up time runs
from process start to the return of the workload's public constructor.
MODE is one of

* ``setup``     -- set-up only;
* ``solve``     -- set-up, then the timed solve (no wrappers);
* ``trace``     -- as ``solve`` with every layer wrapped (see spans.py);
* ``reference`` -- the untimed reference answer.

The worker prints one JSON object as its last line of standard output.
Its ``env`` entry, recorded after the timed part, holds the host, library
and BLAS facts and whether a tuned host profile exists.
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

def environment() -> dict:
    """Host, numpy/scipy/OpenBLAS versions, BLAS threads, tuned profile."""
    import ctypes
    import platform

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (maps scipy's own BLAS, if any)

    from repro.tune.profile import default_profile_path

    cpu = platform.processor()
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    blas = []
    for path in libs:
        lib = ctypes.CDLL(path)
        row = {"library": os.path.basename(path)}
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    row["threads"] = threads()
                    row["config"] = config().decode()
        blas.append(row)
    profile = default_profile_path()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "tune_profile": str(profile) if profile.exists() else None,
    }


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _solve(wl, record: dict) -> dict:
    t0 = time.perf_counter()
    outcome = wl.solve()
    record["solve_s"] = time.perf_counter() - t0
    wl.untimed_facts(outcome)
    record["jobs"] = wl.jobs()
    return outcome


def _trace(wl, record: dict, ledger, out_dir: pathlib.Path) -> dict:
    from repro.obs import InMemoryAggregator, get_tracer
    from repro.obs.report import kernel_totals

    import spans

    stem = f"{wl.name}-seed{wl.seed}"
    rec = spans.SpanRecorder(run_id=f"{stem}-pid{os.getpid()}")
    agg = get_tracer().add_sink(InMemoryAggregator())
    rec.install()
    try:
        outcome = _solve(wl, record)
    finally:
        rec.uninstall()
        get_tracer().remove_sink(agg)
    out_dir.mkdir(parents=True, exist_ok=True)
    rec.write(out_dir / f"{stem}.spans.jsonl")
    record["layers"] = spans.per_layer_metrics(
        rec, outcome, record["solve_s"], ledger.total_counted_flops()
    )
    kernels = kernel_totals(agg)
    total = sum(kernels.values()) or 1.0
    for k in ("EP", "CF"):
        record["layers"][f"obs.table3.{k.lower()}_share"] = kernels.get(k, 0.0) / total
    record["reproscope"] = {
        "EP": agg.total_seconds("EP"), "CF": agg.total_seconds("CF"),
    }
    shape = wl.model_shape()
    if shape is not None:
        table = model_table(agg, shape)
        (out_dir / f"{stem}.table3.json").write_text(json.dumps(table, indent=1))
        record["table3"] = table
    return outcome


def model_table(agg, shape: dict) -> dict:
    """Measured Table-3 kernel shares next to ``perfmodel``'s modeled ones."""
    from repro.hpc.machine import FRONTIER
    from repro.hpc.perfmodel import kernel_times
    from repro.obs.report import model_vs_measured

    rows = model_vs_measured(kernel_times(FRONTIER, nodes=1, **shape), agg)
    modeled = sum(r["modeled_s"] for r in rows) or 1.0
    measured = sum(r["measured_s"] for r in rows) or 1.0
    return {
        "columns": {
            "modeled_share": "modeled: repro.hpc.perfmodel.kernel_times, "
                             "one Frontier node, this workload's size",
            "measured_share": "measured: reproscope spans of the traced run "
                              "on this host",
        },
        "shape": shape,
        "rows": [
            {"kernel": r["kernel"],
             "modeled_share": r["modeled_s"] / modeled,
             "measured_share": r["measured_s"] / measured,
             "measured_s": r["measured_s"]}
            for r in rows
        ],
    }


def main(argv: list[str]) -> int:
    mode, name, seed, spawned_at = argv[:4]
    seed, spawned_at = int(seed), float(spawned_at)

    import workloads

    wl = workloads.WORKLOADS[name](seed)
    if mode == "reference":
        print(json.dumps(wl.reference()))
        return 0
    for module in wl.MODULES:
        importlib.import_module(module)
    record = {"import_s": time.monotonic() - spawned_at}
    ledger = None
    if mode == "trace":
        from repro.hpc.flops import FlopLedger

        ledger = FlopLedger()
    wl.setup(ledger=ledger)
    record["setup_s"] = time.monotonic() - spawned_at
    try:
        if mode == "solve":
            record["outcome"] = _solve(wl, record)
        elif mode == "trace":
            record["outcome"] = _trace(wl, record, ledger, pathlib.Path(argv[4]))
    finally:
        wl.close()
    record["rss_mb"] = _rss_mb()
    record["env"] = environment()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
