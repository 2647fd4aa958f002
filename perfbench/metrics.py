"""The benchmark's metrics, and what each per-layer metric should move.

``BENCHMARK.json`` lists the same names; ``selftest.py`` checks that the
two agree.  Per-layer entries are ``name: (unit, better, moves)``, where
*moves* names the end-to-end metric and workloads a change in the layer
should show up in — written down before any optimisation is measured.
"""

from __future__ import annotations

END_TO_END = {
    "setup_s": ("s", "lower"),
    "solve_s": ("s", "lower"),
    "jobs_per_hour": ("1/h", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

_EP = ("solve_s on mol_h2o and invdft_h2, jobs_per_hour on screen_dimers; "
       "little work, so no change, on alloy_kpts")
_APPLY = ("solve_s on alloy_kpts and invdft_h2 (inside MINRES), jobs_per_hour "
          "on screen_dimers; less on mol_h2o until EP shrinks")
_CF = "solve_s on alloy_kpts (4 k-point channels every iteration)"
_GUARD = "small everywhere; regression guard on every workload"
_INVDFT = "solve_s on invdft_h2 only"
_SCREEN = "jobs_per_hour on screen_dimers only"

PER_LAYER = {
    "fem.poisson.s": ("s", "lower", _EP),
    "fem.poisson.calls": ("count", "lower", _EP),
    "fem.poisson.cg_iters": ("count", "lower", _EP),
    "core.ep.s": ("s", "lower", _EP),
    "core.ep.self_s": ("s", "lower", _EP + " (multipole boundary values)"),
    "fem.ks_apply.s": ("s", "lower", _APPLY),
    "fem.ks_apply.calls": ("count", "lower", _APPLY),
    "fem.ks_apply.cols": ("count", "lower", _APPLY),
    "core.cf.s": ("s", "lower", _CF),
    "core.cf.calls": ("count", "lower", _CF),
    "core.lanczos.s": ("s", "lower", _CF),
    "core.lanczos.calls": ("count", "lower", _CF),
    "core.subspace.s": ("s", "lower", "solve_s on alloy_kpts"),
    "xc.s": ("s", "lower", "jobs_per_hour on screen_dimers"),
    "xc.calls": ("count", "lower", "jobs_per_hour on screen_dimers"),
    "core.dc.s": ("s", "lower", _GUARD),
    "core.mix.s": ("s", "lower", _GUARD),
    "core.scf.iterations": ("count", "lower", "solve_s on every SCF workload"),
    "core.scf.first_iter_s": ("s", "lower",
                              "solve_s; shows lazy set-up moving in or out"),
    "core.scf.iter_s": ("s", "lower", "solve_s on every SCF workload"),
    "invdft.iterations": ("count", "lower", _INVDFT),
    "invdft.adjoint.s": ("s", "lower", _INVDFT),
    "invdft.minres.s": ("s", "lower", _INVDFT),
    "invdft.minres.calls": ("count", "lower", _INVDFT),
    "invdft.minres.iters": ("count", "lower", _INVDFT),
    "qmb.integrals.s": ("s", "lower", _INVDFT),
    "qmb.fci.s": ("s", "lower", _INVDFT),
    "screen.seed_hit_frac": ("ratio", "higher", _SCREEN),
    "screen.iterations": ("count", "lower", _SCREEN),
    "screen.seed.s": ("s", "lower", _SCREEN),
    "screen.surrogate.s": ("s", "lower", _SCREEN),
    "serve.slice_s": ("s", "lower", _SCREEN),
    "serve.worker_busy_frac": ("ratio", "higher", _SCREEN),
    "hpc.ledger.flops": ("count", "lower",
                         "solve_s on mol_h2o, alloy_kpts and invdft_h2"),
    "hpc.ledger.gflops": ("GFLOP/s", "higher",
                          "solve_s on mol_h2o, alloy_kpts and invdft_h2"),
    "resilience.degradations": ("count", "lower", _GUARD),
    "repro.import_s": ("s", "lower", "setup_s on every workload"),
    "obs.trace_overhead_frac": ("ratio", "lower",
                                "none; the cost of the traced run's wrappers"),
    "obs.table3.ep_share": ("ratio", "lower", _EP),
    "obs.table3.cf_share": ("ratio", "lower", _CF),
    "obs.crosscheck.ep_rel": ("ratio", "lower",
                              "none; wrapper EP total vs reproscope EP spans"),
    "obs.crosscheck.cf_rel": ("ratio", "lower",
                              "none; wrapper CF total vs reproscope CF spans"),
}

#: counts that must repeat exactly for one commit and seed
DETERMINISTIC = (
    "core.scf.iterations", "screen.iterations", "fem.poisson.cg_iters",
    "invdft.minres.iters", "fem.ks_apply.cols", "hpc.ledger.flops",
)
