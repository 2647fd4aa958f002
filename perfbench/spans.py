"""Layer spans for the traced run, recorded from outside the program.

:class:`SpanRecorder` wraps the public functions and methods of each layer
(the table :data:`LAYERS`, named after the ``repro`` modules) for the
duration of one solve.  Every call becomes a span — name, start, end,
parent span, run id, thread — kept in memory and written out as JSON lines
when the run ends; self times come from the spans alone.

A function is rebound in *every* loaded ``repro`` module that imported it
by name (``scf.py`` binds ``chebyshev_filter`` with ``from .chebyshev
import ...``), not only in the module that defines it; patching only the
defining module would miss those calls.  Methods are rebound on their
class and on every loaded subclass that overrides them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from typing import Any, Callable


def _cols(counts: dict, args: tuple, kwargs: dict, out: Any) -> None:
    x = args[1] if len(args) > 1 else kwargs["X"]
    counts["cols"] = 1 if x.ndim == 1 else int(x.shape[1])


def _iterations(key: str) -> Callable:
    def observe(counts: dict, args: tuple, kwargs: dict, out: Any) -> None:
        counts[key] = int(out.iterations)

    return observe


def _scf(counts: dict, args: tuple, kwargs: dict, out: Any) -> None:
    counts["iterations"] = int(out.n_iterations)
    counts["degradations"] = len(out.degradation or ())
    counts["iteration_s"] = [float(h["seconds"]) for h in out.history]


#: layer -> (defining module, function or Class.method names, observer)
LAYERS: dict[str, tuple[str, tuple[str, ...], Callable | None]] = {
    "fem.poisson": ("repro.fem.poisson", ("PoissonSolver.solve",),
                    _iterations("cg_iters")),
    "core.ep": ("repro.core.hamiltonian", ("Electrostatics.solve",), None),
    "fem.ks_apply": ("repro.fem.assembly", ("KSOperator.apply",), _cols),
    "core.cf": ("repro.core.chebyshev", ("chebyshev_filter",), None),
    "core.lanczos": ("repro.core.chebyshev", ("lanczos_upper_bound",), None),
    "core.subspace.fused": ("repro.core.subspace", ("fused_cholgs_rr",), None),
    "core.subspace.cholgs": ("repro.core.orthonorm",
                             ("cholesky_orthonormalize",), None),
    "core.subspace.rr": ("repro.core.rayleigh_ritz", ("rayleigh_ritz",), None),
    "xc": ("repro.xc.base", ("XCFunctional.potential_and_energy",), None),
    "core.dc": ("repro.core.density", ("density_from_channels",), None),
    "core.mix": ("repro.core.mixing", ("AndersonMixer.mix",), None),
    "core.scf": ("repro.core.ksdft", ("DFTCalculation.run",), _scf),
    "invdft.adjoint": ("repro.invdft.adjoint", ("solve_adjoint",), None),
    "invdft.minres": ("repro.invdft.minres", ("block_minres",),
                      _iterations("iters")),
    "qmb.integrals": ("repro.qmb.integrals", ("compute_integrals",), None),
    "qmb.fci": ("repro.qmb.fci", ("FCISolver.ground_state",), None),
    "screen.seed": ("repro.screen.seeds", ("SeedStore.seed_for",
                                           "SeedStore.put"), None),
    "screen.surrogate": ("repro.screen.surrogate",
                         ("DensitySurrogate.add_sample", "DensitySurrogate.fit",
                          "DensitySurrogate.predict"), None),
    "serve.slice": ("repro.serve.runners", ("run_slice",), None),
}

#: span fields, in the order of a span record
FIELDS = ("id", "name", "start", "end", "parent", "run_id", "thread", "counts")


class SpanRecorder:
    """In-memory spans of one traced run (thread-safe)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            with self._lock:
                sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            counts: dict = {}
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if observe is not None:
                    observe(counts, args, kwargs, out)
                return out
            finally:
                t1 = clock()
                stack.pop()
                span = (sid, name, t0, t1, parent, self.run_id,
                        threading.get_ident(), counts)
                with self._lock:
                    self.spans.append(span)

        return wrapper

    def install(self) -> None:
        """Wrap every layer entry point in every module that binds it."""
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "repro" or n.startswith("repro.")]
        for layer, (module_name, targets, observe) in LAYERS.items():
            module = importlib.import_module(module_name)
            for target in targets:
                owner_name, _, attr = target.rpartition(".")
                if owner_name:
                    self._wrap_method(getattr(module, owner_name), attr,
                                      layer, observe)
                else:
                    self._wrap_function(module, attr, layer, observe, loaded)

    def _wrap_function(self, module, attr, layer, observe, loaded) -> None:
        original = getattr(module, attr)
        wrapper = self._wrap(layer, original, observe)
        for mod in {module, *loaded}:
            if getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def _wrap_method(self, cls, attr, layer, observe) -> None:
        classes = [cls]
        while classes:
            c = classes.pop()
            classes.extend(c.__subclasses__())
            if attr in vars(c):
                original = vars(c)[attr]
                self._patches.append((c, attr, original))
                setattr(c, attr, self._wrap(layer, original, observe))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------
    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(dict(zip(FIELDS, span))) + "\n")

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: outermost seconds, self seconds, calls, summed counts.

        ``s`` and ``calls`` count only spans with no ancestor of the same
        layer, so a layer that calls itself is not counted twice.
        """
        by_id = {s[0]: s for s in self.spans}
        child_s: dict[int, float] = {}
        for s in self.spans:
            if s[4]:
                child_s[s[4]] = child_s.get(s[4], 0.0) + (s[3] - s[2])
        out: dict[str, dict[str, float]] = {}
        for sid, name, t0, t1, parent, _, _, counts in self.spans:
            row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            row["self_s"] += (t1 - t0) - child_s.get(sid, 0.0)
            for key, value in counts.items():
                if isinstance(value, (int, float)):
                    row[key] = row.get(key, 0) + value
            p = parent
            while p and by_id[p][1] != name:
                p = by_id[p][4]
            if not p:
                row["s"] += t1 - t0
                row["calls"] += 1
        return out

    def counts(self, name: str, key: str) -> list:
        """Every value of one observed count, in call order."""
        return [s[7][key] for s in sorted(self.spans)
                if s[1] == name and key in s[7]]


def per_layer_metrics(
    rec: SpanRecorder, outcome: dict, solve_s: float, ledger_flops: float,
) -> dict[str, float]:
    """The benchmark's per-layer metrics of one traced solve."""
    t = rec.layer_totals()

    def get(layer: str, key: str = "s") -> float:
        return float(t.get(layer, {}).get(key, 0.0))

    first_s = [run[0] for run in rec.counts("core.scf", "iteration_s") if run]
    later_s = [x for run in rec.counts("core.scf", "iteration_s") for x in run[1:]]
    return {
        "fem.poisson.s": get("fem.poisson"),
        "fem.poisson.calls": get("fem.poisson", "calls"),
        "fem.poisson.cg_iters": get("fem.poisson", "cg_iters"),
        "core.ep.s": get("core.ep"),
        "core.ep.self_s": get("core.ep", "self_s"),
        "fem.ks_apply.s": get("fem.ks_apply"),
        "fem.ks_apply.calls": get("fem.ks_apply", "calls"),
        "fem.ks_apply.cols": get("fem.ks_apply", "cols"),
        "core.cf.s": get("core.cf"),
        "core.cf.calls": get("core.cf", "calls"),
        "core.lanczos.s": get("core.lanczos"),
        "core.lanczos.calls": get("core.lanczos", "calls"),
        "core.subspace.s": sum(
            get(k) for k in ("core.subspace.fused", "core.subspace.cholgs",
                             "core.subspace.rr")
        ),
        "xc.s": get("xc"),
        "xc.calls": get("xc", "calls"),
        "core.dc.s": get("core.dc"),
        "core.mix.s": get("core.mix"),
        "core.scf.iterations": get("core.scf", "iterations"),
        "core.scf.first_iter_s": statistics.median(first_s) if first_s else 0.0,
        "core.scf.iter_s": statistics.median(later_s) if later_s else 0.0,
        "invdft.iterations": float(outcome.get("iterations", 0))
        if "misfit" in outcome else 0.0,
        "invdft.adjoint.s": get("invdft.adjoint"),
        "invdft.minres.s": get("invdft.minres"),
        "invdft.minres.calls": get("invdft.minres", "calls"),
        "invdft.minres.iters": get("invdft.minres", "iters"),
        "qmb.integrals.s": get("qmb.integrals"),
        "qmb.fci.s": get("qmb.fci"),
        "screen.iterations": float(outcome.get("total_iterations", 0)),
        "screen.seed_hit_frac": _seed_hit_frac(outcome),
        "screen.seed.s": get("screen.seed"),
        "screen.surrogate.s": get("screen.surrogate"),
        "serve.slice_s": get("serve.slice"),
        "serve.worker_busy_frac": (
            get("serve.slice") / (2.0 * solve_s) if get("serve.slice") else 0.0
        ),
        "hpc.ledger.flops": float(ledger_flops),
        "hpc.ledger.gflops": ledger_flops / solve_s / 1e9,
        "resilience.degradations": get("core.scf", "degradations"),
    }


def _seed_hit_frac(outcome: dict) -> float:
    members = outcome.get("members")
    if not members:
        return 0.0
    non_anchor = len(members) - int(outcome.get("anchors", 1))
    seeded = sum(1 for m in members if m["source"] != "cold")
    return seeded / non_anchor if non_anchor > 0 else 0.0
