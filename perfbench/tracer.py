"""Spans around darkbus's public functions, recorded from outside the package.

``install`` wraps every public function of the traced modules and rebinds
each reference to it that the package holds: the module attribute, names
bound elsewhere by ``from ... import``, and the CLI's command table.  The
CLI's ``RunContext.write_csv`` method is wrapped too.  Nothing under ``src/``
is edited; an untraced pass never calls ``install``.

Spans are (name, start, end, parent index, annotation) lists kept in memory
and written out once, when the pass ends.  The tracer assumes one thread,
which holds because every pass runs the CLI with ``--threads 1``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("hilbert", "codes", "dynamics", "protocol", "tomography", "errorbudget", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._wigner_seen: set = set()

    def wrap(self, name: str, fn, annotate=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if annotate is not None:
                span[4] = annotate(args, kwargs, out)
            return out

        return traced

    # -- annotations: the counts the per-layer metrics need, taken from the
    #    public arguments and results after the span has closed.  They use
    #    numpy and darkbus classes only, never a wrapped function.

    def _wigner_cold(self, args, kwargs, out):
        from darkbus.tomography import WignerGrid

        state = np.asarray(getattr(args[0], "data", args[0]))
        grid = (args[1] if len(args) > 1 else kwargs.get("grid")) or WignerGrid.default()
        key = (state.shape[0], hashlib.sha256(grid.betas.tobytes()).hexdigest())
        cold = key not in self._wigner_seen
        self._wigner_seen.add(key)
        return {"cold": cold}

    @staticmethod
    def _lindblad_drift(args, kwargs, out):
        state0 = args[2] if len(args) > 2 else kwargs["state0"]
        return {"drift": abs(_trace(out.final) - _trace(state0))}

    @staticmethod
    def _mle(args, kwargs, out):
        return {"iterations": int(out.n_iter), "converged": bool(out.converged)}

    @staticmethod
    def _basis_fit(args, kwargs, out):
        return {"success": bool(out.success)}

    @staticmethod
    def _csv_bytes(args, kwargs, out):
        return {"bytes": os.path.getsize(out)}

    def install(self) -> None:
        annotations = {
            "tomography.wigner_map": self._wigner_cold,
            "dynamics.lindblad_evolve": self._lindblad_drift,
            "tomography.mle_density": self._mle,
            "tomography.optimize_basis": self._basis_fit,
        }
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"darkbus.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped[obj] = self.wrap(name, obj, annotations.get(name))

        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "darkbus" and not mod_name.startswith("darkbus."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

        cli = sys.modules["darkbus.cli"]
        for command, (runner, defaults) in list(cli.COMMANDS.items()):
            cli.COMMANDS[command] = (wrapped.get(runner, runner), defaults)
        cli.RunContext.write_csv = self.wrap("cli.write_csv", cli.RunContext.write_csv, self._csv_bytes)


def _trace(state) -> float:
    # computed here rather than with darkbus.hilbert, whose functions are
    # wrapped and would add spans of their own
    a = np.asarray(getattr(state, "data", state))
    return float(np.vdot(a, a).real) if a.ndim == 1 else float(np.trace(a).real)


def _is_runner(name: str) -> bool:
    return name.startswith("cli.cmd_")


def summarize(spans: list[list]) -> dict:
    """Per-layer metrics of one traced pass, from its spans."""
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    self_s = defaultdict(float)
    calls = defaultdict(int)
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s[name] += (end - start) - child_time[i]
        calls[name] += 1

    def layer_total(layer, table):
        return sum(v for k, v in table.items() if k.split(".")[0] == layer)

    def ann(name, key):
        return [s[4][key] for s in spans if s[0] == name and s[4] is not None]

    def under(i, ancestor):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == ancestor:
                return True
            p = spans[p][3]
        return False

    lindblad_in_transfer = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "dynamics.lindblad_evolve" and under(i, "dynamics.transfer_efficiency")
    )
    runner_time = defaultdict(float)  # per cli.main span: its runner's duration
    for name, start, end, parent, _ in spans:
        if _is_runner(name) and parent >= 0 and spans[parent][0] == "cli.main":
            runner_time[parent] += end - start
    cli_overhead = sum(
        (s[2] - s[1]) - runner_time[i] for i, s in enumerate(spans) if s[0] == "cli.main"
    )

    mle_iters = sum(ann("tomography.mle_density", "iterations"))
    mle_calls = calls["tomography.mle_density"]
    fit_calls = calls["tomography.optimize_basis"]

    out = {}
    for layer in ("hilbert", "codes"):
        out[f"{layer}.self_s"] = layer_total(layer, self_s)
        out[f"{layer}.calls"] = layer_total(layer, calls)
    out["dynamics.self_s"] = layer_total("dynamics", self_s)
    out["dynamics.lindblad_evolve.self_s"] = self_s["dynamics.lindblad_evolve"]
    out["dynamics.lindblad_evolve.calls"] = calls["dynamics.lindblad_evolve"]
    out["dynamics.lindblad_evolve.trace_drift_max"] = max(ann("dynamics.lindblad_evolve", "drift"), default=0.0)
    out["dynamics.transfer_efficiency.self_s"] = self_s["dynamics.transfer_efficiency"]
    out["dynamics.transfer_efficiency.evals"] = lindblad_in_transfer // 2
    out["dynamics.linear_propagator.self_s"] = self_s["dynamics.linear_propagator"]
    out["dynamics.linear_propagator.calls"] = calls["dynamics.linear_propagator"]
    out["dynamics.propagate_coherent.self_s"] = self_s["dynamics.propagate_coherent"]
    out["protocol.self_s"] = layer_total("protocol", self_s)
    out["protocol.run_dmm.self_s"] = self_s["protocol.run_dmm"]
    out["protocol.run_dmm.calls"] = calls["protocol.run_dmm"]
    out["protocol.avg_qst_fidelity.self_s"] = self_s["protocol.avg_qst_fidelity"]
    out["protocol.teleport.self_s"] = self_s["protocol.teleport"]
    out["protocol.phase_sweep.self_s"] = self_s["protocol.phase_sweep"]
    out["protocol.dual_rail_dmm.self_s"] = self_s["protocol.dual_rail_dmm"]
    out["tomography.self_s"] = layer_total("tomography", self_s)
    out["tomography.wigner_map.self_s"] = self_s["tomography.wigner_map"]
    out["tomography.wigner_map.cold_calls"] = sum(ann("tomography.wigner_map", "cold"))
    out["tomography.mle_density.self_s"] = self_s["tomography.mle_density"]
    out["tomography.mle_density.iterations"] = mle_iters
    out["tomography.mle_density.s_per_iter"] = self_s["tomography.mle_density"] / mle_iters if mle_iters else 0.0
    out["tomography.mle_density.converged_ratio"] = (
        sum(ann("tomography.mle_density", "converged")) / mle_calls if mle_calls else 0.0
    )
    out["tomography.optimize_basis.self_s"] = self_s["tomography.optimize_basis"]
    out["tomography.optimize_basis.success_ratio"] = (
        sum(ann("tomography.optimize_basis", "success")) / fit_calls if fit_calls else 0.0
    )
    out["errorbudget.self_s"] = layer_total("errorbudget", self_s)
    out["cli.self_s"] = layer_total("cli", self_s)
    out["cli.overhead_s"] = cli_overhead
    out["cli.write_csv.self_s"] = self_s["cli.write_csv"]
    out["cli.csv_bytes"] = sum(ann("cli.write_csv", "bytes"))
    out["trace.spans"] = n
    out["trace.span_s"] = sum(s[2] - s[1] for s in spans if s[3] < 0)
    return out


# Per-layer counts that must repeat exactly between traced passes of one seed.
COUNTS = (
    "dynamics.lindblad_evolve.calls",
    "dynamics.transfer_efficiency.evals",
    "tomography.mle_density.iterations",
    "tomography.wigner_map.cold_calls",
    "cli.csv_bytes",
)
