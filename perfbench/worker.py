"""One benchmark pass in a fresh process; started by run.py, never by hand.

Modes:
  setup  import darkbus.cli and resolve the workload's step list, then stop
  pass   also run every step, timed, and check its outputs; the host-speed
         probe (probe.py) runs alongside
  trace  like pass, but with spans recorded around darkbus's public
         functions instead of the probe

The result file holds the set-up time (from the parent's spawn timestamp,
on the system-wide monotonic clock, to the resolved step list), per-step
times and check failures, the pass's peak RSS and its environment.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    with open("/proc/self/maps") as f:
        paths = {ln.split()[-1] for ln in f if "openblas" in ln.lower() and ln.split()[-1].startswith("/")}
    out = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    def blas(show_config):
        dep = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_numpy": blas(numpy.show_config),
        "blas_scipy": blas(scipy.show_config),
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_steps(workload, resolved, seed: int, work: Path, ref: dict) -> list[dict]:
    from darkbus import cli

    import checks
    from workloads import basis_fit

    records = []
    for rep in range(workload.reps):
        for step in workload.steps:
            out = work / step.id
            rec = {"id": step.id, "rep": rep, "errors": []}
            rec["t0"] = t0 = time.perf_counter()
            try:
                if step.command is None:
                    fit = basis_fit(*resolved[step.id][1:])
                    rc = 0
                else:
                    rc = cli.main(step.argv(seed, out))
            except Exception:
                rc = None
                rec["errors"].append(traceback.format_exc(limit=3))
            rec["t1"] = time.perf_counter()
            if rc != 0:
                rec["errors"].append(f"exit code {rc}")
            elif step.command is None:
                rec["errors"] += checks.check_basis_fit(fit, ref[step.id])
            else:
                manifest, errors = checks.check_cli_step(out, step.command, seed, ref[step.id])
                rec["errors"] += errors
                rec["sha256"] = manifest.get("sha256", {})
                if step.id == workload.fidelity_step:
                    rec["fidelity"] = manifest.get("summary", {}).get(workload.fidelity_key)
            records.append(rec)
    return records


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    args = ap.parse_args()

    # The host-speed probe (probe.py) runs from here on; darkbus imports
    # numpy, the probe's one dependency, anyway.
    from probe import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    from darkbus import cli

    from workloads import CONFIG, WORKLOADS

    workload = WORKLOADS[args.workload]
    cfg = cli.load_config(str(CONFIG))
    resolved = {s.id: cli.resolve(s.command or "tomo-demo", cfg, s.scenario) for s in workload.steps}
    ready = time.perf_counter()  # CLOCK_MONOTONIC, the clock of --spawned
    if args.mode != "pass":
        probe.stop()  # traced passes run without it: it would land inside spans

    # "*_s": wall time without the probe's own; "norm_*": at the probe's
    # reference host speed
    result = {"setup_s": ready - args.spawned - probe.probe_time(args.spawned, ready)}
    if args.mode != "setup":
        import checks

        tracer = None
        if args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        ref = json.loads(checks.REFERENCE.read_text())
        with open(args.work / "cli.log", "w") as log, contextlib.redirect_stdout(log):
            result["steps"] = run_steps(workload, resolved, args.seed, args.work, ref)
        if args.mode == "pass":
            probe.stop()
        for r in result["steps"]:
            t0, t1 = r.pop("t0"), r.pop("t1")
            r["s"] = t1 - t0 - probe.probe_time(t0, t1)
            if args.mode == "pass":
                r["norm_s"] = probe.normalized(t0, t1)
        result["wall_s"] = sum(r["s"] for r in result["steps"])
        if args.mode == "pass":
            result["norm_wall_s"] = sum(r["norm_s"] for r in result["steps"])
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["environment"] = environment()
        if tracer is not None:
            (args.work / "spans.json").write_text(json.dumps({"pass": args.work.name, "spans": tracer.spans}))

    result["norm_setup_s"] = probe.normalized(args.spawned, ready)
    result["probe"] = {"samples": len(probe.durations), "median_s": statistics.median(probe.durations)}
    (args.work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
