"""darkbus benchmark: time CLI workloads end to end, or trace them by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/`` as
checked out, so there is nothing to build.  Every pass is a fresh process,
started one at a time, with BLAS and OpenMP pinned to one thread: at the
library default on a 2-CPU machine the same command varies several-fold
between processes, which measures the scheduler rather than darkbus.

--trace 0  set-up-only processes, then untraced passes while the next one
           would end within S seconds of the start (at least three);
           prints the end-to-end metrics.  Pass times are scaled to a
           reference host speed by the probe in probe.py.
--trace 1  an untraced pass, two traced passes, then one traced pass at the
           library's default BLAS threading (information only, never
           gated), then more untraced/traced pairs while S seconds last;
           prints the per-layer metrics.

The last stdout line is the JSON result; the lines before it are the
environment and a table of every metric under the workload's own names.
The full record, with per-pass data, goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_ONLY = 2         # set-up-only processes per --trace 0 run, besides the passes
MIN_PASSES = 3
RUN_LIMIT_S = 170      # a run must end within 180 s


def child_env(pinned: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if pinned:
        env.update({v: "1" for v in THREAD_VARS})
    return env


class Runner:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.count = 0
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def out_of_time(self) -> bool:
        return time.monotonic() >= self.deadline

    def spawn(self, mode: str, pinned: bool = True) -> dict:
        """One fresh process; returns its result, or {"error": ...}."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return {"error": f"{mode} pass not started: run time limit reached"}
        self.count += 1
        pass_dir = self.work / f"{self.count:03d}-{mode}{'' if pinned else '-default-threads'}"
        pass_dir.mkdir()
        cmd = [sys.executable, str(BENCH / "worker.py"), "--mode", mode, "--workload", self.workload,
               "--seed", str(self.seed), "--work", str(pass_dir)]
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=child_env(pinned),
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"{mode} pass killed after {timeout:.0f} s: run time limit reached", "dir": pass_dir}
        result_file = pass_dir / "result.json"
        if proc.returncode != 0 or not result_file.exists():
            return {"error": f"{mode} pass exited {proc.returncode}: {proc.stderr[-2000:]}", "dir": pass_dir}
        result = json.loads(result_file.read_text())
        result["dir"] = pass_dir
        return result


def tally(passes: list[dict], per_pass: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over the steps of some passes."""
    attempted = failed = 0
    messages = []
    for p in passes:
        if "error" in p:
            attempted += per_pass
            failed += per_pass
            messages.append(p["error"])
            continue
        for rec in p["steps"]:
            attempted += 1
            if rec["errors"]:
                failed += 1
                messages.append(f"{rec['id']} (rep {rec['rep']}): " + "; ".join(rec["errors"]))
    return attempted, failed, messages


def steps_per_pass(wl) -> int:
    return wl.reps * len(wl.steps)


def step_times(passes: list[dict], step_id: str, key: str = "s") -> list[float]:
    return [r[key] for p in passes if "steps" in p for r in p["steps"] if r["id"] == step_id]


def med(values) -> float:
    """Median; 0.0 when every pass failed (the result then reads correct: false)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def median_of(passes: list[dict], key: str) -> float:
    return med(p[key] for p in passes if key in p)


def end_to_end(runner: Runner, wl, seconds: float) -> tuple[dict, list[dict], dict]:
    t_run = time.monotonic()
    runner.spawn("setup")  # warm-up: byte-compiles the sources, fills the file cache
    setups = [runner.spawn("setup") for _ in range(SETUP_ONLY)]
    passes = []
    t0 = time.monotonic()
    while True:
        passes.append(runner.spawn("pass"))
        now = time.monotonic()
        next_end = now - t_run + (now - t0) / len(passes)
        if runner.out_of_time() or (len(passes) >= MIN_PASSES and next_end > seconds):
            break
    raw_setup_s = [p["setup_s"] for p in setups + passes if "setup_s" in p]
    setup_s = [p["norm_setup_s"] for p in setups + passes if "norm_setup_s" in p]
    good = [p for p in passes if "steps" in p]
    attempted, failed, _ = tally(passes, steps_per_pass(wl))
    # every time is scaled to the probe's reference host speed (probe.py)
    metrics = {
        "setup_s": (med(setup_s), "s"),
        "wall_s": (median_of(good, "norm_wall_s"), "s"),
        "main_step_s": (med(step_times(good, wl.main_step, "norm_s")), "s"),
        "peak_rss_mb": (median_of(good, "peak_rss_mb"), "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
        "fidelity": (med(r["fidelity"] for p in good for r in p["steps"] if r.get("fidelity") is not None), "1"),
    }
    samples = {"setup_s": len(setup_s), "wall_s": len(good), "step": len(step_times(good, wl.main_step))}
    steps = {s.metric: med(step_times(good, s.id, "norm_s")) for s in wl.steps}
    raw = {"setup_s": med(raw_setup_s), "wall_s": median_of(good, "wall_s"),
           "main_step_s": med(step_times(good, wl.main_step)),
           "probe_median_s": median_of([p["probe"] for p in setups + passes if "probe" in p], "median_s")}
    return metrics, passes, {"samples": samples, "setup_s": setup_s, "steps": steps, "raw": raw}


def unit_of(name: str) -> str:
    if name.endswith(("_s", "s_per_iter")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("trace_drift_max"):
        return "1"
    return "bytes" if name.endswith("_bytes") else "count"


def per_layer(runner: Runner, wl, seconds: float) -> tuple[dict, list[dict], dict]:
    from tracer import COUNTS, LAYERS, summarize

    t0 = time.monotonic()
    plain = [runner.spawn("pass")]
    traced = [runner.spawn("trace"), runner.spawn("trace")]
    default = runner.spawn("trace", pinned=False)
    while True:
        elapsed = time.monotonic() - t0
        if runner.out_of_time() or elapsed + 2 * elapsed / (len(plain) + len(traced) + 1) > seconds:
            break
        plain.append(runner.spawn("pass"))
        traced.append(runner.spawn("trace"))

    def layers(p):
        return summarize(json.loads((p["dir"] / "spans.json").read_text())["spans"])

    good = [p for p in traced if "steps" in p]
    good_plain = [p for p in plain if "steps" in p]
    summaries = [layers(p) for p in good]
    metrics = {}
    for name in summaries[0] if summaries else ():
        if name != "trace.span_s":
            value = statistics.median(s[name] for s in summaries)
            metrics[name] = (int(value) if isinstance(value, int) else value, unit_of(name))
    wall_t, wall_u = median_of(good, "wall_s"), median_of(good_plain, "wall_s")
    metrics["trace.wall_s"] = (wall_t, "s")
    metrics["trace.overhead_s"] = (wall_t - wall_u, "s")
    metrics["trace.unspanned_s"] = (med(p["wall_s"] - s["trace.span_s"] for p, s in zip(good, summaries)), "s")
    metrics["trace.count_mismatches"] = (sum(len({s[c] for s in summaries}) > 1 for c in COUNTS), "count")

    # the program's CSV bytes must not depend on tracing
    digests = {r["id"]: r.get("sha256") for p in good_plain for r in p["steps"]}
    for p in good:
        for r in p["steps"]:
            if r.get("sha256") != digests.get(r["id"]):
                r["errors"].append("CSV bytes differ between traced and untraced passes")

    info = {"samples": {"traced": len(good), "untraced": len(good_plain)},
            "counts_per_pass": {c: [s[c] for s in summaries] for c in COUNTS}}
    if summaries:
        total = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
        shares = {layer: metrics[f"{layer}.self_s"][0] / total for layer in LAYERS}
        shares["lindblad_evolve+transfer_efficiency"] = (
            metrics["dynamics.lindblad_evolve.self_s"][0]
            + metrics["dynamics.transfer_efficiency.self_s"][0]) / total
        info["self_share"] = shares
    if "steps" in default:
        info["default_threads"] = {
            "wall_s": default["wall_s"],
            "steps": {s.id: med(step_times([default], s.id)) for s in wl.steps},
            "blas_threads": default["environment"]["blas_threads"],
            "failures": tally([default], steps_per_pass(wl))[2],
            "layers": layers(default),
        }
    else:
        info["default_threads"] = {"error": default.get("error")}
    return metrics, plain + traced, info


def main() -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "darkbus" / "cli.py").is_file():
        print(f"perfbench: no darkbus sources at {SRC}; run from a darkbus checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    runs = ROOT / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    work = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir()
    runner = Runner(args.workload, args.seed, work)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, passes, info = measure(runner, wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, messages = tally(passes, steps_per_pass(wl))
    env = next((p["environment"] for p in passes if "environment" in p), {})
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "metrics": {k: v for k, (v, _) in metrics.items()},
        "passes": [{k: v for k, v in p.items() if k not in ("dir", "environment")} for p in passes],
        "failures": messages, "info": info,
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print("environment " + json.dumps(env))
    names = {"main_step_s": next(s.metric for s in wl.steps if s.id == wl.main_step),
             "fidelity": wl.fidelity_key}
    for name, (value, unit) in metrics.items():
        alias = f"  [{names[name]}]" if name in names else ""
        print(f"metric {args.workload:16s} {name:44s} {value:14.6g} {unit}{alias}")
    for name, value in info.get("steps", {}).items():
        print(f"step   {args.workload:16s} {name:44s} {value:14.6g} s  [median per call]")
    print(f"metric {args.workload:16s} {'fail_ratio':44s} {failed / max(attempted, 1):14.6g} ratio"
          f"  [{failed} of {attempted} steps]")
    for key, value in info.items():
        print(f"info {key} " + json.dumps(value))
    for m in messages[:20]:
        print("failure " + m.replace("\n", " | "))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
