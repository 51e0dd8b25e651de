"""Record the benchmark's metrics for one tree in one JSON file.

    python3 tools/bench_record.py OUT [--seconds S] [--seed N] [--workload NAME ...]

Runs ``perfbench/run.py`` from the repository root once per workload
untraced (``--trace 0``, the end-to-end metrics and each step's median
time) and once traced (``--trace 1``, the per-layer metrics), one run after
the other, and writes OUT, by convention ``BENCH_<n>.json`` in the
repository root.  OUT holds, per workload, each run's command, exit
status, ``correct`` flag, metrics, step times and raw medians, and once
the environment that perfbench reports (CPU count, BLAS library and
threads, numpy version).

Some per-layer metrics read 0 whatever the code does, because the tracer
counts or times something that no longer runs; ``KNOWN_ZERO`` names them
with the reason, and ``read_zero`` lists, per workload, every per-layer
metric that read 0 in this record, so a reader can tell a layer that did
no work from one the tracer cannot see.

``setup_s`` and ``peak_rss_mb`` depend on whether the runs import darkbus
from bytecode or compile it from source, so OUT also records, as
``bytecode``, the cache state of the tree before the first run:
``PYTHONDONTWRITEBYTECODE`` as the runs see it (null where unset), and for
each ``src/darkbus/*.py`` whether an up-to-date ``.pyc`` existed, one at
``importlib.util.cache_from_source`` no older than the source.  Two
records compare on those two metrics only where these states match.

Nothing under ``perfbench/`` is edited; the runs write only what
``perfbench/run.py`` writes (``.perfbench/`` and ``__pycache__``).  To
compare two trees, run this tool in each, with the same seed and seconds.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("tomography", "master-equation", "linear-network")

# Per-layer metrics that read 0 however the code performs, and why.
KNOWN_ZERO = {
    "dynamics.transfer_efficiency.evals":
        "counts lindblad_evolve spans under transfer_efficiency, which no longer calls it",
    "tomography.wigner_map.self_s": "the function was retired; WignerMap builds the kernels",
    "tomography.wigner_map.cold_calls": "the function was retired; WignerMap builds the kernels",
    "protocol.teleport.self_s":
        "avg_qst_fidelity scores its inputs through a private path, and no step calls teleport",
    "dynamics.propagate_coherent.self_s": "the function was deleted",
    "codes.self_s": "the steps reach codes only through private functions, closures and methods",
    "codes.calls": "the steps reach codes only through private functions, closures and methods",
}


def parse_run(stdout: str) -> dict:
    """The environment, step times and final result of one
    ``perfbench/run.py`` run, from its standard output: the ``environment``
    line, the ``info steps`` and ``info raw`` lines (each step's median
    time and the raw, unscaled medians of an untraced run) and the JSON
    object on the last line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed nothing")
    result = json.loads(lines[-1])
    record = {"environment": {}, "correct": result["correct"],
              "metrics": {name: m["value"] for name, m in result["metrics"].items()}}
    for line in lines[:-1]:
        words = line.split(" ", 2)
        if words[0] == "environment":
            record["environment"] = json.loads(line.partition(" ")[2])
        elif words[0] == "info" and words[1] in ("steps", "raw"):
            record[words[1]] = json.loads(words[2])
    return record


def run(workload: str, trace: int, seed: int, seconds: float) -> dict:
    """One perfbench run, parsed, with its command and exit status."""
    cmd = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run([sys.executable, *cmd], cwd=ROOT, capture_output=True, text=True)
    record = {"command": " ".join(cmd), "exit": proc.returncode}
    try:
        record.update(parse_run(proc.stdout))
    except (ValueError, KeyError) as err:
        record["error"] = f"{err}: {proc.stderr[-2000:]}"
    return record


def bytecode_state(root: Path = ROOT) -> dict:
    """``PYTHONDONTWRITEBYTECODE`` as this process and the runs it starts
    see it, and for each ``src/darkbus/*.py`` of ``root``, by file name,
    whether its ``.pyc`` exists and is no older than the source."""
    fresh = {}
    for source in sorted((root / "src" / "darkbus").glob("*.py")):
        pyc = Path(importlib.util.cache_from_source(str(source)))
        fresh[source.name] = pyc.exists() and pyc.stat().st_mtime >= source.stat().st_mtime
    return {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"), "fresh_pyc": fresh}


def build_record(runs: dict, bytecode: dict) -> dict:
    """The file's content from the parsed runs, ``runs[workload]`` being
    the pair (untraced, traced), and the tree's ``bytecode`` state before
    them."""
    found = (r["environment"] for pair in runs.values() for r in pair if r.get("environment"))
    environment = next(found, {})
    workloads, read_zero = {}, {}
    for name, (plain, traced) in runs.items():
        for r in (plain, traced):
            r.pop("environment", None)
        workloads[name] = {"end_to_end": plain, "per_layer": traced}
        layers = traced.get("metrics", {})
        read_zero[name] = sorted(k for k, v in layers.items() if v == 0 and not k.startswith("trace."))
    return {"environment": environment, "bytecode": bytecode, "workloads": workloads,
            "known_zero": KNOWN_ZERO, "read_zero": read_zero}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out", type=Path)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args(argv)
    bytecode = bytecode_state()
    runs = {}
    for workload in args.workload or WORKLOADS:
        runs[workload] = tuple(run(workload, trace, args.seed, args.seconds) for trace in (0, 1))
        print(f"{workload}: " + ", ".join(
            f"trace {t} exit {r['exit']} correct {r.get('correct')}" for t, r in enumerate(runs[workload])))
    record = build_record(runs, bytecode)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    ok = all(r["exit"] == 0 and r.get("correct") for pair in runs.values() for r in pair)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
