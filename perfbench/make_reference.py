"""Record perfbench/reference.json: the outputs the benchmark checks against.

Run from the repository root, single-threaded:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_reference.py

Re-record only when a change is meant to alter results, and name that change
in CHANGES.md: the file is what makes a faster but wrong program fail.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys
from pathlib import Path

import checks
from workloads import CONFIG, WORKLOADS, basis_fit

from darkbus import cli

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    work = ROOT / ".perfbench" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = cli.load_config(str(CONFIG))
    ref = {}
    for workload in WORKLOADS.values():
        for step in workload.steps:
            if step.command is None:
                fit = basis_fit(*cli.resolve("tomo-demo", cfg, step.scenario)[1:])
                ref[step.id] = {"fidelity": fit.fidelity, "alpha": fit.basis.alpha,
                                "theta_k": fit.basis.theta_k, "theta_r": fit.basis.theta_r}
                continue
            out = work / step.id
            with contextlib.redirect_stdout(sys.stderr):
                if cli.main(step.argv(0, out)) != 0:
                    raise SystemExit(f"{step.id} failed")
            manifest = json.loads((out / "manifest.json").read_text())
            ref[step.id] = {
                "csvs": {
                    name: checks.csv_reference(out / name)
                    for name in manifest["outputs"] if name not in checks.SEEDED_CSVS
                },
                "summary": checks.summary_reference(manifest["summary"]),
            }
    checks.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
