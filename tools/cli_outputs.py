"""Write every output of the darkbus CLI that a byte-identity check compares.

    python3 tools/cli_outputs.py OUT

Runs the ten commands at their defaults into ``OUT/defaults/<command>``,
then each scenario of ``perfbench/workloads.yaml`` with the command it
configures into ``OUT/scenarios/<scenario>``, all through
``darkbus.cli.main`` in this process with ``--seed 3 --gnuplot``.  The
config path is passed relative to the repository root, so manifests written
from two checkouts record the same path.  Each manifest loses ``timestamp``
and ``elapsed_s``, the two fields that differ from run to run; everything
else a command writes is a function of its settings and the seed.

``darkbus`` is imported from ``PYTHONPATH``, so two versions of the library
compare file by file:

    PYTHONPATH=/path/to/other/src python3 tools/cli_outputs.py /tmp/before
    PYTHONPATH=src python3 tools/cli_outputs.py /tmp/after
    diff -r /tmp/before /tmp/after
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import yaml

from darkbus import cli

ROOT = Path(__file__).resolve().parents[1]
CONFIG = "perfbench/workloads.yaml"  # relative to ROOT
SEED = 3


def runs() -> dict[str, list[str]]:
    """The argv of every run, by its output directory relative to OUT."""
    out = {f"defaults/{command}": [command] for command in cli.COMMANDS}
    scenarios = yaml.safe_load((ROOT / CONFIG).read_text())["scenarios"]
    for name, block in scenarios.items():
        (command,) = set(block) & set(cli.COMMANDS)
        out[f"scenarios/{name}"] = [command, "--config", CONFIG, "--scenario", name]
    return out


def write_outputs(out: Path) -> list[Path]:
    """Write every run into ``out``; returns the files written, sorted."""
    out = Path(out).resolve()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for rel, argv in runs().items():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*argv, "--seed", str(SEED), "--gnuplot", "--out", str(out / rel)])
            if code != 0:
                raise RuntimeError(f"darkbus {' '.join(argv)} exited {code}")
            manifest = out / rel / "manifest.json"
            record = json.loads(manifest.read_text())
            for key in ("timestamp", "elapsed_s"):
                del record[key]
            manifest.write_text(json.dumps(record, indent=2) + "\n")
    finally:
        os.chdir(cwd)
    return sorted(p for p in out.rglob("*") if p.is_file())


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 1:
        print("usage: python3 tools/cli_outputs.py OUT", file=sys.stderr)
        return 2
    files = write_outputs(Path(args[0]))
    print(f"wrote {len(files)} files under {args[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
