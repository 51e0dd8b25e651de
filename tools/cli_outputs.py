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

and value by value:

    PYTHONPATH=src python3 tools/cli_outputs.py --diff /tmp/before /tmp/after

prints one line per CSV cell and manifest value that differs, as file,
column (or manifest key), row and old -> new, and marks each number outside
the tolerance of ``perfbench/checks.close`` for its column.  Values that
depend on the seed (``checks.SEEDED_CSVS`` and ``checks.SEEDED_SUMMARY``)
are checked there by invariants, not against a tolerance: they are marked
``[seeded]`` instead, and do not set the exit status.  A file present
in one tree only, a changed CSV header or row count, and any other file
whose bytes differ get a line each.  The manifests' ``sha256`` digests are
left out: they follow from the bytes of the CSVs compared cell by cell.
Identical trees print nothing; the exit status is 1 when a line is marked,
also when the reader closes the output early (``--diff A B | head``): the
lines left unread are dropped without a traceback.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
from pathlib import Path

import yaml

from darkbus import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
from perfbench import checks  # noqa: E402  (read-only: its tolerances)

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


OUTSIDE = "  [outside perfbench tolerance]"
SEEDED = "  [seeded]"


def _moved(where: str, key: str, old, new, seeded: bool = False) -> str:
    """One changed value; marked seeded, or else when the two are not
    numbers within ``checks.close`` for ``key``."""
    line = f"{where}: {old} -> {new}"
    if seeded:
        return line + SEEDED
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    return line if numbers and checks.close(new, old, key) else line + OUTSIDE


def _leaves(value, path: str = ""):
    """(dotted key path, value) of every leaf of a JSON document."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        yield path, value
        return
    for k, v in items:
        yield from _leaves(v, f"{path}.{k}" if path else str(k))


def _diff_csv(rel: str, before: Path, after: Path) -> list[str]:
    (h0, *rows0), (h1, *rows1) = (
        list(csv.reader(p.read_text().splitlines())) for p in (before, after)
    )
    if h0 != h1 or len(rows0) != len(rows1):
        return [f"{rel}: header or row count differs{OUTSIDE}"]
    seeded = Path(rel).name in checks.SEEDED_CSVS
    return [
        _moved(f"{rel} {col} row {i}", col, checks._number(a), checks._number(b), seeded)
        for i, (r0, r1) in enumerate(zip(rows0, rows1))
        for col, a, b in zip(h0, r0, r1)
        if a != b
    ]


def _diff_manifest(rel: str, before: Path, after: Path) -> list[str]:
    old, new = (dict(_leaves(json.loads(p.read_text()))) for p in (before, after))
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key.startswith("sha256.") or old.get(key, ...) == new.get(key, ...):
            continue
        if key not in old or key not in new:
            lines.append(f"{rel} {key}: only in {'after' if key in new else 'before'}{OUTSIDE}")
        else:
            block, _, name = key.partition(".")
            seeded = block == "summary" and name in checks.SEEDED_SUMMARY
            lines.append(_moved(f"{rel} {key}", key.rsplit(".", 1)[-1], old[key], new[key], seeded))
    return lines


def diff_outputs(before: Path, after: Path) -> list[str]:
    """Every difference between two trees that :func:`write_outputs` wrote."""
    before, after = Path(before), Path(after)
    names = [
        {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}
        for root in (before, after)
    ]
    lines = []
    for rel in sorted(names[0] | names[1]):
        b, a = before / rel, after / rel
        if rel not in names[0] or rel not in names[1]:
            lines.append(f"{rel}: only in {'after' if rel in names[1] else 'before'}{OUTSIDE}")
        elif rel.endswith(".csv"):
            lines += _diff_csv(rel, b, a)
        elif rel.endswith("manifest.json"):
            lines += _diff_manifest(rel, b, a)
        elif b.read_bytes() != a.read_bytes():
            lines.append(f"{rel}: bytes differ{OUTSIDE}")
    return lines


def main() -> int:
    args = sys.argv[1:]
    if len(args) == 3 and args[0] == "--diff":
        lines = diff_outputs(Path(args[1]), Path(args[2]))
        if lines:  # cli._say stops quietly where the reader closes stdout early
            cli._say("\n".join(lines), flush=True)
        return int(any(line.endswith(OUTSIDE) for line in lines))
    if len(args) != 1:
        print("usage: python3 tools/cli_outputs.py OUT | --diff BEFORE AFTER", file=sys.stderr)
        return 2
    files = write_outputs(Path(args[0]))
    print(f"wrote {len(files)} files under {args[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
