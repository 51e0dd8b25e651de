"""The package namespace: every name it exports resolves, the scripts
built on the library use only its public names, and every committed
benchmark record holds clean runs of every workload."""

import ast
import json
from pathlib import Path

import pytest

import darkbus

ROOT = Path(__file__).resolve().parents[1]
MODULES = {p.stem for p in (ROOT / "src" / "darkbus").glob("*.py")} - {"__init__"}


def test_every_exported_name_resolves():
    """Each name in ``darkbus.__all__`` appears once and is an attribute of
    the package, and ``from darkbus import *`` binds exactly those names."""
    assert len(set(darkbus.__all__)) == len(darkbus.__all__)
    assert [name for name in darkbus.__all__ if not hasattr(darkbus, name)] == []
    namespace = {}
    exec("from darkbus import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(darkbus.__all__)


def _private_reads(path: Path) -> list[str]:
    """Each ``_``-prefixed (not dunder) attribute the script reads of a
    darkbus module, or imports from one, as ``file:line name``."""
    tree = ast.parse(path.read_text(), str(path))
    bound = set()  # the names the script binds to darkbus modules
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or "darkbus" for a in node.names if a.name.split(".")[0] == "darkbus"}
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "darkbus"):
            bound |= {a.asname or a.name for a in node.names if a.name in MODULES}

    def is_module(node):
        if isinstance(node, ast.Name):
            return node.id in bound
        return isinstance(node, ast.Attribute) and node.attr in MODULES and is_module(node.value)

    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr) and is_module(node.value):
            found.append(f"{path.name}:{node.lineno} {node.attr}")
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "darkbus"
        ):
            found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if private(a.name)]
    return found


SCRIPTS = [ROOT / "src" / "darkbus" / "cli.py", *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "tools").glob("*.py"))]


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_reads_no_private_darkbus_name(path):
    """The CLI, the demos and the tools reach the library through its
    public names only: none reads a ``_``-prefixed attribute of a darkbus
    module or imports one from it."""
    assert _private_reads(path) == []


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_record_holds_clean_runs_of_every_workload(path):
    """Each committed ``BENCH_*.json`` parses and holds the benchmark's three
    workloads, each with an untraced (``end_to_end``) and a traced
    (``per_layer``) run that exited 0 with ``correct`` true."""
    record = json.loads(path.read_text())
    assert sorted(record["workloads"]) == ["linear-network", "master-equation", "tomography"]
    for name, runs in record["workloads"].items():
        for kind in ("end_to_end", "per_layer"):
            assert runs[kind]["exit"] == 0 and runs[kind]["correct"] is True, (name, kind)
