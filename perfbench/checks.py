"""Output checks for every benchmark step.

Deterministic outputs are compared with ``reference.json``, recorded by
``make_reference.py`` from the CLI at the commit that introduced the
benchmark: every row's count, a spread of sampled rows and each column's sum.
Seeded outputs (tomo-demo's sampled Wigner map and its MLE) are checked by
invariants that hold for any seed.  A check returns a list of failure
messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

# Outputs that depend on --seed: checked by invariants, not against reference.
SEEDED_CSVS = {"wigner_sampled.csv"}
SEEDED_SUMMARY = {"mle_fidelity", "mle_iterations"}

# |value - reference| <= abs + rel * |reference|.  Each tolerance is no looser
# than the test suite's tolerance for the same quantity.
DEFAULT_TOL = (1e-12, 1e-9)       # closed forms: tests hold these to rel 1e-9..1e-12
TOLERANCES = {
    "fidelity": (1e-5, 0.0),      # test_run_dmm_engine_cross_check
    "distilled_fidelity": (1e-5, 0.0),
    "favg": (1e-5, 0.0),
    "resource_fidelity": (1e-5, 0.0),
    "best_fidelity": (1e-5, 0.0),
    "trace_distance": (1e-6, 0.0),  # a probability-like distance
    "eta": (0.0, 1e-5),           # test_transfer_efficiency_optimum
    "t1_s": (0.0, 1e-4),
    "t2_s": (0.0, 1e-4),
    "optimal_alpha": (1e-6, 0.0),  # test_optimal_alpha
    "response": (1e-9, 0.0),      # test_bright_mode_response atol
    "bright_residual": (1e-9, 0.0),
    "value": (1e-9, 0.0),         # Wigner values: test_wigner_map_coherent atol
}


def tolerance(column: str) -> tuple[float, float]:
    if column in TOLERANCES:
        return TOLERANCES[column]
    if column.startswith("f_"):
        return TOLERANCES["fidelity"]
    if column.startswith("p_"):
        return (1e-6, 0.0)            # probabilities, test_run_dmm_engine_cross_check
    return DEFAULT_TOL


def close(value: float, ref: float, column: str) -> bool:
    a, r = tolerance(column)
    return abs(value - ref) <= a + r * abs(ref)


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def read_csv(path: Path) -> tuple[list[str], list[list]]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], [[_number(c) for c in row] for row in rows[1:]]


def sample_indices(n: int, k: int = 40) -> list[int]:
    if n <= k:
        return list(range(n))
    return sorted({round(i * (n - 1) / (k - 1)) for i in range(k)})


def csv_reference(path: Path) -> dict:
    header, rows = read_csv(path)
    numeric = [all(isinstance(r[j], float) for r in rows) for j in range(len(header))]
    return {
        "header": header,
        "rows": len(rows),
        "sample": {str(i): rows[i] for i in sample_indices(len(rows))},
        "sums": [math.fsum(r[j] for r in rows) if numeric[j] else None for j in range(len(header))],
        "abs_sums": [math.fsum(abs(r[j]) for r in rows) if numeric[j] else None for j in range(len(header))],
    }


def summary_reference(summary: dict) -> dict:
    return {
        k: v for k, v in summary.items()
        if k not in SEEDED_SUMMARY and isinstance(v, (int, float)) and not isinstance(v, bool)
    }


def compare_csv(path: Path, ref: dict) -> list[str]:
    name = path.name
    header, rows = read_csv(path)
    if header != ref["header"]:
        return [f"{name}: header {header} != {ref['header']}"]
    if len(rows) != ref["rows"]:
        return [f"{name}: {len(rows)} rows, reference has {ref['rows']}"]
    errors = []
    for i, ref_row in ref["sample"].items():
        for col, got, want in zip(header, rows[int(i)], ref_row):
            ok = close(got, want, col) if isinstance(want, float) else got == want
            if not ok:
                errors.append(f"{name} row {i} {col}: {got!r} != reference {want!r}")
    for j, col in enumerate(header):
        if ref["sums"][j] is None:
            continue
        a, r = tolerance(col)
        got = math.fsum(row[j] for row in rows)
        if abs(got - ref["sums"][j]) > len(rows) * a + r * ref["abs_sums"][j]:
            errors.append(f"{name} column {col}: sum {got!r} != reference {ref['sums'][j]!r}")
    return errors + invariants(name, header, rows)


def invariants(name: str, header: list[str], rows: list[list]) -> list[str]:
    errors = []
    for j, col in enumerate(header):
        values = [row[j] for row in rows if isinstance(row[j], float)]
        if any(not math.isfinite(v) for v in values):
            errors.append(f"{name} column {col}: non-finite value")
        elif col.startswith("p_") and any(not -1e-12 <= v <= 1 + 1e-12 for v in values):
            errors.append(f"{name} column {col}: probability outside [0, 1]")
        elif col == "value" and any(abs(v) > 1 + 1e-9 for v in values):
            errors.append(f"{name}: Wigner value outside [-1, 1]")
    return errors


def check_manifest(out: Path, command: str, seed: int) -> tuple[dict, list[str]]:
    path = out / "manifest.json"
    if not path.exists():
        return {}, ["manifest.json missing"]
    manifest = json.loads(path.read_text())
    errors = []
    if manifest.get("command") != command or manifest.get("seed") != seed:
        errors.append("manifest names another command or seed")
    for name, digest in manifest.get("sha256", {}).items():
        if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest:
            errors.append(f"{name}: bytes differ from the manifest's sha256")
    return manifest, errors


def check_error_budget(out: Path, params: dict) -> list[str]:
    """photon_loss = alpha^2 t (1/T1_1 + 1/T1_2) at the resolved params."""
    header, rows = read_csv(out / "error_budget.csv")
    col = {c: j for j, c in enumerate(header)}
    t = params["t_protocol"]
    t1a, t1b = params["t1_cavity"]
    errors = []
    for row in rows:
        a = row[col["alpha"]]
        want = a * a * t * (1 / t1a + 1 / t1b)
        if not math.isclose(row[col["photon_loss"]], want, rel_tol=1e-12):
            errors.append(
                f"error_budget.csv alpha={a!r}: photon_loss {row[col['photon_loss']]!r} "
                f"!= alpha^2 t (1/T1_1 + 1/T1_2) = {want!r} at the resolved params"
            )
            break
    for row in rows:
        parts = row[col["photon_loss"]] + row[col["decode_error"]] + row[col["false_pass"]]
        if not math.isclose(row[col["total"]], parts, rel_tol=1e-12):
            errors.append(f"error_budget.csv alpha={row[col['alpha']]!r}: total is not the sum of its terms")
            break
    return errors


def check_sampled_wigner(out: Path, shots: int) -> list[str]:
    """Seeded tomography data: counts in [0, shots] on the ideal map's grid."""
    _, ideal = read_csv(out / "wigner_ideal.csv")
    header, rows = read_csv(out / "wigner_sampled.csv")
    if header != ["re_beta", "im_beta", "value", "shots", "counts"] or len(rows) != len(ideal):
        return ["wigner_sampled.csv: wrong header or row count"]
    for (re, im, value, n, c), (re0, im0, _) in zip(rows, ideal):
        if (re, im) != (re0, im0):
            return ["wigner_sampled.csv: grid differs from wigner_ideal.csv"]
        if n != shots or c != int(c) or not 0 <= c <= shots:
            return [f"wigner_sampled.csv: counts {c!r} of {n!r} shots outside [0, {shots}]"]
        if abs(value - (2 * c / shots - 1)) > 1e-12:
            return ["wigner_sampled.csv: value is not 2 counts / shots - 1"]
    return []


def check_cli_step(out: Path, command: str, seed: int, ref: dict) -> tuple[dict, list[str]]:
    """Checks one CLI step's output directory; returns (manifest, errors)."""
    manifest, errors = check_manifest(out, command, seed)
    if not manifest:
        return manifest, errors
    for name in manifest["outputs"]:
        if name in SEEDED_CSVS:
            continue
        if name not in ref["csvs"]:
            errors.append(f"{name}: no reference")
            continue
        errors += compare_csv(out / name, ref["csvs"][name])
    missing = set(ref["csvs"]) - set(manifest["outputs"])
    if missing:
        errors.append(f"outputs missing: {sorted(missing)}")
    summary = manifest["summary"]
    for key, want in ref["summary"].items():
        got = summary.get(key)
        if not isinstance(got, (int, float)) or not close(got, want, key):
            errors.append(f"summary {key}: {got!r} != reference {want!r}")
    if command == "error-budget":
        errors += check_error_budget(out, manifest["params"])
    if command == "tomo-demo":
        opts = manifest["options"]
        errors += check_sampled_wigner(out, int(opts["shots"]))
        f = summary.get("mle_fidelity")
        if not (isinstance(f, float) and 0 < f <= 1 + 1e-9):
            errors.append(f"mle_fidelity {f!r} outside (0, 1]")
        if not 1 <= summary.get("mle_iterations", 0) <= int(opts["max_iter"]):
            errors.append("mle_iterations outside [1, max_iter]")
    return manifest, errors


def check_basis_fit(fit, ref: dict) -> list[str]:
    """The library basis fit against reference (test_optimize_basis tolerances)."""
    got = {"fidelity": fit.fidelity, "alpha": fit.basis.alpha,
           "theta_k": fit.basis.theta_k, "theta_r": fit.basis.theta_r}
    tol = {"fidelity": 1e-5, "alpha": 1e-3, "theta_k": 1e-3, "theta_r": 1e-3}
    return [
        f"basis fit {k}: {got[k]!r} != reference {ref[k]!r}"
        for k in tol if abs(got[k] - ref[k]) > tol[k]
    ]
