"""Command-line front end.

Every subcommand resolves its settings the same way -- built-in defaults,
then the config file's ``params:`` block, then its per-command block, then
the selected ``scenarios:`` entry -- runs one analysis, writes CSV files
plus a ``manifest.json`` into the output directory, and prints a short
human summary.  CSV content is a pure function of the resolved settings
and the seed, so a rerun with the same inputs reproduces the same bytes
(the manifest carries the timestamp instead).

Every option has one kind by name (:data:`OPTION_KINDS`), checked when the
settings are resolved, before anything runs.

Every number in a config is a YAML number: a quoted one ("600e3") is a
string, refused like any other value of the wrong kind.

Exit codes: 0 success, 2 configuration problems (bad flags, bad config
file, unknown scenario, an unreadable config or output path, or settings
that ask numpy for an array larger than memory), 3 numerical failure
(non-convergence, blow-up, a float overflow).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import sys
import time
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np
import yaml

from . import dynamics, errorbudget, hilbert, protocol, tomography
from .dynamics import SystemParams
from .hilbert import NumericalError
from .protocol import VacuumCheckModel


class ConfigError(Exception):
    """Anything wrong with flags, config file, or parameter values."""


class _ConfigLoader(yaml.CSafeLoader):
    """``yaml.CSafeLoader`` (libyaml's parser, PyYAML's safe constructor)
    that also reads YAML 1.2 floats.

    PyYAML resolves plain scalars by YAML 1.1, where a float needs a dot and
    a signed exponent: 2e6, -23.0e3 and 1e-5 would load as strings.  Quoted
    scalars stay strings.
    """


# the YAML 1.2 floats that YAML 1.1 reads as strings
_YAML12_FLOAT = (
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)
_ConfigLoader.add_implicit_resolver(*_YAML12_FLOAT)


PARAM_FIELDS = {f.name for f in dataclasses.fields(SystemParams)}


def _merged(known, layers, noun: str) -> dict:
    """The config blocks ``layers``, later ones winning, with every key in
    ``known``."""
    merged: dict = {}
    for layer in layers:
        unknown = set(layer) - set(known)
        if unknown:
            raise ConfigError(f"unknown {noun}: {sorted(map(str, unknown))}")
        merged.update(layer)
    return merged


def build_params(*layers: dict) -> SystemParams:
    try:
        return SystemParams(**_merged(PARAM_FIELDS, layers, "system parameter(s)"))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad system parameters: {e}") from e


def build_opts(defaults: dict, *layers: dict) -> dict:
    """``defaults`` overlaid by ``layers``, each value checked against, and
    stored as, the kind of its name in :data:`OPTION_KINDS`."""
    opts = {**defaults, **_merged(defaults, layers, "option(s)")}
    return {key: OPTION_KINDS[key](key, value) for key, value in opts.items()}


# option kinds: a kind checks the value of one option, given its name, and
# returns the value that the runner reads and the manifest records


def _real(test, wording: str, cast=float):
    """A YAML number that passes ``test``, stored as ``cast`` of it.  A
    quoted number ("1e-5") is a string and a YAML boolean is no number,
    although Python reads true as 1; both read as NaN, like an int beyond
    the float range, and NaN fails every test."""

    def kind(key, value):
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        try:
            x = float(value) if number else math.nan
        except OverflowError:
            x = math.nan
        if not test(x):
            raise ConfigError(f"{key} must be {wording}, got {value!r}")
        return cast(x)

    return kind


_UNIT = _real(lambda x: 0 <= x <= 1, "a number in [0, 1]")
_NON_NEGATIVE = _real(lambda x: 0 <= x < math.inf, "a non-negative finite number")
_POSITIVE = _real(lambda x: 0 < x < math.inf, "a positive finite number")
_COUNT = _real(lambda x: x >= 1 and x.is_integer(), "a whole number >= 1", int)


def _boolean(key, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _choice(*names: str):
    def kind(key, value):
        if value not in names:
            raise ConfigError(f"{key} must be {' or '.join(map(repr, names))}, got {value!r}")
        return value

    return kind


def _amounts(nonempty: bool = False):
    """A list of non-negative numbers, with at least one if ``nonempty``."""

    def kind(key, value):
        if not isinstance(value, list) or (nonempty and not value):
            what = "a non-empty list" if nonempty else "a list"
            raise ConfigError(f"{key} must be {what} of non-negative numbers, got {value!r}")
        return [_NON_NEGATIVE(key, v) for v in value]

    return kind


def _or(kind, *names: str):
    """null, one of ``names``, or a value of ``kind``."""
    return lambda key, value: value if value is None or value in names else kind(key, value)


def _dump_time(key, value):
    """null, for the system parameter ``t_dump``, or "auto"."""
    if value is None or value == "auto":
        return value
    raise ConfigError(f"{key} must be null or 'auto', got {value!r}; a fixed window is t_dump")


# built once, not per herald: a model is immutable and builds its table array
_CHECK_MODELS = {"ideal": VacuumCheckModel.ideal(), "measured": VacuumCheckModel.from_measured()}

# the kind of every command option, by name: a name means the same in every
# command that has it
OPTION_KINDS = {
    **dict.fromkeys(("p_decode", "p_flip_m1", "p_bright_pass"), _UNIT),
    **dict.fromkeys(("alpha_min", "alpha_max", "t_reset"), _NON_NEGATIVE),
    **dict.fromkeys(("t_max", "t_attempt", "extent", "step"), _POSITIVE),
    **dict.fromkeys(("n_times", "n_phi", "n_alpha", "shots", "max_iter"), _COUNT),
    **dict.fromkeys(("include_critical", "cavity_loss"), _boolean),
    "check": _choice(*_CHECK_MODELS),
    "engine": _choice("coherent", "lindblad"),
    "kappas": _amounts(),
    "alphas": _amounts(nonempty=True),
    "t_final": _or(_POSITIVE),
    "p_success": _or(_UNIT),
    "dump_time": _dump_time,
}


def _herald(opts: dict) -> dict:
    """The command's check, cavity_loss and dump_time options, as the keyword
    arguments of :func:`protocol.run_dmm` and :func:`protocol.alpha_sweep`."""
    return {
        "check": _CHECK_MODELS[opts["check"]],
        "cavity_loss": opts["cavity_loss"],
        "dump_time": opts["dump_time"],
    }


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


# np.unique's ~15 us pays back from about 64 rows of values each repeated twice
_DEDUP_ROWS = 64
# rows joined into one write: the text of a long table is never held whole
_CHUNK_ROWS = 1024


def _cells(a: np.ndarray) -> Iterable[str]:
    """The text of each value of ``a`` in order, ``str`` of what ``tolist()``
    gives.  A long float64 column formats each distinct bit pattern once, so
    -0.0 and 0.0 stay apart and so does each NaN payload."""
    if a.dtype != np.float64 or a.ndim != 1 or a.size < _DEDUP_ROWS:
        return map(str, a.tolist())
    bits, where = np.unique(a.view(np.uint64), return_inverse=True)
    return np.array(list(map(str, bits.view(np.float64).tolist())), dtype=object)[where]


def _csv_pieces(header, columns: list[Iterable[str]]) -> Iterator[str]:
    """The CSV text of ``columns`` under ``header``: the header line, then
    the rows, at most ``_CHUNK_ROWS`` to a piece."""
    yield ",".join(header) + "\n"
    rows = map(",".join, zip(*columns))
    while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
        yield "\n".join(chunk) + "\n"


class RunContext:
    def __init__(self, out_dir: Path, seed: int):
        self.out = out_dir
        self.seed = seed
        self.outputs: dict[str, str] = {}  # the SHA-256 of each file's bytes, by name

    def write_csv(self, name: str, table: dict) -> Path:
        """Write ``table``, ``{column name: values}``, under a header of its
        keys in key order.  Every column holds one value per row, so a
        one-row table passes one-element lists and a table without rows
        writes the header alone; a ragged table raises ``ValueError`` before
        any file is opened.  A cell is ``str`` of the Python value
        ``tolist()`` gives, so a float is its shortest repr; the distinct
        floats of a long float64 column are formatted once each."""
        arrays = [np.asarray(c) for c in table.values()]
        lengths = {key: len(a) for key, a in zip(table, arrays)}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"{name}: columns of unequal length {lengths}")
        return self.write_text(name, _csv_pieces(table, [_cells(a) for a in arrays]))

    def write_text(self, name: str, pieces: Iterable[str]) -> Path:
        """Write the strings ``pieces``, one after another, as UTF-8 and
        record the SHA-256 of the bytes written."""
        digest = hashlib.sha256()
        path = self.out / name
        with open(path, "wb") as f:
            for piece in pieces:
                data = piece.encode()
                f.write(data)
                digest.update(data)
        self.outputs[name] = digest.hexdigest()
        print(f"wrote {path}")
        return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_regimes(params: SystemParams, opts: dict, ctx: RunContext) -> dict:
    kappas = list(opts["kappas"])  # a copy: the manifest records the configured list
    times = np.linspace(0.0, opts["t_max"], opts["n_times"])
    if opts["include_critical"]:
        kc = dynamics.critical_kappa(params.g_bs)
        if not any(math.isclose(k, kc, rel_tol=1e-6) for k in kappas):
            kappas.append(kc)
        kappas.sort()
    rates = [dynamics.damping_rates(params.g_bs, k) for k in kappas]
    table = {
        "kappa_b_hz": kappas,
        "regime": [dynamics.classify_regime(params.g_bs, k) for k in kappas],
        "rate_slow_rad_s": [abs(slow.real) for slow, _ in rates],
        "rate_fast_rad_s": [abs(fast.real) for _, fast in rates],
        "freq_rad_s": [abs(slow.imag) for slow, _ in rates],
        "t_dump_auto_s": [dynamics.auto_dump_time(params.g_bs, k) for k in kappas],
    }
    ctx.write_csv("regimes.csv", table)
    curves = [dynamics.bright_mode_response(params.g_bs, k, times).real for k in kappas]
    ctx.write_csv(
        "regime_curves.csv",
        {"kappa_b_hz": np.repeat(kappas, times.size), "time_s": np.tile(times, len(kappas)),
         "response": np.ravel(curves)},
    )
    for k, regime, t_auto in zip(kappas, table["regime"], table["t_dump_auto_s"]):
        print(f"kappa_b = {k/1e3:9.3f} kHz : {regime:12s} t_dump(auto) = {t_auto*1e6:.3f} us")
    return {"kappas_hz": kappas, "critical_kappa_hz": dynamics.critical_kappa(params.g_bs)}


def cmd_transfer(params: SystemParams, opts: dict, ctx: RunContext) -> dict:
    times = np.linspace(1e-9, opts["t_max"], opts["n_times"])
    res = dynamics.transfer_efficiency(params.g_bs, params.kappa_b)
    etas = dynamics.transfer_efficiency(params.g_bs, params.kappa_b, t1=times, t2=times).eta
    ctx.write_csv("transfer.csv", {"t1_s": [res.t1], "t2_s": [res.t2], "eta": [res.eta]})
    ctx.write_csv("transfer_curve.csv", {"t_hold_s": times, "eta": etas})
    print(
        f"optimal pitch/catch: t1 = {res.t1*1e9:.1f} ns, t2 = {res.t2*1e9:.1f} ns, "
        f"efficiency = {res.eta*100:.3f}%"
    )
    return {"t1_s": res.t1, "t2_s": res.t2, "eta": res.eta}


def cmd_phase_sweep(params: SystemParams, opts: dict, ctx: RunContext) -> dict:
    phis = np.linspace(0.0, 2 * math.pi, opts["n_phi"])
    times = np.linspace(0.0, opts["t_max"], opts["n_times"])
    p_fail = protocol.phase_sweep(params.alpha, phis, times, params.g_bs, params.kappa_b)
    ctx.write_csv(
        "phase_sweep.csv",
        {"phi_rad": np.repeat(phis, times.size), "time_s": np.tile(times, phis.size),
         "p_fail": p_fail.ravel()},
    )
    k = len(times) // 2
    dark = p_fail[np.argmin(np.abs(phis - math.pi)), k]
    bright = p_fail[0, k]
    print(
        f"at t = {times[k]*1e6:.2f} us: P(fail | in-phase) = {bright:.4f}, "
        f"P(fail | anti-phase) = {dark:.4f}"
    )
    return {"n_phi": len(phis), "n_times": len(times)}


def cmd_entangle(params: SystemParams, opts: dict, ctx: RunContext) -> dict:
    res = protocol.run_dmm(params, engine=opts["engine"], **_herald(opts))
    w1, w2 = res.codewords
    ctx.write_csv(
        "entangle.csv",
        {
            **{f"p_{o}": [res.p_outcomes[o]] for o in protocol.OUTCOMES},
            "fidelity": [res.bell_fidelity],
            "alpha_basis_1": [w1.basis.alpha], "alpha_basis_2": [w2.basis.alpha],
            "t_dump_s": [res.t_dump], "bright_residual": [res.bright_residual],
        },
    )
    print(
        f"herald probability = {res.p_pass:.4f}, Bell fidelity = {res.bell_fidelity:.4f} "
        f"(engine={res.engine}, t_dump = {res.t_dump*1e6:.3f} us)"
    )
    return {"p_pass": res.p_pass, "fidelity": res.bell_fidelity, "t_dump_s": res.t_dump}


def cmd_alpha_sweep(params: SystemParams, opts: dict, ctx: RunContext) -> dict:
    alphas = opts["alphas"]
    p_pass, fidelity, alpha_dark = protocol.alpha_sweep(params, alphas, **_herald(opts))
    ctx.write_csv(
        "alpha_sweep.csv",
        {"alpha": alphas, "p_pass": p_pass, "fidelity": fidelity,
         "alpha_basis_1": alpha_dark[:, 0], "alpha_basis_2": alpha_dark[:, 1]},
    )
    best = int(np.argmax(fidelity))
    print(f"best fidelity {fidelity[best]:.4f} at alpha = {alphas[best]:.3f} "
          f"(p_pass = {p_pass[best]:.4f})")
    return {"alphas": alphas, "best_alpha": alphas[best], "best_fidelity": float(fidelity[best])}


def cmd_teleport(params: SystemParams, opts: dict, ctx: RunContext) -> dict:
    res = protocol.run_dmm(params, **_herald(opts))
    w1, w2 = res.codewords
    out = protocol.avg_qst_fidelity(
        res.rho_pass, w1, w2, p_decode=opts["p_decode"], p_flip_m1=opts["p_flip_m1"]
    )
    runs = [out[name] for name in protocol.CARDINAL_STATES]
    ctx.write_csv(
        "teleport.csv",
        {
            "input": list(protocol.CARDINAL_STATES),
            **{f"p_{m1}{m2}": [t.probs[m1, m2] for t in runs] for m1, m2 in protocol.CORRECTIONS},
            **{f"f_{m1}{m2}": [t.fidelities[m1, m2] for t in runs]
               for m1, m2 in protocol.CORRECTIONS},
            "f_qst": [t.f_qst for t in runs],
        },
    )
    print(f"average teleportation fidelity = {out['favg']:.4f}")
    for name in protocol.CARDINAL_STATES:
        print(f"  input {name:7s}: F = {out[name].f_qst:.4f}")
    return {"favg": out["favg"], "resource_fidelity": res.bell_fidelity}


def _require_memory(nbytes: int, what: str) -> None:
    """Raise MemoryError, before anything is allocated, when ``what`` needs
    more bytes than the machine's physical memory (when the OS reports it)."""
    try:
        total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf: numpy's own refusal remains
        return
    if nbytes > total:
        raise MemoryError(f"{what} needs {nbytes:.3g} bytes, physical memory is {total:.3g}")


def cmd_tomo_demo(params: SystemParams, opts: dict, ctx: RunContext) -> dict:
    shots = opts["shots"]
    res = protocol.run_dmm(params, **_herald(opts))
    w1, w2 = res.codewords
    rho1 = hilbert.condition(res.rho_pass, (w1.dim, w2.dim), np.outer(w2.plus, w2.plus.conj()))
    p_plus = float(np.real(np.trace(rho1)))
    rho1 = rho1 / np.trace(rho1)

    orbits = tomography.WignerGrid.orbits(opts["extent"], opts["step"])
    points = tomography.WignerGrid.axis_points(opts["extent"], opts["step"]) ** 2
    build = tomography._ForwardMap.build_bytes(w1.dim, orbits, points)
    _require_memory(build, "its Wigner forward map")
    grid = tomography.WignerGrid.default(opts["extent"], opts["step"])
    forward = tomography._ForwardMap(w1.dim, grid.betas)  # one kernel build: map and fit
    w = forward(rho1).reshape(grid.shape)
    beta = {"re_beta": grid.betas.real, "im_beta": grid.betas.imag}
    ctx.write_csv("wigner_ideal.csv", {**beta, "value": w.ravel()})
    counts = tomography.sample_counts(w.ravel(), shots, seed=ctx.seed)
    w_meas = 2 * counts / shots - 1
    ctx.write_csv(
        "wigner_sampled.csv",
        {**beta, "value": w_meas, "shots": np.full(counts.size, shots), "counts": counts},
    )
    data = tomography.WignerData.from_map(grid, w_meas, shots=shots, counts=counts)
    mle = tomography.mle_density(data, dim=w1.dim, max_iter=opts["max_iter"], forward=forward)
    f_rec = hilbert.fidelity(mle.rho, rho1)
    print(
        f"conditioned cat (P(+) = {p_plus:.3f}): reconstructed at dim {w1.dim} from "
        f"{counts.size} points x {shots} shots"
    )
    print(
        f"MLE: fidelity to truth = {f_rec:.4f}, rms residual = {mle.rms_residual:.4f}, "
        f"{mle.n_iter} iterations{'' if mle.converged else ' (not converged)'}"
    )
    return {
        "p_plus": p_plus,
        "mle_fidelity": f_rec,
        "mle_iterations": mle.n_iter,
        "mle_converged": mle.converged,
        "shots": shots,
    }


def cmd_dual_rail(params: SystemParams, opts: dict, ctx: RunContext) -> dict:
    res = protocol.dual_rail_dmm(params, t_final=opts["t_final"])
    ctx.write_csv(
        "dual_rail.csv",
        {"trace_distance": [res.trace_distance], "p_herald": [res.p_herald],
         "distilled_fidelity": [res.fidelity], "converged": [res.converged]},
    )
    print(
        f"pair state within {res.trace_distance:.2e} of the half-Bell/half-vacuum mix; "
        f"distillation heralds at p = {res.p_herald:.4f} with fidelity {res.fidelity:.6f}"
    )
    if not res.converged:
        raise NumericalError(
            "dual-rail evolution did not reach a steady state "
            "(is the bus lossless? increase t_final)"
        )
    return {
        "trace_distance": res.trace_distance,
        "p_herald": res.p_herald,
        "fidelity": res.fidelity,
    }


def cmd_error_budget(params: SystemParams, opts: dict, ctx: RunContext) -> dict:
    alphas = np.linspace(opts["alpha_min"], opts["alpha_max"], opts["n_alpha"])
    p_decode, p_bright = opts["p_decode"], opts["p_bright_pass"]
    budget = errorbudget.predicted_infidelity(alphas, p_decode, p_bright, params)
    ctx.write_csv(
        "error_budget.csv",
        {f.name: np.broadcast_to(getattr(budget, f.name), alphas.shape)
         for f in dataclasses.fields(budget)},
    )
    a_star, best = errorbudget.optimal_alpha(params, p_decode, p_bright)
    print(f"optimal cat amplitude alpha* = {a_star:.4f}, budgeted infidelity {best.total:.4f}")
    return {"optimal_alpha": a_star, "total_at_optimum": best.total}


def cmd_multiround(params: SystemParams, opts: dict, ctx: RunContext) -> dict:
    p = opts["p_success"]
    try:  # p_success 0, or so small that 1/p or a quantile overflows
        stats = protocol.multiround_stats(
            protocol.success_probability(params.alpha) if p is None else p,
            opts["t_attempt"], opts["t_reset"],
        )
        quantiles = {f"attempts_p{n}": [stats.attempts_quantile(n / 100)] for n in (50, 90, 99)}
    except ValueError as e:
        raise ConfigError(str(e)) from e
    ctx.write_csv(
        "multiround.csv",
        {
            "p_success": [stats.p_success], "t_attempt_s": [stats.t_attempt],
            "t_reset_s": [stats.t_reset], "mean_attempts": [stats.mean_attempts],
            "mean_wait_s": [stats.mean_wait], "rate_hz": [stats.rate_hz],
            **quantiles,
        },
    )
    print(
        f"p = {stats.p_success:.4f}: {stats.mean_attempts:.2f} attempts, "
        f"{stats.mean_wait*1e6:.2f} us mean wait, {stats.rate_hz/1e3:.2f} kHz"
    )
    return {"mean_wait_s": stats.mean_wait, "rate_hz": stats.rate_hz}


# the vacuum check, cavity loss and dump time of the commands that herald a
# pair; each command overrides what differs
_HERALD = {"check": "measured", "cavity_loss": True, "dump_time": None}

COMMANDS = {
    "regimes": (
        cmd_regimes,
        {
            "kappas": [160e3, 600e3, 2000e3],
            "include_critical": True,
            "t_max": 8e-6,
            "n_times": 161,
        },
    ),
    "transfer-efficiency": (cmd_transfer, {"t_max": 3e-6, "n_times": 61}),
    "phase-sweep": (cmd_phase_sweep, {"n_phi": 25, "n_times": 41, "t_max": 8e-6}),
    "entangle": (cmd_entangle, {**_HERALD, "check": "ideal", "engine": "coherent"}),
    "alpha-sweep": (
        cmd_alpha_sweep,
        {"alphas": [1.0, 1.2, 1.4142135623730951, 1.6, 1.8, 2.0], **_HERALD},
    ),
    "teleport": (cmd_teleport, {**_HERALD, "p_decode": 0.02, "p_flip_m1": 0.01}),
    "tomo-demo": (
        cmd_tomo_demo,
        {
            **_HERALD,
            "check": "ideal",
            "extent": 2.0,
            "step": 0.1,
            "shots": 1000,
            "max_iter": 2000,
        },
    ),
    "dual-rail": (cmd_dual_rail, {"t_final": None}),
    "error-budget": (
        cmd_error_budget,
        {
            "alpha_min": 0.5,
            "alpha_max": 2.0,
            "n_alpha": 31,
            "p_decode": errorbudget.DEFAULT_P_DECODE,
            "p_bright_pass": errorbudget.DEFAULT_P_BRIGHT_PASS,
        },
    ),
    "multiround": (
        cmd_multiround,
        {"p_success": 1 / 2.6, "t_attempt": 8.85e-6, "t_reset": 0.0},
    ),
}

# the plot.gp that --gnuplot writes, after a shared preamble, for the
# commands that have one
_PLOT_PREAMBLE = "set datafile separator ','\nset key autotitle columnhead\n"
PLOTS = {
    "regimes": "plot 'regime_curves.csv' using 2:3 with points pt 7 ps 0.3\n",
    "phase-sweep": "set view map\nsplot 'phase_sweep.csv' using 1:2:3 with points palette pt 5\n",
    "tomo-demo": "set view map\nset size square\n"
    "splot 'wigner_sampled.csv' using 1:2:3 with points palette pt 5\n",
    "error-budget": "plot for [c=2:5] 'error_budget.csv' using 1:c with lines\n",
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"could not read config file {path}: {e}") from None
    try:
        cfg = yaml.load(text, Loader=_ConfigLoader)
    except yaml.YAMLError as e:
        raise ConfigError(f"could not parse {path}: {e}") from e
    return _block(cfg, f"the top level of {path}")


def _block(value, name: str) -> dict:
    """A config block: a mapping, or null for an empty one."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a mapping or null, got {value!r}")
    return value


def resolve(command: str, cfg: dict, scenario: str | None):
    """Layer defaults < config.params < config.<command> < scenario, and
    check every option against its kind."""
    runner, defaults = COMMANDS[command]
    layers = {"": cfg}  # each layer by the prefix that names its blocks
    if scenario is not None:
        scenarios = _block(cfg.get("scenarios"), "scenarios")
        if scenario not in scenarios:
            known = sorted(map(str, scenarios)) or ["(none defined)"]
            raise ConfigError(f"unknown scenario {scenario!r}; config defines: {', '.join(known)}")
        layers[f"scenarios.{scenario}."] = _block(scenarios[scenario], f"scenarios.{scenario}")
    params = build_params(*(_block(c.get("params"), at + "params") for at, c in layers.items()))
    opts = build_opts(defaults, *(_block(c.get(command), at + command) for at, c in layers.items()))
    return runner, params, opts


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darkbus",
        description="Simulations of loss-protected entanglement over a standing-wave bus.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", metavar="PATH", help="YAML settings file")
    parser.add_argument("--scenario", metavar="NAME", help="named block under scenarios:")
    parser.add_argument("--seed", type=int, default=0, metavar="N")
    parser.add_argument("--out", default="darkbus-out", metavar="DIR")
    parser.add_argument("--gnuplot", action="store_true", help="also emit a plot.gp script")
    return parser


# built once per process: parsing leaves a parser as it was
_PARSER = make_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    started = time.time()
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        cfg = load_config(args.config)
        runner, params, opts = resolve(args.command, cfg, args.scenario)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"could not make output directory {out_dir}: {e}") from None
        ctx = RunContext(out_dir, args.seed)
        summary = runner(params, opts, ctx)
        if args.gnuplot and args.command in PLOTS:
            ctx.write_text("plot.gp", [_PLOT_PREAMBLE, PLOTS[args.command]])
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # numpy refuses an array larger than memory
        print(f"error: {args.command} asks for more memory than there is: {e}", file=sys.stderr)
        return 2
    except (NumericalError, OverflowError) as e:
        print(f"numerical failure in {args.command}: {e}", file=sys.stderr)
        return 3

    manifest = {
        "command": args.command,
        "seed": args.seed,
        "scenario": args.scenario,
        "config": args.config,
        "params": dataclasses.asdict(params),
        "options": opts,
        "outputs": list(ctx.outputs),
        "sha256": ctx.outputs,
        "summary": summary,
        "elapsed_s": round(time.time() - started, 3),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
    }
    with open(out_dir / "manifest.json", "w") as f:
        f.write(json.dumps(manifest, indent=2, default=str) + "\n")
    print(f"wrote {out_dir / 'manifest.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
