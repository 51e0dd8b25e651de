"""Command-line front end.

Every subcommand resolves its settings the same way -- built-in defaults,
then the config file's ``params:`` block, then its per-command block, then
the selected ``scenarios:`` entry, then explicit flags -- runs one analysis,
writes CSV files plus a ``manifest.json`` into the output directory, and
prints a short human summary.  CSV content is a pure function of the
resolved settings and the seed, so a rerun with the same inputs reproduces
the same bytes (the manifest carries the timestamp instead).

Exit codes: 0 success, 2 configuration problems (bad flags, bad config
file, unknown scenario), 3 numerical failure (non-convergence, blow-up).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import dynamics, errorbudget, hilbert, protocol, tomography
from .dynamics import SystemParams
from .hilbert import NumericalError
from .protocol import VacuumCheckModel


class ConfigError(Exception):
    """Anything wrong with flags, config file, or parameter values."""


class _ConfigLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that also reads YAML 1.2 floats.

    PyYAML resolves plain scalars by YAML 1.1, where a float needs a dot and
    a signed exponent: 2e6, -23.0e3 and 1e-5 would load as strings.  Quoted
    scalars stay strings.
    """


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


PARAM_FIELDS = {f.name for f in dataclasses.fields(SystemParams)}
_TUPLE_FIELDS = {
    f.name
    for f in dataclasses.fields(SystemParams)
    if "tuple" in str(f.type)
}


def _coerce_params(raw: dict) -> dict:
    unknown = set(raw) - PARAM_FIELDS
    if unknown:
        raise ConfigError(f"unknown system parameter(s): {sorted(unknown)}")
    out = {}
    for k, v in raw.items():
        out[k] = tuple(v) if k in _TUPLE_FIELDS and isinstance(v, (list, tuple)) else v
    return out


def build_params(*layers: dict) -> SystemParams:
    merged: dict = {}
    for layer in layers:
        merged.update(_coerce_params(layer or {}))
    try:
        return SystemParams(**merged)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad system parameters: {e}") from e


def build_opts(defaults: dict, *layers: dict) -> dict:
    opts = dict(defaults)
    for layer in layers:
        layer = layer or {}
        unknown = set(layer) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown option(s): {sorted(unknown)}")
        opts.update(layer)
    return opts


# value ranges for _number: (test, wording, type of the value written back)
_UNIT = (lambda x: 0 <= x <= 1, "in [0, 1]", float)
_NON_NEGATIVE = (lambda x: 0 <= x < math.inf, "non-negative and finite", float)
_POSITIVE = (lambda x: 0 < x < math.inf, "positive and finite", float)
_COUNT = (lambda x: x >= 1 and x.is_integer(), "a whole number >= 1", int)


def _number(opts: dict, key: str, valid=None):
    """``opts[key]`` as a number, written back so that the manifest records
    the value used (a quoted number in the config is a string, "1e-5"), and
    checked against the range ``valid`` when given.  A list
    value is checked entry by entry and written back as a list.  A YAML
    boolean is not a number, although Python would read true as 1."""
    if isinstance(opts[key], list):
        opts[key] = [_number({key: v}, key, valid) for v in opts[key]]
        return opts[key]
    if isinstance(opts[key], bool):
        raise ConfigError(f"{key} must be a number, got {opts[key]!r}")
    try:
        value = float(opts[key])
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {opts[key]!r}") from None
    if valid is None:
        opts[key] = value
    elif valid[0](value):
        opts[key] = valid[2](value)
    else:
        raise ConfigError(f"{key} must be {valid[1]}, got {opts[key]!r}")
    return opts[key]


def _flag(opts: dict, key: str) -> bool:
    """``opts[key]``, which must be a YAML true or false."""
    if not isinstance(opts[key], bool):
        raise ConfigError(f"{key} must be true or false, got {opts[key]!r}")
    return opts[key]


def _dump_time(opts: dict):
    """``opts["dump_time"]``: None, "auto", or seconds."""
    if opts["dump_time"] is None or opts["dump_time"] == "auto":
        return opts["dump_time"]
    return _number(opts, "dump_time", _NON_NEGATIVE)


def _check_model(name) -> VacuumCheckModel:
    if name == "ideal":
        return VacuumCheckModel.ideal()
    if name == "measured":
        return VacuumCheckModel.from_measured()
    raise ConfigError(f"check must be 'ideal' or 'measured', got {name!r}")


def _herald(params: SystemParams, opts: dict, **kw) -> protocol.DmmResult:
    """:func:`protocol.run_dmm` with the command's check, cavity_loss and
    dump_time options."""
    return protocol.run_dmm(
        params,
        check=_check_model(opts["check"]),
        cavity_loss=_flag(opts, "cavity_loss"),
        dump_time=_dump_time(opts),
        **kw,
    )


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _column(values):
    """The cells of one CSV column as text, each the same as :func:`_cell`
    gives.  A float, integer or boolean array is converted whole by
    ``tolist()`` to the Python floats, ints and bools that ``_cell`` formats.
    Lazy, so that a table's text is never held whole."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiub":
        return map(repr if values.dtype.kind == "f" else str, values.tolist())
    return map(_cell, values)


class RunContext:
    def __init__(self, out_dir: Path, seed: int, gnuplot: bool):
        self.out = out_dir
        self.seed = seed
        self.gnuplot = gnuplot
        self.outputs: list[str] = []

    def write_csv(self, name: str, header: list[str], columns) -> Path:
        """Write a table given column by column in header order; a table of
        rows is passed as ``zip(*rows)``, which has no columns when there
        are no rows."""
        cells = [_column(c) for c in columns]
        path = self.out / name
        with open(path, "w") as f:
            f.write(",".join(header) + "\n")
            for row in zip(*cells, strict=True):
                f.write(",".join(row) + "\n")
        self.outputs.append(name)
        print(f"wrote {path}")
        return path

    def write_text(self, name: str, text: str) -> Path:
        path = self.out / name
        path.write_text(text)
        self.outputs.append(name)
        print(f"wrote {path}")
        return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_regimes(params: SystemParams, opts: dict, ctx: RunContext) -> dict:
    if not isinstance(opts["kappas"], list):
        raise ConfigError(f"kappas must be a list of numbers, got {opts['kappas']!r}")
    kappas = list(_number(opts, "kappas", _NON_NEGATIVE))
    times = np.linspace(0.0, _number(opts, "t_max", _POSITIVE), _number(opts, "n_times", _COUNT))
    if _flag(opts, "include_critical"):
        kc = dynamics.critical_kappa(params.g_bs)
        if not any(math.isclose(k, kc, rel_tol=1e-6) for k in kappas):
            kappas.append(kc)
        kappas.sort()
    rows, curves = [], []
    for k in kappas:
        regime = dynamics.classify_regime(params.g_bs, k)
        slow, fast = dynamics.damping_rates(params.g_bs, k)
        t_auto = dynamics.auto_dump_time(params.g_bs, k)
        rows.append(
            (k, regime, abs(slow.real), abs(fast.real), abs(slow.imag), t_auto)
        )
        curves.append(dynamics.bright_mode_response(params.g_bs, k, times).real)
    ctx.write_csv(
        "regimes.csv",
        ["kappa_b_hz", "regime", "rate_slow_rad_s", "rate_fast_rad_s", "freq_rad_s", "t_dump_auto_s"],
        zip(*rows),
    )
    ctx.write_csv(
        "regime_curves.csv",
        ["kappa_b_hz", "time_s", "response"],
        [np.repeat(kappas, times.size), np.tile(times, len(kappas)), np.ravel(curves)],
    )
    if ctx.gnuplot:
        ctx.write_text(
            "plot.gp",
            "set datafile separator ','\nset key autotitle columnhead\n"
            "plot 'regime_curves.csv' using 2:3 with points pt 7 ps 0.3\n",
        )
    for r in rows:
        print(f"kappa_b = {r[0]/1e3:9.3f} kHz : {r[1]:12s} t_dump(auto) = {r[5]*1e6:.3f} us")
    return {"kappas_hz": kappas, "critical_kappa_hz": dynamics.critical_kappa(params.g_bs)}


def cmd_transfer(params: SystemParams, opts: dict, ctx: RunContext) -> dict:
    times = np.linspace(1e-9, _number(opts, "t_max", _POSITIVE), _number(opts, "n_times", _COUNT))
    res = dynamics.transfer_efficiency(params.g_bs, params.kappa_b)
    etas = dynamics.transfer_efficiency(params.g_bs, params.kappa_b, t1=times, t2=times).eta
    ctx.write_csv("transfer.csv", ["t1_s", "t2_s", "eta"], zip(*[(res.t1, res.t2, res.eta)]))
    ctx.write_csv("transfer_curve.csv", ["t_hold_s", "eta"], [times, etas])
    print(
        f"optimal pitch/catch: t1 = {res.t1*1e9:.1f} ns, t2 = {res.t2*1e9:.1f} ns, "
        f"efficiency = {res.eta*100:.3f}%"
    )
    return {"t1_s": res.t1, "t2_s": res.t2, "eta": res.eta}


def cmd_phase_sweep(params: SystemParams, opts: dict, ctx: RunContext) -> dict:
    phis = np.linspace(0.0, 2 * math.pi, _number(opts, "n_phi", _COUNT))
    times = np.linspace(0.0, _number(opts, "t_max", _POSITIVE), _number(opts, "n_times", _COUNT))
    p_fail = protocol.phase_sweep(params.alpha, phis, times, params.g_bs, params.kappa_b)
    ctx.write_csv(
        "phase_sweep.csv",
        ["phi_rad", "time_s", "p_fail"],
        [np.repeat(phis, times.size), np.tile(times, phis.size), p_fail.ravel()],
    )
    if ctx.gnuplot:
        ctx.write_text(
            "plot.gp",
            "set datafile separator ','\nset key autotitle columnhead\n"
            "set view map\nsplot 'phase_sweep.csv' using 1:2:3 with points palette pt 5\n",
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
    if opts["engine"] not in ("coherent", "lindblad"):
        raise ConfigError(f"engine must be 'coherent' or 'lindblad', got {opts['engine']!r}")
    res = _herald(params, opts, engine=opts["engine"])
    ctx.write_csv(
        "entangle.csv",
        [
            "p_gg", "p_ge", "p_eg", "p_ee", "fidelity",
            "alpha_basis_1", "alpha_basis_2", "t_dump_s", "bright_residual",
        ],
        zip(*[
            (
                res.p_outcomes["gg"], res.p_outcomes["ge"], res.p_outcomes["eg"],
                res.p_outcomes["ee"], res.bell_fidelity,
                res.alpha_dark[0], res.alpha_dark[1], res.t_dump, res.bright_residual,
            )
        ]),
    )
    print(
        f"herald probability = {res.p_pass:.4f}, Bell fidelity = {res.bell_fidelity:.4f} "
        f"(engine={res.engine}, t_dump = {res.t_dump*1e6:.3f} us)"
    )
    return {"p_pass": res.p_pass, "fidelity": res.bell_fidelity, "t_dump_s": res.t_dump}


def cmd_alpha_sweep(params: SystemParams, opts: dict, ctx: RunContext) -> dict:
    try:
        sweep = [params.with_(alpha=a) for a in _number(opts, "alphas")]
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad alphas: {e}") from e
    if not sweep:
        raise ConfigError("alphas must list at least one amplitude")
    rows = []
    for p in sweep:
        r = _herald(p, opts)
        rows.append((p.alpha, r.p_pass, r.bell_fidelity, r.alpha_dark[0], r.alpha_dark[1]))
    ctx.write_csv(
        "alpha_sweep.csv",
        ["alpha", "p_pass", "fidelity", "alpha_basis_1", "alpha_basis_2"],
        zip(*rows),
    )
    best = max(rows, key=lambda r: r[2])
    print(f"best fidelity {best[2]:.4f} at alpha = {best[0]:.3f} (p_pass = {best[1]:.4f})")
    return {"alphas": [p.alpha for p in sweep], "best_alpha": best[0], "best_fidelity": best[2]}


def cmd_teleport(params: SystemParams, opts: dict, ctx: RunContext) -> dict:
    p_decode, p_flip_m1 = _number(opts, "p_decode", _UNIT), _number(opts, "p_flip_m1", _UNIT)
    res = _herald(params, opts)
    w1 = res.basis_used[0].codewords(res.rho_pass.space.dims[0])
    w2 = res.basis_used[1].codewords(res.rho_pass.space.dims[1])
    out = protocol.avg_qst_fidelity(
        res.rho_pass, w1, w2, p_decode=p_decode, p_flip_m1=p_flip_m1
    )
    rows = []
    for name in protocol.CARDINAL_STATES:
        t = out[name]
        rows.append(
            (
                name,
                t.probs[(0, 0)], t.probs[(0, 1)], t.probs[(1, 0)], t.probs[(1, 1)],
                t.fidelities[(0, 0)], t.fidelities[(0, 1)],
                t.fidelities[(1, 0)], t.fidelities[(1, 1)],
                t.f_qst,
            )
        )
    ctx.write_csv(
        "teleport.csv",
        [
            "input", "p_00", "p_01", "p_10", "p_11",
            "f_00", "f_01", "f_10", "f_11", "f_qst",
        ],
        zip(*rows),
    )
    print(f"average teleportation fidelity = {out['favg']:.4f}")
    for name in protocol.CARDINAL_STATES:
        print(f"  input {name:7s}: F = {out[name].f_qst:.4f}")
    return {"favg": out["favg"], "resource_fidelity": res.bell_fidelity}


def cmd_tomo_demo(params: SystemParams, opts: dict, ctx: RunContext) -> dict:
    extent, step = _number(opts, "extent", _POSITIVE), _number(opts, "step", _POSITIVE)
    shots, max_iter = _number(opts, "shots", _COUNT), _number(opts, "max_iter", _COUNT)
    res = _herald(params, opts)
    d1, d2 = res.rho_pass.space.dims
    w2 = res.basis_used[1].codewords(d2)
    plus = np.outer(w2.plus, w2.plus.conj())
    cond = tomography.conditional_decomposition(res.rho_pass, {"+": plus}, (d1, d2))
    p_plus, rho1 = cond["+"]
    rho1 = rho1 / np.trace(rho1)

    grid = tomography.WignerGrid.default(extent, step)
    forward = tomography._ForwardMap(d1, grid.betas)  # one kernel build: map and fit
    w = forward(rho1).reshape(grid.shape)
    ctx.write_csv(
        "wigner_ideal.csv",
        ["re_beta", "im_beta", "value"],
        [grid.betas.real, grid.betas.imag, w.ravel()],
    )
    counts = tomography.sample_counts(w.ravel(), shots, seed=ctx.seed)
    w_meas = 2 * counts / shots - 1
    ctx.write_csv(
        "wigner_sampled.csv",
        ["re_beta", "im_beta", "value", "shots", "counts"],
        [grid.betas.real, grid.betas.imag, w_meas, np.full(counts.size, shots), counts],
    )
    data = tomography.WignerData.from_map(grid, w_meas, shots=shots, counts=counts)
    mle = tomography.mle_density(data, dim=d1, max_iter=max_iter, forward=forward)
    f_rec = hilbert.fidelity(mle.rho, rho1)
    if ctx.gnuplot:
        ctx.write_text(
            "plot.gp",
            "set datafile separator ','\nset key autotitle columnhead\n"
            "set view map\nset size square\n"
            "splot 'wigner_sampled.csv' using 1:2:3 with points palette pt 5\n",
        )
    print(
        f"conditioned cat (P(+) = {p_plus:.3f}): reconstructed at dim {d1} from "
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
    t_final = None if opts["t_final"] is None else _number(opts, "t_final", _POSITIVE)
    res = protocol.dual_rail_dmm(params, t_final=t_final)
    ctx.write_csv(
        "dual_rail.csv",
        ["trace_distance", "p_herald", "distilled_fidelity", "converged"],
        zip(*[(res.trace_distance, res.p_herald, res.fidelity, res.converged)]),
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
    alphas = np.linspace(
        _number(opts, "alpha_min", _NON_NEGATIVE),
        _number(opts, "alpha_max", _NON_NEGATIVE),
        _number(opts, "n_alpha", _COUNT),
    )
    p_decode, p_bright = _number(opts, "p_decode", _UNIT), _number(opts, "p_bright_pass", _UNIT)
    rows = []
    for a in alphas:
        b = errorbudget.predicted_infidelity(float(a), p_decode, p_bright, params)
        rows.append(
            (
                b.alpha, b.photon_loss, b.decode_error, b.false_pass, b.total,
                b.off_resonant, b.single_pass, b.purcell,
            )
        )
    ctx.write_csv(
        "error_budget.csv",
        [
            "alpha", "photon_loss", "decode_error", "false_pass", "total",
            "off_resonant", "single_pass", "purcell",
        ],
        zip(*rows),
    )
    a_star, best = errorbudget.optimal_alpha(params, p_decode, p_bright)
    if ctx.gnuplot:
        ctx.write_text(
            "plot.gp",
            "set datafile separator ','\nset key autotitle columnhead\n"
            "plot for [c=2:5] 'error_budget.csv' using 1:c with lines\n",
        )
    print(f"optimal cat amplitude alpha* = {a_star:.4f}, budgeted infidelity {best.total:.4f}")
    return {"optimal_alpha": a_star, "total_at_optimum": best.total}


def cmd_multiround(params: SystemParams, opts: dict, ctx: RunContext) -> dict:
    if opts["p_success"] is None:
        p = protocol.success_probability(params.alpha)
    else:
        p = _number(opts, "p_success")
    if not 0 < p <= 1:
        raise ConfigError(f"p_success must be in (0, 1], got {p}")
    t_attempt = _number(opts, "t_attempt", _POSITIVE)
    t_reset = _number(opts, "t_reset", _NON_NEGATIVE)
    stats = protocol.multiround_stats(p, t_attempt, t_reset)
    ctx.write_csv(
        "multiround.csv",
        [
            "p_success", "t_attempt_s", "t_reset_s", "mean_attempts",
            "mean_wait_s", "rate_hz", "attempts_p50", "attempts_p90", "attempts_p99",
        ],
        zip(*[
            (
                stats.p_success, stats.t_attempt, stats.t_reset, stats.mean_attempts,
                stats.mean_wait, stats.rate_hz,
                stats.attempts_quantile(0.5), stats.attempts_quantile(0.9),
                stats.attempts_quantile(0.99),
            )
        ]),
    )
    print(
        f"p = {stats.p_success:.4f}: {stats.mean_attempts:.2f} attempts, "
        f"{stats.mean_wait*1e6:.2f} us mean wait, {stats.rate_hz/1e3:.2f} kHz"
    )
    return {"mean_wait_s": stats.mean_wait, "rate_hz": stats.rate_hz}


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
    "entangle": (
        cmd_entangle,
        {"check": "ideal", "cavity_loss": True, "dump_time": None, "engine": "coherent"},
    ),
    "alpha-sweep": (
        cmd_alpha_sweep,
        {
            "alphas": [1.0, 1.2, 1.4142135623730951, 1.6, 1.8, 2.0],
            "check": "measured",
            "cavity_loss": True,
            "dump_time": None,
        },
    ),
    "teleport": (
        cmd_teleport,
        {
            "check": "measured",
            "cavity_loss": True,
            "dump_time": None,
            "p_decode": 0.02,
            "p_flip_m1": 0.01,
        },
    ),
    "tomo-demo": (
        cmd_tomo_demo,
        {
            "check": "ideal",
            "cavity_loss": True,
            "dump_time": None,
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


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = yaml.load(p.read_text(), Loader=_ConfigLoader)
    except yaml.YAMLError as e:
        raise ConfigError(f"could not parse {path}: {e}") from e
    if cfg is None:
        return {}
    if not isinstance(cfg, dict):
        raise ConfigError(f"top level of {path} must be a mapping")
    return cfg


def resolve(command: str, cfg: dict, scenario: str | None):
    """Layer defaults < config.params < config.<command> < scenario < flags."""
    runner, defaults = COMMANDS[command]
    scen_cfg = {}
    if scenario is not None:
        scenarios = cfg.get("scenarios") or {}
        if scenario not in scenarios:
            known = sorted(scenarios) or ["(none defined)"]
            raise ConfigError(f"unknown scenario {scenario!r}; config defines: {', '.join(known)}")
        scen_cfg = scenarios[scenario] or {}
    params = build_params(cfg.get("params"), scen_cfg.get("params"))
    opts = build_opts(defaults, cfg.get(command), scen_cfg.get(command))
    return runner, params, opts


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darkbus",
        description="Simulations of loss-protected entanglement over a standing-wave bus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", metavar="PATH", help="YAML settings file")
        p.add_argument("--scenario", metavar="NAME", help="named block under scenarios:")
        p.add_argument("--seed", type=int, default=0, metavar="N")
        p.add_argument("--out", default="darkbus-out", metavar="DIR")
        p.add_argument("--gnuplot", action="store_true", help="also emit a plot.gp script")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        cfg = load_config(args.config)
        runner, params, opts = resolve(args.command, cfg, args.scenario)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        ctx = RunContext(out_dir, args.seed, args.gnuplot)
        summary = runner(params, opts, ctx)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3

    digests = {}
    for name in ctx.outputs:
        digests[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    manifest = {
        "command": args.command,
        "seed": args.seed,
        "scenario": args.scenario,
        "config": args.config,
        "params": dataclasses.asdict(params),
        "options": {k: (list(v) if isinstance(v, tuple) else v) for k, v in opts.items()},
        "outputs": ctx.outputs,
        "sha256": digests,
        "summary": summary,
        "elapsed_s": round(time.time() - started, 3),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
    }
    with open(out_dir / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, default=str)
        f.write("\n")
    print(f"wrote {out_dir / 'manifest.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
