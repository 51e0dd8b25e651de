"""Command line driver: exit codes, config layering, manifest, reruns."""

import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from oracles import PyConfigLoader, csv_text, traced_peak

import darkbus
from darkbus import cli, codes, protocol, tomography
from darkbus.dynamics import SystemParams
from darkbus.protocol import VacuumCheckModel


def run(args):
    return cli.main([str(a) for a in args])


def test_no_scipy_on_the_import_path():
    """The library and its CLI import numpy and yaml only: in a fresh
    interpreter, importing both loads no scipy module."""
    path = [str(Path(darkbus.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = (
        "import sys, darkbus, darkbus.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_first_calls_load_only_numpy_random(tmp_path):
    """Each command's first call in a fresh interpreter loads no numpy
    submodule but numpy.random, which tomo-demo's sampler needs: not
    numpy.ma, which np.unique's masked-array check would import."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text(
        "regimes: {n_times: 21}\n"
        "transfer-efficiency: {n_times: 11}\n"
        "phase-sweep: {n_phi: 5, n_times: 5}\n"
        "alpha-sweep: {alphas: [1.0, 1.4]}\n"
        "tomo-demo: {extent: 1.0, step: 0.5, shots: 100, max_iter: 50}\n"
        "error-budget: {n_alpha: 5}\n"
        "scenarios:\n"
        "  lindblad:\n"
        "    params: {alpha: 0.5, dims: [3, 3, 3]}\n"
        "    entangle: {engine: lindblad}\n"
    )
    runs = [[c, "--config", str(cfg), "--out", str(tmp_path / c)] for c in cli.COMMANDS]
    runs.append(["entangle", "--config", str(cfg), "--scenario", "lindblad",
                 "--out", str(tmp_path / "lindblad")])
    path = [str(Path(darkbus.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = (
        "import json, sys, darkbus.cli\n"
        "before = set(sys.modules)\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    assert darkbus.cli.main(args) == 0, args\n"
        "print(json.dumps(sorted(m for m in set(sys.modules) - before if m.startswith('numpy'))))"
    )
    out = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert "numpy.random" in loaded
    assert [m for m in loaded if m.split(".")[:2] != ["numpy", "random"]] == []


def read_manifest(out_dir):
    with open(out_dir / "manifest.json") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# happy path + manifest
# ---------------------------------------------------------------------------


def test_multiround_writes_manifest(tmp_path):
    out = tmp_path / "mr"
    assert run(["multiround", "--out", out]) == 0
    m = read_manifest(out)
    assert m["command"] == "multiround"
    assert m["outputs"] == ["multiround.csv"]
    # digests in the manifest match the bytes on disk
    for name, digest in m["sha256"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    assert m["summary"]["rate_hz"] == pytest.approx(43459.365493263795)
    assert m["params"]["alpha"] == pytest.approx(math.sqrt(2))
    assert m["versions"] == {"python": sys.version.split()[0], "numpy": np.__version__}


# every file each command writes at its defaults, with each CSV's header;
# --gnuplot adds plot.gp for the four commands that plot
SCHEMAS = {
    "regimes": {
        "regimes.csv": "kappa_b_hz,regime,rate_slow_rad_s,rate_fast_rad_s,freq_rad_s,t_dump_auto_s",
        "regime_curves.csv": "kappa_b_hz,time_s,response",
        "plot.gp": "regime_curves.csv",
    },
    "transfer-efficiency": {
        "transfer.csv": "t1_s,t2_s,eta",
        "transfer_curve.csv": "t_hold_s,eta",
    },
    "phase-sweep": {
        "phase_sweep.csv": "phi_rad,time_s,p_fail",
        "plot.gp": "phase_sweep.csv",
    },
    "entangle": {
        "entangle.csv": "p_gg,p_ge,p_eg,p_ee,fidelity,"
        "alpha_basis_1,alpha_basis_2,t_dump_s,bright_residual",
    },
    "alpha-sweep": {"alpha_sweep.csv": "alpha,p_pass,fidelity,alpha_basis_1,alpha_basis_2"},
    "teleport": {"teleport.csv": "input,p_00,p_01,p_10,p_11,f_00,f_01,f_10,f_11,f_qst"},
    "tomo-demo": {
        "wigner_ideal.csv": "re_beta,im_beta,value",
        "wigner_sampled.csv": "re_beta,im_beta,value,shots,counts",
        "plot.gp": "wigner_sampled.csv",
    },
    "dual-rail": {"dual_rail.csv": "trace_distance,p_herald,distilled_fidelity,converged"},
    "error-budget": {
        "error_budget.csv": "alpha,photon_loss,decode_error,false_pass,total,"
        "off_resonant,single_pass,purcell",
        "plot.gp": "error_budget.csv",
    },
    "multiround": {
        "multiround.csv": "p_success,t_attempt_s,t_reset_s,mean_attempts,"
        "mean_wait_s,rate_hz,attempts_p50,attempts_p90,attempts_p99",
    },
}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_csv_schema_is_fixed_per_command(tmp_path, command):
    """At its defaults with --gnuplot, each command writes exactly its files,
    in order, each CSV under its fixed header; plot.gp, where there is one,
    plots a CSV of the same run.  The manifest lists and hashes every file,
    each digest that of the bytes on disk."""
    out = tmp_path / "o"
    assert run([command, "--gnuplot", "--out", out]) == 0
    files = SCHEMAS[command]
    m = read_manifest(out)
    assert m["outputs"] == list(files)
    assert set(m["sha256"]) == set(files)
    assert sorted(p.name for p in out.iterdir()) == sorted([*files, "manifest.json"])
    for name, header in files.items():
        data = (out / name).read_bytes()
        assert m["sha256"][name] == hashlib.sha256(data).hexdigest(), name
        text = data.decode()
        if name == "plot.gp":
            assert text.startswith("set datafile separator ','\nset key autotitle columnhead\n")
            assert f"'{header}'" in text
        else:
            assert text.splitlines()[0] == header


# the SystemParams fields that move each command's outputs at its defaults;
# a change to what a command reads edits this table in the same diff
_HERALD_FIELDS = {"g_bs", "kappa_b", "t1_cavity", "alpha", "dims", "t_pump", "t_dump", "t_protocol"}
FIELDS_READ = {
    "regimes": {"g_bs"},
    "transfer-efficiency": {"g_bs", "kappa_b"},
    "phase-sweep": {"g_bs", "kappa_b", "alpha"},
    "entangle": _HERALD_FIELDS,
    "alpha-sweep": _HERALD_FIELDS - {"alpha"},
    "teleport": _HERALD_FIELDS,
    "tomo-demo": _HERALD_FIELDS,
    "dual-rail": {"g_bs", "kappa_b"},
    "error-budget": {
        "g_bs", "kappa_b", "t1_cavity", "t_protocol",
        "delta_fsr", "chi_cav_transmon", "chi_bus_transmon", "anharmonicity",
    },
    "multiround": set(),
}


def _nudged(name: str, value):
    """A field's value moved one step: dims one less per mode, any other
    number (each of a pair) scaled by 1.1."""
    if name == "dims":
        return [d - 1 for d in value]
    return [v * 1.1 for v in value] if isinstance(value, tuple) else value * 1.1


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_each_command_reads_the_fields_it_reads_today(tmp_path, command):
    """A field moves a command when one step of it (``_nudged``) changes the
    manifest's ``sha256`` or ``summary`` of a run at the defaults
    (``tomo-demo`` at step 0.25); the fields that do are ``FIELDS_READ``."""
    cfg, out = tmp_path / "c.yaml", tmp_path / "o"

    def outputs(params: dict) -> str:
        cfg.write_text(json.dumps({"params": params, "tomo-demo": {"step": 0.25}}))
        assert run([command, "--config", cfg, "--out", out]) == 0
        m = read_manifest(out)
        return json.dumps([m["sha256"], m["summary"]], sort_keys=True)

    base, defaults = outputs({}), SystemParams()
    moved = {
        f.name
        for f in dataclasses.fields(SystemParams)
        if outputs({f.name: _nudged(f.name, getattr(defaults, f.name))}) != base
    }
    assert moved == FIELDS_READ[command]


def test_entangle_csv(tmp_path):
    out = tmp_path / "ent"
    assert run(["entangle", "--out", out]) == 0
    row = [float(x) for x in (out / "entangle.csv").read_text().splitlines()[1].split(",")]
    assert sum(row[:4]) == pytest.approx(1.0, abs=1e-9)
    m = read_manifest(out)
    assert 0.90 < m["summary"]["fidelity"] < 0.97


def test_herald_numbers_never_build_the_pair_matrix(tmp_path, monkeypatch):
    """``entangle`` and ``alpha-sweep`` read the Bell fidelity without the
    (d1 d2)^2 density matrix; ``teleport`` consumes the pair and builds it
    exactly once."""
    real = protocol._density_coherent

    def refuse(*args, **kwargs):
        raise AssertionError("the pair density matrix was built")

    monkeypatch.setattr(protocol, "_density_coherent", refuse)
    for command, csv in (("entangle", "entangle.csv"), ("alpha-sweep", "alpha_sweep.csv")):
        assert run([command, "--out", tmp_path / command]) == 0
        assert (tmp_path / command / csv).exists()

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(protocol, "_density_coherent", counted)
    assert run(["teleport", "--out", tmp_path / "teleport"]) == 0
    assert (tmp_path / "teleport" / "teleport.csv").exists()
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["teleport", "tomo-demo"])
def test_pair_consumers_read_the_heralds_codewords(tmp_path, monkeypatch, command):
    """The herald builds the codewords of each cavity once; ``teleport`` and
    ``tomo-demo`` read them from ``DmmResult.codewords`` instead of building
    their own."""
    real = codes.LogicalBasis.codewords
    dims = []

    def counted(basis, dim):
        dims.append(dim)
        return real(basis, dim)

    monkeypatch.setattr(codes.LogicalBasis, "codewords", counted)
    assert run([command, "--out", tmp_path / "o"]) == 0
    params = SystemParams()
    assert dims == [params.dims[0], params.dims[2]]


def cell_text(x) -> str:
    """What a CSV cell holds: a string as it is, a boolean as True or False,
    an integer's digits, and a float's shortest repr."""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _nan(bits: int) -> float:
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


# float64 values whose text is easy to get wrong when equal texts are shared:
# both zeros, NaNs of either sign and of other payloads, the infinities,
# subnormals and the largest double
_SPECIAL = np.array(
    [0.0, -0.0, np.nan, -np.nan, _nan(0x7FF8_0000_0000_0ABC), _nan(0x7FF0_0000_0000_0001),
     np.inf, -np.inf, 5e-324, 1e-310, 1.7976931348623157e308, 0.1, -1 / 3, 1e22, 2.5e-7]
)


def _float_columns(n_rows: int) -> list:
    """float64 columns of ``n_rows`` values: the special values repeated
    in shuffled order, and the same in a strided view."""
    rng = np.random.default_rng(n_rows)
    repeated = rng.permutation(np.resize(_SPECIAL, n_rows))
    return [repeated, np.repeat(repeated, 2)[::2]]


def test_csv_cells_are_the_text_of_each_value(tmp_path):
    """Each column of ``write_csv``, whether an array of any dtype or a list
    of scalars, holds cell by cell the text of its value.  The float64
    columns of at least ``cli._DEDUP_ROWS`` rows, whose distinct values are
    formatted once each, are checked with heavy repeats, all-distinct values
    and the special values, at the floor, just below it and well above it,
    and across whole pieces of ``cli._CHUNK_ROWS`` rows."""
    floor = cli._DEDUP_ROWS
    columns = [
        np.array([0.1, -0.0, 1e-300, 5e-324, 1.7976931348623157e308, np.inf, -np.inf, np.nan]),
        np.array([0.1, 3.5, -2e-8], dtype=np.float32),
        np.array([0, -7, 2**62]),
        np.array([3, 255], dtype=np.uint8),
        np.array([True, False]),
        np.array(["critical", "x"]),
        [1, 2.5, True, np.float64(0.3), np.int64(4), "s", np.bool_(False)],
        (),
        *_float_columns(floor - 1),
        *_float_columns(floor),
        *_float_columns(40 * floor),
        np.random.default_rng(0).standard_normal(3 * floor) * 1e-6,
        np.linspace(0.0, 1.0, 2 * cli._CHUNK_ROWS).tolist(),
    ]
    ctx = cli.RunContext(tmp_path, seed=0)
    for values in columns:
        text = ctx.write_csv("c.csv", {"c": values}).read_text()
        assert text == "".join(f"{cell}\n" for cell in ["c", *map(cell_text, values)])


@pytest.mark.parametrize(
    "table",
    [{"a": [1.0, 2.0], "b": [3.0]}, {"a": np.zeros(100), "b": np.arange(99.0)}],
    ids=["short", "long-float"],
)
def test_ragged_table_writes_nothing(tmp_path, table):
    """A table whose columns differ in length raises ValueError before its
    file is opened: no partial CSV is left on disk and nothing is recorded."""
    ctx = cli.RunContext(tmp_path, seed=0)
    ctx.write_csv("kept.csv", {"a": [1.0]})
    with pytest.raises(ValueError):
        ctx.write_csv("ragged.csv", table)
    assert not (tmp_path / "ragged.csv").exists()
    assert list(ctx.outputs) == ["kept.csv"]


def test_csv_bytes_match_the_row_by_row_writer(tmp_path, monkeypatch):
    """The CSVs of phase-sweep, on the benchmark's 73 x 121 grid, and of
    tomo-demo, at its defaults, hold byte for byte what a writer that formats
    every cell on its own writes.  phase-sweep's table is rebuilt from
    ``protocol.phase_sweep``; tomo-demo's tables are those it passes to
    ``write_csv``."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text("phase-sweep:\n  n_phi: 73\n  n_times: 121\n")
    assert run(["phase-sweep", "--config", cfg, "--out", tmp_path / "ps"]) == 0
    params = SystemParams()
    phis, times = np.linspace(0.0, 2 * math.pi, 73), np.linspace(0.0, 8e-6, 121)
    p_fail = protocol.phase_sweep(params.alpha, phis, times, params.g_bs, params.kappa_b)
    table = {"phi_rad": np.repeat(phis, times.size), "time_s": np.tile(times, phis.size),
             "p_fail": p_fail.ravel()}
    assert (tmp_path / "ps" / "phase_sweep.csv").read_bytes() == csv_text(table).encode()

    tables = {}
    write_csv = cli.RunContext.write_csv

    def recorded(ctx, name, table):
        tables[name] = table
        return write_csv(ctx, name, table)

    monkeypatch.setattr(cli.RunContext, "write_csv", recorded)
    assert run(["tomo-demo", "--out", tmp_path / "tomo"]) == 0
    assert set(tables) == {"wigner_ideal.csv", "wigner_sampled.csv"}
    for name, table in tables.items():
        assert (tmp_path / "tomo" / name).read_bytes() == csv_text(table).encode(), name


def test_regimes_far_overdamped_bus(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("regimes:\n  kappas: [20e6]\n  include_critical: false\n")
    assert run(["regimes", "--config", cfg, "--out", tmp_path]) == 0
    rows = (tmp_path / "regimes.csv").read_text().splitlines()
    assert rows[1].startswith("20000000.0,overdamped,")
    curve = np.loadtxt(tmp_path / "regime_curves.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(curve))


def test_regimes_bus_far_past_critical(tmp_path):
    """At kappa_b = 1 THz and 1 PHz the slow bright rate is the
    coupling-squared-over-linewidth pole 4 g^2 / k (angular), not a root
    cancelled to 0 that stops the auto dump time."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text("regimes:\n  kappas: [1.0e+12, 1.0e+15]\n  include_critical: false\n")
    assert run(["regimes", "--config", cfg, "--out", tmp_path]) == 0
    header, *rows = (tmp_path / "regimes.csv").read_text().splitlines()
    assert header.split(",")[:3] == ["kappa_b_hz", "regime", "rate_slow_rad_s"]
    g = 2 * math.pi * 160e3
    for row, kappa in zip(rows, (1e12, 1e15), strict=True):
        cells = row.split(",")
        assert cells[1] == "overdamped"
        assert float(cells[2]) == pytest.approx(4 * g**2 / (2 * math.pi * kappa), rel=1e-6)


def test_regimes_without_kappas_writes_headers_only(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("regimes:\n  kappas: []\n  include_critical: false\n")
    assert run(["regimes", "--config", cfg, "--out", tmp_path]) == 0
    assert (tmp_path / "regime_curves.csv").read_text() == "kappa_b_hz,time_s,response\n"
    assert (tmp_path / "regimes.csv").read_text().count("\n") == 1


def test_error_budget_csv(tmp_path):
    out = tmp_path / "eb"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("error-budget:\n  n_alpha: 7\n")
    assert run(["error-budget", "--config", cfg, "--out", out]) == 0
    lines = (out / "error_budget.csv").read_text().splitlines()
    assert len(lines) == 8  # header + 7 amplitudes
    m = read_manifest(out)
    assert m["options"]["n_alpha"] == 7
    assert m["outputs"] == ["error_budget.csv"]  # no plot.gp without --gnuplot


def _photon_loss(out_dir):
    lines = (out_dir / "error_budget.csv").read_text().splitlines()
    col = lines[0].split(",").index("photon_loss")
    return [float(line.split(",")[col]) for line in lines[1:]]


def test_error_budget_reads_configured_lifetimes(tmp_path):
    """The budget follows params: T1 ten times shorter, ten times the loss."""
    runs = {
        "base": "",
        "short_t1": "params:\n  t1_cavity: [38.5e-6, 52.0e-6]\n",
        "long_window": "params:\n  t_protocol: 11.184e-6\n",
    }
    loss, summary = {}, {}
    for name, params in runs.items():
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(params + "error-budget:\n  n_alpha: 5\n")
        assert run(["error-budget", "--config", cfg, "--out", tmp_path / name]) == 0
        loss[name] = _photon_loss(tmp_path / name)
        summary[name] = read_manifest(tmp_path / name)["summary"]
    assert loss["short_t1"] == pytest.approx([10 * x for x in loss["base"]], rel=1e-12)
    assert loss["long_window"] == pytest.approx([2 * x for x in loss["base"]], rel=1e-12)
    # heavier loss pulls the optimum toward smaller cats
    assert summary["short_t1"]["optimal_alpha"] < summary["base"]["optimal_alpha"]


# ---------------------------------------------------------------------------
# exit code 2: configuration problems
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_every_command_parses_with_every_option(command):
    args = cli.make_parser().parse_args(
        [command, "--config", "c.yaml", "--scenario", "s", "--seed", "5", "--out", "o", "--gnuplot"]
    )
    assert vars(args) == {
        "command": command, "config": "c.yaml", "scenario": "s", "seed": 5, "out": "o", "gnuplot": True
    }


@pytest.mark.parametrize("argv", [[], ["nope"], ["--seed", "1"]], ids=["missing", "unknown", "options-only"])
def test_unknown_or_missing_command_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "usage: darkbus" in capsys.readouterr().err


def test_unknown_scenario_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("scenarios:\n  slow: {}\n")
    assert run(["multiround", "--config", cfg, "--scenario", "fast",
                "--out", tmp_path / "o"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_unknown_option_is_config_error(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("multiround:\n  nope: 1\n")
    assert run(["multiround", "--config", cfg, "--out", tmp_path / "o"]) == 2


def test_unknown_param_is_config_error(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("params:\n  gbs: 100.0e3\n")
    assert run(["multiround", "--config", cfg, "--out", tmp_path / "o"]) == 2


def test_invalid_param_value_is_config_error(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("params:\n  g_bs: -5.0\n")
    assert run(["multiround", "--config", cfg, "--out", tmp_path / "o"]) == 2


def test_yaml_number_gotcha_is_config_error(tmp_path):
    # a quoted number is a string; that must fail loudly instead of
    # silently running with a bogus linewidth
    cfg = tmp_path / "c.yaml"
    cfg.write_text('params:\n  kappa_b: "600e3"\n')
    assert run(["multiround", "--config", cfg, "--out", tmp_path / "o"]) == 2


def test_yaml_exponent_floats_are_numbers(tmp_path, capsys):
    """2e6, -23.0e3 and 1e-5 are floats in YAML 1.2, although YAML 1.1
    wants a dot and a signed exponent."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text("params:\n  kerr: [-23.0e3, -7.0e3]\n  kappa_b: 600e3\n  t_pump: 8e-7\n")
    assert run(["multiround", "--config", cfg, "--out", tmp_path / "o"]) == 0
    m = read_manifest(tmp_path / "o")
    assert m["params"]["kerr"] == [-23000.0, -7000.0]
    assert m["params"]["kappa_b"] == 600e3 and m["params"]["t_pump"] == 8e-7
    cfg.write_text("params:\n  chi_bus_transmon: [-2.1e6, -2.5e6, -2.5e6]\n")
    capsys.readouterr()
    assert run(["multiround", "--config", cfg, "--out", tmp_path / "o2"]) == 2
    assert "chi_bus_transmon must be a (cav1, cav2) pair" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    ["2e6", "-23.0e3", "'1e-5'", "1e-5", ".5", "1_000", "0x1F", "yes", "~", "2024-02-29",
     (Path(__file__).parents[1] / "perfbench" / "workloads.yaml").read_text()],
    ids=["2e6", "-23.0e3", "quoted", "1e-5", ".5", "1_000", "0x1F", "yes", "null", "date",
         "workloads.yaml"],
)
def test_config_loader_matches_pure_python_parser(text):
    """The CLI parses configs with libyaml; PyYAML's pure-Python parser,
    with the same resolvers, gives the same values of the same types."""
    assert issubclass(cli._ConfigLoader, yaml.CSafeLoader)
    fast, slow = yaml.load(text, Loader=cli._ConfigLoader), yaml.load(text, Loader=PyConfigLoader)

    def typed(x):
        if isinstance(x, dict):
            return {typed(k): typed(v) for k, v in x.items()}
        if isinstance(x, list):
            return [typed(v) for v in x]
        return type(x), x

    assert typed(fast) == typed(slow)


def test_missing_config_file(tmp_path):
    assert run(["multiround", "--config", tmp_path / "absent.yaml",
                "--out", tmp_path / "o"]) == 2


def test_unparseable_yaml(tmp_path):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("params: [unclosed\n")
    assert run(["multiround", "--config", cfg, "--out", tmp_path / "o"]) == 2


def test_non_mapping_yaml(tmp_path):
    cfg = tmp_path / "seq.yaml"
    cfg.write_text("- 1\n- 2\n")
    assert run(["multiround", "--config", cfg, "--out", tmp_path / "o"]) == 2


@pytest.mark.parametrize("value", ["0.0", "-1.0e-6", ".inf", "soon"])
def test_dual_rail_rejects_bad_t_final(tmp_path, capsys, value):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"dual-rail:\n  t_final: {value}\n")
    assert run(["dual-rail", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "t_final" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("p_success", "0.0"),
        ("p_success", "1.5"),
        ("t_attempt", "0.0"),
        ("t_attempt", "-1.0e-6"),
        ("t_reset", "-1.0e-6"),
        ("t_reset", ".inf"),
    ],
)
def test_multiround_rejects_out_of_range_values(tmp_path, capsys, key, value):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"multiround:\n  {key}: {value}\n")
    assert run(["multiround", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert key in capsys.readouterr().err


def test_multiround_tiny_success_probability(tmp_path):
    """p = 1e-17 is below the spacing of floats near 1: a finite number of
    attempts, not a division by zero."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text("multiround:\n  p_success: 1.0e-17\n")
    out = tmp_path / "o"
    assert run(["multiround", "--config", cfg, "--out", out]) == 0
    row = (out / "multiround.csv").read_text().splitlines()[1].split(",")
    quantiles = [-math.log(1 - q) * 1e17 for q in (0.5, 0.9, 0.99)]
    assert [int(v) for v in row[6:]] == pytest.approx(quantiles, rel=1e-12)


@pytest.mark.parametrize("p", ["1.0e-320", "1.0e-308"])
def test_multiround_success_probability_too_small(tmp_path, capsys, p):
    """1/p overflows a float at p = 1e-320, and the 99 % quantile of
    attempts does at p = 1e-308: a configuration error before any CSV, not
    a traceback."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"multiround:\n  p_success: {p}\n")
    out = tmp_path / "o"
    assert run(["multiround", "--config", cfg, "--out", out]) == 2
    assert "p_success" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_negative_seed_is_config_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["tomo-demo", "--seed", -1, "--out", out]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists() or not list(out.glob("*.csv"))


def test_multiround_certain_success(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("multiround:\n  p_success: 1\n")
    out = tmp_path / "o"
    assert run(["multiround", "--config", cfg, "--out", out]) == 0
    row = (out / "multiround.csv").read_text().splitlines()[1].split(",")
    assert [float(v) for v in row[3:4] + row[6:]] == [1.0, 1.0, 1.0, 1.0]


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("teleport", "p_decode", "1.5"),
        ("teleport", "p_flip_m1", "-0.5"),
        ("teleport", "p_decode", "abc"),
        ("error-budget", "p_decode", "1.5"),
        ("error-budget", "p_bright_pass", "1.5"),
    ],
)
def test_rates_outside_unit_interval_are_config_errors(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"{command}:\n  {key}: {value}\n")
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "params",
    [
        "alpha: .nan",
        "kappa_b: .nan",
        "g_bs: .inf",
        "t_pump: .nan",
        "t_protocol: -1.0",
        "dims: [12.5, 16, 12]",
        "alpha: true",
        "t1_cavity: [1.0e-4]",
        "t1_cavity: [1.0e-4, 2.0e-4, 3.0e-4]",
        "kerr: -23.0e+3",
        "chi_bus_transmon: [-2.1e+6, -2.5e+6, -2.5e+6]",
    ],
)
def test_non_finite_or_malformed_params_are_config_errors(tmp_path, capsys, params):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"params:\n  {params}\n")
    assert run(["entangle", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert params.split(":")[0] in capsys.readouterr().err
    assert not (tmp_path / "o" / "entangle.csv").exists()


@pytest.mark.parametrize("command", ["entangle", "alpha-sweep", "teleport", "tomo-demo"])
@pytest.mark.parametrize("value", ["1.0e-6", "0.0", "-1.0e-6", ".inf", "abc", "false"])
def test_dump_time_rejects_bad_values(tmp_path, capsys, command, value):
    """dump_time is null or auto; a number, even a valid window, exits 2 and
    the message points to the parameter t_dump that sets a fixed window."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"{command}:\n  dump_time: {value}\n")
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "dump_time" in err and "t_dump" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("regimes", "t_max", "-1.0"),
        ("regimes", "n_times", "0"),
        ("regimes", "kappas", "[abc]"),
        ("regimes", "kappas", "[-1.0]"),
        ("regimes", "kappas", "5.0"),
        ("transfer-efficiency", "t_max", "0.0"),
        ("transfer-efficiency", "n_times", "2.5"),
        ("phase-sweep", "n_times", "abc"),
        ("phase-sweep", "n_phi", "1.5"),
        ("phase-sweep", "n_phi", "true"),
        ("alpha-sweep", "alphas", "[1.0, true]"),
        ("phase-sweep", "t_max", ".inf"),
        ("error-budget", "alpha_min", "abc"),
        ("error-budget", "alpha_max", "-1.0"),
        ("error-budget", "n_alpha", "-3"),
        ("error-budget", "n_alpha", "1" + "0" * 400),
        ("tomo-demo", "extent", "-2.0"),
        ("tomo-demo", "step", "0.0"),
        ("tomo-demo", "shots", "0"),
        ("tomo-demo", "max_iter", "0"),
    ],
)
def test_bad_counts_and_lengths_are_config_errors(tmp_path, capsys, command, key, value):
    """Counts must be whole numbers >= 1; lengths, extents and steps positive.
    A YAML boolean is no number, although Python reads true as 1."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"{command}:\n  {key}: {value}\n")
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("entangle", "cavity_loss", "'no'"),
        ("teleport", "cavity_loss", "1"),
        ("regimes", "include_critical", "'yes'"),
        ("regimes", "include_critical", "0"),
    ],
)
def test_flags_take_only_true_or_false(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"{command}:\n  {key}: {value}\n")
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert key in capsys.readouterr().err
    # a YAML false is read as the bool it is
    cfg.write_text(f"{command}:\n  {key}: no\n")
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 0
    assert read_manifest(tmp_path / "o")["options"][key] is False


def wrong_kinds(default):
    """Values of another kind than an option whose default is ``default``:
    a scalar or a list with a quoted number for a list, a string, list or
    number for a flag, a list for a named choice, and a one-element list, a
    boolean or a quoted number for a number.  A quoted number is the text of
    a valid value, padded with spaces so that the YAML dump quotes it."""
    if isinstance(default, list):
        return [1.0, "abc", [f" {default[0]} "]]
    if isinstance(default, bool):
        return ["true", [True], 1]
    if isinstance(default, str):
        return [[default], True]
    number = 1.0 if default is None else default
    return [[number], True, f" {number} "]


WRONG_KINDS = [
    (command, key, value)
    for command, (_, defaults) in cli.COMMANDS.items()
    for key, default in defaults.items()
    for value in wrong_kinds(default)
]


@pytest.mark.parametrize(
    "command, key, value", WRONG_KINDS, ids=[f"{c}-{k}-{v!r}" for c, k, v in WRONG_KINDS]
)
def test_every_option_refuses_a_value_of_another_kind(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump({command: {key: value}}))
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", out]) == 2
    assert key in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_option_kinds_name_every_option_and_keep_the_defaults():
    """The kind table names exactly the options of the commands, and each
    command's defaults pass their kinds unchanged in value and type, so the
    manifest records them as they are written."""
    assert set(cli.OPTION_KINDS) == {k for _, defaults in cli.COMMANDS.values() for k in defaults}

    def typed(x):
        if isinstance(x, dict):
            return {k: typed(v) for k, v in x.items()}
        if isinstance(x, list):
            return [typed(v) for v in x]
        return type(x), x

    for _, defaults in cli.COMMANDS.values():
        assert typed(cli.build_opts(defaults)) == typed(defaults)


@pytest.mark.parametrize(
    "text, block",
    [
        ("multiround: 5\n", "multiround"),
        ("params: 5\n", "params"),
        ("params: [alpha]\n", "params"),
        ("scenarios: [s]\n", "scenarios"),
        ("scenarios: {s: 5}\n", "scenarios.s"),
        ("scenarios: {s: {multiround: 7}}\n", "scenarios.s.multiround"),
        ("scenarios: {s: {params: [alpha]}}\n", "scenarios.s.params"),
    ],
)
def test_config_blocks_must_be_mappings(tmp_path, capsys, text, block):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(text)
    out = tmp_path / "o"
    scenario = ["--scenario", "s"] if "scenarios" in text else []
    assert run(["multiround", "--config", cfg, *scenario, "--out", out]) == 2
    assert f"{block} must be a mapping or null" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_null_blocks_are_empty(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("params: ~\nmultiround: ~\nscenarios:\n  s: {params: ~, multiround: ~}\n")
    for scenario in ([], ["--scenario", "s"]):
        out = tmp_path / f"o{len(scenario)}"
        assert run(["multiround", "--config", cfg, *scenario, "--out", out]) == 0
        assert read_manifest(out)["options"] == cli.COMMANDS["multiround"][1]


@pytest.mark.parametrize("case", ["out-is-a-file", "config-is-a-directory", "config-not-utf8"])
def test_unreadable_paths_are_config_errors(tmp_path, capsys, case):
    """A path the CLI cannot read or make is named in a configuration
    error, and nothing is written."""
    taken = tmp_path / "taken"
    taken.write_text("")
    latin1 = tmp_path / "latin1.yaml"
    latin1.write_bytes("multiround:  # \u00e9\n  t_reset: 0.0\n".encode("latin-1"))
    argv, path = {
        "out-is-a-file": (["--out", taken], taken),
        "config-is-a-directory": (["--config", tmp_path, "--out", tmp_path / "o"], tmp_path),
        "config-not-utf8": (["--config", latin1, "--out", tmp_path / "o"], latin1),
    }[case]
    assert run(["multiround", *argv]) == 2
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "o").exists() and taken.read_text() == ""


def test_unknown_engine_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("entangle:\n  engine: foo\n")
    assert run(["entangle", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "engine" in capsys.readouterr().err
    assert not (tmp_path / "o" / "entangle.csv").exists()


def test_empty_alpha_sweep_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("alpha-sweep:\n  alphas: []\n")
    assert run(["alpha-sweep", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "alphas" in capsys.readouterr().err
    assert not (tmp_path / "o" / "alpha_sweep.csv").exists()


def test_negative_alpha_in_sweep_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("alpha-sweep:\n  alphas: [-1.0]\n")
    assert run(["alpha-sweep", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, block",
    [
        ("entangle", "entangle:\n  check: ideal\n"),
        ("entangle", "entangle:\n  check: measured\n"),
        ("alpha-sweep", "alpha-sweep:\n  alphas: [0.0]\n"),
        ("teleport", ""),
        ("tomo-demo", "tomo-demo:\n  check: measured\n"),
    ],
)
def test_alpha_zero_is_numerical_failure(tmp_path, capsys, command, block):
    """At alpha = 0 there is no cat code: a clean exit 3, never a traceback."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text("params:\n  alpha: 0.0\n" + block)
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("dims", ["[2, 16, 2]", "[12, 16, 2]"])
def test_cavity_truncation_two_is_numerical_failure(tmp_path, capsys, dims):
    """A cavity truncated at 2 levels holds no plus codeword: a clean exit 3
    naming the truncation and no CSV, never a perfect Bell pair."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"params:\n  dims: {dims}\n")
    assert run(["entangle", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert "truncation of at least 3" in capsys.readouterr().err
    assert not (tmp_path / "o" / "entangle.csv").exists()


def test_dual_rail_reads_t_final_without_a_dot(tmp_path):
    """1e-5, with no dot, means 1.0e-5 seconds."""
    outs = []
    for i, value in enumerate(("1e-5", "1.0e-5")):
        cfg = tmp_path / f"c{i}.yaml"
        cfg.write_text(f"dual-rail:\n  t_final: {value}\n")
        outs.append(tmp_path / f"o{i}")
        assert run(["dual-rail", "--config", cfg, "--out", outs[-1]]) == 0
    assert (outs[0] / "dual_rail.csv").read_bytes() == (outs[1] / "dual_rail.csv").read_bytes()


@pytest.mark.parametrize(
    "command, block, key",
    [
        ("dual-rail", 'dual-rail:\n  t_final: "1e-5"\n', "t_final"),
        ("multiround", 'multiround:\n  t_attempt: " 8.85e-6 "\n', "t_attempt"),
        ("regimes", 'regimes:\n  kappas: ["600e3"]\n', "kappas"),
        ("regimes", 'params:\n  kappa_b: "600e3"\n', "kappa_b"),
    ],
    ids=["t_final", "t_attempt", "kappas-entry", "params-kappa_b"],
)
def test_quoted_numbers_are_config_errors(tmp_path, capsys, command, block, key):
    """A quoted number is a string, in an option as in ``params:``: the run
    stops with a configuration error naming the key, before any CSV."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text(block)
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", out]) == 2
    assert key in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


# ---------------------------------------------------------------------------
# exit code 3: numerical failure
# ---------------------------------------------------------------------------


def test_dual_rail_unconverged_is_numerical_failure(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("dual-rail:\n  t_final: 1.0e-7\n")
    assert run(["dual-rail", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert "numerical failure" in capsys.readouterr().err


# entangle-lindblad past float range: 2 pi kappa_b = inf gives an infinite
# c, 2 pi g_bs = inf an infinite H, and c^dag c = inf an infinite K; and
# rates of 1e150 Hz, which would take some 1e146 applications of L
_LINDBLAD_LIMITS = [
    ("kappa_b: 1.0e+308", "collapse operator 1 is not finite"),
    ("g_bs: 1.0e+308", "the Hamiltonian H is not finite"),
    ("kappa_b: 2.0e+307", "the Taylor step bound t ||L - mu||_2 is inf"),
    ("g_bs: 1.0e+150", "the master equation needs 55 x "),
    ("kappa_b: 1.0e+150", "the master equation needs 55 x "),
]


@pytest.mark.parametrize(
    "command, block, code, message",
    [
        ("transfer-efficiency", "transfer-efficiency:\n  n_times: 1.0e+18\n", 2,
         "error: transfer-efficiency asks for more memory than there is"),
        ("tomo-demo", "tomo-demo:\n  step: 1.0e-16\n", 2,
         "error: tomo-demo asks for more memory than there is"),
        ("tomo-demo", "tomo-demo:\n  step: 1.0e-7\n", 2,
         "error: tomo-demo asks for more memory than there is"),
        *[(command, "params:\n  kappa_b: 1.0e+300\n", 3, f"numerical failure in {command}")
          for command in ("transfer-efficiency", "dual-rail", "entangle")],
        ("regimes", "regimes:\n  kappas: [1.0e+300]\n", 3, "numerical failure in regimes"),
        ("regimes", "params:\n  g_bs: 1.0e+300\n", 3, "numerical failure in regimes"),
        *[("entangle", f"params:\n  {p}\n  alpha: 0.5\n  dims: [3, 3, 3]\n"
           "entangle:\n  engine: lindblad\n", 3,
           f"numerical failure in entangle: dynamics: {message}")
          for p, message in _LINDBLAD_LIMITS],
    ],
    ids=["transfer-n_times", "tomo-demo-step", "tomo-demo-step-1e-7", "transfer-kappa_b",
         "dual-rail-kappa_b",
         "entangle-kappa_b", "regimes-kappas", "regimes-g_bs",
         *(f"lindblad-{p.replace(': ', '-')}" for p, _ in _LINDBLAD_LIMITS)],
)
def test_arithmetic_limits_end_in_an_exit_code(tmp_path, capsys, command, block, code, message):
    """An array numpy cannot allocate is a configuration error (exit 2), a
    float overflow a numerical failure (exit 3); either message names the
    command, there is no traceback and no CSV.  Every size here is refused
    before anything is allocated, and the master equation refuses its
    operators before the Taylor series allocates a term buffer.  tomo-demo
    checks its forward map's size itself, so it peaks under 64 MB also where
    the request would fit in memory piecemeal (at step 1e-7, two 4e7-point
    grid axes of 320 MB each come before the 1.8e18-byte map); where numpy
    refuses, tracemalloc counts the refused request, so the peak is not
    checked there.  No numpy RuntimeWarning comes before the message: the
    exit code and the message report the failure."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text(block)
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status, peak = traced_peak(run, [command, "--config", cfg, "--out", out])
    assert status == code
    if command == "tomo-demo":
        assert peak < 64 * 2**20
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not list(out.glob("*.csv"))
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_tomo_demo_memory_guard_counts_the_build_scratch(tmp_path, capsys, monkeypatch):
    """With physical memory between the orbits' design matrix alone and the
    matrix plus the build's per-run scratch, tomo-demo refuses before
    building: exit 2, the memory message, no CSV.  The request counts the
    grid's 441 orbits, not its 1681 points: with memory for the orbit build
    alone, the command runs."""
    dim = SystemParams().dims[0]
    opts = cli.COMMANDS["tomo-demo"][1]
    points = tomography.WignerGrid.axis_points(opts["extent"], opts["step"]) ** 2
    orbits = tomography.WignerGrid.orbits(opts["extent"], opts["step"])
    assert (points, orbits) == (1681, 441)
    matrix = orbits * dim**2 * 8
    total = matrix + 3 * orbits * dim * 16
    build = tomography.WignerMap.build_bytes(dim, orbits, points)
    assert matrix < total < build < points * dim**2 * 8
    sysconf = os.sysconf
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": total}
    monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name) or sysconf(name))
    out = tmp_path / "o"
    assert run(["tomo-demo", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "error: tomo-demo asks for more memory than there is" in err
    assert "Traceback" not in err
    assert not list(out.glob("*.csv"))
    # the orbit build's bytes are enough, though a row per point would not fit
    pages["SC_PHYS_PAGES"] = build
    assert run(["tomo-demo", "--out", out]) == 0
    assert (out / "wigner_ideal.csv").exists()


def test_dual_rail_lossless_whole_periods_is_numerical_failure(tmp_path, capsys):
    """A lossless bus after whole bright periods holds the photon where it
    started; that periodic state is not a steady state."""
    t_final = 10 * 2 * math.pi / (math.sqrt(2) * 2 * math.pi * 160e3)
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"params:\n  kappa_b: 0.0\ndual-rail:\n  t_final: {t_final!r}\n")
    assert run(["dual-rail", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert "numerical failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config layering
# ---------------------------------------------------------------------------


def test_scenario_overrides_command_block(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(
        "params:\n  alpha: 1.0\n"
        "multiround:\n  t_attempt: 5.0e-6\n"
        "scenarios:\n"
        "  fast:\n"
        "    params:\n      alpha: 1.1\n"
        "    multiround:\n      t_attempt: 2.0e-6\n"
    )
    out1 = tmp_path / "base"
    assert run(["multiround", "--config", cfg, "--out", out1]) == 0
    m1 = read_manifest(out1)
    assert m1["options"]["t_attempt"] == pytest.approx(5e-6)
    assert m1["params"]["alpha"] == pytest.approx(1.0)

    out2 = tmp_path / "scen"
    assert run(["multiround", "--config", cfg, "--scenario", "fast", "--out", out2]) == 0
    m2 = read_manifest(out2)
    assert m2["options"]["t_attempt"] == pytest.approx(2e-6)
    assert m2["params"]["alpha"] == pytest.approx(1.1)
    assert m2["scenario"] == "fast"


def test_tuple_params_from_yaml_lists(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("params:\n  t1_cavity: [100.0e-6, 200.0e-6]\n  dims: [8, 10, 8]\n")
    out = tmp_path / "o"
    assert run(["multiround", "--config", cfg, "--out", out]) == 0
    m = read_manifest(out)
    assert m["params"]["t1_cavity"] == [100e-6, 200e-6]
    assert m["params"]["dims"] == [8, 10, 8]


# ---------------------------------------------------------------------------
# seeded determinism
# ---------------------------------------------------------------------------


TOMO_CFG = (
    "tomo-demo:\n"
    "  extent: 1.0\n"
    "  step: 0.5\n"
    "  shots: 200\n"
    "  max_iter: 60\n"
)


def test_tomo_demo_rerun_is_byte_identical(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(TOMO_CFG)
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run(["tomo-demo", "--config", cfg, "--seed", 7, "--out", out1]) == 0
    assert run(["tomo-demo", "--config", cfg, "--seed", 7, "--out", out2]) == 0
    assert run(["tomo-demo", "--config", cfg, "--seed", 8, "--out", out3]) == 0

    for name in ("wigner_ideal.csv", "wigner_sampled.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    # a different seed draws different shots
    assert (out1 / "wigner_sampled.csv").read_bytes() != (out3 / "wigner_sampled.csv").read_bytes()
    # but the noiseless map does not depend on the seed at all
    assert (out1 / "wigner_ideal.csv").read_bytes() == (out3 / "wigner_ideal.csv").read_bytes()


def test_every_command_reruns_byte_identical(tmp_path):
    """Two runs of ``tools/cli_outputs.py``, the ten commands at their
    defaults and the benchmark's scenarios at one seed, write the same files
    with the same bytes; the manifests drop only their timestamp and wall
    time."""
    tool = Path(__file__).resolve().parents[1] / "tools" / "cli_outputs.py"
    tool = runpy.run_path(str(tool))
    a, b = (tmp_path / "a").resolve(), (tmp_path / "b").resolve()
    files_a, files_b = tool["write_outputs"](a), tool["write_outputs"](b)
    assert [f.relative_to(a) for f in files_a] == [f.relative_to(b) for f in files_b]
    manifests = {f.parent for f in files_a if f.name == "manifest.json"}
    assert manifests == {f.parent for f in files_a} == {a / run for run in tool["runs"]()}
    for fa, fb in zip(files_a, files_b):
        assert fa.read_bytes() == fb.read_bytes(), fa.relative_to(a)


def test_cli_outputs_diff_names_each_moved_value(tmp_path, capsys, monkeypatch):
    """``tools/cli_outputs.py --diff``: identical trees print nothing; one
    edited CSV cell prints exactly that cell, within tolerance or marked
    outside it, and a moved manifest value prints its key."""
    tool = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "cli_outputs.py"))
    before, after = tmp_path / "before" / "run", tmp_path / "after" / "run"
    for root in (before, after):
        root.mkdir(parents=True)
        (root / "out.csv").write_text("alpha,fidelity\n0.5,0.9742290461870651\n1.0,0.9\n")
        (root / "manifest.json").write_text(
            '{"summary": {"fidelity": 0.9}, "sha256": {"out.csv": "ab"}}'
        )
        (root / "plot.gp").write_text("plot 'out.csv'\n")

    argv = ["cli_outputs.py", "--diff", str(before.parent), str(after.parent)]
    monkeypatch.setattr(sys, "argv", argv)

    def diff():
        code = tool["main"]()
        return code, capsys.readouterr().out.splitlines()

    assert diff() == (0, [])
    (after / "out.csv").write_text("alpha,fidelity\n0.5,0.9742290461870642\n1.0,0.9\n")
    assert diff() == (0, ["run/out.csv fidelity row 0: 0.9742290461870651 -> 0.9742290461870642"])
    (after / "out.csv").write_text("alpha,fidelity\n0.5,0.9742290461870651\n1.0,0.91\n")
    assert diff() == (1, ["run/out.csv fidelity row 1: 0.9 -> 0.91" + tool["OUTSIDE"]])
    (after / "out.csv").write_text("alpha,fidelity\n0.5,0.9742290461870651\n1.0,0.9\n")
    (after / "manifest.json").write_text(
        '{"summary": {"fidelity": 0.9000000001}, "sha256": {"out.csv": "cd"}}'
    )
    assert diff() == (0, ["run/manifest.json summary.fidelity: 0.9 -> 0.9000000001"])
    # values that depend on the seed are labelled, whatever their size, and
    # leave the exit status alone; only the summary's seeded keys count
    (after / "manifest.json").write_text(
        '{"summary": {"fidelity": 0.9, "mle_fidelity": 0.5}, "sha256": {"out.csv": "ab"}}'
    )
    (before / "manifest.json").write_text(
        '{"summary": {"fidelity": 0.9, "mle_fidelity": 0.9}, "sha256": {"out.csv": "ab"}}'
    )
    (before / "wigner_sampled.csv").write_text("value,counts\n0.25,5\n")
    (after / "wigner_sampled.csv").write_text("value,counts\n0.5,6\n")
    seeded = tool["SEEDED"]
    assert diff() == (0, [
        "run/manifest.json summary.mle_fidelity: 0.9 -> 0.5" + seeded,
        "run/wigner_sampled.csv value row 0: 0.25 -> 0.5" + seeded,
        "run/wigner_sampled.csv counts row 0: 5.0 -> 6.0" + seeded,
    ])
    (after / "out.csv").write_text("alpha,mle_fidelity\n0.5,0.9742290461870651\n1.0,0.91\n")
    assert diff()[0] == 1  # a seeded name in an unseeded CSV is checked as usual


def test_cli_outputs_diff_stops_quietly_when_its_reader_does(tmp_path):
    """``tools/cli_outputs.py --diff A B | head``: the reader closes the pipe
    after one line, long before the diff's 5000 lines (about 300 kB, more
    than a pipe holds) are written; the tool exits with its status, 1 for
    the moved values, and writes nothing to stderr."""
    rows = {"before": range(5000), "after": range(1, 5001)}
    for name, values in rows.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / "out.csv").write_text("n\n" + "".join(f"{v}\n" for v in values))
    tool = Path(__file__).resolve().parents[1] / "tools" / "cli_outputs.py"
    path = [str(Path(darkbus.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.Popen(
        [sys.executable, str(tool), "--diff", str(tmp_path / "before"), str(tmp_path / "after")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    assert proc.stdout.readline().startswith("out.csv n row 0: 0.0 -> 1.0")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == ""


# The output of two perfbench/run.py runs on master-equation, cut to the
# lines bench_record.py reads and a few it skips.
_PERFBENCH_STDOUT = {
    0: "\n".join([
        'environment {"nproc": 2, "blas_threads": {"libopenblas.so": 1}, "numpy": "2.4.6"}',
        "metric master-equation  main_step_s    0.0798379 s  [entangle_lindblad_s]",
        "step   master-equation  entangle_lindblad_s    0.0798379 s  [median per call]",
        'info samples {"setup_s": 16, "wall_s": 14, "step": 14}',
        'info steps {"entangle_lindblad_s": 0.07983790520952888, "transfer_s": 0.0034425645424791306}',
        'info raw {"wall_s": 0.05904023749985754, "main_step_s": 0.055112389999976585}',
        '{"correct": true, "attempted": 42, "failed": 0, "metrics": '
        '{"main_step_s": {"value": 0.07983790520952888, "unit": "s"}, '
        '"pass_ratio": {"value": 1.0, "unit": "ratio"}}}',
    ]),
    1: "\n".join([
        'environment {"nproc": 2, "blas_threads": {"libopenblas.so": 1}, "numpy": "2.4.6"}',
        "metric master-equation  dynamics.lindblad_evolve.calls    9 count",
        '{"correct": true, "attempted": 18, "failed": 0, "metrics": '
        '{"dynamics.lindblad_evolve.calls": {"value": 9, "unit": "count"}, '
        '"dynamics.transfer_efficiency.evals": {"value": 0, "unit": "count"}, '
        '"protocol.teleport.self_s": {"value": 0.0, "unit": "s"}, '
        '"trace.count_mismatches": {"value": 0, "unit": "count"}}}',
    ]),
}


def test_bench_record_writes_what_perfbench_printed(tmp_path, monkeypatch, capsys):
    """``tools/bench_record.py`` on canned perfbench output, so no benchmark
    runs: one untraced and one traced run per workload asked for, each
    recorded with its metrics, step times and raw medians; the environment
    once; the bytecode-cache state of the tree, taken before the first
    run; and, besides the metrics known to read 0, those that did, other
    than the tracer's own.  A run that prints no result is recorded as an
    error and sets the exit status."""
    root = Path(__file__).resolve().parents[1]
    tool = runpy.run_path(str(root / "tools" / "bench_record.py"))
    commands = []
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")

    def fake_run(cmd, **kwargs):
        commands.append(cmd[1:])
        trace = int(cmd[cmd.index("--trace") + 1])
        return subprocess.CompletedProcess(cmd, 0, stdout=_PERFBENCH_STDOUT[trace], stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    out = tmp_path / "BENCH.json"
    argv = [str(out), "--workload", "master-equation", "--seconds", "5", "--seed", "7"]
    assert tool["main"](argv) == 0
    assert commands == [
        ["perfbench/run.py", "--workload", "master-equation", "--seed", "7", "--seconds", "5.0",
         "--trace", str(trace)]
        for trace in (0, 1)
    ]
    record = json.loads(out.read_text())
    assert record["environment"] == {"nproc": 2, "blas_threads": {"libopenblas.so": 1}, "numpy": "2.4.6"}
    assert record["bytecode"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert sorted(record["bytecode"]["fresh_pyc"]) == sorted(
        p.name for p in (root / "src" / "darkbus").glob("*.py")
    )
    plain = record["workloads"]["master-equation"]["end_to_end"]
    assert plain["exit"] == 0 and plain["correct"] is True
    assert plain["metrics"] == {"main_step_s": 0.07983790520952888, "pass_ratio": 1.0}
    assert plain["steps"]["entangle_lindblad_s"] == 0.07983790520952888
    assert plain["raw"]["main_step_s"] == 0.055112389999976585
    traced = record["workloads"]["master-equation"]["per_layer"]
    assert traced["metrics"]["dynamics.lindblad_evolve.calls"] == 9
    assert record["read_zero"] == {
        "master-equation": ["dynamics.transfer_efficiency.evals", "protocol.teleport.self_s"]
    }
    assert set(record["read_zero"]["master-equation"]) <= set(record["known_zero"])
    assert "wrote" in capsys.readouterr().out

    def traced_run_fails(cmd, **kwargs):
        if cmd[-1] == "0":
            return fake_run(cmd)
        return subprocess.CompletedProcess(cmd, 1, stdout="", stderr="Traceback")

    monkeypatch.setattr(subprocess, "run", traced_run_fails)
    assert tool["main"](argv) == 1
    traced = json.loads(out.read_text())["workloads"]["master-equation"]["per_layer"]
    assert traced["exit"] == 1 and "perfbench printed nothing" in traced["error"]


def test_bench_record_reads_the_bytecode_cache_state(tmp_path, monkeypatch):
    """``bytecode_state`` on a canned tree, with no benchmark run: a source
    whose ``.pyc`` is as new as it or newer is fresh, one whose ``.pyc`` is
    older or missing is not, and ``PYTHONDONTWRITEBYTECODE`` is read from
    the environment the runs inherit, null where unset."""
    tool = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"))
    package = tmp_path / "src" / "darkbus"
    package.mkdir(parents=True)
    for name, pyc_age in [("fresh.py", 0), ("newer.py", -5), ("stale.py", 5), ("missing.py", None)]:
        source = package / name
        source.write_text("x = 1\n")
        os.utime(source, (1e9, 1e9))
        if pyc_age is not None:
            pyc = Path(importlib.util.cache_from_source(str(source)))
            pyc.parent.mkdir(exist_ok=True)
            pyc.write_bytes(b"")
            os.utime(pyc, (1e9 - pyc_age, 1e9 - pyc_age))
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    assert tool["bytecode_state"](tmp_path) == {
        "PYTHONDONTWRITEBYTECODE": None,
        "fresh_pyc": {"fresh.py": True, "missing.py": False, "newer.py": True, "stale.py": False},
    }
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert tool["bytecode_state"](tmp_path)["PYTHONDONTWRITEBYTECODE"] == "1"


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_cli_stops_quietly_when_its_reader_does(tmp_path, unbuffered):
    """``darkbus regimes | head -1`` with 2000 damping rates: the reader
    closes the pipe after the first line, long before the about 125 kB of
    per-rate lines, more than a pipe holds, are printed.  The run still
    writes both CSVs and the manifest, exits 0, and writes nothing to
    stderr, with stdout block-buffered and unbuffered alike."""
    cfg = tmp_path / "cfg.yaml"
    kappas = np.linspace(1e5, 3e6, 2000).tolist()
    cfg.write_text(yaml.safe_dump({"regimes": {"kappas": kappas, "n_times": 3}}))
    out = tmp_path / "out"
    path = [str(Path(darkbus.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), PYTHONUNBUFFERED=unbuffered
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "darkbus.cli", "regimes", "--config", str(cfg), "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    assert proc.stdout.readline() == f"wrote {out / 'regimes.csv'}\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert err == ""
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["regimes.csv", "regime_curves.csv"]
    for name, digest in manifest["sha256"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    assert len((out / "regimes.csv").read_text().splitlines()) == 1 + len(kappas) + 1


@pytest.mark.parametrize(
    "options, kw",
    [
        ("", {}),
        ("  check: ideal\n", {"check": VacuumCheckModel.ideal()}),
        ("  cavity_loss: false\n", {"cavity_loss": False}),
        ("  dump_time: auto\n", {"dump_time": "auto"}),
    ],
    ids=["defaults", "ideal", "lossless", "auto-dump"],
)
def test_alpha_sweep_rows_match_run_dmm(tmp_path, options, kw):
    """Each sweep row is exactly a standalone heralding run at that alpha."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text("alpha-sweep:\n  alphas: [1.0, 1.3, 1.6]\n" + options)
    assert run(["alpha-sweep", "--config", cfg, "--out", tmp_path / "o"]) == 0
    lines = (tmp_path / "o" / "alpha_sweep.csv").read_text().splitlines()[1:]
    assert len(lines) == 3
    kw = {"check": VacuumCheckModel.from_measured(), **kw}
    for line, alpha in zip(lines, (1.0, 1.3, 1.6)):
        r = protocol.run_dmm(SystemParams(alpha=alpha), **kw)
        w1, w2 = r.codewords
        expected = (alpha, r.p_pass, r.bell_fidelity, w1.basis.alpha, w2.basis.alpha)
        assert line == ",".join(repr(float(x)) for x in expected)


@pytest.mark.parametrize("check", ["ideal", "measured"])
def test_alpha_sweep_with_one_zero_alpha_writes_no_table(tmp_path, capsys, check):
    """alpha = 0 among valid amplitudes fails the whole sweep (no herald with
    the ideal check, no codewords with the measured one): exit 3, no CSV."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"alpha-sweep:\n  alphas: [1.0, 0.0]\n  check: {check}\n")
    assert run(["alpha-sweep", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert "numerical failure in alpha-sweep" in capsys.readouterr().err
    assert not (tmp_path / "o" / "alpha_sweep.csv").exists()


def test_tomo_demo_reports_mle_convergence(tmp_path):
    cfg_capped = tmp_path / "capped.yaml"
    cfg_capped.write_text(TOMO_CFG)
    cfg_free = tmp_path / "free.yaml"
    cfg_free.write_text(TOMO_CFG.replace("max_iter: 60", "max_iter: 20000"))
    assert run(["tomo-demo", "--config", cfg_capped, "--out", tmp_path / "a"]) == 0
    assert run(["tomo-demo", "--config", cfg_free, "--out", tmp_path / "b"]) == 0
    capped = read_manifest(tmp_path / "a")["summary"]
    free = read_manifest(tmp_path / "b")["summary"]
    assert capped["mle_converged"] is False and capped["mle_iterations"] == 60
    assert free["mle_converged"] is True and free["mle_iterations"] < 20000


def test_tomo_demo_converges_at_defaults(tmp_path):
    assert run(["tomo-demo", "--out", tmp_path / "o"]) == 0
    summary = read_manifest(tmp_path / "o")["summary"]
    assert summary["mle_converged"] is True
    assert summary["mle_iterations"] < 200
