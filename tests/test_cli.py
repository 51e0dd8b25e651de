"""Command line driver: exit codes, config layering, manifest, reruns."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import darkbus
from darkbus import cli, protocol
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
    header = (out / "multiround.csv").read_text().splitlines()[0]
    assert header == (
        "p_success,t_attempt_s,t_reset_s,mean_attempts,"
        "mean_wait_s,rate_hz,attempts_p50,attempts_p90,attempts_p99"
    )


def test_entangle_csv(tmp_path):
    out = tmp_path / "ent"
    assert run(["entangle", "--out", out]) == 0
    lines = (out / "entangle.csv").read_text().splitlines()
    assert lines[0] == (
        "p_gg,p_ge,p_eg,p_ee,fidelity,"
        "alpha_basis_1,alpha_basis_2,t_dump_s,bright_residual"
    )
    row = [float(x) for x in lines[1].split(",")]
    assert sum(row[:4]) == pytest.approx(1.0, abs=1e-9)
    m = read_manifest(out)
    assert 0.90 < m["summary"]["fidelity"] < 0.97


def test_csv_columns_format_like_cells():
    """A column formatted whole holds, cell by cell, the text of ``_cell``."""
    columns = [
        np.array([0.1, -0.0, 1e-300, 5e-324, 1.7976931348623157e308, np.inf, -np.inf, np.nan]),
        np.array([0.1, 3.5, -2e-8], dtype=np.float32),
        np.array([0, -7, 2**62]),
        np.array([3, 255], dtype=np.uint8),
        np.array([True, False]),
        np.array(["critical", "x"]),
        [1, 2.5, True, np.float64(0.3), np.int64(4), "s", np.bool_(False)],
        (),
    ]
    for values in columns:
        assert list(cli._column(values)) == [cli._cell(x) for x in values]


def test_regimes_far_overdamped_bus(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("regimes:\n  kappas: [20e6]\n  include_critical: false\n")
    assert run(["regimes", "--config", cfg, "--out", tmp_path]) == 0
    rows = (tmp_path / "regimes.csv").read_text().splitlines()
    assert rows[1].startswith("20000000.0,overdamped,")
    curve = np.loadtxt(tmp_path / "regime_curves.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(curve))


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
@pytest.mark.parametrize("value", ["-1.0e-6", ".inf", "abc", "false"])
def test_dump_time_rejects_bad_values(tmp_path, capsys, command, value):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"{command}:\n  dump_time: {value}\n")
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "dump_time" in capsys.readouterr().err


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


def test_dual_rail_reads_t_final_without_a_dot(tmp_path):
    """1e-5, with no dot, means 1.0e-5 seconds."""
    outs = []
    for i, value in enumerate(("1e-5", "1.0e-5")):
        cfg = tmp_path / f"c{i}.yaml"
        cfg.write_text(f"dual-rail:\n  t_final: {value}\n")
        outs.append(tmp_path / f"o{i}")
        assert run(["dual-rail", "--config", cfg, "--out", outs[-1]]) == 0
    assert (outs[0] / "dual_rail.csv").read_bytes() == (outs[1] / "dual_rail.csv").read_bytes()


def test_manifest_records_numbers_read_as_strings(tmp_path):
    """A quoted number is a string; the manifest records the float used."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text('dual-rail:\n  t_final: "1e-5"\nmultiround:\n  t_attempt: "9e-6"\n')
    assert run(["dual-rail", "--config", cfg, "--out", tmp_path / "dr"]) == 0
    assert run(["multiround", "--config", cfg, "--out", tmp_path / "mr"]) == 0
    assert read_manifest(tmp_path / "dr")["options"]["t_final"] == 1e-5
    options = read_manifest(tmp_path / "mr")["options"]
    assert options["t_attempt"] == 9e-6
    assert options["t_reset"] == 0.0 and options["p_success"] == 1 / 2.6


# ---------------------------------------------------------------------------
# exit code 3: numerical failure
# ---------------------------------------------------------------------------


def test_dual_rail_unconverged_is_numerical_failure(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("dual-rail:\n  t_final: 1.0e-7\n")
    assert run(["dual-rail", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert "numerical failure" in capsys.readouterr().err


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

    header = (out1 / "wigner_sampled.csv").read_text().splitlines()[0]
    assert header == "re_beta,im_beta,value,shots,counts"
    assert (out1 / "wigner_ideal.csv").read_text().splitlines()[0] == "re_beta,im_beta,value"


def test_alpha_sweep_rows_match_run_dmm(tmp_path):
    """Each sweep row is exactly a standalone heralding run at that alpha."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text("alpha-sweep:\n  alphas: [1.0, 1.3, 1.6]\n")
    assert run(["alpha-sweep", "--config", cfg, "--out", tmp_path / "o"]) == 0
    lines = (tmp_path / "o" / "alpha_sweep.csv").read_text().splitlines()[1:]
    assert len(lines) == 3
    for line, alpha in zip(lines, (1.0, 1.3, 1.6)):
        r = protocol.run_dmm(SystemParams(alpha=alpha), check=VacuumCheckModel.from_measured())
        expected = (alpha, r.p_pass, r.bell_fidelity, r.alpha_dark[0], r.alpha_dark[1])
        assert line == ",".join(repr(float(x)) for x in expected)


def test_gnuplot_flag_emits_script(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(TOMO_CFG)
    out = tmp_path / "o"
    assert run(["tomo-demo", "--config", cfg, "--gnuplot", "--out", out]) == 0
    assert (out / "plot.gp").exists()
    assert "plot.gp" in read_manifest(out)["outputs"]


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
