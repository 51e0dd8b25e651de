"""Command line driver: exit codes, config layering, manifest, reruns."""

import hashlib
import json
import math

import pytest

from darkbus import cli, protocol
from darkbus.protocol import VacuumCheckModel


def run(args):
    return cli.main([str(a) for a in args])


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
    # YAML reads 600e3 (no decimal point) as a *string*; that must fail
    # loudly instead of silently running with a bogus linewidth
    cfg = tmp_path / "c.yaml"
    cfg.write_text("params:\n  kappa_b: 600e3\n")
    assert run(["multiround", "--config", cfg, "--out", tmp_path / "o"]) == 2


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


def test_dual_rail_reads_t_final_without_a_dot(tmp_path):
    """YAML reads 1e-5 as a string; it must still mean 1.0e-5 seconds."""
    outs = []
    for i, value in enumerate(("1e-5", "1.0e-5")):
        cfg = tmp_path / f"c{i}.yaml"
        cfg.write_text(f"dual-rail:\n  t_final: {value}\n")
        outs.append(tmp_path / f"o{i}")
        assert run(["dual-rail", "--config", cfg, "--out", outs[-1]]) == 0
    assert (outs[0] / "dual_rail.csv").read_bytes() == (outs[1] / "dual_rail.csv").read_bytes()


def test_manifest_records_numbers_read_as_strings(tmp_path):
    """PyYAML reads 1e-5 as a string; the manifest records the float used."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text("dual-rail:\n  t_final: 1e-5\nmultiround:\n  t_attempt: 9e-6\n")
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
        r = protocol.run_dmm(alpha=alpha, check=VacuumCheckModel.from_measured())
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
