"""End-to-end acceptance checks, one per headline claim.

Each test prints a single PASS/FAIL line (visible with -s, or on failure)
and then asserts, so a red run names exactly which guarantee broke.
"""

import math
import time

import numpy as np
import pytest

from darkbus import cli, codes, dynamics, errorbudget, hilbert, protocol, tomography
from darkbus.codes import LogicalBasis
from darkbus.dynamics import SystemParams
from darkbus.protocol import VacuumCheckModel
from darkbus.tomography import WignerGrid, WignerMap
from oracles import (
    embed,
    expect_trajectory,
    fock,
    kerr_twist_angle,
    kerr_unitary,
    materialize_coherent,
    params_network,
    product_ket,
)

G = 160e3
ROOT2 = math.sqrt(2)


def _report(tag: str, ok: bool, detail: str = "") -> bool:
    print(f"{tag}: {'PASS' if ok else 'FAIL'}" + (f"  [{detail}]" if detail else ""))
    return ok


# ---------------------------------------------------------------------------
# 1. the heralded state does not care about bus loss
# ---------------------------------------------------------------------------


def test_ac1_dark_state_immunity():
    t0 = time.monotonic()
    fids = []
    for kappa in (160e3, 600e3, 905e3, 2000e3):
        res = protocol.run_dmm(
            SystemParams(kappa_b=kappa), cavity_loss=False, dump_time="auto"
        )
        fids.append(res.bell_fidelity)
    elapsed = time.monotonic() - t0
    spread = max(fids) - min(fids)
    ok = all(f >= 1 - 1e-6 for f in fids) and spread < 1e-6 and elapsed < 120
    assert _report(
        "AC1 bus-loss immunity",
        ok,
        f"min F = {min(fids):.9f}, spread = {spread:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. ideal herald probability
# ---------------------------------------------------------------------------


def test_ac2_ideal_herald_probability():
    ok = True
    for a in (0.5, 1.0, ROOT2, 2.0):
        q = math.exp(-a * a)
        expected = 0.5 * (1 - 2 * q + q * q)
        res = protocol.run_dmm(SystemParams(alpha=a), cavity_loss=False, dump_time="auto")
        ok &= abs(res.p_pass - expected) <= 1e-6
    p_ref = protocol.run_dmm(SystemParams(alpha=ROOT2), cavity_loss=False, dump_time="auto").p_pass
    ok &= abs(p_ref - 0.3738) <= 5e-5
    assert _report("AC2 ideal herald probability", ok, f"p(sqrt2) = {p_ref:.6f}")


# ---------------------------------------------------------------------------
# 3. damping regimes of the bright sector
# ---------------------------------------------------------------------------


def _fit_zero_crossing_freq(times, signal):
    """Angular frequency from the spacing of sign changes (pi per crossing)."""
    s = np.sign(signal)
    idx = np.nonzero(s[:-1] * s[1:] < 0)[0]
    crossings = []
    for i in idx:
        t1, t2 = times[i], times[i + 1]
        y1, y2 = signal[i], signal[i + 1]
        crossings.append(t1 - y1 * (t2 - t1) / (y2 - y1))
    gaps = np.diff(crossings)
    return math.pi / float(np.mean(gaps))


def test_ac3_damping_regimes():
    g_ang = dynamics.TWO_PI * G
    ok = True

    # underdamped: the bright mode rings at sqrt(2) g
    times = np.linspace(0.0, 8e-6, 4001)
    z = dynamics.langevin_solve(G, (0.0, 0.0), 160e3, [1 / ROOT2, 0, 1 / ROOT2], times)
    omega_fit = _fit_zero_crossing_freq(times, z[:, 0].real)
    target = ROOT2 * g_ang
    dev_u = abs(omega_fit - target) / target
    ok &= dev_u <= 0.02

    # boundary between ringing and pure decay: kappa = 4 sqrt(2) g
    kc = dynamics.critical_kappa(G)
    dev_c = abs(kc - 905e3) / 905e3
    ok &= dev_c <= 0.02
    ok &= dynamics.classify_regime(G, kc) == "critical"
    ok &= dynamics.classify_regime(G, 160e3) == "underdamped"
    ok &= dynamics.classify_regime(G, 8000e3) == "overdamped"

    # overdamped: slow amplitude pole at 2 g_bright^2 / kappa
    kappa = 8000e3
    times2 = np.linspace(2e-6, 20e-6, 200)
    z2 = dynamics.langevin_solve(G, (0.0, 0.0), kappa, [1 / ROOT2, 0, 1 / ROOT2], times2)
    slope = -np.polyfit(times2, np.log(np.abs(z2[:, 0])), 1)[0]
    target_od = 2 * (ROOT2 * g_ang) ** 2 / (dynamics.TWO_PI * kappa)
    dev_o = abs(slope - target_od) / target_od
    ok &= dev_o <= 0.02

    # quantum expectations ride the classical trajectories
    dims = (6, 6, 6)
    z0 = np.array([0.35, 0.0, -0.2 + 0.1j])
    psi0 = product_ket(
        dims,
        {"cav1": hilbert.coherent(6, z0[0]), "cav2": hilbert.coherent(6, z0[2])},
    )
    params = SystemParams(g_bs=G, kappa_b=600e3, dims=dims)
    h, c_ops = params_network(params)
    qtimes = np.linspace(0.0, 1.5e-6, 3)
    lowering = [
        embed(dims, {i: hilbert.destroy(d)}, sparse=True) for i, d in enumerate(dims)
    ]
    traj = dynamics.langevin_solve(G, params.gamma_cavity, 600e3, z0, qtimes)
    dev_q = float(np.max(np.abs(expect_trajectory(h, c_ops, psi0, qtimes, lowering) - traj)))
    ok &= dev_q <= 1e-6

    assert _report(
        "AC3 damping regimes",
        ok,
        f"ring {dev_u:.3%}, crit {dev_c:.3%}, overdamped {dev_o:.3%}, "
        f"quantum-classical {dev_q:.1e}",
    )


# ---------------------------------------------------------------------------
# 4. photon transfer through the lossy bus
# ---------------------------------------------------------------------------


def test_ac4_transfer_efficiency():
    res = dynamics.transfer_efficiency(G, 600e3)
    ok = abs(res.t1 - 1016e-9) <= 25e-9
    ok &= abs(res.t2 - 1016e-9) <= 25e-9
    ok &= abs(res.eta - 0.022) <= 0.002
    lossless = dynamics.transfer_efficiency(G, 0.0)
    ok &= lossless.eta >= 1 - 1e-6
    assert _report(
        "AC4 transfer efficiency",
        ok,
        f"t1 = {res.t1*1e9:.1f} ns, eta = {res.eta:.4f}, "
        f"lossless eta = {lossless.eta:.9f}",
    )


# ---------------------------------------------------------------------------
# 5. noisy Bell fidelity and its budget
# ---------------------------------------------------------------------------


def test_ac5_fidelity_and_budget():
    res = protocol.run_dmm(check=VacuumCheckModel.from_measured(), dump_time="auto")
    ok = 0.90 <= res.bell_fidelity <= 0.94
    budget = errorbudget.predicted_infidelity(ROOT2)
    ok &= abs(budget.total - 0.088) <= 0.005
    best, _ = errorbudget.optimal_alpha()
    ok &= abs(best - 1.09) <= 0.03
    assert _report(
        "AC5 noisy fidelity and budget",
        ok,
        f"F = {res.bell_fidelity:.4f}, budget = {budget.total:.4f}, "
        f"alpha* = {best:.4f}",
    )


# ---------------------------------------------------------------------------
# 6. teleportation over the heralded pair
# ---------------------------------------------------------------------------


def test_ac6_teleportation():
    # ideal resource: every input, every outcome record, fidelity 1
    words = LogicalBasis(ROOT2).codewords(16)
    bell = codes.bell_state(words, words)
    ok = True
    for q in protocol.CARDINAL_STATES.values():
        t = protocol.teleport(bell, q, words, words)
        ok &= all(abs(f - 1) <= 1e-6 for f in t.fidelities.values())
        ok &= abs(t.f_qst - 1) <= 1e-6

    # heralded (noisy) resource with readout imperfections
    res = protocol.run_dmm(check=VacuumCheckModel.from_measured(), dump_time="auto")
    w1, w2 = res.codewords
    out = protocol.avg_qst_fidelity(res.rho_pass, w1, w2, p_decode=0.02, p_flip_m1=0.01)
    favg = out["favg"]
    ok &= 0.88 <= favg <= 0.92
    dev = max(
        abs(p - 0.25)
        for name in protocol.CARDINAL_STATES
        for p in out[name].probs.values()
    )
    ok &= dev <= 0.005
    assert _report(
        "AC6 teleportation",
        ok,
        f"noisy favg = {favg:.4f}, outcome-prob deviation = {dev:.4f}",
    )


# ---------------------------------------------------------------------------
# 7. tomography round trip and basis calibration
# ---------------------------------------------------------------------------


def test_ac7_tomography_roundtrip():
    # conditioned single-cavity cat from a heralded run
    res = protocol.run_dmm(dump_time="auto")
    w1, w2 = res.codewords
    rho1 = hilbert.condition(res.rho_pass, (w1.dim, w2.dim), np.outer(w2.plus, w2.plus.conj()))
    rho1 = rho1 / np.trace(rho1)

    forward = WignerMap(w1.dim, WignerGrid.default(2.0, 0.1).betas)  # 41 x 41
    w = forward(rho1)
    mle = tomography.mle_density(forward, values=w)
    f_exact = hilbert.fidelity(mle.rho, rho1)
    ok = f_exact >= 0.99

    shots = 10_000
    counts = tomography.sample_counts(w, shots, seed=2)
    mle_n = tomography.mle_density(forward, counts=counts, shots=shots)
    f_shots = hilbert.fidelity(mle_n.rho, rho1)
    ok &= f_shots >= 0.97

    # basis calibration on a damped, Kerr-twisted Bell pair
    gamma = 0.1142741               # picked so the surviving amplitude is 1.331
    kerr_hz, t_kerr = -23e3, 3.4e-6
    labels = np.array([[-ROOT2, ROOT2], [ROOT2, -ROOT2]], dtype=complex)
    coeffs = np.array([1.0, -1.0], dtype=complex)
    overlaps = np.exp(dynamics.dyad_log_weights(labels, np.eye(2)))
    n2 = np.real(np.sum(np.outer(coeffs, coeffs.conj()) * overlaps))
    rate = -math.log(1 - gamma)
    e, q = dynamics.linear_propagator(np.zeros((2, 2), complex), [rate, rate], 1.0)
    weights = np.exp(dynamics.dyad_log_weights(labels, q))
    rho = materialize_coherent(coeffs / math.sqrt(n2), labels @ e.T, weights, (14, 14))
    u = kerr_unitary(14, kerr_hz, t_kerr)
    u2 = np.kron(u, u)
    rho = u2 @ rho @ u2.conj().T

    fit = tomography.optimize_basis(rho, (14, 14))
    theta_expected = kerr_twist_angle(kerr_hz, t_kerr)
    dev_theta = abs(fit.basis.theta_k - theta_expected)
    dev_alpha = abs(fit.basis.alpha - 1.33)
    ok &= dev_theta <= 1e-3
    ok &= dev_alpha <= 0.02
    assert _report(
        "AC7 tomography round trip",
        ok,
        f"MLE F = {f_exact:.4f} exact / {f_shots:.4f} at 1e4 shots, "
        f"theta_k off by {dev_theta:.1e}, alpha_hat = {fit.basis.alpha:.4f}",
    )


# ---------------------------------------------------------------------------
# 8. single-photon variant
# ---------------------------------------------------------------------------


def test_ac8_dual_rail():
    res = protocol.dual_rail_dmm()
    ok = res.trace_distance <= 1e-3
    ok &= abs(res.p_herald - 0.125) <= 1e-3
    ok &= res.fidelity >= 1 - 1e-6
    assert _report(
        "AC8 dual rail",
        ok,
        f"TD = {res.trace_distance:.1e}, p = {res.p_herald:.6f}, "
        f"F = {res.fidelity:.9f}",
    )


# ---------------------------------------------------------------------------
# 9. repetition statistics
# ---------------------------------------------------------------------------


def test_ac9_multiround():
    stats = protocol.multiround_stats(1 / 2.6, 8.85e-6)
    ok = abs(stats.mean_wait - 23e-6) <= 0.5e-6
    ok &= abs(stats.rate_hz - 43e3) <= 1e3
    assert _report(
        "AC9 repetition statistics",
        ok,
        f"mean wait = {stats.mean_wait*1e6:.2f} us, rate = {stats.rate_hz/1e3:.2f} kHz",
    )


# ---------------------------------------------------------------------------
# 10. numerical hygiene
# ---------------------------------------------------------------------------


def test_ac10_numerical_properties(tmp_path):
    ok = True

    # trace preservation
    dims = (4, 4, 4)
    params = SystemParams(g_bs=G, kappa_b=600e3, dims=dims)
    h, c_ops = params_network(params)
    psi0 = product_ket(
        dims, {"cav1": hilbert.coherent(4, 0.8), "cav2": hilbert.coherent(4, -0.8)}
    )
    res = dynamics.lindblad_evolve(h, c_ops, psi0, 3e-6)
    tr_err = abs(np.trace(res.final).real - 1.0)
    ok &= tr_err < 1e-8

    # semigroup: one interval or two halves give the same state
    half = dynamics.lindblad_evolve(h, c_ops, psi0, 1.5e-6)
    r2 = dynamics.lindblad_evolve(h, c_ops, half.final, 1.5e-6)
    dd = hilbert.trace_distance(res.final, r2.final)
    ok &= dd < 1e-10

    # Wigner linearity
    k1, k2 = hilbert.coherent(8, 0.5), fock(8, 2)
    rho1, rho2 = np.outer(k1, k1.conj()), np.outer(k2, k2.conj())
    forward = WignerMap(8, WignerGrid.default(1.0, 0.5).betas)
    lin_err = float(
        np.max(np.abs(forward(0.3 * rho1 + 0.7 * rho2) - 0.3 * forward(rho1) - 0.7 * forward(rho2)))
    )
    ok &= lin_err < 1e-12

    # a basis twist absorbs the matching Kerr unitary exactly
    kerr_hz, t_kerr = -23e3, 3.7e-6
    dim = 14
    words = LogicalBasis(ROOT2).codewords(dim)
    bell = codes.bell_state(words, words)
    u2 = np.kron(
        kerr_unitary(dim, kerr_hz, t_kerr), kerr_unitary(dim, kerr_hz, t_kerr)
    )
    twisted = u2 @ bell
    basis_t = LogicalBasis(ROOT2, theta_k=kerr_twist_angle(kerr_hz, t_kerr))
    wt = basis_t.codewords(dim)
    f_absorb = abs(np.vdot(codes.bell_state(wt, wt), twisted)) ** 2
    ok &= abs(f_absorb - 1.0) < 1e-9

    # seeded command line rerun is byte identical
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("tomo-demo:\n  extent: 1.0\n  step: 0.5\n  shots: 300\n  max_iter: 40\n")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1 = cli.main(["tomo-demo", "--config", str(cfg), "--seed", "5", "--out", str(out1)])
    code2 = cli.main(["tomo-demo", "--config", str(cfg), "--seed", "5", "--out", str(out2)])
    same = (out1 / "wigner_sampled.csv").read_bytes() == (out2 / "wigner_sampled.csv").read_bytes()
    ok &= code1 == 0 and code2 == 0 and same

    assert _report(
        "AC10 numerical hygiene",
        ok,
        f"trace {tr_err:.1e}, semigroup {dd:.1e}, linearity {lin_err:.1e}, "
        f"kerr absorption {abs(f_absorb-1):.1e}, rerun identical: {same}",
    )
