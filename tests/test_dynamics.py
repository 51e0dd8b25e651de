"""Solvers and damping-regime analysis of the cavity-bus-cavity network.

The three engines (Langevin amplitudes, Lindblad master equation, exact
coherent superpositions) deliberately overlap; the cross-checks here is
where that redundancy pays off.
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from darkbus import dynamics, hilbert
from darkbus.dynamics import SystemParams, TimeGrid

G = 160e3  # reference coupling, Hz


# ---------------------------------------------------------------------------
# parameters, closed forms, regime bookkeeping
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(g_bs=0)
    with pytest.raises(ValueError):
        SystemParams(kappa_b=-1)
    with pytest.raises(ValueError):
        SystemParams(dims=(12, 16))
    with pytest.raises(ValueError):
        SystemParams(t1_cavity=(0.0, 1e-6))
    with pytest.raises(ValueError):
        SystemParams(alpha=-0.5)


def test_angular_conversions():
    p = SystemParams(g_bs=G, kappa_b=600e3)
    assert p.g_ang == pytest.approx(2 * math.pi * G)
    assert p.gamma_cavity[0] == pytest.approx(1 / 385e-6)
    assert p.space().labels == ("cav1", "bus", "cav2")


def test_t_swap_frozen():
    # pi / (2 sqrt(2) * 2 pi * 160 kHz)
    assert dynamics.t_swap(G) == pytest.approx(1.1048543456039805e-06, rel=1e-12)


def test_critical_kappa_frozen():
    assert dynamics.critical_kappa(G) == pytest.approx(905096.6799187809, rel=1e-12)


def test_classify_regime():
    kc = dynamics.critical_kappa(G)
    assert dynamics.classify_regime(G, 160e3) == "underdamped"
    assert dynamics.classify_regime(G, 2000e3) == "overdamped"
    assert dynamics.classify_regime(G, kc) == "critical"
    # quoted hardware numbers land inside the tolerance band
    assert dynamics.classify_regime(G, 905e3) == "critical"


def test_damping_rates_limits():
    # lossless: purely imaginary at +- sqrt(2) g_ang
    slow, fast = dynamics.damping_rates(G, 0.0)
    assert slow.real == pytest.approx(0.0, abs=1e-9)
    assert abs(slow.imag) == pytest.approx(math.sqrt(2) * 2 * math.pi * G, rel=1e-12)
    # deep overdamped: slow pole at 2 (sqrt(2) g)^2 / kappa (angular)
    slow8, fast8 = dynamics.damping_rates(G, 8000e3)
    expected = 2 * (math.sqrt(2) * 2 * math.pi * G) ** 2 / (2 * math.pi * 8000e3)
    assert abs(slow8.real) == pytest.approx(expected, rel=0.01)
    assert abs(fast8.real) > 10 * abs(slow8.real)
    # frozen exact value in the moderately overdamped regime
    slow2, _ = dynamics.damping_rates(G, 2000e3)
    assert slow2.real == pytest.approx(-340109.22159411944, rel=1e-10)
    assert slow2.imag == pytest.approx(0.0, abs=1e-9)


def test_bright_mode_response_initial_conditions():
    for k in (0.0, 160e3, 905096.6799187809, 3000e3):
        u = dynamics.bright_mode_response(G, k, [0.0, 1e-10, 2e-10])
        assert u[0] == pytest.approx(1.0)
        # u'(0) = 0 (bus starts empty), so the early droop is quadratic:
        # doubling t should quadruple 1 - u.
        d1, d2 = 1.0 - u[1].real, 1.0 - u[2].real
        assert d2 / d1 == pytest.approx(4.0, rel=2e-3)


def test_bright_mode_response_critical_continuity():
    kc = dynamics.critical_kappa(G)
    t = np.linspace(0, 5e-6, 7)
    u_at = dynamics.bright_mode_response(G, kc, t)
    u_near = dynamics.bright_mode_response(G, kc * (1 + 1e-9), t)
    assert_allclose(u_at, u_near, atol=1e-6)


def test_auto_dump_time_frozen_values():
    assert dynamics.auto_dump_time(G, 160e3) == pytest.approx(1.249529894000769e-06, rel=1e-9)
    assert dynamics.auto_dump_time(G, 600e3) == pytest.approx(2.1565335857947047e-06, rel=1e-9)
    # lossless limit reduces to the half-swap
    assert dynamics.auto_dump_time(G, 0.0 + 1e-12) == pytest.approx(
        dynamics.t_swap(G), rel=1e-6
    )


def test_auto_dump_time_empties_the_bright_mode():
    for k in (160e3, 600e3, 905096.6799187809, 2000e3):
        t = dynamics.auto_dump_time(G, k)
        u = dynamics.bright_mode_response(G, k, t)[0]
        assert abs(u) <= 1.0001e-4


# ---------------------------------------------------------------------------
# Langevin trajectories
# ---------------------------------------------------------------------------


def test_langevin_dark_mode_immune():
    """The antisymmetric combination never decays through the bus."""
    grid = TimeGrid.linspace(6e-6, 41)
    traj = dynamics.langevin_solve(G, 0.0, 2000e3, [1.0, 0.0, -1.0], grid)
    dark, bright = dynamics.to_dark_bright(traj)
    assert_allclose(np.abs(dark), math.sqrt(2) * np.ones_like(grid.times), atol=1e-10)
    assert_allclose(np.abs(bright), 0.0, atol=1e-12)
    # bus stays empty
    assert_allclose(np.abs(traj[:, 1]), 0.0, atol=1e-12)


def test_langevin_bright_matches_closed_form():
    grid = TimeGrid.linspace(6e-6, 31)
    for k in (160e3, 905096.6799187809, 2000e3):
        traj = dynamics.langevin_solve(G, 0.0, k, [1.0, 0.0, 1.0], grid)
        _, bright = dynamics.to_dark_bright(traj)
        u = dynamics.bright_mode_response(G, k, grid.times)
        assert_allclose(bright.real / math.sqrt(2), u, atol=1e-9)
        assert_allclose(bright.imag, 0.0, atol=1e-9)


def test_langevin_cavity_decay():
    gamma = 1e4  # 1/s energy rate
    grid = TimeGrid(np.array([0.0, 2e-5]))
    traj = dynamics.langevin_solve(G, (gamma, gamma), 600e3, [1.0, 0.0, -1.0], grid)
    # dark mode sees only the cavity loss: amplitude e^{-gamma t / 2}
    dark, _ = dynamics.to_dark_bright(traj)
    assert abs(dark[-1]) == pytest.approx(
        math.sqrt(2) * math.exp(-gamma * 2e-5 / 2), rel=1e-9
    )


def test_quantum_classical_agreement():
    """<a_k(t)> from the master equation matches the Langevin amplitudes.

    Coherent initial state, every mode lossy -- the displacement expectation
    of a linear lossy network is exactly classical.
    """
    dims = (6, 6, 6)
    space = hilbert.HilbertSpace(dims, dynamics.MODE_LABELS)
    params = SystemParams(g_bs=G, kappa_b=600e3, dims=dims)
    # Amplitudes small enough that dim-6 truncation sits below the 1e-6
    # comparison floor even if the swap concentrates everything in one mode.
    z0 = np.array([0.35, 0.0, -0.2 + 0.1j])
    psi0 = hilbert.product_ket(
        space,
        {
            "cav1": hilbert.coherent(dims[0], z0[0]),
            "cav2": hilbert.coherent(dims[2], z0[2]),
        },
    )
    h = dynamics.coupling_hamiltonian(space, G)
    c_ops = dynamics.collapse_operators(space, params)
    grid = TimeGrid.linspace(2e-6, 5)
    e_ops = [
        hilbert.embed(space, {lb: hilbert.destroy(d)}, sparse=True)
        for lb, d in zip(space.labels, dims)
    ]
    res = dynamics.lindblad_evolve(h, c_ops, psi0, grid, e_ops=e_ops)
    traj = dynamics.langevin_solve(
        G, params.gamma_cavity, 600e3, z0, grid
    )
    assert_allclose(res.expect.T, traj, atol=1e-6)


# ---------------------------------------------------------------------------
# Lindblad integrator properties
# ---------------------------------------------------------------------------


def _small_system():
    dims = (4, 4, 4)
    space = hilbert.HilbertSpace(dims, dynamics.MODE_LABELS)
    params = SystemParams(g_bs=G, kappa_b=600e3, dims=dims)
    h = dynamics.coupling_hamiltonian(space, G)
    c_ops = dynamics.collapse_operators(space, params)
    psi0 = hilbert.product_ket(
        space, {"cav1": hilbert.coherent(4, 0.8), "cav2": hilbert.coherent(4, -0.8)}
    )
    return h, c_ops, psi0


def test_lindblad_preserves_trace_and_hermiticity():
    h, c_ops, psi0 = _small_system()
    res = dynamics.lindblad_evolve(h, c_ops, psi0, TimeGrid.linspace(4e-6, 9))
    rho = res.final.dm()
    assert abs(np.trace(rho).real - 1.0) < 1e-8
    assert_allclose(rho, rho.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-9


def test_lindblad_semigroup():
    """exp(L t) = exp(L t/2) exp(L t/2): one interval or two, same state."""
    h, c_ops, psi0 = _small_system()
    t = 2e-6
    r1 = dynamics.lindblad_evolve(h, c_ops, psi0, TimeGrid(np.array([0.0, t])))
    r2 = dynamics.lindblad_evolve(h, c_ops, psi0, TimeGrid(np.array([0.0, t / 2, t])))
    assert hilbert.trace_distance(r1.final, r2.final) < 1e-10


def test_lindblad_threads_keep_results_and_caller_rng():
    """Concurrent propagations match the sequential result bit for bit and
    hand the caller's global random stream back untouched."""
    h, c_ops, psi0 = _small_system()
    grid = TimeGrid(np.array([0.0, 1e-6]))
    expected = dynamics.lindblad_evolve(h, c_ops, psi0, grid).final.dm()
    np.random.seed(7)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            futures = [
                ex.submit(dynamics.lindblad_evolve, h, c_ops, psi0, grid) for _ in range(16)
            ]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(switch)
    draw = np.random.random()
    np.random.seed(7)
    assert draw == np.random.random()
    for res in results:
        assert np.array_equal(res.final.dm(), expected)


def test_lindblad_no_loss_stays_pure():
    h, _, psi0 = _small_system()
    res = dynamics.lindblad_evolve(h, [], psi0, TimeGrid(np.array([0.0, 1e-6])))
    assert hilbert.purity(res.final) == pytest.approx(1.0, abs=1e-8)


def test_lindblad_thermalizes_to_vacuum():
    dims = (2, 3, 2)
    space = hilbert.HilbertSpace(dims, dynamics.MODE_LABELS)
    params = SystemParams(g_bs=G, kappa_b=2000e3, t1_cavity=(1e-6, 1e-6), dims=dims)
    h = dynamics.coupling_hamiltonian(space, G)
    c_ops = dynamics.collapse_operators(space, params)
    psi0 = hilbert.product_ket(space, {"cav1": hilbert.fock(2, 1)})
    res = dynamics.lindblad_evolve(h, c_ops, psi0, TimeGrid(np.array([0.0, 3e-5])))
    vac = np.zeros(space.dim)
    vac[0] = 1.0
    assert hilbert.fidelity(vac, res.final) == pytest.approx(1.0, abs=1e-4)


def test_store_states_and_expect():
    h, c_ops, psi0 = _small_system()
    n1 = hilbert.embed(
        psi0.space, {"cav1": hilbert.number(4)}, sparse=True
    )
    res = dynamics.lindblad_evolve(
        h, c_ops, psi0, TimeGrid.linspace(1e-6, 4), e_ops=[n1], store_states=True
    )
    assert len(res.states) == 4
    assert res.expect.shape == (1, 4)
    # t=0 sample equals <n> of the (dim-4 truncated) initial coherent state
    k = hilbert.coherent(4, 0.8)
    n_trunc = float(np.sum(np.arange(4) * np.abs(k) ** 2))
    assert res.expect[0, 0].real == pytest.approx(n_trunc, abs=1e-9)


# ---------------------------------------------------------------------------
# transfer efficiency
# ---------------------------------------------------------------------------


def test_transfer_lossless_is_perfect():
    t_half = math.pi / (2 * 2 * math.pi * G)
    res = dynamics.transfer_efficiency(G, 0.0, t1=t_half, t2=t_half)
    assert res.eta >= 1 - 1e-6


def test_transfer_optimum_frozen():
    res = dynamics.transfer_efficiency(G, 600e3)
    assert res.t1 == pytest.approx(1.015974050667408e-06, rel=1e-4)
    assert res.t2 == pytest.approx(res.t1, rel=1e-3)
    assert res.eta == pytest.approx(0.021706751536007214, rel=1e-5)


def test_transfer_monotone_in_loss():
    eta_low = dynamics.transfer_efficiency(G, 300e3).eta
    eta_high = dynamics.transfer_efficiency(G, 1200e3).eta
    assert eta_low > eta_high


def _transfer_eta_master_equation(kappa_b, t1, t2):
    """<n_cav2> after the two timed swaps, by the Lindblad oracle at (2, 2, 2)."""
    space = hilbert.HilbertSpace((2, 2, 2), dynamics.MODE_LABELS)
    a = hilbert.destroy(2)
    g = 2 * math.pi * G

    def swap(cav):
        m = hilbert.embed(space, {cav: a, "bus": a.conj().T}, sparse=True).matrix
        return g * (m + m.conj().T)

    c_ops = []
    if kappa_b > 0:
        b = hilbert.embed(space, {"bus": a}, sparse=True).matrix
        c_ops = [math.sqrt(2 * math.pi * kappa_b) * b]
    psi0 = hilbert.product_ket(space, {"cav1": hilbert.fock(2, 1)})
    r1 = dynamics.lindblad_evolve(swap("cav1"), c_ops, psi0, TimeGrid(np.array([0.0, t1])))
    r2 = dynamics.lindblad_evolve(swap("cav2"), c_ops, r1.final, TimeGrid(np.array([0.0, t2])))
    n2 = hilbert.embed(space, {"cav2": hilbert.number(2)}, sparse=True)
    return float(np.real(hilbert.expect(n2, r2.final)))


@pytest.mark.parametrize("kappa_b", [0.0, 600e3, dynamics.critical_kappa(G)])
def test_transfer_closed_form_matches_master_equation(kappa_b):
    """|(E2 E1)[cav2, cav1]|^2 against the single-photon master equation."""
    for t1, t2 in ((0.3e-6, 0.5e-6), (1.0e-6, 1.0e-6), (2.2e-6, 0.7e-6)):
        eta = dynamics.transfer_efficiency(G, kappa_b, t1=t1, t2=t2).eta
        assert eta == pytest.approx(_transfer_eta_master_equation(kappa_b, t1, t2), abs=1e-12)


# ---------------------------------------------------------------------------
# exact coherent-superposition engine
# ---------------------------------------------------------------------------


def test_linear_propagator_lossless():
    a = np.array([[0.0, 1.0], [1.0, 0.0]]) * 1e6
    e, q = dynamics.linear_propagator(a, [0.0, 0.0], 1.3e-6)
    assert_allclose(e @ e.conj().T, np.eye(2), atol=1e-12)
    assert_allclose(q, np.zeros((2, 2)), atol=1e-12)


def test_linear_propagator_stacks_times():
    """An array of times gives the per-time (E, Q) slices exactly."""
    a = dynamics.coupling_matrix(G)
    gammas = (1 / 385e-6, dynamics.TWO_PI * 600e3, 1 / 520e-6)
    times = np.linspace(0.0, 8e-6, 41)
    e, q = dynamics.linear_propagator(a, gammas, times)
    assert e.shape == q.shape == (41, 3, 3)
    for k, t in enumerate(times):
        e_k, q_k = dynamics.linear_propagator(a, gammas, t)
        assert np.array_equal(e[k], e_k)
        assert np.array_equal(q[k], q_k)


def test_single_mode_decay_label_and_weight():
    """One lossy mode: label shrinks as e^{-kt/2}, dyad weight matches the
    analytic decoherence factor exp(-(1-e^{-kt}) |z1 - z2|^2 / 2 ...)."""
    kappa = 2e6
    t = 0.8e-6
    e, q = dynamics.linear_propagator(np.zeros((1, 1)), [kappa], t)
    assert e[0, 0] == pytest.approx(math.exp(-kappa * t / 2), rel=1e-12)
    sup = dynamics.CoherentSuperposition(
        labels=np.array([[1.0], [-1.0]], dtype=complex),
        coeffs=np.array([1, 1], dtype=complex) / math.sqrt(2),
    )
    out = dynamics.propagate_coherent(sup, e, q)
    eta = 1 - math.exp(-kappa * t)
    # <z2|z1> overlap of the lost environment states, z = +-1
    expected = math.exp(-0.5 * eta * abs(1 - (-1)) ** 2)
    assert abs(out.weights[0, 1]) == pytest.approx(expected, rel=1e-12)
    assert out.weights[0, 0] == pytest.approx(1.0)


def test_coherent_trace_preserved_through_stages():
    rng = np.random.default_rng(7)
    labels = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
    sup = dynamics.CoherentSuperposition(labels=labels, coeffs=coeffs)
    tr0 = dynamics.coherent_trace(sup)
    a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) * 1e6
    for t, gam in ((0.3e-6, [0, 3e6, 0]), (0.9e-6, [1e4, 2e6, 1e4])):
        e, q = dynamics.linear_propagator(a, gam, t)
        sup = dynamics.propagate_coherent(sup, e, q)
        assert dynamics.coherent_trace(sup) == pytest.approx(tr0, rel=1e-12)


def test_materialize_matches_direct_construction():
    alpha = 0.9
    sup = dynamics.CoherentSuperposition(
        labels=np.array([[alpha], [-alpha]], dtype=complex),
        coeffs=np.array([1, 1j], dtype=complex) / 2,
    )
    rho = dynamics.materialize_coherent(sup, (20,))
    k1 = hilbert.coherent(20, alpha, normalized=False)
    k2 = hilbert.coherent(20, -alpha, normalized=False)
    ket = (k1 + 1j * k2) / 2
    assert_allclose(rho, np.outer(ket, ket.conj()), atol=1e-14)


def test_ptrace_coherent_matches_fock_ptrace():
    rng = np.random.default_rng(3)
    labels = 0.45 * (rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
    coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
    coeffs /= math.sqrt(abs(np.vdot(coeffs, coeffs)))
    sup = dynamics.CoherentSuperposition(labels=labels, coeffs=coeffs)
    dims = (18, 18)
    full = dynamics.materialize_coherent(sup, dims)
    direct = hilbert.partial_trace(full, dims, keep=[0])
    reduced = dynamics.ptrace_coherent(sup, keep=[0])
    assert_allclose(dynamics.materialize_coherent(reduced, (18,)), direct, atol=1e-10)


def test_coherent_vs_lindblad_cross_check():
    """The two quantum engines agree on a lossy two-component evolution."""
    dims = (8, 8, 8)
    space = hilbert.HilbertSpace(dims, dynamics.MODE_LABELS)
    params = SystemParams(g_bs=G, kappa_b=600e3, dims=dims)
    # alpha small enough that the dim-8 Fock tail (the dominant discrepancy
    # between the truncation-free dyad engine and the truncated Lindblad one)
    # stays below the comparison threshold
    alpha = 0.5
    t = 1.1e-6

    # coherent engine
    labels = np.array([[alpha, 0, alpha], [alpha, 0, -alpha]], dtype=complex)
    coeffs = np.array([1.0, 1.0], dtype=complex)
    coeffs = coeffs / math.sqrt(
        float(
            np.real(
                np.sum(
                    np.outer(coeffs, coeffs.conj())
                    * dynamics.coherent_overlaps(labels)
                )
            )
        )
    )
    sup = dynamics.CoherentSuperposition(labels=labels, coeffs=coeffs)
    a_mat = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) * params.g_ang
    gammas = [params.gamma_cavity[0], params.kappa_ang, params.gamma_cavity[1]]
    e, q = dynamics.linear_propagator(a_mat, gammas, t)
    rho_coh = dynamics.materialize_coherent(
        dynamics.propagate_coherent(sup, e, q), dims
    )

    # master-equation engine
    k1 = hilbert.coherent(dims[0], alpha, normalized=False)
    kp = hilbert.coherent(dims[2], alpha, normalized=False)
    km = hilbert.coherent(dims[2], -alpha, normalized=False)
    psi = np.kron(k1, np.kron(hilbert.fock(dims[1], 0), kp + km))
    psi = psi / np.linalg.norm(psi)
    h = dynamics.coupling_hamiltonian(space, G)
    c_ops = dynamics.collapse_operators(space, params)
    res = dynamics.lindblad_evolve(
        h, c_ops, hilbert.QuantumState(psi, space), TimeGrid(np.array([0.0, t]))
    )
    # the coherent result is normalized in the full space; the truncated
    # materialization loses a little tail mass, so compare after norming
    rho_coh /= np.trace(rho_coh).real
    assert hilbert.trace_distance(rho_coh, res.final) < 3e-5


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.05, max_value=1.2), st.floats(min_value=0.0, max_value=3e6))
def test_propagator_weights_bounded(alpha, kappa):
    """|w_ij| <= 1 always: loss can only destroy coherence, not create it."""
    e, q = dynamics.linear_propagator(np.zeros((1, 1)), [kappa], 1e-6)
    sup = dynamics.CoherentSuperposition(
        labels=np.array([[alpha], [-alpha]], dtype=complex),
        coeffs=np.array([0.5, 0.5], dtype=complex),
    )
    out = dynamics.propagate_coherent(sup, e, q)
    assert np.all(np.abs(out.weights) <= 1 + 1e-12)


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.0, 1.0]))
    assert_allclose(np.diff(TimeGrid.linspace(1e-6, 11).times), 1e-7, rtol=1e-9)
