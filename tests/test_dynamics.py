"""Solvers and damping-regime analysis of the cavity-bus-cavity network.

The three engines (Langevin amplitudes, Lindblad master equation, exact
coherent superpositions) deliberately overlap; the cross-checks here is
where that redundancy pays off.
"""

import math
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from darkbus import dynamics, hilbert
from darkbus.dynamics import SystemParams
from oracles import (
    auto_dump_time_brentq,
    coherent_trace,
    dense,
    embed,
    expect,
    expect_trajectory,
    expm,
    fock,
    lindblad_action,
    liouvillian_apply_reference,
    liouvillian_evolve,
    kerr_hamiltonian_kron,
    materialize_coherent,
    network_operators_kron,
    number,
    on_modes,
    params_network,
    product_ket,
    tensor,
    traced_peak,
)

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
    # non-finite or malformed values, each named in the message
    for name, value in [
        ("alpha", math.nan),
        ("kappa_b", math.nan),
        ("g_bs", math.inf),
        ("t1_cavity", (385e-6, math.inf)),
        ("kerr", (math.nan, -7e3)),
        ("delta_fsr", -math.inf),
        ("t_pump", math.nan),
        ("t_pump", -1e-6),
        ("t_dump", -1e-6),
        ("t_protocol", -1.0),
        ("dims", (12.5, 16, 12)),
        ("kappa_b", "600e3"),
        # one value per cavity, no more and no fewer
        ("t1_cavity", (1e-4,)),
        ("t1_cavity", (1e-4, 2e-4, 3e-4)),
        ("kerr", -23e3),
        ("chi_cav_transmon", (-3.75e6,)),
        ("chi_bus_transmon", (-2.1e6, -2.5e6, -2.5e6)),
        ("anharmonicity", ()),
        # a list where one number belongs
        ("delta_fsr", [2e9]),
        ("alpha", [1.0]),
        ("dims", 12),
    ]:
        with pytest.raises(ValueError, match=name):
            SystemParams(**{name: value})


def test_params_store_lists_as_hashable_tuples():
    """``dims`` and the per-cavity pairs given as lists, as YAML gives them,
    are stored as tuples, so a parameter set stays hashable."""
    p = SystemParams(dims=[6, 4, 6], kerr=[0, 0])
    assert p.dims == (6, 4, 6) and p.kerr == (0, 0)
    assert hash(p) == hash(SystemParams(dims=(6, 4, 6), kerr=(0, 0)))


def test_angular_conversions():
    p = SystemParams(g_bs=G, kappa_b=600e3)
    assert p.kappa_ang == pytest.approx(2 * math.pi * 600e3)
    assert p.gamma_cavity[0] == pytest.approx(1 / 385e-6)


def test_auto_dump_time_lossless_is_the_half_swap():
    # pi / (2 sqrt(2) * 2 pi * 160 kHz): the bright mode's vacuum Rabi half-period
    half_swap = math.pi / (2 * math.sqrt(2) * 2 * math.pi * G)
    assert half_swap == pytest.approx(1.1048543456039805e-06, rel=1e-12)
    assert dynamics.auto_dump_time(G, 0.0) == pytest.approx(half_swap, rel=1e-12)


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


@pytest.mark.parametrize("kappa_b", [2000e3, 1e12, 1e15])
def test_damping_rates_overdamped_match_mpmath(kappa_b):
    """Both real roots of s^2 + (k/2) s + 2 g^2 = 0 to 1e-12, also where
    -k/4 + sqrt(k^2/16 - 2 g^2) cancels in doubles (to 0 at 1 PHz)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        g, k = mp.mpf(dynamics.TWO_PI) * G, mp.mpf(dynamics.TWO_PI) * kappa_b
        disc = mp.sqrt((k / 4) ** 2 - 2 * g**2)
        roots = [float(-k / 4 + disc), float(-k / 4 - disc)]
    for got, want in zip(dynamics.damping_rates(G, kappa_b), roots):
        assert got.imag == 0
        assert got.real == pytest.approx(want, rel=1e-12, abs=0)


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
        math.pi / (2 * math.sqrt(2) * 2 * math.pi * G), rel=1e-6
    )


def test_auto_dump_time_empties_the_bright_mode():
    for k in (160e3, 600e3, 905096.6799187809, 2000e3):
        t = dynamics.auto_dump_time(G, k)
        u = dynamics.bright_mode_response(G, k, t)[0]
        assert abs(u) <= 1.0001e-4


@pytest.mark.parametrize("kappa_b", [dynamics.critical_kappa(G), 1.2e6, 2000e3, 5e6, 20e6])
def test_auto_dump_time_matches_brentq(kappa_b):
    """Critical and overdamped: the bracket search lands within brentq's own
    tolerance (xtol 1e-16 s plus 4 ulp) of scipy's root, where |u| equals
    DUMP_RESIDUAL_TOL to rounding.  At 20 MHz the dump lasts hundreds of
    microseconds, far past where e^{-kt/4} cosh(|nu| t) would overflow."""
    t = dynamics.auto_dump_time(G, kappa_b)
    ref = auto_dump_time_brentq(G, kappa_b)
    assert abs(t - ref) <= 1e-16 + 4 * np.finfo(float).eps * ref
    u = abs(dynamics.bright_mode_response(G, kappa_b, t)[0])
    assert u == pytest.approx(1e-4, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "kappa_b", [160e3, 600e3, dynamics.critical_kappa(G), 2000e3, 20e6]
)
def test_bright_mode_response_matches_linear_propagator(kappa_b):
    """u(t) is the cavity-1 amplitude E_00 + E_02 of the lossless-cavity
    network started in the bright mode, from before the dump time to well
    past it."""
    times = np.linspace(0.0, 3 * dynamics.auto_dump_time(G, kappa_b), 61)
    e, _ = dynamics.linear_propagator(
        dynamics.coupling_matrix(G), (0.0, 2 * math.pi * kappa_b, 0.0), times
    )
    u = dynamics.bright_mode_response(G, kappa_b, times)
    assert_allclose(u, e[:, 0, 0] + e[:, 0, 2], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Langevin trajectories
# ---------------------------------------------------------------------------


def _dark_bright(traj):
    """Dark (a1 - a2)/sqrt2 and bright (a1 + a2)/sqrt2 cavity combinations."""
    s = 1 / math.sqrt(2)
    return (traj[:, 0] - traj[:, 2]) * s, (traj[:, 0] + traj[:, 2]) * s


def test_langevin_dark_mode_immune():
    """The antisymmetric combination never decays through the bus."""
    times = np.linspace(0.0, 6e-6, 41)
    traj = dynamics.langevin_solve(G, 0.0, 2000e3, [1.0, 0.0, -1.0], times)
    dark, bright = _dark_bright(traj)
    assert_allclose(np.abs(dark), math.sqrt(2) * np.ones_like(times), atol=1e-10)
    assert_allclose(np.abs(bright), 0.0, atol=1e-12)
    # bus stays empty
    assert_allclose(np.abs(traj[:, 1]), 0.0, atol=1e-12)


def test_langevin_bright_matches_closed_form():
    times = np.linspace(0.0, 6e-6, 31)
    for k in (160e3, 905096.6799187809, 2000e3):
        traj = dynamics.langevin_solve(G, 0.0, k, [1.0, 0.0, 1.0], times)
        _, bright = _dark_bright(traj)
        u = dynamics.bright_mode_response(G, k, times)
        assert_allclose(bright.real / math.sqrt(2), u, atol=1e-9)
        assert_allclose(bright.imag, 0.0, atol=1e-9)


def test_langevin_cavity_decay():
    gamma = 1e4  # 1/s energy rate
    traj = dynamics.langevin_solve(G, (gamma, gamma), 600e3, [1.0, 0.0, -1.0], [0.0, 2e-5])
    # dark mode sees only the cavity loss: amplitude e^{-gamma t / 2}
    dark, _ = _dark_bright(traj)
    assert abs(dark[-1]) == pytest.approx(
        math.sqrt(2) * math.exp(-gamma * 2e-5 / 2), rel=1e-9
    )


def test_langevin_stacked_inputs():
    """A (3, k) z0 is k inputs at once: exactly E(t) z0 from the linear
    propagator, and each column its own call's amplitudes up to rounding
    (one matrix product per time against one matrix-vector product, which
    BLAS sums differently, so not bit for bit: within the 5 eps error bound
    of a complex dot product of length 3).  Other shapes raise."""
    rng = np.random.default_rng(3)
    times = np.linspace(0.0, 4e-6, 9)
    gammas = (1e4, 2e4)
    z0 = rng.normal(size=(3, 7)) + 1j * rng.normal(size=(3, 7))
    traj = dynamics.langevin_solve(G, gammas, 600e3, z0, times)
    assert traj.shape == (len(times), 3, 7)
    rates = (gammas[0], dynamics.TWO_PI * 600e3, gammas[1])
    e = dynamics.linear_propagator(dynamics.coupling_matrix(G), rates, times)[0]
    assert np.array_equal(traj, e @ z0)
    for j in range(z0.shape[1]):
        one = dynamics.langevin_solve(G, gammas, 600e3, z0[:, j], times)
        bound = 5 * np.finfo(float).eps * (np.abs(e) @ np.abs(z0[:, j]))
        assert np.all(np.abs(traj[..., j] - one) <= bound)
    for bad in (np.ones(2), np.ones((2, 3)), np.ones((3, 2, 2))):
        with pytest.raises(ValueError, match="three initial amplitudes"):
            dynamics.langevin_solve(G, gammas, 600e3, bad, times)


def test_quantum_classical_agreement():
    """<a_k(t)> from the master equation matches the Langevin amplitudes.

    Coherent initial state, every mode lossy -- the displacement expectation
    of a linear lossy network is exactly classical.
    """
    dims = (6, 6, 6)
    params = SystemParams(g_bs=G, kappa_b=600e3, dims=dims)
    # Amplitudes small enough that dim-6 truncation sits below the 1e-6
    # comparison floor even if the swap concentrates everything in one mode.
    z0 = np.array([0.35, 0.0, -0.2 + 0.1j])
    psi0 = product_ket(
        dims,
        {
            "cav1": hilbert.coherent(dims[0], z0[0]),
            "cav2": hilbert.coherent(dims[2], z0[2]),
        },
    )
    h, c_ops = params_network(params)
    times = np.linspace(0.0, 2e-6, 5)
    lowering = [
        embed(dims, {i: hilbert.destroy(d)}, sparse=True) for i, d in enumerate(dims)
    ]
    traj = dynamics.langevin_solve(
        G, params.gamma_cavity, 600e3, z0, times
    )
    assert_allclose(expect_trajectory(h, c_ops, psi0, times, lowering), traj, atol=1e-6)


# ---------------------------------------------------------------------------
# Lindblad integrator properties
# ---------------------------------------------------------------------------


def _assert_diagonals_are(diagonals, ref):
    """``diagonals`` lists the nonzero diagonals of the dense ``ref`` in
    increasing offset, each vector dim long, and every entry is ref's to the
    last bit: made dense they equal ref, and each vector's bytes inside the
    matrix are those of ref's diagonal at its offset."""
    dim = len(ref)
    offsets = [o for o, _ in diagonals]
    assert offsets == sorted(set(offsets))
    assert np.array_equal(dense(diagonals, dim), ref)
    for o, u in diagonals:
        assert u.shape == (dim,)
        inside = u[max(-o, 0):dim - max(o, 0)]
        assert inside.tobytes() == np.diagonal(ref, o).astype(u.dtype).tobytes()


@pytest.mark.parametrize("kerr", [False, True])
@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2, 4), (6, 4, 6)])
def test_network_operators_match_hand_built_krons(dims, kerr):
    """network_operators(coupling_matrix(g), (g1, kappa, g2), dims) lists the
    diagonals of g (a1 + a2) b^dag + h.c. with sqrt(kappa) b and sqrt(g_i)
    a_i, and kerr_hamiltonian the main diagonal of the Kerr Hamiltonian on
    the two cavities: each equals the dense Kronecker sum of
    oracles.network_operators_kron bit for bit, H with Kerr added too, and
    that reference is the operators typed out by hand.  A lossless mode gets
    no collapse operator, zero coupling gives H = [], and an infinite rate
    ends in the NumericalError that names its collapse operator."""
    g1, kappa, g2 = 2.6e3, 3.8e6, 1.9e3
    dim = math.prod(dims)
    coupling = dynamics.coupling_matrix(G)
    h, c_ops = dynamics.network_operators(coupling, (g1, kappa, g2), dims)
    h_ref, c_refs = network_operators_kron(coupling, (g1, kappa, g2), dims)
    _assert_diagonals_are(h, h_ref)
    assert len(c_ops) == len(c_refs) == 3
    for c, ref in zip(c_ops, c_refs):
        _assert_diagonals_are(c, ref)

    i1, ib, i2 = (np.eye(d) for d in dims)
    a1 = np.kron(np.kron(hilbert.destroy(dims[0]), ib), i2)
    b = np.kron(np.kron(i1, hilbert.destroy(dims[1])), i2)
    a2 = np.kron(np.kron(i1, ib), hilbert.destroy(dims[2]))
    m = (2 * math.pi * G) * ((a1 + a2) @ b.conj().T)
    assert np.array_equal(h_ref, m + m.conj().T)
    typed = [math.sqrt(g1) * a1, math.sqrt(kappa) * b, math.sqrt(g2) * a2]
    assert all(np.array_equal(ref, c) for ref, c in zip(c_refs, typed))

    if kerr:
        shifts = (-23e3, -7e3)
        kerr_ref = kerr_hamiltonian_kron(dims, shifts)
        _assert_diagonals_are(dynamics.kerr_hamiltonian(dims, shifts), kerr_ref)
        with_kerr = dense(h, dim) + dense(dynamics.kerr_hamiltonian(dims, shifts), dim)
        assert with_kerr.tobytes() == (h_ref + kerr_ref).tobytes()
        n1, n2 = (a.conj().T @ a for a in (a1, a2))
        typed = sum(2 * math.pi * k / 2 * n @ (n - np.eye(dim)) for k, n in zip(shifts, (n1, n2)))
        assert_allclose(kerr_ref, typed, rtol=1e-15, atol=0)

    # a lossless mode gets no collapse operator; no coupling, no Hamiltonian
    h0, c_ops = dynamics.network_operators(np.zeros((3, 3)), (0.0, kappa, 0.0), dims)
    h0_ref, c_refs = network_operators_kron(np.zeros((3, 3)), (0.0, kappa, 0.0), dims)
    assert h0 == [] and not h0_ref.any()
    assert len(c_ops) == len(c_refs) == 1
    _assert_diagonals_are(c_ops[0], c_refs[0])

    h, c_ops = dynamics.network_operators(coupling, (g1, math.inf, g2), dims)
    with pytest.raises(hilbert.NumericalError, match="collapse operator 1 is not finite"):
        dynamics.lindblad_evolve(h, c_ops, np.eye(dim)[0], 1e-9)


def _small_system():
    dims = (4, 4, 4)
    params = SystemParams(g_bs=G, kappa_b=600e3, dims=dims)
    h, c_ops = params_network(params)
    psi0 = product_ket(
        dims, {"cav1": hilbert.coherent(4, 0.8), "cav2": hilbert.coherent(4, -0.8)}
    )
    return h, c_ops, psi0


def test_lindblad_preserves_trace_and_hermiticity():
    h, c_ops, psi0 = _small_system()
    res = dynamics.lindblad_evolve(h, c_ops, psi0, 4e-6)
    rho = res.final
    assert abs(np.trace(rho).real - 1.0) < 1e-8
    assert_allclose(rho, rho.conj().T, atol=1e-12)
    assert np.array_equal(rho, rho.conj().T)
    assert np.linalg.eigvalsh(rho).min() > -1e-9


def test_lindblad_semigroup():
    """exp(L t) = exp(L t/2) exp(L t/2): one call or two chained halves, same state."""
    h, c_ops, psi0 = _small_system()
    t = 2e-6
    r1 = dynamics.lindblad_evolve(h, c_ops, psi0, t)
    half = dynamics.lindblad_evolve(h, c_ops, psi0, t / 2)
    r2 = dynamics.lindblad_evolve(h, c_ops, half.final, t / 2)
    assert hilbert.trace_distance(r1.final, r2.final) < 1e-10


def test_lindblad_threads_keep_results_and_caller_rng():
    """Concurrent propagations match the sequential result bit for bit and
    hand the caller's global random stream back untouched."""
    h, c_ops, psi0 = _small_system()
    expected = dynamics.lindblad_evolve(h, c_ops, psi0, 1e-6).final
    np.random.seed(7)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            futures = [
                ex.submit(dynamics.lindblad_evolve, h, c_ops, psi0, 1e-6) for _ in range(16)
            ]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(switch)
    draw = np.random.random()
    np.random.seed(7)
    assert draw == np.random.random()
    for res in results:
        assert np.array_equal(res.final, expected)


def test_lindblad_no_loss_stays_pure():
    h, _, psi0 = _small_system()
    res = dynamics.lindblad_evolve(h, [], psi0, 1e-6)
    rho = res.final
    assert np.vdot(rho, rho).real == pytest.approx(1.0, abs=1e-8)


def test_lindblad_thermalizes_to_vacuum():
    dims = (2, 3, 2)
    params = SystemParams(g_bs=G, kappa_b=2000e3, t1_cavity=(1e-6, 1e-6), dims=dims)
    h, c_ops = params_network(params)
    psi0 = product_ket(dims, {"cav1": fock(2, 1)})
    res = dynamics.lindblad_evolve(h, c_ops, psi0, 3e-5)
    vac = np.zeros(math.prod(dims))
    vac[0] = 1.0
    assert hilbert.fidelity(vac, res.final) == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("dims, axis", [((30,), 0), ((2, 30, 3), 1)])
def test_lindblad_pure_loss_keeps_a_coherent_state_coherent(dims, axis):
    """Loss sqrt(G) a alone takes |alpha> to |alpha e^{-G t/2}> on its mode
    and leaves the state of every other mode as it was."""
    alpha, rate, t = 1.1, 1e6, 0.36e-6
    rng = np.random.default_rng(7)
    others = []
    for d in dims[:axis] + dims[axis + 1 :]:
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        others.append(g @ g.conj().T / np.trace(g @ g.conj().T))

    def with_mode(amplitude):
        mode = hilbert.as_dm(hilbert.coherent(dims[axis], amplitude))
        return tensor(*others[:axis], mode, *others[axis:])

    a = embed(dims, {axis: hilbert.destroy(dims[axis])})
    out = dynamics.lindblad_evolve(0 * a, [math.sqrt(rate) * a], with_mode(alpha), t).final
    assert_allclose(out, with_mode(alpha * math.exp(-rate * t / 2)), rtol=0, atol=1e-12)


def test_lindblad_frees_the_input_state_before_the_solve(monkeypatch):
    """A state passed as a temporary is freed by the first Liouvillian
    application: the solve evolves its own copy."""
    h, c_ops, psi0 = _small_system()
    refs, alive = [], []
    apply = dynamics._Liouvillian.apply

    def checked(self, src, dst):
        if not alive:
            alive.append([ref() is not None for ref in refs])
        return apply(self, src, dst)

    def tracked(state):
        refs.append(weakref.ref(state))
        return state

    monkeypatch.setattr(dynamics._Liouvillian, "apply", checked)
    res = dynamics.lindblad_evolve(h, c_ops, tracked(hilbert.as_dm(psi0)), 1e-6)
    assert alive == [[False]]
    assert np.array_equal(res.final, dynamics.lindblad_evolve(h, c_ops, psi0, 1e-6).final)


def _oracle_system(kappa_b, kerr, cavity_loss=True):
    dims = (3, 3, 3)
    params = SystemParams(g_bs=G, kappa_b=kappa_b, dims=dims)
    h, c_ops = params_network(params, cavity_loss)
    if kerr:
        h = h + kerr_hamiltonian_kron(dims, (-230e3, -70e3))
    psi0 = product_ket(
        dims, {"cav1": hilbert.coherent(3, 0.6), "cav2": hilbert.coherent(3, -0.5j)}
    )
    return h, c_ops, psi0


@pytest.mark.parametrize("kerr", [False, True])
@pytest.mark.parametrize("kappa_b, cavity_loss", [(600e3, True), (0.0, True), (0.0, False)])
@pytest.mark.parametrize("t", [0.3e-6, 2.16e-6])
def test_lindblad_matches_assembled_liouvillian(kerr, kappa_b, cavity_loss, t):
    """The matrix-free Taylor propagation against scipy's expm_multiply on the
    assembled sparse Liouvillian: with and without Kerr, at kappa_b = 0, and
    with no collapse operators at all (kappa_b = 0, no cavity loss)."""
    h, c_ops, psi0 = _oracle_system(kappa_b, kerr, cavity_loss)
    assert len(c_ops) == (kappa_b > 0) + 2 * cavity_loss
    rho = dynamics.lindblad_evolve(h, c_ops, psi0, t).final
    assert_allclose(rho, liouvillian_evolve(h, c_ops, psi0, t), rtol=0, atol=1e-12)


def test_lindblad_zero_duration_returns_the_input():
    h, c_ops, psi0 = _small_system()
    rho0 = hilbert.as_dm(psi0)
    assert np.array_equal(dynamics.lindblad_evolve(h, c_ops, psi0, 0.0).final, rho0)
    out = dynamics.lindblad_evolve(h, c_ops, rho0, 0.0).final
    assert np.array_equal(out, rho0) and not np.shares_memory(out, rho0)


@pytest.mark.parametrize("t", [-1e-9, math.nan, math.inf, "1e-6", None, np.array([0.0, 1e-6])])
def test_lindblad_rejects_a_bad_duration(t):
    h, c_ops, psi0 = _small_system()
    with pytest.raises(ValueError, match="duration"):
        dynamics.lindblad_evolve(h, c_ops, psi0, t)


def test_lindblad_never_touches_the_global_rng(monkeypatch):
    """Nothing in the propagation seeds, reads or restores numpy's global RNG."""
    h, c_ops, psi0 = _small_system()
    expected = dynamics.lindblad_evolve(h, c_ops, psi0, 1e-6).final

    def forbidden(*args, **kwargs):
        raise AssertionError("lindblad_evolve used numpy's global RNG")

    for name in ("seed", "get_state", "set_state"):
        monkeypatch.setattr(np.random, name, forbidden)
    res = dynamics.lindblad_evolve(h, c_ops, psi0, 1e-6)
    assert np.array_equal(res.final, expected)


def _liouvillian(h, cs, blocks=None):
    """dynamics._Liouvillian of the dense H and collapse operators, read
    through their diagonals, on the full space unless ``blocks`` is given."""
    blocks = blocks or dynamics._Blocks.full(len(h))
    return dynamics._Liouvillian(
        dynamics._diagonals(h), [dynamics._diagonals(c) for c in cs], blocks
    )


def _apply_twice(h, cs, r):
    """mu, and the diagonal-by-diagonal action of L - mu on r, then on its
    own result, with the two buffers swapped as the Taylor loop swaps them.
    The action takes the real packing of a Hermitian matrix, so a general
    r = A + iB, with A and B Hermitian, goes through pack, the action and
    unpack as A and B, and comes back as apply(A) + i apply(B); a Hermitian
    r has B = 0."""
    liou = _liouvillian(h, cs)
    src, dst = liou.buffers()

    def twice(x):
        src[...] = dynamics._pack(x)
        once = dynamics._unpack(liou.apply(src, dst))
        return once, dynamics._unpack(liou.apply(dst, src))

    (a1, a2), (b1, b2) = twice((r + r.conj().T) / 2), twice((r - r.conj().T) / 2j)
    return liou.mu, (a1 + 1j * b1, a2 + 1j * b2)


def _assert_matches_matrix_products(h, cs, r):
    mu, (once, twice) = _apply_twice(h, cs, r)
    k_op = -1j * h - mu / 2 * np.eye(len(h))
    for c in cs:
        k_op = k_op - 0.5 * (c.conj().T @ c)
    act = lindblad_action(k_op, cs)
    expected_once = act(r.ravel()).reshape(r.shape)
    expected_twice = act(expected_once.ravel()).reshape(r.shape)
    for got, expected in zip((once, twice), (expected_once, expected_twice)):
        assert_allclose(got, expected, rtol=0, atol=1e-13 * np.abs(expected).max())


@settings(max_examples=80, deadline=None)
@given(
    dims=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    kerr=st.booleans(),
    hermitian=st.booleans(),
)
def test_liouvillian_matches_sparse_products(dims, seed, kerr, hermitian):
    """K' r + r K'^dag + sum c r c^dag, K' = K - mu/2, one diagonal at a
    time equals the same action by matrix products: random Hermitian
    couplings, some decay rates 0, with and without self-Kerr, Hermitian
    and general r (the latter as apply(A) + i apply(B) for r = A + iB)."""
    rng = np.random.default_rng(seed)
    n = len(dims)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    gammas = rng.uniform(0.1, 2.0, n) * (rng.random(n) < 0.6)
    h, c_ops = network_operators_kron(a + a.conj().T, gammas, dims)
    if kerr:
        for k, d in enumerate(dims):
            m = np.arange(d)
            h = h + on_modes(dims, {k: np.diag(rng.normal() * m * (m - 1) / 2)})
    dim = h.shape[0]
    r = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if hermitian:
        r = r + r.conj().T
    _assert_matches_matrix_products(h, c_ops, r)


def test_lindblad_dense_operators_with_every_diagonal():
    """A dense random H and a dense collapse operator, every diagonal nonzero:
    the action still matches the matrix products and the propagation the
    assembled Liouvillian."""
    rng = np.random.default_rng(11)
    dim = 5
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = a + a.conj().T
    c = 0.5 * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    assert np.all(h != 0) and np.all(c != 0)
    r = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    _assert_matches_matrix_products(h, [c], r)
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi0 /= np.linalg.norm(psi0)
    rho = dynamics.lindblad_evolve(h, [c], psi0, 0.5).final
    assert_allclose(rho, liouvillian_evolve(h, [c], psi0, 0.5), rtol=0, atol=1e-12)


def _random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _real_off_diagonal_systems():
    """Two systems whose only terms on M^T come from a real off-main
    diagonal of K': H = 0 with c = a + a^dag on one mode (c^dag c has real
    diagonals at +-2), and a two-mode network with an imaginary coupling,
    zero diagonal and ladder losses (-iH is real off the main diagonal and
    K''s main diagonal is real)."""
    a = hilbert.destroy(5)
    g = 0.7
    network = network_operators_kron(
        np.array([[0, 1j * g], [-1j * g, 0]]), np.array([0.3, 0.2]), (3, 4)
    )
    return [(np.zeros((5, 5), dtype=complex), [a + a.conj().T]), network]


@pytest.mark.parametrize("system", [0, 1])
def test_lindblad_reads_m_transpose_through_a_real_off_diagonal(system):
    """Where no weight but a real off-main diagonal of K' reads M^T, the
    action matches the matrix products and the propagation the assembled
    Liouvillian."""
    h, cs = _real_off_diagonal_systems()[system]
    kd = np.diagonal(-1j * h - 0.5 * sum(c.conj().T @ c for c in cs))
    assert not kd.imag.any()
    rng = np.random.default_rng(5)
    dim = len(h)
    _assert_matches_matrix_products(h, cs, _random_complex(rng, dim, dim))
    psi0 = _random_complex(rng, dim)
    psi0 /= np.linalg.norm(psi0)
    rho = dynamics.lindblad_evolve(h, cs, psi0, 0.5).final
    assert np.array_equal(rho, rho.conj().T)
    assert_allclose(rho, liouvillian_evolve(h, cs, psi0, 0.5), rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    dim=st.integers(1, 12),
    density=st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_diagonals_lists_each_nonzero_diagonal_once(dim, density, seed):
    """On random complex matrices of every sparsity, the zero matrix
    included: the offsets are strictly increasing and are the distinct
    j - i of the nonzeros, each u is the diagonal at its offset placed at
    max(-o, 0) with zeros elsewhere, and the list equals the one built from
    np.unique of the offsets."""
    rng = np.random.default_rng(seed)
    a = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) * (
        rng.random((dim, dim)) < density
    )
    got = dynamics._diagonals(a)
    offsets = [o for o, _ in got]
    rows, cols = np.nonzero(a)
    assert offsets == sorted(set((cols - rows).tolist()))
    reference = []
    for o in np.unique(cols - rows).tolist():
        u = np.zeros(dim, dtype=complex)
        u[max(-o, 0):dim - max(o, 0)] = np.diagonal(a, o)
        reference.append((o, u))
    assert len(got) == len(reference)
    for (o, u), (o_ref, u_ref) in zip(got, reference):
        start = max(-o, 0)
        expected = np.zeros(dim, dtype=complex)
        expected[start:start + dim - abs(o)] = np.diagonal(a, o)
        assert np.array_equal(u, expected)
        assert o == o_ref and np.array_equal(u, u_ref)


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_packing_keeps_the_frobenius_norm_and_hermiticity(dim, seed):
    """M = Re r + Im r of a Hermitian r: ||M||_F = ||r||_F, the identity the
    Taylor series' stopping rule reads; the unpacked (M + M^T)/2 +
    i (M - M^T)/2 is exactly Hermitian for any real M, and gives back r to
    rounding, bit for bit where every sum and difference is exact (small
    integers); and pack takes the Hermitian part of a matrix that is not
    Hermitian."""
    rng = np.random.default_rng(seed)
    g = _random_complex(rng, dim, dim)
    r = (g + g.conj().T) / 2
    assert np.array_equal(r, r.conj().T)
    packed = dynamics._pack(r)
    assert packed.dtype == float and packed.shape == (dim, dim)
    assert np.linalg.norm(packed) == pytest.approx(np.linalg.norm(r), rel=1e-15)
    back = dynamics._unpack(packed)
    assert np.array_equal(back, back.conj().T)
    assert_allclose(back, r, rtol=0, atol=4e-16 * np.abs(r).max())

    m = rng.normal(size=(dim, dim))
    assert np.array_equal(dynamics._unpack(m), dynamics._unpack(m).conj().T)

    ints = rng.integers(-8, 9, (dim, dim)) + 1j * rng.integers(-8, 9, (dim, dim))
    r_int = ints + ints.conj().T
    assert np.array_equal(dynamics._unpack(dynamics._pack(r_int)), r_int)
    assert np.array_equal(dynamics._pack(ints), dynamics._pack((ints + ints.conj().T) / 2))


def _assert_step_bound_covers_the_superoperator(h, cs):
    """The step bound is at least ||L - mu||_2 of the assembled dim^2 x dim^2
    superoperator, and mu is its exact trace over dim^2.  Less its
    sum ||c||_1 ||c||_inf, it is 2 ||K'||_2 of the SVD of the dense K'."""
    liou = _liouvillian(h, cs)
    mu, bound = liou.mu, liou.bound
    k_op = -1j * h - 0.5 * sum((c.conj().T @ c for c in cs), np.zeros_like(h))
    act = lindblad_action(k_op, cs)
    dim = len(h)
    n = dim**2
    superop = np.stack([act(e) for e in np.eye(n, dtype=complex)], axis=1)
    assert mu == pytest.approx(np.trace(superop).real / n, rel=1e-12, abs=1e-12)
    exact = np.linalg.norm(superop - mu * np.eye(n), 2)
    assert exact <= bound * (1 + 1e-12)

    k_norm = np.linalg.norm(k_op - mu / 2 * np.eye(dim), 2)
    c_part = sum(np.abs(c).sum(axis=0).max() * np.abs(c).sum(axis=1).max() for c in cs)
    assert bound - c_part == pytest.approx(2 * k_norm, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    dims=st.lists(st.integers(1, 5), min_size=1, max_size=3).filter(
        lambda d: math.prod(d) <= 30
    ),
    seed=st.integers(0, 2**32 - 1),
    kerr=st.booleans(),
)
def test_step_bound_covers_the_exact_two_norm(dims, seed, kerr):
    """2 ||K'||_2 + sum ||c||_1 ||c||_inf >= ||L - mu||_2 on random networks:
    Hermitian couplings, some decay rates 0, with and without self-Kerr.
    Each mode goes up to 5 levels, the whole space up to 30, where the
    superoperator is a 900 x 900 matrix."""
    rng = np.random.default_rng(seed)
    n = len(dims)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    gammas = rng.uniform(0.1, 2.0, n) * (rng.random(n) < 0.6)
    h, c_ops = network_operators_kron(a + a.conj().T, gammas, dims)
    if kerr:
        for k, d in enumerate(dims):
            m = np.arange(d)
            h = h + on_modes(dims, {k: np.diag(rng.normal() * m * (m - 1) / 2)})
    _assert_step_bound_covers_the_superoperator(h, c_ops)


def test_step_bound_covers_dense_operators():
    """The same with the dense H and c of
    test_lindblad_dense_operators_with_every_diagonal, where each ||c||_2 is
    strictly below sqrt(||c||_1 ||c||_inf)."""
    rng = np.random.default_rng(11)
    dim = 5
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    c = 0.5 * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    _assert_step_bound_covers_the_superoperator(a + a.conj().T, [c])


def test_lindblad_names_a_misshaped_operator():
    rho = np.eye(4) / 4
    with pytest.raises(ValueError, match="collapse operator 0 has shape \\(3, 3\\)"):
        dynamics.lindblad_evolve(np.eye(4), [np.eye(3)], rho, 1e-6)
    message = "the Hamiltonian H has shape \\(4, 5\\), but the state's dimension is 4"
    with pytest.raises(ValueError, match=message):
        dynamics.lindblad_evolve(np.ones((4, 5)), [], rho, 1e-6)


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(
        lambda d: math.prod(d) <= 36
    ),
    seed=st.integers(0, 2**32 - 1),
    kerr=st.booleans(),
    even_q=st.booleans(),
)
def test_lindblad_reads_diagonals_as_it_reads_dense_operators(dims, seed, kerr, even_q):
    """lindblad_evolve on the diagonals of H and of each c, as _diagonals
    lists them, returns the dense input's result bit for bit, on the whole
    space and, given dims, on the even coherence orders; so do the
    diagonals that network_operators builds.  Random Hermitian couplings
    (which keep the excitation number, and so parity), some decay rates 0,
    with and without self-Kerr, from a random ket."""
    rng = np.random.default_rng(seed)
    n = len(dims)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    gammas = rng.uniform(0.1, 2.0, n) * (rng.random(n) < 0.6)
    h, c_ops = network_operators_kron(a + a.conj().T, gammas, dims)
    built = dynamics.network_operators(a + a.conj().T, gammas, dims)
    if kerr:
        shifts = rng.normal(size=n)
        for k, d in enumerate(dims):
            m = np.arange(d)
            h = h + on_modes(dims, {k: np.diag(shifts[k] * m * (m - 1) / 2)})
        built = (dynamics._diagonals(h), built[1])
    dim = len(h)
    psi0 = _random_complex(rng, dim)
    psi0 /= np.linalg.norm(psi0)
    kw = {"dims": tuple(dims)} if even_q else {}
    expected = dynamics.lindblad_evolve(h, c_ops, psi0, 0.5, **kw).final
    diagonals = (dynamics._diagonals(h), [dynamics._diagonals(c) for c in c_ops])
    for ops in (diagonals, built):
        got = dynamics.lindblad_evolve(*ops, psi0, 0.5, **kw).final
        assert got.tobytes() == expected.tobytes()


def test_lindblad_refuses_malformed_diagonals_before_any_work(monkeypatch):
    """A diagonal whose vector is not dim long, whose offset falls outside
    the matrix or repeats another's, or that holds a nonzero entry outside
    the matrix, is refused by name with ValueError, in H or in a collapse
    operator, before the parity check, the packing of the state or the
    Liouvillian runs."""
    dims = (3, 2, 3)
    dim = math.prod(dims)
    h, c_ops = dynamics.network_operators(
        dynamics.coupling_matrix(G), (1e3, 4e6, 1e3), dims
    )
    psi0 = np.eye(dim)[1]
    (o, u), rest = h[0], h[1:]
    outside = u.copy()
    outside[dim - max(o, 0):] = outside[:max(-o, 0)] = 1.0
    malformed = [
        ([(o, u[:-1])] + rest, r"has a diagonal of shape \(17,\), not \(18,\)"),
        ([(dim, u)] + rest, "has a diagonal at offset 18, outside a 18x18 matrix"),
        ([(-dim, u)] + rest, "has a diagonal at offset -18, outside a 18x18 matrix"),
        (h + [(o, u)], "lists a diagonal offset twice"),
        ([(o, outside)] + rest, f"has a nonzero entry outside the matrix on its diagonal {o}"),
    ]

    def no_work(*args, **kwargs):
        raise AssertionError("work began before the operators were checked")

    monkeypatch.setattr(dynamics, "_parity_blocks", no_work)
    monkeypatch.setattr(dynamics, "_pack", no_work)
    monkeypatch.setattr(dynamics._Liouvillian, "__init__", no_work)
    for bad, message in malformed:
        with pytest.raises(ValueError, match="the Hamiltonian H " + message):
            dynamics.lindblad_evolve(bad, c_ops, psi0, 1e-6, dims=dims)
        with pytest.raises(ValueError, match="collapse operator 2 " + message):
            dynamics.lindblad_evolve(h, c_ops[:2] + [bad], psi0, 1e-6, dims=dims)


def test_kerr_dump_setup_stays_far_below_one_dense_operator():
    """The operators of the Kerr dump at dims (10, 5, 10), dim 500, the
    regime of a Kerr run at the paper's amplitude, their parity check and
    their Liouvillian on the two parity blocks peak at no more than 2 MB
    under tracemalloc, half of one dim x dim complex array: no dense
    operator or K' is made, only vectors and each small connected block of
    K' for its SVD."""
    params = SystemParams(dims=(10, 5, 10))
    gammas = (params.gamma_cavity[0], params.kappa_ang, params.gamma_cavity[1])

    def setup():
        h, c_ops = dynamics.network_operators(
            dynamics.coupling_matrix(params.g_bs), gammas, params.dims
        )
        h = h + dynamics.kerr_hamiltonian(params.dims, params.kerr)  # H has no main diagonal
        blocks = dynamics._parity_blocks(params.dims, 500, h, c_ops)
        return dynamics._Liouvillian(h, c_ops, blocks)

    liou, peak = traced_peak(setup)
    assert liou.dim == 500 and math.isfinite(liou.bound)
    assert peak <= 2 * 2**20


def test_lindblad_copies_a_ket_state_once():
    """A ket's density matrix is built once and evolved in place, with no
    second copy; a density matrix the caller holds is copied once and left
    untouched.  Building the ket's matrix costs no more memory than that
    copy: both solves peak within a few vectors of each other, where a
    second dim x dim copy would add 16 dim^2 bytes."""
    dims = (6, 4, 6)
    h, c_ops = params_network(SystemParams(g_bs=G, dims=dims))
    psi0 = product_ket(
        dims, {"cav1": hilbert.coherent(6, 0.5), "cav2": hilbert.coherent(6, -0.5)}
    )
    rho0 = hilbert.as_dm(psi0)
    kept = rho0.copy()
    peaks = []
    for state in (psi0, rho0):
        res, peak = traced_peak(dynamics.lindblad_evolve, h, c_ops, state, 2e-6)
        peaks.append(peak)
        assert not np.shares_memory(res.final, state)
    assert np.array_equal(rho0, kept)
    assert abs(peaks[0] - peaks[1]) <= 16 * math.prod(dims) * 16


def test_lindblad_refuses_a_non_hermitian_state():
    """A density matrix whose anti-Hermitian part exceeds rounding is
    refused by name, and the caller's array stays as it was."""
    h, c_ops, psi0 = _small_system()
    rho0 = hilbert.as_dm(psi0)
    rho0[0, 1] += 1e-9
    kept = rho0.copy()
    with pytest.raises(ValueError, match="Hermitian"):
        dynamics.lindblad_evolve(h, c_ops, rho0, 1e-6)
    assert np.array_equal(rho0, kept)


def test_lindblad_rejects_a_wrapped_state():
    """A QuantumState is refused, not unwrapped and evolved in place: the
    caller's density matrix inside it stays as it was."""
    h, c_ops, psi0 = _small_system()
    rho0 = hilbert.as_dm(psi0)
    kept = rho0.copy()
    wrapped = hilbert.QuantumState(rho0, hilbert.HilbertSpace((4, 4, 4)))
    assert wrapped.data is rho0
    with pytest.raises((TypeError, ValueError)):
        dynamics.lindblad_evolve(h, c_ops, wrapped, 1e-6)
    assert np.array_equal(rho0, kept)


def _even_q(dims) -> np.ndarray:
    """The mask of the entries (x, y) of a density matrix over ``dims``
    whose coherence order N_x - N_y is even."""
    n = sum(np.meshgrid(*[np.arange(d) for d in dims], indexing="ij")).ravel()
    return (n[:, None] - n) % 2 == 0


@settings(max_examples=30, deadline=None)
@given(
    dims=st.sampled_from([(5, 3, 5), (3, 2, 5), (6, 4, 6), (4, 3, 4), (2, 2, 2), (3, 4, 2)]),
    alpha=st.floats(0.01, 1.5),
    kappa_b=st.sampled_from([0.0, dynamics.critical_kappa(G), 3e6]),
    kerr=st.booleans(),
)
@example(dims=(5, 3, 5), alpha=1.5, kappa_b=3e6, kerr=True)
@example(dims=(3, 2, 5), alpha=0.01, kappa_b=0.0, kerr=False)
@example(dims=(6, 4, 6), alpha=0.5, kappa_b=dynamics.critical_kappa(G), kerr=True)
def test_even_q_solve_matches_the_full_solve(dims, alpha, kappa_b, kerr):
    """With ``dims``, the solve equals the full one on the even-q entries,
    to 1e-14 of the trace, and is exactly 0 on the odd-q ones: odd and
    even truncations, cats of small to large amplitude, a bus that does
    not decay, decays at critical damping or far past it, with and
    without self-Kerr."""
    params = SystemParams(g_bs=G, kappa_b=kappa_b, dims=dims)
    h, c_ops = params_network(params)
    if kerr:
        h = h + kerr_hamiltonian_kron(dims, (-230e3, -70e3))
    psi0 = product_ket(
        dims,
        {"cav1": hilbert.coherent(dims[0], alpha), "cav2": hilbert.coherent(dims[2], -1j * alpha)},
    )
    full = dynamics.lindblad_evolve(h, c_ops, psi0, 2e-6).final
    even = dynamics.lindblad_evolve(h, c_ops, psi0, 2e-6, dims=dims).final
    mask = _even_q(dims)
    assert np.all(even[~mask] == 0)
    assert_allclose(even[mask], full[mask], rtol=0, atol=1e-14 * np.trace(full).real)


def test_even_q_solve_takes_collapse_operators_of_one_parity():
    """A collapse operator that keeps photon-number parity on every entry
    (dephasing, sqrt(g) n) or flips it on every entry (sqrt(g) (a + a^dag))
    keeps even q apart from odd q; the even-q solve matches the full one,
    and returns the input's even-q part at t = 0."""
    dims = (3, 2, 3)
    h, c_ops = params_network(SystemParams(g_bs=G, dims=dims))
    a = embed(dims, {"cav1": hilbert.destroy(3)})
    c_ops = c_ops + [1e3 * embed(dims, {"bus": number(2)}), 1e3 * (a + a.conj().T)]
    rng = np.random.default_rng(4)
    psi0 = _random_complex(rng, math.prod(dims))
    psi0 /= np.linalg.norm(psi0)
    mask = _even_q(dims)
    full = dynamics.lindblad_evolve(h, c_ops, psi0, 1e-6).final
    even = dynamics.lindblad_evolve(h, c_ops, psi0, 1e-6, dims=dims).final
    assert np.all(even[~mask] == 0)
    assert_allclose(even[mask], full[mask], rtol=0, atol=1e-14)
    rho0 = hilbert.as_dm(psi0)
    at_zero = dynamics.lindblad_evolve(h, c_ops, rho0, 0.0, dims=dims).final
    assert np.array_equal(at_zero, rho0 * mask)


def test_even_q_solve_refuses_operators_that_mix_parities():
    """A drive a + a^dag in H, or a collapse operator that keeps parity on
    some entries and flips it on others (a + a^dag a), would feed odd q
    into even q: the even-q solve refuses them by name, and dims that do
    not multiply to H's dimension; the full solve takes the same
    operators."""
    dims = (3, 2, 3)
    h, c_ops = params_network(SystemParams(g_bs=G, dims=dims))
    a = embed(dims, {"cav1": hilbert.destroy(3)})
    psi0 = product_ket(dims, {"cav1": hilbert.coherent(3, 0.5)})
    drive = 1e5 * (a + a.conj().T)
    with pytest.raises(ValueError, match="the Hamiltonian H mixes photon-number parities"):
        dynamics.lindblad_evolve(h + drive, c_ops, psi0, 1e-6, dims=dims)
    mixed = 1e3 * (a + a.conj().T @ a)
    with pytest.raises(ValueError, match="collapse operator 3 mixes photon-number parities"):
        dynamics.lindblad_evolve(h, c_ops + [mixed], psi0, 1e-6, dims=dims)
    with pytest.raises(ValueError, match="product is H's dimension 18"):
        dynamics.lindblad_evolve(h, c_ops, psi0, 1e-6, dims=(3, 3, 3))
    for h_full, cs in [(h + drive, c_ops), (h, c_ops + [mixed])]:
        assert np.isfinite(dynamics.lindblad_evolve(h_full, cs, psi0, 1e-6).final).all()


def _distinct_weights(liou):
    """The weight arrays of ``liou``'s terms and transposed terms, one per
    block of memory: a term may hold a slice of its weight, and an off-main
    row weight of K' serves a term and a transposed term."""
    distinct = []
    for w in [term[3] for term in liou.terms + liou.transposed_terms]:
        if not any(np.shares_memory(w, v) for v in distinct):
            distinct.append(w)
    return distinct


def test_liouvillian_term_inventory():
    """The term inventory that the _Liouvillian docstring states.  At the
    benchmark's dump, dims (6, 4, 6) with cavity loss on: 8 terms and 4
    transposed terms over 8 weights (the main diagonal, H's four hopping
    diagonals and one pair weight per ladder operator).  On the two
    total-parity blocks, 81 slots each, 11 terms and 4 transposed terms
    over 11 weights: a ladder operator's pair weight splits into one per
    output block, each covering that block.  In the pair windows, H = 0 on
    the two cavities under loss: 3 terms, no transposed term."""
    params = SystemParams(g_bs=G, dims=(6, 4, 6))
    h, c_ops = params_network(params)
    assert len(c_ops) == 3
    dump = _liouvillian(h, c_ops)
    dump.buffers()
    assert (len(dump.terms), len(dump.transposed_terms)) == (8, 4)
    assert len(_distinct_weights(dump)) == 8

    even = _liouvillian(h, c_ops, dynamics._Blocks.parity(params.dims))
    src, _ = even.buffers()
    assert src.shape == (2 * 81, 81)
    assert (len(even.terms), len(even.transposed_terms)) == (11, 4)
    assert len(_distinct_weights(even)) == 11
    within_a_block = [write.start // 81**2 == (write.stop - 1) // 81**2 for write, *_ in even.terms]
    assert sum(within_a_block) == 6

    h, c_ops = dynamics.network_operators(np.zeros((2, 2)), params.gamma_cavity, (6, 6))
    pair = dynamics._Liouvillian(h, c_ops, dynamics._Blocks.full(36))
    pair.buffers()
    assert (len(pair.terms), len(pair.transposed_terms)) == (3, 0)
    assert len(_distinct_weights(pair)) == 3


def _plan_system(name):
    """(dense H, dense collapse operators, layout) of one system the
    application plan is checked on: the network at dims (3, 2, 5),
    (5, 3, 5) or (6, 4, 6), with or without self-Kerr, on the full space
    or its two parity blocks; the pair windows' lossy cavities alone (no
    term reads M^T and none is transposed); the two systems of
    _real_off_diagonal_systems, where only a transposed term reads M^T;
    and the dense H and collapse operator of
    test_lindblad_dense_operators_with_every_diagonal."""
    if name.startswith("real-off-diagonal"):
        h, cs = _real_off_diagonal_systems()[int(name[-1])]
        return h, cs, dynamics._Blocks.full(len(h))
    if name == "dense":
        rng = np.random.default_rng(11)
        a = _random_complex(rng, 5, 5)
        return a + a.conj().T, [0.5 * _random_complex(rng, 5, 5)], dynamics._Blocks.full(5)
    kind, layout = name.rsplit("-", 1)
    if kind == "pair":
        dims = (6, 6)
        diagonals = dynamics.network_operators(np.zeros((2, 2)), SystemParams(g_bs=G).gamma_cavity, dims)
        h, *c_ops = [dense(d, 36) for d in [diagonals[0], *diagonals[1]]]
    else:
        dims = tuple(int(d) for d in kind.split("+")[0].split("x"))
        h, c_ops = params_network(SystemParams(g_bs=G, dims=dims))
        if kind.endswith("+kerr"):
            h = h + kerr_hamiltonian_kron(dims, (-230e3, -70e3))
    blocks = dynamics._Blocks.parity(dims) if layout == "parity" else dynamics._Blocks.full(len(h))
    return h, c_ops, blocks


_PLAN_SYSTEMS = [
    f"{dims}{kerr}-{layout}"
    for dims in ("3x2x5", "5x3x5", "6x4x6") for kerr in ("", "+kerr") for layout in ("full", "parity")
] + ["pair-full", "pair-parity", "real-off-diagonal-0", "real-off-diagonal-1", "dense"]


@pytest.mark.parametrize("name", _PLAN_SYSTEMS)
def test_liouvillian_plan_matches_the_term_loop_bit_for_bit(name):
    """Three chained applications of the prebuilt plan, starting from each
    of the two buffers, against the term-by-term loop of the oracles on
    the packing of a random Hermitian matrix: every bit equal, signed zeros
    included, and every entry of the output written."""
    h, c_ops, blocks = _plan_system(name)
    liou = _liouvillian(h, c_ops, blocks)
    buffers = liou.buffers()
    rng = np.random.default_rng(3)
    for first in (0, 1):
        r = _random_complex(rng, len(h), len(h))
        start = blocks.gather(dynamics._pack(r + r.conj().T))
        planned = [buffers[first], buffers[1 - first]]
        reference = [start.copy(), np.full(start.shape, np.nan)]
        planned[0][...] = start
        planned[1].fill(np.nan)
        for _ in range(3):
            got = liou.apply(*planned)
            expected = liouvillian_apply_reference(liou, *reference)
            assert got is planned[1] and np.isfinite(got).all()
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
            planned.reverse()
            reference.reverse()


def test_liouvillian_apply_takes_only_its_own_buffers():
    """``apply`` reads one of the two buffers that the latest ``buffers()``
    returned and writes the other; any other pair of arrays, a view or a
    copy of a buffer included, is a ``ValueError``."""
    h, c_ops, blocks = _plan_system("3x2x5-parity")
    liou = _liouvillian(h, c_ops, blocks)
    old = liou.buffers()
    a, b = liou.buffers()
    for src, dst in [(a.copy(), b), (a, b.copy()), (a[:], b), (a, a), (b, b), old, (np.zeros(1), b)]:
        with pytest.raises(ValueError, match="buffers"):
            liou.apply(src, dst)
    a.fill(0.0)
    assert liou.apply(a, b) is b and liou.apply(b, a) is a


@pytest.mark.parametrize("layout", ["parity", "full"])
def test_liouvillian_applications_allocate_nothing(layout):
    """Ten applications at the benchmark's dump, dims (6, 4, 6), peak below
    1 KiB under tracemalloc and keep nothing: the plan holds views, so an
    application slices, reshapes and copies nothing (one weight of the two
    parity blocks is 2 x 81^2 reals, about 105 kB)."""
    h, c_ops, blocks = _plan_system(f"6x4x6-{layout}")
    liou = _liouvillian(h, c_ops, blocks)
    a, b = liou.buffers()
    r = _random_complex(np.random.default_rng(1), len(h), len(h))
    a[...] = blocks.gather(dynamics._pack(r + r.conj().T))
    liou.apply(a, b)  # once untraced, so that nothing numpy sets up on a first call counts
    tracemalloc.start()
    try:
        for _ in range(5):
            liou.apply(a, b)
            liou.apply(b, a)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 and kept == 0


def test_lindblad_working_memory_stays_small():
    """One 144-dim solve, the entangle-lindblad one, peaks at no more than
    eight dim x dim complex arrays: the working memory that the
    _Liouvillian docstring lists, with no per-term temporaries and the
    complex state freed once packed.  The same solve on the two
    total-parity blocks peaks at no more than fifteen real arrays of the
    two blocks, 2 x 81^2 entries each: that working memory plus the weight
    being built."""
    dims = (6, 4, 6)
    h, c_ops = params_network(SystemParams(g_bs=G, dims=dims))
    psi0 = product_ket(
        dims, {"cav1": hilbert.coherent(6, 0.5), "cav2": hilbert.coherent(6, -0.5)}
    )
    _, peak = traced_peak(dynamics.lindblad_evolve, h, c_ops, psi0, 2e-6)
    assert peak <= 8 * math.prod(dims) ** 2 * 16
    _, peak = traced_peak(dynamics.lindblad_evolve, h, c_ops, psi0, 2e-6, dims=dims)
    assert peak <= 15 * 2 * 81**2 * 8


# ---------------------------------------------------------------------------
# transfer efficiency
# ---------------------------------------------------------------------------


def test_transfer_lossless_is_perfect():
    t_half = math.pi / (2 * 2 * math.pi * G)
    res = dynamics.transfer_efficiency(G, 0.0, t1=t_half, t2=t_half)
    assert res.eta >= 1 - 1e-6


@pytest.mark.parametrize("times", [{"t1": 1e-7}, {"t2": 1e-7}])
def test_transfer_needs_both_times_or_neither(times):
    with pytest.raises(ValueError, match="both t1 and t2"):
        dynamics.transfer_efficiency(G, 600e3, **times)


def test_transfer_optimum_frozen():
    res = dynamics.transfer_efficiency(G, 600e3)
    assert res.t1 == pytest.approx(1.015974050667408e-06, rel=1e-4)
    assert res.t2 == pytest.approx(res.t1, rel=1e-3)
    assert res.eta == pytest.approx(0.021706751536007214, rel=1e-5)


def test_transfer_monotone_in_loss():
    eta_low = dynamics.transfer_efficiency(G, 300e3).eta
    eta_high = dynamics.transfer_efficiency(G, 1200e3).eta
    assert eta_low > eta_high


def test_transfer_efficiency_takes_arrays_of_times():
    """Arrays of hold times give, in one propagator call per stage, exactly
    the efficiencies of one call per pair of times."""
    t1 = np.linspace(1e-9, 3e-6, 13)
    t2 = t1[::-1].copy()
    res = dynamics.transfer_efficiency(G, 600e3, t1=t1, t2=t2)
    expected = [dynamics.transfer_efficiency(G, 600e3, t1=a, t2=b).eta for a, b in zip(t1, t2)]
    assert np.array_equal(res.eta, expected)


def test_transfer_optimum_is_two_propagators(monkeypatch):
    """The optimum is closed form: one propagator per stage, no search."""
    calls = []
    propagator = dynamics.linear_propagator

    def counted(*args, **kwargs):
        calls.append(args[2])
        return propagator(*args, **kwargs)

    monkeypatch.setattr(dynamics, "linear_propagator", counted)
    res = dynamics.transfer_efficiency(G, 600e3)
    assert calls == [res.t1, res.t2]


# a single swap stage is critically damped at kappa_b = 4 g_bs
@pytest.mark.parametrize("kappa_b", [0.0, 300e3, 600e3, 4 * G, 1.2e6, 3e6])
def test_transfer_optimum_beats_its_neighbours(kappa_b):
    """eta(t1, t2) = f(t1) f(t2), so the per-stage optimum t* is the joint
    optimum in every damping regime, the critical point included."""
    res = dynamics.transfer_efficiency(G, kappa_b)
    assert res.t1 == res.t2
    for dt1, dt2 in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1)):
        t1, t2 = res.t1 * (1 + 1e-3 * dt1), res.t2 * (1 + 1e-3 * dt2)
        assert dynamics.transfer_efficiency(G, kappa_b, t1=t1, t2=t2).eta < res.eta


def _transfer_eta_master_equation(kappa_b, t1, t2):
    """<n_cav2> after the two timed swaps, by the Lindblad oracle at (2, 2, 2)."""
    dims = (2, 2, 2)
    a = hilbert.destroy(2)
    g = 2 * math.pi * G

    def swap(cav):
        m = embed(dims, {cav: a, "bus": a.conj().T})
        return g * (m + m.conj().T)

    c_ops = []
    if kappa_b > 0:
        b = embed(dims, {"bus": a})
        c_ops = [math.sqrt(2 * math.pi * kappa_b) * b]
    psi0 = product_ket(dims, {"cav1": fock(2, 1)})
    r1 = dynamics.lindblad_evolve(swap("cav1"), c_ops, psi0, t1)
    r2 = dynamics.lindblad_evolve(swap("cav2"), c_ops, r1.final, t2)
    n2 = embed(dims, {"cav2": number(2)}, sparse=True)
    return float(np.real(expect(n2, r2.final)))


@pytest.mark.parametrize("kappa_b", [0.0, 600e3, dynamics.critical_kappa(G)])
def test_transfer_closed_form_matches_master_equation(kappa_b):
    """|(E2 E1)[cav2, cav1]|^2 against the single-photon master equation."""
    for t1, t2 in ((0.3e-6, 0.5e-6), (1.0e-6, 1.0e-6), (2.2e-6, 0.7e-6)):
        eta = dynamics.transfer_efficiency(G, kappa_b, t1=t1, t2=t2).eta
        assert eta == pytest.approx(_transfer_eta_master_equation(kappa_b, t1, t2), abs=1e-12)


# ---------------------------------------------------------------------------
# the linear core: exact propagation of coherent superpositions
# ---------------------------------------------------------------------------


def test_linear_propagator_lossless():
    a = np.array([[0.0, 1.0], [1.0, 0.0]]) * 1e6
    e, q = dynamics.linear_propagator(a, [0.0, 0.0], 1.3e-6)
    assert_allclose(e @ e.conj().T, np.eye(2), atol=1e-12)
    assert_allclose(q, np.zeros((2, 2)), atol=1e-12)


def _network_generator(kappa_b, cavity_loss=True):
    """-iA - Gamma/2 of the three-mode network at the reference coupling."""
    gammas = np.array([1 / 385e-6, dynamics.TWO_PI * kappa_b, 1 / 520e-6])
    if not cavity_loss:
        gammas[[0, 2]] = 0.0
    return -1j * dynamics.coupling_matrix(G) - np.diag(gammas) / 2, gammas


@pytest.mark.parametrize(
    "kappa_b, cavity_loss",
    [(600e3, True), (0.0, True), (0.0, False), (dynamics.critical_kappa(G), True), (3e6, True)],
)
def test_expm_matches_scipy(kappa_b, cavity_loss):
    """Pade-13 scaling and squaring against scipy's expm: the 121-time
    phase-sweep grid (t = 0 gives the identity exactly), a lossless bus,
    no loss at all, exactly critical damping, a strongly overdamped bus,
    and t ||M||_1 near 150, five times the longest window the protocol
    uses.  Both round off about 3e-17 per unit of t ||M||_1 in squaring."""
    m, _ = _network_generator(kappa_b, cavity_loss)
    times = np.linspace(0.0, 8e-6, 121)
    stack = m * times[:, None, None]
    assert_allclose(dynamics._expm(stack), expm(stack), rtol=0, atol=1e-14)
    assert np.array_equal(dynamics._expm(stack)[0], np.eye(3))
    t_long = 150 / np.abs(m).sum(axis=0).max()
    assert_allclose(dynamics._expm(m * t_long), expm(m * t_long), rtol=0, atol=1e-14)


def test_uncoupled_propagator_is_the_exact_diagonal():
    """With A = 0 the propagator is diag(e^{-gamma t/2}), bit for bit what
    scipy's expm returns for a diagonal matrix, on a stack of times too."""
    _, gammas = _network_generator(600e3)
    m = -np.diag(gammas).astype(complex) / 2
    for t in (0.0, 0.8e-6, np.linspace(0.0, 8e-6, 7)):
        e, _ = dynamics.linear_propagator(np.zeros((3, 3)), gammas, t)
        assert np.array_equal(e, expm(m * np.asarray(t)[..., None, None]))


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
    weights = np.exp(dynamics.dyad_log_weights(np.array([[1.0], [-1.0]], dtype=complex), q))
    eta = 1 - math.exp(-kappa * t)
    # <z2|z1> overlap of the lost environment states, z = +-1
    expected = math.exp(-0.5 * eta * abs(1 - (-1)) ** 2)
    assert abs(weights[0, 1]) == pytest.approx(expected, rel=1e-12)
    assert weights[0, 0] == pytest.approx(1.0)


def test_coherent_trace_preserved_through_stages():
    rng = np.random.default_rng(7)
    labels = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
    weights = np.ones((3, 3), dtype=complex)
    tr0 = coherent_trace(coeffs, labels, weights)
    a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) * 1e6
    for t, gam in ((0.3e-6, [0, 3e6, 0]), (0.9e-6, [1e4, 2e6, 1e4])):
        e, q = dynamics.linear_propagator(a, gam, t)
        weights = weights * np.exp(dynamics.dyad_log_weights(labels, q))
        labels = labels @ e.T
        assert coherent_trace(coeffs, labels, weights) == pytest.approx(tr0, rel=1e-12)


def test_materialize_matches_direct_construction():
    alpha = 0.9
    labels = np.array([[alpha], [-alpha]], dtype=complex)
    coeffs = np.array([1, 1j], dtype=complex) / 2
    rho = materialize_coherent(coeffs, labels, np.ones((2, 2)), (20,))
    k1 = hilbert.coherent(20, alpha, normalized=False)
    k2 = hilbert.coherent(20, -alpha, normalized=False)
    ket = (k1 + 1j * k2) / 2
    assert_allclose(rho, np.outer(ket, ket.conj()), atol=1e-14)


def test_trace_by_overlaps_matches_fock_ptrace():
    """Tracing a mode out multiplies each dyad weight by the mode's overlap
    <z_j|z_i>, the dyad log-weights at Q = I."""
    rng = np.random.default_rng(3)
    labels = 0.45 * (rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
    coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
    coeffs /= math.sqrt(abs(np.vdot(coeffs, coeffs)))
    weights = np.ones((3, 3), dtype=complex)
    dims = (18, 18)
    full = materialize_coherent(coeffs, labels, weights, dims)
    direct = hilbert.partial_trace(full, dims, keep=[0])
    traced = weights * np.exp(dynamics.dyad_log_weights(labels[:, 1:], np.eye(1)))
    assert_allclose(materialize_coherent(coeffs, labels[:, :1], traced, (18,)), direct, atol=1e-10)


def test_coherent_vs_lindblad_cross_check():
    """The linear core and the master equation agree on a lossy
    two-component evolution."""
    dims = (8, 8, 8)
    params = SystemParams(g_bs=G, kappa_b=600e3, dims=dims)
    # alpha small enough that the dim-8 Fock tail (the dominant discrepancy
    # between the truncation-free linear core and the truncated Lindblad one)
    # stays below the comparison threshold
    alpha = 0.5
    t = 1.1e-6

    # linear core
    labels = np.array([[alpha, 0, alpha], [alpha, 0, -alpha]], dtype=complex)
    coeffs = np.array([1.0, 1.0], dtype=complex)
    overlaps = np.exp(dynamics.dyad_log_weights(labels, np.eye(3)))
    coeffs = coeffs / math.sqrt(float(np.real(np.sum(np.outer(coeffs, coeffs.conj()) * overlaps))))
    a_mat = dynamics.coupling_matrix(params.g_bs)
    gammas = [params.gamma_cavity[0], params.kappa_ang, params.gamma_cavity[1]]
    e, q = dynamics.linear_propagator(a_mat, gammas, t)
    rho_coh = materialize_coherent(
        coeffs, labels @ e.T, np.exp(dynamics.dyad_log_weights(labels, q)), dims
    )

    # master-equation engine
    k1 = hilbert.coherent(dims[0], alpha, normalized=False)
    kp = hilbert.coherent(dims[2], alpha, normalized=False)
    km = hilbert.coherent(dims[2], -alpha, normalized=False)
    psi = np.kron(k1, np.kron(fock(dims[1], 0), kp + km))
    psi = psi / np.linalg.norm(psi)
    h, c_ops = params_network(params)
    res = dynamics.lindblad_evolve(h, c_ops, psi, t)
    # the coherent result is normalized in the full space; the truncated
    # materialization loses a little tail mass, so compare after norming
    rho_coh /= np.trace(rho_coh).real
    assert hilbert.trace_distance(rho_coh, res.final) < 3e-5


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.05, max_value=1.2), st.floats(min_value=0.0, max_value=3e6))
def test_propagator_weights_bounded(alpha, kappa):
    """|w_ij| <= 1 always: loss can only destroy coherence, not create it."""
    e, q = dynamics.linear_propagator(np.zeros((1, 1)), [kappa], 1e-6)
    weights = np.exp(dynamics.dyad_log_weights(np.array([[alpha], [-alpha]], dtype=complex), q))
    assert np.all(np.abs(weights) <= 1 + 1e-12)

