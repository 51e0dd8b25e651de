"""Open-system dynamics of two cavities coupled through one lossy bus mode.

The physical system is

    H / hbar = g (a1 + a2) b^dag + h.c.,

with the bus b decaying at kappa_b and each cavity at 1/T1.  The symmetric
("bright") cavity combination couples to the bus at sqrt(2) g and inherits
its loss; the antisymmetric ("dark") combination is exactly decoupled.  The
bright sector obeys a damped-oscillator equation

    u'' + (kappa_b / 2) u' + 2 g^2 u = 0,

so kappa_b = 4 sqrt(2) g separates underdamped ringing from overdamped decay.

Unit conventions (documented once, here):

* user-facing numbers are cyclic frequencies in Hz (the "g/2pi" of a lab
  notebook) and times in seconds;
* everything internal is angular (rad/s), converted via 2*pi at the door.

Everything linear goes through one core, :func:`linear_propagator`: the
3x3 map E = expm((-iA - Gamma/2) t) of mode amplitudes, with A the angular
coupling (:func:`coupling_matrix` for the full network).  Built on it:

* :func:`langevin_solve` -- exact classical amplitude trajectories,
  z(t) = E(t) z0;
* :func:`transfer_efficiency` -- one photon moved by two timed swaps;
* the coherent-superposition engine (:class:`CoherentSuperposition`) --
  exact quantum evolution for superpositions of coherent states, with no
  Fock truncation at all.  Linear collapse operators plus a passive
  quadratic Hamiltonian keep such superpositions closed under the master
  equation; labels follow the classical flow and each dyad picks up an
  analytically known weight.

:func:`lindblad_evolve` -- exact density-matrix propagation under the
Liouvillian (matrix-free, with no step size to choose) -- is kept for what
the linear core cannot do: it is the independent oracle the tests check the
closed forms against, and the only path that evolves self-Kerr.
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg

from . import hilbert
from .hilbert import HilbertSpace, NumericalError, Operator, QuantumState

TWO_PI = 2 * math.pi

MODE_LABELS = ("cav1", "bus", "cav2")


# ---------------------------------------------------------------------------
# parameters and grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemParams:
    """Hardware-style parameter set (frequencies in Hz, times in seconds).

    Defaults describe two long-lived cavities bridged by a short-lived bus:
    g_bs/2pi = 160 kHz beam-splitter coupling, bus linewidth 600 kHz
    (lifetime ~265 ns), cavity T1 of 385 and 520 us, self-Kerr of -23 and
    -7 kHz.  ``dims`` is the (cav1, bus, cav2) Fock truncation used whenever
    a state is materialized.
    """

    g_bs: float = 160e3
    kappa_b: float = 600e3
    t1_cavity: tuple[float, float] = (385e-6, 520e-6)
    kerr: tuple[float, float] = (-23e3, -7e3)
    alpha: float = math.sqrt(2)
    dims: tuple[int, int, int] = (12, 16, 12)
    t_pump: float = 0.8e-6      # state preparation window (loss only)
    t_dump: float = 2.0e-6      # bus-coupling window
    t_protocol: float = 5.592e-6  # total decoherence exposure, prep to readout
    delta_fsr: float = 2.0e9
    chi_cav_transmon: tuple[float, float] = (-3.75e6, -2.2e6)
    chi_bus_transmon: tuple[float, float] = (-2.1e6, -2.5e6)
    anharmonicity: tuple[float, float] = (-182e6, -187e6)

    def __post_init__(self):
        if self.g_bs <= 0:
            raise ValueError("g_bs must be positive")
        if self.kappa_b < 0:
            raise ValueError("kappa_b cannot be negative")
        if len(self.dims) != 3 or any(d < 2 for d in self.dims):
            raise ValueError(f"dims must be three truncations >= 2, got {self.dims}")
        if any(t <= 0 for t in self.t1_cavity):
            raise ValueError("cavity T1 must be positive")
        if self.alpha < 0:
            raise ValueError("alpha is a magnitude, must be >= 0")

    # angular versions, used by everything internal
    @property
    def g_ang(self) -> float:
        return TWO_PI * self.g_bs

    @property
    def kappa_ang(self) -> float:
        return TWO_PI * self.kappa_b

    @property
    def gamma_cavity(self) -> tuple[float, float]:
        """Cavity energy decay rates 1/T1 in 1/s."""
        return (1.0 / self.t1_cavity[0], 1.0 / self.t1_cavity[1])

    def space(self) -> HilbertSpace:
        return HilbertSpace(self.dims, MODE_LABELS)

    def with_(self, **kw) -> "SystemParams":
        return replace(self, **kw)


@dataclass
class TimeGrid:
    """Strictly increasing output times in seconds."""

    times: np.ndarray

    def __post_init__(self):
        self.times = np.atleast_1d(np.asarray(self.times, dtype=float))
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("grid times must be strictly increasing")

    @classmethod
    def linspace(cls, t_final: float, n: int = 201, t_start: float = 0.0) -> "TimeGrid":
        return cls(np.linspace(t_start, t_final, n))


# ---------------------------------------------------------------------------
# operator builders
# ---------------------------------------------------------------------------


def coupling_matrix(g_bs: float) -> np.ndarray:
    """Angular 3x3 coupling A of H = sum A_kl a_k^dag a_l in mode order
    (cav1, bus, cav2): each cavity exchanges with the bus at 2pi g_bs."""
    g = TWO_PI * g_bs
    return np.array([[0, g, 0], [g, 0, g], [0, g, 0]], dtype=complex)


def coupling_hamiltonian(space: HilbertSpace, g_bs: float) -> Operator:
    """H = 2pi g (a1 + a2) b^dag + h.c. as a sparse operator."""
    g = TWO_PI * g_bs
    terms = None
    b_dag = hilbert.create(space.dims[space.axis("bus")])
    for cav in ("cav1", "cav2"):
        a = hilbert.destroy(space.dims[space.axis(cav)])
        t = hilbert.embed(space, {cav: a, "bus": b_dag}, sparse=True).matrix
        terms = t if terms is None else terms + t
    h = g * (terms + terms.conj().T)
    return Operator(h.tocsr(), space)


def kerr_hamiltonian(space: HilbertSpace, kerr: tuple[float, float]) -> Operator:
    """Self-Kerr H = sum_i 2pi K_i/2 n_i (n_i - 1) on the two cavities."""
    h = None
    for cav, k in zip(("cav1", "cav2"), kerr):
        d = space.dims[space.axis(cav)]
        n = np.arange(d)
        diag = TWO_PI * k / 2 * n * (n - 1)
        t = hilbert.embed(space, {cav: np.diag(diag.astype(complex))}, sparse=True).matrix
        h = t if h is None else h + t
    return Operator(h.tocsr(), space)


def collapse_operators(
    space: HilbertSpace,
    params: SystemParams,
    cavity_loss: bool = True,
    bus_loss: bool = True,
) -> list[Operator]:
    """sqrt(rate) * a for each lossy mode.  Rates: kappa_b (angular) for the
    bus, 1/T1 for the cavities."""
    ops = []
    if bus_loss and params.kappa_b > 0:
        b = hilbert.destroy(space.dims[space.axis("bus")])
        ops.append(
            Operator(
                math.sqrt(params.kappa_ang)
                * hilbert.embed(space, {"bus": b}, sparse=True).matrix,
                space,
            )
        )
    if cavity_loss:
        for cav, gamma in zip(("cav1", "cav2"), params.gamma_cavity):
            a = hilbert.destroy(space.dims[space.axis(cav)])
            ops.append(
                Operator(
                    math.sqrt(gamma) * hilbert.embed(space, {cav: a}, sparse=True).matrix,
                    space,
                )
            )
    return ops


# ---------------------------------------------------------------------------
# classical (Langevin) amplitudes and the damping-regime analysis
# ---------------------------------------------------------------------------


def langevin_solve(g_bs, kappa_cav, kappa_b, z0, grid: TimeGrid) -> np.ndarray:
    """Exact mean-amplitude trajectories of the three-mode network.

    ``kappa_cav`` may be a scalar or a (cav1, cav2) pair of energy decay
    rates in 1/s; g_bs and kappa_b are cyclic Hz.  Returns z(t) = E(t) z0
    from :func:`linear_propagator`, shape (len(times), 3) in mode order
    (cav1, bus, cav2): exact at every grid point (including exactly critical
    damping), and the classical reference for the quantum solvers, since
    <a_k(t)> of a coherent initial state follows it identically.
    """
    k1, k2 = (kappa_cav, kappa_cav) if np.isscalar(kappa_cav) else kappa_cav
    coupling = coupling_matrix(g_bs)
    gammas = (k1, TWO_PI * kappa_b, k2)
    z0 = np.asarray(z0, dtype=complex)
    if z0.shape != (3,):
        raise ValueError("z0 must be the three initial amplitudes (cav1, bus, cav2)")
    return linear_propagator(coupling, gammas, grid.times)[0] @ z0


def to_dark_bright(traj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dark/bright combinations of the two cavity columns of a trajectory."""
    s = 1 / math.sqrt(2)
    return (traj[:, 0] - traj[:, 2]) * s, (traj[:, 0] + traj[:, 2]) * s


def critical_kappa(g_bs: float) -> float:
    """Bus linewidth separating bright-mode ringing from overdamped decay,
    kappa_crit = 4 sqrt(2) g (same units as the input)."""
    return 4 * math.sqrt(2) * g_bs


def damping_rates(g_bs: float, kappa_b: float) -> tuple[complex, complex]:
    """Bright-sector amplitude eigenvalues (slow, fast).

    Roots of s^2 + (kappa/2) s + 2 g^2 = 0 with angular rates: the real part
    is the amplitude decay rate, the imaginary part the oscillation.  Deep in
    the overdamped regime |Re slow| -> 2 (sqrt(2) g)^2 / kappa: the familiar
    "coupling squared over linewidth" slow pole of the bright mode.
    """
    g = TWO_PI * g_bs
    k = TWO_PI * kappa_b
    disc = np.sqrt(complex((k / 4) ** 2 - 2 * g**2))
    slow = -k / 4 + disc
    fast = -k / 4 - disc
    return slow, fast


def classify_regime(g_bs: float, kappa_b: float, rtol: float = 1e-3) -> str:
    """"underdamped" | "critical" | "overdamped" for the bright sector.

    ``rtol`` is the relative width of the band called critical; quoted
    hardware linewidths are rounded, so an exact-equality test would be
    useless in practice.
    """
    kc = critical_kappa(g_bs)
    if abs(kappa_b - kc) <= rtol * kc:
        return "critical"
    return "underdamped" if kappa_b < kc else "overdamped"


def t_swap(g_bs: float) -> float:
    """Half-period of the bright-mode vacuum Rabi swap, pi/(2 sqrt(2) g_ang).

    At kappa_b = 0 this is when the bright excitation sits entirely in the
    bus (and the first zero of the bright cavity amplitude)."""
    return math.pi / (2 * math.sqrt(2) * TWO_PI * g_bs)


def bright_mode_response(g_bs: float, kappa_b: float, times) -> np.ndarray:
    """Normalized bright-cavity amplitude u(t) with u(0)=1, bus empty.

    Closed form of the damped-oscillator initial-value problem:
    u = e^{-kt/4} [cos(nu t) + (k/4 nu) sin(nu t)], nu^2 = 2 g^2 - k^2/16,
    valid in all three regimes via the complex branch of nu.
    """
    g = TWO_PI * g_bs
    k = TWO_PI * kappa_b
    t = np.atleast_1d(np.asarray(times, dtype=float))
    nu = np.sqrt(complex(2 * g**2 - (k / 4) ** 2))
    if abs(nu) < 1e-12:  # exactly critical: sin(nu t)/nu -> t
        u = np.exp(-k * t / 4) * (1 + k * t / 4)
    else:
        u = np.exp(-k * t / 4) * (np.cos(nu * t) + (k / (4 * nu)) * np.sin(nu * t))
    return np.real(u)


def auto_dump_time(g_bs: float, kappa_b: float, residual_tol: float = 1e-4) -> float:
    """Bus-coupling duration that empties the bright mode.

    Underdamped: the first exact zero of u(t), nu t = pi - atan2(4 nu, k)
    (reduces to t_swap at kappa_b = 0).  Critical/overdamped: u never
    crosses zero, so the first time |u| < residual_tol.
    """
    g = TWO_PI * g_bs
    k = TWO_PI * kappa_b
    nu2 = 2 * g**2 - (k / 4) ** 2
    if nu2 > 0 and classify_regime(g_bs, kappa_b) == "underdamped":
        nu = math.sqrt(nu2)
        return (math.pi - math.atan2(4 * nu, k)) / nu
    slow, _ = damping_rates(g_bs, kappa_b)
    rate = abs(slow.real)
    if rate == 0:
        raise NumericalError("dynamics: bright mode does not decay (kappa_b = 0)")
    t_hi = math.log(2.0 / residual_tol) / rate
    f = lambda t: abs(float(bright_mode_response(g_bs, kappa_b, t)[0])) - residual_tol
    while f(t_hi) > 0:
        t_hi *= 2
    return float(scipy.optimize.brentq(f, 1e-12, t_hi, xtol=1e-16))


# ---------------------------------------------------------------------------
# Lindblad master equation, exact Liouvillian propagation
# ---------------------------------------------------------------------------


@dataclass
class EvolveResult:
    times: np.ndarray
    final: QuantumState
    states: list | None = None
    expect: np.ndarray | None = None  # shape (n_eops, n_times)


def _lindblad_action(k_op, cs):
    """v -> vec(K r + r K^dag + sum_c c r c^dag), r = v as a dim x dim matrix.

    Linear in r for any r, Hermitian or not (the norm estimates inside
    ``expm_multiply`` probe the operator with arbitrary vectors).  With
    K -> K^dag and c -> c^dag the same map is the adjoint.  Right products
    go through r^T, since r X^dag = (conj(X) r^T)^T.
    """
    dim = k_op.shape[0]
    k_bar = k_op.conj()
    c_pairs = [(c, c.conj()) for c in cs]

    def act(v):
        r = v.reshape(dim, dim)
        rt = np.ascontiguousarray(r.T)
        out = k_op @ r
        out += (k_bar @ rt).T
        for c, c_bar in c_pairs:
            out += c @ np.ascontiguousarray((c_bar @ rt).T)
        return out.ravel()

    return act


_GLOBAL_RNG_LOCK = threading.Lock()


@contextlib.contextmanager
def _fixed_global_rng():
    """Run a block on numpy's global RNG seeded with 0, then restore it.

    ``expm_multiply`` estimates operator norms with ``onenormest``, which
    draws its probe vectors from the global RNG.  Different draws can pick a
    different truncation and move the last bits of the result, so without
    this the output would depend on whatever the caller did with
    ``np.random`` before.  The caller's random stream is left untouched.
    """
    with _GLOBAL_RNG_LOCK:
        saved = np.random.get_state()
        np.random.seed(0)
        try:
            yield
        finally:
            np.random.set_state(saved)


def lindblad_evolve(
    h,
    c_ops,
    state0,
    grid: TimeGrid,
    e_ops=None,
    store_states: bool = False,
) -> EvolveResult:
    """Propagate drho/dt = -i[H, rho] + sum_k D[c_k] rho exactly between grid times.

    Parameters
    ----------
    h, c_ops:
        Hamiltonian and collapse operators (Operator, ndarray or sparse), in
        angular units (rad/s) -- the builders in this module already are.
    state0:
        QuantumState or raw ket / density matrix.
    grid:
        Output times.  Each interval is one application of the propagator
        exp(L dt) to the vectorized state.
    e_ops:
        Optional operators whose expectation values are recorded at grid
        times (cheaper than storing states).
    store_states:
        Keep a dense copy of rho at every grid time.  Mind the memory.

    The Liouvillian L rho = K rho + rho K^dag + sum c rho c^dag, with
    K = -iH - (1/2) sum c^dag c, is applied matrix-free: the dim^2 x dim^2
    superoperator is never assembled.  ``scipy.sparse.linalg.expm_multiply``
    (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)) picks its
    truncation from norm estimates to double precision, so there is no step
    size to choose.  It is given the exact trace of L,
    2 dim Re Tr K + sum |Tr c|^2, and a fixed draw for its norm estimates,
    so the result does not depend on numpy's global RNG.  No renormalization
    is applied -- trace drift is a real error signal, not something to hide.
    """
    hm = scipy.sparse.csr_matrix(hilbert.as_matrix(h), dtype=complex)
    cs = [scipy.sparse.csr_matrix(hilbert.as_matrix(c), dtype=complex) for c in (c_ops or [])]
    space = getattr(h, "space", None) or getattr(state0, "space", None)
    dim = hm.shape[0]

    k_op = -1j * hm
    for c in cs:
        k_op = k_op - 0.5 * (c.conj().T @ c)
    k_op = k_op.tocsr()
    k_adj = k_op.conj().T.tocsr()
    c_adj = [c.conj().T.tocsr() for c in cs]
    liouvillian = scipy.sparse.linalg.LinearOperator(
        (dim * dim, dim * dim),
        matvec=_lindblad_action(k_op, cs),
        rmatvec=_lindblad_action(k_adj, c_adj),
        dtype=complex,
    )
    trace_l = 2 * dim * k_op.diagonal().sum().real + sum(
        abs(c.diagonal().sum()) ** 2 for c in cs
    )

    rho = hilbert.as_dm(state0).astype(complex)
    if rho.shape != (dim, dim):
        raise ValueError("state does not match the Hamiltonian dimension")

    times = grid.times
    e_mats = [scipy.sparse.csr_matrix(hilbert.as_matrix(e)) for e in (e_ops or [])]
    expect_rec = np.empty((len(e_mats), len(times)), dtype=complex) if e_mats else None
    states = [] if store_states else None

    def record(i, r):
        if expect_rec is not None:
            for j, e in enumerate(e_mats):
                expect_rec[j, i] = (e @ r).diagonal().sum()
        if states is not None:
            states.append(QuantumState(r.copy(), space) if space else r.copy())

    record(0, rho)
    with _fixed_global_rng():
        for i, span in enumerate(np.diff(times), start=1):
            vec = scipy.sparse.linalg.expm_multiply(
                span * liouvillian, rho.ravel(), traceA=span * trace_l
            )
            rho = vec.reshape(dim, dim)
            if not np.isfinite(rho).all():
                raise NumericalError(
                    f"dynamics: master-equation propagation diverged at t={times[i]}"
                )
            record(i, rho)

    final = QuantumState(rho, space) if space else QuantumState(rho, HilbertSpace((dim,)))
    return EvolveResult(times=times, final=final, states=states, expect=expect_rec)


# ---------------------------------------------------------------------------
# single-photon transfer through the bus
# ---------------------------------------------------------------------------


@dataclass
class TransferResult:
    t1: float
    t2: float
    eta: float


def _transfer_eta(g_ang, kappa_ang, t1, t2):
    """<n_cav2> after sequential swap cav1->bus (t1) then bus->cav2 (t2).

    One photon in a passive lossy network: its amplitudes follow the labels
    of the linear propagator and a lost photon leaves vacuum behind, so
    eta = |(E2 E1)[cav2, cav1]|^2 is exact.
    """
    stage1 = np.array([[0, g_ang, 0], [g_ang, 0, 0], [0, 0, 0]], dtype=complex)
    stage2 = np.array([[0, 0, 0], [0, 0, g_ang], [0, g_ang, 0]], dtype=complex)
    gammas = (0.0, kappa_ang, 0.0)
    e1, _ = linear_propagator(stage1, gammas, t1)
    e2, _ = linear_propagator(stage2, gammas, t2)
    return float(abs((e2 @ e1)[2, 0]) ** 2)


def transfer_efficiency(
    g_bs: float,
    kappa_b: float,
    t1: float | None = None,
    t2: float | None = None,
) -> TransferResult:
    """Photon transfer cav1 -> bus -> cav2 by sequential timed swaps.

    With ``t1``/``t2`` given, just evaluates the efficiency.  Otherwise
    optimizes both hold times (Nelder-Mead polish around the analytic
    single-stage optimum t* = atan(4 nu / kappa)/nu, nu^2 = g^2 - kappa^2/16).
    Through a lossy bus each stage transfers at most
    (g/nu) e^{-kappa t*/4} sin(nu t*), so eta through two stages is that
    fourth power -- a few percent for kappa ~ 4g -- while kappa_b = 0 gives
    eta = 1 at t1 = t2 = pi/(2 g_ang).
    """
    g = TWO_PI * g_bs
    k = TWO_PI * kappa_b

    if t1 is not None and t2 is not None:
        return TransferResult(t1, t2, _transfer_eta(g, k, t1, t2))

    # analytic optimum of the per-stage amplitude as the starting point
    nu = np.sqrt(complex(g**2 - (k / 4) ** 2))
    if abs(nu) < 1e-9 * g:
        t0 = 4.0 / k if k > 0 else math.pi / (2 * g)
    else:
        t0 = float(np.real(np.arctan(4 * nu / k) / nu)) if k > 0 else math.pi / (2 * g)

    def neg_eta(x):
        if x[0] <= 0 or x[1] <= 0:
            return 0.0
        return -_transfer_eta(g, k, x[0], x[1])

    res = scipy.optimize.minimize(
        neg_eta,
        x0=[t0, t0],
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 400},
    )
    return TransferResult(float(res.x[0]), float(res.x[1]), float(-res.fun))


# ---------------------------------------------------------------------------
# exact propagation of coherent-state superpositions
# ---------------------------------------------------------------------------


@dataclass
class CoherentSuperposition:
    """rho = sum_ij coeffs_i conj(coeffs_j) weights_ij |z_i><z_j|.

    ``labels`` holds one row of per-mode coherent amplitudes per component.
    ``weights`` starts at ones for a pure superposition and decays under
    loss -- it carries exactly the which-path information the environment
    has acquired.
    """

    labels: np.ndarray   # (n_components, n_modes) complex
    coeffs: np.ndarray   # (n_components,) complex
    weights: np.ndarray = None  # (n, n) complex, defaults to ones

    def __post_init__(self):
        self.labels = np.atleast_2d(np.asarray(self.labels, dtype=complex))
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        n = len(self.coeffs)
        if self.labels.shape[0] != n:
            raise ValueError("one label row per coefficient required")
        if self.weights is None:
            self.weights = np.ones((n, n), dtype=complex)
        else:
            self.weights = np.asarray(self.weights, dtype=complex)

    @property
    def n_components(self) -> int:
        return len(self.coeffs)


def linear_propagator(coupling: np.ndarray, gammas, t):
    """(E, Q) for evolution time t of the linear lossy network.

    ``coupling`` is the Hermitian angular matrix A of H = sum A_kl a_k^dag a_l
    and ``gammas`` the energy decay rate of each mode.  Labels map as
    z -> E z with E = expm((-iA - Gamma/2) t); each dyad (i, j) of a coherent
    superposition acquires

        ln w_ij = z_j^dag Q z_i - (1/2) z_i^dag Q z_i - (1/2) z_j^dag Q z_j,

    with Q = I - E^dag E.  (That identity is where loss being *linear* pays
    off: d(E^dag E)/dt = -E^dag Gamma E, so the accumulated which-path
    integral collapses to endpoint data.)  Gamma = 0 gives Q = 0: no loss,
    no decoherence.

    ``t`` may be an array of times; E and Q are then stacked along leading
    axes of the same shape, each slice equal to the call at that one time.
    """
    a = np.asarray(coupling, dtype=complex)
    gam = np.asarray(gammas, dtype=float)
    m = -1j * a - np.diag(gam) / 2
    e = scipy.linalg.expm(m * np.asarray(t, dtype=float)[..., None, None])
    q = np.eye(len(gam)) - np.swapaxes(e.conj(), -1, -2) @ e
    return e, q


def propagate_coherent(sup: CoherentSuperposition, e: np.ndarray, q: np.ndarray) -> CoherentSuperposition:
    """Apply one (E, Q) stage to a coherent superposition (exact)."""
    z = sup.labels
    y = z @ q.T                      # y[i] = Q z_i
    cross = y @ z.conj().T           # cross[i, j] = z_j^dag Q z_i
    diag = np.real(np.diag(cross))
    lnw = cross - 0.5 * (diag[:, None] + diag[None, :])
    return CoherentSuperposition(
        labels=z @ e.T,
        coeffs=sup.coeffs.copy(),
        weights=sup.weights * np.exp(lnw),
    )


def coherent_overlaps(labels: np.ndarray) -> np.ndarray:
    """O[i, j] = <z_j|z_i> for rows of multi-mode coherent labels."""
    z = np.atleast_2d(labels)
    g = z @ z.conj().T
    n = np.real(np.diag(g))
    return np.exp(g - 0.5 * (n[:, None] + n[None, :]))


def coherent_trace(sup: CoherentSuperposition) -> float:
    """Tr rho of the superposition, computed in closed form (no truncation)."""
    o = coherent_overlaps(sup.labels)
    a = np.outer(sup.coeffs, sup.coeffs.conj()) * sup.weights
    return float(np.real(np.sum(a * o)))

def ptrace_coherent(sup: CoherentSuperposition, keep) -> CoherentSuperposition:
    """Trace out all modes not in ``keep`` (axis indices), in closed form.

    Dropped modes contribute their dyad overlaps <z_j,m|z_i,m> to the
    weights; the kept labels are untouched.
    """
    keep = sorted(keep)
    drop = [m for m in range(sup.labels.shape[1]) if m not in keep]
    w = sup.weights.copy()
    if drop:
        zd = sup.labels[:, drop]
        w = w * coherent_overlaps(zd)
    return CoherentSuperposition(
        labels=sup.labels[:, keep], coeffs=sup.coeffs.copy(), weights=w
    )


def materialize_coherent(sup: CoherentSuperposition, dims) -> np.ndarray:
    """Dense density matrix of the superposition at the given truncations.

    The per-component kets are exact Fock-space projections (unnormalized
    coherent amplitudes), so this is the projection of the true state onto
    the truncated space.  Cost scales with prod(dims)^2: test-size spaces
    only.
    """
    dims = tuple(dims)
    kets = []
    for z in sup.labels:
        factors = [hilbert.coherent(d, zi, normalized=False) for d, zi in zip(dims, z)]
        ket = factors[0]
        for f in factors[1:]:
            ket = np.kron(ket, f)
        kets.append(ket)
    kets = np.array(kets)
    a = np.outer(sup.coeffs, sup.coeffs.conj()) * sup.weights
    return kets.T @ a @ kets.conj()
