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
* :func:`dyad_log_weights` on the (E, Q) of :func:`linear_propagator` --
  exact quantum evolution for superpositions of coherent states, with no
  Fock truncation at all.  Linear collapse operators plus a passive
  quadratic Hamiltonian keep such superpositions closed under the master
  equation: labels follow the classical flow, z -> E z, and each dyad
  |z_i><z_j| picks up an analytically known log-weight from Q.  Q = I
  gives the log-overlaps ln <z_j|z_i> that trace a mode out.

:func:`lindblad_evolve` -- exact density-matrix propagation under the
Liouvillian over a duration, one matrix-free truncated Taylor series whose
length follows from a rigorous norm bound (no step size to choose, nothing
random drawn) -- is kept for what the linear core cannot do: it is the
independent oracle the tests check the closed forms against, and the only
path that evolves self-Kerr.  Given the mode truncations it propagates only
the even coherence orders, all that the herald's numbers read.  Its
operators come from the same network description: :func:`network_operators`
turns (A, Gamma) into H and the collapse operators at a Fock truncation, as
their nonzero diagonals, so both solvers read one model and no dim x dim
operator is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import hilbert
from .hilbert import NumericalError

TWO_PI = 2 * math.pi

# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


# the SystemParams fields that hold one value per cavity
_PAIR_FIELDS = ("t1_cavity", "kerr", "chi_cav_transmon", "chi_bus_transmon", "anharmonicity")


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
        for name in ("dims", *_PAIR_FIELDS):  # a list, as from YAML, is stored as a tuple
            if isinstance(getattr(self, name), list):
                object.__setattr__(self, name, tuple(getattr(self, name)))
        real = (int, float, np.integer, np.floating)
        for name, value in vars(self).items():
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, bool) or not (isinstance(v, real) and math.isfinite(v)):
                    raise ValueError(f"{name} must be finite real numbers, got {value!r}")
        if self.g_bs <= 0:
            raise ValueError("g_bs must be positive")
        for name in ("kappa_b", "alpha", "t_pump", "t_dump", "t_protocol"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")
        if not isinstance(self.dims, tuple) or len(self.dims) != 3 or any(
            not isinstance(d, (int, np.integer)) or d < 2 for d in self.dims
        ):
            raise ValueError(f"dims must be three integer truncations >= 2, got {self.dims}")
        for name in _PAIR_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, tuple) or len(value) != 2:
                raise ValueError(f"{name} must be a (cav1, cav2) pair, got {value!r}")
        if any(t <= 0 for t in self.t1_cavity):
            raise ValueError("cavity T1 must be positive")

    @property
    def kappa_ang(self) -> float:
        """Bus energy decay rate 2pi kappa_b in 1/s."""
        return TWO_PI * self.kappa_b

    @property
    def gamma_cavity(self) -> tuple[float, float]:
        """Cavity energy decay rates 1/T1 in 1/s."""
        return (1.0 / self.t1_cavity[0], 1.0 / self.t1_cavity[1])


# ---------------------------------------------------------------------------
# operator builders
# ---------------------------------------------------------------------------


def coupling_matrix(g_bs: float) -> np.ndarray:
    """Angular 3x3 coupling A of H = sum A_kl a_k^dag a_l in mode order
    (cav1, bus, cav2): each cavity exchanges with the bus at 2pi g_bs."""
    g = TWO_PI * g_bs
    return np.array([[0, g, 0], [g, 0, g], [0, g, 0]], dtype=complex)


def _kron_diagonal(dims, factors: dict) -> tuple[int, np.ndarray]:
    """The diagonal (o, u), as :func:`_diagonals` lists it, of the Kronecker
    product over the modes of ``dims`` whose factor on each mode k named is
    the single diagonal ``factors[k] = (o_k, v_k)``, and the identity on
    every other mode.  Entry x = (n_1, ..., n_m) of u is the product of the
    v_k[n_k], taken in the order np.kron takes it, so it equals the dense
    product's entry bit for bit, and it is 0 where some n_k + o_k falls
    outside mode k; o = sum o_k s_k, with s_k the product of the dims after
    mode k."""
    vectors = [factors[k][1] if k in factors else np.ones(d) for k, d in enumerate(dims)]
    offset = sum(o * math.prod(dims[k + 1:]) for k, (o, _) in factors.items())
    return offset, reduce(np.multiply.outer, vectors).ravel()


def network_operators(coupling, gammas, dims):
    """(H, c_ops) of the linear lossy network that :func:`linear_propagator`
    solves, over modes truncated at ``dims``, as their nonzero diagonals.

    H = sum_kl A_kl a_k^dag a_l for the angular coupling A, and one collapse
    operator sqrt(gamma_k) a_k for each mode with gamma_k > 0, in mode order.
    Each operator is a list of (offset, vector) pairs in increasing offset,
    as :func:`_diagonals` lists a dense matrix, ready for
    :func:`lindblad_evolve`; no dim x dim array is made.  Each term is one
    diagonal, built from its single-mode factors (:func:`_kron_diagonal`),
    scaled and summed in the order a sum of dense Kronecker products would
    be, so every entry is that sum's to the last bit.  A = 0 gives H = [],
    the zero Hamiltonian; a term on a mode truncated at one level is 0 and
    left out.
    """
    coupling = np.asarray(coupling, dtype=complex)
    n = len(dims)
    if coupling.shape != (n, n) or len(gammas) != n:
        raise ValueError(f"need an {n}x{n} coupling and {n} rates for dims {tuple(dims)}")
    dim = math.prod(dims)
    lowering = [hilbert.destroy(d) for d in dims]
    # each single-mode factor as its one diagonal, or [] where it is 0
    down = [_diagonals(a) for a in lowering]
    up = [_diagonals(a.conj().T) for a in lowering]
    number = [_diagonals(a.conj().T @ a) for a in lowering]
    h, c_ops = {}, []
    # 0 * inf is NaN where a rate is infinite; lindblad_evolve names that operator.
    with np.errstate(invalid="ignore"):
        for k, l in zip(*np.nonzero(coupling)):
            factors = {k: up[k], l: down[l]} if k != l else {k: number[k]}
            if all(factors.values()):
                o, term = _kron_diagonal(dims, {m: f[0] for m, f in factors.items()})
                h[o] = h.get(o, np.zeros(dim, dtype=complex)) + term * coupling[k, l]
        for k, g in enumerate(gammas):
            if g > 0:
                c = [_kron_diagonal(dims, {k: down[k][0]})] if down[k] else []
                c_ops.append([(o, u * math.sqrt(g)) for o, u in c])
    return sorted(h.items()), c_ops


def kerr_hamiltonian(dims, kerr: tuple[float, float]) -> list[tuple[int, np.ndarray]]:
    """Self-Kerr H = sum_i 2pi K_i/2 n_i (n_i - 1) on the two cavities, modes
    0 and 2 of ``dims`` in mode order (cav1, bus, cav2), as its one (main)
    diagonal, [(0, u)] with u real."""
    terms = []
    for axis, k in zip((0, 2), kerr):
        n = np.arange(dims[axis])
        terms.append(_kron_diagonal(dims, {axis: (0, TWO_PI * k / 2 * n * (n - 1))})[1])
    return [(0, terms[0] + terms[1])]


# ---------------------------------------------------------------------------
# classical (Langevin) amplitudes and the damping-regime analysis
# ---------------------------------------------------------------------------


def langevin_solve(g_bs, kappa_cav, kappa_b, z0, times) -> np.ndarray:
    """Exact mean-amplitude trajectories of the three-mode network.

    ``kappa_cav`` may be a scalar or a (cav1, cav2) pair of energy decay
    rates in 1/s; g_bs and kappa_b are cyclic Hz.  Returns z(t) = E(t) z0
    at each of ``times`` (seconds, any order) for z0 in mode order (cav1,
    bus, cav2), shape (3,) or (3, k) (k inputs, each column equal to its own
    call to rounding), as shape (len(times),) + z0.shape: exact at every time
    (including exactly critical damping), and the classical reference for
    the quantum solvers, since <a_k(t)> of a coherent initial state follows
    it identically.
    """
    k1, k2 = (kappa_cav, kappa_cav) if np.isscalar(kappa_cav) else kappa_cav
    z0 = np.asarray(z0, dtype=complex)
    if z0.ndim not in (1, 2) or len(z0) != 3:
        raise ValueError("z0 must hold the three initial amplitudes (cav1, bus, cav2) per column")
    gammas = (k1, TWO_PI * kappa_b, k2)
    return linear_propagator(coupling_matrix(g_bs), gammas, np.atleast_1d(times))[0] @ z0


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
    fast = -k / 4 - disc
    # the roots multiply to 2 g^2; when they are real, -k/4 + disc cancels
    slow = -k / 4 + disc if disc.imag else 2 * g**2 / fast
    return slow, fast


# The relative width of the band of kappa_b called critical: quoted hardware
# linewidths are rounded, so an exact-equality test would be useless.
CRITICAL_RTOL = 1e-3
# The bright-mode amplitude |u| at which a critical or overdamped dump ends.
DUMP_RESIDUAL_TOL = 1e-4


def classify_regime(g_bs: float, kappa_b: float) -> str:
    """"underdamped" | "critical" | "overdamped" for the bright sector, with
    kappa_b within CRITICAL_RTOL of :func:`critical_kappa` called critical."""
    kc = critical_kappa(g_bs)
    if abs(kappa_b - kc) <= CRITICAL_RTOL * kc:
        return "critical"
    return "underdamped" if kappa_b < kc else "overdamped"


def bright_mode_response(g_bs: float, kappa_b: float, times) -> np.ndarray:
    """Normalized bright-cavity amplitude u(t) with u(0)=1, bus empty.

    Closed form of the damped-oscillator initial-value problem.  Underdamped
    and critical: u = e^{-kt/4} [cos(nu t) + (k/4 nu) sin(nu t)],
    nu^2 = 2 g^2 - k^2/16, through the complex branch of nu near critical.
    Overdamped: u = (f e^{s t} - s e^{f t}) / (f - s) with the two real
    amplitude rates (s, f) of :func:`damping_rates`; every exponent is <= 0,
    so u stays finite however large kappa_b is.
    """
    g = TWO_PI * g_bs
    k = TWO_PI * kappa_b
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if classify_regime(g_bs, kappa_b) == "overdamped":
        s, f = (r.real for r in damping_rates(g_bs, kappa_b))
        return (f * np.exp(s * t) - s * np.exp(f * t)) / (f - s)
    nu = np.sqrt(complex(2 * g**2 - (k / 4) ** 2))
    if abs(nu) < 1e-12:  # exactly critical: sin(nu t)/nu -> t
        u = np.exp(-k * t / 4) * (1 + k * t / 4)
    else:
        u = np.exp(-k * t / 4) * (np.cos(nu * t) + (k / (4 * nu)) * np.sin(nu * t))
    return np.real(u)


def auto_dump_time(g_bs: float, kappa_b: float) -> float:
    """Bus-coupling duration that empties the bright mode.

    Underdamped: the first exact zero of u(t), nu t = pi - atan2(4 nu, k);
    at kappa_b = 0 that is pi/(2 sqrt(2) g), with g = 2pi g_bs, the
    half-period of the bright mode's vacuum Rabi swap, when the bright
    excitation sits entirely in the bus.  Critical/overdamped: u never
    crosses zero, so the first time |u| <= DUMP_RESIDUAL_TOL, to rounding.
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
    t_hi = math.log(2.0 / DUMP_RESIDUAL_TOL) / rate
    while abs(float(bright_mode_response(g_bs, kappa_b, t_hi)[0])) > DUMP_RESIDUAL_TOL:
        t_hi *= 2
    # |u| falls monotonically here: cut the bracket into 32 cells, keep the
    # one where it crosses, and repeat until the bracket stops shrinking
    lo, hi = 1e-12, t_hi
    while lo < 0.5 * (lo + hi) < hi:
        t = np.linspace(lo, hi, 33)[1:-1]
        above = np.count_nonzero(np.abs(bright_mode_response(g_bs, kappa_b, t)) > DUMP_RESIDUAL_TOL)
        lo, hi = t[above - 1] if above else lo, t[above] if above < len(t) else hi
    return float(hi)


# ---------------------------------------------------------------------------
# Lindblad master equation, exact Liouvillian propagation
# ---------------------------------------------------------------------------


@dataclass
class EvolveResult:
    """The evolved density matrix, as ``.final`` (perfbench's tracer reads it there)."""

    final: np.ndarray


# theta_m: the largest t ||A||, in any consistent norm, for which m Taylor
# terms of exp(tA) meet a backward error of 2^-53.  m <= 30 from Table A.3 of
# Higham & Al-Mohy, Acta Numerica 19, 159 (2010); m = 35..55 from Table 3.1
# of Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011).
_TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
# Applications of L per solve at most.  The benchmark's dump plans 330 and,
# on its even coherence orders, makes 154; the tests plan at most 6820.
_MAX_APPLICATIONS = 10**6


def _diagonals(a) -> list[tuple[int, np.ndarray]]:
    """(o, u) for each nonzero diagonal of the square matrix ``a``, in
    increasing o, with u[i] = a[i, i + o] and u[i] = 0 where i + o falls
    outside.  The offsets come from a bincount, not np.unique, whose
    masked-array check imports numpy.ma on a process's first call."""
    dim = len(a)
    rows, cols = np.nonzero(a)
    offsets = np.flatnonzero(np.bincount(cols - rows + dim - 1)) - (dim - 1)
    diagonals = []
    for o in offsets.tolist():
        u = np.zeros(dim, dtype=complex)
        u[max(-o, 0):dim - max(o, 0)] = np.diagonal(a, o)
        diagonals.append((o, u))
    return diagonals


def _entries(diagonals) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the nonzero entries that ``diagonals``,
    as :func:`_diagonals` lists them, hold."""
    found = [(x, x + o, u[x]) for o, u in diagonals for x in [np.flatnonzero(u)]]
    empty = np.zeros(0, dtype=int)
    rows, cols, values = zip(*found) if found else ([empty], [empty], [empty])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(values)


def _placed(diagonals, blocks: _Blocks) -> list[tuple[int, np.ndarray]]:
    """The ``diagonals`` of a dim x dim matrix, as :func:`_diagonals` lists
    them, on the count size slots of the layout ``blocks``: entry (x, y) at
    row index[x] and column index[y], in increasing offset."""
    if blocks.count == 1:
        return diagonals
    rows, cols, values = _entries(diagonals)
    rows, offsets = blocks.index[rows], blocks.index[cols] - blocks.index[rows]
    order = np.argsort(offsets, kind="stable")
    rows, offsets, values = rows[order], offsets[order], values[order]
    starts = np.flatnonzero(np.diff(offsets, prepend=offsets[:1] - 1)).tolist()
    placed = []
    for start, stop in zip(starts, starts[1:] + [len(offsets)]):
        u = np.zeros(blocks.count * blocks.size, dtype=complex)
        u[rows[start:stop]] = values[start:stop]
        placed.append((int(offsets[start]), u))
    return placed


def _pack(rho: np.ndarray) -> np.ndarray:
    """The real packing M = Re h + Im h of the Hermitian part h of ``rho``:
    h = (M + M^T)/2 + i (M - M^T)/2, and ||M||_F = ||h||_F, since Re h is
    symmetric, Im h antisymmetric and the two are orthogonal."""
    m = rho.real + rho.imag
    m += (rho.real - rho.imag).T
    m *= 0.5
    return m


def _unpack(m: np.ndarray) -> np.ndarray:
    """The Hermitian matrix (M + M^T)/2 + i (M - M^T)/2 that the real ``m``
    packs, a new array that is exactly Hermitian."""
    rho = np.empty(m.shape, dtype=complex)
    np.add(m, m.T, out=rho.real)
    np.subtract(m, m.T, out=rho.imag)
    rho *= 0.5
    return rho


def _block_norm(diagonals, dim: int) -> float:
    """||a||_2 of the dim x dim matrix a whose nonzero ``diagonals``, as
    :func:`_diagonals` lists them, are given, as the largest 2-norm among
    its connected blocks, the sets of indices that its entries link: a is
    block diagonal once they are listed together, so its singular values
    are theirs.  A 1 x 1 block is |a_ii|; each block of two or more indices
    is assembled from its entries, a matrix the size of the block, for an
    SVD.  Each index is labelled with the least index of its block by
    spreading minima along the entries, with pointer jumping, until nothing
    moves."""
    rows, cols, values = _entries(diagonals)
    label = np.arange(dim)
    while True:
        least = label.copy()
        np.minimum.at(least, rows, label[cols])
        np.minimum.at(least, cols, label[rows])
        least = least[least]
        if np.array_equal(least, label):
            break
        label = least
    sizes = np.bincount(label)
    main = dict(diagonals).get(0, np.zeros(dim))
    norm = float(np.abs(main[sizes[label] == 1]).max(initial=0.0))
    slot = np.empty(dim, dtype=int)  # each index's place in its block
    for root in np.flatnonzero(sizes > 1):
        block = np.flatnonzero(label == root)
        slot[block] = np.arange(len(block))
        mine = label[rows] == root
        a = np.zeros((len(block), len(block)), dtype=complex)
        a[slot[rows[mine]], slot[cols[mine]]] = values[mine]
        norm = max(norm, float(np.linalg.svd(a, compute_uv=False)[0]))
    return norm


@dataclass(frozen=True)
class _Blocks:
    """The layout of a propagated state: each basis state x of the space,
    in its row-major order, sits in block ``index[x] // size`` at slot
    ``index[x] % size``, and the state is the stack of its diagonal blocks
    (rho restricted to the states of one block, on rows and columns), a
    real (count size) x size array once packed (:func:`_pack`).  A slot
    that holds no state stays 0.  :meth:`full` is the whole space as one
    block; :meth:`parity` the two total-parity blocks of a Fock space."""

    count: int
    size: int
    index: np.ndarray

    @classmethod
    def full(cls, dim: int) -> "_Blocks":
        return cls(1, dim, np.arange(dim))

    @classmethod
    def parity(cls, dims) -> "_Blocks":
        """Fock state x = (n_1, ..., n_k) in block P = sum n mod 2 at slot
        (sum r_i n_i - P) / 2, with odd mixed radices r_i: the last is 1,
        each earlier one the smallest odd number above the largest value of
        sum r_j n_j over the modes after it ((27, 7, 1) at dims (6, 4, 6)).
        The sum is odd exactly where the photon number is, and lowering or
        raising mode i moves it by r_i, so it moves every state of one
        block into the other by one number of slots, and a hop between
        modes i and j moves every state by (r_i - r_j) / 2 slots within its
        block."""
        radices, top = [], 0
        for d in reversed(dims):
            radices.insert(0, top + 1 + top % 2)
            top += radices[0] * (d - 1)
        s = reduce(np.add.outer, [r * np.arange(d) for r, d in zip(radices, dims)]).ravel()
        size = int(s.max()) // 2 + 1
        return cls(2, size, s % 2 * size + s // 2)

    def _states(self):
        """Per block, its states and their slots."""
        block, slot = np.divmod(self.index, self.size)
        for b in range(self.count):
            states = np.flatnonzero(block == b)
            yield states, slot[states]

    def gather(self, m: np.ndarray) -> np.ndarray:
        """The stack of the diagonal blocks of the dim x dim ``m``."""
        if self.count == 1:
            return m
        out = np.zeros((self.count * self.size, self.size))
        for states, slots in self._states():
            out[np.ix_(self.index[states], slots)] = m[np.ix_(states, states)]
        return out

    def scatter(self, stack: np.ndarray) -> np.ndarray:
        """The dim x dim matrix whose diagonal blocks ``stack`` holds, 0
        between blocks."""
        if self.count == 1:
            return stack
        out = np.zeros((len(self.index),) * 2)
        for states, slots in self._states():
            out[np.ix_(states, states)] = stack[np.ix_(self.index[states], slots)]
        return out


class _Liouvillian:
    """L - mu for L rho = K rho + rho K^dag + sum_c c rho c^dag,
    K = -iH - (1/2) sum_c c^dag c, applied to the real packing
    M = Re rho + Im rho of a Hermitian rho (:func:`_pack`).  With
    K' = K - mu/2 = K_R + i K_I and c = c_R + i c_I, L - mu takes M to

        K_R M + K_I M^T + M K_R^T - M^T K_I^T
          + sum_c (c_R M c_R^T + c_I M c_I^T + c_I M^T c_R^T - c_R M^T c_I^T),

    the packing of K' rho + rho K'^dag + sum_c c rho c^dag, one operator
    diagonal at a time and in real arithmetic only.

    ``blocks`` (:class:`_Blocks`) lays M out as the stack of its diagonal
    blocks, a real (count size) x size array.  The full space is one block
    of dim slots, M itself.  The even coherence orders q = N_ket - N_bra of
    a Fock space are two blocks, even N with even N and odd N with odd N:
    state x = (n_1, ..., n_k) sits in block P = sum n mod 2 at slot
    (sum r_i n_i - P)/2, with the odd mixed radices r_i of
    :meth:`_Blocks.parity`, (27, 7, 1) and 81 slots a block at dims
    (6, 4, 6), so the stack holds 2 x 81^2 entries, 0.63 of dim^2 = 144^2.
    That layout is exact where K' keeps photon-number parity and each c
    keeps it on every entry or flips it on every one, as
    :func:`lindblad_evolve` checks: then L never feeds odd q into even q.
    The diagonals of K' and of each c are placed on the count size slots
    (:func:`_placed`), where every hop or ladder operator is one constant
    slot offset per block, so the terms below carry over: a diagonal of K'
    stays in its block, and a pair of diagonals of a c that flips parity
    writes one block and reads the other.

    The constructor reads H and the c's as their diagonals and makes no
    dim x dim array.  K' is merged one diagonal at a time, -iH less each
    pair of one c's diagonals' entries of c^dag c / 2, every entry's terms
    in the order of the dense sum, so it is the dense K' to the last bit.
    ``mu`` is Tr L / dim^2, from the exact trace 2 dim Re Tr K +
    sum |Tr c|^2 (the sums of the main diagonals), on the whole space in
    either layout.  ``bound`` is
    2 ||K'||_2 + sum ||c||_1 ||c||_inf >= ||L - mu||_2, or inf where K' is
    not finite: ||K'||_2 is exact, the largest 2-norm among the connected
    blocks of K' (:func:`_block_norm`, each block assembled from K''s
    entries for its SVD; K' of the network keeps the excitation number, so
    at the benchmark's dump it splits into 14 blocks, and into 23 at dims
    (10, 5, 10)), and ||c||_1 ||c||_inf, the largest column sum of |c|
    times its largest row sum, from the row and column sums of c's entries,
    bounds ||c||_2^2, exactly for a ladder operator.  Both layouts compute
    mu and the bound alike, and the bound also holds for L - mu on even q
    alone, so they plan the same Taylor schedule.

    The constructor keeps only vectors of length count size:
    ``k_diagonals``, the nonzero diagonals of K' on the slots, and for
    each pair of diagonals of one c their shift and factors.  :meth:`buffers` then
    builds the weights, each a real array on the row-major vec of the
    stack, n = count size^2 entries long at most, and the working buffers.
    K''s main diagonal k gives two weights, Re k_i + Re k_j on M and
    Im k_i - Im k_j on M^T, for the slots i and j of one block.  The real
    part of an off-main diagonal u of K' at offset o, repeated along each
    row, is one weight at the shift o size, used twice: on M into the
    output (K_R M) and on M^T into a sum that is added transposed, block
    by block ((K_R M^T)^T); its imaginary part the same way on M^T
    (K_I M^T) and, subtracted, on M ((K_I M)^T).  A pair of diagonals
    (o1, u1), (o2, u2) of one c, whose entries read the block b blocks
    after the one they write (b = 0 in the full layout), gives the shift
    (o1 - b) size + o2 and the weight u1 (x) conj(u2) on each block,
    its real part on M and its imaginary part on M^T; weights with the
    same source and shift are one array.  On one block a product u (x) v
    is 0 outside the rectangle from u's first to its last slot that is not
    0 by the same span of v's, and 0 throughout where either vector is, all
    read off the vectors at once: a product that is 0 on every block is no
    part of a weight, a weight with none is no term, and a term's slices
    shrink to the span of its products' rectangles, where its weight is
    built, so no weight is scanned whole and one code path serves every H
    and c.

    :meth:`buffers` also builds each application as a plan, once per
    solve, for each of the two orders in which the Taylor loop alternates
    the two buffers: every view that the application reads and writes, so
    that :meth:`apply` only copies, multiplies and adds on them and
    slices, reshapes and looks up nothing.  An application copies M^T,
    block by block, into a buffer of its own where a term reads it;
    builds the transposed sum in the scratch buffer, with the output as
    scratch, and copies it transposed into the output, or, with no
    transposed term, zeroes the output; and adds the other terms to that.
    Each term multiplies the slice it reads into a slice of the scratch
    buffer and adds that to the slice it writes.  Outside those slices its
    weight is 0, as it is on every entry that crosses an edge of a block.
    The plan holds views only, and an application allocates nothing of
    size n: ten at the benchmark's dump peak at about 100 bytes under
    tracemalloc.  For the three-mode network's real H and ladder
    operators, as at the benchmark's dump, the full layout has 8 terms
    and 4 transposed terms over 8 weights: the main diagonal's, one for
    each of H's four hopping diagonals (in a term and a transposed term)
    and one per collapse operator.  The two parity
    blocks have 11 terms and 4 transposed terms over 11 weights: each
    ladder operator flips parity, so its pair gives one weight per block it
    writes, each covering about one block.  With H = 0 and ladder operators,
    as in the pump and post windows, K' is diagonal: 1 + (number of c's)
    terms and no transposed term.  A dense operator of m nonzero diagonals
    costs up to 2 m^2 n and stores up to 2 m^2 weights.  The working
    memory is the packed state, the weights, the two term buffers, the
    scratch buffer and the copy of M^T, each a separate real array.  At
    the dump that is thirteen arrays of dim^2 entries in the full layout,
    the size of 6.5 complex ones; on the two parity blocks, the state, the
    five weights of K' and the four buffers take n = 0.63 dim^2 entries
    each and the six pair weights about n/2 each, 0.63 of the full
    layout's in all.
    """

    def __init__(self, h, cs, blocks: _Blocks):
        """``h`` and each collapse operator in ``cs`` are the nonzero
        diagonals of a dim x dim matrix, as :func:`_diagonals` lists them,
        finite and well formed (:func:`lindblad_evolve` checks them);
        ``blocks`` is the layout of the state."""
        self.blocks = blocks
        self.dim = dim = len(blocks.index)

        def one_inf(c):  # ||c||_1 ||c||_inf: largest column sum of |c| x largest row sum
            rows, cols, values = _entries(c)
            a = abs(values)
            return np.bincount(cols, a, dim).max() * np.bincount(rows, a, dim).max()

        # K' one diagonal at a time: -iH, less each pair of one c's diagonals'
        # entries of c^dag c / 2, then mu/2 off the main diagonal, each entry's
        # terms taken in the order of the dense sum.  An overflow here shows
        # up as bound = inf, which the caller reports.
        with np.errstate(over="ignore", invalid="ignore"):
            k = {o: -1j * u for o, u in h}
            for diagonals in cs:
                for o1, u1 in diagonals:
                    for o2, u2 in diagonals:
                        lo, hi = max(0, -o1, -o2), dim - max(0, o1, o2)
                        if lo < hi:
                            u = k.setdefault(o2 - o1, np.zeros(dim, dtype=complex))
                            u[lo + o1:hi + o1] -= 0.5 * (u1[lo:hi].conj() * u2[lo:hi])
            main = k.setdefault(0, np.zeros(dim, dtype=complex))
            traces = (abs(dict(c).get(0, np.zeros(1)).sum()) ** 2 for c in cs)
            self.mu = (2 * dim * main.sum().real + sum(traces)) / dim**2
            main -= self.mu / 2
            k_diagonals = [(o, k[o]) for o in sorted(k) if k[o].any()]
            self.bound = math.inf
            if all(np.isfinite(u).all() for _, u in k_diagonals):
                self.bound = float(sum(map(one_inf, cs), 2 * _block_norm(k_diagonals, dim)))
        self.k_diagonals = _placed(k_diagonals, blocks)
        size, self.c_pairs = blocks.size, []
        for diagonals in (_placed(d, blocks) for d in cs):
            for o1, u1 in diagonals:
                first = np.flatnonzero(u1)[0]
                b = (first + o1) // size - first // size  # source block less output block
                for o2, u2 in diagonals:
                    self.c_pairs.append(((o1 - b) * size + o2, u1, u2.conj()))

    def buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """Build the flat weights, the scratch buffer, the buffer for the
        copy of M^T and the plan of an application in each direction;
        return the two real (count size) x size buffers that :meth:`apply`
        alternates between."""
        count, size = self.blocks.count, self.blocks.size
        rows = count * size
        n = rows * size
        off_main = dict(self.k_diagonals)
        kd = off_main.pop(0, np.zeros(rows, dtype=complex))
        re, im, ones = kd.real, kd.imag, np.ones(rows)
        # Each flat weight, by (source, shift), is a sum of blockwise outer
        # products u (x) v of real vectors: the main diagonal's, and for a
        # pair of one c's diagonals Re(u1 (x) conj(u2)) on M and Im on M^T.
        products = [((0, 0), re, ones), ((0, 0), ones, re), ((1, 0), im, ones), ((1, 0), ones, -im)]
        for shift, u1, u2 in self.c_pairs:
            products += [
                ((0, shift), u1.real, u2.real), ((0, shift), -u1.imag, u2.imag),
                ((1, shift), u1.real, u2.imag), ((1, shift), u1.imag, u2.real),
            ]
        # On each block, u (x) v is 0 outside the rectangle of rows from u's
        # first to its last slot that is not 0 by columns from v's, and 0
        # throughout where either vector is: read off all the vectors at once.
        keys, us, vs = zip(*products)
        nonzero = np.reshape(us + vs, (2, len(products), count, size)) != 0
        (row0, col0), (row1, col1) = (
            nonzero.argmax(axis=3), size - nonzero[..., ::-1].argmax(axis=3)
        )
        rects = {}
        for p, b in zip(*np.nonzero(nonzero.any(axis=3).all(axis=0))):
            row = b * size
            rects.setdefault(keys[p], []).append((
                us[p], vs[p][row:], row + row0[p, b], row + row1[p, b], col0[p, b], col1[p, b]
            ))

        def span(shift):  # the slices a term at this shift writes and reads
            write = slice(max(-shift, 0), n - max(shift, 0))
            return write, slice(write.start + shift, write.stop + shift)

        # A weight is the sum of its products over the span of their
        # rectangles, built on the rows that span covers; it is 0 outside,
        # and wherever the read would cross an edge.
        self.terms, self.transposed_terms = [], []
        for (source, shift), parts in rects.items():
            start = int(min(r0 * size + c0 for _, _, r0, _, c0, _ in parts))
            stop = int(max((r1 - 1) * size + c1 for _, _, _, r1, _, c1 in parts))
            top = start // size
            w = np.zeros(((stop - 1) // size + 1 - top, size))
            for u, v, r0, r1, c0, c1 in parts:
                w[r0 - top:r1 - top, c0:c1] += u[r0:r1, None] * v[c0:c1]
            write, read = slice(start, stop), slice(start + shift, stop + shift)
            w = w.reshape(-1)[start - top * size:stop - top * size]
            self.terms.append((write, read, source, w))
        # Re u: on M into the output and on M^T into the transposed sum;
        # Im u: on M^T into the output and, subtracted, on M into that sum.
        for o, u in off_main.items():
            for source, part in enumerate((u.real, u.imag)):
                if part.any():
                    write, read = span(o * size)
                    w = np.repeat(part[max(-o, 0):rows - max(o, 0)], size)
                    self.terms.append((write, read, source, w))
                    op = (np.add, np.subtract)[source]
                    self.transposed_terms.append((write, read, 1 - source, w, op))
        a, b, self.scratch, self.transpose = (np.empty((rows, size)) for _ in range(4))
        self._plans = {(id(a), id(b)): self._plan(a, b), (id(b), id(a)): self._plan(b, a)}
        return a, b

    def _plan(self, src, dst) -> tuple:
        """The application that reads ``src`` and writes ``dst``, as views
        of the buffers: the copy of M^T (None where no term reads it), the
        array to zero, the transposed terms and the terms as (weight, read,
        write, scratch[, op]), and the copy of the transposed sum into
        ``dst`` (None where there is no transposed term, and ``dst`` is
        zeroed in its place)."""
        def stack(a):  # a view of a buffer as its stack of size x size blocks
            return a.reshape(self.blocks.count, self.blocks.size, self.blocks.size)

        sources = (src.reshape(-1), self.transpose.reshape(-1))
        out, tmp = dst.reshape(-1), self.scratch.reshape(-1)
        reads_transpose = any(term[2] for term in self.terms + self.transposed_terms)
        transpose = (stack(self.transpose), stack(src).transpose(0, 2, 1)) if reads_transpose else None
        transposed = [  # the transposed sum in tmp, with dst as scratch
            (w, sources[source][read], out[write], tmp[write], op)
            for write, read, source, w, op in self.transposed_terms
        ]
        back = (stack(dst), stack(self.scratch).transpose(0, 2, 1)) if transposed else None
        terms = [(w, sources[source][read], out[write], tmp[write]) for write, read, source, w in self.terms]
        return transpose, tmp if transposed else out, transposed, back, terms

    def apply(self, src, dst) -> np.ndarray:
        """Write the action on the packed Hermitian blocks ``src`` into
        ``dst`` and return it: one of the two buffers that :meth:`buffers`
        returned into the other (``ValueError`` for any other pair)."""
        plan = self._plans.get((id(src), id(dst)))
        if plan is None:
            raise ValueError("apply reads one buffer that buffers() returned and writes the other")
        transpose, zero, transposed, back, terms = plan
        multiply, add = np.multiply, np.add
        if transpose:
            np.copyto(*transpose)
        zero.fill(0.0)
        for w, read, write, scratch, op in transposed:
            multiply(w, read, out=write)
            op(scratch, write, out=scratch)
        if back:
            np.copyto(*back)
        for w, read, write, scratch in terms:
            multiply(w, read, out=scratch)
            add(write, scratch, out=write)
        return dst


def _propagate(packed: np.ndarray, liou: _Liouvillian, t: float) -> None:
    """packed <- exp(t L) on the packed state in place, for t > 0 and the
    checked inputs of :func:`lindblad_evolve`, whose docstring describes
    the method."""
    if not math.isfinite(t * liou.bound):
        raise NumericalError(f"dynamics: the Taylor step bound t ||L - mu||_2 is {t * liou.bound}")
    steps = {m: max(math.ceil(t * liou.bound / theta), 1) for m, theta in _TAYLOR_THETA.items()}
    m = min(steps, key=lambda m: m * steps[m])
    s = steps[m]
    if m * s > _MAX_APPLICATIONS:
        raise NumericalError(
            f"dynamics: the master equation needs {m} x {s:.3g} applications of L, "
            f"more than {_MAX_APPLICATIONS:.0e}"
        )

    src, dst = liou.buffers()
    apply, vdot, sqrt = liou.apply, np.vdot, math.sqrt
    factors = [t / (s * j) for j in range(1, m + 1)]
    tol = 2.0**-53
    loose = tol * (1 + 1e-6)  # the bound's room for rounding
    eta = math.exp(t * liou.mu / s)
    for _ in range(s):
        src[...] = packed
        c1 = upper = sqrt(vdot(packed, packed))
        for factor in factors:
            term = apply(src, dst)
            term *= factor
            c2 = sqrt(vdot(term, term))
            packed += term
            upper += c2  # >= ||packed|| by the triangle inequality: the exact
            # norm is needed only where upper, with room for rounding, passes
            c = c1 + c2
            if c <= loose * upper and c <= tol * sqrt(vdot(packed, packed)):
                break
            c1 = c2
            src, dst = dst, src
        packed *= eta


def _parity_blocks(dims, dim: int, h, cs) -> _Blocks:
    """The two total-parity blocks of the Fock space of mode truncations
    ``dims``, once H is checked to keep photon-number parity and each
    collapse operator to keep it on every entry or flip it on every one:
    the parity of N at each entry's row against that at its column, for the
    diagonals, as :func:`_diagonals` lists them, of dim x dim operators."""
    if not all(isinstance(d, (int, np.integer)) and d >= 1 for d in dims) or math.prod(dims) != dim:
        raise ValueError(
            f"dims must be mode truncations whose product is H's dimension {dim}, got {dims!r}"
        )
    blocks = _Blocks.parity(dims)
    parity = blocks.index // blocks.size
    named = [("the Hamiltonian H", h)] + [(f"collapse operator {k}", c) for k, c in enumerate(cs)]
    for name, a in named:
        rows, cols, _ = _entries(a)
        keeps = parity[rows] == parity[cols]
        if not keeps.all() and (a is h or keeps.any()):
            raise ValueError(
                f"{name} mixes photon-number parities, so the even coherence orders "
                "do not evolve on their own; solve without dims"
            )
    return blocks


def _operator(a, dim: int, name: str) -> list[tuple[int, np.ndarray]]:
    """The diagonals of the operator ``name``, in increasing offset, from
    ``a``: a dense dim x dim matrix, converted by :func:`_diagonals`, or
    already its diagonals, a list of (offset, vector) tuples in any order.
    ``ValueError`` names a malformed ``a``: a matrix of another shape, a
    vector not dim long, an offset outside the matrix or listed twice, or a
    nonzero entry of a vector that falls outside it; ``NumericalError`` one
    that is not finite.  Diagonals are taken as they are, not copied."""
    if isinstance(a, list) and all(isinstance(d, tuple) for d in a):
        diagonals = [(o, np.asarray(u, dtype=complex)) for o, u in a]
        for o, u in diagonals:
            if u.shape != (dim,):
                raise ValueError(f"{name} has a diagonal of shape {u.shape}, not ({dim},)")
            if not (isinstance(o, (int, np.integer)) and -dim < o < dim):
                raise ValueError(
                    f"{name} has a diagonal at offset {o!r}, outside a {dim}x{dim} matrix"
                )
        offsets = sorted(o for o, _ in diagonals)
        if len(set(offsets)) < len(offsets):
            raise ValueError(f"{name} lists a diagonal offset twice: {offsets}")
        diagonals.sort(key=lambda d: d[0])
    else:
        a = np.asarray(a, dtype=complex)
        if a.shape != (dim, dim):
            raise ValueError(f"{name} has shape {a.shape}, but the state's dimension is {dim}")
        diagonals = _diagonals(a)
    if not all(np.isfinite(u).all() for _, u in diagonals):
        raise NumericalError(f"dynamics: {name} is not finite")
    for o, u in diagonals:
        if u[:max(-o, 0)].any() or u[dim - max(o, 0):].any():
            raise ValueError(f"{name} has a nonzero entry outside the matrix on its diagonal {o}")
    return diagonals


def lindblad_evolve(h, c_ops, state0, t, *, dims=None) -> EvolveResult:
    """Propagate drho/dt = -i[H, rho] + sum_k D[c_k] rho exactly for a duration t.

    Parameters
    ----------
    h, c_ops:
        Hamiltonian and collapse operators on the state's space of
        dimension dim, in angular units (rad/s) -- the builders in this
        module already are.  Each is a dense dim x dim matrix or its nonzero
        diagonals, a list of (offset, vector) tuples in any order, each
        vector dim long with u[i] = a[i, i + offset] and 0 where i + offset
        falls outside, as :func:`_diagonals` lists them and
        :func:`network_operators` and :func:`kerr_hamiltonian` build them
        ([] is the zero operator).  A dense operator is converted once, by
        :func:`_diagonals`; past that the solve reads diagonals only, and
        both forms of one operator give the same result bit for bit.
        ``ValueError`` names a malformed operator (a matrix of another
        shape, a vector not dim long, an offset outside the matrix or
        listed twice, a nonzero entry outside the matrix), before any work.
    state0:
        Ket (1-d) or density matrix (2-d) array of size dim; a density
        matrix must be Hermitian to rounding (its anti-Hermitian part at
        most 1e-12 of its largest entry) and is never modified.
    t:
        Duration in seconds, finite and non-negative; ``.final`` is
        the density matrix exp(t L) rho0, a new array.  At t = 0 it is the
        input's density matrix unchanged; at t > 0 it is exactly Hermitian.
    dims:
        The mode truncations of a Fock space of dimension dim, or None.
        Given them, the solve propagates only the even coherence orders
        q = N_ket - N_bra (N the total photon number): rho's two
        total-parity blocks, even N with even N and odd N with odd N.
        ``.final`` is then the even-q part of exp(t L) rho0, its odd-q
        entries exactly 0 (at t = 0 too), which is all of the answer that a
        population, a trace or an overlap with a state of one parity
        reads.  That needs L to keep even q apart from odd q: H must
        conserve photon-number parity, and each collapse operator must keep
        it on every entry (dephasing) or flip it on every entry (a ladder
        operator); ``ValueError`` names an H or a c that does not, and
        dims whose product is not dim.  Without dims the solve is the one
        on the whole space.

    The Liouvillian L rho = K rho + rho K^dag + sum c rho c^dag, with
    K = -iH - (1/2) sum c^dag c, is applied matrix-free: the dim^2 x dim^2
    superoperator is never assembled.  exp(t L) acts through the truncated
    Taylor series of Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011),
    Algorithm 3.2: shift by mu = Tr L / dim^2 (the exact trace,
    2 dim Re Tr K + sum |Tr c|^2), take s steps of m terms each, and stop a
    step early once two successive terms fall below double precision of
    the running sum, all three in the Frobenius norm.  The shifted
    Liouvillian is L - mu = K' (x) 1 + 1 (x) conj(K') + sum c (x) conj(c)
    with K' = K - mu/2, so its 2-norm is at most
    2 ||K'||_2 + sum ||c||_1 ||c||_inf, with ||K'||_2 exact (the largest
    2-norm among the connected blocks of K', each assembled from its
    entries); (m, s) minimize m s subject to t * bound / s <= theta_m,
    m <= 55.  The theta_m backward-error analysis holds in any consistent
    norm.  The bound is rigorous, so no norm is estimated and nothing
    random is drawn: the result is a pure function of the inputs.  No
    renormalization is applied -- trace drift is a real error signal, not
    something to hide.

    The series runs on one real dim x dim array, the packing
    M = Re rho + Im rho of the state's Hermitian part, from which
    rho = (M + M^T)/2 + i (M - M^T)/2, or with dims on the stack of M's
    two parity blocks.  Re rho is symmetric and Im rho antisymmetric, so
    ||M||_F = ||rho||_F and every Frobenius norm the method reads is the
    same on M; the action, the scale and the sum are real.  The even-q
    solve keeps the whole space's mu and bound, which bound L - mu on even
    q too, so it plans the same (m, s); its norms are those of the even-q
    part, so it may stop a step's series one term apart from the full
    solve.  The state is the only dim x dim array: the checks (shape,
    finiteness, parity) read the operators' vectors and entries, and
    :class:`_Liouvillian` merges K' from them one diagonal at a time.
    This function packs its copy of the state and lets go of that copy,
    of state0 and of the caller's dense operators, once converted, before
    the weights and buffers are built, so what its caller passed as
    temporaries is freed by then.  Each application of L - mu goes one
    diagonal at a time, one real weight per term; the layouts, the terms,
    their cost and the working memory are listed in :class:`_Liouvillian`.
    At dims (6, 4, 6) an even-q application costs about 0.65 of a full one
    (136-147 against 214-228 us on one BLAS thread).  The stopping test
    computes the running sum's norm only where its triangle-inequality
    bound, the start's norm plus the terms', would pass, so it decides as
    the exact norm does.  The result is unpacked once, a new array that
    is exactly Hermitian.  A ket's density matrix is built once and
    packed; a density matrix the caller holds is copied once.

    ``NumericalError`` names an H or c that is not finite, and a solve whose
    bound is not finite or that plans more than 10^6 applications of L;
    both are refused before any term buffer is allocated.
    """
    if not (isinstance(t, (int, float, np.integer, np.floating)) and 0 <= t < math.inf):
        raise ValueError(f"lindblad_evolve needs a finite duration t >= 0, got {t!r}")
    shape = np.shape(state0)
    if len(shape) not in (1, 2) or shape[-1] != shape[0]:
        raise ValueError(
            f"lindblad_evolve needs a ket or a square density matrix, got shape {shape}"
        )
    dim = shape[0]
    h = _operator(h, dim, "the Hamiltonian H")
    cs = [_operator(c, dim, f"collapse operator {k}") for k, c in enumerate(c_ops or [])]
    c_ops = None  # so that dense operators the caller passed as temporaries are freed
    blocks = _Blocks.full(dim) if dims is None else _parity_blocks(dims, dim, h, cs)
    rho = np.array(state0, dtype=complex)  # a copy, so the result never shares memory
    if rho.ndim == 1:
        rho = np.outer(rho, rho.conj())
    else:
        skew = np.abs(rho - rho.conj().T).max()
        if skew > 1e-12 * np.abs(rho).max():
            raise ValueError(
                "lindblad_evolve needs a Hermitian density matrix, "
                f"got max |rho - rho^dag| = {skew:.3g}"
            )
    if t > 0:  # exp(0 L) is the identity: at t = 0 the input comes back as it is
        # From here the solve holds the state only as its packing: once this
        # call lets go of state0, one the caller passed as a temporary is freed.
        packed = blocks.gather(_pack(rho))
        rho = state0 = None
        liou = _Liouvillian(h, cs, blocks)
        _propagate(packed, liou, t)
        liou = None  # its weights and buffers go before the result is made
        rho = _unpack(blocks.scatter(packed))
    elif dims is not None:  # the input's even-q part
        parity = blocks.index // blocks.size
        rho *= parity[:, None] == parity
    if not np.isfinite(rho).all():
        raise NumericalError("dynamics: master-equation propagation diverged")
    return EvolveResult(final=rho)


# ---------------------------------------------------------------------------
# single-photon transfer through the bus
# ---------------------------------------------------------------------------


@dataclass
class TransferResult:
    t1: float
    t2: float
    eta: float


def _transfer_eta(g, kappa, t1, t2):
    """<n_cav2> after sequential swap cav1->bus (t1) then bus->cav2 (t2).

    One photon in a passive lossy network: its amplitudes follow the labels
    of the linear propagator and a lost photon leaves vacuum behind, so
    eta = |(E2 E1)[cav2, cav1]|^2 is exact.  Arrays of times (of one shape)
    give an array of efficiencies.
    """
    stage1 = np.array([[0, g, 0], [g, 0, 0], [0, 0, 0]], dtype=complex)
    stage2 = np.array([[0, 0, 0], [0, 0, g], [0, g, 0]], dtype=complex)
    gammas = (0.0, kappa, 0.0)
    e1, _ = linear_propagator(stage1, gammas, t1)
    e2, _ = linear_propagator(stage2, gammas, t2)
    eta = np.abs((e2 @ e1)[..., 2, 0]) ** 2
    return eta if eta.ndim else float(eta)


def transfer_efficiency(
    g_bs: float,
    kappa_b: float,
    t1: float | None = None,
    t2: float | None = None,
) -> TransferResult:
    """Photon transfer cav1 -> bus -> cav2 by sequential timed swaps.

    With both ``t1`` and ``t2`` given, just evaluates the efficiency (an
    array of them for arrays of times, in one propagator call per stage);
    with neither, returns the optimum, which is closed form: stage 1 never
    touches cav2 and stage 2 never touches cav1, so eta(t1, t2) =
    f(t1) f(t2) with f(t) = |E(t)[bus, cav1]|^2, and each factor peaks at
    the single-stage optimum t* = atan(4 nu / kappa)/nu, nu^2 = g^2 - kappa^2/16 (t* = 4/kappa
    at critical damping, pi/(2 g) at kappa_b = 0; g and kappa angular).
    Through a lossy bus each stage transfers at most
    (g/nu) e^{-kappa t*/4} sin(nu t*), so eta through two stages is that
    fourth power -- a few percent for kappa ~ 4g -- while kappa_b = 0 gives
    eta = 1 at t1 = t2 = pi/(2 g).
    """
    g = TWO_PI * g_bs
    k = TWO_PI * kappa_b

    if (t1 is None) != (t2 is None):
        raise ValueError("transfer_efficiency needs both t1 and t2, or neither for the optimum")
    if t1 is not None:
        return TransferResult(t1, t2, _transfer_eta(g, k, t1, t2))

    nu = np.sqrt(complex(g**2 - (k / 4) ** 2))
    if abs(nu) < 1e-9 * g:
        t_opt = 4.0 / k if k > 0 else math.pi / (2 * g)
    else:
        t_opt = float(np.real(np.arctan(4 * nu / k) / nu)) if k > 0 else math.pi / (2 * g)
    return TransferResult(t_opt, t_opt, _transfer_eta(g, k, t_opt, t_opt))


# ---------------------------------------------------------------------------
# exact propagation of coherent-state superpositions
# ---------------------------------------------------------------------------


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
    With A = 0 the modes only decay and E = diag(e^{-gamma t/2}) exactly;
    otherwise E comes from :func:`_expm`.
    """
    a = np.asarray(coupling, dtype=complex)
    gam = np.asarray(gammas, dtype=float)
    m = (-1j * a - np.diag(gam) / 2) * np.asarray(t, dtype=float)[..., None, None]
    if a.any():
        e = _expm(m)
    else:
        e = np.zeros_like(m)
        i = np.arange(len(gam))
        e[..., i, i] = np.exp(m[..., i, i])
    q = np.eye(len(gam)) - np.swapaxes(e.conj(), -1, -2) @ e
    return e, q


# Pade-13 coefficients b_j / b_0, and the largest 1-norm for which the
# unscaled approximant meets double precision (Higham, SIAM J. Matrix Anal.
# Appl. 26, 1179 (2005), Table 2.3).  Rows of _PADE13_SUMS weigh
# (I, A^2, A^4, A^6) into the four sums of U = A (A^6 W0 + W1) and
# V = A^6 W2 + W3.
_PADE13 = np.array([
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
    129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
    40840800, 960960, 16380, 182, 1,
]) / 64764752532480000
_PADE13_SUMS = np.array([
    [0, _PADE13[9], _PADE13[11], _PADE13[13]],
    [_PADE13[1], _PADE13[3], _PADE13[5], _PADE13[7]],
    [0, _PADE13[8], _PADE13[10], _PADE13[12]],
    [_PADE13[0], _PADE13[2], _PADE13[4], _PADE13[6]],
])
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of each matrix in a stack (..., n, n) by Pade-13 scaling and
    squaring (Higham 2005, Algorithm 2.3 at its top degree): each matrix is
    scaled by 2^-s into 1-norm theta_13, its [13/13] Pade approximant
    solved for, and the result squared s times."""
    shape, n = a.shape, a.shape[-1]
    a = a.reshape(-1, n, n)
    mantissa, exponent = np.frexp(np.abs(a).sum(axis=1).max(axis=1) / _THETA13)
    s = np.maximum(exponent - (mantissa == 0.5), 0)  # ceil(log2(.)), at least 0
    a = a * np.ldexp(1.0, -s)[:, None, None]
    powers = np.empty((len(a), 4, n, n), dtype=a.dtype)  # I, A^2, A^4, A^6
    powers[:, 0] = np.eye(n)
    np.matmul(a, a, out=powers[:, 1])
    np.matmul(powers[:, 1], powers[:, 1], out=powers[:, 2])
    np.matmul(powers[:, 2], powers[:, 1], out=powers[:, 3])
    w = (_PADE13_SUMS @ powers.reshape(len(a), 4, n * n)).reshape(len(a), 4, n, n)
    u = a @ (powers[:, 3] @ w[:, 0] + w[:, 1])
    v = powers[:, 3] @ w[:, 2] + w[:, 3]
    r = np.linalg.solve(v - u, v + u)
    s_min, s_max = s.min(initial=0), s.max(initial=0)
    for k in range(s_max):
        squared = r @ r
        r = squared if k < s_min else np.where((s > k)[:, None, None], squared, r)
    return r.reshape(shape)


def dyad_log_weights(labels: np.ndarray, q: np.ndarray) -> np.ndarray:
    """ln w_ij = z_j^dag Q z_i - (1/2) z_i^dag Q z_i - (1/2) z_j^dag Q z_j for
    rows z_i of ``labels``: the log-weight one (E, Q) stage of
    :func:`linear_propagator` gives the dyad |z_i><z_j|.  It is a Hermitian
    form in the labels, so it scales as |alpha|^2 when they scale as alpha;
    Q = I gives the log-overlaps ln <z_j|z_i>."""
    z = labels
    y = z @ q.T                      # y[i] = Q z_i
    cross = y @ z.conj().T           # cross[i, j] = z_j^dag Q z_i
    diag = np.real(np.diag(cross))
    return cross - 0.5 * (diag[:, None] + diag[None, :])
