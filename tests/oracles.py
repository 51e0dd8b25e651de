"""Reference implementations the tests compare library results against.

None of these runs in a darkbus command or demo.  Each is a slow or
independent route to a quantity the library computes another way, or a
building block only the tests need: Fock kets, the
raising, number, parity and displacement operators, the displaced-parity
kernel at one point, cat kets and the copying coherent ket of one mode,
multi-mode operators and product kets assembled by Kronecker products
(modes named by axis, or by cav1, bus, cav2), the network's Hamiltonian,
collapse operators and self-Kerr term as dense Kronecker sums, the
reference for the library's diagonals, dense density matrices of
coherent superpositions, the protocol's initial cat product, free-Kerr
evolution, the codewords, Bell ket and basis-fit objective in their
longer forms, the logical Paulis as
cavity matrices, teleportation with the record elements built and
contracted with the pair anew for each input, dual-rail distillation by Kronecker-built parity
projectors, the vacuum check
applied to a materialized density matrix through explicit projectors,
expectation values, master-equation expectation values at given times,
the Liouvillian's action by matrix products and, term by term, on
the packed state, the master equation
propagated by scipy on the assembled sparse Liouvillian, and the
heralding attempt propagated by the master equation through all three
windows, and the coherent engine's herald propagated window by window at
one cat amplitude on the linear core (``linear_propagator`` and
``dyad_log_weights``), each window's dyad weights multiplied in.  scipy
is also the reference for each numerical routine the library implements
itself: the matrix exponential, the displaced-parity
kernels from its Laguerre polynomials and log-gamma (and the full kernel
matrices assembled from the library's Laguerre runs), the root and
bounded-minimum searches, and Nelder-Mead.  PyYAML's pure-Python safe
loader, with the CLI's YAML 1.2 float resolver, is the reference for the
CLI's libyaml-based config loader, and a writer that formats every cell
on its own, row by row, is the reference for the CLI's CSV text.  The
Wigner design matrix built whole, one row per point (the kernel triangle
first, then its parts concatenated), is the reference for the library's
run-by-run build of one row per symmetry orbit,
``traced_peak`` measures the memory a call peaks at, and a
maximum-likelihood loop that clips each parity map's probabilities anew
wherever it reads them, through 2-D indexing of rho's triangles, is the
reference for the library's loop, bit for bit.
"""

from __future__ import annotations

import math
import tracemalloc
from functools import reduce

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg
import scipy.special
import yaml

from darkbus import cli, dynamics, hilbert, protocol, tomography
from darkbus.codes import Codewords, LogicalBasis
from darkbus.dynamics import SystemParams
from darkbus.hilbert import as_dm
from darkbus.protocol import OUTCOMES, SECTORS, VacuumCheckModel

# the protocol's modes by name, as tensor axes
MODE_AXES = {"cav1": 0, "bus": 1, "cav2": 2}


class PyConfigLoader(yaml.SafeLoader):
    """The CLI's config loader on PyYAML's pure-Python parser."""


PyConfigLoader.add_implicit_resolver(*cli._YAML12_FLOAT)


def csv_text(table: dict) -> str:
    """The text ``RunContext.write_csv`` writes for ``table``, one row at a
    time: the header of its keys, then each row's cells joined by commas, a
    cell ``str`` of the value ``tolist()`` gives."""
    cells = [map(str, np.asarray(c).tolist()) for c in table.values()]
    lines = [",".join(table) + "\n"]
    for row in zip(*cells, strict=True):
        lines.append(",".join(row) + "\n")
    return "".join(lines)


def fock(dim: int, n: int) -> np.ndarray:
    """The Fock ket |n> at truncation ``dim``."""
    if not 0 <= n < dim:
        raise ValueError(f"Fock level {n} outside truncation {dim}")
    ket = np.zeros(dim, dtype=complex)
    ket[n] = 1.0
    return ket


def create(dim: int) -> np.ndarray:
    return hilbert.destroy(dim).conj().T


def number(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def parity(dim: int) -> np.ndarray:
    """Photon-number parity (-1)^n."""
    return np.diag((-1.0) ** np.arange(dim)).astype(complex)


def displacement(dim: int, beta: complex) -> np.ndarray:
    """D(beta) = expm(beta a† - beta* a) in the truncated space.

    Exact only well below the truncation edge.  For matrix elements that
    stay exact at any |beta| use the closed form behind
    :func:`displaced_parity`, which gives D(2 beta) P entry by entry.
    """
    a = hilbert.destroy(dim)
    return scipy.linalg.expm(beta * a.conj().T - np.conj(beta) * a)


def expm(a: np.ndarray) -> np.ndarray:
    """scipy's matrix exponential of each matrix in a stack."""
    return scipy.linalg.expm(a)


def traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the peak bytes tracemalloc saw while it
    ran, tracing stopped however the call ends."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def kernel_triangle(dim: int, betas: np.ndarray) -> np.ndarray:
    """The library's Laguerre runs side by side: the kernels on and below
    the diagonal, shape (len(betas), dim (dim + 1) / 2), column j holding
    M[m, n] for the j-th pair (n, m) of ``np.triu_indices(dim)``."""
    return np.concatenate(list(tomography._kernel_runs(dim, betas)), axis=1)


def kernel_triangle_scipy(dim: int, betas: np.ndarray) -> np.ndarray:
    """:func:`kernel_triangle` from scipy's generalized Laguerre
    polynomials and log-gamma: sqrt(n!/m!) z^(m-n) e^(-|z|^2/2)
    L_n^(m-n)(|z|^2) (-1)^n, z = 2 beta, for the pairs (n, m) of
    ``np.triu_indices(dim)``."""
    z = 2 * np.asarray(betas, dtype=complex).reshape(-1, 1)
    n, m = np.triu_indices(dim)
    x = np.abs(z) ** 2
    return (
        np.exp(0.5 * (scipy.special.gammaln(n + 1) - scipy.special.gammaln(m + 1)) - x / 2)
        * z ** (m - n)
        * scipy.special.eval_genlaguerre(n, m - n, x)
        * (-1.0) ** n
    )


def kernel_stack(dim: int, betas: np.ndarray) -> np.ndarray:
    """The full hermitian kernels M(beta), shape (len(betas), dim, dim),
    from the library's triangle and its conjugate."""
    tri = kernel_triangle(dim, betas)
    n, m = np.triu_indices(dim)
    out = np.empty((len(tri), dim, dim), dtype=complex)
    out[:, n, m] = tri.conj()
    out[:, m, n] = tri
    return out


def forward_matrix_concatenated(dim: int, betas: np.ndarray) -> np.ndarray:
    """``tomography.WignerMap``'s design rows built whole, one per point
    with no symmetry used: the kernel triangle at every point by the
    Laguerre recurrence over every n at once, then its diagonal, 2 Re and
    -2 Im of its pairs n < m concatenated."""
    z = 2 * np.asarray(betas, dtype=complex).reshape(-1, 1)
    x = np.abs(z) ** 2
    k = np.arange(dim)
    lag = [np.ones((len(z), dim)), 1 + k[:-1] - x]  # L_n^(k)(x) for k < dim - n
    for j in range(1, dim - 1):
        kj = k[:dim - j - 1]
        step = (2 * j + 1 + kj - x) * lag[j][:, :-1] - (j + kj) * lag[j - 1][:, :-2]
        lag.append(step / (j + 1))
    n, m = np.triu_indices(dim)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, dim)))))
    real = np.exp(0.5 * (log_fact[n] - log_fact[m]) - x / 2)
    real *= np.concatenate(lag, axis=1)
    real *= (-1.0) ** n
    tri = (z ** k)[:, m - n]
    tri *= real
    upper = tri[:, n < m]
    return np.concatenate([tri[:, n == m].real, 2 * upper.real, -2 * upper.imag], axis=1)


def auto_dump_time_brentq(g_bs: float, kappa_b: float) -> float:
    """First time the critical or overdamped bright mode has
    |u| = ``dynamics.DUMP_RESIDUAL_TOL``, by scipy's brentq on the bracket
    ``dynamics.auto_dump_time`` starts from, to its xtol of 1e-16 s."""
    residual_tol = dynamics.DUMP_RESIDUAL_TOL
    slow, _ = dynamics.damping_rates(g_bs, kappa_b)
    t_hi = math.log(2.0 / residual_tol) / abs(slow.real)

    def f(t):
        return abs(float(dynamics.bright_mode_response(g_bs, kappa_b, t)[0])) - residual_tol

    while f(t_hi) > 0:
        t_hi *= 2
    return float(scipy.optimize.brentq(f, 1e-12, t_hi, xtol=1e-16))


def optimal_alpha_bounded(params: SystemParams | None = None, **budget) -> float:
    """The cat amplitude minimizing the three-term budget total, by scipy's
    bounded Brent search on (0.3, 3) with xatol 1e-10."""
    from darkbus import errorbudget

    def total(a):
        return errorbudget.predicted_infidelity(a, params=params, **budget).total

    res = scipy.optimize.minimize_scalar(
        total, bounds=(0.3, 3.0), method="bounded", options={"xatol": 1e-10}
    )
    return float(res.x)


def displaced_parity(dim: int, beta: complex) -> np.ndarray:
    """The hermitian kernel M(beta) = D(2 beta) P truncated to dim."""
    return kernel_stack(dim, np.array([beta]))[0]


def coherent_copying(dim: int, alpha: complex, normalized: bool = True) -> np.ndarray:
    """hilbert.coherent as it was before it stopped copying: out of place
    normalization and a final ``astype(complex)`` copy of an array that is
    already complex."""
    if alpha == 0:
        return fock(dim, 0)
    n = np.arange(dim)
    logmag = -abs(alpha) ** 2 / 2 + n * np.log(abs(alpha))
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, dim)))))
    amp = np.exp(logmag - log_fact / 2) * np.exp(1j * n * np.angle(alpha))
    if normalized:
        amp = amp / np.linalg.norm(amp)
    return amp.astype(complex)


def cat(dim: int, alpha: complex, phase: float = 0.0) -> np.ndarray:
    """Normalized superposition |alpha> + e^{i phase} |-alpha>."""
    ket = hilbert.coherent(dim, alpha, normalized=False) + np.exp(1j * phase) * (
        hilbert.coherent(dim, -alpha, normalized=False)
    )
    nrm = np.linalg.norm(ket)
    if nrm < 1e-12:
        raise ValueError("cat state vanished (alpha=0 with phase=pi?)")
    return ket / nrm


def tensor(*mats):
    """Kronecker product, staying sparse if any factor is sparse."""
    if any(scipy.sparse.issparse(m) for m in mats):
        mats = [
            m if scipy.sparse.issparse(m) else scipy.sparse.csr_matrix(m) for m in mats
        ]
        return reduce(lambda a, b: scipy.sparse.kron(a, b, format="csr"), mats)
    return reduce(np.kron, mats)


def _axes(parts: dict, n_modes: int) -> dict:
    """``parts`` keyed by tensor axis: a mode is an axis or a name of MODE_AXES."""
    out = {MODE_AXES[m] if isinstance(m, str) else m: v for m, v in parts.items()}
    unknown = set(out) - set(range(n_modes))
    if unknown:
        raise KeyError(f"modes {unknown} not among {n_modes} modes")
    return out


def embed(dims, parts: dict, sparse: bool = False):
    """Lift per-mode matrices into the space of truncations ``dims``.

    ``parts`` maps mode (axis, or a name of MODE_AXES) -> single-mode matrix;
    every unnamed mode gets the identity.  The result is a dense array, or a
    CSR matrix with ``sparse=True``.
    """
    parts = _axes(parts, len(dims))
    factors = []
    for axis, d in enumerate(dims):
        if axis in parts:
            m = parts[axis]
            if m.shape != (d, d):
                raise ValueError(f"matrix for mode {axis} has shape {m.shape}, expected {(d, d)}")
            factors.append(scipy.sparse.csr_matrix(m) if sparse else m)
        else:
            factors.append(
                scipy.sparse.identity(d, dtype=complex, format="csr")
                if sparse
                else np.eye(d, dtype=complex)
            )
    return tensor(*factors)


def product_ket(dims, kets: dict) -> np.ndarray:
    """Tensor product ket from per-mode kets (keyed like :func:`embed`);
    unnamed modes start in vacuum."""
    kets = _axes(kets, len(dims))
    factors = [
        np.asarray(kets.get(i, fock(d, 0)), dtype=complex) for i, d in enumerate(dims)
    ]
    return reduce(np.kron, factors)


def cat_product_ket(dims, alpha: float) -> np.ndarray:
    """Normalized (|a> + i|-a>)_1 |0>_bus (|a> - i|-a>)_2 at truncations
    ``dims`` in mode order (cav1, bus, cav2): the protocol's initial state."""
    def cat(d, phase):
        return hilbert.coherent(d, alpha, normalized=False) + phase * hilbert.coherent(
            d, -alpha, normalized=False
        )

    ket = np.kron(np.kron(cat(dims[0], 1j), fock(dims[1], 0)), cat(dims[2], -1j))
    return ket / np.linalg.norm(ket)


def coherent_trace(coeffs, labels, weights) -> float:
    """Tr rho of sum_ij c_i conj(c_j) w_ij |z_i><z_j| for rows z_i of
    ``labels``, computed in closed form (no truncation) from the overlaps
    <z_j|z_i>, the dyad log-weights at Q = I."""
    o = np.exp(dynamics.dyad_log_weights(labels, np.eye(labels.shape[1])))
    a = np.outer(coeffs, coeffs.conj()) * weights
    return float(np.real(np.sum(a * o)))


def materialize_coherent(coeffs, labels, weights, dims) -> np.ndarray:
    """Dense density matrix of sum_ij c_i conj(c_j) w_ij |z_i><z_j| at the
    given truncations, for rows z_i of per-mode ``labels``.

    The per-component kets are exact Fock-space projections (unnormalized
    coherent amplitudes), so this is the projection of the true state onto
    the truncated space.  Cost scales with prod(dims)^2: test-size spaces
    only.
    """
    dims = tuple(dims)
    kets = []
    for z in labels:
        factors = [hilbert.coherent(d, zi, normalized=False) for d, zi in zip(dims, z)]
        ket = factors[0]
        for f in factors[1:]:
            ket = np.kron(ket, f)
        kets.append(ket)
    kets = np.array(kets)
    a = np.outer(coeffs, coeffs.conj()) * weights
    return kets.T @ a @ kets.conj()


def herald_by_stages(
    params: SystemParams,
    check: VacuumCheckModel,
    cavity_loss: bool = True,
    dump_time=None,
) -> tuple[float, float, tuple[float, float]]:
    """(p_pass, bell_fidelity, alpha_dark) of the coherent engine's herald
    at ``params.alpha`` alone, with no scaling from alpha = 1: the four
    components of (|a> + i|-a>)_1 |0>_bus (|a> - i|-a>)_2 propagated window
    by window (pump, dump, post) at their own amplitude, each window's dyad
    weights multiplied in, the bus traced out through its overlaps, the
    classical sector probabilities from exact coherent overlaps,
    and Tr rho_gg and <B|rho_gg|B> from each component's truncated kets,
    with the Bell ket of two Kronecker products in the basis of the dark
    amplitudes.  ``dump_time`` is None, for ``params.t_dump``, or "auto"."""
    if dump_time == "auto":
        t_dump = dynamics.auto_dump_time(params.g_bs, params.kappa_b)
    else:
        t_dump = params.t_dump
    t_post = max(params.t_protocol - params.t_pump - t_dump, 0.0)
    loss = 1.0 if cavity_loss else 0.0
    gammas = (loss * params.gamma_cavity[0], params.kappa_ang, loss * params.gamma_cavity[1])
    a_mat = dynamics.coupling_matrix(params.g_bs)
    a = params.alpha
    z = np.array([[a, 0, a], [a, 0, -a], [-a, 0, a], [-a, 0, -a]], dtype=complex)
    coeffs = np.array([1, -1j, 1j, 1]) / 2
    weights = np.ones((4, 4), dtype=complex)
    for coupling, t in ((0 * a_mat, params.t_pump), (a_mat, t_dump), (0 * a_mat, t_post)):
        if t > 0:
            e, q = dynamics.linear_propagator(coupling, gammas, t)
            weights *= np.exp(dynamics.dyad_log_weights(z, q))
            z = z @ e.T
    weights *= np.exp(dynamics.dyad_log_weights(z[:, 1:2], np.eye(1)))  # <z_j,bus|z_i,bus>
    labels = z[:, [0, 2]]
    dyads = np.outer(coeffs, coeffs.conj()) * weights
    dims = (params.dims[0], params.dims[2])

    # per cavity, [vacuum, not vacuum] parts of the exact dyad traces
    # <z_j|z_i> and of the truncated kets' Gram matrices
    exact, gram, kets = [], [], []
    for z, d in zip(labels.T, dims):
        n = np.abs(z) ** 2
        overlaps = np.exp(np.outer(z, z.conj()) - (n[:, None] + n[None, :]) / 2)
        vac = np.outer(np.exp(-n / 2), np.exp(-n / 2))
        exact.append((vac, overlaps - vac))
        k = np.array([hilbert.coherent(d, x, normalized=False) for x in z])
        kets.append(k)
        gram.append((np.outer(k[:, 0], k[:, 0].conj()), k[:, 1:] @ k[:, 1:].conj().T))
    sectors = [("VN".index(c1), "VN".index(c2)) for c1, c2 in SECTORS]
    # the components as classical alternatives: only the i == j terms
    probs = np.array([
        np.real(np.sum(np.diag(dyads) * np.diag(exact[0][v1]) * np.diag(exact[1][v2])))
        for v1, v2 in sectors
    ])
    gg_weight = check.table[0] * (probs > 0)
    tr = sum(
        w * np.real(np.sum(dyads * gram[0][v1] * gram[1][v2]))
        for w, (v1, v2) in zip(gg_weight, sectors)
    )

    alpha_dark = (abs(labels[1, 0]), abs(labels[1, 1]))
    words = [LogicalBasis(x).codewords(d) for x, d in zip(alpha_dark, dims)]
    bell = bell_state_kron(*words)
    beta = np.array([np.vdot(bell, np.kron(u, v)) for u, v in zip(*kets)])
    nn = SECTORS.index(("N", "N"))
    fidelity = gg_weight[nn] * np.real(beta @ dyads @ beta.conj()) / tr
    return float((check.table @ probs)[0]), float(fidelity), alpha_dark


def kerr_twist_angle(kerr_hz: float, t: float) -> float:
    """Analysis-basis Kerr angle that absorbs free Kerr evolution for time t.

    Self-Kerr evolution is e^{-i pi K t n(n-1)} for a Kerr constant quoted in
    Hz (K = kerr_hz, typically negative), i.e. angle -2 pi kerr_hz t in the
    e^{+i (theta_k/2) n(n-1)} convention of :class:`LogicalBasis`.
    """
    return -2 * math.pi * kerr_hz * t


def kerr_unitary(dim: int, kerr_hz: float, t: float) -> np.ndarray:
    """Diagonal free-Kerr propagator exp(-i 2 pi K t n(n-1)/2) on one mode."""
    n = np.arange(dim)
    return np.diag(np.exp(-1j * 2 * math.pi * kerr_hz * t / 2 * n * (n - 1)))


def codewords_four_coherent(basis: LogicalBasis, dim: int) -> Codewords:
    """The codewords built with four coherent-ket evaluations, two for each
    branch (what ``LogicalBasis.codewords`` computes with two)."""
    a = basis.alpha
    raw_p = hilbert.coherent(dim, a, normalized=False) + hilbert.coherent(
        dim, -a, normalized=False
    )
    raw_p[0] = 0.0  # vacuum removal on the even branch
    raw_m = hilbert.coherent(dim, a, normalized=False) - hilbert.coherent(
        dim, -a, normalized=False
    )
    n = np.arange(dim)
    twist = np.exp(1j * basis.theta_r * n + 1j * basis.theta_k / 2 * n * (n - 1))
    plus = twist * raw_p
    minus = twist * raw_m
    np_, nm_ = np.linalg.norm(plus), np.linalg.norm(minus)
    if np_ == 0 or nm_ == 0:
        raise hilbert.NumericalError(f"codewords vanish at alpha={a}")
    return Codewords(plus / np_, minus / nm_, basis, dim)


def bell_state_kron(words1: Codewords, words2: Codewords) -> np.ndarray:
    """The logical singlet (|0 1> - |1 0>)/sqrt(2) from two Kronecker products."""
    ket = np.kron(words1.zero, words2.one) - np.kron(words1.one, words2.zero)
    return ket / np.linalg.norm(ket)


def logical_paulis(words: Codewords) -> dict:
    """Logical operators as dim x dim matrices, zero outside the codespace.

    'I' is the codespace projector, so Tr(rho @ paulis['I']) < 1 measures
    leakage out of the code.
    """
    p, m = words.plus, words.minus
    pp = np.outer(p, p.conj())
    mm = np.outer(m, m.conj())
    pm = np.outer(p, m.conj())
    x = pp - mm
    z = pm + pm.conj().T
    return {"I": pp + mm, "X": x, "Z": z, "Y": 1j * x @ z}


def teleport_per_input(
    resource, input_qubit, words1: Codewords, words2: Codewords,
    p_decode: float = 0.0, p_flip_m1: float = 0.0,
) -> protocol.TeleportResult:
    """``protocol.teleport`` with the input folded into the record elements:
    K = c0 + s c1 P on cavity 2 (s = -1/+1 for m1 = 0/1), and the four
    elements O[m1, m2] = K^dag M_m2 K / 2 contracted with the pair for this
    one input, then mixed by the readout errors and scored as the library
    does."""
    rho12 = hilbert.as_dm(resource)
    d1, d2 = words1.dim, words2.dim
    c0, c1 = input_qubit
    norm = math.sqrt(abs(c0) ** 2 + abs(c1) ** 2)
    c0, c1 = c0 / norm, c1 / norm

    pi_one = np.outer(words2.one, words2.one.conj())
    pi_zero = np.outer(words2.zero, words2.zero.conj())
    leak = np.eye(d2) - pi_one - pi_zero
    m_c2 = np.stack((pi_one, pi_zero)) + 0.5 * leak
    k = c0 + np.array([[-1.0], [1.0]]) * c1 * (-1.0) ** np.arange(d2)  # (m1, n2)
    ops = 0.5 * k.conj()[:, None, :, None] * m_c2 * k[:, None, None, :]
    cond = hilbert.condition(rho12, (d1, d2), ops)
    cond = (1 - p_flip_m1) * cond + p_flip_m1 * cond[::-1]
    cond = (1 - p_decode) * cond + p_decode * cond[:, ::-1]

    tr = np.real(np.trace(cond, axis1=2, axis2=3))
    total = tr.sum()
    probs, fids = {}, {}
    f_qst = 0.0
    for key, name in protocol.CORRECTIONS.items():
        v = words1.ket(*(protocol._PAULIS[name] @ (c0, c1)))
        probs[key] = float(tr[key] / total)
        fids[key] = float(np.real(v.conj() @ cond[key] @ v) / tr[key])
        f_qst += probs[key] * fids[key]
    return protocol.TeleportResult(probs=probs, fidelities=fids, f_qst=f_qst, input=(c0, c1))


def dual_rail_distill_kron(rho_pair):
    """``protocol.dual_rail_distill`` through the projector onto double-odd
    joint parity, (1 - P_1)(1 - P_2)/4, with each module's parity P_k a
    Kronecker product over the modes (A1, A2, B1, B2)."""
    rho = as_dm(rho_pair)
    d = int(round(math.sqrt(rho.shape[0])))
    rho2 = np.kron(rho, rho)
    par = parity(d)
    eye = np.eye(d, dtype=complex)
    p_mod1 = np.kron(np.kron(par, eye), np.kron(par, eye))
    p_mod2 = np.kron(np.kron(eye, par), np.kron(eye, par))
    full = np.eye(d**4)
    pi = 0.25 * (full - p_mod1) @ (full - p_mod2)
    heralded = pi @ rho2 @ pi
    p = float(np.real(np.trace(heralded)))
    return p, heralded / p if p > 0 else heralded


def mle_density_reference(design: tomography.WignerMap, *, values=None, counts=None, shots=None,
                          max_iter: int = 2000, tol: float = 1e-10) -> tomography.MleResult:
    """``tomography.mle_density`` with each parity map's probabilities
    clipped anew in every gradient and every change (about six times an
    iteration), and rho's coordinates read and written through 2-D fancy
    indexing of its triangles, the adjoint's diagonal from ``np.diag``.  The
    design rows' products (``WignerMap.rows`` and ``rows_adjoint``) and
    the projection are the library's."""
    dim = design.dim
    iu = np.triu_indices(dim, 1)
    n_pairs = len(iu[0])

    def forward(rho):
        i, j = iu
        upper = 0.5 * (rho[i, j] + rho[j, i].conj())
        return design.rows(np.concatenate([rho.diagonal().real, upper.real, upper.imag]))

    def adjoint(c):
        v = design.rows_adjoint(c)
        h = np.diag(v[:dim] / 2).astype(complex)
        h[iu] = (v[dim : dim + n_pairs] + 1j * v[dim + n_pairs :]) / 2
        return h + h.conj().T

    if counts is not None:
        counts = np.asarray(counts, float).ravel()
        shots = np.array(np.broadcast_to(shots, counts.shape), float)
        w_obs = 2 * counts / shots - 1
        misses, total = shots - counts, float(np.sum(shots))

        def prob(w):
            return np.clip((1 + w) / 2, 1e-12, 1 - 1e-12)

        def grad(w):
            p = prob(w)
            return (misses / (1 - p) - counts / p) / (2 * total)

        def change(w, w0):
            p, p0 = prob(w), prob(w0)
            x_hit, x_miss = (p - p0) / p0, (p0 - p) / (1 - p0)
            l_hit, l_miss = np.log1p(x_hit), np.log1p(x_miss)
            rise = -float(counts @ l_hit + misses @ l_miss) / total
            bregman = float(counts @ (x_hit - l_hit) + misses @ (x_miss - l_miss)) / total
            return rise, bregman
    else:
        w_obs = np.asarray(values, float).ravel()
        k = len(w_obs)

        def grad(w):
            return (w - w_obs) / k

        def change(w, w0):
            dw = w - w0
            return float(dw @ (w0 - w_obs + dw / 2)) / k, float(dw @ dw) / (2 * k)

    rho = np.eye(dim, dtype=complex) / dim
    w = forward(rho)
    theta, w_theta, momentum = rho, w, 1.0
    step, converged, it = 1.0, False, 0
    for it in range(1, max_iter + 1):
        g = adjoint(grad(w_theta))
        while True:
            cand = tomography._project_density(theta - step * g)
            w_cand = forward(cand)
            d = cand - theta
            if change(w_cand, w_theta)[1] <= np.vdot(d, d).real / (2 * step):
                break
            step /= 2
        if change(w_cand, w)[0] > 0:
            if momentum == 1.0:
                break
            theta, w_theta, momentum = rho, w, 1.0
            continue
        g = adjoint(grad(w_cand))
        gap = np.vdot(g, cand).real - np.linalg.eigvalsh(g)[0]
        nxt = (1 + math.sqrt(1 + 4 * momentum**2)) / 2
        beta = (momentum - 1) / nxt
        theta, w_theta = cand + beta * (cand - rho), w_cand + beta * (w_cand - w)
        rho, w, momentum = cand, w_cand, nxt
        if gap <= tol:
            converged = True
            break
        step *= 1.25

    return tomography.MleResult(
        rho=rho,
        converged=converged,
        n_iter=it,
        rms_residual=float(np.sqrt(np.mean((w - w_obs) ** 2))),
    )


def optimize_basis_reference(
    state, dims, alpha0: float = 1.4, extra_starts: tuple = (0.0, 0.25, 0.5, -0.5)
):
    """``tomography.optimize_basis`` with an objective that builds the
    codewords of both cavities on every evaluation through
    :func:`codewords_four_coherent`, the Bell ket through
    :func:`bell_state_kron`, and recomputes Tr rho each time.  Searches
    once from each Kerr angle in ``extra_starts`` at amplitude ``alpha0``
    (the library searches once, from the state's mean amplitude) and
    returns the Nelder-Mead result of the best start."""
    rho = hilbert.as_dm(state)
    d1, d2 = dims

    def neg_fid(x):
        alpha, theta_k, theta_r = x
        if alpha < 0.05:
            return 1.0 + abs(alpha)
        basis = LogicalBasis(alpha, theta_k=theta_k, theta_r=theta_r)
        w1, w2 = codewords_four_coherent(basis, d1), codewords_four_coherent(basis, d2)
        bell = bell_state_kron(w1, w2)
        tr = float(np.real(np.trace(rho)))
        return -float(np.real(bell.conj() @ rho @ bell) / tr)

    best = None
    for tk0 in extra_starts:
        x0 = np.array([alpha0, tk0, 0.0])
        simplex = np.array(
            [x0, x0 + [0.15, 0, 0], x0 + [0, 0.25, 0], x0 + [0, 0, 0.25]]
        )
        res = scipy.optimize.minimize(
            neg_fid,
            x0,
            method="Nelder-Mead",
            options={
                "initial_simplex": simplex,
                "xatol": 1e-7,
                "fatol": 1e-12,
                "maxiter": 2000,
            },
        )
        if best is None or res.fun < best.fun:
            best = res
    return best


def vacuum_check(state, dims, model: VacuumCheckModel | None = None):
    """Apply the two-module vacuum check to a cavity pair.

    ``state`` is a ket or density matrix on the truncations ``dims``: either
    the two cavities (cav1, cav2) or the full three-mode (cav1, bus, cav2)
    state, in which case the bus is traced out first.  Returns
    ``(p_outcomes, states, sector_probs)`` where ``states`` maps each
    outcome to the normalized post-measurement density matrix (None when
    the outcome has zero probability) and ``sector_probs`` is a vector in
    :data:`~darkbus.protocol.SECTORS` order.  Sector probabilities here are
    the projective traces of the V/N decomposition -- on a density matrix
    there is no component structure left to treat classically.  Each
    outcome's state is sum_s P(o|s) Pi_s rho Pi_s, read from the model's
    table, and its probability that state's trace.
    """
    model = model or VacuumCheckModel.ideal()
    dims = tuple(dims)
    rho = as_dm(state)
    if len(dims) == 3:
        rho = hilbert.partial_trace(rho, dims, [MODE_AXES["cav1"], MODE_AXES["cav2"]])
        dims = (dims[0], dims[2])
    if len(dims) != 2:
        raise ValueError("vacuum_check expects a two-cavity state (or cav1/bus/cav2)")
    # the projectors are diagonal: keep their diagonals, and Tr(pi rho pi)
    # is the diagonal of pi dotted with the diagonal of rho
    vac = {d: (np.arange(d) == 0).astype(float) for d in dims}
    proj = {"V": vac, "N": {d: 1 - v for d, v in vac.items()}}
    pis = [np.kron(proj[s1][dims[0]], proj[s2][dims[1]]) for s1, s2 in SECTORS]
    sector_probs = np.array([pi @ np.real(np.diag(rho)) for pi in pis])
    p_out, states = {}, {}
    for o, row in zip(OUTCOMES, model.table):
        # Pi rho Pi = rho * outer(pi, pi) for a diagonal projector Pi
        rho_o = rho * sum(w * np.outer(pi, pi) for w, pi in zip(row, pis))
        p_out[o] = float(np.real(np.trace(rho_o)))
        states[o] = rho_o / p_out[o] if p_out[o] > 1e-15 else None
    return p_out, states, sector_probs


def expect(op, state) -> complex:
    """<op> = Tr(op rho) for a dense or sparse matrix op and a ket (1-d) or
    density matrix, as a complex number."""
    state = np.asarray(state)
    if state.ndim == 1:
        return complex(np.vdot(state, op @ state))
    if scipy.sparse.issparse(op):
        return complex((op @ state).diagonal().sum())
    return complex(np.einsum("ij,ji->", op, state))


def expect_trajectory(h, c_ops, state0, times, ops) -> np.ndarray:
    """<op>(t) at each of the increasing ``times``, shape (len(times),
    len(ops)): the master equation solved interval by interval, each
    interval one duration-long solve from the ``.final`` state of the one
    before."""
    state, rows = state0, []
    for span in np.diff(times):
        rows.append([expect(op, state) for op in ops])
        state = dynamics.lindblad_evolve(h, c_ops, state, span).final
    rows.append([expect(op, state) for op in ops])
    return np.array(rows)


def lindblad_action(k_op, cs):
    """v -> vec(K r + r K^dag + sum_c c r c^dag), r = v as a dim x dim matrix,
    by sparse matrix products.

    Right products go through r^T, since r X^dag = (conj(X) r^T)^T.
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


def liouvillian_apply_reference(liou, src, dst) -> np.ndarray:
    """Write L - mu on the packed blocks ``src`` into ``dst`` and return
    ``dst``, taking the terms of ``liou`` (a ``dynamics._Liouvillian``
    whose buffers are built) one by one: each call slices, reshapes and
    picks each term's source anew, always copies M^T, and always builds
    the transposed sum in the scratch buffer and copies it transposed
    into ``dst``.  The same operations in the same order as the library's
    prebuilt plan, so the reference for it bit for bit.  ``src`` and
    ``dst`` are any two arrays of the buffers' shape; ``liou``'s scratch
    and M^T buffers are used."""
    def stack(a):
        return a.reshape(liou.blocks.count, liou.blocks.size, liou.blocks.size)

    np.copyto(stack(liou.transpose), stack(src).transpose(0, 2, 1))
    sources = (src.reshape(-1), liou.transpose.reshape(-1))
    out, tmp = dst.reshape(-1), liou.scratch.reshape(-1)
    tmp.fill(0.0)  # the transposed sum, with dst as scratch
    for write, read, source, w, op in liou.transposed_terms:
        np.multiply(w, sources[source][read], out=out[write])
        op(tmp[write], out[write], out=tmp[write])
    np.copyto(stack(dst), stack(liou.scratch).transpose(0, 2, 1))
    for write, read, source, w in liou.terms:
        np.multiply(w, sources[source][read], out=tmp[write])
        out[write] += tmp[write]
    return dst


def liouvillian_evolve(h, c_ops, state0, t) -> np.ndarray:
    """rho(t) from scipy's ``expm_multiply`` on the assembled sparse
    Liouvillian (row-major vec, so vec(A r B) = (A kron B^T) vec r).

    With an explicit matrix scipy computes the exact 1-norm; for t ||L||_1
    up to about 60, which covers every case the tests use, it picks its
    truncation from that alone and draws no random probes.  The
    superoperator has dim^4 entries at most: small spaces only.
    """
    h = scipy.sparse.csr_matrix(h, dtype=complex)
    dim = h.shape[0]
    eye = scipy.sparse.identity(dim, dtype=complex, format="csr")
    k_op = -1j * h
    for c in c_ops:
        k_op = k_op - 0.5 * (c.conj().T @ c)
    liou = scipy.sparse.kron(k_op, eye) + scipy.sparse.kron(eye, k_op.conj())
    for c in c_ops:
        liou = liou + scipy.sparse.kron(c, c.conj())
    rho0 = as_dm(state0).astype(complex)
    vec = scipy.sparse.linalg.expm_multiply(t * liou.tocsr(), rho0.ravel())
    return vec.reshape(dim, dim)


def on_modes(dims, ops: dict) -> np.ndarray:
    """Kronecker product over the modes of ``dims``: the single-mode matrix
    ``ops[k]`` on each mode k named, the identity on every other mode."""
    return reduce(np.kron, [ops.get(k, np.eye(d)) for k, d in enumerate(dims)])


def network_operators_kron(coupling, gammas, dims):
    """Dense (H, c_ops) of the network that ``dynamics.network_operators``
    builds as diagonals: each term a dim x dim Kronecker product of
    single-mode factors, scaled in place and added into H in the order of
    the coupling's nonzeros, each collapse operator sqrt(gamma_k) a_k.  The
    reference the library's diagonals must equal bit for bit.  A = 0 gives
    the zero H; an infinite rate gives 0 * inf = NaN off the operator's
    diagonal."""
    coupling = np.asarray(coupling, dtype=complex)
    lowering = [hilbert.destroy(d) for d in dims]
    dim = math.prod(dims)
    h = np.zeros((dim, dim), dtype=complex)
    c_ops = []
    with np.errstate(invalid="ignore"):
        for k, l in zip(*np.nonzero(coupling)):
            a_dag = lowering[k].conj().T
            ops = {k: a_dag, l: lowering[l]} if k != l else {k: a_dag @ lowering[k]}
            term = on_modes(dims, ops)
            term *= coupling[k, l]
            h += term
        for k, (g, a) in enumerate(zip(gammas, lowering)):
            if g > 0:
                c_ops.append(on_modes(dims, {k: a}))
                c_ops[-1] *= math.sqrt(g)
    return h, c_ops


def kerr_hamiltonian_kron(dims, kerr) -> np.ndarray:
    """Dense self-Kerr H = sum_i 2pi K_i/2 n_i (n_i - 1) on modes 0 and 2,
    each term a Kronecker product: the reference for
    ``dynamics.kerr_hamiltonian``."""
    terms = []
    for axis, k in zip((0, 2), kerr):
        n = np.arange(dims[axis])
        terms.append(on_modes(dims, {axis: np.diag(2 * math.pi * k / 2 * n * (n - 1))}))
    return terms[0] + terms[1]


def dense(diagonals, dim: int) -> np.ndarray:
    """The dim x dim matrix whose nonzero diagonals are ``diagonals``, listed
    as ``dynamics._diagonals`` lists them."""
    a = np.zeros((dim, dim), dtype=complex)
    for o, u in diagonals:
        i = np.arange(max(-o, 0), dim - max(o, 0))
        a[i, i + o] = u[i]
    return a


def params_network(params: SystemParams, cavity_loss: bool = True):
    """Dense (H, c_ops) of the cav1-bus-cav2 network at ``params.dims`` with
    the bus coupling open: bus decay at kappa_b and, with ``cavity_loss``,
    each cavity's 1/T1."""
    loss = 1.0 if cavity_loss else 0.0
    gammas = (loss * params.gamma_cavity[0], params.kappa_ang, loss * params.gamma_cavity[1])
    return network_operators_kron(dynamics.coupling_matrix(params.g_bs), gammas, params.dims)


def lindblad_pair_state(
    params: SystemParams,
    t_dump: float,
    t_post: float,
    cavity_loss: bool = True,
    include_kerr: bool = False,
) -> np.ndarray:
    """Cavity pair after pump, dump and post windows, each one master-equation
    solve on the full cav1-bus-cav2 space (H = 0, then H_dump, then H = 0),
    starting from :func:`cat_product_ket`.

    ``run_dmm(engine="lindblad")`` solves the two H = 0 windows on the
    cavity pair alone and adds the bus, in vacuum, only for the dump; this
    is the propagation that keeps the bus through all three windows.
    """
    dims = params.dims
    h_dump, c_ops = params_network(params, cavity_loss)
    h_zero = 0 * h_dump
    if include_kerr:
        h_dump = h_dump + kerr_hamiltonian_kron(dims, params.kerr)
    state = cat_product_ket(dims, params.alpha)
    for h, t in ((h_zero, params.t_pump), (h_dump, t_dump), (h_zero, t_post)):
        if t <= 0:
            continue
        state = dynamics.lindblad_evolve(h, c_ops, state, t).final
    return hilbert.partial_trace(as_dm(state), dims, [MODE_AXES["cav1"], MODE_AXES["cav2"]])
