"""The heralded entanglement protocol and everything consumed or produced by it.

Sequence being modeled:

1. each cavity is pumped into a small cat, with relative phases chosen so
   the joint state splits evenly into a "dark" part (anti-symmetric, bus
   never sees it) and a "bright" part (symmetric, couples to the bus at
   sqrt(2) g and drains away through bus loss);
2. the bus coupling is held open for a dump window;
3. each module asks its transmon "is the cavity empty?"; both answering
   "no" (outcome ``gg``) heralds the dark state -- a logical Bell pair --
   because the bright branch has been dumped to vacuum;
4. the heralded pair is consumed downstream: tomography, teleportation,
   or repeated rounds.

Since bus and cavity loss are linear and the dump Hamiltonian is passive,
the entire pre-measurement evolution is solved exactly by
:func:`_unit_pair` on the linear core of :mod:`.dynamics`
(:func:`~.dynamics.linear_propagator` and
:func:`~.dynamics.dyad_log_weights`) -- four coherent components, no Fock
truncation, milliseconds of work; only the analysis of the heralded pair
reads kets truncated at ``params.dims``.  The master-equation
density-matrix engine is kept behind ``engine="lindblad"`` as an
independent cross-check at reduced truncations, built from the same
coupling, decay rates and initial superposition.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import codes, dynamics, hilbert
from .codes import Codewords, LogicalBasis
from .dynamics import SystemParams
from .hilbert import HilbertSpace, NumericalError, QuantumState

OUTCOMES = ("gg", "ge", "eg", "ee")
# (cavity 1, cavity 2) each vacuum or not; every sector probability is a
# vector in this order
SECTORS = (("V", "V"), ("V", "N"), ("N", "V"), ("N", "N"))

# measured probability that both modules report ``g`` with both cavities in
# vacuum: the correlated false pass that lets a dumped bright state through
MEASURED_JOINT_FALSE_PASS = 0.015

# (|a> + i|-a>)_1 |0>_b (|a> - i|-a>)_2 at a = 1 as four coherent components:
# one row of (cav1, bus, cav2) labels each, scaled by a at amplitude a, and
# their coefficients.  Components (a,0,a) and (-a,0,-a) are purely bright,
# (a,0,-a) and (-a,0,a) purely dark; the cross norms make the overall norm
# exactly 2, hence the coefficient 1/2.
_CAT_LABELS = np.array([[1, 0, 1], [1, 0, -1], [-1, 0, 1], [-1, 0, -1]], dtype=complex)
_CAT_COEFFS = np.array([1, -1j, 1j, 1], dtype=complex) / 2
_CAT_LABELS.flags.writeable = _CAT_COEFFS.flags.writeable = False


# ---------------------------------------------------------------------------
# the measurement model of the "is the cavity empty?" check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VacuumCheckModel:
    """Confusion model of the per-module vacuum check.

    The transmon answers ``e`` when the cavity is in vacuum and ``g`` when it
    holds photons; the herald is both modules answering ``g``.  Fields are
    per-module pairs:

    p_g_given_empty:
        probability of (wrongly) reporting ``g`` on a vacuum cavity --
        the false-pass channel that lets dumped bright states sneak in.
    p_e_given_occupied:
        probability of (wrongly) reporting ``e`` on an occupied cavity --
        the false-fail channel (readout/thermal errors), which costs
        success probability but not heralded fidelity.
    correlation_factor:
        multiplies the *joint* gg probability when both cavities are in
        vacuum; measured joint false-pass rates exceed the product of the
        marginals, and this single number captures that.  Marginals are
        preserved by construction.

    :attr:`table` is the whole model as one array, P(outcome | sector).
    """

    p_g_given_empty: tuple[float, float] = (0.0, 0.0)
    p_e_given_occupied: tuple[float, float] = (0.0, 0.0)
    correlation_factor: float = 1.0

    def __post_init__(self):
        for name in ("p_g_given_empty", "p_e_given_occupied"):
            pair = tuple(float(p) for p in getattr(self, name))
            if len(pair) != 2 or any(not 0 <= p <= 1 for p in pair):
                raise ValueError(
                    f"per-module probabilities must be two values in [0,1], got {pair}"
                )
            object.__setattr__(self, name, pair)
        # the correlated both-vacuum column must still be a distribution (a
        # NaN entry, from an infinite or NaN factor, fails the test too)
        if not (self.table[:, 0] >= 0).all():
            raise ValueError("correlation_factor makes the both-vacuum outcome table invalid")

    @classmethod
    def ideal(cls) -> "VacuumCheckModel":
        return cls()

    @classmethod
    def from_measured(cls) -> "VacuumCheckModel":
        """Hardware-calibrated numbers: 7%/5% false pass, ~4% false fail per
        module, and a measured 1.5% joint false-pass rate (vs the 0.35%
        independent product)."""
        return cls(
            p_g_given_empty=(0.07, 0.05),
            p_e_given_occupied=(0.04, 0.04),
            correlation_factor=MEASURED_JOINT_FALSE_PASS / (0.07 * 0.05),
        )

    @cached_property
    def table(self) -> np.ndarray:
        """P(outcome | sector), shape (4, 4) and read-only: rows in
        :data:`OUTCOMES` order, columns in :data:`SECTORS` order."""
        # P(module k reports g) on an empty and on an occupied cavity
        e1, e2 = self.p_g_given_empty
        o1, o2 = (1 - p for p in self.p_e_given_occupied)
        g1, g2 = np.array([[e1, e1, o1, o1], [e2, o2, e2, o2]])
        gg = g1 * g2
        gg[0] = self.correlation_factor * e1 * e2
        table = np.array([gg, g1 - gg, g2 - gg, 1 - g1 - g2 + gg])
        table.flags.writeable = False
        return table


def _sector_index(dims) -> np.ndarray:
    """Index into SECTORS of every Fock pair (n1, n2), 2 [n1 != 0] + [n2 != 0],
    flattened in the order of the two-cavity basis."""
    occupied1, occupied2 = np.arange(dims[0]) != 0, np.arange(dims[1]) != 0
    return (2 * occupied1[:, None] + occupied2).ravel()


def _fold_weights(model: VacuumCheckModel, sector_probs: np.ndarray):
    """Fold the ideal projective sector probabilities (in :data:`SECTORS`
    order, along the last axis) through the confusion model.

    Returns the outcome probabilities, in :data:`OUTCOMES` order, and the gg
    weight P(gg | s) of each sector s, both stacked along the leading axes
    of ``sector_probs``.  Sectors without positive probability contribute
    nothing and get weight 0.
    """
    table = model.table
    live = sector_probs > 0
    probs = np.where(live, sector_probs, 0.0)
    p_out = np.zeros(probs.shape[:-1] + (len(OUTCOMES),))
    # sector by sector in SECTORS order: a BLAS dot may reorder the sum
    for s in range(len(SECTORS)):
        p_out += table[:, s] * probs[..., s, None]
    return p_out, table[0] * live


def _fold(model: VacuumCheckModel, sector_probs: np.ndarray, rho, dims):
    """The outcome probabilities of :func:`_fold_weights` and the
    unnormalized gg state of the two-cavity density matrix ``rho`` (mode
    dims ``dims``): the sum of P(gg | s) Pi_s rho Pi_s over the sectors.
    The projectors Pi_s are diagonal and disjoint in the Fock basis, so that
    sum is rho times one entrywise weight, P(gg | s) where row and column
    lie in the same sector s and 0 elsewhere.
    """
    p_out, weights = _fold_weights(model, sector_probs)
    idx = _sector_index(dims)
    folded = rho * weights[idx][:, None]
    folded[idx[:, None] != idx] = 0
    return p_out, folded


# ---------------------------------------------------------------------------
# success probability and false-positive bookkeeping (closed forms)
# ---------------------------------------------------------------------------


def success_probability(alpha):
    """Ideal herald probability p = (1 - e^{-|alpha|^2})^2 / 2, elementwise
    over an array of alpha; a scalar alpha gives a float.

    Half the weight starts dark, and each cavity of the dark branch passes
    the not-empty check with probability 1 - e^{-|alpha|^2}.
    """
    return _float_or_array(0.5 * (1 - np.exp(-np.abs(alpha) ** 2)) ** 2)


def _float_or_array(x):
    """``x`` as a float if it holds one value without axes, else as it is."""
    return x if np.ndim(x) else float(x)


# ---------------------------------------------------------------------------
# the protocol itself
# ---------------------------------------------------------------------------


@dataclass
class DmmResult:
    """Everything the herald produced.

    ``p_pass`` is the gg outcome probability under the protocol's branch
    bookkeeping (see :func:`run_dmm`), ``rho_pass`` the normalized
    two-cavity state that gg heralds (the pair state times the gg sector
    weight of :func:`_fold`, normalized), ``bell_fidelity`` its overlap with
    the logical Bell target of ``codewords``, the two cavities' codewords
    that every consumer of the pair reads: each at its truncation ``dim``,
    in the basis of its surviving dark amplitude ``basis.alpha``.
    ``p_outcomes`` maps each of :data:`OUTCOMES` to its probability, the
    check model's ``table`` applied to the vector of sector probabilities;
    the states of the discarded outcomes are never built.
    ``rho_pass`` is built on first access and cached: the coherent engine
    reads ``bell_fidelity`` without the (d1 d2)^2 density matrix, and the
    lindblad engine without the odd coherence orders of its dump, so a
    caller that only wants the numbers never pays for it.  It is the one
    state the library keeps wrapped: a
    :class:`~darkbus.hilbert.QuantumState`, because perfbench's basis fit
    reads the two cavity truncations from ``rho_pass.space.dims``; its
    ``.data`` is the density matrix.
    ``p_pass_projective`` is the raw trace of the projected gg branch,
    which retains the interference between the two dark components; the
    difference from ``p_pass`` is below a percent at useful amplitudes.
    """

    p_pass: float
    p_outcomes: dict
    bell_fidelity: float
    codewords: tuple[Codewords, Codewords]
    bright_residual: float
    t_dump: float
    engine: str
    p_pass_projective: float
    _build_rho_pass: Callable[[], QuantumState] = field(repr=False, compare=False)

    @cached_property
    def rho_pass(self) -> QuantumState:
        return self._build_rho_pass()


def _sector_traces(a: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Trace of each sector of sum_ij a_ij |z_i><z_j| on a cavity pair, in
    :data:`SECTORS` order along a new last axis, from per-cavity dyad traces
    split into the stacked [vacuum, not-vacuum] parts ``f[0]`` and ``f[1]``,
    each indexed [..., i, j]."""
    return np.stack(
        [np.real(np.sum(a * f1[v1] * f2[v2], axis=(-2, -1))) for v1 in (0, 1) for v2 in (0, 1)],
        axis=-1,
    )


def _split_gram(kets: np.ndarray) -> np.ndarray:
    """G[..., i, j] = <k_j|k_i> of rows of truncated kets (..., i, n), split
    into the stacked [vacuum, not-vacuum] parts."""
    vac = kets[..., :, None, 0] * kets[..., None, :, 0].conj()
    return np.array([vac, kets[..., 1:] @ np.swapaxes(kets[..., 1:].conj(), -1, -2)])


def _mode_kets(labels: np.ndarray, dims) -> list[np.ndarray]:
    """Per mode, the unnormalized truncated coherent kets of ``labels``
    (..., mode), stacked (..., n) along its leading axes."""
    return [hilbert.coherent(d, labels[..., m], normalized=False) for m, d in enumerate(dims)]


def _density_coherent(dyads: np.ndarray, mode_kets) -> np.ndarray:
    """Fock density matrix sum_ij dyads_ij |k_i><k_j| of a coherent
    superposition, from one row of unnormalized product kets k_i per
    component, built from ``mode_kets``, the rows of :func:`_mode_kets`."""
    kets = mode_kets[0]
    for k in mode_kets[1:]:
        kets = np.einsum("ia,ib->iab", kets, k).reshape(len(dyads), -1)
    return kets.T @ dyads @ kets.conj()


def _bus_vacuum(rho: np.ndarray, dims) -> np.ndarray:
    """The cavity pair's density matrix ``rho`` with the bus, mode 1 of
    ``dims``, added in vacuum."""
    d1, db, d2 = dims
    full = np.pad(rho.reshape(d1, 1, d2, d1, 1, d2), [(0, 0), (0, db - 1), (0, 0)] * 2)
    return full.reshape(d1 * db * d2, -1)


def _windows(params: SystemParams, cavity_loss: bool, dump_time):
    """The dump time, the decay rate of each mode and the (coupling,
    duration) stages of one attempt: the pump, dump and post windows of one
    passive network whose coupling A is open only during the dump."""
    if dump_time == "auto":
        t_dump = dynamics.auto_dump_time(params.g_bs, params.kappa_b)
    elif dump_time is None:
        t_dump = params.t_dump
    else:
        raise ValueError(
            f"dump_time must be None or 'auto', got {dump_time!r}; "
            "a fixed dump window is params.t_dump"
        )
    t_post = max(params.t_protocol - params.t_pump - t_dump, 0.0)
    gammas = np.array(
        [params.gamma_cavity[0], params.kappa_ang, params.gamma_cavity[1]]
    )
    if not cavity_loss:
        gammas = gammas * np.array([0.0, 1.0, 0.0])
    a_mat = dynamics.coupling_matrix(params.g_bs)
    zero = np.zeros_like(a_mat)
    return t_dump, gammas, [(zero, params.t_pump), (a_mat, t_dump), (zero, t_post)]


def _unit_pair(gammas, stages):
    """The coherent engine's network, propagated once for every alpha: the
    component coefficients :data:`_CAT_COEFFS` and, from the labels
    :data:`_CAT_LABELS` at alpha = 1, the cavity pair's labels z_i(1) (4, 2)
    and dyad log-weights L(1) (4, 4) with the bus traced out.  Both stages
    and trace add Hermitian forms in the labels, so at amplitude alpha the
    labels are alpha z_i(1) and the weights exp(alpha^2 L(1))."""
    z = _CAT_LABELS
    log_w = np.zeros((len(z), len(z)), dtype=complex)
    for coupling, t in stages:
        if t <= 0:
            continue
        e, q = dynamics.linear_propagator(coupling, gammas, t)
        log_w += dynamics.dyad_log_weights(z, q)
        z = z @ e.T
    log_w += dynamics.dyad_log_weights(z[:, 1:2], np.eye(1))  # <z_j,bus|z_i,bus>
    return _CAT_COEFFS, z[:, [0, 2]], log_w


class _Herald(NamedTuple):
    """The coherent engine's herald, stacked along the axes of alpha."""

    p_out: np.ndarray         # (..., 4), OUTCOMES order
    p_projective: np.ndarray  # (...)
    fidelity: np.ndarray      # (...)
    alpha_dark: np.ndarray    # (..., 2)
    codewords: tuple          # per cavity, kets (..., d)
    dyads: np.ndarray         # (..., 4, 4), the pair's a_ij
    kets: list                # per cavity, (..., 4, d): the truncated u_i, v_i
    sector_probs: np.ndarray  # (..., 4), SECTORS order


def _coherent_herald(alpha, pair, check: VacuumCheckModel, dims) -> _Herald:
    """The coherent engine's analysis of the gg branch (see :func:`run_dmm`)
    of the :func:`_unit_pair` ``pair`` at cat amplitude ``alpha``, a number
    or an array; each result stacks along its axes and is exactly what its
    amplitude alone gives.  The exact dyad traces <z_j|z_i> behind the
    sector probabilities are exp(alpha^2 x) of their unit-alpha exponent x,
    like the weights."""
    coeffs, labels, log_w = pair
    alpha = np.asarray(alpha, dtype=float)
    a2 = alpha[..., None, None] ** 2
    dyads = np.outer(coeffs, coeffs.conj()) * np.exp(a2 * log_w)
    splits = []
    for z in labels.T:
        n = np.abs(z) ** 2
        half = 0.5 * (n[:, None] + n[None, :])
        vac = np.exp(-a2 * half)
        splits.append(np.array([vac, np.exp(a2 * (np.outer(z, z.conj()) - half)) - vac]))
    # the classical probabilities keep only the i == j terms (see run_dmm)
    sector_probs = _sector_traces(dyads * np.eye(len(coeffs)), *splits)
    p_out, weights = _fold_weights(check, sector_probs)
    p_projective = _fold_weights(check, _sector_traces(dyads, *splits))[0][..., 0]

    # Tr rho_gg = sum_s P(gg|s) sum_ij a_ij G1_s[i,j] G2_s[i,j], from the
    # truncated kets' 4x4 Gram matrices
    kets = _mode_kets(alpha[..., None, None] * labels, dims)
    tr = np.sum(weights * _sector_traces(dyads, *map(_split_gram, kets)), axis=-1)
    _require_herald(tr)

    alpha_dark = np.abs(alpha[..., None] * labels[1])  # component (a, 0, -a)
    words = _codewords(alpha_dark, dims)
    # no codeword has a vacuum component, so the singlet lies in the NN
    # sector: <B|rho_gg|B> = P(gg|NN) sum_ij a_ij beta_i conj(beta_j) with
    # beta_i = <B|u_i v_i>, from each cavity's (<m|u_i>, <p|u_i>)
    o1, o2 = (k @ np.stack([w.minus, w.plus], -1).conj() for k, w in zip(kets, words))
    beta = (o1[..., 0] * o2[..., 1] - o1[..., 1] * o2[..., 0]) / math.sqrt(2)
    bab = np.sum(beta[..., :, None] * dyads * beta.conj()[..., None, :], axis=(-2, -1))
    fidelity = weights[..., -1] * np.real(bab) / tr
    return _Herald(p_out, p_projective, fidelity, alpha_dark, words, dyads, kets, sector_probs)


def _require_herald(tr) -> None:
    if not np.all(tr > 0):
        raise NumericalError("protocol: herald has zero probability, nothing to analyze")


def _codewords(alpha_dark, dims) -> tuple[Codewords, Codewords]:
    """Each cavity's codewords at its truncation in ``dims``, in the basis
    of the cat amplitudes ``alpha_dark`` (..., 2) of the surviving dark
    component, stacked along its leading axes."""
    alphas = np.moveaxis(alpha_dark, -1, 0).tolist()
    return tuple(LogicalBasis(a).codewords(d) for a, d in zip(alphas, dims))


def run_dmm(
    params: SystemParams | None = None,
    *,
    check: VacuumCheckModel | None = None,
    cavity_loss: bool = True,
    dump_time=None,
    engine: str = "coherent",
    include_kerr: bool = False,
) -> DmmResult:
    """Simulate one full heralding attempt and analyze the gg branch.

    Outcome rates vs conditioned states, coherent engine: the four coherent
    components are treated as classical alternatives when computing outcome
    probabilities -- each component contributes its own per-cavity
    vacuum/not-vacuum weights, summed into one probability per sector (a
    vector in :data:`SECTORS` order), which the check model's ``table``,
    P(outcome | sector), turns into outcome probabilities.  This matches how
    the check is calibrated and makes the ideal p_pass land exactly on
    ``success_probability(alpha)``.  The conditioned states keep all
    coherences (full projections), so the ideal pass branch is exactly the
    logical Bell state.  The interference between the two overlapping dark
    components shifts the raw projected trace by about
    -q^2 (1-q)^2 / 2 with q = exp(-alpha^2) (-0.7% absolute at
    alpha = sqrt(2)); that trace is reported as ``p_pass_projective``.
    The lindblad engine has no component decomposition, so its rates are
    projective (diag rho summed by sector) and agree with
    ``p_pass_projective``, not ``p_pass``.  The gg state is the pair's
    density matrix times the gg weight of its sector, the table's gg row
    (:func:`_fold`); the other outcomes are kept as probabilities.  The
    lindblad engine folds the matrix it evolved.  The coherent engine
    propagates the network once, at alpha = 1, and scales it to
    ``params.alpha``: the network is linear, so the labels scale as alpha
    and every dyad log-weight as alpha^2; :func:`alpha_sweep` runs the same
    analysis on many amplitudes at once.  It never builds the (d1 d2)^2
    matrix for the fidelity: the pair is sum_ij a_ij |u_i v_i><u_j v_j|
    over four components with truncated unnormalized coherent kets u_i,
    v_i, so Tr rho_gg is a sum over sectors of 4x4 Gram matrices of the u
    and of the v (split into vacuum and not-vacuum parts), and the singlet
    B, free of vacuum, sees only the both-occupied sector, through
    beta_i = <B|u_i v_i> = (<m1|u_i><p2|v_i> - <p1|u_i><m2|v_i>)/sqrt(2)
    with p, m each cavity's codewords.  ``rho_pass`` is folded from the
    same kets on first access.  The analysis basis of each cavity is the
    cat amplitude of its surviving dark component (absorbing the
    deterministic shrinkage, as an experiment's basis calibration would);
    :func:`~darkbus.tomography.optimize_basis` fits another one to
    ``rho_pass``.  ``params`` is the only source of parameter values: vary
    alpha with ``dataclasses.replace(params, alpha=...)``, the fixed dump
    window with ``dataclasses.replace(params, t_dump=...)``.

    Parameters
    ----------
    params:
        :class:`~darkbus.dynamics.SystemParams`; defaults describe the
        reference hardware.
    check:
        Vacuum-check confusion model (default: ideal projective check).
    cavity_loss:
        Include 1/T1 loss on both cavities through the pump, dump and
        readout windows (t_pump + t_dump + t_post of exposure in total, the
        larger of t_protocol and t_pump + t_dump).
    dump_time:
        None for params.t_dump, or "auto" to hold the coupling until the
        bright mode is actually empty (first zero of its response when
        underdamped, decay below 1e-4 otherwise); anything else raises
        ``ValueError``.
    engine:
        "coherent" -- exact, truncation-free propagation of the four-component
        coherent superposition (the default; fast at any dims).  The
        analysis is not truncation-free: Tr rho_gg, the overlaps beta_i
        and the codewords use kets truncated at params.dims, so
        ``bell_fidelity`` moves with dims once the cats reach the
        truncation (by 7.7e-3 at alpha = 3 between cavity dims 12 and 40,
        with the measured check);
        "lindblad" -- exact density-matrix propagation at params.dims, kept
        as an independent cross-check.  Both engines read the same network:
        the stage list of couplings and durations, the per-mode decay rates
        and the initial four-component superposition, which this engine
        materializes on the cavity pair and normalizes once.  Every window
        is one deterministic Taylor solve of the master equation on the
        operators :func:`~darkbus.dynamics.network_operators` builds from
        its coupling and those rates as their nonzero diagonals (self-Kerr
        adds to H's main diagonal), so no window makes a dim x dim
        operator, and the solve evolves the real packing Re rho + Im rho.  The bus holds vacuum
        until the dump and is traced out right after it, so the pump and
        post windows (H = 0, loss only) are solves on the pair, dim = d1 d2,
        and only the dump is one on the full space, dim = prod(params.dims),
        with the bus added in vacuum.  The dump is an even-q solve
        (``dims=params.dims``): every term of its Liouvillian, Kerr included,
        keeps q = N_ket - N_bra, and ``p_pass``, ``p_outcomes`` and
        ``bell_fidelity`` read only even q (traces at q = 0, and a singlet
        of odd n1 + n2; the bus trace, the post window and the fold keep
        q), so it propagates only rho's two total-parity blocks.  Each
        Liouvillian application costs a few real passes per term over
        those blocks (0.63 of dim^2 entries at dims (6, 4, 6); the terms
        are listed in ``dynamics._Liouvillian``), and a solve makes one
        application per Taylor term, a count that grows with the window
        and the 2-norm of the Liouvillian (8 for the pump, 154 for the
        dump and 9 for the post window at the benchmark's alpha 0.5,
        dims (6, 4, 6)); use reduced dims.  ``rho_pass`` needs odd q too:
        on first read it solves the dump on the full space and the post
        window again, from the pump window's output that the result keeps
        (one (d1 d2)^2 complex array), which costs about what the herald
        did.  The materialized state is Hermitian to rounding, as the
        solve requires.  Its analysis basis is each cavity's decayed
        alpha e^{-gamma_k t_exposed/2}, not the coherent engine's dark
        label, which unequal cavity T1s mix with the bright mode (1.5e-4
        apart in alpha, 5e-9 in fidelity at those dims).
    include_kerr:
        Add the self-Kerr Hamiltonian during the dump window.  Only the
        lindblad engine can do this (Kerr breaks the coherent-superposition
        closure); the coherent engine raises.
    """
    params = params or SystemParams()
    check = check or VacuumCheckModel.ideal()
    t_dump, gammas, stages = _windows(params, cavity_loss, dump_time)
    if engine not in ("coherent", "lindblad"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "coherent" and include_kerr:
        raise ValueError(
            "the coherent engine cannot evolve self-Kerr; use engine='lindblad' "
            "or absorb Kerr into the analysis basis"
        )
    d1, d2 = params.dims[0], params.dims[2]

    if engine == "coherent":
        h = _coherent_herald(params.alpha, _unit_pair(gammas, stages), check, (d1, d2))
        p_out, p_projective, fid, words = h.p_out, h.p_projective, h.fidelity, h.codewords

        def build_rho_gg():
            rho = _density_coherent(h.dyads, h.kets)
            rho_gg = _fold(check, h.sector_probs, rho, (d1, d2))[1]
            return rho_gg / float(np.real(np.trace(rho_gg)))
    else:
        dims = params.dims
        dyads = np.outer(_CAT_COEFFS, _CAT_COEFFS.conj())
        rho = _density_coherent(dyads, _mode_kets(params.alpha * _CAT_LABELS[:, [0, 2]], (d1, d2)))
        rho /= np.trace(rho).real

        def solve(rho, windows, dump_dims):
            """The pair state after ``windows`` from ``rho``; the dump's
            solve gets ``dims=dump_dims``."""
            # The bus holds vacuum until the dump and is traced out right
            # after it, so the H = 0 pump and post windows are solves on the
            # pair.  The dump's state is made in its call, so that no name
            # here keeps it alive through the solve.
            for coupling, t in windows:
                if t <= 0:
                    continue
                if coupling.any():
                    h, c_ops = dynamics.network_operators(coupling, gammas, dims)
                    if include_kerr:  # self-Kerr adds to H's main diagonal
                        h = dict(h)
                        [(_, kerr)] = dynamics.kerr_hamiltonian(dims, params.kerr)
                        h[0] = h.get(0, np.zeros(len(kerr), dtype=complex)) + kerr
                        h = list(h.items())
                    rho = dynamics.lindblad_evolve(
                        h, c_ops, _bus_vacuum(rho, dims), t, dims=dump_dims
                    ).final
                    rho = hilbert.partial_trace(rho, dims, [0, 2])
                else:
                    h, c_ops = dynamics.network_operators(coupling[::2, ::2], gammas[::2], (d1, d2))
                    rho = dynamics.lindblad_evolve(h, c_ops, rho, t).final
            return rho

        # Every number read below sits at even q, so the dump propagates
        # only that half; rho_pass, the whole state, runs dump and post
        # again from the pump's output on first read.
        pumped = solve(rho, stages[:1], None)
        rho = solve(pumped, stages[1:], dims)
        # projective sector probabilities: diag rho summed by sector
        diag = np.real(np.diag(rho))
        sector_probs = np.bincount(_sector_index((d1, d2)), diag, len(SECTORS))
        # the cavities decay through the pump, dump and post windows alike
        t_exposed = sum(t for _, t in stages)
        alpha_dark = tuple(params.alpha * math.exp(-g * t_exposed / 2) for g in (gammas[0], gammas[2]))
        p_out, rho_gg = _fold(check, sector_probs, rho, (d1, d2))
        p_projective = p_out[0]
        tr = float(np.real(np.trace(rho_gg)))
        _require_herald(tr)
        words = _codewords(alpha_dark, (d1, d2))
        fid = codes._singlet_fidelity(rho_gg, (d1, d2))(*[(a, 0, 0) for a in alpha_dark])

        def build_rho_gg():
            rho_gg = _fold(check, sector_probs, solve(pumped, stages[1:], None), (d1, d2))[1]
            return rho_gg / float(np.real(np.trace(rho_gg)))

    return DmmResult(
        p_pass=float(p_out[0]),
        p_outcomes=dict(zip(OUTCOMES, p_out.tolist())),
        bell_fidelity=float(fid),
        codewords=words,
        bright_residual=float(
            dynamics.bright_mode_response(params.g_bs, params.kappa_b, t_dump)[0]
        ),
        t_dump=t_dump,
        engine=engine,
        p_pass_projective=float(p_projective),
        _build_rho_pass=lambda: QuantumState(build_rho_gg(), HilbertSpace((d1, d2))),
    )


def alpha_sweep(
    params: SystemParams,
    alphas,
    *,
    check: VacuumCheckModel | None = None,
    cavity_loss: bool = True,
    dump_time=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`run_dmm`'s herald numbers over an array of cat amplitudes,
    from one propagation of the network.

    The network is linear, so alpha only scales the labels and, squared,
    the dyad log-weights of the pair propagated once at alpha = 1; the
    analysis then runs on all the amplitudes at once.  Returns ``p_pass``
    and ``bell_fidelity``, each of shape (len(alphas),), and ``alpha_dark``
    of shape (len(alphas), 2), each cavity's analysis-basis amplitude.  Row
    k is exactly what ``run_dmm(dataclasses.replace(params,
    alpha=alphas[k]), check=check, cavity_loss=cavity_loss,
    dump_time=dump_time)`` reports, its ``alpha_dark`` row the
    ``basis.alpha`` of that run's ``codewords``; ``params.alpha`` itself is
    not read.  Like ``run_dmm``, an amplitude with no herald or no codewords
    (alpha = 0) raises ``NumericalError``.
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1 or not np.all(np.isfinite(alphas) & (alphas >= 0)):
        raise ValueError(f"alphas must be one list of finite non-negative numbers, got {alphas}")
    _, gammas, stages = _windows(params, cavity_loss, dump_time)
    dims = (params.dims[0], params.dims[2])
    check = check or VacuumCheckModel.ideal()
    h = _coherent_herald(alphas, _unit_pair(gammas, stages), check, dims)
    return h.p_out[:, 0], h.fidelity, h.alpha_dark


def phase_sweep(alpha: float, phis, times, g_bs: float, kappa_b: float) -> np.ndarray:
    """Herald-failure probability for inputs |alpha>, |alpha e^{i phi}>.

    Coherent inputs stay a single coherent product through the linear
    network, so the map is closed form.  Returns P(not gg)(phi, t), shape
    (len(phis), len(times)): phi = pi keeps everything dark (constant pass
    probability), phi = 0 is all-bright and drains to vacuum.
    """
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    times = np.atleast_1d(np.asarray(times, dtype=float))
    z0 = np.stack([alpha * np.ones_like(phis), np.zeros_like(phis), alpha * np.exp(1j * phis)])
    z = dynamics.langevin_solve(g_bs, 0.0, kappa_b, z0, times)  # (n_times, 3, n_phi)
    p_gg = (1 - np.exp(-np.abs(z[:, 0]) ** 2)) * (1 - np.exp(-np.abs(z[:, 2]) ** 2))
    return (1 - p_gg).T


# ---------------------------------------------------------------------------
# teleportation consuming the heralded pair
# ---------------------------------------------------------------------------

# correction selected by (m1, m2); m1 = 0/1 for transmon -/+, m2 = 0/1 for
# cavity-2 logical one/zero.  Derived from the singlet algebra and frozen:
# wrong entries here show up immediately as ideal-resource infidelity.
CORRECTIONS = {(0, 0): "I", (0, 1): "X", (1, 0): "Z", (1, 1): "Y"}

# the logical Paulis (codes module docstring) on the amplitudes (c0, c1) of
# c0|0>_L + c1|1>_L; each is hermitian, so it is its own correction
_PAULIS = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Z": np.array([[1, 0], [0, -1]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
}

CARDINAL_STATES = {
    "zero": (1.0, 0.0),
    "one": (0.0, 1.0),
    "plus": (1 / math.sqrt(2), 1 / math.sqrt(2)),
    "plus_i": (1 / math.sqrt(2), 1j / math.sqrt(2)),
}


@dataclass
class TeleportResult:
    probs: dict
    fidelities: dict
    f_qst: float
    input: tuple


def teleport(
    resource,
    input_qubit,
    words1: Codewords,
    words2: Codewords,
    p_decode: float = 0.0,
    p_flip_m1: float = 0.0,
) -> TeleportResult:
    """Teleport a transmon qubit onto cavity 1 through the heralded pair.

    The input qubit c0|g> + c1|e> sits on the module-2 transmon.  A
    controlled-parity gate (transmon controls photon parity of cavity 2,
    which acts as the logical X) entangles it with the pair; the transmon is
    then read out along X (outcome m1) and cavity 2 is decoded in the
    logical Z basis (outcome m2).  The Pauli correction for each (m1, m2)
    is :data:`CORRECTIONS`; fidelities are quoted against the corrected
    state, F = <psi| sigma rho sigma |psi>.

    ``p_decode`` flips m2 (imperfect cat decoding), ``p_flip_m1`` flips the
    transmon readout.  Cavity-2 population outside the codespace decodes as
    a fair coin, which is what an experiment's thresholding does on leaked
    shots.

    The transmon is never materialized.  Parity P is diagonal and the
    transmon enters only through its X readout, <b|m1|a> = s^(a+b) / 2 with
    s = -1 for m1 = 0 and +1 for m1 = 1, so gate and readout together act
    on cavity 2 as K = c0 K_0 + s c1 K_1 with K_0 = 1 and K_1 = P.  The
    record element O[m1, m2] = K^dag M_m2 K / 2, M_m2 the decode element,
    is therefore the bilinear form
    (1/2) sum_ab conj(c_a) c_b s^(a+b) K_a M_m2 K_b in the input.  The
    eight dyad-basis elements K_a M_m2 K_b, which do not depend on the
    input, are contracted with the pair at once
    (:func:`~darkbus.hilbert.condition`), and each record's unnormalized
    cavity-1 state is that bilinear combination of the eight results; the
    readout errors mix those states along their record axes.  The
    correction is scored in the logical frame: a logical Pauli acts on the
    code as the 2x2 Pauli on the amplitudes (c0, c1), so
    F = <v|rho1|v> / Tr rho1 with v the encoded sigma (c0, c1).
    """
    q = _unit_qubit(input_qubit)
    basis = _record_basis(resource, words1, words2, p_decode, p_flip_m1)
    return _teleport_input(basis, q, words1, p_decode, p_flip_m1)


def _unit_qubit(input_qubit) -> tuple:
    """The amplitudes (c0, c1) scaled to unit norm; zero or non-finite ones
    raise ``ValueError``."""
    c0, c1 = input_qubit
    norm = math.sqrt(abs(c0) ** 2 + abs(c1) ** 2)
    if not (math.isfinite(norm) and norm > 0):
        raise ValueError(f"input qubit must be finite and nonzero, got {input_qubit}")
    return c0 / norm, c1 / norm


def _record_basis(resource, words1: Codewords, words2: Codewords, p_decode, p_flip_m1):
    """Tr_2[(1 x K_a M_m2 K_b) rho12] for K_0 = 1 and K_1 = P, on axes
    (a, b, m2, cavity 1, cavity 1): every input's records are bilinear in
    these eight states (:func:`teleport`).  The pair's size and the readout
    error rates are checked first."""
    rho12 = hilbert.as_dm(resource)
    d1, d2 = words1.dim, words2.dim
    if rho12.shape[0] != d1 * d2:
        raise ValueError("resource state does not match the codeword truncations")
    if not (0 <= p_decode <= 1 and 0 <= p_flip_m1 <= 1):
        raise ValueError(
            f"p_decode and p_flip_m1 must be in [0, 1], got {p_decode} and {p_flip_m1}"
        )
    # cavity-2 logical Z decode, m2 = 0/1 for one/zero; leakage decodes 50/50
    pi_one = np.outer(words2.one, words2.one.conj())
    pi_zero = np.outer(words2.zero, words2.zero.conj())
    leak = np.eye(d2) - pi_one - pi_zero
    m_c2 = np.stack((pi_one, pi_zero)) + 0.5 * leak
    k = np.stack((np.ones(d2), (-1.0) ** np.arange(d2)))  # the diagonals of K_0, K_1
    ops = k[:, None, None, :, None] * m_c2 * k[None, :, None, None, :]
    return hilbert.condition(rho12, (d1, d2), ops)


def _teleport_input(basis, q, words1: Codewords, p_decode, p_flip_m1) -> TeleportResult:
    """Score the unit input ``q`` from the pair's :func:`_record_basis`."""
    c = np.array(q, dtype=complex)
    sc = np.array([[-1.0], [1.0]]) ** np.arange(2)  # s^a on (m1, a)
    w = 0.5 * (sc * c.conj())[:, :, None] * (sc * c)[:, None, :]  # (m1, a, b)
    cond = np.tensordot(w, basis, axes=2)  # (m1, m2, cavity 1, cavity 1)

    # classical readout errors mix the records, not the states
    cond = (1 - p_flip_m1) * cond + p_flip_m1 * cond[::-1]
    cond = (1 - p_decode) * cond + p_decode * cond[:, ::-1]

    tr = np.real(np.trace(cond, axis1=2, axis2=3))
    total = tr.sum()
    probs, fids = {}, {}
    f_qst = 0.0
    for key, name in CORRECTIONS.items():
        v = words1.ket(*(_PAULIS[name] @ q))
        p = float(tr[key] / total)
        f = float(np.real(v.conj() @ cond[key] @ v) / tr[key])
        probs[key], fids[key] = p, f
        f_qst += p * f
    return TeleportResult(probs=probs, fidelities=fids, f_qst=f_qst, input=q)


def avg_qst_fidelity(
    resource,
    words1: Codewords,
    words2: Codewords,
    p_decode: float = 0.0,
    p_flip_m1: float = 0.0,
) -> dict:
    """Average teleportation fidelity over the cardinal inputs.

    favg = (F_0 + F_1 + 2 F_+ + 2 F_{+i}) / 6 -- the +/-X and +/-Y pairs are
    symmetric, so the four measured inputs stand in for all six.  The pair
    is contracted once, with the eight dyad-basis elements of
    :func:`teleport`, and every input is scored from those eight states;
    each entry equals :func:`teleport` on that input."""
    basis = _record_basis(resource, words1, words2, p_decode, p_flip_m1)
    out = {
        name: _teleport_input(basis, _unit_qubit(q), words1, p_decode, p_flip_m1)
        for name, q in CARDINAL_STATES.items()
    }
    out["favg"] = (
        out["zero"].f_qst
        + out["one"].f_qst
        + 2 * out["plus"].f_qst
        + 2 * out["plus_i"].f_qst
    ) / 6
    return out


# ---------------------------------------------------------------------------
# repeat-until-success statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiroundStats:
    p_success: float
    t_attempt: float
    t_reset: float
    mean_attempts: float
    mean_wait: float
    rate_hz: float

    def attempts_quantile(self, q: float) -> int:
        """Geometric quantile: attempts needed with probability >= q."""
        if not 0 < q < 1:
            raise ValueError("q must be in (0,1)")
        if self.p_success == 1:
            return 1  # every attempt succeeds
        # log1p, as 1 - x rounds to 1 for x below about 1e-16; at least one
        # attempt is always needed
        attempts = math.log1p(-q) / math.log1p(-self.p_success)
        if attempts == math.inf:
            raise ValueError(
                f"the {q} quantile of attempts overflows a float at p_success = {self.p_success}"
            )
        return max(1, math.ceil(attempts))


def multiround_stats(p_success: float, t_attempt: float, t_reset: float = 0.0) -> MultiroundStats:
    """Expected cost of repeat-until-success heralding.

    Attempts are geometric with mean 1/p; each failed attempt costs
    t_attempt + t_reset, the final (successful) one only t_attempt, so the
    expected wait is (t_attempt + t_reset)/p - t_reset and the average
    entanglement rate is p / (t_attempt + t_reset).
    """
    if not 0 < p_success <= 1:
        raise ValueError(f"p_success must be in (0, 1], got {p_success}")
    if 1 / p_success == math.inf:
        raise ValueError(f"p_success = {p_success} is too small: 1/p_success overflows a float")
    if t_attempt <= 0 or t_reset < 0:
        raise ValueError("t_attempt must be positive and t_reset non-negative")
    cycle = t_attempt + t_reset
    mean_wait = cycle / p_success - t_reset
    return MultiroundStats(
        p_success=p_success,
        t_attempt=t_attempt,
        t_reset=t_reset,
        mean_attempts=1.0 / p_success,
        mean_wait=mean_wait,
        rate_hz=p_success / cycle,
    )


# ---------------------------------------------------------------------------
# single-photon (dual-rail) variant
# ---------------------------------------------------------------------------


@dataclass
class DualRailResult:
    rho_pair: np.ndarray
    trace_distance: float
    converged: bool
    p_herald: float
    fidelity: float


def dual_rail_target(dim: int = 2) -> np.ndarray:
    """(1/2)|Psi><Psi| + (1/2)|00><00| with Psi = (|10>-|01>)/sqrt(2).

    What pumping one photon into cavity 1 and letting the bright half drain
    through the bus leaves behind: the surviving half is the dark
    single-photon Bell state, and there is exactly no coherence between the
    photon sector and vacuum."""
    psi = np.zeros(dim * dim, dtype=complex)
    psi[1 * dim + 0] = 1 / math.sqrt(2)   # |1 0>
    psi[0 * dim + 1] = -1 / math.sqrt(2)  # |0 1>
    vac = np.zeros(dim * dim, dtype=complex)
    vac[0] = 1.0
    return 0.5 * np.outer(psi, psi.conj()) + 0.5 * np.outer(vac, vac.conj())


def dual_rail_distill(rho_pair) -> tuple[float, np.ndarray]:
    """Herald on odd joint parity in both modules across two copies.

    Mode order of the output is (A1, A2, B1, B2): copy A spans the two
    modules, copy B likewise, and module k measures parity of (Ak, Bk)
    jointly.  Double-odd keeps only the both-copies-have-a-photon branch
    and projects it onto (|1001> + |0110>)/sqrt(2).

    Both parity checks are diagonal in the Fock basis, so the heralded
    state is the two-copy state with every entry zeroed whose row or column
    has even A1 + B1 or even A2 + B2 photon number.
    """
    rho = hilbert.as_dm(rho_pair)
    d = int(round(math.sqrt(rho.shape[0])))
    heralded = np.kron(rho, rho)  # modes (A1, A2, B1, B2)
    a1, a2, b1, b2 = np.indices((d, d, d, d)).reshape(4, -1)
    even = ((a1 + b1) % 2 == 0) | ((a2 + b2) % 2 == 0)
    heralded[even] = 0
    heralded[:, even] = 0
    p = float(np.real(np.trace(heralded)))
    return p, heralded / p if p > 0 else heralded


def dual_rail_dmm(
    params: SystemParams | None = None, t_final: float | None = None
) -> DualRailResult:
    """Single-photon variant: pump |1> into cavity 1, let the bus drain the
    bright half, then distill two copies by joint parity checks.

    The photon's amplitudes are one column of the linear propagator,
    psi = E(t_final)[:, cav1], and a lost photon leaves vacuum, so the pair
    is exactly psi_cav1 |10> + psi_cav2 |01> plus the missing weight on |00>
    (materialized at dim 2, which holds the one-photon sector exactly).  Its
    steady state is :func:`dual_rail_target`, half dark Bell state, half
    vacuum; the double-odd parity herald then fires with probability 1/8 and
    leaves (|1001> + |0110>)/sqrt(2).  ``converged`` means trace distance
    below 1e-3 to that steady state.  The default window is 20 amplitude
    lifetimes of the *slow* bright-sector eigenvalue, which is what actually
    limits the approach to steady state in every damping regime.  Only
    ``params.g_bs`` and ``params.kappa_b`` enter.
    """
    params = params or SystemParams()
    g_bs, kappa_b = params.g_bs, params.kappa_b
    if t_final is None:
        if kappa_b > 0:
            slow, _ = dynamics.damping_rates(g_bs, kappa_b)
            t_final = 20.0 / abs(slow.real)
        else:
            t_final = 20.0 / (dynamics.TWO_PI * g_bs)
    if not t_final > 0:
        raise ValueError(f"t_final must be positive, got {t_final}")
    psi = dynamics.langevin_solve(g_bs, 0.0, kappa_b, [1.0, 0.0, 0.0], t_final)[0]
    d = 2
    phi = np.zeros(d * d, dtype=complex)
    phi[1 * d + 0] = psi[0]  # |1 0>
    phi[0 * d + 1] = psi[2]  # |0 1>
    rho = np.outer(phi, phi.conj())
    rho[0, 0] += 1 - abs(psi[0]) ** 2 - abs(psi[2]) ** 2
    td = hilbert.trace_distance(rho, dual_rail_target(d))
    converged = bool(td < 1e-3)

    p, rho_dist = dual_rail_distill(rho)
    target = np.zeros(d**4, dtype=complex)
    target[((1 * d + 0) * d + 0) * d + 1] = 1 / math.sqrt(2)  # |1 0 0 1>
    target[((0 * d + 1) * d + 1) * d + 0] = 1 / math.sqrt(2)  # |0 1 1 0>
    fid = float(np.real(target.conj() @ rho_dist @ target))
    return DualRailResult(
        rho_pair=rho,
        trace_distance=td,
        converged=converged,
        p_herald=p,
        fidelity=fid,
    )
