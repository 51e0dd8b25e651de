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
the entire pre-measurement evolution is solved exactly by the
coherent-superposition engine in :mod:`.dynamics` -- four coherent
components, no Fock truncation, milliseconds of work.  The master-equation
density-matrix engine is kept behind ``engine="lindblad"`` as an
independent cross-check at reduced truncations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import codes, dynamics, hilbert
from .codes import Codewords, LogicalBasis
from .dynamics import CoherentSuperposition, SystemParams, TimeGrid
from .hilbert import HilbertSpace, NumericalError, QuantumState

OUTCOMES = ("gg", "ge", "eg", "ee")


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
    p_e_given_vacuum:
        complement of the above (the check has two outcomes).  May be left
        ``None`` to be derived; if given it must agree.
    p_e_given_occupied:
        probability of (wrongly) reporting ``e`` on an occupied cavity --
        the false-fail channel (readout/thermal errors), which costs
        success probability but not heralded fidelity.
    correlation_factor:
        multiplies the *joint* gg probability when both cavities are in
        vacuum; measured joint false-pass rates exceed the product of the
        marginals, and this single number captures that.  Marginals are
        preserved by construction.
    """

    p_g_given_empty: tuple[float, float] = (0.0, 0.0)
    p_e_given_vacuum: tuple[float, float] | None = None
    p_e_given_occupied: tuple[float, float] = (0.0, 0.0)
    correlation_factor: float = 1.0

    def __post_init__(self):
        pg = tuple(float(p) for p in self.p_g_given_empty)
        object.__setattr__(self, "p_g_given_empty", pg)
        pe = self.p_e_given_vacuum
        pe = tuple(1.0 - p for p in pg) if pe is None else tuple(float(p) for p in pe)
        object.__setattr__(self, "p_e_given_vacuum", pe)
        object.__setattr__(
            self, "p_e_given_occupied", tuple(float(p) for p in self.p_e_given_occupied)
        )
        for pair in (self.p_g_given_empty, self.p_e_given_vacuum, self.p_e_given_occupied):
            if len(pair) != 2 or any(not 0 <= p <= 1 for p in pair):
                raise ValueError(f"per-module probabilities must be two values in [0,1], got {pair}")
        if any(abs(g + e - 1) > 1e-12 for g, e in zip(pg, pe)):
            raise ValueError("p_g_given_empty and p_e_given_vacuum must sum to 1 per module")
        # the correlated both-vacuum table must still be a distribution
        p1, p2 = pg
        pgg = self.correlation_factor * p1 * p2
        if p1 * p2 > 0 and not (0 <= pgg <= min(p1, p2) and 1 - p1 - p2 + pgg >= 0):
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
            correlation_factor=0.015 / (0.07 * 0.05),
        )

    def joint_pass_table(self, sector: tuple[str, str]) -> dict:
        """P(outcome | sector) for sector in {'V','N'}^2, outcomes gg/ge/eg/ee."""
        s1, s2 = sector
        p1 = self.p_g_given_empty[0] if s1 == "V" else 1 - self.p_e_given_occupied[0]
        p2 = self.p_g_given_empty[1] if s2 == "V" else 1 - self.p_e_given_occupied[1]
        if sector == ("V", "V"):
            pgg = self.correlation_factor * p1 * p2
        else:
            pgg = p1 * p2
        return {
            "gg": pgg,
            "ge": p1 - pgg,
            "eg": p2 - pgg,
            "ee": 1 - p1 - p2 + pgg,
        }


SECTORS = (("V", "V"), ("V", "N"), ("N", "V"), ("N", "N"))


def _fold(model: VacuumCheckModel, sector_probs: dict, sector_state=None, outcome="gg"):
    """Fold the ideal projective sectors through the confusion model.

    Returns the outcome probabilities and, when ``sector_state`` is given,
    the unnormalized state of ``outcome``: the sum of P(outcome | s) rho_s
    over the sectors.  ``sector_state(s)`` builds rho_s and is called only
    for sectors with positive probability and nonzero weight; the state is
    None when no sector contributes.
    """
    p_out = dict.fromkeys(OUTCOMES, 0.0)
    rho = None
    for s in SECTORS:
        ps = sector_probs[s]
        if ps <= 0:
            continue
        table = model.joint_pass_table(s)
        for o in OUTCOMES:
            p_out[o] += table[o] * ps
        w = table[outcome]
        if sector_state is not None and w != 0:
            term = w * sector_state(s)
            rho = term if rho is None else rho + term
    return p_out, rho


# ---------------------------------------------------------------------------
# success probability and false-positive bookkeeping (closed forms)
# ---------------------------------------------------------------------------


def success_probability(alpha: float) -> float:
    """Ideal herald probability p = (1 - e^{-|alpha|^2})^2 / 2.

    Half the weight starts dark, and each cavity of the dark branch passes
    the not-empty check with probability 1 - e^{-|alpha|^2}.
    """
    return 0.5 * (1 - math.exp(-abs(alpha) ** 2)) ** 2


def dmm_false_positive(p_gg_bright: float, p_gg_dark: float) -> float:
    """Fraction of heralds that are dumped-bright impostors."""
    if p_gg_bright < 0 or p_gg_dark < 0:
        raise ValueError("probabilities cannot be negative")
    tot = p_gg_bright + p_gg_dark
    return p_gg_bright / tot if tot > 0 else 0.0


# ---------------------------------------------------------------------------
# the protocol itself
# ---------------------------------------------------------------------------


@dataclass
class DmmResult:
    """Everything the herald produced.

    ``p_pass`` is the gg outcome probability under the protocol's branch
    bookkeeping (see :func:`run_dmm`), ``rho_pass`` the normalized
    two-cavity state that gg heralds, ``bell_fidelity`` its overlap with the
    logical Bell target in ``basis_used``.  ``p_outcomes`` holds all four
    outcome probabilities; the states of the discarded outcomes are never
    built.
    ``p_pass_projective`` is the raw trace of the projected gg branch,
    which retains the interference between the two dark components; the
    difference from ``p_pass`` is below a percent at useful amplitudes.
    """

    p_pass: float
    p_outcomes: dict
    rho_pass: QuantumState
    bell_fidelity: float
    basis_used: tuple[LogicalBasis, LogicalBasis]
    alpha_dark: tuple[float, float]
    bright_residual: float
    t_dump: float
    engine: str
    p_pass_projective: float = 0.0
    sector_probs: dict = field(default_factory=dict)
    edge_population: dict = field(default_factory=dict)


def _initial_superposition(alpha: float) -> CoherentSuperposition:
    """(|a> + i|-a>)_1 |0>_b (|a> - i|-a>)_2 as four coherent components.

    Components (a,0,a) and (-a,0,-a) are purely bright, (a,0,-a) and
    (-a,0,a) purely dark; the cross norms make the overall norm exactly 2,
    hence the coefficient 1/2.
    """
    a = alpha
    labels = np.array(
        [[a, 0, a], [a, 0, -a], [-a, 0, a], [-a, 0, -a]], dtype=complex
    )
    coeffs = np.array([1, -1j, 1j, 1], dtype=complex) / 2
    return CoherentSuperposition(labels=labels, coeffs=coeffs)


def _vacuum_amp(z):
    """<0|z> for unnormalized-exact coherent amplitudes."""
    return np.exp(-np.abs(z) ** 2 / 2)


def _sector_weights_coherent(sup: CoherentSuperposition, diagonal: bool):
    """Probabilities of the four (V/N, V/N) cavity sectors.

    The bus has already been traced into the dyad matrix by the caller;
    per-cavity dyad traces are <z_j|z_i> for the full mode, v(z_i) v(z_j)*
    for the vacuum part, and their difference for the not-vacuum part.

    ``diagonal=True`` keeps only the i == j terms -- the components are
    treated as classical alternatives, which is the bookkeeping of the
    calibrated check model (per-cavity marginals plus a correlation
    factor).  ``diagonal=False`` is the full projective trace including
    the interference between overlapping dark components.
    """
    z1, z2 = sup.labels[:, 0], sup.labels[:, 1]
    a = np.outer(sup.coeffs, sup.coeffs.conj()) * sup.weights
    if diagonal:
        a = np.diag(np.diag(a))

    def factors(z):
        full = dynamics.coherent_overlaps(z[:, None])
        vac = np.outer(_vacuum_amp(z), _vacuum_amp(z).conj())
        return {"V": vac, "N": full - vac}

    f1, f2 = factors(z1), factors(z2)
    probs = {}
    for s in SECTORS:
        probs[s] = float(np.real(np.sum(a * f1[s[0]] * f2[s[1]])))
    return probs


def _sector_states_coherent(sup: CoherentSuperposition, dims):
    """Builder of the projected sector states as Fock density matrices.

    Returns ``s -> rho_s`` (shape d1*d2 square) for a sector s in
    {'V','N'}^2.  The per-cavity vacuum and not-vacuum kets of every
    component are computed once and shared by all sectors.
    """

    def kets(z, d):
        vac = _vacuum_amp(z)
        empty = np.zeros((len(z), d), dtype=complex)
        empty[:, 0] = vac
        occupied = np.array([hilbert.coherent(d, zi, normalized=False) for zi in z])
        occupied[:, 0] -= vac
        return {"V": empty, "N": occupied}

    k1 = kets(sup.labels[:, 0], dims[0])
    k2 = kets(sup.labels[:, 1], dims[1])
    a = np.outer(sup.coeffs, sup.coeffs.conj()) * sup.weights

    def state(sector):
        full = np.einsum("ia,ib->iab", k1[sector[0]], k2[sector[1]])
        full = full.reshape(sup.n_components, dims[0] * dims[1])
        return full.T @ a @ full.conj()

    return state


def vacuum_check(state: QuantumState, model: VacuumCheckModel | None = None):
    """Apply the two-module vacuum check to a cavity pair.

    Accepts either a two-mode (cav1, cav2) state or the full three-mode
    (cav1, bus, cav2) state, in which case the bus is traced out first.
    Returns ``(p_outcomes, states, sector_probs)`` where ``states`` maps each
    outcome to the normalized post-measurement QuantumState (None when the
    outcome has zero probability).  Sector probabilities here are the
    projective traces of the V/N decomposition -- on a density matrix there
    is no component structure left to treat classically.
    """
    model = model or VacuumCheckModel.ideal()
    if state.space.n_modes == 3 and "bus" in state.space.labels:
        state = state.ptrace(("cav1", "cav2"))
    if state.space.n_modes != 2:
        raise ValueError("vacuum_check expects a two-cavity state (or cav1/bus/cav2)")
    sector_probs, sector_states = _projected_sectors(state.dm(), state.space.dims)
    states = {}
    for o in OUTCOMES:
        p_out, rho_o = _fold(model, sector_probs, sector_states.__getitem__, o)
        if rho_o is not None and p_out[o] > 1e-15:
            states[o] = QuantumState(rho_o / np.trace(rho_o), state.space)
        else:
            states[o] = None
    return p_out, states, sector_probs


def _projected_sectors(rho: np.ndarray, dims):
    """Probabilities and projected states of the V/N sectors of a two-cavity
    density matrix.  The projectors are diagonal, so projecting is masking."""
    n1, n2 = np.arange(dims[0]), np.arange(dims[1])
    side = {"V": (n1 == 0, n2 == 0), "N": (n1 != 0, n2 != 0)}
    sector_probs, sector_states = {}, {}
    for s in SECTORS:
        keep = np.outer(side[s[0]][0], side[s[1]][1]).ravel()
        rs = rho * np.outer(keep, keep)
        sector_probs[s] = float(np.real(np.trace(rs)))
        sector_states[s] = rs
    return sector_probs, sector_states


def run_dmm(
    params: SystemParams | None = None,
    *,
    alpha: float | None = None,
    check: VacuumCheckModel | None = None,
    cavity_loss: bool = True,
    dump_time=None,
    basis="auto",
    engine: str = "coherent",
    include_kerr: bool = False,
) -> DmmResult:
    """Simulate one full heralding attempt and analyze the gg branch.

    Outcome rates vs conditioned states, coherent engine: the four coherent
    components are treated as classical alternatives when computing outcome
    probabilities -- each component contributes its own per-cavity
    vacuum/not-vacuum weights, which the check model's marginals and
    correlation factor then mix.  This matches how the check is calibrated
    and makes the ideal p_pass land exactly on
    ``success_probability(alpha)``.  The conditioned states keep all
    coherences (full projections), so the ideal pass branch is exactly the
    logical Bell state.  The interference between the two overlapping dark
    components shifts the raw projected trace by about
    -q^2 (1-q)^2 / 2 with q = exp(-alpha^2) (-0.7% absolute at
    alpha = sqrt(2)); that trace is reported as ``p_pass_projective``.
    The lindblad engine has no component decomposition, so its rates are
    projective and agree with ``p_pass_projective``, not ``p_pass``.  Both
    engines build only the gg state, from the sectors the check can report
    as gg; the other outcomes are kept as probabilities.

    Parameters
    ----------
    params:
        :class:`~darkbus.dynamics.SystemParams`; defaults describe the
        reference hardware.
    alpha:
        Overrides ``params.alpha`` when given.
    check:
        Vacuum-check confusion model (default: ideal projective check).
    cavity_loss:
        Include 1/T1 loss on both cavities through the pump, dump and
        readout windows (t_protocol of exposure in total).
    dump_time:
        Seconds, or "auto" to hold the coupling until the bright mode is
        actually empty (first zero of its response when underdamped, decay
        below 1e-4 otherwise), or None for params.t_dump.
    basis:
        "auto" sets the analysis cat amplitude to the surviving dark
        component of each cavity (absorbing deterministic shrinkage, as an
        experiment's basis calibration would); or pass a
        (LogicalBasis, LogicalBasis) pair.
    engine:
        "coherent" -- exact, truncation-free propagation of the four-component
        coherent superposition (the default; fast at any dims);
        "lindblad" -- exact master-equation propagation at params.dims, kept
        as an independent cross-check (cost grows as dim^2; use reduced dims).
    include_kerr:
        Add the self-Kerr Hamiltonian during the dump window.  Only the
        lindblad engine can do this (Kerr breaks the coherent-superposition
        closure); the coherent engine raises.
    """
    params = params or SystemParams()
    if alpha is not None:
        params = params.with_(alpha=float(alpha))
    check = check or VacuumCheckModel.ideal()
    if dump_time == "auto":
        t_dump = dynamics.auto_dump_time(params.g_bs, params.kappa_b)
    else:
        t_dump = params.t_dump if dump_time is None else float(dump_time)
    t_post = max(params.t_protocol - params.t_pump - t_dump, 0.0)

    gammas = np.array(
        [params.gamma_cavity[0], params.kappa_ang, params.gamma_cavity[1]]
    )
    if not cavity_loss:
        gammas = gammas * np.array([0.0, 1.0, 0.0])

    if engine == "coherent":
        if include_kerr:
            raise ValueError(
                "the coherent engine cannot evolve self-Kerr; use engine='lindblad' "
                "or absorb Kerr into the analysis basis"
            )
        sup = _initial_superposition(params.alpha)
        a_mat = dynamics.coupling_matrix(params.g_bs)
        zero = np.zeros_like(a_mat)
        stages = [(zero, params.t_pump), (a_mat, t_dump), (zero, t_post)]
        for coupling, t in stages:
            if t <= 0:
                continue
            e, q = dynamics.linear_propagator(coupling, gammas, t)
            sup = dynamics.propagate_coherent(sup, e, q)
        pair = dynamics.ptrace_coherent(sup, keep=[0, 2])
        d1, d2 = params.dims[0], params.dims[2]
        sector_probs = _sector_weights_coherent(pair, diagonal=True)
        p_out, rho_gg = _fold(check, sector_probs, _sector_states_coherent(pair, (d1, d2)))
        p_exact, _ = _fold(check, _sector_weights_coherent(pair, diagonal=False))
        p_pass_projective = p_exact["gg"]
        alpha_dark = (abs(pair.labels[1, 0]), abs(pair.labels[1, 1]))
        pair_space = HilbertSpace((d1, d2), ("cav1", "cav2"))
    elif engine == "lindblad":
        space = params.space()
        psi0 = codes.initial_protocol_ket(space, params.alpha)
        h_dump = dynamics.coupling_hamiltonian(space, params.g_bs)
        if include_kerr:
            h_dump = hilbert.Operator(
                h_dump.matrix + dynamics.kerr_hamiltonian(space, params.kerr).matrix,
                space,
            )
        c_ops = dynamics.collapse_operators(space, params, cavity_loss=cavity_loss)
        state = psi0
        h_zero = hilbert.Operator(0.0 * space.identity(sparse=True), space)
        for h, t in ((h_zero, params.t_pump), (h_dump, t_dump), (h_zero, t_post)):
            if t <= 0:
                continue
            state = dynamics.lindblad_evolve(
                h, c_ops, state, TimeGrid(np.array([0.0, t]))
            ).final
        pair_state = state.ptrace(("cav1", "cav2"))
        pair_space = pair_state.space
        d1, d2 = pair_space.dims
        sector_probs, sector_states = _projected_sectors(pair_state.dm(), (d1, d2))
        p_out, rho_gg = _fold(check, sector_probs, sector_states.__getitem__)
        p_pass_projective = p_out["gg"]
        shrink = (
            math.exp(-params.gamma_cavity[0] * params.t_protocol / 2),
            math.exp(-params.gamma_cavity[1] * params.t_protocol / 2),
        ) if cavity_loss else (1.0, 1.0)
        alpha_dark = (params.alpha * shrink[0], params.alpha * shrink[1])
    else:
        raise ValueError(f"unknown engine {engine!r}")

    if rho_gg is None:
        raise NumericalError("protocol: herald has zero probability, nothing to analyze")

    if basis == "auto":
        basis_pair = (LogicalBasis(alpha_dark[0]), LogicalBasis(alpha_dark[1]))
    else:
        basis_pair = tuple(basis)
    words1 = basis_pair[0].codewords(d1)
    words2 = basis_pair[1].codewords(d2)
    bell = codes.bell_state(words1, words2)
    tr = float(np.real(np.trace(rho_gg)))
    fid = float(np.real(bell.conj() @ rho_gg @ bell) / tr)
    rho_n = QuantumState(rho_gg / tr, pair_space)

    return DmmResult(
        p_pass=p_out["gg"],
        p_outcomes=p_out,
        rho_pass=rho_n,
        bell_fidelity=fid,
        basis_used=basis_pair,
        alpha_dark=alpha_dark,
        bright_residual=float(
            dynamics.bright_mode_response(params.g_bs, params.kappa_b, t_dump)[0]
        ),
        t_dump=t_dump,
        engine=engine,
        p_pass_projective=p_pass_projective,
        sector_probs=sector_probs,
        edge_population=hilbert.edge_population(rho_n),
    )


def bell_fidelity(rho, words1: Codewords, words2: Codewords) -> float:
    """Overlap of a two-cavity state with the logical Bell (singlet) target."""
    bell = codes.bell_state(words1, words2)
    rho = hilbert.as_dm(rho)
    tr = float(np.real(np.trace(rho)))
    return float(np.real(bell.conj() @ rho @ bell) / tr)


def phase_sweep(alpha: float, phis, times, g_bs: float, kappa_b: float) -> np.ndarray:
    """Herald-failure probability for inputs |alpha>, |alpha e^{i phi}>.

    Coherent inputs stay a single coherent product through the linear
    network, so the map is closed form.  Returns P(not gg)(phi, t), shape
    (len(phis), len(times)): phi = pi keeps everything dark (constant pass
    probability), phi = 0 is all-bright and drains to vacuum.
    """
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    times = np.atleast_1d(np.asarray(times, dtype=float))
    gam = np.array([0.0, dynamics.TWO_PI * kappa_b, 0.0])
    a_mat = dynamics.coupling_matrix(g_bs)
    z0 = np.stack(
        [alpha * np.ones_like(phis), np.zeros_like(phis), alpha * np.exp(1j * phis)]
    )  # (3, n_phi)
    e, _ = dynamics.linear_propagator(a_mat, gam, times)
    z = e @ z0  # (n_times, 3, n_phi)
    p_gg = (1 - np.exp(-np.abs(z[:, 0]) ** 2)) * (1 - np.exp(-np.abs(z[:, 2]) ** 2))
    return (1 - p_gg).T


# ---------------------------------------------------------------------------
# teleportation consuming the heralded pair
# ---------------------------------------------------------------------------

# correction selected by (m1, m2); m1 = 0/1 for transmon -/+, m2 = 0/1 for
# cavity-2 logical one/zero.  Derived from the singlet algebra and frozen:
# wrong entries here show up immediately as ideal-resource infidelity.
CORRECTIONS = {(0, 0): "I", (0, 1): "X", (1, 0): "Z", (1, 1): "Y"}

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
    """
    rho12 = hilbert.as_dm(resource)
    d1, d2 = words1.dim, words2.dim
    if rho12.shape[0] != d1 * d2:
        raise ValueError("resource state does not match the codeword truncations")
    c0, c1 = input_qubit
    norm = math.sqrt(abs(c0) ** 2 + abs(c1) ** 2)
    c0, c1 = c0 / norm, c1 / norm

    ket_t = np.array([c0, c1], dtype=complex)
    rho = np.kron(rho12, np.outer(ket_t, ket_t.conj()))

    # controlled parity: |g><g| x I + |e><e| x parity(cav2)
    par2 = hilbert.parity(d2)
    i1 = np.eye(d1)
    pg = np.diag([1.0, 0.0]).astype(complex)
    pe = np.diag([0.0, 1.0]).astype(complex)
    u = np.kron(i1, np.kron(np.eye(d2), pg)) + np.kron(i1, np.kron(par2, pe))
    rho = u @ rho @ u.conj().T

    # transmon X readout
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / math.sqrt(2)
    m_t = {0: np.outer(minus, minus.conj()), 1: np.outer(plus, plus.conj())}

    # cavity-2 logical Z decode; leakage decodes 50/50
    pi_one = np.outer(words2.one, words2.one.conj())
    pi_zero = np.outer(words2.zero, words2.zero.conj())
    leak = np.eye(d2) - pi_one - pi_zero
    m_c2 = {0: pi_one + 0.5 * leak, 1: pi_zero + 0.5 * leak}

    paulis = codes.logical_paulis(words1)
    target = words1.ket(c0, c1)

    # unnormalized conditioned cavity-1 states
    cond = {}
    for m1 in (0, 1):
        for m2 in (0, 1):
            meas = np.kron(i1, np.kron(m_c2[m2], m_t[m1]))
            sel = meas @ rho
            cond[(m1, m2)] = hilbert.partial_trace(sel, (d1, d2, 2), keep=[0])

    # classical readout errors mix the records, not the states
    if p_flip_m1 > 0:
        cond = {
            (m1, m2): (1 - p_flip_m1) * cond[(m1, m2)] + p_flip_m1 * cond[(1 - m1, m2)]
            for m1 in (0, 1)
            for m2 in (0, 1)
        }
    if p_decode > 0:
        cond = {
            (m1, m2): (1 - p_decode) * cond[(m1, m2)] + p_decode * cond[(m1, 1 - m2)]
            for m1 in (0, 1)
            for m2 in (0, 1)
        }

    probs, fids = {}, {}
    total = sum(np.real(np.trace(c)) for c in cond.values())
    f_qst = 0.0
    for key, rho1 in cond.items():
        p = float(np.real(np.trace(rho1))) / total
        sigma = paulis[CORRECTIONS[key]]
        corrected = sigma @ rho1 @ sigma.conj().T
        f = float(np.real(target.conj() @ corrected @ target) / np.real(np.trace(rho1)))
        probs[key], fids[key] = p, f
        f_qst += p * f
    return TeleportResult(probs=probs, fidelities=fids, f_qst=f_qst, input=(c0, c1))


def avg_qst_fidelity(
    resource,
    words1: Codewords,
    words2: Codewords,
    p_decode: float = 0.0,
    p_flip_m1: float = 0.0,
) -> dict:
    """Average teleportation fidelity over the cardinal inputs.

    favg = (F_0 + F_1 + 2 F_+ + 2 F_{+i}) / 6 -- the +/-X and +/-Y pairs are
    symmetric, so the four measured inputs stand in for all six."""
    out = {}
    for name, q in CARDINAL_STATES.items():
        out[name] = teleport(resource, q, words1, words2, p_decode, p_flip_m1)
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
        return math.ceil(math.log(1 - q) / math.log(1 - self.p_success))


def multiround_stats(p_success: float, t_attempt: float, t_reset: float = 0.0) -> MultiroundStats:
    """Expected cost of repeat-until-success heralding.

    Attempts are geometric with mean 1/p; each failed attempt costs
    t_attempt + t_reset, the final (successful) one only t_attempt, so the
    expected wait is (t_attempt + t_reset)/p - t_reset and the average
    entanglement rate is p / (t_attempt + t_reset).
    """
    if not 0 < p_success <= 1:
        raise ValueError("p_success must be in (0, 1]")
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
    rho_pair: QuantumState
    trace_distance: float
    converged: bool
    p_herald: float
    rho_distilled: QuantumState
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
    """
    rho = hilbert.as_dm(rho_pair)
    d = int(round(math.sqrt(rho.shape[0])))
    rho2 = np.kron(rho, rho)  # modes (A1, A2, B1, B2)
    par = np.diag((-1.0) ** np.arange(d)).astype(complex)
    eye = np.eye(d, dtype=complex)
    p_mod1 = np.kron(np.kron(par, eye), np.kron(par, eye))
    p_mod2 = np.kron(np.kron(eye, par), np.kron(eye, par))
    full = np.eye(d**4)
    pi = 0.25 * (full - p_mod1) @ (full - p_mod2)
    heralded = pi @ rho2 @ pi
    p = float(np.real(np.trace(heralded)))
    return p, heralded / p if p > 0 else heralded


def dual_rail_dmm(
    g_bs: float = 160e3,
    kappa_b: float = 600e3,
    t_final: float | None = None,
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
    limits the approach to steady state in every damping regime.
    """
    if t_final is None:
        if kappa_b > 0:
            slow, _ = dynamics.damping_rates(g_bs, kappa_b)
            t_final = 20.0 / abs(slow.real)
        else:
            t_final = 20.0 / (dynamics.TWO_PI * g_bs)
    if not t_final > 0:
        raise ValueError(f"t_final must be positive, got {t_final}")
    e, _ = dynamics.linear_propagator(
        dynamics.coupling_matrix(g_bs), (0.0, dynamics.TWO_PI * kappa_b, 0.0), t_final
    )
    psi = e[:, 0]
    d = 2
    phi = np.zeros(d * d, dtype=complex)
    phi[1 * d + 0] = psi[0]  # |1 0>
    phi[0 * d + 1] = psi[2]  # |0 1>
    rho = np.outer(phi, phi.conj())
    rho[0, 0] += 1 - abs(psi[0]) ** 2 - abs(psi[2]) ** 2
    rho_pair = QuantumState(rho, HilbertSpace((d, d), ("cav1", "cav2")))
    td = hilbert.trace_distance(rho_pair, dual_rail_target(d))
    converged = bool(td < 1e-3)

    p, rho_dist = dual_rail_distill(rho_pair)
    target = np.zeros(d**4, dtype=complex)
    target[((1 * d + 0) * d + 0) * d + 1] = 1 / math.sqrt(2)  # |1 0 0 1>
    target[((0 * d + 1) * d + 1) * d + 0] = 1 / math.sqrt(2)  # |0 1 1 0>
    fid = float(np.real(target.conj() @ rho_dist @ target))
    four_space = HilbertSpace((d, d, d, d), ("A1", "A2", "B1", "B2"))
    return DualRailResult(
        rho_pair=rho_pair,
        trace_distance=td,
        converged=converged,
        p_herald=p,
        rho_distilled=QuantumState(rho_dist, four_space),
        fidelity=fid,
    )
