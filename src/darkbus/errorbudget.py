"""Closed-form infidelity budget for the heralded pair.

Three effects dominate and they scale against each other in alpha, so the
budget doubles as an optimizer for the cat amplitude:

* photon loss -- each cavity holds n = alpha^2 photons for the full
  protocol window, and losing any one of them scrambles the logical state:
  p = alpha^2 t (1/T1_1 + 1/T1_2).  Grows with alpha.
* decode errors -- imperfect logical readout of the analysis cat;
  roughly alpha-independent at the amplitudes of interest, so it enters as
  a measured constant.
* false passes -- vacuum cavities sneaking through the not-empty check
  dilute the heralded ensemble by p_b / (p_dark(alpha) + p_b).  Shrinks
  with alpha as the dark branch gets easier to certify.

Smaller mechanisms (off-resonant bus modes, single-pass filter loss,
transmon-mediated Purcell decay) are evaluated too, but kept out of the
total: they sit one to two orders below the resolution of the three-term
budget and would imply precision the model does not have.

Every term that depends on alpha is elementwise numpy arithmetic: a numpy
array of amplitudes gives an array of each term in one evaluation, and a
scalar amplitude gives floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SystemParams
from .protocol import MEASURED_JOINT_FALSE_PASS, dmm_false_positive, success_probability

DEFAULT_P_DECODE = 0.017
DEFAULT_P_BRIGHT_PASS = MEASURED_JOINT_FALSE_PASS


def photon_loss_probability(alpha, params: SystemParams | None = None):
    """Probability of losing at least one photon from either cavity.

    First order in t/T1: n_bar * t * (gamma_1 + gamma_2) with
    n_bar = alpha^2 per cavity, t = ``params.t_protocol`` and the T1s from
    ``params.t1_cavity`` (defaults if None).
    """
    params = params or SystemParams()
    t1 = params.t1_cavity
    return alpha * alpha * params.t_protocol * (1.0 / t1[0] + 1.0 / t1[1])


def dark_pass_probability(alpha):
    """P(gg | dark branch) for ideal checks: both cavities non-empty, twice
    the herald probability, since the dark branch carries half the weight."""
    return 2 * success_probability(alpha)


def heralded_false_pass(alpha, p_bright_pass: float = DEFAULT_P_BRIGHT_PASS):
    """Fraction of heralds caused by the dumped bright branch.

    The bright branch reaches the check in vacuum, so its pass rate is the
    measured correlated false-pass probability; the dark branch passes at
    the ideal rate.  Both branches carry prior weight 1/2, which cancels.
    """
    return dmm_false_positive(p_bright_pass, dark_pass_probability(alpha))


def off_resonant_loss(
    g_bs: float, kappa_b: float, delta_fsr: float, alpha: float
) -> tuple[float, float]:
    """Leakage through the neighboring (far-detuned) bus modes.

    Each detuned mode admits epsilon = 2 (g/Delta)(kappa/Delta) of the
    dark state's photons per swap; returns (epsilon, 2 alpha^2 epsilon).
    """
    eps = 2 * (g_bs / delta_fsr) * (kappa_b / delta_fsr)
    return eps, 2 * alpha * alpha * eps


def single_pass_loss(kappa_b: float, delta_fsr: float) -> float:
    """Fraction of a photon lost in one bus traversal, kappa_b / (2 FSR)."""
    return kappa_b / (2 * delta_fsr)


def purcell_rate(
    chi_cav_t: float, chi_bus_t: float, anharmonicity: float, kappa_b: float
) -> float:
    """Cavity decay induced through the transmon into the lossy bus, Hz.

    The transmon hybridizes with both cavity and bus in proportion to the
    respective cross-Kerrs over its anharmonicity, so the cavity inherits
    kappa_cav = (chi_ct/anh)(chi_bt/anh) kappa_b.
    """
    return abs(chi_cav_t / anharmonicity) * abs(chi_bus_t / anharmonicity) * kappa_b


def purcell_infidelity(params: SystemParams | None = None, alpha=None):
    """Bell infidelity from Purcell decay over a swap, worst module."""
    params = params or SystemParams()
    alpha = params.alpha if alpha is None else alpha
    rates = [
        purcell_rate(c, b, a, params.kappa_b)
        for c, b, a in zip(
            params.chi_cav_transmon, params.chi_bus_transmon, params.anharmonicity
        )
    ]
    return 2 * alpha * alpha * max(rates) / params.g_bs


@dataclass(frozen=True)
class BudgetBreakdown:
    """The budget's terms at one amplitude (floats) or at an array of them
    (arrays of its shape; ``decode_error`` and ``single_pass`` stay scalar,
    as they do not depend on alpha)."""

    alpha: float | np.ndarray
    photon_loss: float | np.ndarray
    decode_error: float
    false_pass: float | np.ndarray
    total: float | np.ndarray
    off_resonant: float | np.ndarray
    single_pass: float
    purcell: float | np.ndarray


def predicted_infidelity(
    alpha=None,
    p_decode: float = DEFAULT_P_DECODE,
    p_bright_pass: float = DEFAULT_P_BRIGHT_PASS,
    params: SystemParams | None = None,
) -> BudgetBreakdown:
    """Budgeted Bell infidelity at a given cat amplitude.

    ``total`` sums the three dominant terms only.  Photon loss and the
    informational terms are evaluated from ``params`` (defaults if None);
    ``alpha`` defaults to ``params.alpha``.  A numpy array of alpha is one
    evaluation: every field that depends on alpha is then an array of its
    shape, each element equal to the scalar call at that alpha.
    """
    params = params or SystemParams()
    alpha = params.alpha if alpha is None else alpha
    loss = photon_loss_probability(alpha, params)
    fp = heralded_false_pass(alpha, p_bright_pass)
    return BudgetBreakdown(
        alpha=alpha,
        photon_loss=loss,
        decode_error=p_decode,
        false_pass=fp,
        total=loss + p_decode + fp,
        off_resonant=off_resonant_loss(
            params.g_bs, params.kappa_b, params.delta_fsr, alpha
        )[1],
        single_pass=single_pass_loss(params.kappa_b, params.delta_fsr),
        purcell=purcell_infidelity(params, alpha),
    )


def optimal_alpha(
    params: SystemParams | None = None,
    p_decode: float = DEFAULT_P_DECODE,
    p_bright_pass: float = DEFAULT_P_BRIGHT_PASS,
    bounds: tuple[float, float] = (0.3, 3.0),
) -> tuple[float, BudgetBreakdown]:
    """Cat amplitude minimizing the three-term budget.

    Loss grows like alpha^2 while the false-pass dilution falls off as the
    dark branch's occupation certainty improves, so the total has a single
    interior minimum, found by golden-section search on ``bounds``.  Near
    the minimum the total is flat to rounding over about 1e-8 in alpha,
    which bounds how closely any search on it can place the optimum.
    """
    params = params or SystemParams()

    def total(a):
        return predicted_infidelity(a, p_decode, p_bright_pass, params).total

    best = _golden_section(total, *bounds, xatol=1e-10)
    return best, predicted_infidelity(best, p_decode, p_bright_pass, params)


def _golden_section(f, lo: float, hi: float, xatol: float) -> float:
    """Minimizer of the unimodal f on [lo, hi], bracketed to within xatol."""
    r = (math.sqrt(5) - 1) / 2
    c, d = hi - r * (hi - lo), lo + r * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > xatol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - r * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + r * (hi - lo)
            fd = f(d)
    return (lo + hi) / 2
