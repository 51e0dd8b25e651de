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

The optimum is closed form: with x = 1 - e^{-alpha^2} the total is
stationary at the roots of c x^4 + 2 p (1 + c) x^2 - 2 p x + c p^2, and those
inside [0.3, 3] and both its ends are scored in one array evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SystemParams
from .protocol import MEASURED_JOINT_FALSE_PASS, _float_or_array, success_probability

DEFAULT_P_DECODE = 0.017
_ALPHA_RANGE = (0.3, 3.0)  # the cat amplitudes ``optimal_alpha`` chooses from


def photon_loss_probability(alpha, params: SystemParams | None = None):
    """Probability of losing at least one photon from either cavity.

    First order in t/T1: n_bar * t * (gamma_1 + gamma_2) with
    n_bar = alpha^2 per cavity, t = ``params.t_protocol`` and the T1s from
    ``params.t1_cavity`` (defaults if None).
    """
    params = params or SystemParams()
    t1 = params.t1_cavity
    return alpha * alpha * params.t_protocol * (1.0 / t1[0] + 1.0 / t1[1])


def heralded_false_pass(alpha, p_bright_pass: float = MEASURED_JOINT_FALSE_PASS):
    """Fraction of heralds caused by the dumped bright branch,
    p_b / (p_b + p_dark), elementwise over broadcast arrays; 0 where neither
    branch passes, and a float for scalar arguments.

    The bright branch reaches the check in vacuum, so its pass rate p_b is
    the measured correlated false-pass probability; the dark branch passes
    at the ideal rate p_dark = 2 ``success_probability(alpha)``, both
    cavities non-empty.  Both branches carry prior weight 1/2, which
    cancels.  A negative p_b anywhere raises ``ValueError``.
    """
    p_b = np.asarray(p_bright_pass, dtype=float)
    if (p_b < 0).any():  # a NaN beside a negative does not hide it
        raise ValueError("probabilities cannot be negative")
    tot = p_b + 2 * success_probability(alpha)
    return _float_or_array(np.divide(p_b, tot, out=np.zeros(tot.shape), where=tot > 0))


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
    p_bright_pass: float = MEASURED_JOINT_FALSE_PASS,
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
    p_bright_pass: float = MEASURED_JOINT_FALSE_PASS,
) -> tuple[float, BudgetBreakdown]:
    """Cat amplitude minimizing the three-term budget on [0.3, 3].

    With x = 1 - e^{-alpha^2}, c = t (1/T1_1 + 1/T1_2) and p = p_bright_pass
    the total c alpha^2 + p_decode + p / (p + x^2) is stationary where
    c (p + x^2)^2 = 2 p x (1 - x), i.e. c x^4 + 2 p (1 + c) x^2 - 2 p x
    + c p^2 = 0.  The real part of every root in (0, 1) gives
    alpha = sqrt(-log1p(-x)) (no imaginary-part threshold: rounding can
    split a near-double root into a complex pair); those inside the range
    and both its ends are the candidates, and the lowest total of one array
    evaluation wins.  The total is flat to rounding over about 1e-8 in
    alpha near its minimum, which bounds how closely any method places it.
    """
    params = params or SystemParams()
    c, p = photon_loss_probability(1.0, params), p_bright_pass
    lead = c if c > p * np.finfo(float).tiny else 0.0  # np.roots divides by it; keep p/c finite
    x = np.roots([lead, 0.0, 2 * p * (1 + c), -2 * p, c * p * p]).real
    alpha = np.sqrt(-np.log1p(-x[(x > 0) & (x < 1)]))
    lo, hi = _ALPHA_RANGE
    alpha = np.concatenate([[lo, hi], alpha[(alpha > lo) & (alpha < hi)]])
    totals = predicted_infidelity(alpha, p_decode, p_bright_pass, params).total
    best = float(alpha[np.argmin(totals)])
    return best, predicted_infidelity(best, p_decode, p_bright_pass, params)
