"""Closed-form infidelity budget and the optimal cat amplitude."""

import math

import numpy as np
import pytest

from darkbus import errorbudget
from darkbus.dynamics import SystemParams
from oracles import optimal_alpha_bounded


def test_photon_loss_scaling():
    # 2 photons held for 5.592 us against T1 of 385/520 us
    expected = 2 * 5.592e-6 * (1 / 385e-6 + 1 / 520e-6)
    assert errorbudget.photon_loss_probability(math.sqrt(2)) == pytest.approx(
        expected, rel=1e-12
    )
    assert errorbudget.photon_loss_probability(math.sqrt(2)) == pytest.approx(
        0.05055704295704297, rel=1e-12
    )
    # quadratic in alpha
    assert errorbudget.photon_loss_probability(2.0) == pytest.approx(
        4 * errorbudget.photon_loss_probability(1.0), rel=1e-12
    )


def test_false_pass_term():
    a = math.sqrt(2)
    p_dark = (1 - math.exp(-2)) ** 2
    assert errorbudget.dark_pass_probability(a) == pytest.approx(p_dark, rel=1e-12)
    expected = 0.015 / (0.015 + p_dark)
    assert errorbudget.heralded_false_pass(a) == pytest.approx(expected, rel=1e-12)
    assert errorbudget.heralded_false_pass(a) == pytest.approx(
        0.019668389061363537, rel=1e-12
    )
    # a brighter cat is easier to certify
    assert errorbudget.heralded_false_pass(2.0) < errorbudget.heralded_false_pass(1.0)


def test_informational_terms():
    p = SystemParams()
    eps, infid = errorbudget.off_resonant_loss(p.g_bs, p.kappa_b, p.delta_fsr, p.alpha)
    assert eps == pytest.approx(4.8e-8, rel=1e-12)
    assert infid == pytest.approx(1.92e-7, rel=1e-9)
    assert errorbudget.single_pass_loss(p.kappa_b, p.delta_fsr) == pytest.approx(
        1.5e-4, rel=1e-12
    )
    r1 = errorbudget.purcell_rate(
        p.chi_cav_transmon[0], p.chi_bus_transmon[0], p.anharmonicity[0], p.kappa_b
    )
    r2 = errorbudget.purcell_rate(
        p.chi_cav_transmon[1], p.chi_bus_transmon[1], p.anharmonicity[1], p.kappa_b
    )
    assert r1 == pytest.approx(142.6458157227388, rel=1e-9)
    assert r2 == pytest.approx(94.36929852154765, rel=1e-9)
    # worst module dominates the quoted infidelity
    assert errorbudget.purcell_infidelity() == pytest.approx(
        2 * 2 * r1 / 160e3, rel=1e-9
    )
    assert errorbudget.purcell_infidelity() == pytest.approx(
        0.0035661453930684707, rel=1e-9
    )


def test_budget_at_reference_amplitude():
    b = errorbudget.predicted_infidelity(math.sqrt(2))
    assert b.total == pytest.approx(0.0872254320184065, rel=1e-9)
    # the total is exactly the three dominant terms, nothing else folded in
    assert b.total == pytest.approx(
        b.photon_loss + b.decode_error + b.false_pass, rel=1e-14
    )
    assert b.decode_error == 0.017
    assert b.photon_loss == pytest.approx(0.05055704295704297, rel=1e-12)
    assert b.false_pass == pytest.approx(0.019668389061363537, rel=1e-12)
    # informational terms ride along but stay out of the sum
    assert b.off_resonant < 1e-5
    assert b.single_pass < 1e-3
    assert b.purcell < 5e-3


def test_optimal_alpha():
    best, bud = errorbudget.optimal_alpha()
    assert best == pytest.approx(1.092573356159891, abs=1e-6)
    assert bud.total == pytest.approx(0.07713465848842643, rel=1e-9)
    # it is a genuine interior minimum of the three-term total
    for probe in (best - 0.05, best + 0.05):
        assert errorbudget.predicted_infidelity(probe).total > bud.total


@pytest.mark.parametrize(
    "params, budget",
    [
        (SystemParams(), {}),
        (SystemParams(t1_cavity=(38.5e-6, 52e-6)), {}),
        (SystemParams(t_protocol=11e-6), {"p_decode": 0.02, "p_bright_pass": 0.01}),
        (SystemParams(t1_cavity=(1e-3, 1e-3)), {"p_decode": 0.0, "p_bright_pass": 0.05}),
    ],
)
def test_optimal_alpha_matches_bounded_brent(params, budget):
    """Golden section against scipy's bounded Brent search on the same total.

    Near its minimum the total is flat to rounding (f'' d^2 / 2 < eps f) for
    |d| up to about 1e-8, so there any search compares rounding noise: the
    two land within 1e-8 of each other (the 40-digit minimizer lies within
    9e-9 of golden section and 1.7e-9 of Brent on these cases) and at the
    same total to a few ulp."""
    best, bud = errorbudget.optimal_alpha(params, **budget)
    ref = optimal_alpha_bounded(params, **budget)
    assert best == pytest.approx(ref, rel=0, abs=1e-8)
    ref_total = errorbudget.predicted_infidelity(ref, params=params, **budget).total
    assert bud.total <= ref_total * (1 + 4 * np.finfo(float).eps)


def test_budget_monotonic_pieces():
    alphas = [0.6, 0.9, 1.2, 1.5, 1.8]
    losses = [errorbudget.predicted_infidelity(a).photon_loss for a in alphas]
    fps = [errorbudget.predicted_infidelity(a).false_pass for a in alphas]
    assert losses == sorted(losses)
    assert fps == sorted(fps, reverse=True)
