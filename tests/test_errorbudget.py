"""Closed-form infidelity budget and the optimal cat amplitude."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from darkbus import errorbudget, protocol
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
    expected = 0.015 / (0.015 + p_dark)
    assert errorbudget.heralded_false_pass(a) == pytest.approx(expected, rel=1e-12)
    assert errorbudget.heralded_false_pass(a) == pytest.approx(
        0.019668389061363537, rel=1e-12
    )
    # a brighter cat is easier to certify
    assert errorbudget.heralded_false_pass(2.0) < errorbudget.heralded_false_pass(1.0)


def test_false_pass_takes_arrays():
    """Elementwise over broadcast arrays, each element the scalar call's
    float; where neither branch passes the fraction is 0, without a
    warning, and 1 where only the bright one does; a negative bright pass
    raises, anywhere in an array and also beside a NaN."""
    alphas = np.array([0.0, 0.0, 1.0, 1.0])
    bright = np.array([0.0, 0.1, 0.0, 0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fp = errorbudget.heralded_false_pass(alphas, bright)
    p_dark = 2 * protocol.success_probability(1.0)
    assert fp.tolist() == [0.0, 1.0, 0.0, pytest.approx(0.1 / (0.1 + p_dark), rel=1e-15)]
    assert fp.tolist() == [
        errorbudget.heralded_false_pass(float(a), float(p)) for a, p in zip(alphas, bright)
    ]
    assert type(errorbudget.heralded_false_pass(1.0)) is float
    for alpha, bright in [
        (1.0, -0.1),
        (1.0, np.array([0.1, -1e-300])),
        (np.array([1.0, 2.0, 0.5]), np.array([0.3, 0.2, -0.5])),
        (1.0, np.array([math.nan, -0.1])),
        (np.array([math.nan, 1.0]), np.array([-0.1, 0.3])),
        (np.array([1.0, 2.0]), -0.1),
    ]:
        with pytest.raises(ValueError, match="negative"):
            errorbudget.heralded_false_pass(alpha, bright)


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
    """The quartic's root against scipy's bounded Brent search on the same
    total.

    Near its minimum the total is flat to rounding (f'' d^2 / 2 < eps f) for
    |d| up to about 1e-8, so there any method compares rounding noise: the
    two land within 1e-8 of each other (the root lies within 1.7e-9 of
    Brent on these cases) and at the same total to a few ulp."""
    best, bud = errorbudget.optimal_alpha(params, **budget)
    ref = optimal_alpha_bounded(params, **budget)
    assert best == pytest.approx(ref, rel=0, abs=1e-8)
    ref_total = errorbudget.predicted_infidelity(ref, params=params, **budget).total
    assert bud.total <= ref_total * (1 + 4 * np.finfo(float).eps)


def test_optimal_alpha_at_the_ends_of_its_range():
    """Without bright passes only loss is left, which the smallest cat
    minimizes; without loss the largest cat certifies best.  The quartic
    has no root in (0, 1) in either case, so the end itself is returned."""
    assert errorbudget.optimal_alpha(p_bright_pass=0.0)[0] == 0.3
    assert errorbudget.optimal_alpha(SystemParams(t_protocol=0.0))[0] == 3.0
    best, bud = errorbudget.optimal_alpha(p_bright_pass=1.0)
    assert 0.3 < best < 3.0
    ref = optimal_alpha_bounded(p_bright_pass=1.0)
    ref_total = errorbudget.predicted_infidelity(ref, p_bright_pass=1.0).total
    assert bud.total <= ref_total * (1 + 4 * np.finfo(float).eps)


_EPS = np.finfo(float).eps
_DENSE = np.linspace(0.3, 3.0, 20_001)


@settings(max_examples=40, deadline=None)
@given(
    t1=st.tuples(st.floats(1e-5, 1e-2), st.floats(1e-5, 1e-2)),
    t_protocol=st.floats(0.0, 1e-4),
    p_bright_pass=st.floats(0.0, 1.0),
)
@example(t1=(1e-2, 1e-2), t_protocol=5e-324, p_bright_pass=1.0)  # p / c overflows
def test_optimal_alpha_is_the_lowest_total(t1, t_protocol, p_bright_pass):
    """No higher total than Brent's or a dense grid's minimum, to 4 ulp,
    anywhere in the parameter space: ends, p_bright_pass = 0 or 1, and a
    loss so small that p / c overflows included."""
    params = SystemParams(t1_cavity=t1, t_protocol=t_protocol)
    budget = {"p_bright_pass": p_bright_pass, "params": params}
    best, bud = errorbudget.optimal_alpha(params, p_bright_pass=p_bright_pass)
    assert 0.3 <= best <= 3.0
    ref = optimal_alpha_bounded(**budget)
    assert bud.total <= errorbudget.predicted_infidelity(ref, **budget).total * (1 + 4 * _EPS)
    grid_min = errorbudget.predicted_infidelity(_DENSE, **budget).total.min()
    assert bud.total <= grid_min * (1 + 4 * _EPS)


def test_optimal_alpha_evaluates_the_budget_twice(monkeypatch):
    """One array call on the candidates, then one scalar call at the
    winner for its breakdown: no search loop of scalar calls."""
    calls = []
    budget = errorbudget.predicted_infidelity

    def counted(alpha, *args, **kwargs):
        calls.append(np.shape(alpha))
        return budget(alpha, *args, **kwargs)

    monkeypatch.setattr(errorbudget, "predicted_infidelity", counted)
    best, bud = errorbudget.optimal_alpha()
    assert len(calls) == 2
    assert len(calls[0]) == 1 and calls[0][0] >= 3  # both ends and the root
    assert calls[1] == ()
    assert type(best) is float and bud.alpha == best


def test_budget_monotonic_pieces():
    alphas = [0.6, 0.9, 1.2, 1.5, 1.8]
    losses = [errorbudget.predicted_infidelity(a).photon_loss for a in alphas]
    fps = [errorbudget.predicted_infidelity(a).false_pass for a in alphas]
    assert losses == sorted(losses)
    assert fps == sorted(fps, reverse=True)


# ---------------------------------------------------------------------------
# one evaluation over an array of amplitudes
# ---------------------------------------------------------------------------

_FIELDS = [f.name for f in dataclasses.fields(errorbudget.BudgetBreakdown)]


def _assert_array_matches_scalar_calls(alphas, exact=False, **budget):
    """Every field of the array call against the per-alpha scalar calls:
    equal to 2e-16 relative, or bit for bit when ``exact``.  The fields that
    do not depend on alpha stay scalar."""
    arr = errorbudget.predicted_infidelity(alphas, **budget)
    scalars = [errorbudget.predicted_infidelity(float(a), **budget) for a in alphas]
    for name in _FIELDS:
        got = np.broadcast_to(getattr(arr, name), alphas.shape)
        want = np.array([getattr(b, name) for b in scalars])
        assert all(type(getattr(b, name)) is float for b in scalars), name
        if exact:
            assert np.array_equal(got, want), name
        else:
            assert np.all(np.abs(got - want) <= 2e-16 * np.abs(want)), name
    assert np.ndim(arr.decode_error) == np.ndim(arr.single_pass) == 0


def test_array_budget_on_the_cli_default_grid_is_bit_identical():
    """The ``error-budget`` command's default grid, 31 alphas from 0.5 to 2."""
    _assert_array_matches_scalar_calls(np.linspace(0.5, 2.0, 31), exact=True)


def test_array_budget_on_the_benchmark_grid():
    """The benchmark's scenario grid, 301 alphas from 0.5 to 2."""
    _assert_array_matches_scalar_calls(np.linspace(0.5, 2.0, 301))


@settings(max_examples=40, deadline=None)
@given(
    alphas=st.lists(st.floats(0.0, 4.0), min_size=0, max_size=40),
    at=st.integers(0, 40),
    p_decode=st.floats(0.0, 1.0),
    p_bright_pass=st.sampled_from([0.0, 1e-300, 0.015, 1.0]),
)
def test_array_budget_matches_scalar_calls_on_grids_with_zero(alphas, at, p_decode, p_bright_pass):
    """Random grids with alpha = 0 somewhere in them, including the vacuum
    case p_bright_pass = 0, where the false pass is 0 (no herald at all)."""
    alphas.insert(min(at, len(alphas)), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_array_matches_scalar_calls(
            np.array(alphas), p_decode=p_decode, p_bright_pass=p_bright_pass
        )


def test_vacuum_amplitude_without_bright_passes_has_no_false_pass():
    """alpha = 0 with p_bright_pass = 0: neither branch passes, so the false
    pass is 0 by the ``tot > 0`` rule, with no 0/0 warning, alone and inside
    an array."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = errorbudget.predicted_infidelity(0.0, p_bright_pass=0.0)
        arr = errorbudget.predicted_infidelity(np.array([0.0, 1.0, 0.0]), p_bright_pass=0.0)
    assert b.false_pass == 0.0 and type(b.false_pass) is float
    assert arr.false_pass.tolist() == [0.0, 0.0, 0.0]
    assert arr.total.tolist() == (arr.photon_loss + arr.decode_error).tolist()


def test_array_budget_refuses_a_negative_probability():
    alphas = np.linspace(0.5, 2.0, 7)
    with pytest.raises(ValueError, match="negative"):
        errorbudget.predicted_infidelity(alphas, p_bright_pass=-0.01)
    with pytest.raises(ValueError, match="negative"):
        errorbudget.heralded_false_pass(alphas, p_bright_pass=np.array([0.01] * 6 + [-1e-9]))
