"""Heralding protocol: check model, run_dmm, teleportation, repeat stats."""

import itertools
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from darkbus import codes, dynamics, hilbert, protocol
from darkbus.dynamics import SystemParams
from darkbus.protocol import SECTORS, VacuumCheckModel
from oracles import (
    cat_product_ket,
    dual_rail_distill_kron,
    embed,
    expect,
    fock,
    herald_by_stages,
    kerr_twist_angle,
    lindblad_pair_state,
    logical_paulis,
    materialize_coherent,
    number,
    parity,
    product_ket,
    teleport_per_input,
    vacuum_check,
)


# ---------------------------------------------------------------------------
# vacuum-check confusion model
# ---------------------------------------------------------------------------


def test_check_model_validation():
    with pytest.raises(ValueError):
        VacuumCheckModel(p_g_given_empty=(0.5, 1.2))
    with pytest.raises(ValueError):
        VacuumCheckModel(p_g_given_empty=(-0.1, 0.0))
    with pytest.raises(ValueError):
        VacuumCheckModel(p_e_given_occupied=(0.0, 2.0))
    # correlation pushing gg above a marginal is not a distribution
    with pytest.raises(ValueError):
        VacuumCheckModel(p_g_given_empty=(0.1, 0.5), correlation_factor=30.0)
    # an infinite or NaN factor times a zero marginal leaves NaN in the
    # both-vacuum column, which run_dmm would report as a zero herald
    for p_empty in ((0.0, 0.5), (0.5, 0.0)):
        for factor in (math.inf, math.nan):
            with pytest.raises(ValueError):
                VacuumCheckModel(p_g_given_empty=p_empty, correlation_factor=factor)


def test_check_model_ideal():
    m = VacuumCheckModel.ideal()
    assert m.p_g_given_empty == (0.0, 0.0)
    assert m.p_e_given_occupied == (0.0, 0.0)
    # rows gg, ge, eg, ee; columns VV, VN, NV, NN
    assert m.table.shape == (len(protocol.OUTCOMES), len(SECTORS))
    assert m.table[:, 0].tolist() == [0.0, 0.0, 0.0, 1.0]
    assert m.table[:, 3].tolist() == [1.0, 0.0, 0.0, 0.0]


def test_check_model_measured_numbers():
    m = VacuumCheckModel.from_measured()
    assert m.p_g_given_empty == (0.07, 0.05)
    assert m.p_e_given_occupied == (0.04, 0.04)
    gg, ge, eg, _ = m.table[:, 0]
    # joint false pass is the measured 1.5%, not the 0.35% product
    assert gg == pytest.approx(0.015)
    # marginals are preserved by construction
    assert gg + ge == pytest.approx(0.07)
    assert gg + eg == pytest.approx(0.05)


def test_check_model_table_is_distribution():
    m = VacuumCheckModel.from_measured()
    assert_allclose(m.table.sum(axis=0), 1.0, rtol=0, atol=1e-12)
    assert (m.table >= -1e-15).all()
    for (s1, s2), gg in zip(SECTORS[1:], m.table[0, 1:]):
        # correlation applies only when both cavities are empty
        p1 = 0.07 if s1 == "V" else 0.96
        p2 = 0.05 if s2 == "V" else 0.96
        assert gg == pytest.approx(p1 * p2)


@settings(max_examples=60, deadline=None)
@given(
    p1=st.floats(0.0, 1.0),
    p2=st.floats(0.0, 1.0),
    pgg=st.floats(0.0, 1.0),
)
def test_check_model_table_property(p1, p2, pgg):
    # draw the joint directly, then express it as a correlation factor
    lo, hi = max(0.0, p1 + p2 - 1.0), min(p1, p2)
    pgg = lo + pgg * (hi - lo)
    corr = pgg / (p1 * p2) if p1 * p2 > 0 else 1.0
    try:
        m = VacuumCheckModel(p_g_given_empty=(p1, p2), correlation_factor=corr)
    except ValueError:
        return  # borderline rounding; the guard is allowed to be strict
    assert_allclose(m.table.sum(axis=0), 1.0, rtol=0, atol=1e-9)
    assert (m.table >= -1e-9).all()


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_success_probability_frozen():
    assert protocol.success_probability(0.5) == pytest.approx(0.02446454678491184, rel=1e-12)
    assert protocol.success_probability(1.0) == pytest.approx(0.19978820044686402, rel=1e-12)
    assert protocol.success_probability(math.sqrt(2)) == pytest.approx(0.37382253620775446, rel=1e-12)
    assert protocol.success_probability(2.0) == pytest.approx(0.48185209242521704, rel=1e-12)
    # same thing written as (1 - 2q + q^2)/2
    for a in (0.3, 1.1, 2.2):
        q = math.exp(-a * a)
        assert protocol.success_probability(a) == pytest.approx((1 - 2 * q + q * q) / 2, rel=1e-14)
    assert protocol.success_probability(0.0) == 0.0


def test_dmm_false_positive():
    assert protocol.dmm_false_positive(0.0, 0.4) == 0.0
    assert protocol.dmm_false_positive(0.0, 0.0) == 0.0
    assert protocol.dmm_false_positive(0.1, 0.3) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        protocol.dmm_false_positive(-0.1, 0.3)


def test_closed_forms_take_arrays():
    """Elementwise over arrays, each element the scalar call's float; a
    negative probability anywhere in an array raises, also beside a NaN;
    where neither branch passes the fraction is 0, without a warning."""
    alphas = np.array([0.0, 0.3, 1.0, math.sqrt(2), 2.5])
    p = protocol.success_probability(alphas)
    assert type(protocol.success_probability(1.0)) is float
    assert p.tolist() == [protocol.success_probability(float(a)) for a in alphas]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fp = protocol.dmm_false_positive(np.array([0.0, 0.0, 0.1]), np.array([0.0, 0.4, 0.3]))
    assert fp.tolist() == [0.0, 0.0, pytest.approx(0.25)]
    assert type(protocol.dmm_false_positive(0.1, 0.3)) is float
    for bright, dark in [
        (np.array([0.1, -1e-300]), 0.3),
        (0.1, np.array([0.3, 0.2, -0.5])),
        (np.array([math.nan, 0.1]), np.array([-0.1, 0.3])),
        (-0.1, np.array([0.3, 0.2])),
    ]:
        with pytest.raises(ValueError, match="negative"):
            protocol.dmm_false_positive(bright, dark)


# ---------------------------------------------------------------------------
# run_dmm, coherent engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.5, 1.0, math.sqrt(2), 2.0])
def test_run_dmm_ideal(alpha):
    res = protocol.run_dmm(SystemParams(alpha=alpha), cavity_loss=False, dump_time="auto")
    assert res.engine == "coherent"
    assert res.p_pass == pytest.approx(protocol.success_probability(alpha), rel=1e-12)
    # raw projected trace keeps the dark-component interference
    q = math.exp(-alpha * alpha)
    assert res.p_pass_projective == pytest.approx(
        0.5 * (1 - q) ** 2 * (1 - q * q), rel=1e-12
    )
    assert res.bell_fidelity == pytest.approx(1.0, abs=1e-12)
    assert sum(res.p_outcomes.values()) == pytest.approx(1.0, abs=1e-12)
    assert np.trace(res.rho_pass.data).real == pytest.approx(1.0, abs=1e-10)
    # without cavity loss the dark amplitude survives untouched
    for w in res.codewords:
        assert w.basis.alpha == pytest.approx(alpha, rel=1e-12)
    assert res.bright_residual < 1e-4


def test_run_dmm_saturates_at_half():
    res = protocol.run_dmm(SystemParams(alpha=3.0), cavity_loss=False, dump_time="auto")
    assert abs(res.p_pass - 0.5) < 1e-3


def test_run_dmm_lossy_frozen():
    res = protocol.run_dmm(dump_time="auto")
    assert res.p_pass == pytest.approx(0.3708515605831303, rel=1e-9)
    assert res.p_pass_projective == pytest.approx(0.36439196646309835, rel=1e-9)
    assert res.bell_fidelity == pytest.approx(0.9504215760171434, rel=1e-9)
    # deterministic T1 shrinkage over the exposure window
    assert res.codewords[0].basis.alpha == pytest.approx(1.4044377954352587, rel=1e-6)
    meas = protocol.run_dmm(check=VacuumCheckModel.from_measured(), dump_time="auto")
    assert meas.p_pass == pytest.approx(0.3563087844308063, rel=1e-9)
    assert meas.bell_fidelity == pytest.approx(0.9090903213248313, rel=1e-9)
    # false passes and false fails only ever cost probability and fidelity
    assert meas.bell_fidelity < res.bell_fidelity


def test_run_dmm_bus_loss_immunity():
    """The heralded state does not care how lossy the bus is."""
    fids = []
    for kappa in (160e3, 2000e3):
        p = SystemParams(kappa_b=kappa)
        res = protocol.run_dmm(p, cavity_loss=False, dump_time="auto")
        fids.append(res.bell_fidelity)
    assert all(f >= 1 - 1e-6 for f in fids)


_CHECKS = {"measured": VacuumCheckModel.from_measured(), "ideal": VacuumCheckModel.ideal()}


@pytest.mark.parametrize("dump_time", [None, "auto"])
@pytest.mark.parametrize("cavity_loss", [True, False], ids=["loss", "lossless"])
@pytest.mark.parametrize("check", sorted(_CHECKS))
def test_alpha_sweep_matches_the_herald_propagated_at_each_alpha(check, cavity_loss, dump_time):
    """One propagation at alpha = 1 serves the whole sweep: each row is the
    herald propagated window by window at its own amplitude, to 1e-13."""
    alphas = np.linspace(0.3, 2.5, 41)
    kw = dict(check=_CHECKS[check], cavity_loss=cavity_loss, dump_time=dump_time)
    p_pass, fidelity, alpha_dark = protocol.alpha_sweep(SystemParams(), alphas, **kw)
    assert p_pass.shape == fidelity.shape == (41,) and alpha_dark.shape == (41, 2)
    for k, alpha in enumerate(alphas):
        want = herald_by_stages(SystemParams(alpha=alpha), **kw)
        assert p_pass[k] == pytest.approx(want[0], rel=1e-13, abs=0)
        assert fidelity[k] == pytest.approx(want[1], rel=1e-13, abs=0)
        assert_allclose(alpha_dark[k], want[2], rtol=1e-13, atol=0)


@pytest.mark.parametrize("alphas", [[1.0, -0.5], [1.0, math.nan], [[1.0]]])
def test_alpha_sweep_rejects_alphas_that_are_no_amplitudes(alphas):
    with pytest.raises(ValueError, match="alphas"):
        protocol.alpha_sweep(SystemParams(), alphas)


@pytest.mark.parametrize("dump_time", [1e-6, 0.0, -1e-6, math.inf, math.nan, "fixed"])
def test_run_dmm_rejects_bad_dump_time(dump_time):
    """dump_time is None (params.t_dump) or "auto"; a number is refused
    with a pointer to t_dump, in the herald and in the sweep alike."""
    with pytest.raises(ValueError, match="dump_time.*t_dump"):
        protocol.run_dmm(dump_time=dump_time)
    with pytest.raises(ValueError, match="dump_time.*t_dump"):
        protocol.alpha_sweep(SystemParams(), [1.0], dump_time=dump_time)


@pytest.mark.parametrize("engine", ["coherent", "lindblad"])
def test_run_dmm_refuses_cavity_truncation_two(engine):
    """Both engines refuse a two-level cavity instead of scoring the pair
    against a plus codeword made of rounding."""
    with pytest.raises(hilbert.NumericalError, match="truncation of at least 3"):
        protocol.run_dmm(SystemParams(dims=(2, 4, 2)), engine=engine)


def test_run_dmm_kerr_needs_lindblad():
    with pytest.raises(ValueError):
        protocol.run_dmm(include_kerr=True)


# every alpha at the small truncations over the full product of check,
# cavity loss and scoring basis; the 1600 x 1600 pair matrices of dims
# (40, 16, 40) only with the measured check and cavity loss, in both bases,
# and so the unequal dims (8, 4, 10) at the reference alpha
_HERALD_ALPHAS = (0.3, 1.0, math.sqrt(2), 2.5)
_HERALD_CASES = [
    *itertools.product(
        _HERALD_ALPHAS, [(12, 16, 12), (3, 2, 5)], ["measured", "ideal"], [True, False],
        [False, True],
    ),
    *itertools.product(_HERALD_ALPHAS, [(40, 16, 40)], ["measured"], [True], [False, True]),
    *itertools.product([math.sqrt(2)], [(8, 4, 10)], ["measured"], [True], [False, True]),
]


def _herald_case_id(case):
    """alpha, then what differs from dims (12, 16, 12), the measured check,
    cavity loss and scoring in the auto basis only."""
    alpha, dims, check, cavity_loss, twisted = case
    return "-".join(
        [str(alpha)]
        + ["x".join(map(str, dims))] * (dims != (12, 16, 12))
        + ["ideal"] * (check == "ideal")
        + ["lossless"] * (not cavity_loss)
        + ["twisted"] * twisted
    )


@pytest.mark.parametrize(
    "alpha, dims, check, cavity_loss, twisted",
    _HERALD_CASES,
    ids=map(_herald_case_id, _HERALD_CASES),
)
def test_run_dmm_coherent_matches_materialized_vacuum_check(
    alpha, dims, check, cavity_loss, twisted
):
    """The weighted fold of the coherent engine's pair state is the vacuum
    check applied, projector by projector, to the materialized pair; the
    Bell fidelity read from 4x4 Gram matrices is <B|rho_gg|B> of that
    materialized state.  The codewords handed off are those of each
    cavity's surviving dark amplitude at its truncation, and their Bell ket
    scores ``rho_pass`` at ``bell_fidelity``.  A pair scored in a
    Kerr-twisted, rotated basis is scored from ``rho_pass`` (as
    ``tomography.optimize_basis`` does), and there too it matches the
    materialized pair."""
    params = SystemParams(dims=dims).with_(alpha=alpha)
    check = {"ideal": VacuumCheckModel.ideal, "measured": VacuumCheckModel.from_measured}[check]()
    res = protocol.run_dmm(params, check=check, cavity_loss=cavity_loss)
    gammas = (params.gamma_cavity[0], params.kappa_ang, params.gamma_cavity[1])
    if not cavity_loss:
        gammas = (0.0, params.kappa_ang, 0.0)
    a_mat = dynamics.coupling_matrix(params.g_bs)
    t_post = max(params.t_protocol - params.t_pump - res.t_dump, 0.0)
    z = alpha * protocol._CAT_LABELS
    weights = np.ones((4, 4), dtype=complex)
    for coupling, t in ((0 * a_mat, params.t_pump), (a_mat, res.t_dump), (0 * a_mat, t_post)):
        e, q = dynamics.linear_propagator(coupling, gammas, t)
        weights = weights * np.exp(dynamics.dyad_log_weights(z, q))
        z = z @ e.T
    weights = weights * np.exp(dynamics.dyad_log_weights(z[:, 1:2], np.eye(1)))  # trace the bus
    d1, d2 = dims[0], dims[2]
    pair = materialize_coherent(protocol._CAT_COEFFS, z[:, [0, 2]], weights, (d1, d2))
    _, states, sectors = vacuum_check(pair, (d1, d2), check)
    assert sectors.min() > 1e-4  # every sector reaches the gg state
    rho_gg = states["gg"]
    _assert_codewords(res, (d1, d2), np.abs(z[1, [0, 2]]))  # the dark component (a, 0, -a)
    bell = codes.bell_state(*res.codewords)
    fidelity = np.real(bell.conj() @ rho_gg @ bell) / np.real(np.trace(rho_gg))
    assert res.bell_fidelity == pytest.approx(fidelity, rel=1e-12, abs=0)
    assert res.rho_pass.space.dims == (d1, d2)
    assert_allclose(res.rho_pass.data, rho_gg, rtol=0, atol=1e-12)
    assert res.rho_pass is res.rho_pass  # built once, on first access
    assert res.bell_fidelity == pytest.approx(
        np.real(bell.conj() @ res.rho_pass.data @ bell), rel=1e-12, abs=0
    )
    if twisted:
        bell = codes.bell_state(
            codes.LogicalBasis(0.97 * alpha, theta_k=0.05, theta_r=-0.3).codewords(d1),
            codes.LogicalBasis(0.95 * alpha, theta_k=-0.02, theta_r=0.4).codewords(d2),
        )
        fidelity = np.real(bell.conj() @ rho_gg @ bell) / np.real(np.trace(rho_gg))
        assert np.real(bell.conj() @ res.rho_pass.data @ bell) == pytest.approx(
            fidelity, rel=1e-12, abs=0
        )


def _assert_codewords(res, dims, alpha_dark):
    """``res.codewords`` are the codewords, untwisted and unrotated, of each
    cavity's surviving dark amplitude, ``alpha_dark`` to 1e-12, at the
    cavity truncations ``dims``."""
    assert tuple(w.dim for w in res.codewords) == dims
    assert_allclose([w.basis.alpha for w in res.codewords], alpha_dark, rtol=1e-12, atol=0)
    for w, d in zip(res.codewords, dims):
        expected = codes.LogicalBasis(w.basis.alpha).codewords(d)
        assert w.basis == expected.basis
        assert np.array_equal(w.plus, expected.plus) and np.array_equal(w.minus, expected.minus)


@pytest.mark.parametrize("alpha", [0.3, 1.0, math.sqrt(2)])
def test_cat_components_materialize_the_cat_product(alpha):
    """The four components, scaled to alpha, materialized and normalized as
    the lindblad engine starts from them, are
    (|a> + i|-a>)_1 |0>_bus (|a> - i|-a>)_2: the bus starts empty and each
    cavity holds |alpha|^2 photons (the cross terms of <a^dag a> over
    |a> + i|-a> cancel)."""
    dims = (16, 4, 16)
    coeffs = protocol._CAT_COEFFS
    rho = protocol._density_coherent(
        np.outer(coeffs, coeffs.conj()), protocol._mode_kets(alpha * protocol._CAT_LABELS, dims)
    )
    rho /= np.trace(rho).real
    ket = cat_product_ket(dims, alpha)
    assert_allclose(rho, np.outer(ket, ket.conj()), rtol=0, atol=1e-15)
    n_bus = embed(dims, {"bus": number(4)}, sparse=True)
    assert expect(n_bus, rho).real == pytest.approx(0.0, abs=1e-12)
    n1 = embed(dims, {"cav1": number(16)}, sparse=True)
    assert expect(n1, rho).real == pytest.approx(alpha**2, abs=1e-6)


def test_run_dmm_engine_cross_check():
    """The Lindblad engine agrees with the exact dyad propagation."""
    p = SystemParams(
        alpha=0.5, dims=(8, 6, 8), t_pump=0.3e-6, t_dump=1.1e-6, t_protocol=1.4e-6
    )
    coh = protocol.run_dmm(p)
    lin = protocol.run_dmm(p, engine="lindblad")
    # no component bookkeeping on a density matrix: rates are projective
    assert lin.p_pass == lin.p_pass_projective
    assert lin.p_pass == pytest.approx(coh.p_pass_projective, abs=1e-6)
    assert lin.bell_fidelity == pytest.approx(coh.bell_fidelity, abs=1e-5)
    assert hilbert.trace_distance(lin.rho_pass, coh.rho_pass) < 2e-4


def test_run_dmm_self_kerr():
    """Self-Kerr in the dump window twists the cats and costs Bell fidelity.

    Zero Kerr changes nothing.  Scoring the pair in the basis twisted by
    the free-Kerr angle of the dump window wins most of the loss back; the
    rest is Kerr acting while the exchange with the bus runs, which a twist
    of the basis cannot undo.
    """
    p = SystemParams(alpha=0.8, dims=(6, 4, 6))
    plain = protocol.run_dmm(p, engine="lindblad")
    zero = protocol.run_dmm(p.with_(kerr=(0.0, 0.0)), engine="lindblad", include_kerr=True)
    assert zero.bell_fidelity == plain.bell_fidelity
    kerr = protocol.run_dmm(p, engine="lindblad", include_kerr=True)
    assert plain.bell_fidelity == pytest.approx(0.969, abs=1e-3)
    assert kerr.bell_fidelity == pytest.approx(0.912, abs=1e-3)
    twisted = [
        codes.LogicalBasis(w.basis.alpha, theta_k=kerr_twist_angle(k, kerr.t_dump)).codewords(w.dim)
        for w, k in zip(kerr.codewords, p.kerr)
    ]
    bell = codes.bell_state(*twisted)
    assert np.real(bell.conj() @ kerr.rho_pass.data @ bell) == pytest.approx(0.946, abs=1e-3)


_SMALL = SystemParams(alpha=0.5, dims=(4, 3, 4))


@pytest.mark.parametrize(
    "params, kw",
    [
        (SystemParams(alpha=0.5, dims=(6, 4, 6)), {}),  # the entangle-lindblad scenario
        (_SMALL, {"cavity_loss": False}),
        (_SMALL.with_(kappa_b=0.0), {}),
        (_SMALL, {"include_kerr": True}),
        (_SMALL.with_(t_dump=0.0), {}),
        (_SMALL, {"check": VacuumCheckModel.from_measured()}),
        (_SMALL.with_(dims=(6, 3, 4)), {}),
        (_SMALL.with_(t_pump=0.0), {"check": VacuumCheckModel.from_measured()}),
        # the dump runs past t_protocol, so the post window has length 0
        (_SMALL.with_(t_dump=6e-6), {"check": VacuumCheckModel.from_measured()}),
    ],
)
def test_run_dmm_lindblad_matches_three_window_master_equation(params, kw):
    """Solves on the cavity pair for the pump and post windows reproduce the
    master equation solved through all three windows on the full space,
    also where the pump or the post window has length 0; the codewords
    handed off are those of each cavity's amplitude after its T1 decay over
    the exposure, at its truncation."""
    res = protocol.run_dmm(params, engine="lindblad", **kw)
    t_post = max(params.t_protocol - params.t_pump - res.t_dump, 0.0)
    pair = lindblad_pair_state(
        params,
        res.t_dump,
        t_post,
        cavity_loss=kw.get("cavity_loss", True),
        include_kerr=kw.get("include_kerr", False),
    )
    dims = (params.dims[0], params.dims[2])
    p_out, states, _ = vacuum_check(pair, dims, kw.get("check"))
    for o in protocol.OUTCOMES:
        assert res.p_outcomes[o] == pytest.approx(p_out[o], abs=1e-12)
    assert_allclose(res.rho_pass.data, states["gg"], rtol=0, atol=1e-12)
    t_exposed = max(params.t_protocol, params.t_pump + res.t_dump)
    gammas = params.gamma_cavity if kw.get("cavity_loss", True) else (0.0, 0.0)
    _assert_codewords(res, dims, [params.alpha * math.exp(-g * t_exposed / 2) for g in gammas])
    bell = codes.bell_state(*res.codewords)
    fid = np.real(bell.conj() @ states["gg"] @ bell)
    assert res.bell_fidelity == pytest.approx(fid, abs=1e-12)
    assert res.bell_fidelity == pytest.approx(
        np.real(bell.conj() @ res.rho_pass.data @ bell), rel=1e-12, abs=0
    )


@pytest.mark.parametrize(
    "t_dump, windows", [(_SMALL.t_dump, ("pump", "dump", "post")), (0.0, ("pump", "post"))]
)
def test_run_dmm_lindblad_solves_the_idle_windows_on_the_pair(monkeypatch, t_dump, windows):
    """The pump and post windows are solves on the cavity pair (dim 16 at
    dims (4, 3, 4)), the dump window one on the full space (dim 48); a
    window of length 0 is no solve."""
    calls = []
    evolve = dynamics.lindblad_evolve

    def counted(*args, **kwargs):
        calls.append((len(args[0]), args[3]))
        return evolve(*args, **kwargs)

    monkeypatch.setattr(dynamics, "lindblad_evolve", counted)
    p = _SMALL.with_(t_dump=t_dump)
    protocol.run_dmm(p, engine="lindblad")
    solve = {
        "pump": (16, p.t_pump),
        "dump": (48, p.t_dump),
        "post": (16, p.t_protocol - p.t_pump - p.t_dump),
    }
    assert calls == [solve[w] for w in windows]


def test_entangle_lindblad_needs_few_liouvillian_applications(monkeypatch):
    """The benchmark's entangle-lindblad herald (alpha 0.5, dims (6, 4, 6))
    takes the dump's Taylor schedule, one 144-dim solve over t_dump = 2 us,
    from the 2-norm bound on L - mu, 2.96e7 s^-1: 153 applications.  The
    pump and post windows, 36-dim solves on the cavity pair under loss
    alone, add 8 and 9."""
    calls = []
    apply = dynamics._Liouvillian.apply

    def counted(self, src, dst):
        calls.append((self.dim, self.bound))
        return apply(self, src, dst)

    monkeypatch.setattr(dynamics._Liouvillian, "apply", counted)
    res = protocol.run_dmm(SystemParams(alpha=0.5, dims=(6, 4, 6)), engine="lindblad")
    assert res.t_dump == pytest.approx(2e-6, rel=1e-12)
    assert [dim for dim, _ in calls] == [36] * 8 + [144] * 153 + [36] * 9
    assert calls[8][1] == pytest.approx(29635165.26255591, rel=1e-12)


@pytest.mark.parametrize("include_kerr", [False, True])
def test_run_dmm_lindblad_frees_the_dense_operators_before_the_solve(monkeypatch, include_kerr):
    """Every array :func:`~darkbus.dynamics.network_operators` builds (H and
    the collapse operators of each window; with Kerr, the dump's H holds
    the Kerr sum) and the dump's input state, the pair with the bus added,
    are freed by the first Liouvillian application of the solve they feed:
    each solve reads only their diagonals and its own copy of the state."""
    refs, alive, solves = [], [], []
    build, apply, bus_vacuum = (
        dynamics.network_operators,
        dynamics._Liouvillian.apply,
        protocol._bus_vacuum,
    )

    def tracked(*args, **kwargs):
        h, c_ops = build(*args, **kwargs)
        refs.extend(weakref.ref(a) for a in [h, *c_ops])
        return h, c_ops

    def tracked_state(*args):
        full = bus_vacuum(*args)
        refs.append(weakref.ref(full))
        return full

    def checked(self, src, dst):
        if not solves or solves[-1] is not self:
            solves.append(self)
            alive.append([ref() is not None for ref in refs])
        return apply(self, src, dst)

    monkeypatch.setattr(dynamics, "network_operators", tracked)
    monkeypatch.setattr(protocol, "_bus_vacuum", tracked_state)
    monkeypatch.setattr(dynamics._Liouvillian, "apply", checked)
    protocol.run_dmm(_SMALL, engine="lindblad", include_kerr=include_kerr)
    # pump: H and two collapse operators; dump: H, three and the state; post: as the pump
    assert len(refs) == 11 and alive == [[False] * 3, [False] * 8, [False] * 11]


def test_run_dmm_lindblad_basis_covers_a_long_dump():
    """With the dump running past t_protocol the cavities decay for
    t_pump + t_dump, and the auto basis shrinks alpha over that time."""
    res = protocol.run_dmm(_SMALL.with_(t_dump=6e-6), engine="lindblad")
    t_exposed = _SMALL.t_pump + 6e-6
    assert t_exposed > _SMALL.t_protocol
    expected = [_SMALL.alpha * math.exp(-g * t_exposed / 2) for g in _SMALL.gamma_cavity]
    assert_allclose([w.basis.alpha for w in res.codewords], expected, rtol=1e-14)


def test_run_dmm_lindblad_ignores_global_rng():
    """The master-equation engine is a pure function of its inputs.

    Its propagator draws nothing random: the result must not depend on
    numpy's global RNG state, and the caller's random stream must come back
    untouched.
    """
    p = SystemParams(alpha=0.5, dims=(6, 4, 6))
    runs = []
    for seed in (0, 1, 2):
        np.random.seed(seed)
        res = protocol.run_dmm(p, engine="lindblad")
        after = np.random.random()
        np.random.seed(seed)
        assert after == np.random.random()
        runs.append((res.p_outcomes, res.bell_fidelity))
    for p_outcomes, fidelity in runs[1:]:
        assert p_outcomes == runs[0][0]
        assert fidelity == runs[0][1]


# ---------------------------------------------------------------------------
# vacuum check on explicit states
# ---------------------------------------------------------------------------


def test_vacuum_check_on_vacuum():
    dims = (4, 4)
    vac = product_ket(dims, {})
    p, states, sectors = vacuum_check(vac, dims)
    assert p["gg"] == pytest.approx(0.0, abs=1e-15)
    assert p["ee"] == pytest.approx(1.0)
    assert states["gg"] is None
    assert sectors[0] == pytest.approx(1.0)  # both cavities empty


def test_vacuum_check_product_state():
    # |alpha, 0, -alpha| at alpha = sqrt(2): each cavity occupied with
    # 1 - e^{-2}, so gg fires with (1 - e^{-2})^2 ~ 0.7477
    a = math.sqrt(2)
    dims = (20, 4, 20)
    ket = product_ket(
        dims,
        {"cav1": hilbert.coherent(20, a), "cav2": hilbert.coherent(20, -a)},
    )
    p, states, _ = vacuum_check(ket, dims)
    expected = (1 - math.exp(-2)) ** 2
    assert p["gg"] == pytest.approx(expected, abs=1e-9)
    assert p["gg"] == pytest.approx(0.7477, abs=1e-4)
    assert sum(p.values()) == pytest.approx(1.0, abs=1e-12)
    # the pass branch of a product state is the vacuum-removed product
    assert states["gg"].shape == (20 * 20, 20 * 20)


def test_vacuum_check_measured_false_pass():
    dims = (3, 3)
    vac = product_ket(dims, {})
    p, _, _ = vacuum_check(vac, dims, VacuumCheckModel.from_measured())
    assert p["gg"] == pytest.approx(0.015)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_vacuum_check_outcomes_recompose_sectors(d1, d2, seed):
    """The outcomes redistribute the projected sectors without loss:
    sum_o p_o rho_o = sum_s Pi_s rho Pi_s, for any two-cavity state."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(d1 * d2, d1 * d2)) + 1j * rng.normal(size=(d1 * d2, d1 * d2))
    rho = x @ x.conj().T
    rho /= np.trace(rho)
    p, states, sectors = vacuum_check(rho, (d1, d2), VacuumCheckModel.from_measured())
    recomposed = sum(p[o] * states[o] for o in protocol.OUTCOMES)
    vac = {d: np.diag(np.arange(d) == 0).astype(float) for d in (d1, d2)}
    proj = {"V": vac, "N": {d: np.eye(d) - v for d, v in vac.items()}}
    blocks = 0
    for (s1, s2), p_s in zip(SECTORS, sectors):
        pi = np.kron(proj[s1][d1], proj[s2][d2])
        blocks = blocks + pi @ rho @ pi
        assert p_s == pytest.approx(np.trace(pi @ rho @ pi).real, abs=1e-12)
    assert_allclose(recomposed, blocks, atol=1e-12)
    assert sum(p.values()) == pytest.approx(1.0, abs=1e-12)


def test_vacuum_check_rejects_wrong_shape():
    dims = (4,)
    vac = product_ket(dims, {})
    with pytest.raises(ValueError):
        vacuum_check(vac, dims)


# ---------------------------------------------------------------------------
# teleportation
# ---------------------------------------------------------------------------


def _ideal_resource(alpha=math.sqrt(2), dim=16):
    words = codes.LogicalBasis(alpha).codewords(dim)
    bell = codes.bell_state(words, words)
    return bell, words


def test_teleport_ideal_cardinals():
    bell, words = _ideal_resource()
    for name, q in protocol.CARDINAL_STATES.items():
        res = protocol.teleport(bell, q, words, words)
        assert res.f_qst == pytest.approx(1.0, abs=1e-9), name
        for key, p in res.probs.items():
            assert p == pytest.approx(0.25, abs=1e-9), (name, key)
            assert res.fidelities[key] == pytest.approx(1.0, abs=1e-9), (name, key)


def test_teleport_corrections_are_load_bearing():
    # with the outcome records scrambled the corrected fidelity collapses
    bell, words = _ideal_resource()
    res = protocol.teleport(bell, (1 / math.sqrt(2), 1 / math.sqrt(2)), words, words,
                            p_flip_m1=1.0)
    assert res.f_qst < 0.6


def test_teleport_readout_errors_cost_fidelity():
    bell, words = _ideal_resource()
    out = protocol.avg_qst_fidelity(bell, words, words, p_decode=0.02, p_flip_m1=0.01)
    assert out["favg"] < 1.0
    assert out["favg"] > 0.9
    # and the stated weighting over cardinal inputs
    favg = (
        out["zero"].f_qst + out["one"].f_qst
        + 2 * out["plus"].f_qst + 2 * out["plus_i"].f_qst
    ) / 6
    assert out["favg"] == pytest.approx(favg, rel=1e-12)


def test_teleport_normalizes_input():
    bell, words = _ideal_resource()
    res = protocol.teleport(bell, (2.0, 0.0), words, words)
    assert res.input == (1.0, 0.0)
    assert res.f_qst == pytest.approx(1.0, abs=1e-9)


def test_teleport_shape_mismatch():
    bell, words = _ideal_resource(dim=16)
    other = codes.LogicalBasis(math.sqrt(2)).codewords(12)
    with pytest.raises(ValueError):
        protocol.teleport(bell, (1, 0), other, other)


@pytest.mark.parametrize("key", ["p_decode", "p_flip_m1"])
@pytest.mark.parametrize("value", [-0.5, 1.5, math.nan])
def test_teleport_rejects_readout_rates_outside_unit_interval(key, value):
    bell, words = _ideal_resource()
    with pytest.raises(ValueError, match=key):
        protocol.teleport(bell, (1, 0), words, words, **{key: value})


def _teleport_kron(resource, input_qubit, words1, words2, p_decode=0.0, p_flip_m1=0.0):
    """Reference teleportation on the explicit (cav1, cav2, transmon) state:
    kron-built controlled parity, then the four joint measurement records
    traced down to cavity 1.  Returns (probs, fidelities, f_qst)."""
    rho12 = hilbert.as_dm(resource)
    d1, d2 = words1.dim, words2.dim
    c0, c1 = input_qubit
    norm = math.sqrt(abs(c0) ** 2 + abs(c1) ** 2)
    c0, c1 = c0 / norm, c1 / norm
    ket_t = np.array([c0, c1], dtype=complex)
    rho = np.kron(rho12, np.outer(ket_t, ket_t.conj()))

    i1 = np.eye(d1)
    pg, pe = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    u = np.kron(i1, np.kron(np.eye(d2), pg)) + np.kron(i1, np.kron(parity(d2), pe))
    rho = u @ rho @ u.conj().T

    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / math.sqrt(2)
    m_t = {0: np.outer(minus, minus.conj()), 1: np.outer(plus, plus.conj())}
    pi_one = np.outer(words2.one, words2.one.conj())
    pi_zero = np.outer(words2.zero, words2.zero.conj())
    leak = np.eye(d2) - pi_one - pi_zero
    m_c2 = {0: pi_one + 0.5 * leak, 1: pi_zero + 0.5 * leak}

    cond = {}
    for m1 in (0, 1):
        for m2 in (0, 1):
            sel = np.kron(i1, np.kron(m_c2[m2], m_t[m1])) @ rho
            cond[(m1, m2)] = hilbert.partial_trace(sel, (d1, d2, 2), keep=[0])
    cond = {
        (m1, m2): (1 - p_flip_m1) * cond[(m1, m2)] + p_flip_m1 * cond[(1 - m1, m2)]
        for (m1, m2) in cond
    }
    cond = {
        (m1, m2): (1 - p_decode) * cond[(m1, m2)] + p_decode * cond[(m1, 1 - m2)]
        for (m1, m2) in cond
    }

    paulis = logical_paulis(words1)
    target = words1.ket(c0, c1)
    total = sum(np.real(np.trace(c)) for c in cond.values())
    probs, fids = {}, {}
    for key, rho1 in cond.items():
        tr = np.real(np.trace(rho1))
        sigma = paulis[protocol.CORRECTIONS[key]]
        probs[key] = tr / total
        fids[key] = np.real(target.conj() @ sigma @ rho1 @ sigma.conj().T @ target) / tr
    return probs, fids, sum(probs[k] * fids[k] for k in cond)


def _measured_resource(alpha=None):
    params = SystemParams() if alpha is None else SystemParams(alpha=alpha)
    res = protocol.run_dmm(params, check=VacuumCheckModel.from_measured())
    return (res.rho_pass, *res.codewords)


_RANDOM_INPUTS = [tuple(z) for z in np.random.default_rng(17).normal(size=(3, 2, 2)) @ [1, 1j]]


@pytest.mark.parametrize("noise", [(0.0, 0.0), (0.02, 0.01), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
@pytest.mark.parametrize("resource", ["ideal", "measured", "small-alpha"])
def test_teleport_matches_three_body_oracle(resource, noise):
    """The pair contraction against the explicit cavity-cavity-transmon
    construction, every record of the cardinal and three seeded random
    inputs.  The small-alpha pair (alpha 0.5, measured check) has about half
    of cavity 2 outside the code, so the leakage decode is exercised."""
    if resource == "ideal":
        rho, w1 = _ideal_resource()
        w2 = w1
    else:
        rho, w1, w2 = _measured_resource(0.5 if resource == "small-alpha" else None)
    p_decode, p_flip_m1 = noise
    inputs = {**protocol.CARDINAL_STATES, **dict(enumerate(_RANDOM_INPUTS))}
    for name, q in inputs.items():
        res = protocol.teleport(rho, q, w1, w2, p_decode, p_flip_m1)
        probs, fids, f_qst = _teleport_kron(rho, q, w1, w2, p_decode, p_flip_m1)
        assert list(res.probs) == list(probs) == list(protocol.CORRECTIONS)
        for key in probs:
            assert res.probs[key] == pytest.approx(probs[key], abs=1e-12), (name, key)
            assert res.fidelities[key] == pytest.approx(fids[key], abs=1e-12), (name, key)
        assert res.f_qst == pytest.approx(f_qst, abs=1e-12), name


_COMPLEX_INPUTS = {
    "tilted": (0.6, 0.8 * complex(math.cos(0.7), math.sin(0.7))),
    "unnormalized": (0.3 - 0.2j, 1.1 + 0.7j),
    **dict(enumerate(_RANDOM_INPUTS)),
}


def _assert_teleport_close(res, ref, tol, name):
    assert list(res.probs) == list(ref.probs) == list(protocol.CORRECTIONS)
    for key in ref.probs:
        assert abs(res.probs[key] - ref.probs[key]) <= tol, (name, key)
        assert abs(res.fidelities[key] - ref.fidelities[key]) <= tol, (name, key)
    assert abs(res.f_qst - ref.f_qst) <= tol, name
    assert np.allclose(res.input, ref.input, rtol=0, atol=tol), name


@pytest.mark.parametrize("noise", [(0.0, 0.0), (0.02, 0.01), (0.3, 0.15)])
@pytest.mark.parametrize("resource", ["ideal", "lossy", "small-alpha"])
def test_teleport_dyad_basis_matches_per_input_contraction(resource, noise):
    """The one contraction with the eight input-free elements K_a M_m2 K_b,
    each input's records a bilinear combination of the results, against
    the four record elements built and contracted anew for each input, to
    1e-13: cardinal and complex, non-cardinal inputs on the ideal pair and
    on lossy heralded pairs (measured check, cavity loss on), with and
    without both readout errors.  ``avg_qst_fidelity`` gives the same
    records for every cardinal input."""
    if resource == "ideal":
        rho, w1 = _ideal_resource()
        w2 = w1
    else:
        rho, w1, w2 = _measured_resource(0.5 if resource == "small-alpha" else None)
    p_decode, p_flip_m1 = noise
    inputs = {**protocol.CARDINAL_STATES, **_COMPLEX_INPUTS}
    for name, q in inputs.items():
        ref = teleport_per_input(rho, q, w1, w2, p_decode, p_flip_m1)
        res = protocol.teleport(rho, q, w1, w2, p_decode, p_flip_m1)
        _assert_teleport_close(res, ref, 1e-13, name)
    out = protocol.avg_qst_fidelity(rho, w1, w2, p_decode, p_flip_m1)
    for name, q in protocol.CARDINAL_STATES.items():
        ref = teleport_per_input(rho, q, w1, w2, p_decode, p_flip_m1)
        _assert_teleport_close(out[name], ref, 1e-13, name)


def test_avg_qst_fidelity_contracts_the_pair_once(monkeypatch):
    """Four inputs, one call of ``hilbert.condition``, on the eight dyad-basis
    elements; ``teleport`` on one input makes the same single call."""
    rho, w1, w2 = _measured_resource()
    shapes = []
    condition = hilbert.condition

    def counted(rho, dims, ops):
        shapes.append(np.shape(ops))
        return condition(rho, dims, ops)

    monkeypatch.setattr(hilbert, "condition", counted)
    protocol.avg_qst_fidelity(rho, w1, w2, p_decode=0.02, p_flip_m1=0.01)
    assert shapes == [(2, 2, 2, w2.dim, w2.dim)]
    protocol.teleport(rho, _COMPLEX_INPUTS["tilted"], w1, w2)
    assert len(shapes) == 2


@pytest.mark.parametrize("q", [(0, 0), (0.0, 0j), (math.nan, 1.0), (math.inf, 0.0), (1.0, -math.inf)])
def test_teleport_rejects_a_zero_or_nonfinite_input(q):
    bell, words = _ideal_resource()
    with pytest.raises(ValueError, match="input qubit"):
        protocol.teleport(bell, q, words, words)


# ---------------------------------------------------------------------------
# repeat-until-success
# ---------------------------------------------------------------------------


def test_multiround_frozen():
    st_ = protocol.multiround_stats(1 / 2.6, 8.85e-6)
    assert st_.mean_attempts == pytest.approx(2.6, rel=1e-12)
    assert st_.mean_wait == pytest.approx(2.301e-05, rel=1e-12)
    assert st_.rate_hz == pytest.approx(43459.365493263795, rel=1e-12)
    assert st_.attempts_quantile(0.5) == 2
    assert st_.attempts_quantile(0.9) == 5
    assert st_.attempts_quantile(0.99) == 10


def test_multiround_reset_overhead():
    st_ = protocol.multiround_stats(0.5, 1e-6, t_reset=1e-6)
    # (t_att + t_reset)/p - t_reset: the successful attempt needs no reset
    assert st_.mean_wait == pytest.approx(3e-6, rel=1e-12)
    assert st_.rate_hz == pytest.approx(0.25e6, rel=1e-12)


def test_multiround_certain_success():
    """At p = 1 every attempt succeeds: each quantile is one attempt."""
    st_ = protocol.multiround_stats(1.0, 8.85e-6, t_reset=1e-6)
    assert st_.mean_attempts == 1.0
    assert st_.mean_wait == pytest.approx(8.85e-6, rel=1e-12)
    for q in (1e-9, 0.5, 0.9, 0.99, 1 - 1e-12):
        assert st_.attempts_quantile(q) == 1


@pytest.mark.parametrize(
    "p, q, expected",
    [
        (0.5, 1e-17, 1),
        (0.5, 1e-300, 1),
        (1 - 1e-16, 5e-324, 1),
        (1e-17, 0.5, math.ceil(math.log(2) * 1e17)),
        (1e-300, 0.5, math.ceil(math.log(2) * 1e300)),
    ],
    ids=["q=1e-17", "q=1e-300", "q=5e-324,p=1-1e-16", "p=1e-17", "p=1e-300"],
)
def test_multiround_quantile_at_extremes(p, q, expected):
    """A quantile or success probability below the spacing of floats near 1
    still needs at least one attempt, and a finite number of them:
    -log(1 - q) / -log(1 - p) is about q / p when both are small."""
    n = protocol.multiround_stats(p, 1e-6).attempts_quantile(q)
    assert isinstance(n, int) and 1 <= n < math.inf
    assert n == pytest.approx(expected, rel=1e-12)


def test_multiround_validation():
    with pytest.raises(ValueError):
        protocol.multiround_stats(0.0, 1e-6)
    with pytest.raises(ValueError):
        protocol.multiround_stats(1.2, 1e-6)
    with pytest.raises(ValueError):
        protocol.multiround_stats(0.5, 0.0)
    with pytest.raises(ValueError):
        protocol.multiround_stats(0.5, 1e-6, t_reset=-1e-9)
    with pytest.raises(ValueError):
        protocol.multiround_stats(0.5, 1e-6).attempts_quantile(1.0)
    # 1/p overflows a float
    with pytest.raises(ValueError, match="p_success"):
        protocol.multiround_stats(1e-320, 1e-6)
    # 1/p is finite, the 99 % quantile of attempts (4.6e308) is not
    with pytest.raises(ValueError, match="quantile"):
        protocol.multiround_stats(1e-308, 1e-6).attempts_quantile(0.99)


# ---------------------------------------------------------------------------
# single-photon (dual-rail) variant
# ---------------------------------------------------------------------------


def test_dual_rail_target_structure():
    t = protocol.dual_rail_target(2)
    assert np.trace(t).real == pytest.approx(1.0)
    # half vacuum, half dark Bell state, no cross coherence
    assert t[0, 0].real == pytest.approx(0.5)
    psi = np.zeros(4, dtype=complex)
    psi[2], psi[1] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    assert psi.conj() @ t @ psi == pytest.approx(0.5)
    assert abs(t[0, 1]) == 0 and abs(t[0, 2]) == 0


def test_dual_rail_distill_on_target():
    p, rho = protocol.dual_rail_distill(protocol.dual_rail_target(2))
    assert p == pytest.approx(0.125, abs=1e-12)
    target = np.zeros(16, dtype=complex)
    target[0b1001], target[0b0110] = 1 / math.sqrt(2), 1 / math.sqrt(2)
    assert np.real(target.conj() @ rho @ target) == pytest.approx(1.0, abs=1e-12)
    # the parity mask against the Kronecker-built projectors, bit for bit,
    # on the targets and a random mixed pair with two photons per mode
    g = np.random.default_rng(5).normal(size=(9, 9, 2)) @ [1, 1j]
    mixed = g @ g.conj().T / np.trace(g @ g.conj().T)
    for pair in (protocol.dual_rail_target(2), protocol.dual_rail_target(3), mixed):
        p, rho = protocol.dual_rail_distill(pair)
        p_ref, rho_ref = dual_rail_distill_kron(pair)
        assert p == p_ref
        assert np.array_equal(rho, rho_ref)


def test_dual_rail_dmm_end_to_end():
    res = protocol.dual_rail_dmm()
    assert res.converged
    assert res.trace_distance <= 1e-3
    assert res.p_herald == pytest.approx(0.125, abs=1e-3)
    assert res.fidelity >= 1 - 1e-6


def test_dual_rail_lossless_never_converges():
    res = protocol.dual_rail_dmm(SystemParams(kappa_b=0.0), t_final=2e-6)
    assert not res.converged


def test_dual_rail_lossless_whole_periods_not_converged():
    """After whole bright periods on a lossless bus the photon is back in
    cavity 1.  The state is periodic, so it looks unchanged between any two
    period-spaced checks, yet nothing has drained."""
    t_final = 10 * 2 * math.pi / (math.sqrt(2) * 2 * math.pi * 160e3)
    res = protocol.dual_rail_dmm(SystemParams(kappa_b=0.0), t_final=t_final)
    assert not res.converged
    assert res.trace_distance > 0.8
    assert res.p_herald == pytest.approx(0.0, abs=1e-12)


def _dual_rail_pair_master_equation(kappa_b, t_final):
    """Cavity pair after one photon starts in cav1, by the Lindblad oracle
    at dims (2, 3, 2)."""
    dims = (2, 3, 2)
    h, c_ops = dynamics.network_operators(
        dynamics.coupling_matrix(160e3), (0.0, 2 * math.pi * kappa_b, 0.0), dims
    )
    psi0 = product_ket(dims, {"cav1": fock(2, 1)})
    rho = dynamics.lindblad_evolve(h, c_ops, psi0, t_final).final
    return hilbert.partial_trace(rho, dims, [0, 2])


@pytest.mark.parametrize(
    "kappa_b", [0.0, 600e3, dynamics.critical_kappa(160e3), 2000e3]
)
def test_dual_rail_closed_form_matches_master_equation(kappa_b):
    """Pair state from one propagator column against the master equation."""
    for t_final in (0.7e-6, 3.1e-6, 2.0e-5):
        res = protocol.dual_rail_dmm(SystemParams(kappa_b=kappa_b), t_final=t_final)
        assert_allclose(
            res.rho_pair, _dual_rail_pair_master_equation(kappa_b, t_final), atol=1e-12
        )


# ---------------------------------------------------------------------------
# phase sweep
# ---------------------------------------------------------------------------


def test_phase_sweep_limits():
    a = 1.1
    times = np.linspace(0, 30e-6, 7)
    out = protocol.phase_sweep(a, [0.0, math.pi], times, 160e3, 600e3)
    assert out.shape == (2, 7)
    # phi = pi: everything is dark, nothing drains, failure stays put
    expected = 1 - (1 - math.exp(-a * a)) ** 2
    assert_allclose(out[1], expected, rtol=1e-10)
    # phi = 0: everything is bright; the bus drains it to vacuum
    assert out[0, 0] == pytest.approx(expected, rel=1e-10)
    assert out[0, -1] == pytest.approx(1.0, abs=1e-6)
    # intermediate phases sit between the limits
    mid = protocol.phase_sweep(a, [math.pi / 2], times, 160e3, 600e3)
    assert np.all(mid >= expected - 1e-12) and np.all(mid <= 1 + 1e-12)
