"""Wigner maps, shot sampling, MLE reconstruction, logical-level analysis."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.special import eval_genlaguerre

from darkbus import cli, codes, dynamics, hilbert, protocol, tomography
from darkbus.codes import LogicalBasis
from darkbus.tomography import WignerGrid, WignerMap
from oracles import (
    bell_state_kron,
    cat,
    codewords_four_coherent,
    displaced_parity,
    fock,
    forward_matrix_concatenated,
    kernel_stack,
    kernel_triangle,
    kernel_triangle_scipy,
    kerr_twist_angle,
    kerr_unitary,
    materialize_coherent,
    mle_density_reference,
    optimize_basis_reference,
    traced_peak,
)


# ---------------------------------------------------------------------------
# displaced-parity kernels
# ---------------------------------------------------------------------------


def _displacement_element(m, n, z):
    """<m|D(z)|n> via the associated-Laguerre closed form."""
    if m >= n:
        return (
            math.sqrt(math.factorial(n) / math.factorial(m))
            * z ** (m - n)
            * math.exp(-abs(z) ** 2 / 2)
            * eval_genlaguerre(n, m - n, abs(z) ** 2)
        )
    return (
        math.sqrt(math.factorial(m) / math.factorial(n))
        * (-np.conj(z)) ** (n - m)
        * math.exp(-abs(z) ** 2 / 2)
        * eval_genlaguerre(m, n - m, abs(z) ** 2)
    )


@pytest.mark.parametrize("beta", [0.3, -0.7 + 0.4j, 1.1j, 0.95 - 0.85j])
def test_kernel_matches_laguerre(beta):
    dim = 8
    m = displaced_parity(dim, beta)
    ref = np.array(
        [
            [_displacement_element(i, j, 2 * beta) * (-1) ** j for j in range(dim)]
            for i in range(dim)
        ]
    )
    assert_allclose(m, ref, atol=1e-12)
    # hermitian: D(2b) P is its own adjoint
    assert_allclose(m, m.conj().T, atol=1e-12)


def _cahill_glauber_lower(dim, beta, digits=50):
    """Lower triangle of M(beta) = D(2 beta) P from the Cahill-Glauber sum in mpmath.

    <m|D(z)|n> = sqrt(n!/m!) z^k e^{-|z|^2/2} sum_j (-1)^j C(m, n-j) |z|^{2j} / j!
    for m >= n, k = m - n.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(digits):
        z = 2 * mp.mpc(beta.real, beta.imag)
        x = abs(z) ** 2
        fact = [mp.factorial(j) for j in range(dim)]
        powers = [x**j for j in range(dim)]
        out = np.zeros((dim, dim), dtype=complex)
        for m in range(dim):
            for n in range(m + 1):
                lag = mp.fsum(
                    (-1) ** j * mp.binomial(m, n - j) * powers[j] / fact[j] for j in range(n + 1)
                )
                v = mp.sqrt(fact[n] / fact[m]) * z ** (m - n) * mp.exp(-x / 2) * lag
                out[m, n] = complex(v * (-1) ** n)
    return out


def test_kernel_matches_high_precision_at_grid_corners():
    """Closed-form kernels stay exact at dim 40 where |2 beta|^2 = 32."""
    ax = WignerGrid.default().re_beta
    lower = np.tril_indices(40)
    for beta in (complex(re, im) for re in (ax[0], ax[-1]) for im in (ax[0], ax[-1])):
        m = displaced_parity(40, beta)
        ref = _cahill_glauber_lower(40, beta)
        assert_allclose(m[lower], ref[lower], rtol=0, atol=1e-13)
        assert_allclose(m, m.conj().T, rtol=0, atol=0)


@pytest.mark.parametrize("dim", [1, 2, 12, 40])
def test_kernel_recurrence_matches_scipy_laguerre(dim):
    """The Laguerre recurrence and cumulative-sum log-factorials against
    scipy's eval_genlaguerre and gammaln, over the default grid, whose
    corners reach |beta| = 2 sqrt 2."""
    betas = WignerGrid.default().betas
    assert np.abs(betas).max() == pytest.approx(2 * math.sqrt(2))
    got = kernel_triangle(dim, betas)
    assert_allclose(got, kernel_triangle_scipy(dim, betas), rtol=0, atol=1e-12)


# point sets for the orbit layout besides the closed grids: points with no
# partner, and points on both axes and on signed zeros, with one off them
_ASYMMETRIC = np.array([1, 1j]) @ np.random.default_rng(5).uniform(-2, 2, (2, 25))
_ON_AXES = np.array([0.0, 1.5, -1.5, 1.5j, -1.5j, -0.0 + 0.2j, 0.2 - 0.0j, -0.0 - 0.0j, 0.3 - 0.7j])


@pytest.mark.parametrize("dim", [1, 2, 12, 40])
@pytest.mark.parametrize(
    "betas",
    [WignerGrid.default().betas, WignerGrid.default(2.0, 1.0).betas, np.array([0.45 - 1.3j]),
     _ASYMMETRIC, _ON_AXES],
    ids=["default-grid", "5x5-grid", "one-point", "asymmetric", "on-axes"],
)
def test_forward_matrix_written_in_place_is_bit_identical(dim, betas):
    """Writing the design matrix run by run, one row per symmetry orbit,
    and expanding each point's row from its orbit's by the map's column
    signs gives exactly the rows built from every point's whole kernel
    triangle by concatenation; the orbit rows are column-major, so a run's
    columns are contiguous."""
    forward = tomography.WignerMap(dim, betas)
    orbit, transform = np.divmod(tomography._orbits(betas)[1], 4)
    got = forward.matrix[orbit] * forward._signs[:, transform].T
    assert np.array_equal(got, forward_matrix_concatenated(dim, betas))
    assert forward.matrix.flags.f_contiguous


@pytest.mark.parametrize("dim", [12, 40])
def test_forward_map_build_holds_the_matrix_and_a_few_runs(dim):
    """The build peaks at the orbits' design matrix, six (orbits, dim)
    complex arrays and the points with their slots, the bytes tomo-demo's
    memory guard asks for; building the whole kernel triangle first peaks
    at about four times the matrix."""
    betas = WignerGrid.default().betas
    forward, peak = traced_peak(tomography.WignerMap, dim, betas)
    orbits = len(forward.matrix)
    bound = forward.matrix.nbytes + 6 * orbits * dim * 16 + len(betas) * 24
    assert tomography.WignerMap.build_bytes(dim, orbits, len(betas)) == bound
    assert peak <= bound


def test_default_grid_builds_one_kernel_row_per_orbit(monkeypatch):
    """tomo-demo's 41 x 41 grid is closed under beta -> -beta and
    conj(beta): its forward map evaluates kernels at 441 points, one per
    orbit, not at all 1681."""
    rows = []
    kernel_runs = tomography._kernel_runs

    def counted(dim, betas):
        rows.append(len(betas))
        return kernel_runs(dim, betas)

    monkeypatch.setattr(tomography, "_kernel_runs", counted)
    opts = cli.COMMANDS["tomo-demo"][1]
    grid = WignerGrid.default(opts["extent"], opts["step"])
    forward = tomography.WignerMap(12, grid.betas)
    assert len(grid.betas) == 1681 and rows == [441] and forward.matrix.shape == (441, 144)
    assert WignerGrid.orbits(opts["extent"], opts["step"]) == 441


@pytest.mark.parametrize(
    "extent, step", [(2.0, 0.1), (2.0, 0.2), (1.5, 0.25), (1.0, 0.4), (1.8, 0.3), (3.3, 0.7)]
)
def test_default_grid_axes_are_exactly_antisymmetric(extent, step):
    """Each axis is its own negative reversed, bit for bit, with an exact 0
    at the centre of an odd count; the points stay within an ulp of the
    linspace they come from, and ``WignerGrid.orbits`` counts the orbits
    the forward map finds."""
    grid = WignerGrid.default(extent, step)
    n = WignerGrid.axis_points(extent, step)
    for ax in (grid.re_beta, grid.im_beta):
        assert len(ax) == n
        assert np.array_equal(ax, -ax[::-1])
        assert (ax[0], ax[-1]) == (-extent, extent)
        assert_allclose(ax, np.linspace(-extent, extent, n), rtol=0, atol=np.spacing(extent))
        if n % 2:
            assert ax[n // 2] == 0.0
    assert WignerGrid.orbits(extent, step) == len(tomography._orbits(grid.betas)[0])


def _point_set(kind: str, rng, k: int) -> np.ndarray:
    """k points of one kind: whole orbits, orbits with partners missing,
    points without partners, repeated points, one point, points on the
    axes."""
    z = rng.uniform(-2, 2, k) + 1j * rng.uniform(-2, 2, k)
    closed = np.concatenate([z, -z, z.conj(), -z.conj()])
    if kind == "symmetric":
        return closed
    if kind == "partly-symmetric":
        return closed[rng.random(len(closed)) < 0.6]
    if kind == "asymmetric":
        return z
    if kind == "duplicated":
        return np.concatenate([z, z[::2], -z])
    if kind == "single":
        return z[:1]
    return np.concatenate([z.real, 1j * z.imag, -z.real, -1j * z.imag, [0.0]])


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["symmetric", "partly-symmetric", "asymmetric", "duplicated", "single",
                     "on-axes"]),
    st.integers(1, 14),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
)
@example(kind="partly-symmetric", dim=1, k=1, seed=9)  # keeps none of its 4 points
def test_forward_map_matches_the_full_matrix_products(kind, dim, k, seed):
    """The orbit layout's forward and adjoint products equal the products
    with every point's own design row to 1e-13 of the sum of the terms'
    magnitudes, and <forward rho, c> = <rho, adjoint c> in the
    Hilbert-Schmidt product.  A draw may keep no point at all: the map then
    gives no values, and its adjoint the zero matrix."""
    rng = np.random.default_rng(seed)
    betas = _point_set(kind, rng, k)
    forward = tomography.WignerMap(dim, betas)
    full = forward_matrix_concatenated(dim, betas)
    x = rng.normal(size=dim * dim)
    c = rng.normal(size=len(betas))
    assert np.all(np.abs(forward.rows(x) - full @ x) <= 1e-13 * (np.abs(full) @ np.abs(x)))
    assert np.all(np.abs(forward.rows_adjoint(c) - full.T @ c)
                  <= 1e-13 * (np.abs(full).T @ np.abs(c)))
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = h + h.conj().T
    lhs, rhs = forward(rho) @ c, np.vdot(rho, forward.adjoint(c)).real
    scale = np.abs(full).sum() * np.abs(rho).max() * np.abs(c).max(initial=0.0)
    assert abs(lhs - rhs) <= 1e-13 * scale
    if not len(betas):
        assert forward(rho).shape == (0,)
        assert np.array_equal(forward.adjoint(c), np.zeros((dim, dim)))


def test_kernel_truncation_invariance():
    """Each entry is exact in the truncated space: a larger dim only adds entries."""
    for beta in (0.0, 0.45 - 1.3j, 2.0 + 2.0j, -2.0 - 1.5j):
        assert_allclose(
            displaced_parity(40, beta)[:12, :12],
            displaced_parity(12, beta),
            rtol=0,
            atol=1e-15,
        )


def test_forward_map_and_adjoint_match_trace():
    rng = np.random.default_rng(3)
    dim = 9
    betas = WignerGrid.default(2.0, 0.5).betas
    ops = kernel_stack(dim, betas)
    forward = tomography.WignerMap(dim, betas)
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = x @ x.conj().T
    rho /= np.trace(rho).real
    want = np.trace(ops @ rho, axis1=1, axis2=2)
    assert_allclose(want.imag, 0.0, atol=1e-13)
    assert_allclose(forward(rho), want.real, rtol=0, atol=1e-13)
    # any input: the real part of the trace, through the hermitian part
    x /= np.linalg.norm(x)
    assert_allclose(forward(x), np.trace(ops @ x, axis1=1, axis2=2).real, rtol=0, atol=1e-13)
    c = rng.normal(size=len(betas))
    assert_allclose(forward.adjoint(c), np.einsum("k,kij->ij", c, ops), rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# forward maps against closed forms
# ---------------------------------------------------------------------------


def test_wigner_vacuum():
    grid = WignerGrid.default(1.5, 0.25)
    w = WignerMap(12, grid.betas)(hilbert.as_dm(fock(12, 0))).reshape(grid.shape)
    b = grid.betas.reshape(grid.shape)
    assert_allclose(w, np.exp(-2 * np.abs(b) ** 2), atol=1e-12)


def test_wigner_fock1():
    grid = WignerGrid.default(1.5, 0.25)
    w = WignerMap(12, grid.betas)(hilbert.as_dm(fock(12, 1))).reshape(grid.shape)
    b2 = np.abs(grid.betas.reshape(grid.shape)) ** 2
    assert_allclose(w, (4 * b2 - 1) * np.exp(-2 * b2), atol=1e-12)


def test_wigner_coherent():
    a = 0.8 - 0.3j
    grid = WignerGrid.default(1.5, 0.5)
    w = WignerMap(25, grid.betas)(hilbert.as_dm(hilbert.coherent(25, a))).reshape(grid.shape)
    b = grid.betas.reshape(grid.shape)
    assert_allclose(w, np.exp(-2 * np.abs(b - a) ** 2), atol=1e-9)


def test_wigner_cat_interference():
    """Even cat: two coherent humps plus the oscillating fringe at the origin."""
    alpha = 1.4
    rho = hilbert.as_dm(cat(25, alpha))
    n2 = 2 * (1 + math.exp(-2 * alpha**2))  # |||a> + |-a>||^2
    grid = WignerGrid.default(1.8, 0.3)
    w = WignerMap(25, grid.betas)(rho).reshape(grid.shape)
    b = grid.betas.reshape(grid.shape)
    humps = np.exp(-2 * np.abs(b - alpha) ** 2) + np.exp(-2 * np.abs(b + alpha) ** 2)
    fringe = 2 * np.exp(-2 * np.abs(b) ** 2) * np.cos(4 * alpha * b.imag)
    assert_allclose(w, (humps + fringe) / n2, atol=1e-8)
    # the origin fringe of an even cat peaks at +1 regardless of alpha
    assert WignerMap(25, [0.0])(rho)[0] == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    mix=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_wigner_linearity(mix, seed):
    rng = np.random.default_rng(seed)
    def random_dm(d):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = m @ m.conj().T
        return rho / np.trace(rho).real
    r1, r2 = random_dm(5), random_dm(5)
    grid = WignerGrid(np.array([0.0, 0.4, -0.3]), np.array([0.2, -0.5]))
    forward = WignerMap(5, grid.betas)
    w1, w2, w = forward(r1), forward(r2), forward(mix * r1 + (1 - mix) * r2)
    assert_allclose(w, mix * w1 + (1 - mix) * w2, atol=1e-12)


# ---------------------------------------------------------------------------
# shot noise
# ---------------------------------------------------------------------------


def test_sample_counts_seeded():
    w = np.array([[0.0, 0.5], [-0.5, 1.0]])
    c1 = tomography.sample_counts(w, 1000, seed=42)
    c2 = tomography.sample_counts(w, 1000, seed=42)
    c3 = tomography.sample_counts(w, 1000, seed=43)
    assert np.array_equal(c1, c2)
    assert not np.array_equal(c1, c3)
    assert np.all(c1 >= 0) and np.all(c1 <= 1000)
    # w = +1 is a sure click
    assert c1[1, 1] == 1000


def test_sample_counts_rejects_unphysical():
    with pytest.raises(ValueError):
        tomography.sample_counts(np.array([1.5]), 100, seed=0)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_tomo_demo_sampled_map_reloads_and_refits(tmp_path):
    """A sampled map written by ``darkbus tomo-demo``, read back with
    ``np.loadtxt`` and refitted on a Wigner map built for its points at the
    manifest's truncation, takes the run's MLE iterations to the same
    verdict."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text("tomo-demo:\n  extent: 1.0\n  step: 0.5\n  shots: 200\n  max_iter: 60\n")
    out = tmp_path / "o"
    assert cli.main(["tomo-demo", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
    path = out / "wigner_sampled.csv"
    assert path.read_text().splitlines()[0] == "re_beta,im_beta,value,shots,counts"
    manifest = json.loads((out / "manifest.json").read_text())

    re, im, _, shots, counts = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    assert (re + 1j * im).tolist() == WignerGrid.default(1.0, 0.5).betas.tolist()
    forward = WignerMap(manifest["params"]["dims"][0], re + 1j * im)
    res = tomography.mle_density(forward, counts=counts, shots=shots, max_iter=60)
    summary = manifest["summary"]
    assert (res.n_iter, res.converged) == (summary["mle_iterations"], summary["mle_converged"])


def _cat_target(dim=10, alpha=math.sqrt(2)):
    words = LogicalBasis(alpha).codewords(dim)
    k = (words.zero + words.one) / np.linalg.norm(words.zero + words.one)
    return np.outer(k, k.conj())


def test_mle_recovers_from_exact_values():
    rho_true = _cat_target()
    forward = WignerMap(10, WignerGrid.default(2.0, 0.2).betas)
    res = tomography.mle_density(forward, values=forward(rho_true))
    f = hilbert.fidelity(res.rho, rho_true)
    assert f >= 0.99
    assert res.rms_residual < 0.01
    assert np.trace(res.rho).real == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.eigvalsh(res.rho).min() > -1e-10


def test_mle_recovers_from_counts():
    rho_true = _cat_target()
    forward = WignerMap(10, WignerGrid.default(2.0, 0.2).betas)
    counts = tomography.sample_counts(forward(rho_true), 10_000, seed=11)
    res = tomography.mle_density(forward, counts=counts, shots=10_000)
    assert hilbert.fidelity(res.rho, rho_true) >= 0.97


def _random_density(rng, dim, rank):
    x = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def _cat_data(counts: bool):
    """The cat's map on a 21 x 21 grid at dim 10, and its observations:
    the noiseless values, or counts of 10000 shots a point."""
    forward = WignerMap(10, WignerGrid.default(2.0, 0.2).betas)
    w = forward(_cat_target())
    if not counts:
        return forward, {"values": w}
    return forward, {"counts": tomography.sample_counts(w, 10_000, seed=11), "shots": 10_000}


@pytest.mark.parametrize("counts", [True, False], ids=["counts", "values"])
def test_mle_first_order_optimality(counts):
    """No density matrix is a descent direction from the fit, to within tol.

    The gradient is rebuilt here from the kernel stack: the binomial negative
    log-likelihood per shot with counts, half the mean squared misfit
    without.  Since f is convex, Tr(grad f (sigma - rho)) >= -tol for every
    density matrix sigma means rho is within tol of the minimum.
    """
    tol = 1e-10
    forward, obs = _cat_data(counts)
    res = tomography.mle_density(forward, **obs, tol=tol)
    assert res.converged and res.n_iter < 200

    kernels = kernel_stack(10, forward.betas)
    w = np.einsum("kij,ji->k", kernels, res.rho).real
    if counts:
        p = (1 + w) / 2
        n, shots = obs["counts"], obs["shots"]
        df_dw = ((shots - n) / (1 - p) - n / p) / (2 * shots * len(n))
    else:
        df_dw = (w - obs["values"]) / len(w)
    grad = np.einsum("k,kij->ij", df_dw, kernels)

    rng = np.random.default_rng(3)
    sigmas = [_random_density(rng, 10, rank) for rank in (1, 1, 2, 5, 10)]
    worst = np.linalg.eigh(grad)[1][:, 0]  # the steepest pure-state direction
    sigmas.append(np.outer(worst, worst.conj()))
    for sigma in sigmas:
        assert np.trace(grad @ (sigma - res.rho)).real >= -tol * (1 + 1e-3)


def test_mle_refuses_observations_not_one_per_point():
    """Values or counts of another length than the map's points raise
    before the fit, naming both lengths: one value is not spread over every
    point, and counts one short do not reach the solver's products."""
    forward = WignerMap(4, WignerGrid.default(1.0, 0.5).betas)
    with pytest.raises(ValueError, match="1 observations for the map's 25 points"):
        tomography.mle_density(forward, values=[0.3])
    with pytest.raises(ValueError, match="24 observations for the map's 25 points"):
        tomography.mle_density(forward, counts=np.full(24, 100), shots=200)


def test_mle_refuses_both_or_neither_of_values_and_counts():
    forward = WignerMap(4, WignerGrid.default(1.0, 0.5).betas)
    w = np.zeros(25)
    with pytest.raises(ValueError, match="exactly one of values and counts"):
        tomography.mle_density(forward, values=w, counts=np.full(25, 100), shots=200)
    with pytest.raises(ValueError, match="exactly one of values and counts"):
        tomography.mle_density(forward)


def test_mle_refuses_counts_without_shots():
    """Counts mean nothing without the shots they were drawn from."""
    forward = WignerMap(4, WignerGrid.default(1.0, 0.5).betas)
    with pytest.raises(ValueError, match="counts given without the shots"):
        tomography.mle_density(forward, counts=np.full(25, 100))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.floats(0.01, 100.0),
)
def test_project_density_is_a_projection(dim, seed, scale):
    rng = np.random.default_rng(seed)
    h = scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    rho = tomography._project_density(h)
    assert_allclose(rho, rho.conj().T, atol=1e-12 * scale)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12 * scale)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12 * scale
    assert_allclose(tomography._project_density(rho), rho, atol=1e-12 * scale)
    sigma = _random_density(rng, dim, int(rng.integers(1, dim + 1)))
    assert_allclose(tomography._project_density(sigma), sigma, atol=1e-13)


def _tomo_demo_data(seed: int | None, counts: bool):
    """tomo-demo's Wigner map of the conditioned cat at its defaults, and
    its observations: the sampled counts at ``seed``, or the noiseless
    values."""
    opts = dict(cli.COMMANDS["tomo-demo"][1])
    res = protocol.run_dmm(dynamics.SystemParams(), **cli._herald(opts))
    w1, w2 = res.codewords
    rho1 = hilbert.condition(res.rho_pass, (w1.dim, w2.dim), np.outer(w2.plus, w2.plus.conj()))
    rho1 = rho1 / np.trace(rho1)
    forward = WignerMap(w1.dim, WignerGrid.default(opts["extent"], opts["step"]).betas)
    w = forward(rho1)
    if not counts:
        return forward, {"values": w}
    shots = opts["shots"]
    return forward, {"counts": tomography.sample_counts(w, shots, seed=seed), "shots": shots}


@pytest.mark.parametrize(
    "seed, counts", [(3, True), (7, True), (11, True), (None, False)],
    ids=["counts-3", "counts-7", "counts-11", "values"],
)
def test_mle_matches_reference_loop_bit_for_bit(seed, counts):
    """Reading each parity map's probabilities once, through flat indices,
    changes no bit of the fit: on tomo-demo's data, binomial and least
    squares, every field equals the loop that reads them anew each time."""
    forward, obs = _tomo_demo_data(seed, counts)
    got = tomography.mle_density(forward, **obs)
    ref = mle_density_reference(forward, **obs)
    assert np.array_equal(got.rho, ref.rho)
    assert (got.n_iter, got.converged) == (ref.n_iter, ref.converged)
    assert got.rms_residual == ref.rms_residual


def test_mle_tests_the_gap_only_where_it_can_be_met(monkeypatch):
    """An iterate's optimality gap bounds the drop in f to the next one, so
    the gap (one adjoint) is computed only where that drop is at most
    2 tol: on tomo-demo's seed-3 counts, well under two adjoints an
    iteration, where testing every iterate takes 81 for 42 iterations."""
    forward, obs = _tomo_demo_data(3, True)
    calls = []
    adjoint = tomography.WignerMap.adjoint
    monkeypatch.setattr(
        tomography.WignerMap, "adjoint", lambda self, c: calls.append(1) or adjoint(self, c)
    )
    res = tomography.mle_density(forward, **obs)
    assert res.converged
    assert len(calls) < 1.75 * res.n_iter


def test_mle_iteration_cap_flags_not_converged():
    forward = WignerMap(10, WignerGrid.default(2.0, 0.4).betas)
    res = tomography.mle_density(forward, values=forward(_cat_target()), max_iter=3)
    assert not res.converged
    assert res.n_iter == 3


# ---------------------------------------------------------------------------
# analysis-basis fitting
# ---------------------------------------------------------------------------


def _damped_twisted_bell(alpha, gamma, kerr_hz, t, dim):
    """Exact lossy cat Bell with a Kerr twist, built from coherent dyads.

    The logical singlet of cat codes collapses to just two coherent
    components, (|-a, a> - |a, -a>)/norm, so per-mode amplitude damping is
    exact in the dyad representation.
    """
    labels = np.array([[-alpha, alpha], [alpha, -alpha]], dtype=complex)
    coeffs = np.array([1.0, -1.0], dtype=complex)
    overlaps = np.exp(dynamics.dyad_log_weights(labels, np.eye(2)))
    n2 = np.real(np.sum(np.outer(coeffs, coeffs.conj()) * overlaps))
    rate_t = -math.log(1 - gamma)  # e^{-rate t} = 1 - gamma
    e, q = dynamics.linear_propagator(np.zeros((2, 2), complex), [rate_t, rate_t], 1.0)
    weights = np.exp(dynamics.dyad_log_weights(labels, q))
    rho = materialize_coherent(coeffs / math.sqrt(n2), labels @ e.T, weights, (dim, dim))
    u = kerr_unitary(dim, kerr_hz, t)
    u2 = np.kron(u, u)
    return u2 @ rho @ u2.conj().T


def test_optimize_basis_recovers_shrinkage_and_twist():
    alpha, gamma = 1.2, 0.2
    kerr_hz, t = -20e3, 2.5e-6
    rho = _damped_twisted_bell(alpha, gamma, kerr_hz, t, dim=10)
    fit = tomography.optimize_basis(rho, (10, 10))
    assert fit.basis.alpha == pytest.approx(alpha * math.sqrt(1 - gamma), abs=2e-3)
    assert fit.basis.theta_k == pytest.approx(kerr_twist_angle(kerr_hz, t), abs=1e-3)
    assert abs(fit.basis.theta_r) < 1e-2
    # the fitted basis sees a much better Bell state than the naive one
    words = LogicalBasis(alpha).codewords(10)
    bell = codes.bell_state(words, words)
    naive_f = np.real(bell.conj() @ rho @ bell)
    assert fit.fidelity > naive_f + 0.05


def _mean_amplitude(rho, dims):
    """Square root of the two cavities' mean photon number."""
    rho = hilbert.as_dm(rho)
    pops = rho.diagonal().real.reshape(dims)
    tr = float(np.real(np.trace(rho)))
    n_mean = (np.arange(dims[0]) @ pops.sum(1) + np.arange(dims[1]) @ pops.sum(0)) / (2 * tr)
    return math.sqrt(n_mean)


def _tomo_demo_pair(dims):
    opts = dict(cli.COMMANDS["tomo-demo"][1])
    params = dataclasses.replace(dynamics.SystemParams(), dims=(dims[0], 16, dims[1]))
    return protocol.run_dmm(params, **cli._herald(opts)).rho_pass


@pytest.mark.parametrize("dims", [(12, 12), (8, 10)])
def test_optimize_basis_matches_reference_objective(dims):
    """On tomo-demo's heralded pair (its default dims and unequal ones) the
    fit lands on the x and fidelity of a Nelder-Mead search of the
    objective that builds both cavities' codewords and the Bell ket every
    evaluation, started at the same point: the fidelity to 1e-13 and x to
    1e-6, ten times that search's xatol (the simplex stops anywhere within
    xatol of the maximum; the Newton fit stops where its predicted rise
    reaches the fidelity's rounding level).  With unequal dims the cavities
    must not share one set of codewords."""
    rho = _tomo_demo_pair(dims)
    assert rho.space.dims == dims
    fit = tomography.optimize_basis(rho, dims)
    ref = optimize_basis_reference(
        rho, dims, alpha0=_mean_amplitude(rho, dims), extra_starts=(0.0,)
    )
    assert abs(fit.fidelity + ref.fun) <= 1e-13
    assert np.max(np.abs(fit.x - ref.x)) <= 1e-6
    assert fit.success == ref.success


@pytest.mark.parametrize("dims", [(12, 12), (8, 10), (6, 6), (40, 40), (3, 3), (3, 5)])
def test_basis_objective_matches_reference_objective(dims):
    """The closed-form parity-block objective equals the Bell fidelity from
    codewords built of four coherent kets and a Kronecker-product Bell ket,
    to 1e-14, at random (alpha <= 3, theta_k, theta_r) on a random pair state
    and (at dims (12, 12), (8, 10) and (3, 5)) on tomo-demo's pair, with both
    cavities' parameters the same and different.  At those three dims its
    closed-form derivatives of the symmetric basis give the value to 1e-15,
    the gradient within 1e-7 (1 + |g|) of central differences of the value
    and the Hessian within 1e-6 (1 + |H|) of central differences of the
    gradient, step 1e-5."""
    rng = np.random.default_rng(sum(dims))
    d = dims[0] * dims[1]
    rho = _random_density(rng, d, 3) * 0.8  # trace 0.8: the fidelity divides by it
    states = [rho]
    check_derivatives = dims in [(12, 12), (8, 10), (3, 5)]
    if check_derivatives:
        states.append(hilbert.as_dm(_tomo_demo_pair(dims)))

    def reference(rho, x1, x2):
        w1 = codewords_four_coherent(LogicalBasis(*x1), dims[0])
        w2 = codewords_four_coherent(LogicalBasis(*x2), dims[1])
        bell = bell_state_kron(w1, w2)
        return float(np.real(bell.conj() @ rho @ bell) / np.real(np.trace(rho)))

    steps = 1e-5 * np.eye(3)
    for rho in states:
        fidelity = codes._singlet_fidelity(rho, dims)
        for _ in range(40):
            x1, x2 = rng.uniform([0.05, -np.pi, -np.pi], [3.0, np.pi, np.pi], (2, 3))
            assert fidelity(x1) == pytest.approx(reference(rho, x1, x1), abs=1e-14)
            assert fidelity(x1, x2) == pytest.approx(reference(rho, x1, x2), abs=1e-14)
            if not check_derivatives:
                continue
            f, g, h = fidelity.derivatives(x1)
            assert f == pytest.approx(fidelity(x1), abs=1e-15)
            g_fd = [(fidelity(x1 + e) - fidelity(x1 - e)) / 2e-5 for e in steps]
            h_fd = [
                (fidelity.derivatives(x1 + e)[1] - fidelity.derivatives(x1 - e)[1]) / 2e-5
                for e in steps
            ]
            assert np.all(np.abs(g - g_fd) <= 1e-7 * (1 + np.abs(g)))
            assert np.all(np.abs(h - h_fd) <= 1e-6 * (1 + np.abs(h)))


@pytest.mark.parametrize("dims", [(12, 12), (8, 10), (3, 5)])
def test_basis_objective_scores_the_decoders_codewords(dims):
    """The fit scores the basis the decoders use: the objective equals the
    Bell fidelity of ``LogicalBasis.codewords`` and ``codes.bell_state`` on
    rho to 1e-14, per cavity and symmetric."""
    rng = np.random.default_rng(7 * sum(dims))
    rho = _random_density(rng, dims[0] * dims[1], 4) * 0.7
    fidelity = codes._singlet_fidelity(rho, dims)
    for _ in range(40):
        x1, x2 = rng.uniform([0.05, -np.pi, -np.pi], [3.0, np.pi, np.pi], (2, 3))
        for y1, y2 in ((x1, x2), (x1, x1)):
            w1 = LogicalBasis(*y1).codewords(dims[0])
            w2 = LogicalBasis(*y2).codewords(dims[1])
            bell = codes.bell_state(w1, w2)
            ref = float(np.real(bell.conj() @ rho @ bell) / np.real(np.trace(rho)))
            assert abs(fidelity(y1, y2) - ref) <= 1e-14


@pytest.mark.parametrize("dims", [(2, 12), (12, 2)])
def test_optimize_basis_refuses_a_truncation_below_3(dims, monkeypatch):
    """The codewords' truncation check runs before the search starts."""
    monkeypatch.setattr(tomography, "BASIS_MAX_ITER", None)  # never reached
    rho = np.eye(dims[0] * dims[1], dtype=complex) / (dims[0] * dims[1])
    with pytest.raises(hilbert.NumericalError, match="truncation of at least 3, got 2"):
        tomography.optimize_basis(rho, dims)


def test_optimize_basis_builds_no_kets(monkeypatch):
    """No library path builds a Bell ket: both engines' heralds, the alpha
    sweep and the fit score the singlet from codewords.  On tomo-demo's
    pair the fit builds no coherent ket either: its codewords are in
    closed form."""

    def no_bell_ket(*args, **kwargs):
        raise AssertionError("a library path built a Bell ket")

    monkeypatch.setattr(codes, "bell_state", no_bell_ket)
    assert 0 < protocol.run_dmm().bell_fidelity < 1
    small = dataclasses.replace(dynamics.SystemParams(), alpha=0.5, dims=(6, 4, 6))
    assert 0 < protocol.run_dmm(small, engine="lindblad").bell_fidelity < 1
    _, fidelity, _ = protocol.alpha_sweep(dynamics.SystemParams(), [0.5, 1.0, 2.0])
    assert np.all((0 < fidelity) & (fidelity < 1))
    rho = _tomo_demo_pair((12, 12))
    coherent_calls = []
    coherent = hilbert.coherent
    monkeypatch.setattr(
        hilbert, "coherent", lambda *a, **kw: coherent_calls.append(a) or coherent(*a, **kw)
    )
    fit = tomography.optimize_basis(rho, (12, 12))
    assert fit.success
    assert coherent_calls == []


def _counting_objective(monkeypatch):
    """Patch the fit's objective to log each search it starts (its first
    point) and each derivative and value evaluation."""
    log = {"starts": [], "derivatives": 0, "values": 0}
    singlet_fidelity = tomography._singlet_fidelity

    def counting(rho, dims):
        fidelity = singlet_fidelity(rho, dims)
        starts = log["starts"]
        starts.append(None)

        def value(*x):
            log["values"] += 1
            return fidelity(*x)

        def derivatives(x):
            log["derivatives"] += 1
            if starts[-1] is None:
                starts[-1] = np.array(x)
            return fidelity.derivatives(x)

        value.derivatives = derivatives
        return value

    monkeypatch.setattr(tomography, "_singlet_fidelity", counting)
    return log


def test_optimize_basis_one_search_matches_four_starts(monkeypatch):
    """One search from the state's mean amplitude reaches the best of the
    four Kerr-angle starts on heralded, self-Kerr and twisted pairs.  On
    the pairs twisted by 1.45, 2.89 and 5.78 rad at dim 12, undamped Newton
    steps s = -H^-1 g (alpha held at 0.05 or above) run to alpha = 0.05 and
    a fidelity of 0.20 against 0.28.  The fit may land on another (theta_k,
    theta_r) with the same codewords, so only the fidelity and alpha are
    compared."""
    log = _counting_objective(monkeypatch)
    kerr_pair = protocol.run_dmm(
        dynamics.SystemParams(alpha=0.8, dims=(6, 4, 6)), engine="lindblad", include_kerr=True
    ).rho_pass
    cases = [
        (_tomo_demo_pair((12, 12)), (12, 12)),
        (kerr_pair, (6, 6)),
        (_damped_twisted_bell(1.2, 0.2, -20e3, 2.5e-6, dim=10), (10, 10)),  # theta_k 0.31
        (_damped_twisted_bell(math.sqrt(2), 0.1, -23e3, 10e-6, dim=14), (14, 14)),
    ]
    for t in (10e-6, 20e-6, 40e-6):  # theta_k 1.45, 2.89, 5.78
        cases.append((_damped_twisted_bell(1.2, 0.2, -23e3, t, dim=12), (12, 12)))
    for rho, dims in cases:
        log["starts"].clear()
        fit = tomography.optimize_basis(rho, dims)
        ref = optimize_basis_reference(rho, dims)
        assert len(log["starts"]) == 1
        assert_allclose(log["starts"][0], [_mean_amplitude(rho, dims), 0, 0], rtol=1e-14, atol=0)
        assert fit.success
        assert fit.fidelity >= -ref.fun - 1e-12
        assert fit.basis.alpha == pytest.approx(abs(ref.x[0]), abs=1e-6)


def test_optimize_basis_evaluation_counts(monkeypatch):
    """A tripwire on the fit's cost: on tomo-demo's pair it makes at most
    12 derivative and 12 value evaluations (4 and 3 when written; the
    Nelder-Mead search it replaced made 172 value evaluations), and with
    the step cap at 1 it reports that it has not converged."""
    rho = _tomo_demo_pair((12, 12))
    log = _counting_objective(monkeypatch)
    fit = tomography.optimize_basis(rho, (12, 12))
    assert fit.success
    assert 1 <= log["derivatives"] <= 12
    assert log["values"] <= 12
    monkeypatch.setattr(tomography, "BASIS_MAX_ITER", 1)
    capped = tomography.optimize_basis(rho, (12, 12))
    assert not capped.success
    assert capped.fidelity <= fit.fidelity


@pytest.mark.parametrize("trace", [0.0, -0.5, np.nan, np.inf])
def test_optimize_basis_refuses_a_trace_that_is_not_positive_and_finite(trace, monkeypatch):
    """A pair whose trace is not positive and finite has no fidelity to
    fit: the objective, and so the fit, raise NumericalError before any
    search (a zero state once gave alpha = nan with a RuntimeWarning)."""
    monkeypatch.setattr(tomography, "BASIS_MAX_ITER", None)  # never reached
    rho = np.zeros((144, 144), dtype=complex)
    rho[0, 0] = trace
    with pytest.raises(hilbert.NumericalError, match="trace must be positive and finite"):
        codes._singlet_fidelity(rho, (12, 12))
    with pytest.raises(hilbert.NumericalError, match="trace must be positive and finite"):
        tomography.optimize_basis(rho, (12, 12))


def test_optimize_basis_on_a_pair_without_singlet_weight():
    """A pair with no weight on the singlet's parity block, here the vacuum,
    has fidelity 0 in every basis: the fit starts at alpha 0.05, not at the
    mean amplitude 0, finds nothing to climb and reports success."""
    rho = np.zeros((144, 144), dtype=complex)
    rho[0, 0] = 1.0
    fit = tomography.optimize_basis(rho, (12, 12))
    assert fit.success
    assert fit.fidelity == 0.0
    assert fit.x.tolist() == [0.05, 0.0, 0.0]


def test_optimize_basis_on_clean_bell():
    words = LogicalBasis(1.4).codewords(12)
    bell = codes.bell_state(words, words)
    fit = tomography.optimize_basis(bell, (12, 12))
    assert fit.basis.alpha == pytest.approx(1.4, abs=1e-3)
    assert fit.fidelity == pytest.approx(1.0, abs=1e-6)
