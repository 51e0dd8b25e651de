"""Linear-algebra layer: states, operators, comparisons."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from darkbus import codes, hilbert
from darkbus.hilbert import HilbertSpace, QuantumState
from oracles import (
    cat,
    coherent_copying,
    create,
    displacement,
    embed,
    expect,
    fock,
    number,
    parity,
    product_ket,
    tensor,
)


def test_space_validation():
    with pytest.raises(ValueError):
        HilbertSpace((1, 4))
    with pytest.raises(ValueError):
        HilbertSpace(())
    assert HilbertSpace((3.0, 5)).dims == (3, 5)


def test_state_is_a_density_matrix_on_its_dims():
    sp = HilbertSpace((2, 3))
    rho = np.eye(6) / 6
    st_ = QuantumState(rho, sp)
    assert st_.data.dtype == complex
    assert hilbert.as_dm(st_) is st_.data
    for bad in (np.ones(6) / math.sqrt(6), np.eye(4) / 4, np.ones((6, 4))):
        with pytest.raises(ValueError):
            QuantumState(bad, sp)


def test_destroy_create_commutator():
    d = 10
    a = hilbert.destroy(d)
    comm = a @ create(d) - create(d) @ a
    # [a, a+] = 1 except at the truncation edge
    assert_allclose(np.diag(comm)[:-1], np.ones(d - 1))
    assert np.diag(comm)[-1] == pytest.approx(1 - d)


def test_coherent_amplitudes_against_formula():
    alpha = 1.3 - 0.4j
    d = 25
    k = hilbert.coherent(d, alpha, normalized=False)
    n = np.arange(d)
    expected = (
        np.exp(-abs(alpha) ** 2 / 2)
        * alpha**n
        / np.sqrt(np.array([math.factorial(int(m)) for m in n], dtype=float))
    )
    assert_allclose(k, expected, atol=1e-15)
    # unnormalized norm equals the mass inside the truncation
    short = hilbert.coherent(6, alpha, normalized=False)
    tail = sum(
        math.exp(-abs(alpha) ** 2) * abs(alpha) ** (2 * m) / math.factorial(m)
        for m in range(6)
    )
    assert np.linalg.norm(short) ** 2 == pytest.approx(tail, rel=1e-12)
    assert np.linalg.norm(hilbert.coherent(d, alpha)) == pytest.approx(1.0)


def test_coherent_is_destroy_eigenvector():
    d = 40
    alpha = 0.9 + 0.2j
    k = hilbert.coherent(d, alpha)
    resid = hilbert.destroy(d) @ k - alpha * k
    # exact except for the truncation edge component
    assert np.linalg.norm(resid) < 1e-9


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
    dim=st.integers(1, 30),
    normalized=st.booleans(),
)
def test_coherent_matches_the_copying_version(alpha, dim, normalized):
    """No final astype copy: the same complex amplitudes to 2 ulp of their
    exponent, and each amplitude of a stack exactly its own ket.  The two
    square |alpha| differently (numpy's r * r against Python's r**2, libm
    pow), which moves -|alpha|^2/2 and so the sum of the exponent's terms by
    an ulp; ``big`` bounds those terms' size."""
    ket = hilbert.coherent(dim, alpha, normalized=normalized)
    assert ket.dtype == complex
    ref = coherent_copying(dim, alpha, normalized=normalized)
    r = abs(alpha)
    if r == 0:
        assert np.array_equal(ket, ref)
    else:
        log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, dim)))))
        big = r * r / 2 + (dim - 1) * abs(math.log(r)) + log_fact[-1] / 2
        assert np.all(np.abs(ket - ref) <= 2 * np.spacing(big) * np.abs(ref))
    amps = np.array([[alpha, 0.0], [-alpha, 0.5j * alpha]])
    stack = hilbert.coherent(dim, amps, normalized=normalized)
    assert stack.shape == (2, 2, dim)
    for row, a in zip(stack.reshape(-1, dim), amps.ravel()):
        assert np.array_equal(row, hilbert.coherent(dim, a, normalized=normalized))


def test_displacement_unitary_and_action():
    d = 30
    beta = 0.7 - 0.3j
    dd = displacement(d, beta)
    assert_allclose(dd @ dd.conj().T, np.eye(d), atol=1e-9)
    moved = dd @ fock(d, 0)
    assert abs(np.vdot(moved, hilbert.coherent(d, beta))) == pytest.approx(
        1.0, abs=1e-9
    )


def test_cat_parity():
    d = 30
    even = cat(d, 1.2, phase=0.0)
    odd = cat(d, 1.2, phase=math.pi)
    par = parity(d)
    assert np.vdot(even, par @ even).real == pytest.approx(1.0)
    assert np.vdot(odd, par @ odd).real == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        cat(d, 0.0, phase=math.pi)


def test_embed_and_product_ket():
    dims = (2, 3)
    n_c = embed(dims, {1: number(3)})
    psi = product_ket(dims, {1: fock(3, 2)})
    assert expect(n_c, psi).real == pytest.approx(2.0)
    assert expect(n_c, hilbert.as_dm(psi)).real == pytest.approx(2.0)
    with pytest.raises(KeyError):
        embed(dims, {2: np.eye(2)})
    with pytest.raises(ValueError):
        embed(dims, {0: np.eye(3)})
    # the protocol's modes by name
    n_bus = embed((2, 3, 2), {"bus": number(3)})
    assert_allclose(n_bus, embed((2, 3, 2), {1: number(3)}))


def test_partial_trace_pure_product():
    dims = (2, 3, 2)
    psi = product_ket(dims, {0: fock(2, 1), 1: fock(3, 2)})
    red = hilbert.partial_trace(hilbert.as_dm(psi), dims, [0])
    assert_allclose(red, np.diag([0, 1.0]), atol=1e-14)
    # tracing everything but one entangled pair keeps it mixed
    bell = np.zeros(4, dtype=complex)
    bell[0], bell[3] = 1 / math.sqrt(2), 1 / math.sqrt(2)
    red = hilbert.partial_trace(hilbert.as_dm(bell), (2, 2), [0])
    assert_allclose(red, np.eye(2) / 2, atol=1e-14)


def test_condition_matches_kronecker_trace():
    """Tr_2[(1 x O) rho], built by a Kronecker product and a partial trace,
    for each operator of a (2, 3) stack on unequal dims, from a density
    matrix and from a ket."""
    rng = np.random.default_rng(5)
    dims = (3, 4)
    ket = rng.normal(size=12) + 1j * rng.normal(size=12)
    ket /= np.linalg.norm(ket)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    rho = a @ a.conj().T / np.trace(a @ a.conj().T)
    ops = rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4))
    for state in (rho, ket):
        out = hilbert.condition(state, dims, ops)
        assert out.shape == (2, 3, 3, 3)
        for idx in np.ndindex(2, 3):
            full = np.kron(np.eye(3), ops[idx]) @ hilbert.as_dm(state)
            assert_allclose(out[idx], hilbert.partial_trace(full, dims, [0]), rtol=0, atol=1e-13)
    assert hilbert.condition(rho, dims, ops[0, 0]).shape == (3, 3)


def test_condition_completeness():
    """A complete measurement of mode 2 (the logical |0> and |1> and the
    leakage rest) splits mode 1's reduced state into conditioned parts whose
    traces sum to 1; the ideal cat Bell pair never leaks."""
    words = codes.LogicalBasis(1.1).codewords(10)
    bell = codes.bell_state(words, words)
    zero = np.outer(words.zero, words.zero.conj())
    one = np.outer(words.one, words.one.conj())
    cond = hilbert.condition(bell, (10, 10), np.stack((zero, one, np.eye(10) - zero - one)))
    probs = np.real(np.trace(cond, axis1=1, axis2=2))
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    rdm1 = hilbert.partial_trace(hilbert.as_dm(bell), (10, 10), keep=[0])
    assert_allclose(cond.sum(axis=0), rdm1, atol=1e-12)
    assert probs[2] == pytest.approx(0.0, abs=1e-9)


def test_fidelity_conventions():
    d = 6
    k0 = fock(d, 0)
    k1 = fock(d, 1)
    plus = (k0 + k1) / math.sqrt(2)
    assert hilbert.fidelity(k0, k0) == pytest.approx(1.0)
    assert hilbert.fidelity(k0, k1) == pytest.approx(0.0)
    assert hilbert.fidelity(k0, plus) == pytest.approx(0.5)
    # ket vs dm and dm vs dm agree with the pure formula
    rho = hilbert.as_dm(plus)
    assert hilbert.fidelity(k0, rho) == pytest.approx(0.5)
    assert hilbert.fidelity(hilbert.as_dm(k0), rho) == pytest.approx(0.5, abs=1e-9)


def test_trace_distance_orthogonal_and_equal():
    k0, k1 = fock(4, 0), fock(4, 1)
    assert hilbert.trace_distance(k0, k1) == pytest.approx(1.0)
    assert hilbert.trace_distance(k0, k0) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0.0, max_value=2 * math.pi),
)
def test_fidelity_bounds_property(n, m, phase):
    d = 5
    a = fock(d, n)
    b = (fock(d, m) + np.exp(1j * phase) * fock(d, (m + 1) % d)) / math.sqrt(2)
    f = hilbert.fidelity(a, b)
    assert -1e-12 <= f <= 1 + 1e-12
    t = hilbert.trace_distance(a, b)
    # Fuchs - van de Graaf for pure states: T = sqrt(1 - F)
    assert t == pytest.approx(math.sqrt(max(1 - f, 0.0)), abs=1e-9)


def test_edge_population_flags_truncation():
    small = hilbert.coherent(8, 0.5)
    big = hilbert.coherent(8, 2.5)
    assert hilbert.edge_population(small, (8,))[0] < 1e-6
    assert hilbert.edge_population(big, (8,))[0] > 1e-3
    # per mode of a product, from a ket or its density matrix alike
    dims = (8, 3, 8)
    psi = product_ket(dims, {0: small, 1: fock(3, 2), 2: big})
    pops = hilbert.edge_population(psi, dims)
    assert_allclose(pops, hilbert.edge_population(hilbert.as_dm(psi), dims), atol=1e-15)
    assert pops[0] < 1e-6 and pops[1] == pytest.approx(1.0) and pops[2] > 1e-3


def test_suggest_dim():
    d = hilbert.suggest_dim(math.sqrt(2), tol=1e-9)
    k = hilbert.coherent(d, math.sqrt(2), normalized=False)
    assert 1 - np.linalg.norm(k) ** 2 < 1e-9
    assert hilbert.suggest_dim(0.0) == 2
    assert hilbert.suggest_dim(1e-6) == 2
    for tol in (0.0, -1.0, 1.0, 2.0, math.nan):
        with pytest.raises(ValueError):
            hilbert.suggest_dim(1.0, tol=tol)
    for alpha in (1.0001e4, math.inf, math.nan):  # beyond any truncation a state can hold
        with pytest.raises(ValueError):
            hilbert.suggest_dim(alpha)


@settings(max_examples=200, deadline=None)
@given(
    a=st.one_of(st.floats(0.0, 3.0), st.floats(0.0, 1e-3)),
    b=st.floats(0.0, 3.0),
    tol=st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]),
)
def test_suggest_dim_is_a_valid_truncation(a, b, tol):
    """At least 2 levels, a Poisson tail beyond them within tol, and never
    fewer levels for a larger amplitude."""
    d = hilbert.suggest_dim(a, tol=tol)
    assert d >= 2
    # P(n >= d) for a Poisson law of mean a^2 is the regularized gamma P(d, a^2)
    # (within rounding: the library sums ln p_n in log space)
    assert scipy.special.gammainc(d, a * a) <= tol + 1e-14
    lo, hi = sorted((a, b))
    assert hilbert.suggest_dim(lo, tol=tol) <= hilbert.suggest_dim(hi, tol=tol)


@pytest.mark.parametrize("tol", [1e-3, 1e-9, 1e-15])
def test_suggest_dim_is_exact_at_large_amplitudes(tol):
    """d is the smallest truncation with P(n >= d) <= tol, checked against
    scipy's Poisson tail on a grid up to |alpha| = 150, through the range
    where e^{-|alpha|^2} is subnormal (|alpha| > 26.6) or 0 (> 27.3)."""
    grid = np.concatenate([np.linspace(0.01, 150, 151), [27.0, 27.1, 27.2, 28.0]])
    for alpha in grid:
        d = hilbert.suggest_dim(alpha, tol=tol)
        lam = alpha**2
        # sf(k) = P(n > k): the tail from d is within tol, the one from d - 1 is not
        assert scipy.stats.poisson.sf(d - 1, lam) <= tol
        assert d == 2 or scipy.stats.poisson.sf(d - 2, lam) > tol
    assert [hilbert.suggest_dim(a) for a in (27.0, 27.1, 28.0, 150.0)] == [898, 904, 959, 23406]


def test_tensor_sparse_dense_mix():
    import scipy.sparse

    a = scipy.sparse.identity(2, format="csr")
    b = np.diag([1.0, 2.0])
    t = tensor(a, b)
    assert scipy.sparse.issparse(t)
    assert_allclose(t.toarray(), np.kron(np.eye(2), b))
