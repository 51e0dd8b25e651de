"""Cat-code layer: codewords, logical operators, the Bell target, Kerr twist."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from darkbus import codes, hilbert
from darkbus.codes import LogicalBasis
from oracles import (
    bell_state_kron,
    codewords_four_coherent,
    kerr_twist_angle,
    kerr_unitary,
    logical_paulis,
    parity,
)

DIM = 25
ALPHA = math.sqrt(2)


def test_codewords_orthonormal_and_vacuum_free():
    w = LogicalBasis(ALPHA).codewords(DIM)
    assert np.linalg.norm(w.plus) == pytest.approx(1.0)
    assert np.linalg.norm(w.minus) == pytest.approx(1.0)
    assert abs(np.vdot(w.plus, w.minus)) < 1e-14
    assert w.plus[0] == 0.0  # the whole point of the modified basis
    # the odd branch never had vacuum support
    assert abs(w.minus[0]) < 1e-15


def test_codewords_small_alpha_limit():
    """As alpha -> 0 the vacuum-free even cat tends to |2> and the odd to |1>."""
    w = LogicalBasis(5e-3).codewords(8)
    assert abs(w.plus[2]) == pytest.approx(1.0, abs=1e-4)
    assert abs(w.minus[1]) == pytest.approx(1.0, abs=1e-4)


def test_codeword_parity():
    w = LogicalBasis(ALPHA).codewords(DIM)
    par = parity(DIM)
    assert np.vdot(w.plus, par @ w.plus).real == pytest.approx(1.0)
    assert np.vdot(w.minus, par @ w.minus).real == pytest.approx(-1.0)


def test_logical_pauli_algebra():
    w = LogicalBasis(1.1).codewords(DIM)
    p = logical_paulis(w)
    eye_l = p["I"]
    for s in ("X", "Y", "Z"):
        assert_allclose(p[s] @ p[s], eye_l, atol=1e-13)
        assert_allclose(p[s], p[s].conj().T, atol=1e-13)
    assert_allclose(p["X"] @ p["Z"] + p["Z"] @ p["X"], np.zeros((DIM, DIM)), atol=1e-13)
    assert_allclose(1j * p["X"] @ p["Z"], p["Y"], atol=1e-13)
    # projector property of the logical identity
    assert_allclose(eye_l @ eye_l, eye_l, atol=1e-13)
    assert np.trace(eye_l).real == pytest.approx(2.0)


def test_computational_basis_eigenstates():
    w = LogicalBasis(ALPHA).codewords(DIM)
    p = logical_paulis(w)
    assert_allclose(p["Z"] @ w.zero, w.zero, atol=1e-13)
    assert_allclose(p["Z"] @ w.one, -w.one, atol=1e-13)
    assert_allclose(p["X"] @ w.plus, w.plus, atol=1e-13)


def test_ket_encoding():
    w = LogicalBasis(ALPHA).codewords(DIM)
    k = w.ket(1 / math.sqrt(2), 1j / math.sqrt(2))
    assert np.linalg.norm(k) == pytest.approx(1.0)
    p = logical_paulis(w)
    assert np.vdot(k, p["Y"] @ k).real == pytest.approx(1.0)


_ANGLE = st.floats(0.01, 3.0) | st.floats(-3.0, -0.01)


def _oracle_tolerance(theta_k, theta_r, dim):
    """How far the closed-form codewords may sit from the four-coherent-ket
    oracle: 4e-15 of rounding in the magnitudes, plus two ulp of the largest
    twist phase theta_r n + theta_k n(n-1)/2, which the two forms round
    differently (theta_k times the integer n(n-1)/2 against
    ((theta_k/2) n)(n-1))."""
    n = dim - 1
    return 4e-15 + 2 * np.spacing(abs(theta_r) * n + abs(theta_k) * n * (n - 1) / 2)


@settings(max_examples=80, deadline=None)
@given(
    alpha=st.floats(0.05, 3.0, exclude_min=True, exclude_max=True),
    theta_k=_ANGLE,
    theta_r=_ANGLE,
    dims=st.tuples(st.integers(3, 20), st.integers(3, 20)),
)
@example(alpha=1.4, theta_k=0.7, theta_r=-0.3, dims=(8, 12))
def test_codewords_and_bell_state_match_long_forms(alpha, theta_k, theta_r, dims):
    """The closed-form codewords, and the flattened outer products of their
    Bell ket, agree with four coherent kets and np.kron to rounding (see
    _oracle_tolerance); a stack of amplitudes gives each amplitude's own
    bits."""
    basis = LogicalBasis(alpha, theta_k=theta_k, theta_r=theta_r)
    w1, w2 = (basis.codewords(d) for d in dims)
    r1, r2 = (codewords_four_coherent(basis, d) for d in dims)
    tols = [_oracle_tolerance(theta_k, theta_r, d) for d in dims]
    for w, r, tol in ((w1, r1, tols[0]), (w2, r2, tols[1])):
        assert np.max(np.abs(w.plus - r.plus)) <= tol
        assert np.max(np.abs(w.minus - r.minus)) <= tol
    assert np.max(np.abs(codes.bell_state(w1, w2) - bell_state_kron(r1, r2))) <= sum(tols)
    assert np.max(np.abs(codes.bell_state(w2, w1) - bell_state_kron(r2, r1))) <= sum(tols)
    amps = np.array([alpha, 0.5 * alpha, 3.0 - alpha])
    stack = LogicalBasis(amps, theta_k=theta_k, theta_r=theta_r).codewords(dims[0])
    bells = codes.bell_state(stack, w2)
    for k, a in enumerate(amps):
        one = LogicalBasis(a, theta_k=theta_k, theta_r=theta_r).codewords(dims[0])
        assert np.array_equal(stack.plus[k], one.plus)
        assert np.array_equal(stack.minus[k], one.minus)
        assert np.array_equal(bells[k], codes.bell_state(one, w2))


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(1e-3, 6.0),
    theta_k=st.floats(-7.0, 7.0),
    theta_r=st.floats(-7.0, 7.0),
    dim=st.integers(3, 40),
)
@example(alpha=math.sqrt(2), theta_k=0.0, theta_r=0.0, dim=12)
@example(alpha=2.5, theta_k=0.0, theta_r=0.0, dim=12)
def test_codewords_are_exactly_zero_off_their_parity(alpha, theta_k, theta_r, dim):
    """|+>_L has no odd and no vacuum entry and |->_L no even entry, exactly
    (not to rounding), so the two are exactly orthogonal."""
    w = LogicalBasis(alpha, theta_k=theta_k, theta_r=theta_r).codewords(dim)
    assert w.plus[0] == 0
    assert not w.plus[1::2].any()
    assert not w.minus[0::2].any()
    assert np.vdot(w.plus, w.minus) == 0


def test_bell_state_is_singlet_in_both_bases():
    """(|01>-|10>)/sqrt(2) equals (|-+>-|+->)/sqrt(2) up to global phase."""
    w1 = LogicalBasis(ALPHA).codewords(DIM)
    w2 = LogicalBasis(ALPHA).codewords(DIM)
    bell = codes.bell_state(w1, w2)
    assert np.linalg.norm(bell) == pytest.approx(1.0)
    alt = (np.kron(w1.minus, w2.plus) - np.kron(w1.plus, w2.minus)) / math.sqrt(2)
    assert abs(np.vdot(alt, bell)) == pytest.approx(1.0, abs=1e-13)


def test_kerr_absorption_identity():
    """Free Kerr evolution is exactly undone by the matching basis twist.

    Evolve codewords under e^{-i 2pi K t n(n-1)/2}, then decode in the basis
    twisted by kerr_twist_angle(K, t): fidelity must return to 1.
    """
    kerr_hz, t = -23e3, 3.7e-6
    base = LogicalBasis(1.2)
    w = base.codewords(DIM)
    u = kerr_unitary(DIM, kerr_hz, t)
    evolved = u @ w.ket(0.6, 0.8j)

    theta = kerr_twist_angle(kerr_hz, t)
    w_twisted = LogicalBasis(base.alpha, theta_k=theta).codewords(DIM)
    target = w_twisted.ket(0.6, 0.8j)
    assert abs(np.vdot(target, evolved)) ** 2 == pytest.approx(1.0, abs=1e-9)
    # and the untwisted basis really does see infidelity, so the identity
    # is not vacuously true
    naive = w.ket(0.6, 0.8j)
    assert abs(np.vdot(naive, evolved)) ** 2 < 0.999


def test_basis_with_rotation():
    w0 = LogicalBasis(1.0).codewords(DIM)
    wr = LogicalBasis(1.0, theta_r=0.4).codewords(DIM)
    n = np.arange(DIM)
    rot = np.exp(1j * 0.4 * n)
    assert_allclose(wr.plus, rot * w0.plus, atol=1e-14)


@pytest.mark.parametrize("alpha", [0.0, -1e-3, -1.0, [1.0, -2.0], math.nan])
def test_codewords_refuse_an_amplitude_that_is_not_positive(alpha):
    """An amplitude is a modulus: a negative one raises like zero does,
    instead of giving a sign-flipped |->_L."""
    with pytest.raises(hilbert.NumericalError, match="alpha > 0"):
        LogicalBasis(alpha).codewords(8)


def test_codewords_invalid():
    with pytest.raises(hilbert.NumericalError):
        LogicalBasis(0.0).codewords(8)
    with pytest.raises(hilbert.NumericalError):
        LogicalBasis(np.array([1.0, 0.0])).codewords(8)
    # below dim 3 the vacuum-free plus codeword is exactly zero: refused,
    # never rounding normalized into a unit ket
    for alpha in (math.sqrt(2), np.array([1.0, 2.0])):
        for dim in (1, 2):
            with pytest.raises(hilbert.NumericalError, match="truncation of at least 3"):
                LogicalBasis(alpha).codewords(dim)
    assert LogicalBasis(math.sqrt(2)).codewords(3).plus[2] == pytest.approx(1.0)
