"""Linear-algebra layer: states, operators, channels, comparisons."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from darkbus import dynamics, hilbert
from darkbus.hilbert import HilbertSpace, QuantumState
from oracles import (
    cat,
    coherent_copying,
    create,
    displacement,
    embed,
    expect,
    number,
    parity,
    product_ket,
    tensor,
)


def test_space_validation():
    with pytest.raises(ValueError):
        HilbertSpace((1, 4))
    with pytest.raises(ValueError):
        HilbertSpace((4, 4), ("a",))
    with pytest.raises(ValueError):
        HilbertSpace((4, 4), ("a", "a"))
    sp = HilbertSpace((3, 5), ("cav", "bus"))
    assert sp.dim == 15
    assert sp.axis("bus") == 1
    with pytest.raises(KeyError):
        sp.axis("nope")


def test_subspace_reorders():
    sp = HilbertSpace((2, 3, 4), ("a", "b", "c"))
    sub = sp.subspace(("c", "a"))
    assert sub.dims == (4, 2)
    assert sub.labels == ("c", "a")


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
    """No final astype copy: the same complex amplitudes, bit for bit."""
    ket = hilbert.coherent(dim, alpha, normalized=normalized)
    assert ket.dtype == complex
    assert np.array_equal(ket, coherent_copying(dim, alpha, normalized=normalized))


def test_displacement_unitary_and_action():
    d = 30
    beta = 0.7 - 0.3j
    dd = displacement(d, beta)
    assert_allclose(dd @ dd.conj().T, np.eye(d), atol=1e-9)
    moved = dd @ hilbert.fock(d, 0)
    assert abs(hilbert.overlap(moved, hilbert.coherent(d, beta))) == pytest.approx(
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


def test_amplitude_damp_coherent_shrinks():
    """|a><a| --> |a sqrt(1-g)><a sqrt(1-g)| under amplitude damping."""
    d = 30
    alpha, g = 1.1, 0.3
    rho = hilbert.as_dm(hilbert.coherent(d, alpha))
    out = hilbert.amplitude_damp(rho, g)
    target = hilbert.coherent(d, alpha * math.sqrt(1 - g))
    assert np.vdot(target, out @ target).real == pytest.approx(1.0, abs=1e-10)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)


def test_amplitude_damp_limits():
    d = 8
    rho = hilbert.as_dm(hilbert.fock(d, 3))
    assert_allclose(hilbert.amplitude_damp(rho, 0.0), rho)
    gone = hilbert.amplitude_damp(rho, 1.0)
    assert gone[0, 0].real == pytest.approx(1.0)
    with pytest.raises(ValueError):
        hilbert.amplitude_damp(rho, 1.5)


@settings(max_examples=25, deadline=None)
@given(
    dims=st.lists(st.integers(2, 5), min_size=2, max_size=3),
    axis_pick=st.integers(0, 2),
    gt=st.floats(0.01, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_amplitude_damp_on_one_mode_matches_master_equation(dims, axis_pick, gt, seed):
    """On one mode of a multi-mode state, the Kraus map with
    gamma = 1 - exp(-G t) is the master-equation solve under sqrt(G) a."""
    dims = tuple(dims)
    axis = axis_pick % len(dims)
    rate = 1e6
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(math.prod(dims),) * 2) + 1j * rng.normal(size=(math.prod(dims),) * 2)
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    space = HilbertSpace(dims)
    a = embed(space, {space.labels[axis]: hilbert.destroy(dims[axis])})
    t = gt / rate
    ref = dynamics.lindblad_evolve(
        0 * a, [math.sqrt(rate) * a], QuantumState(rho, space), t
    ).final.dm()
    out = hilbert.amplitude_damp(rho, -math.expm1(-rate * t), dims, axis)
    assert_allclose(out, ref, rtol=0, atol=1e-12)
    assert np.array_equal(hilbert.amplitude_damp(rho, 0.0, dims, axis), rho)


def test_amplitude_damp_rejects_bad_shapes():
    rho = np.eye(6) / 6
    with pytest.raises(ValueError):
        hilbert.amplitude_damp(rho, 0.1, (2, 2))
    with pytest.raises(ValueError):
        hilbert.amplitude_damp(rho, 0.1, (2, 3), axis=2)


def test_embed_and_product_ket():
    sp = HilbertSpace((2, 3), ("q", "c"))
    n_c = embed(sp, {"c": number(3)})
    psi = product_ket(sp, {"c": hilbert.fock(3, 2)})
    assert expect(n_c, psi).real == pytest.approx(2.0)
    with pytest.raises(KeyError):
        embed(sp, {"zz": np.eye(2)})
    with pytest.raises(ValueError):
        embed(sp, {"q": np.eye(3)})


def test_partial_trace_pure_product():
    sp = HilbertSpace((2, 3, 2), ("a", "b", "c"))
    psi = product_ket(
        sp, {"a": hilbert.fock(2, 1), "b": hilbert.fock(3, 2)}
    )
    red = psi.ptrace(("a",))
    assert_allclose(red.dm(), np.diag([0, 1.0]), atol=1e-14)
    # tracing everything but one entangled pair keeps it mixed
    bell = np.zeros(4, dtype=complex)
    bell[0], bell[3] = 1 / math.sqrt(2), 1 / math.sqrt(2)
    st2 = QuantumState(bell, HilbertSpace((2, 2), ("x", "y")))
    assert_allclose(st2.ptrace("x").dm(), np.eye(2) / 2, atol=1e-14)


def test_ptrace_respects_keep_order():
    sp = HilbertSpace((2, 3), ("a", "b"))
    psi = product_ket(sp, {"a": hilbert.fock(2, 1), "b": hilbert.fock(3, 2)})
    swapped = psi.ptrace(("b", "a"))
    assert swapped.space.dims == (3, 2)
    assert swapped.dm()[2 * 2 + 1, 2 * 2 + 1].real == pytest.approx(1.0)


def test_fidelity_conventions():
    d = 6
    k0 = hilbert.fock(d, 0)
    k1 = hilbert.fock(d, 1)
    plus = (k0 + k1) / math.sqrt(2)
    assert hilbert.fidelity(k0, k0) == pytest.approx(1.0)
    assert hilbert.fidelity(k0, k1) == pytest.approx(0.0)
    assert hilbert.fidelity(k0, plus) == pytest.approx(0.5)
    # ket vs dm and dm vs dm agree with the pure formula
    rho = hilbert.as_dm(plus)
    assert hilbert.fidelity(k0, rho) == pytest.approx(0.5)
    assert hilbert.fidelity(hilbert.as_dm(k0), rho) == pytest.approx(0.5, abs=1e-9)


def test_trace_distance_orthogonal_and_equal():
    k0, k1 = hilbert.fock(4, 0), hilbert.fock(4, 1)
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
    a = hilbert.fock(d, n)
    b = (hilbert.fock(d, m) + np.exp(1j * phase) * hilbert.fock(d, (m + 1) % d)) / math.sqrt(2)
    f = hilbert.fidelity(a, b)
    assert -1e-12 <= f <= 1 + 1e-12
    t = hilbert.trace_distance(a, b)
    # Fuchs - van de Graaf for pure states: T = sqrt(1 - F)
    assert t == pytest.approx(math.sqrt(max(1 - f, 0.0)), abs=1e-9)


def test_normalized_and_trace():
    sp = HilbertSpace((4,))
    k = QuantumState(2.0 * hilbert.fock(4, 1), sp)
    assert k.trace == pytest.approx(4.0)
    assert k.normalized().trace == pytest.approx(1.0)
    with pytest.raises(hilbert.NumericalError):
        QuantumState(np.zeros(4), sp).normalized()


def test_edge_population_flags_truncation():
    sp = HilbertSpace((8,), ("cav",))
    small = QuantumState(hilbert.coherent(8, 0.5), sp)
    big = QuantumState(hilbert.coherent(8, 2.5), sp)
    assert hilbert.edge_population(small)["cav"] < 1e-6
    assert hilbert.edge_population(big)["cav"] > 1e-3


def test_suggest_dim():
    d = hilbert.suggest_dim(math.sqrt(2), tol=1e-9)
    k = hilbert.coherent(d, math.sqrt(2), normalized=False)
    assert 1 - np.linalg.norm(k) ** 2 < 1e-9
    assert hilbert.suggest_dim(0.0) == 2


def test_tensor_sparse_dense_mix():
    import scipy.sparse

    a = scipy.sparse.identity(2, format="csr")
    b = np.diag([1.0, 2.0])
    t = tensor(a, b)
    assert scipy.sparse.issparse(t)
    assert_allclose(t.toarray(), np.kron(np.eye(2), b))
