"""Truncated-Fock-space primitives shared by every other layer of the package.

Conventions used throughout:

* a "mode" is a harmonic oscillator truncated to ``dim`` Fock levels,
* multi-mode spaces are Kronecker products in mode order, described by
  their tuple of truncations ``dims``,
* kets are 1-d complex arrays, density matrices 2-d complex arrays,
* operators act inside the truncated space; population pushed against the
  truncation edge is silently lost by the dynamics, so :func:`edge_population`
  exists to make that visible.

Nothing in here knows about buses, cats or heralding -- it is plain linear
algebra on numpy arrays.  :class:`QuantumState` pairs one density matrix
with its truncations; the library builds one, the heralded pair of
:func:`darkbus.protocol.run_dmm`, and every other state is a bare array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NumericalError(RuntimeError):
    """Raised when an iteration diverges or produces non-finite numbers, or
    when a result the analysis needs vanishes (cat codewords at alpha = 0)."""


# ---------------------------------------------------------------------------
# spaces and states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HilbertSpace:
    """Fock truncation of each mode of a tensor product, in tensor order."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims or any(d < 2 for d in dims):
            raise ValueError(f"every mode needs dim >= 2, got {dims}")


@dataclass
class QuantumState:
    """A density matrix together with the truncations of its modes."""

    data: np.ndarray
    space: HilbertSpace

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        dim = math.prod(self.space.dims)
        if self.data.shape != (dim, dim):
            raise ValueError(
                f"state of shape {self.data.shape} is no density matrix on dims {self.space.dims}"
            )


def as_dm(state) -> np.ndarray:
    """Accept a ket, a density matrix or a QuantumState; hand back a dense dm."""
    if isinstance(state, QuantumState):
        return state.data
    arr = np.asarray(state, dtype=complex)
    return np.outer(arr, arr.conj()) if arr.ndim == 1 else arr


# ---------------------------------------------------------------------------
# single-mode building blocks
# ---------------------------------------------------------------------------


def destroy(dim: int) -> np.ndarray:
    """Lowering operator a with <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def coherent(dim: int, alpha, normalized: bool = True) -> np.ndarray:
    """Coherent state amplitudes e^{-|a|^2/2} alpha^n / sqrt(n!).

    With ``normalized=False`` the amplitudes are the exact projection of the
    infinite-dimensional state onto the truncated space (norm < 1); this is
    what the coherent engine's herald analysis wants.  The default
    renormalizes inside the truncation, which is what state preparation wants.
    ``alpha`` may be an array: the kets then stack along its axes, shape
    ``np.shape(alpha) + (dim,)``, each exactly the ket of its amplitude alone.
    """
    alpha = np.asarray(alpha)[..., None]
    r = np.hypot(alpha.real, alpha.imag)  # what abs() gives for one amplitude
    half = -(r * r) / 2
    n = np.arange(dim)
    # log-space to stay finite for large alpha and dim; at alpha = 0 every
    # n > 0 term is e^{-inf} = 0, and the n = 0 term, 0 * log 0, is set to
    # the 0 it is for any other alpha, which leaves the vacuum
    with np.errstate(divide="ignore", invalid="ignore"):
        logmag = half + n * np.log(r)
    logmag[..., :1] = half
    amp = np.exp(logmag - _log_factorials(dim) / 2) * np.exp(1j * n * np.angle(alpha))
    if normalized:
        amp /= norm(amp)
    return amp


def _log_factorials(dim: int) -> np.ndarray:
    """ln(n!) for n < dim: coherent kets', codewords' and Wigner kernels' table."""
    return np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, dim)))))


def norm(kets: np.ndarray):
    """2-norm of each ket along the last axis, kept as an axis of length 1
    so that ``kets / norm(kets)`` normalizes each: the dot products of its
    real and its imaginary part, as 1 x n by n x 1 matrix products, summed
    (the bits ``np.linalg.norm`` gives for one ket)."""
    re, im = kets.real[..., None, :], kets.imag[..., None, :]
    return np.sqrt(re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2))[..., 0]


# ---------------------------------------------------------------------------
# multi-mode reduction
# ---------------------------------------------------------------------------


def partial_trace(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every mode not listed in ``keep`` (axis indices)."""
    dims = list(dims)
    n = len(dims)
    keep = sorted(keep)
    rho = np.asarray(rho).reshape(dims + dims)
    idx_ket = list(range(n))
    idx_bra = list(range(n, 2 * n))
    for i in range(n):
        if i not in keep:
            idx_bra[i] = idx_ket[i]  # contract this pair
    out = [idx_ket[i] for i in keep] + [idx_bra[i] for i in keep]
    reduced = np.einsum(rho, idx_ket + idx_bra, out)
    d = int(np.prod([dims[i] for i in keep])) if keep else 1
    return reduced.reshape(d, d)


def condition(rho, dims, ops) -> np.ndarray:
    """Tr_2[(1 x O) rho] of a two-mode ket or density matrix on ``dims``, for
    mode-2 operators O stacked along the leading axes of ``ops``: the
    unnormalized mode-1 state left by the measurement element O, with the
    outcome's probability as its trace."""
    d1, d2 = dims
    return np.einsum("ijkl,...lj->...ik", as_dm(rho).reshape(d1, d2, d1, d2), ops)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(a, b) -> float:
    """State fidelity, squared-overlap convention: F(pure, pure) = |<a|b>|^2.

    A 1-d argument is a ket.  For two density matrices this is the Uhlmann
    fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.
    """
    a_ket, b_ket = np.ndim(a) == 1, np.ndim(b) == 1
    if a_ket and b_ket:
        return float(abs(complex(np.vdot(a, b))) ** 2)
    if a_ket or b_ket:
        ket, rho = (a, b) if a_ket else (b, a)
        ket = np.asarray(ket)
        return float(np.real(np.vdot(ket, as_dm(rho) @ ket)))
    ra, rb = as_dm(a), as_dm(b)
    sq = _psd_sqrt(ra)
    inner = _psd_sqrt(sq @ rb @ sq)
    return float(np.real(np.trace(inner)) ** 2)


def trace_distance(a, b) -> float:
    """T(rho, sigma) = (1/2) ||rho - sigma||_1."""
    diff = as_dm(a) - as_dm(b)
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


# ---------------------------------------------------------------------------
# truncation bookkeeping
# ---------------------------------------------------------------------------


def edge_population(state, dims) -> tuple[float, ...]:
    """Population in the top Fock level of each mode of a ket or density
    matrix on the truncations ``dims``, one value per mode.

    This is the honest diagnostic for "was the truncation big enough":
    anything much above float noise means amplitude is piling up against
    the edge and the simulation is quietly lossy.
    """
    dims = tuple(int(d) for d in dims)
    state = np.asarray(state)
    diag = np.abs(state) ** 2 if state.ndim == 1 else np.real(np.diagonal(state))
    pops = diag.reshape(dims)
    out = []
    for axis in range(len(dims)):
        marginal = pops.sum(axis=tuple(i for i in range(len(dims)) if i != axis))
        out.append(float(marginal[-1]))
    return tuple(out)


def suggest_dim(alpha: float, tol: float = 1e-9) -> int:
    """Smallest truncation d (at least 2) whose tail mass P(n >= d) of a
    coherent state's photon number is at most tol, for tol in (0, 1) and
    |alpha| <= 1e4 (no dense state holds the 1e8 levels beyond that).

    The Poisson terms ln p_n = n ln|alpha|^2 - |alpha|^2 - ln n! are summed
    in log space from the far tail inward, so nothing underflows: p_0 =
    e^{-|alpha|^2} alone is subnormal beyond |alpha| ~ 26.6 and 0 beyond
    27.3.  Past n > |alpha|^2 the terms fall faster than a geometric series
    of ratio |alpha|^2 / (n + 1), which bounds the tail left unsummed.
    """
    if not 0 < tol < 1:
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    lam = abs(alpha) ** 2
    if not lam <= 1e8:
        raise ValueError(f"suggest_dim needs |alpha| <= 1e4, got {alpha!r}")
    if lam == 0:
        return 2
    log_lam, log_tol = math.log(lam), math.log(tol)

    def log_p(n):
        return n * log_lam - lam - math.lgamma(n + 1)

    # out from the mean m in doubling steps, to a top whose whole tail, at
    # most p_top / (1 - |alpha|^2 / (top + 1)), is below tol e^-40
    m = math.ceil(lam)
    step = math.isqrt(m) + 1
    while log_p(m + step) - math.log1p(-lam / (m + step + 1)) > log_tol - 40:
        step *= 2
    d, log_tail = m + step, -math.inf
    while d > 2:
        log_tail = float(np.logaddexp(log_tail, log_p(d - 1)))  # ln P(n >= d - 1)
        if log_tail > log_tol:
            break
        d -= 1
    return d
