"""Truncated-Fock-space primitives shared by every other layer of the package.

Conventions used throughout:

* a "mode" is a harmonic oscillator truncated to ``dim`` Fock levels,
* multi-mode spaces are Kronecker products in label order,
* kets are 1-d complex arrays, density matrices 2-d complex arrays,
* operators act inside the truncated space; population pushed against the
  truncation edge is silently lost by the dynamics, so :func:`edge_population`
  exists to make that visible.

Nothing in here knows about buses, cats or heralding -- it is plain linear
algebra on numpy arrays, with one thin dataclass wrapper so
that states carry their mode structure around with them.
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


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"mode{i}" for i in range(n))


@dataclass(frozen=True)
class HilbertSpace:
    """Tensor product of truncated oscillator modes.

    Parameters
    ----------
    dims:
        Fock truncation of each mode, in tensor order.
    labels:
        Human-readable mode names ("cav1", "bus", ...).  Defaults to
        ``mode0, mode1, ...``.
    """

    dims: tuple[int, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims or any(d < 2 for d in dims):
            raise ValueError(f"every mode needs dim >= 2, got {dims}")
        labels = tuple(self.labels) or _default_labels(len(dims))
        if len(labels) != len(dims):
            raise ValueError("need one label per mode")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate mode labels: {labels}")
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def n_modes(self) -> int:
        return len(self.dims)

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no mode {label!r} in {self.labels}") from None

    def subspace(self, keep: tuple[str, ...]) -> "HilbertSpace":
        axes = [self.axis(lb) for lb in keep]
        return HilbertSpace(tuple(self.dims[a] for a in axes), tuple(keep))


@dataclass
class QuantumState:
    """A ket (1-d) or density matrix (2-d) together with its mode structure."""

    data: np.ndarray
    space: HilbertSpace

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.ndim not in (1, 2):
            raise ValueError("state must be a ket (1-d) or density matrix (2-d)")
        if self.data.shape[0] != self.space.dim:
            raise ValueError(
                f"state of dim {self.data.shape[0]} does not fit space of dim {self.space.dim}"
            )

    @property
    def is_ket(self) -> bool:
        return self.data.ndim == 1

    def dm(self) -> np.ndarray:
        """Dense density matrix regardless of the underlying representation."""
        if self.is_ket:
            return np.outer(self.data, self.data.conj())
        return self.data

    @property
    def trace(self) -> float:
        if self.is_ket:
            return float(np.vdot(self.data, self.data).real)
        return float(np.trace(self.data).real)

    def normalized(self) -> "QuantumState":
        tr = self.trace
        if tr <= 0:
            raise NumericalError("cannot normalize a state with non-positive norm")
        scale = 1.0 / math.sqrt(tr) if self.is_ket else 1.0 / tr
        return QuantumState(self.data * scale, self.space)

    def ptrace(self, keep) -> "QuantumState":
        """Reduced state on the modes named in ``keep`` (order respected)."""
        keep = (keep,) if isinstance(keep, str) else tuple(keep)
        axes = [self.space.axis(lb) for lb in keep]
        rho = partial_trace(self.dm(), self.space.dims, axes)
        return QuantumState(rho, self.space.subspace(keep))


def as_dm(state) -> np.ndarray:
    """Accept a QuantumState, ket or density matrix; hand back a dense dm."""
    if isinstance(state, QuantumState):
        return state.dm()
    arr = np.asarray(state, dtype=complex)
    return np.outer(arr, arr.conj()) if arr.ndim == 1 else arr


# ---------------------------------------------------------------------------
# single-mode building blocks
# ---------------------------------------------------------------------------


def destroy(dim: int) -> np.ndarray:
    """Lowering operator a with <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def fock(dim: int, n: int) -> np.ndarray:
    if not 0 <= n < dim:
        raise ValueError(f"Fock level {n} outside truncation {dim}")
    ket = np.zeros(dim, dtype=complex)
    ket[n] = 1.0
    return ket


def coherent(dim: int, alpha: complex, normalized: bool = True) -> np.ndarray:
    """Coherent state amplitudes e^{-|a|^2/2} alpha^n / sqrt(n!).

    With ``normalized=False`` the amplitudes are the exact projection of the
    infinite-dimensional state onto the truncated space (norm < 1); this is
    what the exact coherent-superposition engine wants.  The default
    renormalizes inside the truncation, which is what state preparation wants.
    """
    if alpha == 0:
        return fock(dim, 0)
    n = np.arange(dim)
    # log-space to stay finite for large alpha and dim
    logmag = -abs(alpha) ** 2 / 2 + n * np.log(abs(alpha))
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, dim)))))
    amp = np.exp(logmag - log_fact / 2) * np.exp(1j * n * np.angle(alpha))
    if normalized:
        amp /= np.linalg.norm(amp)
    return amp


def amplitude_damp(rho: np.ndarray, gamma: float, dims=None, axis: int = 0) -> np.ndarray:
    """Amplitude damping channel with loss probability ``gamma`` on one mode.

    Kraus form: K_k = sum_n sqrt(C(n,k)) (1-gamma)^{(n-k)/2} gamma^{k/2} |n-k><n|.
    A coherent state |a> maps to |a sqrt(1-gamma)>.  In a truncated mode this
    is exactly the master-equation evolution under the collapse operator
    sqrt(G) a for a time t with gamma = 1 - exp(-G t).

    ``dims`` gives the mode truncations of a multi-mode ``rho`` (default: one
    mode of dim ``rho.shape[0]``); the channel acts on mode ``axis`` and
    leaves the others alone.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = (rho.shape[0],) if dims is None else tuple(int(d) for d in dims)
    if rho.shape != (math.prod(dims),) * 2:
        raise ValueError(f"rho of shape {rho.shape} does not fit dims {dims}")
    if not 0 <= axis < len(dims):
        raise ValueError(f"axis {axis} out of range for {len(dims)} modes")
    if not 0 <= gamma <= 1:
        raise ValueError("gamma must be in [0, 1]")
    dim = dims[axis]
    kraus = np.zeros((dim, dim, dim))
    n = np.arange(dim)
    for k in range(dim):
        keep = n >= k
        m = n[keep] - k
        kraus[k, m, n[keep]] = np.sqrt(
            np.array([math.comb(int(nn), k) for nn in n[keep]], dtype=float)
            * (1 - gamma) ** m.astype(float)
            * gamma**k
        )
    # sum_k K_k rho K_k^T as one map on the (ket, bra) index pair of the mode
    channel = np.einsum("kia,kjb->ijab", kraus, kraus)
    n_modes = len(dims)
    out = np.tensordot(channel, rho.reshape(dims + dims), axes=([2, 3], [axis, n_modes + axis]))
    return np.moveaxis(out, (0, 1), (axis, n_modes + axis)).reshape(rho.shape)


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


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def overlap(a, b) -> complex:
    """<a|b> for kets."""
    av = a.data if isinstance(a, QuantumState) else np.asarray(a)
    bv = b.data if isinstance(b, QuantumState) else np.asarray(b)
    return complex(np.vdot(av, bv))


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(a, b) -> float:
    """State fidelity, squared-overlap convention: F(pure, pure) = |<a|b>|^2.

    For two density matrices this is the Uhlmann fidelity
    (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.
    """
    a_ket = isinstance(a, QuantumState) and a.is_ket or (
        not isinstance(a, QuantumState) and np.asarray(a).ndim == 1
    )
    b_ket = isinstance(b, QuantumState) and b.is_ket or (
        not isinstance(b, QuantumState) and np.asarray(b).ndim == 1
    )
    if a_ket and b_ket:
        return float(abs(overlap(a, b)) ** 2)
    if a_ket or b_ket:
        ket, rho = (a, b) if a_ket else (b, a)
        kv = ket.data if isinstance(ket, QuantumState) else np.asarray(ket)
        return float(np.real(np.vdot(kv, as_dm(rho) @ kv)))
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


def edge_population(state, n_levels: int = 1) -> dict:
    """Population in the top ``n_levels`` Fock levels of each mode.

    This is the honest diagnostic for "was the truncation big enough":
    anything much above float noise means amplitude is piling up against
    the edge and the simulation is quietly lossy.
    """
    if not isinstance(state, QuantumState):
        raise TypeError("edge_population needs a QuantumState (mode structure)")
    out = {}
    for lb in state.space.labels:
        reduced = state.ptrace(lb)
        pops = np.real(np.diag(reduced.dm()))
        out[lb] = float(pops[-n_levels:].sum())
    return out


def suggest_dim(alpha: float, tol: float = 1e-9) -> int:
    """Smallest truncation keeping a coherent state's tail mass below tol."""
    lam = abs(alpha) ** 2
    if lam == 0:
        return 2
    term = math.exp(-lam)
    cum = term
    n = 0
    while 1 - cum > tol and n < 10_000:
        n += 1
        term *= lam / n
        cum += term
    return n + 1
