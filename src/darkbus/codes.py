"""Cat-code logical qubits with a vacuum-free plus codeword.

The code used throughout the package encodes one qubit in superpositions of
coherent states of a single cavity:

    |+>_L  ~  (1 - |0><0|) (|alpha> + |-alpha>)        (vacuum removed)
    |->_L  ~  |alpha> - |-alpha>                       (no vacuum anyway)

Removing the vacuum from the even branch is what lets a projective
"is the cavity empty?" check herald entanglement without destroying it.
As alpha -> 0 the codewords collapse onto the Fock states |2> and |1>.

|+->_L are eigenstates of the logical X (they carry definite photon parity),
so the computational basis is |0/1>_L = (|+>_L ± |->_L)/sqrt(2) and

    X_L = |+><+| - |-><-| ,   Z_L = |+><-| + |-><+| ,   Y_L = i X_L Z_L .

On the amplitudes (c0, c1) of c0|0>_L + c1|1>_L these act as the 2x2 Paulis
sigma_x, sigma_z and sigma_y.

An analysis basis may additionally carry a Kerr twist and a rotation,

    |±>_L(alpha, th_k, th_r) ~ e^{i th_r n} e^{i (th_k/2) n(n-1)} [Pi_novac] (|alpha> ± |-alpha>),

which is how self-Kerr evolution and frame rotations accumulated between
preparation and readout get absorbed into the decoding instead of being
counted as infidelity.

In closed form (no coherent ket), for alpha > 0 and up to normalization,
<n|±>_L = exp(n (ln alpha + i th_r) + i th_k n(n-1)/2 - alpha^2/2 - ln(n!)/2)
on the even n >= 2 (|+>_L) or the odd n (|->_L), and exactly 0 elsewhere;
the basis fit in :mod:`darkbus.tomography` evaluates the same form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hilbert


def _check_truncation(dim: int) -> None:
    """Raise NumericalError for a cavity truncation the codewords cannot live
    in: the plus codeword, with its vacuum removed, has no support below |2>."""
    if dim < 3:
        raise hilbert.NumericalError(
            f"codewords need a cavity truncation of at least 3, got {dim}: "
            "the plus codeword has no support below |2>"
        )


@dataclass(frozen=True)
class LogicalBasis:
    """Parameters of the single-cavity cat-code analysis basis."""

    alpha: float
    theta_k: float = 0.0  # Kerr twist angle, applied as e^{i (theta_k/2) n(n-1)}
    theta_r: float = 0.0  # linear rotation angle, applied as e^{i theta_r n}

    def codewords(self, dim: int) -> "Codewords":
        """Build the codeword kets at truncation ``dim``.

        ``alpha`` may also be an array of amplitudes that share the twist
        and the rotation: the kets then stack along its axes, shape
        ``np.shape(alpha) + (dim,)``, each exactly the ket of its amplitude
        alone.  ``dim`` must be at least 3: the plus codeword, with its
        vacuum removed, has no support below |2>, so at dim 2 it is zero
        and only rounding would be left to normalize.  alpha <= 0 raises
        NumericalError, as does a codeword that underflows to zero."""
        _check_truncation(dim)
        alpha = np.asarray(self.alpha, dtype=float)
        if not np.all(alpha > 0):
            raise hilbert.NumericalError(f"codewords need amplitudes alpha > 0, got {self.alpha}")
        coeffs = np.empty(alpha.shape + (4,), dtype=complex)
        coeffs[...] = (1j * self.theta_r, 1j * self.theta_k, 0, -1)
        coeffs[..., 0] += np.log(alpha)
        coeffs[..., 2] = -alpha * alpha / 2
        kets = np.zeros(alpha.shape + (2, dim), dtype=complex)
        kets[..., 0, 2::2], kets[..., 1, 1::2] = _parity_amplitudes(dim)(coeffs)
        norms = hilbert.norm(kets)
        if not np.all(norms > 0):
            raise hilbert.NumericalError(f"codewords vanish at alpha={self.alpha}")
        kets /= norms
        return Codewords(kets[..., 0, :], kets[..., 1, :], self, dim)


def _parity_amplitudes(dim: int):
    """The codewords' unnormalized (even[..., 2::2], odd[..., 1::2]) at
    truncation ``dim`` as a function of c (..., 4) = (ln alpha + i theta_r,
    i theta_k, -alpha^2/2, -1): exp of c times the rows (n, n(n-1)/2, 1,
    ln(n!)/2), one row vector c at a time, so a stack gives each item's own
    bits (one matrix product for the whole stack would round differently)."""
    n = np.arange(dim)
    half_log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, dim))))) / 2
    rows = np.array([n, n * (n - 1) / 2, np.ones(dim), half_log_fact], dtype=complex)

    def amplitudes(coeffs):
        v = np.exp(coeffs[..., None, :] @ rows)
        return v[..., 0, 2::2], v[..., 0, 1::2]

    return amplitudes


@dataclass(frozen=True)
class Codewords:
    """Normalized codeword kets of a :class:`LogicalBasis` at a truncation,
    stacked along leading axes when the basis holds an array of amplitudes."""

    plus: np.ndarray
    minus: np.ndarray
    basis: LogicalBasis
    dim: int

    @property
    def zero(self) -> np.ndarray:
        return (self.plus + self.minus) / math.sqrt(2)

    @property
    def one(self) -> np.ndarray:
        return (self.plus - self.minus) / math.sqrt(2)

    def ket(self, c0: complex, c1: complex) -> np.ndarray:
        """Encoded qubit c0|0>_L + c1|1>_L (normalized)."""
        v = c0 * self.zero + c1 * self.one
        return v / np.linalg.norm(v)


def bell_state(words1: Codewords, words2: Codewords) -> np.ndarray:
    """The antisymmetric logical Bell ket (|0 1> - |1 0>)/sqrt(2), as a
    two-cavity Fock ket.  This is the state the heralded protocol targets;
    being the singlet it looks the same in the |±>_L basis.  The flattened
    outer products are the entries np.kron gives for kets, without its
    reshaping overhead.  Stacked codewords give the Bell kets stacked
    along the same axes."""
    zero1, one1 = words1.zero[..., :, None], words1.one[..., :, None]
    ket = zero1 * words2.one[..., None, :] - one1 * words2.zero[..., None, :]
    ket = ket.reshape(ket.shape[:-2] + (-1,))
    return ket / hilbert.norm(ket)
