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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hilbert


@dataclass(frozen=True)
class LogicalBasis:
    """Parameters of the single-cavity cat-code analysis basis."""

    alpha: float
    theta_k: float = 0.0  # Kerr twist angle, applied as e^{i (theta_k/2) n(n-1)}
    theta_r: float = 0.0  # linear rotation angle, applied as e^{i theta_r n}

    def codewords(self, dim: int) -> "Codewords":
        """Build the codeword kets at truncation ``dim``."""
        a = self.alpha
        right = hilbert.coherent(dim, a, normalized=False)
        left = hilbert.coherent(dim, -a, normalized=False)
        raw_p = right + left
        raw_p[0] = 0.0  # vacuum removal on the even branch
        raw_m = right - left
        n = np.arange(dim)
        twist = np.exp(1j * self.theta_r * n + 1j * self.theta_k / 2 * n * (n - 1))
        plus = twist * raw_p
        minus = twist * raw_m
        np_, nm_ = np.linalg.norm(plus), np.linalg.norm(minus)
        if np_ == 0 or nm_ == 0:
            raise hilbert.NumericalError(f"codewords vanish at alpha={a}")
        return Codewords(plus / np_, minus / nm_, self, dim)


@dataclass(frozen=True)
class Codewords:
    """Normalized codeword kets of a :class:`LogicalBasis` at a truncation."""

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
    reshaping overhead."""
    ket = (np.outer(words1.zero, words2.one) - np.outer(words1.one, words2.zero)).ravel()
    return ket / np.linalg.norm(ket)
