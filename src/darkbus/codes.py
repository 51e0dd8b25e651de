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
:func:`_singlet_fidelity` scores pairs against the singlet from this form.
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
        kets = np.zeros(alpha.shape + (2, dim), dtype=complex)
        amplitudes = _parity_amplitudes(dim)(alpha, self.theta_k, self.theta_r)
        kets[..., 0, 2::2], kets[..., 1, 1::2] = amplitudes
        norms = hilbert.norm(kets)
        if not np.all(norms > 0):
            raise hilbert.NumericalError(f"codewords vanish at alpha={self.alpha}")
        kets /= norms
        return Codewords(kets[..., 0, :], kets[..., 1, :], self, dim)


def _parity_amplitudes(dim: int):
    """The codewords' unnormalized (even[..., 2::2], odd[..., 1::2]) at
    truncation ``dim`` as a function of a basis (alpha, theta_k, theta_r),
    stacked along the axes of alpha > 0: exp of c = (ln alpha + i theta_r,
    i theta_k, -alpha^2/2, -1) times the rows (n, n(n-1)/2, 1, ln(n!)/2),
    one row vector c at a time, so a stack gives each item's own bits (one
    matrix product for the whole stack would round differently)."""
    n = np.arange(dim)
    half_log_fact = hilbert._log_factorials(dim) / 2
    rows = np.array([n, n * (n - 1) / 2, np.ones(dim), half_log_fact], dtype=complex)

    def amplitudes(alpha, theta_k, theta_r):
        coeffs = np.empty(np.shape(alpha) + (1, 4), dtype=complex)
        coeffs[...] = (0, 1j * theta_k, 0, -1)
        coeffs[..., 0, 0] = np.log(alpha) + 1j * theta_r
        coeffs[..., 0, 2] = -alpha * alpha / 2
        v = np.exp(coeffs @ rows)
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


def _singlet_fidelity(rho: np.ndarray, dims: tuple[int, int]):
    """The logical Bell fidelity of the pair density matrix ``rho`` on the
    truncations ``dims``, as a function ``fidelity(x1, x2=None)`` of each
    cavity's basis parameters (alpha, theta_k, theta_r); x2 None is the
    symmetric basis x1 on both.  The lindblad engine and the basis fit
    both score here.

    The singlet B = (|-,+> - |+,->)/sqrt(2) is zero outside the Fock pairs
    S = (odd, even >= 2) and (even >= 2, odd), so F = B^dag rho B / Tr rho
    = b^dag rho_S b / (2 Tr rho) with b = m1 p2 on the first part and
    -p1 m2 on the second (p, m the codewords' amplitudes on their parity,
    :func:`_parity_amplitudes` normalized, as ``LogicalBasis.codewords``
    has them).  rho_S / (2 Tr rho) is taken once here; each call is the
    amplitudes, once per cavity (once in all for a symmetric basis on
    equal truncations), and one |S| x |S| matrix-vector product.  A
    truncation below 3, or a trace of rho that is not positive and finite,
    raises NumericalError.

    ``fidelity.derivatives(x)`` gives (F, g, H) of the symmetric basis x:
    the value, gradient and Hessian.  Each normalized amplitude is
    exp(L_n(x)), with L_n = c . rows_n - ln|v|, so with <.> and Var the
    codeword's own photon-number moments dL_n/dalpha = (n - <n>)/alpha,
    dL_n/dtheta_k = i n(n-1)/2, dL_n/dtheta_r = i n, and the one second
    derivative d2L_n/dalpha2 = (<n> - n - 2 Var n)/alpha^2.  A product of
    amplitudes adds its factors' L, so db = G b and d2b = (G G + L'') b,
    and g = 2 Re(db^dag rho_S b), H = 2 Re(db^dag rho_S db + b^dag rho_S d2b)
    over 2 Tr rho: one product of rho_S with four vectors.
    """
    d1, d2 = dims
    _check_truncation(d1)
    _check_truncation(d2)
    tr = float(np.real(np.trace(rho)))
    if not 0 < tr < math.inf:
        raise hilbert.NumericalError(f"the pair's trace must be positive and finite, got {tr}")
    odd1, even1 = np.arange(1, d1, 2), np.arange(2, d1, 2)
    odd2, even2 = np.arange(1, d2, 2), np.arange(2, d2, 2)
    s = np.concatenate([(odd1[:, None] * d2 + even2).ravel(), (even1[:, None] * d2 + odd2).ravel()])
    block = rho[np.ix_(s, s)]
    block /= 2 * tr
    amps1 = _parity_amplitudes(d1)
    amps2 = amps1 if d2 == d1 else _parity_amplitudes(d2)

    def codewords(amps, x):
        return [v / math.sqrt(np.vdot(v, v).real) for v in amps(*x)]

    def fidelity(x1, x2=None):
        p1, m1 = codewords(amps1, x1)
        same = x2 is None and amps2 is amps1
        p2, m2 = (p1, m1) if same else codewords(amps2, x1 if x2 is None else x2)
        b = np.concatenate([(m1[:, None] * p2).ravel(), (-p1[:, None] * m2).ravel()])
        return float(np.vdot(b, block @ b).real)

    def log_derivatives(amps, x, levels):
        """Per codeword (plus, minus): its normalized amplitudes u, dL/dx
        of shape (3, len(u)) and d2L/dalpha2."""
        alpha = x[0]
        out = []
        for v, n in zip(amps(*x), levels):
            w = v.real**2 + v.imag**2
            norm2 = w.sum()
            w /= norm2
            mean = w @ n
            var = w @ (n - mean) ** 2
            first = np.array([(n - mean) / alpha, 0.5j * n * (n - 1), 1j * n])
            out.append((v / math.sqrt(norm2), first, (mean - n - 2 * var) / alpha**2))
        return out

    def derivatives(x):
        words1 = log_derivatives(amps1, x, (even1, odd1))
        words2 = words1 if amps2 is amps1 else log_derivatives(amps2, x, (even2, odd2))
        (p1, dp1, ddp1), (m1, dm1, ddm1) = words1
        (p2, dp2, ddp2), (m2, dm2, ddm2) = words2
        b = np.concatenate([(m1[:, None] * p2).ravel(), (-p1[:, None] * m2).ravel()])
        grad_l = np.concatenate(
            [(dm1[:, :, None] + dp2[:, None, :]).reshape(3, -1),
             (dp1[:, :, None] + dm2[:, None, :]).reshape(3, -1)], axis=1
        )
        curv_l = np.concatenate([(ddm1[:, None] + ddp2).ravel(), (ddp1[:, None] + ddm2).ravel()])
        vecs = np.concatenate([b[None], grad_l * b])
        z = vecs @ block.T  # rows: rho_S b, then rho_S db_k
        y = z[0].conj() * b
        value = float(np.vdot(b, z[0]).real)
        grad = 2 * (vecs[1:].conj() @ z[0]).real
        hess = 2 * (vecs[1:].conj() @ z[1:].T + (grad_l * y) @ grad_l.T).real
        hess[0, 0] += 2 * (y @ curv_l).real
        return value, grad, hess

    fidelity.derivatives = derivatives
    return fidelity
