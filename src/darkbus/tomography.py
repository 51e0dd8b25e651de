"""Wigner tomography of the heralded cavity states.

The measurement primitive is displaced parity: displace by beta, measure
photon parity; the mean signal is W(beta) = Tr[D(2 beta) P D(2 beta)^dag rho]
which lives in [-1, 1] (no 2/pi prefactor -- the maps stay directly
comparable to raw parity contrast).  Everything downstream consumes the
hermitian kernel M(beta) = D(2 beta) P.

Kernels are evaluated in closed form from the Cahill-Glauber matrix
elements of the displacement operator (Phys. Rev. 177, 1857 (1969)),
vectorized over all grid points; each entry is exact in the truncated
space, with no padding.  For forward maps and reconstruction the stack of
kernels becomes one real design matrix over the hermitian coordinates of
rho.  The kernels obey M(-beta) = (-1)^(m+n) M(beta) and M(conj beta) =
conj M(beta), so the matrix holds one row per orbit of the points under
beta -> -beta, conj(beta), -conj(beta); a point's own row is its orbit's
with column signs, (-1)^(m+n) on both parts of each off-diagonal pair for
the inversion and -1 on the imaginary parts for the conjugation.  A point
without partners is an orbit of one.  Tr(M_k rho) for every point is then
one product of the matrix with rho's coordinates under the four sign
patterns, and sum_k c_k M_k one product with its transpose.  The default
grid is closed under both symmetries: 41 x 41 points, 441 orbits.  The
matrix is allocated once and written in place, one Laguerre run at a time
(the kernels' column n on and below the diagonal, n = 0, 1, ...), bit for
bit the values of the whole kernel triangle built at once; a build for
points in R orbits holds the R x dim^2 matrix plus O(R dim) scratch.

Reconstruction is maximum likelihood by accelerated projected gradient:
a binomial likelihood when shot counts are available, least squares when
only noiseless maps are.  Analysis-basis fitting of a pair, a search of
the Bell fidelity :mod:`darkbus.codes` scores, lives at the bottom of the
module; a cavity's state conditioned on a measurement of the other is
:func:`darkbus.hilbert.condition`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hilbert
from .codes import LogicalBasis, _singlet_fidelity


# ---------------------------------------------------------------------------
# grids and kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WignerGrid:
    """Rectangular grid of phase-space points beta = re + i im."""

    re_beta: np.ndarray
    im_beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "re_beta", np.atleast_1d(np.asarray(self.re_beta, float)))
        object.__setattr__(self, "im_beta", np.atleast_1d(np.asarray(self.im_beta, float)))

    @staticmethod
    def axis_points(extent: float, step: float) -> int:
        """Points on each axis of :meth:`default`'s grid."""
        return int(round(2 * extent / step)) + 1

    @classmethod
    def orbits(cls, extent: float, step: float) -> int:
        """At most the symmetry orbits (:func:`_orbits`) of :meth:`default`'s
        grid, without building it: its axes are antisymmetric, so |Re beta|
        and |Im beta| each take at most ceil(n / 2) of the n values."""
        half = (cls.axis_points(extent, step) + 1) // 2
        return half * half

    @classmethod
    def default(cls, extent: float = 2.0, step: float = 0.1) -> "WignerGrid":
        """Square grid of ``axis_points`` per axis from -extent to extent,
        each axis exactly antisymmetric (its centre, for an odd count,
        exactly 0), so the grid is closed under beta -> -beta and
        conj(beta)."""
        ax = np.linspace(-extent, extent, cls.axis_points(extent, step))
        ax = (ax - ax[::-1]) / 2
        return cls(ax, ax.copy())

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.re_beta), len(self.im_beta)

    @property
    def betas(self) -> np.ndarray:
        """Complex points, re index fastest-varying last (C order of shape)."""
        return (self.re_beta[:, None] + 1j * self.im_beta[None, :]).ravel()


def _kernel_runs(dim: int, betas: np.ndarray):
    """The kernels M(beta) = D(2 beta) P on and below the diagonal, one run
    of columns at a time: for n = 0, ..., dim - 1 in turn, a
    (len(betas), dim - n) complex array whose column k holds M[n + k, n].
    Side by side the runs are the pairs (n, m) of ``np.triu_indices(dim)``,
    n slowest and m >= n.

    Cahill-Glauber form: for m >= n and z = 2 beta,
    <m|D(z)|n> = sqrt(n!/m!) z^(m-n) e^(-|z|^2/2) L_n^(m-n)(|z|^2),
    and M[m, n] = <m|D(z)|n> (-1)^n.  M is hermitian, so M[n, m] is the
    conjugate.  The log-factorials come from a cumulative sum, and the
    Laguerre polynomials from the three-term recurrence
    (n + 1) L_(n+1)^(k) = (2n + 1 + k - x) L_n^(k) - (n + k) L_(n-1)^(k),
    for every order k < dim - n at once: its n-th step gives the n-th run,
    and only L_(n-1) and L_n are kept.  Every entry takes the same
    operations in the same order as it would in the whole triangle built at
    once, so the runs hold exactly its values; between runs the scratch is
    a few (len(betas), dim) arrays.
    """
    z = 2 * np.asarray(betas, dtype=complex).reshape(-1, 1)
    x = np.abs(z) ** 2
    k = np.arange(dim)
    z_pow = z ** k
    log_fact = hilbert._log_factorials(dim)
    # L_(n-1)^(k) and L_n^(k)(x) for k < dim - n, from L_(-1) = 0 and L_0 = 1
    prev, lag = np.zeros((len(z), dim + 1)), np.ones((len(z), dim))
    for n in range(dim):
        real = np.exp(0.5 * (log_fact[n] - log_fact[n:]) - x / 2)
        real *= lag
        real *= (-1.0) ** n
        yield z_pow[:, : dim - n] * real
        kn = k[: dim - n - 1]
        step = (2 * n + 1 + kn - x) * lag[:, :-1] - (n + kn) * prev[:, :-2]
        step /= n + 1
        prev, lag = lag, step


def _orbits(betas: np.ndarray):
    """The points' orbits under beta -> -beta, conj(beta), -conj(beta).

    Returns each orbit's representative |Re beta| + i |Im beta| (sorted and
    distinct under exact float equality), and each point's slot 4 o + t: o
    its orbit, t = 2 inv + conj its transform, the point being the
    representative conjugated when conj is 1, then negated when inv is 1.
    inv is the sign bit of Re beta, conj that bit XOR the sign bit of
    Im beta.  A point without partners is an orbit of one.
    """
    betas = np.asarray(betas, dtype=complex)
    reps, orbit = np.unique(np.abs(betas.real) + 1j * np.abs(betas.imag), return_inverse=True)
    inv = np.signbit(betas.real)
    return reps, 4 * orbit + 2 * inv + (inv ^ np.signbit(betas.imag))


class WignerMap:
    """Tr(M_k rho) over a stack of kernels as one real design matrix with
    one row per symmetry orbit of the points.

    The coordinates of a hermitian rho are its diagonal and the real and
    imaginary parts of its upper triangle (the pairs n < m of
    ``np.triu_indices``, in order); point k's design row holds M_k's
    diagonal and 2 Re, -2 Im of M_k below it, which are 2 Re, 2 Im of its
    upper triangle.  Since M(-beta) = (-1)^(m+n) M(beta) and M(conj beta) =
    conj M(beta), that row is its orbit representative's (:func:`_orbits`)
    times column signs: +1 on the diagonal, (-1)^(m+n) on both parts of the
    pair (n, m) for the inversion, -1 on the -2 Im columns for the
    conjugation.  ``matrix`` holds the representatives' rows only; a point
    without partners is an orbit of one, with a row of its own.  It is
    allocated once and filled run by run from :func:`_kernel_runs`, so the
    build peaks at the matrix plus a few (orbits, dim) arrays
    (:meth:`build_bytes`).  The forward product is one product of the
    matrix with the coordinates times the four sign columns, then a gather
    of each point's (orbit, transform) entry; the adjoint sums the weights
    into (orbit, transform) bins, takes one product with the transposed
    matrix and a signed sum of its four columns.  ``dim`` is the truncation
    and ``betas`` are the points the map was built for, in the order of its
    values.  Both products read and write rho through flat indices of its
    diagonal, its upper triangle and the transposed upper triangle, fixed at
    construction.
    """

    def __init__(self, dim: int, betas: np.ndarray):
        self.betas = np.array(betas, dtype=complex)
        self.dim = dim
        i, j = np.triu_indices(dim, 1)  # the pairs n < m, in order
        self._diag, self._upper, self._lower = np.arange(dim) * (dim + 1), i * dim + j, j * dim + i
        pairs = len(i)
        reps, self._slot = _orbits(self.betas)  # each point's entry of an (orbits, 4) product
        # the column signs of transform t = 2 inv + conj, one column each
        self._signs = np.ones((dim * dim, 4))
        self._signs[dim:, 2:] = np.tile((-1.0) ** (i + j), 2)[:, None]
        self._signs[dim + pairs :, 1::2] *= -1
        # column-major: a run's columns are contiguous, and the BLAS products
        # with the matrix sum in the order this layout sets
        self.matrix = np.empty((len(reps), dim * dim), order="F")
        start = dim  # the run's first real upper column
        for run in _kernel_runs(dim, reps):  # no enumerate: its tuple keeps the run
            n = dim - run.shape[1]
            self.matrix[:, n] = run[:, 0].real
            stop = start + run.shape[1] - 1
            np.multiply(run[:, 1:].real, 2, out=self.matrix[:, start:stop])
            np.multiply(run[:, 1:].imag, -2, out=self.matrix[:, start + pairs : stop + pairs])
            start = stop
            del run  # before the next run is computed

    @staticmethod
    def build_bytes(dim: int, orbits: int, points: int) -> int:
        """Bytes a build for ``points`` points in ``orbits`` orbits may hold
        at its peak: the float64 design matrix, six (orbits, dim) complex
        arrays of scratch, and each point with its slot."""
        return orbits * dim * dim * 8 + 6 * orbits * dim * 16 + points * (16 + 8)

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        """Re Tr(M_k rho) for every k: the hermitian part of rho is used."""
        flat = rho.reshape(-1)
        upper = 0.5 * (flat[self._upper] + flat[self._lower].conj())
        return self.rows(np.concatenate([flat[self._diag].real, upper.real, upper.imag]))

    def rows(self, x: np.ndarray) -> np.ndarray:
        """Every point's design row times the coordinates x."""
        return (self.matrix @ (x[:, None] * self._signs)).take(self._slot)

    def rows_adjoint(self, c: np.ndarray) -> np.ndarray:
        """sum_k c_k times point k's design row, for real weights c."""
        bins = np.bincount(self._slot, weights=c, minlength=4 * len(self.matrix))
        return np.einsum("ij,ij->i", self.matrix.T @ bins.reshape(-1, 4), self._signs)

    def adjoint(self, c: np.ndarray) -> np.ndarray:
        """sum_k c_k M_k for real weights c."""
        v = self.rows_adjoint(c)
        d, n = self.dim, len(self._upper)
        h = np.zeros(d * d, dtype=complex)
        h[self._diag] = v[:d] / 2
        h[self._upper] = (v[d : d + n] + 1j * v[d + n :]) / 2
        h = h.reshape(d, d)
        return h + h.conj().T


# ---------------------------------------------------------------------------
# shot noise
# ---------------------------------------------------------------------------


def sample_counts(w: np.ndarray, shots: int, seed: int | None = None) -> np.ndarray:
    """Binomial shot counts of +1 parity outcomes for each grid point."""
    w = np.asarray(w, float)
    if np.any(np.abs(w) > 1 + 1e-9):
        raise ValueError("parity signal outside [-1, 1]; not a physical Wigner map here")
    p = np.clip((1 + w) / 2, 0.0, 1.0)
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.binomial(shots, p)


# ---------------------------------------------------------------------------
# maximum-likelihood reconstruction
# ---------------------------------------------------------------------------


@dataclass
class MleResult:
    rho: np.ndarray
    converged: bool
    n_iter: int
    rms_residual: float


def _project_density(h: np.ndarray) -> np.ndarray:
    """The density matrix nearest to h in Frobenius norm.

    One eigh of the hermitian part, then its eigenvalues projected onto the
    probability simplex (sort and threshold).
    """
    vals, vecs = np.linalg.eigh(0.5 * (h + h.conj().T))
    desc = vals[::-1]
    shifts = (np.cumsum(desc) - 1) / np.arange(1, len(vals) + 1)
    tau = shifts[np.nonzero(desc > shifts)[0][-1]]
    return (vecs * np.maximum(vals - tau, 0)) @ vecs.conj().T


def _binomial_objective(counts, shots):
    """Negative log-likelihood per shot, as functions of the parity map w.

    at(w) is what the other two read of w: its +1 outcome probabilities,
    clipped away from 0 and 1.  grad(at(w)) is df/dw; change(at(w),
    at(w0)) is (f(w) - f(w0), f(w) - f(w0) - grad(w0).(w - w0)), summed
    term by term through log1p so that both stay accurate when w is close
    to w0.
    """
    misses, total = shots - counts, float(np.sum(shots))

    def at(w):
        return np.clip((1 + w) / 2, 1e-12, 1 - 1e-12)

    def grad(p):
        return (misses / (1 - p) - counts / p) / (2 * total)

    def change(p, p0):
        x_hit, x_miss = (p - p0) / p0, (p0 - p) / (1 - p0)
        l_hit, l_miss = np.log1p(x_hit), np.log1p(x_miss)
        rise = -float(counts @ l_hit + misses @ l_miss) / total
        bregman = float(counts @ (x_hit - l_hit) + misses @ (x_miss - l_miss)) / total
        return rise, bregman

    return at, grad, change


def _squared_objective(w_obs):
    """Half the mean squared misfit to w_obs, in the form of
    ``_binomial_objective``; at(w) is w itself."""
    k = len(w_obs)

    def at(w):
        return w

    def grad(w):
        return (w - w_obs) / k

    def change(w, w0):
        dw = w - w0
        return float(dw @ (w0 - w_obs + dw / 2)) / k, float(dw @ dw) / (2 * k)

    return at, grad, change


def mle_density(
    forward: WignerMap,
    *,
    values=None,
    counts=None,
    shots=None,
    max_iter: int = 2000,
    tol: float = 1e-10,
) -> MleResult:
    """Reconstruct a single-mode density matrix from displaced-parity data.

    Minimizes a convex objective f over density matrices: the binomial
    negative log-likelihood per shot when shot counts are available (each
    kernel splits into the +/- parity POVM pair), half the mean squared
    misfit to the values when they are not.  The solver is accelerated
    projected gradient with restart (Shang, Zhang & Ng, Phys. Rev. A 95,
    062336 (2017)), in the FISTA form of Nesterov's momentum, starting from
    the maximally mixed state.  Each iteration takes a gradient step from
    the extrapolated point and projects it onto density matrices (one eigh,
    then the eigenvalues onto the probability simplex); the step halves
    until f lies under its quadratic upper bound there and grows by 1.25
    after each accepted iterate.  When f rises the momentum is dropped and
    the iteration repeats from the last iterate, so f never increases.
    Each parity map (of the iterate, the extrapolated point and each
    candidate) is turned into its clipped outcome probabilities once; the
    gradient and both tests of f's change read those.

    Stopping rule: converged when the optimality gap at an iterate,
    Tr(G rho) - lambda_min(G) with G the gradient of f, is at most tol,
    and n_iter is the iteration that accepted that iterate.  By convexity
    the gap bounds f(rho) - min f, and so also f(rho) - f(rho') for the
    next accepted iterate rho'; while that drop exceeds 2 tol, rho cannot
    pass, and its gap (one adjoint and one eigvalsh) is not computed.  It
    is computed once the drop is at most 2 tol, before a restart or a
    failed plain step, and at the iteration cap.  The result is flagged
    unconverged (rather than raised) at the iteration cap, and also when
    a plain gradient step no longer lowers f at working precision before
    the gap is met; a good-enough state is still useful.

    The observations lie on ``forward.betas``, in that order, one per
    point: either the parity ``values``, or the ``counts`` of +1 outcomes
    with the ``shots`` they were drawn from (one number for every point, or
    one per point).  Both or neither, counts without shots, or another
    number of observations than points raise ValueError before any work.
    """
    if (values is None) == (counts is None):
        raise ValueError("give exactly one of values and counts")
    if counts is not None and shots is None:
        raise ValueError("counts given without the shots they were drawn from")
    obs = np.asarray(counts if values is None else values, float).ravel()
    if obs.size != len(forward.betas):
        raise ValueError(f"{obs.size} observations for the map's {len(forward.betas)} points")
    if values is None:
        shots = np.array(np.broadcast_to(shots, obs.shape), float)
        w_obs = 2 * obs / shots - 1
        at, grad, change = _binomial_objective(obs, shots)
    else:
        w_obs = obs
        at, grad, change = _squared_objective(w_obs)

    def gap_met(rho, q):
        g = forward.adjoint(grad(q))
        return bool(np.vdot(g, rho).real - np.linalg.eigvalsh(g)[0] <= tol)

    # each map w is read through at(w) once: q, q_theta, q_cand
    rho = np.eye(forward.dim, dtype=complex) / forward.dim
    w = forward(rho)
    q = at(w)
    theta, w_theta, q_theta, momentum = rho, w, q, 1.0
    # rho_it: the iteration that accepted rho while its gap is untested; 0
    # for the starting state, which is never tested, and after a failed test
    step, converged, it, rho_it = 1.0, False, 0, 0
    for it in range(1, max_iter + 1):
        g = forward.adjoint(grad(q_theta))
        while True:
            cand = _project_density(theta - step * g)
            w_cand = forward(cand)
            q_cand = at(w_cand)
            d = cand - theta
            if change(q_cand, q_theta)[1] <= np.vdot(d, d).real / (2 * step):
                break
            step /= 2
        rise = change(q_cand, q)[0]
        if rho_it and rise >= -2 * tol:  # f drops by at most 2 tol, or rises
            if gap_met(rho, q):
                converged = True
                break
            rho_it = 0
        if rise > 0:
            if momentum == 1.0:
                break  # a plain gradient step from rho cannot descend
            theta, w_theta, q_theta, momentum = rho, w, q, 1.0
            continue
        nxt = (1 + math.sqrt(1 + 4 * momentum**2)) / 2
        beta = (momentum - 1) / nxt
        theta, w_theta = cand + beta * (cand - rho), w_cand + beta * (w_cand - w)
        q_theta = at(w_theta)
        rho, w, q, momentum, rho_it = cand, w_cand, q_cand, nxt, it
        step *= 1.25
    else:
        converged = rho_it > 0 and gap_met(rho, q)

    return MleResult(
        rho=rho,
        converged=converged,
        n_iter=rho_it if converged else it,
        rms_residual=float(np.sqrt(np.mean((w - w_obs) ** 2))),
    )


# ---------------------------------------------------------------------------
# analysis-basis fitting
# ---------------------------------------------------------------------------


BASIS_MAX_ITER = 100  # steps of optimize_basis, accepted or rejected
_MIN_ALPHA = 0.05  # the smallest cat amplitude it tries


@dataclass
class OptimizedBasis:
    basis: LogicalBasis
    fidelity: float
    x: np.ndarray
    success: bool


def optimize_basis(state, dims: tuple[int, int]) -> OptimizedBasis:
    """Fit the analysis cat basis (alpha, theta_k, theta_r) to a pair state.

    Maximizes the logical Bell fidelity over a basis applied symmetrically
    to both cavities -- the knob an experiment turns when calibrating its
    decoding: cat amplitude shrinks under damping, self-Kerr twists the
    lobes quadratically, and a linear rotation mops up drive detuning.
    A damped Newton ascent (Levenberg-Marquardt damping; More, Lecture
    Notes in Math. 630, 105 (1978)) starts from (alpha_bar, 0, 0),
    alpha_bar the square root of the cavities' mean photon number, or 0.05
    if that is smaller.  Each
    step is s = (lam I - H)^-1 g on the closed-form gradient g and Hessian
    H, with lam above H's largest eigenvalue by a damping that shrinks
    when the fidelity rises and grows when a step is rejected (so is any
    step to alpha below 0.05); ``success`` is True when the predicted rise
    g.s falls to the fidelity's rounding level within
    :data:`BASIS_MAX_ITER` steps.  On heralded pairs at alpha 0.3 to 3.5
    (dims 8 to 36, ideal and measured checks), the lindblad engine's pair
    with self-Kerr, and damped pairs at alpha 0.6 to 2 twisted by 0.3 to
    8.7 rad (29 pairs), it reached the best fidelity of four Nelder-Mead
    searches started at Kerr angles 0, 0.25, 0.5 and -0.5, less 1e-12, with
    3 to 13 derivative evaluations.  It is one local ascent: on 140 random
    damped pairs (alpha 0.4 to 2.4, twists up to 5.8 rad) it stopped on a
    lower peak of the fidelity for 6, at alpha 1 to 2.4, where one
    Nelder-Mead search from the same start stopped lower for 12.

    The objective is :func:`darkbus.codes._singlet_fidelity`, which cuts
    rho's singlet parity block out once per fit; a truncation below 3, or
    a trace that is not positive and finite, raises NumericalError before
    the search.
    """
    rho = hilbert.as_dm(state)
    d1, d2 = dims
    fidelity = _singlet_fidelity(rho, dims)
    tr = float(np.real(np.trace(rho)))
    pops = rho.diagonal().real.reshape(d1, d2)
    n_mean = (np.arange(d1) @ pops.sum(1) + np.arange(d2) @ pops.sum(0)) / (2 * tr)

    x = np.array([max(math.sqrt(n_mean), _MIN_ALPHA), 0.0, 0.0])
    f, g, h = fidelity.derivatives(x)
    damping, success = 1e-3, False
    for _ in range(BASIS_MAX_ITER):
        e, q = np.linalg.eigh(h)
        step = q @ ((g @ q) / (max(e[-1], 0.0) + damping - e))  # (lam I - H)^-1 g
        if g @ step <= np.finfo(float).eps * abs(f):
            success = True
            break
        trial = x + step
        with np.errstate(all="ignore"):  # codewords that underflow give NaN: rejected
            f_trial = fidelity(trial) if trial[0] >= _MIN_ALPHA else -math.inf
        if f_trial > f:
            x, f = trial, f_trial
            _, g, h = fidelity.derivatives(x)
            damping = max(damping / 4, 1e-9)
        else:
            damping *= 4
    basis = LogicalBasis(x[0], theta_k=x[1], theta_r=x[2])
    return OptimizedBasis(basis=basis, fidelity=f, x=x, success=success)
