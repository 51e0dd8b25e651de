"""Look at the heralded cat: Wigner map, finite-shot sampling, MLE recovery.

A logical X measurement on cavity 2 conditions cavity 1 into a single cat
whose interference fringes are the entanglement made visible.  We render the
ideal map, then pretend to measure it point by point with a finite shot
budget, and finally run the iterative maximum-likelihood reconstruction to
get the density matrix back.
"""

import numpy as np

from darkbus import hilbert, protocol, tomography
from darkbus.tomography import WignerGrid, WignerMap

SHOTS = 2000
SEED = 11

res = protocol.run_dmm(dump_time="auto")
w1, w2 = res.codewords
rho1 = hilbert.condition(res.rho_pass, (w1.dim, w2.dim), np.outer(w2.plus, w2.plus.conj()))
p_plus = np.trace(rho1).real
rho1 = rho1 / np.trace(rho1)
print(f"conditioning on logical X = +1 in cavity 2 (P = {p_plus:.3f})")

grid = WignerGrid.default(extent=2.0, step=0.2)
forward = WignerMap(w1.dim, grid.betas)  # one kernel build: ideal map, fit and MLE map
w = forward(rho1).reshape(grid.shape)

# quick look in the terminal: w[i, j] is W(re_i + i im_j), so rows of w.T
# are Im(beta), printed top-down; '+' positive, '-' negative
print("\nsign structure of W(beta) (fringes along Im beta):")
for row in w.T[::-1]:
    print("   " + "".join("#" if v > 0.25 else "+" if v > 0.02
                          else "-" if v < -0.02 else "." for v in row))

counts = tomography.sample_counts(w.ravel(), SHOTS, seed=SEED)
w_hat = (2 * counts / SHOTS - 1).reshape(grid.shape)
print(f"\nsampled every point with {SHOTS} shots "
      f"(rms shot noise {np.std(w_hat - w):.4f})")

mle = tomography.mle_density(forward, counts=counts, shots=SHOTS)
f = hilbert.fidelity(mle.rho, rho1)
print(f"MLE: {mle.n_iter} iterations, converged = {mle.converged}, "
      f"rms residual {mle.rms_residual:.4f}")
print(f"reconstruction fidelity to the true conditioned state: {f:.4f}")

neg = w.min()
print(f"\nmost negative Wigner value: {neg:.3f} "
      f"(a classical mixture of blobs can't do that)")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    pass
else:
    fig, axes = plt.subplots(1, 3, figsize=(11, 3.4))
    for ax, (m, title) in zip(axes, [(w, "ideal"), (w_hat, f"{SHOTS} shots"),
                                     (forward(mle.rho).reshape(grid.shape), "MLE")]):
        im = ax.pcolormesh(grid.re_beta, grid.im_beta, m.T, cmap="RdBu_r",
                           vmin=-1, vmax=1, shading="auto")
        ax.set_title(title)
        ax.set_aspect("equal")
    fig.colorbar(im, ax=axes, shrink=0.8)
    fig.savefig("wigner.png", dpi=120)
    print("wrote wigner.png")
