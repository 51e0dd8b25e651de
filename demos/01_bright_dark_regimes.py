"""Ring-down of the bright mode for several bus linewidths.

The two cavities couple to the bus only through their symmetric (bright)
combination, so the three-mode beam-splitter network behaves like a single
damped oscillator: underdamped for small kappa_b, critically damped at
kappa_b = 4*sqrt(2)*g_bs, overdamped beyond.  The antisymmetric (dark)
combination never sees the bus at all -- that is the whole trick.

Run:  python3 demos/01_bright_dark_regimes.py
"""

import numpy as np

from darkbus import dynamics
from darkbus.dynamics import SystemParams

PARAMS = SystemParams()
G_BS = PARAMS.g_bs  # beam-splitter rate, Hz

kappas = [160e3, PARAMS.kappa_b, 905e3, 2000e3]
times = np.linspace(0.0, 8e-6, 801)

print(f"critical bus linewidth for g_bs = {G_BS/1e3:.0f} kHz: "
      f"{dynamics.critical_kappa(G_BS)/1e3:.1f} kHz")
print()
print(f"{'kappa_b':>10} {'regime':>14} {'slow pole [1/s]':>18} {'|u| at 8 us':>12}")

curves = {}
for kb in kappas:
    u = dynamics.bright_mode_response(G_BS, kb, times)
    slow, _ = dynamics.damping_rates(G_BS, kb)
    regime = dynamics.classify_regime(G_BS, kb)
    curves[kb] = u
    print(f"{kb/1e3:>8.0f}k {regime:>14} {-slow.real:>18.4g} {abs(u[-1]):>12.2e}")

# dark-mode amplitude for comparison: solve the full 3-mode network with the
# antisymmetric initial condition and watch nothing happen
z_dark = dynamics.langevin_solve(G_BS, (0.0, 0.0), 2000e3,
                                 [1 / np.sqrt(2), 0.0, -1 / np.sqrt(2)], times)
dark_amp = np.abs((z_dark[:, 0] - z_dark[:, 2]) / np.sqrt(2))
print()
print(f"dark-mode amplitude under kappa_b = 2 MHz: "
      f"min {dark_amp.min():.6f}, max deviation from 1: {abs(dark_amp - 1).max():.2e}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("(matplotlib not available -- skipping plot)")
else:
    fig, ax = plt.subplots(figsize=(7, 4))
    for kb, u in curves.items():
        ax.plot(times * 1e6, np.abs(u) ** 2,
                label=f"$\\kappa_b$ = {kb/1e3:.0f} kHz ({dynamics.classify_regime(G_BS, kb)})")
    ax.plot(times * 1e6, dark_amp**2, "k--", label="dark mode (any $\\kappa_b$)")
    ax.set_xlabel("time [us]")
    ax.set_ylabel("population")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("regimes.png", dpi=120)
    print("wrote regimes.png")
