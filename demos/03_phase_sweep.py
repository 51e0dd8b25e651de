"""Find the dark phase by sweeping the relative phase of two coherent tones.

Drive both cavities with |alpha> and |alpha e^{i phi}>, let the network run,
and ask how often the vacuum check at the transmons reports anything but
"both ground".  At the bright phase the bus floods and the check clicks
almost always; at the dark phase the bus stays empty and the click rate
drops to the floor set by the cavities' own occupation.
"""

import numpy as np

from darkbus import protocol
from darkbus.dynamics import SystemParams

ALPHA = 1.0
PARAMS = SystemParams()

phis = np.linspace(0.0, 2 * np.pi, 33)
times = np.linspace(0.0, 8e-6, 41)

p_click = protocol.phase_sweep(ALPHA, phis, times, PARAMS.g_bs, PARAMS.kappa_b)

# crude terminal heat map, one row per phase, '#' where the check fires often
ramp = " .:-=+*#"
print("P(not gg) vs phase (rows) and time (cols); darker = more clicks\n")
print("         t = 0" + " " * (len(times) - 12) + f"t = {times[-1]*1e6:.0f} us")
for i, phi in enumerate(phis):
    row = "".join(ramp[min(int(v * (len(ramp) - 1) + 0.5), len(ramp) - 1)]
                  for v in p_click[i])
    tag = ""
    if abs(phi - np.pi) < 1e-9:
        tag = "  <- dark phase"
    elif phi in (0.0,) or abs(phi - 2 * np.pi) < 1e-9:
        tag = "  <- bright phase"
    print(f"phi={phi:5.2f}  {row}{tag}")

late = p_click[:, -1]
i_dark = int(np.argmin(late))
print(f"\nquietest phase at late times: phi = {phis[i_dark]:.3f} rad "
      f"(P = {late[i_dark]:.4f}); pi = {np.pi:.3f}")
print(f"bright phase saturates to P = {late[0]:.4f} (everything drained to the bus)")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    pass
else:
    fig, ax = plt.subplots(figsize=(6, 4))
    im = ax.pcolormesh(times * 1e6, phis, p_click, shading="auto")
    ax.set_xlabel("time [us]")
    ax.set_ylabel("relative drive phase [rad]")
    fig.colorbar(im, label="P(not gg)")
    fig.tight_layout()
    fig.savefig("phase_sweep.png", dpi=120)
    print("wrote phase_sweep.png")
