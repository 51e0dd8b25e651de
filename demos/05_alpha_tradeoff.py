"""Sweep the cat size: herald rate vs heralded fidelity.

Bigger cats herald more often (the vacuum check separates the components
better) but die faster in the cavities (photon loss scales with alpha^2).
Somewhere in between sits the sweet spot; the forward error model puts it
near alpha = 1.09.
"""

import numpy as np

from darkbus import errorbudget, protocol
from darkbus.dynamics import SystemParams
from darkbus.protocol import VacuumCheckModel

alphas = [1.0, 1.2, np.sqrt(2), 1.6, 1.8, 2.0]
check = VacuumCheckModel.from_measured()

# every amplitude from one propagation of the network
p_pass, fidelity, _ = protocol.alpha_sweep(SystemParams(), alphas, check=check, dump_time="auto")

# and the model at every amplitude from one evaluation of the budget
f_model = 1 - errorbudget.predicted_infidelity(np.array(alphas)).total

rows = list(zip(alphas, p_pass, fidelity, f_model))
print(f"{'alpha':>6} {'p_pass':>8} {'F_sim':>8} {'F_model':>8}")
for a, p, f, m in rows:
    print(f"{a:>6.3f} {p:>8.4f} {f:>8.4f} {m:>8.4f}")

best, bb = errorbudget.optimal_alpha()
print(f"\nmodel optimum: alpha = {best:.3f} "
      f"(predicted infidelity {bb.total:.4f} = "
      f"loss {bb.photon_loss:.4f} + decode {bb.decode_error:.4f} + "
      f"false-pass {bb.false_pass:.4f})")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    pass
else:
    arr = np.array(rows)
    fig, ax1 = plt.subplots(figsize=(6, 4))
    ax1.plot(arr[:, 0], arr[:, 2], "o-", label="simulated F")
    dense = np.linspace(0.8, 2.1, 80)
    ax1.plot(dense, 1 - errorbudget.predicted_infidelity(dense).total,
             "-", alpha=0.6, label="error model")
    ax1.set_xlabel("alpha")
    ax1.set_ylabel("heralded Bell fidelity")
    ax2 = ax1.twinx()
    ax2.plot(arr[:, 0], arr[:, 1], "s--", color="gray", label="p_pass")
    ax2.set_ylabel("herald probability")
    ax1.legend(loc="lower left", fontsize=8)
    fig.tight_layout()
    fig.savefig("alpha_tradeoff.png", dpi=120)
    print("wrote alpha_tradeoff.png")
