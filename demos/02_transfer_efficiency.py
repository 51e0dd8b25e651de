"""How much of a photon survives a trip through the lossy bus?

Pitch-and-catch: load one photon into cavity 1, let it swap into the bus,
then out into cavity 2, timing each leg for maximum pickup.  With the bus
decaying at kappa_b the best you can do is a few percent -- which is exactly
why the protocol avoids ever populating the bus with signal.
"""

import numpy as np

from darkbus import dynamics
from darkbus.dynamics import SystemParams

PARAMS = SystemParams()
G_BS, KAPPA_B = PARAMS.g_bs, PARAMS.kappa_b

print("pitch-and-catch through the bus, one photon, optimized hold times\n")
print(f"{'kappa_b [kHz]':>14} {'t1 [ns]':>9} {'t2 [ns]':>9} {'efficiency':>11}")
for kb in [0.0, 60e3, 160e3, KAPPA_B, 2000e3]:
    res = dynamics.transfer_efficiency(G_BS, kb)
    print(f"{kb/1e3:>14.0f} {res.t1*1e9:>9.1f} {res.t2*1e9:>9.1f} {res.eta:>11.4f}")

res = dynamics.transfer_efficiency(G_BS, KAPPA_B)
print(f"\nat the working point (kappa_b = {KAPPA_B/1e3:.0f} kHz) the bus forwards only "
      f"{res.eta*100:.1f}% of the energy.")
print("a protocol that routed quantum information *through* the bus would "
      "inherit that loss directly;")
print("the dark-mode herald sidesteps it because the post-selected state "
      "never occupies the bus.")

# sanity: lossless bus at the same coupling gives a complete swap
perfect = dynamics.transfer_efficiency(G_BS, 0.0)
assert perfect.eta > 1 - 1e-6, perfect.eta
print(f"\n(check: kappa_b = 0 recovers eta = {perfect.eta:.9f})")
