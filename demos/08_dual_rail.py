"""Single-photon version: same bus, same trick, different code.

Each node holds one photon split across two rails; only one rail per node
talks to the bus.  When the coupled rails happen to interfere destructively
the vacuum check passes -- probability 1/8 -- and leaves them in the
single-photon singlet mixed with a harmless |00> component.  Running the
protocol twice and comparing parities strips the |00> part off.
"""

import numpy as np

from darkbus import hilbert, protocol

res = protocol.dual_rail_dmm()

print(f"steady state reached: {res.converged} "
      f"(trace distance to the analytic steady state {res.trace_distance:.2e})")
print(f"herald probability: {res.p_herald:.6f}  (target 1/8 = 0.125)")
print(f"post-distillation fidelity to the singlet: {res.fidelity:.9f}")

# what the heralded pair actually is: equal parts singlet and double-vacuum
target = protocol.dual_rail_target()
overlap = hilbert.fidelity(res.rho_pair, target)
print(f"\nheralded pair vs (singlet + |00>)/2 mixture: F = {overlap:.9f}")

pops = np.real(np.diag(res.rho_pair))
labels = ["|00>", "|01>", "|10>", "|11>"][: len(pops)]
print("populations of the coupled rails after the herald:")
for lb, p in zip(labels, pops):
    print(f"  {lb}: {p:.4f}")

# distillation on the ideal mixture: two copies, herald on odd joint parity
# in both modules.  Only the singlet x singlet branch survives.
p, rho = protocol.dual_rail_distill(target)
print(f"\ndistillation acceptance on the ideal mixture: {p:.4f} "
      f"(singlet weight 1/2 per copy, times the parity coin 1/2)")
