"""Teleport a qubit across the heralded pair.

The resource is whatever the herald left us: ideally the odd-cat singlet,
in practice a slightly degraded version of it.  A joint codeword measurement
on (input, cavity 1) picks one of four records; the matching Pauli fixes up
cavity 2.  With the corrections applied every record works equally well --
scrambling them is the quickest way to convince yourself they matter.
"""

import math

import numpy as np

from darkbus import codes, protocol
from darkbus.codes import LogicalBasis
from darkbus.dynamics import SystemParams
from darkbus.protocol import VacuumCheckModel

ALPHA = math.sqrt(2)
DIM = 16

words = LogicalBasis(ALPHA).codewords(DIM)
ideal_pair = codes.bell_state(words, words)

print("ideal resource:")
out = protocol.avg_qst_fidelity(ideal_pair, words, words)
for name in protocol.CARDINAL_STATES:
    t = out[name]
    worst = min(t.fidelities.values())
    print(f"  input |{name}>: outcome probs " +
          "/".join(f"{p:.3f}" for p in t.probs.values()) +
          f", worst-case F = {worst:.6f}")
print(f"  average over the six cardinal states: {out['favg']:.6f}")

print("\nsame resource, corrections sabotaged (m1 flipped every time):")
t = protocol.teleport(ideal_pair, protocol.CARDINAL_STATES["plus"], words, words,
                      p_flip_m1=1.0)
print(f"  input |plus>: F_qst drops to {t.f_qst:.4f}")

print("\nheralded (noisy) resource, decode error 2%, m1 flip 1%:")
res = protocol.run_dmm(SystemParams(alpha=ALPHA), check=VacuumCheckModel.from_measured(),
                       dump_time="auto")
d1, d2 = res.rho_pass.space.dims
w1 = res.basis_used[0].codewords(d1)
w2 = res.basis_used[1].codewords(d2)
noisy = protocol.avg_qst_fidelity(res.rho_pass, w1, w2,
                                  p_decode=0.02, p_flip_m1=0.01)
probs = np.array([[p for p in noisy[name].probs.values()]
                  for name in protocol.CARDINAL_STATES])
print(f"  favg = {noisy['favg']:.4f}")
print(f"  outcome records stay fair: max |p - 1/4| = {np.abs(probs - 0.25).max():.4f}")
print("\nnote favg uses the cardinal-state weighting (z-poles once, x/y once each")
print("pair), i.e. (F0 + F1 + 2F+ + 2F+i) / 6.")
