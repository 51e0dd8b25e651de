"""One full heralded run: prepare, mix, check vacuum, keep or retry.

Walks through the protocol once with an ideal detector and once with the
measured transmon readout numbers, printing where the probability goes and
what the surviving state looks like.
"""

from darkbus import protocol
from darkbus.dynamics import SystemParams
from darkbus.protocol import VacuumCheckModel

PARAMS = SystemParams()
ALPHA = PARAMS.alpha

for label, check in [("ideal detector", VacuumCheckModel.ideal()),
                     ("measured readout", VacuumCheckModel.from_measured())]:
    res = protocol.run_dmm(PARAMS, check=check, dump_time="auto")
    print(f"--- {label} ---")
    print(f"outcome probabilities: " +
          ", ".join(f"{k}={v:.4f}" for k, v in sorted(res.p_outcomes.items())))
    print(f"herald (gg) rate:      {res.p_pass:.4f}   "
          f"(ideal limit 0.5 minus the even-cat vacuum overlap)")
    print(f"kept-state fidelity to the odd-cat singlet: {res.bell_fidelity:.4f}")
    a1, a2 = (w.basis.alpha for w in res.codewords)
    print(f"fitted codeword amplitude after loss: "
          f"({a1:.4f}, {a2:.4f})  [started at {ALPHA:.4f}]")
    print(f"bus residual at the check: {res.bright_residual:.2e}, "
          f"dump wait {res.t_dump*1e6:.2f} us")
    print()

# the herald rate is a function of alpha alone (detector aside):
# p = (1 - exp(-alpha^2))^2 / 2
print("ideal herald rate vs alpha:")
for a in [0.8, 1.0, 1.2, ALPHA, 1.6, 2.0]:
    print(f"  alpha = {a:.3f}: p = {protocol.success_probability(a):.4f}")
print("\nsmall alpha: the two odd cats barely differ from vacuum, so the check")
print("can't tell pass from fail; large alpha: p -> 1/2, the parity coin flip.")
