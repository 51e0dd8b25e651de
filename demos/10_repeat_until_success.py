"""Entanglement generation rate when you just keep trying.

Attempts are independent coin flips, so waiting time is geometric.  With
p ~ 1/2.6 and ~8.85 us per attempt the pair shows up at tens of kHz -- and
a Monte Carlo run with the same numbers lands on the analytic answer.
"""

import numpy as np

from darkbus import cli, protocol

# the multiround command's defaults
P = cli.COMMANDS["multiround"][1]["p_success"]
T_ATTEMPT = cli.COMMANDS["multiround"][1]["t_attempt"]

stats = protocol.multiround_stats(P, T_ATTEMPT)
print(f"p = {P:.4f}, attempt time {T_ATTEMPT*1e6:.2f} us")
print(f"mean attempts      : {stats.mean_attempts:.3f}")
print(f"mean wait          : {stats.mean_wait*1e6:.2f} us")
print(f"entanglement rate  : {stats.rate_hz/1e3:.2f} kHz")
print(f"attempt quantiles  : p50 = {stats.attempts_quantile(0.5)}, "
      f"p90 = {stats.attempts_quantile(0.9)}, p99 = {stats.attempts_quantile(0.99)}")

rng = np.random.default_rng(7)
n = rng.geometric(P, size=200_000)
print(f"\nMonte Carlo (200k runs): mean attempts {n.mean():.3f}, "
      f"p90 = {int(np.percentile(n, 90))}")

# a reset dead-time after failures eats into the rate
print(f"\n{'t_reset [us]':>12} {'rate [kHz]':>11}")
for t_reset in [0.0, 2e-6, 5e-6, 10e-6]:
    s = protocol.multiround_stats(P, T_ATTEMPT, t_reset=t_reset)
    print(f"{t_reset*1e6:>12.1f} {s.rate_hz/1e3:>11.2f}")
