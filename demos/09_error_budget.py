"""Where the infidelity comes from, term by term.

Three contributions matter at the working point: photons decaying in the
cavities while the protocol runs, decoding error on the vacuum check, and
bright-state leakage sneaking past it.  Everything else (harmonic leakage,
single-pass bus loss, inherited bus decay) is orders of magnitude down --
we print those too so nobody has to take that on faith.
"""

from darkbus import errorbudget
from darkbus.dynamics import SystemParams

ALPHA = SystemParams().alpha

b = errorbudget.predicted_infidelity(ALPHA)
print(f"error budget at alpha = {ALPHA:.3f}:")
print(f"  photon loss during protocol : {b.photon_loss:.4f}")
print(f"  vacuum-check decode error   : {b.decode_error:.4f}")
print(f"  bright-state false pass     : {b.false_pass:.4f}")
print(f"  ------------------------------------")
print(f"  total                       : {b.total:.4f}")

print("\nsubleading channels (informational, not in the total):")
print(f"  harmonic leakage fraction   : {b.off_resonant:.2e}")
print(f"  single bus pass loss        : {b.single_pass:.2e}")
print(f"  inherited bus decay         : {b.purcell:.2e}")

best, bb = errorbudget.optimal_alpha()
print(f"\noptimum cat size: alpha = {best:.3f} -> total {bb.total:.4f}")
print("smaller cats lose fewer photons but the vacuum check confuses the")
print("odd cats with vacuum; larger cats herald cleanly but decay faster.")

print(f"\n{'alpha':>6} {'loss':>8} {'decode':>8} {'false+':>8} {'total':>8}")
for a in [0.6, 0.8, 1.0, best, 1.2, ALPHA, 1.8, 2.2]:
    t = errorbudget.predicted_infidelity(a)
    print(f"{a:>6.3f} {t.photon_loss:>8.4f} {t.decode_error:>8.4f} "
          f"{t.false_pass:>8.4f} {t.total:>8.4f}")
