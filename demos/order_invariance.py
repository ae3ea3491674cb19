"""
Does it matter when channel B is measured?
==========================================

Moves channel B's analyzer prism so its detection fires either before or
after channel A's photon crosses the half-wave plate, then compares the
joint statistics.  The quantum model cannot tell the difference; the
naive model, where the first measurement paints a definite polarization
onto the partner, flips its correlation completely.
"""

from biphoton import OpticalBench, build_timeline, order_invariance_report

# Plate sits 0.5 m out on channel A.  B's prism at 0.25 m beats it; at
# 1.0 m it loses.
early = OpticalBench(d_prism_b=0.25)
late = OpticalBench(d_prism_b=1.0)

for name, bench in (("early", early), ("late", late)):
    order = " -> ".join(ev.event.name for ev in build_timeline(bench))
    print(f"{name} bench event order: {order}")

for model in ("qm", "naive", "lhv-sign"):
    report = order_invariance_report(model, early, late, n_trials=200_000, master_seed=12)
    print(f"\nmodel {model}")
    print("  cell  f_early   f_late")
    for label, fe, fl in zip(("XX", "XY", "YX", "YY"), report.early.frequencies, report.late.frequencies):
        print(f"  {label}   {fe:.4f}    {fl:.4f}")
    print(f"  E early {report.early.e_hat:+.4f}   E late {report.late.e_hat:+.4f}")
    print(f"  verdict: {report.verdict}")
