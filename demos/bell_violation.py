"""
CHSH at the canonical angles: quantum versus hidden variables
=============================================================

Estimates the CHSH sum S = |E(a,b) - E(a,b') + E(a',b) + E(a',b')| at the
settings that maximize the quantum value.  Any local hidden-variable
assignment is stuck at S <= 2; the quantum model reaches 2*sqrt(2).
"""

import math

from biphoton import CANONICAL_CHSH_ANGLES, analytic_chsh, chsh_experiment

N = 200_000  # pairs per setting pair

print("angles (degrees): a=0, a'=45, b=22.5, b'=67.5")
print(f"{N} pairs per setting pair\n")

for model in ("qm", "lhv-sign"):
    report = chsh_experiment(model, CANONICAL_CHSH_ANGLES, N, master_seed=5)
    exact = analytic_chsh(model, CANONICAL_CHSH_ANGLES)
    print(f"model {model}")
    for name, e_hat, e_exact in (
        ("E(a ,b )", report.e_ab, exact.e_ab),
        ("E(a ,b')", report.e_abp, exact.e_abp),
        ("E(a',b )", report.e_apb, exact.e_apb),
        ("E(a',b')", report.e_apbp, exact.e_apbp),
    ):
        print(f"  {name} = {e_hat:+.4f}   (exact {e_exact:+.4f})")
    verdict = "VIOLATED" if report.violates_classical_bound() else "NOT VIOLATED"
    print(f"  S = {report.s:.4f} +- {report.stderr_total:.4f}   (exact {exact.s:.4f})")
    print(f"  classical bound 2: {verdict}\n")

print(f"quantum ceiling 2*sqrt(2) = {2 * math.sqrt(2):.6f}")
