"""The oscillatory band: zeros of the phase form versus the oracle.

On (0, 4) the finite-chain characteristic function is best written through
the phase lam = 2 - 2 cos(phi).  Its zeros are the chain eigenvalues, and it
has poles.  For q = 2 (mod 3) one eigenvalue (at exactly lam = 1) sits on a
pole: its eigenvector has zero amplitude at the junction.  The root finder
scans the phase form times its pole factor, which has no poles, so it finds
that eigenvalue along with all the others.

Writes fq_band_samples.csv with (lambda, F_q) pairs for plotting.
"""

import csv

import numpy as np

from cliquechain import (
    build_single_chain,
    chain_mode,
    chain_pole_lambdas,
    eig_sym,
    f_one_fin_phase,
    find_chain_roots,
    junction_ratio,
    laplacian,
)

p, q = 6, 4
rep = find_chain_roots(p, q)
evals = eig_sym(laplacian(build_single_chain(p, q))).eigenvalues
band = np.sort(evals[(evals > 1e-9) & (evals < 4)])

print(f"K{p} + chain of {q - 1} vertices: phase-form zeros vs oracle band values")
print(f"{'zero':>12} {'oracle':>12} {'diff':>9} {'plateau/junction':>17}")
for r, ev in zip(rep.roots, band):
    print(f"{r:>12.6f} {ev:>12.6f} {abs(r - ev):>9.1e} {junction_ratio(r):>17.4f}")
print("pole positions:", np.round(chain_pole_lambdas(q), 6))

lams = np.linspace(1e-3, 4 - 1e-3, 1200)
vals = f_one_fin_phase(lams, p, q)
with open("fq_band_samples.csv", "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["lambda", "F_q"])
    for x, v in zip(lams, vals):
        w.writerow([f"{x:.6f}", "" if np.isnan(v) else f"{v:.9f}"])
print(f"\nwrote fq_band_samples.csv ({len(lams)} samples, NaN at poles)")

# the junction-silent eigenvalue at a pole
p2, q2 = 8, 5
rep2 = find_chain_roots(p2, q2)
print(f"\nK{p2} + chain of {q2 - 1} vertices (q = 2 mod 3):")
print(f"  band roots: {np.round(rep2.roots, 6)} ({len(rep2.roots)} = q - 1)")
print(f"  pole positions: {np.round(chain_pole_lambdas(q2), 6)}")
print(f"  root at the pole lam = 1: {min(rep2.roots, key=lambda r: abs(r - 1.0)):.15f}")
v = chain_mode(p2, q2, 1.0)
print(f"  eigenvector at lam = 1 (junction-silent): {v.astype(int)}")
