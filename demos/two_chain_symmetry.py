"""Two chains: symmetric and antisymmetric localized modes.

With equal chains the junction determinant factorizes into a symmetric and
an antisymmetric branch; the antisymmetric eigenvalue is always the larger
one, and for infinite chains it solves in closed form: p + 1 + 1/(p-1).
"""

import numpy as np

from cliquechain import (
    EdgeFamily,
    asymptotic_edge,
    build_two_chain,
    edge_mode,
    eig_sym,
    find_edge_roots,
    laplacian,
    two_chain_fin,
)

q, p = 4, 6
g = build_two_chain(q, p, q)
evals = eig_sym(laplacian(g)).eigenvalues

(r_s,) = find_edge_roots(EdgeFamily(p, (q, q), 1)).roots
(r_a,) = find_edge_roots(EdgeFamily(p, (q, q), -1)).roots
print(f"chain({q - 1}) + K{p} + chain({q - 1}):")
print(f"  symmetric root     {r_s:.12f}   oracle lambda_2 {evals[1]:.12f}")
print(f"  antisymmetric root {r_a:.12f}   oracle lambda_1 {evals[0]:.12f}")

lams = np.linspace(4.001, p + 2, 7)
d, f_sq, f_aq = two_chain_fin(lams, q, p, q)
print("\nfactorization D = -F_A * F_S on a few samples:")
print("  max |D + F_A F_S| =", float(np.max(np.abs(d + f_aq * f_sq))))

ms = edge_mode(EdgeFamily(p, (q, q), 1), r_s)
ma = edge_mode(EdgeFamily(p, (q, q), -1), r_a)
print("\nmode profiles (left chain | clique | right chain):")
print("  sym :", np.round(ms.profile, 4))
print("  anti:", np.round(ma.profile, 4))
print("  reflection: sym reversed equals itself:", bool(np.all(ms.profile == ms.profile[::-1])))
print("  antisym plateau C0 =", ma.C0, "(exactly zero)")

print("\nclosed form for infinite chains, against the asymptotics:")
print(f"{'p':>4} {'anti root':>12} {'p+1+1/(p-1)':>12} {'sym root':>12} {'p+1-2/(p+1)':>12}")
for pp in (6, 8, 12, 20):
    (ra,) = find_edge_roots(EdgeFamily(pp, (None, None), -1)).roots
    (rs,) = find_edge_roots(EdgeFamily(pp, (None, None), 1)).roots
    print(
        f"{pp:>4} {ra:>12.8f} {pp + 1 + 1 / (pp - 1):>12.8f} "
        f"{rs:>12.8f} {asymptotic_edge('two_chain_sym', pp).lambda_hat:>12.8f}"
    )
