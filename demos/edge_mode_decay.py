"""Edge eigenvector: geometric decay along the chain and large-p behavior.

The localized mode is constant on the clique, peaks at the junction, and
decays along the chain at the rate sigma+ (the contracting eigenvalue of
the chain transfer matrix).  For large p the eigenvalue approaches p + 1
and the decay rate approaches -1/(p-1).
"""

import numpy as np

from cliquechain import (
    EdgeFamily,
    asymptotic_edge,
    build_single_chain,
    edge_mode,
    find_edge_roots,
    laplacian,
    residual,
    sigma_pair,
)

p, q = 6, 10
fam = EdgeFamily(p, (q,))
(lam,) = find_edge_roots(fam).roots
mode = edge_mode(fam, lam)
L = laplacian(build_single_chain(p, q))

print(f"K{p} + chain of {q - 1} vertices")
print(f"edge eigenvalue {lam:.12f}, sigma+ = {mode.sigma_plus:.6f}")
print(f"profile residual ||L v - lam v|| = {residual(L, lam, mode.profile):.2e}")
print(f"plateau C0 = {mode.C0:.6f} = 1/(1 - lam), junction = {mode.C1:g}")

chain = mode.profile[p - 1 :]
print("\nchain values and consecutive ratios (ratio -> sigma+):")
for n in range(q - 1):
    ratio = chain[n + 1] / chain[n]
    print(f"  v_{n}: {chain[n]: .3e}   v_{n+1}/v_{n} = {ratio: .6f}")

print("\nlarge-p behavior of the infinite-chain root:")
print(f"{'p':>4} {'root':>12} {'root-(p+1)':>12} {'sigma+':>10} {'-1/(p-1)':>10}")
for pp in (6, 10, 20, 40, 80):
    (r,) = find_edge_roots(EdgeFamily(pp, (None,))).roots
    est = asymptotic_edge("one_chain", pp)
    print(
        f"{pp:>4} {r:>12.7f} {r - (pp + 1):>12.2e} "
        f"{sigma_pair(r).sigma_plus:>10.5f} {est.sigma_hat:>10.5f}"
    )
