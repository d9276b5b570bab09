"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 6 checks the provable clique-mode count p - j - 1 for a clique
touching j distinct junction vertices: any zero-sum vector on its free
vertices satisfies L v = p v exactly.  The published p-d-2 rule (d chains)
undercounts by one; for the K10 three-chain network it states 5 where the
oracle and the construction give 6.  The classifier flags this mismatch at
runtime with a warning, and criterion 6 asserts that flag.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from cliquechain import (
    CliqueDef,
    CliqueNetworkSpec,
    EdgeFamily,
    LinkDef,
    asymptotic_edge,
    build_network,
    build_single_chain,
    build_two_chain,
    classify_spectrum,
    clique_modes,
    count_sign_changes_below_band,
    edge_mode,
    eig_sym,
    f_one_fin,
    f_one_inf,
    find_chain_roots,
    find_edge_roots,
    junction_ratio,
    laplacian,
    residual,
    sigma_pair,
    two_chain_fin,
)

ONE_CHAIN_GRID = [(p, q) for p in range(6, 13) for q in range(3, 9)]
TWO_CHAIN_GRID = [
    (q1, p, q2) for q1 in range(3, 7) for p in range(6, 11) for q2 in range(3, 7)
]


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sweeps():
    t0 = time.perf_counter()
    one = {}
    for p, q in ONE_CHAIN_GRID:
        rep = find_edge_roots(EdgeFamily(p, (q,)))
        evals = eig_sym(laplacian(build_single_chain(p, q))).eigenvalues
        one[(p, q)] = (rep, evals)
    two = {}
    for q1, p, q2 in TWO_CHAIN_GRID:
        rep = find_edge_roots(EdgeFamily(p, (q1, q2)))
        evals = eig_sym(laplacian(build_two_chain(q1, p, q2))).eigenvalues
        two[(q1, p, q2)] = (rep, evals)
    elapsed = time.perf_counter() - t0
    return one, two, elapsed


K10_SPEC = CliqueNetworkSpec(
    cliques=(CliqueDef("K10", 10),),
    links=(LinkDef("K10", 9, 5), LinkDef("K10", 4, 4), LinkDef("K10", 0, 3)),
)


def k10_network():
    return build_network(K10_SPEC)


def test_criterion_01_table1_spectrum():
    t0 = time.perf_counter()
    spec = eig_sym(laplacian(build_single_chain(6, 4)))
    expected = np.array([7.0355, 6, 6, 6, 6, 3.1832, 1.5163, 0.26503, 0])
    max_diff = float(np.max(np.abs(spec.eigenvalues - expected)))
    mult6 = spec.multiplicity_of(6.0)
    elapsed = time.perf_counter() - t0
    report(
        1,
        "reference 9-vertex spectrum",
        max_diff < 1e-3 and mult6 == 4 and elapsed < 1.0,
        f"max |diff| {max_diff:.2e}, multiplicity(6) = {mult6}, {elapsed:.3f}s",
    )


def test_criterion_02_table3_chain_zeros():
    roots = find_chain_roots(6, 4).roots
    zero_diff = np.max(np.abs(np.array(roots) - (0.265033, 1.51622, 3.1832)))
    ratios = np.array([junction_ratio(r) for r in roots])
    ratio_diff = np.max(np.abs(ratios - (1.360, -1.9365, -0.4580)))
    report(
        2,
        "chain-band zeros and junction ratios",
        zero_diff < 1e-4 and ratio_diff < 1e-3,
        f"zero diff {zero_diff:.2e}, ratio diff {ratio_diff:.2e}",
    )


def test_criterion_03_table2_edge_summary():
    (root,) = find_edge_roots(EdgeFamily(6, (4,))).roots
    sp = sigma_pair(root).sigma_plus
    c0 = 1.0 / (1.0 - root)
    est = asymptotic_edge("one_chain", 6)
    ok = (
        abs(root - 7.03) < 0.01
        and abs(sp - (-0.205)) < 0.01
        and abs(c0 - (-0.166)) < 0.01
        and est.sigma_hat == -0.2
        and abs(est.c0_hat - (-0.167)) < 5e-4
    )
    report(
        3,
        "edge-mode numerical vs asymptotic summary",
        ok,
        f"lambda {root:.4f}, sigma+ {sp:.4f}, C0 {c0:.4f}, "
        f"hat(sigma) {est.sigma_hat}, hat(C0) {est.c0_hat:.4f}",
    )


def test_criterion_04_analytic_oracle_equivalence(sweeps):
    one, two, elapsed = sweeps
    worst_one = max(
        abs(rep.roots[0] - evals[0]) for rep, evals in one.values()
    )
    worst_two = 0.0
    for rep, evals in two.values():
        roots = sorted(rep.roots)
        worst_two = max(
            worst_two, abs(roots[-1] - evals[0]), abs(roots[0] - evals[1])
        )
    report(
        4,
        "characteristic roots equal oracle eigenvalues",
        worst_one < 1e-9 and worst_two < 1e-9 and elapsed < 30.0,
        f"worst one-chain {worst_one:.2e}, worst two-chain {worst_two:.2e}, "
        f"{len(one) + len(two)} graphs in {elapsed:.1f}s",
    )


def test_criterion_05_root_counts(sweeps):
    one, two, _ = sweeps
    counts_ok = all(len(rep.roots) == 1 for rep, _ in one.values()) and all(
        len(rep.roots) == 2 for rep, _ in two.values()
    )
    below = max(
        count_sign_changes_below_band(EdgeFamily(p, (q,)))
        for p, q in one
    )
    below = max(
        below,
        max(
            count_sign_changes_below_band(EdgeFamily(p, (q1, q2)))
            for q1, p, q2 in two
        ),
    )
    report(
        5,
        "promised root counts, no roots below the band gap",
        counts_ok and below == 0,
        f"counts ok: {counts_ok}, sign changes in (4, p]: {below}",
    )


def test_criterion_06_clique_mode_counting(sweeps):
    one, two, _ = sweeps
    ok_one = all(
        int(np.sum(np.abs(evals - p) <= 1e-8)) == p - 2 for (p, _), (_, evals) in one.items()
    )
    ok_two = all(
        int(np.sum(np.abs(evals - p) <= 1e-8)) == p - 3
        for (_, p, _), (_, evals) in two.items()
    )
    residual_ok = True
    for g in (build_single_chain(9, 5), build_two_chain(4, 8, 5), k10_network()):
        L = laplacian(g)
        pval = float(max(len(g.clique_vertices(c)) for c in g.clique_ids()))
        for v in clique_modes(g):
            residual_ok &= residual(L, pval, v) == 0.0
    net = k10_network()
    mult10 = eig_sym(laplacian(net)).multiplicity_of(10.0)
    # distinct junction vertices of K10, read from the spec
    j = len(
        {l.from_vertex for l in K10_SPEC.links if l.from_clique == "K10"}
        | {l.to_vertex for l in K10_SPEC.links if l.to_clique == "K10"}
    )
    provable = 10 - j - 1  # zero-sum vectors on the free clique vertices
    stated = 10 - 3 - 2  # the p-d-2 counting rule for the K10 network
    cls = classify_spectrum(net)
    (cc,) = cls.clique_counts
    warned = any("p-d-2" in w for w in cls.warnings)
    flag_ok = (
        cc.formula_prediction == stated
        and cc.oracle_multiplicity == stated + 1
        and warned
    )
    report(
        6,
        "clique-mode counting (one chain p-2, two chains p-3, network p-j-1; "
        "p-d-2 undercounts by one and is flagged)",
        ok_one and ok_two and residual_ok and mult10 == provable and flag_ok,
        f"one-chain {ok_one}, two-chain {ok_two}, exact residuals {residual_ok}, "
        f"K10 network: p-j-1 = {provable}, stated {stated}, measured {mult10} "
        f"(the constructed basis has {len(clique_modes(net))} vectors), "
        f"classifier predicts {cc.formula_prediction} and warns: {warned}",
    )


def test_criterion_07_two_chain_symmetry(sweeps):
    _, two, _ = sweeps
    # factorization of the junction determinant for equal chains
    worst_fact = 0.0
    for p in range(6, 11):
        for q in range(3, 7):
            lams = np.linspace(4.0 + 1e-9, p + 2.0, 1000)
            d, f_sq, f_aq = two_chain_fin(lams, q, p, q)
            worst_fact = max(worst_fact, float(np.max(np.abs(d - (-f_aq * f_sq)))))
    # reconstructed modes reflect exactly; antisymmetric root above symmetric
    reflect_ok, order_ok = True, True
    for p in range(6, 11):
        for q in range(3, 7):
            (r_s,) = find_edge_roots(EdgeFamily(p, (q, q), 1)).roots
            (r_a,) = find_edge_roots(EdgeFamily(p, (q, q), -1)).roots
            order_ok &= r_a > r_s
            ms = edge_mode(EdgeFamily(p, (q, q), 1), r_s)
            ma = edge_mode(EdgeFamily(p, (q, q), -1), r_a)
            reflect_ok &= np.array_equal(ms.profile, ms.profile[::-1])
            reflect_ok &= np.array_equal(ma.profile, -ma.profile[::-1])
    report(
        7,
        "equal-chain factorization, reflection, ordering",
        worst_fact < 1e-10 and reflect_ok and order_ok,
        f"max |D + FA*FS| {worst_fact:.2e}, reflection exact: {reflect_ok}, "
        f"anti > sym: {order_ok}",
    )


def test_criterion_08_antisymmetric_closed_form():
    worst = 0.0
    for p in range(5, 41):
        (root,) = find_edge_roots(EdgeFamily(p, (None, None), -1)).roots
        worst = max(worst, abs(root - (p + 1.0 + 1.0 / (p - 1.0))))
    report(
        8,
        "antisymmetric root equals p + 1 + 1/(p-1)",
        worst <= 1e-10,
        f"worst |diff| {worst:.2e} over p in [5, 40]",
    )


def test_criterion_09_interval_bounds():
    from cliquechain import weyl_one, weyl_two

    violations = []
    for p in range(6, 13):
        for q in range(4, 9):
            evals = eig_sym(laplacian(build_single_chain(p, q))).eigenvalues
            violations += weyl_one(p, q).check(evals)
    for p in range(6, 13):
        for q1 in range(4, 9):
            for q2 in range(4, 9):
                evals = eig_sym(laplacian(build_two_chain(q1, p, q2))).eigenvalues
                violations += weyl_two(q1, p, q2).check(evals)
    report(
        9,
        "every swept eigenvalue inside its interval bound",
        not violations,
        f"{len(violations)} violation(s)",
    )


def test_criterion_10_network_conjecture_probe():
    cls = classify_spectrum(k10_network())
    evals = cls.oracle.eigenvalues
    window = evals[(evals > 10.0 + 1e-9) & (evals < 12.0 - 1e-9)]
    top2 = np.sort(window)[-2:]
    ok = (
        len(window) == 3
        and np.all(np.abs(top2 - 11.11) < 0.05)
        and abs(top2[1] - top2[0]) < 0.05
        and len(cls.near_degenerate) == 1
    )
    gap = cls.near_degenerate[0][2] if cls.near_degenerate else float("nan")
    report(
        10,
        "K10 three-chain probe with near-degeneracy flag",
        ok,
        f"window {np.round(window, 6)}, flagged gap {gap:.3e}",
    )


def test_criterion_11_finite_to_infinite_convergence():
    p, lam = 6, 6.5
    sp2 = sigma_pair(lam).sigma_plus ** 2
    diffs = {q: abs(f_one_fin(lam, p, q) - f_one_inf(lam, p)) for q in range(3, 31)}
    envelope_ok = all(
        diffs[q] <= 2.0 * diffs[3] * sp2 ** (q - 3) + 5e-15 for q in range(3, 31)
    )
    ratios = [diffs[q + 1] / diffs[q] for q in range(3, 10)]
    ratio_ok = all(0.9 * sp2 <= r <= 1.1 * sp2 for r in ratios)
    report(
        11,
        "finite chain converges geometrically to the infinite form",
        envelope_ok and ratio_ok,
        f"per-step ratio ~ {np.mean(ratios):.4f} vs sigma+^2 = {sp2:.4f}",
    )
