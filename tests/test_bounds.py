"""Interval bounds, closed chain spectra, asymptotic estimates."""

from __future__ import annotations

import numpy as np
import pytest

from cliquechain import (
    EdgeFamily,
    asymptotic_edge,
    build_single_chain,
    build_two_chain,
    chain_eigenvalues_closed,
    eig_sym,
    find_edge_roots,
    laplacian,
    weyl_one,
    weyl_two,
)


class TestChainClosedForm:
    @pytest.mark.parametrize(
        "q,expected",
        [(4, [3.0, 1.0, 0.0]), (2, [0.0]), (3, [2.0, 0.0])],
    )
    def test_small_cases(self, q, expected):
        assert chain_eigenvalues_closed(q) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("q", range(2, 41))
    def test_matches_oracle_path(self, q):
        m = q - 1
        L = np.zeros((m, m))
        for k in range(m - 1):
            L[k, k] += 1
            L[k + 1, k + 1] += 1
            L[k, k + 1] -= 1
            L[k + 1, k] -= 1
        spec = eig_sym(L)
        assert np.max(np.abs(spec.eigenvalues - chain_eigenvalues_closed(q))) < 1e-10

    def test_q_minimum(self):
        with pytest.raises(ValueError, match="q"):
            chain_eigenvalues_closed(1)


class TestWeylOne:
    def test_reference_entries(self):
        wb = weyl_one(6, 4)
        by_note = {e.note: e for e in wb.entries}
        top = by_note["top localized eigenvalue"]
        assert (top.j_lo, top.j_hi, top.lower, top.upper) == (1, 1, 6.0, 8.0)
        clique = by_note["clique block"]
        assert (clique.j_lo, clique.j_hi, clique.lower, clique.upper) == (2, 5, 6.0, 6.0)
        band1 = by_note["first band eigenvalue"]
        assert (band1.j_lo, band1.upper) == (6, 5.0)  # min(3 + 2, 6)
        band = by_note["chain band"]
        assert (band.j_lo, band.j_hi, band.upper) == (7, 9, 4.0)

    def test_reference_spectrum_satisfies_bounds(self):
        spec = eig_sym(laplacian(build_single_chain(6, 4)))
        assert weyl_one(6, 4).check(spec.eigenvalues) == []

    def test_oracle_sweep_case(self):
        spec = eig_sym(laplacian(build_single_chain(10, 6)))
        wb = weyl_one(10, 6)
        assert wb.check(spec.eigenvalues) == []
        assert min(wb.margins(spec.eigenvalues)) >= -1e-9

    def test_hypothesis_error_names_condition(self):
        with pytest.raises(ValueError, match="p >= 4 and q >= 4"):
            weyl_one(3, 4)
        with pytest.raises(ValueError, match="q >= 4"):
            weyl_one(6, 3)

    def test_non_strict_marks_outside(self):
        wb = weyl_one(6, 3, strict=False)
        assert wb.outside_hypotheses


class TestWeylTwo:
    def test_oracle_cases(self):
        for q1, p, q2 in [(4, 6, 4), (5, 8, 4), (4, 10, 6)]:
            spec = eig_sym(laplacian(build_two_chain(q1, p, q2)))
            wb = weyl_two(q1, p, q2)
            assert wb.check(spec.eigenvalues) == [], (q1, p, q2)

    def test_clique_multiplicity_inside_pinned_range(self):
        spec = eig_sym(laplacian(build_two_chain(4, 6, 4)))
        assert spec.multiplicity_of(6.0) == 3  # p - 3, inside indices 3..p-1

    def test_hypothesis_error(self):
        with pytest.raises(ValueError, match="p >= 6"):
            weyl_two(4, 5, 4)


class TestAsymptotics:
    def test_one_chain_reference(self):
        est = asymptotic_edge("one_chain", 6)
        assert est.sigma_hat == pytest.approx(-0.2, abs=1e-14)
        assert est.c0_hat == pytest.approx(-0.167, abs=5e-4)
        assert est.lambda_hat == 7.0

    def test_two_chain_anti_reference(self):
        est = asymptotic_edge("two_chain_anti", 6)
        assert est.lambda_hat == pytest.approx(7.1667, abs=1e-4)

    def test_two_chain_sym_reference(self):
        est = asymptotic_edge("two_chain_sym", 6)
        assert est.lambda_hat == pytest.approx(6.714, abs=1e-3)

    @pytest.mark.parametrize("family", ["one_chain", "two_chain_anti", "two_chain_sym"])
    @pytest.mark.parametrize("p", [5, 6, 10, 20])
    def test_estimate_inside_window(self, family, p):
        est = asymptotic_edge(family, p)
        assert p < est.lambda_hat < p + 2

    def test_minimum_p(self):
        with pytest.raises(ValueError, match="p >= 5"):
            asymptotic_edge("one_chain", 4)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown"):
            asymptotic_edge("ring", 6)

    def test_one_chain_deviation_bounded_by_c_over_p(self):
        devs = []
        for p in range(6, 61):
            (root,) = find_edge_roots(EdgeFamily(p, (None,))).roots
            devs.append((p, abs(root - (p + 1.0))))
        c = max(p * d for p, d in devs)
        assert c <= 0.25  # the 1/p envelope holds with a small constant
        # and the deviation keeps shrinking monotonically
        seq = [d for _, d in devs]
        assert all(a > b for a, b in zip(seq, seq[1:]))

    def test_two_chain_anti_exact_identity(self):
        for p in (5, 9, 17, 33, 40):
            (root,) = find_edge_roots(EdgeFamily(p, (None, None), -1)).roots
            assert abs(root - (p + 1.0 + 1.0 / (p - 1.0))) <= 1e-10
