"""Characteristic functions and root finding.

Expected values marked "derived" below were computed independently:
closed-form evaluations by hand (quadratic formula for sigma), and dense
eigensolves of the corresponding Laplacians.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from cliquechain import (
    EdgeFamily,
    build_single_chain,
    build_two_chain,
    chain_pole_lambdas,
    count_sign_changes_below_band,
    eig_sym,
    f_one_fin,
    f_one_fin_phase,
    f_one_inf,
    find_chain_roots,
    find_edge_roots,
    laplacian,
    q_factor,
    sigma_pair,
    two_chain_fin,
    two_chain_inf,
)
from cliquechain.characteristic import _chain_pivot, _sector_count_below

SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)
SQRT2 = math.sqrt(2.0)


class TestOneChainFunctions:
    def test_value_at_p_positive(self):
        # F(6) = 5 (1 - sigma+) with sigma+(6) = -2 + sqrt(3)
        assert f_one_inf(6.0, 6) == pytest.approx(5.0 * (3.0 - SQRT3), abs=1e-12)

    def test_value_at_p_plus_two_negative(self):
        # F(8) = -6 (1 + sigma+) - (3 + sigma+) with sigma+(8) = -3 + 2 sqrt(2)
        sp = -3.0 + 2.0 * SQRT2
        assert f_one_inf(8.0, 6) == pytest.approx(-6 * (1 + sp) - (3 + sp), abs=1e-12)

    def test_domain_errors(self):
        for fn in (lambda x: f_one_inf(x, 6), lambda x: f_one_fin(x, 6, 4)):
            with pytest.raises(ValueError, match="lam > 4"):
                fn(4.0)

    def test_infinite_root_p6(self):
        rep = find_edge_roots(EdgeFamily.one_chain_infinite(6))
        (root,) = rep.roots
        assert 6.0 < root < 8.0
        assert root == pytest.approx(7.035533905932738, abs=1e-11)

    def test_infinite_root_is_large_q_limit(self):
        # oracle route: lambda_1 of the finite graph converges to the root
        root = find_edge_roots(EdgeFamily.one_chain_infinite(6)).roots[0]
        lam1 = eig_sym(laplacian(build_single_chain(6, 40))).eigenvalues[0]
        assert abs(root - lam1) < 1e-9

    def test_finite_root_matches_reference(self):
        (root,) = find_edge_roots(EdgeFamily.one_chain_finite(6, 4)).roots
        assert abs(root - 7.0355) < 1e-3

    def test_finite_root_matches_oracle_p10(self):
        (root,) = find_edge_roots(EdgeFamily.one_chain_finite(10, 4)).roots
        lam1 = eig_sym(laplacian(build_single_chain(10, 4))).eigenvalues[0]
        assert abs(root - lam1) < 1e-9

    def test_large_q_collapses_to_infinite(self):
        assert abs(f_one_fin(6.5, 6, 500) - f_one_inf(6.5, 6)) < 1e-12

    def test_pointwise_limit_envelope(self):
        # |F_q - F| <= K |sigma+|^(2q-3) with K fitted on small q
        p = 6
        lams = np.linspace(p, p + 2, 41)[1:]
        sp = np.array([abs(sigma_pair(float(x)).sigma_plus) for x in lams])
        k_fit = 0.0
        for q in range(3, 11):
            diff = np.abs(f_one_fin(lams, p, q) - f_one_inf(lams, p))
            k_fit = max(k_fit, float(np.max(diff / sp ** (2 * q - 3))))
        for q in range(3, 61):
            diff = np.abs(f_one_fin(lams, p, q) - f_one_inf(lams, p))
            assert np.all(diff <= 2.0 * k_fit * sp ** (2 * q - 3) + 1e-13)

    def test_monotone_decreasing_on_root_interval(self):
        for p in (5, 6, 8, 10):
            lams = np.linspace(p + 1e-6, p + 2 - 1e-6, 200)
            vals = f_one_inf(lams, p)
            assert np.all(np.diff(vals) < 0)


class TestPhaseForm:
    def test_zeros_match_reference(self):
        roots = find_chain_roots(6, 4).roots
        assert np.allclose(roots, (0.265033, 1.51622, 3.1832), atol=1e-4)

    def test_zeros_match_oracle(self):
        roots = np.array(find_chain_roots(6, 4).roots)
        evals = eig_sym(laplacian(build_single_chain(6, 4))).eigenvalues
        band = np.sort(evals[(evals > 1e-8) & (evals < 4.0)])
        assert np.max(np.abs(roots - band)) < 1e-9

    def test_pole_marker(self):
        # first pole of the q=4 form sits at lam = 2 - 2 cos(pi/7)
        lam = 2.0 - 2.0 * math.cos(math.pi / 7.0)
        assert math.isnan(f_one_fin_phase(lam, 6, 4))
        assert f_one_fin_phase(lam + 1e-4, 6, 4) == pytest.approx(
            f_one_fin_phase(lam + 1e-4, 6, 4)
        )  # finite right next to it
        assert chain_pole_lambdas(4) == pytest.approx(
            [lam, 2 - 2 * math.cos(3 * math.pi / 7), 2 - 2 * math.cos(5 * math.pi / 7)]
        )

    def test_domain(self):
        with pytest.raises(ValueError, match=r"\(0, 4\)"):
            f_one_fin_phase(4.0, 6, 4)

    @pytest.mark.parametrize("p,q", [(8, 3), (6, 10), (7, 7)])
    def test_zero_count_and_oracle_match(self, p, q):
        rep = find_chain_roots(p, q)
        assert rep.anomalies == ()
        assert len(rep.roots) == q - 1
        evals = eig_sym(laplacian(build_single_chain(p, q))).eigenvalues
        band = np.sort(evals[(evals > 1e-8) & (evals < 4.0)])
        assert len(band) == q - 1
        assert np.max(np.abs(np.array(rep.roots) - band)) < 1e-9

    def test_bracketing_soundness(self):
        rep = find_chain_roots(6, 8)
        for root, (lo, hi) in zip(rep.roots, rep.brackets):
            assert hi - lo <= 1e-12 + 1e-15
            assert lo - 1e-12 <= root <= hi + 1e-12

    @pytest.mark.parametrize("p,q", [(8, 5), (6, 8), (5, 11)])
    def test_junction_silent_resonance(self, p, q):
        # for q = 2 (mod 3) the value 1 is an exact eigenvalue whose
        # eigenvector vanishes at the junction; it sits on a pole of the
        # phase form, but it is an ordinary zero of the pole-free scan
        rep = find_chain_roots(p, q)
        assert len(rep.roots) == q - 1
        assert min(abs(r - 1.0) for r in rep.roots) < 1e-12
        assert rep.count_matches and rep.anomalies == ()
        assert np.max(np.abs(np.array(rep.roots) - _band_eigenvalues(p, q))) < 1e-9
        assert np.min(np.abs(chain_pole_lambdas(q) - 1.0)) < 1e-12

    @pytest.mark.parametrize("p,q", [(6, 4), (8, 3), (6, 10)])
    def test_no_resonance_off_the_residue_class(self, p, q):
        rep = find_chain_roots(p, q)
        assert len(rep.roots) == q - 1
        assert all(abs(r - 1.0) > 1e-6 for r in rep.roots)

    @pytest.mark.parametrize(
        "p,q",
        [(12, 8), (20, 20), (30, 3), (60, 60)]
        + [(p, q) for p in (3, 4, 5) for q in (6, 7, 8)],
    )
    def test_every_band_eigenvalue_found(self, p, q):
        # zeros next to a pole of the phase form are found like any other
        rep = find_chain_roots(p, q)
        assert rep.anomalies == ()
        assert len(rep.roots) == q - 1
        assert np.max(np.abs(np.array(rep.roots) - _band_eigenvalues(p, q))) < 1e-9


def _band_eigenvalues(p, q):
    """Oracle chain eigenvalues of K_p + C_q: the spectrum without the zero
    mode, the p-2 clique modes at p and the one edge eigenvalue above 4."""
    evals = np.sort(eig_sym(laplacian(build_single_chain(p, q))).eigenvalues)
    clique = np.argsort(np.abs(evals - p), kind="stable")[: p - 2]
    return np.delete(evals, clique)[1:-1]


class TestQFactor:
    def test_infinite_limit(self):
        # Q -> sigma+ + 1 at lam = 7, p = 6; sigma+(7) = (-5 + sqrt(21)) / 2
        expected = (-5.0 + math.sqrt(21.0)) / 2.0 + 1.0
        assert q_factor(7.0, 6, 500) == pytest.approx(expected, abs=1e-12)

    def test_sign_inside_band_gap(self):
        # negative whenever lam <= p, and in (-1, 0) at lam = p
        assert q_factor(7.0, 8, 5) < 0.0
        assert -1.0 < q_factor(8.0, 8, 5) < 0.0

    def test_hand_evaluation_q3(self):
        sp = (-7.0 + 3.0 * SQRT5) / 2.0  # sigma+(9)
        expected = sp * (1 + sp**3) / (1 + sp**5) - (6.0 - 9.0)
        assert q_factor(9.0, 6, 3) == pytest.approx(expected, abs=1e-12)


class TestTwoChainInfinite:
    def test_antisymmetric_root_closed_form(self):
        # substituting sigma = p+1-lam into the transfer quadratic gives
        # lam = p + 1 + 1/(p-1)
        rep = find_edge_roots(EdgeFamily.two_chain_infinite_anti(6))
        (root,) = rep.roots
        assert root == pytest.approx(7.2, abs=1e-10)
        assert sigma_pair(root).sigma_plus == pytest.approx(-0.2, abs=1e-10)

    def test_symmetric_root(self):
        (root,) = find_edge_roots(EdgeFamily.two_chain_infinite_sym(6)).roots
        assert root == pytest.approx(6.861001748086121, abs=1e-10)
        assert abs(root - 6.86) < 0.01

    @pytest.mark.parametrize("p", range(5, 13))
    def test_antisym_bracket_signs(self, p):
        f_s_at_p, f_a_at_p = two_chain_inf(p + 1e-13, p)
        f_s_hi, f_a_hi = two_chain_inf(p + 2.0, p)
        assert f_a_at_p < 0 < f_a_hi
        assert f_s_hi < 0 < f_s_at_p


class TestTwoChainFinite:
    def test_factorization_identity(self):
        lams = np.linspace(4.0 + 1e-6, 8.0, 1000)
        d, f_sq, f_aq = two_chain_fin(lams, 4, 6, 4)
        assert np.max(np.abs(d - (-(f_aq) * f_sq))) < 1e-10

    def test_roots_match_oracle(self):
        rep = find_edge_roots(EdgeFamily.two_chain_finite(4, 6, 4))
        evals = eig_sym(laplacian(build_two_chain(4, 6, 4))).eigenvalues
        roots = sorted(rep.roots)
        assert abs(roots[1] - evals[0]) < 1e-9
        assert abs(roots[0] - evals[1]) < 1e-9

    def test_two_roots_unequal_chains(self):
        rep = find_edge_roots(EdgeFamily.two_chain_finite(3, 7, 5))
        assert len(rep.roots) == 2
        assert rep.anomalies == ()
        assert rep.roots == pytest.approx(
            (7.876604564932228, 8.16630194357051), abs=1e-9
        )

    def test_sym_anti_label_ordering(self):
        rep_s = find_edge_roots(EdgeFamily.two_chain_finite_sym(6, 4))
        rep_a = find_edge_roots(EdgeFamily.two_chain_finite_anti(6, 4))
        assert rep_a.roots[0] > rep_s.roots[0]
        both = find_edge_roots(EdgeFamily.two_chain_finite(4, 6, 4)).roots
        assert sorted(both) == pytest.approx(
            sorted([rep_s.roots[0], rep_a.roots[0]]), abs=1e-10
        )

    def test_finite_antisym_tends_to_infinite(self):
        (fin,) = find_edge_roots(EdgeFamily.two_chain_finite_anti(6, 30)).roots
        (inf_,) = find_edge_roots(EdgeFamily.two_chain_infinite_anti(6)).roots
        assert abs(fin - inf_) < 1e-12


class TestRootReports:
    def test_edge_bracket_soundness(self):
        rep = find_edge_roots(EdgeFamily.one_chain_finite(6, 4))
        for root, (lo, hi), its in zip(rep.roots, rep.brackets, rep.iterations):
            assert hi - lo <= 1e-12
            assert lo <= root <= hi
            assert 0 < its <= 200
        assert rep.count_matches

    def test_hypothesis_warnings_surface(self):
        rep = find_edge_roots(EdgeFamily.one_chain_finite(4, 4))
        assert any("p >= 6" in w for w in rep.warnings)

    @pytest.mark.parametrize(
        "family",
        [
            EdgeFamily.one_chain_infinite(8),
            EdgeFamily.one_chain_finite(8, 5),
            EdgeFamily.two_chain_infinite_sym(8),
            EdgeFamily.two_chain_infinite_anti(8),
            EdgeFamily.two_chain_finite(4, 8, 6),
        ],
        ids=lambda f: f.kind,
    )
    def test_no_roots_below_band_gap(self, family):
        assert count_sign_changes_below_band(family) == 0

    def test_family_validation(self):
        with pytest.raises(ValueError, match="unknown edge family"):
            EdgeFamily("three_chain", 6)
        with pytest.raises(ValueError, match="p"):
            EdgeFamily.one_chain_finite(2, 4)


def _window(family, lo, hi):
    """Sector eigenvalues in [lo, hi) by inertia."""
    return _sector_count_below(family, hi) - _sector_count_below(family, lo)


ALL_KINDS = [
    lambda p: EdgeFamily.one_chain_infinite(p),
    lambda p: EdgeFamily.one_chain_finite(p, 4),
    lambda p: EdgeFamily.two_chain_infinite_sym(p),
    lambda p: EdgeFamily.two_chain_infinite_anti(p),
    lambda p: EdgeFamily.two_chain_finite(3, p, 7),
    lambda p: EdgeFamily.two_chain_finite_sym(p, 5),
    lambda p: EdgeFamily.two_chain_finite_anti(p, 5),
]


class TestInertiaCount:
    @pytest.mark.parametrize(
        "p, qs",
        [
            (5, (2,)), (6, (4,)), (9, (7,)), (14, (3,)),
            (5, (3, 6)), (8, (2, 5)), (11, (6, 9)), (20, (4, 13)),
        ],
    )
    def test_matches_dense_counts(self, p, qs):
        if len(qs) == 1:
            fam, g = EdgeFamily.one_chain_finite(p, qs[0]), build_single_chain(p, qs[0])
        else:
            fam, g = EdgeFamily.two_chain_finite(qs[0], p, qs[1]), build_two_chain(qs[0], p, qs[1])
        ev = np.linalg.eigvalsh(laplacian(g))
        # (4, p) less round-off: the clique modes sit at p
        assert count_sign_changes_below_band(fam) == np.sum((ev > 4.0) & (ev < p - 1e-9))
        # at every shift x >= 4: the chain vertices, the block's negative
        # pivots and, above p, the clique's p-j-1 difference modes
        j = len(qs)
        for x in np.linspace(4.0, p + 3.0, 57):
            if np.min(np.abs(ev - x)) < 1e-6:
                continue
            expected = int(np.sum(ev < x)) - sum(q - 1 for q in qs) - (p - j - 1) * (x > p)
            assert _sector_count_below(fam, float(x)) == expected

    @pytest.mark.parametrize("p", [5, 9, 30])
    @pytest.mark.parametrize("make", ALL_KINDS, ids=lambda f: f(5).kind)
    def test_edge_window_holds_the_promised_roots(self, make, p):
        family = make(p)
        assert count_sign_changes_below_band(family) == 0
        assert _window(family, float(p), p + 2.0) == family.expected_roots

    @pytest.mark.parametrize("p", [5, 6, 12, 40])
    def test_infinite_chain_is_the_long_chain_limit(self, p):
        inf, fin = EdgeFamily.one_chain_infinite(p), EdgeFamily.one_chain_finite(p, 200)
        assert count_sign_changes_below_band(inf) == count_sign_changes_below_band(fin)
        assert _window(inf, float(p), p + 2.0) == _window(fin, float(p), p + 2.0)

    def test_non_negative_chain_pivot_raises(self):
        # below the band the recurrence reaches a positive pivot
        with pytest.raises(ValueError, match="not negative"):
            _chain_pivot(0.5, 5)
        with pytest.raises(ValueError, match="not negative"):
            _sector_count_below(EdgeFamily.one_chain_finite(6, 5), 3.0)
