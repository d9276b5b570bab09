"""Explicit eigenvectors and the labeled classification."""

from __future__ import annotations

import numpy as np
import pytest

from cliquechain import (
    CliqueDef,
    CliqueNetworkSpec,
    EdgeFamily,
    LinkDef,
    build_network,
    build_single_chain,
    build_two_chain,
    chain_mode,
    classify_spectrum,
    clique_modes,
    edge_mode,
    eig_sym,
    find_chain_roots,
    find_edge_roots,
    junction_ratio,
    laplacian,
    residual,
)

TABLE1_V1 = np.array(
    [0.1524, 0.1524, 0.1524, 0.1524, 0.1524, -0.9198, 0.19043, -0.039105, 0.0064791]
)
TABLE1_CLIQUE_VECTORS = np.array(
    [
        [0, 0, 0, -1, 1, 0, 0, 0, 0],
        [0, 1, -1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, -1, 0, 0, 0, 0],
        [0, -1, 0, 1, 0, 0, 0, 0, 0],
    ],
    dtype=float,
)


def k10_network():
    return build_network(
        CliqueNetworkSpec(
            cliques=(CliqueDef("K10", 10),),
            links=(LinkDef("K10", 9, 5), LinkDef("K10", 4, 4), LinkDef("K10", 0, 3)),
        )
    )


class TestCliqueModes:
    def test_single_chain_count_and_exactness(self):
        g = build_single_chain(6, 4)
        L = laplacian(g)
        vs = clique_modes(g)
        assert len(vs) == 4
        for v in vs:
            assert np.array_equal(L @ v, 6.0 * v)  # exact integer arithmetic

    def test_span_contains_reference_vectors(self):
        g = build_single_chain(6, 4)
        basis = np.array(clique_modes(g)).T  # 9 x 4
        for ref in TABLE1_CLIQUE_VECTORS:
            coef, res, *_ = np.linalg.lstsq(basis, ref, rcond=None)
            assert np.max(np.abs(basis @ coef - ref)) < 1e-12

    def test_two_chain_count(self):
        g = build_two_chain(4, 6, 4)
        vs = clique_modes(g)
        assert len(vs) == 3
        L = laplacian(g)
        for v in vs:
            assert np.array_equal(L @ v, 6.0 * v)

    def test_network_count_measured(self):
        # 3 distinct junctions leave 7 free vertices, hence 6 independent
        # zero-sum difference vectors; the oracle multiplicity agrees (the
        # p-d-2 counting rule would give 5 and is flagged by the classifier)
        g = k10_network()
        vs = clique_modes(g)
        assert len(vs) == 6
        L = laplacian(g)
        for v in vs:
            assert np.array_equal(L @ v, 10.0 * v)
        spec = eig_sym(L)
        assert spec.multiplicity_of(10.0) == 6

    def test_too_small_clique_gives_empty_list(self):
        g = build_network(
            CliqueNetworkSpec(
                cliques=(CliqueDef("A", 3),),
                links=(LinkDef("A", 0, 2), LinkDef("A", 1, 2)),
            )
        )
        assert clique_modes(g) == []

    @pytest.mark.parametrize("p", range(3, 13))
    def test_exactness_sweep(self, p):
        g = build_single_chain(p, 5)
        L = laplacian(g)
        for v in clique_modes(g):
            assert residual(L, float(p), v) == 0.0


class TestEdgeModes:
    def test_reference_profile(self):
        (root,) = find_edge_roots(EdgeFamily.one_chain_finite(6, 4)).roots
        m = edge_mode(EdgeFamily.one_chain_finite(6, 4), root)
        prof = m.profile / np.linalg.norm(m.profile)
        if prof[5] * TABLE1_V1[5] < 0:
            prof = -prof
        assert np.max(np.abs(prof - TABLE1_V1)) < 1e-4

    def test_structure_invariants(self):
        fam = EdgeFamily.one_chain_finite(6, 4)
        (root,) = find_edge_roots(fam).roots
        m = edge_mode(fam, root)
        L = laplacian(build_single_chain(6, 4))
        assert residual(L, root, m.profile) <= 1e-9
        assert m.C0 == pytest.approx(1.0 / (1.0 - root), abs=1e-14)
        assert m.C1 == 1.0
        # plateau constant, junction value (1-lam) C0 = 1
        assert np.all(m.profile[:5] == m.C0)
        assert m.profile[5] == 1.0
        assert m.b / m.a == pytest.approx(m.sigma_plus**7, rel=1e-12)

    def test_infinite_mode_summary(self):
        fam = EdgeFamily.one_chain_infinite(6)
        (root,) = find_edge_roots(fam).roots
        m = edge_mode(fam, root, truncation=10)
        assert m.C0 == pytest.approx(-0.166, abs=0.01)
        assert m.sigma_plus == pytest.approx(-0.205, abs=0.01)
        # strict geometric decay along the chain
        chain = m.profile[6:]
        assert chain == pytest.approx([m.sigma_plus**n for n in range(1, 11)])

    def test_two_chain_antisymmetric_closed_form(self):
        fam = EdgeFamily.two_chain_infinite_anti(6)
        m = edge_mode(fam, 7.2, truncation=6)
        assert m.C0 == 0.0
        assert m.sigma_plus == pytest.approx(-0.2, abs=1e-12)
        assert m.symmetry == "antisymmetric"
        assert np.allclose(m.profile, -m.profile[::-1])

    def test_two_chain_finite_modes_and_reflection(self):
        p, q = 6, 4
        rep_s = find_edge_roots(EdgeFamily.two_chain_finite_sym(p, q))
        rep_a = find_edge_roots(EdgeFamily.two_chain_finite_anti(p, q))
        L = laplacian(build_two_chain(q, p, q))
        ms = edge_mode(EdgeFamily.two_chain_finite_sym(p, q), rep_s.roots[0])
        ma = edge_mode(EdgeFamily.two_chain_finite_anti(p, q), rep_a.roots[0])
        assert residual(L, rep_s.roots[0], ms.profile) <= 1e-9
        assert residual(L, rep_a.roots[0], ma.profile) <= 1e-9
        # reflection identity holds exactly by construction
        assert np.array_equal(ms.profile, ms.profile[::-1])
        assert np.array_equal(ma.profile, -ma.profile[::-1])
        assert ms.C_minus1 == ms.C1
        assert ma.C_minus1 == -ma.C1
        assert ma.C0 == 0.0

    def test_generic_two_chain_null_vector_route(self):
        p, q1, q2 = 7, 3, 5
        fam = EdgeFamily.two_chain_finite(q1, p, q2)
        rep = find_edge_roots(fam)
        L = laplacian(build_two_chain(q1, p, q2))
        for r in rep.roots:
            m = edge_mode(fam, r)
            assert residual(L, r, m.profile) <= 1e-9
            assert m.C1 == 1.0

    def test_geometric_decay_envelope(self):
        # ratio of consecutive chain values approaches sigma+, with the
        # correction controlled by the reflected component
        for p, q in [(6, 4), (6, 8), (9, 6), (12, 8)]:
            fam = EdgeFamily.one_chain_finite(p, q)
            (root,) = find_edge_roots(fam).roots
            m = edge_mode(fam, root)
            chain = m.profile[p - 1 :]  # v_0 .. v_{q-1}
            sp = m.sigma_plus
            for n in range(q - 1):
                dev = abs(chain[n + 1] / chain[n] - sp)
                assert dev <= 10.0 * abs(sp) ** (2 * (q - 1 - n))

    def test_orthogonal_to_clique_modes(self):
        g = build_single_chain(6, 4)
        fam = EdgeFamily.one_chain_finite(6, 4)
        (root,) = find_edge_roots(fam).roots
        m = edge_mode(fam, root)
        chain_roots = find_chain_roots(6, 4).roots
        vectors = [m.profile] + [chain_mode(6, 4, r) for r in chain_roots]
        for cv in clique_modes(g):
            for v in vectors:
                assert abs(float(cv @ v)) <= 1e-10

    def test_non_root_rejected(self):
        fam = EdgeFamily.one_chain_finite(6, 4)
        with pytest.raises(ValueError, match="not an edge eigenvalue"):
            edge_mode(fam, 7.5)
        with pytest.raises(ValueError, match="not a root"):
            edge_mode(EdgeFamily.one_chain_infinite(6), 7.5)


class TestChainModes:
    def test_reference_ratios(self):
        roots = find_chain_roots(6, 4).roots
        ratios = [junction_ratio(r) for r in roots]
        assert ratios == pytest.approx([1.360, -1.9365, -0.4580], abs=1e-3)

    def test_profiles_match_oracle_vectors(self):
        g = build_single_chain(6, 4)
        L = laplacian(g)
        spec = eig_sym(L)
        for r in find_chain_roots(6, 4).roots:
            v = chain_mode(6, 4, r)
            assert residual(L, r, v) <= 1e-9
            k = int(np.argmin(np.abs(spec.eigenvalues - r)))
            ov = spec.eigenvectors[:, k]
            cosang = abs(float(v @ ov)) / np.linalg.norm(v)
            assert cosang == pytest.approx(1.0, abs=1e-9)

    def test_plateau_and_junction_structure(self):
        (r, *_) = find_chain_roots(8, 6).roots
        v = chain_mode(8, 6, r)
        assert np.all(v[:7] == 1.0)
        assert v[7] == pytest.approx(1.0 - r, abs=1e-14)
        assert 1.0 / v[7] == pytest.approx(junction_ratio(r), rel=1e-12)

    def test_junction_ratio_undefined_at_one(self):
        with pytest.raises(ValueError, match="junction-silent"):
            junction_ratio(1.0)

    def test_non_root_rejected(self):
        with pytest.raises(ValueError, match="not a chain eigenvalue"):
            chain_mode(6, 4, 2.0)
        with pytest.raises(ValueError, match=r"\(0, 4\)"):
            chain_mode(6, 4, 5.0)

    def test_junction_silent_mode_is_exact(self):
        # q = 2 (mod 3): eigenvalue 1 with zero junction amplitude; the
        # profile is integer-valued and the residual vanishes exactly
        v = chain_mode(8, 5, 1.0)
        L = laplacian(build_single_chain(8, 5))
        assert v[7] == 0.0  # junction
        assert np.array_equal(v[8:], [-7.0, -7.0, 0.0, 7.0])
        assert residual(L, 1.0, v) == 0.0

    def test_classification_with_resonance(self):
        cls = classify_spectrum(build_single_chain(8, 5))
        assert cls.anomalies == ()
        assert any("junction-silent" in w for w in cls.warnings)
        assert any(abs(v - 1.0) < 1e-12 for v in cls.chain_values)


class TestClassification:
    def test_reference_graph(self):
        cls = classify_spectrum(build_single_chain(6, 4))
        assert cls.anomalies == ()
        (cc,) = cls.clique_counts
        assert (cc.value, cc.oracle_multiplicity, cc.constructed) == (6.0, 4, 4)
        (ev,) = cls.edge_values
        assert ev.label == "edge"
        assert abs(ev.value - 7.0355) < 1e-3
        assert np.allclose(cls.chain_values, (0.26503, 1.5163, 3.1832), atol=1e-3)
        assert cls.zero_mode
        assert cls.total_labeled == 9

    def test_embedded_flag_small_clique(self):
        cls = classify_spectrum(build_single_chain(3, 6))
        assert cls.embedded
        assert "inside" in cls.embedded[0]
        (cc,) = cls.clique_counts
        assert cc.oracle_multiplicity == 1
        # outside the proved parameter range, but labeling still covers n
        assert cls.total_labeled == 8

    def test_boundary_flag_p4(self):
        cls = classify_spectrum(build_single_chain(4, 5))
        assert any("boundary" in e for e in cls.embedded)

    def test_two_chain_structure(self):
        cls = classify_spectrum(build_two_chain(4, 6, 4))
        assert cls.anomalies == ()
        (cc,) = cls.clique_counts
        assert cc.oracle_multiplicity == 3
        labels = sorted(e.label for e in cls.edge_values)
        assert labels == ["edge_antisymmetric", "edge_symmetric"]
        anti = max(cls.edge_values, key=lambda e: e.value)
        assert anti.label == "edge_antisymmetric"
        assert cls.total_labeled == 12

    def test_network_flags(self):
        cls = classify_spectrum(k10_network())
        assert cls.anomalies == ()
        (cc,) = cls.clique_counts
        assert cc.oracle_multiplicity == 6
        assert cc.formula_prediction == 5
        assert any("counting rule" in w for w in cls.warnings)
        assert len(cls.edge_values) == 3
        assert cls.near_degenerate
        v1, v2, gap = cls.near_degenerate[0]
        assert gap < 1e-5
        assert abs(v1 - 11.11) < 0.05 and abs(v2 - 11.11) < 0.05
        assert cls.total_labeled == 22

    @pytest.mark.parametrize(
        "graph",
        [
            build_single_chain(7, 5),
            build_single_chain(5, 4),
            build_two_chain(3, 8, 5),
            build_two_chain(5, 6, 5),
        ],
        ids=["K7C5", "K5C4", "C3K8C5", "C5K6C5"],
    )
    def test_completeness(self, graph):
        cls = classify_spectrum(graph)
        assert cls.total_labeled == graph.n
        # every labeled value appears in the oracle spectrum
        evals = cls.oracle.eigenvalues
        for e in cls.edge_values:
            assert np.min(np.abs(evals - e.value)) <= 1e-8
        for v in cls.chain_values:
            assert np.min(np.abs(evals - v)) <= 1e-8


def test_match_edges_message_uses_12_digits():
    from cliquechain.modes import _match_edges

    anomalies = []
    evals = np.array([7.123456789012345])
    assert _match_edges(evals, np.zeros(1, dtype=bool), [8.0], ["edge"], 1e-8, anomalies, "K") == []
    assert anomalies == ["edge root 8 does not match any oracle eigenvalue (closest 7.12345678901)"]
