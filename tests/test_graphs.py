"""Graph builders: vertex/edge counts, Laplacian structure, JSON ingestion."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from cliquechain import (
    CliqueDef,
    CliqueNetworkSpec,
    LinkDef,
    build_network,
    build_single_chain,
    build_two_chain,
    laplacian,
    network_from_json,
)
from cliquechain.graphs import GraphSpec, Role, pendant_laplacian_times

K6C4_LAPLACIAN = np.array(
    [
        [5, -1, -1, -1, -1, -1, 0, 0, 0],
        [-1, 5, -1, -1, -1, -1, 0, 0, 0],
        [-1, -1, 5, -1, -1, -1, 0, 0, 0],
        [-1, -1, -1, 5, -1, -1, 0, 0, 0],
        [-1, -1, -1, -1, 5, -1, 0, 0, 0],
        [-1, -1, -1, -1, -1, 6, -1, 0, 0],
        [0, 0, 0, 0, 0, -1, 2, -1, 0],
        [0, 0, 0, 0, 0, 0, -1, 2, -1],
        [0, 0, 0, 0, 0, 0, 0, -1, 1],
    ],
    dtype=float,
)


class TestSingleChain:
    def test_reference_graph_structure(self):
        g = build_single_chain(6, 4)
        assert g.n == 9
        assert len(g.edges) == 18
        assert np.array_equal(laplacian(g), K6C4_LAPLACIAN)

    def test_smallest_instance(self):
        g = build_single_chain(3, 2)
        assert g.n == 4
        assert len(g.edges) == 4  # triangle plus one pendant edge

    def test_hand_counted_counts(self):
        g = build_single_chain(4, 3)
        assert g.n == 6
        assert len(g.edges) == 6 + 2

    def test_labels_and_roles(self):
        g = build_single_chain(6, 4)
        assert g.labels == (-5, -4, -3, -2, -1, 0, 1, 2, 3)
        assert g.roles[5].kind == "junction"
        assert g.junction_vertices() == [5]
        assert [r.kind for r in g.roles[:5]] == ["clique"] * 5
        assert [r.kind for r in g.roles[6:]] == ["chain"] * 3

    @pytest.mark.parametrize("p,q,msg", [(2, 4, "p"), (3, 1, "q")])
    def test_parameter_minimums(self, p, q, msg):
        with pytest.raises(ValueError, match=msg):
            build_single_chain(p, q)

    @pytest.mark.parametrize("p", range(3, 13))
    @pytest.mark.parametrize("q", range(2, 11))
    def test_count_formulas_sweep(self, p, q):
        g = build_single_chain(p, q)
        assert g.n == p + q - 1
        assert len(g.edges) == p * (p - 1) // 2 + (q - 1)
        L = laplacian(g)
        assert np.max(np.abs(L.sum(axis=1))) == 0.0
        assert np.array_equal(np.diag(L), g.degrees())


class TestTwoChain:
    def test_reference_counts(self):
        g = build_two_chain(4, 6, 4)
        assert g.n == 12
        assert len(g.edges) == 15 + 3 + 3

    def test_smallest_instance(self):
        g = build_two_chain(2, 4, 2)
        assert g.n == 6
        d = g.degrees()
        assert sorted(d) == [1, 1, 3, 3, 4, 4]  # two pendants on K4

    def test_hand_count(self):
        g = build_two_chain(3, 5, 4)
        assert g.n == 10
        assert len(g.edges) == 10 + 2 + 3

    def test_labels_ascending_and_reflection_order(self):
        g = build_two_chain(4, 6, 4)
        assert g.labels == tuple(range(-8, 4))
        # equal chains: reflection about the clique center is index reversal
        assert [r.kind for r in g.roles] == [r.kind for r in g.roles[::-1]]

    def test_parameter_minimums(self):
        with pytest.raises(ValueError, match="q1"):
            build_two_chain(1, 6, 4)
        with pytest.raises(ValueError, match="p"):
            build_two_chain(4, 2, 4)

    def test_row_sums_vanish(self):
        for q1, p, q2 in [(2, 3, 2), (3, 7, 5), (6, 10, 4)]:
            L = laplacian(build_two_chain(q1, p, q2))
            assert np.max(np.abs(L.sum(axis=1))) == 0.0


class TestNetwork:
    def k10_spec(self):
        return CliqueNetworkSpec(
            cliques=(CliqueDef("K10", 10),),
            links=(
                LinkDef("K10", 9, 5),
                LinkDef("K10", 4, 4),
                LinkDef("K10", 0, 3),
            ),
        )

    def test_k10_three_chains(self):
        g = build_network(self.k10_spec())
        assert g.n == 22
        assert len(g.junction_vertices("K10")) == 3
        assert g.params["degrees"]["K10"] == 3
        assert g.params["distinct_attachments"]["K10"] is True

    def test_single_clique_no_links(self):
        g = build_network(CliqueNetworkSpec(cliques=(CliqueDef("A", 5),), links=()))
        assert g.n == 5
        assert len(g.edges) == 10

    def test_two_cliques_bridged(self):
        spec = CliqueNetworkSpec(
            cliques=(CliqueDef("A", 5), CliqueDef("B", 5)),
            links=(LinkDef("A", 0, 3, to_clique="B", to_vertex=0),),
        )
        g = build_network(spec)
        assert g.n == 13
        assert len(g.edges) == 10 + 10 + 4

    def test_matches_single_chain_builder(self):
        # one clique with one open chain attached at the last vertex is the
        # same graph, vertex for vertex
        p, q = 7, 5
        spec = CliqueNetworkSpec(
            cliques=(CliqueDef("K", p),), links=(LinkDef("K", p - 1, q - 1),)
        )
        g_net = build_network(spec)
        g_dir = build_single_chain(p, q)
        assert g_net.n == g_dir.n
        assert g_net.edges == g_dir.edges

    def test_invalid_attachment_rejected(self):
        spec = CliqueNetworkSpec(
            cliques=(CliqueDef("A", 4),), links=(LinkDef("A", 4, 2),)
        )
        with pytest.raises(ValueError, match="vertex 4"):
            build_network(spec)

    def test_disconnected_rejected(self):
        spec = CliqueNetworkSpec(
            cliques=(CliqueDef("A", 4), CliqueDef("B", 4)), links=()
        )
        with pytest.raises(ValueError, match="disconnected"):
            build_network(spec)

    def test_duplicate_attachment_flag(self):
        spec = CliqueNetworkSpec(
            cliques=(CliqueDef("A", 5),),
            links=(LinkDef("A", 0, 2), LinkDef("A", 0, 2)),
        )
        assert spec.distinct_attachments("A") is False
        assert spec.degree("A") == 2


class TestNetworkJson:
    DOC = {
        "cliques": [{"id": "K10", "p": 10}],
        "links": [
            {"from": {"clique": "K10", "vertex": 9}, "to": "open", "length": 5},
            {
                "from": {"clique": "K10", "vertex": 4},
                "to": {"clique": "K10", "vertex": 0},
                "length": 4,
            },
        ],
    }

    def test_round_trip(self):
        spec = network_from_json(json.dumps(self.DOC))
        assert spec.cliques == (CliqueDef("K10", 10),)
        assert spec.links[0].open
        assert spec.links[1].to_clique == "K10"
        build_network(spec).validate()

    def test_unknown_top_level_field(self):
        doc = dict(self.DOC, comment="nope")
        with pytest.raises(ValueError, match="unknown fields"):
            network_from_json(doc)

    def test_unknown_nested_field(self):
        doc = json.loads(json.dumps(self.DOC))
        doc["links"][0]["weight"] = 2
        with pytest.raises(ValueError, match="unknown fields"):
            network_from_json(doc)


def test_k3_laplacian():
    g = build_network(CliqueNetworkSpec(cliques=(CliqueDef("A", 3),), links=()))
    L = laplacian(g)
    assert np.array_equal(L, np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], float))


def test_laplacian_matches_edge_loop():
    # reference: degree and -1 entries accumulated edge by edge in integers
    graphs = [build_single_chain(p, q) for p, q in [(3, 2), (6, 4), (12, 9)]]
    graphs += [build_two_chain(3, 7, 5), build_network(TestNetwork().k10_spec())]
    graphs.append(
        build_network(
            CliqueNetworkSpec(
                cliques=(CliqueDef("A", 5), CliqueDef("B", 6)),
                links=(LinkDef("A", 0, 3, to_clique="B", to_vertex=2),),
            )
        )
    )
    for g in graphs:
        ref = np.zeros((g.n, g.n), dtype=np.int64)
        for i, j in g.edges:
            ref[i, j] = ref[j, i] = -1
            ref[i, i] += 1
            ref[j, j] += 1
        L = laplacian(g)
        assert L.dtype == np.float64
        assert L.tobytes() == ref.astype(float).tobytes()


def test_graphspec_immutable():
    g = build_single_chain(5, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.n = 10


@pytest.mark.parametrize("p", [3, 4, 7, 12, 30])
def test_pendant_laplacian_times_matches_dense(p):
    rng = np.random.default_rng(p)
    for q in (2, 3, 5, 11):
        cases = [(1, build_single_chain(p, q))]
        cases += [(q1, build_two_chain(q1, p, q)) for q1 in (2, 4, q)]
        for q1, g in cases:
            L = laplacian(g)
            ints = rng.integers(-9, 10, g.n).astype(float)  # exact in both
            assert np.array_equal(pendant_laplacian_times(ints, q1, p, q), L @ ints)
            v = rng.standard_normal(g.n)
            assert np.allclose(pendant_laplacian_times(v, q1, p, q), L @ v, rtol=0, atol=1e-12 * p)


_K, _C = Role("clique", clique="K"), Role("chain", chain="C")
_J = Role("junction", clique="K", links=("C",))
_K3 = [(0, 1), (0, 2), (1, 2)]


@pytest.mark.parametrize(
    "n, edges, roles, message",
    [
        (0, [], [], "vertex count must be >= 1, got 0"),
        (2, [(0, 1), (1, 1)], [_K, _K], "self-loop at vertex 1"),
        (2, [(0, 1), (1, 5)], [_K, _K], r"edge \(1,5\) out of range"),
        (2, [(1, 0)], [_K, _K], r"edge \(1,0\) not stored as ordered pair"),
        (2, [(0, 1)], [_K], "one role per vertex required"),
        (3, [(0, 1)], [_K] * 3, r"graph is disconnected \(2 of 3 vertices reachable\)"),
        (3, [(0, 1), (1, 2)], [_K] * 3, r"clique 'K' missing edge \(0, 2\)"),
        # a star: chain vertex 3 touches chain vertices 4, 5 and 6
        (7, _K3 + [(2, 3), (3, 4), (3, 5), (3, 6)], [_K, _K, _J] + [_C] * 4,
         "chain 'C' vertex 3 has 3 chain neighbors"),
        # a triangle of chain vertices: no end
        (6, _K3 + [(2, 3), (3, 4), (4, 5), (3, 5)], [_K, _K, _J] + [_C] * 3,
         "chain 'C' does not form a path"),
    ],
)
def test_validate_rejects(n, edges, roles, message):
    g = GraphSpec(n=n, edges=frozenset(edges), roles=tuple(roles), params={})
    with pytest.raises(ValueError, match=f"^{message}$"):
        g.validate()
