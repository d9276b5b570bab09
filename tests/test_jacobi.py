"""Round-robin Jacobi oracle: schedule, accuracy, grouping, residuals."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import cliquechain.jacobi as jacobi
from cliquechain import (
    build_single_chain,
    build_two_chain,
    eig_sym,
    group_multiplicities,
    laplacian,
    residual,
)

TABLE1 = np.array([7.0355, 6.0, 6.0, 6.0, 6.0, 3.1832, 1.5163, 0.26503, 0.0])


def test_reference_spectrum():
    spec = eig_sym(laplacian(build_single_chain(6, 4)))
    assert np.max(np.abs(spec.eigenvalues - TABLE1)) < 1e-3
    assert spec.multiplicity_of(6.0) == 4


@pytest.mark.parametrize("p", range(3, 13))
def test_complete_graph_spectrum_exact(p):
    L = p * np.eye(p) - np.ones((p, p))
    spec = eig_sym(L)
    expected = np.array([float(p)] * (p - 1) + [0.0])
    assert np.max(np.abs(spec.eigenvalues - expected)) <= 1e-10


def test_one_by_one_zero_matrix():
    spec = eig_sym(np.zeros((1, 1)))
    assert spec.eigenvalues.tolist() == [0.0]
    assert spec.eigenvectors.tolist() == [[1.0]]


def test_orthonormality_midsize():
    g = build_single_chain(12, 140)  # n = 151
    spec = eig_sym(laplacian(g))
    n = g.n
    err = np.max(np.abs(spec.eigenvectors.T @ spec.eigenvectors - np.eye(n)))
    assert err <= 1e-10


@pytest.mark.parametrize(
    "graph",
    [build_single_chain(6, 4), build_single_chain(9, 8), build_two_chain(5, 8, 4)],
    ids=["K6C4", "K9C8", "C5K8C4"],
)
def test_trace_identity_and_residuals(graph):
    L = laplacian(graph)
    spec = eig_sym(L)
    tr = float(np.trace(L))
    assert abs(spec.eigenvalues.sum() - tr) <= 1e-9 * tr
    for k in range(graph.n):
        assert residual(L, spec.eigenvalues[k], spec.eigenvectors[:, k]) <= 1e-10


@pytest.mark.parametrize("n", range(1, 41))
def test_round_robin_covers_each_pair_once(n):
    P, Q = jacobi._round_robin(n)
    assert P.shape == Q.shape == (n - 1 + n % 2, n // 2)
    assert np.all(P < Q) and np.all(Q < n)
    for p, q in zip(P, Q):  # one round: no index twice
        assert np.unique(np.concatenate([p, q])).size == 2 * p.size
    pairs = set(zip(P.ravel().tolist(), Q.ravel().tolist()))
    assert len(pairs) == P.size == n * (n - 1) // 2


def _path_laplacian(n: int) -> np.ndarray:
    L = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    L[0, 0] = L[-1, -1] = 1.0
    return L


@pytest.mark.parametrize("n", [100, 101])
def test_path_graph_spectrum_closed_form(n):
    spec = eig_sym(_path_laplacian(n))
    expected = 2.0 - 2.0 * np.cos(np.arange(n - 1, -1, -1) * np.pi / n)
    assert np.max(np.abs(spec.eigenvalues - expected)) <= 1e-10


def test_two_components_skip_whole_rounds():
    # Two K6 on the two sides of round 0: every pair of that round joins the
    # components, so its entry is exactly zero in every sweep and the whole
    # round goes through the skip mask (with equal diagonals, an unmasked
    # angle would be 0/0).
    n = 12
    P, Q = jacobi._round_robin(n)
    side_a, side_b = P[0], Q[0]
    L = np.zeros((n, n))
    for side in (side_a, side_b):
        L[np.ix_(side, side)] = 6.0 * np.eye(6) - np.ones((6, 6))
    spec = eig_sym(L)
    expected = np.array([6.0] * 10 + [0.0] * 2)
    assert np.max(np.abs(spec.eigenvalues - expected)) <= 1e-12
    assert spec.multiplicity_of(0.0) == 2
    assert [g.multiplicity for g in spec.groups] == [10, 2]
    # no rotation ever mixed the components: each eigenvector lives on one
    for k in range(n):
        vec = spec.eigenvectors[:, k]
        assert np.all(vec[side_a] == 0.0) or np.all(vec[side_b] == 0.0)


def test_oracle_is_lapack_free():
    assert "linalg" not in Path(jacobi.__file__).read_text()


def test_eigenvector_sign_deterministic():
    L = laplacian(build_single_chain(6, 4))
    a = eig_sym(L)
    b = eig_sym(L)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)
    for k in range(L.shape[0]):
        col = a.eigenvectors[:, k]
        assert col[int(np.argmax(np.abs(col)))] > 0


def test_non_symmetric_rejected():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        eig_sym(m)


def test_convergence_error_carries_off_norm():
    from cliquechain import JacobiConvergenceError

    err = JacobiConvergenceError(1.5e-3, 100)
    assert err.off_norm == 1.5e-3
    assert "1.500e-03" in str(err)


class TestGroups:
    def test_reference_grouping(self):
        spec = eig_sym(laplacian(build_single_chain(6, 4)))
        mults = [(round(g.value, 4), g.multiplicity) for g in spec.groups]
        assert mults == [
            (7.0355, 1),
            (6.0, 4),
            (3.1832, 1),
            (1.5163, 1),
            (0.265, 1),
            (0.0, 1),
        ]

    def test_distinct_values_stay_singletons(self):
        groups = group_multiplicities(np.array([9.0, 5.0, 2.0, 0.0]))
        assert all(g.multiplicity == 1 for g in groups)

    def test_k8_c5_clique_group(self):
        spec = eig_sym(laplacian(build_single_chain(8, 5)))
        sizes = {round(g.value, 6): g.multiplicity for g in spec.groups}
        assert sizes[8.0] == 6  # p - 2

    def test_requires_descending_input(self):
        with pytest.raises(ValueError, match="descending"):
            group_multiplicities(np.array([1.0, 2.0]))

    @pytest.mark.parametrize(
        "graph", [build_single_chain(6, 4), build_two_chain(4, 7, 5)], ids=["one", "two"]
    )
    def test_connected_graph_has_one_zero_group(self, graph):
        spec = eig_sym(laplacian(graph))
        near_zero = [g for g in spec.groups if abs(g.value) <= 1e-8]
        assert len(near_zero) == 1 and near_zero[0].multiplicity == 1


class TestResidual:
    def test_exact_clique_vector(self):
        g = build_single_chain(6, 4)
        L = laplacian(g)
        v = np.zeros(9)
        v[4], v[3] = 1.0, -1.0
        assert residual(L, 6.0, v) == 0.0

    def test_constant_vector_zero_mode(self):
        L = laplacian(build_two_chain(3, 6, 4))
        assert residual(L, 0.0, np.ones(L.shape[0])) == 0.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            residual(np.eye(3), 1.0, np.zeros(3))
