"""Transfer-matrix primitives: branch selection, phase, propagation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cliquechain import ChainState, phase, propagate, sigma_pair, sigma_plus, transfer_matrix


def test_sigma_at_six_matches_closed_form():
    pair = sigma_pair(6.0)
    assert pair.sigma_plus == pytest.approx(-2.0 + math.sqrt(3.0), abs=1e-14)
    assert pair.sigma_minus == pytest.approx(-2.0 - math.sqrt(3.0), abs=1e-13)


def test_sigma_near_band_edge_tends_to_minus_one():
    assert sigma_pair(4.0 + 1e-12).sigma_plus == pytest.approx(-1.0, abs=1e-5)


def test_sigma_at_reference_edge_eigenvalue():
    # the localized eigenvalue of the K6 + chain example has sigma+ ~ -0.205
    assert sigma_pair(7.03).sigma_plus == pytest.approx(-0.205, abs=0.01)


def test_sigma_product_is_one_on_grid():
    lams = np.arange(4.01, 40.001, 0.01)
    for lam in lams:
        pair = sigma_pair(float(lam))
        assert abs(pair.sigma_plus * pair.sigma_minus - 1.0) < 1e-12
        assert -1.0 < pair.sigma_plus < 0.0
        assert pair.sigma_minus < -1.0


def test_sigma_negative_lam_branch():
    pair = sigma_pair(-1.0)
    assert 0.0 < pair.sigma_plus < 1.0
    assert pair.sigma_plus * pair.sigma_minus == pytest.approx(1.0, abs=1e-14)


def test_band_interior_rejected_with_pointer_to_phase():
    with pytest.raises(ValueError, match="phase"):
        sigma_pair(2.0)
    with pytest.raises(ValueError, match="phase"):
        sigma_pair(4.0)


def test_sigma_plus_vectorized_is_bit_identical():
    # one helper for every lam > 4: the array form rounds exactly as the
    # scalar formula and as sigma_pair, element by element
    lams = np.concatenate([4.0 + np.logspace(-12, 0, 40), np.linspace(5.0, 500.0, 200), [1e8]])
    scalar = [2.0 / ((2.0 - x) - math.sqrt((2.0 - x) ** 2 - 4.0)) for x in lams.tolist()]
    vec = sigma_plus(lams)
    assert vec.tolist() == scalar
    assert vec.tolist() == [sigma_pair(x).sigma_plus for x in lams.tolist()]


def test_large_lam_asymptote():
    # sigma+ = -1/(lam-2) + O((lam-2)^-3)
    for lam in np.linspace(20.0, 200.0, 50):
        err = abs(sigma_pair(float(lam)).sigma_plus + 1.0 / (lam - 2.0))
        assert err <= 1.1 / (lam - 2.0) ** 3


class TestPhase:
    @pytest.mark.parametrize(
        "lam,expected", [(2.0, math.pi / 2), (1.0, math.pi / 3), (3.0, 2 * math.pi / 3)]
    )
    def test_reference_angles(self, lam, expected):
        assert phase(lam) == pytest.approx(expected, abs=1e-14)

    def test_round_trip_and_monotone(self):
        lams = np.linspace(0.01, 3.99, 500)
        phis = np.array([phase(float(x)) for x in lams])
        assert np.max(np.abs(2.0 - 2.0 * np.cos(phis) - lams)) < 1e-12
        assert np.all(np.diff(phis) > 0)
        assert np.all((phis > 0) & (phis < np.pi))

    @pytest.mark.parametrize("lam", [0.0, 4.0, -0.5, 5.0])
    def test_domain(self, lam):
        with pytest.raises(ValueError):
            phase(lam)


class TestPropagate:
    def test_zero_steps_identity(self):
        z = ChainState(0.3, -0.7)
        assert propagate(5.0, z, 0) == z

    def test_eigenvector_single_step(self):
        sp = sigma_pair(6.0).sigma_plus
        z = propagate(6.0, ChainState(1.0, sp), 1)
        assert z.v == pytest.approx(sp, abs=1e-15)
        assert z.v_next == pytest.approx(sp * sp, abs=1e-15)

    def test_eigenvector_five_steps(self):
        sp = sigma_pair(6.0).sigma_plus
        z = propagate(6.0, ChainState(1.0, sp), 5)
        assert z.v == pytest.approx(sp**5, abs=1e-12)
        assert z.v_next == pytest.approx(sp**6, abs=1e-12)

    def test_determinant_one(self):
        for lam in (0.5, 2.0, 6.0, 25.0):
            assert np.linalg.det(transfer_matrix(lam)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("lam", [1.3, 3.7, 6.0, 11.0])
    def test_wronskian_preserved_100_steps(self, lam):
        v = ChainState(1.0, 0.25)
        w = ChainState(-0.5, 1.0)
        wr0 = v.v * w.v_next - v.v_next * w.v
        for n in (1, 10, 100):
            vn = propagate(lam, v, n)
            wn = propagate(lam, w, n)
            wr = vn.v * wn.v_next - vn.v_next * wn.v
            # in the hyperbolic regime both solutions grow, so the drift is
            # measured against the size of the products being cancelled
            scale = max(1.0, abs(vn.v * wn.v_next), abs(vn.v_next * wn.v))
            assert abs(wr - wr0) < 1e-10 * scale

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError, match="n"):
            propagate(2.0, ChainState(1.0, 1.0), -1)
