"""Transfer-matrix algebra for the uniform chain.

The eigenvalue equation -v_{j-1} + 2 v_j - v_{j+1} = lam * v_j advances the
state z_j = (v_j, v_{j+1}) by the 2x2 matrix M(lam).  Its eigenvalues
sigma+- satisfy sigma^2 - (2-lam) sigma + 1 = 0: real with |sigma+| < 1 for
lam > 4 (decaying solutions exist), unimodular complex for lam in (0,4)
(oscillatory regime, parameterized by the phase phi with lam = 2 - 2cos phi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

__all__ = [
    "TransferPair",
    "ChainState",
    "transfer_matrix",
    "sigma_plus",
    "sigma_pair",
    "phase",
    "propagate",
]


@dataclass(frozen=True)
class TransferPair:
    """Transfer-matrix eigenvalues at a given lam (hyperbolic regime)."""

    lam: float
    sigma_plus: float   # the root of magnitude < 1
    sigma_minus: float  # = 1 / sigma_plus


class ChainState(NamedTuple):
    v: float
    v_next: float


def transfer_matrix(lam: float) -> np.ndarray:
    return np.array([[0.0, 1.0], [-1.0, 2.0 - lam]])


def sigma_plus(lam: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """sigma+ for lam >= 4, elementwise (lam is not checked).

    Computed cancellation-free as
    sigma+ = -2 / ((lam-2) + sqrt((lam-2)^2 - 4)), which avoids the loss of
    precision of the quadratic formula when lam is large.
    """
    t = 2.0 - np.asarray(lam, dtype=float)
    return 2.0 / (t - np.sqrt(t * t - 4.0))


def sigma_pair(lam: float) -> TransferPair:
    """sigma+- for lam outside the oscillatory band [0, 4]."""
    if 0.0 <= lam <= 4.0:
        raise ValueError(
            f"lam={lam} lies in the oscillatory band [0, 4]; use phase() there"
        )
    if lam > 4.0:
        sp = float(sigma_plus(lam))
    else:
        t = 2.0 - lam
        sp = 2.0 / (t + math.sqrt(t * t - 4.0))
    return TransferPair(lam=lam, sigma_plus=sp, sigma_minus=1.0 / sp)


def phase(lam: float) -> float:
    """Phase phi in (0, pi) with lam = 2 - 2 cos(phi), for lam in (0, 4).

    Uses the two-argument arctangent so the branch is correct on both
    sides of lam = 2.
    """
    if not 0.0 < lam < 4.0:
        raise ValueError(f"lam={lam} outside the oscillatory band (0, 4)")
    t = 2.0 - lam
    return math.atan2(math.sqrt(4.0 - t * t), t)


def propagate(lam: float, z0: ChainState, n: int) -> ChainState:
    """Apply the transfer matrix n times: z_n = M(lam)^n z_0.

    Plain repeated application (no eigendecomposition), intended for
    cross-checks against closed forms.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    v, w = float(z0[0]), float(z0[1])
    c = 2.0 - lam
    for _ in range(n):
        v, w = w, c * w - v
    return ChainState(v, w)
