"""Self-contained Jacobi eigensolver for dense symmetric matrices.

Used as the independent ground truth against the closed-form spectra, so it
deliberately avoids LAPACK and numpy's linear-algebra module: plain Givens
rotations only.

Rotations follow the round-robin ("chess tournament") ordering of Brent and
Luk (1985): each sweep is a sequence of rounds, and a round pairs every index
with exactly one other.  A rotation on (p, q) changes only rows and columns p
and q, so rotations on disjoint pairs commute and none of them touches the
entries another one reads to pick its angle.  All rotations of a round are
therefore applied at once as one vectorized update, with the same result as
applying them one after another.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "EigGroup",
    "Spectrum",
    "JacobiConvergenceError",
    "eig_sym",
    "group_multiplicities",
    "residual",
]

_SKIP_EPS = 1e-300  # rotations below this are pure noise
_MAX_SWEEPS = 100
DEFAULT_GROUP_RTOL = 1e-8


class JacobiConvergenceError(RuntimeError):
    def __init__(self, off_norm: float, sweeps: int):
        self.off_norm = off_norm
        self.sweeps = sweeps
        super().__init__(
            f"Jacobi sweep limit ({sweeps}) reached, off-diagonal norm {off_norm:.3e}"
        )


@dataclass(frozen=True)
class EigGroup:
    """Run of (near-)equal eigenvalues: representative value + index range."""

    value: float
    start: int
    stop: int  # exclusive

    @property
    def multiplicity(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending, orthonormal eigenvectors by column."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    groups: tuple[EigGroup, ...]

    def multiplicity_of(self, value: float, tol: float = 1e-8) -> int:
        return int(np.sum(np.abs(self.eigenvalues - value) <= tol))


def _off_norm(a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.square(a - np.diag(np.diag(a))))))


@lru_cache(maxsize=16)
def _round_robin(n: int) -> tuple[np.ndarray, np.ndarray]:
    """One sweep of the round-robin pairing of 0..n-1, as index arrays P, Q.

    ``m = n + (n odd)`` seats meet in ``m - 1`` rounds: seat 0 stays put and
    the others turn one place per round, seat i facing seat m-1-i.  Round r
    rotates the disjoint pairs ``(P[r, i], Q[r, i])`` with P < Q; pairs with
    the dummy seat n (odd n) are dropped.  Every pair p < q occurs exactly
    once per sweep.
    """
    m = n + n % 2
    table = np.zeros((m - 1, m), dtype=int)  # round r: seat -> index
    table[:, 1:] = 1 + (np.arange(m - 1)[:, None] + np.arange(m - 1)) % (m - 1)
    left, right = table[:, : m // 2], table[:, : m // 2 - 1 : -1]
    p, q = np.minimum(left, right), np.maximum(left, right)
    keep = q < n
    p = p[keep].reshape(m - 1, -1)
    q = q[keep].reshape(m - 1, -1)
    p.setflags(write=False)
    q.setflags(write=False)
    return p, q


def eig_sym(m: np.ndarray, tol: float = 1e-12) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix by round-robin Jacobi.

    Each sweep runs the round-robin ordering: n - 1 + (n odd) rounds of
    disjoint pairs, every pair once.  Disjoint rotations commute and read
    entries no other rotation of the round writes, so a round applies all
    of its rotations in one vectorized step.  Pairs whose off-diagonal
    entry is below ``_SKIP_EPS`` are left out of the round.

    Converges when the off-diagonal Frobenius norm drops below ``tol``
    (absolute).  Raises JacobiConvergenceError after 100 sweeps, and
    ValueError for non-symmetric input.
    """
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    n = a.shape[0]
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    a = 0.5 * (a + a.T)
    a_in = np.array(m, dtype=float)

    v = np.eye(n)
    if n > 1:
        converged = False
        for _ in range(_MAX_SWEEPS):
            if _off_norm(a) < tol:
                converged = True
                break
            for P, Q in zip(*_round_robin(n)):
                apq = a[P, Q]
                hit = np.abs(apq) >= _SKIP_EPS
                if not hit.all():
                    if not hit.any():
                        continue
                    P, Q, apq = P[hit], Q[hit], apq[hit]
                theta = (a[Q, Q] - a[P, P]) / (2.0 * apq)
                t = 1.0 / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
                t = np.where(theta < 0.0, -t, t)
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                # A <- J^T A J, rank-two updates of columns, then rows, P and Q
                ap, aq = a[:, P], a[:, Q]
                a[:, P] = c * ap - s * aq
                a[:, Q] = s * ap + c * aq
                ap, aq = a[P, :], a[Q, :]
                a[P, :] = c[:, None] * ap - s[:, None] * aq
                a[Q, :] = s[:, None] * ap + c[:, None] * aq
                a[P, Q] = 0.0
                a[Q, P] = 0.0
                vp, vq = v[:, P], v[:, Q]
                v[:, P] = c * vp - s * vq
                v[:, Q] = s * vp + c * vq
        else:
            converged = _off_norm(a) < tol
        if not converged:
            raise JacobiConvergenceError(_off_norm(a), _MAX_SWEEPS)

    evals = np.diag(a).copy()
    order = np.argsort(-evals, kind="stable")
    evals = evals[order]
    vecs = v[:, order]
    # deterministic sign: largest-magnitude component of each column positive
    for k in range(n):
        i = int(np.argmax(np.abs(vecs[:, k])))
        if vecs[i, k] < 0:
            vecs[:, k] = -vecs[:, k]

    res = float(np.max(np.abs(a_in @ vecs - vecs * evals)))
    bound = 10.0 * tol * scale
    if res > max(bound, 1e3 * n * np.finfo(float).eps * scale):
        raise JacobiConvergenceError(res, _MAX_SWEEPS)

    evals.setflags(write=False)
    vecs.setflags(write=False)
    return Spectrum(
        eigenvalues=evals,
        eigenvectors=vecs,
        groups=group_multiplicities(evals),
    )


def group_multiplicities(
    evals: np.ndarray, rel_tol: float = DEFAULT_GROUP_RTOL
) -> tuple[EigGroup, ...]:
    """Cluster a descending-sorted eigenvalue array into multiplicity groups.

    Consecutive values within ``rel_tol * max(1, |value|)`` are merged.
    """
    evals = np.asarray(evals, dtype=float)
    if evals.size and np.any(np.diff(evals) > 1e-12):
        raise ValueError("eigenvalues must be sorted descending")
    groups: list[EigGroup] = []
    i = 0
    n = evals.size
    while i < n:
        j = i + 1
        while j < n and abs(evals[j] - evals[j - 1]) <= rel_tol * max(
            1.0, abs(evals[j - 1])
        ):
            j += 1
        groups.append(EigGroup(value=float(np.mean(evals[i:j])), start=i, stop=j))
        i = j
    return tuple(groups)


def residual(m: np.ndarray, lam: float, vec: np.ndarray) -> float:
    """Max-norm eigenpair residual ||M v - lam v||_inf / ||v||_inf."""
    m = np.asarray(m, dtype=float)
    vec = np.asarray(vec, dtype=float)
    vmax = float(np.max(np.abs(vec)))
    if vmax == 0.0:
        raise ValueError("residual of the zero vector is undefined")
    return float(np.max(np.abs(m @ vec - lam * vec))) / vmax
