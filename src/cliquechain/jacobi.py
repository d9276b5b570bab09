"""Self-contained Jacobi eigensolver for dense symmetric matrices.

Used as the independent ground truth against the closed-form spectra, so it
deliberately avoids LAPACK and numpy's linear-algebra module: plain Givens
rotations only.

Rotations follow the round-robin ("chess tournament") ordering of Brent and
Luk (1985): each sweep is a sequence of rounds, and a round pairs every index
with exactly one other.  A rotation on (p, q) changes only rows and columns p
and q, so rotations on disjoint pairs commute and none of them touches the
entries another one reads to pick its angle.  All rotations of a round are
therefore applied at once, with the same result as applying them one after
another.

The sweep keeps the matrix in the current round's paired layout: rows and
columns permuted so that the round's pairs (p, q) sit at positions
(2k, 2k+1).  Read as complex numbers x + iy, each pair of adjacent columns
then rotates by one multiply with w = c + is, since
(c + is)(x + iy) = (cx - sy) + i(sx + cy); rows rotate the same way as the
columns of the transpose.  numpy may fuse the complex product's
multiply-adds, so a rotated entry can differ from the two-product formula
in its last bit.  Moving to the next round's layout is a row gather of a
transpose, one m-entry permutation per round.
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
    return p[keep].reshape(m - 1, -1), q[keep].reshape(m - 1, -1)


@lru_cache(maxsize=16)
def _paired_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index tables that run one sweep of ``_round_robin(n)`` in paired layout.

    There are ``m = n + (n odd)`` positions; for odd n, the index a round
    leaves out is paired with the padding index n.  Round r's layout puts its
    k-th pair (p, q) at positions (2k, 2k+1).  Returns ``(first, steps,
    zeros)``:

    - ``first[j]``: the index at position j in round 0;
    - ``steps[r]``: position j of round r+1 holds what sat at position
      ``steps[r, j]`` of round r (the last round steps back to round 0);
    - ``zeros[r]``: the flat positions, in round r+1's layout of an m-by-m
      matrix, of round r's entries (p, q) and (q, p).
    """
    P, Q = _round_robin(n)
    m = n + n % 2
    if n % 2:
        left_out = n * (n - 1) // 2 - P.sum(axis=1) - Q.sum(axis=1)
        P = np.column_stack([P, left_out])
        Q = np.column_stack([Q, np.full(m - 1, n)])
    layout = np.empty((m - 1, m), dtype=np.intp)  # round r: position -> index
    layout[:, 0::2], layout[:, 1::2] = P, Q
    position = np.argsort(layout, axis=1)  # round r: index -> position
    steps = np.take_along_axis(position, np.roll(layout, -1, axis=0), axis=1)
    moved = np.argsort(steps, axis=1)  # round r position -> round r+1 position
    p, q = moved[:, 0::2], moved[:, 1::2]
    zeros = np.concatenate([p * m + q, q * m + p], axis=1)
    first = layout[0].copy()
    for table in (first, steps, zeros):
        table.setflags(write=False)
    return first, steps, zeros


def _sweeps(a: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi sweeps on symmetric ``a`` (n >= 2): eigenvalues and V, unsorted.

    ``av`` stacks the working matrix, padded to m-by-m, over V (n-by-m); the
    matrix rows and the columns of both sit in the current round's layout.
    A round reads its angles off the diagonal and the entries (2k, 2k+1),
    rotates the columns of both blocks with one complex multiply, turns the
    row rotation into a column rotation of the transpose, and gathers rows
    of the transposes into the next round's layout.
    """
    n = a.shape[0]
    m = n + n % 2
    first, steps, zeros = _paired_layout(n)
    av = np.vstack([np.pad(a, (0, m - n))[np.ix_(first, first)], np.eye(n, m)[:, first]])
    av_t = np.empty((m, m + n))
    a_lay, v_lay, a_t, v_t = av[:m], av[m:], av_t[:, :m], av_t[:, m:]
    av_pairs, a_t_pairs = av.view(np.complex128), a_t.view(np.complex128)
    flat = a_lay.reshape(-1)
    app, aqq, apq = flat[:: 2 * m + 2], flat[m + 1 :: 2 * m + 2], flat[1 :: 2 * m + 2]
    theta = np.empty(m // 2)
    for _ in range(_MAX_SWEEPS):
        if _off_norm(a_lay) < tol:
            break
        for step, zero in zip(steps, zeros):
            # a skipped pair keeps theta = inf, so t = 0 and w = 1 exactly
            theta[:] = np.inf
            np.divide(aqq - app, 2.0 * apq, out=theta, where=np.abs(apq) >= _SKIP_EPS)
            t = np.where(theta < 0.0, -1.0, 1.0) / (np.abs(theta) + np.hypot(theta, 1.0))
            c = 1.0 / np.sqrt(t * t + 1.0)  # t <= 1
            w = c + 1j * (t * c)  # c + i s
            av_pairs *= w  # A <- A J, V <- V J
            # rows of av_t: the columns of A J and V J, in the next order
            np.take(av.T, step, axis=0, out=av_t, mode="clip")
            a_t_pairs *= w  # (A J)^T J = (J^T A J)^T
            # transposed back, in the next order on both axes
            np.take(a_t.T, step, axis=0, out=a_lay, mode="clip")
            np.copyto(v_lay, v_t.T)
            np.put(a_lay, zero, 0.0)  # this round's (p, q) and (q, p)
    else:
        if not _off_norm(a_lay) < tol:
            raise JacobiConvergenceError(_off_norm(a_lay), _MAX_SWEEPS)
    index_at = np.argsort(first)[:n]
    return np.diagonal(a_lay)[index_at], v_lay[:, index_at]


def eig_sym(m: np.ndarray, tol: float = 1e-12) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix by round-robin Jacobi.

    Each sweep runs the round-robin ordering: n - 1 + (n odd) rounds of
    disjoint pairs, every pair once.  Disjoint rotations commute and read
    entries no other rotation of the round writes, so a round applies all
    of its rotations in one step on the paired layout (module docstring).
    Pairs whose off-diagonal entry is below ``_SKIP_EPS`` get the identity
    rotation.

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

    evals, v = _sweeps(a, tol) if n > 1 else (np.diag(a).copy(), np.eye(n))
    order = np.argsort(-evals, kind="stable")
    evals = evals[order]
    vecs = v[:, order]
    # deterministic sign: largest-magnitude component of each column positive
    flip = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n)] < 0
    vecs[:, flip] = -vecs[:, flip]

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
