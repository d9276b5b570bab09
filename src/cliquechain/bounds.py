"""Interval bounds from eigenvalue interlacing, closed chain spectra, and
large-p estimates for the localized eigenvalues.

Splitting the Laplacian into a block-diagonal part (clique and bare chains)
plus the rank-small coupling gives two-sided bounds for every eigenvalue
index: the top one or two in [p, p+2], a block pinned exactly at p, and the
remainder inside the chain band [0, 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeylEntry",
    "WeylBounds",
    "AsymptoticEstimate",
    "chain_eigenvalues_closed",
    "weyl_one",
    "weyl_two",
    "asymptotic_edge",
]

_CHECK_TOL = 1e-9


def chain_eigenvalues_closed(q: int) -> np.ndarray:
    """Eigenvalues of the bare chain with q-1 vertices, sorted descending.

    4 sin^2(k pi / (2(q-1))) for k = 0..q-2; the smallest is 0.
    """
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if q == 2:
        return np.zeros(1)
    ks = np.arange(q - 2, -1, -1)
    return 4.0 * np.sin(np.pi * ks / (2.0 * (q - 1))) ** 2


@dataclass(frozen=True)
class WeylEntry:
    """Bound lower <= lam_j <= upper for 1-based indices j in [j_lo, j_hi]."""

    j_lo: int
    j_hi: int
    lower: float
    upper: float
    lower_closed: bool = True
    upper_closed: bool = True
    note: str = ""


@dataclass(frozen=True)
class WeylBounds:
    n: int
    entries: tuple[WeylEntry, ...]
    outside_hypotheses: tuple[str, ...] = ()

    def check(self, evals_desc: np.ndarray, tol: float = _CHECK_TOL) -> list[str]:
        """Return a violation message per eigenvalue outside its interval."""
        evals = np.asarray(evals_desc, dtype=float)
        out = []
        for e in self.entries:
            for j in range(e.j_lo, e.j_hi + 1):
                lam = evals[j - 1]
                if lam < e.lower - tol or lam > e.upper + tol:
                    out.append(
                        f"lambda_{j} = {lam:.12g} outside "
                        f"{'[' if e.lower_closed else '('}{e.lower}, "
                        f"{e.upper}{']' if e.upper_closed else ')'} ({e.note})"
                    )
        return out

    def margins(self, evals_desc: np.ndarray) -> list[float]:
        """Distance of each eigenvalue to its nearest interval endpoint."""
        evals = np.asarray(evals_desc, dtype=float)
        out = []
        for e in self.entries:
            for j in range(e.j_lo, e.j_hi + 1):
                lam = evals[j - 1]
                out.append(min(lam - e.lower, e.upper - lam))
        return out


def weyl_one(p: int, q: int, strict: bool = True) -> WeylBounds:
    """Index-by-index bounds for the clique-plus-one-chain spectrum.

    Stated for p >= 4, q >= 4; with strict=False smaller parameters are
    accepted and the result is marked as outside those hypotheses.
    """
    outside = []
    if p < 4 or q < 4:
        msg = f"interlacing bounds require p >= 4 and q >= 4 (got p={p}, q={q})"
        if strict:
            raise ValueError(msg)
        outside.append(msg)
    if p < 3 or q < 2:
        raise ValueError(f"no such graph: p={p}, q={q}")
    n = p + q - 1
    chain_top = float(chain_eigenvalues_closed(q)[0])
    entries = [
        WeylEntry(1, 1, float(p), p + 2.0, note="top localized eigenvalue"),
        WeylEntry(2, p - 1, float(p), float(p), note="clique block"),
        WeylEntry(
            p, p, 0.0, min(chain_top + 2.0, float(p)),
            lower_closed=False, upper_closed=False, note="first band eigenvalue",
        ),
    ]
    if n >= p + 1:
        entries.append(
            WeylEntry(p + 1, n, 0.0, 4.0, upper_closed=False, note="chain band")
        )
    return WeylBounds(n=n, entries=tuple(entries), outside_hypotheses=tuple(outside))


def weyl_two(q1: int, p: int, q2: int, strict: bool = True) -> WeylBounds:
    """Index-by-index bounds for the two-chain spectrum (p >= 6, q1, q2 >= 4)."""
    outside = []
    if p < 6 or q1 < 4 or q2 < 4:
        msg = (
            f"interlacing bounds require p >= 6 and q1, q2 >= 4 "
            f"(got p={p}, q1={q1}, q2={q2})"
        )
        if strict:
            raise ValueError(msg)
        outside.append(msg)
    if p < 3 or q1 < 2 or q2 < 2:
        raise ValueError(f"no such graph: p={p}, q1={q1}, q2={q2}")
    n = p + q1 + q2 - 2
    top = max(
        float(chain_eigenvalues_closed(q1)[0]), float(chain_eigenvalues_closed(q2)[0])
    )
    entries = [
        WeylEntry(1, 2, float(p), p + 2.0, note="two localized eigenvalues"),
        WeylEntry(3, p - 1, float(p), float(p), note="clique block"),
        WeylEntry(
            p, min(p + 1, n), 0.0, min(top + 2.0, float(p)),
            lower_closed=False, upper_closed=False, note="first band eigenvalues",
        ),
    ]
    if n >= p + 2:
        entries.append(
            WeylEntry(p + 2, n, 0.0, 4.0, upper_closed=False, note="chain band")
        )
    return WeylBounds(n=n, entries=tuple(entries), outside_hypotheses=tuple(outside))


@dataclass(frozen=True)
class AsymptoticEstimate:
    """Large-p closed forms for a localized eigenvalue and its mode shape."""

    family: str  # 'one_chain' | 'two_chain_anti' | 'two_chain_sym'
    p: int
    lambda_hat: float
    sigma_hat: float
    c0_hat: float


def asymptotic_edge(family: str, p: int) -> AsymptoticEstimate:
    """Leading large-p estimates: lambda ~ p+1 (+ family correction),
    sigma+ ~ -1/(p-1), C0 ~ -1/p (plateau per unit junction value)."""
    if p < 5:
        raise ValueError(f"asymptotic estimates assume p >= 5, got {p}")
    if family == "one_chain":
        lam = p + 1.0
        return AsymptoticEstimate(
            family=family, p=p, lambda_hat=lam,
            sigma_hat=-1.0 / (p - 1.0), c0_hat=-1.0 / p,
        )
    if family == "two_chain_anti":
        lam = p + 1.0 + 1.0 / p
        return AsymptoticEstimate(
            family=family, p=p, lambda_hat=lam,
            sigma_hat=p / (p * (1.0 - p) - 1.0), c0_hat=0.0,
        )
    if family == "two_chain_sym":
        lam = p + 1.0 - 2.0 / (p + 1.0)
        return AsymptoticEstimate(
            family=family, p=p, lambda_hat=lam,
            sigma_hat=1.0 / (2.0 - lam), c0_hat=2.0 / (2.0 - lam),
        )
    raise ValueError(f"unknown asymptotic family {family!r}")
