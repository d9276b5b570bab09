"""Characteristic functions whose zeros are the localized eigenvalues.

For a clique K_p with pendant chains, eigenvectors orthogonal to the
in-clique modes are fixed by scalar conditions in lam:

* one chain, infinite:  F(lam)   = (1-lam) sigma+ - (p-lam)(1-lam) + (p-1)
* one chain, finite q:  F_q(lam) replaces sigma+ by the finite-chain ratio
  sigma+ (1 + sigma+^(2q-3)) / (1 + sigma+^(2q-1))
* two chains, infinite: F_S, F_A (symmetric / antisymmetric)
* two chains, finite:   det D of the 3x3 junction system; for q1 == q2 it
  factorizes as D = -F_Aq * F_Sq

Each function has exactly one simple zero per localized mode in (p, p+2]
and no zeros in (4, p].  On the band (0, 4), F_q written through the phase
lam = 2 - 2 cos(phi) (``f_one_fin_phase``) has poles; multiplied by its
denominator it becomes a pole-free H whose zeros are exactly the q-1
oscillatory chain eigenvalues; ``find_chain_roots`` scans H on a fixed
grid and bisects each cell with a sign change or an exact zero.

Above the band nothing is scanned.  Sylvester's law of inertia counts the
zeros below a shift x exactly: eliminate each chain from its free end with
the pivot recurrence d_k = 2 - x - 1/d_(k-1), drop the clique's difference
modes (pivot p - x), collapse its other free vertices to one plateau
coordinate, and count the negative pivots of the small plateau/junction
block that remains.  ``count_sign_changes_below_band`` takes the count at 4
and p; ``find_edge_roots`` bisects it over (max(p, 4), p+2], as LAPACK
dstebz does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .transfer import sigma_plus

__all__ = [
    "EdgeFamily",
    "RootReport",
    "f_one_inf",
    "f_one_fin",
    "f_one_fin_phase",
    "q_factor",
    "two_chain_inf",
    "two_chain_fin",
    "chain_pole_lambdas",
    "find_edge_roots",
    "find_chain_roots",
    "count_sign_changes_below_band",
]

ArrayLike = Union[float, np.ndarray]

_POLE_EPS = 1e-9
_CHAIN_GRID_PER_UNIT = 40
_BISECT_MAX_ITER = 200
DEFAULT_ROOT_TOL = 1e-12


def _require_above_band(lam: ArrayLike, who: str) -> np.ndarray:
    arr = np.asarray(lam, dtype=float)
    if np.any(arr <= 4.0):
        raise ValueError(f"{who} requires lam > 4 (got {np.min(arr)})")
    return arr


def f_one_inf(lam: ArrayLike, p: int) -> ArrayLike:
    """Edge-eigenvalue function for one infinite chain; zero <=> eigenvalue."""
    arr = _require_above_band(lam, "f_one_inf")
    sp = sigma_plus(arr)
    val = (1.0 - arr) * sp - (p - arr) * (1.0 - arr) + (p - 1.0)
    return val if isinstance(lam, np.ndarray) else float(val)


def f_one_fin(lam: ArrayLike, p: int, q: int) -> ArrayLike:
    """Edge-eigenvalue function for one finite chain of q-1 vertices.

    Converges pointwise to f_one_inf as q -> infinity (the correction
    decays like sigma+^(2q-2)).
    """
    arr = _require_above_band(lam, "f_one_fin")
    sp = sigma_plus(arr)
    ratio = sp * (1.0 + sp ** (2 * q - 3)) / (1.0 + sp ** (2 * q - 1))
    val = (1.0 - arr) * ratio - (p - arr) * (1.0 - arr) + (p - 1.0)
    return val if isinstance(lam, np.ndarray) else float(val)


def f_one_fin_phase(
    lam: ArrayLike, p: int, q: int, pole_eps: float = _POLE_EPS
) -> ArrayLike:
    """F_q on the oscillatory band (0, 4), written through the chain phase.

    Returns NaN at poles, i.e. where 1 + cos((2q-1) phi) vanishes (the
    analytic pole positions are ``chain_pole_lambdas``).
    """
    arr = np.asarray(lam, dtype=float)
    if np.any((arr <= 0.0) | (arr >= 4.0)):
        raise ValueError(f"f_one_fin_phase requires lam in (0, 4)")
    phi = np.arctan2(np.sqrt(4.0 - (2.0 - arr) ** 2), 2.0 - arr)
    lam_phi = 2.0 - 2.0 * np.cos(phi)
    num = np.cos(phi) + np.cos(2.0 * (q - 1) * phi)
    den = 1.0 + np.cos((2.0 * q - 1.0) * phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (1.0 - lam_phi) * num / den - (p - lam_phi) * (1.0 - lam_phi) + (p - 1.0)
    val = np.where(np.abs(den) < pole_eps, np.nan, val)
    return val if isinstance(lam, np.ndarray) else float(val)


def chain_pole_lambdas(q: int) -> np.ndarray:
    """Interior poles of the phase form: phi = (2k+1) pi / (2q-1) in (0, pi)."""
    ks = np.arange(q - 1)
    phis = (2 * ks + 1) * np.pi / (2 * q - 1)
    return 2.0 - 2.0 * np.cos(phis)


def q_factor(lam: ArrayLike, p: int, q: int) -> ArrayLike:
    """Junction coefficient Q_q of the finite-chain elimination."""
    arr = _require_above_band(lam, "q_factor")
    sp = sigma_plus(arr)
    val = sp * (1.0 + sp ** (2 * q - 3)) / (1.0 + sp ** (2 * q - 1)) - (p - arr)
    return val if isinstance(lam, np.ndarray) else float(val)


def two_chain_inf(lam: ArrayLike, p: int) -> tuple[ArrayLike, ArrayLike]:
    """(F_S, F_A) for two infinite chains: symmetric and antisymmetric."""
    arr = _require_above_band(lam, "two_chain_inf")
    sp = sigma_plus(arr)
    f_s = (2.0 - arr) * sp - (p - 1.0 - arr) * (2.0 - arr) + 2.0 * (p - 2.0)
    f_a = sp - (p + 1.0 - arr)
    if isinstance(lam, np.ndarray):
        return f_s, f_a
    return float(f_s), float(f_a)


def two_chain_fin(
    lam: ArrayLike, q1: int, p: int, q2: int
) -> tuple[ArrayLike, Optional[ArrayLike], Optional[ArrayLike]]:
    """(D, F_Sq, F_Aq) for two finite chains.

    D is the determinant of the junction system; its zeros in (p, p+2] are
    the two edge eigenvalues.  For q1 == q2 it factorizes as
    D = -F_Aq * F_Sq with F_Aq = Q_q - 1 (which tends to the infinite-chain
    F_A as q grows) and F_Sq = (2-lam)(Q_q+1) + 2(p-2); otherwise the last
    two entries are None.
    """
    arr = _require_above_band(lam, "two_chain_fin")
    qa = q_factor(arr, p, q1)
    qb = qa if q2 == q1 else q_factor(arr, p, q2)
    d = (p - 2.0) * (2.0 - qa - qb) - (2.0 - arr) * (qa * qb - 1.0)
    scalar = not isinstance(lam, np.ndarray)
    if q1 != q2:
        return (float(d) if scalar else d), None, None
    f_sq = (2.0 - arr) * (qa + 1.0) + 2.0 * (p - 2.0)
    f_aq = qa - 1.0
    if scalar:
        return float(d), float(f_sq), float(f_aq)
    return d, f_sq, f_aq


# --------------------------------------------------------------------------
# edge families and root reports


@dataclass(frozen=True)
class EdgeFamily:
    """K_p with one or two pendant chains, and its edge characteristic.

    ``chains`` holds one parameter per chain: q >= 2 for a chain of q-1
    vertices, or None for an infinite chain.  ``sector`` restricts two equal
    chains to the eigenvectors that are symmetric (+1) or antisymmetric (-1)
    under swapping them.
    """

    p: int
    chains: tuple[Optional[int], ...]
    sector: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "chains", tuple(self.chains))
        if self.p < 3:
            raise ValueError(f"p must be >= 3, got {self.p}")
        if len(self.chains) not in (1, 2):
            raise ValueError(f"one or two chains required, got {len(self.chains)}")
        for q in self.chains:
            if q is not None and q < 2:
                raise ValueError(f"chain parameters must be >= 2, got {q}")
        if self.sector is not None:
            if self.sector not in (1, -1):
                raise ValueError(f"sector must be +1 or -1, got {self.sector}")
            if len(self.chains) != 2 or self.chains[0] != self.chains[1]:
                raise ValueError(f"a sector needs two equal chains, got {self.chains}")

    @property
    def kind(self) -> str:
        """The family's name in reports, e.g. ``two_chain_finite_sym``."""
        finite = [q is not None for q in self.chains]
        length = "finite" if all(finite) else "mixed" if any(finite) else "infinite"
        sector = {None: "", 1: "_sym", -1: "_anti"}[self.sector]
        return f"{('one', 'two')[len(self.chains) - 1]}_chain_{length}{sector}"

    @property
    def expected_roots(self) -> int:
        """Localized eigenvalues promised in (p, p+2] for this family."""
        return 1 if self.sector else len(self.chains)

    def _finite_params(self) -> dict:
        # a sector's two chains are one parameter q
        names = ("q",) if len(self.chains) == 1 or self.sector else ("q1", "q2")
        return {n: q for n, q in zip(names, self.chains) if q is not None}

    def hypothesis_violations(self) -> tuple[str, ...]:
        """Parameter ranges below which the root-count statements are not
        guaranteed (roots are still searched for and reported)."""
        qs = self._finite_params()
        if not qs:
            if self.p < 5:
                return (f"{self.kind}: p >= 5 required, got p={self.p}",)
        elif self.p < 6 or min(qs.values()) < 3:
            got = "".join(f", {n}={q}" for n, q in qs.items())
            return (
                f"{self.kind}: p >= 6 and {', '.join(qs)} >= 3 required, "
                f"got p={self.p}{got}",
            )
        return ()

    def describe(self) -> dict:
        return {"kind": self.kind, "p": self.p, **self._finite_params()}


@dataclass(frozen=True)
class RootReport:
    """Roots with their final bisection brackets and iteration counts: edge
    roots bisect the inertia count, chain roots a sign-change scan."""

    roots: tuple[float, ...]
    brackets: tuple[tuple[float, float], ...]
    iterations: tuple[int, ...]
    expected_count: Optional[int] = None
    anomalies: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def count_matches(self) -> bool:
        if self.expected_count is None:
            return True
        return len(self.roots) == self.expected_count


def _bisect(
    f: Callable[[float], float],
    a: float,
    b: float,
    fa: float,
    fb: float,
    tol: float,
) -> tuple[float, int, float, float]:
    """Bisection on a sign-change bracket; returns (root, iters, lo, hi)."""
    it = 0
    while (b - a) > tol and it < _BISECT_MAX_ITER:
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        fm = f(m)
        it += 1
        if fm == 0.0:
            return m, it, a, b
        if (fa < 0.0) != (fm < 0.0):
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b), it, a, b


def _scan_bisect(
    f: Callable[[float], float], grid: np.ndarray, vals: np.ndarray, tol: float
) -> tuple[list[float], list[tuple[float, float]], list[int]]:
    """Zeros of a continuous f sampled as ``vals`` on the increasing ``grid``.

    A cell whose left sample is exactly zero yields that sample (unless it
    repeats the previous root); a cell whose samples differ in sign is
    bisected to width ``tol``.  Returns (roots, brackets, iterations).
    """
    va, vb = vals[:-1], vals[1:]
    roots: list[float] = []
    brackets: list[tuple[float, float]] = []
    iters: list[int] = []
    for i in np.nonzero((va == 0.0) | ((va < 0.0) != (vb < 0.0)))[0]:
        a = float(grid[i])
        if va[i] == 0.0:
            if roots and abs(a - roots[-1]) <= 10 * tol:
                continue
            r, it, lo, hi = a, 0, a, a
        else:
            r, it, lo, hi = _bisect(f, a, float(grid[i + 1]), float(va[i]), float(vb[i]), tol)
        roots.append(r)
        brackets.append((lo, hi))
        iters.append(it)
    return roots, brackets, iters


def _fmt_roots(roots) -> str:
    """A root list at the reports' 12 significant digits."""
    return "[" + ", ".join(format(r, ".12g") for r in roots) + "]"


def find_edge_roots(family: EdgeFamily) -> RootReport:
    """All zeros of the family characteristic in (max(p, 4), p+2].

    Bisection on the inertia count N = ``_sector_count_below``, down to
    adjacent doubles: with lo and hi just above the window's ends, the j-th
    of its N(hi) - N(lo) roots is the one sign change of N(x) - N(lo) - j - 1/2.
    A mismatch against the family's promised root count is reported as an
    anomaly, never patched.
    """
    p = family.p
    lo = math.nextafter(max(float(p), 4.0), math.inf)
    hi = math.nextafter(p + 2.0, math.inf)
    base = _sector_count_below(family, lo)
    roots, brackets, iters = [], [], []
    for j in range(_sector_count_below(family, hi) - base):
        r, it, a, b = _bisect(
            lambda x: _sector_count_below(family, x) - base - j - 0.5,
            lo, hi, -0.5, 0.5, 0.0,
        )
        roots.append(r)
        brackets.append((a, b))
        iters.append(it)

    anomalies = []
    if len(roots) != family.expected_roots:
        anomalies.append(
            f"{family.kind} p={p}: expected {family.expected_roots} root(s) in "
            f"(p, p+2], found {len(roots)} at {_fmt_roots(roots)}"
        )
    return RootReport(
        roots=tuple(roots),
        brackets=tuple(brackets),
        iterations=tuple(iters),
        expected_count=family.expected_roots,
        anomalies=tuple(anomalies),
        warnings=family.hypothesis_violations(),
    )


def _band_h(phi: ArrayLike, p: int, q: int) -> ArrayLike:
    # F_q times cos((2q-1) phi/2): the same zeros in (0, pi), and no poles
    phi = np.asarray(phi, dtype=float)
    lam = 2.0 - 2.0 * np.cos(phi)
    return (1.0 - lam) * np.cos((q - 1.5) * phi) + (
        (p - 1.0) - (p - lam) * (1.0 - lam)
    ) * np.cos((q - 0.5) * phi)


def find_chain_roots(p: int, q: int, tol: float = DEFAULT_ROOT_TOL) -> RootReport:
    """The q-1 chain eigenvalues in the open band (0, 4).

    With lam = 2 - 2 cos(phi) and num/den = cos((2q-3) phi/2) / cos((2q-1) phi/2),
    the phase form of F_q times cos((2q-1) phi/2) is

        H(phi) = (1-lam) cos((2q-3) phi/2) + [(p-1) - (p-lam)(1-lam)] cos((2q-1) phi/2),

    a trigonometric polynomial with no poles.  Its zeros in (0, pi) are
    exactly the band eigenvalues of K_p + C_q.  They include lam = 1 when
    q = 2 (mod 3): that eigenvector vanishes at the junction (plateau 1,
    chain pattern 0, -(p-1), -(p-1), 0, ...), and lam = 1 is then both a
    pole of F_q and a zero of H.  The scan takes _CHAIN_GRID_PER_UNIT
    samples per oscillation of cos((2q-1) phi); a count other than q-1 is
    flagged as an anomaly.
    """
    if p < 3:
        raise ValueError(f"p must be >= 3, got {p}")
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    n_samples = _CHAIN_GRID_PER_UNIT * (2 * q - 1)
    phis = np.pi * np.arange(1, n_samples + 1) / (n_samples + 1)
    roots_phi, brackets_phi, iters = _scan_bisect(
        lambda x: float(_band_h(x, p, q)), phis, _band_h(phis, p, q), tol / 2.0
    )
    to_lam = lambda x: 2.0 - 2.0 * math.cos(x)
    lam_roots = tuple(to_lam(x) for x in roots_phi)
    expected = q - 1
    anomalies = []
    if len(lam_roots) != expected:
        anomalies.append(
            f"chain scan p={p}, q={q}: expected {expected} band eigenvalues, "
            f"found {len(lam_roots)} at {_fmt_roots(lam_roots)}"
        )
    return RootReport(
        roots=lam_roots,
        brackets=tuple((to_lam(a), to_lam(b)) for a, b in brackets_phi),
        iterations=tuple(iters),
        expected_count=expected,
        anomalies=tuple(anomalies),
    )


def _chain_pivot(x: float, q: Optional[int]) -> float:
    """Last pivot of a pendant chain eliminated from its free end at shift x.

    A chain of q-1 vertices has the pivots d_1 = 1 - x and
    d_k = 2 - x - 1/d_(k-1); an infinite chain (q None) has the recurrence's
    attracting fixed point 1/sigma+(x).  Once a pivot repeats bit for bit,
    every later one equals it, so the recurrence stops there.  Every pivot
    must be negative, as all are (<= -1) for x >= 4: the chain then adds the
    same number of negative pivots at every such shift.
    """
    if q is None:
        d = 1.0 / float(sigma_plus(x))
    else:
        d = 1.0 - x
        for _ in range(q - 2):
            if not d < 0.0:
                break
            nxt = 2.0 - x - 1.0 / d
            if nxt == d:
                break
            d = nxt
    if not d < 0.0:
        raise ValueError(f"chain pivot {d} at shift {x} is not negative")
    return d


def _sector_block(family: EdgeFamily, x: float) -> list[list[float]]:
    """L - x on the family's sector after every chain is eliminated.

    The clique's p-j-1 difference modes (j junctions) have pivot p - x and
    drop out; the rest of its free vertices is one plateau coordinate, the
    indicator of those m = p - j vertices.  What remains is the quadratic
    form over the plateau and junction coordinates: plateau entry m(j - x),
    plateau-junction entries -m, junction-junction entry -1 and junction
    diagonals p - x - 1/d for each chain's last pivot d.  A sector replaces
    the two junctions by the one coordinate e_1 + s e_2, whose diagonal is
    2(J - s); the plateau is symmetric under the swap, so the antisymmetric
    sector drops it.  The coordinates are indicator vectors, not unit
    vectors; that congruence keeps the inertia and needs no square roots.
    """
    p, chains, s = family.p, family.chains, family.sector
    j = len(chains)
    m = float(p - j)
    if s is not None:
        junction = 2.0 * (p - x - 1.0 / _chain_pivot(x, chains[0]) - s)
        return [[m * (j - x), -2.0 * m], [-2.0 * m, junction]] if s > 0 else [[junction]]
    block = [[m * (j - x)] + [-m] * j]
    for i, q in enumerate(chains, 1):
        row = [-m] + [-1.0] * j
        row[i] = p - x - 1.0 / _chain_pivot(x, q)
        block.append(row)
    return block


def _negative_pivots(a: list[list[float]]) -> int:
    """Negative pivots of the LDL^T of a small symmetric block ``a``, no
    pivoting; the elimination overwrites ``a``."""
    n = len(a)
    neg = 0
    for k in range(n):
        d = a[k][k]
        neg += d < 0.0
        for i in range(k + 1, n):
            f = a[i][k] / d
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]
    return neg


def _sector_count_below(family: EdgeFamily, x: float) -> int:
    """The sector's eigenvalues below x >= 4, less its chain vertices.

    For x >= 4 each chain vertex adds one negative pivot, so this is the
    number of negative pivots of the plateau/junction block.
    """
    return _negative_pivots(_sector_block(family, x))


def count_sign_changes_below_band(family: EdgeFamily) -> int:
    """Number of zeros of the family characteristic F in (4, p]; 0 is expected.

    Exact, by Sylvester's law of inertia: the eigenvalues below x of the
    family's sector (the eigenvectors F describes) are the negative pivots
    of an LDL^T of L - x, so the count is N(p) - N(4), two evaluations of
    O(q) scalar work.  On [4, p] every chain pivot and the plateau pivot
    m(j - x) are negative, and the middle pivot of two unequal chains is
    positive; only the last pivot can change sign, and F is that pivot
    times a factor of constant sign.  N therefore steps by one exactly
    where F changes sign, and the count is the number of sign changes of F.
    F vanishes neither at 4 nor at p when p >= 5, so the ends of the window
    do not matter.  p <= 4 leaves the window empty: 0.
    """
    p = family.p
    if p <= 4:
        return 0
    return _sector_count_below(family, float(p)) - _sector_count_below(family, 4.0)
