"""Explicit eigenvectors and the labeled-spectrum classification.

Three mode types occur on clique-chain graphs:

* clique modes: difference vectors on non-junction clique vertices,
  eigenvalue p, exactly zero outside the clique;
* edge modes: constant plateau on the clique, geometric decay (rate
  sigma+) along each chain, eigenvalue in (p, p+2];
* chain modes: oscillatory on the chain, eigenvalue in [0, 4], plateau
  amplitude suppressed by the factor 1/(1-lam) at the junction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bounds as _bounds
from .characteristic import EdgeFamily, _sector_block, find_chain_roots, find_edge_roots
from .graphs import GraphSpec, laplacian, pendant_laplacian_times
from .jacobi import Spectrum, eig_sym
from .transfer import sigma_pair

__all__ = [
    "EdgeMode",
    "CliqueCount",
    "LabeledValue",
    "SpectralClassification",
    "clique_modes",
    "edge_mode",
    "chain_mode",
    "junction_ratio",
    "classify_spectrum",
]

_ROOT_CHECK_TOL = 1e-6
MATCH_TOL = 1e-8
NEAR_DEGENERATE_GAP = 0.05


def clique_modes(g: GraphSpec) -> list[np.ndarray]:
    """Eigenvectors supported on non-junction clique vertices (eigenvalue p).

    For each clique the returned vectors are differences e_r - e_k between
    a reference non-junction vertex and every other one, which satisfy
    L v = p v exactly in integer arithmetic.  A clique attached to j
    distinct junction vertices contributes (p - j - 1) vectors.
    """
    out: list[np.ndarray] = []
    for cid in g.clique_ids():
        free = [i for i in g.clique_vertices(cid) if g.roles[i].kind == "clique"]
        if len(free) <= 1:
            continue
        ref = free[-1]
        for k in free[:-1]:
            v = np.zeros(g.n)
            v[ref] = 1.0
            v[k] = -1.0
            out.append(v)
    return out


@dataclass(frozen=True)
class EdgeMode:
    """A localized edge eigenvector in plateau/junction/decay coordinates."""

    lam: float
    family: EdgeFamily
    C0: float                   # clique plateau value
    C1: float                   # junction value (right junction if two chains)
    C_minus1: Optional[float]   # left junction value (two-chain families)
    a: float                    # decaying-mode amplitude, right/only chain
    b: float                    # growing-mode amplitude (b/a = sigma+^(2q-1))
    a_left: Optional[float] = None
    b_left: Optional[float] = None
    sigma_plus: float = 0.0
    symmetry: Optional[str] = None  # 'symmetric' | 'antisymmetric' | None
    profile: Optional[np.ndarray] = None

    def chain_value(self, n: int) -> float:
        """Value at chain site n (right/only chain), site 0 = junction."""
        return self.a * self.sigma_plus**n + self.b * self.sigma_plus ** (-n)


def _finite_chain_coeffs(junction: float, sp: float, q: int) -> tuple[float, float]:
    # both end conditions hold exactly when b/a = sigma+^(2q-1); the junction
    # value then fixes a (solving (a, b) from the ill-conditioned 2x2 instead
    # would amplify the unavoidable root error by sigma-^(q-2))
    ratio = sp ** (2 * q - 1)
    a = junction / (1.0 + ratio)
    return a, a * ratio


def _profile_residual(lam: float, prof: np.ndarray, q1: int, p: int, q2: int) -> float:
    """``jacobi.residual`` of ``prof`` on K_p with pendant chains of q1-1
    and q2-1 vertices (q1 = 1: one chain), from the O(n) product."""
    lv = pendant_laplacian_times(prof, q1, p, q2)
    return float(np.max(np.abs(lv - lam * prof))) / float(np.max(np.abs(prof)))


def _chain_values(a: float, b: float, sp: float, q: int) -> np.ndarray:
    ns = np.arange(1, q)
    return a * sp**ns + b * sp ** (-ns)


def _chain_tail(junction: float, sp: float, q: Optional[int], truncation: Optional[int]):
    """(a, b, values at chain sites 1, 2, ...) of a chain leaving ``junction``.

    A finite chain carries both end conditions (``_finite_chain_coeffs``);
    an infinite one decays with b = 0, and its first ``truncation`` sites
    are listed (None when ``truncation`` is None).
    """
    if q is not None:
        a, b = _finite_chain_coeffs(junction, sp, q)
        return a, b, _chain_values(a, b, sp, q)
    tail = None if truncation is None else junction * sp ** np.arange(1, truncation + 1)
    return junction, 0.0, tail


def edge_mode(
    family: EdgeFamily,
    lam: float,
    truncation: Optional[int] = None,
    check_tol: float = _ROOT_CHECK_TOL,
) -> EdgeMode:
    """Reconstruct the edge eigenvector for a verified root ``lam``.

    Junction values, left to right: 1 for one chain, (sector, 1) in a
    sector, otherwise the null vector of the plateau/junction block with
    C1 = 1.  The plateau row then fixes C0 = (sum of junction values)/(j - lam)
    for j junctions: 1/(1-lam) for one chain, 2/(2-lam) for the symmetric
    mode, 0 for the antisymmetric one.  Families whose chains are all finite
    carry the full profile; an infinite chain's tail is listed only up to
    ``truncation`` sites.  Raises ValueError when ``lam`` is not a root,
    i.e. when the block leaves a junction residual above ``check_tol``.
    """
    p, chains, j = family.p, family.chains, len(family.chains)
    sp = sigma_pair(lam).sigma_plus
    block = np.array(_sector_block(EdgeFamily(p, chains), lam))
    if j == 1:
        junctions = (1.0,)
    elif family.sector:
        junctions = (float(family.sector), 1.0)
    else:  # the largest cross product of two block rows spans its null space
        cross = np.cross(block[[0, 0, 1]], block[[1, 2, 2]])
        _, c_m1, c1 = cross[int(np.argmax(np.sum(np.abs(cross), axis=1)))]
        scale = c1 if abs(c1) > 1e-9 * abs(c_m1) else c_m1
        junctions = (float(c_m1 / scale), float(c1 / scale))
    c0 = sum(junctions) / (j - lam) + 0.0  # + 0.0: the antisymmetric -0.0 is 0
    coords = np.array((c0, *junctions))
    res = float(np.max(np.abs(block @ coords)) / np.max(np.abs(coords)))
    if res > check_tol:
        raise ValueError(
            f"lam={lam} is not an edge eigenvalue of {family.describe()} "
            f"(junction residual {res:.3e})"
        )

    tails = [_chain_tail(c, sp, q, truncation) for c, q in zip(junctions, chains)]
    prof = None
    if all(t[2] is not None for t in tails):
        parts = [np.full(p - j, c0), [junctions[-1]], tails[-1][2]]
        if j == 2:  # graph order: the left chain's free end first
            parts = [tails[0][2][::-1], [junctions[0]]] + parts
        prof = np.concatenate(parts)
    symmetry = None
    if j == 2 and chains[0] == chains[1]:
        c_m1, c1 = junctions
        if abs(c1 + c_m1) <= 1e-6 * abs(c1 - c_m1):
            symmetry = "antisymmetric"
        elif abs(c1 - c_m1) <= 1e-6 * abs(c1 + c_m1):
            symmetry = "symmetric"
    a_left, b_left, _ = tails[0] if j == 2 else (None, None, None)
    return EdgeMode(
        lam=lam, family=family, C0=c0, C1=junctions[-1],
        C_minus1=junctions[0] if j == 2 else None, a=tails[-1][0], b=tails[-1][1],
        a_left=a_left, b_left=b_left, sigma_plus=sp, symmetry=symmetry, profile=prof,
    )


def chain_mode(p: int, q: int, lam: float, check_tol: float = _ROOT_CHECK_TOL) -> np.ndarray:
    """Oscillatory eigenvector of the single-chain graph for a verified
    chain eigenvalue lam in (0, 4).

    Plateau normalized to 1; junction value is (1 - lam); the chain section
    follows the three-term recurrence.
    """
    if not 0.0 < lam < 4.0:
        raise ValueError(f"chain eigenvalues lie in (0, 4), got lam={lam}")
    v0 = 1.0 - lam
    v1 = (p - lam) * (1.0 - lam) - (p - 1.0)
    chain = np.empty(q - 1)
    chain[0] = v1
    prev, cur = v0, v1
    for k in range(1, q - 1):
        prev, cur = cur, (2.0 - lam) * cur - prev
        chain[k] = cur
    prof = np.concatenate([np.ones(p - 1), [v0], chain])
    res = _profile_residual(lam, prof, 1, p, q)
    if res > check_tol:
        raise ValueError(
            f"lam={lam} is not a chain eigenvalue of (p={p}, q={q}) "
            f"(profile residual {res:.3e})"
        )
    return prof


def junction_ratio(lam: float) -> float:
    """Plateau-to-junction amplitude ratio 1/(1-lam) of a chain mode.

    Undefined at lam = 1, where the mode vanishes at the junction; raises
    ValueError there.
    """
    if lam == 1.0:
        raise ValueError("the junction-silent chain mode (lam = 1) has no junction ratio")
    return 1.0 / (1.0 - lam)


@dataclass(frozen=True)
class CliqueCount:
    clique_id: str
    value: float           # the clique eigenvalue p
    oracle_multiplicity: int
    constructed: int       # number of explicitly constructed clique modes
    formula_prediction: Optional[int] = None  # p - d - 2 network counting rule


@dataclass(frozen=True)
class LabeledValue:
    value: float
    label: str  # 'edge' | 'edge_symmetric' | 'edge_antisymmetric'
    analytic: Optional[float] = None  # matching characteristic-equation root
    clique_id: Optional[str] = None


@dataclass(frozen=True)
class SpectralClassification:
    """Oracle spectrum with every eigenvalue labeled and cross-checked."""

    n: int
    params: dict
    oracle: Spectrum
    clique_counts: tuple[CliqueCount, ...]
    edge_values: tuple[LabeledValue, ...]
    chain_values: tuple[float, ...]
    zero_mode: bool
    embedded: tuple[str, ...]
    near_degenerate: tuple[tuple[float, float, float], ...]  # (v1, v2, gap)
    weyl: Optional["_bounds.WeylBounds"]
    anomalies: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def total_labeled(self) -> int:
        return (
            sum(c.oracle_multiplicity for c in self.clique_counts)
            + len(self.edge_values)
            + len(self.chain_values)
            + (1 if self.zero_mode else 0)
        )


def classify_spectrum(g: GraphSpec, tol: float = MATCH_TOL) -> SpectralClassification:
    """Merge the dense-oracle spectrum with the analytic predictions.

    Every oracle eigenvalue receives exactly one label (clique / edge /
    chain / zero); analytic-versus-oracle disagreements are reported in
    ``anomalies`` rather than repaired.
    """
    L = laplacian(g)
    oracle = eig_sym(L)
    evals = oracle.eigenvalues
    n = g.n
    taken = np.zeros(n, dtype=bool)
    anomalies: list[str] = []
    warnings: list[str] = []
    embedded: list[str] = []

    # zero mode: exactly one for a connected graph
    zero_idx = int(np.argmin(np.abs(evals)))
    zero_mode = abs(evals[zero_idx]) <= tol
    if zero_mode:
        taken[zero_idx] = True
    else:
        anomalies.append(f"no zero eigenvalue found (closest {evals[zero_idx]:.3e})")

    # clique eigenvalues
    modes_by_clique: dict[str, int] = {}
    for cid in g.clique_ids():
        free = [i for i in g.clique_vertices(cid) if g.roles[i].kind == "clique"]
        modes_by_clique[cid] = max(len(free) - 1, 0)
    clique_counts = []
    fam_tag = g.params.get("family")
    degrees = g.params.get("degrees", {})
    distinct = g.params.get("distinct_attachments", {})
    chain_rep = (
        find_chain_roots(g.params["p"], g.params["q"]) if fam_tag == "single_chain" else None
    )
    for cid in g.clique_ids():
        p_i = len(g.clique_vertices(cid))
        sel = np.where(~taken & (np.abs(evals - p_i) <= tol))[0]
        if chain_rep is not None:
            # a chain eigenvalue equal to p (p = 3, q = 1 mod 3) keeps one copy
            shared = sum(abs(r - p_i) <= tol for r in chain_rep.roots)
            sel = sel[: max(len(sel) - shared, 0)]
        taken[sel] = True
        mult = len(sel)
        constructed = modes_by_clique[cid]
        formula = None
        if fam_tag == "network" and distinct.get(cid, False):
            formula = p_i - degrees.get(cid, 0) - 2
        clique_counts.append(
            CliqueCount(
                clique_id=cid,
                value=float(p_i),
                oracle_multiplicity=mult,
                constructed=constructed,
                formula_prediction=formula,
            )
        )
        if mult != constructed:
            anomalies.append(
                f"clique {cid!r}: oracle multiplicity {mult} at eigenvalue {p_i} "
                f"differs from the {constructed} constructed modes"
            )
        if formula is not None and formula != mult:
            warnings.append(
                f"clique {cid!r}: counting rule p-d-2 predicts {formula} "
                f"clique modes, oracle has {mult}"
            )
        if p_i <= 4 and mult > 0:
            embedded.append(
                f"clique {cid!r}: eigenvalue {p_i} of multiplicity {mult} lies "
                f"{'inside' if p_i < 4 else 'on the boundary of'} the chain band [0, 4]"
            )

    # edge eigenvalues per family
    edge_values: list[LabeledValue] = []
    weyl = None
    if fam_tag == "single_chain":
        p, q = g.params["p"], g.params["q"]
        rep = find_edge_roots(EdgeFamily(p, (q,)))
        anomalies.extend(rep.anomalies)
        warnings.extend(rep.warnings)
        edge_values.extend(_match_edges(evals, taken, rep.roots, ["edge"], tol, anomalies, "K"))
        weyl = _bounds.weyl_one(p, q, strict=False)
    elif fam_tag == "two_chain":
        p, q1, q2 = g.params["p"], g.params["q1"], g.params["q2"]
        rep = find_edge_roots(EdgeFamily(p, (q1, q2)))
        anomalies.extend(rep.anomalies)
        warnings.extend(rep.warnings)
        if q1 == q2:
            rep_s = find_edge_roots(EdgeFamily(p, (q1, q1), 1))
            rep_a = find_edge_roots(EdgeFamily(p, (q1, q1), -1))
            labels = []
            for r in rep.roots:
                if rep_a.roots and min(abs(r - x) for x in rep_a.roots) <= tol:
                    labels.append("edge_antisymmetric")
                elif rep_s.roots and min(abs(r - x) for x in rep_s.roots) <= tol:
                    labels.append("edge_symmetric")
                else:
                    labels.append("edge")
        else:
            labels = ["edge"] * len(rep.roots)
        edge_values.extend(_match_edges(evals, taken, rep.roots, labels, tol, anomalies, "K"))
        weyl = _bounds.weyl_two(q1, p, q2, strict=False)
    elif fam_tag == "network":
        links = g.params.get("links", [])
        for cid in g.clique_ids():
            p_i = len(g.clique_vertices(cid))
            lo = max(float(p_i), 4.0)  # below p=5 the edge window meets the band
            sel = np.where(~taken & (evals > lo + tol) & (evals < p_i + 2.0 - tol))[0]
            taken[sel] = True
            for k in sel:
                edge_values.append(
                    LabeledValue(value=float(evals[k]), label="edge", clique_id=cid)
                )
            d_i = degrees.get(cid, 0)
            in_hyp = p_i >= 5 and all(
                ln[3] > 3
                for ln in links
                if ln[0] == cid or (isinstance(ln[2], tuple) and ln[2][0] == cid)
            )
            if len(sel) != d_i:
                msg = (
                    f"clique {cid!r}: {len(sel)} edge eigenvalues in (p, p+2), "
                    f"conjectured count is d={d_i}"
                )
                if in_hyp:
                    anomalies.append(msg)
                else:
                    warnings.append(msg + " (outside the conjecture hypotheses)")
    if weyl is not None:
        warnings.extend(weyl.outside_hypotheses)
        # outside the lemma hypotheses the intervals are only indicative
        sink = warnings if weyl.outside_hypotheses else anomalies
        for viol in weyl.check(evals):
            sink.append(f"eigenvalue bound violated: {viol}")

    # chain eigenvalues: anything that remains must lie in the band [0, 4]
    chain_values: list[float] = []
    for k in np.where(~taken)[0]:
        v = float(evals[k])
        if -tol <= v <= 4.0 + tol:
            chain_values.append(v)
            taken[k] = True
        else:
            anomalies.append(f"eigenvalue {v:.12g} could not be classified")
            taken[k] = True
    if chain_rep is not None:
        anomalies.extend(chain_rep.anomalies)
        if any(abs(r - 1.0) <= tol for r in chain_rep.roots):
            warnings.append(
                "chain eigenvalue 1.0 has a junction-silent eigenvector and "
                "sits on a pole of the phase form (q = 2 mod 3)"
            )
        for v, r in _match_values(sorted(chain_values), chain_rep.roots, tol):
            if r is None:
                anomalies.append(
                    f"chain eigenvalue {v:.12g} has no matching phase-form zero"
                )

    # near-degenerate localized values (several chains of similar length
    # produce nearly equal antisymmetric combinations)
    near = []
    ev_sorted = sorted(edge_values, key=lambda e: e.value)
    for a, b in zip(ev_sorted, ev_sorted[1:]):
        gap = b.value - a.value
        if gap < NEAR_DEGENERATE_GAP:
            near.append((a.value, b.value, gap))
            warnings.append(
                f"near-degenerate edge eigenvalues {a.value:.9g} and "
                f"{b.value:.9g} (gap {gap:.3e})"
            )

    return SpectralClassification(
        n=n,
        params=dict(g.params),
        oracle=oracle,
        clique_counts=tuple(clique_counts),
        edge_values=tuple(edge_values),
        chain_values=tuple(sorted(chain_values)),
        zero_mode=zero_mode,
        embedded=tuple(embedded),
        near_degenerate=tuple(near),
        weyl=weyl,
        anomalies=tuple(anomalies),
        warnings=tuple(warnings),
    )


def _match_edges(evals, taken, roots, labels, tol, anomalies, clique_id):
    out = []
    for r, lab in zip(sorted(roots), labels if len(labels) == len(roots) else ["edge"] * len(roots)):
        cand = np.where(~taken)[0]
        if cand.size == 0:
            anomalies.append(f"edge root {r:.12g} has no oracle eigenvalue left to match")
            continue
        k = cand[int(np.argmin(np.abs(evals[cand] - r)))]
        if abs(evals[k] - r) > tol:
            anomalies.append(
                f"edge root {r:.12g} does not match any oracle eigenvalue "
                f"(closest {evals[k]:.12g})"
            )
            continue
        taken[k] = True
        out.append(
            LabeledValue(value=float(evals[k]), label=lab, analytic=float(r), clique_id=clique_id)
        )
    return out


def _match_values(values, roots, tol):
    """Greedy one-to-one matching of sorted value/root lists."""
    roots_left = list(roots)
    out = []
    for v in values:
        best = None
        if roots_left:
            best = min(roots_left, key=lambda r: abs(r - v))
            if abs(best - v) > tol:
                best = None
        if best is not None:
            roots_left.remove(best)
        out.append((v, best))
    return out
