"""Independent correctness check of cliquechain reports.

Each yardstick Laplacian is built here from the generated parameters, not
through ``cliquechain.graphs``, and diagonalized with
``numpy.linalg.eigvalsh`` (LAPACK).  The program's own oracle is a
LAPACK-free Jacobi solver, so the two share no eigenvalue code.  Vertex
order follows the package's documented convention (clique vertices first,
the junction last among them, then the chain from the junction outward);
it matters only for the mode residuals.

``check`` returns the reasons an operation failed, empty when it passed:

* ``exception``  the command raised instead of returning an exit code;
* ``exit_<c>``   nonzero exit: 2 means the program flagged an anomaly
  itself, 1 a usage or input error;
* ``yardstick_mismatch``  a reported eigenvalue or root disagrees with the
  yardstick spectrum;
* ``residual``   a reported mode vector is not an eigenvector of the
  yardstick Laplacian.
"""

from __future__ import annotations

import json

import numpy as np

EIG_TOL = 1e-9  # relative to max(1, |lambda|); reports carry 12 digits
RES_TOL = 1e-7  # max-norm residual relative to max |v|
INFINITE_Q = 25  # chain parameter standing in for an infinite chain
TABLE_P, TABLE_Q = 6, 4  # the paper's tables use K6 with a 3-vertex chain


def _laplacian(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    e = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    a = np.zeros((n, n))
    a[e[:, 0], e[:, 1]] = 1.0
    a[e[:, 1], e[:, 0]] = 1.0
    if np.any(np.diag(a)) or a.sum() != 2 * len(edges):
        raise ValueError("yardstick graph has a loop or a repeated edge")
    return np.diag(a.sum(axis=1)) - a


def _clique(first: int, p: int) -> list[tuple[int, int]]:
    return [(first + i, first + j) for i in range(p) for j in range(i + 1, p)]


def _path(vertices: list[int]) -> list[tuple[int, int]]:
    return list(zip(vertices, vertices[1:]))


def laplacian_single(p: int, q: int) -> np.ndarray:
    """K_p (vertices 0..p-1, junction p-1) with a chain of q-1 vertices."""
    n = p + q - 1
    return _laplacian(n, _clique(0, p) + _path([p - 1] + list(range(p, n))))


def laplacian_two(q1: int, p: int, q2: int) -> np.ndarray:
    """K_p with chains of q1-1 and q2-1 vertices at two distinct vertices."""
    n = p + q1 + q2 - 2
    left = list(range(p, p + q1 - 1))
    right = list(range(p + q1 - 1, n))
    return _laplacian(n, _clique(0, p) + _path([0] + left) + _path([p - 1] + right))


def laplacian_network(doc: dict) -> np.ndarray:
    first, n = {}, 0
    for c in doc["cliques"]:
        first[c["id"]], n = n, n + c["p"]
    edges = [e for c in doc["cliques"] for e in _clique(first[c["id"]], c["p"])]
    for ln in doc["links"]:
        chain = list(range(n, n + ln["length"]))
        n += ln["length"]
        ends = [first[ln["from"]["clique"]] + ln["from"]["vertex"]] + chain
        if ln["to"] != "open":
            ends.append(first[ln["to"]["clique"]] + ln["to"]["vertex"])
        edges += _path(ends)
    return _laplacian(n, edges)


def laplacian_of(graph: tuple) -> np.ndarray:
    kind, *args = graph
    if kind == "single":
        return laplacian_single(*args)
    if kind == "two":
        return laplacian_two(*args)
    return laplacian_network(*args)


def spectrum(L: np.ndarray) -> np.ndarray:
    """Yardstick eigenvalues, descending like the program's reports."""
    return np.linalg.eigvalsh(L)[::-1]


# --------------------------------------------------------------------------


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= EIG_TOL * max(1.0, abs(b))


def _in_spectrum(x, evals: np.ndarray) -> bool:
    return x is not None and _close(x, float(evals[np.argmin(np.abs(evals - x))]))


def _same_spectrum(reported, evals: np.ndarray) -> bool:
    return len(reported) == len(evals) and all(_close(a, b) for a, b in zip(reported, evals))


def _residual(L: np.ndarray, lam: float, v) -> float:
    v = np.asarray(v, dtype=float)
    return float(np.max(np.abs(L @ v - lam * v)) / np.max(np.abs(v)))


def _check_spectrum(spec: dict, payload: dict) -> list[str]:
    evals = spectrum(laplacian_of(spec["graph"]))
    ok = _same_spectrum(payload["eigenvalues"], evals)
    if spec["cmd"] == "spectrum":
        ok = ok and all(
            _in_spectrum(e["analytic_root"], evals)
            for e in payload["edge"]
            if e["analytic_root"] is not None
        )
    return [] if ok else ["yardstick_mismatch"]


def _sigma_ok(lam: float, sigma: float) -> bool:
    # sigma+ is the root of modulus < 1 of s^2 - (2 - lam) s + 1
    return abs(sigma) < 1.0 and abs(sigma * sigma - (2.0 - lam) * sigma + 1.0) <= EIG_TOL * lam


def _check_sweep(spec: dict, payload: dict) -> list[str]:
    p0, p1 = spec["p"]
    ps = range(p0, p1 + 1)
    family = spec["family"]
    qs = range(spec["q"][0], spec["q"][1] + 1) if spec["q"] else [None]
    rows = payload["rows"]
    if [(r["p"], r.get("q")) for r in rows] != [(p, q) for p in ps for q in qs]:
        return ["yardstick_mismatch"]
    ok = True
    for r in rows:
        p, q = r["p"], r.get("q")
        if family == "one-finite":
            lam1 = spectrum(laplacian_single(p, q))[0]
            ok &= _close(r["oracle_lambda1"], lam1)
            ok &= r["analytic_root"] is None or _close(r["analytic_root"], lam1)
        elif family == "two-finite-equal":
            lam1, lam2 = spectrum(laplacian_two(q, p, q))[:2]
            ok &= _close(r["oracle_lambda1"], lam1) and _close(r["oracle_lambda2"], lam2)
            for root in (r["root_sym"], r["root_anti"]):
                ok &= root is None or _close(root, lam1) or _close(root, lam2)
        else:
            root = r["analytic_root"]
            if root is not None:
                ok &= _close(root, spectrum(laplacian_single(p, INFINITE_Q))[0])
                ok &= _sigma_ok(root, r["sigma_plus"])
    return [] if ok else ["yardstick_mismatch"]


def _check_modes(spec: dict, payload: dict) -> list[str]:
    p, q = spec["p"], spec["q"]
    L = laplacian_single(p, q)
    evals = spectrum(L)
    reasons = []
    modes = payload["edge_modes"] + payload["chain_modes"]
    if not all(_in_spectrum(m["lambda"], evals) for m in modes):
        reasons.append("yardstick_mismatch")
    res = [_residual(L, m["lambda"], m["profile"]) for m in modes]
    res += [m["residual"] for m in modes]
    res += [_residual(L, float(p), v) for v in payload["clique_modes"]]
    if payload["clique_mode_count"] != len(payload["clique_modes"]) or any(
        not r <= RES_TOL for r in res
    ):
        reasons.append("residual")
    return reasons


def _check_reproduce(spec: dict, payload: dict) -> list[str]:
    evals = spectrum(laplacian_single(TABLE_P, TABLE_Q))
    rows = {r["quantity"]: r["computed"] for r in payload["rows"]}
    if spec["table"] == 1:
        ok = _same_spectrum([rows[f"lambda_{k}"] for k in range(1, len(evals) + 1)], evals)
    elif spec["table"] == 2:
        lam = rows["lambda"]
        ok = _close(lam, evals[0]) and _sigma_ok(lam, rows["sigma_plus"])
        ok = ok and _close(rows["C0"], 1.0 / (1.0 - lam))
    else:
        band = sorted(x for x in evals if 1e-9 < x < 4.0)
        zeros = [rows[f"zero_{k}"] for k in range(1, len(band) + 1)]
        ok = all(_close(z, x) for z, x in zip(zeros, band))
        ok = ok and all(
            _close(rows[f"ratio_{k}"], 1.0 / (1.0 - z)) for k, z in enumerate(zeros, start=1)
        )
    return [] if ok else ["yardstick_mismatch"]


_CHECKS = {
    "spectrum": _check_spectrum,
    "bounds": _check_spectrum,
    "sweep": _check_sweep,
    "modes": _check_modes,
    "reproduce": _check_reproduce,
}


def check(spec: dict, exit_code, text: str) -> list[str]:
    """Failure reasons for one operation; ``exit_code`` is None if it raised."""
    if exit_code is None:
        return ["exception"]
    reasons = [] if exit_code == 0 else [f"exit_{exit_code}"]
    if not text:
        return reasons or ["yardstick_mismatch"]  # exit 0 but no report
    report = json.loads(text)
    try:
        reasons += _CHECKS[spec["cmd"]](spec, report["payload"])
    except (KeyError, TypeError, ValueError, IndexError):
        reasons.append("yardstick_mismatch")  # report lacks what it must hold
    return reasons
