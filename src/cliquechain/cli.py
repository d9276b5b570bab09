"""Command-line front end: spectra, table reproduction, parameter sweeps,
bounds, and mode profiles, with deterministic JSON/CSV reports.

Exit codes: 0 success, 1 usage error, 2 at least one anomaly (an
analytic-versus-oracle mismatch or a violated bound).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import reference
from .bounds import asymptotic_edge, weyl_one, weyl_two
from .characteristic import (
    EdgeFamily,
    count_sign_changes_below_band,
    find_chain_roots,
    find_edge_roots,
)
from .graphs import (
    GraphSpec,
    build_network,
    build_single_chain,
    build_two_chain,
    laplacian,
    network_from_json,
)
from .jacobi import eig_sym, residual
from .modes import (
    chain_mode,
    classify_spectrum,
    clique_modes,
    edge_mode,
    junction_ratio,
)
from .transfer import sigma_pair

_FLOAT_FMT = ".12g"


# --------------------------------------------------------------------------
# deterministic serialization


def _canon(obj):
    """Make a payload JSON-ready with floats at 12 significant digits."""
    if isinstance(obj, dict):
        return {str(k): _canon(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [_canon(x) for x in obj]
    if isinstance(obj, np.ndarray):
        return [_canon(x) for x in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if x == 0.0:
            x = 0.0  # normalize -0.0
        return float(format(x, _FLOAT_FMT))
    return obj


def render_json(report: dict) -> str:
    return json.dumps(_canon(report), indent=2, sort_keys=True) + "\n"


def render_csv(report: dict) -> str:
    """Lossy flat projection: one key,value row per scalar payload leaf."""
    buf = io.StringIO()
    buf.write("key,value\n")

    def walk(prefix, obj):
        obj = _canon(obj)
        if isinstance(obj, dict):
            for k, v in obj.items():
                walk(f"{prefix}.{k}" if prefix else k, v)
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                walk(f"{prefix}[{i}]", v)
        else:
            val = "" if obj is None else obj
            buf.write(f"{prefix},{val}\n")

    walk("", report)
    return buf.getvalue()


def input_hash(params: dict) -> str:
    blob = json.dumps(_canon(params), sort_keys=True).encode()
    return hashlib.sha1(b"blob %d\0" % len(blob) + blob).hexdigest()


@dataclass
class RunReport:
    command: str
    parameters: dict
    payload: dict
    anomalies: list = field(default_factory=list)  # {kind, severity, message}
    timings: dict = field(default_factory=dict)  # not serialized: kept
    # out of the canonical report so identical runs stay byte-identical

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "input_hash": input_hash({"command": self.command, **self.parameters}),
            "payload": self.payload,
            "anomalies": self.anomalies,
        }

    @property
    def exit_code(self) -> int:
        return 2 if any(a.get("severity") == "error" for a in self.anomalies) else 0


def _emit(report: RunReport, args) -> int:
    text = (
        render_csv(report.to_dict())
        if args.format == "csv"
        else render_json(report.to_dict())
    )
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if report.timings:
        print(
            "timings: "
            + ", ".join(f"{k}={v:.3f}s" for k, v in report.timings.items()),
            file=sys.stderr,
        )
    return report.exit_code


def _anomaly(kind: str, message: str, severity: str = "error") -> dict:
    return {"kind": kind, "severity": severity, "message": message}


# --------------------------------------------------------------------------
# spectrum


def _build_graph(args) -> GraphSpec:
    if args.network:
        doc = Path(args.network).read_text()
        return build_network(network_from_json(doc))
    if args.q1 is not None or args.q2 is not None:
        if args.q1 is None or args.q2 is None or args.p is None:
            raise SystemExit2("--q1 and --q2 must be given together with --p")
        return build_two_chain(args.q1, args.p, args.q2)
    if args.p is None or args.q is None:
        raise SystemExit2("specify --p and --q, or --q1 --p --q2, or --network FILE")
    return build_single_chain(args.p, args.q)


class SystemExit2(Exception):
    """Usage error carrying the message (mapped to exit code 1)."""


def cmd_spectrum(args) -> int:
    t0 = time.perf_counter()
    if args.tol is not None and not args.tol > 0:
        raise SystemExit2(f"--tol must be positive, got {args.tol}")
    g = _build_graph(args)
    cls = classify_spectrum(g, tol=1e-8 if args.tol is None else args.tol)
    payload = {
        "n": cls.n,
        "family": cls.params,
        "eigenvalues": list(cls.oracle.eigenvalues),
        "groups": [
            {"value": gr.value, "multiplicity": gr.multiplicity}
            for gr in cls.oracle.groups
        ],
        "clique": [
            {
                "id": c.clique_id,
                "value": c.value,
                "oracle_multiplicity": c.oracle_multiplicity,
                "constructed_modes": c.constructed,
                "counting_rule_p_d_2": c.formula_prediction,
            }
            for c in cls.clique_counts
        ],
        "edge": [
            {"value": e.value, "label": e.label, "analytic_root": e.analytic}
            for e in cls.edge_values
        ],
        "chain": list(cls.chain_values),
        "zero_mode": cls.zero_mode,
        "embedded": list(cls.embedded),
        "near_degenerate": [
            {"value_1": a, "value_2": b, "gap": gap}
            for a, b, gap in cls.near_degenerate
        ],
        "warnings": list(cls.warnings),
    }
    anomalies = [_anomaly("mismatch", m) for m in cls.anomalies]
    anomalies += [
        _anomaly("warning", m, severity="warning")
        for m in list(cls.embedded) + list(cls.warnings)
    ]
    rep = RunReport(
        command="spectrum",
        parameters=_params_of(args),
        payload=payload,
        anomalies=anomalies,
        timings={"total": time.perf_counter() - t0},
    )
    return _emit(rep, args)


def _params_of(args) -> dict:
    out = {}  # execution flags such as --jobs stay out: they must not change the hash
    for k in ("p", "q", "q1", "q2", "network", "table", "family", "tol"):
        v = getattr(args, k, None)
        if v is not None:
            out[k] = v
    for k in ("p_range", "q_range", "fit_decay"):
        v = getattr(args, k, None)
        if v:
            out[k] = v
    return out


# --------------------------------------------------------------------------
# reproduce


def _row(quantity, computed, published, tol):
    diff = abs(computed - published) if computed is not None else None
    return {
        "quantity": quantity,
        "computed": computed,
        "published": published,
        "abs_diff": diff,
        "tol": tol,
        "ok": (diff <= tol) if (diff is not None and tol is not None) else None,
    }


def _write_band_samples(path: str, p: int, q: int, n: int = 1200) -> None:
    """Two-column CSV of the phase-form samples on (0, 4), for plotting."""
    from .characteristic import f_one_fin_phase

    lams = np.linspace(4.0 / (n + 1), 4.0 * n / (n + 1), n)
    vals = f_one_fin_phase(lams, p, q)
    with open(path, "w") as fh:
        fh.write("lambda,F_q\n")
        for x, v in zip(lams, vals):
            val = "" if np.isnan(v) else format(float(v), _FLOAT_FMT)
            fh.write(f"{format(float(x), _FLOAT_FMT)},{val}\n")


def cmd_reproduce(args) -> int:
    t0 = time.perf_counter()
    rows = []
    if args.table == 1:
        g = build_single_chain(reference.TABLE1_P, reference.TABLE1_Q)
        spec = eig_sym(laplacian(g))
        for k, (comp, pub) in enumerate(
            zip(spec.eigenvalues, reference.TABLE1_EIGENVALUES), start=1
        ):
            rows.append(_row(f"lambda_{k}", float(comp), pub, reference.TABLE1_TOL))
    elif args.table == 2:
        p, q = reference.TABLE1_P, reference.TABLE1_Q
        root = find_edge_roots(EdgeFamily.one_chain_finite(p, q)).roots[0]
        sp = sigma_pair(root).sigma_plus
        pub = reference.TABLE2_NUMERICAL
        tol = reference.TABLE2_TOL
        rows.append(_row("lambda", root, pub["lambda"], tol))
        rows.append(_row("sigma_plus", sp, pub["sigma_plus"], tol))
        rows.append(_row("C0", 1.0 / (1.0 - root), pub["C0"], tol))
        est = asymptotic_edge("one_chain", p)
        pub = reference.TABLE2_THEORY
        # the published leading-order lambda carries an unstated correction;
        # reported for reference, not gated
        rows.append(_row("theory_lambda", est.lambda_hat, pub["lambda"], None))
        rows.append(_row("theory_sigma_plus", est.sigma_hat, pub["sigma_plus"], tol))
        rows.append(_row("theory_C0", est.c0_hat, pub["C0"], tol))
    elif args.table == 3:
        p, q = reference.TABLE1_P, reference.TABLE1_Q
        roots = find_chain_roots(p, q).roots
        for k, (comp, pub) in enumerate(zip(roots, reference.TABLE3_ZEROS), start=1):
            rows.append(_row(f"zero_{k}", comp, pub, reference.TABLE3_ZERO_TOL))
        for k, (comp, pub) in enumerate(
            zip((junction_ratio(r) for r in roots), reference.TABLE3_RATIOS), start=1
        ):
            rows.append(_row(f"ratio_{k}", comp, pub, reference.TABLE3_RATIO_TOL))
        if args.plot_data:
            _write_band_samples(args.plot_data, p, q)
    else:
        raise SystemExit2(f"--table must be 1, 2 or 3, got {args.table}")

    anomalies = [
        _anomaly("reproduction", f"{r['quantity']}: |diff| {r['abs_diff']} > {r['tol']}")
        for r in rows
        if r["ok"] is False
    ]
    rep = RunReport(
        command="reproduce",
        parameters={"table": args.table},
        payload={"rows": rows, "reference_version": reference.REFERENCE_VERSION},
        anomalies=anomalies,
        timings={"total": time.perf_counter() - t0},
    )
    return _emit(rep, args)


# --------------------------------------------------------------------------
# sweep


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def _sweep_one_finite(p: int, q: int) -> dict:
    fam = EdgeFamily.one_chain_finite(p, q)
    rep = find_edge_roots(fam)
    g = build_single_chain(p, q)
    spec = eig_sym(laplacian(g))
    root = rep.roots[0] if rep.roots else None
    diff = abs(root - spec.eigenvalues[0]) if root is not None else None
    wb = weyl_one(p, q, strict=False)
    violations = [] if wb.outside_hypotheses else wb.check(spec.eigenvalues)
    margins = wb.margins(spec.eigenvalues)
    row = {
        "p": p,
        "q": q,
        "analytic_root": root,
        "oracle_lambda1": float(spec.eigenvalues[0]),
        "abs_diff": diff,
        "root_count": len(rep.roots),
        "root_count_expected": rep.expected_count,
        "sign_changes_below_band": count_sign_changes_below_band(fam),
        "weyl_min_margin": min(margins) if not wb.outside_hypotheses else None,
        "weyl_violations": len(violations),
        "anomalous": bool(
            rep.anomalies or violations or diff is None or diff > 1e-9
        ),
    }
    return row


def _sweep_two_finite_equal(p: int, q: int) -> dict:
    fam = EdgeFamily.two_chain_finite(q, p, q)
    rep = find_edge_roots(fam)
    rep_s = find_edge_roots(EdgeFamily.two_chain_finite_sym(p, q))
    rep_a = find_edge_roots(EdgeFamily.two_chain_finite_anti(p, q))
    g = build_two_chain(q, p, q)
    spec = eig_sym(laplacian(g))
    lam1, lam2 = float(spec.eigenvalues[0]), float(spec.eigenvalues[1])
    roots = sorted(rep.roots)
    diff = (
        max(abs(roots[-1] - lam1), abs(roots[0] - lam2)) if len(roots) == 2 else None
    )
    anti = rep_a.roots[0] if rep_a.roots else None
    sym = rep_s.roots[0] if rep_s.roots else None
    row = {
        "p": p,
        "q": q,
        "root_sym": sym,
        "root_anti": anti,
        "oracle_lambda1": lam1,
        "oracle_lambda2": lam2,
        "abs_diff": diff,
        "anti_above_sym": (anti > sym) if anti is not None and sym is not None else None,
        "root_count": len(rep.roots),
        "root_count_expected": rep.expected_count,
        "sign_changes_below_band": count_sign_changes_below_band(fam),
        "anomalous": bool(
            rep.anomalies
            or diff is None
            or diff > 1e-9
            or anti is None
            or sym is None
            or not anti > sym
        ),
    }
    return row


def _sweep_one_infinite(p: int) -> dict:
    fam = EdgeFamily.one_chain_infinite(p)
    rep = find_edge_roots(fam)
    root = rep.roots[0] if rep.roots else None
    row = {
        "p": p,
        "analytic_root": root,
        "deviation_from_p_plus_1": abs(root - (p + 1)) if root is not None else None,
        "sigma_plus": sigma_pair(root).sigma_plus if root is not None else None,
        "root_count": len(rep.roots),
        "root_count_expected": rep.expected_count,
        "sign_changes_below_band": count_sign_changes_below_band(fam),
        "anomalous": bool(rep.anomalies),
    }
    return row


_SWEEP_COLUMNS = {
    "one-finite": (
        "p,q,analytic_root,oracle_lambda1,abs_diff,root_count,"
        "root_count_expected,sign_changes_below_band,weyl_min_margin,"
        "weyl_violations,anomalous"
    ),
    "two-finite-equal": (
        "p,q,root_sym,root_anti,oracle_lambda1,oracle_lambda2,abs_diff,"
        "anti_above_sym,root_count,root_count_expected,"
        "sign_changes_below_band,anomalous"
    ),
    "one-infinite": (
        "p,analytic_root,deviation_from_p_plus_1,sigma_plus,root_count,"
        "root_count_expected,sign_changes_below_band,anomalous"
    ),
}


def cmd_sweep(args) -> int:
    t0 = time.perf_counter()
    ps = _parse_range(args.p_range)
    if args.family == "one-finite":
        qs = _parse_range(args.q_range or "4..8")
        tasks = [(p, q) for p in ps for q in qs]
        worker = lambda t: _sweep_one_finite(*t)
    elif args.family == "two-finite-equal":
        qs = _parse_range(args.q_range or "4..6")
        tasks = [(p, q) for p in ps for q in qs]
        worker = lambda t: _sweep_two_finite_equal(*t)
    elif args.family == "one-infinite":
        tasks = [(p,) for p in ps]
        worker = lambda t: _sweep_one_infinite(*t)
    else:
        raise SystemExit2(f"unknown sweep family {args.family!r}")

    jobs = max(1, args.jobs or 1)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            rows = list(ex.map(worker, tasks))
    else:
        rows = [worker(t) for t in tasks]
    rows.sort(key=lambda r: (r["p"], r.get("q", 0)))

    payload = {
        "family": args.family,
        "columns": _SWEEP_COLUMNS[args.family],
        "rows": rows,
    }
    if args.fit_decay and args.family == "one-infinite":
        ps_arr = np.array([r["p"] for r in rows], dtype=float)
        devs = np.array([r["deviation_from_p_plus_1"] for r in rows], dtype=float)
        mask = devs > 0
        a = np.vstack([np.ones(mask.sum()), -np.log(ps_arr[mask])]).T
        coeff, *_ = np.linalg.lstsq(a, np.log(devs[mask]), rcond=None)
        payload["decay_fit"] = {
            "bound_constant": float(np.max(ps_arr * devs)),  # C in err <= C/p
            "fitted_exponent": float(coeff[1]),
            "fitted_prefactor": float(np.exp(coeff[0])),
        }
    anomalies = [
        _anomaly("mismatch", f"row p={r['p']} q={r.get('q', '-')} anomalous")
        for r in rows
        if r["anomalous"]
    ]
    if args.fit_decay and args.family == "one-infinite":
        if payload["decay_fit"]["fitted_exponent"] < 0.8:
            anomalies.append(
                _anomaly(
                    "mismatch",
                    "edge eigenvalue approaches p+1 slower than ~1/p "
                    f"(fitted exponent {payload['decay_fit']['fitted_exponent']:.3f})",
                )
            )
    rep = RunReport(
        command="sweep",
        parameters=_params_of(args),
        payload=payload,
        anomalies=anomalies,
        timings={"total": time.perf_counter() - t0},
    )
    return _emit(rep, args)


# --------------------------------------------------------------------------
# bounds and modes


def cmd_bounds(args) -> int:
    t0 = time.perf_counter()
    if args.q1 is not None and args.q2 is not None:
        g = build_two_chain(args.q1, args.p, args.q2)
        wb = weyl_two(args.q1, args.p, args.q2, strict=False)
    else:
        if args.p is None or args.q is None:
            raise SystemExit2("specify --p and --q (or --q1/--q2)")
        g = build_single_chain(args.p, args.q)
        wb = weyl_one(args.p, args.q, strict=False)
    spec = eig_sym(laplacian(g))
    violations = wb.check(spec.eigenvalues)
    payload = {
        "entries": [
            {
                "j_lo": e.j_lo,
                "j_hi": e.j_hi,
                "lower": e.lower,
                "upper": e.upper,
                "lower_closed": e.lower_closed,
                "upper_closed": e.upper_closed,
                "note": e.note,
            }
            for e in wb.entries
        ],
        "eigenvalues": list(spec.eigenvalues),
        "margins": wb.margins(spec.eigenvalues),
        "violations": violations,
        "outside_hypotheses": list(wb.outside_hypotheses),
    }
    anomalies = [_anomaly("bound", v) for v in violations]
    if wb.outside_hypotheses:
        anomalies = [
            _anomaly("bound", v, severity="warning") for v in violations
        ] + [_anomaly("hypotheses", m, severity="warning") for m in wb.outside_hypotheses]
    rep = RunReport(
        command="bounds",
        parameters=_params_of(args),
        payload=payload,
        anomalies=anomalies,
        timings={"total": time.perf_counter() - t0},
    )
    return _emit(rep, args)


def cmd_modes(args) -> int:
    t0 = time.perf_counter()
    if args.p is None or args.q is None:
        raise SystemExit2("specify --p and --q")
    p, q = args.p, args.q
    g = build_single_chain(p, q)
    L = laplacian(g)
    cmodes = clique_modes(g)
    edge_rep = find_edge_roots(EdgeFamily.one_chain_finite(p, q))
    chain_rep = find_chain_roots(p, q)
    payload = {
        "clique_mode_count": len(cmodes),
        "clique_modes": [list(v) for v in cmodes],
        "edge_modes": [],
        "chain_modes": [],
    }
    for r in edge_rep.roots:
        m = edge_mode(EdgeFamily.one_chain_finite(p, q), r)
        payload["edge_modes"].append(
            {
                "lambda": r,
                "C0": m.C0,
                "sigma_plus": m.sigma_plus,
                "a": m.a,
                "b": m.b,
                "profile": list(m.profile),
                "residual": residual(L, r, m.profile),
            }
        )
    for r in chain_rep.roots:
        v = chain_mode(p, q, r)
        payload["chain_modes"].append(
            {
                "lambda": r,
                "junction_ratio": junction_ratio(r),
                "profile": list(v),
                "residual": residual(L, r, v),
            }
        )
    anomalies = [_anomaly("mismatch", m) for m in edge_rep.anomalies + chain_rep.anomalies]
    rep = RunReport(
        command="modes",
        parameters=_params_of(args),
        payload=payload,
        anomalies=anomalies,
        timings={"total": time.perf_counter() - t0},
    )
    return _emit(rep, args)


# --------------------------------------------------------------------------


def _add_common(sp) -> None:
    sp.add_argument("--out", help="write the report to this path instead of stdout")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--tol", type=float, default=None, help="matching tolerance")
    sp.add_argument("--jobs", type=int, default=1, help="concurrent sweep workers")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cliquechain",
        description="spectra of graphs made of cliques joined by chains",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="classify the full spectrum of one graph")
    sp.add_argument("--p", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument("--q1", type=int)
    sp.add_argument("--q2", type=int)
    sp.add_argument("--network", help="JSON network description file")
    _add_common(sp)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("reproduce", help="compare against published reference values")
    sp.add_argument("--table", type=int, required=True, choices=(1, 2, 3))
    sp.add_argument(
        "--plot-data",
        dest="plot_data",
        help="with --table 3: also write band samples (lambda, F_q) to this CSV",
    )
    _add_common(sp)
    sp.set_defaults(func=cmd_reproduce)

    sp = sub.add_parser("sweep", help="validate root counts/bounds over a grid")
    sp.add_argument(
        "--family",
        required=True,
        choices=("one-finite", "two-finite-equal", "one-infinite"),
    )
    sp.add_argument("--p", dest="p_range", required=True, help="e.g. 6..12 or 8")
    sp.add_argument("--q", dest="q_range", help="e.g. 4..8")
    sp.add_argument("--fit-decay", dest="fit_decay", action="store_true")
    _add_common(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("bounds", help="interval bounds vs the oracle spectrum")
    sp.add_argument("--p", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument("--q1", type=int)
    sp.add_argument("--q2", type=int)
    _add_common(sp)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("modes", help="explicit eigenvector profiles")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_modes)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; the contract here is 1
        return 1 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except SystemExit2 as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
