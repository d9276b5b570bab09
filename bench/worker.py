"""Run one workload in this process and print its figures as one JSON line.

One client drives ``cliquechain.cli.main(argv)`` in-process, on one
thread, as a closed loop: the next command starts when the previous one
has returned.  The timed region of an operation is the ``main`` call
alone; writing input files and checking the report against the yardstick
happen between operations, outside it.  Whole cycles of the workload run
until the timed regions add up to the time budget and at least
``MIN_OPS`` operations have run, so that ten lie beyond the 90th
percentile.

Untraced (``--trace 0``) the loop gives the end-to-end figures.  Traced
(``--trace 1``) it runs untraced for half the budget, then replays the
same cycles with spans around every layer call; the per-layer figures come
from those spans, and the difference in wall time between the two passes
is the tracing overhead.  Both passes must write byte-identical reports.

Before the loop, untimed, the worker runs the fixed known-defect
operations of ``workloads.known_defects`` and reports their failure
reasons apart from the loop's ``attempted`` and ``failed``.

Started by ``run.py``, which measures this process's peak memory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from cliquechain import cli

import spans
import workloads
import yardstick

MIN_OPS = 100


@dataclass
class Outcome:
    seconds: float
    digest: str
    report_bytes: int
    reasons: list


def _call(argv, tracer, op_id):
    """Run one command; returns (exit code or None if it raised, seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            if tracer is None:
                code = cli.main(list(argv))
            else:
                code = tracer.run(op_id, lambda: cli.main(list(argv)))
        except Exception:  # a crash is a failed operation, not a crashed benchmark
            code = None
            failure = traceback.format_exc(limit=3)
        dt = perf_counter() - t0
    if code is None:
        print(f"{' '.join(argv)} raised:\n{failure}", file=sys.stderr)
    return code, dt, out.getvalue()


def run_known_defects(workdir) -> dict:
    """Failure reasons of the fixed known-defect operations, untimed."""
    probes = workloads.known_defects()
    reasons = {}
    for name, op in zip(probes, workloads.write_files(list(probes.values()), workdir)):
        code, _, text = _call(op.argv, None, -1)
        reasons[name] = yardstick.check(op.spec, code, text)
    return reasons


def run_cycles(workload, seed, workdir, budget_s=0.0, min_ops=0, n_cycles=None, tracer=None, layer=None):
    """Run whole cycles until ``budget_s`` of timed work and ``min_ops``
    operations, or exactly ``n_cycles`` cycles."""
    outcomes: list[Outcome] = []
    spent, index = 0.0, 0

    def more() -> bool:
        if n_cycles is not None:
            return index < n_cycles
        return spent < budget_s or len(outcomes) < min_ops

    while more():
        for op in workloads.write_files(workloads.cycle(workload, seed, index), workdir):
            code, dt, text = _call(op.argv, tracer, len(outcomes))
            if layer is not None:
                layer.observe(tracer)
            outcomes.append(
                Outcome(
                    dt,
                    hashlib.sha1(text.encode()).hexdigest(),
                    len(text.encode()),
                    yardstick.check(op.spec, code, text),
                )
            )
            spent += dt
        index += 1
    return outcomes, index


class LayerCounters:
    """Counters taken from the arguments and results of observed spans."""

    def __init__(self) -> None:
        self.eig_max_n = 0
        self.eig_max_err = 0.0
        self.yardstick_s = 0.0
        self.bisect_iters = 0
        self.count_ok = Counter()

    def observe(self, tracer: spans.Tracer) -> None:
        for name, args, result in tracer.observed:
            if name == "jacobi.eig_sym":
                m = np.asarray(args[0], dtype=float)
                t0 = perf_counter()
                ref = np.linalg.eigvalsh(m)
                self.yardstick_s += perf_counter() - t0
                err = float(np.max(np.abs(np.sort(result.eigenvalues) - ref)))
                self.eig_max_n = max(self.eig_max_n, m.shape[0])
                self.eig_max_err = max(self.eig_max_err, err)
            else:
                self.bisect_iters += sum(result.iterations)
                self.count_ok[name] += bool(result.count_matches)
        tracer.observed.clear()


def end_to_end(outcomes: list[Outcome]) -> dict:
    ms = [o.seconds * 1e3 for o in outcomes]
    deciles = statistics.quantiles(ms, n=10)
    return {
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "op_ms.p50": deciles[4],
        "op_ms.p90": deciles[8],
    }


def per_layer(tracer, layer, traced, untraced) -> dict:
    tot = spans.layer_totals(tracer.spans)

    def calls(name):
        return tot[name]["calls"] if name in tot else 0

    def self_s(name):
        return tot[name]["self_s"] if name in tot else 0.0

    def ok_ratio(name):
        # with no call there is no miss: report 1, the base is .calls
        return layer.count_ok[name] / calls(name) if calls(name) else 1.0

    out = {}
    for name in (
        "graphs.build",
        "graphs.laplacian",
        "jacobi.eig_sym",
        "jacobi.residual",
        "characteristic.find_edge_roots",
        "characteristic.find_chain_roots",
        "characteristic.count_sign_changes",
        "modes.classify_spectrum",
        "modes.edge_mode",
        "modes.chain_mode",
        "bounds.weyl",
    ):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    eig_s = tot["jacobi.eig_sym"]["total_s"] if "jacobi.eig_sym" in tot else 0.0
    traced_s = sum(o.seconds for o in traced)
    out.update(
        {
            "jacobi.eig_sym.max_n": layer.eig_max_n,
            "jacobi.max_abs_err": layer.eig_max_err,
            "jacobi.yardstick_ratio": eig_s / layer.yardstick_s if layer.yardstick_s else 0.0,
            "characteristic.bisect_iters": layer.bisect_iters,
            "characteristic.edge_count_ok_ratio": ok_ratio("characteristic.find_edge_roots"),
            "characteristic.chain_count_ok_ratio": ok_ratio("characteristic.find_chain_roots"),
            "transfer.sigma_pair.calls": calls("transfer.sigma_pair"),
            "cli.self_s": self_s(spans.ROOT),
            "cli.render.self_s": self_s("cli.render"),
            "cli.report_bytes": sum(o.report_bytes for o in traced),
            "trace.ops": len(traced),
            "trace.wall_s": traced_s,
            "trace.overhead_s": traced_s - sum(o.seconds for o in untraced),
        }
    )
    return out


def machine() -> dict:
    model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    workdir = Path(".bench_work") / f"{args.workload}-s{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run_cycles_kw = dict(workload=args.workload, seed=args.seed, workdir=workdir)
        for op in workloads.write_files(workloads.warmup(args.workload), workdir):
            _call(op.argv, None, -1)
        known = run_known_defects(workdir)
        if not args.trace:
            outcomes, cycles = run_cycles(**run_cycles_kw, budget_s=args.seconds, min_ops=MIN_OPS)
            metrics = end_to_end(outcomes)
        else:
            untraced, cycles = run_cycles(**run_cycles_kw, budget_s=args.seconds / 2)
            tracer, layer = spans.Tracer(), LayerCounters()
            tracer.install()
            try:
                outcomes, _ = run_cycles(
                    **run_cycles_kw, n_cycles=cycles, tracer=tracer, layer=layer
                )
            finally:
                tracer.uninstall()
            for a, b in zip(untraced, outcomes):
                if a.digest != b.digest:
                    b.reasons.append("trace_changed_report")
            metrics = per_layer(tracer, layer, outcomes, untraced)
            out_dir = Path(".bench_out")
            out_dir.mkdir(exist_ok=True)
            spans_file = out_dir / f"spans-{args.workload}-s{args.seed}.json"
            tracer.dump(spans_file, {"workload": args.workload, "seed": args.seed, **machine()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    reasons = Counter(r for o in outcomes for r in set(o.reasons))
    result = {
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.reasons),
        "fail_reasons": dict(sorted(reasons.items())),
        "known_defects": known,
        "cycles": cycles,
        "machine": machine(),
        "metrics": metrics,
    }
    if args.trace:
        result["spans_file"] = str(spans_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
