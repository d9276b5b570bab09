"""cliquechain benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The workloads and their metrics are declared in BENCHMARK.json
at the root, and ``bench/README.md`` says why each was chosen.

With ``--trace 0`` this runs the workload in a fresh child process and
reports its end-to-end figures and peak resident memory, and the set-up
time: a fresh interpreter importing ``cliquechain.cli``, the median of
several starts before the workload and as many after it, so that a short
slow spell of the host does not set it.  With ``--trace 1`` the child runs the workload
traced and reports the per-layer figures.  The last line of standard
output is the result object; the line before it carries the details
(failure reasons, cycles run, machine).  Exit code 0 on success, 1 when
the benchmark itself cannot run (no source tree, a crashed child).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_STARTS = 8  # before the workload, and as many after it


def _env() -> dict:
    """Import the package from src/, keep BLAS on the client's one thread,
    and let Python cache bytecode as it does for an installed package."""
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), **threads)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup_times(env: dict) -> list[float]:
    """Wall times of fresh interpreters importing cliquechain.cli.

    One unmeasured start first, so compiled bytecode is cached as it is for
    any user after the first run.
    """
    cmd = [sys.executable, "-c", "import cliquechain.cli"]
    times = []
    for k in range(SETUP_STARTS + 1):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        if k:
            times.append(perf_counter() - t0)
    return times


def run_worker(argv: list[str], env: dict) -> tuple[dict, float]:
    """Run the workload child; returns its result and its peak RSS in MB."""
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py")] + argv
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1]), usage.ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser(description="cliquechain benchmark, one run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "cliquechain" / "cli.py").is_file():
        print(f"error: no cliquechain source tree under {ROOT / 'src'}", file=sys.stderr)
        return 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in declared["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 1
    wanted = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    env = _env()
    try:
        setup = [] if args.trace else setup_times(env)
        child_argv = ["--workload", args.workload, "--seed", str(args.seed)]
        child_argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        result, peak_rss_mb = run_worker(child_argv, env)
        if not args.trace:
            setup += setup_times(env)
    except (subprocess.CalledProcessError, RuntimeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    values = dict(result.pop("metrics"))
    if not args.trace:
        values.update(setup_s=statistics.median(setup), peak_rss_mb=peak_rss_mb)
    if set(values) != set(wanted):
        print(f"error: metrics {sorted(set(values) ^ set(wanted))} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    attempted, failed = result.pop("attempted"), result.pop("failed")
    print(json.dumps({"detail": {"workload": args.workload, "seed": args.seed, **result}}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": values[k], "unit": wanted[k]} for k in wanted},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
