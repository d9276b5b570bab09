"""Self-tests of the benchmark: its generator, checker and tracer.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from cliquechain import cli, graphs  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_operations(workload):
    for index in (0, 3):
        assert workloads.cycle(workload, 11, index) == workloads.cycle(workload, 11, index)
    assert workloads.cycle(workload, 11, 0) != workloads.cycle(workload, 12, 0)
    assert workloads.cycle(workload, 11, 0) != workloads.cycle(workload, 11, 1)


def test_operations_pass_no_jobs_or_tol():
    for workload in workloads.WORKLOADS:
        for op in workloads.cycle(workload, 5, 0):
            assert "--jobs" not in op.argv and "--tol" not in op.argv


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_operations_stay_clear_of_known_defects(workload):
    for seed in (1, 2, 3):
        for index in range(4):
            for op in workloads.cycle(workload, seed, index):
                spec = op.spec
                graph = spec.get("graph", ("",))
                if spec["cmd"] == "modes":
                    assert spec["q"] <= workloads._max_q(spec["p"])
                elif graph[0] == "single" and spec["cmd"] == "spectrum":
                    assert graph[2] <= workloads._max_q(graph[1])
                elif graph[0] == "network":
                    sizes = [c["p"] for c in graph[1]["cliques"]]
                    assert all(abs(a - b) >= 2 for i, a in enumerate(sizes) for b in sizes[i + 1 :])
                    ends = [(ln["from"]["clique"], ln["from"]["vertex"]) for ln in graph[1]["links"]]
                    ends += [(ln["to"]["clique"], ln["to"]["vertex"]) for ln in graph[1]["links"] if ln["to"] != "open"]
                    assert len(ends) == len(set(ends))


def test_known_defect_operations_are_checked(tmp_path):
    probes = workloads.known_defects()
    assert set(probes) == {
        "band_root_miss.spectrum",
        "band_root_miss.modes",
        "equal_cliques",
        "adjacent_cliques",
        "shared_junction",
    }
    for op in workloads.write_files(list(probes.values()), tmp_path):
        code, text = _run(list(op.argv))
        assert yardstick.check(op.spec, code, text) in ([], ["exit_2"])


def test_yardstick_networks_match_the_program(tmp_path):
    # the benchmark builds its own Laplacians; they must describe the same
    # graphs as the program's builder (same spectrum, same vertex count)
    ops = workloads.write_files(workloads.cycle("spectrum-ladder", 2, 0), tmp_path)
    nets = [op for op in ops if op.spec.get("graph", ("",))[0] == "network"]
    assert nets
    for op in nets:
        g = graphs.build_network(graphs.network_from_json(Path(op.argv[-1]).read_text()))
        ours = yardstick.spectrum(yardstick.laplacian_of(op.spec["graph"]))
        theirs = np.linalg.eigvalsh(graphs.laplacian(g))[::-1]
        assert ours.shape == (g.n,)
        np.testing.assert_allclose(ours, theirs, atol=1e-9)


def test_checker_passes_a_correct_report():
    code, text = _run(["spectrum", "--p", "6", "--q", "4"])
    spec = {"cmd": "spectrum", "graph": ("single", 6, 4)}
    assert yardstick.check(spec, code, text) == []


def test_checker_flags_a_perturbed_eigenvalue():
    code, text = _run(["spectrum", "--p", "6", "--q", "4"])
    report = json.loads(text)
    report["payload"]["eigenvalues"][3] += 1e-6
    spec = {"cmd": "spectrum", "graph": ("single", 6, 4)}
    assert yardstick.check(spec, code, json.dumps(report)) == ["yardstick_mismatch"]


def test_checker_flags_a_perturbed_sweep_row():
    argv = ["sweep", "--family", "two-finite-equal", "--p", "6..7", "--q", "4..5"]
    code, text = _run(argv)
    spec = {"cmd": "sweep", "family": "two-finite-equal", "p": (6, 7), "q": (4, 5)}
    assert yardstick.check(spec, code, text) == []
    report = json.loads(text)
    report["payload"]["rows"][2]["oracle_lambda2"] *= 1 + 1e-7
    assert yardstick.check(spec, code, json.dumps(report)) == ["yardstick_mismatch"]


def test_checker_flags_a_wrong_mode_profile():
    code, text = _run(["modes", "--p", "6", "--q", "4"])
    spec = {"cmd": "modes", "p": 6, "q": 4}
    assert yardstick.check(spec, code, text) == []
    report = json.loads(text)
    report["payload"]["chain_modes"][0]["profile"][-1] += 1e-3
    assert yardstick.check(spec, code, json.dumps(report)) == ["residual"]


def test_checker_flags_a_wrong_exit_code_and_a_crash():
    code, text = _run(["spectrum", "--p", "6", "--q", "4"])
    spec = {"cmd": "spectrum", "graph": ("single", 6, 4)}
    assert yardstick.check(spec, 2, text) == ["exit_2"]
    assert yardstick.check(spec, 1, "") == ["exit_1"]
    assert yardstick.check(spec, None, "") == ["exception"]
    assert yardstick.check(spec, 0, "") == ["yardstick_mismatch"]


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--p", "12", "--q", "8"],
        ["bounds", "--q1", "5", "--p", "8", "--q2", "6"],
        ["sweep", "--family", "one-finite", "--p", "6..7", "--q", "4..5"],
        ["modes", "--p", "7", "--q", "5"],
        ["reproduce", "--table", "2"],
    ],
)
def test_traced_report_is_byte_identical(argv):
    plain = _run(argv)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = _run(argv)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert "cli.render" in {s[0] for s in tracer.spans}
    # the originals are back in place
    assert not any(hasattr(f, "__wrapped__") for f in (cli.eig_sym, cli.render_json))


def test_self_time_subtracts_child_spans():
    # root [0, 10] with children [1, 4] and [5, 6]; the first has a child [2, 3]
    recorded = [
        ("cli", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 2.0, 3.0, 1, 0),
        ("a", 5.0, 6.0, 0, 0),
    ]
    tot = spans.layer_totals(recorded)
    assert tot["cli"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert tot["a"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert tot["b"]["self_s"] == 1.0
