"""Command-line interface: payloads, exit codes, determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest

import cliquechain.cli as cli
from cliquechain.reference import K10_NETWORK_JSON


def run(argv, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, out


def run_json(argv, capsys):
    rc, out = run(argv, capsys)
    return rc, json.loads(out)


class TestSpectrum:
    def test_reference_graph(self, capsys):
        rc, rep = run_json(["spectrum", "--p", "6", "--q", "4"], capsys)
        assert rc == 0
        payload = rep["payload"]
        (edge,) = payload["edge"]
        assert abs(edge["value"] - 7.0355) < 1e-3
        assert edge["label"] == "edge"
        (clique,) = payload["clique"]
        assert clique["value"] == 6.0 and clique["oracle_multiplicity"] == 4
        assert payload["zero_mode"] is True
        assert rep["anomalies"] == []

    def test_embedded_warning_exits_zero(self, capsys):
        rc, rep = run_json(["spectrum", "--p", "3", "--q", "6"], capsys)
        assert rc == 0
        assert rep["payload"]["embedded"]
        assert all(a["severity"] == "warning" for a in rep["anomalies"])

    def test_network_file(self, capsys, tmp_path):
        f = tmp_path / "k10.json"
        f.write_text(json.dumps(K10_NETWORK_JSON))
        rc, rep = run_json(["spectrum", "--network", str(f)], capsys)
        assert rc == 0
        edges = sorted(e["value"] for e in rep["payload"]["edge"])
        assert len(edges) == 3
        assert all(10.0 < v < 12.0 for v in edges)
        assert abs(edges[1] - 11.11) < 0.05 and abs(edges[2] - 11.11) < 0.05
        assert abs(edges[2] - edges[1]) < 0.05
        (nd,) = rep["payload"]["near_degenerate"]
        assert nd["gap"] < 1e-5

    def test_bad_network_file(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('{"cliques": [], "links": [], "extra": 1}')
        rc = cli.main(["spectrum", "--network", str(f)])
        capsys.readouterr()
        assert rc == 1

    def test_long_chain_exits_zero(self, capsys):
        # every band eigenvalue has a matching phase-form zero, also where
        # zeros crowd the poles
        rc, rep = run_json(["spectrum", "--p", "60", "--q", "60"], capsys)
        assert rc == 0
        assert len(rep["payload"]["chain"]) == 59
        assert rep["anomalies"] == []

    @pytest.mark.parametrize("q", [4, 7, 10])
    def test_chain_eigenvalue_at_clique_value(self, capsys, q):
        # p = 3, q = 1 (mod 3): a chain eigenvalue equals p, so the oracle
        # has two copies of 3; one is the clique mode, one a chain mode
        rc, rep = run_json(["spectrum", "--p", "3", "--q", str(q)], capsys)
        assert rc == 0
        payload = rep["payload"]
        (clique,) = payload["clique"]
        assert clique["oracle_multiplicity"] == 1 == clique["constructed_modes"]
        assert any(abs(v - 3.0) <= 1e-9 for v in payload["chain"])

    def test_two_chain_labels(self, capsys):
        rc, rep = run_json(["spectrum", "--q1", "4", "--p", "6", "--q2", "4"], capsys)
        assert rc == 0
        labels = sorted(e["label"] for e in rep["payload"]["edge"])
        assert labels == ["edge_antisymmetric", "edge_symmetric"]

    def test_mismatch_anomaly_exits_two(self, capsys, monkeypatch):
        import cliquechain.modes as modes_mod

        real = cli.classify_spectrum

        def broken(g, tol=1e-8):
            cls = real(g, tol)
            return modes_mod.SpectralClassification(
                **{**cls.__dict__, "anomalies": ("injected mismatch",)}
            )

        monkeypatch.setattr(cli, "classify_spectrum", broken)
        rc, rep = run_json(["spectrum", "--p", "6", "--q", "4"], capsys)
        assert rc == 2
        assert any(a["severity"] == "error" for a in rep["anomalies"])


class TestReproduce:
    @pytest.mark.parametrize("table,rows", [(1, 9), (2, 6), (3, 6)])
    def test_tables_pass(self, capsys, table, rows):
        rc, rep = run_json(["reproduce", "--table", str(table)], capsys)
        assert rc == 0
        got = rep["payload"]["rows"]
        assert len(got) == rows
        assert all(r["ok"] in (True, None) for r in got)

    def test_table1_max_diff(self, capsys):
        _, rep = run_json(["reproduce", "--table", "1"], capsys)
        diffs = [r["abs_diff"] for r in rep["payload"]["rows"]]
        assert max(diffs) < 1e-3

    def test_gated_rows_carry_tolerances(self, capsys):
        _, rep = run_json(["reproduce", "--table", "2"], capsys)
        rows = {r["quantity"]: r for r in rep["payload"]["rows"]}
        assert rows["lambda"]["tol"] == 0.01
        assert rows["theory_lambda"]["tol"] is None  # reported, not gated

    def test_table3_plot_data(self, capsys, tmp_path):
        csv_path = tmp_path / "band.csv"
        rc = cli.main(
            ["reproduce", "--table", "3", "--plot-data", str(csv_path),
             "--out", str(tmp_path / "r.json")]
        )
        capsys.readouterr()
        assert rc == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "lambda,F_q"
        assert len(lines) == 1201
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert 0.0 < float(first[0]) < float(last[0]) < 4.0
        float(first[1])  # numeric sample values


class TestSweep:
    def test_one_finite(self, capsys):
        rc, rep = run_json(
            ["sweep", "--family", "one-finite", "--p", "6..8", "--q", "4..5"], capsys
        )
        assert rc == 0
        rows = rep["payload"]["rows"]
        assert len(rows) == 6
        assert all(not r["anomalous"] for r in rows)
        assert all(r["abs_diff"] < 1e-9 for r in rows)
        assert all(r["sign_changes_below_band"] == 0 for r in rows)

    def test_two_finite_equal_ordering(self, capsys):
        rc, rep = run_json(
            ["sweep", "--family", "two-finite-equal", "--p", "6..7", "--q", "4..5"],
            capsys,
        )
        assert rc == 0
        assert all(r["anti_above_sym"] for r in rep["payload"]["rows"])

    def test_one_infinite_fit(self, capsys):
        rc, rep = run_json(
            ["sweep", "--family", "one-infinite", "--p", "6..40", "--fit-decay"],
            capsys,
        )
        assert rc == 0
        fit = rep["payload"]["decay_fit"]
        assert fit["bound_constant"] <= 0.25
        # decays at least as fast as 1/p (in fact faster: the 1/p terms cancel)
        assert fit["fitted_exponent"] >= 0.8

    def test_unknown_family(self, capsys):
        rc = cli.main(["sweep", "--family", "ring", "--p", "6..8"])
        capsys.readouterr()
        assert rc == 1


class TestBoundsAndModes:
    def test_bounds_reference(self, capsys):
        rc, rep = run_json(["bounds", "--p", "6", "--q", "4"], capsys)
        assert rc == 0
        assert rep["payload"]["violations"] == []
        assert len(rep["payload"]["eigenvalues"]) == 9

    def test_bounds_outside_hypotheses_warns(self, capsys):
        rc, rep = run_json(["bounds", "--p", "6", "--q", "3"], capsys)
        assert rc == 0
        assert rep["payload"]["outside_hypotheses"]

    def test_modes_payload(self, capsys):
        rc, rep = run_json(["modes", "--p", "6", "--q", "4"], capsys)
        assert rc == 0
        payload = rep["payload"]
        assert payload["clique_mode_count"] == 4
        assert len(payload["edge_modes"]) == 1
        assert len(payload["chain_modes"]) == 3
        assert payload["edge_modes"][0]["residual"] <= 1e-9
        assert all(m["residual"] <= 1e-9 for m in payload["chain_modes"])

    def test_modes_junction_silent(self, capsys):
        # q = 2 (mod 3): the chain mode at lam = 1 vanishes at the junction
        rc, rep = run_json(["modes", "--p", "8", "--q", "5"], capsys)
        assert rc == 0
        modes = rep["payload"]["chain_modes"]
        assert len(modes) == 4
        (silent,) = [m for m in modes if abs(m["lambda"] - 1.0) < 1e-9]
        assert abs(silent["profile"][7]) < 1e-9  # junction, after 7 clique sites
        assert silent["residual"] <= 1e-9
        # its plateau-to-junction ratio is undefined, not 1/round-off
        assert silent["junction_ratio"] is None
        for m in modes:
            if m is not silent:
                assert m["junction_ratio"] == pytest.approx(1.0 / (1.0 - m["lambda"]), rel=1e-9)


class TestReportContract:
    def test_byte_identical_reports(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["spectrum", "--p", "8", "--q", "5", "--out", str(out1)]) == 0
        assert cli.main(["spectrum", "--p", "8", "--q", "5", "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_projection(self, capsys):
        rc, out = run(["spectrum", "--p", "6", "--q", "4", "--format", "csv"], capsys)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("payload.n,9") for line in lines)

    def test_float_formatting_12_digits(self, capsys):
        _, rep = run_json(["spectrum", "--p", "6", "--q", "4"], capsys)
        (edge,) = rep["payload"]["edge"]
        assert edge["value"] == float(format(7.035470002595778, ".12g"))

    def test_report_messages_use_12_digits(self, capsys):
        _, rep = run_json(["spectrum", "--p", "3", "--q", "5"], capsys)
        assert (
            "eigenvalue bound violated: lambda_2 = 3.36040933713 outside [3.0, 3.0] (clique block)"
            in [a["message"] for a in rep["anomalies"]]
        )
        for argv in (
            ["spectrum", "--p", "3", "--q", "5"],
            ["bounds", "--p", "3", "--q", "5"],
            ["modes", "--p", "3", "--q", "5"],
            ["spectrum", "--q1", "3", "--p", "5", "--q2", "4"],
            ["sweep", "--family", "one-finite", "--p", "3..6", "--q", "2..5"],
            ["spectrum", "--q1", "4", "--p", "3", "--q2", "8"],
        ):
            _, out = run(argv, capsys)
            assert "np.float64" not in out
        # root lists in count-mismatch messages carry 12 digits as well
        _, rep = run_json(["spectrum", "--q1", "4", "--p", "3", "--q2", "8"], capsys)
        (msg,) = [a["message"] for a in rep["anomalies"] if "found 1 at [" in a["message"]]
        root = msg.split("found 1 at [")[1].rstrip("]")
        assert float(root) == pytest.approx(4.4955076566045165, abs=1e-11)
        assert len(root.replace(".", "").lstrip("0")) <= 12

    def test_input_hash_stable(self):
        h1 = cli.input_hash({"p": 6, "q": 4})
        h2 = cli.input_hash({"q": 4, "p": 6})
        assert h1 == h2 and len(h1) == 40

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum"],
            ["spectrum", "--p", "2", "--q", "4"],
            ["spectrum", "--q1", "4", "--p", "6"],
            ["reproduce", "--table", "9"],
            ["frobnicate"],
            ["spectrum", "--p", "6", "--q", "4", "--tol=0"],
            ["spectrum", "--p", "6", "--q", "4", "--tol=-1e-8"],
            ["spectrum", "--p", "6", "--q", "4", "--tol=nan"],
            ["sweep", "--family", "one-finite", "--p", "6", "--q", "4", "--tol", "1e-6"],
            ["modes", "--p", "6", "--q", "4", "--tol", "1e-6"],
            ["sweep", "--family", "one-infinite", "--p", "8", "--fit-decay"],
            # flags a command does not read
            ["sweep", "--family", "one-finite", "--p", "6", "--fit-decay"],
            ["sweep", "--family", "two-finite-equal", "--p", "6", "--fit-decay"],
            ["sweep", "--family", "one-infinite", "--p", "6..9", "--q", "4"],
            # exactly one graph form
            ["bounds", "--q1", "4", "--q2", "4"],
            ["bounds", "--p", "6", "--q", "4", "--q1", "3"],
            ["spectrum", "--network", "F", "--p", "6", "--q", "4"],
            ["spectrum", "--q1", "3", "--p", "6", "--q2", "4", "--q", "5"],
            # empty range
            ["sweep", "--family", "one-finite", "--p", "6..5"],
            # --plot-data is read by --table 3 only
            ["reproduce", "--table", "1", "--plot-data", "pd.csv"],
            ["reproduce", "--table", "2", "--plot-data", "pd.csv"],
        ],
    )
    def test_usage_errors_exit_one(self, capsys, tmp_path, argv):
        net = tmp_path / "k10.json"  # F: a valid network file
        net.write_text(json.dumps(K10_NETWORK_JSON))
        rc = cli.main([str(net) if a == "F" else a for a in argv])
        assert capsys.readouterr().out == ""
        assert rc == 1

    def test_canonical_rendering(self):
        report = {
            "b": (1, 2.5),
            "a": {
                "z": np.array([0.1, -0.0]),
                "y": np.float64(1 / 3),
                "x": np.int64(7),
                "w": np.bool_(True),
            },
            "c": [-0.0, None, 1.2345678901234567],
        }
        assert cli.render_json(report) == (
            "{\n"
            '  "a": {\n'
            '    "w": true,\n'
            '    "x": 7,\n'
            '    "y": 0.333333333333,\n'
            '    "z": [\n'
            "      0.1,\n"
            "      0.0\n"
            "    ]\n"
            "  },\n"
            '  "b": [\n'
            "    1,\n"
            "    2.5\n"
            "  ],\n"
            '  "c": [\n'
            "    0.0,\n"
            "    null,\n"
            "    1.23456789012\n"
            "  ]\n"
            "}\n"
        )
        assert cli.render_csv(report) == (
            "key,value\n"
            "a.w,True\n"
            "a.x,7\n"
            "a.y,0.333333333333\n"
            "a.z[0],0.1\n"
            "a.z[1],0.0\n"
            "b[0],1\n"
            "b[1],2.5\n"
            "c[0],0.0\n"
            "c[1],\n"
            "c[2],1.23456789012\n"
        )
