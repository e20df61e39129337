import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oversmooth
from oversmooth import GraphOperator
from oversmooth import cli
from oversmooth.cli import main

from conftest import (
    PENDANT_TRIANGLE_TEXT,
    reference_csr_matmul,
    ring_with_chords,
    serialize_edge_list,
)

SRC = str(Path(oversmooth.__file__).resolve().parents[1])


def _python(args, env=None):
    """Run a fresh interpreter with the package's sources on its path."""
    env = {**os.environ, "PYTHONPATH": SRC, **(env or {})}
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True)


@pytest.fixture
def pendant_triangle_edgelist(tmp_path):
    path = tmp_path / "pendant_triangle.txt"
    path.write_text(PENDANT_TRIANGLE_TEXT)
    return str(path)


@pytest.fixture
def k4_edgelist(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text("n 4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    return str(path)


@pytest.fixture
def p3_edgelist(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("n 3\n0 1\n1 2\n")
    return str(path)


@pytest.fixture
def k2_edgelist(tmp_path):
    path = tmp_path / "k2.txt"
    path.write_text("n 2\n0 1\n")
    return str(path)


def _strip_timestamps(text: str) -> str:
    return "\n".join(
        l for l in text.splitlines()
        if not l.startswith("# timestamp:") and '"timestamp"' not in l
    )


class TestAnalyze:
    def test_edge_list_analysis(self, pendant_triangle_edgelist, capsys):
        assert main(["analyze", "--graph", pendant_triangle_edgelist]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_nodes"] == 4
        assert doc["n_edges"] == 4
        assert doc["regular"] is False
        assert doc["laplacians_commute"] is False
        assert doc["commutator_frobenius_norm"] > 1e-6

    def test_regular_graph_commutes(self, k4_edgelist, capsys):
        assert main(["analyze", "--graph", k4_edgelist]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["regular"] is True
        assert doc["laplacians_commute"] is True

    def test_commutator_is_computed_once(self, pendant_triangle_edgelist, monkeypatch):
        # count dense operator copies and the matrix products taken with them
        counts = {"copies": 0, "products": 0}

        class Counted(np.ndarray):
            def __matmul__(self, other):
                counts["products"] += 1
                return np.asarray(self) @ np.asarray(other)

        dense = GraphOperator.matrix.fget

        def counted(op):
            counts["copies"] += 1
            return dense(op).view(Counted)

        monkeypatch.setattr(GraphOperator, "matrix", property(counted))
        assert main(["analyze", "--graph", pendant_triangle_edgelist]) == 0
        assert counts == {"copies": 2, "products": 2}


class TestSimulate:
    def test_minimal_run_two_trace_rows(self, pendant_triangle_edgelist, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([
            "simulate", "--graph", pendant_triangle_edgelist, "--layers", "1", "--out", str(out),
        ]) == 0
        rows = [
            l for l in (out / "trace.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert len(rows) == 3  # header + 2 layers
        assert (out / "report.json").is_file()

    def test_enzymes_regular_graph_run(self, synthetic_enzymes_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([
            "simulate", "--graph", "enzymes:10", "--data-dir", str(synthetic_enzymes_dir),
            "--layers", "50", "--weights", "none", "--out", str(out),
        ]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["fits"]) <= {"e_delta", "e_delta_norm", "e_delta_tilde_norm"}
        assert report["manifest"]["dataset_id"] == "ENZYMES"

    def test_reruns_are_byte_identical_except_timestamp(
        self, pendant_triangle_edgelist, tmp_path, capsys
    ):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main([
                "simulate", "--graph", pendant_triangle_edgelist, "--layers", "10",
                "--weights", "per-layer:4", "--out", str(out),
            ]) == 0
            outs.append(out)
        for fname in ("trace.csv", "report.json"):
            a = _strip_timestamps((outs[0] / fname).read_text())
            b = _strip_timestamps((outs[1] / fname).read_text())
            assert a == b

    def test_missing_data_dir_is_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("OVERSMOOTH_DATA_DIR", raising=False)
        assert main([
            "simulate", "--graph", "enzymes:0", "--out", str(tmp_path / "out"),
        ]) == 1
        assert "error:" in capsys.readouterr().err

    def test_out_of_range_index_is_exit_1(self, synthetic_enzymes_dir, tmp_path, capsys):
        assert main([
            "simulate", "--graph", "enzymes:99", "--data-dir", str(synthetic_enzymes_dir),
            "--out", str(tmp_path / "out"),
        ]) == 1

    def test_data_dir_env_fallback(self, synthetic_enzymes_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OVERSMOOTH_DATA_DIR", str(synthetic_enzymes_dir))
        assert main([
            "simulate", "--graph", "enzymes:18", "--layers", "5",
            "--out", str(tmp_path / "out"),
        ]) == 0

    def test_data_dir_flag_overrides_env(self, synthetic_enzymes_dir, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.setenv("OVERSMOOTH_DATA_DIR", str(tmp_path / "nope"))
        assert main([
            "simulate", "--graph", "enzymes:18", "--layers", "5",
            "--data-dir", str(synthetic_enzymes_dir), "--out", str(tmp_path / "out"),
        ]) == 0


class TestDatasetFiles:
    """resolve_graph reads each file from the data dir or its ENZYMES/ or cora/ subdirectory."""

    def test_tu_files_flat(self, synthetic_enzymes_dir):
        g, x, dataset_id = cli.resolve_graph("enzymes:10", str(synthetic_enzymes_dir))
        assert dataset_id == "ENZYMES" and g.n_nodes == 4 and x.shape == (4, 6)

    def test_tu_files_in_subdirectory(self, tmp_path, synthetic_enzymes_dir):
        sub = tmp_path / "root" / "ENZYMES"
        sub.mkdir(parents=True)
        for f in synthetic_enzymes_dir.iterdir():
            (sub / f.name).write_text(f.read_text())
        g, x, _ = cli.resolve_graph("enzymes:10", str(tmp_path / "root"))
        flat_g, flat_x, _ = cli.resolve_graph("enzymes:10", str(synthetic_enzymes_dir))
        assert g == flat_g and np.array_equal(x, flat_x)

    def test_attributes_optional(self, synthetic_enzymes_dir):
        (synthetic_enzymes_dir / "ENZYMES_node_attributes.txt").unlink()
        g, x, _ = cli.resolve_graph("enzymes:10", str(synthetic_enzymes_dir))
        assert g.n_nodes == 4 and x is None

    def test_missing_required_files_raise(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="ENZYMES_A.txt") as exc:
            cli.resolve_graph("enzymes:0", str(tmp_path))
        assert str(exc.value) == (f"missing dataset files under {tmp_path}: "
                                  "ENZYMES_A.txt, ENZYMES_graph_indicator.txt")

    def test_cora_files(self, tmp_path):
        (tmp_path / "cora.content").write_text("a 1.0 labelA\n")
        (tmp_path / "cora.cites").write_text("")
        g, x, dataset_id = cli.resolve_graph("cora-lcc", str(tmp_path))
        assert dataset_id == "cora" and g.n_nodes == 1 and x.tolist() == [[1.0]]
        with pytest.raises(FileNotFoundError):
            cli.resolve_graph("cora-lcc", str(tmp_path / "nope"))


class TestAxioms:
    def test_unnormalized_passes(self, pendant_triangle_edgelist, capsys):
        assert main(["axioms", "--graph", pendant_triangle_edgelist, "--operator", "delta"]) == 0
        out = capsys.readouterr().out
        assert "axiom1: PASS" in out
        assert "axiom2: PASS" in out

    def test_normalized_fails_on_nonregular(self, pendant_triangle_edgelist, tmp_path, capsys):
        report_path = tmp_path / "axioms.json"
        assert main([
            "axioms", "--graph", pendant_triangle_edgelist, "--operator", "delta-norm",
            "--out", str(report_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "axiom1: FAIL" in out
        assert "witness" in out
        doc = json.loads(report_path.read_text())
        assert doc["holds_axiom1"] is False
        assert doc["witness_signal"] is not None

    def test_normalized_passes_on_regular(self, k4_edgelist, capsys):
        assert main(["axioms", "--graph", k4_edgelist, "--operator", "delta-norm"]) == 0
        assert "axiom1: PASS" in capsys.readouterr().out

    def test_conjugated_operator(self, pendant_triangle_edgelist, capsys):
        assert main([
            "axioms", "--graph", pendant_triangle_edgelist, "--operator", "conjugate:delta",
        ]) == 0
        assert "axiom1: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("graph, operator, holds", [
        ("pendant_triangle_edgelist", "delta-norm", False),
        ("pendant_triangle_edgelist", "delta-tilde-norm", False),
        ("pendant_triangle_edgelist", "conjugate:delta", False),
        ("p3_edgelist", "delta", True),
    ])
    def test_report_is_pinned(self, graph, operator, holds, request, tmp_path, capsys):
        path = request.getfixturevalue(graph)
        report = tmp_path / "axioms.json"
        assert main(["axioms", "--graph", path, "--operator", operator,
                     "--out", str(report)]) == 0
        # a failing report's witness is the constant signal 1 * d, with d the first
        # unit direction drawn from the default seed
        d = [-0.4273801544622696, 0.9031781167619178, 0.04019319562067749]
        expected = {
            "axiom1_note": "" if holds else "constant signal with c=1.0 has nonzero measure",
            "holds_axiom1": holds,
            "holds_axiom2": True,
            "manifest": {
                "config": {"operator": operator, "trials": 20},
                "dataset_id": Path(path).name,
                "graph_selector": path,
                "seed": 789001361,
                "timestamp": "<masked>",
                "tool_version": oversmooth.__version__,
            },
            "operator_kind": operator,
            "seed": 789001361,
            "tolerances": {"axiom1_tol": 1e-08, "axiom2_tol": 1e-09},
            "witness_signal": None if holds else [d] * 4,
        }
        text = re.sub(r'"timestamp": "[^"]*"', '"timestamp": "<masked>"', report.read_text())
        assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"


class TestRatio:
    def test_regular_graph_reports_degree(self, k4_edgelist, tmp_path, capsys):
        out_path = tmp_path / "ratio.csv"
        assert main([
            "ratio", "--graph", k4_edgelist, "--out", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "regular graph, degree 3" in out
        assert out_path.is_file()

    def test_two_node_graph_constant_one(self, k2_edgelist, capsys):
        assert main(["ratio", "--graph", k2_edgelist]) == 0
        assert "regular graph, degree 1" in capsys.readouterr().out

    def test_nonregular_reports_range(self, pendant_triangle_edgelist, capsys):
        assert main(["ratio", "--graph", pendant_triangle_edgelist]) == 0
        assert "non-regular graph: ratio in" in capsys.readouterr().out


class TestSpectraAndExport:
    def test_spectra_to_stdout(self, pendant_triangle_edgelist, capsys):
        assert main(["spectra", "--graph", pendant_triangle_edgelist, "--operator", "delta"]) == 0
        out = capsys.readouterr().out
        assert "index,eigenvalue" in out

    def test_spectra_with_superposition(self, pendant_triangle_edgelist, tmp_path, capsys):
        spec = tmp_path / "spec.csv"
        sup = tmp_path / "sup.csv"
        assert main([
            "spectra", "--graph", pendant_triangle_edgelist, "--operator", "delta-norm",
            "--superpose", "delta", "--out", str(spec), "--superpose-out", str(sup),
        ]) == 0
        assert "# row_basis_kind: delta_norm" in sup.read_text()

    def test_export_operator(self, pendant_triangle_edgelist, tmp_path, capsys):
        out = tmp_path / "delta.csv"
        assert main([
            "export-operator", "--graph", pendant_triangle_edgelist, "--operator", "delta",
            "--out", str(out),
        ]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        diag = [float(r.split(",")[i]) for i, r in enumerate(rows)]
        assert diag == [3.0, 2.0, 2.0, 1.0]


class TestRepro:
    def test_fig2_hits_floor_before_layer_20(self, synthetic_enzymes_dir, tmp_path, capsys):
        out = tmp_path / "repro"
        assert main([
            "repro", "--experiment", "fig2", "--data-dir", str(synthetic_enzymes_dir),
            "--out", str(out),
        ]) == 0
        trace = (out / "fig2" / "trace.csv").read_text()
        rows = [l.split(",") for l in trace.splitlines() if l and not l.startswith("#")][1:]
        floor_layers = [int(r[0]) for r in rows if float(r[2]) <= 1e-250]
        assert floor_layers and floor_layers[0] <= 20

    def test_fig1_final_norm_positive_and_stable(self, synthetic_enzymes_dir, tmp_path, capsys):
        out = tmp_path / "repro"
        assert main([
            "repro", "--experiment", "fig1", "--data-dir", str(synthetic_enzymes_dir),
            "--out", str(out),
        ]) == 0
        trace = (out / "fig1" / "trace.csv").read_text()
        rows = [l.split(",") for l in trace.splitlines() if l and not l.startswith("#")][1:]
        fro = [float(r[1]) for r in rows]
        assert fro[-1] > 0.0
        tail = fro[-10:]
        assert (max(tail) - min(tail)) / fro[-1] < 1e-6

    def test_fig4b_ratio_constant_three(self, synthetic_enzymes_dir, tmp_path, capsys):
        out = tmp_path / "repro"
        assert main([
            "repro", "--experiment", "fig4b", "--data-dir", str(synthetic_enzymes_dir),
            "--out", str(out),
        ]) == 0
        ratio_text = (out / "fig4b" / "ratio.csv").read_text()
        rows = [l for l in ratio_text.splitlines() if l and not l.startswith("#")][1:]
        values = [float(r.split(",")[1]) for r in rows]
        assert values and max(abs(v - 3.0) for v in values) <= 1e-9

    def test_repro_without_data_dir_is_exit_1(self, capsys, monkeypatch):
        monkeypatch.delenv("OVERSMOOTH_DATA_DIR", raising=False)
        assert main(["repro", "--experiment", "fig1"]) == 1

    def test_fig1_trace_equals_simulate_run(self, synthetic_enzymes_dir, tmp_path, capsys):
        data = str(synthetic_enzymes_dir)
        assert main([
            "repro", "--experiment", "fig1", "--data-dir", data, "--out", str(tmp_path / "r"),
        ]) == 0
        assert main([
            "simulate", "--graph", "enzymes:0", "--data-dir", data, "--layers", "50",
            "--weights", "none", "--volume-constant", "--out", str(tmp_path / "s"),
        ]) == 0
        repro, sim = (
            [l for l in (tmp_path / d / "trace.csv").read_text().splitlines() if l[0] != "#"]
            for d in ("r/fig1", "s")
        )
        assert len(repro) == 52 and repro == sim  # header + layers 0..50


class TestProductOrder:
    """The CSR product sums in reduceat's order, so no output byte depends on it."""

    @staticmethod
    def _outputs_with_each_product(monkeypatch, argv, out_dir):
        outputs = []
        for product in (GraphOperator.__matmul__, reference_csr_matmul):
            monkeypatch.setattr(GraphOperator, "__matmul__", product)
            shutil.rmtree(out_dir, ignore_errors=True)
            assert main(argv) == 0
            outputs.append([_strip_timestamps((out_dir / name).read_text())
                            for name in ("trace.csv", "report.json")])
        return outputs

    def test_weighted_simulate_on_a_hub_graph(self, tmp_path, monkeypatch, capsys):
        # node 0's row holds 150 entries; the others are a path with random chords, and
        # many rows hold 9 entries, the shortest that reduceat sums in its 8-way block
        rng = np.random.default_rng(3)
        pairs = [(0, i) for i in range(1, 150)] + [(i, i + 1) for i in range(1, 199)]
        pairs += [(a, b) for a, b in rng.integers(1, 200, size=(400, 2)).tolist() if a != b]
        graph = tmp_path / "hub.txt"
        graph.write_text("n 200\n" + "".join(f"{a} {b}\n" for a, b in pairs))
        out = tmp_path / "out"
        new, old = self._outputs_with_each_product(monkeypatch, [
            "simulate", "--graph", str(graph), "--weights", "per-layer", "--out", str(out),
        ], out)
        assert new == old

    def test_repro_fig2(self, synthetic_enzymes_dir, tmp_path, monkeypatch, capsys):
        new, old = self._outputs_with_each_product(monkeypatch, [
            "repro", "--experiment", "fig2", "--data-dir", str(synthetic_enzymes_dir),
            "--out", str(tmp_path / "repro"),
        ], tmp_path / "repro" / "fig2")
        assert new == old


class TestUsageErrors:
    def test_unknown_command_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, flag, value", [
        ("simulate", "--graph", "enzymes:abc"),
        ("simulate", "--layers", "0"),
        ("simulate", "--weights", "bogus"),
        ("simulate", "--weights", "first:0"),
        ("simulate", "--features", "0"),
        ("ratio", "--features", "0"),
        ("axioms", "--trials", "0"),
        # axioms measures with Laplacians only; a propagation label is a usage error
        ("axioms", "--operator", "anorm"),
        ("axioms", "--operator", "anorm-tilde"),
        ("axioms", "--operator", "conjugate:anorm"),
        ("axioms", "--operator", "conjugate:anorm-tilde"),
        ("axioms", "--operator", "conjugate:bogus"),
        # a tolerance must be a finite number > 0, a seed an integer >= 0
        ("axioms", "--tol", "-1"),
        ("axioms", "--tol", "0"),
        ("axioms", "--tol", "inf"),
        ("axioms", "--tol", "nan"),
        ("axioms", "--tol", "abc"),
        ("axioms", "--seed", "-1"),
        ("simulate", "--seed", "-1"),
        ("ratio", "--seed", "1.5"),
        # a command is offered only the flags it reads or echoes in its manifest
        ("analyze", "--features", "3"),
        ("analyze", "--seed", "4"),
        ("axioms", "--features", "3"),
        ("spectra", "--features", "3"),
        ("export-operator", "--features", "3"),
        # --superpose-out names the file of a superposition only --superpose asks for
        ("spectra", "--superpose-out", "x.csv"),
    ])
    def test_invalid_value_is_exit_2(self, command, flag, value, k4_edgelist, tmp_path, capsys):
        # analyze takes no --out, which would be a usage error of its own
        out = [] if command == "analyze" else ["--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as exc:
            main([command, "--graph", k4_edgelist, flag, value, *out])
        assert exc.value.code == 2

    def test_axiom_operator_labels(self, pendant_triangle_edgelist, tmp_path, capsys):
        laplacians = ["delta", "delta-norm", "delta-tilde-norm"]
        assert cli.AXIOM_OPERATORS == laplacians + [f"conjugate:{x}" for x in laplacians]
        for label in cli.AXIOM_OPERATORS:
            report = tmp_path / f"{label}.json"
            assert main(["axioms", "--graph", pendant_triangle_edgelist, "--operator", label,
                         "--tol", "1e-300", "--seed", "0", "--out", str(report)]) == 0
            assert json.loads(report.read_text())["operator_kind"] == label

    def test_zero_node_header_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("n 0\n")
        assert main(["analyze", "--graph", str(path)]) == 1
        assert capsys.readouterr().err == "error: line 1: node count must be >= 1\n"

    def test_id_beyond_int64_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("0 99999999999999999999\n")
        assert main(["analyze", "--graph", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: line 1: node id 99999999999999999999 exceeds the int64 range\n")

    @pytest.mark.parametrize("text", ["n 1000000000000000\n0 1\n", "0 1000000000000000\n"])
    def test_unallocatable_node_count_is_exit_1(self, text, tmp_path, capsys):
        # 10^15 nodes need 7.11 PiB of degree counts, past any address space:
        # numpy refuses the allocation without touching memory
        path = tmp_path / "huge.txt"
        path.write_text(text)
        assert main(["analyze", "--graph", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate 7.11 PiB") and err.count("\n") == 1

    def test_graph_id_beyond_int64_is_exit_1(self, synthetic_enzymes_dir, capsys):
        indicator = synthetic_enzymes_dir / "ENZYMES_graph_indicator.txt"
        indicator.write_text("99999999999999999999\n" + indicator.read_text())
        assert main(["analyze", "--graph", "enzymes:0", "--data-dir",
                     str(synthetic_enzymes_dir)]) == 1
        assert capsys.readouterr().err == "error: indicator line 1: '99999999999999999999'\n"

    @pytest.mark.parametrize("name, fault, message", [
        ("A", lambda text, n: text + f"{n}, {n}\n", "adjacency line 499: self-loop at node 142"),
        ("A", lambda text, n: text + f"{n}, 1\n",
         "adjacency line 499: edge crosses graphs 18 and 0"),
        ("node_attributes", lambda text, n: text.rstrip("\n").rsplit(",", 1)[0] + "\n",
         "inconsistent attribute row widths"),
    ])
    def test_fault_in_last_graph_is_exit_1(self, name, fault, message, synthetic_enzymes_dir,
                                           tmp_path, capsys):
        # graph 0 is fine; the whole files are checked before any graph is built
        n = len((synthetic_enzymes_dir / "ENZYMES_graph_indicator.txt").read_text().split())
        path = synthetic_enzymes_dir / f"ENZYMES_{name}.txt"
        path.write_text(fault(path.read_text(), n))
        assert main(["simulate", "--graph", "enzymes:0", "--data-dir", str(synthetic_enzymes_dir),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["simulate", "ratio"])
    def test_overflowing_features_are_exit_1(self, command, synthetic_enzymes_dir, tmp_path,
                                             capsys):
        # the squared norms overflow; numpy's warnings must not escape as a traceback
        path = synthetic_enzymes_dir / "ENZYMES_node_attributes.txt"
        path.write_text("".join(",".join(["1e200"] * len(row.split(","))) + "\n"
                                for row in path.read_text().splitlines()))
        assert main([command, "--graph", "enzymes:0", "--data-dir", str(synthetic_enzymes_dir),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: non-finite metric at layer 0\n"

    def test_bad_attribute_file_fails_only_commands_that_read_features(
            self, synthetic_enzymes_dir, tmp_path, capsys):
        axioms = ["axioms", "--graph", "enzymes:0", "--data-dir", str(synthetic_enzymes_dir)]
        assert main(axioms) == 0
        good = capsys.readouterr()
        path = synthetic_enzymes_dir / "ENZYMES_node_attributes.txt"
        path.write_text(path.read_text().rstrip("\n").rsplit(",", 1)[0] + "\n")
        assert main(axioms) == 0
        assert capsys.readouterr() == good
        assert main(["simulate", "--graph", "enzymes:0", "--data-dir", str(synthetic_enzymes_dir),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: inconsistent attribute row widths\n"

    def test_enzymes_selector_builds_one_graph(self, synthetic_enzymes_dir, built_graphs):
        g, x, _ = cli.resolve_graph("enzymes:10", str(synthetic_enzymes_dir))
        assert built_graphs == [4] and g.n_nodes == 4 and x.shape == (4, 6)

    def test_missing_file_is_exit_1(self, capsys):
        assert main(["analyze", "--graph", "/nonexistent/edges.txt"]) == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestFreshProcess:
    def test_unweighted_simulate_is_blas_thread_count_independent(self, tmp_path):
        graph = tmp_path / "ring.txt"
        graph.write_text(serialize_edge_list(ring_with_chords(1200, 1000, seed=4)))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            _python(["-m", "oversmooth.cli", "simulate", "--graph", str(graph), "--out", str(out)],
                    env={"OPENBLAS_NUM_THREADS": threads})
            outputs.append([_strip_timestamps((out / name).read_text())
                            for name in ("trace.csv", "report.json")])
        assert outputs[0] == outputs[1]

    def test_cli_runs_import_no_scipy(self, synthetic_enzymes_dir, tmp_path):
        code = (
            "import sys\n"
            "import oversmooth.cli as cli\n"
            f"data, out = {str(synthetic_enzymes_dir)!r}, {str(tmp_path / 'out')!r}\n"
            "assert cli.main(['simulate', '--graph', 'enzymes:0', '--data-dir', data,"
            " '--out', out]) == 0\n"
            "assert cli.main(['axioms', '--graph', 'enzymes:0', '--data-dir', data]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        assert _python(["-c", code]).stdout.splitlines()[-1] == "[]"
