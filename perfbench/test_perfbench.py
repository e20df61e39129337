"""Tests of the benchmark itself: inputs, tracer and oracles.

Run from the repository root: python3 -m pytest -q perfbench
"""

import contextlib
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import bench_inputs  # noqa: E402
import bench_oracles  # noqa: E402
import bench_trace  # noqa: E402
import run  # noqa: E402

import oversmooth.cli as cli  # noqa: E402
import oversmooth.dynamics as dynamics  # noqa: E402
from oversmooth import PropagationConfig, make_graph  # noqa: E402


def _files(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.fixture(scope="module")
def cora(tmp_path_factory):
    d = tmp_path_factory.mktemp("cora")
    return d, bench_inputs.write_cora(d, 11)


@pytest.fixture(scope="module")
def enzymes(tmp_path_factory):
    d = tmp_path_factory.mktemp("enzymes")
    return d, bench_inputs.write_enzymes(d, 11)


# ------------------------------------------------------------------ inputs


def test_inputs_are_deterministic_per_seed(tmp_path, cora, enzymes):
    for write, (first, _) in ((bench_inputs.write_cora, cora),
                              (bench_inputs.write_enzymes, enzymes)):
        again, other = tmp_path / f"{write.__name__}-again", tmp_path / f"{write.__name__}-other"
        again.mkdir()
        other.mkdir()
        write(again, 11)
        write(other, 12)
        assert _files(again) == _files(first)
        assert _files(other) != _files(first)


def test_cora_shape(cora):
    d, facts = cora
    content = (d / "cora.content").read_text().splitlines()
    assert len(content) == bench_inputs.CORA_NODES
    assert {len(line.split("\t")[1].split()) for line in content} == {bench_inputs.CORA_FEATURES}
    g = nx.Graph()
    g.add_nodes_from(line.split("\t")[0] for line in content)
    cites = [line.split("\t") for line in (d / "cora.cites").read_text().splitlines()]
    g.add_edges_from(cites)
    assert 5000 <= len(cites) <= 5400
    lcc = max(nx.connected_components(g), key=len)
    assert len(lcc) == facts.lcc_nodes == bench_inputs.CORA_LCC_NODES
    assert g.subgraph(lcc).number_of_edges() == facts.lcc_edges


def test_enzymes_shape(enzymes):
    d, facts = enzymes
    assert len(facts.n_nodes) == bench_inputs.ENZYMES_GRAPHS
    for n, edges in zip(facts.n_nodes, facts.edges):
        assert bench_inputs.ENZYMES_MIN_NODES <= n <= bench_inputs.ENZYMES_MAX_NODES
        g = nx.Graph(edges.tolist())
        assert g.number_of_nodes() == n and nx.is_connected(g)
    attrs = bench_inputs.read_enzymes_attributes(d, facts)
    assert [a.shape for a in attrs] == [(n, bench_inputs.ENZYMES_ATTRIBUTES) for n in facts.n_nodes]


# ------------------------------------------------------------------ tracer


def _bindings():
    return {(m.__name__, attr): value for m in bench_trace.Tracer().modules()
            for attr, value in vars(m).items()}


def test_tracer_rebinds_every_importer_and_restores_everything():
    before = _bindings()
    tracer = bench_trace.Tracer()
    with tracer:
        during = _bindings()
        changed = {key for key in before if during[key] is not before[key]}
        # imported copies are rebound, not only the defining modules
        for key in [("oversmooth.dynamics", "build"), ("oversmooth.operators", "build"),
                    ("oversmooth.cli", "build"), ("oversmooth", "build"),
                    ("oversmooth.operators", "connected_components"),
                    ("oversmooth.energy", "measure")]:
            assert key in changed
        assert len(changed) == len(tracer._rebound)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_sees_calls_made_inside_the_package():
    g = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    tracer = bench_trace.Tracer()
    with tracer:
        tracer.begin_op(0)
        dynamics.propagate(g, np.eye(6)[:, :2], PropagationConfig(layers=3))
        tracer.end_op()
    children = [s.name for s in tracer.spans if s.parent == 1]
    assert tracer.spans[1].name == "dynamics.propagate"
    assert children.count("operators.build") == 4
    per_op = bench_trace.per_op_layer_metrics(tracer.spans)[0]
    assert per_op["operators.build_calls"] == 4
    # one per build, one in kernel_generator, one in stats
    assert per_op["graph_core.components_calls"] == 6
    assert per_op["operators.dense_bytes_computed"] == 4 * 6 * 6 * 8
    assert per_op["dynamics.layers"] == 3
    assert 0 < per_op["dynamics.propagate_self_s"] < per_op["dynamics.propagate_s"]


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(k) for k in range(25)]) == (14.0, 60.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


# ------------------------------------------------------------------ oracles


def _run_ops(make_ops, data, tmp_path, facts):
    out = tmp_path / "out"
    out.mkdir()
    ops = make_ops(data, out, np.random.default_rng(0), facts)
    return out, [run.run_op(cli, op)[2] for op in ops[:2]]


def test_sweep_oracle_accepts_the_program_and_rejects_corruption(tmp_path, enzymes):
    data, facts = enzymes
    out, checked = _run_ops(run._sweep_ops, data, tmp_path, facts)
    assert checked == [[], []]
    attrs = bench_inputs.read_enzymes_attributes(data, facts)[0]
    expected = bench_oracles.edge_sum_energy(attrs, facts.edges[0])
    cli.main(["simulate", "--graph", "enzymes:0", "--data-dir", str(data), "--out", str(out)])
    good = (out / "trace.csv").read_text()
    assert bench_oracles.check_sweep(good, "axiom2: PASS", expected) == []
    assert bench_oracles.check_sweep(good, "axiom2: FAIL", expected)
    rows = good.splitlines()
    k0 = next(i for i, line in enumerate(rows) if line.startswith("0,"))
    cells = rows[k0].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-7))
    rows[k0] = ",".join(cells)
    assert bench_oracles.check_sweep("\n".join(rows), "axiom2: PASS", expected)


def test_fig3_oracle_accepts_the_program_and_rejects_corruption(tmp_path, cora):
    data, facts = cora
    out, checked = _run_ops(run._fig3_ops, data, tmp_path, facts)
    assert checked == [[]]
    cli.main(["repro", "--experiment", "fig3", "--data-dir", str(data), "--out", str(out)])
    trace = (out / "fig3" / "trace.csv").read_text()
    verdict = bench_oracles.FIG3_VERDICT
    assert bench_oracles.check_fig3(verdict + "\n", trace) == []
    assert bench_oracles.check_fig3(verdict.replace("True", "False") + "\n", trace)
    lines = trace.splitlines()
    assert bench_oracles.check_fig3(verdict, "\n".join(lines[:-1]))
    cells = lines[-1].split(",")
    cells[3] = "nan"
    assert bench_oracles.check_fig3(verdict, "\n".join(lines[:-1] + [",".join(cells)]))


SMALL_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 4),
               (2, 6)]


def _spectra_chunks(tmp_path, operator, superpose):
    path = tmp_path / "g.txt"
    path.write_text("".join(f"{i} {j}\n" for i, j in SMALL_EDGES))
    out = run.Sink()
    with contextlib.redirect_stdout(out):
        code = cli.main(["spectra", "--graph", str(path), "--operator", operator,
                         "--superpose", superpose])
    assert code == 0
    return out.chunks


@pytest.mark.parametrize("operator", ["delta-norm", "delta"])
def test_spectra_oracle_accepts_the_program_and_rejects_corruption(tmp_path, operator):
    n, m = 9, len(SMALL_EDGES)
    chunks = _spectra_chunks(tmp_path, operator,
                             "delta" if operator == "delta-norm" else "delta-norm")
    rows = range(n)
    assert bench_oracles.check_spectra(chunks, n, m, rows) == []
    # the same text split at arbitrary points reads the same
    text = "".join(chunks)
    pieces = [text[k:k + 97] for k in range(0, len(text), 97)]
    assert bench_oracles.check_spectra(pieces, n, m, rows) == []

    lines = text.splitlines()
    first = lines.index("index,eigenvalue") + 1
    dropped = lines[:first] + lines[first + 1:]
    assert bench_oracles.check_spectra(["\n".join(dropped)], n, m, rows)
    swapped = list(lines)
    swapped[first], swapped[first + n - 1] = (
        f"0,{lines[first + n - 1].split(',')[1]}", f"{n - 1},{lines[first].split(',')[1]}")
    assert bench_oracles.check_spectra(["\n".join(swapped)], n, m, rows)
    shifted = list(lines)
    idx, val = shifted[first + n - 1].split(",")
    shifted[first + n - 1] = f"{idx},{float(val) + 1e-6!r}"
    assert bench_oracles.check_spectra(["\n".join(shifted)], n, m, rows)
    bad_row = list(lines)
    cells = bad_row[-1].split(",")
    cells[0] = repr(float(cells[0]) + 1e-3)
    bad_row[-1] = ",".join(cells)
    assert bench_oracles.check_spectra(["\n".join(bad_row)], n, m, rows)
    assert bench_oracles.check_spectra(["\n".join(lines[:-1])], n, m, rows)
