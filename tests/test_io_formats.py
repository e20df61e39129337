import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oversmooth import (
    GraphFormatError,
    OperatorKind,
    build,
    classify_regime,
    eigendecompose,
    energy_ratio_trace,
    fit_decay,
    propagate,
    superposition,
)
from oversmooth.dynamics import LayerRecord, LayerTrace, PerLayerWeights, PropagationConfig
from oversmooth.energy import AxiomCheckResult
from oversmooth.spectral import SuperpositionMatrix
from oversmooth.io_formats import (
    RunManifest,
    export_axiom_report_json,
    export_matrix_csv,
    export_ratio_csv,
    export_report_json,
    export_spectra_csv,
    export_superposition_csv,
    export_trace_csv,
    find_cora_files,
    find_tu_files,
    g17,
)

from conftest import reference_parse_trace_csv


MANIFEST = RunManifest(
    dataset_id="toy",
    graph_selector="k4",
    config={"layers": 50},
    seed=123,
    tool_version="0.1.0",
    timestamp="2026-01-01T00:00:00+00:00",
)


@pytest.fixture
def manifest():
    return MANIFEST


@pytest.fixture
def k4_trace(k4):
    x0 = np.random.default_rng(0).standard_normal((4, 3))
    _, trace = propagate(k4, x0, PropagationConfig(layers=50))
    return trace


class TestTraceCsv:
    def test_row_counts(self, k4, k4_trace, manifest):
        text = export_trace_csv(k4_trace, manifest)
        data_rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(data_rows) == 52  # header + 51 layers

        x0 = np.ones((4, 2))
        _, single = propagate(k4, x0, PropagationConfig(layers=1))
        text = export_trace_csv(single, manifest)
        data_rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(data_rows) == 3  # header + k=0 + k=1

    def test_round_trip_is_bit_exact(self, k4_trace, manifest):
        text = export_trace_csv(k4_trace, manifest)
        back = reference_parse_trace_csv(text)
        assert back.operator_kind == k4_trace.operator_kind
        assert back.track_volume_constant == k4_trace.track_volume_constant
        assert len(back.records) == len(k4_trace.records)
        for a, b in zip(back.records, k4_trace.records):
            assert a == b  # dataclass equality: floats must round-trip exactly

    def test_manifest_preamble_present(self, k4_trace, manifest):
        text = export_trace_csv(k4_trace, manifest)
        assert text.splitlines()[:6] == [
            "# dataset_id: toy",
            "# graph_selector: k4",
            '# config: {"layers": 50}',
            "# seed: 123",
            "# tool_version: 0.1.0",
            "# timestamp: 2026-01-01T00:00:00+00:00",
        ]

    def test_notes_round_trip(self, k2, manifest):
        _, trace = propagate(k2, np.ones((2, 1)), PropagationConfig(layers=1))
        assert trace.notes
        back = reference_parse_trace_csv(export_trace_csv(trace, manifest))
        assert back.notes == trace.notes

    def test_bad_header_rejected(self):
        with pytest.raises(GraphFormatError):
            reference_parse_trace_csv("# operator_kind: a_norm\nwrong,header\n")

    def test_missing_operator_kind_rejected(self, k4_trace, manifest):
        text = "\n".join(
            l for l in export_trace_csv(k4_trace, manifest).splitlines()
            if not l.startswith("# operator_kind")
        )
        with pytest.raises(GraphFormatError):
            reference_parse_trace_csv(text)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_round_trip_is_bitwise_for_any_finite_values(self, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)  # zeros and subnormals included
        tiny = st.floats(min_value=-2.3e-308, max_value=2.3e-308)
        value = st.one_of(finite, tiny, st.sampled_from([0.0, -0.0, 5e-324]))
        records = tuple(
            LayerRecord(k, *(data.draw(value) for _ in range(4)),
                        data.draw(st.none() | value), data.draw(st.none() | value))
            for k in range(data.draw(st.integers(1, 6)))
        )
        trace = LayerTrace(data.draw(st.sampled_from(list(OperatorKind))), records,
                           data.draw(st.booleans()))
        back = reference_parse_trace_csv(export_trace_csv(trace, MANIFEST))
        assert (back.operator_kind, back.track_volume_constant) == (
            trace.operator_kind, trace.track_volume_constant)
        assert len(back.records) == len(records)
        for got, want in zip(back.records, records):
            for a, b in zip(vars(got).values(), vars(want).values()):
                assert (a is None) == (b is None)
                if a is not None:
                    assert np.float64(a).view(np.int64) == np.float64(b).view(np.int64)

    def test_determinism(self, k4_trace, manifest):
        assert export_trace_csv(k4_trace, manifest) == export_trace_csv(k4_trace, manifest)


class TestReportJson:
    def test_schema_and_exact_round_trip(self, k4_trace, manifest):
        verdict = classify_regime(k4_trace)
        fit = fit_decay([(k, 2.0 * np.exp(-0.5 * k)) for k in range(10)])
        text = export_report_json(verdict, {"e_delta_norm": fit}, manifest)
        doc = json.loads(text)
        assert doc["verdict"]["over_smoothing"] in (True, False)
        assert doc["verdict"]["over_shrinking"] in (True, False)
        assert doc["fits"]["e_delta_norm"]["c1"] == fit.c1
        assert doc["fits"]["e_delta_norm"]["c2"] == fit.c2
        assert doc["manifest"]["dataset_id"] == "toy"

    def test_false_flags_serialized_explicitly(self, k4, manifest):
        _, trace = propagate(k4, np.zeros((4, 2)), PropagationConfig(layers=1))
        doc = json.loads(export_report_json(classify_regime(trace), {}, manifest))
        assert doc["verdict"]["over_smoothing"] is False
        assert doc["verdict"]["over_shrinking"] is False


class TestAxiomReportJson:
    def test_fields(self, manifest):
        result = AxiomCheckResult(holds=False, witness=np.ones((2, 1)), note="constant")
        doc = json.loads(
            export_axiom_report_json("delta-norm", result, True, 42, {"axiom1_tol": 1e-8},
                                     manifest)
        )
        assert doc["operator_kind"] == "delta-norm"
        assert doc["holds_axiom1"] is False
        assert doc["holds_axiom2"] is True
        assert doc["witness_signal"] == [[1.0], [1.0]]
        assert doc["seed"] == 42


class TestOtherExports:
    def test_ratio_csv_cut_layer(self, k4, manifest):
        x0 = np.random.default_rng(0).standard_normal((4, 3))
        _, trace = propagate(k4, x0, PropagationConfig(layers=50))
        ratio = energy_ratio_trace(trace)
        text = export_ratio_csv(ratio, manifest)
        assert f"# cut_layer: {ratio.cut_layer}" in text
        rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert rows[0] == "k,ratio"
        assert len(rows) == 1 + len(ratio.points)

    def test_spectra_csv(self, p3, manifest):
        dec = eigendecompose(build(p3, OperatorKind.UNNORMALIZED_LAPLACIAN))
        text = export_spectra_csv(dec, manifest)
        rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert rows[0] == "index,eigenvalue"
        values = [float(r.split(",")[1]) for r in rows[1:]]
        np.testing.assert_allclose(values, dec.eigenvalues)

    def test_matrix_csv_round_trip(self, pendant_triangle, manifest):
        m = build(pendant_triangle, OperatorKind.NORMALIZED_LAPLACIAN).matrix
        text = export_matrix_csv(m, manifest)
        rows = [[float(c) for c in l.split(",")]
                for l in text.strip().splitlines() if not l.startswith("#")]
        np.testing.assert_array_equal(np.array(rows), m)

    def test_matrix_rows_equal_per_value_formatting(self, manifest):
        big, tiny = np.finfo(float).max, np.finfo(float).tiny
        m = np.array([[0.0, -0.0, 5e-324, -5e-324], [big, -big, tiny, 1.0 / 3.0],
                      [np.pi, -1e-300, 1e300, 0.1]])
        want = "".join(",".join(g17(float(v)) for v in row) + "\n" for row in m)
        preamble = "".join(line + "\n" for line in manifest.preamble_lines())
        assert export_matrix_csv(m, manifest) == preamble + want
        sup = SuperpositionMatrix(entries=m, row_basis_kind=OperatorKind.NORMALIZED_LAPLACIAN,
                                  col_basis_kind=OperatorKind.UNNORMALIZED_LAPLACIAN)
        assert export_superposition_csv(sup, manifest).endswith("# col_basis_kind: delta\n" + want)
        assert "-0," in want and "4.9406564584124654e-324" in want

    @pytest.mark.parametrize("export", [
        export_matrix_csv,
        lambda m, manifest: export_superposition_csv(SuperpositionMatrix(
            entries=m, row_basis_kind=OperatorKind.NORMALIZED_LAPLACIAN,
            col_basis_kind=OperatorKind.UNNORMALIZED_LAPLACIAN), manifest),
    ], ids=["matrix", "superposition"])
    def test_matrix_text_is_joined_once(self, export, manifest):
        # the rows plus one joined copy: a second full copy of the text would pass 3x
        m = np.random.default_rng(0).standard_normal((400, 400))
        tracemalloc.start()
        try:
            text = export(m, manifest)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(text)

    def test_superposition_csv(self, pendant_triangle, manifest):
        a = eigendecompose(build(pendant_triangle, OperatorKind.NORMALIZED_LAPLACIAN))
        b = eigendecompose(build(pendant_triangle, OperatorKind.UNNORMALIZED_LAPLACIAN))
        sup = superposition(a, b)
        text = export_superposition_csv(sup, manifest)
        assert "# row_basis_kind: delta_norm" in text
        assert "# col_basis_kind: delta" in text

    def test_g17_round_trips_doubles(self):
        for x in (1.0 / 3.0, 1e-290, 6.0 - 4.0 * np.sqrt(2.0), 12345.678901234567):
            assert float(g17(x)) == x


class TestFileDiscovery:
    def test_find_tu_files_flat(self, synthetic_enzymes_dir):
        files = find_tu_files(synthetic_enzymes_dir)
        assert set(files) == {"adjacency", "indicator", "attributes"}

    def test_find_tu_files_in_subdirectory(self, tmp_path, synthetic_enzymes_dir):
        sub = tmp_path / "root" / "ENZYMES"
        sub.mkdir(parents=True)
        for f in synthetic_enzymes_dir.iterdir():
            (sub / f.name).write_text(f.read_text())
        files = find_tu_files(tmp_path / "root")
        assert files["adjacency"] == sub / "ENZYMES_A.txt"

    def test_attributes_optional(self, synthetic_enzymes_dir):
        (synthetic_enzymes_dir / "ENZYMES_node_attributes.txt").unlink()
        files = find_tu_files(synthetic_enzymes_dir)
        assert "attributes" not in files

    def test_missing_required_files_raise(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="ENZYMES_A.txt"):
            find_tu_files(tmp_path)

    def test_find_cora_files(self, tmp_path):
        (tmp_path / "cora.content").write_text("a 1.0 labelA\n")
        (tmp_path / "cora.cites").write_text("")
        files = find_cora_files(tmp_path)
        assert set(files) == {"content", "cites"}
        with pytest.raises(FileNotFoundError):
            find_cora_files(tmp_path / "nope")
