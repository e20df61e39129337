import runpy
from pathlib import Path

from conftest import write_synthetic_enzymes

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_make_toy_enzymes_matches_library_generator(tmp_path, capsys):
    assert runpy.run_path(str(SCRIPTS / "make_toy_enzymes.py"))["main"]([str(tmp_path / "a")]) == 0
    write_synthetic_enzymes(tmp_path / "b")
    for name in ("ENZYMES_A.txt", "ENZYMES_graph_indicator.txt", "ENZYMES_node_attributes.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_figures_skips_fig3_without_cora(synthetic_enzymes_dir, tmp_path, capsys):
    main = runpy.run_path(str(SCRIPTS / "run_figures.py"))["main"]
    assert main(["--data-dir", str(synthetic_enzymes_dir), "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "fig3: skipped (exit 1)" in out
    assert "done: 5/6 experiments completed" in out
