import math

import numpy as np
import pytest

from spinscatter.cli import _csv, _fmt, main
from spinscatter.entanglement import eof_from_concurrence
from spinscatter.ideal import best_probability_at_entanglement, ideal_point
from spinscatter.scattering import find_max_entanglement, scatter_point


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    return header, rows


class TestSweep:
    def test_ideal_three_points(self, tmp_path):
        out = tmp_path / "ideal.csv"
        code = main(["sweep", "--mode", "ideal", "--points", "3", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["x", "P", "C", "E"]
        xs = [r[0] for r in rows]
        # x values carry 12 significant digits
        assert xs == pytest.approx([0.0, math.pi / 4, math.pi / 2], abs=1e-11)
        assert [r[1] for r in rows] == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)
        assert [r[3] for r in rows] == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)

    def test_scatter_zero_coupling_row(self, tmp_path):
        out = tmp_path / "scatter.csv"
        code = main(["sweep", "--mode", "scatter", "--points", "2", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["x", "P", "C", "E", "abs_A", "abs_B", "abs_C", "P_up"]
        assert rows[0] == [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0]

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["sweep", "--mode", "scatter", "--points", "101",
                         "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_eof_column_roundtrips_from_concurrence(self, tmp_path):
        out = tmp_path / "r.csv"
        main(["sweep", "--mode", "ideal", "--points", "101", "--out", str(out)])
        _, rows = read_csv(out)
        for _, _, c, e in rows:
            assert abs(eof_from_concurrence(c) - e) <= 1e-9

    def test_invalid_range_exits_1(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--mode", "ideal", "--min", "1.0", "--max", "0.5",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 1

    def test_too_few_points_exits_1(self, tmp_path):
        code = main(["sweep", "--mode", "ideal", "--points", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_unwritable_path_exits_2(self, tmp_path):
        code = main(["sweep", "--mode", "ideal", "--points", "3",
                     "--out", str(tmp_path / "missing_dir" / "x.csv")])
        assert code == 2

    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--mode", "bogus", "--out", "x.csv"])
        assert exc.value.code == 1

    def test_bulk_format_matches_fmt(self):
        values = [0.0, -0.0, 1.0, -2.5, 1 / 3, 1e-300, 5e-324, 1.7976931348623157e308,
                  123456789012.5, 0.1 + 0.2, float("nan"), float("inf"), float("-inf")]
        columns = (np.array(values), np.array(values[::-1]))
        expected = "h\n" + "".join(f"{_fmt(a)},{_fmt(b)}\n" for a, b in zip(*columns))
        assert _csv("h", columns) == expected


class TestLibraryErrors:
    """Values argparse accepts but the models reject: one error line, exit 1."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--mode", "scatter", "--min", "-1", "--points", "3", "--out", "x.csv"],
        ["find-optimal", "--mode", "scatter", "--max", "3"],
        ["simulate", "--impurities", "2", "--jt", "nan"],
        ["sweep", "--mode", "scatter", "--max", "1e30", "--points", "3", "--out", "x.csv"],
    ], ids=["negative-coupling", "range-beyond-series", "nan-angle", "series-overflow"])
    @pytest.mark.filterwarnings("ignore:.*outside the series validity range")
    def test_one_error_line(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not (tmp_path / "x.csv").exists()


class TestFindOptimal:
    def test_scatter_reports_roots(self, capsys):
        assert main(["find-optimal", "--mode", "scatter",
                     "--min", "0.01", "--max", "2"]) == 0
        out = capsys.readouterr().out
        roots = find_max_entanglement(0.01, 2.0)
        assert len(roots) >= 1
        for j in roots:
            assert f"{j:.12g}" in out
            assert f"{scatter_point(j).p_down:.12g}" in out

    def test_scatter_none_found(self, capsys):
        assert main(["find-optimal", "--mode", "scatter",
                     "--min", "1.0", "--max", "2.0"]) == 0
        assert "none found" in capsys.readouterr().out

    def test_ideal_reports_best_probability(self, capsys):
        assert main(["find-optimal", "--mode", "ideal", "--target-e", "0.84"]) == 0
        out = capsys.readouterr().out
        best = best_probability_at_entanglement(0.84)
        assert f"{best.p_down:.12g}" in out

    def test_ideal_requires_target(self):
        assert main(["find-optimal", "--mode", "ideal"]) == 1


class TestSimulate:
    def test_consistent_with_ideal_sweep(self, capsys):
        jt = 0.3
        assert main(["simulate", "--impurities", "2", "--jt", str(jt),
                     "--initial", "u,dd"]) == 0
        out = capsys.readouterr().out
        point = ideal_point(jt)
        assert f"electron spin-down probability: {point.p_down:.12g}" in out
        assert f"{point.concurrence:.12g}" in out

    def test_single_impurity_swap(self, capsys):
        assert main(["simulate", "--impurities", "1",
                     "--jt", str(math.pi / 4)]) == 0
        out = capsys.readouterr().out
        assert "electron spin-down probability: 1" in out
        assert "never occurs" in out  # spin-up branch is impossible

    def test_identity_evolution(self, capsys):
        assert main(["simulate", "--impurities", "3", "--jt", "0",
                     "--initial", "u,ddd"]) == 0
        out = capsys.readouterr().out
        assert "|uddd>" in out
        assert "electron spin-up probability: 1" in out
        # every printed concurrence is zero
        for line in out.splitlines():
            if line.startswith("    "):
                assert all(float(tok) == 0.0 for tok in line.split())

    def test_malformed_initial_exits_1(self):
        assert main(["simulate", "--impurities", "2", "--jt", "0.1",
                     "--initial", "u,d"]) == 1
        assert main(["simulate", "--impurities", "2", "--jt", "0.1",
                     "--initial", "x,dd"]) == 1

    def test_impurity_count_bounds(self):
        assert main(["simulate", "--impurities", "0", "--jt", "0.1"]) == 1
        assert main(["simulate", "--impurities", "13", "--jt", "0.1"]) == 1
