"""CLI output against golden files.

The files under tests/data were written by the CLI before the models
were evaluated as arrays, one point at a time; array evaluation and bulk
CSV formatting must reproduce them byte for byte.
"""

from pathlib import Path

import pytest

from spinscatter.cli import main

DATA = Path(__file__).parent / "data"

SWEEPS = [
    ("sweep_ideal.csv", ["--mode", "ideal"]),
    ("sweep_ideal_0.35_0.45.csv", ["--mode", "ideal", "--min", "0.35", "--max", "0.45"]),
    ("sweep_scatter.csv", ["--mode", "scatter"]),
    ("sweep_scatter_0.6_0.7.csv", ["--mode", "scatter", "--min", "0.6", "--max", "0.7"]),
]

PRINTED = [
    ("find_optimal_ideal.txt", ["find-optimal", "--mode", "ideal", "--target-e", "0.99"]),
    ("find_optimal_scatter.txt", ["find-optimal", "--mode", "scatter", "--min", "0.01", "--max", "2"]),
    ("simulate_3.txt", ["simulate", "--impurities", "3", "--jt", "0.3927", "--initial", "u,ddd"]),
]


@pytest.mark.parametrize("golden, args", SWEEPS, ids=[name for name, _ in SWEEPS])
def test_sweep_csv_bytes(golden, args, tmp_path):
    out = tmp_path / golden
    assert main(["sweep", *args, "--points", "1001", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


@pytest.mark.parametrize("golden, argv", PRINTED, ids=[name for name, _ in PRINTED])
def test_stdout_bytes(golden, argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (DATA / golden).read_bytes()
