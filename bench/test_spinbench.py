"""Tests of the benchmark itself: tiny runs of every workload, the result
schema, the output checks and the exit status without sources.  No test
asserts a timing."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from spinbench import checks, harness, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "sweep": workloads.Sweep(points=101),
    "optimal": workloads.Optimal(),
    "impurities": workloads.Impurities(sizes=(3, 4)),
}

# span name -> workloads on which that layer must stay idle
IDLE = {
    "ideal.sweep": {"impurities"},
    "ideal.optimum": {"sweep", "impurities"},
    "scattering.sweep": {"optimal", "impurities"},
    "scattering.roots": {"sweep", "impurities"},
    "scattering.point": {"sweep", "impurities"},
    "ideal.simulate": {"sweep", "optimal"},
    "core.measure": {"sweep", "optimal"},
    "core.partial_trace": {"sweep", "optimal"},
    "entanglement.concurrence": {"sweep", "optimal"},
}


def tiny_run(name, trace, tmp_path):
    # traced runs need one traced block; untraced ones a tail percentile
    min_ops = 2 * TINY[name].cycle if trace else harness.TAIL_BEYOND + 1
    return harness.run(TINY[name], 7, 0.0, trace, ROOT, out_dir=tmp_path, setup_runs=1, min_ops=min_ops)


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


# An untraced optimal run would need 11 ops of 0.2 s each for its tail;
# the end-to-end code path is the same for every workload.
@pytest.mark.parametrize("name, trace", [
    ("sweep", False), ("impurities", False), ("sweep", True), ("optimal", True), ("impurities", True)])
def test_tiny_run_schema(name, trace, tmp_path):
    result, report = tiny_run(name, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["problems"]
    assert result["attempted"] >= 3
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: m["unit"] for k, m in result["metrics"].items()}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        calls = report["layer_calls"]
        assert calls["cli.main"] > 0
        assert [s for s, idle_on in IDLE.items() if name in idle_on and calls[s]] == []
        assert (tmp_path / f"spans-{name}.csv").is_file()
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert {k: m["unit"] for k, m in report["ungated"].items()} == harness.UNGATED_UNITS
        assert all(m["value"] > 0 for m in report["ungated"].values())


def test_ops_depend_only_on_seed_and_index(tmp_path):
    for w in workloads.WORKLOADS.values():
        ops = [w.make_op(5, i, tmp_path).calls for i in range(12)]
        assert ops == [w.make_op(5, i, tmp_path).calls for i in range(12)]
        assert len(set(ops)) == len(ops)
        assert ops[0] != w.make_op(6, 0, tmp_path).calls


def test_tail_percentile():
    samples = [float(i) for i in range(1, 101)]
    assert harness.tail(samples) == (90.0, 90)
    assert harness.tail(samples[:11]) == (1.0, 9)
    with pytest.raises(ValueError):
        harness.tail(samples[:10])


def test_references_match_known_values():
    # ROADMAP: best P at E >= 0.99 on [0, pi/2], and the one nontrivial root
    assert checks.ideal_optimum(0.99, 0.0, math.pi / 2) == pytest.approx(0.3766244033, abs=1e-9)
    assert checks.scatter_roots(0.01, 2.0) == pytest.approx([0.663834956275875], abs=1e-12)
    assert checks.scatter_roots(0.7, 2.0) == []


def _corrupt_csv(op, stdouts):
    path = Path(op.calls[1][-1])
    lines = path.read_text().split("\n")
    fields = lines[40].split(",")
    fields[1] = format(float(fields[1]) + 1e-6, ".12g")  # one P value
    lines[40] = ",".join(fields)
    path.write_text("\n".join(lines))
    return stdouts


def _wrong_root(op, stdouts):
    line = stdouts[1].split("\n")[0]
    assert line.startswith("j_rho = ")
    value = line.split()[2]
    return [stdouts[0], stdouts[1].replace(value, format(float(value) + 1e-6, ".12g"), 1)]


def _wrong_concurrence(op, stdouts):
    lines = stdouts[0].split("\n")
    row = next(i for i, ln in enumerate(lines) if ln.startswith("    ") and float(ln.split()[1]))
    values = lines[row].split()
    values[1] = format(float(values[1]) * 0.999, ".12g")
    lines[row] = "    " + " ".join(values)
    return ["\n".join(lines)]


class _Tampered:
    """A workload whose op is fixed and whose output is altered before the check."""

    cycle = 1

    def __init__(self, base, calls, params, tamper):
        self.base, self.tamper = base, tamper
        self.op_ = workloads.Op(calls, params)

    def make_op(self, seed, index, workdir):
        return self.op_

    def check(self, op, stdouts):
        return self.base.check(op, self.tamper(op, stdouts) if self.tamper else stdouts)


def _tampered(kind, tmp_path, tamper):
    if kind == "csv":
        op = workloads.Sweep(points=101).make_op(1, 0, tmp_path)
        return _Tampered(workloads.Sweep(points=101), op.calls, op.params, tamper)
    if kind == "root":
        calls = (("find-optimal", "--mode", "ideal", "--target-e", "0.9", "--min", "0.1", "--max", "0.5"),
                 ("find-optimal", "--mode", "scatter", "--min", "0.5", "--max", "0.9"))
        params = {"target": 0.9, "ideal": (0.1, 0.5), "scatter": (0.5, 0.9)}
        return _Tampered(workloads.Optimal(), calls, params, tamper)
    calls = (("simulate", "--impurities", "4", "--jt", "0.37"),)
    return _Tampered(workloads.Impurities(), calls, {"n": 4, "jt": 0.37, "ups": 1}, tamper)


@pytest.mark.parametrize("kind, tamper", [
    ("csv", _corrupt_csv), ("root", _wrong_root), ("concurrence", _wrong_concurrence)])
def test_wrong_output_counts_as_failure(kind, tamper, tmp_path):
    clean = harness.Run(_tampered(kind, tmp_path, None), 1, ROOT, tmp_path, trace=False)
    clean.op(0, traced=False)
    assert clean.failed == 0, clean.problems
    bad = harness.Run(_tampered(kind, tmp_path, tamper), 1, ROOT, tmp_path, trace=False)
    bad.op(0, traced=False)
    assert (bad.attempted, bad.failed) == (1, 1)


def test_multi_excitation_checks_catch_asymmetry():
    cli = harness.load_library(ROOT)[0]
    argv = ("simulate", "--impurities", "4", "--jt", "0.6", "--initial", "d,uudd")
    code, out, err, _ = harness.call_cli(cli.main, argv)
    assert (code, err) == (0, "")
    assert checks.check_simulate(out, 4, 0.6, 2) == []
    lines = out.split("\n")
    row = next(i for i, ln in enumerate(lines) if ln.startswith("    "))
    values = lines[row].split()
    values[2] = "0.5" if values[2] != "0.5" else "0.25"
    lines[row] = "    " + " ".join(values)
    assert checks.check_simulate("\n".join(lines), 4, 0.6, 2)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
