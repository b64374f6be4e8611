"""Seeded workloads.  An op is one or two CLI calls; its argv depends
only on the seed and the op's index, and every op of a run has
distinct inputs.  Each workload checks its own output with
`checks` and counts the units of work the output reports."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

from . import checks


@dataclass(frozen=True)
class Op:
    calls: tuple[tuple[str, ...], ...]  # argv of each CLI call, in order
    params: dict                        # what the check needs to know


@dataclass(frozen=True)
class Checked:
    units: int          # work reported by the output
    out_bytes: int      # stdout plus CSV bytes
    problems: list[str]


def op_rng(name: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{index}")


def sub_range(rng: random.Random, lo: float, hi: float, min_width: float) -> tuple[float, float]:
    a = rng.uniform(lo, hi - min_width)
    return a, rng.uniform(a + min_width, hi)


def _num(x: float) -> str:
    return repr(float(x))  # round-trips exactly through argparse's float()


class Sweep:
    """One figure job: `sweep --mode ideal` then `sweep --mode scatter`."""

    name = "sweep"
    unit = "CSV rows"
    cycle = 1

    def __init__(self, points: int = 10001):
        self.points = points

    def make_op(self, seed: int, index: int, workdir: Path) -> Op:
        rng = op_rng(self.name, seed, index)
        ideal = sub_range(rng, 0.0, math.pi / 2, 0.1)
        scatter = sub_range(rng, 0.0, 2.0, 0.1)
        calls = tuple(
            ("sweep", "--mode", mode, "--min", _num(lo), "--max", _num(hi),
             "--points", str(self.points), "--out", str(workdir / f"{mode}.csv"))
            for mode, (lo, hi) in (("ideal", ideal), ("scatter", scatter)))
        return Op(calls, {"ideal": ideal, "scatter": scatter})

    def check(self, op: Op, stdouts: list[str]) -> Checked:
        problems, units, size = [], 0, 0
        for argv, stdout, header, rows_check in (
                (op.calls[0], stdouts[0], checks.IDEAL_HEADER, checks.check_ideal_rows),
                (op.calls[1], stdouts[1], checks.SCATTER_HEADER, checks.check_scatter_rows)):
            path = argv[-1]
            if stdout != f"wrote {self.points} rows to {path}\n":
                problems.append(f"sweep stdout {stdout!r}")
            text = Path(path).read_text(encoding="utf-8")
            size += len(stdout.encode()) + len(text.encode())
            data, bad = checks.read_csv(text, header, self.points, *op.params[argv[2]])
            problems += bad
            if data is not None:
                problems += rows_check(data)
                units += len(data)
        return Checked(units, size, problems)


class Optimal:
    """One `find-optimal --mode ideal` and one `find-optimal --mode scatter`."""

    name = "optimal"
    unit = "queries"
    cycle = 1

    def __init__(self):
        self.roots = checks.scatter_roots(0.0, 2.0)

    def make_op(self, seed: int, index: int, workdir: Path) -> Op:
        rng = op_rng(self.name, seed, index)
        target = rng.uniform(0.5, 0.999)
        ideal = sub_range(rng, 0.0, math.pi / 2, 0.05)
        while True:
            # an end of the range within a hair of a root would leave it
            # undefined whether the root is inside
            scatter = sub_range(rng, 0.01, 2.0, 0.05)
            if all(abs(end - r) > 1e-6 for end in scatter for r in self.roots):
                break
        calls = (
            ("find-optimal", "--mode", "ideal", "--target-e", _num(target),
             "--min", _num(ideal[0]), "--max", _num(ideal[1])),
            ("find-optimal", "--mode", "scatter", "--min", _num(scatter[0]), "--max", _num(scatter[1])),
        )
        return Op(calls, {"target": target, "ideal": ideal, "scatter": scatter})

    def check(self, op: Op, stdouts: list[str]) -> Checked:
        p = op.params
        problems = checks.check_ideal_optimum(stdouts[0], p["target"], *p["ideal"])
        problems += checks.check_scatter_roots(stdouts[1], *p["scatter"])
        return Checked(2, sum(len(s.encode()) for s in stdouts), problems)


class Impurities:
    """One `simulate` run.  Ops cycle through the impurity counts, and
    within each count alternate between the default initial state (one
    up spin) and a seeded product state with several up spins."""

    name = "impurities"
    unit = "pairwise concurrences"

    def __init__(self, sizes: tuple[int, ...] = (10, 11, 12)):
        self.sizes = sizes
        self.cycle = 2 * len(sizes)

    def make_op(self, seed: int, index: int, workdir: Path) -> Op:
        rng = op_rng(self.name, seed, index)
        n = self.sizes[(index % self.cycle) // 2]
        jt = rng.uniform(0.0, math.pi / 2)
        argv = ("simulate", "--impurities", str(n), "--jt", _num(jt))
        if index % 2 == 0:
            return Op((argv,), {"n": n, "jt": jt, "ups": 1})
        electron = rng.choice("ud")
        up_sites = set(rng.sample(range(n), rng.randint(2, max(2, n // 2))))
        impurities = "".join("u" if i in up_sites else "d" for i in range(n))
        ups = len(up_sites) + (electron == "u")
        return Op((argv + ("--initial", f"{electron},{impurities}"),), {"n": n, "jt": jt, "ups": ups})

    def check(self, op: Op, stdouts: list[str]) -> Checked:
        p = op.params
        problems = checks.check_simulate(stdouts[0], p["n"], p["jt"], p["ups"])
        # one off-diagonal entry per ordered pair, per outcome that occurs
        rows = stdouts[0].count("\n    ")
        return Checked(rows * (p["n"] - 1), len(stdouts[0].encode()), problems)


WORKLOADS = {w.name: w for w in (Sweep(), Optimal(), Impurities())}
