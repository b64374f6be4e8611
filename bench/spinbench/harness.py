"""Closed-loop harness: one client, one op at a time, in one process.

`run` measures set-up in fresh interpreters, runs one warm-up op, then
runs ops until their summed latency reaches the time budget, checking
every output.  Untraced runs give the end-to-end metrics.  Traced runs
alternate blocks of untraced and traced ops; the traced ones give the
per-layer metrics and the difference of the two medians is the
tracing overhead.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
import warnings
from collections import defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from .spans import SPAN_NAMES, Tracer, installed

SETUP_RUNS = 8
MIN_OPS = 20
TAIL_BEYOND = 10  # samples the tail percentile must leave above it

END_TO_END_UNITS = {
    "setup_s": "s",
    "call_s_tail": "s",
    "peak_rss_mb": "MiB",
}

# Printed in the report but not in the result line: on a shared host
# they follow how much of the run the CPU ran at its uncontended speed,
# which differs by more than any useful bound from one run to the next.
UNGATED_UNITS = {
    "call_s_p50": "s",
    "work_per_s": "1/s",
}

LAYER_UNITS = {
    "setup.numpy_s": "s",
    "setup.package_s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "ideal.sweep_s": "s",
    "ideal.sweep_points": "count",
    "ideal.us_per_point": "us",
    "ideal.optimum_s": "s",
    "ideal.optimum_found_ratio": "ratio",
    "scattering.sweep_s": "s",
    "scattering.sweep_points": "count",
    "scattering.us_per_point": "us",
    "scattering.roots_s": "s",
    "scattering.roots_per_query": "count",
    "scattering.point_s": "s",
    "ideal.simulate_s": "s",
    "core.measure_s": "s",
    "core.partial_trace_s": "s",
    "core.partial_trace_calls": "count",
    "entanglement.concurrence_s": "s",
    "entanglement.concurrence_calls": "count",
    "entanglement.us_per_call": "us",
    "trace.overhead_s": "s",
}

# Interpreter start to a built parser, as every CLI invocation pays it.
_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy
t1 = time.perf_counter()
import spinscatter.cli
spinscatter.cli.build_parser()
print(t0, t1, time.perf_counter())
"""


class MissingLibrary(RuntimeError):
    pass


def load_library(root: Path):
    """Import spinscatter from root/src, never from an installed copy."""
    src = (root / "src").resolve()
    if not (src / "spinscatter" / "cli.py").is_file():
        raise MissingLibrary(f"no spinscatter sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from spinscatter import cli, core, ideal, scattering

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise MissingLibrary(f"spinscatter imported from {cli.__file__}, not {src}")
    return cli, ideal, scattering, core


def environment(root: Path) -> dict:
    import numpy

    src = root / "src" / "spinscatter"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": _git_commit(root),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def _git_commit(root: Path) -> str:
    """HEAD of root/.git, read without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(root: Path) -> tuple[float, float, float]:
    """(setup_s, numpy_s, package_s) of one fresh interpreter."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(root / "src")],
                          cwd=root, capture_output=True, text=True, timeout=120, check=True)
    t0, t1, t2 = (float(v) for v in proc.stdout.split())
    return t2 - start, t1 - t0, t2 - t1


def call_cli(main, argv) -> tuple[object, str, str, float]:
    """(exit code, stdout, stderr and warnings, seconds) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        start = perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # noqa: BLE001 - a crash is a failed op, not a failed run
            code = None
            err.write(traceback.format_exc())
        elapsed = perf_counter() - start
    return code, out.getvalue(), err.getvalue() + "".join(str(w.message) for w in caught), elapsed


def tail(samples: list[float]) -> tuple[float, int]:
    """Value at the highest whole percentile with TAIL_BEYOND samples above it (nearest rank)."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave no percentile with {TAIL_BEYOND} beyond it")
    pct = 100 * (n - TAIL_BEYOND) // n
    return sorted(samples)[math.ceil(pct * n / 100) - 1], pct


class Run:
    def __init__(self, workload, seed: int, root: Path, workdir: Path, trace: bool):
        self.workload, self.seed, self.root, self.workdir = workload, seed, root, workdir
        self.cli, self.ideal, self.scattering, self.core = load_library(root)
        self.tracer = Tracer() if trace else None
        if trace:
            self.traced_main = self.tracer.wrap("cli.main", self.cli.main)
            self.patches = self.tracer.patches(self.cli, self.ideal, self.scattering, self.core)
        self.latency: dict[bool, list[float]] = {False: [], True: []}
        self.out_bytes: dict[int, int] = {}
        self.units = 0
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.setups: list[tuple[float, float, float]] = []
        self._seen: set = set()

    def op(self, index: int, traced: bool) -> float:
        """Run and check one op; returns its latency."""
        op = self.workload.make_op(self.seed, index, self.workdir)
        problems = [] if op.calls not in self._seen else ["repeated op inputs"]
        self._seen.add(op.calls)
        main, ctx = self.cli.main, nullcontext()
        if traced:
            self.tracer.op_id = index
            main = self.traced_main
            ctx = installed(self.patches)
        latency, stdouts = 0.0, []
        with ctx:
            for argv in op.calls:
                code, out, err, elapsed = call_cli(main, argv)
                latency += elapsed
                stdouts.append(out)
                if code != 0 or err:
                    problems.append(f"{' '.join(argv)}: exit {code!r}, stderr {err[-300:]!r}")
        if not problems:
            try:
                checked = self.workload.check(op, stdouts)
            except (ValueError, KeyError, IndexError, OSError) as exc:
                problems.append(f"output check crashed: {exc!r}")
            else:
                problems += checked.problems
                self.units += checked.units
                self.out_bytes[index] = checked.out_bytes
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"op {index}: {p}" for p in problems]
        return latency

    def loop(self, seconds: float, min_ops: int, setup_runs: int) -> float:
        """Ops until their summed latency reaches `seconds`; returns that sum.

        The set-up measurements are spread evenly over the loop, so that
        they and the ops see the same share of any outside load.
        """
        self.op(-1, traced=False)  # warm-up, checked but not timed
        busy, index = 0.0, 0
        cycle = self.workload.cycle
        while busy < seconds or index < min_ops:
            if len(self.setups) < setup_runs and busy >= len(self.setups) * seconds / setup_runs:
                self.setups.append(measure_setup(self.root))
            traced = self.tracer is not None and (index // cycle) % 2 == 1
            latency = self.op(index, traced)
            self.latency[traced].append(latency)
            busy += latency
            index += 1
        while len(self.setups) < setup_runs:
            self.setups.append(measure_setup(self.root))
        return busy

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-layer medians over traced ops, and total calls per span name."""
        per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        calls: dict[str, int] = defaultdict(int)
        counts: dict[str, int] = defaultdict(int)
        children: dict[int, float] = defaultdict(float)
        point_calls = []  # cli makes one only per root found, so most ops have none
        mains = []
        for op, span, parent, name, start, end, count in self.tracer.spans():
            if op < 0:
                continue
            if parent >= 0:
                children[parent] += end - start
            if name == "cli.main":
                mains.append((op, span, end - start))
            elif name == "scattering.point":
                point_calls.append(end - start)
            per_op[op][name] += end - start
            per_op[op][name + ".count"] += count
            per_op[op][name + ".calls"] += 1
            calls[name] += 1
            counts[name] += count
        for op, span, duration in mains:
            per_op[op]["cli.self"] += duration - children[span]

        traced_ops = sorted(per_op)

        def med(fn) -> float:
            return statistics.median(fn(per_op[op]) for op in traced_ops)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        m = {
            "cli.self_s": med(lambda o: o["cli.self"]),
            "cli.out_bytes": statistics.median(self.out_bytes.get(op, 0) for op in traced_ops),
            "ideal.sweep_s": med(lambda o: o["ideal.sweep"]),
            "ideal.sweep_points": med(lambda o: o["ideal.sweep.count"]),
            "ideal.us_per_point": med(lambda o: 1e6 * ratio(o["ideal.sweep"], o["ideal.sweep.count"])),
            "ideal.optimum_s": med(lambda o: o["ideal.optimum"]),
            "ideal.optimum_found_ratio": ratio(counts["ideal.optimum"], calls["ideal.optimum"]),
            "scattering.sweep_s": med(lambda o: o["scattering.sweep"]),
            "scattering.sweep_points": med(lambda o: o["scattering.sweep.count"]),
            "scattering.us_per_point": med(
                lambda o: 1e6 * ratio(o["scattering.sweep"], o["scattering.sweep.count"])),
            "scattering.roots_s": med(lambda o: o["scattering.roots"]),
            "scattering.roots_per_query": ratio(counts["scattering.roots"], calls["scattering.roots"]),
            "scattering.point_s": statistics.median(point_calls) if point_calls else 0.0,
            "ideal.simulate_s": med(lambda o: o["ideal.simulate"]),
            "core.measure_s": med(lambda o: o["core.measure"]),
            "core.partial_trace_s": med(lambda o: o["core.partial_trace"]),
            "core.partial_trace_calls": med(lambda o: o["core.partial_trace.calls"]),
            "entanglement.concurrence_s": med(lambda o: o["entanglement.concurrence"]),
            "entanglement.concurrence_calls": med(lambda o: o["entanglement.concurrence.calls"]),
            "entanglement.us_per_call": med(lambda o: 1e6 * ratio(
                o["entanglement.concurrence"], o["entanglement.concurrence.calls"])),
            "trace.overhead_s": statistics.median(self.latency[True]) - statistics.median(self.latency[False]),
        }
        return m, {name: calls[name] for name in SPAN_NAMES}


def run(workload, seed: int, seconds: float, trace: bool, root: Path, out_dir: Path | None = None,
        setup_runs: int = SETUP_RUNS, min_ops: int = MIN_OPS) -> tuple[dict, dict]:
    """Returns (result, report): the result line's object and the details behind it.

    Reports, spans and the sweep CSVs go to out_dir, by default root/.bench_out.
    """
    load_library(root)  # fail before writing anything
    out_dir = out_dir or root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        r = Run(workload, seed, root, workdir, trace)
        busy = r.loop(seconds, min_ops, setup_runs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(root),
        "ops": r.attempted, "timed_ops": len(r.latency[False]) + len(r.latency[True]),
        "failed_ratio": r.failed / r.attempted,
        "problems": r.problems[:20],
    }
    if trace:
        values, calls = r.layer_metrics()
        values["setup.numpy_s"] = statistics.median(s[1] for s in r.setups)
        values["setup.package_s"] = statistics.median(s[2] for s in r.setups)
        units = LAYER_UNITS
        report["layer_calls"] = calls
        report["traced_ops"] = len(r.latency[True])
        spans_path = out_dir / f"spans-{workload.name}.csv"
        r.tracer.write(spans_path)
        report["spans_file"] = str(spans_path)
    else:
        samples = r.latency[False]
        tail_value, tail_pct = tail(samples)
        values = {
            "setup_s": statistics.median(s[0] for s in r.setups),
            "call_s_p50": statistics.median(samples),
            "call_s_tail": tail_value,
            "work_per_s": r.units / busy,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        report["tail"] = f"p{tail_pct} of {len(samples)} samples"
        report["work_unit"] = workload.unit
        report["ungated"] = {k: {"value": values[k], "unit": u} for k, u in UNGATED_UNITS.items()}
    result = {
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    report["metrics"] = result["metrics"]
    (out_dir / f"report-{workload.name}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1) + "\n")
    return result, report
