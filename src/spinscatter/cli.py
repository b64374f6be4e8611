"""Command-line front end.

Subcommands:
  sweep         write a CSV curve of probability/entanglement vs the
                control parameter (ideal: jt on [0, pi/2]; scatter:
                j_rho on [0, 2])
  find-optimal  locate optimal operating points (scatter: couplings
                with concurrence 1; ideal: best success probability at
                a target entanglement)
  simulate      run the sequential model for N impurities and report
                amplitudes, measurement probabilities and pairwise
                impurity concurrences

Exit codes: 0 success (including "none found"), 1 usage error, 2 I/O
error.  Output is deterministic: identical flags give byte-identical
files.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import core, ideal, scattering
from .entanglement import concurrence_mixed

IDEAL_RANGE = (0.0, math.pi / 2)
SCATTER_RANGE = scattering.SERIES_RANGE
DEFAULT_POINTS = 1001

AMP_PRINT_CUTOFF = 1e-12


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for I/O.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinscatter", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="write a probability/entanglement curve as CSV")
    sweep.add_argument("--mode", choices=["ideal", "scatter"], required=True)
    sweep.add_argument("--min", type=float, default=None, help="lower end of the grid")
    sweep.add_argument("--max", type=float, default=None, help="upper end of the grid")
    sweep.add_argument("--points", type=int, default=DEFAULT_POINTS)
    sweep.add_argument("--out", required=True, help="output CSV path")

    find = sub.add_parser("find-optimal", help="locate optimal operating points")
    find.add_argument("--mode", choices=["ideal", "scatter"], required=True)
    find.add_argument("--min", type=float, default=None)
    find.add_argument("--max", type=float, default=None)
    find.add_argument("--target-e", type=float, default=None,
                      help="ideal mode: minimum entanglement of formation")

    sim = sub.add_parser("simulate", help="sequential model for N impurities")
    sim.add_argument("--impurities", type=int, required=True)
    sim.add_argument("--jt", type=float, required=True)
    sim.add_argument("--initial", default=None,
                     help="spin string 'u,ddd' (electron, impurities); "
                          "default electron up, impurities down")

    return parser


def _default_range(mode: str) -> tuple[float, float]:
    return IDEAL_RANGE if mode == "ideal" else SCATTER_RANGE


def _resolve_range(args) -> tuple[float, float]:
    lo, hi = _default_range(args.mode)
    if args.min is not None:
        lo = args.min
    if args.max is not None:
        hi = args.max
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        print(f"error: invalid range [{lo}, {hi}]", file=sys.stderr)
        raise SystemExit(1)
    return lo, hi


def _csv(header: str, columns) -> str:
    """CSV text with one row per position in the columns.  "%.12g" gives
    the same string as `_fmt` (format(x, ".12g")), -0, nan and inf
    included, at about half the cost per value."""
    row = ",".join(["%.12g"] * len(columns))
    lines = [header] + [row % values for values in zip(*(c.tolist() for c in columns))]
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    lo, hi = _resolve_range(args)
    if args.points < 2:
        print("error: --points must be at least 2", file=sys.stderr)
        return 1
    grid = np.linspace(lo, hi, args.points)

    if args.mode == "ideal":
        p = ideal.sweep_ideal(grid)
        text = _csv("x,P,C,E", (p.jt, p.p_down, p.concurrence, p.eof))
    else:
        p = scattering.sweep_scatter(grid)
        text = _csv("x,P,C,E,abs_A,abs_B,abs_C,P_up", (
            p.j_rho, p.p_down, p.concurrence, p.eof, p.abs_a, p.abs_b, p.abs_c, p.p_up))

    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {grid.size} rows to {args.out}")
    return 0


def cmd_find_optimal(args) -> int:
    lo, hi = _resolve_range(args)
    if args.mode == "scatter":
        roots = scattering.find_max_entanglement(max(lo, 0.0), hi)
        if not roots:
            print("none found")
            return 0
        for j in roots:
            p = scattering.scatter_point(j)
            print(f"j_rho = {_fmt(j)}  C = {_fmt(p.concurrence)}  "
                  f"P = {_fmt(p.p_down)}  E = {_fmt(p.eof)}")
        return 0

    if args.target_e is None:
        print("error: ideal mode requires --target-e", file=sys.stderr)
        return 1
    if not 0.0 <= args.target_e <= 1.0:
        print("error: --target-e must lie in [0, 1]", file=sys.stderr)
        return 1
    best = ideal.best_probability_at_entanglement(args.target_e, lo, hi)
    if best is None:
        print("none found")
        return 0
    print(f"jt = {_fmt(best.jt)}  P = {_fmt(best.p_down)}  "
          f"C = {_fmt(best.concurrence)}  E = {_fmt(best.eof)}")
    return 0


def _parse_initial(spec: str, n_impurities: int) -> np.ndarray:
    parts = spec.split(",")
    if len(parts) != 2 or len(parts[0]) != 1 or len(parts[1]) != n_impurities:
        raise ValueError(f"initial spec {spec!r} does not match 1 electron + "
                         f"{n_impurities} impurities")
    return core.basis_state(parts[0] + parts[1])


def _bits(index: int, n: int) -> str:
    return "".join("d" if (index >> (n - 1 - i)) & 1 else "u" for i in range(n))


def cmd_simulate(args) -> int:
    n = args.impurities
    if not 1 <= n <= 12:
        print("error: --impurities must be in [1, 12]", file=sys.stderr)
        return 1
    if args.initial is None:
        psi0 = ideal.initial_state(n)
    else:
        psi0 = _parse_initial(args.initial, n)

    psi = ideal.simulate_sequential(psi0, args.jt, n)
    n_sites = n + 1

    print(f"final state ({n} impurities, jt = {_fmt(args.jt)}):")
    for idx, amp in enumerate(psi):
        if abs(amp) > AMP_PRINT_CUTOFF:
            print(f"  |{_bits(idx, n_sites)}>  {_fmt(amp.real)}{amp.imag:+.12g}j"
                  f"  (|amp| = {_fmt(abs(amp))})")

    for outcome, label in ((core.UP, "up"), (core.DOWN, "down")):
        sel = [slice(None)] * n_sites
        sel[0] = outcome
        prob = float(np.sum(np.abs(psi.reshape([2] * n_sites)[tuple(sel)]) ** 2))
        print(f"electron spin-{label} probability: {_fmt(prob)}")
        if prob < core.IMPOSSIBLE_OUTCOME:
            print(f"  (outcome spin-{label} never occurs; skipped)")
            continue
        _, post = core.measure_site(psi, 0, outcome)
        print(f"  pairwise impurity concurrence after spin-{label}:")
        for i in range(1, n_sites):
            row = []
            for j in range(1, n_sites):
                if i == j:
                    row.append(_fmt(0.0))
                else:
                    rho = core.partial_trace(post, [i, j])
                    row.append(_fmt(concurrence_mixed(rho)))
            print("    " + " ".join(row))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "find-optimal":
            return cmd_find_optimal(args)
        return cmd_simulate(args)
    except ValueError as exc:
        # a value argparse accepts but the models reject: a negative
        # coupling, a NaN angle, a range beyond the series, a bad --initial
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
