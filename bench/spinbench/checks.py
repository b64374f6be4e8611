"""Reference values for checking CLI output, derived without the library.

Nothing here imports spinscatter.  The ideal model is checked against
its closed form in u = |cos 2 jt|; the scatter sweep against identities
that any normalised amplitude triple satisfies; the scatter roots
against the real roots of the degree-12 polynomial |B|^2 - |C|^2; and
single-excitation `simulate` output against the W-state concurrence
2|a_i a_j| / P.  Every function returns a list of problems, empty when
the output is right.
"""

from __future__ import annotations

import io
import math

import numpy as np
from numpy.polynomial import Polynomial

# CLI values carry 12 significant digits; values live in [0, 1].
TOL = 1e-9

IDEAL_HEADER = "x,P,C,E"
SCATTER_HEADER = "x,P,C,E,abs_A,abs_B,abs_C,P_up"

# Third-iteration amplitudes expanded in powers of lambda = i pi j / 2
# (with t = 1 - lambda multiplied out), lowest power first.
SERIES_B = (0, -2, 0, 6, 4, -10, 2)
SERIES_C = (0, -2, 4, -6, 12, 6, -6)
SERIES_A = (1, -2, 2, -10, 2, 14, 9)


def binary_entropy(p):
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    inner = (p > 0.0) & (p < 1.0)
    q = np.where(inner, p, 0.5)
    return np.where(inner, -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q), 0.0)


def eof_of_concurrence(c):
    c = np.asarray(c, dtype=float)
    return binary_entropy((1.0 + np.sqrt(np.clip(1.0 - c * c, 0.0, None))) / 2.0)


def ideal_closed_form(x):
    """(P, C, E) of the two-impurity ideal model at angles x."""
    u = np.abs(np.cos(2.0 * np.asarray(x, dtype=float)))
    p = 1.0 - u**4
    c = np.where(p == 0.0, 0.0, 2.0 * u / (1.0 + u * u))
    return p, c, eof_of_concurrence(c)


def _close(got, want, tol=TOL) -> bool:
    return bool(np.all(np.abs(np.asarray(got) - np.asarray(want)) <= tol))


# ---------------------------------------------------------------- sweep

def read_csv(text: str, header: str, rows: int, lo: float, hi: float) -> tuple[np.ndarray | None, list[str]]:
    """Parse a sweep CSV and check its layout and x grid."""
    first = text.partition("\n")[0]
    if first != header:
        return None, [f"header {first!r}, expected {header!r}"]
    if not text.endswith("\n") or text.count("\n") != rows + 1 or "\r" in text:
        return None, [f"{text.count(chr(10)) - 1} LF-terminated data lines, expected {rows}"]
    try:
        data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        return None, [f"unparseable rows: {exc}"]
    if data.shape != (rows, header.count(",") + 1) or not np.all(np.isfinite(data)):
        return None, [f"table of shape {data.shape} or non-finite values"]
    x = data[:, 0]
    step = (hi - lo) / (rows - 1)
    problems = []
    if not (_close(x[0], lo, 1e-11 * max(1.0, abs(lo))) and _close(x[-1], hi, 1e-11 * max(1.0, abs(hi)))):
        problems.append(f"x runs {x[0]!r}..{x[-1]!r}, expected {lo!r}..{hi!r}")
    elif not _close(np.diff(x), step, 1e-10):
        problems.append("x grid is not evenly spaced")
    return data, problems


def check_ideal_rows(data: np.ndarray) -> list[str]:
    x, p, c, e = data.T
    ref_p, ref_c, ref_e = ideal_closed_form(x)
    problems = []
    for name, got, want in (("P", p, ref_p), ("C", c, ref_c), ("E", e, ref_e)):
        bad = np.flatnonzero(np.abs(got - want) > TOL)
        if bad.size:
            i = bad[0]
            problems.append(f"ideal row {i}: {name} = {got[i]!r}, closed form gives {want[i]!r}")
    return problems


def check_scatter_rows(data: np.ndarray) -> list[str]:
    _, p, c, e, a, b, cc, p_up = data.T
    p_safe = np.where(p > 0.0, p, 1.0)
    identities = (
        ("P + P_up = 1", p + p_up, 1.0),
        ("|A|^2 + |B|^2 + |C|^2 = 1", a * a + b * b + cc * cc, 1.0),
        ("P = |B|^2 + |C|^2", p, b * b + cc * cc),
        ("C = 2|B||C|/P", c, np.where(p > 0.0, 2.0 * b * cc / p_safe, 0.0)),
        ("E = h((1 + sqrt(1 - C^2))/2)", e, eof_of_concurrence(c)),
    )
    problems = []
    for name, got, want in identities:
        bad = np.flatnonzero(np.abs(got - want) > TOL)
        if bad.size:
            problems.append(f"scatter row {bad[0]}: {name} fails")
    return problems


# ------------------------------------------------------------ optimal

def _fields(line: str) -> dict[str, float]:
    """'jt = 0.1  P = 0.2' -> {'jt': 0.1, 'P': 0.2}."""
    out = {}
    for part in line.split("  "):
        key, _, value = part.partition(" = ")
        out[key.strip()] = float(value)
    return out


def _concurrence_at_eof(target: float) -> float:
    """Invert E(C), which increases on [0, 1], by bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if eof_of_concurrence(mid) < target:
            lo = mid
        else:
            hi = mid
    return hi


def ideal_optimum(target: float, lo: float, hi: float) -> float | None:
    """Largest P = 1 - u^4 over x in [lo, hi] subject to E >= target.

    E grows with C = 2u/(1+u^2), which grows with u, so the constraint
    is u >= u_t and the best point has the smallest feasible u: either
    a solution of |cos 2x| = u_t or a feasible end of the range.
    """
    c_t = _concurrence_at_eof(target)
    u_t = (1.0 - math.sqrt(1.0 - c_t * c_t)) / c_t
    x1 = math.acos(u_t) / 2.0
    candidates = [u_t for x in (x1, math.pi / 2 - x1) if lo <= x <= hi]
    candidates += [u for u in (abs(math.cos(2 * lo)), abs(math.cos(2 * hi))) if u >= u_t]
    return 1.0 - min(candidates) ** 4 if candidates else None


def check_ideal_optimum(stdout: str, target: float, lo: float, hi: float) -> list[str]:
    best = ideal_optimum(target, lo, hi)
    line = stdout.rstrip("\n")
    if best is None:
        return [] if line == "none found" else [f"ideal optimum {line!r}, expected none found"]
    if line == "none found":
        return [f"ideal optimum: none found, expected P = {best!r}"]
    f = _fields(line)
    ref_p, ref_c, ref_e = (float(v) for v in ideal_closed_form(f["jt"]))
    problems = []
    if not lo - 1e-11 <= f["jt"] <= hi + 1e-11:  # jt is printed to 12 digits
        problems.append(f"ideal optimum jt = {f['jt']!r} outside [{lo!r}, {hi!r}]")
    if f["E"] < target - 1e-11:
        problems.append(f"ideal optimum E = {f['E']!r} below target {target!r}")
    if not _close(f["P"], best):
        problems.append(f"ideal optimum P = {f['P']!r}, closed form gives {best!r}")
    if not _close([f["P"], f["C"], f["E"]], [ref_p, ref_c, ref_e]):
        problems.append(f"ideal optimum line {line!r} inconsistent with jt")
    return problems


def _in_j(series) -> Polynomial:
    return Polynomial([k * (0.5j * math.pi) ** n for n, k in enumerate(series)])


def flip_imbalance_polynomial() -> Polynomial:
    """|B|^2 - |C|^2 as a real polynomial in j (degree 12)."""
    b, c = _in_j(SERIES_B), _in_j(SERIES_C)
    conj = lambda q: Polynomial(np.conj(q.coef))  # noqa: E731
    return Polynomial((b * conj(b) - c * conj(c)).coef.real)


def scatter_roots(lo: float, hi: float) -> list[float]:
    """Real roots of |B|^2 - |C|^2 in (lo, hi), excluding j = 0."""
    d = flip_imbalance_polynomial()
    low = np.flatnonzero(d.coef)[0]  # j = 0 is a root of this multiplicity
    reduced = Polynomial(d.coef[low:])
    slope = reduced.deriv()
    roots = []
    for r in reduced.roots():
        if abs(r.imag) > 1e-8:
            continue
        x = r.real
        for _ in range(3):  # polish with Newton steps
            x -= reduced(x) / slope(x)
        if lo < x < hi:
            roots.append(x)
    return sorted(roots)


def scatter_point_reference(j: float) -> dict[str, float]:
    a = Polynomial(SERIES_A)(0.5j * math.pi * j)
    b = Polynomial(SERIES_B)(0.5j * math.pi * j)
    c = Polynomial(SERIES_C)(0.5j * math.pi * j)
    b2, c2 = abs(b) ** 2, abs(c) ** 2
    p = (b2 + c2) / (abs(a) ** 2 + b2 + c2)
    conc = 2 * math.sqrt(b2 * c2) / (b2 + c2)
    return {"C": conc, "P": p, "E": float(eof_of_concurrence(conc))}


def check_scatter_roots(stdout: str, lo: float, hi: float) -> list[str]:
    want = scatter_roots(lo, hi)
    lines = stdout.rstrip("\n").split("\n")
    if not want:
        return [] if lines == ["none found"] else [f"scatter roots {lines!r}, expected none found"]
    if lines == ["none found"]:
        return [f"scatter roots: none found, expected {want!r}"]
    if len(lines) != len(want):
        return [f"{len(lines)} scatter roots, expected {len(want)}"]
    problems = []
    for line, root in zip(lines, want):
        f = _fields(line)
        ref = scatter_point_reference(root)
        if not _close(f["j_rho"], root):
            problems.append(f"scatter root j_rho = {f['j_rho']!r}, polynomial gives {root!r}")
        elif not _close([f["C"], f["P"], f["E"]], [ref["C"], ref["P"], ref["E"]]):
            problems.append(f"scatter root line {line!r} disagrees with the series at the root")
    return problems


# ------------------------------------------------------------ simulate

def parse_simulate(stdout: str, n: int) -> dict:
    """Amplitudes, outcome probabilities and concurrence matrices."""
    amps: dict[str, complex] = {}
    probs: dict[str, float] = {}
    matrices: dict[str, np.ndarray | None] = {}
    lines = stdout.split("\n")
    i = 1
    while lines[i].startswith("  |"):
        ket, value, _ = lines[i].split(maxsplit=2)
        amps[ket[1:-1]] = complex(value)
        i += 1
    for label in ("up", "down"):
        prefix = f"electron spin-{label} probability: "
        if not lines[i].startswith(prefix):
            raise ValueError(f"expected {prefix!r}, got {lines[i]!r}")
        probs[label] = float(lines[i][len(prefix):])
        i += 1
        if "never occurs" in lines[i]:
            matrices[label] = None
            i += 1
            continue
        rows = [[float(v) for v in lines[i + 1 + r].split()] for r in range(n)]
        matrices[label] = np.array(rows)
        i += 1 + n
    if "".join(lines[i:]):
        raise ValueError(f"unexpected trailing output {lines[i:]!r}")
    return {"amps": amps, "probs": probs, "matrices": matrices}


def check_simulate(stdout: str, n: int, jt: float, ups: int) -> list[str]:
    """`ups` is the number of up spins in the initial product state."""
    head = f"final state ({n} impurities, jt = {format(jt, '.12g')}):"
    if not stdout.startswith(head + "\n"):
        return [f"simulate header {stdout.split(chr(10))[0]!r}, expected {head!r}"]
    try:
        out = parse_simulate(stdout, n)
    except (ValueError, IndexError) as exc:
        return [f"unparseable simulate output: {exc}"]
    amps, probs, matrices = out["amps"], out["probs"], out["matrices"]
    problems = []
    if any(len(k) != n + 1 or k.count("u") != ups for k in amps):
        problems.append("amplitude outside the initial S_z sector")
    weight = {lab: sum(abs(a) ** 2 for k, a in amps.items() if k[0] == lab[0]) for lab in probs}
    if not _close(probs["up"] + probs["down"], 1.0):
        problems.append("outcome probabilities do not sum to 1")
    if not _close([probs["up"], probs["down"]], [weight["up"], weight["down"]]):
        problems.append("outcome probabilities disagree with the printed amplitudes")
    for label, m in matrices.items():
        if m is None:
            if probs[label] >= 1e-15:
                problems.append(f"spin-{label} skipped with probability {probs[label]!r}")
            continue
        if m.shape != (n, n) or np.any(np.diag(m) != 0.0):
            problems.append(f"spin-{label} concurrence matrix has the wrong shape or diagonal")
        elif not _close(m, m.T) or m.min() < 0.0 or m.max() > 1.0:
            problems.append(f"spin-{label} concurrence matrix not symmetric within [0, 1]")
        elif ups == 1:
            # W-like impurity state: C_ij = 2 |a_i a_j| / P(outcome)
            site = np.zeros(n)
            for k, a in amps.items():
                if k[0] == label[0] and "u" in k[1:]:
                    site[k.index("u", 1) - 1] = abs(a)
            want = 2.0 * np.outer(site, site) / probs[label]
            np.fill_diagonal(want, 0.0)
            if not _close(m, want):
                problems.append(f"spin-{label} concurrence differs from 2|a_i a_j|/P")
    return problems
