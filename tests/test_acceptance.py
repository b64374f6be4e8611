"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or on
failure).  Run with:  pytest tests/test_acceptance.py -v
"""

import numpy as np
import pytest

from spinscatter.core import PSI_MINUS, basis_state
from spinscatter.entanglement import (
    concurrence_mixed,
    concurrence_pure,
    eof_from_concurrence,
)
from spinscatter.ideal import (
    closed_form_coefficients,
    closed_form_state,
    ideal_point,
    simulate_sequential,
    sweep_ideal,
)
from spinscatter.scattering import (
    find_max_entanglement,
    normalized_amplitudes,
    scatter_point,
)
from spinscatter.transfer import exact_transfer_matrix, single_impurity_smatrix
from spinscatter.cli import main

RNG = np.random.default_rng(2024)


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    return ok


def test_criterion_1_ideal_oracle_equivalence():
    """Dense simulation equals the closed form on 1000 grid points."""
    worst = 0.0
    for jt in np.linspace(0.0, np.pi / 2, 1000):
        sim = simulate_sequential(basis_state("udd"), jt, 2)
        worst = max(worst, float(np.abs(sim - closed_form_state(jt)).max()))
    assert report("criterion 1: simulation vs closed form", worst <= 1e-12,
                  f"max elementwise error {worst:.3e}")


def _concurrence_at_eof(e_target):
    """Invert E = h((1 + sqrt(1 - C^2))/2), increasing in C, by bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if eof_from_concurrence(mid) < e_target:
            lo = mid
        else:
            hi = mid
    return hi


def test_criterion_2_high_entanglement_operating_points():
    """Sweep contains the published pairs (E, P) = (0.99, 0.41) and
    (0.84, 0.86).

    2a is read at the precision it is printed with: some point has E and
    P that round to 0.99 and 0.41 at two digits.  The strict reading
    E >= 0.99 is impossible on the ideal curve P = 1 - u^4,
    C = 2u/(1+u^2) (u = |cos 2jt|, criterion 3): it caps P at 1 - u_t^4
    = 0.376624, which the test also asserts.  At P = 0.41 the curve
    gives E = 0.98756.
    """
    pts = sweep_ideal(np.linspace(0.0, np.pi / 2, 100_001))
    eof, p_down = pts.eof, pts.p_down

    point_b = bool(np.any((abs(eof - 0.84) <= 0.01) & (abs(p_down - 0.86) <= 0.02)))
    ok_b = report("criterion 2b: point with E=0.84+/-0.01, P=0.86+/-0.02", point_b)

    # Bound of the strict reading, from the entanglement measure alone:
    # C_t at E = 0.99, then u_t solving C_t = 2u/(1+u^2) with u <= 1.
    c_t = _concurrence_at_eof(0.99)
    u_t = (1.0 - np.sqrt(1.0 - c_t**2)) / c_t
    p_bound = 1.0 - u_t**4
    best_p = p_down[eof >= 0.99].max()
    resolution = np.abs(np.diff(p_down)).max()
    assert best_p <= p_bound + 1e-12 and p_bound - best_p <= resolution, (
        f"best P subject to E>=0.99 is {best_p:.6f}, bound 1-u_t^4 = {p_bound:.6f}"
    )

    in_pair = (eof >= 0.985) & (eof < 0.995) & (p_down >= 0.405) & (p_down < 0.415)
    ok_a = report(
        "criterion 2a: point with E, P rounding to 0.99, 0.41", bool(in_pair.any()),
        f"({int(in_pair.sum())} points; best P subject to E>=0.99 is {best_p:.5f}"
        f"; bound 1-u_t^4 = {p_bound:.6f})",
    )
    assert ok_b
    assert ok_a


def test_criterion_3_ideal_structural_identity():
    """C = 2u/(1+u^2) and P = |beta|^2(1+u^2)/4 with u = |1+e^{4i jt}|/2;
    u -> 1 forces P -> 0."""
    err_c = err_p = 0.0
    for jt in np.linspace(0.0, np.pi / 2, 1000):
        p = ideal_point(jt)
        c = closed_form_coefficients(jt)
        u = abs(1 + np.exp(4j * jt)) / 2
        err_p = max(err_p, abs(p.p_down - abs(c.beta) ** 2 * (1 + u**2) / 4))
        if p.p_down > 0:  # concurrence is a convention (0) where P = 0
            err_c = max(err_c, abs(p.concurrence - 2 * u / (1 + u**2)))
        if u >= 1 - 1e-9:
            assert p.p_down <= 1e-8
    assert report("criterion 3: structural identities", err_c <= 1e-12 and err_p <= 1e-12,
                  f"max C error {err_c:.3e}, max P error {err_p:.3e}")


def test_criterion_4_periodicity():
    """All ideal-sweep quantities are pi/2-periodic."""
    worst = 0.0
    for jt in RNG.uniform(0.0, np.pi / 2, 100):
        a, b = ideal_point(jt), ideal_point(jt + np.pi / 2)
        worst = max(worst, abs(a.p_down - b.p_down), abs(a.concurrence - b.concurrence),
                    abs(a.eof - b.eof))
    assert report("criterion 4: pi/2 periodicity", worst <= 1e-12,
                  f"max deviation {worst:.3e}")


def test_criterion_5_scattering_zero_coupling():
    """j_rho = 0 gives (A,B,C) = (1,0,0) exactly and P_down = 0."""
    amp = normalized_amplitudes(0.0)
    ok = (amp.a, amp.b, amp.c) == (1.0, 0.0, 0.0) and scatter_point(0.0).p_down == 0.0
    assert report("criterion 5: zero-coupling amplitudes", ok)


def test_criterion_6_maximal_entanglement_point():
    """At least one j* with concurrence >= 1 - 1e-9 on [0.01, 2]; the
    probability there is compared against 0.41 +/- 0.05.

    6b fails: the series gives P_down(j*) = 0.52877.  The cause is open
    (a series coefficient, the probability definition or the published
    0.41); the README's "Tests" section lists what is known.
    """
    roots = find_max_entanglement(0.01, 2.0)
    exists = len(roots) >= 1 and all(
        scatter_point(j).concurrence >= 1 - 1e-9 for j in roots
    )
    assert report("criterion 6a: maximal-entanglement point exists", exists,
                  f"roots {[f'{j:.6f}' for j in roots]}")

    p_values = [scatter_point(j).p_down for j in roots]
    in_tolerance = any(abs(p - 0.41) <= 0.05 for p in p_values)
    ok = report("criterion 6b: P_down(j*) = 0.41 +/- 0.05", in_tolerance,
                f"computed P_down {[f'{p:.5f}' for p in p_values]}")
    assert ok


def test_criterion_7_entanglement_oracles():
    """Bell/product/Werner values and mixed-vs-pure agreement."""
    bell = np.outer(PSI_MINUS, PSI_MINUS.conj())
    assert concurrence_mixed(bell) == pytest.approx(1.0, abs=1e-12)
    assert eof_from_concurrence(concurrence_mixed(bell)) == pytest.approx(1.0, abs=1e-10)
    assert concurrence_pure(basis_state("ud")) == 0.0

    for p in (0.2, 0.5, 0.9):
        rho = p * bell + (1 - p) * np.eye(4) / 4
        assert concurrence_mixed(rho) == pytest.approx(
            max(0.0, (3 * p - 1) / 2), abs=1e-10
        )

    worst = 0.0
    for _ in range(1000):
        v = RNG.normal(size=4) + 1j * RNG.normal(size=4)
        v /= np.linalg.norm(v)
        worst = max(worst, abs(concurrence_mixed(np.outer(v, v.conj()))
                               - concurrence_pure(v)))
    assert report("criterion 7: entanglement oracles", worst <= 1e-10,
                  f"max mixed-vs-pure deviation {worst:.3e}")


def test_criterion_8_transfer_matrix_crosscheck():
    """S-matrix unitarity on 100 random (g, kd); perturbative
    flip/no-flip ratio 2 at g = 1e-4."""
    worst = 0.0
    for _ in range(100):
        s = exact_transfer_matrix(RNG.uniform(-3, 3), RNG.uniform(0, 10))
        full = s.full()
        worst = max(worst, float(np.abs(full.conj().T @ full - np.eye(6)).max()))
    single = single_impurity_smatrix(1e-4)
    ratio = abs(single.reflection[1, 0] / single.reflection[0, 0])
    ok = worst <= 1e-10 and abs(ratio - 2.0) <= 1e-3
    assert report("criterion 8: transfer-matrix cross-check", ok,
                  f"unitarity {worst:.3e}, flip ratio {ratio:.6f}")


def test_criterion_9_cli_determinism(tmp_path):
    """Identical CLI invocations produce byte-identical CSVs."""
    files = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert main(["sweep", "--mode", "ideal", "--points", "501",
                     "--out", str(path)]) == 0
        assert main(["sweep", "--mode", "scatter", "--points", "501",
                     "--out", str(path.with_suffix(".s.csv"))]) == 0
        files.append(path)
    ok = (files[0].read_bytes() == files[1].read_bytes()
          and files[0].with_suffix(".s.csv").read_bytes()
          == files[1].with_suffix(".s.csv").read_bytes())
    assert report("criterion 9: CLI determinism", ok)
