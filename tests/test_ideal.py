import numpy as np
import pytest

from spinscatter.core import basis_state
from spinscatter.ideal import (
    best_probability_at_entanglement,
    closed_form_coefficients,
    closed_form_state,
    exchange_unitary,
    ideal_point,
    initial_state,
    simulate_sequential,
    sweep_ideal,
)

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

# Pauli matrices for the independent matrix-exponential oracle.
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
EXCHANGE_H = np.kron(SX, SX) + np.kron(SY, SY) + np.kron(SZ, SZ)


def expm_oracle(jt):
    # independent route: numerically diagonalize H = S.sigma and
    # exponentiate the spectrum, instead of using the known projectors
    vals, vecs = np.linalg.eigh(EXCHANGE_H)
    return (vecs * np.exp(-1j * jt * vals)) @ vecs.conj().T


class TestExchangeUnitary:
    def test_zero_time_is_identity(self):
        assert np.allclose(exchange_unitary(0.0), np.eye(4))

    def test_quarter_pi_is_swap_up_to_phase(self):
        u = exchange_unitary(np.pi / 4)
        assert np.abs(u - np.exp(-1j * np.pi / 4) * SWAP).max() <= 1e-12
        out = u @ basis_state("ud")
        assert np.abs(out - np.exp(-1j * np.pi / 4) * basis_state("du")).max() <= 1e-12

    def test_matches_matrix_exponential_oracle(self):
        for jt in np.linspace(-2.0, 2.0, 41):
            assert np.abs(exchange_unitary(jt) - expm_oracle(jt)).max() <= 1e-12

    def test_unitary(self):
        for jt in np.linspace(0, np.pi / 2, 17):
            u = exchange_unitary(jt)
            assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            exchange_unitary(np.nan)


class TestClosedFormCoefficients:
    def test_zero_time(self):
        c = closed_form_coefficients(0.0)
        assert (c.alpha, c.beta, c.gamma) == (2.0, 0.0, 0.0)

    def test_quarter_pi(self):
        c = closed_form_coefficients(np.pi / 4)
        assert abs(c.alpha) <= 1e-15
        assert c.beta == pytest.approx(2.0, abs=1e-15)
        assert abs(c.gamma) <= 1e-15

    def test_eighth_pi(self):
        c = closed_form_coefficients(np.pi / 8)
        assert c.alpha == pytest.approx(1j, abs=1e-15)
        assert c.beta == pytest.approx(1 - 1j, abs=1e-15)
        assert c.gamma == pytest.approx(1.0, abs=1e-15)

    def test_normalization_and_gamma_identity(self):
        for jt in np.linspace(0, np.pi / 2, 101):
            c = closed_form_coefficients(jt)
            total = abs(c.alpha) ** 2 + abs(c.beta) ** 2 + abs(c.gamma) ** 2
            assert total == pytest.approx(4.0, abs=1e-12)
            link = c.beta * (1 + np.exp(4j * jt)) / 2
            assert abs(c.gamma - link) <= 1e-12
            assert c.global_phase == pytest.approx(np.exp(-2j * jt) / 2, abs=1e-15)


class TestSimulateSequential:
    def test_identity_evolution(self):
        out = simulate_sequential(basis_state("udd"), 0.0, 2)
        assert np.allclose(out, basis_state("udd"))

    def test_matches_closed_form_on_grid(self):
        for jt in np.linspace(0, np.pi / 2, 1000):
            sim = simulate_sequential(basis_state("udd"), jt, 2)
            assert np.abs(sim - closed_form_state(jt)).max() <= 1e-12

    def test_three_impurities_at_swap_angle(self):
        # the first swap deposits the up spin on impurity 1 and leaves
        # the electron down; later swaps act on down-down pairs
        out = simulate_sequential(basis_state("uddd"), np.pi / 4, 3)
        target = basis_state("dudd")
        overlap = abs(np.vdot(target, out))
        assert overlap == pytest.approx(1.0, abs=1e-12)
        assert out[np.argmax(np.abs(out))] == pytest.approx(
            np.exp(-3j * np.pi / 4), abs=1e-12
        )

    def test_site_count_mismatch(self):
        with pytest.raises(ValueError):
            simulate_sequential(basis_state("udd"), 0.1, 3)

    def test_spin_sector_conserved(self):
        # support stays on basis states with exactly one up spin
        for jt in np.linspace(0, np.pi / 2, 25):
            out = simulate_sequential(basis_state("udd"), jt, 2)
            for idx, amp in enumerate(out):
                n_up = 3 - bin(idx).count("1")
                if n_up != 1:
                    assert abs(amp) <= 1e-14


class TestIdealPoint:
    def test_eighth_pi(self):
        p = ideal_point(np.pi / 8)
        assert p.p_down == pytest.approx(0.75, abs=1e-12)
        assert p.concurrence == pytest.approx(2 * np.sqrt(2) / 3, abs=1e-12)
        assert p.eof == pytest.approx(0.918296, abs=5e-7)

    def test_quarter_pi(self):
        p = ideal_point(np.pi / 4)
        assert p.p_down == pytest.approx(1.0, abs=1e-12)
        assert p.eof == pytest.approx(0.0, abs=1e-12)

    def test_structural_identity(self):
        # C = 2u/(1+u^2), P = |beta|^2 (1+u^2)/4 with u = |1+e^{4i jt}|/2
        for jt in np.linspace(0, np.pi / 2, 500):
            p = ideal_point(jt)
            c = closed_form_coefficients(jt)
            u = abs(1 + np.exp(4j * jt)) / 2
            assert abs(p.p_down - abs(c.beta) ** 2 * (1 + u**2) / 4) <= 1e-12
            if p.p_down > 0:
                assert abs(p.concurrence - 2 * u / (1 + u**2)) <= 1e-12

    def test_periodicity(self):
        for jt in np.linspace(0.01, np.pi / 2, 100):
            a, b = ideal_point(jt), ideal_point(jt + np.pi / 2)
            assert abs(a.p_down - b.p_down) <= 1e-12
            assert abs(a.concurrence - b.concurrence) <= 1e-12
            assert abs(a.eof - b.eof) <= 1e-12

    def test_maximal_entanglement_zero_probability(self):
        for jt in np.linspace(0, np.pi / 2, 1000):
            u = abs(1 + np.exp(4j * jt)) / 2
            if u >= 1 - 1e-9:
                assert ideal_point(jt).p_down <= 1e-8


class TestSweepIdeal:
    def test_single_zero_point(self):
        p = sweep_ideal([0.0])
        assert [v.tolist() for v in (p.jt, p.p_down, p.concurrence, p.eof)] == [[0.0]] * 4

    def test_pointwise_consistency(self):
        grid = [0.0, np.pi / 8, np.pi / 4]
        swept = sweep_ideal(grid)
        for i, jt in enumerate(grid):
            direct = ideal_point(jt)
            for name, value in vars(direct).items():
                assert getattr(swept, name)[i] == value

    def test_grid_contains_swap_point(self):
        pts = sweep_ideal(np.linspace(0, np.pi / 2, 1001))
        best = pts.p_down.argmax()
        assert pts.p_down[best] == pytest.approx(1.0, abs=1e-12)
        assert pts.eof[best] == pytest.approx(0.0, abs=1e-12)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_ideal([])


class TestBestProbability:
    def test_against_fine_grid_oracle(self):
        # oracle: exhaustive scan of the closed form
        pts = sweep_ideal(np.linspace(0, np.pi / 2, 50_001))
        for target in (0.84, 0.95, 0.99):
            oracle = pts.p_down[pts.eof >= target].max()
            found = best_probability_at_entanglement(target)
            assert found is not None and found.eof >= target
            assert found.p_down >= oracle - 1e-9

    def test_unreachable_target_in_interval(self):
        assert best_probability_at_entanglement(0.999999, 0.7, 0.8) is None

    def test_initial_state_helper(self):
        assert np.allclose(initial_state(2), basis_state("udd"))
