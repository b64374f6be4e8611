import numpy as np
import pytest
import sympy

from spinscatter.scattering import (
    find_max_entanglement,
    normalized_amplitudes,
    raw_series_order3,
    scatter_point,
    series_params,
    sweep_scatter,
)


def sympy_oracle(j_rho):
    """Independent symbolic evaluation of the amplitude polynomials:
    expand in lambda with exact arithmetic, then substitute."""
    lam = sympy.I * sympy.pi * sympy.Rational(j_rho) / 2
    t = 1 - lam
    a = sympy.expand(t**2 + t**2 * lam**2 - 8 * t * lam**3 + 16 * lam**6 - 7 * t**2 * lam**4)
    b = sympy.expand(-2 * lam * t + 2 * t * lam**3 - 2 * t**2 * lam**2 + 6 * t * lam**5 + 8 * t**2 * lam**4)
    c = sympy.expand(-2 * lam * t + 8 * lam**4 - 2 * t * lam**3 + 2 * t**2 * lam**2 + 6 * t * lam**5)
    return tuple(complex(sympy.N(x, 30)) for x in (a, b, c))


class TestSeriesParams:
    def test_zero_coupling(self):
        p = series_params(0.0)
        assert (p.lam, p.t_amp) == (0.0, 1.0)

    def test_two_over_pi(self):
        p = series_params(2 / np.pi)
        assert p.lam == pytest.approx(1j, abs=1e-15)
        assert p.t_amp == pytest.approx(1 - 1j, abs=1e-15)

    def test_unit_coupling(self):
        p = series_params(1.0)
        assert p.lam == pytest.approx(1j * np.pi / 2, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            series_params(-0.1)


class TestRawSeries:
    def test_zero_coupling(self):
        raw = raw_series_order3(0.0)
        assert (raw.a, raw.b, raw.c) == (1.0, 0.0, 0.0)
        assert not raw.normalized

    def test_leading_order_flip_amplitude(self):
        # B, C -> -2 lambda = -i pi j as j -> 0+
        for j in (1e-6, 1e-5):
            raw = raw_series_order3(j)
            lead = -1j * np.pi * j
            assert abs(raw.b - lead) <= 10 * np.pi * j**2
            assert abs(raw.c - lead) <= 10 * np.pi * j**2

    @pytest.mark.parametrize("j", [0.25, 0.5, 1.0, 1.75])
    def test_against_symbolic_oracle(self, j):
        raw = raw_series_order3(j)
        a, b, c = sympy_oracle(j)
        for got, want in ((raw.a, a), (raw.b, b), (raw.c, c)):
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_flip_channel_symmetry_at_small_coupling(self):
        # both flip channels share the -2*lambda*t leading term, so their
        # difference is one order down: B - C = -4 lambda^2 + O(lambda^3),
        # i.e. O(j^2) against the O(j) amplitudes themselves
        for j in (1e-3, 1e-2):
            raw = raw_series_order3(j)
            assert abs(raw.b - raw.c) <= 15 * j**2
            assert abs(raw.b - raw.c) <= 10 * j * abs(raw.b)

    def test_evaluation_reproducible(self):
        # two evaluation orders: dataclass formula vs Horner in lambda
        # with t = 1 - lambda expanded to fixed coefficient lists
        coeff_a = [1, -2, 2, -10, 2, 14, 9]    # A in powers of lambda
        coeff_b = [0, -2, 0, 6, 4, -10, 2]     # B
        coeff_c = [0, -2, 4, -6, 12, 6, -6]    # C
        for j in np.linspace(0.0, 2.0, 81):
            lam = 0.5j * np.pi * j
            raw = raw_series_order3(j)
            for coeffs, got in ((coeff_a, raw.a), (coeff_b, raw.b), (coeff_c, raw.c)):
                horner = 0.0
                for ck in reversed(coeffs):
                    horner = horner * lam + ck
                assert abs(got - horner) <= 1e-13 * max(1.0, abs(horner))


class TestNormalizedAmplitudes:
    def test_zero_coupling(self):
        amp = normalized_amplitudes(0.0)
        assert (amp.a, amp.b, amp.c) == (1.0, 0.0, 0.0)
        assert amp.normalized

    def test_unit_norm_across_range(self):
        for j in np.linspace(0.0, 2.0, 101):
            amp = normalized_amplitudes(j)
            total = abs(amp.a) ** 2 + abs(amp.b) ** 2 + abs(amp.c) ** 2
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_consistent_with_raw(self):
        raw = raw_series_order3(1.0)
        nrm = np.sqrt(abs(raw.a) ** 2 + abs(raw.b) ** 2 + abs(raw.c) ** 2)
        amp = normalized_amplitudes(1.0)
        assert amp.a == pytest.approx(raw.a / nrm, abs=1e-14)
        assert amp.b == pytest.approx(raw.b / nrm, abs=1e-14)
        assert amp.c == pytest.approx(raw.c / nrm, abs=1e-14)


class TestScatterPoint:
    def test_zero_coupling(self):
        p = scatter_point(0.0)
        assert (p.p_down, p.concurrence, p.eof) == (0.0, 0.0, 0.0)
        assert p.p_up == 1.0

    def test_small_coupling_limit(self):
        # concurrence -> 1 while p_down -> 0
        p = scatter_point(1e-4)
        assert p.concurrence >= 1 - 1e-6
        assert p.p_down <= 1e-6

    def test_probabilities_bounded_and_complementary(self):
        for j in np.linspace(0.0, 2.0, 101):
            p = scatter_point(j)
            assert -1e-12 <= p.p_down <= 1 + 1e-12
            assert 0 <= p.concurrence <= 1
            assert p.p_down + p.p_up == pytest.approx(1.0, abs=1e-12)

    def test_warns_outside_range(self):
        with pytest.warns(UserWarning):
            scatter_point(2.5)

    def test_concurrence_one_iff_equal_flip_moduli(self):
        for j in np.linspace(0.05, 2.0, 40):
            amp = normalized_amplitudes(j)
            p = scatter_point(j)
            equal = abs(abs(amp.b) - abs(amp.c)) <= 1e-12
            assert (p.concurrence >= 1 - 1e-12) == equal


class TestFindMaxEntanglement:
    def test_interval_without_root(self):
        assert find_max_entanglement(1.0, 2.0) == []

    def test_root_exists_in_full_range(self):
        roots = find_max_entanglement(0.01, 2.0)
        assert len(roots) >= 1
        for j in roots:
            assert scatter_point(j).concurrence >= 1 - 1e-9

    def test_root_stable_under_bracket_shrink(self):
        (j_star,) = find_max_entanglement(0.01, 2.0)
        width = 0.1
        (refined,) = find_max_entanglement(j_star - width / 10, j_star + width / 10)
        assert abs(refined - j_star) <= 1e-9

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            find_max_entanglement(1.0, 0.5)
        with pytest.raises(ValueError):
            find_max_entanglement(0.0, 2.5)


def test_sweep_scatter_matches_pointwise():
    grid = [0.0, 0.5, 1.0]
    swept = sweep_scatter(grid)
    for i, j in enumerate(grid):
        for name, value in vars(scatter_point(j)).items():
            assert getattr(swept, name)[i] == value


def test_sweep_warns_once_with_count():
    with pytest.warns(UserWarning, match=r"^3 of 5 j_rho values outside") as record:
        sweep_scatter([1.0, 2.0, 2.5, 3.0, 4.0])
    assert len(record) == 1


def test_sweep_scatter_rejects_empty():
    with pytest.raises(ValueError):
        sweep_scatter([])
