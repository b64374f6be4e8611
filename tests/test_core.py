import numpy as np
import pytest

from spinscatter import core
from spinscatter.core import (
    PSI_MINUS,
    PSI_PLUS,
    apply_on_sites,
    basis_state,
    kron,
    measure_site,
    partial_trace,
)
from spinscatter.ideal import closed_form_state, exchange_unitary

RNG = np.random.default_rng(1234)

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def random_state(n_sites, rng=RNG):
    v = rng.normal(size=2**n_sites) + 1j * rng.normal(size=2**n_sites)
    return v / np.linalg.norm(v)


def random_unitary(dim, rng=RNG):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestKron:
    def test_identity_case(self):
        assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_convention(self):
        # |u> x |d> puts the amplitude at index 1 (first factor is MSB)
        out = kron(basis_state("u"), basis_state("d"))
        assert np.allclose(out, basis_state("ud"))
        assert out[1] == 1.0

    def test_bell_times_up(self):
        out = kron(PSI_PLUS, basis_state("u"))
        expected = np.zeros(8, dtype=complex)
        expected[0b010] = expected[0b100] = 1 / np.sqrt(2)
        assert np.allclose(out, expected)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValueError):
            kron(np.eye(2), basis_state("u"))


class TestApplyOnSites:
    def test_identity(self):
        s = random_state(3)
        assert np.allclose(apply_on_sites(np.eye(4), [0, 1], s), s)

    def test_swap(self):
        out = apply_on_sites(SWAP, [0, 1], basis_state("udd"))
        assert np.allclose(out, basis_state("dud"))

    def test_against_kron_permute_embedding(self):
        # brute-force oracle: embed u on sites (0,1) of 3 sites by
        # kron(u, I2), and on sites (0,2) by conjugating with the
        # permutation that swaps sites 1 and 2
        u = exchange_unitary(np.pi / 8)
        s = basis_state("udd")
        full01 = np.kron(u, np.eye(2))
        assert np.abs(apply_on_sites(u, [0, 1], s) - full01 @ s).max() <= 1e-13

        perm = np.zeros((8, 8))
        for i in range(8):
            b = [(i >> 2) & 1, (i >> 1) & 1, i & 1]
            j = (b[0] << 2) | (b[2] << 1) | b[1]
            perm[j, i] = 1.0
        full02 = perm @ np.kron(u, np.eye(2)) @ perm
        s2 = random_state(3)
        assert np.abs(apply_on_sites(u, [0, 2], s2) - full02 @ s2).max() <= 1e-13

    def test_errors(self):
        s = random_state(3)
        with pytest.raises(ValueError):
            apply_on_sites(np.eye(4), [0, 0], s)
        with pytest.raises(ValueError):
            apply_on_sites(np.eye(4), [0], s)
        with pytest.raises(ValueError):
            apply_on_sites(np.eye(4), [0, 3], s)

    def test_norm_preserved(self):
        for _ in range(20):
            s = random_state(4)
            u = random_unitary(4)
            out = apply_on_sites(u, [1, 3], s)
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    def test_composition(self):
        s = random_state(3)
        u, v = random_unitary(4), random_unitary(4)
        lhs = apply_on_sites(v, [0, 2], apply_on_sites(u, [0, 2], s))
        rhs = apply_on_sites(v @ u, [0, 2], s)
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestMeasureSite:
    def test_eigenstate(self):
        prob, post = measure_site(basis_state("udd"), 0, core.UP)
        assert prob == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(post, basis_state("udd"))

    def test_bell_state(self):
        prob, post = measure_site(PSI_PLUS, 0, core.DOWN)
        assert prob == pytest.approx(0.5, abs=1e-15)
        assert np.allclose(post, basis_state("du"))

    def test_closed_form_point(self):
        # jt = pi/8: beta = 1 - i, gamma = 1, p_down = 3/4
        prob, post = measure_site(closed_form_state(np.pi / 8), 0, core.DOWN)
        assert prob == pytest.approx(0.75, abs=1e-12)
        beta, gamma = 1.0 - 1.0j, 1.0
        expected = np.zeros(8, dtype=complex)
        expected[0b101] = beta
        expected[0b110] = gamma
        expected *= np.exp(-1j * np.pi / 4) / np.linalg.norm(expected) / 1.0
        # post state equals expectation up to the retained global phase
        overlap = abs(np.vdot(expected, post))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_impossible_outcome(self):
        with pytest.raises(ValueError, match="impossible"):
            measure_site(basis_state("udd"), 0, core.DOWN)

    def test_probabilities_sum_to_one(self):
        for _ in range(20):
            s = random_state(3)
            total = sum(measure_site(s, 1, o)[0] for o in (core.UP, core.DOWN))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestPartialTrace:
    def test_product_state(self):
        rho = partial_trace(basis_state("ud"), [0])
        assert np.allclose(rho, np.diag([1.0, 0.0]))

    def test_maximally_entangled(self):
        rho = partial_trace(PSI_MINUS, [0])
        assert np.allclose(rho, np.eye(2) / 2)

    def test_closed_form_spectrum(self):
        rho = partial_trace(closed_form_state(np.pi / 8), [1, 2])
        vals = np.sort(np.linalg.eigvalsh(rho))
        assert np.allclose(vals, [0.0, 0.0, 0.25, 0.75], atol=1e-12)

    def test_against_outer_product_oracle(self):
        # oracle: form |psi><psi| and sum the traced indices explicitly
        s = random_state(3)
        full = np.outer(s, s.conj()).reshape([2] * 6)
        oracle = np.zeros((2, 2), dtype=complex)
        for a in range(2):
            for b in range(2):
                for i in range(2):
                    for j in range(2):
                        oracle[a, b] += full[i, a, j, i, b, j]
        assert np.abs(partial_trace(s, [1]) - oracle).max() <= 1e-13

    def test_density_matrix_input(self):
        s = random_state(3)
        rho_full = np.outer(s, s.conj())
        assert np.abs(partial_trace(rho_full, [0, 2]) - partial_trace(s, [0, 2])).max() <= 1e-12

    def test_trace_and_hermiticity(self):
        for _ in range(10):
            rho = partial_trace(random_state(4), [1, 2])
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            assert np.abs(rho - rho.conj().T).max() <= 1e-12

    def test_schmidt_property(self):
        # complementary reductions share their nonzero spectrum
        for _ in range(10):
            s = random_state(4)
            e1 = np.sort(np.linalg.eigvalsh(partial_trace(s, [0, 1])))[::-1]
            e2 = np.sort(np.linalg.eigvalsh(partial_trace(s, [2, 3])))[::-1]
            assert np.abs(e1 - e2).max() <= 1e-10

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(basis_state("ud"), [])


def test_normalize_zero_state_rejected():
    with pytest.raises(ValueError):
        core.normalize(np.zeros(4, dtype=complex))


def test_check_density_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        core.check_density_matrix(np.array([[0.7, 0.5], [0.1, 0.3]], dtype=complex))
    with pytest.raises(ValueError):
        core.check_density_matrix(np.diag([0.7, 0.7]).astype(complex))


def test_complex_array_rounds_as_python_complex():
    # reference: Python's own complex and float arithmetic, one value at a time
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 2000)) * 10.0 ** rng.integers(-3, 4, size=(2, 2000))
    y = rng.normal(size=(2, 2000))
    za, zb = core.ComplexArray(*x), core.ComplexArray(*y)
    pairs = [complex(*p) for p in x.T], [complex(*p) for p in y.T]
    results = [(za * zb, [a * b for a, b in zip(*pairs)]),
               (1.0 - za + zb, [1.0 - a + b for a, b in zip(*pairs)]),
               (-7 * za, [-7 * a for a in pairs[0]]),
               (za / y[1], [a / d for a, d in zip(pairs[0], y[1].tolist())])]
    results += [(za**n, [a**n for a in pairs[0]]) for n in range(1, 8)]
    for got, want in results:
        assert got.re.tolist() == [w.real for w in want]
        assert got.im.tolist() == [w.imag for w in want]
    assert abs(za).tolist() == [abs(a) for a in pairs[0]]
    assert core.pow2(x[0]).tolist() == [v**2 for v in x[0].tolist()]
