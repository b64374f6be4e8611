"""Dense linear algebra on small tensor-product spin-1/2 Hilbert spaces.

Basis convention (fixed repo-wide): site 0 is the electron spin, sites
1..N are the impurities in spatial order.  A basis index is
sum_i b_i * 2**(n-1-i) with b_i = 0 for up and 1 for down, i.e. site 0
is the most significant bit.  States are 1-D complex ndarrays of length
2**n_sites, operators are square 2-D complex ndarrays.

`ComplexArray` and `pow2` are the complex and float arithmetic the
model sweeps share: whole grids, rounded as Python rounds one point.
"""

from __future__ import annotations

import numpy as np

# Algebraic comparisons (norms, unitarity, traces).
ATOL = 1e-12
# Spectral comparisons (eigenvalues of reduced density matrices).
SPECTRAL_ATOL = 1e-10
# Below this squared norm a measurement branch counts as impossible.
IMPOSSIBLE_OUTCOME = 1e-15

UP, DOWN = 0, 1

KET_UP = np.array([1.0, 0.0], dtype=complex)
KET_DOWN = np.array([0.0, 1.0], dtype=complex)

# Bell states of the electron-impurity pair, (|ud> +/- |du>)/sqrt(2).
PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)


def n_sites_of(state: np.ndarray) -> int:
    """Number of spin-1/2 sites encoded by a state vector."""
    dim = state.shape[0]
    n = dim.bit_length() - 1
    if state.ndim != 1 or dim != 2**n:
        raise ValueError(f"state length {dim} is not a power of two")
    return n


def basis_state(bits: str) -> np.ndarray:
    """State vector for a product basis ket, e.g. 'udd' -> |up,down,down>."""
    index = 0
    for ch in bits:
        if ch not in "ud":
            raise ValueError(f"spin character must be 'u' or 'd', got {ch!r}")
        index = 2 * index + (ch == "d")
    out = np.zeros(2 ** len(bits), dtype=complex)
    out[index] = 1.0
    return out


def normalize(state: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(state)
    if nrm < IMPOSSIBLE_OUTCOME:
        raise ValueError("cannot normalize a (numerically) zero state")
    return state / nrm


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two states (1-D) or two operators (2-D)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != b.ndim or a.ndim not in (1, 2):
        raise ValueError("kron requires two states or two operators, not a mix")
    return np.kron(a, b)


def apply_on_sites(u: np.ndarray, sites: list[int], state: np.ndarray) -> np.ndarray:
    """Apply operator u to the listed sites of a multi-site state.

    The first site in `sites` is the most significant bit of u's own
    index, consistent with the global convention.
    """
    n = n_sites_of(state)
    k = len(sites)
    if len(set(sites)) != k:
        raise ValueError(f"repeated site index in {sites}")
    if any(s < 0 or s >= n for s in sites):
        raise ValueError(f"site index out of range for {n} sites: {sites}")
    if u.shape != (2**k, 2**k):
        raise ValueError(f"operator dim {u.shape} does not match {k} sites")

    psi = state.reshape([2] * n)
    rest = [i for i in range(n) if i not in sites]
    psi = psi.transpose(list(sites) + rest).reshape(2**k, -1)
    psi = u @ psi
    psi = psi.reshape([2] * n)
    inverse = np.argsort(list(sites) + rest)
    return psi.transpose(inverse).reshape(-1)


def measure_site(state: np.ndarray, site: int, outcome: int) -> tuple[float, np.ndarray]:
    """Projective z-basis measurement of one site.

    Returns (probability, post-measurement state).  The measured site is
    kept and collapsed to the outcome, not removed.  Raises if the
    outcome probability is numerically zero.
    """
    n = n_sites_of(state)
    if not 0 <= site < n:
        raise ValueError(f"site {site} out of range for {n} sites")
    if outcome not in (UP, DOWN):
        raise ValueError("outcome must be UP (0) or DOWN (1)")

    psi = state.reshape([2] * n)
    projected = np.zeros_like(psi)
    sel = [slice(None)] * n
    sel[site] = outcome
    projected[tuple(sel)] = psi[tuple(sel)]
    projected = projected.reshape(-1)

    prob = float(np.vdot(projected, projected).real)
    if prob < IMPOSSIBLE_OUTCOME:
        raise ValueError(f"impossible outcome {outcome} on site {site} (p={prob:.3e})")
    return prob, projected / np.sqrt(prob)


def partial_trace(state_or_rho: np.ndarray, keep: list[int]) -> np.ndarray:
    """Reduced density matrix over the kept sites (in the order given)."""
    arr = np.asarray(state_or_rho, dtype=complex)
    if not keep:
        raise ValueError("keep list must be nonempty")
    if len(set(keep)) != len(keep):
        raise ValueError(f"repeated site index in {keep}")

    if arr.ndim == 1:
        n = n_sites_of(arr)
        if any(s < 0 or s >= n for s in keep):
            raise ValueError(f"site index out of range for {n} sites: {keep}")
        rest = [i for i in range(n) if i not in keep]
        psi = arr.reshape([2] * n).transpose(keep + rest).reshape(2 ** len(keep), -1)
        return psi @ psi.conj().T

    if arr.ndim == 2:
        n = arr.shape[0].bit_length() - 1
        if arr.shape != (2**n, 2**n):
            raise ValueError("density matrix dimension is not a power of two")
        if any(s < 0 or s >= n for s in keep):
            raise ValueError(f"site index out of range for {n} sites: {keep}")
        rest = [i for i in range(n) if i not in keep]
        rho = arr.reshape([2] * (2 * n))
        perm = keep + rest + [n + i for i in keep] + [n + i for i in rest]
        dk, dr = 2 ** len(keep), 2 ** len(rest)
        rho = rho.transpose(perm).reshape(dk, dr, dk, dr)
        return np.einsum("arbr->ab", rho)

    raise ValueError("expected a state vector (1-D) or density matrix (2-D)")


def check_density_matrix(rho: np.ndarray, atol: float = ATOL) -> None:
    """Raise unless rho is Hermitian, unit-trace and PSD within tolerance."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if np.abs(rho - rho.conj().T).max() > atol:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > atol or abs(np.trace(rho).imag) > atol:
        raise ValueError("density matrix trace differs from 1")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise ValueError("density matrix has a significantly negative eigenvalue")


class ComplexArray:
    """Complex numbers held as separate float64 real and imaginary parts
    (arrays or scalars), with the arithmetic of Python's `complex`: the
    textbook product (ar*br - ai*bi, ar*bi + ai*br), binary powering for
    integer powers and hypot for the modulus.

    numpy's complex128 loops multiply, square and take moduli with vector
    code that rounds differently from these formulas in the last bits, as
    often as the CPU's vector extensions make it.  Built from separately
    rounded float64 operations, a whole grid gets the same bits as one
    point at a time with Python complex numbers.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im=0.0):
        self.re, self.im = re, im

    @staticmethod
    def _parts(other):
        if isinstance(other, ComplexArray):
            return other.re, other.im
        other = complex(other)  # a Python number, as `complex` converts it
        return other.real, other.imag

    def __add__(self, other):
        re, im = self._parts(other)
        return ComplexArray(self.re + re, self.im + im)

    def __sub__(self, other):
        re, im = self._parts(other)
        return ComplexArray(self.re - re, self.im - im)

    def __rsub__(self, other):
        re, im = self._parts(other)
        return ComplexArray(re - self.re, im - self.im)

    def __mul__(self, other):
        re, im = self._parts(other)
        return ComplexArray(self.re * re - self.im * im, self.re * im + self.im * re)

    __rmul__ = __mul__

    def __truediv__(self, divisor):
        """Division by a real divisor (a float or a float array), which is
        what Python's complex division by (d, 0) reduces to."""
        return ComplexArray(self.re / divisor, self.im / divisor)

    def __pow__(self, n: int):
        """Integer power n >= 1 by CPython's binary powering: the same
        products, in the same order."""
        result, base = None, self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __abs__(self):
        return np.hypot(self.re, self.im)

    def __complex__(self) -> complex:
        return complex(self.re, self.im)


def pow2(x):
    """x ** 2 as Python computes it for a float: libm's pow(x, 2.0), which
    rounds differently from x * x for about one value in a thousand."""
    return np.float_power(x, 2.0)
