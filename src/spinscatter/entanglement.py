"""Two-qubit entanglement measures.

Binary entropy, pure-state concurrence, entanglement of formation and
the Wootters mixed-state concurrence.  All entropies are in base 2 so
entanglement lands on the [0, 1] ebit scale.
"""

from __future__ import annotations

import numpy as np

from .core import check_density_matrix

# Raw concurrence values in (-CLAMP_NEGATIVE, 0) are round-off and clamp
# to zero; anything more negative is a bug in the caller.
CLAMP_NEGATIVE = 1e-9

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log2 (1-x), with h(0) = h(1) = 0.

    Elementwise over an array; a scalar gives a float.
    """
    x = np.asarray(x, dtype=float)
    outside = (x < -1e-12) | (x > 1.0 + 1e-12)
    if outside.any():
        raise ValueError(f"binary_entropy argument {x[outside][0]} outside [0, 1]")
    x = np.clip(x, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    h = np.where((x == 0.0) | (x == 1.0), 0.0, h)
    return h if h.ndim else float(h)


def _clamp_concurrence(raw):
    raw = np.asarray(raw, dtype=float)
    negative = raw < -CLAMP_NEGATIVE
    if negative.any():
        raise ValueError(f"concurrence {raw[negative][0]} is negative beyond round-off")
    return np.clip(raw, 0.0, 1.0)


def concurrence_pure(amps: np.ndarray) -> float:
    """Concurrence 2|a00 a11 - a01 a10| of a normalized two-qubit pure state."""
    amps = np.asarray(amps, dtype=complex).reshape(-1)
    if amps.shape != (4,):
        raise ValueError("pure-state concurrence needs 4 amplitudes")
    nrm = np.linalg.norm(amps)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"input state is not normalized (norm {nrm})")
    return float(_clamp_concurrence(2.0 * abs(amps[0] * amps[3] - amps[1] * amps[2])))


def eof_from_concurrence(c):
    """Entanglement of formation E = h((1 + sqrt(1 - C^2)) / 2).

    Elementwise over an array; a scalar gives a float.
    """
    c = _clamp_concurrence(c)
    return binary_entropy((1.0 + np.sqrt(np.fmax(1.0 - c * c, 0.0))) / 2.0)


def concurrence_mixed(rho: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    C = max(0, sqrt(mu1) - sqrt(mu2) - sqrt(mu3) - sqrt(mu4)) with mu_i
    the descending eigenvalues of rho (sy x sy) rho* (sy x sy).  The
    spectrum is obtained from the equivalent Hermitian form
    sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho), which is guaranteed
    real and nonnegative.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("mixed-state concurrence needs a 4x4 density matrix")
    check_density_matrix(rho)

    vals, vecs = np.linalg.eigh(rho)
    # eigenvalues at round-off level are noise whose square root would
    # dominate the lambda spectrum; zero them before taking sqrt(rho)
    vals = np.where(vals > 1e-14 * vals.max(), vals, 0.0)
    sqrt_rho = (vecs * np.sqrt(vals)) @ vecs.conj().T
    # lambda_i are the singular values of sqrt(rho) (sy x sy) sqrt(rho)*,
    # i.e. the sqrt-eigenvalues of the Hermitian form
    # sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho)
    lam = np.linalg.svd(sqrt_rho @ _YY @ sqrt_rho.conj(), compute_uv=False)
    # the max(0, .) is part of Wootters' formula: separable states give a
    # genuinely negative sum, which is not a numerical error
    return min(max(float(lam[0] - lam[1] - lam[2] - lam[3]), 0.0), 1.0)
