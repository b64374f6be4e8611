"""Realistic multiple-scattering model.

The transmitted channel of an electron scattering off two impurities is
a superposition A|up>|dd> + B|down>|ud> + C|down>|du>.  A, B, C are
given by the third-iteration (sixth order in lambda) amplitude series in
lambda = i pi j/2 and t = 1 - lambda, with j the dimensionless coupling
strength J*rho(eps_F).  The triple is renormalized to unit norm so it
reads as a conditional (transmitted) state.

The series is used on j in [0, 2] (SERIES_RANGE).  It is a truncated
sum, not a converged one: |lambda| = pi j/2 exceeds 1 for j > 2/pi, and
at the maximal-entanglement point j* = 0.6638 (|lambda| = 1.043) the
unnormalized amplitudes are |A| = 28.5 and |B| = |C| = 21.3.

Every function evaluates one path over arrays of couplings; the
single-coupling functions call it with a scalar.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import ComplexArray, pow2
from .entanglement import eof_from_concurrence

SERIES_RANGE = (0.0, 2.0)
# Grid of the sign-change scan that brackets the roots of |B| - |C|.
ROOT_SCAN_POINTS = 2001


@dataclass(frozen=True)
class SeriesParams:
    lam: complex
    t_amp: complex


@dataclass(frozen=True)
class ScatteringAmplitudes:
    a: complex  # electron up,   impurities down-down
    b: complex  # electron down, impurities up-down
    c: complex  # electron down, impurities down-up
    normalized: bool


@dataclass(frozen=True)
class ScatterPoint:
    """One coupling (float fields) or a grid of them (array fields)."""

    j_rho: float | np.ndarray
    p_down: float | np.ndarray
    p_up: float | np.ndarray
    concurrence: float | np.ndarray
    eof: float | np.ndarray
    abs_a: float | np.ndarray
    abs_b: float | np.ndarray
    abs_c: float | np.ndarray


def _couplings(j_rho) -> np.ndarray:
    j = np.asarray(j_rho, dtype=float)
    if j.size == 0:
        raise ValueError("grid must be nonempty")
    if not np.all(np.isfinite(j)):
        raise ValueError("coupling strength must be finite")
    if np.any(j < 0.0):
        raise ValueError("coupling strength must be nonnegative")
    return j


def _series(j) -> tuple[ComplexArray, ComplexArray]:
    lam = 0.5j * np.pi * ComplexArray(j)
    return lam, 1.0 - lam


def _raw(j) -> tuple[ComplexArray, ComplexArray, ComplexArray]:
    lam, t = _series(j)
    a = t**2 + t**2 * lam**2 - 8 * t * lam**3 + 16 * lam**6 - 7 * t**2 * lam**4
    b = -2 * lam * t + 2 * t * lam**3 - 2 * t**2 * lam**2 + 6 * t * lam**5 + 8 * t**2 * lam**4
    c = -2 * lam * t + 8 * lam**4 - 2 * t * lam**3 + 2 * t**2 * lam**2 + 6 * t * lam**5
    return a, b, c


def _normalized(j) -> tuple[ComplexArray, ComplexArray, ComplexArray]:
    a, b, c = _raw(j)
    with np.errstate(over="ignore", invalid="ignore"):
        nrm = np.sqrt(pow2(abs(a)) + pow2(abs(b)) + pow2(abs(c)))
    bad = ~np.isfinite(nrm) | (nrm < 1e-15)
    if bad.any():
        raise ValueError(f"degenerate or overflowing raw amplitude triple at j_rho={j[bad][0]}")
    return a / nrm, b / nrm, c / nrm


def _evaluate(j) -> ScatterPoint:
    lo, hi = SERIES_RANGE
    outside = np.count_nonzero((j < lo) | (j > hi))
    if outside:
        warnings.warn(
            f"{outside} of {j.size} j_rho values outside the series validity range [{lo}, {hi}]",
            stacklevel=3,
        )
    a, b, c = _normalized(j)
    abs_a, abs_b, abs_c = abs(a), abs(b), abs(c)
    b2, c2 = pow2(abs_b), pow2(abs_c)
    p_down = b2 + c2
    conc = np.divide(2.0 * abs(b * c), b2 + c2, out=np.zeros_like(p_down), where=p_down > 0.0)
    return ScatterPoint(
        j_rho=j,
        p_down=p_down,
        p_up=pow2(abs_a),
        concurrence=conc,
        eof=eof_from_concurrence(conc),
        abs_a=abs_a,
        abs_b=abs_b,
        abs_c=abs_c,
    )


def series_params(j_rho: float) -> SeriesParams:
    lam, t = _series(_couplings(j_rho))
    return SeriesParams(lam=complex(lam), t_amp=complex(t))


def raw_series_order3(j_rho: float) -> ScatteringAmplitudes:
    """Unnormalized (A, B, C) polynomials of the third scattering iteration."""
    a, b, c = _raw(_couplings(j_rho))
    return ScatteringAmplitudes(a=complex(a), b=complex(b), c=complex(c), normalized=False)


def normalized_amplitudes(j_rho: float) -> ScatteringAmplitudes:
    a, b, c = _normalized(_couplings(j_rho))
    return ScatteringAmplitudes(a=complex(a), b=complex(b), c=complex(c), normalized=True)


def scatter_point(j_rho: float) -> ScatterPoint:
    """Conditional success probability and entanglement at one coupling.

    Conditioned on transmission: p_down = |b|^2 + |c|^2 is the chance of
    a spin-down transmitted electron (the entangling outcome); spin-up
    leaves the impurities unentangled.  Warns outside SERIES_RANGE.
    """
    point = _evaluate(_couplings(j_rho))
    return ScatterPoint(**{name: float(v) for name, v in vars(point).items()})


def sweep_scatter(j_grid) -> ScatterPoint:
    """`scatter_point` over a grid of couplings, as arrays.  Warns once,
    with their number, when some lie outside SERIES_RANGE."""
    return _evaluate(_couplings(j_grid))


def _flip_imbalance(j) -> np.ndarray:
    _, b, c = _raw(j)
    return abs(b) - abs(c)


def find_max_entanglement(lo: float, hi: float) -> list[float]:
    """Couplings in (lo, hi) where |B| = |C|, i.e. concurrence = 1.

    Sign-change scan of |B| - |C| on a ROOT_SCAN_POINTS grid, then
    bisection until the imbalance drops below 1e-12.  Returns all roots
    in increasing order; an empty list means no maximal-entanglement
    point bracketed.
    """
    if not 0.0 <= lo < hi <= SERIES_RANGE[1]:
        raise ValueError(f"need 0 <= lo < hi <= {SERIES_RANGE[1]}, got [{lo}, {hi}]")
    grid = np.linspace(lo, hi, ROOT_SCAN_POINTS)
    f = _flip_imbalance(grid)
    roots = []
    for i in np.flatnonzero((f[:-1] == 0.0) | (f[:-1] * f[1:] < 0.0)):
        if f[i] == 0.0:
            if abs(raw_series_order3(grid[i]).b) > 1e-12:
                roots.append(float(grid[i]))
            continue
        a, b = float(grid[i]), float(grid[i + 1])
        fa = f[i]
        while True:
            m = 0.5 * (a + b)
            fm = _flip_imbalance(m)
            if abs(fm) <= 1e-12 or (b - a) < 1e-16:
                roots.append(m)
                break
            if (fm > 0) == (fa > 0):
                a, fa = m, fm
            else:
                b = m
    return roots
