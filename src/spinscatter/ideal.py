"""Ideal sequential-interaction model.

A flying electron spin interacts successively with N stationary
spin-1/2 impurities through the same exchange unitary
U(jt) = exp(-i jt S.sigma) (Pauli convention on both spins).  For the
two-impurity case the post-selected entanglement and the success
probability of measuring the electron spin-down admit closed forms;
the dense simulation is the general engine and doubles as a
cross-check.

Everything is a function of the dimensionless angle jt (coupling J
times interaction time t); all derived quantities are pi/2-periodic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import PSI_MINUS, ComplexArray, apply_on_sites, basis_state, pow2
from .entanglement import eof_from_concurrence

# Grid of the scan that brackets the constrained optimum.
OPTIMUM_SCAN_POINTS = 20001


@dataclass(frozen=True)
class IdealCoefficients:
    """Unnormalized final-state triple (alpha, beta, gamma) and the
    common prefactor exp(-2i jt)/2 of the two-impurity closed form."""

    alpha: complex | np.ndarray
    beta: complex | np.ndarray
    gamma: complex | np.ndarray
    global_phase: complex | np.ndarray


@dataclass(frozen=True)
class IdealPoint:
    """One angle (float fields) or a grid of them (array fields)."""

    jt: float | np.ndarray
    p_down: float | np.ndarray
    concurrence: float | np.ndarray
    eof: float | np.ndarray


def exchange_unitary(jt: float) -> np.ndarray:
    """4x4 exchange unitary: phase e^{3i jt} on the singlet, e^{-i jt}
    on the three triplet states."""
    if not np.isfinite(jt):
        raise ValueError("jt must be finite")
    singlet = np.outer(PSI_MINUS, PSI_MINUS.conj())
    triplet = np.eye(4) - singlet
    return np.exp(3j * jt) * singlet + np.exp(-1j * jt) * triplet


def closed_form_coefficients(jt) -> IdealCoefficients:
    """Final-state coefficients for electron-up, both impurities down;
    elementwise over an array of angles."""
    jt = np.asarray(jt, dtype=float)
    if not np.all(np.isfinite(jt)):
        raise ValueError("jt must be finite")
    z = np.exp(4j * jt)
    return IdealCoefficients(
        alpha=(1.0 + z) ** 2 / 2.0,
        beta=1.0 - z,
        gamma=(1.0 - np.exp(8j * jt)) / 2.0,
        global_phase=np.exp(-2j * jt) / 2.0,
    )


def closed_form_state(jt: float) -> np.ndarray:
    """Three-site final state built from the closed-form coefficients."""
    c = closed_form_coefficients(jt)
    psi = np.zeros(8, dtype=complex)
    psi[0b011] = c.global_phase * c.alpha  # |u,d,d>
    psi[0b101] = c.global_phase * c.beta   # |d,u,d>
    psi[0b110] = c.global_phase * c.gamma  # |d,d,u>
    return psi


def simulate_sequential(initial: np.ndarray, jt: float, n_impurities: int) -> np.ndarray:
    """Apply the exchange unitary between the electron (site 0) and each
    impurity 1..n_impurities in order."""
    if n_impurities < 1:
        raise ValueError("need at least one impurity")
    if core.n_sites_of(initial) != n_impurities + 1:
        raise ValueError(
            f"initial state has {core.n_sites_of(initial)} sites, "
            f"expected {n_impurities + 1}"
        )
    u = exchange_unitary(jt)
    psi = initial
    for imp in range(1, n_impurities + 1):
        psi = apply_on_sites(u, [0, imp], psi)
    return psi


def _evaluate(jt) -> IdealPoint:
    c = closed_form_coefficients(jt)
    beta = ComplexArray(c.beta.real, c.beta.imag)
    gamma = ComplexArray(c.gamma.real, c.gamma.imag)
    b2, g2 = pow2(abs(beta)), pow2(abs(gamma))
    p_down = (b2 + g2) / 4.0
    conc = np.divide(2.0 * abs(beta * gamma), b2 + g2,
                     out=np.zeros_like(p_down), where=p_down > 0.0)
    return IdealPoint(jt=jt, p_down=p_down, concurrence=conc, eof=eof_from_concurrence(conc))


def ideal_point(jt: float) -> IdealPoint:
    """Success probability and post-selected entanglement at one angle.

    p_down is the probability of finding the electron spin-down after
    the two interactions; the concurrence is that of the conditional
    impurity state beta|ud> + gamma|du> (zero by convention when the
    outcome never occurs).
    """
    point = _evaluate(np.asarray(jt, dtype=float))
    return IdealPoint(**{name: float(v) for name, v in vars(point).items()})


def sweep_ideal(jt_grid) -> IdealPoint:
    """`ideal_point` over a grid of angles, as arrays."""
    grid = np.asarray(jt_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    return _evaluate(grid)


def initial_state(n_impurities: int) -> np.ndarray:
    """Electron up, all impurities down."""
    return basis_state("u" + "d" * n_impurities)


def best_probability_at_entanglement(
    target_eof: float,
    lo: float = 0.0,
    hi: float = np.pi / 2,
) -> IdealPoint | None:
    """Point maximizing p_down subject to eof >= target on [lo, hi].

    Grid scan followed by bisection of eof(jt) = target along the
    neighboring grid edge, which is where the constrained maximum sits
    (p_down and eof trade off monotonically along the curve).
    """
    if not 0.0 <= target_eof <= 1.0:
        raise ValueError("target entanglement must lie in [0, 1]")
    grid = np.linspace(lo, hi, OPTIMUM_SCAN_POINTS)
    pts = sweep_ideal(grid)
    feasible = pts.eof >= target_eof
    if not feasible.any():
        return None
    # first index of the largest feasible p_down
    best = int(np.argmax(np.where(feasible, pts.p_down, -np.inf)))

    # Refine along the edge toward the infeasible neighbor with larger p.
    for nb in (best - 1, best + 1):
        if 0 <= nb < grid.size and pts.eof[nb] < target_eof and pts.p_down[nb] > pts.p_down[best]:
            a, b = grid[best], grid[nb]
            for _ in range(200):
                m = 0.5 * (a + b)
                if ideal_point(m).eof >= target_eof:
                    a = m
                else:
                    b = m
            refined = ideal_point(a)
            if refined.p_down > pts.p_down[best]:
                return refined
    return ideal_point(grid[best])
