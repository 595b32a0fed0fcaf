"""Frequency-by-frequency scalar model: regularized energy and growth fits.

For a nonnegative time coefficient a(t) the single-mode equation

    w''(t) = -a(t) |xi|^2 w(t)

is integrated by RK4, and the regularized energy

    E_eps(t) = |w'(t)|^2 + (a(t) + eps) |xi|^2 |w(t)|^2

is tracked with the frequency-tuned shift eps = |xi|^(-2/(k+2)).  Over
a dyadic frequency ladder the growth G(xi) = max_t log(E_eps(t)/E_eps(0))
is fitted against log|xi|; the fitted slope must stay below the budget
2/(k+2) for a C^k coefficient.

The mode equation is linear in y = (w, w'), so an RK4 step is a 2 x 2
matrix and y(t_j) = Phi_j y(0), Phi_j the product of the first j step
matrices.  `_propagator` forms these prefix products by doubling within
blocks of `BLOCK` steps that carry the running product, so temporaries
stay bounded; the result holds 48 bytes per step (t, a(t) and Phi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .spectral import STEP_BUDGET

__all__ = [
    "TimeCoefficient",
    "coefficient_linear",
    "coefficient_parabola",
    "coefficient_constant",
    "max_energy_growth",
    "growth_exponent_fit",
]

HORIZON = 1.0      # T: every mode runs on [0, T]
BLOCK = 1 << 16    # steps per block of the prefix product


@dataclass(frozen=True)
class TimeCoefficient:
    """Nonnegative coefficient a(t) on [0, HORIZON] and its C^k class.

    `fn` maps an array of times to the array of values of a.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    k: int

    def sup_a(self) -> float:
        return float(np.max(self.fn(np.linspace(0.0, HORIZON, 4096))))


def coefficient_linear() -> TimeCoefficient:
    return TimeCoefficient(fn=lambda t: t, k=1)


def coefficient_parabola() -> TimeCoefficient:
    return TimeCoefficient(fn=lambda t: (t - 0.5) ** 2, k=2)


def coefficient_constant(value: float = 1.0) -> TimeCoefficient:
    return TimeCoefficient(fn=lambda t: np.full(np.shape(t), value), k=1)


def _mode_dt(tc: TimeCoefficient, xi: float) -> float:
    dt = min(1e-3, 0.05 / (abs(xi) * math.sqrt(tc.sup_a() + 1.0)))
    # counted in floats: T / dt can overflow to inf, and dt underflow to 0
    steps = HORIZON / dt if dt > 0.0 else math.inf
    if not steps <= STEP_BUDGET:
        raise ValueError(f"{steps:.6g} steps exceed the budget "
                         f"{STEP_BUDGET} for xi={xi}, T={HORIZON}")
    return HORIZON / math.ceil(steps)


def _propagator(tc: TimeCoefficient, xi: float, dt: Optional[float] = None):
    """RK4 fundamental matrices of the mode; returns (t, a(t), Phi).

    t holds the N + 1 step times, accumulated as t += dt, and Phi has
    shape (N + 1, 2, 2) with y(t_j) = Phi[j] @ y(0) for y = (w, w').
    """
    if dt is None:
        dt = _mode_dt(tc, xi)
    steps = int(round(HORIZON / dt))
    t = np.add.accumulate(np.r_[0.0, np.full(steps, dt)])   # as t += dt
    a = tc.fn(t)
    # the generator A(t) = [[0, 1], [-a(t) xi^2, 0]] is N - a(t) xi^2 E
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    E = N.T
    Phi = np.empty((steps + 1, 2, 2))
    Phi[0] = np.eye(2)
    for start in range(0, steps, BLOCK):
        stop = min(start + BLOCK, steps)
        A = N - np.multiply.outer(xi * xi * a[start:stop + 1], E)
        a_mid = tc.fn(t[start:stop] + 0.5 * dt)
        Am = N - np.multiply.outer(xi * xi * a_mid, E)
        K1 = A[:-1]
        K2 = Am + 0.5 * dt * (Am @ K1)
        K3 = Am + 0.5 * dt * (Am @ K2)
        K4 = A[1:] + dt * (A[1:] @ K3)
        X = dt / 6.0 * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
        shift = 1
        while shift < len(X):   # doubling: I + X[j] becomes M[j] ... M[0]
            X[shift:] += X[:-shift] + X[shift:] @ X[:-shift]
            shift *= 2
        Phi[start + 1:stop + 1] = Phi[start] + X @ Phi[start]
    return t, a, Phi


def max_energy_growth(tc: TimeCoefficient, xi: float, eps: float):
    """Worst-case energy amplification max_t sup_u E_eps(t)/E_eps(0).

    The fundamental matrix in energy coordinates z = (w', sqrt(a + eps)
    |xi| w) maps z(0) to z(t); its largest squared singular value is
    the amplification over all initial data, free of phase accidents.
    Returns (ratio, steps).
    """
    t, a, Phi = _propagator(tc, xi)
    omega = np.sqrt(a + eps) * abs(xi)
    # columns: the solutions with z(0) = e1 (w = 0, w' = 1) and
    # z(0) = e2 (w = 1/omega(0), w' = 0)
    p, q = Phi[:, 1, 1], Phi[:, 1, 0] / omega[0]
    r, s = omega * Phi[:, 0, 1], omega * Phi[:, 0, 0] / omega[0]
    # largest singular value of [[p, q], [r, s]], without cancellation
    top = 0.5 * (np.hypot(p + s, q - r) + np.hypot(p - s, q + r))
    return float(np.max(top * top)), len(t) - 1


def growth_exponent_fit(tc: TimeCoefficient, xi_list: Sequence[float],
                        k: Optional[int] = None) -> dict:
    """Fit log G(xi) = p log|xi| + const over a dyadic ladder.

    G(xi) = max_t log(E_eps(t)/E_eps(0)) with eps = |xi|^(-2/(k+2)),
    maximized over initial data (fundamental-matrix norm).  Returns
    slope, intercept, rms residual and the per-frequency table.
    Non-positive growth anywhere is reported with slope 0 and a flag.
    Raises ValueError before any integration if a ladder entry needs
    more than STEP_BUDGET steps.
    """
    if len(xi_list) < 6:
        raise ValueError("need at least 6 ladder frequencies for the fit")
    for xi in xi_list:
        _mode_dt(tc, xi)
    k_eff = tc.k if k is None else k
    rows = []
    for xi in xi_list:
        eps = abs(xi) ** (-2.0 / (k_eff + 2.0))
        ratio, steps = max_energy_growth(tc, xi, eps)
        G = math.log(ratio) if ratio > 0 else float("-inf")
        rows.append({"xi": xi, "eps": eps, "G": G, "steps": steps})
    Gs = np.array([r["G"] for r in rows])
    if np.any(Gs <= 0.0):
        return {"k": k_eff, "slope": 0.0, "intercept": 0.0,
                "residual": 0.0, "rows": rows, "no_growth": True}
    logxi = np.log(np.abs(np.array([r["xi"] for r in rows])))
    logG = np.log(Gs)
    A = np.vstack([logxi, np.ones_like(logxi)]).T
    coef = np.linalg.lstsq(A, logG, rcond=None)[0]
    rms = float(np.sqrt(np.mean((logG - A @ coef) ** 2)))
    return {"k": k_eff, "slope": float(coef[0]), "intercept": float(coef[1]),
            "residual": rms, "rows": rows, "no_growth": False}
