"""Frequency-by-frequency scalar model: regularized energy and growth fits.

For a nonnegative time coefficient a(t) the single-mode equation

    w''(t) = -a(t) |xi|^2 w(t)

is integrated by RK4, and the regularized energy

    E_eps(t) = |w'(t)|^2 + (a(t) + eps) |xi|^2 |w(t)|^2

is tracked with the frequency-tuned shift eps = |xi|^(-2/(k+2)).  Over
a dyadic frequency ladder the growth G(xi) = max_t log(E_eps(t)/E_eps(0))
is fitted against log|xi|; the fitted slope must stay below the budget
2/(k+2) for a C^k coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "ModeState",
    "TimeCoefficient",
    "coefficient_linear",
    "coefficient_parabola",
    "coefficient_constant",
    "e_eps",
    "integrate_mode",
    "max_energy_growth",
    "growth_exponent_fit",
    "glaeser_l1_check",
    "StepBudgetError",
]

STEP_BUDGET = 10_000_000


class StepBudgetError(RuntimeError):
    pass


@dataclass
class ModeState:
    w: complex
    dw_dt: complex
    xi: float
    t: float


@dataclass(frozen=True)
class TimeCoefficient:
    """Nonnegative coefficient a(t) on [0, T] with its C^k class data."""

    fn: Callable[[float], float]
    k: int
    name: str = ""
    dfn: Optional[Callable[[float], float]] = None

    def a(self, t):
        return self.fn(t)

    def da(self, t, h: float = 1e-6):
        if self.dfn is not None:
            return self.dfn(t)
        return (self.fn(t + h) - self.fn(t - h)) / (2.0 * h)

    def sup_a(self, T: float, samples: int = 4096) -> float:
        ts = np.linspace(0.0, T, samples)
        return float(np.max([self.fn(t) for t in ts]))


def coefficient_linear() -> TimeCoefficient:
    return TimeCoefficient(fn=lambda t: t, k=1, name="a(t)=t",
                           dfn=lambda t: 1.0)


def coefficient_parabola(t_star: float = 0.5) -> TimeCoefficient:
    return TimeCoefficient(fn=lambda t: (t - t_star) ** 2, k=2,
                           name=f"a(t)=(t-{t_star})^2",
                           dfn=lambda t: 2.0 * (t - t_star))


def coefficient_constant(value: float = 1.0) -> TimeCoefficient:
    return TimeCoefficient(fn=lambda t: value, k=1, name=f"a(t)={value}",
                           dfn=lambda t: 0.0)


def e_eps(state: ModeState, a_val: float, eps: float) -> float:
    """Regularized energy |w'|^2 + (a + eps) |xi|^2 |w|^2."""
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    return (abs(state.dw_dt) ** 2
            + (a_val + eps) * state.xi ** 2 * abs(state.w) ** 2)


def _mode_dt(tc: TimeCoefficient, xi: float, T: float) -> float:
    dt = min(1e-3, 0.05 / (abs(xi) * math.sqrt(tc.sup_a(T) + 1.0)))
    steps = int(math.ceil(T / dt))
    if steps > STEP_BUDGET:
        raise StepBudgetError(
            f"{steps} steps exceed the budget {STEP_BUDGET} "
            f"for xi={xi}, T={T}"
        )
    return T / steps


def _rk4_mode(tc: TimeCoefficient, xi: float, T: float, w0, dw0,
              on_sample=None, stride: int = 1, dt: Optional[float] = None):
    """Shared RK4 loop; on_sample(t, w, dw) is called every `stride` steps."""
    if dt is None:
        dt = _mode_dt(tc, xi, T)
    steps = int(round(T / dt))
    xi2 = xi * xi
    a = tc.fn
    w, dw = complex(w0), complex(dw0)
    t = 0.0
    if on_sample is not None:
        on_sample(t, w, dw)
    for i in range(steps):
        a1 = a(t)
        k1w, k1v = dw, -a1 * xi2 * w
        a2 = a(t + 0.5 * dt)
        k2w = dw + 0.5 * dt * k1v
        k2v = -a2 * xi2 * (w + 0.5 * dt * k1w)
        k3w = dw + 0.5 * dt * k2v
        k3v = -a2 * xi2 * (w + 0.5 * dt * k2w)
        a4 = a(t + dt)
        k4w = dw + dt * k3v
        k4v = -a4 * xi2 * (w + dt * k3w)
        w = w + dt / 6.0 * (k1w + 2 * k2w + 2 * k3w + k4w)
        dw = dw + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        t += dt
        if on_sample is not None and ((i + 1) % stride == 0 or i == steps - 1):
            on_sample(t, w, dw)
    return w, dw, steps


def integrate_mode(tc: TimeCoefficient, xi: float, T: float,
                   initial=(1.0, 0.0), stride: int = 1,
                   dt: Optional[float] = None):
    """RK4 trajectory of a single mode; returns arrays (t, w, dw_dt).

    The step defaults to the resolution rule min(1e-3, 0.05/(|xi|
    sqrt(sup a + 1))); an explicit `dt` supports refinement studies.
    """
    ts, ws, dws = [], [], []

    def record(t, w, dw):
        ts.append(t)
        ws.append(w)
        dws.append(dw)

    _rk4_mode(tc, xi, T, initial[0], initial[1], on_sample=record,
              stride=stride, dt=dt)
    return np.array(ts), np.array(ws), np.array(dws)


def max_energy_growth(tc: TimeCoefficient, xi: float, T: float, eps: float,
                      initial=None):
    """Worst-case energy amplification max_t sup_u E_eps(t)/E_eps(0).

    With `initial` given, tracks that single solution.  Otherwise the
    two-dimensional solution space is propagated (fundamental matrix in
    energy coordinates z = (w', sqrt(a + eps) |xi| w)) and the largest
    squared singular value is tracked, which is the amplification over
    all initial data, free of phase accidents.  Returns (ratio, steps).
    """
    if initial is not None:
        best = 0.0
        e0 = None

        def track(t, w, dw):
            nonlocal best, e0
            e = abs(dw) ** 2 + (tc.fn(t) + eps) * xi ** 2 * abs(w) ** 2
            if e0 is None:
                e0 = e
            best = max(best, e / e0)

        _, _, steps = _rk4_mode(tc, xi, T, initial[0], initial[1],
                                on_sample=track)
        return best, steps

    omega0 = math.sqrt(tc.fn(0.0) + eps) * abs(xi)
    basis = [(0.0, 1.0), (1.0 / omega0, 0.0)]   # z(0) = e1, e2
    samples = []
    steps = 0
    for w0, dw0 in basis:
        cols = []

        def track(t, w, dw, cols=cols):
            omega = math.sqrt(tc.fn(t) + eps) * abs(xi)
            cols.append((dw.real, omega * w.real))

        _, _, steps = _rk4_mode(tc, xi, T, w0, dw0, on_sample=track)
        samples.append(cols)
    best = 0.0
    for z1, z2 in zip(samples[0], samples[1]):
        Z = np.array([[z1[0], z2[0]], [z1[1], z2[1]]])
        s = np.linalg.svd(Z, compute_uv=False)[0]
        best = max(best, s * s)
    return best, steps


def growth_exponent_fit(tc: TimeCoefficient, xi_list: Sequence[float],
                        T: float, k: Optional[int] = None,
                        initial=None) -> dict:
    """Fit log G(xi) = p log|xi| + const over a dyadic ladder.

    G(xi) = max_t log(E_eps(t)/E_eps(0)) with eps = |xi|^(-2/(k+2)),
    by default maximized over initial data (fundamental-matrix norm).
    Returns slope, intercept, rms residual and the per-frequency table.
    Non-positive growth anywhere is reported with slope 0 and a flag.
    """
    if len(xi_list) < 6:
        raise ValueError("need at least 6 ladder frequencies for the fit")
    k_eff = tc.k if k is None else k
    rows = []
    for xi in xi_list:
        eps = abs(xi) ** (-2.0 / (k_eff + 2.0))
        ratio, steps = max_energy_growth(tc, xi, T, eps, initial)
        G = math.log(ratio) if ratio > 0 else float("-inf")
        rows.append({"xi": xi, "eps": eps, "G": G, "steps": steps})
    Gs = np.array([r["G"] for r in rows])
    if np.any(Gs <= 0.0):
        return {"k": k_eff, "slope": 0.0, "intercept": 0.0,
                "residual": 0.0, "rows": rows, "no_growth": True}
    logxi = np.log(np.abs(np.array([r["xi"] for r in rows])))
    logG = np.log(Gs)
    A = np.vstack([logxi, np.ones_like(logxi)]).T
    coef, res, _, _ = np.linalg.lstsq(A, logG, rcond=None)
    fitted = A @ coef
    rms = float(np.sqrt(np.mean((logG - fitted) ** 2)))
    return {"k": k_eff, "slope": float(coef[0]), "intercept": float(coef[1]),
            "residual": rms, "rows": rows, "no_growth": False}


def glaeser_l1_check(tc: TimeCoefficient, eps_list: Sequence[float],
                     T: float, k: Optional[int] = None,
                     n_quad: int = 20001, rtol: float = 1e-4) -> dict:
    """L1 norm of d/dt (a + eps)^(1/k) on [0, T] for each eps.

    The quadrature is Richardson-checked by halving the sampling; the
    values must stay bounded as eps decreases (no doubling between
    consecutive entries of a 10x-refining eps list).
    """
    k_eff = tc.k if k is None else k

    def l1(eps: float, m: int) -> float:
        ts = np.linspace(0.0, T, m)
        avals = np.array([tc.fn(t) for t in ts])
        davals = np.array([tc.da(t) for t in ts])
        integrand = np.abs(davals / k_eff * (avals + eps) ** (1.0 / k_eff - 1.0))
        return float(np.trapezoid(integrand, ts))

    values = []
    for eps in eps_list:
        full = l1(eps, n_quad)
        half = l1(eps, (n_quad + 1) // 2)
        if abs(full - half) > rtol * max(abs(full), 1.0):
            raise RuntimeError(
                f"quadrature not converged for eps={eps}: "
                f"{full} vs {half} at half sampling"
            )
        values.append(full)
    bounded = all(values[i + 1] <= 2.0 * values[i] + 1e-12
                  for i in range(len(values) - 1))
    return {"k": k_eff, "eps": list(eps_list), "l1": values, "bounded": bounded}
