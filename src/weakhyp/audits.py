"""Numerical audits of the analytic estimates behind the symmetrizer.

Every analytic inequality the construction relies on is re-checked
here on sample lattices: the Glaeser inequality for the coefficient,
the derivative bounds for b, the Faa di Bruno combinatorics (exact
rational arithmetic), and admissibility of the phase-space metric and
of the weight b.  Audits return measured constants with witnesses;
they never assert values the analysis leaves unquantified.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .spectral import bracket
from .symbols import CoefficientField, PhaseMetric, SymbolB

__all__ = [
    "GlaeserViolationError",
    "glaeser_audit_a",
    "derivative_bound_audit",
    "faa_di_bruno_check",
    "metric_admissibility_audit",
    "weight_admissibility_audit",
]

ZERO_OVER_ZERO_FLOOR = 1e-14
XI_MAX = 128.0    # the largest |xi| the symbol and metric audits sample
R_SLOW = 0.1      # radius of the slow-variation ball


class GlaeserViolationError(ArithmeticError):
    """a vanished while its x-derivative did not."""


@dataclass
class AuditReport:
    check: str
    constant: float
    witness: tuple
    passed: bool
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        d = {"check": self.check, "constant": self.constant,
             "witness": list(np.atleast_1d(np.asarray(self.witness, dtype=float))),
             "pass": bool(self.passed)}
        d.update({k: _json_scalar(v) for k, v in self.extras.items()})
        return d


def _json_scalar(v):
    """Ints stay ints; other scalars become floats."""
    if isinstance(v, numbers.Integral):
        return int(v)
    return float(v) if np.isscalar(v) else v


def glaeser_audit_a(coeff: CoefficientField, n_t: int = 24,
                    n_x: int = 257) -> AuditReport:
    """Measure C = max (d_x a)^2 / a over [0, T] x B_r(x0).

    0/0 is resolved to 0 only when numerator and denominator both sit
    below 1e-14; a vanishing a with non-vanishing slope raises.
    """
    ts = np.linspace(0.0, coeff.T, n_t)
    xs = np.linspace(coeff.x0 - coeff.r, coeff.x0 + coeff.r, n_x)
    T, X = np.meshgrid(ts, xs, indexing="ij")
    a = coeff.a(T, X)
    da2 = coeff.dx_a(T, X) ** 2
    tiny_a = a < ZERO_OVER_ZERO_FLOOR
    bad = tiny_a & (da2 >= ZERO_OVER_ZERO_FLOOR)
    if np.any(bad):
        k = np.argwhere(bad)[0]
        raise GlaeserViolationError(
            f"Glaeser violation: a = {a[tuple(k)]:.3e} but (d_x a)^2 = "
            f"{da2[tuple(k)]:.3e} at (t, x) = ({T[tuple(k)]}, {X[tuple(k)]})"
        )
    ratio = np.where(tiny_a, 0.0, da2 / np.where(tiny_a, 1.0, a))
    k = np.unravel_index(np.argmax(ratio), ratio.shape)
    C = float(ratio[k])
    return AuditReport(
        check="glaeser_a",
        constant=C,
        witness=(T[k], X[k]),
        passed=math.isfinite(C),
    )


_CENTRAL_STENCILS = {
    0: ((0,), (1.0,)),
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
}


# The audit's nested differences divide one ulp of b by about
# eps^(5/6).  A float64 scalar `**` calls libm `pow`, and numpy's array
# `power` differs from it by one ulp on a few percent of inputs, so the
# lattice paths take every power of the scalar path through libm.  (The
# 0-d `** 2` in `bracket` is numpy's `square` there too.)  This goes
# away when exact Taylor jets replace the finite-difference audit.
_LIBM_POW = np.frompyfunc(math.pow, 2, 1)


def _pow(x, y):
    """x ** y elementwise through libm pow, as float64 scalars round it."""
    return np.asarray(_LIBM_POW(x, y), dtype=float)


def _b_lattice(sb: SymbolB, t: float, x, xi):
    """`SymbolB.b` on arrays, rounded as its scalar evaluation rounds."""
    coeff = sb.coeff
    a = (t + _pow(x - coeff.x0, 2)) * coeff.e(t, x)
    return _pow(a + _pow(bracket(xi), -sb.c), -0.5)


def _fd_mixed(fn, x, xi, alpha: int, beta: int, hx, hxi):
    """Central-difference d_x^alpha d_xi^beta of fn at points or lattices.

    `fn` maps broadcastable arrays of x and xi to an array; the steps
    hx and hxi may be scalars or arrays of the same shape.
    """
    ox, wx = _CENTRAL_STENCILS[alpha]
    oxi, wxi = _CENTRAL_STENCILS[beta]
    total = 0.0
    for dx, cwx in zip(ox, wx):
        for dxi, cwxi in zip(oxi, wxi):
            total = total + cwx * cwxi * fn(x + dx * hx, xi + dxi * hxi)
    return total / (_pow(hx, alpha) * _pow(hxi, beta))


def derivative_bound_audit(sb: SymbolB, alpha: int, beta: int,
                           t: float = 0.0, n_x: int = 41,
                           n_xi: int = 41) -> AuditReport:
    """Measured sup of |d_x^a d_xi^b b| / (b^(1+a) <xi>^(-b)).

    Derivatives come from nested central differences of the closed-form
    evaluator, with steps eps^(1/(order+2)) times the local metric
    scale, on the whole (x, xi) lattice at once.  The caller compares
    the returned constant against its own budget; the audit only
    asserts finiteness.
    """
    if alpha + beta > 4 or alpha > 4 or beta > 4:
        raise ValueError("central stencils support alpha + beta <= 4")
    coeff = sb.coeff
    eps = np.finfo(float).eps
    xs = np.linspace(coeff.x0 - coeff.r, coeff.x0 + coeff.r, n_x)
    xis = np.concatenate([
        -np.geomspace(1.0, XI_MAX, n_xi // 2),
        [0.0],
        np.geomspace(1.0, XI_MAX, n_xi // 2),
    ])
    x, xi = xs[:, None], xis[None, :]
    b = _b_lattice(sb, t, x, xi)
    hx = 1.0
    if alpha:
        hx = eps ** (1.0 / (alpha + 2)) * np.maximum(1.0 / b, 1e-3)
        reach = np.abs(x - coeff.x0) + _CENTRAL_STENCILS[alpha][0][-1] * hx
        if np.any(reach > coeff.r_outer):
            i = np.argwhere(reach > coeff.r_outer)[0][0]
            raise ValueError(
                f"x-stencil exits the sampled domain at x = {xs[i]}")
    br = bracket(xi)
    hxi = eps ** (1.0 / (beta + 2)) * br if beta else 1.0
    val = _fd_mixed(lambda xx, xxi: _b_lattice(sb, t, xx, xxi),
                    x, xi, alpha, beta, hx, hxi)
    ratio = np.abs(val) / (_pow(b, 1 + alpha) * _pow(br, -beta))
    # the first maximum in x-major order; a NaN ratio is skipped, as the
    # pointwise loop's strict `>` skipped it
    ratio = np.where(np.isnan(ratio), -1.0, ratio)
    i, j = np.unravel_index(np.argmax(ratio), ratio.shape)
    worst = float(ratio[i, j])
    witness = (xs[i], xis[j]) if worst > -1.0 else (np.nan, np.nan)
    return AuditReport(
        check=f"derivative_bound_b_a{alpha}b{beta}",
        constant=worst,
        witness=witness,
        passed=math.isfinite(worst),
        extras={"alpha": alpha, "beta": beta, "t": float(t)},
    )


def _compositions_count(total: int, parts: int) -> int:
    """Number of ways to write `total` as an ordered sum of `parts` >= 1."""
    if parts <= 0 or total < parts:
        return 0
    count = 0
    for cuts in combinations(range(1, total), parts - 1):
        count += 1
    return count


def faa_di_bruno_check() -> AuditReport:
    """Exact checks of the composition-count and square-root coefficients.

    For alpha and k up to 8:
    (i)   N(alpha, k) = binom(alpha - 1, k - 1) against enumeration;
    (ii)  the k-th derivative of y^(-1/2) is c_k y^(-1/2-k) with
          c_k = (-1/4)^k (2k)!/k!;
    (iii) |c_k| <= k!.
    """
    order = 8
    ok = True
    for a in range(1, order + 1):
        for k in range(1, order + 1):
            if _compositions_count(a, k) != math.comb(a - 1, k - 1):
                ok = False
    c = Fraction(1)
    for k in range(1, order + 1):
        c *= Fraction(-1, 2) - (k - 1)       # d/dy brings down (-1/2 - (k-1))
        closed = Fraction(-1, 4) ** k * Fraction(math.factorial(2 * k),
                                                 math.factorial(k))
        if c != closed:
            ok = False
        if abs(c) > math.factorial(k):
            ok = False
    return AuditReport(check="faa_di_bruno", constant=float(order),
                       witness=(order, order), passed=ok)


def _sample_phase_points(pm: PhaseMetric, n_pairs: int, seed: int):
    coeff = pm.sb.coeff
    rng = np.random.default_rng(seed)
    x = coeff.x0 + rng.uniform(-coeff.r, coeff.r, size=n_pairs)
    mag = np.exp(rng.uniform(0.0, np.log(XI_MAX + 1.0), size=n_pairs)) - 1.0
    xi = np.where(rng.random(n_pairs) < 0.5, -mag, mag)
    return x, xi


def _temperance_fit(ratio: np.ndarray, gsig: np.ndarray):
    """Fit ratio <= C (1 + gsig)^N over sampled pairs.

    N is the least-squares slope of log ratio against log(1 + gsig),
    rounded up and at least 1; C is the smallest constant that holds
    with it, attained at pair k.  Returns (C, N, slope, k), with C nan,
    N None and k 0 when the slope is not finite.
    """
    logbase = np.log1p(gsig)
    logratio = np.log(np.maximum(ratio, 1.0))
    pos = logbase > 1e-12
    slope = float(np.sum(logratio[pos] * logbase[pos])
                  / np.sum(logbase[pos] ** 2))
    if not math.isfinite(slope):
        return math.nan, None, slope, 0
    N = max(1, math.ceil(slope))
    bound = ratio / (1.0 + gsig) ** N
    k = int(np.argmax(bound))
    return float(bound[k]), N, slope, k


def metric_admissibility_audit(pm: PhaseMetric, t: float = 0.0,
                               n_pairs: int = 10_000, seed: int = 11) -> dict:
    """Slow variation, uncertainty and temperance, measured on samples.

    Returns the three findings: the slow-variation constant over pairs
    with g_X(X - Y) <= R_SLOW^2 (max over random probe directions and
    also the closed-form supremum), the minimal gain lambda over the
    lattice, and the fitted temperance pair (C, N).
    """
    sb = pm.sb
    x1, xi1 = _sample_phase_points(pm, n_pairs, seed)
    x2, xi2 = _sample_phase_points(pm, n_pairs, seed + 1)
    rng = np.random.default_rng(seed + 2)
    # half the partners are g-scaled perturbations, so the slow-variation
    # ball g_X(X - Y) <= r^2 is well populated
    half = n_pairs // 2
    anat = np.asarray(sb.a_natural(t, x1[:half], xi1[:half]))
    scale = rng.uniform(0.0, R_SLOW, size=half)
    angle = rng.uniform(0.0, 2.0 * np.pi, size=half)
    x2[:half] = x1[:half] + scale * np.cos(angle) * np.sqrt(anat)
    xi2[:half] = xi1[:half] + scale * np.sin(angle) * bracket(xi1[:half])

    gX_sep = pm.g(t, (x1, xi1), (x1 - x2, xi1 - xi2))
    ratio_sup = pm.sup_ratio(t, (x1, xi1), (x2, xi2))
    ratio_sup = np.maximum(ratio_sup, pm.sup_ratio(t, (x2, xi2), (x1, xi1)))

    probes = rng.normal(size=(16, 2))
    probe_ratio = np.zeros(n_pairs)
    for p1, p2 in probes:
        gx = pm.g(t, (x1, xi1), (p1, p2))
        gy = pm.g(t, (x2, xi2), (p1, p2))
        probe_ratio = np.maximum(probe_ratio, np.maximum(gx / gy, gy / gx))

    near = gX_sep <= R_SLOW**2
    slow_constant = float(np.max(ratio_sup[near])) if np.any(near) else 1.0
    slow_probe_constant = float(np.max(probe_ratio[near])) if np.any(near) else 1.0

    # uncertainty: min lambda over a lattice including the worst corner
    xs = np.linspace(sb.coeff.x0 - sb.coeff.r, sb.coeff.x0 + sb.coeff.r, 101)
    xis = np.linspace(-XI_MAX, XI_MAX, 257)
    lam = sb.lam(t, xs[:, None], xis[None, :])
    k = np.unravel_index(np.argmin(lam), lam.shape)
    min_lambda = float(lam[k])

    # temperance: fit ratio <= C (1 + g^sigma_X(X-Y))^N over all pairs
    gsig = pm.g_dual(t, (x1, xi1), (x1 - x2, xi1 - xi2))
    C, N, slope, _ = _temperance_fit(ratio_sup, gsig)
    return {
        "slow_variation": AuditReport(
            "slow_variation", slow_constant, (R_SLOW,),
            math.isfinite(slow_constant),
            extras={"probe_constant": slow_probe_constant,
                    "pairs_in_ball": int(np.sum(near))}),
        "uncertainty": AuditReport(
            "uncertainty", min_lambda, (xs[k[0]], xis[k[1]]),
            (min_lambda >= 1.0 - 1e-9) == (sb.c <= 2.0),
            extras={"c": float(sb.c)}),
        "temperance": AuditReport(
            "temperance", C, (R_SLOW,), math.isfinite(C) and math.isfinite(slope),
            extras={"N": N, "fitted_slope": slope}),
    }


def weight_admissibility_audit(pm: PhaseMetric, t: float = 0.0,
                               n_pairs: int = 10_000,
                               seed: int = 13) -> AuditReport:
    """Fit b(X)/b(Y) <= C (1 + g^sigma_X(X - Y))^N over sampled pairs."""
    sb = pm.sb
    x1, xi1 = _sample_phase_points(pm, n_pairs, seed)
    x2, xi2 = _sample_phase_points(pm, n_pairs, seed + 1)
    bx = sb.b(t, x1, xi1)
    by = sb.b(t, x2, xi2)
    ratio = np.maximum(bx / by, by / bx)
    gsig = pm.g_dual(t, (x1, xi1), (x1 - x2, xi1 - xi2))
    C, N, slope, k = _temperance_fit(ratio, gsig)
    return AuditReport("weight_admissibility", C, (x1[k], xi1[k]),
                       math.isfinite(C),
                       extras={"N": N, "fitted_slope": slope})
