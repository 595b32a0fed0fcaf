"""Numerical audits of the analytic estimates behind the symmetrizer.

Every analytic inequality the construction relies on is re-checked
here on sample lattices: the Glaeser inequality for the coefficient,
the derivative bounds for b, the Faa di Bruno combinatorics (exact
rational arithmetic), and admissibility of the phase-space metric and
of the weight b, both read off the `SymbolB` (`g`, `g_dual`,
`sup_ratio`).  Each audit returns the JSON record it is written as:
{"check", "constant", "witness", "pass"} and its own extra keys.  A
violated inequality fails the record; the audits never assert values
the analysis leaves unquantified.

The quantizer audit's records, `hermiticity_n<n>` and `compose_norm_n<n>`
(||op(b)^2 - op(b^2)||) per size, `compose_norm_decreases` between sizes
and `invert_defects` at the last, carry no witness.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from .quantize import (SymbolField, hermiticity_defect, invert_b,
                       operator_norm, quantize, sample_symbol_b)
from .spectral import Grid, bracket
from .symbols import CoefficientField, SymbolB

__all__ = [
    "glaeser_audit_a",
    "derivative_bound_audit",
    "faa_di_bruno_check",
    "metric_admissibility_audit",
    "weight_admissibility_audit",
    "quantizer_audit",
]

ZERO_OVER_ZERO_FLOOR = 1e-14
XI_MAX = 128.0    # the largest |xi| the symbol and metric audits sample
R_SLOW = 0.1      # radius of the slow-variation ball


def _record(check: str, constant: float, witness, passed,
            **extras) -> dict:
    """An audit's JSON record: a float witness list and a bool pass."""
    return {"check": check, "constant": constant,
            "witness": [float(w) for w in witness], "pass": bool(passed),
            **extras}


def glaeser_audit_a(coeff: CoefficientField, n_t: int = 24,
                    n_x: int = 257) -> dict:
    """Measure C = max (d_x a)^2 / a over [0, T] x B_r(x0).

    0/0 is resolved to 0 only when numerator and denominator both sit
    below 1e-14; a vanishing a with non-vanishing slope fails the
    record, with C = inf at the first such (t, x) in C order.
    """
    ts = np.linspace(0.0, coeff.T, n_t)
    xs = np.linspace(coeff.x0 - coeff.r, coeff.x0 + coeff.r, n_x)
    T, X = np.meshgrid(ts, xs, indexing="ij")
    a = coeff.a(T, X)
    da2 = coeff.dx_a(T, X) ** 2
    tiny_a = a < ZERO_OVER_ZERO_FLOOR
    violated = np.where(da2 >= ZERO_OVER_ZERO_FLOOR, np.inf, 0.0)
    ratio = np.where(tiny_a, violated, da2 / np.where(tiny_a, 1.0, a))
    k = np.unravel_index(np.argmax(ratio), ratio.shape)
    C = float(ratio[k])
    return _record("glaeser_a", C, (T[k], X[k]), math.isfinite(C))


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
                           n_xi: int = 41) -> dict:
    """Measured sup of |d_x^a d_xi^b b| / (b^(1+a) <xi>^(-b)).

    Derivatives come from nested central differences of the closed-form
    evaluator, with steps eps^(1/(order+2)) times the local metric
    scale, on the whole (x, xi) lattice at once.  The caller compares
    the returned constant against its own budget; the audit only
    asserts finiteness.  An x-stencil that leaves the support B_r_outer
    fails the record, with constant nan at (x, nan) for the first such x.
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
    extras = {"alpha": alpha, "beta": beta, "t": float(t)}
    check = f"derivative_bound_b_a{alpha}b{beta}"
    hx = 1.0
    if alpha:
        hx = eps ** (1.0 / (alpha + 2)) * np.maximum(1.0 / b, 1e-3)
        reach = np.abs(x - coeff.x0) + _CENTRAL_STENCILS[alpha][0][-1] * hx
        if np.any(reach > coeff.r_outer):
            i = np.argwhere(reach > coeff.r_outer)[0][0]
            return _record(check, math.nan, (xs[i], math.nan), False,
                           **extras)
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
    return _record(check, worst, witness, math.isfinite(worst), **extras)


def _compositions_count(total: int, parts: int) -> int:
    """Number of ways to write `total` as an ordered sum of `parts` >= 1."""
    if parts <= 0 or total < parts:
        return 0
    count = 0
    for cuts in combinations(range(1, total), parts - 1):
        count += 1
    return count


def faa_di_bruno_check() -> dict:
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
    return _record("faa_di_bruno", float(order), (order, order), ok)


def _sample_phase_points(sb: SymbolB, n_pairs: int, seed: int):
    coeff = sb.coeff
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


def metric_admissibility_audit(sb: SymbolB, t: float = 0.0,
                               n_pairs: int = 10_000, seed: int = 11) -> dict:
    """Slow variation, uncertainty and temperance, measured on samples.

    Returns the three records by check name: the slow-variation
    constant (the closed-form sup of g_X/g_Y both ways, over pairs with
    g_X(X - Y) <= R_SLOW^2), the minimal gain lambda over the lattice,
    and the fitted temperance pair (C, N).
    """
    x1, xi1 = _sample_phase_points(sb, n_pairs, seed)
    x2, xi2 = _sample_phase_points(sb, n_pairs, seed + 1)
    rng = np.random.default_rng(seed + 2)
    # half the partners are g-scaled perturbations, so the slow-variation
    # ball g_X(X - Y) <= r^2 is well populated
    half = n_pairs // 2
    anat = np.asarray(sb.a_natural(t, x1[:half], xi1[:half]))
    scale = rng.uniform(0.0, R_SLOW, size=half)
    angle = rng.uniform(0.0, 2.0 * np.pi, size=half)
    x2[:half] = x1[:half] + scale * np.cos(angle) * np.sqrt(anat)
    xi2[:half] = xi1[:half] + scale * np.sin(angle) * bracket(xi1[:half])

    gX_sep = sb.g(t, (x1, xi1), (x1 - x2, xi1 - xi2))
    ratio_sup = sb.sup_ratio(t, (x1, xi1), (x2, xi2))
    ratio_sup = np.maximum(ratio_sup, sb.sup_ratio(t, (x2, xi2), (x1, xi1)))

    near = gX_sep <= R_SLOW**2
    slow_constant = float(np.max(ratio_sup[near])) if np.any(near) else 1.0

    # uncertainty: min lambda over a lattice including the worst corner
    xs = np.linspace(sb.coeff.x0 - sb.coeff.r, sb.coeff.x0 + sb.coeff.r, 101)
    xis = np.linspace(-XI_MAX, XI_MAX, 257)
    lam = sb.lam(t, xs[:, None], xis[None, :])
    k = np.unravel_index(np.argmin(lam), lam.shape)
    min_lambda = float(lam[k])

    # temperance: fit ratio <= C (1 + g^sigma_X(X-Y))^N over all pairs
    gsig = sb.g_dual(t, (x1, xi1), (x1 - x2, xi1 - xi2))
    C, N, slope, _ = _temperance_fit(ratio_sup, gsig)
    return {
        "slow_variation": _record(
            "slow_variation", slow_constant, (R_SLOW,),
            math.isfinite(slow_constant), pairs_in_ball=int(np.sum(near))),
        "uncertainty": _record(
            "uncertainty", min_lambda, (xs[k[0]], xis[k[1]]),
            (min_lambda >= 1.0 - 1e-9) == (sb.c <= 2.0), c=float(sb.c)),
        "temperance": _record(
            "temperance", C, (R_SLOW,), math.isfinite(C) and math.isfinite(slope),
            N=N, fitted_slope=slope),
    }


def weight_admissibility_audit(sb: SymbolB, t: float = 0.0,
                               n_pairs: int = 10_000) -> dict:
    """Fit b(X)/b(Y) <= C (1 + g^sigma_X(X - Y))^N over sampled pairs."""
    x1, xi1 = _sample_phase_points(sb, n_pairs, 13)
    x2, xi2 = _sample_phase_points(sb, n_pairs, 14)
    bx = sb.b(t, x1, xi1)
    by = sb.b(t, x2, xi2)
    ratio = np.maximum(bx / by, by / bx)
    gsig = sb.g_dual(t, (x1, xi1), (x1 - x2, xi1 - xi2))
    C, N, slope, k = _temperance_fit(ratio, gsig)
    return _record("weight_admissibility", C, (x1[k], xi1[k]),
                   math.isfinite(C), N=N, fitted_slope=slope)


def quantizer_audit(sb: SymbolB, t: float, sizes) -> list:
    """Hermiticity and composition of op(b) per size, the decrease of
    the composition norm with n, and the defects of `invert_b`."""
    records = []
    comp_norms = []
    for n in sizes:
        grid = Grid(n)
        bf = sample_symbol_b(sb, grid, t)
        B = quantize(bf)
        herm = hermiticity_defect(B)
        records.append({"check": f"hermiticity_n{n}", "constant": herm,
                        "pass": herm <= 1e-10})
        R = B @ B
        R -= quantize(SymbolField(grid, bf.samples**2, time=t, label="b^2",
                                  rows=bf.rows))
        comp_norms.append(operator_norm(R))
        del R   # the last size's B goes on to invert_b
        records.append({"check": f"compose_norm_n{n}",
                        "constant": comp_norms[-1], "pass": True})
    for lo, hi in zip(comp_norms, comp_norms[1:]):
        # at c near 0 op(b) composes exactly and both norms can be 0:
        # ratio and margin are IEEE's, nan for 0/0 and +-inf for x/0
        ratio = hi / lo if lo else (math.nan if hi == 0.0 else math.inf)
        margin = (lo - hi) / lo if lo else -ratio
        records.append({"check": "compose_norm_decreases",
                        "constant": ratio, "margin": margin, "pass": hi < lo})

    _, defects = invert_b(bf, B)   # the last size's field and kernel
    records.append({"check": "invert_defects", "constant": defects[-1],
                    "pass": defects[0] >= defects[1] >= defects[2],
                    "defects": defects})
    return records
