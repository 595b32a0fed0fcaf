"""Coefficient a(t,x), regularized symbols and the phase-space metric.

The degenerate coefficient is a(t,x) = (t + |x - x0|^2) * e(t,x), with
e a smooth plateau bump: e == 1 on [0,T] x B_r(x0) and e == 0 outside
[0,T'] x B_r'(x0).  From it we build

    a_nat = a + <xi>^(-c)          (positive regularization)
    b     = a_nat^(-1/2)           (symmetrizer weight)
    lam   = b^(-1) * <xi>          (calculus gain function)

and the phase-space metric g_X(Y) = |Y1|^2/a_nat + |Y2|^2/<X2>^2.

All evaluators are closed-form, including d/dx and d/dt of a, so the
audits can compare finite differences against exact derivatives.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .spectral import SQUARE_CAP, bracket

__all__ = [
    "smoothstep",
    "plateau_bump",
    "CoefficientField",
    "SymbolB",
    "PhaseMetric",
]


def _exp_bump(s):
    """f(s) = exp(-1/s) for s > 0, else 0; returns (f, f', f'')."""
    s = np.asarray(s, dtype=float)
    pos = s > 0.0
    f = np.zeros_like(s)
    fp = np.zeros_like(s)
    fpp = np.zeros_like(s)
    sp = np.where(pos, s, 1.0)
    val = np.exp(-1.0 / sp)
    f[pos] = val[pos]
    fp[pos] = (val / sp**2)[pos]
    fpp[pos] = (val * (1.0 - 2.0 * sp) / sp**4)[pos]
    return f, fp, fpp


def smoothstep(s, order: int = 0):
    """C-infinity step: 1 for s <= 0, 0 for s >= 1, monotone between.

    psi(s) = f(1-s) / (f(1-s) + f(s)) with f the exponential bump.
    `order` selects the value (0), first (1) or second (2) derivative.
    The step is flat outside [0, 1], so s is clipped to it first, which
    keeps the bump's powers of a huge s from overflowing.
    """
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    u, up_raw, upp_raw = _exp_bump(1.0 - s)
    w, wp, wpp = _exp_bump(s)
    up = -up_raw       # d/ds f(1-s)
    upp = upp_raw      # d2/ds2 f(1-s)
    tot = u + w
    # on s <= 0 or s >= 1 one of u, w vanishes with all derivatives
    tot = np.where(tot == 0.0, 1.0, tot)
    if order == 0:
        out = u / tot
    elif order == 1:
        out = (up * w - u * wp) / tot**2
    elif order == 2:
        out = ((upp * w - u * wpp) * tot - 2.0 * (up * w - u * wp) * (up + wp)) / tot**3
    else:
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    return out if out.shape else float(out)


def plateau_bump(x, center: float, r_inner: float, r_outer: float, order: int = 0):
    """Bump equal to 1 on |x-center| <= r_inner, 0 outside r_outer.

    Derivatives in x up to second order are closed-form.
    """
    if not (0.0 < r_inner < r_outer):
        raise ValueError("need 0 < r_inner < r_outer")
    x = np.asarray(x, dtype=float)
    d = x - center
    width = r_outer - r_inner
    s = (np.abs(d) - r_inner) / width
    if order == 0:
        return smoothstep(s, 0)
    sgn = np.sign(d)
    if order == 1:
        return smoothstep(s, 1) * sgn / width
    if order == 2:
        # |d| is smooth away from d = 0, and s < 0 there anyway
        return smoothstep(s, 2) / width**2
    raise ValueError(f"order must be 0, 1 or 2, got {order}")


@dataclass(frozen=True)
class CoefficientField:
    """The coefficient a(t,x) = (t + |x - x0|^2) e(t,x) and its bump data.

    Parameters
    ----------
    x0, r, r_outer : floats
        Bump center, plateau radius and support radius (r < r_outer).
    T, T_outer : floats
        Plateau time and support time (T < T_outer).
    sigma_coeff, radius_R : floats > 0
        Claimed Gevrey class data (sigma, R) of e; only metadata for the
        Gevrey radius floor tau_under = R^(-sigma)/sigma.
    """

    x0: float = 0.5
    r: float = 0.12
    r_outer: float = 0.24
    T: float = 0.05
    T_outer: float = 0.1
    sigma_coeff: float = 0.5
    radius_R: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{f.name} = {value!r} must be a finite real")
            # the bumps square their widths, and the coefficient x - x0
            if abs(value) > SQUARE_CAP:
                raise ValueError(f"{f.name} = {value!r} must be at most "
                                 f"{SQUARE_CAP:.17g} in magnitude, above "
                                 "which its square overflows")
        if not (0.0 < self.r < self.r_outer):
            raise ValueError("need 0 < r < r_outer")
        if not (0.0 < self.T < self.T_outer):
            raise ValueError("need 0 < T < T_outer")
        for name in ("sigma_coeff", "radius_R"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} = {getattr(self, name)!r} "
                                 "must be positive")

    @property
    def tau_under(self) -> float:
        """Gevrey radius floor R^(-sigma)/sigma of the coefficient class.

        inf where R^(-sigma) overflows, e.g. for a tiny R.
        """
        with np.errstate(over="ignore"):
            return float(np.float64(self.radius_R) ** (-self.sigma_coeff)
                         / self.sigma_coeff)

    # -- bump factors ------------------------------------------------------

    # A run evaluates the bump factors on the same lattices and times over
    # and over, so chi on a 1-d lattice and eta at a scalar time are
    # cached; the cached arrays are read-only.

    def chi(self, x, order: int = 0):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return _chi_lattice(self, x.tobytes(), order)
        return plateau_bump(x, self.x0, self.r, self.r_outer, order)

    def eta(self, t, order: int = 0):
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            return _eta_scalar(self, float(t), order)
        return _eta(self, t, order)

    def e(self, t, x):
        return self.eta(t) * self.chi(x)

    # -- the coefficient and its derivatives -------------------------------

    def a(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        return (t + (x - self.x0) ** 2) * self.e(t, x)

    def dx_a(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        q = t + (x - self.x0) ** 2
        return self.eta(t) * (2.0 * (x - self.x0) * self.chi(x) + q * self.chi(x, 1))

    def dxx_a(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        q = t + (x - self.x0) ** 2
        return self.eta(t) * (
            2.0 * self.chi(x)
            + 4.0 * (x - self.x0) * self.chi(x, 1)
            + q * self.chi(x, 2)
        )

    def dt_a(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        q = t + (x - self.x0) ** 2
        return self.chi(x) * (self.eta(t) + q * self.eta(t, 1))

    def sup_a(self) -> float:
        """Sup of a over the support, by dense sampling (memoised)."""
        return _sup_a(self)


# The caches key on the field itself, as `_sup_a` does, so two fields
# share an entry only when their values are equal.

@functools.lru_cache(maxsize=16)
def _chi_lattice(coeff: CoefficientField, x: bytes, order: int) -> np.ndarray:
    out = plateau_bump(np.frombuffer(x), coeff.x0, coeff.r, coeff.r_outer,
                       order)
    out.setflags(write=False)
    return out


def _eta(coeff: CoefficientField, t, order: int):
    # the step is flat outside [T, T_outer]; clipping t keeps a huge t
    # from overflowing the division
    t = np.clip(t, coeff.T, coeff.T_outer)
    width = coeff.T_outer - coeff.T
    s = (t - coeff.T) / width
    if order == 0:
        return smoothstep(s, 0)
    return smoothstep(s, order) / width ** order


# room for the RK4 stage times and the record times of a run
_eta_scalar = functools.lru_cache(maxsize=1024)(_eta)


@functools.lru_cache(maxsize=16)
def _sup_a(coeff: CoefficientField) -> float:
    # a depends only on the class and the frozen field values, and the
    # dataclass equality compares both, so the field itself is the key
    ts = np.linspace(0.0, coeff.T_outer, 64)
    xs = np.linspace(coeff.x0 - coeff.r_outer, coeff.x0 + coeff.r_outer,
                     2048)
    return float(np.max(coeff.a(ts[:, None], xs[None, :])))


@dataclass(frozen=True)
class SymbolB:
    """The symmetrizer weight b = (a + <xi>^(-c))^(-1/2), c in (0, 2].

    `allow_invalid` admits c > 2 so the metric audits can demonstrate
    the uncertainty-principle violation on purpose; production
    configurations keep the bound enforced.
    """

    coeff: CoefficientField
    c: float = 1.0
    allow_invalid: bool = False

    def __post_init__(self):
        if self.c <= 0.0:
            raise ValueError(f"c = {self.c} must be positive")
        if self.c > 2.0 and not self.allow_invalid:
            raise ValueError(
                f"c = {self.c} violates the uncertainty-principle bound c <= 2 "
                "for the phase-space metric"
            )

    def a_natural(self, t, x, xi):
        return np.asarray(self.coeff.a(t, x)) + bracket(xi) ** (-self.c)

    def b(self, t, x, xi):
        return self.a_natural(t, x, xi) ** (-0.5)

    def lam(self, t, x, xi):
        """Gain function lambda = b^(-1) <xi> = a_nat^(1/2) <xi>."""
        return np.sqrt(self.a_natural(t, x, xi)) * bracket(xi)

    # closed-form first derivatives, used as audit oracles
    def dx_b(self, t, x, xi):
        return -0.5 * np.asarray(self.coeff.dx_a(t, x)) * self.b(t, x, xi) ** 3

    def dt_b(self, t, x, xi):
        return -0.5 * np.asarray(self.coeff.dt_a(t, x)) * self.b(t, x, xi) ** 3

    def lower_bound(self) -> float:
        """(sup a + 1)^(-1/2), the proven floor of b."""
        return (self.coeff.sup_a() + 1.0) ** (-0.5)


@dataclass(frozen=True)
class PhaseMetric:
    """g_X(Y) = |Y1|^2 / a_nat(t,X) + |Y2|^2 / <X2>^2 and its dual."""

    sb: SymbolB

    def g(self, t, X, Y):
        x, xi = X
        y1, y2 = Y
        anat = self.sb.a_natural(t, x, xi)
        return np.abs(y1) ** 2 / anat + np.abs(y2) ** 2 / bracket(xi) ** 2

    def g_dual(self, t, X, Y):
        """g^sigma_X(Y) = <X2>^2 |Y1|^2 + a_nat(t,X) |Y2|^2."""
        x, xi = X
        y1, y2 = Y
        anat = self.sb.a_natural(t, x, xi)
        return bracket(xi) ** 2 * np.abs(y1) ** 2 + anat * np.abs(y2) ** 2

    def sup_ratio(self, t, X, Y):
        """sup over probes T of g_X(T) / g_Y(T), in closed form.

        The metric is diagonal, so the sup over directions is the larger
        of the two coefficient ratios.
        """
        x1, xi1 = X
        x2, xi2 = Y
        anat_x = self.sb.a_natural(t, x1, xi1)
        anat_y = self.sb.a_natural(t, x2, xi2)
        return np.maximum(
            anat_y / anat_x, bracket(xi2) ** 2 / bracket(xi1) ** 2
        )
