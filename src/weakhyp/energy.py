"""Anisotropic symmetrizer, Gevrey energy and its four-term budget.

The symmetrizer is S = diag(1, op(b)).  With the weighted state
v = exp(tau * D^sigma) u the energy is

    E = 1/2 * ( ||v1||^2 + ||op(b) v2||^2 )

and along solutions of the system its time derivative splits into

    dE/dt = -taudot * E1 + E2 + E3 + E4

where E1 carries the Gevrey smoothing, E2 the linear transport terms,
E3 the time derivative of the symmetrizer and E4 the nonlinearity.  The
solver hands over the two parts of its right-hand side, and each is
weighted once: E2 pairs exp(tau D^sigma) of the transport and E4 that
of the source.  In exact arithmetic the weighted transport equals the
conjugated form a^(tau) d/dx v1; weighting once avoids the
unweight-reweight round trip, whose roundoff the large weights amplify.
All four terms are evaluated with exact grid-level operators, so the
identity holds to the accuracy of the time discretization only.  The
state is the (2, n) array u; its grid and time are those of the
Symmetrizer.  `dt_energy_breakdown` returns the budget as float64 rows
(E, E1, E2, E3, E4), one per Gevrey radius tau, which `solver.EnergyTrace`
stacks into one table per run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Grid, bracket, gevrey_multiplier
from .quantize import (SymbolField, apply, distinct_rows, operator_norm,
                       quantize)
from .symbols import SymbolB

__all__ = [
    "Symmetrizer",
    "weight_values",
    "energy",
    "conjugated_matrix",
    "dt_energy_breakdown",
    "garding_sign_probe",
    "subprincipal_refinement",
]


def weight_values(grid: Grid, values: np.ndarray, tau: float, sigma: float,
                  direction: int = +1) -> np.ndarray:
    """exp(+-tau D^sigma) applied along the last axis of physical samples."""
    return grid.multiply(values, gevrey_multiplier(grid, tau, sigma, direction))


@dataclass
class Symmetrizer:
    """diag(1, op(b)) at a fixed time; `b_matrix` is the op(b) kernel.

    b(t, x, xi) = (a(t, x) + <xi>^(-c))^(-1/2) depends on x only through
    the value a(t, x), and dt b = -1/2 dt_a b^3 only through the pair
    (a, dt_a).  Doubled-lattice points with the same pair therefore
    carry identical rows of both symbols, and outside the bump support
    every point has a = dt_a = 0.  The build samples b once per distinct
    pair and quantizes the row-mapped field, which gives the same kernel
    bit for bit as the full (2n, n) sampling.
    """

    grid: Grid
    sb: SymbolB
    t: float

    def __post_init__(self):
        x2 = self.grid.x_doubled
        coeff = self.sb.coeff
        pairs = np.stack((coeff.a(self.t, x2), coeff.dt_a(self.t, x2)))
        first, self._rows = distinct_rows(pairs)
        self._dt_a = pairs[1, first]
        # b is real and even in xi: its rows are kept as real, contiguous
        # half spectra, which the powers in dt_b_matrix read fastest
        xi = self.grid.xi[None, :self.grid.n // 2 + 1]
        self._b = self.sb.b(self.t, x2[first][:, None], xi)
        self.b_matrix = self._quantize_rows(self._b, "b")

    def dt_b_matrix(self) -> np.ndarray:
        """op(d/dt b) from the analytic derivative dt_b = -1/2 dt_a b^3.

        Reuses the distinct b rows taken at construction and their row
        map: dt b depends on x only through (a, dt_a), which is what the
        rows were told apart by.
        """
        return self._quantize_rows(-0.5 * self._dt_a[:, None] * self._b ** 3,
                                   "dt b")

    def _quantize_rows(self, samples: np.ndarray, label: str) -> np.ndarray:
        """op of a symbol given on the distinct b rows, by their row map."""
        return quantize(SymbolField(self.grid, samples, time=self.t,
                                    label=label, rows=self._rows))


def _pair(grid: Grid, w: np.ndarray, v: np.ndarray, bw2: np.ndarray,
          bv2: np.ndarray) -> float:
    """Re<w1, v1> + Re<op(b) w2, op(b) v2>, the S^2 pairing of w with v,
    given op(b) w2 and op(b) v2."""
    return float(np.real(grid.inner(w[0], v[0]))
                 + np.real(grid.inner(bw2, bv2)))


def energy(u: np.ndarray, sym: Symmetrizer, tau: float, sigma: float) -> float:
    """E = 1/2 (||v1||^2 + ||op(b) v2||^2) with v = exp(tau D^sigma) u."""
    v = weight_values(sym.grid, u, tau, sigma)
    bv2 = apply(sym.b_matrix, v[1])
    return 0.5 * (sym.grid.norm2(v[0]) + sym.grid.norm2(bv2))


def conjugated_matrix(grid: Grid, m_values: np.ndarray, tau: float,
                      sigma: float) -> np.ndarray:
    """Dense real matrix of exp(tau D^sigma) * m(x) * exp(-tau D^sigma)
    for a real m (the weight is even in xi: the transforms are real)."""
    w = weight_values(grid, np.eye(grid.n), tau, sigma, -1) * m_values
    return weight_values(grid, w, tau, sigma, +1).real.T.copy()


def dt_energy_breakdown(u: np.ndarray, transport: np.ndarray,
                        source: np.ndarray, sym: Symmetrizer, taus,
                        sigma: float) -> np.ndarray:
    """Split dE/dt into -taudot*E1 + E2 + E3 + E4 at the Symmetrizer's time.

    Returns one float64 row (E, E1, E2, E3, E4) per tau of `taus`.
    `transport` and `source` are the two parts of the solver's
    right-hand side at (sym.t, u), as `solver.rhs_parts` returns them.
    op(dt b) is quantized once and serves every row; each row takes the
    same operations as a call with that tau alone, so it matches that
    call bit for bit.  Per row, u and the two parts are weighted by one
    stacked transform.  op(b) meets four second rows, of v, D^sigma v
    and the two weighted parts; one matrix product applies it to all
    four, which rounds within a few ulps of four matrix-vector products.
    """
    grid = sym.grid
    dt_b = sym.dt_b_matrix()
    d_sigma = bracket(grid.xi) ** sigma
    rows = np.empty((len(taus), 5))
    for row, tau in zip(rows, taus):
        v, transport_w, source_w = weight_values(
            grid, np.stack((u, transport, source)), tau, sigma)
        dv = grid.multiply(v, d_sigma)
        bv2, bdv2, btransport2, bsource2 = apply(sym.b_matrix, np.stack(
            (v[1], dv[1], transport_w[1], source_w[1]), axis=1)).T
        row[:] = (0.5 * (grid.norm2(v[0]) + grid.norm2(bv2)),
                  _pair(grid, dv, v, bdv2, bv2),
                  _pair(grid, transport_w, v, btransport2, bv2),
                  np.real(grid.inner(apply(dt_b, v[1]), bv2)),
                  _pair(grid, source_w, v, bsource2, bv2))
    return rows


def garding_sign_probe(u: np.ndarray, sym: Symmetrizer, tau: float,
                       sigma: float) -> float:
    """Quadratic form Re<op(g)^2 op(b) v2, op(b) v2>, g = sqrt(dt_a) b.

    op(g) is Hermitian (real symbol, Weyl), so the form is a square and
    must be nonnegative up to roundoff.  g, like b, depends on x only
    through (a, dt_a), so it is sampled on the Symmetrizer's distinct
    rows.
    """
    grid = sym.grid
    g_rows = np.sqrt(np.maximum(sym._dt_a, 0.0))[:, None] * sym._b
    G = sym._quantize_rows(g_rows, "sqrt(dt a) b")
    w = apply(sym.b_matrix, weight_values(grid, u[1], tau, sigma))
    return float(np.real(grid.inner(apply(G, apply(G, w)), w)))


def subprincipal_refinement(sb: SymbolB, tau: float, sigma: float,
                            ns=(128, 256, 512)):
    """Refinement study of the conjugated-coefficient expansion at t = 0.

    For each grid size on the unit period, measures on the top frequency
    octave (the band that refinement pushes outward)

        N0 = || (a^(tau) - op(a)) P ||
        N1 = || (a^(tau) - op(a) - op(s1)) P ||

    with the first-order symbol s1 = tau/(2 pi i) * d_xi <xi>^sigma *
    d_x a.  s1 is imaginary and odd in xi, so conjugate-even on every
    column but the Nyquist column xi = -n/2, which stands for +n/2 as
    well.  It is sampled on the half spectrum with that column replaced
    by its conjugate-even projection, the real part, 0, so op(s1) is a
    real kernel.  Returns a list of (n, N0, N1, N1/N0); the ratio
    decreasing under refinement reflects the extra frequency decay of
    the remainder.
    """
    coeff = sb.coeff
    results = []
    for n in ns:
        grid = Grid(n)
        a_vals = coeff.a(0.0, grid.x)
        conj = conjugated_matrix(grid, a_vals, tau, sigma)
        op_a = np.diag(a_vals)
        x = grid.x_doubled[:, None]
        xi = grid.xi[None, :n // 2 + 1]
        s1 = (tau / (2.0j * np.pi)) * (sigma * xi * bracket(xi) ** (sigma - 2.0)
                                       ) * coeff.dx_a(0.0, x)
        s1[:, -1] = s1[:, -1].real
        op_s1 = quantize(SymbolField(grid, s1, time=0.0, label="subprincipal"))
        # right product with the octave projection (even in xi: real)
        mask = (np.abs(grid.xi) >= grid.xi_max / 2.0).astype(float)
        R0 = conj - op_a
        N0, N1 = (operator_norm(grid.multiply(R, mask).real.copy())
                  for R in (R0, R0 - op_s1))
        results.append((n, N0, N1, N1 / N0 if N0 > 0 else np.inf))
    return results
