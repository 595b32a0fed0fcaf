"""Periodic grid, Fourier multipliers and Gevrey weights.

Conventions used throughout the package:

* the spatial domain is the unit torus [0, 1) sampled at n equispaced
  points,
* the frequency lattice is xi_k = k for k in {-n/2, ..., n/2 - 1}
  (cycles per unit length), stored in numpy's natural FFT order,
* every Fourier multiplier goes through `Grid.multiply`, which uses the
  unnormalized FFT pair: the normalization of a forward/inverse pair
  cancels, and the unnormalized one is the pair the recorded outputs
  were produced with,
* spectral differentiation is the multiplier 2*pi*i*xi (`Grid.dxi`),
  matching the kernel convention exp(2*pi*i*(x - y)*xi) of the
  quantizer,
* L2 norms carry the quadrature weight dx, which makes the physical and
  frequency side Parseval sums identical.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "GevreyOverflowError",
    "finite_real",
    "bracket",
    "gevrey_multiplier",
]

#: exponent cap for exp(tau * <xi>^sigma); doubles overflow near exp(709)
DEFAULT_MAX_EXPONENT = 700.0

#: the largest float whose square is finite
SQUARE_CAP = math.sqrt(sys.float_info.max)

#: the largest grid size or sample count a run may ask for: an array of
#: 2**50 doubles exceeds a 48-bit address space and fails to allocate
#: at once, and near 2**63 elements numpy refuses the shape itself
MAX_SIZE = 2**50

#: the most time steps one run may plan, of the system or of a cjs mode
STEP_BUDGET = 10_000_000


def finite_real(value) -> bool:
    """A real number, not a bool, within the double range.  An int is
    compared exactly, so one too large for a double is rejected, not
    converted (float() of it would raise OverflowError)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    if isinstance(value, numbers.Integral):
        return abs(value) <= sys.float_info.max
    return math.isfinite(value)


class GevreyOverflowError(OverflowError):
    """Gevrey weight exponent exceeded the configured cap."""


def bracket(xi):
    """Japanese bracket <xi> = (1 + |xi|^2)^(1/2)."""
    return np.sqrt(1.0 + np.asarray(xi, dtype=float) ** 2)


@dataclass(frozen=True)
class Grid:
    """The n equispaced points of the unit period and their dual
    frequency lattice; n must be a power of two (`Grid.size_ok`)."""

    n: int

    @staticmethod
    def size_ok(n) -> bool:
        """n is a power-of-two int, not a bool, in [1, MAX_SIZE]."""
        return (not isinstance(n, bool) and isinstance(n, numbers.Integral)
                and 0 < n <= MAX_SIZE and n & (n - 1) == 0)

    def __post_init__(self):
        if not self.size_ok(self.n):
            raise ValueError(f"n = {self.n!r} must be a power-of-two int in "
                             "[1, 2**50]")

    @property
    def dx(self) -> float:
        return 1.0 / self.n

    @property
    def x(self) -> np.ndarray:
        """Grid points x_j = j * dx."""
        return np.arange(self.n) * self.dx

    @property
    def x_doubled(self) -> np.ndarray:
        """Half-step lattice x_m = m * dx / 2 holding all pair midpoints."""
        return np.arange(2 * self.n) * (self.dx / 2.0)

    @cached_property
    def xi(self) -> np.ndarray:
        """Frequency lattice k in numpy FFT order (read-only)."""
        xi = np.fft.fftfreq(self.n, d=self.dx)
        xi.setflags(write=False)
        return xi

    @cached_property
    def dxi(self) -> np.ndarray:
        """Multiplier 2*pi*i*xi of d/dx (read-only)."""
        dxi = 2.0j * np.pi * self.xi
        dxi.setflags(write=False)
        return dxi

    @property
    def xi_max(self) -> float:
        return float(np.max(np.abs(self.xi)))

    def multiply(self, values: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Fourier multiplier m(xi) applied along the last axis of `values`."""
        return np.fft.ifft(m * np.fft.fft(values, axis=-1), axis=-1)

    def norm2(self, values: np.ndarray) -> float:
        """Squared L2 norm with quadrature weight dx."""
        return float(self.dx * np.sum(np.abs(values) ** 2))

    def inner(self, f: np.ndarray, g: np.ndarray) -> complex:
        """L2 inner product <f, g> = dx * sum f * conj(g)."""
        return complex(self.dx * np.sum(f * np.conj(g)))


def gevrey_multiplier(
    grid: Grid,
    tau: float,
    sigma: float,
    direction: int = +1,
) -> np.ndarray:
    """Values of exp(+-tau * <xi>^sigma) on the lattice, overflow-guarded.

    Exponents are formed in log space and exponentiated once; if
    tau * <xi>^sigma exceeds DEFAULT_MAX_EXPONENT anywhere the offending
    frequency is named in the raised :class:`GevreyOverflowError`.
    """
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    if not (0.0 < sigma < 1.0):
        raise ValueError(f"sigma must lie in (0, 1), got {sigma}")
    if direction not in (+1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction}")
    exponents = tau * bracket(grid.xi) ** sigma
    worst = int(np.argmax(exponents))
    if exponents[worst] > DEFAULT_MAX_EXPONENT:
        raise GevreyOverflowError(
            f"Gevrey overflow: tau*<xi>^sigma = {exponents[worst]:.3g} exceeds "
            f"cap {DEFAULT_MAX_EXPONENT:.3g} at xi = {grid.xi[worst]}"
        )
    return np.exp(direction * exponents)
