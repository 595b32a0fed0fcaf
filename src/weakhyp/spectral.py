"""Periodic grid, Fourier multipliers and Gevrey weights.

Conventions used throughout the package:

* the spatial domain is the torus [0, L) sampled at n equispaced points,
* the frequency lattice is xi_k = k / L for k in {-n/2, ..., n/2 - 1}
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
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "GevreyOverflowError",
    "bracket",
    "gevrey_multiplier",
]

#: exponent cap for exp(tau * <xi>^sigma); doubles overflow near exp(709)
DEFAULT_MAX_EXPONENT = 700.0

#: the largest float whose square is finite
SQUARE_CAP = math.sqrt(sys.float_info.max)

#: the smallest float whose square is a normal float, not 0
SQUARE_FLOOR = math.sqrt(sys.float_info.min)


class GevreyOverflowError(OverflowError):
    """Gevrey weight exponent exceeded the configured cap."""


def bracket(xi):
    """Japanese bracket <xi> = (1 + |xi|^2)^(1/2)."""
    return np.sqrt(1.0 + np.asarray(xi, dtype=float) ** 2)


@dataclass(frozen=True)
class Grid:
    """Periodic spatial grid with its dual frequency lattice.

    Parameters
    ----------
    n : int
        Number of points, must be a power of two.
    length : float
        Period L of the domain [0, L).
    x0 : float
        Center of the coefficient bump; must lie in the open interior.
    """

    n: int
    length: float = 1.0
    x0: float = 0.5

    def __post_init__(self):
        if self.n <= 0 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a positive power of two, got {self.n}")
        if self.length <= 0:
            raise ValueError(f"length must be positive, got {self.length}")
        if not (0.0 < self.x0 < self.length):
            raise ValueError(
                f"x0 = {self.x0} must lie inside the open domain (0, {self.length})"
            )

    @property
    def dx(self) -> float:
        return self.length / self.n

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
        """Frequency lattice k / L in numpy FFT order (read-only)."""
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
