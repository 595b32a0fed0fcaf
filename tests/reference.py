"""Reference builders of dense operators, for the tests only.

`sample_symbol` samples the half spectrum of a symbol given as a
function on the doubled lattice; `multiplier_matrix` and
`multiplication_matrix` build
the exact matrices that a symbol of xi only and of x only quantize to;
`reference_kernel` is the Weyl kernel of a full-width symbol, gathered
through the pair geometry of `meshgrid_maps`.
"""

import numpy as np

from weakhyp.quantize import SymbolField
from weakhyp.spectral import Grid


def sample_symbol(grid: Grid, fn) -> SymbolField:
    """Sample fn(x, xi) on the doubled lattice at the n // 2 + 1 columns
    of the half spectrum, xi = 0..n/2 - 1 and -n/2; fn must broadcast
    and be real at xi = 0 and -n/2."""
    x = grid.x_doubled[:, None]
    xi = grid.xi[None, :grid.n // 2 + 1]
    return SymbolField(grid, np.broadcast_to(np.asarray(fn(x, xi), dtype=complex),
                                             (2 * grid.n, grid.n // 2 + 1)).copy())


def multiplier_matrix(grid: Grid, m: np.ndarray) -> np.ndarray:
    """Dense matrix of the Fourier multiplier m, given on grid.xi (exact)."""
    mv = np.asarray(m, dtype=complex)
    # row j of the product is the image of e_j, i.e. column j of the matrix
    return grid.multiply(np.eye(grid.n, dtype=complex), mv).T


def multiplication_matrix(q_values: np.ndarray) -> np.ndarray:
    """Dense matrix of pointwise multiplication by q(x)."""
    return np.diag(np.asarray(q_values, dtype=complex))


def meshgrid_maps(n):
    """(D0, Mstar) of the torus pair geometry, built from a meshgrid:
    the residue d0 = (i - j) mod n of every entry (i, j) and its
    short-arc midpoint m* = (2j + d*) mod 2n, with d* in (-n/2, n/2]."""
    I, J = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    D0 = (I - J) % n
    Dstar = np.where(D0 <= n // 2, D0, D0 - n)
    return D0, (2 * J + Dstar) % (2 * n)


def reference_kernel(full):
    """The Weyl kernel of the (2n, n) samples `full` of all frequency
    columns, gathered directly through the meshgrid maps."""
    n = full.shape[1]
    D0, Mstar = meshgrid_maps(n)
    c = np.fft.ifft(full, axis=1)
    weyl = c[Mstar, D0]
    anti = D0 == n // 2
    weyl[anti] = 0.5 * (weyl[anti] + c[(Mstar[anti] + n) % (2 * n), n // 2])
    return weyl
