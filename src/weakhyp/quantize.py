"""Discrete Weyl quantization and operator experiments.

A phase-space symbol p(x, xi) is sampled on the doubled spatial lattice
(2n half-step points, so every pair midpoint (x_i + y_j)/2 is a sample
point) times the n-point frequency lattice.  Quantization assembles the
dense kernel

    K[i, j] = (1/n) * sum_k exp(2*pi*i*(x_i - y_j)*xi_k) * p(m_ij, xi_k)

with the midpoint m_ij = (x_i + y_j)/2.  On the torus the pair (x_i, y_j) is identified through its wrapped
difference d in (-n/2, n/2] and the midpoint on the short arc, which
keeps the convention translation-equivariant across the seam.  Per
midpoint the kernel formula is a single inverse FFT in the difference
variable.  x-independent symbols reduce exactly to Fourier multipliers
and x-only symbols to pointwise multiplication.

Every symbol field carries a row map: `samples` holds u rows, shape
(u, n), and `rows` maps each of the 2n doubled-lattice points to its
sample row, so the field stands for the full (2n, n) field
`samples[rows]`.  By default u = 2n and `rows` is the identity.
Symbols that depend on x only through a few values, such as b through
a(t, x), store far fewer rows than the lattice has points; the inverse
FFT then runs over the u stored rows only, and the gather reads row
`rows[m]` for midpoint m, which gives the kernel of the expanded field
bit for bit.  `quantize` returns that kernel as a plain (n, n) complex
array.

De-quantization inverts the kernel formula along the (midpoint,
difference) slots, FFT in x - y.  The slot map (i, j) <-> (m, d) is a
bijection, so `quantize(dequantize(K)) == K` holds for every matrix
that is symmetric on the antipodal column d = n/2 (every image of
`quantize` is); each midpoint row only observes difference residues of
its own parity, and the unobserved components are interpolated from
the neighboring midpoint rows.

The index maps of the slot map depend on n only; they are built once
per n and cached (read-only) for every later `quantize` and
`dequantize` at that size.  So is the n^2 flat index
`rows[m*] * n + d0` that the gather reads, for the last row map seen:
the two kernels of a Symmetrizer record share their row map, and the
full-field callers all share the identity map.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .spectral import Grid
from .symbols import SymbolB

__all__ = [
    "SymbolField",
    "sample_symbol",
    "sample_symbol_b",
    "quantize",
    "dequantize",
    "hermiticity_defect",
    "multiplier_matrix",
    "multiplication_matrix",
    "operator_norm",
    "PowerIterationWarning",
    "invert_b",
]

@dataclass
class SymbolField:
    """Symbol samples on the doubled (2n, n) phase-space lattice.

    `samples` holds u rows, shape (u, n), and the doubled-lattice point
    m carries the row `samples[rows[m]]`; `rows` defaults to the
    identity map of a full (2n, n) field.
    """

    grid: Grid
    samples: np.ndarray
    time: float = 0.0
    label: str = ""
    rows: Optional[np.ndarray] = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        n = self.grid.n
        rows = np.asarray(self.rows if self.rows is not None
                          else np.arange(2 * n))
        if rows.shape != (2 * n,) or not np.issubdtype(rows.dtype, np.integer):
            raise ValueError(
                f"rows must be an int array of shape {(2 * n,)}, "
                f"got {rows.dtype} {rows.shape}"
            )
        u = self.samples.shape[0] if self.samples.ndim else 0
        if rows.min() < 0 or rows.max() >= u:
            raise ValueError(f"rows must lie in [0, {u}), got "
                             f"[{rows.min()}, {rows.max()}]")
        self.rows = rows.astype(np.intp)
        if self.samples.shape != (u, n):
            raise ValueError(
                f"samples have shape {self.samples.shape}, expected {(u, n)}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise ValueError(f"symbol '{self.label}' has non-finite samples")


def sample_symbol(grid: Grid, fn) -> SymbolField:
    """Sample fn(x, xi) on the doubled lattice; fn must broadcast."""
    x = grid.x_doubled[:, None]
    xi = grid.xi[None, :]
    return SymbolField(grid, np.broadcast_to(np.asarray(fn(x, xi), dtype=complex),
                                             (2 * grid.n, grid.n)).copy())


def sample_symbol_b(sb: SymbolB, grid: Grid, t: float) -> SymbolField:
    """Sample b(t, x, xi) on the doubled lattice."""
    x = grid.x_doubled[:, None]
    xi = grid.xi[None, :]
    return SymbolField(grid, sb.b(t, x, xi).astype(complex), time=t,
                       label="b")


def _wrapped_difference(n: int):
    """Index maps of the torus pair geometry.

    Returns (D0, Dstar, Mstar): for every entry (i, j), the difference
    residue d0 = (i - j) mod n, its wrapped representative d* in
    (-n/2, n/2], and the short-arc midpoint index m* = (2j + d*) mod 2n
    on the doubled lattice.  At the antipodal column d0 = n/2 the two
    torus midpoints m* and m* + n are equally valid; callers average
    over them, which keeps real symbols exactly Hermitian.
    """
    i = np.arange(n)
    I, J = np.meshgrid(i, i, indexing="ij")
    D0 = (I - J) % n
    Dstar = np.where(D0 <= n // 2, D0, D0 - n)
    Mstar = (2 * J + Dstar) % (2 * n)
    return D0, Dstar, Mstar


class _SlotMap(NamedTuple):
    """The (midpoint, difference) slot of every kernel entry.

    Entry (i, j) reads slot (mid[i, j], diff[i, j]) = (m*, d0) of the
    (2n, n) difference profiles.  `anti` holds the flat kernel
    positions of the antipodal column d0 = n/2 and `anti_mid` the other
    torus midpoint m* + n of each.
    """

    mid: np.ndarray
    diff: np.ndarray
    anti: np.ndarray
    anti_mid: np.ndarray


@functools.lru_cache(maxsize=4)
def _slot_map(n: int) -> _SlotMap:
    D0, _, Mstar = _wrapped_difference(n)
    anti = np.flatnonzero(D0 == n // 2)
    # numpy gathers fastest through intp indices, so mid is intp;
    # quantize only adds diff (d0 < n), whose int32 halves its memory
    slots = _SlotMap(mid=Mstar.astype(np.intp), diff=D0.astype(np.int32),
                     anti=anti,
                     anti_mid=(Mstar.reshape(-1)[anti] + n) % (2 * n))
    for arr in slots:
        arr.setflags(write=False)
    return slots


class _FlatIndex(NamedTuple):
    """The flat slots of one row map in the (u * n) difference profiles.

    Entry (i, j) reads `index[i, j]` = rows[m*] * n + d0, and antipodal
    entry k of `_SlotMap.anti` also reads `anti[k]` = rows[m* + n] * n
    + n/2, its other torus midpoint.
    """

    rows: np.ndarray
    index: np.ndarray
    anti: np.ndarray


_last_flat_index: Optional[_FlatIndex] = None


def _flat_index(rows: np.ndarray) -> _FlatIndex:
    """The flat slots of the row map `rows` (read-only), kept for the
    last map seen."""
    global _last_flat_index
    hit = _last_flat_index
    if hit is not None and np.array_equal(hit.rows, rows):
        return hit
    # the old index goes first, so two are never held at once
    _last_flat_index = None
    n = rows.shape[0] // 2
    g = _slot_map(n)
    # built in place
    index = rows[g.mid]
    index *= n
    index += g.diff
    flat = _FlatIndex(rows=rows.copy(), index=index,
                      anti=rows[g.anti_mid] * n + n // 2)
    for arr in flat:
        arr.setflags(write=False)
    _last_flat_index = flat
    return flat


def quantize(p: SymbolField) -> np.ndarray:
    """The dense (n, n) kernel of op(p).

    The inverse FFT runs over the stored rows of the field only; the
    kernel equals that of the expanded field `samples[rows]`.
    """
    anti = _slot_map(p.grid.n).anti
    flat = _flat_index(p.rows)
    c = np.fft.ifft(p.samples, axis=1).reshape(-1)
    K = c[flat.index]
    Kf = K.reshape(-1)
    Kf[anti] = 0.5 * (Kf[anti] + c[flat.anti])
    return K


def hermiticity_defect(K: np.ndarray) -> float:
    """Relative Frobenius distance ||K - K*|| / ||K|| of a kernel."""
    scale = np.linalg.norm(K)
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(K - K.conj().T) / scale)


def dequantize(matrix: np.ndarray, grid: Grid) -> SymbolField:
    """Weyl symbol of a kernel: invert the kernel formula per midpoint.

    Every kernel entry (i, j) determines the difference profile c_m at
    its own slot (m*, d0); away from the antipodal column the slot map
    is one-to-one, so the written values reproduce `matrix` exactly
    under `quantize`.  The antipodal column d0 = n/2 is stored
    symmetrized over the two torus midpoints, matching the averaging in
    `quantize`.

    Each midpoint only observes difference residues of its own parity.
    The complementary slots never influence `quantize`, but they do
    shape the extracted symbol: they are interpolated from the two
    neighboring midpoints, which keeps the symbol free of
    midpoint-Nyquist ripple.
    """
    n = grid.n
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (n, n):
        raise ValueError(f"matrix has shape {matrix.shape}, expected {(n, n)}")
    c = np.zeros((2 * n, n), dtype=complex)
    anti = _slot_map(n).anti
    flat = _flat_index(np.arange(2 * n))
    cf = c.reshape(-1)
    cf[flat.index] = matrix
    mf = matrix.reshape(-1)
    # the transpose of flat position i * n + j is j * n + i
    anti_t = (anti % n) * n + anti // n
    sym = 0.5 * (mf[anti] + mf[anti_t])
    cf[flat.index.reshape(-1)[anti]] = sym
    cf[flat.anti] = sym
    # an unseen slot (row and residue of unlike parity) is the mean of
    # the seen slots in the midpoint rows before and after it
    for fill, seen, step in ((c[0::2, 1::2], c[1::2, 1::2], 1),
                             (c[1::2, 0::2], c[0::2, 0::2], -1)):
        np.add(seen, np.roll(seen, step, axis=0), out=fill)
        fill *= 0.5
    return SymbolField(grid, np.fft.fft(c, axis=1))


def multiplier_matrix(grid: Grid, m) -> np.ndarray:
    """Dense matrix of the Fourier multiplier m(xi) (exact)."""
    mv = np.asarray(m(grid.xi) if callable(m) else m, dtype=complex)
    # row j of the product is the image of e_j, i.e. column j of the matrix
    return grid.multiply(np.eye(grid.n, dtype=complex), mv).T


def multiplication_matrix(q_values: np.ndarray) -> np.ndarray:
    """Dense matrix of pointwise multiplication by q(x)."""
    return np.diag(np.asarray(q_values, dtype=complex))


class PowerIterationWarning(UserWarning):
    pass


def operator_norm(matrix, tol: float = 1e-8, max_iter: int = 200) -> float:
    """Largest singular value by blocked power iteration on A* A.

    A single power vector stalls on near-degenerate top singular values
    (frequency multipliers routinely have clustered maxima), so a small
    orthonormal block of 8 seeded vectors is iterated and the top
    Rayleigh-Ritz value tracked until its relative change falls below
    `tol`.
    """
    A = np.asarray(matrix)
    n = A.shape[0]
    block = min(8, n)
    rng = np.random.default_rng(7)
    V = rng.normal(size=(n, block)) + 1j * rng.normal(size=(n, block))
    V, _ = np.linalg.qr(V)
    AH = A.conj().T
    est = -1.0
    sigma = 0.0
    change = np.inf
    for _ in range(max_iter):
        W = A @ V
        sigma = float(np.linalg.svd(W, compute_uv=False)[0])
        if sigma == 0.0:
            return 0.0
        change = abs(sigma - est) / max(sigma, 1e-300)
        if change <= tol:
            return sigma
        est = sigma
        V, _ = np.linalg.qr(AH @ W)
    warnings.warn(
        f"power iteration did not converge in {max_iter} iterations; "
        f"achieved relative change {change:.3g}",
        PowerIterationWarning,
    )
    return sigma


def invert_b(sb: SymbolB, nu: int, t: float, grid: Grid):
    """Approximate inverse symbol of op(b) by the defect recursion.

    c_0 = b^(-1) and c_k = c_{k-1} + b^(-1) (1 - s_k), where s_k is the
    symbol extracted from the exact matrix product M_{k-1} =
    op(b) op(c_{k-1}).  Returns (SymbolField c_nu, defects) with
    defects[k] = || M_k - Id ||; each M_k is formed once and serves
    both its defect and the next step.  A defect increase between
    consecutive steps signals the discretization floor and is reported
    via warning, not an exception.
    """
    if nu < 0 or nu > 6:
        raise ValueError(f"nu must be in 0..6, got {nu}")
    b_field = sample_symbol_b(sb, grid, t)
    b_samples = b_field.samples
    B = quantize(b_field)
    eye = np.eye(grid.n, dtype=complex)
    c = 1.0 / b_samples
    defects = []
    for k in range(nu + 1):
        M = B @ quantize(SymbolField(grid, c, time=t, label=f"c_{k}"))
        defects.append(operator_norm(M - eye))
        if k and defects[-1] > defects[-2]:
            warnings.warn(
                f"invert_b defect increased at nu={k} "
                f"({defects[-2]:.3e} -> {defects[-1]:.3e}); "
                "discretization floor reached",
                UserWarning,
            )
        if k < nu:
            s = dequantize(M, grid).samples
            c = c + (1.0 - s) / b_samples
    return SymbolField(grid, c, time=t, label=f"c_{nu}"), defects
