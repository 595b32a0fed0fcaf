"""Discrete Weyl quantization and operator experiments.

A phase-space symbol p(x, xi) is sampled on the doubled spatial lattice
(2n half-step points, so every pair midpoint (x_i + y_j)/2 is a sample
point) times the n-point frequency lattice.  Quantization assembles the
dense kernel

    K[i, j] = (1/n) * sum_k exp(2*pi*i*(x_i - y_j)*xi_k) * p(m_ij, xi_k)

with the midpoint m_ij = (x_i + y_j)/2.  On the torus the pair
(x_i, y_j) is identified through its wrapped difference d in
(-n/2, n/2] and the midpoint on the short arc, which keeps the
convention translation-equivariant across the seam.  At d = n/2 the
kernel averages both midpoints; for n >= 2 the other one of (i, j) is
the slot of its transpose (j, i), so the average reads K^T, and at
n = 1 the one entry keeps its own slot.  Per midpoint the kernel
formula is a single inverse FFT in the difference variable.
x-independent symbols reduce exactly to Fourier multipliers and x-only
symbols to pointwise multiplication.

Every operator quantized here is real: a symbol with p(x, -xi) =
conj p(x, xi) has a real kernel, fixed by its half spectrum, the
n // 2 + 1 columns 0..n/2 (column n/2 is xi = -n/2), whose columns 0
and n/2 are real.  A symbol field holds only these, and `quantize` hands
them straight to `irfft` for a float64 kernel.  b, its powers, dt b, the
corrections of `invert_b` and the subprincipal term s1 are all
conjugate-even.

Every symbol field carries a row map: `samples` holds u rows, shape
(u, n // 2 + 1), and `rows` maps each of the 2n doubled-lattice points
to its sample row, so the field stands for the (2n, n // 2 + 1) field
`samples[rows]`.  By default u = 2n and `rows` is the identity.
`sample_symbol_b` returns such a row-mapped field: b depends on x only
through a(t, x), so it stores one row per distinct value of a (492
rows for 2048 points at n = 1024, t = 0).  The inverse FFT runs over
the u stored rows only, and the gather reads row `rows[m]` for
midpoint m, which gives the kernel of the expanded field bit for bit.

De-quantization inverts the kernel formula along the (midpoint,
difference) slots, `rfft` in x - y, which gives the half spectrum of
the exactly conjugate-even symbol of a real matrix.  The slot map
(i, j) <-> (m, d) is a bijection, so `quantize(dequantize(K)) == K`
holds for every real matrix that is symmetric on the antipodal column
d = n/2 (every image of `quantize` is); each midpoint row only observes
difference residues of its own parity, and the unobserved components
are interpolated from the neighboring midpoint rows.

The slot map depends on n only, and no n^2 copy of it is kept: the
shift (i, j) -> (i + 1, j + 1) keeps the difference and moves the
midpoint by 2.  So midpoint row 2r + p sees the kernel entries of row p
shifted by (r, r) along the diagonal, and a full field is handled one
block of 64 midpoint rows at a time from these two template rows (n
entries in all, cached for the last size seen): `quantize`
inverse-transforms a block and scatters each row's own-parity residues
to their kernel entries, and `dequantize` gathers a block's difference
profiles straight from the kernel, fills them and transforms them into
its output, so it costs 2.26 n^2 doubles at n = 1024, 2 of them the
output.  A row-mapped field reads one n^2 gather index,
`rows[m*] * n + d0` (intp, 8 bytes per entry), from the slots
m* * n + d0 of kernel row i: row 0's shifted right by i places plus 2in
mod 2n^2.  It is built block by block and cached for the last row map
seen: the two kernels of a Symmetrizer record share their row
map, and in the n = 512 headline run all records have the same.  A
full-field `quantize` or a `dequantize` drops it, so after either no
n^2 array stays cached.
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
    "sample_symbol_b",
    "distinct_rows",
    "quantize",
    "hermiticity_defect",
    "operator_norm",
    "apply",
    "PowerIterationWarning",
    "invert_b",
]

INVERT_DEPTH = 2   # the corrections c_1, ..., c_nu that invert_b makes
_BLOCK_ROWS = 64   # the kernel or midpoint rows handled at a time

@dataclass
class SymbolField:
    """Symbol samples on the doubled phase-space lattice.

    `samples` holds u rows, each the half spectrum of a conjugate-even
    symbol: shape (u, n // 2 + 1), the columns of xi >= 0 (column n/2
    is xi = -n/2), with columns 0 and n/2 real.  The doubled-lattice
    point m carries the row `samples[rows[m]]`; `rows` defaults to the
    identity map of u = 2n rows.
    """

    grid: Grid
    samples: np.ndarray
    time: float = 0.0
    label: str = ""
    rows: Optional[np.ndarray] = None

    def __post_init__(self):
        s = np.asarray(self.samples)
        self.samples = s if s.dtype == float else s.astype(complex, copy=False)
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
        s, h = self.samples, n // 2 + 1
        if s.shape != (u, h) or s[:, [0, -1]].imag.any():
            raise ValueError(f"samples have shape {s.shape}, expected {(u, h)}"
                             " with real columns 0 and n/2")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError(f"symbol '{self.label}' has non-finite samples")


def distinct_rows(keys: np.ndarray):
    """(first, rows): the first column of each bitwise-distinct column
    of the float rows `keys` (a signed zero keeps its own), and the
    index into `first` of every column."""
    bits = np.atleast_2d(keys).view(np.int64)
    order = np.lexsort(bits)
    ranked = bits[:, order]
    new = np.r_[True, np.any(ranked[:, 1:] != ranked[:, :-1], axis=0)]
    rows = np.empty_like(order)
    rows[order] = np.cumsum(new) - 1
    return order[new], rows


def sample_symbol_b(sb: SymbolB, grid: Grid, t: float) -> SymbolField:
    """The half spectrum of b(t, x, xi), one row per value of a(t, x)."""
    x2 = grid.x_doubled
    first, rows = distinct_rows(sb.coeff.a(t, x2))
    xi = grid.xi[None, :grid.n // 2 + 1]
    return SymbolField(grid, sb.b(t, x2[first][:, None], xi), time=t,
                       label="b", rows=rows)


class _SlotRow(NamedTuple):
    """Rows 0 of the slot map and of the midpoints, from which every
    kernel entry's slot follows.

    Entry (i, j) reads slot m* * n + d0 of the flat (2n, n) difference
    profiles: the difference residue d0 = (i - j) mod n and the
    short-arc midpoint index m* = (2j + d*) mod 2n on the doubled
    lattice, with d* the representative of d0 in (-n/2, n/2].  The shift
    (i, j) -> (i + 1, j + 1) keeps d0 and moves m* by 2, so row i is row
    0 shifted right by i places plus 2in, mod 2n^2 (`_shifted_rows`);
    `slots` holds row 0 twice over.

    Conversely midpoint row m sees the residues of its own parity, at
    the entries ((m + d*) / 2, (m - d*) / 2) mod n, so row 2r + p sees
    those of row p shifted by (r, r) along the diagonal
    (`_midpoint_blocks`).  `even` and `odd` hold the entries (i, j) that
    midpoint rows 0 and 1 see, i in row 0 and j in row 1 of a (2, n/2)
    array, one per residue of their parity in increasing order (at
    n = 1 one even residue and no odd one).

    At the antipodal column d0 = n/2 the two torus midpoints m* and
    m* + n are equally valid; callers average over them, which keeps
    real symbols exactly Hermitian.  `anti` holds the flat kernel
    positions of that column and `anti_t` their transposes, the other
    midpoint of each for n >= 2 (at n = 1 both are the one entry).
    """

    slots: np.ndarray
    anti: np.ndarray
    anti_t: np.ndarray
    even: np.ndarray
    odd: np.ndarray


@functools.lru_cache(maxsize=1)
def _slot_row(n: int) -> _SlotRow:
    j = np.arange(n, dtype=np.intp)
    # n is a power of two, so masks reduce mod n and mod 2n
    d0 = -j & (n - 1)
    # the representative d* in (-n/2, n/2] of each residue j
    dstar = np.where(j > n // 2, j - n, j)
    m = (2 * j + dstar[d0]) & (2 * n - 1)
    # row i meets d0 = n/2 at column a = (i + n/2) mod n
    a = (j + n // 2) & (n - 1)
    # midpoint row p sees the residues d0 = p, p + 2, ... at the entries
    # ((p + d*) / 2, (p - d*) / 2) mod n
    seen = [np.stack([(p + d) // 2, (p - d) // 2]) & (n - 1)
            for p, d in ((0, dstar[0::2]), (1, dstar[1::2]))]
    row = _SlotRow(slots=np.tile(m * n + d0, 2),
                   anti=j * n + a, anti_t=a * n + j,
                   even=seen[0], odd=seen[1])
    for arr in row:
        arr.setflags(write=False)
    return row


def _shifted_rows(row: np.ndarray, step: int, size: int = _BLOCK_ROWS):
    """(rows, values) of each block of `size` kernel rows: row i holds
    row 0 shifted right by i places plus i * step, mod n * step.

    `row` is row 0 twice over, so row i is the window of n entries that
    starts at n - i.  The values of every block share one intp buffer.
    """
    n = len(row) // 2
    windows = np.lib.stride_tricks.sliding_window_view(row, n)
    buf = np.empty((min(size, n), n), dtype=np.intp)
    for lo in range(0, n, size):
        hi = min(lo + size, n)
        v = buf[:hi - lo]
        np.add(windows[n - lo:n - hi:-1], step * np.arange(lo, hi)[:, None],
               out=v)
        # both terms lie below n * step: one subtraction wraps the sum
        np.subtract(v, n * step, out=v, where=v >= n * step)
        yield slice(lo, hi), v


def _midpoint_blocks(n: int, size: int = _BLOCK_ROWS):
    """(rows, even, odd) of each block of `size` midpoint rows (size
    even): `even` holds the flat kernel positions of the even residues
    that midpoint row 2r sees and `odd` those of the odd residues that
    row 2r + 1 sees, one row of each per r from rows.start / 2 - 1 to
    rows.stop / 2, so one pair of rows beyond each edge of the block.
    The positions of every block share the same two intp buffers.
    """
    t = _slot_row(n)
    log2n = n.bit_length() - 1
    span = min(size, 2 * n) // 2 + 2
    templates = [(i << log2n, j, np.empty((2, span, len(j)), dtype=np.intp))
                 for i, j in (t.even, t.odd)]
    for lo in range(0, 2 * n, size):
        hi = min(lo + size, 2 * n)
        r = np.arange(lo // 2 - 1, hi // 2 + 1, dtype=np.intp)[:, None]
        positions = []
        for i, j, (pos, col) in templates:
            pos, col = pos[:len(r)], col[:len(r)]
            # (i + r, j + r) mod n: the shift along the diagonal
            np.add(r << log2n, i, out=pos)
            pos &= (n - 1) << log2n
            np.add(r, j, out=col)
            col &= n - 1
            pos |= col
            positions.append(pos)
        yield slice(lo, hi), *positions


_last_flat_index: Optional[tuple] = None


def _flat_index(rows: np.ndarray) -> Optional[np.ndarray]:
    """The flat slots rows[m*] * n + d0 of the row map `rows` in the
    (u * n) difference profiles (read-only, n^2 intp), kept for the
    last map seen; None for the identity map, whose slots `quantize`
    takes block by block.  An identity map drops the kept index, and so
    does `dequantize`."""
    global _last_flat_index
    hit = _last_flat_index
    if hit is not None and np.array_equal(hit[0], rows):
        return hit[1]
    # the old index goes first, so two are never held at once
    _last_flat_index = None
    n = rows.shape[0] // 2
    # slot m* * n + d0 moves by (rows[m*] - m*) * n
    offset = (rows - np.arange(2 * n)) * n
    if not offset.any():
        return None
    index = np.empty((n, n), dtype=np.intp)
    log2n = n.bit_length() - 1
    for block, slots in _shifted_rows(_slot_row(n).slots, 2 * n):
        np.take(offset, slots >> log2n, out=index[block], mode="clip")
        index[block] += slots
    index.setflags(write=False)
    _last_flat_index = (rows.copy(), index)
    return index


def quantize(p: SymbolField) -> np.ndarray:
    """The dense, real (n, n) kernel of op(p).

    The inverse FFT runs over the stored rows of the field only; the
    kernel equals that of the expanded field `samples[rows]`.
    """
    n = p.grid.n
    g = _slot_row(n)
    # the index comes first: built after the transform, on a cache miss,
    # it lands elsewhere on the heap, and the quantizer audit at
    # n = 256..1024 peaked 8 MB higher in RSS
    index = _flat_index(p.rows)
    if index is None:
        K = np.empty((n, n))
        h = np.empty((min(_BLOCK_ROWS, 2 * n), n))
        for rows, even, odd in _midpoint_blocks(n):
            hb = np.fft.irfft(p.samples[rows], n, axis=1,
                              out=h[:rows.stop - rows.start])
            # each midpoint row scatters the residues of its own parity;
            # every position is in range, and "clip" skips the check
            np.put(K, even[1:-1], hb[0::2, 0::2], mode="clip")
            np.put(K, odd[1:-1], hb[1::2, 1::2], mode="clip")
    else:
        h = np.fft.irfft(p.samples, n, axis=1).reshape(-1)
        K = h[index]
    Kf = K.reshape(-1)
    Kf[g.anti] = 0.5 * (Kf[g.anti] + Kf[g.anti_t])
    return K


def _real(A: np.ndarray, name: str) -> np.ndarray:
    if np.iscomplexobj(A):
        raise ValueError(f"{name} takes a real matrix, got {A.dtype}")
    return A


def _frobenius(A: np.ndarray) -> float:
    # einsum sums without BLAS: np.linalg.norm's BLAS dot rounds
    # differently under each BLAS thread count
    return float(np.sqrt(np.einsum("ij,ij->", A, A)))


def hermiticity_defect(K: np.ndarray) -> float:
    """Relative Frobenius distance ||K - K^T|| / ||K|| of a real kernel;
    a complex one raises ValueError."""
    K = _real(np.asarray(K), "hermiticity_defect")
    scale = _frobenius(K)
    if scale == 0.0:
        return 0.0
    return _frobenius(K - K.T) / scale


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
    midpoint-Nyquist ripple.  The symbol of a real matrix is
    conjugate-even and comes as its half spectrum; a complex matrix is
    rejected.

    The profiles are built and transformed one block of midpoint rows
    at a time (`_symbol_blocks`), so a call allocates little beyond its
    (2n, n/2 + 1) complex output, 2 n^2 doubles.
    """
    n = grid.n
    matrix = np.asarray(_real(matrix, "dequantize"), dtype=float)
    if matrix.shape != (n, n):
        raise ValueError(f"matrix has shape {matrix.shape}, expected {(n, n)}")
    out = np.empty((2 * n, n // 2 + 1), dtype=complex)
    for rows, s in _symbol_blocks(matrix):
        out[rows] = s
    return SymbolField(grid, out)


def _symbol_blocks(matrix: np.ndarray):
    """(rows, s) of each block of midpoint rows: s is the half spectrum
    of the block's difference profiles, the rows `rows` of the symbol
    that `dequantize` returns, in one buffer that every block reuses.

    A block's profiles come straight from the (n, n) `matrix`: each
    midpoint row gathers the residues of its own parity from their
    kernel entries, the antipodal column averaged with the transposes;
    each unseen residue is the mean of the seen ones in the rows before
    and after it, so the block reads one row beyond each edge.  The
    cached gather index of a row map is dropped at the call, before
    the first block, so what the caller allocates next finds it gone.
    """
    global _last_flat_index
    _last_flat_index = None
    n = len(matrix)
    mf = matrix.reshape(-1)
    log2n = n.bit_length() - 1
    # the antipodal residue n/2: its parity and its place among them
    anti_parity, anti_k = (n // 2) % 2, (n // 2) // 2
    profiles = np.empty((min(_BLOCK_ROWS, 2 * n), n))
    spectra = np.empty((len(profiles), n // 2 + 1), dtype=complex)

    def blocks():
        for rows, *positions in _midpoint_blocks(n):
            even, odd = seen = [mf.take(pos, mode="clip") for pos in positions]
            pos = positions[anti_parity][:, anti_k]
            # the other torus midpoint of (i, j) is the slot of (j, i)
            transposed = (pos & (n - 1)) << log2n | pos >> log2n
            col = seen[anti_parity][:, anti_k]
            col[:] = 0.5 * (col + mf[transposed])
            c = profiles[:rows.stop - rows.start]
            c[0::2, 0::2] = even[1:-1]
            c[1::2, 1::2] = odd[1:-1]
            # row 2r + 1 of even residues from rows 2r and 2r + 2, row 2r
            # of odd residues from rows 2r - 1 and 2r + 1
            np.add(even[1:-1], even[2:], out=c[1::2, 0::2])
            np.add(odd[:-2], odd[1:-1], out=c[0::2, 1::2])
            c[1::2, 0::2] *= 0.5
            c[0::2, 1::2] *= 0.5
            yield rows, np.fft.rfft(c, axis=1, out=spectra[:len(c)])

    return blocks()


def apply(K: np.ndarray, X: np.ndarray) -> np.ndarray:
    """K @ X of a real K and a complex X: one real product on the
    interleaved real and imaginary parts of X (numpy would copy K)."""
    if np.iscomplexobj(K) or not np.iscomplexobj(X):
        raise ValueError(f"apply takes a real kernel and a complex right-hand"
                         f" side, got {K.dtype} and {X.dtype}")
    cols = np.ascontiguousarray(X, dtype=complex).reshape(len(X), -1)
    return (K @ cols.view(np.float64)).view(complex).reshape(X.shape)


class PowerIterationWarning(UserWarning):
    pass


def operator_norm(matrix, tol: float = 1e-8, max_iter: int = 200) -> float:
    """Largest singular value of a real matrix by blocked power
    iteration on A^T A; a complex matrix raises ValueError.

    A single power vector stalls on near-degenerate top singular values
    (frequency multipliers routinely have clustered maxima), so a small
    orthonormal block of 8 seeded vectors is iterated and the top
    Rayleigh-Ritz value tracked until its relative change falls below
    `tol`.
    """
    A = _real(np.asarray(matrix), "operator_norm")
    n = A.shape[0]
    V, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(n, min(8, n))))
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
        V, _ = np.linalg.qr(A.T @ W)
    warnings.warn(
        f"power iteration did not converge in {max_iter} iterations; "
        f"achieved relative change {change:.3g}",
        PowerIterationWarning,
    )
    return sigma


def invert_b(b: SymbolField, B: np.ndarray):
    """Approximate inverse symbol of op(b) by the defect recursion.

    `b` is the sampled symbol b, as `sample_symbol_b` returns it, and
    `B = quantize(b)` its kernel, both the caller's.  c_0 = b^(-1) and
    c_k = c_{k-1} + b^(-1) (1 - s_k), where s_k is the symbol extracted
    from the exact matrix product M_{k-1} = op(b) op(c_{k-1}).  Returns
    (SymbolField c_nu, defects) with nu = INVERT_DEPTH and defects[k] =
    || M_k - Id ||; each M_k is formed once and serves both its defect
    and the next step.  A defect increase between consecutive steps
    signals the discretization floor and is reported via warning, not an
    exception.

    The recursion works in place: as `_symbol_blocks` extracts s_k from
    M_{k-1} block by block, c_{k-1} + (1 - s_k) / b is written into the
    buffer of c_{k-1} (a new one for the row-mapped c_0), and M_{k-1} -
    Id is then formed in the buffer of M_{k-1} for its defect.  At
    n = 256 a call, with the sampling and quantization of b before it,
    peaks at 5.81 n^2 doubles, in a product B op(c_k) that holds B,
    c_k, op(c_k) and M_k at once.
    """
    nu = INVERT_DEPTH
    grid, t = b.grid, b.time
    c = SymbolField(grid, 1.0 / b.samples, time=t, label="c_0", rows=b.rows)
    defects = []
    for k in range(nu + 1):
        M = B @ quantize(c)
        if k < nu:
            # the call drops the gather index of c_0's row map before
            # the buffer of c_1 is allocated
            blocks = _symbol_blocks(M)
            out = (c.samples if k else
                   np.empty((2 * grid.n, grid.n // 2 + 1), dtype=complex))
            for rows, s in blocks:
                # c + (1 - s) / b: IEEE addition commutes
                np.subtract(1.0, s, out=s)
                s /= b.samples[b.rows[rows]]
                np.add(c.samples[c.rows[rows]], s, out=out[rows])
            c = SymbolField(grid, out, time=t, label=f"c_{k + 1}")
        # M - Id in place, the same bits as M - np.eye(n)
        M.reshape(-1)[::grid.n + 1] -= 1.0
        defects.append(operator_norm(M))
        del M
        if k and defects[-1] > defects[-2]:
            warnings.warn(
                f"invert_b defect increased at nu={k} "
                f"({defects[-2]:.3e} -> {defects[-1]:.3e}); "
                "discretization floor reached",
                UserWarning,
            )
    return c, defects
