import importlib
import math
import tracemalloc

import numpy as np
import pytest

from reference import (meshgrid_maps, multiplication_matrix,
                       multiplier_matrix, reference_kernel, sample_symbol)
from weakhyp.quantize import (PowerIterationWarning, SymbolField,
                              _midpoint_blocks, _shifted_rows, _slot_row,
                              _symbol_blocks,
                              apply, dequantize, distinct_rows,
                              hermiticity_defect,
                              invert_b, operator_norm, quantize,
                              sample_symbol_b)
from weakhyp.spectral import Grid, bracket
from weakhyp.symbols import SymbolB

# the package re-exports the function `quantize` under the module's name
quantize_module = importlib.import_module("weakhyp.quantize")


class TestQuantizeReductions:
    def test_constant_symbol_is_identity(self, grid64):
        p = sample_symbol(grid64, lambda x, xi: 1.0 + 0 * x + 0 * xi)
        K = quantize(p)
        assert np.abs(K - np.eye(grid64.n)).max() < 1e-13

    def test_multiplier_reduction_exact(self, grid64):
        mv = bracket(grid64.xi) ** 0.7
        p = sample_symbol(grid64, lambda x, xi: bracket(xi) ** 0.7 + 0 * x)
        K = quantize(p)
        M = multiplier_matrix(grid64, mv)
        assert np.abs(K - M).max() < 1e-12

    def test_multiplication_reduction_exact(self, grid64, rng):
        qv = np.exp(np.sin(2 * np.pi * grid64.x))
        p = sample_symbol(grid64,
                          lambda x, xi: np.exp(np.sin(2 * np.pi * x)) + 0 * xi)
        K = quantize(p)
        D = multiplication_matrix(qv)
        assert np.abs(K - D).max() < 1e-12
        for _ in range(10):
            v = rng.normal(size=grid64.n) + 1j * rng.normal(size=grid64.n)
            assert np.abs(K @ v - qv * v).max() < 1e-12 * np.abs(qv * v).max()

    def test_linearity(self, grid64, rng):
        p1 = sample_symbol(grid64, lambda x, xi:
                           np.exp(-40 * (x - 0.5) ** 2) / bracket(xi))
        p2 = sample_symbol(grid64, lambda x, xi:
                           np.cos(2 * np.pi * x) * xi / bracket(xi) ** 2)
        # a real kernel is real-linear in its symbol
        a, b = 1.7, -0.3
        combo = SymbolField(grid64, a * p1.samples + b * p2.samples)
        K = quantize(combo)
        K2 = a * quantize(p1) + b * quantize(p2)
        assert np.abs(K - K2).max() < 1e-12 * max(1.0, np.abs(K).max())

    def test_hermiticity_of_real_symbol(self, sb_c1, grid128):
        B = quantize(sample_symbol_b(sb_c1, grid128, 0.0))
        assert hermiticity_defect(B) <= 1e-10

    def test_hermiticity_defect_matches_exact_sums(self, rng):
        def frobenius(A):
            # math.fsum rounds the sum of the squares once
            return math.sqrt(math.fsum(A.ravel() ** 2))

        K = rng.normal(size=(64, 64))
        K += K.T + 1e-9 * rng.normal(size=(64, 64))
        exact = frobenius(K - K.T) / frobenius(K)
        assert 1e-11 < exact < 1e-8
        assert hermiticity_defect(K) == pytest.approx(exact, rel=1e-13)
        assert hermiticity_defect(np.zeros((4, 4))) == 0.0

    def test_symbol_field_validation(self, grid64):
        with pytest.raises(ValueError):
            SymbolField(grid64, np.zeros((grid64.n, grid64.n)))
        bad = np.zeros((2 * grid64.n, grid64.n // 2 + 1))
        bad[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            SymbolField(grid64, bad)


class TestDequantize:
    def test_round_trip_on_image_matrices(self, sb_c1, grid64):
        p = sample_symbol_b(sb_c1, grid64, 0.01)
        K = quantize(p)
        back = quantize(dequantize(K, grid64))
        assert np.abs(back - K).max() < 1e-13 * np.abs(K).max()

    def test_interpolation_fill_close_to_symbol(self, sb_c1, grid64):
        p = sample_symbol_b(sb_c1, grid64, 0.02)
        K = quantize(p)
        back = dequantize(K, grid64)
        full = p.samples[p.rows]
        rel = np.abs(back.samples - full).max() / np.abs(full).max()
        assert rel < 5e-2

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 256])
    def test_fill_matches_whole_field_rolls(self, n):
        # one whole-field rfft of the roll-filled slot array
        K = np.random.default_rng(n).normal(size=(n, n))
        ref = np.fft.rfft(_roll_fill(_slot_array(K)), axis=1)
        back = dequantize(K, Grid(n))
        assert back.samples.shape == ref.shape
        assert np.array_equal(back.samples.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 256])
    def test_stacked_symbol_blocks_equal_dequantize(self, n):
        K = np.random.default_rng(n).normal(size=(n, n))
        # every block lands in one reused buffer
        blocks = [(rows, s.copy()) for rows, s in _symbol_blocks(K)]
        assert [rows.start for rows, _ in blocks] == list(range(0, 2 * n, 64))
        stacked = np.concatenate([s for _, s in blocks])
        assert np.array_equal(stacked, dequantize(K, Grid(n)).samples)

    def test_rejects_complex_matrices(self, grid64):
        K = np.eye(grid64.n, dtype=complex)
        with pytest.raises(ValueError, match="real matrix"):
            dequantize(K, grid64)

    def test_allocates_its_output_and_little_more(self):
        # the (2n, n/2 + 1) complex output holds 2 n^2 doubles, and the
        # profiles and their positions live one block of midpoint rows
        # at a time; it reads 2.26, and a (2n, n) profile array adds 2
        n = 1024
        K = np.random.default_rng(0).normal(size=(n, n))
        dequantize(K, Grid(n))   # builds the index maps
        peak = _traced_peak(dequantize, K, Grid(n))
        assert peak <= 2.3 * 8 * n ** 2


def _slot_array(K):
    """The (2n, n) difference profiles of K: each entry at its slot
    (m*, d0), the antipodal column symmetrized over both torus
    midpoints, the unseen slots zero."""
    n = K.shape[0]
    D0, Mstar = meshgrid_maps(n)
    c = np.zeros((2 * n, n), dtype=K.dtype)
    c[Mstar, D0] = K
    anti = D0 == n // 2
    sym = 0.5 * (K[anti] + K.T[anti])
    c[Mstar[anti], n // 2] = sym
    c[(Mstar[anti] + n) % (2 * n), n // 2] = sym
    return c


def _roll_fill(c):
    """Parity fill of the unseen slots from two whole-field rolls."""
    n = c.shape[1]
    unseen = (np.arange(2 * n)[:, None] % 2) != (np.arange(n)[None, :] % 2)
    fill = 0.5 * (np.roll(c, 1, axis=0) + np.roll(c, -1, axis=0))
    return np.where(unseen, fill, c)


def _stacked_rows(row, step, size):
    """Every block of `_shifted_rows`, copied and stacked; checks the
    row slices cover the kernel rows in order."""
    n, lo, blocks = len(row) // 2, 0, []
    for rows, values in _shifted_rows(row, step, size):
        assert (rows.start, rows.stop) == (lo, min(lo + size, n))
        # numpy gathers fastest through intp indices
        assert values.dtype == np.intp
        blocks.append(values.copy())
        lo = rows.stop
    assert lo == n
    return np.concatenate(blocks)


class TestWeylGatherCache:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 256])
    def test_wrapped_difference_equals_meshgrid_maps(self, n):
        # blocks of 3 and 5 rows end mid-matrix, and so do those of 64
        # rows at n = 256 but for the last one
        D0, Mstar = meshgrid_maps(n)
        row = _slot_row(n)
        for size in (64, 3, 5):
            assert np.array_equal(_stacked_rows(row.slots, 2 * n, size),
                                  Mstar * n + D0)
        anti = D0.reshape(-1)[row.anti] == n // 2
        assert anti.all() and len(row.anti) == n
        assert np.array_equal(row.anti_t,
                              (row.anti % n) * n + row.anti // n)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 256])
    def test_midpoint_positions_equal_meshgrid_maps(self, n):
        # the kernel position of every seen slot (m, d0), inverted from
        # the meshgrid maps; blocks of 6 and 10 rows end mid-matrix, and
        # so do those of 64 rows at n = 256 but for the last one
        D0, Mstar = meshgrid_maps(n)
        at = np.full((2 * n, n), -1)
        at[Mstar, D0] = np.arange(n * n).reshape(n, n)
        for size in (64, 6, 10):
            lo, seen = 0, []
            for rows, even, odd in _midpoint_blocks(n, size):
                assert (rows.start, rows.stop) == (lo, min(lo + size, 2 * n))
                assert even.dtype == odd.dtype == np.intp
                # one pair of rows beyond each edge of the block
                r = np.arange(lo // 2 - 1, rows.stop // 2 + 1) % n
                assert np.array_equal(even, at[2 * r, 0::2])
                assert np.array_equal(odd, at[2 * r + 1, 1::2])
                # copies: the blocks share their buffers
                seen.extend([even[1:-1].flatten(), odd[1:-1].flatten()])
                lo = rows.stop
            assert lo == 2 * n
            # the seen slots of all blocks cover the kernel once
            assert np.array_equal(np.sort(np.concatenate(seen)),
                                  np.arange(n * n))

    @pytest.mark.parametrize("n", [2, 4, 8, 64, 256])
    def test_cached_kernels_equal_direct_gather(self, n):
        half = _random_half(n, n, complex)
        K = quantize(SymbolField(Grid(n), half))
        _assert_reference_kernel(K, _mirrored(half, n))
        assert np.array_equal(quantize(SymbolField(Grid(n), half)), K)

    def test_one_point_kernel_reads_its_own_slot(self):
        # at n = 1 the one entry has d0 = 0 = n // 2 but no other
        # midpoint; the sample at x = 1/2 does not enter the kernel
        p = SymbolField(Grid(1), np.array([[1.0], [3.0]]))
        assert np.array_equal(quantize(p), [[1.0]])

    def test_cached_arrays_are_read_only(self):
        # the slot row holds n or 2n entries per array, no n^2 one
        for n in (1, 16):
            row = _slot_row(n)
            for arr in row:
                assert not arr.flags.writeable
                assert arr.dtype == np.intp and arr.size <= 2 * n
            with pytest.raises(ValueError):
                row.slots[0] = 0

    def test_index_maps_built_once_per_n(self, grid64):
        _slot_row.cache_clear()
        try:
            p = sample_symbol(grid64, lambda x, xi: np.cos(2 * np.pi * x) + xi)
            first = quantize(p)
            second = quantize(p)
            dequantize(first, grid64)
            misses = _slot_row.cache_info().misses
        finally:
            _slot_row.cache_clear()
        assert misses == 1
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    def test_round_trip_on_random_matrices(self, n):
        K = np.random.default_rng(n).normal(size=(n, n))
        # quantize averages the antipodal column d0 = n/2 over its two
        # torus midpoints, so only a symmetric one there is reproduced
        i = np.arange(n)
        anti = (i[:, None] - i[None, :]) % n == n // 2
        K[anti] = 0.5 * (K + K.T)[anti]
        grid = Grid(n)
        back = quantize(dequantize(K, grid))
        assert np.abs(back - K).max() < 1e-13 * np.abs(K).max()


EPS = np.finfo(float).eps


def _mirror(n):
    """The column (-k) mod n of every frequency column k."""
    return (-np.arange(n)) % n


def _mirrored(half, n):
    """The full (u, n) field of a half spectrum: s[:, -k] = conj(s[:, k])."""
    full = np.empty((len(half), n), dtype=complex)
    full[:, :n // 2 + 1] = half
    np.conjugate(half[:, n // 2 - 1:0:-1], out=full[:, n // 2 + 1:])
    return full


def _random_half(n, seed, dtype, u=None):
    """Random half spectrum (u, n/2 + 1), u = 2n by default, with real
    columns 0 and n/2."""
    rng = np.random.default_rng(seed)
    u = 2 * n if u is None else u
    half = rng.normal(size=(u, n // 2 + 1)).astype(dtype)
    if dtype is complex:
        half[:, 1:n // 2] += 1j * rng.normal(size=(u, n // 2 - 1))
    return half


def _assert_reference_kernel(K, full):
    """K is real and the oracle's kernel of the (2n, n) field `full`,
    whose imaginary part is roundoff, to a few ulps."""
    weyl = reference_kernel(full)
    scale = np.abs(K).max()
    assert K.dtype == np.float64
    assert np.abs(K - weyl.real).max() <= 4 * EPS * scale
    assert np.abs(weyl.imag).max() <= 4 * EPS * scale


class TestRealKernels:
    @pytest.mark.parametrize("n", [2, 4, 64, 256])
    def test_conjugate_even_field_gives_real_kernel(self, n):
        for half in (_random_half(n, n, complex),
                     _random_half(n, n + 1, float)):
            K = quantize(SymbolField(Grid(n), half))
            _assert_reference_kernel(K, _mirrored(half, n))

    def test_real_samples_keep_their_dtype(self, grid64):
        for dtype, kept in ((np.float64, np.float64), (np.float32, complex),
                            (np.int64, complex), (complex, complex)):
            p = SymbolField(grid64, np.ones((2, 33), dtype=dtype),
                            rows=np.zeros(128, dtype=int))
            assert p.samples.dtype == kept

    @pytest.mark.parametrize("n", [2, 4, 64, 256])
    def test_dequantize_of_real_kernel_is_conjugate_even(self, sb_c1, n):
        grid = Grid(n)
        K = quantize(sample_symbol_b(sb_c1, grid, 0.02))
        assert K.dtype == np.float64
        # a real kernel's symbol comes as its half spectrum
        s = dequantize(K, grid).samples
        assert s.shape == (2 * n, n // 2 + 1)
        s = _mirrored(s, n)
        assert np.array_equal(s[:, _mirror(n)], s.conj())
        back = quantize(dequantize(K, grid))
        assert back.dtype == np.float64
        assert np.abs(back - K).max() <= 1e-13 * np.abs(K).max()

    def test_invert_b_forms_real_kernels(self, sb_c1, grid64, monkeypatch):
        dtypes = []

        def recording(p):
            K = quantize(p)
            dtypes.append(K.dtype)
            return K

        monkeypatch.setattr(quantize_module, "quantize", recording)
        _invert_b(sb_c1, 0.02, grid64)
        assert dtypes == [np.float64] * 4

    def test_norm_of_real_matrix_is_top_singular_value(self, rng):
        A = rng.normal(size=(48, 48))
        sigma = np.linalg.svd(A, compute_uv=False)[0]
        assert operator_norm(A, max_iter=2000) == pytest.approx(sigma,
                                                                rel=1e-6)


class TestHalfSpectrum:
    @pytest.mark.parametrize("n", [4, 8, 64, 256])
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("mapped", [False, True])
    def test_quantize_equals_mirrored_full_field(self, n, dtype, mapped):
        half = _random_half(n, n, dtype)
        rows = (np.random.default_rng(n + 1).integers(0, 2 * n, size=2 * n)
                if mapped else np.arange(2 * n))
        K = quantize(SymbolField(Grid(n), half, rows=rows))
        _assert_reference_kernel(K, _mirrored(half[rows], n))

    # width 64 is the full spectrum of n = 64
    @pytest.mark.parametrize("width", [1, 32, 34, 63, 64, 65, 128])
    def test_rejects_other_widths(self, grid64, width):
        with pytest.raises(ValueError, match="expected"):
            SymbolField(grid64, np.ones((2, width)),
                        rows=np.zeros(128, dtype=int))

    @pytest.mark.parametrize("n", [2, 4, 64])
    @pytest.mark.parametrize("column", [0, -1])
    def test_rejects_imaginary_column_zero_and_nyquist(self, n, column):
        half = _random_half(n, n, complex)
        half[3, column] += 1e-300j
        with pytest.raises(ValueError, match="real columns 0 and n/2"):
            SymbolField(Grid(n), half)

    def test_invert_b_peak_memory(self, sb_c1):
        # sampling b, its kernel and the recursion, which writes each
        # correction into the (2n, n/2 + 1) half spectrum of the last,
        # peak at 5.81 n^2 doubles, in a product B op(c_k); one copy of
        # a correction adds 2
        grid = Grid(256)
        _invert_b(sb_c1, 0.0, grid)   # builds the slot row
        peak = _traced_peak(_invert_b, sb_c1, 0.0, grid)
        assert peak <= 5.9 * 8 * grid.n ** 2


def _invert_b(sb, t, grid):
    """invert_b of b sampled at t on `grid` and its kernel, both
    formed through the module's quantize."""
    b = sample_symbol_b(sb, grid, t)
    return invert_b(b, quantize_module.quantize(b))


def _traced_peak(fn, *args):
    """The tracemalloc peak of fn(*args), in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestApply:
    @pytest.mark.parametrize("shape", [(64,), (64, 4)])
    def test_matches_complex_product(self, rng, shape):
        K = rng.normal(size=(64, 64))
        X = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = apply(K, X)
        ref = K.astype(complex) @ X
        assert got.shape == ref.shape and got.dtype == complex
        # a few ulps of the sum of |K| |X| that each entry rounds
        bound = 8 * EPS * (np.abs(K) @ (np.abs(X.real) + np.abs(X.imag)))
        assert np.all(np.abs(got.real - ref.real) <= bound)
        assert np.all(np.abs(got.imag - ref.imag) <= bound)

    def test_reads_strided_right_hand_sides(self, rng):
        K = rng.normal(size=(32, 32))
        rows = rng.normal(size=(4, 32)) + 1j * rng.normal(size=(4, 32))
        assert np.array_equal(apply(K, rows.T), apply(K, rows.T.copy()))

    def test_other_dtypes_are_rejected(self, rng):
        K = rng.normal(size=(16, 16))
        x = rng.normal(size=16)
        Kc = K + 1j * rng.normal(size=(16, 16))
        xc = x + 1j * rng.normal(size=16)
        for kernel, rhs in ((K, x), (Kc, xc), (Kc, x)):
            with pytest.raises(ValueError, match="real kernel"):
                apply(kernel, rhs)


def _random_row_map(n, seed):
    """A random (u, n/2 + 1) half spectrum and a random map of the 2n
    midpoints to it."""
    rng = np.random.default_rng(seed)
    u = int(rng.integers(1, 2 * n + 1))
    return (_random_half(n, seed, complex, u),
            rng.integers(0, u, size=2 * n))


class TestRowMappedFields:
    @pytest.mark.parametrize("n", [2, 4, 8, 64, 256])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quantize_equals_expanded_field(self, n, seed):
        grid = Grid(n)
        samples, rows = _random_row_map(n, 1000 * n + seed)
        mapped = SymbolField(grid, samples, rows=rows)
        expanded = SymbolField(grid, samples[rows])
        K = quantize(mapped)
        assert np.array_equal(K, quantize(expanded))
        _assert_reference_kernel(K, _mirrored(samples[rows], n))

    @pytest.mark.parametrize("n", [4, 64])
    def test_antipodal_midpoints_on_different_rows(self, n):
        # every antipodal entry averages two midpoints m* and m* + n;
        # give the two halves of the doubled lattice unrelated rows
        grid = Grid(n)
        samples = _random_half(n, n, complex, 2)
        rows = np.repeat([0, 1], n)
        mapped = quantize(SymbolField(grid, samples, rows=rows))
        expanded = quantize(SymbolField(grid, samples[rows]))
        assert np.array_equal(mapped, expanded)
        anti = _slot_row(n).anti
        assert np.array_equal(mapped.reshape(-1)[anti],
                              expanded.reshape(-1)[anti])

    def test_default_rows_are_the_identity_map(self, grid64):
        p = SymbolField(grid64, np.ones((2 * grid64.n, grid64.n // 2 + 1)))
        assert np.array_equal(p.rows, np.arange(2 * grid64.n))

    @pytest.mark.parametrize("samples_shape, rows, match", [
        ((3, 33), np.zeros(127, dtype=int), "rows must be"),
        ((3, 33), np.zeros((2, 64), dtype=int), "rows must be"),
        ((3, 33), np.zeros(128), "rows must be"),
        ((3, 33), np.full(128, 3), r"\[0, 3\)"),
        ((3, 33), np.full(128, -1), r"\[0, 3\)"),
        ((3, 128), np.zeros(128, dtype=int), "expected"),
        ((3,), np.zeros(128, dtype=int), "expected"),
    ])
    def test_rejects_bad_row_maps(self, grid64, samples_shape, rows, match):
        with pytest.raises(ValueError, match=match):
            SymbolField(grid64, np.ones(samples_shape), rows=rows)

    def test_rejects_non_finite_rows(self, grid64):
        samples = np.ones((2, 33))
        samples[1, 5] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            SymbolField(grid64, samples, rows=np.zeros(128, dtype=int))


class TestSampleSymbolB:
    @pytest.mark.parametrize("n", [2, 4, 64, 256])
    @pytest.mark.parametrize("t", [0.0, 0.07])
    @pytest.mark.parametrize("c", [0.5, 1.0])
    def test_kernel_equals_full_lattice_sampling(self, coeff, n, t, c):
        grid = Grid(n)
        sb = SymbolB(coeff, c=c)
        field = sample_symbol_b(sb, grid, t)
        full = sample_symbol(grid, lambda x, xi: sb.b(t, x, xi))
        # the stored rows expand to the sampling of every lattice point
        assert np.array_equal(field.samples[field.rows], full.samples)
        assert np.array_equal(quantize(field), quantize(full))
        # one row per bit pattern of a(t, x2), a signed zero included
        patterns = {a.hex() for a in coeff.a(t, grid.x_doubled)}
        assert field.samples.shape == (len(patterns), n // 2 + 1)
        assert len(patterns) < 2 * n

    def test_distinct_rows_tells_signed_zeros_apart(self):
        keys = np.array([[0.0, -0.0, 1.5, 0.0, -0.0, 1.5, 2.0],
                         [3.0, 3.0, 3.0, 3.0, 3.0, -1.0, 3.0]])
        first, rows = distinct_rows(keys)
        assert np.array_equal(keys[:, first][:, rows].view(np.int64),
                              keys.view(np.int64))
        assert len(first) == 5
        # the first column of each distinct one
        assert sorted(first) == [0, 1, 2, 5, 6]


class TestFlatIndexCache:
    @pytest.mark.parametrize("n", [4, 64, 256])
    def test_alternating_row_maps(self, n):
        # two fields at one n, each with its own map, quantized in turn:
        # every call replaces the cached index of the other map
        grid = Grid(n)
        fields = []
        for seed in (7 * n, 7 * n + 1):
            samples, rows = _random_row_map(n, seed)
            fields.append(SymbolField(grid, samples, rows=rows))
        assert not np.array_equal(fields[0].rows, fields[1].rows)
        for _ in range(3):
            for p in fields:
                expanded = p.samples[p.rows]
                K = quantize(p)
                _assert_reference_kernel(K, _mirrored(expanded, n))
                assert np.array_equal(K, quantize(SymbolField(grid, expanded)))

    def test_cached_index_is_read_only(self, grid64):
        samples, rows = _random_row_map(64, 5)
        quantize(SymbolField(grid64, samples, rows=rows))
        index = quantize_module._flat_index(rows)
        assert index.dtype == np.intp
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0, 0] = 0

    @pytest.mark.parametrize("n", [1, 2, 64])
    def test_identity_map_gathers_through_the_slot_index(self, n):
        # no n^2 gather index: an unmapped field reads the slots m* * n
        # + d0 themselves, block by block from the slot row
        half = _random_half(n, n, float)
        p = SymbolField(Grid(n), half)
        assert quantize_module._flat_index(p.rows) is None
        D0, Mstar = meshgrid_maps(n)
        K = np.fft.irfft(half, n, axis=1)[Mstar, D0]
        anti = D0 == n // 2
        K[anti] = 0.5 * (K + K.T)[anti]
        assert np.array_equal(quantize(p), K)

    def _square_arrays(self, n):
        """The cached arrays of n^2 entries or more at size n."""
        cached = list(_slot_row(n))
        if quantize_module._last_flat_index is not None:
            cached.extend(quantize_module._last_flat_index)
        return [a for a in cached if a.size >= n * n]

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_only_a_row_mapped_quantize_caches_a_square_array(self, n):
        grid = Grid(n)
        samples, rows = _random_row_map(n, 13 * n)
        mapped = SymbolField(grid, samples, rows=rows)
        K = quantize(mapped)
        (index,) = self._square_arrays(n)
        assert index.shape == (n, n)
        dequantize(K, grid)
        assert self._square_arrays(n) == []
        quantize(mapped)
        assert len(self._square_arrays(n)) == 1
        quantize(SymbolField(grid, samples[rows]))
        assert self._square_arrays(n) == []
        dequantize(K, grid)
        assert self._square_arrays(n) == []

    def test_unmapped_field_releases_the_cached_index(self, grid64):
        # an unmapped field after a mapped one leaves no gather index
        # of the mapped one alive
        samples, rows = _random_row_map(64, 11)
        quantize(SymbolField(grid64, samples, rows=rows))
        assert quantize_module._last_flat_index is not None
        quantize(SymbolField(grid64, samples[rows]))
        assert quantize_module._last_flat_index is None

    def test_keyed_by_row_map_content(self, grid64):
        samples, rows = _random_row_map(64, 9)
        p = SymbolField(grid64, samples, rows=rows)
        quantize(p)
        p.rows[::2] = 0
        K = quantize(p)
        _assert_reference_kernel(K, _mirrored(samples[p.rows], 64))
        assert np.array_equal(
            K, quantize(SymbolField(grid64, samples[p.rows])))


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(32)) == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize("fn", [operator_norm, hermiticity_defect])
    def test_complex_matrices_are_rejected(self, fn):
        # a complex dtype is rejected even with zero imaginary parts
        with pytest.raises(ValueError, match="real matrix"):
            fn(np.eye(8, dtype=complex))

    def test_zero(self):
        assert operator_norm(np.zeros((16, 16))) == 0.0

    def test_multiplier_norm_is_sup(self, grid64):
        # even in xi, so the matrix is real; its top singular value is
        # double, at xi = +-11
        mv = 1.0 + 0.5 * np.sin(np.abs(grid64.xi) / 7.0)
        M = multiplier_matrix(grid64, mv).real
        assert operator_norm(M, max_iter=500) == pytest.approx(
            np.max(np.abs(mv)), rel=1e-6)

    def test_non_convergence_warns(self, rng):
        A = rng.normal(size=(64, 64))
        with pytest.warns(PowerIterationWarning):
            operator_norm(A, tol=0.0, max_iter=2)

    def test_unit_weight_symbol_acts_uniformly(self, sb_c1):
        # op(b <xi>^(-c/2)) has a unit-weight symbol; its norm must stay
        # uniformly bounded across times and resolutions
        norms = []
        for n in (128, 256):
            g = Grid(n)
            for t in (0.0, 0.025, 0.05):
                p = sample_symbol(
                    g, lambda x, xi: sb_c1.b(t, x, xi) * bracket(xi) ** (-sb_c1.c / 2))
                # tolerance relaxed: the spectrum of a unit-weight symbol
                # is nearly flat, which slows the subspace iteration
                norms.append(operator_norm(quantize(p), tol=1e-6,
                                           max_iter=400))
        assert max(norms) <= 2.0 * min(norms)


class TestComposeRemainder:
    def test_multipliers_compose_exactly(self, grid64):
        p = sample_symbol(grid64, lambda x, xi: 1.0 / bracket(xi) + 0 * x)
        R0 = quantize(p) @ quantize(p) - quantize(
            SymbolField(grid64, p.samples**2))
        assert operator_norm(R0) < 1e-12



def reference_invert_b(sb, nu, t, grid):
    """The defect recursion that forms every op(b) op(c_k) twice, on
    the full-lattice sampling of b, without row maps."""
    b_field = sample_symbol(grid, lambda x, xi: sb.b(t, x, xi))
    B = quantize(b_field)
    # B and every op(c_k) are real kernels; a real identity keeps the
    # defects real, as in invert_b
    eye = np.eye(grid.n)
    c = 1.0 / b_field.samples

    def defect_of(c_samples):
        return operator_norm(B @ quantize(SymbolField(grid, c_samples)) - eye)

    defects = [defect_of(c)]
    for _ in range(nu):
        M = B @ quantize(SymbolField(grid, c))
        s = dequantize(M, grid).samples
        c = c + (1.0 - s) / b_field.samples
        defects.append(defect_of(c))
    return c, defects


def _depth(monkeypatch, nu):
    """invert_b runs nu corrections: the recursion at other depths."""
    monkeypatch.setattr(quantize_module, "INVERT_DEPTH", nu)


class TestInvertB:
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("nu", [0, 2])
    @pytest.mark.parametrize("t", [0.0, 0.02])
    def test_equals_double_product_recursion(self, sb_c1, n, nu, t,
                                             monkeypatch):
        _depth(monkeypatch, nu)
        grid = Grid(n)
        field, defects = _invert_b(sb_c1, t, grid)
        c, reference = reference_invert_b(sb_c1, nu, t, grid)
        assert np.array_equal(defects, reference)
        assert np.array_equal(field.samples[field.rows], c)
        assert np.array_equal(quantize(field),
                              quantize(SymbolField(grid, c)))

    @pytest.mark.parametrize("nu", [0, 1, 3])
    def test_forms_each_product_once(self, sb_c1, grid64, nu, monkeypatch):
        calls = []

        def counting(p):
            calls.append(p.label)
            return quantize(p)

        monkeypatch.setattr(quantize_module, "quantize", counting)
        _depth(monkeypatch, nu)
        _invert_b(sb_c1, 0.0, grid64)
        assert len(calls) == nu + 2

    def test_pure_multiplier_inverts_at_order_zero(self, frozen_zero_coeff,
                                                   grid64):
        sb = SymbolB(frozen_zero_coeff, c=1.0)
        _, defects = _invert_b(sb, 0.0, grid64)
        assert len(defects) == quantize_module.INVERT_DEPTH + 1 == 3
        assert max(defects) < 1e-12

    def test_defect_positive_for_x_dependent_symbol(self, sb_c1, grid64):
        _, defects = _invert_b(sb_c1, 0.02, grid64)
        assert defects[0] > 1e-6

    def test_defects_non_increasing(self, sb_c1):
        g = Grid(256)
        _, defects = _invert_b(sb_c1, 0.0, g)
        assert defects[1] <= defects[0]
        assert defects[2] <= defects[1]

    def test_returned_symbol_quantizes_near_inverse(self, sb_c1, grid64):
        field, defects = _invert_b(sb_c1, 0.0, grid64)
        B = quantize(sample_symbol_b(sb_c1, grid64, 0.0))
        C = quantize(field)
        assert operator_norm(B @ C - np.eye(grid64.n)) == pytest.approx(
            defects[-1], rel=1e-6)
