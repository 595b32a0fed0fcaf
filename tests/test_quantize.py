import importlib

import numpy as np
import pytest

from weakhyp.quantize import (PowerIterationWarning, SymbolField, _slot_map, _wrapped_difference,
                              apply, dequantize, distinct_rows,
                              hermiticity_defect,
                              invert_b, multiplication_matrix,
                              multiplier_matrix, operator_norm, quantize,
                              sample_symbol, sample_symbol_b)
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
        a, b = 1.7, -0.3 + 0.2j
        combo = SymbolField(grid64, a * p1.samples + b * p2.samples)
        K = quantize(combo)
        K2 = a * quantize(p1) + b * quantize(p2)
        assert np.abs(K - K2).max() < 1e-12 * max(1.0, np.abs(K).max())

    def test_hermiticity_of_real_symbol(self, sb_c1, grid128):
        B = quantize(sample_symbol_b(sb_c1, grid128, 0.0))
        assert hermiticity_defect(B) <= 1e-10

    def test_symbol_field_validation(self, grid64):
        with pytest.raises(ValueError):
            SymbolField(grid64, np.zeros((grid64.n, grid64.n)))
        bad = np.zeros((2 * grid64.n, grid64.n))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
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

    @pytest.mark.parametrize("n", [2, 4, 8, 64, 256])
    def test_fill_matches_whole_field_rolls(self, n, monkeypatch):
        # the slot array that dequantize hands to its one forward FFT
        slots = []
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda c, axis: (
            slots.append(c.copy()), fft(c, axis=axis))[1])
        rng = np.random.default_rng(n)
        K = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        back = dequantize(K, Grid(n, 1.0, 0.5))
        (c,) = slots
        ref = fft(_roll_fill(c), axis=1)
        assert np.array_equal(back.samples.view(np.int64), ref.view(np.int64))


def _roll_fill(c):
    """Parity fill of the unseen slots from two whole-field rolls."""
    n = c.shape[1]
    unseen = (np.arange(2 * n)[:, None] % 2) != (np.arange(n)[None, :] % 2)
    fill = 0.5 * (np.roll(c, 1, axis=0) + np.roll(c, -1, axis=0))
    return np.where(unseen, fill, c)


def _reference_kernel(p):
    """The Weyl kernel gathered directly from `_wrapped_difference`."""
    n = p.grid.n
    D0, _, Mstar = _wrapped_difference(n)
    c = np.fft.ifft(p.samples, axis=1)
    weyl = c[Mstar, D0]
    anti = D0 == n // 2
    weyl[anti] = 0.5 * (weyl[anti] + c[(Mstar[anti] + n) % (2 * n), n // 2])
    return weyl


class TestWeylGatherCache:
    @pytest.mark.parametrize("n", [2, 4, 64, 256])
    def test_wrapped_difference_equals_meshgrid_maps(self, n):
        I, J = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        D0 = (I - J) % n
        Dstar = np.where(D0 <= n // 2, D0, D0 - n)
        Mstar = (2 * J + Dstar) % (2 * n)
        for got, ref in zip(_wrapped_difference(n), (D0, Dstar, Mstar)):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("n", [2, 4, 8, 64, 256])
    def test_cached_kernels_equal_direct_gather(self, n):
        rng = np.random.default_rng(n)
        p = SymbolField(Grid(n, 1.0, 0.5),
                        rng.normal(size=(2 * n, n))
                        + 1j * rng.normal(size=(2 * n, n)))
        weyl = _reference_kernel(p)
        assert np.array_equal(quantize(p), weyl)

    def test_cached_arrays_are_read_only(self):
        slots = _slot_map(16)
        for arr in slots:
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            slots.mid[0, 0] = 0

    def test_index_maps_built_once_per_n(self, monkeypatch, grid64):
        calls = []

        def counting(n):
            calls.append(n)
            return _wrapped_difference(n)

        monkeypatch.setattr(quantize_module, "_wrapped_difference", counting)
        _slot_map.cache_clear()
        try:
            p = sample_symbol(grid64, lambda x, xi: np.cos(2 * np.pi * x) + xi)
            first = quantize(p)
            second = quantize(p)
            dequantize(first, grid64)
        finally:
            _slot_map.cache_clear()
        assert calls == [64]
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_round_trip_on_random_matrices(self, n):
        rng = np.random.default_rng(n)
        K = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        # quantize averages the antipodal column d0 = n/2 over its two
        # torus midpoints, so only a symmetric one there is reproduced
        i = np.arange(n)
        anti = (i[:, None] - i[None, :]) % n == n // 2
        K[anti] = 0.5 * (K + K.T)[anti]
        grid = Grid(n, 1.0, 0.5)
        back = quantize(dequantize(K, grid))
        assert np.abs(back - K).max() < 1e-13 * np.abs(K).max()


EPS = np.finfo(float).eps


def _mirror(n):
    """The column (-k) mod n of every frequency column k."""
    return (-np.arange(n)) % n


def _conjugate_even_field(n, seed):
    """Random samples with s[:, -k] == conj(s[:, k]) bit for bit."""
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(2 * n, n)) + 1j * rng.normal(size=(2 * n, n))
    # a + conj(b) and b + conj(a) are conjugate: IEEE addition commutes
    return s + s[:, _mirror(n)].conj()


def _flip_last_bit(samples, index):
    """A copy of `samples` with the last bit of one float flipped."""
    flipped = samples.copy()
    flipped.view(np.int64)[index] ^= 1
    return flipped


class TestRealKernels:
    @pytest.mark.parametrize("n", [2, 4, 64, 256])
    def test_conjugate_even_field_gives_real_kernel(self, n):
        for samples in (_conjugate_even_field(n, n),
                        _conjugate_even_field(n, n + 1).real):
            p = SymbolField(Grid(n, 1.0, 0.5), samples)
            K = quantize(p)
            assert K.dtype == np.float64
            weyl = _reference_kernel(p)
            scale = np.abs(K).max()
            assert np.abs(K - weyl.real).max() <= 4 * EPS * scale
            assert np.abs(weyl.imag).max() <= 4 * EPS * scale

    def test_real_samples_keep_their_dtype(self, grid64):
        for dtype, kept in ((np.float64, np.float64), (np.float32, complex),
                            (np.int64, complex), (complex, complex)):
            p = SymbolField(grid64, np.ones((2, 64), dtype=dtype),
                            rows=np.zeros(128, dtype=int))
            assert p.samples.dtype == kept

    @pytest.mark.parametrize("n", [4, 64, 256])
    def test_other_fields_keep_the_complex_path(self, n):
        even = _conjugate_even_field(n, n)
        rng = np.random.default_rng(n)
        # (row, float) positions in the (2n, 2n) float view: the real
        # part of column 1, the imaginary parts of columns 0 and n/2 and
        # the real part of the last column
        fields = [rng.normal(size=(2 * n, n)) + 1j * rng.normal(size=(2 * n, n)),
                  _flip_last_bit(even, (3, 2)),
                  _flip_last_bit(even, (0, 1)),
                  _flip_last_bit(even, (n // 3, n + 1)),
                  _flip_last_bit(even, (2 * n - 1, 2 * n - 2)),
                  _flip_last_bit(even.real.copy(), (5, n - 1))]
        for samples in fields:
            p = SymbolField(Grid(n, 1.0, 0.5), samples)
            K = quantize(p)
            assert np.iscomplexobj(K)
            assert np.array_equal(K, _reference_kernel(p))

    @pytest.mark.parametrize("n", [2, 4, 64, 256])
    def test_dequantize_of_real_kernel_is_conjugate_even(self, sb_c1, n):
        grid = Grid(n, 1.0, 0.5)
        K = quantize(sample_symbol_b(sb_c1, grid, 0.02))
        assert K.dtype == np.float64
        s = dequantize(K, grid).samples
        assert np.array_equal(s[:, _mirror(n)], s.conj())
        back = quantize(dequantize(K, grid))
        assert back.dtype == np.float64
        assert np.abs(back - K).max() <= 1e-13 * np.abs(K).max()
        # the complex path extracts the same symbol to roundoff
        full = dequantize(K.astype(complex), grid).samples
        assert np.abs(s - full).max() <= 1e-13 * np.abs(full).max()

    def test_invert_b_forms_real_kernels(self, sb_c1, grid64, monkeypatch):
        dtypes = []

        def recording(p):
            K = quantize(p)
            dtypes.append(K.dtype)
            return K

        monkeypatch.setattr(quantize_module, "quantize", recording)
        invert_b(sb_c1, 2, 0.02, grid64)
        assert dtypes == [np.float64] * 4

    def test_norm_of_real_matrix_is_top_singular_value(self, rng):
        A = rng.normal(size=(48, 48))
        sigma = np.linalg.svd(A, compute_uv=False)[0]
        assert operator_norm(A, max_iter=2000) == pytest.approx(sigma,
                                                                rel=1e-6)


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

    def test_other_dtypes_take_the_plain_product(self, rng):
        K = rng.normal(size=(16, 16))
        x = rng.normal(size=16)
        assert np.array_equal(apply(K, x), K @ x)
        Kc = K + 1j * rng.normal(size=(16, 16))
        xc = x + 1j * rng.normal(size=16)
        assert np.array_equal(apply(Kc, xc), Kc @ xc)


def _random_row_map(n, seed):
    """A random (u, n) symbol and a random map of the 2n midpoints to it."""
    rng = np.random.default_rng(seed)
    u = int(rng.integers(1, 2 * n + 1))
    samples = rng.normal(size=(u, n)) + 1j * rng.normal(size=(u, n))
    return samples, rng.integers(0, u, size=2 * n)


class TestRowMappedFields:
    @pytest.mark.parametrize("n", [2, 4, 8, 64, 256])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quantize_equals_expanded_field(self, n, seed):
        grid = Grid(n, 1.0, 0.5)
        samples, rows = _random_row_map(n, 1000 * n + seed)
        mapped = SymbolField(grid, samples, rows=rows)
        expanded = SymbolField(grid, samples[rows])
        K = quantize(mapped)
        assert np.array_equal(K, quantize(expanded))
        assert np.array_equal(K, _reference_kernel(expanded))

    @pytest.mark.parametrize("n", [4, 64])
    def test_antipodal_midpoints_on_different_rows(self, n):
        # every antipodal entry averages two midpoints m* and m* + n;
        # give the two halves of the doubled lattice unrelated rows
        grid = Grid(n, 1.0, 0.5)
        rng = np.random.default_rng(n)
        samples = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        rows = np.repeat([0, 1], n)
        mapped = quantize(SymbolField(grid, samples, rows=rows))
        expanded = quantize(SymbolField(grid, samples[rows]))
        assert np.array_equal(mapped, expanded)
        anti = _slot_map(n).anti
        assert np.array_equal(mapped.reshape(-1)[anti],
                              expanded.reshape(-1)[anti])

    def test_default_rows_are_the_identity_map(self, grid64):
        p = SymbolField(grid64, np.ones((2 * grid64.n, grid64.n)))
        assert np.array_equal(p.rows, np.arange(2 * grid64.n))

    @pytest.mark.parametrize("samples_shape, rows, match", [
        ((3, 64), np.zeros(127, dtype=int), "rows must be"),
        ((3, 64), np.zeros((2, 64), dtype=int), "rows must be"),
        ((3, 64), np.zeros(128), "rows must be"),
        ((3, 64), np.full(128, 3), r"\[0, 3\)"),
        ((3, 64), np.full(128, -1), r"\[0, 3\)"),
        ((3, 128), np.zeros(128, dtype=int), "expected"),
        ((3,), np.zeros(128, dtype=int), "expected"),
    ])
    def test_rejects_bad_row_maps(self, grid64, samples_shape, rows, match):
        with pytest.raises(ValueError, match=match):
            SymbolField(grid64, np.ones(samples_shape), rows=rows)

    def test_rejects_non_finite_rows(self, grid64):
        samples = np.ones((2, 64))
        samples[1, 5] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            SymbolField(grid64, samples, rows=np.zeros(128, dtype=int))


class TestSampleSymbolB:
    @pytest.mark.parametrize("n", [2, 4, 64, 256])
    @pytest.mark.parametrize("t", [0.0, 0.07])
    @pytest.mark.parametrize("c", [0.5, 1.0])
    def test_kernel_equals_full_lattice_sampling(self, coeff, n, t, c):
        grid = Grid(n, 1.0, 0.5)
        sb = SymbolB(coeff, c=c)
        field = sample_symbol_b(sb, grid, t)
        full = sample_symbol(grid, lambda x, xi: sb.b(t, x, xi))
        assert np.array_equal(field.samples[field.rows], full.samples)
        assert np.array_equal(quantize(field), quantize(full))
        # one row per bit pattern of a(t, x2), a signed zero included
        patterns = {a.hex() for a in coeff.a(t, grid.x_doubled)}
        assert field.samples.shape == (len(patterns), n)
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
        grid = Grid(n, 1.0, 0.5)
        fields = []
        for seed in (7 * n, 7 * n + 1):
            samples, rows = _random_row_map(n, seed)
            fields.append(SymbolField(grid, samples, rows=rows))
        assert not np.array_equal(fields[0].rows, fields[1].rows)
        for _ in range(3):
            for p in fields:
                expanded = SymbolField(grid, p.samples[p.rows])
                K = quantize(p)
                assert np.array_equal(K, _reference_kernel(expanded))
                assert np.array_equal(K, quantize(expanded))

    def test_cached_index_is_read_only(self, grid64):
        samples, rows = _random_row_map(64, 5)
        quantize(SymbolField(grid64, samples, rows=rows))
        flat = quantize_module._flat_index(rows)
        for arr in flat:
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            flat.index[0, 0] = 0

    def test_keyed_by_row_map_content(self, grid64):
        samples, rows = _random_row_map(64, 9)
        p = SymbolField(grid64, samples, rows=rows)
        quantize(p)
        p.rows[::2] = 0
        assert np.array_equal(quantize(p),
                              _reference_kernel(SymbolField(
                                  grid64, samples[p.rows])))


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(32)) == pytest.approx(1.0, rel=1e-8)

    def test_zero(self):
        assert operator_norm(np.zeros((16, 16))) == 0.0

    def test_multiplier_norm_is_sup(self, grid64):
        mv = 1.0 + 0.5 * np.sin(grid64.xi / 7.0)
        M = multiplier_matrix(grid64, mv)
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
            g = Grid(n, 1.0, 0.5)
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
    the full-lattice sampling of b."""
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


class TestInvertB:
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("nu", [0, 2])
    @pytest.mark.parametrize("t", [0.0, 0.02])
    def test_equals_double_product_recursion(self, sb_c1, n, nu, t):
        grid = Grid(n, 1.0, 0.5)
        field, defects = invert_b(sb_c1, nu, t, grid)
        c, reference = reference_invert_b(sb_c1, nu, t, grid)
        assert np.array_equal(defects, reference)
        assert np.array_equal(field.samples[field.rows], c)

    @pytest.mark.parametrize("nu", [0, 1, 3])
    def test_forms_each_product_once(self, sb_c1, grid64, nu, monkeypatch):
        calls = []

        def counting(p):
            calls.append(p.label)
            return quantize(p)

        monkeypatch.setattr(quantize_module, "quantize", counting)
        invert_b(sb_c1, nu, 0.0, grid64)
        assert len(calls) == nu + 2

    def test_pure_multiplier_inverts_at_order_zero(self, frozen_zero_coeff, grid64):
        sb = SymbolB(frozen_zero_coeff, c=1.0)
        _, defects = invert_b(sb, 0, 0.0, grid64)
        assert defects[0] < 1e-12

    def test_defect_positive_for_x_dependent_symbol(self, sb_c1, grid64):
        _, defects = invert_b(sb_c1, 0, 0.02, grid64)
        assert defects[0] > 1e-6

    def test_defects_non_increasing(self, sb_c1):
        g = Grid(256, 1.0, 0.5)
        _, defects = invert_b(sb_c1, 2, 0.0, g)
        assert defects[1] <= defects[0]
        assert defects[2] <= defects[1]

    def test_returned_symbol_quantizes_near_inverse(self, sb_c1, grid64):
        field, defects = invert_b(sb_c1, 2, 0.0, grid64)
        B = quantize(sample_symbol_b(sb_c1, grid64, 0.0))
        C = quantize(field)
        assert operator_norm(B @ C - np.eye(grid64.n)) == pytest.approx(
            defects[-1], rel=1e-6)

    def test_rejects_large_nu(self, sb_c1, grid64):
        with pytest.raises(ValueError):
            invert_b(sb_c1, 7, 0.0, grid64)
