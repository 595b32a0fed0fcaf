import numpy as np
import pytest

from weakhyp.spectral import (DEFAULT_MAX_EXPONENT, GevreyOverflowError, Grid,
                              bracket, gevrey_multiplier)


def _random_values(grid, rng, rows=None):
    shape = (grid.n,) if rows is None else (rows, grid.n)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _weight(grid, values, tau, sigma, direction=+1):
    return grid.multiply(values, gevrey_multiplier(grid, tau, sigma, direction))


class TestGrid:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Grid(100, 1.0, 0.5)

    def test_rejects_x0_outside_domain(self):
        with pytest.raises(ValueError):
            Grid(64, 1.0, 1.5)

    def test_frequency_lattice_is_k_over_L(self):
        g = Grid(8, 2.0, 1.0)
        assert sorted(g.xi) == [k / 2.0 for k in range(-4, 4)]

    def test_xi_and_dxi_are_read_only(self):
        g = Grid(16, 1.0, 0.5)
        assert np.array_equal(g.dxi, 2.0j * np.pi * g.xi)
        for table in (g.xi, g.dxi):
            with pytest.raises(ValueError):
                table[0] = 1.0


class TestTransforms:
    def test_constant_is_delta_at_zero_frequency(self, grid64):
        u = np.ones(grid64.n, dtype=complex)
        zero_mode = (grid64.xi == 0).astype(float)
        assert np.abs(grid64.multiply(u, zero_mode) - u).max() < 1e-14
        assert np.abs(grid64.multiply(u, 1.0 - zero_mode)).max() < 1e-14

    def test_pure_mode_lands_on_its_frequency(self, grid64):
        u = np.exp(2j * np.pi * grid64.x / grid64.length)
        k = int(np.argmin(np.abs(grid64.xi - 1.0 / grid64.length)))
        only_k = np.zeros(grid64.n)
        only_k[k] = 1.0
        assert np.abs(grid64.multiply(u, only_k) - u).max() < 1e-13
        # d/dx of the mode is 2*pi*i/L times the mode
        assert np.abs(grid64.multiply(u, grid64.dxi)
                      - 2j * np.pi / grid64.length * u).max() < 1e-12

    def test_unitarity_on_100_random_vectors(self, grid64, rng):
        for _ in range(100):
            u = _random_values(grid64, rng)
            phase = np.exp(2j * np.pi * rng.uniform(size=grid64.n))
            out = grid64.multiply(u, phase)
            assert np.linalg.norm(out) == pytest.approx(
                np.linalg.norm(u), rel=1e-12)

    def test_round_trip(self, grid64, rng):
        u = _random_values(grid64, rng)
        back = grid64.multiply(u, np.ones(grid64.n))
        assert np.abs(back - u).max() <= 1e-12 * np.abs(u).max()

    def test_parseval_quadrature_weighted(self, grid128, rng):
        u = _random_values(grid128, rng)
        # the single-frequency projections split the norm exactly
        modes = grid128.multiply(u, np.eye(grid128.n)[:, None, :])[:, 0]
        freq = sum(grid128.norm2(m) for m in modes)
        assert freq == pytest.approx(grid128.norm2(u), rel=1e-12)

    def test_batched_multiply_matches_rows(self, grid64, rng):
        u = _random_values(grid64, rng, rows=2)
        m = bracket(grid64.xi) ** 0.5 * grid64.dxi
        rows = np.stack([grid64.multiply(row, m) for row in u])
        assert np.array_equal(grid64.multiply(u, m), rows)


class TestMultipliers:
    def test_identity_multiplier(self, grid64, rng):
        u = _random_values(grid64, rng)
        out = grid64.multiply(u, np.ones_like(grid64.xi))
        assert np.abs(out - u).max() < 1e-14

    def test_bracket_at_zero_is_one(self):
        assert bracket(0.0) == 1.0

    def test_multiplier_semigroup(self, grid64, rng):
        sigma = 0.6
        u = _random_values(grid64, rng)
        m = bracket(grid64.xi) ** sigma
        twice = grid64.multiply(grid64.multiply(u, m), m)
        once = grid64.multiply(u, bracket(grid64.xi) ** (2 * sigma))
        assert np.abs(twice - once).max() <= 1e-14 * np.abs(once).max()

    def test_composition_matches_product(self, grid64, rng):
        u = _random_values(grid64, rng)
        m1 = 1.0 + grid64.xi ** 2 / 10.0
        m2 = np.exp(-np.abs(grid64.xi) / 50.0)
        chained = grid64.multiply(grid64.multiply(u, m1), m2)
        combined = grid64.multiply(u, m1 * m2)
        assert np.abs(chained - combined).max() <= \
            1e-14 * np.abs(combined).max()


class TestGevreyWeight:
    def test_tau_zero_is_identity(self, grid64, rng):
        u = _random_values(grid64, rng)
        out = _weight(grid64, u, 0.0, 0.5)
        assert np.abs(out - u).max() < 1e-12

    def test_zero_mode_scaled_by_e_tau(self, grid64):
        u = np.ones(grid64.n, dtype=complex)  # only xi = 0
        out = _weight(grid64, u, 1.0, 0.5)
        assert np.abs(out - np.e).max() < 1e-14 * np.e

    def test_round_trip_inverse(self, grid64, rng):
        u = _random_values(grid64, rng)
        out = _weight(grid64, _weight(grid64, u, 0.7, 0.5, +1), 0.7, 0.5, -1)
        assert np.abs(out - u).max() <= 1e-10 * np.abs(u).max()

    def test_monotone_in_tau(self, grid64, rng):
        for _ in range(20):
            u = _random_values(grid64, rng)
            n1 = np.linalg.norm(_weight(grid64, u, 0.1, 0.5))
            n2 = np.linalg.norm(_weight(grid64, u, 0.3, 0.5))
            assert n1 <= n2 * (1 + 1e-14)

    def test_overflow_names_frequency(self):
        g = Grid(1024, 1.0, 0.5)
        tau = (DEFAULT_MAX_EXPONENT + 1) / bracket(g.xi_max) ** 0.5
        with pytest.raises(GevreyOverflowError, match="xi ="):
            gevrey_multiplier(g, tau, 0.5)

    def test_rejects_bad_sigma(self, grid64):
        with pytest.raises(ValueError):
            gevrey_multiplier(grid64, 1.0, 1.5)
