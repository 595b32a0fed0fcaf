import importlib

import numpy as np
import pytest

from weakhyp.energy import (Symmetrizer, conjugated_matrix,
                            dt_energy_breakdown, energy,
                            garding_sign_probe, subprincipal_refinement,
                            weight_values)
from weakhyp.quantize import (SymbolField, apply, hermiticity_defect,
                              quantize, sample_symbol)
from weakhyp.solver import (RunConfig, rhs_parts, verify_breakdown_identity,
                            wave_packet)
from weakhyp.spectral import Grid, bracket
from weakhyp.symbols import SymbolB

# the package re-exports the function `energy` under the module's name
energy_module = importlib.import_module("weakhyp.energy")


@pytest.fixture(scope="module")
def sym128(sb_c1, grid128):
    return Symmetrizer(grid128, sb_c1, 0.0)


def _random_state(grid, rng):
    u1 = wave_packet(grid, grid.x0, rng.uniform(5, 30))
    u2 = wave_packet(grid, grid.x0, rng.uniform(5, 30))
    return np.stack((rng.normal() * u1, rng.normal() * u2))


class TestSymmetrizer:
    def test_hermitian(self, sym128):
        assert hermiticity_defect(sym128.b_matrix) <= 1e-10

    def test_positive_definite(self, sym128):
        B = sym128.b_matrix
        assert np.linalg.eigvalsh(0.5 * (B + B.conj().T))[0] > 0.0

    def test_symbol_level_symmetrization(self, sb_c1, grid128):
        # S^2 A_nat has unit off-diagonal product: b^2 * a_nat = 1
        x = grid128.x_doubled[:, None]
        xi = grid128.xi[None, :]
        prod = sb_c1.b(0.0, x, xi) ** 2 * sb_c1.a_natural(0.0, x, xi)
        assert np.abs(prod - 1.0).max() < 1e-12


    @pytest.mark.parametrize("t", [0.0, 0.025, 0.07])
    def test_dt_b_matrix_reuses_b_samples_exactly(self, sb_c1, grid128, t):
        x = grid128.x_doubled[:, None]
        xi = grid128.xi[None, :]
        direct = quantize(SymbolField(grid128, sb_c1.dt_b(t, x, xi)))
        sym = Symmetrizer(grid128, sb_c1, t)
        assert np.array_equal(sym.dt_b_matrix(), direct)


    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("t", [0.0, 0.025, 0.07, 0.1])
    def test_distinct_rows_match_full_lattice(self, coeff, n, t):
        # 0.07 lies in (T, T_outer), where eta and dt_a vary in time
        grid = Grid(n, 1.0, 0.5)
        x = grid.x_doubled[:, None]
        for c in (1.0, 0.5):
            sb = SymbolB(coeff, c=c)
            sym = Symmetrizer(grid, sb, t)
            full_b = sample_symbol(grid, lambda x, xi: sb.b(t, x, xi))
            assert np.array_equal(sym.b_matrix, quantize(full_b))
            dt_b = -0.5 * coeff.dt_a(t, x) * full_b.samples.real ** 3
            assert np.array_equal(sym.dt_b_matrix(),
                                  quantize(SymbolField(grid, dt_b)))

    def test_kernels_are_real(self, sb_c1, grid128, rng, monkeypatch):
        dtypes = []

        def recording(p):
            K = quantize(p)
            dtypes.append(K.dtype)
            return K

        monkeypatch.setattr(energy_module, "quantize", recording)
        sym = Symmetrizer(grid128, sb_c1, 0.07)
        sym.dt_b_matrix()
        garding_sign_probe(_random_state(grid128, rng), sym, 0.2, 0.5)
        # op(b), op(dt b) and op(sqrt(dt a) b)
        assert dtypes == [np.float64] * 3
        assert sym.b_matrix.dtype == np.float64

    def test_samples_one_row_per_distinct_coefficient_pair(self, coeff,
                                                           grid128):
        x = grid128.x_doubled
        for t in (0.0, 0.07):
            # by bits: a signed zero of dt_a is a row of its own
            pairs = {(a.hex(), d.hex())
                     for a, d in zip(coeff.a(t, x), coeff.dt_a(t, x))}
            sb = SymbolB(coeff)
            sym = Symmetrizer(grid128, sb, t)
            # b is stored as its half spectrum, the columns xi >= 0
            assert sym._b.shape == (len(pairs), grid128.n // 2 + 1)
            assert len(pairs) < grid128.n
            full = sample_symbol(grid128, lambda x, xi: sb.b(t, x, xi))
            assert np.array_equal(sym._b[sym._rows],
                                  full.samples.real[:, :grid128.n // 2 + 1])
            assert np.array_equal(sym.b_matrix, quantize(full))


class TestEnergy:
    def test_zero_state(self, sym128, grid128):
        st = np.zeros((2, grid128.n), dtype=complex)
        assert energy(st, sym128, 0.5, 0.5) == 0.0

    def test_tau_zero_first_component_only(self, sym128, grid128, rng):
        u1 = rng.normal(size=grid128.n) + 1j * rng.normal(size=grid128.n)
        st = np.stack((u1, np.zeros(grid128.n)))
        assert energy(st, sym128, 0.0, 0.5) == pytest.approx(
            0.5 * grid128.norm2(u1), rel=1e-12)

    def test_single_mode_with_frozen_coefficient(self, frozen_zero_coeff,
                                                 grid128):
        # with a == 0, op(b) is the multiplier <xi>^(c/2): a single mode
        # of amplitude A has energy (1/2) A^2 <xi*>^c * L
        sb = SymbolB(frozen_zero_coeff, c=1.0)
        sym = Symmetrizer(grid128, sb, 0.0)
        k = 9
        xi_star = grid128.xi[k]
        A = 0.7
        u2 = A * np.exp(2j * np.pi * xi_star * grid128.x)
        st = np.stack((np.zeros(grid128.n), u2))
        expected = 0.5 * A**2 * bracket(xi_star) ** sb.c * grid128.length
        assert energy(st, sym, 0.0, 0.5) == pytest.approx(expected, rel=1e-10)

    def test_positivity_on_random_states(self, sym128, grid128, rng):
        for _ in range(20):
            st = _random_state(grid128, rng)
            assert energy(st, sym128, 0.3, 0.5) > 0.0


def _e1(st, sym, tau, sigma):
    """E1 of the budget and its square-norm form
    ||D^(sigma/2) v1||^2 + ||D^(sigma/2) op(b) v2||^2."""
    zero = np.zeros_like(st)
    value = dt_energy_breakdown(st, zero, zero, sym, tau, sigma)[1]
    grid = sym.grid
    v = weight_values(grid, st, tau, sigma)
    half = grid.multiply(np.stack((v[0], sym.b_matrix @ v[1])),
                         bracket(grid.xi) ** (sigma / 2.0))
    return value, grid.norm2(half[0]) + grid.norm2(half[1])


class TestE1:
    def test_zero_state(self, sym128, grid128):
        st = np.zeros((2, grid128.n), dtype=complex)
        v, eq = _e1(st, sym128, 0.2, 0.5)
        assert v == 0.0 and eq == 0.0

    def test_single_mode_first_component(self, sym128, grid128):
        sigma = 0.5
        k = 12
        u1 = np.exp(2j * np.pi * grid128.xi[k] * grid128.x)
        st = np.stack((u1, np.zeros(grid128.n)))
        v, eq = _e1(st, sym128, 0.0, sigma)
        expected = bracket(grid128.xi[k]) ** sigma * grid128.norm2(u1)
        assert v == pytest.approx(expected, rel=1e-10)
        assert eq == pytest.approx(expected, rel=1e-10)

    def test_equivalence_constant_over_random_states(self, sym128, grid128,
                                                     rng):
        ratios = []
        for _ in range(100):
            st = _random_state(grid128, rng)
            v, eq = _e1(st, sym128, 0.3, 0.5)
            ratios.append(v / eq)
        kappa = max(max(ratios), 1.0 / min(ratios))
        assert 0 < min(ratios)
        assert kappa < 3.0

    def test_equivalence_stable_under_refinement(self, sb_c1, rng):
        kappas = []
        for n in (128, 256):
            g = Grid(n, 1.0, 0.5)
            sym = Symmetrizer(g, sb_c1, 0.0)
            ratios = []
            r = np.random.default_rng(1)
            for _ in range(40):
                st = _random_state(g, r)
                v, eq = _e1(st, sym, 0.3, 0.5)
                ratios.append(v / eq)
            kappas.append(max(max(ratios), 1.0 / min(ratios)))
        assert abs(kappas[1] - kappas[0]) <= 0.2 * kappas[0]


class TestConjugatedMatrix:
    def test_identity_profile(self, grid64):
        for tau in (0.0, 0.4, 1.0):
            M = conjugated_matrix(grid64, np.ones(grid64.n), tau, 0.5)
            assert np.abs(M - np.eye(grid64.n)).max() < 1e-12

    def test_overflow_propagates(self, coeff):
        from weakhyp.spectral import GevreyOverflowError
        g = Grid(1024, 1.0, 0.5)
        huge_tau = 800.0 / (1.0 + 512.0**2) ** 0.25 + 1.0
        with pytest.raises(GevreyOverflowError):
            conjugated_matrix(g, np.ones(g.n), huge_tau, 0.5)

    def test_tau_zero_is_multiplication(self, grid64, coeff):
        a_vals = coeff.a(0.02, grid64.x).astype(complex)
        M = conjugated_matrix(grid64, a_vals, 0.0, 0.5)
        assert np.abs(M - np.diag(a_vals)).max() < 1e-13

    def test_subprincipal_refinement_ratio_decreases(self, sb_c1):
        res = subprincipal_refinement(sb_c1, tau=0.3, sigma=0.5,
                                      ns=(128, 256, 512))
        ratios = [r[3] for r in res]
        n0s = [r[1] for r in res]
        n1s = [r[2] for r in res]
        assert ratios[0] > ratios[1] > ratios[2]
        assert n0s[0] > n0s[1] > n0s[2]
        assert n1s[0] > n1s[1] > n1s[2]


class TestBreakdown:
    def test_zero_state_all_zero(self, grid128, coeff):
        cfg = RunConfig(n=128, sigma=0.5, coeff=coeff)
        sb = cfg.symbol_b()
        sym = Symmetrizer(grid128, sb, 0.0)
        st = np.zeros((2, grid128.n), dtype=complex)
        bd = dt_energy_breakdown(st, *rhs_parts(cfg, 0.0, st), sym, cfg.tau0,
                                 cfg.sigma)
        assert bd.dtype == np.float64 and bd.shape == (5,)
        assert np.all(bd == 0.0)

    def test_linear_run_has_zero_e4(self, grid128, coeff, rng):
        cfg = RunConfig(n=128, sigma=0.5, coeff=coeff, nonlinear=False)
        sym = Symmetrizer(grid128, cfg.symbol_b(), 0.0)
        st = _random_state(grid128, rng)
        E, E1, E2, E3, E4 = dt_energy_breakdown(
            st, *rhs_parts(cfg, 0.0, st), sym, cfg.tau0, cfg.sigma)
        assert E4 == 0.0
        assert E1 > 0.0

    def test_identity_against_flow_difference(self, coeff, rng):
        cfg = RunConfig(n=128, sigma=0.5, coeff=coeff, taudot=3.0)
        st = cfg.initial_state()
        res = verify_breakdown_identity(cfg, 0.0, st)
        assert res["residual"] <= 1e-3 * res["magnitude"]

    def test_ratios_finite_on_plateau_config(self, coeff):
        cfg = RunConfig(n=256, sigma=0.5, coeff=coeff)
        grid = cfg.grid
        sym = Symmetrizer(grid, cfg.symbol_b(), 0.0)
        st = cfg.initial_state()
        E, E1, E2, E3, E4 = dt_energy_breakdown(
            st, *rhs_parts(cfg, 0.0, st), sym, cfg.tau0, cfg.sigma)
        assert E1 > 0.0
        for r in np.abs((E2, E3, E4)) / E1:
            assert np.isfinite(r)


class TestDomination:
    def test_ratio_sum_uniform_over_sizes_and_frequencies(self, coeff):
        # measured once over the full sweep: the budget ratio stays in
        # [2.8, 4.0]; assert a frozen cap and bounded spread
        from weakhyp.solver import run_with_energy
        vals = []
        for n, xi_c in ((64, 4.0), (64, 12.0), (256, 4.0), (256, 40.0),
                        (512, 40.0)):
            cfg = RunConfig(n=n, sigma=0.5, tau0=1.0, coeff=coeff,
                            taudot=0.0, sample_stride=8, packet_xi=xi_c,
                            nonlinear=False)
            vals.append(run_with_energy(cfg).max_ratio_sum())
        assert max(vals) <= 6.0
        assert max(vals) <= 2.0 * min(vals)


class TestGardingProbe:
    def test_zero_v2(self, sym128, grid128, rng):
        u1 = rng.normal(size=grid128.n)
        st = np.stack((u1, np.zeros(grid128.n)))
        assert garding_sign_probe(st, sym128, 0.3, 0.5) == 0.0

    def test_nonnegative_on_random_states(self, sym128, grid128, rng):
        for _ in range(30):
            st = _random_state(grid128, rng)
            val = garding_sign_probe(st, sym128, 0.2, 0.5)
            assert val >= -1e-10 * grid128.norm2(st[1])

    def test_positive_time_also_nonnegative(self, sb_c1, grid128, rng):
        sym = Symmetrizer(grid128, sb_c1, 0.025)
        st = _random_state(grid128, rng)
        val = garding_sign_probe(st, sym, 0.2, 0.5)
        assert val >= -1e-10 * grid128.norm2(st[1])

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("t", [0.0, 0.01, 0.025, 0.07])
    def test_distinct_rows_match_full_lattice(self, coeff, rng, n, t):
        grid = Grid(n, 1.0, 0.5)
        x = grid.x_doubled[:, None]
        st = _random_state(grid, rng)
        for c in (1.0, 0.5):
            sb = SymbolB(coeff, c=c)
            sym = Symmetrizer(grid, sb, t)
            g = np.sqrt(np.maximum(coeff.dt_a(t, x), 0.0)) * sb.b(t, x, grid.xi)
            G = quantize(SymbolField(grid, g))
            w = apply(sym.b_matrix, weight_values(grid, st[1], 0.2, 0.5))
            reference = float(np.real(grid.inner(apply(G, apply(G, w)), w)))
            assert np.array_equal(garding_sign_probe(st, sym, 0.2, 0.5),
                                  reference)
