import warnings

import numpy as np
import pytest

from weakhyp.spectral import Grid, bracket
from weakhyp.symbols import (CoefficientField, PhaseMetric, SymbolB,
                             plateau_bump, smoothstep)


class TestSmoothstep:
    def test_plateau_values(self):
        assert smoothstep(-0.5) == 1.0
        assert smoothstep(1.5) == 0.0
        mid = smoothstep(np.linspace(0.05, 0.95, 19))
        assert np.all((0 < mid) & (mid < 1))
        assert np.all(np.diff(mid) < 0)

    def test_derivatives_match_finite_differences(self):
        s = np.linspace(0.05, 0.95, 31)
        h = 1e-6
        fd1 = (smoothstep(s + h) - smoothstep(s - h)) / (2 * h)
        assert np.abs(fd1 - smoothstep(s, 1)).max() < 1e-6 * (1 + np.abs(fd1).max())

    def test_bump_plateau_and_support(self):
        x = np.linspace(-1, 1, 401)
        chi = plateau_bump(x, 0.0, 0.3, 0.6)
        assert np.all(chi[np.abs(x) <= 0.3] == 1.0)
        assert np.all(chi[np.abs(x) >= 0.6] == 0.0)


class TestCoefficientField:
    def test_a_nonnegative_and_vanishing_at_corner(self, coeff):
        ts = np.linspace(0.0, coeff.T_outer, 33)
        xs = np.linspace(0.0, 1.0, 257)
        a = coeff.a(ts[:, None], xs[None, :])
        assert np.all(a >= 0.0)
        assert coeff.a(0.0, coeff.x0) == 0.0

    def test_e_in_half_two_on_plateau(self, coeff):
        ts = np.linspace(0.0, coeff.T, 17)
        xs = np.linspace(coeff.x0 - coeff.r, coeff.x0 + coeff.r, 65)
        e = coeff.e(ts[:, None], xs[None, :])
        assert np.all((0.5 <= e) & (e <= 2.0))

    def test_sup_a_memo_keyed_on_field_values_and_class(self, coeff,
                                                        frozen_zero_coeff):
        ts = np.linspace(0.0, coeff.T_outer, 64)
        xs = np.linspace(coeff.x0 - coeff.r_outer, coeff.x0 + coeff.r_outer,
                         2048)
        direct = float(np.max(coeff.a(ts[:, None], xs[None, :])))
        assert coeff.sup_a() == direct
        assert CoefficientField(T=0.06).sup_a() != direct
        # equal field values but a subclass with another a(t, x)
        assert frozen_zero_coeff.sup_a() == 0.0
        assert coeff.sup_a() == direct

    def test_e_vanishes_outside_support(self, coeff):
        assert coeff.e(coeff.T_outer + 0.01, coeff.x0) == 0.0
        assert coeff.e(0.0, coeff.x0 + coeff.r_outer + 0.01) == 0.0

    def test_derivatives_match_finite_differences(self, coeff):
        rng = np.random.default_rng(3)
        ts = rng.uniform(0.0, coeff.T_outer * 0.95, 40)
        xs = coeff.x0 + rng.uniform(-coeff.r_outer, coeff.r_outer, 40) * 0.95
        h = 1e-6
        fd_x = (coeff.a(ts, xs + h) - coeff.a(ts, xs - h)) / (2 * h)
        assert np.abs(fd_x - coeff.dx_a(ts, xs)).max() < 1e-5
        fd_t = (coeff.a(ts + h, xs) - coeff.a(ts - h, xs)) / (2 * h)
        assert np.abs(fd_t - coeff.dt_a(ts, xs)).max() < 1e-5

    def test_dt_a_nonnegative_before_plateau_time(self, coeff):
        ts = np.linspace(0.0, coeff.T, 9)
        xs = np.linspace(0.0, 1.0, 257)
        assert np.min(coeff.dt_a(ts[:, None], xs[None, :])) >= 0.0

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            CoefficientField(r=0.3, r_outer=0.2)

    @pytest.mark.parametrize("bad", [
        {"r": 0.0}, {"T": -1.0}, {"T_outer": 0.01},
        {"x0": True}, {"T": "0.05"}, {"r": float("nan")},
        {"T_outer": float("inf")}, {"r_outer": 1e308}, {"x0": -1e300}])
    def test_rejects_bad_fields(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            CoefficientField(**bad)


def _uncached(coeff, t, x):
    """a, dt_a and chi at (t, x) straight from `plateau_bump`."""
    width = coeff.T_outer - coeff.T
    s = (t - coeff.T) / width
    eta, eta1 = smoothstep(s), smoothstep(s, 1) / width
    chi = plateau_bump(x, coeff.x0, coeff.r, coeff.r_outer)
    q = t + (x - coeff.x0) ** 2
    return q * (eta * chi), chi * (eta + q * eta1), chi


class TestCoefficientCache:
    TIMES = (0.0, 0.03, 0.05, 0.07, 0.1, 0.5)

    @pytest.mark.parametrize("n", [64, 512])
    def test_lattice_values_equal_uncached_bump(self, coeff, n):
        grid = Grid(n)
        for _ in range(2):      # the second round reads the cache
            for t in self.TIMES:
                for x in (grid.x, grid.x_doubled):
                    a, dt_a, chi = _uncached(coeff, t, x)
                    assert np.array_equal(coeff.a(t, x), a)
                    assert np.array_equal(coeff.dt_a(t, x), dt_a)
                    assert np.array_equal(coeff.chi(x), chi)
                    assert np.array_equal(
                        coeff.chi(x, 1),
                        plateau_bump(x, coeff.x0, coeff.r, coeff.r_outer, 1))

    def test_scalar_eta_equals_array_eta(self, coeff):
        ts = np.linspace(-0.1, 0.2, 61)
        for order in (0, 1):
            for t, ref in zip(ts, coeff.eta(ts, order)):
                assert coeff.eta(t, order) == ref
                assert coeff.eta(float(t), order) == ref

    def test_cached_arrays_are_read_only(self, coeff, grid64):
        chi = coeff.chi(grid64.x)
        assert chi is coeff.chi(grid64.x)
        assert not chi.flags.writeable
        with pytest.raises(ValueError):
            chi[0] = 2.0

    def test_keyed_by_lattice_content(self, coeff, grid64):
        x = grid64.x.copy()
        before = coeff.chi(x)
        x += 0.25
        assert np.array_equal(coeff.chi(x),
                              plateau_bump(x, coeff.x0, coeff.r,
                                           coeff.r_outer))
        assert not np.array_equal(coeff.chi(x), before)

    def test_fields_never_share_an_entry(self, coeff, grid64):
        narrow = CoefficientField(r=0.06, T=0.02)
        for _ in range(2):
            for field in (coeff, narrow):
                for t in self.TIMES:
                    a, dt_a, chi = _uncached(field, t, grid64.x)
                    assert np.array_equal(field.chi(grid64.x), chi)
                    assert np.array_equal(field.a(t, grid64.x), a)
                    assert np.array_equal(field.dt_a(t, grid64.x), dt_a)
        assert not np.array_equal(coeff.chi(grid64.x), narrow.chi(grid64.x))

    def test_huge_times_are_flat_without_warnings(self, coeff, grid64):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for order in (0, 1):
                assert coeff.eta(1e308, order) == coeff.eta(1e10, order)
                assert coeff.eta(-1e308, order) == coeff.eta(-1e10, order)
                assert np.array_equal(coeff.eta(np.array([1e308, -1e308]),
                                                order),
                                      coeff.eta(np.array([1e10, -1e10]),
                                                order))
                assert smoothstep(1e300, order) == smoothstep(2.0, order)
            for x in (grid64.x, grid64.x_doubled):
                assert np.array_equal(coeff.a(1e308, x), coeff.a(1e10, x))
                assert np.array_equal(coeff.dt_a(1e308, x),
                                      coeff.dt_a(1e10, x))


class TestSymbolB:
    def test_b_at_corner_zero_frequency(self, sb_c1):
        assert sb_c1.b(0.0, sb_c1.coeff.x0, 0.0) == pytest.approx(1.0)

    def test_b_at_corner_is_bracket_power(self, sb_c1):
        xi = np.array([0.0, 1.0, 8.0, 64.0, -128.0])
        got = sb_c1.b(0.0, sb_c1.coeff.x0, xi)
        assert np.allclose(got, bracket(xi) ** (sb_c1.c / 2), rtol=1e-12)

    def test_lambda_at_corner(self, sb_c1):
        xi = np.array([1.0, 16.0, -256.0])
        got = sb_c1.lam(0.0, sb_c1.coeff.x0, xi)
        assert np.allclose(got, bracket(xi) ** (1 - sb_c1.c / 2), rtol=1e-12)

    def test_upper_and_lower_bounds_on_lattice(self, sb_c1):
        cf = sb_c1.coeff
        ts = np.linspace(0.0, cf.T, 9)[:, None, None]
        xs = np.linspace(cf.x0 - cf.r, cf.x0 + cf.r, 41)[None, :, None]
        xis = np.linspace(-128.0, 128.0, 129)[None, None, :]
        b = sb_c1.b(ts, xs, xis)
        assert np.all(b <= bracket(xis) ** (sb_c1.c / 2) * (1 + 1e-12))
        assert np.all(b >= sb_c1.lower_bound() - 1e-12)

    def test_consistency_b_anat_lambda(self, sb_c1):
        t, x, xi = 0.01, 0.52, 17.0
        anat = sb_c1.a_natural(t, x, xi)
        assert sb_c1.b(t, x, xi) == pytest.approx(anat ** -0.5, rel=1e-14)
        assert sb_c1.lam(t, x, xi) == pytest.approx(
            np.sqrt(anat) * bracket(xi), rel=1e-14)

    def test_dx_b_closed_form_vs_finite_difference(self, sb_c1):
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(50):
            t = rng.uniform(0.0, sb_c1.coeff.T)
            x = sb_c1.coeff.x0 + rng.uniform(-0.1, 0.1)
            xi = rng.uniform(-100, 100)
            fd = (sb_c1.b(t, x + h, xi) - sb_c1.b(t, x - h, xi)) / (2 * h)
            closed = sb_c1.dx_b(t, x, xi)
            assert fd == pytest.approx(closed, rel=1e-6, abs=1e-10)

    def test_c_out_of_range_rejected_unless_invalid_allowed(self, coeff):
        with pytest.raises(ValueError, match="uncertainty"):
            SymbolB(coeff, c=2.5)
        sb = SymbolB(coeff, c=2.5, allow_invalid=True)
        assert sb.c == 2.5
        with pytest.raises(ValueError):
            SymbolB(coeff, c=-1.0, allow_invalid=True)

    @pytest.mark.parametrize("c", [float("nan"), float("inf"),
                                   float("-inf")])
    @pytest.mark.parametrize("allow_invalid", [False, True])
    def test_non_finite_c_rejected(self, coeff, c, allow_invalid):
        with pytest.raises(ValueError, match="finite"):
            SymbolB(coeff, c=c, allow_invalid=allow_invalid)


class TestPhaseMetric:
    def test_positive_definite(self, sb_c1, rng):
        pm = PhaseMetric(sb_c1)
        for _ in range(100):
            X = (0.5 + rng.uniform(-0.1, 0.1), rng.uniform(-64, 64))
            Y = (rng.normal(), rng.normal())
            if Y == (0.0, 0.0):
                continue
            assert pm.g(0.0, X, Y) > 0.0
            assert pm.g_dual(0.0, X, Y) > 0.0

    def test_sup_ratio_is_one_at_identical_points(self, sb_c1):
        pm = PhaseMetric(sb_c1)
        X = (0.47, 12.0)
        assert pm.sup_ratio(0.0, X, X) == pytest.approx(1.0)

    def test_lambda_dips_below_one_for_invalid_c(self, coeff):
        sb = SymbolB(coeff, c=2.5, allow_invalid=True)
        lam = sb.lam(0.0, coeff.x0, 100.0)
        assert lam < 1.0

    def test_lambda_saturates_at_c_two(self, coeff):
        sb = SymbolB(coeff, c=2.0)
        xi = np.array([0.0, 3.0, 60.0, -128.0])
        lam = sb.lam(0.0, coeff.x0, xi)
        assert np.allclose(lam, 1.0, atol=1e-12)
