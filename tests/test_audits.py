import functools
import json
import math

import numpy as np
import pytest

from weakhyp.audits import (derivative_bound_audit, faa_di_bruno_check,
                            glaeser_audit_a, metric_admissibility_audit,
                            weight_admissibility_audit, _b_lattice,
                            _compositions_count, _CENTRAL_STENCILS)
from weakhyp.spectral import bracket
from weakhyp.symbols import CoefficientField, SymbolB


def _audit_lattice(coeff, n_x, n_xi, xi_max=128.0):
    xs = np.linspace(coeff.x0 - coeff.r, coeff.x0 + coeff.r, n_x)
    xis = np.concatenate([-np.geomspace(1.0, xi_max, n_xi // 2), [0.0],
                          np.geomspace(1.0, xi_max, n_xi // 2)])
    return xs, xis


class _MemoisedCoefficient(CoefficientField):
    """The default coefficient with `a` memoised per scalar (t, x).

    `a` is a pure function, so the memo changes no value of the scalar
    `SymbolB.b`; it only spares the pointwise oracle most of its cost.
    """

    @functools.lru_cache(maxsize=None)
    def a(self, t, x):
        return super().a(t, x)


def reference_derivative_bound_audit(b_at, coeff, alpha, beta, n_x, n_xi):
    """The pointwise loop that the lattice audit replaced, as its oracle.

    `b_at(x, xi)` is the scalar `float(sb.b(t, x, xi))`, which may be
    memoised across orders; every power is a scalar power.
    """
    eps = np.finfo(float).eps
    xs, xis = _audit_lattice(coeff, n_x, n_xi)
    ox, wx = _CENTRAL_STENCILS[alpha]
    oxi, wxi = _CENTRAL_STENCILS[beta]
    worst = -1.0
    witness = (np.nan, np.nan)
    for x in xs:
        for xi in xis:
            bval = b_at(x, xi)
            hx = eps ** (1.0 / (alpha + 2)) * max(1.0 / bval, 1e-3) \
                if alpha else 1.0
            if alpha and abs(x - coeff.x0) + ox[-1] * hx > coeff.r_outer:
                raise ValueError(
                    f"x-stencil exits the sampled domain at x = {x}")
            hxi = eps ** (1.0 / (beta + 2)) * float(bracket(xi)) \
                if beta else 1.0
            total = 0.0
            for dx, cwx in zip(ox, wx):
                for dxi, cwxi in zip(oxi, wxi):
                    total += cwx * cwxi * b_at(x + dx * hx, xi + dxi * hxi)
            val = total / (hx**alpha * hxi**beta)
            denom = bval ** (1 + alpha) * float(bracket(xi)) ** (-beta)
            ratio = abs(val) / denom
            if ratio > worst:
                worst = ratio
                witness = (x, xi)
    return float(worst), witness


class TestGlaeserAudit:
    def test_matches_brute_force_oracle(self, coeff):
        # independent path: finite-difference slope on the same lattice
        ts = np.linspace(0.0, coeff.T, 24)
        xs = np.linspace(coeff.x0 - coeff.r, coeff.x0 + coeff.r, 257)
        h = 1e-7
        best = 0.0
        for t in ts:
            a = coeff.a(t, xs)
            da = (coeff.a(t, xs + h) - coeff.a(t, xs - h)) / (2 * h)
            mask = a >= 1e-14
            best = max(best, np.max(da[mask] ** 2 / a[mask]))
        rep = glaeser_audit_a(coeff)
        assert rep["constant"] == pytest.approx(best, rel=1e-5)

    def test_plateau_value_is_four(self, coeff):
        # on the plateau a = t + (x-x0)^2, so the ratio is 4q/(t+q) <= 4,
        # saturated at t = 0 on the plateau edge
        rep = glaeser_audit_a(coeff)
        assert rep["constant"] == pytest.approx(4.0, rel=1e-9)
        t_w, x_w = rep["witness"]
        assert t_w == 0.0
        assert abs(abs(x_w - coeff.x0) - coeff.r) < 1e-12

    def test_stable_under_grid_refinement(self, coeff):
        c1 = glaeser_audit_a(coeff, n_t=24, n_x=257)["constant"]
        c2 = glaeser_audit_a(coeff, n_t=48, n_x=513)["constant"]
        assert abs(c2 - c1) <= 0.1 * c1

    def test_vanishing_a_with_a_slope_fails_its_record(self):
        # at r = 1e-5 the plateau edge has a = 6.1e-15 below the 0/0
        # floor while (d_x a)^2 = 2.4e-14 is above it
        rep = glaeser_audit_a(CoefficientField(r=1e-5, r_outer=0.2))
        assert rep["pass"] is False
        assert rep["constant"] == math.inf
        assert rep["witness"] == [0.0, 0.499999921875]

    def test_symmetry_point_has_zero_ratio(self, coeff):
        # at x = x0 the slope vanishes while a = t > 0
        assert coeff.dx_a(0.1 * coeff.T, coeff.x0) == pytest.approx(0.0, abs=1e-15)


class TestDerivativeBoundAudit:
    def test_order_zero_ratio_is_one(self, sb_c1):
        rep = derivative_bound_audit(sb_c1, 0, 0, n_x=11, n_xi=11)
        assert rep["constant"] == pytest.approx(1.0, rel=1e-12)

    def test_xi_derivative_bounded_by_half_c_plus_one(self, sb_c1):
        # closed form at the corner: |d_xi b| = (c/2) b <xi>^(-1) * |xi|<xi>^(-c-1) * <xi>^c
        rep = derivative_bound_audit(sb_c1, 0, 1, n_x=21, n_xi=21)
        assert rep["constant"] <= sb_c1.c / 2 + 1.0

    def test_x_derivative_matches_analytic_oracle(self, sb_c1):
        # oracle: exact d_x b = -1/2 d_x a b^3, same lattice, same ratio
        coeff = sb_c1.coeff
        xs = np.linspace(coeff.x0 - coeff.r, coeff.x0 + coeff.r, 21)
        xis = np.concatenate([
            -np.geomspace(1.0, 128.0, 10), [0.0], np.geomspace(1.0, 128.0, 10)])
        b = sb_c1.b(0.0, xs[:, None], xis[None, :])
        oracle = np.max(np.abs(sb_c1.dx_b(0.0, xs[:, None], xis[None, :])) / b**2)
        rep = derivative_bound_audit(sb_c1, 1, 0, n_x=21, n_xi=21)
        assert rep["constant"] == pytest.approx(oracle, rel=1e-5)

    def test_constants_stable_under_sample_refinement(self, sb_c1):
        for alpha, beta in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2)):
            c1 = derivative_bound_audit(sb_c1, alpha, beta, n_x=21,
                                        n_xi=21)["constant"]
            c2 = derivative_bound_audit(sb_c1, alpha, beta, n_x=41,
                                        n_xi=41)["constant"]
            assert abs(c2 - c1) <= 0.1 * c1

    def test_rejects_high_orders(self, sb_c1):
        with pytest.raises(ValueError):
            derivative_bound_audit(sb_c1, 3, 2)

    @pytest.mark.parametrize("t", [0.0, 0.013, 0.04])
    def test_lattice_audit_equals_pointwise_loop(self, t):
        # the one-ulp rounding of each power is amplified by about
        # eps^(-5/6), so anything but the scalar rounding shows here
        coeff = _MemoisedCoefficient()
        for c in (1.0, 0.5):
            sb = SymbolB(coeff, c=c)
            b_at = functools.lru_cache(maxsize=None)(
                lambda x, xi: float(sb.b(t, x, xi)))
            for n in (11, 21):
                for alpha, beta in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1),
                                    (0, 2), (2, 1), (1, 2), (3, 0), (0, 3)):
                    constant, witness = reference_derivative_bound_audit(
                        b_at, coeff, alpha, beta, n, n)
                    rep = derivative_bound_audit(
                        SymbolB(CoefficientField(), c=c), alpha, beta, t=t,
                        n_x=n, n_xi=n)
                    assert rep["constant"] == constant, (c, n, alpha, beta)
                    assert tuple(rep["witness"]) == witness, (
                        c, n, alpha, beta)

    def test_lattice_b_equals_scalar_b(self, sb_half):
        # the default lattice and its shifted x- and xi-stencil points
        t = 0.013
        xs, xis = _audit_lattice(sb_half.coeff, 41, 41)
        x, xi = xs[:, None], xis[None, :]
        b = _b_lattice(sb_half, t, x, xi)
        hx = 1e-5 / b
        hxi = 6e-6 * bracket(xi)
        for px, pxi in ((x, xi), (x - 2 * hx, xi + hxi),
                        (x + hx, xi - 2 * hxi)):
            px, pxi = np.broadcast_arrays(px, pxi)
            lattice = _b_lattice(sb_half, t, px, pxi)
            scalar = [float(sb_half.b(t, u, v))
                      for u, v in zip(px.ravel(), pxi.ravel())]
            assert lattice.ravel().tolist() == scalar

    def test_stencil_leaving_the_outer_ball_fails_its_record(self):
        # a support radius 1e-7 beyond the plateau: the first x-stencil
        # in x-major order, at the left plateau edge, leaves it
        sb = SymbolB(CoefficientField(r=0.12, r_outer=0.12 + 1e-7))
        xs, _ = _audit_lattice(sb.coeff, 41, 41)
        rep = derivative_bound_audit(sb, 1, 0)
        assert rep["pass"] is False
        assert math.isnan(rep["constant"])
        assert rep["witness"][0] == xs[0]
        assert math.isnan(rep["witness"][1])


def test_every_record_is_plain_json(sb_c1):
    # no numpy scalar reaches a record, so json needs no default=
    records = [glaeser_audit_a(sb_c1.coeff),
               derivative_bound_audit(sb_c1, 1, 1, n_x=11, n_xi=11),
               faa_di_bruno_check(),
               *metric_admissibility_audit(sb_c1, n_pairs=200).values(),
               weight_admissibility_audit(sb_c1, n_pairs=200)]
    for record in records:
        json.dumps(record)
        assert type(record["pass"]) is bool
        assert all(type(w) is float for w in record["witness"])


class TestFaaDiBruno:
    def test_composition_count_small_case(self):
        # compositions of 3 into 2 positive parts: (1,2), (2,1)
        assert _compositions_count(3, 2) == 2
        assert _compositions_count(3, 2) == math.comb(2, 1)

    def test_sqrt_coefficients(self):
        from fractions import Fraction
        c1 = Fraction(-1, 2)
        c2 = c1 * (Fraction(-1, 2) - 1)
        assert c1 == Fraction(-1, 2)
        assert c2 == Fraction(3, 4)
        assert c2 == Fraction(-1, 4) ** 2 * Fraction(math.factorial(4),
                                                     math.factorial(2))

    def test_full_check_passes(self):
        assert faa_di_bruno_check()["pass"]


class TestMetricAdmissibility:
    def test_report_finite_and_uncertainty_holds(self, sb_c1):
        rep = metric_admissibility_audit(sb_c1, n_pairs=4000)
        assert rep["slow_variation"]["pass"]
        assert rep["slow_variation"]["constant"] >= 1.0
        assert rep["uncertainty"]["pass"]
        assert rep["uncertainty"]["constant"] >= 1.0 - 1e-9
        assert rep["temperance"]["pass"]
        assert rep["temperance"]["N"] >= 1

    def test_uncertainty_saturated_at_c_two(self, coeff):
        rep = metric_admissibility_audit(SymbolB(coeff, c=2.0), n_pairs=1000)
        assert rep["uncertainty"]["constant"] == pytest.approx(1.0, abs=1e-9)

    def test_invalid_c_flagged(self, coeff):
        sb = SymbolB(coeff, c=2.5, allow_invalid=True)
        rep = metric_admissibility_audit(sb, n_pairs=1000)
        assert rep["uncertainty"]["constant"] < 1.0
        assert rep["uncertainty"]["pass"]  # the audit correctly detects it

    def test_weight_ratio_doubling_bound(self, sb_c1):
        # at the corner b is the pure bracket power, so doubling xi costs
        # at most 2^(c/2) with margin
        for xi in (4.0, 16.0, 64.0):
            r = sb_c1.b(0.0, 0.5, 2 * xi) / sb_c1.b(0.0, 0.5, xi)
            assert r <= 2.0 ** (sb_c1.c / 2) * 1.01

    def test_weight_admissibility_fit(self, sb_c1):
        rep = weight_admissibility_audit(sb_c1, n_pairs=10_000)
        assert rep["pass"]
        assert rep["constant"] < np.inf
        assert rep["N"] >= 1
