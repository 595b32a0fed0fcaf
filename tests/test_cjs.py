import math

import numpy as np
import pytest

from weakhyp import cjs
from weakhyp.cjs import (StepBudgetError, TimeCoefficient,
                         coefficient_constant, coefficient_linear,
                         coefficient_parabola, growth_exponent_fit,
                         max_energy_growth)

LADDER = [2.0**j for j in range(4, 11)]


def coefficient_cos():
    """A positive coefficient written with the scalar `math` functions."""
    return TimeCoefficient(fn=lambda t: 1.5 + 0.5 * math.cos(2 * math.pi * t),
                           k=1, name="cos")


COEFFICIENTS = [coefficient_linear, coefficient_parabola,
                coefficient_constant, coefficient_cos]


def reference_rk4(tc, xi, T, w, dw):
    """Scalar RK4 loop of the mode; (t, w, dw_dt) after every step."""
    dt = cjs._mode_dt(tc, xi, T)
    a, xi2, t = tc.fn, xi * xi, 0.0
    out = [(t, w, dw)]
    for _ in range(int(round(T / dt))):
        a1, a2, a4 = a(t), a(t + 0.5 * dt), a(t + dt)
        k1w, k1v = dw, -a1 * xi2 * w
        k2w, k2v = dw + 0.5 * dt * k1v, -a2 * xi2 * (w + 0.5 * dt * k1w)
        k3w, k3v = dw + 0.5 * dt * k2v, -a2 * xi2 * (w + 0.5 * dt * k2w)
        k4w, k4v = dw + dt * k3v, -a4 * xi2 * (w + dt * k3w)
        w = w + dt / 6.0 * (k1w + 2 * k2w + 2 * k3w + k4w)
        dw = dw + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        t += dt
        out.append((t, w, dw))
    return map(np.array, zip(*out))


def mode(tc, xi, T, initial=(1.0, 0.0), dt=None):
    """(t, w, dw_dt) of the mode from y(0) = initial, by its propagator."""
    t, _, Phi = cjs._propagator(tc, xi, T, dt=dt)
    y = Phi @ np.asarray(initial)
    return t, y[:, 0], y[:, 1]


def reference_growth(tc, xi, T, eps):
    """Largest squared singular value of the energy-coordinate matrix."""
    omega0 = math.sqrt(tc.fn(0.0) + eps) * abs(xi)
    cols = []
    for w0, dw0 in ((0.0, 1.0), (1.0 / omega0, 0.0)):
        t, w, dw = reference_rk4(tc, xi, T, w0, dw0)
        omega = np.array([math.sqrt(tc.fn(s) + eps) for s in t]) * abs(xi)
        cols.append(np.stack((dw, omega * w), axis=-1))
    top = np.linalg.svd(np.stack(cols, axis=-1), compute_uv=False)[:, 0]
    return float(np.max(top * top)), len(t) - 1


class TestPropagator:
    def test_free_particle_exact(self):
        tc = coefficient_constant(0.0)
        ts, ws, dws = mode(tc, xi=5.0, T=1.0, initial=(1.0, 0.5))
        exact = 1.0 + 0.5 * ts
        assert np.abs(ws - exact).max() < 1e-12

    def test_harmonic_oscillator_matches_cosine(self):
        tc = coefficient_constant(1.0)
        ts, ws, _ = mode(tc, xi=1.0, T=1.0, initial=(1.0, 0.0))
        assert abs(ws[-1] - math.cos(1.0)) < 1e-8

    def test_energy_conserved_for_constant_coefficient(self):
        # E_eps with matching eps: for a(t) = a0, the quantity
        # |w'|^2 + (a0 + eps) xi^2 |w|^2 with the SAME stiffness (a0+eps)
        # is conserved only if the ODE uses a0 + eps; instead check the
        # exact invariant |w'|^2 + a0 xi^2 |w|^2
        tc = coefficient_constant(2.0)
        ts, ws, dws = mode(tc, xi=4.0, T=1.0, initial=(1.0, 0.0))
        E = np.abs(dws) ** 2 + 2.0 * 16.0 * np.abs(ws) ** 2
        assert np.abs(E - E[0]).max() < 1e-8 * E[0]

    def test_airy_regime_halved_step_agreement(self):
        # trajectory finite at xi = 100, and Richardson-stable
        tc = coefficient_linear()
        from weakhyp.cjs import _mode_dt
        dt = _mode_dt(tc, 100.0, 1.0)
        _, w1, _ = mode(tc, xi=100.0, T=1.0, dt=dt)
        _, w2, _ = mode(tc, xi=100.0, T=1.0, dt=dt / 2)
        assert np.all(np.isfinite(w1))
        assert abs(w1[-1] - w2[-1]) < 1e-6 * abs(w2[-1])

    def test_step_budget_enforced(self):
        with pytest.raises(StepBudgetError):
            cjs._propagator(coefficient_constant(1.0), xi=1e7, T=10.0)

    @pytest.mark.parametrize("make", COEFFICIENTS)
    @pytest.mark.parametrize("xi", [1.0, 16.0, 100.0, 1024.0])
    def test_matches_scalar_reference(self, make, xi):
        tc = make()
        ts, ws, dws = mode(tc, xi, T=1.0, initial=(1.0, 0.5))
        t_ref, w_ref, dw_ref = reference_rk4(tc, xi, 1.0, 1.0, 0.5)
        assert np.array_equal(ts, t_ref)
        assert np.abs(ws - w_ref).max() <= 1e-12 * np.abs(w_ref).max()
        assert np.abs(dws - dw_ref).max() <= 1e-12 * np.abs(dw_ref).max()
        eps = xi ** (-2.0 / (tc.k + 2.0))
        ratio, steps = max_energy_growth(tc, xi, 1.0, eps)
        ratio_ref, steps_ref = reference_growth(tc, xi, 1.0, eps)
        assert steps == steps_ref
        assert abs(ratio - ratio_ref) <= 1e-12 * ratio_ref

    @pytest.mark.parametrize("make", [coefficient_parabola, coefficient_cos])
    def test_blocks_carry_the_running_product(self, make, monkeypatch):
        # 2237 and 3465 steps: many blocks of 7 and a partial last one
        _, _, whole = cjs._propagator(make(), 100.0, 1.0)
        monkeypatch.setattr(cjs, "BLOCK", 7)
        _, _, blocked = cjs._propagator(make(), 100.0, 1.0)
        assert np.abs(blocked - whole).max() <= 1e-13 * np.abs(whole).max()

    def test_integrator_order_on_harmonic_case(self):
        tc = coefficient_constant(1.0)
        errs = []
        for nsteps in (100, 200):
            _, ws, _ = mode(tc, xi=1.0, T=1.0, dt=1.0 / nsteps)
            errs.append(abs(ws[-1] - math.cos(1.0)))
        order = math.log2(errs[0] / errs[1])
        assert order >= 3.5


class TestGrowthFit:
    def test_strictly_hyperbolic_no_growth(self):
        fit = growth_exponent_fit(coefficient_constant(1.0), LADDER, T=1.0)
        assert fit["no_growth"] or fit["slope"] <= 0.05

    def test_linear_coefficient_within_budget(self):
        fit = growth_exponent_fit(coefficient_linear(), LADDER, T=1.0)
        assert not fit["no_growth"]
        assert fit["slope"] <= 2.0 / (1 + 2) + 0.05

    def test_parabola_within_budget(self):
        fit = growth_exponent_fit(coefficient_parabola(), LADDER, T=1.0)
        assert fit["slope"] <= 2.0 / (2 + 2) + 0.05

    def test_budget_checked_before_any_integration(self, monkeypatch):
        def fail(*args):
            raise AssertionError("integrated before the budget check")

        monkeypatch.setattr(cjs, "max_energy_growth", fail)
        with pytest.raises(StepBudgetError):
            growth_exponent_fit(coefficient_linear(), LADDER[:5] + [1e6],
                                T=1.0)

    def test_needs_six_frequencies(self):
        with pytest.raises(ValueError):
            growth_exponent_fit(coefficient_linear(), [16, 32], T=1.0)

    def test_energy_equivalence_bound_for_positive_a(self):
        # a bounded below: amplification is controlled by the
        # equivalence constant (sup a + eps) / a_min
        tc = TimeCoefficient(fn=lambda t: 1.5 + 0.5 * math.cos(2 * math.pi * t),
                             k=1, name="positive")
        a_min, a_sup = 1.0, 2.0
        eps = a_min
        ratio, _ = max_energy_growth(tc, xi=32.0, T=1.0, eps=eps)
        assert ratio <= (a_sup + eps) / a_min * 1.05
