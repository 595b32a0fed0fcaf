import importlib
import io
import math
from dataclasses import replace

import numpy as np
import pytest

from weakhyp.energy import Symmetrizer
from weakhyp.solver import (CFLError, NonlinearityF, RunConfig,
                            SolverBlowupError, integrate,
                            measure_tau_threshold, observe, rhs, rhs_parts,
                            run_with_energy, step_rk4, wave_packet)
from weakhyp.spectral import SQUARE_CAP, SQUARE_FLOOR
from weakhyp.symbols import CoefficientField

solver_module = importlib.import_module("weakhyp.solver")


@pytest.fixture()
def free_cfg(coeff):
    """F == 0, and a == 0 from t = T_outer on: there the system is the
    nilpotent constant-coefficient one."""
    return RunConfig(n=64, sigma=0.5, tau0=0.5, coeff=coeff,
                     nonlinearity=NonlinearityF.zero(), length=1.0)


class TestRhs:
    def test_zero_state(self, coeff):
        cfg = RunConfig(n=64, coeff=coeff)
        d1, d2 = rhs(cfg, 0.0, np.zeros((2, cfg.n), dtype=complex))
        assert np.all(d1 == 0) and np.all(d2 == 0)

    def test_nilpotent_structure(self, free_cfg):
        g = free_cfg.grid
        k = 5
        u2 = np.exp(2j * np.pi * g.xi[k] * g.x)
        d1, d2 = rhs(free_cfg, free_cfg.coeff.T_outer,
                     np.stack((np.zeros(g.n), u2)))
        assert np.abs(d1 - 2j * np.pi * g.xi[k] * u2).max() < 1e-12
        assert np.abs(d2).max() == 0.0

    def test_blowup_detection(self, coeff):
        bad = NonlinearityF(lambda t, x: np.full_like(x, np.nan))
        cfg = RunConfig(n=64, coeff=coeff, nonlinearity=bad)
        with pytest.raises(SolverBlowupError):
            rhs(cfg, 0.0, np.ones((2, cfg.n), dtype=complex))

    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_rhs_is_the_sum_of_its_parts(self, coeff, nonlinear):
        kwargs = {} if nonlinear else {"nonlinearity": NonlinearityF.zero()}
        cfg = RunConfig(n=64, coeff=coeff, packet_xi=8.0, **kwargs)
        u = cfg.initial_state()
        u[0] = 0.3 * u[1] + np.roll(u[1], 5)
        transport, source = rhs_parts(cfg, 0.02, u)
        assert np.array_equal(rhs(cfg, 0.02, u), transport + source)
        assert np.any(source != 0) == nonlinear


class TestStepRK4:
    def test_zero_stays_zero(self, coeff):
        cfg = RunConfig(n=64, coeff=coeff)
        out = step_rk4(cfg, 0.0, np.zeros((2, cfg.n), dtype=complex),
                       cfg.max_dt())
        assert np.all(out == 0)

    def test_cfl_violation_names_required_dt(self, coeff):
        cfg = RunConfig(n=64, coeff=coeff)
        with pytest.raises(CFLError, match="required dt"):
            step_rk4(cfg, 0.0, np.zeros((2, cfg.n), dtype=complex),
                     10.0 * cfg.max_dt())

    def test_nilpotent_case_exact_over_100_steps(self, free_cfg):
        g = free_cfg.grid
        k = 3
        u2 = np.exp(2j * np.pi * g.xi[k] * g.x)
        t0 = free_cfg.coeff.T_outer
        u, t = np.stack((np.zeros(g.n), u2)), t0
        dt = free_cfg.max_dt()
        for _ in range(100):
            u, t = step_rk4(free_cfg, t, u, dt), t + dt
        exact = (t - t0) * 2j * np.pi * g.xi[k] * u2
        assert np.abs(u[0] - exact).max() < 1e-10
        assert np.abs(u[1] - u2).max() < 1e-10

    def test_fourth_order_convergence(self, coeff):
        cfg = RunConfig(n=64, coeff=coeff, nonlinearity=NonlinearityF.zero(),
                        packet_xi=6.0, packet_width=0.03)
        u0 = cfg.initial_state()
        t_end = 16 * cfg.max_dt()

        def integrate(dt):
            steps = int(round(t_end / dt))
            u, t = u0, 0.0
            for _ in range(steps):
                u, t = step_rk4(cfg, t, u, dt), t + dt
            return u.ravel()

        dt = cfg.max_dt()
        u_a, u_b, u_c = integrate(dt), integrate(dt / 2), integrate(dt / 4)
        err_ab = np.linalg.norm(u_a - u_c)
        err_bc = np.linalg.norm(u_b - u_c)
        order = np.log2(err_ab / err_bc) - 0.0
        # Richardson: err(dt)/err(dt/2) ~ 2^4 with the dt/4 run as reference
        assert order >= 3.5


class TestWavePacket:
    def test_unit_energy_normalization_possible(self, coeff):
        cfg = RunConfig(n=128, coeff=coeff)
        g = cfg.grid
        p = wave_packet(g, g.x0, 20.0, 0.02)
        assert np.isfinite(p).all()
        assert g.norm2(p) > 0

    def test_spectral_truncation(self, grid128):
        p = wave_packet(grid128, 0.5, 20.0, 0.02)
        ph = np.fft.fft(p, norm="ortho")
        spec_width = 1.0 / (2 * np.pi * 0.02)
        outside = np.abs(grid128.xi - 20.0) > 5.0 * spec_width
        assert np.abs(ph[outside]).max() < 1e-14 * np.abs(ph).max()

    def test_support_localized(self, coeff):
        cfg = RunConfig(n=256, coeff=coeff, packet_xi=24.0)
        g = cfg.grid
        p = wave_packet(g, g.x0, 24.0, 0.02)
        outside = np.abs(g.x - g.x0) > coeff.r_outer
        frac = g.norm2(p * outside) / g.norm2(p)
        assert frac < 1e-8


class TestRunConfig:
    def test_c_defaults_to_coupling(self, coeff):
        for sigma in (0.5, 0.6, 0.75):
            cfg = RunConfig(sigma=sigma, coeff=coeff)
            assert cfg.c == pytest.approx(2 * (1 - sigma))

    def test_rejects_c_above_two(self, coeff):
        with pytest.raises(ValueError, match="uncertainty"):
            RunConfig(c=3.0, coeff=coeff)

    @pytest.mark.parametrize("tau0", [2.0, 5.0])
    def test_rejects_tau0_above_radius(self, coeff, tau0):
        with pytest.raises(ValueError, match="Gevrey radius 2.0"):
            RunConfig(tau0=tau0, coeff=coeff)

    def test_rejects_wide_support(self):
        cf = CoefficientField(r=0.2, r_outer=0.3)
        with pytest.raises(ValueError, match="support"):
            RunConfig(coeff=cf, length=1.0)

    @pytest.mark.parametrize("bad", [
        {"n": 100}, {"n": 64.0}, {"n": True}, {"sigma": "0.5"},
        {"tau0": float("nan")}, {"c": "1"},
        {"packet_component": 7}, {"packet_component": 1.0},
        {"packet_component": True}, {"sample_stride": 0},
        {"sample_stride": 2.0}, {"sample_stride": True},
        {"length": "1"}, {"length": True}, {"length": 0.0},
        {"packet_xi": "x"}, {"packet_xi": float("inf")},
        {"packet_width": "x"}, {"packet_width": -0.02},
        {"packet_width": 0.0}, {"horizon": "x"}, {"horizon": -1.0},
        {"horizon": float("nan")}, {"taudot": float("nan")},
        {"taudot": float("inf")}, {"taudot": "1"}])
    def test_rejects_mistyped_values(self, coeff, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            RunConfig(coeff=coeff, **bad)

    @pytest.mark.parametrize("name", ["length", "packet_width"])
    def test_square_cap_bounds_length_and_width(self, coeff, name):
        RunConfig(coeff=coeff, **{name: SQUARE_CAP})
        with pytest.raises(ValueError, match="square overflows"):
            RunConfig(coeff=coeff,
                      **{name: math.nextafter(SQUARE_CAP, math.inf)})

    def test_rejects_packet_width_whose_square_underflows(self, coeff):
        RunConfig(coeff=coeff, packet_width=SQUARE_FLOOR)
        for width in (math.nextafter(SQUARE_FLOOR, 0.0), 1e-200, 5e-324):
            with pytest.raises(ValueError, match="square underflows"):
                RunConfig(coeff=coeff, packet_width=width)

    @pytest.mark.parametrize("packet", [
        {"n": 32, "packet_xi": 100.0}, {"n": 32, "packet_xi": 1e308},
        {"n": 64, "packet_xi": 24.5, "packet_width": 10.0}])
    def test_rejects_packet_the_grid_cannot_hold(self, coeff, packet):
        with pytest.raises(ValueError, match="keeps no frequency"):
            RunConfig(coeff=coeff, **packet)

    def test_accepts_a_packet_at_the_window_edge(self, coeff):
        # xi = 16, 4.99 of the 5 kept spectral widths away, is kept alone
        cfg = RunConfig(n=64, coeff=coeff, packet_width=10.0,
                        packet_xi=16.0 + 4.99 / (2.0 * np.pi * 10.0))
        assert np.any(cfg.initial_state()[1] != 0)

    def test_rejects_bump_center_outside_domain(self):
        with pytest.raises(ValueError, match="x0 = 1.5"):
            RunConfig(coeff=CoefficientField(x0=1.5))

    def test_zero_horizon_accepted(self, coeff):
        assert RunConfig(coeff=coeff, horizon=0.0).t_end() == 0.0

    def test_horizon_capped_by_tau(self, coeff):
        cfg = RunConfig(coeff=coeff, tau0=1.0, taudot=40.0)
        assert cfg.t_end() == pytest.approx(1.0 / 40.0)
        cfg = RunConfig(coeff=coeff, tau0=1.0, taudot=2.0)
        assert cfg.t_end() == pytest.approx(coeff.T)


class TestRunWithEnergy:
    def test_zero_initial_data_reports_zero_ratio(self, coeff):
        # x0 = 0.3 is no grid point, so every sample of a packet this
        # narrow underflows to 0 and the initial energy is 0
        cfg = RunConfig(n=64, coeff=replace(coeff, x0=0.3),
                        packet_width=1e-5, sample_stride=8)
        assert not np.any(cfg.initial_state())
        trace = run_with_energy(cfg)
        assert trace.initial_energy == 0.0
        assert trace.max_ratio() == 0.0

    def test_linear_run_has_zero_e4(self, coeff):
        cfg = RunConfig(n=64, coeff=coeff, sample_stride=8, taudot=1.0,
                        nonlinearity=NonlinearityF.zero())
        trace = run_with_energy(cfg)
        assert not trace.aborted and len(trace.breakdowns) > 1
        assert all(b.E4 == 0.0 for b in trace.breakdowns)

    def test_support_control_along_run(self, coeff):
        cfg = RunConfig(n=256, coeff=coeff, packet_xi=24.0, taudot=0.0,
                        sample_stride=16, nonlinearity=NonlinearityF.zero())
        u, t = cfg.initial_state(), 0.0
        g = cfg.grid
        dt = cfg.max_dt()
        steps = int(np.ceil(cfg.t_end() / dt))
        for _ in range(steps):
            u, t = step_rk4(cfg, t, u, dt), t + dt
        outside = np.abs(g.x - g.x0) > coeff.r_outer
        mass = g.norm2(u * outside)
        total = g.norm2(u)
        assert mass < 1e-8 * total

    def test_abort_keeps_partial_trace(self, coeff):
        explode = NonlinearityF(lambda t, x: np.where(t > 0.01, np.nan, 0.0))
        cfg = RunConfig(n=64, coeff=coeff, nonlinearity=explode,
                        sample_stride=1)
        trace = run_with_energy(cfg)
        assert trace.aborted
        assert len(trace.breakdowns) >= 1
        assert "non-finite" in trace.abort_reason

    def test_initial_symmetrizer_reused_for_first_record(self, coeff,
                                                        monkeypatch):
        built = []

        class Counting(Symmetrizer):
            def __post_init__(self):
                built.append(self.t)
                super().__post_init__()

        monkeypatch.setattr(solver_module, "Symmetrizer", Counting)
        cfg = RunConfig(n=64, coeff=coeff, sample_stride=8, taudot=1.0)
        trace = run_with_energy(cfg)
        # one build for the normalisation and t = 0, one per later record
        assert built == [0.0] + [b.t for b in trace.breakdowns[1:]]

    def test_trace_rows_deterministic(self, coeff):
        cfg = RunConfig(n=64, coeff=coeff, sample_stride=4, taudot=1.0)
        rows1 = list(run_with_energy(cfg).rows())
        rows2 = list(run_with_energy(cfg).rows())
        cols = list(rows1[0].keys())
        buf1, buf2 = io.StringIO(), io.StringIO()
        for rows, buf in ((rows1, buf1), (rows2, buf2)):
            for r in rows:
                buf.write(",".join("%.17g" % r[c] for c in cols) + "\n")
        assert buf1.getvalue() == buf2.getvalue()


class TestTrajectory:
    @pytest.fixture()
    def pilot_cfg(self, coeff):
        return RunConfig(n=64, sigma=0.5, tau0=0.5, coeff=coeff,
                         packet_xi=10.0, sample_stride=4)

    def test_one_trajectory_serves_every_rate_with_its_step_plan(
            self, pilot_cfg):
        traj = integrate(pilot_cfg)
        assert measure_tau_threshold(traj) == measure_tau_threshold(pilot_cfg)
        for taudot in (0.0, 1.0, 5.0):
            cfg = replace(pilot_cfg, taudot=taudot)
            assert traj.covers(cfg)
            observed = observe(cfg, traj)
            direct = run_with_energy(cfg)
            assert observed.initial_energy == direct.initial_energy
            assert list(observed.rows()) == list(direct.rows())

    @pytest.mark.parametrize("change", [{"taudot": 40.0}, {"sigma": 0.6},
                                        {"sample_stride": 2}])
    def test_observe_rejects_a_run_the_trajectory_does_not_cover(
            self, pilot_cfg, change):
        traj = integrate(pilot_cfg)
        cfg = replace(pilot_cfg, **change)
        assert not traj.covers(cfg)
        with pytest.raises(ValueError, match="another run"):
            observe(cfg, traj)

    def test_threshold_needs_a_pilot_to_the_full_horizon(self, pilot_cfg):
        traj = integrate(replace(pilot_cfg, taudot=40.0))
        with pytest.raises(ValueError, match="another run"):
            measure_tau_threshold(traj)

    def test_rate_capped_run_ends_at_tau_zero(self, pilot_cfg):
        # the steps add up to a t that passes tau0 / taudot by roundoff
        cfg = replace(pilot_cfg, sample_stride=8, taudot=25.357796607084754)
        assert cfg.t_end() == cfg.tau0 / cfg.taudot
        trace = run_with_energy(cfg)
        assert not trace.aborted
        assert trace.breakdowns[-1].t > cfg.t_end()
        assert trace.breakdowns[-1].tau == 0.0
        with pytest.raises(ValueError, match="became negative"):
            cfg.tau_at(1.01 * cfg.t_end())


class TestWaveReduction:
    def test_second_order_form_matches(self, coeff):
        # on the plateau the default nonlinearity gives
        # d_t^2 u1 = d_x(a d_x u1) + d_x(u1^2)
        cfg = RunConfig(n=256, coeff=coeff, packet_xi=10.0, packet_width=0.03,
                        packet_component=1)
        g = cfg.grid
        u = cfg.initial_state()
        scale = 0.05 / max(np.abs(u[0]))
        u = np.stack((scale * u[0], np.zeros(g.n)))
        dt = cfg.max_dt() / 4.0
        back = step_rk4(cfg, 0.0, u, -dt)
        fwd = step_rk4(cfg, 0.0, u, dt)
        d2t_u1 = (fwd[0] - 2 * u[0] + back[0]) / dt**2

        dxi = 2j * np.pi * g.xi
        a_vals = coeff.a(0.0, g.x)
        dx_u1 = np.fft.ifft(dxi * np.fft.fft(u[0]))
        flux = np.fft.ifft(dxi * np.fft.fft(a_vals * dx_u1))
        source = np.fft.ifft(dxi * np.fft.fft(coeff.chi(g.x)
                                              * u[0] ** 2))
        predicted = flux + source
        inner = np.abs(g.x - g.x0) <= coeff.r * 0.9
        err = np.abs(d2t_u1 - predicted)[inner].max()
        scale_ref = np.abs(predicted)[inner].max()
        assert err <= 1e-4 * scale_ref
