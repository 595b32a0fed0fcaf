import importlib
import io
import warnings
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from weakhyp.energy import Symmetrizer
from weakhyp.solver import (PACKET_WIDTH, RATE_FACTOR, CFLError,
                            EnergyTrace, RunConfig, SolverBlowupError,
                            integrate,
                            measure_tau_threshold, observe, rhs, rhs_parts,
                            run_with_energy, step_rk4, wave_packet)
from weakhyp.symbols import CoefficientField

solver_module = importlib.import_module("weakhyp.solver")


@pytest.fixture()
def free_cfg(coeff):
    """F == 0, and a == 0 from t = T_outer on: there the system is the
    nilpotent constant-coefficient one."""
    return RunConfig(n=64, sigma=0.5, tau0=0.5, coeff=coeff,
                     nonlinear=False)


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

    # a NaN in u1 reaches the transport; u1 = 1e200 is constant, so its
    # derivative is 0 and only the source u1 * u1 overflows
    @pytest.mark.parametrize("u1", [np.nan, 1e200])
    def test_blowup_detection(self, coeff, u1):
        cfg = RunConfig(n=64, coeff=coeff)
        u = np.zeros((2, cfg.n), dtype=complex)
        u[0] = u1
        with np.errstate(over="ignore"), pytest.raises(SolverBlowupError):
            rhs(cfg, 0.0, u)

    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_rhs_is_the_sum_of_its_parts(self, coeff, nonlinear):
        cfg = RunConfig(n=64, coeff=coeff, packet_xi=8.0, nonlinear=nonlinear)
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
        cfg = RunConfig(n=64, coeff=coeff, nonlinear=False, packet_xi=6.0)
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
        p = wave_packet(g, coeff.x0, 20.0)
        assert np.isfinite(p).all()
        assert g.norm2(p) > 0

    def test_spectral_truncation(self, grid128):
        p = wave_packet(grid128, 0.5, 20.0)
        ph = np.fft.fft(p, norm="ortho")
        spec_width = 1.0 / (2 * np.pi * PACKET_WIDTH)
        outside = np.abs(grid128.xi - 20.0) > 5.0 * spec_width
        assert np.abs(ph[outside]).max() < 1e-14 * np.abs(ph).max()

    def test_support_localized(self, coeff):
        cfg = RunConfig(n=256, coeff=coeff, packet_xi=24.0)
        g = cfg.grid
        p = wave_packet(g, coeff.x0, 24.0)
        outside = np.abs(g.x - coeff.x0) > coeff.r_outer
        frac = g.norm2(p * outside) / g.norm2(p)
        assert frac < 1e-8


class TestRunConfig:
    def test_b_has_the_coupling(self, coeff):
        for sigma in (0.5, 0.6, 0.75):
            cfg = RunConfig(sigma=sigma, coeff=coeff)
            assert cfg.symbol_b().c == pytest.approx(2 * (1 - sigma))

    def test_fields_are_the_run_settings(self):
        assert [f.name for f in fields(RunConfig)] == [
            "n", "sigma", "tau0", "taudot", "coeff", "nonlinear",
            "sample_stride", "packet_xi"]

    def test_grid_has_the_unit_period_around_the_bump(self):
        for x0 in (0.5, 0.3):
            cfg = RunConfig(n=64, coeff=CoefficientField(x0=x0))
            assert cfg.grid.dx == 1.0 / 64
            # the packet peaks at the grid point nearest the bump centre
            peak = cfg.grid.x[np.argmax(np.abs(cfg.initial_state()[1]))]
            assert abs(peak - x0) <= cfg.grid.dx / 2

    def test_packet_sits_in_u2(self, coeff):
        cfg = RunConfig(n=64, coeff=coeff, packet_xi=10.0)
        u = cfg.initial_state()
        assert not np.any(u[0])
        assert np.array_equal(u[1], wave_packet(cfg.grid, coeff.x0, 10.0))

    def test_configs_built_apart_are_equal(self):
        assert RunConfig(n=64) == RunConfig(n=64)
        assert RunConfig(n=64) != RunConfig(n=64, nonlinear=False)

    @pytest.mark.parametrize("tau0", [2.0, 5.0])
    def test_rejects_tau0_above_radius(self, coeff, tau0):
        with pytest.raises(ValueError, match="Gevrey radius 2.0"):
            RunConfig(tau0=tau0, coeff=coeff)

    def test_rejects_wide_support(self):
        cf = CoefficientField(r=0.2, r_outer=0.3)
        with pytest.raises(ValueError, match="support"):
            RunConfig(coeff=cf)

    @pytest.mark.parametrize("bad", [
        {"n": 100}, {"n": 64.0}, {"n": True}, {"sigma": "0.5"},
        {"tau0": float("nan")}, {"sample_stride": 0},
        {"sample_stride": 2.0}, {"sample_stride": True},
        {"packet_xi": "x"}, {"packet_xi": float("inf")},
        {"taudot": float("nan")},
        {"taudot": float("inf")}, {"taudot": "1"}, {"nonlinear": "yes"},
        {"nonlinear": 1}])
    def test_rejects_mistyped_values(self, coeff, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            RunConfig(coeff=coeff, **bad)

    # 5 spectral widths 1 / (2 pi PACKET_WIDTH) past the n = 64 grid's
    # largest frequency xi = 31, a packet keeps nothing
    @pytest.mark.parametrize("packet", [
        {"n": 32, "packet_xi": 100.0}, {"n": 32, "packet_xi": 1e308},
        {"n": 64, "packet_xi": 31.0 + 5.01 / (2.0 * np.pi * PACKET_WIDTH)}])
    def test_rejects_packet_the_grid_cannot_hold(self, coeff, packet):
        with pytest.raises(ValueError, match="keeps no frequency"):
            RunConfig(coeff=coeff, **packet)

    def test_accepts_a_packet_at_the_window_edge(self, coeff):
        # xi = 31, 4.99 of the 5 kept spectral widths away, is kept alone
        cfg = RunConfig(n=64, coeff=coeff, packet_xi=31.0 + 4.99 / (
            2.0 * np.pi * PACKET_WIDTH))
        assert np.any(cfg.initial_state()[1] != 0)

    def test_rejects_bump_center_outside_domain(self):
        with pytest.raises(ValueError, match="x0 = 1.5"):
            RunConfig(coeff=CoefficientField(x0=1.5))

    def test_horizon_capped_by_tau(self, coeff):
        cfg = RunConfig(coeff=coeff, tau0=1.0, taudot=40.0)
        assert cfg.t_end() == pytest.approx(1.0 / 40.0)
        cfg = RunConfig(coeff=coeff, tau0=1.0, taudot=2.0)
        assert cfg.t_end() == pytest.approx(coeff.T)


class TestRunWithEnergy:
    def test_zero_initial_data_reports_zero_ratio(self, coeff, monkeypatch):
        cfg = RunConfig(n=64, coeff=coeff, sample_stride=8)
        monkeypatch.setattr(RunConfig, "initial_state",
                            lambda self: np.zeros((2, self.n), dtype=complex))
        trace = run_with_energy(cfg)
        assert trace.initial_energy == 0.0
        assert trace.max_ratio() == 0.0

    def test_linear_run_has_zero_e4(self, coeff):
        cfg = RunConfig(n=64, coeff=coeff, sample_stride=8, taudot=1.0,
                        nonlinear=False)
        trace = run_with_energy(cfg)
        assert not trace.aborted and len(trace.table) > 1
        assert all(row["E4"] == 0.0 for row in trace.rows())

    def test_support_control_along_run(self, coeff):
        cfg = RunConfig(n=256, coeff=coeff, packet_xi=24.0, taudot=0.0,
                        sample_stride=16, nonlinear=False)
        u, t = cfg.initial_state(), 0.0
        g = cfg.grid
        dt = cfg.max_dt()
        steps = int(np.ceil(cfg.t_end() / dt))
        for _ in range(steps):
            u, t = step_rk4(cfg, t, u, dt), t + dt
        outside = np.abs(g.x - coeff.x0) > coeff.r_outer
        mass = g.norm2(u * outside)
        total = g.norm2(u)
        assert mass < 1e-8 * total

    def test_abort_keeps_partial_trace(self, coeff, monkeypatch):
        # every right-hand side past t = 0.01 sees a NaN state
        parts = solver_module.rhs_parts
        monkeypatch.setattr(solver_module, "rhs_parts", lambda cfg, t, u: parts(
            cfg, t, u if t <= 0.01 else np.full_like(u, np.nan)))
        cfg = RunConfig(n=64, coeff=coeff, sample_stride=1)
        trace = run_with_energy(cfg)
        assert trace.aborted
        assert len(trace.table) >= 1
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
        assert built == [0.0] + [row["t"] for row in trace.rows()][1:]

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


class TestEnergyTrace:
    def test_zero_state_has_zero_ratios_without_warning(self, coeff,
                                                        monkeypatch):
        monkeypatch.setattr(RunConfig, "initial_state",
                            lambda self: np.zeros((2, self.n), dtype=complex))
        cfg = RunConfig(n=64, coeff=coeff, sample_stride=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run_with_energy(cfg)
            assert trace.max_ratio_sum() == 0.0
        assert np.all(trace.table[:, 3] == 0.0)
        assert np.all(trace.table[:, 7:] == 0.0)

    def test_empty_table_has_zero_ratio_sum(self):
        trace = EnergyTrace(table=np.zeros((0, len(EnergyTrace.COLUMNS))),
                            initial_energy=1.0)
        assert trace.max_ratio_sum() == 0.0
        assert list(trace.rows()) == []

    def test_table_holds_a_row_of_every_column_per_record(self, coeff):
        cfg = RunConfig(n=64, coeff=coeff, sample_stride=8, taudot=1.0)
        traj = integrate(cfg)
        trace = observe(traj, cfg.taudot)
        assert trace.table.shape == (len(traj.times),
                                     len(EnergyTrace.COLUMNS))
        assert trace.table.dtype == np.float64
        rows = list(trace.rows())
        assert all(tuple(row) == EnergyTrace.COLUMNS for row in rows)
        for row in rows:
            assert row["E1"] > 0.0
            for k in (2, 3, 4):
                assert row[f"r{k}"] == abs(row[f"E{k}"]) / row["E1"]

    def test_threshold_equals_the_per_record_loop(self, coeff):
        pilot = integrate(RunConfig(n=64, sigma=0.5, tau0=0.5, coeff=coeff,
                                    packet_xi=10.0, sample_stride=4))
        worst = 0.0
        for row in observe(pilot, 0.0).rows():
            if row["E1"] > 0:
                worst = max(worst, (abs(row["E2"]) + abs(row["E3"])
                                    + abs(row["E4"])) / row["E1"])
        assert worst > 0.0
        assert measure_tau_threshold(pilot)[0] == worst


class TestTrajectory:
    @pytest.fixture()
    def pilot_cfg(self, coeff):
        return RunConfig(n=64, sigma=0.5, tau0=0.5, coeff=coeff,
                         packet_xi=10.0, sample_stride=4)

    def test_one_trajectory_serves_every_rate_with_its_step_plan(
            self, pilot_cfg):
        traj = integrate(pilot_cfg)
        assert (measure_tau_threshold(traj)[0]
                == run_with_energy(pilot_cfg).max_ratio_sum())
        for taudot in (0.0, 1.0, 5.0):
            cfg = replace(pilot_cfg, taudot=taudot)
            assert (solver_module._step_plan(cfg)
                    == solver_module._step_plan(pilot_cfg))
            observed = observe(traj, taudot)
            direct = run_with_energy(cfg)
            assert observed.initial_energy == direct.initial_energy
            assert list(observed.rows()) == list(direct.rows())

    def test_first_record_takes_the_initial_symmetrizer_over(self,
                                                             pilot_cfg):
        traj = integrate(pilot_cfg)
        assert traj.sym0.t == 0.0
        sym0 = weakref.ref(traj.sym0)
        first = observe(traj, 1.0)
        # the record let go of it: nothing holds a t = 0 Symmetrizer
        assert traj.sym0 is None and sym0() is None
        # the second pass builds its own, to the same bits
        second = observe(traj, 1.0)
        assert traj.sym0 is None
        assert np.array_equal(first.table.view(np.int64),
                              second.table.view(np.int64))

    def test_threshold_rejects_tau0_zero_before_any_record(self,
                                                           monkeypatch):
        calls = []
        monkeypatch.setattr(solver_module, "dt_energy_breakdown",
                            lambda *args: calls.append(args))
        traj = integrate(RunConfig(n=32, packet_xi=4, tau0=0.0,
                                   sample_stride=64))
        with pytest.raises(ValueError, match="tau0 = 0"):
            measure_tau_threshold(traj)
        assert calls == []

    def test_observe_rejects_a_rate_that_ends_before_the_trajectory(
            self, pilot_cfg):
        traj = integrate(pilot_cfg)
        assert replace(pilot_cfg, taudot=40.0).t_end() < pilot_cfg.t_end()
        with pytest.raises(ValueError, match="another run"):
            observe(traj, 40.0)

    def test_observe_keeps_the_given_rows_at_its_tau(self, pilot_cfg,
                                                     monkeypatch):
        traj = integrate(pilot_cfg)
        cfg = replace(pilot_cfg, taudot=1.0)
        reference = observe(traj, cfg.taudot).table
        # every other row at the tau of cfg, marked with a budget of -1
        given = observe(traj, pilot_cfg.taudot).table
        given[::2, 1] = [cfg.tau_at(t) for t in traj.times[::2]]
        given[::2, 2:7] = -1.0
        kept = given[:, 1] == [cfg.tau_at(t) for t in traj.times]
        builds = []

        class Counting(Symmetrizer):
            def __post_init__(self):
                builds.append(self.t)
                super().__post_init__()

        monkeypatch.setattr(solver_module, "Symmetrizer", Counting)
        table = observe(traj, cfg.taudot, given.copy()).table
        assert np.array_equal(table[kept, :7], given[kept, :7])
        assert np.array_equal(table[~kept], reference[~kept])
        assert len(builds) == np.count_nonzero(~kept) > 0

    def test_threshold_comes_with_the_auto_rate_trace(self, pilot_cfg):
        # at stride 1 the records before the maximum are observed again
        traj = integrate(replace(pilot_cfg, sample_stride=1))
        threshold, trace = measure_tau_threshold(traj)
        observed = observe(traj, RATE_FACTOR * threshold)
        assert not trace.aborted and trace.abort_reason == ""
        assert trace.initial_energy == observed.initial_energy
        assert np.array_equal(trace.table, observed.table)

    def test_auto_rate_ending_before_t_has_no_trace(self, pilot_cfg):
        traj = integrate(replace(pilot_cfg, tau0=0.2))
        threshold, trace = measure_tau_threshold(traj)
        assert trace is None
        with pytest.raises(ValueError, match="another run"):
            observe(traj, RATE_FACTOR * threshold)

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
        last = list(trace.rows())[-1]
        assert last["t"] > cfg.t_end()
        assert last["tau"] == 0.0
        with pytest.raises(ValueError, match="became negative"):
            cfg.tau_at(1.01 * cfg.t_end())


class TestWaveReduction:
    def test_second_order_form_matches(self, coeff):
        # on the plateau the default nonlinearity gives
        # d_t^2 u1 = d_x(a d_x u1) + d_x(u1^2)
        cfg = RunConfig(n=256, coeff=coeff)
        g = cfg.grid
        u1 = wave_packet(g, coeff.x0, 10.0)
        u = np.stack((0.05 / max(np.abs(u1)) * u1, np.zeros(g.n)))
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
        inner = np.abs(g.x - coeff.x0) <= coeff.r * 0.9
        err = np.abs(d2t_u1 - predicted)[inner].max()
        scale_ref = np.abs(predicted)[inner].max()
        assert err <= 1e-4 * scale_ref


def _symmetry_budget(nonlinear, packet_xi=24.0, shift=0):
    """The trace table of an n = 256 run at taudot = 3, its bump and
    packet moved by `shift` grid points."""
    cfg = RunConfig(n=256, sigma=0.5, tau0=1.0, taudot=3.0, sample_stride=2,
                    nonlinear=nonlinear, packet_xi=packet_xi,
                    coeff=CoefficientField(x0=0.5 + shift / 256))
    return run_with_energy(cfg).table


class TestSymmetries:
    """The system is real and translation invariant on the torus, so the
    conjugate datum and a shifted bump run through the same budget, to
    roundoff: checks that need no reference solution."""

    @pytest.mark.parametrize("nonlinear", [False, True])
    @pytest.mark.parametrize("moved", [
        {"packet_xi": -24.0},   # the complex conjugate of the datum
        {"shift": 1}, {"shift": 8}], ids=["conjugate", "shift1", "shift8"])
    def test_budget_is_invariant(self, nonlinear, moved):
        base = _symmetry_budget(nonlinear)
        other = _symmetry_budget(nonlinear, **moved)
        assert np.array_equal(other[:, :2], base[:, :2])
        # each budget row (E, E1, E2, E3, E4) against its E1 + |E2..E4|
        scale = base[:, 3] + np.abs(base[:, 4:7]).sum(axis=1)
        assert np.all(scale > 0)
        assert np.all(np.abs(other[:, 2:7] - base[:, 2:7])
                      <= 1e-11 * scale[:, None])
