import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

import weakhyp
import weakhyp.cli as cli_module
import weakhyp.solver as solver_module

from weakhyp.cli import Scenario, ScenarioError, load_scenario, main, run_scenario
from weakhyp.reporting import format_float, write_csv
from weakhyp.solver import (RATE_FACTOR, EnergyTrace, RunConfig, integrate,
                            measure_tau_threshold, run_with_energy)
from weakhyp.spectral import SQUARE_CAP
from weakhyp.symbols import CoefficientField

SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scenarios")


def _write_scenario(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def _run_cli(tmp_path, kind, config):
    """`weakhyp run` on a one-scenario file, in a fresh interpreter."""
    path = _write_scenario(tmp_path / "s.json",
                           {"kind": kind, "config": config,
                            "output_dir": str(tmp_path / "out")})
    src = os.path.dirname(os.path.dirname(weakhyp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "weakhyp.cli", "run", path],
                          capture_output=True, text=True, env=env,
                          timeout=120)


# invalid values of the non-energy scenario kinds, one key each
BAD_VALUES = [
    ("symbol_audit", {"orders": [[5, 0]]}),
    ("symbol_audit", {"t": "x"}),
    ("symbol_audit", {"c": "x"}),
    ("metric_audit", {"n_pairs": 0}),
    ("metric_audit", {"seed": "x"}),
    ("metric_audit", {"coeff": 5}),
    ("quantizer_audit", {"sizes": []}),
    ("quantizer_audit", {"sizes": [100]}),
    ("quantizer_audit", {"dump_matrices": "yes"}),
    ("cjs_sweep", {"k": -2}),
    ("cjs_sweep", {"xi_ladder": [0, 1, 2, 3, 4, 5]}),
    ("cjs_sweep", {"xi_ladder": [16, 32]}),
    ("cjs_sweep", {"profile": ["linear"]}),
    ("constraint_table", {"step": "0"}),
    ("constraint_table", {"f21_zero": "yes"}),
]


class TestScenarioLoading:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario(kind="nonsense", config={}, output_dir="out")

    def test_unknown_top_level_key_rejected(self, tmp_path):
        p = _write_scenario(tmp_path / "s.json",
                            {"kind": "constraint_table", "output_dir": "o",
                             "config": {}, "extra": 1})
        with pytest.raises(ScenarioError, match="unknown keys"):
            load_scenario(p)

    def test_missing_output_dir_rejected(self, tmp_path):
        p = _write_scenario(tmp_path / "s.json", {"kind": "constraint_table"})
        with pytest.raises(ScenarioError, match="output_dir"):
            load_scenario(p)

    def test_int_of_too_many_digits_exits_2(self, tmp_path, capsys):
        # json raised a ValueError: Python converts ints of at most 4300
        # digits from a string
        p = tmp_path / "s.json"
        p.write_text('{"kind": "symbol_audit", "output_dir": "o", '
                     '"config": {"t": ' + "9" * 5000 + '}}')
        assert main(["run", str(p)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read")

    @pytest.mark.parametrize("output_dir", [5, None, ["a"]])
    def test_output_dir_not_a_string_exits_2(self, tmp_path, capsys,
                                             output_dir):
        p = _write_scenario(tmp_path / "s.json",
                            {"kind": "constraint_table", "config": {},
                             "output_dir": output_dir})
        assert main(["run", p]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "output_dir" in err

    def test_empty_output_dir_exits_2_writing_nothing(self, tmp_path,
                                                      capsys, monkeypatch):
        p = _write_scenario(tmp_path / "s.json",
                            {"kind": "constraint_table",
                             "config": {"step": "0.1"}, "output_dir": ""})
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["run", p]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "output_dir" in err
        assert os.listdir(work) == []


class TestValidationExitCodes:
    def test_unknown_config_key_exits_2(self, tmp_path):
        s = Scenario(kind="constraint_table",
                     config={"sigma_typo": "0.5"},
                     output_dir=str(tmp_path / "out"))
        assert run_scenario(s) == 2

    def test_c_above_two_exits_2_citing_uncertainty(self, tmp_path, capsys):
        s = Scenario(kind="symbol_audit", config={"c": 3.0},
                     output_dir=str(tmp_path / "out"))
        assert run_scenario(s) == 2
        err = capsys.readouterr().err
        assert "c = 3.0" in err and "uncertainty" in err

    @pytest.mark.parametrize("bad", [{"n": 100}, {"sigma": "0.5"},
                                     {"taudot": "fast"}, {"taudot": True},
                                     {"packet_xi": "x"},
                                     {"coeff": {"x0": 1.5}},
                                     {"assert_max_ratio": "x"},
                                     {"nonlinear": "no"},
                                     {"nonlinear": 1},
                                     {"n": 4096, "sigma": 0.9, "tau0": 1.0},
                                     {"coeff": {"T_outer": float("inf")}}])
    def test_bad_energy_config_exits_2_without_traceback(self, tmp_path,
                                                         bad):
        proc = _run_cli(tmp_path, "energy_estimate", bad)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "error:" in proc.stderr

    @pytest.mark.parametrize("kind", ["energy_estimate", "symbol_audit",
                                      "metric_audit", "quantizer_audit"])
    def test_bad_coeff_exits_2(self, tmp_path, capsys, kind):
        # x0 = 0.9: the support [0.66, 1.14] crosses the seam at x = 1
        for coeff in ({"T": 0.2}, {"T_outer": float("inf")}, {"r": 0},
                      {"r_outer": -1.0}, {"x0": True}, {"r": "x"},
                      {"x0": 0.9}):
            s = Scenario(kind=kind, config={"coeff": coeff},
                         output_dir=str(tmp_path / "out"))
            assert run_scenario(s) == 2
            assert "config.coeff" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad", [
        {"taudot": -1.0}, {"taudot": math.inf}, {"taudot": math.nan},
        {"taudot": "AUTO"}, {"sample_stride": 0}, {"assert_max_ratio": "x"},
        {"nonlinear": "no"}, {"nonlinear": 1}, {"tau0": -0.5},
        {"coeff": 5}, {"tau0": 1.0, "n": 4096, "sigma": 0.9},
        # no time span: the run would end at t = 0
        {"tau0": 0}, {"tau0": 0, "taudot": "auto"}, {"tau0": 0, "taudot": 1},
        {"tau0": 0.0, "taudot": 1e-300}])
    def test_bad_rate_or_run_key_exits_2(self, tmp_path, capsys, bad):
        s = Scenario(kind="energy_estimate", config=dict({"n": 64}, **bad),
                     output_dir=str(tmp_path / "out"))
        assert run_scenario(s) == 2
        assert next(iter(bad)) in capsys.readouterr().err

    # settings that no run varied are constants; their keys ran before at
    # the old default, and the old value checks caught the other values
    @pytest.mark.parametrize("kind, config", [
        ("energy_estimate", {"length": 1.0}),
        ("energy_estimate", {"length": 1e300}),
        ("energy_estimate", {"c": 1.0}),
        ("energy_estimate", {"horizon": 0.01}),
        ("energy_estimate", {"horizon": "x"}),
        ("energy_estimate", {"horizon": -1.0}),
        ("energy_estimate", {"packet_width": 0.02}),
        ("energy_estimate", {"packet_width": "x"}),
        ("energy_estimate", {"packet_width": -0.02}),
        ("energy_estimate", {"packet_width": 1e-200}),
        ("energy_estimate", {"packet_width": 1e308}),
        ("energy_estimate", {"packet_width": 10, "packet_xi": 24.5}),
        ("energy_estimate", {"packet_component": 2}),
        ("energy_estimate", {"packet_component": 7}),
        ("energy_estimate", {"taudot_factor": 2.0}),
        ("energy_estimate", {"taudot_factor": "fast"}),
        ("energy_estimate", {"taudot_factor": True}),
        ("energy_estimate", {"taudot_factor": 5, "taudot": 3.0}),
        ("energy_estimate", {"taudot_factor": 2, "taudot": 0}),
        ("energy_estimate", {"taudot": None}),
        ("metric_audit", {"xi_max": 128.0}),
        ("metric_audit", {"xi_max": math.nextafter(SQUARE_CAP, math.inf)}),
        ("metric_audit", {"xi_max": 1e160}),
        ("constraint_table", {"sigma_min": "0.3"}),
        ("constraint_table", {"sigma_max": "0.99"}),
        ("constraint_table", {"nu": 4}),
        ("cjs_sweep", {"t_final": 1.0})])
    def test_removed_key_exits_2_naming_it(self, tmp_path, capsys, kind,
                                           config):
        out = tmp_path / "out"
        assert run_scenario(Scenario(kind, config, str(out))) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and next(iter(config)) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_removed_gevrey_class_key_exits_2(self, tmp_path, capsys):
        for kind in ("energy_estimate", "symbol_audit", "metric_audit",
                     "quantizer_audit"):
            s = Scenario(kind, {"coeff": {"radius_R": 1.0}},
                         str(tmp_path / "out"))
            assert run_scenario(s) == 2
            assert ("unknown keys in config.coeff: radius_R"
                    in capsys.readouterr().err)

    @pytest.mark.parametrize("kind, bad", BAD_VALUES)
    def test_bad_value_exits_2_naming_key(self, tmp_path, capsys, kind, bad):
        s = Scenario(kind=kind, config=bad, output_dir=str(tmp_path / "out"))
        assert run_scenario(s) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and next(iter(bad)) in err

    @pytest.mark.parametrize("kind, bad", [
        ("symbol_audit", {"orders": [[5, 0]]}),
        ("metric_audit", {"n_pairs": 0}),
        ("quantizer_audit", {"sizes": [100]}),
        ("cjs_sweep", {"xi_ladder": [16, 32]}),
        ("constraint_table", {"step": "0"}),
        ("cjs_sweep", {"xi_ladder": [16, 32, 64, 128, 256, 1e6]}),
        ("cjs_sweep", {"xi_ladder": [16, 32, 64, 128, 256, 1e308]}),
        ("symbol_audit", {"coeff": {"T_outer": float("inf")}})])
    def test_bad_value_exits_2_without_traceback(self, tmp_path, kind, bad):
        proc = _run_cli(tmp_path, kind, bad)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "error:" in proc.stderr

    def test_cjs_short_ladder_exits_2(self, tmp_path):
        s = Scenario(kind="cjs_sweep", config={"xi_ladder": [16, 32]},
                     output_dir=str(tmp_path / "out"))
        assert run_scenario(s) == 2

    @pytest.mark.parametrize("kind, bad", BAD_VALUES + [
        ("cjs_sweep", {"xi_ladder": [16, 32, 64, 128, 256, 1e6]}),
        ("cjs_sweep", {"xi_ladder": [16, 32, 64, 128, 256, 1e308]}),
        ("constraint_table", {"step": "1e-9"}),
        ("constraint_table", {"step": None}),
        ("constraint_table", {"step": "-1"}),
        ("constraint_table", {"step": "x"}),
        ("symbol_audit", {"coeff": {"r_outer": 1e308}}),
        ("quantizer_audit", {"coeff": {"x0": 0}}),
        ("energy_estimate", {"n": 32, "packet_xi": 100}),
        ("energy_estimate", {"n": 32, "packet_xi": 1e308}),
        ("energy_estimate", {"n": 32, "coeff": {"T_outer": 1e150}})])
    def test_invalid_scenario_leaves_no_output_dir(self, tmp_path, kind, bad):
        s = Scenario(kind=kind, config=bad, output_dir=str(tmp_path / "out"))
        assert run_scenario(s) == 2
        assert not (tmp_path / "out").exists()

    def test_output_dir_naming_a_file_exits_2(self, tmp_path):
        (tmp_path / "out").write_text("")
        proc = _run_cli(tmp_path, "constraint_table", {"step": "0.01"})
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert (tmp_path / "out").read_text() == ""


class TestRunVerb:
    def test_duplicate_output_dirs_rejected(self, tmp_path):
        p1 = _write_scenario(tmp_path / "a.json",
                             {"kind": "constraint_table", "config": {},
                              "output_dir": str(tmp_path / "same")})
        p2 = _write_scenario(tmp_path / "b.json",
                             {"kind": "constraint_table", "config": {},
                              "output_dir": str(tmp_path / "same")})
        assert main(["run", p1, p2]) == 2

    def test_runs_several_scenario_files(self, tmp_path):
        paths = []
        for name in ("x", "y"):
            paths.append(_write_scenario(
                tmp_path / f"{name}.json",
                {"kind": "constraint_table",
                 "config": {"step": "0.01"},
                 "output_dir": str(tmp_path / name)}))
        assert main(["run"] + paths) == 0
        assert (tmp_path / "x" / "table.csv").exists()
        assert (tmp_path / "y" / "table.csv").exists()

    def test_quantizer_dump_flag_writes_raw_matrices(self, tmp_path):
        from weakhyp.quantize import quantize, sample_symbol_b
        from weakhyp.spectral import Grid
        from weakhyp.symbols import SymbolB
        out = tmp_path / "dump"
        rc = main(["audit", "quantizer", "--dump-matrices", "--out", str(out)])
        assert rc == 0
        raw = np.fromfile(out / "op_b_n128.bin", dtype="<c16")
        assert raw.shape == (128 * 128,)
        mat = raw.reshape(128, 128)
        assert np.abs(mat - mat.conj().T).max() < 1e-12
        # op(b) is a real kernel, written as complex doubles
        sb = SymbolB(CoefficientField(), c=0.5)
        for n in (128, 256):
            raw = np.fromfile(out / f"op_b_n{n}.bin", dtype="<c16")
            assert raw.shape == (n * n,)
            # every imaginary part is +0.0, bit for bit
            assert not raw.imag.view(np.int64).any()
            B = quantize(sample_symbol_b(sb, Grid(n), 0.0))
            assert np.array_equal(raw.real.reshape(n, n), B)


class TestConstraintTableScenario:
    def test_writes_csv_and_summary(self, tmp_path):
        out = tmp_path / "table"
        rc = main(["table", "--step", "0.001", "--out", str(out)])
        assert rc == 0
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["min_feasible_sigma"] == 0.5
        with open(out / "table.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header[0] == "sigma"
        assert "slack_nonlinear_coupling" in header

    def test_f21_zero_changes_bound(self, tmp_path):
        out = tmp_path / "t2"
        rc = main(["table", "--step", "0.001", "--f21-zero",
                   "--out", str(out)])
        assert rc == 0
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        assert 0.333 <= summary["min_feasible_sigma"] <= 0.334

    @pytest.mark.parametrize("f21_zero, csv", [
        (False,
         "sigma,c,nu,f21_zero,feasible,slack_transport_error,"
         "slack_calculus_remainder,slack_conjugation_error,"
         "slack_symmetrizer_dt,slack_symmetrizer_dt_tail,"
         "slack_nonlinear_coupling\n"
         "0.5,1,4,false,true,0,-0.42857142857142855,0,-0.5,-2.5,0\n"),
        (True,
         "sigma,c,nu,f21_zero,feasible,slack_transport_error,"
         "slack_calculus_remainder,slack_conjugation_error,"
         "slack_symmetrizer_dt,slack_symmetrizer_dt_tail\n"
         "0.5,1,4,true,true,0,-0.42857142857142855,0,-0.5,-2.5\n"),
    ])
    def test_one_row_table_pins_columns_and_digits(self, tmp_path,
                                                   f21_zero, csv):
        # the header and the sigma = 0.5 row of the rows 0.3, 0.5, 0.7, 0.9
        out = tmp_path / "t"
        args = ["table", "--step", "0.2", "--out", str(out)]
        assert main(args + ["--f21-zero"] * f21_zero) == 0
        header, *rows = (out / "table.csv").read_text().splitlines(True)
        assert [float(r.split(",")[0]) for r in rows] == [0.3, 0.5, 0.7, 0.9]
        assert header + rows[1] == csv

    def test_fractions_are_written_as_their_double(self):
        assert format_float(Fraction(3, 10)) == "0.29999999999999999"
        assert format_float(Fraction(3, 10)) == format_float(0.3)
        assert format_float(Fraction(1)) == "1"

    def test_table_over_the_row_cap_exits_2_at_once(self, tmp_path,
                                                   capsys):
        out = tmp_path / "t"
        assert main(["table", "--step", "1e-9", "--out", str(out)]) == 2
        assert "690000001 rows" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        args = ["table", "--step", "0.01"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        b1 = (out1 / "table.csv").read_bytes()
        b2 = (out2 / "table.csv").read_bytes()
        assert b1 == b2


class TestEnergyScenario:
    def test_small_run_writes_artifacts(self, tmp_path):
        out = tmp_path / "energy"
        s = Scenario(
            kind="energy_estimate",
            config={"n": 64, "sigma": 0.5, "tau0": 0.5, "taudot": "auto",
                    "nonlinear": False, "packet_xi": 10.0,
                    "sample_stride": 8, "assert_max_ratio": 1.1},
            output_dir=str(out),
        )
        assert run_scenario(s) == 0
        assert (out / "trace.csv").exists()
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["max_ratio"] <= 1.1
        assert summary["taudot"] > 0
        with open(out / "trace.csv") as fh:
            header = fh.readline().strip()
        assert header == "t,tau,E,E1,E2,E3,E4,r2,r3,r4"

    def test_failing_assertion_exits_1(self, tmp_path):
        out = tmp_path / "energy_fail"
        s = Scenario(
            kind="energy_estimate",
            config={"n": 64, "sigma": 0.75, "tau0": 0.5, "taudot": 0.0,
                    "nonlinear": False, "packet_xi": 25.0,
                    "sample_stride": 8, "assert_max_ratio": 1.0},
            output_dir=str(out),
        )
        assert run_scenario(s) == 1
        with open(out / "failures.json") as fh:
            failures = json.load(fh)["failures"]
        assert failures[0]["check"] == "max_ratio"


    def _summary(self, tmp_path, name, **config):
        out = tmp_path / name
        s = Scenario(kind="energy_estimate",
                     config=dict({"n": 64, "sigma": 0.5, "tau0": 0.5,
                                  "nonlinear": False, "packet_xi": 10.0,
                                  "sample_stride": 8}, **config),
                     output_dir=str(out))
        assert run_scenario(s) == 0
        with open(out / "summary.json") as fh:
            return json.load(fh)

    def test_config_hash_ignores_the_measured_taudot(self, tmp_path,
                                                     monkeypatch):
        first = self._summary(tmp_path, "a", taudot="auto")
        measured = cli_module.measure_tau_threshold

        def drifting(run):
            threshold, trace = measured(run)
            return threshold * (1 + 1e-15), trace

        monkeypatch.setattr(cli_module, "measure_tau_threshold", drifting)
        drifted = self._summary(tmp_path, "b", taudot="auto")
        assert drifted["taudot"] != first["taudot"]
        assert drifted["config"]["taudot"] == drifted["taudot"]
        assert drifted["config_hash"] == first["config_hash"]

    PILOT = {"n": 64, "sigma": 0.5, "tau0": 0.5, "packet_xi": 10.0,
             "sample_stride": 8}

    def _run_auto(self, tmp_path, monkeypatch, **config):
        """An auto-rate run: (its exit code, its output dir, its RK4
        steps, its Symmetrizer builds)."""
        steps, builds = [], []
        step = solver_module.step_rk4

        def counting(*args):
            steps.append(args[1])
            return step(*args)

        class Counting(solver_module.Symmetrizer):
            def __post_init__(self):
                builds.append(self.t)
                super().__post_init__()

        monkeypatch.setattr(solver_module, "step_rk4", counting)
        monkeypatch.setattr(solver_module, "Symmetrizer", Counting)
        out = tmp_path / "auto"
        code = run_scenario(Scenario(
            "energy_estimate", dict(self.PILOT, taudot="auto", **config),
            str(out)))
        monkeypatch.undo()
        return code, out, len(steps), len(builds)

    @staticmethod
    def _stale_records(cfg, final):
        """The records whose tau at RATE_FACTOR times the largest pilot
        ratio of the records before them is not their tau at `final`."""
        worst, stale = 0.0, 0
        for row in run_with_energy(cfg).rows():
            guess = replace(cfg, taudot=RATE_FACTOR * worst)
            stale += guess.tau_at(row["t"]) != final.tau_at(row["t"])
            if row["E1"] > 0:
                worst = max(worst, (abs(row["E2"]) + abs(row["E3"])
                                    + abs(row["E4"])) / row["E1"])
        return stale

    def _reference(self, tmp_path, **config):
        """measure_tau_threshold, then run_with_energy at twice it."""
        cfg = RunConfig(coeff=CoefficientField(), **dict(self.PILOT, **config))
        threshold, _ = measure_tau_threshold(integrate(cfg))
        final = replace(cfg, taudot=2.0 * threshold)
        path = tmp_path / "reference.csv"
        write_csv(str(path), run_with_energy(final).rows(),
                  EnergyTrace.COLUMNS)
        return cfg, final, threshold, path.read_bytes()

    def _check_against(self, out, reference):
        _, final, threshold, trace_bytes = reference
        assert (out / "trace.csv").read_bytes() == trace_bytes
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["threshold"] == threshold
        assert summary["taudot"] == final.taudot
        assert summary["horizon"] == final.t_end()

    def _check_one_pass(self, tmp_path, monkeypatch, **config):
        """The auto rate observes the pilot trajectory once, and again
        only its stale records; returns their number."""
        code, out, steps, builds = self._run_auto(tmp_path, monkeypatch,
                                                  **config)
        assert code == 0
        cfg, final, _, _ = reference = self._reference(tmp_path, **config)
        self._check_against(out, reference)
        # the final run ends at T with the pilot's steps: no second run
        assert final.t_end() == cfg.t_end()
        traj = integrate(cfg)
        assert steps == solver_module._step_plan(cfg)[1]
        # one build per record (t = 0 is the normalisation's), and one
        # per stale record; t = 0 has the same tau at every rate
        stale = self._stale_records(cfg, final)
        assert builds == len(traj.times) + stale
        return stale

    def test_auto_rate_observes_the_pilot_trajectory_again(self, tmp_path,
                                                           monkeypatch):
        self._check_one_pass(tmp_path, monkeypatch)

    @pytest.mark.parametrize("config", [
        {"n": 128, "sample_stride": 4},
        {"n": 128, "sample_stride": 4, "nonlinear": False},
        {"sample_stride": 1},
        {"sigma": 0.75, "sample_stride": 4},
        {"packet_xi": 20.0, "n": 128},
    ], ids=str)
    def test_auto_rate_observes_stale_records_again(self, tmp_path,
                                                    monkeypatch, config):
        # the running maximum of these pilots settles after record 1
        assert self._check_one_pass(tmp_path, monkeypatch, **config) > 0

    def test_auto_rate_holds_at_most_two_symmetrizers(self, tmp_path,
                                                      monkeypatch):
        # the record being held and the one being built: the first
        # record takes the one at t = 0 over; this pilot has stale
        # records, so observe builds again
        live, peaks = set(), []

        class Counting(solver_module.Symmetrizer):
            def __post_init__(self):
                token = object()
                live.add(token)
                weakref.finalize(self, live.discard, token)
                peaks.append(len(live))
                super().__post_init__()

        monkeypatch.setattr(solver_module, "Symmetrizer", Counting)
        s = Scenario("energy_estimate", dict(self.PILOT, taudot="auto", n=128,
                                             sample_stride=4),
                     str(tmp_path / "auto"))
        assert run_scenario(s) == 0
        assert max(peaks) == 2

    def test_shorter_horizon_integrates_the_final_rate_again(self, tmp_path,
                                                             monkeypatch):
        # a smaller tau0 ends the final run at tau0 / taudot < T
        code, out, steps, builds = self._run_auto(tmp_path, monkeypatch,
                                                  tau0=0.2)
        assert code == 0
        cfg, final, _, _ = reference = self._reference(tmp_path, tau0=0.2)
        self._check_against(out, reference)
        assert final.t_end() == final.tau0 / final.taudot < cfg.t_end()
        assert steps == (solver_module._step_plan(cfg)[1]
                         + solver_module._step_plan(final)[1])
        assert builds == len(integrate(cfg).times) + len(
            integrate(final).times)

    def _blowup_failure(self, tmp_path, monkeypatch, t_blowup, taudot):
        """The one failure of a run whose right-hand side past t_blowup
        sees a NaN state; at -1 it is not finite at the first record."""
        parts = solver_module.rhs_parts
        monkeypatch.setattr(solver_module, "rhs_parts", lambda cfg, t, u: parts(
            cfg, t, u if t <= t_blowup else np.full_like(u, np.nan)))
        out = tmp_path / "pilot"
        s = Scenario("energy_estimate", dict(self.PILOT, taudot=taudot),
                     str(out))
        assert run_scenario(s) == 1
        with open(out / "failures.json") as fh:
            (failure,) = json.load(fh)["failures"]
        return failure

    @pytest.mark.parametrize("t_blowup", [0.01, -1.0])
    def test_aborted_pilot_exits_1_naming_its_reason(self, tmp_path,
                                                     monkeypatch, t_blowup):
        failure = self._blowup_failure(tmp_path, monkeypatch, t_blowup,
                                       "auto")
        assert failure["check"] == "pilot_completed"
        assert failure["detail"].startswith(
            "pilot run aborted: non-finite right-hand side at t = ")

    def test_fixed_rate_run_without_a_record_exits_1(self, tmp_path,
                                                     monkeypatch):
        # the trace is empty: its max_ratio is 0, not a ValueError
        failure = self._blowup_failure(tmp_path, monkeypatch, -1.0, 0.0)
        assert failure == {"check": "run_completed", "detail":
                           "non-finite right-hand side at t = 0.0"}
        with open(tmp_path / "pilot" / "summary.json") as fh:
            assert json.load(fh)["max_ratio"] == 0.0

    def test_f21_zero_is_no_energy_key(self, tmp_path, capsys):
        # `nonlinear: false` is the one key that switches F off
        s = Scenario("energy_estimate", dict(self.PILOT, f21_zero=True),
                     str(tmp_path / "out"))
        assert run_scenario(s) == 2
        assert "unknown keys in config: f21_zero" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_taudot_is_the_auto_rate(self, tmp_path):
        assert self._summary(tmp_path, "a") == self._summary(
            tmp_path, "b", taudot="auto")
        assert ((tmp_path / "a" / "trace.csv").read_bytes()
                == (tmp_path / "b" / "trace.csv").read_bytes())

    def test_auto_rate_is_rate_factor_times_the_threshold(self, tmp_path):
        summary = self._summary(tmp_path, "a", taudot="auto")
        assert summary["threshold"] > 0
        assert summary["taudot"] == RATE_FACTOR * summary["threshold"]

    @pytest.mark.parametrize("taudot", [0, 2.5, 40])
    def test_given_rate_is_run_as_given(self, tmp_path, taudot):
        summary = self._summary(tmp_path, "a", taudot=taudot)
        assert summary["threshold"] is None
        assert summary["taudot"] == taudot
        cfg = RunConfig(coeff=CoefficientField(), tau0=0.5, taudot=taudot)
        assert summary["horizon"] == cfg.t_end()

    def test_summary_config_is_the_run_settings(self, tmp_path):
        config = self._summary(tmp_path, "a")["config"]
        assert set(config) == {f.name for f in fields(RunConfig)}

    def test_config_hash_tells_rate_rules_apart(self, tmp_path):
        hashes = {self._summary(tmp_path, str(i), taudot=taudot)["config_hash"]
                  for i, taudot in enumerate(("auto", 3.0, 4.0))}
        assert len(hashes) == 3


class TestAuditScenarios:
    def test_metric_audit_samples_up_to_xi_max(self, tmp_path):
        from weakhyp import audits
        from weakhyp.reporting import write_json
        from weakhyp.symbols import SymbolB

        out = tmp_path / "out"
        assert run_scenario(Scenario("metric_audit", {"n_pairs": 200},
                                     str(out))) == 0
        sb = SymbolB(CoefficientField(), c=1.0)
        # both audits sample |xi| up to audits.XI_MAX
        reports = audits.metric_admissibility_audit(sb, n_pairs=200)
        weight = audits.weight_admissibility_audit(sb, n_pairs=200)
        expected = tmp_path / "expected.json"
        write_json(str(expected), {"records": [
            *reports.values(), weight]})
        assert (out / "metric.json").read_bytes() == expected.read_bytes()

    def test_quantizer_audit_passes(self, tmp_path):
        out = tmp_path / "qa"
        rc = main(["audit", "quantizer", "--out", str(out)])
        assert rc == 0
        with open(out / "quantizer.json") as fh:
            records = json.load(fh)["records"]
        names = {r["check"] for r in records}
        assert "compose_norm_decreases" in names
        assert "invert_defects" in names
        assert all(r["pass"] for r in records)
        # the decrease record carries its margin (lo - hi) / lo
        by_name = {r["check"]: r for r in records}
        lo = by_name["compose_norm_n128"]["constant"]
        hi = by_name["compose_norm_n256"]["constant"]
        assert by_name["compose_norm_decreases"]["margin"] == (lo - hi) / lo

    def test_quantizer_audit_records_are_the_written_ones(self, tmp_path):
        from weakhyp import audits
        from weakhyp.reporting import write_json
        from weakhyp.symbols import SymbolB

        out = tmp_path / "out"
        assert run_scenario(Scenario("quantizer_audit", {"sizes": [32, 64]},
                                     str(out))) == 0
        records = audits.quantizer_audit(
            SymbolB(CoefficientField(), c=0.5), 0.0, [32, 64])
        assert [r["check"] for r in records] == [
            "hermiticity_n32", "compose_norm_n32", "hermiticity_n64",
            "compose_norm_n64", "compose_norm_decreases", "invert_defects"]
        expected = tmp_path / "expected.json"
        write_json(str(expected), {"records": records})
        assert (out / "quantizer.json").read_bytes() == expected.read_bytes()

    def test_quantizer_audit_fails_on_decreasing_sizes(self, tmp_path):
        out = tmp_path / "out"
        assert run_scenario(Scenario("quantizer_audit", {"sizes": [256, 128]},
                                     str(out))) == 1
        with open(out / "quantizer.json") as fh:
            by_name = {r["check"]: r for r in json.load(fh)["records"]}
        ratio = (by_name["compose_norm_n128"]["constant"]
                 / by_name["compose_norm_n256"]["constant"])
        assert by_name["compose_norm_decreases"]["constant"] == ratio
        # the record has no witness, so its detail names none
        with open(out / "failures.json") as fh:
            assert json.load(fh)["failures"] == [
                {"check": "compose_norm_decreases",
                 "detail": f"constant {ratio}"}]

    def test_quantizer_dump_costs_no_memory(self, tmp_path):
        import tracemalloc

        config = {"sizes": [64, 128, 256]}
        # a first run builds what any run keeps: caches, FFT plans
        assert run_scenario(Scenario("quantizer_audit", config,
                                     str(tmp_path / "warm"))) == 0
        peaks = []
        for dump in (False, True):
            tracemalloc.start()
            try:
                assert run_scenario(Scenario(
                    "quantizer_audit", config | {"dump_matrices": dump},
                    str(tmp_path / f"dump{dump}"))) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the kernels are dumped one at a time, after the audit
        no_dump, with_dump = (p / (8 * 256**2) for p in peaks)
        assert abs(with_dump - no_dump) <= 0.05, (no_dump, with_dump)

    @pytest.mark.parametrize("sizes, ratio", [([128, 256], math.inf),
                                               ([128, 128], math.nan)])
    def test_quantizer_audit_at_vanishing_c_keeps_ieee_ratio(
            self, tmp_path, sizes, ratio):
        # at c = 1e-17, <xi>^(-c) rounds to 1: op(b) multiplies by b(x)
        # and its n = 128 composition remainder is exactly 0
        out = tmp_path / "qa"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = run_scenario(Scenario("quantizer_audit",
                                       {"c": 1e-17, "sizes": sizes},
                                       str(out)))
        assert rc == 1
        with open(out / "quantizer.json") as fh:
            records = json.load(fh)["records"]
        (decrease,) = [r for r in records
                       if r["check"] == "compose_norm_decreases"]
        assert records[1]["constant"] == 0.0
        assert not decrease["pass"]
        assert (math.isnan(decrease["constant"]) if math.isnan(ratio)
                else decrease["constant"] == ratio)
        # (lo - hi) / lo: nan for 0/0, -inf for x/0
        assert (math.isnan(decrease["margin"]) if math.isnan(ratio)
                else decrease["margin"] == -math.inf)

    def test_metric_audit_passes(self, tmp_path):
        out = tmp_path / "ma"
        s = Scenario(kind="metric_audit", config={"n_pairs": 2000},
                     output_dir=str(out))
        assert run_scenario(s) == 0
        with open(out / "metric.json") as fh:
            records = json.load(fh)["records"]
        assert {r["check"] for r in records} >= {
            "slow_variation", "uncertainty", "temperance",
            "weight_admissibility"}

    def test_metric_audit_at_huge_time_is_flat_without_warnings(self,
                                                                  tmp_path):
        records = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (1e308, 1e10):
                out = tmp_path / f"ma{t:g}"
                assert run_scenario(Scenario(
                    "metric_audit", {"t": t, "n_pairs": 2000},
                    str(out))) == 0
                with open(out / "metric.json") as fh:
                    records.append(json.load(fh)["records"])
        assert records[0] == records[1]

    def test_audit_extras_keep_their_json_types(self, tmp_path):
        assert run_scenario(Scenario("symbol_audit", {"orders": [[1, 2]]},
                                     str(tmp_path / "sa"))) == 0
        with open(tmp_path / "sa" / "audit.json") as fh:
            _, _, bound = json.load(fh)["records"]
        assert (bound["alpha"], bound["beta"]) == (1, 2)
        assert type(bound["alpha"]) is int and type(bound["beta"]) is int
        assert type(bound["t"]) is float
        assert run_scenario(Scenario("metric_audit", {"n_pairs": 2000},
                                     str(tmp_path / "ma"))) == 0
        with open(tmp_path / "ma" / "metric.json") as fh:
            records = {r["check"]: r for r in json.load(fh)["records"]}
        for check in ("temperance", "weight_admissibility"):
            assert type(records[check]["N"]) is int
            assert type(records[check]["fitted_slope"]) is float
        assert type(records["slow_variation"]["pairs_in_ball"]) is int
        assert type(records["uncertainty"]["c"]) is float


class TestVerbs:
    def test_flag_the_kind_lacks_exits_2_and_writes_nothing(self, tmp_path):
        out = tmp_path / "ma"
        assert main(["audit", "metric", "--dump-matrices",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_overlong_cjs_run_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["cjs", "--xi-ladder", "16,32,64,128,256,1e6",
                     "--out", str(out)]) == 2
        assert "exceed the budget" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["table", "--step", "0.1"], ["audit", "symbols"], ["audit", "metric"],
        ["audit", "quantizer"], ["cjs"]])
    def test_empty_out_exits_2_writing_nothing(self, tmp_path, capsys,
                                               monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--out", ""]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "output_dir" in err
        assert os.listdir(tmp_path) == []

    def test_verb_defaults_are_the_runner_defaults(self, tmp_path):
        assert main(["cjs", "--out", str(tmp_path / "verb")]) == 0
        assert run_scenario(Scenario("cjs_sweep", {},
                                     str(tmp_path / "scenario"))) == 0
        for name in ("cjs.csv", "summary.json"):
            assert ((tmp_path / "verb" / name).read_bytes()
                    == (tmp_path / "scenario" / name).read_bytes())

    def test_table_verb_writes_the_scenario_file_bytes(self, tmp_path):
        assert main(["table", "--out", str(tmp_path / "verb")]) == 0
        scenario = load_scenario(
            os.path.join(SCENARIOS, "constraint_table.json"))
        assert run_scenario(replace(scenario,
                                    output_dir=str(tmp_path / "file"))) == 0
        for name in ("table.csv", "summary.json"):
            assert ((tmp_path / "verb" / name).read_bytes()
                    == (tmp_path / "file" / name).read_bytes())


class TestCjsScenario:
    def test_sweep_writes_summary_and_csv(self, tmp_path):
        out = tmp_path / "cjs"
        rc = main(["cjs", "--profile", "linear", "--k", "1",
                   "--xi-ladder", "16,32,64,128,256,512",
                   "--out", str(out)])
        assert rc == 0
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["pass"]
        assert summary["slope"] <= summary["budget"]
        with open(out / "cjs.csv") as fh:
            assert fh.readline().strip() == "xi,eps,G,steps"

    def test_unparsable_ladder_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cjs", "--xi-ladder", "16,x", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--xi-ladder" in capsys.readouterr().err
