import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import weakhyp
import weakhyp.cli as cli_module
import weakhyp.solver as solver_module

from weakhyp.cli import Scenario, ScenarioError, load_scenario, main, run_scenario
from weakhyp.reporting import write_csv
from weakhyp.solver import (EnergyTrace, NonlinearityF, RunConfig, integrate,
                            measure_tau_threshold, run_with_energy)
from weakhyp.symbols import CoefficientField


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
    ("cjs_sweep", {"t_final": -1}),
    ("cjs_sweep", {"profile": ["linear"]}),
    ("constraint_table", {"nu": "x"}),
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


class TestValidationExitCodes:
    def test_unknown_config_key_exits_2(self, tmp_path):
        s = Scenario(kind="constraint_table",
                     config={"sigma_typo": "0.5"},
                     output_dir=str(tmp_path / "out"))
        assert run_scenario(s) == 2

    def test_c_above_two_exits_2_citing_uncertainty(self, tmp_path, capsys):
        s = Scenario(kind="energy_estimate", config={"c": 3.0, "n": 64},
                     output_dir=str(tmp_path / "out"))
        assert run_scenario(s) == 2
        err = capsys.readouterr().err
        assert "c = 3.0" in err and "uncertainty" in err

    @pytest.mark.parametrize("bad", [{"n": 100}, {"sigma": "0.5"},
                                     {"taudot": "fast"}, {"taudot": True},
                                     {"packet_xi": "x"},
                                     {"packet_width": "x"},
                                     {"packet_width": -0.02},
                                     {"packet_width": 1e-200},
                                     {"horizon": "x"}, {"horizon": -1.0},
                                     {"coeff": {"x0": 1.5}},
                                     {"assert_max_ratio": "x"},
                                     {"nonlinear": "no"},
                                     {"f21_zero": "yes"},
                                     {"n": 4096, "sigma": 0.9, "tau0": 1.0},
                                     {"coeff": {"radius_R": 0}}])
    def test_bad_energy_config_exits_2_without_traceback(self, tmp_path,
                                                         bad):
        proc = _run_cli(tmp_path, "energy_estimate", bad)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "error:" in proc.stderr

    @pytest.mark.parametrize("kind", ["energy_estimate", "symbol_audit",
                                      "metric_audit", "quantizer_audit"])
    def test_bad_coeff_exits_2(self, tmp_path, capsys, kind):
        for coeff in ({"T": 0.2}, {"radius_R": 0}, {"sigma_coeff": 0},
                      {"radius_R": -1.0}, {"x0": True}, {"r": "x"}):
            s = Scenario(kind=kind, config={"coeff": coeff},
                         output_dir=str(tmp_path / "out"))
            assert run_scenario(s) == 2
            assert "config.coeff" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        {"taudot": -1.0}, {"taudot_factor": "fast"},
        {"taudot_factor": True}, {"packet_component": 7},
        {"sample_stride": 0}, {"assert_max_ratio": "x"},
        {"nonlinear": "no"}, {"f21_zero": "yes"}, {"tau0": -0.5},
        {"coeff": 5}, {"tau0": 1.0, "n": 4096, "sigma": 0.9},
        {"packet_width": 1e308}, {"length": 1e300}])
    def test_bad_rate_or_run_key_exits_2(self, tmp_path, capsys, bad):
        s = Scenario(kind="energy_estimate", config=dict({"n": 64}, **bad),
                     output_dir=str(tmp_path / "out"))
        assert run_scenario(s) == 2
        assert next(iter(bad)) in capsys.readouterr().err

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
        ("cjs_sweep", {"t_final": -1}),
        ("constraint_table", {"nu": "x"}),
        ("cjs_sweep", {"xi_ladder": [16, 32, 64, 128, 256, 1e6]}),
        ("cjs_sweep", {"t_final": 1e9}),
        ("symbol_audit", {"coeff": {"sigma_coeff": 0}})])
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
        ("cjs_sweep", {"t_final": 1e9}), ("cjs_sweep", {"t_final": 1e308}),
        ("constraint_table", {"sigma_max": 0.2}),
        ("constraint_table", {"sigma_min": 1e308}),
        ("constraint_table", {"sigma_max": 0}),
        ("constraint_table", {"sigma_max": -1}),
        ("symbol_audit", {"coeff": {"r_outer": 1e308}}),
        ("quantizer_audit", {"coeff": {"x0": 0}}),
        ("energy_estimate", {"n": 32, "packet_xi": 100}),
        ("energy_estimate", {"packet_xi": 24.5, "packet_width": 10}),
        ("energy_estimate", {"n": 32, "packet_xi": 1e308})])
    def test_invalid_scenario_leaves_no_output_dir(self, tmp_path, kind, bad):
        s = Scenario(kind=kind, config=bad, output_dir=str(tmp_path / "out"))
        assert run_scenario(s) == 2
        assert not (tmp_path / "out").exists()

    def test_output_dir_naming_a_file_exits_2(self, tmp_path):
        (tmp_path / "out").write_text("")
        proc = _run_cli(tmp_path, "constraint_table",
                        {"sigma_min": "0.45", "sigma_max": "0.55",
                         "step": "0.01"})
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
                 "config": {"sigma_min": "0.45", "sigma_max": "0.55",
                            "step": "0.01"},
                 "output_dir": str(tmp_path / name)}))
        assert main(["run"] + paths) == 0
        assert (tmp_path / "x" / "table.csv").exists()
        assert (tmp_path / "y" / "table.csv").exists()

    def test_quantizer_dump_flag_writes_raw_matrices(self, tmp_path):
        import numpy as np
        out = tmp_path / "dump"
        rc = main(["audit", "quantizer", "--dump-matrices", "--out", str(out)])
        assert rc == 0
        raw = np.fromfile(out / "op_b_n128.bin", dtype="<c16")
        assert raw.shape == (128 * 128,)
        mat = raw.reshape(128, 128)
        assert np.abs(mat - mat.conj().T).max() < 1e-12


class TestConstraintTableScenario:
    def test_writes_csv_and_summary(self, tmp_path):
        out = tmp_path / "table"
        rc = main(["table", "--sigma-min", "0.45", "--sigma-max", "0.55",
                   "--step", "0.001", "--nu", "4", "--out", str(out)])
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
        rc = main(["table", "--sigma-min", "0.3", "--sigma-max", "0.4",
                   "--step", "0.001", "--nu", "4", "--f21-zero",
                   "--out", str(out)])
        assert rc == 0
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        assert 0.333 <= summary["min_feasible_sigma"] <= 0.334

    def test_table_over_the_row_cap_exits_2_at_once(self, tmp_path,
                                                   capsys):
        out = tmp_path / "t"
        assert main(["table", "--step", "1e-9", "--out", str(out)]) == 2
        assert "690000001 rows" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        args = ["table", "--sigma-min", "0.4", "--sigma-max", "0.6",
                "--step", "0.01", "--nu", "4"]
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
        monkeypatch.setattr(cli_module, "measure_tau_threshold",
                            lambda cfg: measured(cfg) * (1 + 1e-15))
        drifted = self._summary(tmp_path, "b", taudot="auto")
        assert drifted["taudot"] != first["taudot"]
        assert drifted["config"]["taudot"] == drifted["taudot"]
        assert drifted["config_hash"] == first["config_hash"]

    PILOT = {"n": 64, "sigma": 0.5, "tau0": 0.5, "packet_xi": 10.0,
             "sample_stride": 8}

    def _run_auto(self, tmp_path, monkeypatch, **config):
        """An auto-rate run: (its exit code, its output dir, its RK4 steps)."""
        steps = []
        step = solver_module.step_rk4

        def counting(*args):
            steps.append(args[1])
            return step(*args)

        monkeypatch.setattr(solver_module, "step_rk4", counting)
        out = tmp_path / "auto"
        code = run_scenario(Scenario(
            "energy_estimate", dict(self.PILOT, taudot="auto", **config),
            str(out)))
        monkeypatch.undo()
        return code, out, len(steps)

    def _reference(self, tmp_path, factor):
        """measure_tau_threshold, then run_with_energy at factor times it."""
        cfg = RunConfig(coeff=CoefficientField(), **self.PILOT)
        threshold = measure_tau_threshold(cfg)
        final = replace(cfg, taudot=factor * threshold)
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

    def test_auto_rate_observes_the_pilot_trajectory_again(self, tmp_path,
                                                           monkeypatch):
        code, out, steps = self._run_auto(tmp_path, monkeypatch)
        assert code == 0
        cfg, final, _, _ = reference = self._reference(tmp_path, 2.0)
        self._check_against(out, reference)
        # the final run ends at T with the pilot's steps: no second run
        assert final.t_end() == cfg.t_end()
        assert steps == integrate(cfg).n_steps

    def test_shorter_horizon_integrates_the_final_rate_again(self, tmp_path,
                                                             monkeypatch):
        code, out, steps = self._run_auto(tmp_path, monkeypatch,
                                          taudot_factor=8.0)
        assert code == 0
        cfg, final, _, _ = reference = self._reference(tmp_path, 8.0)
        self._check_against(out, reference)
        assert final.t_end() == final.tau0 / final.taudot < cfg.t_end()
        assert steps == integrate(cfg).n_steps + integrate(final).n_steps

    @pytest.mark.parametrize("t_blowup", [0.01, -1.0])
    def test_aborted_pilot_exits_1_naming_its_reason(self, tmp_path,
                                                     monkeypatch, t_blowup):
        # -1: the right-hand side is not finite at the first record
        explode = NonlinearityF(lambda t, x: np.where(
            t > t_blowup, np.nan, 0.0))
        monkeypatch.setattr(NonlinearityF, "wave_default",
                            staticmethod(lambda coeff: explode))
        out = tmp_path / "pilot"
        s = Scenario("energy_estimate", dict(self.PILOT, taudot="auto"),
                     str(out))
        assert run_scenario(s) == 1
        with open(out / "failures.json") as fh:
            (failure,) = json.load(fh)["failures"]
        assert failure["check"] == "pilot_completed"
        assert failure["detail"].startswith(
            "pilot run aborted: non-finite right-hand side at t = ")

    def test_f21_zero_is_the_linear_run(self, tmp_path):
        # the default F is its F21 entry alone, so f21_zero leaves F = 0
        runs = [self._summary(tmp_path, "f21", nonlinear=True, f21_zero=True),
                self._summary(tmp_path, "linear", nonlinear=False)]
        assert runs[0] == runs[1]
        assert runs[0]["config"]["nonlinear"] is False
        assert ((tmp_path / "f21" / "trace.csv").read_bytes()
                == (tmp_path / "linear" / "trace.csv").read_bytes())

    def test_config_hash_tells_rate_rules_apart(self, tmp_path):
        hashes = {self._summary(tmp_path, str(i), taudot=taudot)["config_hash"]
                  for i, taudot in enumerate(("auto", 3.0, 4.0))}
        assert len(hashes) == 3


class TestAuditScenarios:
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
            glaeser, _, bound = json.load(fh)["records"]
        assert type(glaeser["shrink_ok"]) is bool
        assert type(glaeser["sqrt_C"]) is float
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


    @pytest.mark.parametrize("coeff", [{"radius_R": 1e-300},
                                       {"sigma_coeff": 1e-4}])
    def test_extreme_gevrey_data_audit_without_traceback(self, tmp_path,
                                                         coeff):
        proc = _run_cli(tmp_path, "symbol_audit",
                        {"coeff": coeff, "orders": [[0, 0]]})
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        with open(tmp_path / "out" / "audit.json") as fh:
            glaeser = json.load(fh)["records"][0]
        if "radius_R" in coeff:
            # the seminorm overflows, and so fails the comparison
            assert glaeser["seminorm_R"] == float("inf")
            assert not glaeser["shrink_ok"]

    def test_xi_max_at_the_cap_audits_cleanly(self, tmp_path):
        proc = _run_cli(tmp_path, "metric_audit",
                        {"xi_max": cli_module.XI_MAX_CAP, "n_pairs": 200})
        assert proc.returncode == 0
        assert proc.stderr == ""
        with open(tmp_path / "out" / "metric.json") as fh:
            records = json.load(fh)["records"]
        assert all(r["pass"] and math.isfinite(r["constant"])
                   for r in records)

    def test_xi_max_past_the_cap_exits_2(self, tmp_path):
        # <xi_max>^2 overflows just above the cap
        for xi_max in (math.nextafter(cli_module.XI_MAX_CAP, math.inf),
                       1e160):
            proc = _run_cli(tmp_path, "metric_audit", {"xi_max": xi_max})
            assert proc.returncode == 2
            assert proc.stderr.startswith("error: xi_max = ")
            assert "Traceback" not in proc.stderr
            assert "RuntimeWarning" not in proc.stderr
            assert not (tmp_path / "out").exists()


class TestVerbs:
    def test_flag_the_kind_lacks_exits_2_and_writes_nothing(self, tmp_path):
        out = tmp_path / "ma"
        assert main(["audit", "metric", "--dump-matrices",
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["table", "--sigma-max", "0.2"], ["table", "--sigma-min", "1e308"],
        ["table", "--sigma-max", "0"], ["table", "--sigma-max", "-1"],
        ["cjs", "--t-final", "1e308"]])
    def test_empty_table_or_overlong_run_exits_2(self, tmp_path, capsys,
                                                 argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_verb_defaults_are_the_runner_defaults(self, tmp_path):
        assert main(["cjs", "--out", str(tmp_path / "verb")]) == 0
        assert run_scenario(Scenario("cjs_sweep", {},
                                     str(tmp_path / "scenario"))) == 0
        for name in ("cjs.csv", "summary.json"):
            assert ((tmp_path / "verb" / name).read_bytes()
                    == (tmp_path / "scenario" / name).read_bytes())


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
