"""Scenario orchestration and the command-line interface.

Verbs:

    weakhyp run <scenario.json> [...]   execute scenario files
    weakhyp table --sigma-min ... --sigma-max ... --step ... --nu N
    weakhyp audit <symbols|metric|quantizer>
    weakhyp cjs --k K --xi-ladder 16,32,...

Scenario files are JSON with a "kind", an "output_dir" and a "config"
section; unknown config keys are rejected (exit 2) since a silently
ignored sigma or c would invalidate a run.  Exit codes: 0 all embedded
assertions passed, 1 an assertion failed (failures.json written),
2 the scenario did not validate.  Every config value is type- and
range-checked before any work starts.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import Optional

from . import audits, cjs
from .constraints import constraint_table, minimal_feasible_sigma
from .quantize import (SymbolField, hermiticity_defect, invert_b,
                       operator_norm, quantize, sample_symbol_b)
from .reporting import write_csv, write_json
from .solver import (EnergyTrace, NonlinearityF, RunConfig,
                     SolverBlowupError, integrate, measure_tau_threshold,
                     observe, run_with_energy)
from .spectral import SQUARE_CAP, Grid
from .symbols import CoefficientField, PhaseMetric, SymbolB

__all__ = ["Scenario", "load_scenario", "run_scenario", "main"]


class ScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    kind: str
    config: dict
    output_dir: str

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ScenarioError(
                f"unknown scenario kind {self.kind!r}; "
                f"expected one of {', '.join(SCENARIO_KINDS)}"
            )


def _check_keys(section: dict, allowed, where: str) -> None:
    if not isinstance(section, dict):
        raise ScenarioError(f"{where} must be a JSON object")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ScenarioError(
            f"unknown keys in {where}: {', '.join(sorted(unknown))}"
        )


def _real(value) -> bool:
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and math.isfinite(value))


def _int(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


# (predicate, what it asks for) of a config value
REAL = (_real, "a finite real")
NONNEGATIVE = (lambda v: _real(v) and v >= 0, "a finite real >= 0")
POSITIVE = (lambda v: _real(v) and v > 0, "a finite real > 0")
COUNT = (lambda v: _int(v) and v >= 0, "an int >= 0")
BOOL = (lambda v: isinstance(v, bool), "true or false")
RATE = (lambda v: v is None or v == "auto" or NONNEGATIVE[0](v),
        '"auto", null or a finite real >= 0')


def _check_config(section: dict, rules: dict) -> None:
    """Reject unknown keys and present values that break their rule.

    `rules` maps every allowed key to a rule, or to None where the
    object built from the value validates it.
    """
    _check_keys(section, rules, "config")
    for key, rule in rules.items():
        if rule and key in section and not rule[0](section[key]):
            raise ScenarioError(f"{key} = {section[key]!r} must be {rule[1]}")


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ScenarioError(f"cannot read scenario {path}: {err}") from err
    _check_keys(raw, {"kind", "config", "output_dir"}, path)
    for key in ("kind", "output_dir"):
        if key not in raw:
            raise ScenarioError(f"scenario {path} is missing {key!r}")
    return Scenario(kind=raw["kind"], config=raw.get("config", {}),
                    output_dir=raw["output_dir"])


def _coeff_from_config(section: Optional[dict]) -> CoefficientField:
    if not section:
        return CoefficientField()
    _check_keys(section, [f.name for f in fields(CoefficientField)],
                "config.coeff")
    try:
        return CoefficientField(**section)
    except (TypeError, ValueError) as err:
        raise ScenarioError(f"config.coeff: {err}") from err


def _symbol_b(cfg_raw: dict, default_c: float) -> SymbolB:
    """The weight b of an audit scenario's `coeff` and `c` keys."""
    coeff = _coeff_from_config(cfg_raw.get("coeff"))
    try:
        return SymbolB(coeff, c=cfg_raw.get("c", default_c))
    except ValueError as err:
        raise ScenarioError(str(err)) from err


# RunConfig validates the keys without a rule
ENERGY_RULES = dict.fromkeys(
    ("n", "length", "sigma", "c", "tau0", "packet_xi", "packet_width",
     "packet_component", "sample_stride", "horizon", "coeff")) | {
    "taudot": RATE, "taudot_factor": RATE,
    "nonlinear": BOOL, "f21_zero": BOOL,
    "assert_max_ratio": (lambda v: v is None or _real(v),
                         "null or a finite real"),
}


def _run_energy_estimate(cfg_raw: dict, out: str) -> list:
    _check_config(cfg_raw, ENERGY_RULES)
    coeff = _coeff_from_config(cfg_raw.get("coeff"))
    # the RunConfig fields among the keys are passed through as given
    passed = {f.name for f in fields(RunConfig)} - {"coeff", "taudot"}
    kwargs = {k: v for k, v in cfg_raw.items() if k in passed}
    kwargs["coeff"] = coeff
    # the default F has only its F21 entry, so f21_zero leaves F = 0
    if not cfg_raw.get("nonlinear", True) or cfg_raw.get("f21_zero", False):
        kwargs["nonlinearity"] = NonlinearityF.zero()
    try:
        cfg = RunConfig(**kwargs)
    except (TypeError, ValueError) as err:
        raise ScenarioError(str(err)) from err

    taudot = cfg_raw.get("taudot")
    factor = cfg_raw.get("taudot_factor")
    # the hash names the configuration: the rate rule as given, not the
    # rate the pilot measures for it
    config_hash = cfg.content_hash(taudot=taudot, taudot_factor=factor)
    threshold = pilot = None
    if taudot is None or taudot == "auto":
        # cfg has taudot = 0: its trajectory is the pilot's
        pilot = integrate(cfg)
        try:
            threshold = measure_tau_threshold(pilot)
        except SolverBlowupError as err:
            return [{"check": "pilot_completed", "detail": str(err)}]
        taudot = (2.0 if factor in (None, "auto") else factor) * threshold
    cfg = replace(cfg, taudot=float(taudot))

    # the pilot ends at T; a rate with tau0 / taudot < T ends earlier
    if pilot is not None and pilot.covers(cfg):
        trace = observe(cfg, pilot)
    else:
        trace = run_with_energy(cfg)
    write_csv(os.path.join(out, "trace.csv"), trace.rows(),
              EnergyTrace.COLUMNS)
    summary = {
        "max_ratio": trace.max_ratio(),
        "threshold": threshold,
        "taudot": cfg.taudot,
        "horizon": cfg.t_end(),
        "aborted": trace.aborted,
        "config_hash": config_hash,
        "config": cfg.describe(),
    }
    write_json(os.path.join(out, "summary.json"), summary)
    failures = []
    if trace.aborted:
        failures.append({"check": "run_completed", "detail": trace.abort_reason})
    cap = cfg_raw.get("assert_max_ratio")
    if cap is not None and trace.max_ratio() > cap:
        failures.append({"check": "max_ratio", "detail":
                         f"max_ratio {trace.max_ratio()} > cap {cap}"})
    return failures


AUDIT_RULES = {"c": REAL, "t": NONNEGATIVE, "coeff": None}
ORDERS = (lambda v: isinstance(v, list) and all(
    isinstance(o, list) and len(o) == 2 and all(map(COUNT[0], o))
    and sum(o) <= 4 for o in v),
    "a list of [alpha, beta] pairs of ints >= 0 with alpha + beta <= 4")


SYMBOL_RULES = AUDIT_RULES | {"orders": ORDERS}


def _run_symbol_audit(cfg_raw: dict, out: str) -> list:
    _check_config(cfg_raw, SYMBOL_RULES)
    sb = _symbol_b(cfg_raw, 1.0)
    coeff = sb.coeff
    t = cfg_raw.get("t", 0.0)
    orders = [tuple(o) for o in cfg_raw.get("orders",
                                            [[0, 0], [1, 0], [0, 1], [2, 0],
                                             [1, 1], [0, 2], [2, 1], [1, 2]])]
    reports = [audits.glaeser_audit_a(coeff),
               audits.faa_di_bruno_check()]
    for alpha, beta in orders:
        reports.append(audits.derivative_bound_audit(sb, alpha, beta, t=t))
    write_json(os.path.join(out, "audit.json"),
               {"records": [r.as_dict() for r in reports]})
    return [{"check": r.check, "detail": "failed"}
            for r in reports if not r.passed]


# the largest xi_max whose <xi_max>^2 = 1 + xi_max^2 is a finite float
XI_MAX_CAP = SQUARE_CAP
METRIC_RULES = AUDIT_RULES | {
    "n_pairs": (lambda v: _int(v) and v >= 1, "an int >= 1"),
    "xi_max": (lambda v: POSITIVE[0](v) and v <= XI_MAX_CAP,
               f"a finite real > 0 and <= {XI_MAX_CAP:.17g}, above which "
               "<xi_max>^2 overflows"),
    "seed": COUNT,
}


def _run_metric_audit(cfg_raw: dict, out: str) -> list:
    _check_config(cfg_raw, METRIC_RULES)
    pm = PhaseMetric(_symbol_b(cfg_raw, 1.0))
    kwargs = {k: cfg_raw[k] for k in ("t", "n_pairs", "xi_max", "seed")
              if k in cfg_raw}
    reports = audits.metric_admissibility_audit(pm, **kwargs)
    weight = audits.weight_admissibility_audit(
        pm, **{k: v for k, v in kwargs.items() if k != "seed"})
    records = [r.as_dict() for r in reports.values()] + [weight.as_dict()]
    write_json(os.path.join(out, "metric.json"), {"records": records})
    return [{"check": r["check"], "detail": "failed"}
            for r in records if not r["pass"]]


QUANTIZER_RULES = AUDIT_RULES | {
    "sizes": (lambda v: isinstance(v, list) and len(v) > 0 and all(
        _int(n) and n > 0 and n & (n - 1) == 0 for n in v),
        "a non-empty list of positive power-of-two ints"),
    "dump_matrices": BOOL,
}


def _run_quantizer_audit(cfg_raw: dict, out: str) -> list:
    _check_config(cfg_raw, QUANTIZER_RULES)
    sb = _symbol_b(cfg_raw, 0.5)
    coeff = sb.coeff
    t = cfg_raw.get("t", 0.0)
    sizes = cfg_raw.get("sizes", [128, 256])
    dump = cfg_raw.get("dump_matrices", False)
    try:
        grids = [Grid(n, 1.0, coeff.x0) for n in sizes]
    except ValueError as err:   # x0 outside the unit period
        raise ScenarioError(f"config.coeff: {err}") from err
    records = []
    comp_norms = []
    for grid in grids:
        n = grid.n
        bf = sample_symbol_b(sb, grid, t)
        B = quantize(bf)
        if dump:
            # raw row-major complex doubles, little-endian
            os.makedirs(out, exist_ok=True)
            B.astype("<c16").tofile(os.path.join(out, f"op_b_n{n}.bin"))
        herm = hermiticity_defect(B)
        records.append({"check": f"hermiticity_n{n}", "constant": herm,
                        "pass": herm <= 1e-10})
        R = B @ B - quantize(
            SymbolField(grid, bf.samples**2, time=t, label="b^2"))
        comp_norms.append(operator_norm(R))
        records.append({"check": f"compose_norm_n{n}",
                        "constant": comp_norms[-1], "pass": True})
    for lo, hi in zip(comp_norms, comp_norms[1:]):
        # at c near 0 op(b) composes exactly and both norms can be 0:
        # the ratio is IEEE's, nan for 0/0 and inf for x/0
        ratio = hi / lo if lo else (math.nan if hi == 0.0 else math.inf)
        records.append({"check": "compose_norm_decreases",
                        "constant": ratio, "pass": hi < lo})

    _, defects = invert_b(sb, 2, t, grids[-1])
    records.append({"check": "invert_defects", "constant": defects[-1],
                    "pass": defects[0] >= defects[1] >= defects[2],
                    "defects": defects})
    write_json(os.path.join(out, "quantizer.json"), {"records": records})
    return [{"check": r["check"], "detail": "failed"}
            for r in records if not r["pass"]]


CJS_PROFILES = {"linear": cjs.coefficient_linear,
                "parabola": cjs.coefficient_parabola,
                "constant": cjs.coefficient_constant}
CJS_RULES = {
    "profile": (lambda v: isinstance(v, str) and v in CJS_PROFILES,
                "one of " + ", ".join(CJS_PROFILES)),
    "k": (lambda v: v is None or COUNT[0](v), "null or an int >= 0"),
    "xi_ladder": (lambda v: isinstance(v, list) and len(v) >= 6
                  and all(map(POSITIVE[0], v)),
                  "a list of at least 6 finite reals > 0"),
    "t_final": POSITIVE,
}


def _run_cjs_sweep(cfg_raw: dict, out: str) -> list:
    _check_config(cfg_raw, CJS_RULES)
    profile = cfg_raw.get("profile", "linear")
    tc = CJS_PROFILES[profile]()
    ladder = cfg_raw.get("xi_ladder", [2**j for j in range(4, 11)])
    T = cfg_raw.get("t_final", 1.0)
    try:
        fit = cjs.growth_exponent_fit(tc, ladder, T, k=cfg_raw.get("k"))
    except cjs.StepBudgetError as err:
        raise ScenarioError(str(err)) from err
    budget = 2.0 / (fit["k"] + 2.0) + 0.05
    passed = fit["no_growth"] or fit["slope"] <= budget
    write_csv(os.path.join(out, "cjs.csv"),
              ({"xi": r["xi"], "eps": r["eps"], "G": r["G"],
                "steps": r["steps"]} for r in fit["rows"]),
              ("xi", "eps", "G", "steps"))
    write_json(os.path.join(out, "summary.json"),
               {"k": fit["k"], "slope": fit["slope"],
                "intercept": fit["intercept"], "residual": fit["residual"],
                "budget": budget, "pass": passed,
                "no_growth": fit["no_growth"], "profile": profile})
    if not passed:
        return [{"check": "growth_exponent",
                 "detail": f"slope {fit['slope']} > budget {budget}"}]
    return []


# constraint_table validates the sigma range and step
TABLE_RULES = {"sigma_min": None, "sigma_max": None, "step": None,
               "nu": COUNT, "f21_zero": BOOL}


def _run_constraint_table(cfg_raw: dict, out: str) -> list:
    _check_config(cfg_raw, TABLE_RULES)
    try:
        records = constraint_table(
            str(cfg_raw.get("sigma_min", "0.3")),
            str(cfg_raw.get("sigma_max", "0.99")),
            str(cfg_raw.get("step", "0.001")),
            nu=cfg_raw.get("nu", 4),
            f21_zero=cfg_raw.get("f21_zero", False),
        )
    except ValueError as err:
        raise ScenarioError(str(err)) from err
    if not records:
        raise ScenarioError("the sigma range is empty: sigma_min > sigma_max")
    rows = [r.as_dict() for r in records]
    fields = list(rows[0].keys())
    write_csv(os.path.join(out, "table.csv"), rows, fields)
    minimal = minimal_feasible_sigma(records)
    write_json(os.path.join(out, "summary.json"),
               {"min_feasible_sigma":
                float(minimal) if minimal is not None else None,
                "n_rows": len(rows)})
    return []


_RUNNERS = {
    "energy_estimate": _run_energy_estimate,
    "symbol_audit": _run_symbol_audit,
    "metric_audit": _run_metric_audit,
    "quantizer_audit": _run_quantizer_audit,
    "cjs_sweep": _run_cjs_sweep,
    "constraint_table": _run_constraint_table,
}
SCENARIO_KINDS = tuple(_RUNNERS)


def run_scenario(scenario: Scenario) -> int:
    """Execute one scenario. 0 = pass, 1 = failed checks, 2 = invalid.

    The writers make the output directory, so a scenario that does not
    validate leaves none behind; one that cannot be written exits 2.
    """
    try:
        failures = _RUNNERS[scenario.kind](scenario.config,
                                           scenario.output_dir)
        if failures:
            write_json(os.path.join(scenario.output_dir, "failures.json"),
                       {"failures": failures})
    except (ScenarioError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 1 if failures else 0


def _cmd_run(args) -> int:
    try:
        scenarios = [load_scenario(p) for p in args.scenario]
        dirs = [os.path.abspath(s.output_dir) for s in scenarios]
        if len(set(dirs)) != len(dirs):
            raise ScenarioError(
                "scenario jobs must own their output directories exclusively; "
                "duplicate output_dir found"
            )
    except ScenarioError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return max(run_scenario(s) for s in scenarios)


AUDIT_KINDS = {"symbols": "symbol_audit", "metric": "metric_audit",
               "quantizer": "quantizer_audit"}


def _cmd_verb(args) -> int:
    """table, audit and cjs: the flags the user gave are the config."""
    config = vars(args)
    del config["command"], config["fn"]
    output_dir = config.pop("out")
    kind = config.pop("kind", None) or AUDIT_KINDS[config.pop("target")]
    return run_scenario(Scenario(kind=kind, config=config,
                                 output_dir=output_dir))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="weakhyp",
        description="spectral experiments for the weakly hyperbolic model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute scenario files")
    p_run.add_argument("scenario", nargs="+")
    p_run.set_defaults(fn=_cmd_run)

    # the verbs below pass only the flags given; the runners own the defaults
    p_table = sub.add_parser("table", help="constraint feasibility table",
                             argument_default=argparse.SUPPRESS)
    p_table.add_argument("--sigma-min")
    p_table.add_argument("--sigma-max")
    p_table.add_argument("--step")
    p_table.add_argument("--nu", type=int)
    p_table.add_argument("--f21-zero", action="store_true")
    p_table.add_argument("--out", default="out/table")
    p_table.set_defaults(fn=_cmd_verb, kind="constraint_table")

    p_audit = sub.add_parser("audit", help="run an audit bundle",
                             argument_default=argparse.SUPPRESS)
    p_audit.add_argument("target", choices=AUDIT_KINDS)
    p_audit.add_argument("--c", type=float)
    p_audit.add_argument("--dump-matrices", action="store_true",
                         help="write assembled operators as raw complex128")
    p_audit.add_argument("--out", default="out/audit")
    p_audit.set_defaults(fn=_cmd_verb)

    p_cjs = sub.add_parser("cjs", help="scalar-mode growth sweep",
                           argument_default=argparse.SUPPRESS)
    p_cjs.add_argument("--k", type=int)
    # a ValueError here is argparse's usage error, exit 2
    p_cjs.add_argument("--xi-ladder",
                       type=lambda s: [float(v) for v in s.split(",")])
    p_cjs.add_argument("--profile", choices=CJS_PROFILES)
    p_cjs.add_argument("--t-final", type=float)
    p_cjs.add_argument("--out", default="out/cjs")
    p_cjs.set_defaults(fn=_cmd_verb, kind="cjs_sweep")

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
