"""Property test of the CLI contract over scenario configs.

Every scenario kind runs with its config keys set to values from one
fixed pool of wrong JSON types and extreme numbers.  A run returns 0, 1
or 2 and never raises, and a run that exits 2 leaves no output_dir.
Each reproduced case also exits with the code pinned to it.
"""

import json
import math
import os
import tempfile
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from weakhyp import cli
from weakhyp.cli import Scenario, run_scenario
from weakhyp.symbols import CoefficientField

# 2**50 doubles exceed the 48-bit address space, so an array of that
# size fails to allocate at once, whatever the overcommit policy;
# 2**1100 is an int above the double range that is a power of two, so
# it passes the checks of `n` and `sizes` but for their bound
POOL = ("x", [], {}, None, True, math.nan, math.inf, -math.inf, 0, -1, 1e308,
        1e-200, 5e-324, 2**50, 2**1100)

RULES = {
    "energy_estimate": cli.ENERGY_RULES,
    "symbol_audit": cli.SYMBOL_RULES,
    "metric_audit": cli.METRIC_RULES,
    "quantizer_audit": cli.QUANTIZER_RULES,
    "cjs_sweep": cli.CJS_RULES,
    "constraint_table": cli.TABLE_RULES,
}

# small valid configs that the drawn keys are put over, so a run that
# validates stays fast
BASE = {
    "energy_estimate": {"n": 32},
    "symbol_audit": {"orders": [[0, 0], [1, 1]]},
    "metric_audit": {"n_pairs": 64},
    "quantizer_audit": {"sizes": [16, 32]},
    "cjs_sweep": {"xi_ladder": [1, 2, 4, 8, 16, 32]},
    "constraint_table": {"step": "0.1"},
}

COEFF_KEYS = sorted(f.name for f in fields(CoefficientField))
POOL_VALUE = st.sampled_from(POOL)
COEFF_VALUE = st.one_of(POOL_VALUE, st.dictionaries(
    st.sampled_from(COEFF_KEYS), POOL_VALUE, max_size=2))


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(sorted(RULES)))
    keys = draw(st.lists(st.sampled_from(sorted(RULES[kind])), unique=True,
                         min_size=1, max_size=3))
    config = {key: draw(COEFF_VALUE if key == "coeff" else POOL_VALUE)
              for key in keys}
    return kind, config


# each of these raised a traceback, or ran, before its value was rejected;
# the last entry is the exit code it must give
REPRODUCTIONS = [
    # the first five set keys since removed, which exit 2 as unknown
    ("constraint_table", {"sigma_max": 0.2}, 2),
    ("constraint_table", {"sigma_min": 1e308}, 2),
    ("constraint_table", {"sigma_max": 0}, 2),
    ("constraint_table", {"sigma_max": -1}, 2),
    ("cjs_sweep", {"t_final": 1e308}, 2),
    ("symbol_audit", {"coeff": {"r_outer": 1e308}}, 2),
    ("quantizer_audit", {"coeff": {"x0": 0}}, 2),
    # these two ran on a packet the grid cannot hold
    ("energy_estimate", {"n": 32, "packet_xi": 100}, 2),
    ("energy_estimate", {"n": 32, "packet_xi": 1e308}, 2),
    # both composition remainders are exactly 0 at so small a c, so the
    # strict decrease fails: a roundoff finding, not yet a validity record
    ("quantizer_audit", {"c": 1e-17}, 1),
    # sizes whose arrays cannot be allocated raised MemoryError
    ("energy_estimate", {"n": 2**50}, 2),
    ("metric_audit", {"n_pairs": 2**50}, 2),
    ("quantizer_audit", {"sizes": [2**50]}, 2),
    # the dump of the size before the one that failed was left behind
    ("quantizer_audit", {"sizes": [16, 2**50], "dump_matrices": True}, 2),
    # `weakhyp table --step 0.1 --out ""` wrote into the working
    # directory; an optional fourth entry is the output_dir
    ("constraint_table", {}, 2, ""),
    # these two ended at t = 0: one step of length 0, two rows at t = 0
    ("energy_estimate", {"n": 32, "packet_xi": 4, "tau0": 0}, 2),
    ("energy_estimate", {"n": 32, "packet_xi": 4, "tau0": 0, "taudot": 1},
     2),
    # a Glaeser violation and an x-stencil outside the support raised:
    # both are failed records now
    ("symbol_audit", {"coeff": {"r": 1e-5, "r_outer": 0.2}}, 1),
    ("symbol_audit", {"coeff": {"r": 0.12, "r_outer": 0.1200001}}, 1),
    # these two planned 3.4e75 and 1.1e8 RK4 steps, and ran on
    ("energy_estimate", {"coeff": {"T_outer": 1e150}}, 2),
    ("energy_estimate", {"coeff": {"T_outer": 2**50}}, 2),
    # ints above the double range raised OverflowError where they were
    # converted to a float
    ("symbol_audit", {"t": 10**309}, 2),
    ("quantizer_audit", {"c": 10**309}, 2),
    ("energy_estimate", {"tau0": 10**309}, 2),
    ("energy_estimate", {"packet_xi": 10**309}, 2),
    ("energy_estimate", {"coeff": {"T": 10**309}}, 2),
    ("cjs_sweep", {"xi_ladder": [1, 2, 4, 8, 16, 10**309]}, 2),
    ("cjs_sweep", {"k": 10**309}, 2),
    ("energy_estimate", {"n": 2**1100}, 2),
    # numpy refused these shapes with a ValueError, not a MemoryError
    ("quantizer_audit", {"sizes": [2**64]}, 2),
    ("metric_audit", {"n_pairs": 2**63}, 2),
]


def test_every_kind_has_rules():
    assert set(RULES) == set(cli.SCENARIO_KINDS)


@settings(max_examples=120, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_any_config_exits_0_1_or_2(case):
    kind, config = case
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        rc = run_scenario(Scenario(kind, BASE[kind] | config, out))
        assert rc in (0, 1, 2)
        if rc == 2:
            assert not os.path.exists(out)


for _kind, _config, *_ in REPRODUCTIONS:
    test_any_config_exits_0_1_or_2 = example((_kind, _config))(
        test_any_config_exits_0_1_or_2)


@pytest.mark.parametrize("kind, config, code, out",
                         [r if len(r) == 4 else (*r, "out")
                          for r in REPRODUCTIONS])
def test_reproduction_exits_its_own_code(kind, config, code, out, tmp_path,
                                         monkeypatch):
    # the output_dir is relative to an empty working directory
    monkeypatch.chdir(tmp_path)
    assert run_scenario(Scenario(kind, BASE[kind] | config, out)) == code
    if code == 2:
        assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("coeff, details", [
    # an inf Glaeser constant at the first point of the violation
    ({"r": 1e-5, "r_outer": 0.2},
     {"glaeser_a": "constant inf at witness [0.0, 0.499999921875]"}),
    # a NaN stencil: every x-derivative order leaves the support at 0.38
    ({"r": 0.12, "r_outer": 0.1200001},
     {f"derivative_bound_b_a{a}b{b}": "constant nan at witness [0.38, nan]"
      for a, b in ((1, 0), (2, 0), (1, 1), (2, 1), (1, 2))}),
])
def test_failures_name_constant_and_witness(coeff, details, tmp_path):
    out = tmp_path / "out"
    # the default orders, as `weakhyp run` reads the reproduction
    assert run_scenario(Scenario("symbol_audit", {"coeff": coeff},
                                 str(out))) == 1
    with open(out / "failures.json") as fh:
        failures = json.load(fh)["failures"]
    assert {f["check"]: f["detail"] for f in failures} == details
