"""Property test of the CLI contract over scenario configs.

Every scenario kind runs with its config keys set to values from one
fixed pool of wrong JSON types and extreme numbers.  A run returns 0, 1
or 2 and never raises, and a run that exits 2 leaves no output_dir.
Each reproduced case also exits with the code pinned to it.
"""

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

POOL = ("x", [], {}, None, True, math.nan, math.inf, -math.inf, 0, -1, 1e308,
        1e-200, 5e-324)

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
    ("constraint_table", {"sigma_max": 0.2}, 2),
    ("constraint_table", {"sigma_min": 1e308}, 2),
    ("constraint_table", {"sigma_max": 0}, 2),
    ("constraint_table", {"sigma_max": -1}, 2),
    ("cjs_sweep", {"t_final": 1e308}, 2),
    ("energy_estimate", {"packet_width": 1e308}, 2),
    ("energy_estimate", {"length": 1e300}, 2),
    ("symbol_audit", {"coeff": {"r_outer": 1e308}}, 2),
    ("quantizer_audit", {"coeff": {"x0": 0}}, 2),
    # these three ran on a packet the grid cannot hold
    ("energy_estimate", {"n": 32, "packet_xi": 100}, 2),
    ("energy_estimate", {"n": 64, "packet_xi": 24.5, "packet_width": 10}, 2),
    ("energy_estimate", {"n": 32, "packet_xi": 1e308}, 2),
    # a width whose square underflows divided 0 by 0 at the packet centre
    ("energy_estimate", {"packet_width": 1e-200}, 2),
    # both composition remainders are exactly 0 at so small a c, so the
    # strict decrease fails: a roundoff finding, not yet a validity record
    ("quantizer_audit", {"c": 1e-17}, 1),
    # a factor that cannot scale a given rate changed only the hash
    ("energy_estimate", {"taudot": 0, "taudot_factor": 2}, 2),
    # `weakhyp table --step 0.1 --out ""` wrote into the working
    # directory; an optional fourth entry is the output_dir
    ("constraint_table", {}, 2, ""),
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
