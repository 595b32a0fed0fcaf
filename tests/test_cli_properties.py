"""Property test of the CLI contract over scenario configs.

Every scenario kind runs with its config keys set to values from one
fixed pool of wrong JSON types and extreme numbers.  A run returns 0, 1
or 2 and never raises, and a run that exits 2 leaves no output_dir.
"""

import math
import os
import tempfile
from dataclasses import fields

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


# each of these raised a traceback, or ran, before its value was rejected
REPRODUCTIONS = [
    ("constraint_table", {"sigma_max": 0.2}),
    ("constraint_table", {"sigma_min": 1e308}),
    ("constraint_table", {"sigma_max": 0}),
    ("constraint_table", {"sigma_max": -1}),
    ("cjs_sweep", {"t_final": 1e308}),
    ("energy_estimate", {"packet_width": 1e308}),
    ("energy_estimate", {"length": 1e300}),
    ("symbol_audit", {"coeff": {"r_outer": 1e308}}),
    ("quantizer_audit", {"coeff": {"x0": 0}}),
    # these three ran on a packet the grid cannot hold
    ("energy_estimate", {"n": 32, "packet_xi": 100}),
    ("energy_estimate", {"n": 64, "packet_xi": 24.5, "packet_width": 10}),
    ("energy_estimate", {"n": 32, "packet_xi": 1e308}),
    # a width whose square underflows divided 0 by 0 at the packet centre
    ("energy_estimate", {"packet_width": 1e-200}),
    # both composition remainders are exactly 0 at so small a c
    ("quantizer_audit", {"c": 1e-17}),
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


for _case in REPRODUCTIONS:
    test_any_config_exits_0_1_or_2 = example(_case)(
        test_any_config_exits_0_1_or_2)
