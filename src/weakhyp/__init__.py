"""Spectral laboratory for a weakly hyperbolic 2x2 model system.

The package simulates the degenerate first-order system, builds the
anisotropic pseudo-differential symmetrizer, tracks the Gevrey energy
and its four-term budget, and numerically audits the analytic
inequalities (Glaeser, symbol bounds, metric admissibility) the
construction rests on.
"""

from .spectral import Grid, bracket
from .symbols import CoefficientField, PhaseMetric, SymbolB
from .quantize import (SymbolField, dequantize, hermiticity_defect, invert_b,
                       operator_norm, quantize, sample_symbol, sample_symbol_b)
from .energy import (EnergyBreakdown, Symmetrizer, conjugated_matrix,
                     dt_energy_breakdown, energy, garding_sign_probe,
                     subprincipal_refinement)
from .solver import (EnergyTrace, NonlinearityF, RunConfig, Trajectory,
                     integrate, measure_tau_threshold, observe, rhs,
                     rhs_parts, run_with_energy, step_rk4,
                     verify_breakdown_identity, wave_packet)
from .cjs import (TimeCoefficient, coefficient_constant, coefficient_linear,
                  coefficient_parabola, growth_exponent_fit, max_energy_growth)
from .constraints import (ConstraintRecord, constraint_record,
                          constraint_table, minimal_feasible_sigma)

__version__ = "0.1.0"
