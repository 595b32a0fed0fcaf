"""Exact-arithmetic feasibility engine for the (c, sigma, nu) system.

The energy estimate closes only if six inequalities between the
regularization order c, the Gevrey index sigma and the calculus depth
nu hold simultaneously.  Two of them force the coupling c = 2(1 -
sigma); the rest then pin the admissible sigma range.  Everything here
is evaluated in rational arithmetic so grid sweeps are exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

__all__ = [
    "constraint_record",
    "constraint_table",
    "minimal_feasible_sigma",
]

MAX_TABLE_ROWS = 100_000  # the most rows one table may have
NU = 4                    # the calculus depth nu of every row
SIGMA_MIN, SIGMA_MAX = Fraction("0.3"), Fraction("0.99")  # holds 1/3, 1/2


def as_fraction(x) -> Fraction:
    """Exact rational from int, Fraction, decimal string, or float.

    Floats go through their shortest decimal repr, so 0.001 means
    1/1000, not its binary approximation.
    """
    if isinstance(x, float):
        return Fraction(repr(x))
    return Fraction(x)


def constraint_record(sigma, f21_zero: bool = False) -> dict:
    """One table row at the coupling c = 2(1 - sigma) and nu = NU: sigma,
    c, nu, f21_zero, feasible (every slack <= 0), then slack_<name> per
    active constraint, with sigma, c and the slacks exact Fractions."""
    sigma = as_fraction(sigma)
    if not (0 < sigma < 1):
        raise ValueError(f"sigma = {sigma} must lie in (0, 1)")
    nu, c = NU, 2 * (1 - sigma)
    slacks = {
        "transport_error": 1 - c / 2 - sigma,
        "calculus_remainder": c / 2 - 1 + Fraction(1 - sigma, 3 + nu),
        "conjugation_error": c / 2 + sigma - 1,
        "symmetrizer_dt": c - sigma - 1,
        "symmetrizer_dt_tail": c * (4 + nu) / 2 - sigma - nu - 2,
    }
    if not f21_zero:
        slacks["nonlinear_coupling"] = c / 2 - sigma
    return {"sigma": sigma, "c": c, "nu": nu, "f21_zero": f21_zero,
            "feasible": all(s <= 0 for s in slacks.values()),
            **{f"slack_{name}": s for name, s in slacks.items()}}


def constraint_table(step, f21_zero: bool = False) -> list:
    """One `constraint_record` row per sigma of the rational grid from
    SIGMA_MIN by `step` up to SIGMA_MAX; a grid of more than
    MAX_TABLE_ROWS points raises ValueError before any row."""
    st = as_fraction(step)
    if st <= 0:
        raise ValueError("step must be positive")
    n_rows = math.floor((SIGMA_MAX - SIGMA_MIN) / st) + 1
    if n_rows > MAX_TABLE_ROWS:
        raise ValueError(f"the table would have {n_rows} rows, more than "
                         f"{MAX_TABLE_ROWS}; raise step")
    return [constraint_record(SIGMA_MIN + k * st, f21_zero=f21_zero)
            for k in range(n_rows)]


def minimal_feasible_sigma(records: Sequence[dict]) -> Optional[Fraction]:
    feasible = [r["sigma"] for r in records if r["feasible"]]
    return min(feasible) if feasible else None
