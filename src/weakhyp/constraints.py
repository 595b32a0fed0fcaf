"""Exact-arithmetic feasibility engine for the (c, sigma, nu) system.

The energy estimate closes only if six inequalities between the
regularization order c, the Gevrey index sigma and the calculus depth
nu hold simultaneously.  Two of them force the coupling c = 2(1 -
sigma); the rest then pin the admissible sigma range.  Everything here
is evaluated in rational arithmetic so grid sweeps are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

__all__ = [
    "ConstraintRecord",
    "constraint_slacks",
    "constraint_record",
    "constraint_table",
    "minimal_feasible_sigma",
]

MAX_TABLE_ROWS = 100_000  # the most rows one table may have


def as_fraction(x) -> Fraction:
    """Exact rational from int, Fraction, decimal string, or float.

    Floats go through their shortest decimal repr, so 0.001 means
    1/1000, not its binary approximation.
    """
    if isinstance(x, float):
        return Fraction(repr(x))
    return Fraction(x)


@dataclass(frozen=True)
class ConstraintRecord:
    sigma: Fraction
    c: Fraction
    nu: int
    f21_zero: bool
    slacks: dict
    feasible: bool

    def as_dict(self) -> dict:
        d = {
            "sigma": float(self.sigma),
            "c": float(self.c),
            "nu": self.nu,
            "f21_zero": self.f21_zero,
            "feasible": self.feasible,
        }
        for name, s in self.slacks.items():
            d[f"slack_{name}"] = float(s)
        return d


def constraint_slacks(sigma: Fraction, c: Fraction, nu: int,
                      f21_zero: bool) -> dict:
    """All active slack values; feasibility means every slack <= 0."""
    sigma = as_fraction(sigma)
    c = as_fraction(c)
    slacks = {
        "transport_error": 1 - c / 2 - sigma,
        "calculus_remainder": c / 2 - 1 + Fraction(1 - sigma, 3 + nu),
        "conjugation_error": c / 2 + sigma - 1,
        "symmetrizer_dt": c - sigma - 1,
        "symmetrizer_dt_tail": c * (4 + nu) / 2 - sigma - nu - 2,
    }
    if not f21_zero:
        slacks["nonlinear_coupling"] = c / 2 - sigma
    return slacks


def constraint_record(sigma, nu: int = 4,
                      f21_zero: bool = False) -> ConstraintRecord:
    """Evaluate one parameter point at the coupling c = 2(1 - sigma)."""
    sigma = as_fraction(sigma)
    if not (0 < sigma < 1):
        raise ValueError(f"sigma = {sigma} must lie in (0, 1)")
    if nu < 0:
        raise ValueError(f"nu = {nu} must be >= 0")
    c = 2 * (1 - sigma)
    slacks = constraint_slacks(sigma, c, nu, f21_zero)
    feasible = all(s <= 0 for s in slacks.values())
    return ConstraintRecord(sigma=sigma, c=c, nu=nu, f21_zero=f21_zero,
                            slacks=slacks, feasible=feasible)


def constraint_table(sigma_min, sigma_max, step, nu: int = 4,
                     f21_zero: bool = False) -> list:
    """One ConstraintRecord per sigma on the rational grid; a grid of
    more than MAX_TABLE_ROWS points raises ValueError before any row."""
    lo, hi, st = (as_fraction(sigma_min), as_fraction(sigma_max),
                  as_fraction(step))
    if st <= 0:
        raise ValueError("step must be positive")
    n_rows = max(0, math.floor((hi - lo) / st) + 1)
    if n_rows > MAX_TABLE_ROWS:
        raise ValueError(f"the table would have {n_rows} rows, more than "
                         f"{MAX_TABLE_ROWS}; raise step or narrow the range")
    return [constraint_record(lo + k * st, nu=nu, f21_zero=f21_zero)
            for k in range(n_rows)]


def minimal_feasible_sigma(records: Sequence[ConstraintRecord]) -> Optional[Fraction]:
    feasible = [r.sigma for r in records if r.feasible]
    return min(feasible) if feasible else None
