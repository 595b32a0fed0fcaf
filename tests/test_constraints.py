from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakhyp import constraints
from weakhyp.constraints import (as_fraction, constraint_record,
                                 constraint_table, minimal_feasible_sigma)


class TestFractions:
    def test_float_goes_through_decimal_repr(self):
        assert as_fraction(0.001) == Fraction(1, 1000)
        assert as_fraction("0.001") == Fraction(1, 1000)
        assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)


class TestRecords:
    def test_half_with_nu_four_is_feasible(self):
        r = constraint_record("0.5")
        assert r["nu"] == constraints.NU == 4
        assert r["c"] == Fraction(1)
        assert r["feasible"]
        assert all(s <= 0 for k, s in r.items() if k.startswith("slack_"))

    def test_sigma_045_nonlinear_slack_is_one_tenth(self):
        r = constraint_record("0.45", f21_zero=False)
        assert r["c"] == Fraction(11, 10)
        assert r["slack_nonlinear_coupling"] == Fraction(1, 10)
        assert not r["feasible"]

    def test_forced_coupling_everywhere(self):
        for sigma in ("0.35", "0.5", "0.61", "0.99"):
            r = constraint_record(sigma)
            assert r["c"] == 2 * (1 - Fraction(sigma))
            # the two forcing constraints are exactly tight
            assert r["slack_transport_error"] == 0
            assert r["slack_conjugation_error"] == 0

    def test_rejects_sigma_outside_interval(self):
        with pytest.raises(ValueError):
            constraint_record("1")


def _sigma_range(monkeypatch, lo, hi):
    monkeypatch.setattr(constraints, "SIGMA_MIN", Fraction(lo))
    monkeypatch.setattr(constraints, "SIGMA_MAX", Fraction(hi))


class TestTable:
    def test_covers_the_range_by_step(self):
        recs = constraint_table("0.01")
        assert [r["sigma"] for r in recs] == [
            Fraction(30 + k, 100) for k in range(70)]

    def test_minimal_sigma_with_nonlinearity(self):
        recs = constraint_table("0.001", f21_zero=False)
        assert minimal_feasible_sigma(recs) == Fraction(1, 2)

    def test_minimal_sigma_without_f21(self):
        recs = constraint_table("0.001", f21_zero=True)
        m = minimal_feasible_sigma(recs)
        assert Fraction("0.333") <= m <= Fraction("0.334")

    def test_empty_when_all_infeasible(self, monkeypatch):
        _sigma_range(monkeypatch, "0.30", "0.40")
        recs = constraint_table("0.01", f21_zero=False)
        assert minimal_feasible_sigma(recs) is None

    @pytest.mark.parametrize("step, rows", [
        ("0.01", 11), ("0.0099", 11), ("0.1", 2), ("0.2", 1)])
    def test_counts_rows_exactly_up_to_the_cap(self, monkeypatch, step, rows):
        _sigma_range(monkeypatch, "0.4", "0.5")
        monkeypatch.setattr(constraints, "MAX_TABLE_ROWS", 11)
        recs = constraint_table(step)
        assert [r["sigma"] for r in recs] == [
            Fraction("0.4") + k * Fraction(step) for k in range(rows)]

    def test_rejects_a_table_over_the_cap_before_any_row(self, monkeypatch):
        _sigma_range(monkeypatch, "0.4", "0.5")
        monkeypatch.setattr(constraints, "MAX_TABLE_ROWS", 11)
        monkeypatch.setattr(constraints, "constraint_record", None)
        with pytest.raises(ValueError, match="12 rows"):
            constraint_table("0.009")

    @settings(max_examples=200, deadline=None)
    @given(
        i=st.integers(min_value=1, max_value=998),
        j=st.integers(min_value=1, max_value=998),
        f21=st.booleans(),
    )
    def test_feasibility_monotone_in_sigma(self, i, j, f21):
        lo, hi = sorted((Fraction(i, 1000), Fraction(j, 1000)))
        if constraint_record(lo, f21_zero=f21)["feasible"]:
            assert constraint_record(hi, f21_zero=f21)["feasible"]
