"""Tests of the Pearson chi-square helper (checked against scipy)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from repro.stats.chi2 import chi2_sf, pearson_chi2
from repro.stats.contingency import ContingencyTable


class TestPearsonChi2:
    def test_matches_scipy_on_integer_table(self):
        observed = np.array([[10, 20, 30], [25, 15, 10]], dtype=float)
        ours = pearson_chi2(ContingencyTable(observed))
        scipy_stat, scipy_p, scipy_df, _ = scipy_stats.chi2_contingency(observed,
                                                                        correction=False)
        assert ours.statistic == pytest.approx(scipy_stat)
        assert ours.df == scipy_df
        assert ours.p_value == pytest.approx(scipy_p)

    def test_accepts_plain_arrays(self):
        result = pearson_chi2(np.array([[5.0, 5.0], [5.0, 5.0]]))
        assert result.statistic == pytest.approx(0.0)
        assert result.p_value == pytest.approx(1.0)

    def test_empty_columns_are_dropped(self):
        with_zero = np.array([[10, 0, 20], [5, 0, 25]], dtype=float)
        without_zero = np.array([[10, 20], [5, 25]], dtype=float)
        assert pearson_chi2(with_zero).statistic == pytest.approx(
            pearson_chi2(without_zero).statistic
        )
        assert pearson_chi2(with_zero).df == 1

    def test_float_conversion(self):
        result = pearson_chi2(np.array([[10.0, 20.0], [20.0, 10.0]]))
        assert float(result) == pytest.approx(result.statistic)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=6),
        st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=6),
    )
    def test_agrees_with_scipy_on_random_tables(self, row_a, row_b):
        m = min(len(row_a), len(row_b))
        observed = np.array([row_a[:m], row_b[:m]], dtype=float)
        # need non-degenerate margins for scipy
        if observed.sum() == 0 or np.any(observed.sum(axis=1) == 0):
            return
        keep = observed.sum(axis=0) > 0
        if keep.sum() < 2:
            return
        ours = pearson_chi2(ContingencyTable(observed))
        scipy_stat, _, scipy_df, _ = scipy_stats.chi2_contingency(
            observed[:, keep], correction=False
        )
        assert ours.statistic == pytest.approx(scipy_stat, rel=1e-10, abs=1e-10)
        assert ours.df == scipy_df


class TestChi2Sf:
    def test_zero_df_returns_one(self):
        assert chi2_sf(5.0, 0) == 1.0

    def test_matches_scipy(self):
        assert chi2_sf(3.84, 1) == pytest.approx(scipy_stats.chi2.sf(3.84, 1))

    def test_bit_identical_to_scipy_distribution(self):
        for df in range(1, 64):
            for x in np.linspace(0.0, 2.5 * df + 40.0, 41):
                assert chi2_sf(float(x), df) == float(scipy_stats.chi2.sf(x, df)), (x, df)

    def test_outside_the_support_returns_one(self):
        assert chi2_sf(-1.0, 1) == chi2_sf(0.0, 3) == chi2_sf(5.0, 0) == 1.0
