"""Unit tests for the statistics helpers and the sweep driver."""

import pytest

from repro.analysis.stats import (
    empirical_error_rate,
    mean,
    quantile,
    ratio_of_means,
    std,
    summarize,
    wilson_interval,
)
from repro.analysis.sweep import SweepResult, derive_point_seed, format_table, sweep


class TestBasicStatistics:
    def test_mean_and_std(self):
        assert mean([1, 2, 3, 4]) == 2.5
        assert std([2, 2, 2]) == 0.0
        assert std([0, 2]) == 1.0

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            mean([])
        with pytest.raises(ValueError):
            std([])
        with pytest.raises(ValueError):
            quantile([], 0.5)

    def test_quantile(self):
        values = [1, 2, 3, 4, 5]
        assert quantile(values, 0.0) == 1
        assert quantile(values, 0.5) == 3
        assert quantile(values, 1.0) == 5
        assert quantile(values, 0.25) == 2
        assert quantile([7], 0.9) == 7

    def test_quantile_interpolates(self):
        assert quantile([0, 10], 0.25) == pytest.approx(2.5)

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            quantile([1, 2], 1.5)

    def test_summarize_keys_and_consistency(self):
        summary = summarize([1, 2, 3, 4, 5])
        assert summary["count"] == 5
        assert summary["mean"] == 3
        assert summary["min"] == 1
        assert summary["max"] == 5
        assert summary["median"] == 3
        assert summary["min"] <= summary["p90"] <= summary["max"]

    def test_summarize_empty_raises_clear_value_error(self):
        with pytest.raises(ValueError, match="summarize"):
            summarize([])
        # generators drain too: the empty check happens after materializing
        with pytest.raises(ValueError, match="summarize"):
            summarize(v for v in ())

    def test_quantile_empty_raises_clear_value_error(self):
        with pytest.raises(ValueError, match="quantile of no values"):
            quantile([], 0.0)
        with pytest.raises(ValueError, match="quantile of no values"):
            quantile((), 1.0)


class TestErrorRates:
    def test_empirical_error_rate(self):
        assert empirical_error_rate(0, 10) == 0.0
        assert empirical_error_rate(3, 10) == 0.3

    def test_empirical_error_rate_validation(self):
        with pytest.raises(ValueError):
            empirical_error_rate(1, 0)
        with pytest.raises(ValueError):
            empirical_error_rate(5, 3)

    def test_wilson_interval_contains_point_estimate(self):
        low, high = wilson_interval(2, 20)
        assert low <= 0.1 <= high
        assert 0.0 <= low <= high <= 1.0

    def test_wilson_interval_zero_failures_has_positive_width(self):
        low, high = wilson_interval(0, 30)
        assert low == 0.0
        assert high > 0.0

    def test_wilson_interval_narrows_with_more_trials(self):
        _, high_small = wilson_interval(0, 10)
        _, high_large = wilson_interval(0, 1000)
        assert high_large < high_small

    def test_wilson_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)

    def test_wilson_zero_trials_raises_value_error_not_zero_division(self):
        with pytest.raises(ValueError, match="at least one trial"):
            wilson_interval(0, 0)

    def test_wilson_non_positive_z_rejected(self):
        with pytest.raises(ValueError, match="z must be positive"):
            wilson_interval(1, 10, z=0.0)
        with pytest.raises(ValueError, match="z must be positive"):
            wilson_interval(1, 10, z=-1.96)

    def test_ratio_of_means(self):
        assert ratio_of_means([10, 20], [5, 5]) == 3.0
        with pytest.raises(ValueError):
            ratio_of_means([1], [0])


class TestSweep:
    def test_sweep_covers_the_grid(self):
        result = sweep(
            {"a": [1, 2], "b": ["x", "y"]},
            run=lambda a, b: {"value": f"{a}{b}"},
        )
        assert len(result) == 4
        assert set(result.column("value")) == {"1x", "1y", "2x", "2y"}

    def test_grid_point_is_merged_into_each_row(self):
        result = sweep({"a": [3]}, run=lambda a: {"double": 2 * a})
        assert result.rows[0] == {"a": 3, "double": 6}

    def test_where_filters_rows(self):
        result = sweep({"a": [1, 2], "b": [10]}, run=lambda a, b: {"s": a + b})
        filtered = result.where(a=2)
        assert len(filtered) == 1
        assert filtered.rows[0]["s"] == 12

    def test_iteration(self):
        result = SweepResult(rows=[{"x": 1}, {"x": 2}])
        assert [row["x"] for row in result] == [1, 2]

    def test_derived_seeds_are_stable_and_distinct(self):
        seeds = [derive_point_seed(123, i) for i in range(50)]
        assert seeds == [derive_point_seed(123, i) for i in range(50)]
        assert len(set(seeds)) == 50
        assert derive_point_seed(124, 0) != derive_point_seed(123, 1)


class TestFormatTable:
    def test_contains_headers_and_values(self):
        text = format_table([{"delta": 8, "rate": 0.03125}], title="Example")
        assert "Example" in text
        assert "delta" in text and "rate" in text
        assert "8" in text and "0.03125" in text

    def test_column_selection_and_order(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b", "a"])
        header = text.splitlines()[0]
        assert header.index("b") < header.index("a")

    def test_empty_rows(self):
        assert "(no rows)" in format_table([])

    def test_missing_column_rendered_empty(self):
        text = format_table([{"a": 1}], columns=["a", "missing"])
        assert "missing" in text

    def test_float_formatting(self):
        text = format_table([{"v": 0.123456789}], float_format="{:.2f}")
        assert "0.12" in text
