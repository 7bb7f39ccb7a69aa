"""Tests for statistics utilities."""

import math
import statistics

import pytest
from hypothesis import given, strategies as st

from repro.analysis.stats import RunningStats, confidence_interval, summarize
from repro.errors import ConfigurationError


class TestRunningStats:
    def test_empty(self):
        stats = RunningStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.variance == 0.0

    def test_matches_statistics_module(self):
        values = [1.5, 2.5, 3.0, 4.25, 5.75, 6.0]
        stats = RunningStats()
        stats.extend(values)
        assert stats.mean == pytest.approx(statistics.fmean(values))
        assert stats.variance == pytest.approx(statistics.variance(values))
        assert stats.stdev == pytest.approx(statistics.stdev(values))

    def test_min_max(self):
        stats = RunningStats()
        stats.extend([3.0, -1.0, 7.0])
        assert stats.minimum == -1.0
        assert stats.maximum == 7.0

    def test_single_sample_has_zero_variance(self):
        stats = RunningStats()
        stats.add(5.0)
        assert stats.variance == 0.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=80))
    def test_agrees_with_batch_computation(self, values):
        stats = RunningStats()
        stats.extend(values)
        assert stats.mean == pytest.approx(statistics.fmean(values), abs=1e-6, rel=1e-9)
        assert stats.variance == pytest.approx(
            statistics.variance(values), abs=1e-4, rel=1e-6
        )


class TestConfidenceInterval:
    def test_single_value(self):
        mean, half = confidence_interval([4.2])
        assert (mean, half) == (4.2, 0.0)

    def test_known_interval(self):
        values = [10.0, 12.0, 9.0, 11.0, 13.0]
        mean, half = confidence_interval(values, confidence=0.95)
        assert mean == pytest.approx(11.0)
        # t(0.975, 4) = 2.776; s = sqrt(2.5); half = 2.776 * s / sqrt(5).
        expected = 2.776 * math.sqrt(2.5) / math.sqrt(5)
        assert half == pytest.approx(expected, abs=0.01)

    def test_returns_plain_floats(self):
        mean, half = confidence_interval([1.0, 2.0, 4.0])
        assert (mean, half) == (2.3333333333333335, 3.7945830335967594)
        assert type(mean) is float
        assert type(half) is float

    def test_wider_at_higher_confidence(self):
        values = [10.0, 12.0, 9.0, 11.0, 13.0]
        _, h95 = confidence_interval(values, 0.95)
        _, h99 = confidence_interval(values, 0.99)
        assert h99 > h95

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            confidence_interval([])

    def test_bad_confidence_rejected(self):
        with pytest.raises(ConfigurationError):
            confidence_interval([1.0], confidence=1.5)


class TestSummarize:
    def test_summary_fields(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.mean == pytest.approx(2.0)
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert summary.count == 3
        assert "±" in str(summary)
