"""Tests for plain-text reporting helpers (repro.analysis.reporting)."""

from __future__ import annotations

import pytest

from repro.analysis.reporting import render_bar_chart, render_table
from repro.exceptions import ValidationError


class TestRenderTable:
    def test_contains_headers_and_cells(self):
        text = render_table(["name", "value"], [["alpha", 1], ["beta", 22]])
        assert "name" in text and "value" in text
        assert "alpha" in text and "22" in text

    def test_row_count(self):
        text = render_table(["a"], [["1"], ["2"], ["3"]])
        assert len(text.splitlines()) == 2 + 3  # header + separator + rows

    def test_columns_are_aligned(self):
        text = render_table(["col"], [["x"], ["longer-cell"]])
        lines = text.splitlines()
        assert len(set(len(line) for line in lines)) == 1

    def test_empty_rows_allowed(self):
        text = render_table(["only-header"], [])
        assert "only-header" in text

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValidationError):
            render_table(["a", "b"], [["1"]])

    def test_no_headers_rejected(self):
        with pytest.raises(ValidationError):
            render_table([], [])


class TestRenderBarChart:
    def test_larger_values_get_longer_bars(self):
        text = render_bar_chart({"small": 1.0, "large": 4.0}, width=20)
        lines = {line.split(" ")[0]: line for line in text.splitlines()}
        assert lines["large"].count("█") > lines["small"].count("█")

    def test_negative_values_use_alternate_fill(self):
        text = render_bar_chart({"up": 1.0, "down": -1.0})
        assert "▒" in text and "█" in text

    def test_all_zero_values_render_empty_bars(self):
        text = render_bar_chart({"a": 0.0, "b": 0.0})
        assert "█" not in text

    def test_values_can_be_hidden(self):
        text = render_bar_chart({"a": 0.5}, show_values=False)
        assert "+0.5" not in text

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            render_bar_chart({})

    def test_bad_width_rejected(self):
        with pytest.raises(ValidationError):
            render_bar_chart({"a": 1.0}, width=0)
