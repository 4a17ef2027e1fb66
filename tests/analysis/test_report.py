"""Tests for table rendering."""

import pytest

from repro.analysis.report import format_fraction, format_table


class TestFormatFraction:
    def test_positive(self):
        assert format_fraction(0.316) == "+31.6%"

    def test_negative(self):
        assert format_fraction(-0.052) == "-5.2%"

    def test_digits(self):
        assert format_fraction(0.12345, digits=2) == "+12.35%"


class TestFormatTable:
    def test_alignment_and_content(self):
        text = format_table(("name", "value"),
                            [("a", 1.0), ("bb", 22.5)])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.000" in text and "22.500" in text

    def test_title_rendering(self):
        text = format_table(("x",), [(1,)], title="My Table")
        assert text.splitlines()[0] == "My Table"
        assert text.splitlines()[1] == "========"

    def test_numeric_columns_right_aligned(self):
        text = format_table(("n",), [(1,), (100,)])
        rows = text.splitlines()[-2:]
        assert rows[0].endswith("1")
        assert rows[1].endswith("100")

    def test_text_columns_left_aligned(self):
        text = format_table(("name",), [("a",), ("long",)])
        rows = text.splitlines()[-2:]
        assert rows[0].startswith("a")

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError, match="row width"):
            format_table(("a", "b"), [(1,)])

    def test_empty_rows_ok(self):
        text = format_table(("a", "b"), [])
        assert "a" in text and "b" in text
