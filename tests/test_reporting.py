"""Tests for the report formatting helpers."""

import math

import pytest

from singbern.reporting import format_cell, format_float


@pytest.mark.parametrize("v, text", [
    (math.inf, "inf"),
    (-math.inf, "-inf"),
    (math.nan, "nan"),
    (-0.0, "-0"),
    (5e-324, "4.9406564584124654e-324"),
    (2.2250738585072009e-308, "2.2250738585072009e-308"),
    (0.1, "0.10000000000000001"),
])
def test_format_float(v, text):
    assert format_float(v) == text
    assert format_cell(v) == text
