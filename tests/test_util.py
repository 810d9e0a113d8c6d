"""CSV round-trips and float tokens."""

import csv

import numpy as np

from krc.util import (
    float_token,
    format_float_array,
    write_csv,
)


def test_csv_roundtrip(tmp_path):
    path = str(tmp_path / "rows.csv")
    write_csv(path, ("a", "b"), [("1", "x"), ("2", "y")])
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["a", "b"]
    assert rows == [["1", "x"], ["2", "y"]]


def test_float_token_roundtrips():
    for x in (0.1, 1 / 3, 1e-300, 123456.789, 2.0):
        assert float(float_token(x)) == x
    tokens = format_float_array(np.array([0.25, 1 / 3]))
    assert [float(t) for t in tokens] == [0.25, 1 / 3]
