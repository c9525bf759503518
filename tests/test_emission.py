"""Exact bytes of the table and plot writers.

The golden test compares numbers at a relative tolerance, so it cannot see
a formatting change such as ``1e-3`` for ``0.001``; these expectations,
in ``data/emitted_bytes.json``, are compared byte for byte.
"""
import json
import os

import numpy as np
import pytest

from ionwire import cli, svgplot

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture(scope="module")
def expected():
    with open(os.path.join(HERE, "data", "emitted_bytes.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


TABLE = {
    "f64": np.array([np.nan, np.inf, -np.inf, -0.0, 1e-320, 0.1]),
    "f32": np.array([0.1, 1.5, -2.25, 3e-8, 1e30, 0.0], dtype=np.float32),
    "i64": np.array([0, -1, 2**40, 7, -2**62, 3], dtype=np.int64),
    "flag": np.array([True, False, True, False, False, True]),
    "name": ["a", "b c", "", "x-y", "e", "f"],
    # like the headline's passed column: "" where a row has no band
    "passed": ["", True, False, "", True, False],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_bytes_are_frozen(fmt, expected, tmp_path):
    cli._table(cli._Writer(str(tmp_path)), "t", "demo", TABLE, fmt)
    assert (tmp_path / f"t.{fmt}").read_bytes() == expected[fmt].encode()


def test_table_cells_match_the_per_cell_formatter(tmp_path):
    cli._table(cli._Writer(str(tmp_path)), "t", "demo", TABLE, "csv")
    body = (tmp_path / "t.csv").read_text().splitlines()[2:]
    rows = zip(*TABLE.values())
    assert body == [",".join(map(cli._csv_cell, row)) for row in rows]


PLOTS = {
    "plot_lists": ([("a", [0, 1, 2.5, 4], [1.0, 3, 2, -0.5]),
                    ("one", [2.0], [0.25])],
                   dict(title="lists", xlabel="x", ylabel="y")),
    "plot_one_point": ([("solo", [3.0], [7.0])], {}),
    "plot_error_bars": ([("err", np.array([1.36, 1.365, 1.37]),
                          np.array([2.0, 5.5, 3.25]), [0.5, 1.25, 0.0]),
                         ("trend", np.array([1.36, 1.37]),
                          np.array([1.0, 6.0]))],
                        dict(title="bars", xlabel="f", ylabel="r",
                             width=320, height=200)),
}


@pytest.mark.parametrize("name", sorted(PLOTS))
def test_line_plot_bytes_are_frozen(name, expected):
    series, kwargs = PLOTS[name]
    assert svgplot.line_plot(series, **kwargs) == expected[name]
